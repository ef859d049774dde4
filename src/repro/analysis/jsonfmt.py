"""The package's two JSON layouts, rendered by the C encoder.

Both are byte-identical to a stdlib ``json.dumps`` with ``sort_keys=True``
(``tests/test_jsonfmt.py`` holds each to that oracle):

* :func:`compact` — ``separators=(",", ":")``, no whitespace: unit-cache
  and journal records, wire frames and the text a ``spec_hash`` digests.
  One C encoder is built once and reused, so a call skips the stdlib's
  per-call ``JSONEncoder`` construction.
* :func:`dumps` — an ``indent`` of 2: saved ResultSets, RunStore records,
  scenario, diff and lint reports.  A saved object's address is the
  sha256 of this text.  The stdlib uses its C encoder only when ``indent
  is None``; with an indent it falls back to the pure-Python one, several
  times slower.

At nesting depth ``d`` the indented form of a container whose values are
all scalars or empty containers is the C encoder's output with item
separator ``",\\n" + "  " * (d + 1)``, once a newline and indent follow the
opening bracket and precede the closing one.  One such encoder is cached
per depth, so a flat container costs one C call; Python code runs only for
containers that hold non-empty containers.  A caller that knows a
subtree's shape may render it itself at the depth where it sits and place
it as a :class:`Fragment`.

The cached encoders keep no circular-reference markers (a shared marker
dict would be neither reentrant nor thread-safe): a self-containing value
raises ``RecursionError`` where the stdlib raises ``ValueError``.  Every
other input, rejected ones included, behaves as in the stdlib.
"""

from __future__ import annotations

from _json import encode_basestring_ascii as _encode_string
from _json import make_encoder as _make_encoder
from typing import Any, Callable, List, Tuple


class Fragment:
    """JSON text that :func:`render` places verbatim.

    The caller rendered it at the depth where it is placed (with
    :func:`level` and :func:`render`), so the document stays byte-identical
    to the oracle.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


_INDENT = "  "
_CONTAINERS = (dict, list, tuple, Fragment)

#: Per depth: ``(encoder, "\n" + inner indent, "\n" + outer indent)``.
_Level = Tuple[Callable[[Any, int], Any], str, str]
_LEVELS: List[_Level] = []


def _unserialisable(obj: Any) -> Any:
    raise TypeError(
        f"Object of type {obj.__class__.__name__} is not JSON serializable")


def level(depth: int) -> _Level:
    """The cached encoder of ``depth`` and its bracket padding."""
    while len(_LEVELS) <= depth:
        inner = "\n" + _INDENT * (len(_LEVELS) + 1)
        encoder = _make_encoder(None, _unserialisable, _encode_string, None,
                                ": ", "," + inner, True, False, True)
        _LEVELS.append((encoder, inner, "\n" + _INDENT * len(_LEVELS)))
    return _LEVELS[depth]


#: Scalars encode the same at every depth.
_SCALAR = level(0)[0]

_COMPACT = _make_encoder(None, _unserialisable, _encode_string, None,
                         ":", ",", True, False, True)


def compact(obj: Any) -> str:
    """The stdlib's ``json.dumps(obj, sort_keys=True, separators=(",",
    ":"))``, byte for byte."""
    return "".join(_COMPACT(obj, 0))


def _scalar(value: Any) -> str:
    """The JSON text of a value that is not a container (at any depth)."""
    return "".join(_SCALAR(value, 0))


def dumps(obj: Any) -> str:
    """The stdlib's sorted, 2-space-indented ``json.dumps(obj)``, byte for
    byte."""
    return render(obj, 0)


def render(obj: Any, depth: int) -> str:
    """:func:`dumps` of a value that sits ``depth`` containers deep."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        values: Any = obj.values()
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        values = obj
    elif isinstance(obj, Fragment):
        return obj.text
    else:
        return _scalar(obj)
    encoder, inner, outer = level(depth)
    for value in values:
        if isinstance(value, _CONTAINERS) and value:
            break
    else:
        text = "".join(encoder(obj, 0))
        return text[0] + inner + text[1:-1] + outer + text[-1]
    # Scalars and empty containers are encoded inline: this is the hot loop.
    child = depth + 1
    if isinstance(obj, dict):
        body = ("," + inner).join([
            (_encode_string(key) if isinstance(key, str) else _key(key)) + ": "
            + (render(value, child) if isinstance(value, _CONTAINERS) and value
               else "".join(_SCALAR(value, 0)))
            for key, value in sorted(obj.items())])
        return "{" + inner + body + outer + "}"
    body = ("," + inner).join([
        render(value, child) if isinstance(value, _CONTAINERS) and value
        else "".join(_SCALAR(value, 0)) for value in obj])
    return "[" + inner + body + outer + "]"


def _key(key: Any) -> str:
    """A non-string dict key as the stdlib writes it: its scalar text."""
    if key is None or isinstance(key, (int, float)):
        return '"' + _scalar(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")
