"""``repro.analysis.jsonfmt`` writes the stdlib's JSON, byte for byte.

The oracles are ``json.dumps(value, indent=2, sort_keys=True)`` for
:func:`~repro.analysis.jsonfmt.dumps` and ``json.dumps(value,
sort_keys=True, separators=(",", ":"))`` for
:func:`~repro.analysis.jsonfmt.compact`: saved ResultSets are addressed by
the sha256 of the first, spec hashes by the second, and the golden corpus,
unit records and wire frames are compared byte for byte, so the C-encoder
renderers must never differ from them — not on empty or nested-empty
containers, special floats, big ints, numpy scalars or escaped characters.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import jsonfmt
from repro.analysis.resultset import ResultSet
from repro.scenarios import goldens
from repro.scenarios.result import ReplicateResult, ScenarioResult, results_to_json


def oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def compact_oracle(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f'
                                         'é ☃\U0001f600'),
                         st.characters()), max_size=8)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.floats().map(np.float64),
    TEXT,
)


#: One key type per dict: the stdlib cannot sort mixed key types either.
KEYS = [TEXT, st.integers(), st.floats(allow_nan=False), st.booleans(),
        st.none(), st.floats(allow_nan=False).map(np.float64)]


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        *[st.dictionaries(keys, children, max_size=5) for keys in KEYS])


JSON_VALUES = st.recursive(SCALARS, containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [[]], "c": ({},), "d": [{}, [], ()]})
@example([[[[]]], {"k": {"k": {}}}])
@example({"x": [1, {"y": [2, {"z": []}]}], "é\"\\\x01": -0.0})
@example({1: {"a": 1}, 2.5: [1], 0: []})
@example({True: [1], False: {"a": float("nan")}})
@example({None: {"inner": [float("inf"), float("-inf")]}})
@example([np.float64(0.1), {"k": np.float64(-0.0)}, 10 ** 40])
def test_matches_the_stdlib(value):
    assert jsonfmt.dumps(value) == oracle(value)
    assert jsonfmt.compact(value) == compact_oracle(value)


@pytest.mark.parametrize("value", [
    {"a": {1, 2}},
    {"a": [1, object()]},
    {"nested": {"a": [object()]}},
    {(1, 2): 1},
    {(1, 2): [1]},
])
def test_rejects_what_the_stdlib_rejects(value):
    with pytest.raises(TypeError):
        oracle(value)
    with pytest.raises(TypeError):
        jsonfmt.dumps(value)
    with pytest.raises(TypeError):
        jsonfmt.compact(value)


@pytest.mark.parametrize("value", [
    {1: "a", -2: "b"},
    {2.5: 1, -0.0: 2, float("inf"): 3, float("-inf"): 4},
    {float("nan"): 1},
    {True: 1, False: 2},
    {None: [None]},
    {np.float64(0.1): 1},
    float("nan"), float("inf"), float("-inf"), np.float64(-0.0),
    "plain é \u2603 \x00", 10 ** 40, True, None,
])
def test_compact_accepts_what_the_stdlib_accepts(value):
    assert jsonfmt.compact(value) == compact_oracle(value)


@pytest.mark.parametrize("value", [
    {1, 2},
    b"bytes",
    object(),
    {"a": [1, object()]},
    {(1, 2): 1},
    {1: "int", "a": "str"},
])
def test_compact_rejects_what_the_stdlib_rejects(value):
    with pytest.raises(TypeError) as stdlib:
        compact_oracle(value)
    with pytest.raises(TypeError) as ours:
        jsonfmt.compact(value)
    assert str(ours.value) == str(stdlib.value)


def test_a_self_containing_value_is_rejected():
    """The cached encoders keep no circular-reference markers: where the
    stdlib raises ``ValueError`` they raise ``RecursionError``."""
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError):
        compact_oracle(loop)
    with pytest.raises(RecursionError):
        jsonfmt.compact(loop)
    with pytest.raises(RecursionError):
        jsonfmt.dumps(loop)


METRICS = st.dictionaries(TEXT, st.one_of(
    st.floats(), st.integers(min_value=-2 ** 53, max_value=2 ** 53),
    st.booleans(), st.floats().map(np.float64)), max_size=4)
REPLICATES = st.lists(st.builds(ReplicateResult, seed=st.integers(),
                                metrics=METRICS), max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(REPLICATES, max_size=3), TEXT, JSON_VALUES)
def test_results_render_like_their_dicts(replicate_lists, label, spec_value):
    """The replicate rows are rendered without building their dicts; the
    text is still the oracle's (empty metrics take the general path)."""
    results = [ScenarioResult(scenario="s", family="edge", label=label,
                              spec={"architecture": {"x": spec_value}},
                              replicates=replicates)
               for replicates in replicate_lists]
    resultset = ResultSet(results, name=label, failures=[{"key": label}])
    assert resultset.to_json() == oracle(resultset.to_dict())
    assert results_to_json(results) == oracle(
        [result.to_dict() for result in results])
    for result in results:
        assert result.to_json() == oracle(result.to_dict())


GOLDENS = sorted(goldens.goldens_dir().glob("*.json"))


@pytest.mark.parametrize("path", GOLDENS, ids=[path.stem for path in GOLDENS])
def test_every_golden_re_renders_to_its_bytes(path):
    text = path.read_text(encoding="utf-8")
    assert jsonfmt.dumps(json.loads(text)) + "\n" == text
    assert ResultSet.from_json(text).to_json() + "\n" == text
    assert jsonfmt.compact(json.loads(text)) == compact_oracle(json.loads(text))


SOURCES = Path(jsonfmt.__file__).resolve().parents[1]


def test_compact_json_is_only_written_by_jsonfmt():
    """No ``json.dumps(..., separators=...)`` is left in ``src/repro``
    outside :mod:`~repro.analysis.jsonfmt`: compact JSON has one encoder."""
    found = []
    for path in sorted(SOURCES.rglob("*.py")):
        if path.name == "jsonfmt.py" and path.parent.name == "analysis":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "dumps"
                    and any(keyword.arg == "separators"
                            for keyword in node.keywords)):
                found.append(f"{path.relative_to(SOURCES)}:{node.lineno}")
    assert found == []
