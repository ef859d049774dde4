"""In-memory spans recorded by the harness around its calls into each layer.

A span is ``(name, start, end, parent, pass)``: ``parent`` is the index of
the span that was open when this one began (``None`` for a pass's root) and
``pass`` is shared by every span of one pass.  Nothing is written while a
run measures; :meth:`Tracer.to_dicts` is dumped when the run ends.

A layer's *self time* is its span's duration minus the part covered by its
child spans, so the self times of one pass add up to that pass's wall
clock exactly (the root's self time is the harness's own glue).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional


#: Every span name the harness records, in pass order; ``pass`` is the root
#: and its self time is the harness's own glue between the layers.
LAYERS = ("pass", "plan.compile", "runstore.completed_units", "adapter.setup",
          "adapter.run", "adapter.collect", "runstore.put_unit",
          "backend.execute", "plan.assemble", "runstore.save",
          "resultset.to_json")


class Tracer:
    """Span recorder; ``begin``/``end`` cost well under a microsecond each."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, pass id]`` per span.
        self.spans: List[list] = []
        self.pass_id = 0
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent: Optional[int] = self._open[-1] if self._open else None
        self._open.append(index)
        self.spans.append([name, perf_counter(), None, parent, self.pass_id])
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        if self._open.pop() != index:
            raise RuntimeError("spans must close in the order they nest")

    def next_pass(self) -> None:
        if self._open:
            raise RuntimeError("a pass ended with spans still open")
        self.pass_id += 1

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """``{pass id: {span name: summed self seconds}}``."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        by_pass: Dict[int, Dict[str, float]] = {}
        for index, (name, start, end, _, pass_id) in enumerate(self.spans):
            layers = by_pass.setdefault(pass_id, {})
            layers[name] = layers.get(name, 0.0) + (end - start) - covered[index]
        return by_pass

    def to_dicts(self) -> List[Dict[str, object]]:
        return [{"name": name, "start": start, "end": end,
                 "parent": parent, "pass": pass_id}
                for name, start, end, parent, pass_id in self.spans]
