"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each call into udlab:
around the public functions the workloads call, and inside calls through
the wrapping point generator below, which ud_trend and the Weyl routines
accept in place of a plain generator. A span records its name, start and
end, the span that caused it and the op it belongs to.

Some public calls are made only inside another public call (index_sets
inside weyl_sum_over_sets, parse_expr inside build_generator). The
traced run re-makes those calls from outside, right after the enclosing
call returns, as "replay" spans nested in the enclosing span. A replay's
duration is taken off the enclosing span's self time, since the call
already ran once inside it, and off the traced wall time when the trace
overhead is computed.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from udlab import weyl as wy


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]   # index into Tracer.spans; None for an op root
    op: int
    replay: bool


class Tracer:
    """Collects spans and counters from one thread."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []
        self._op = -1

    @contextmanager
    def op(self, name: str):
        """Root span for one op; every span opened inside belongs to it."""
        self._op += 1
        with self._span(name, None, False):
            yield

    def span(self, name: str, replay: bool = False):
        return self._span(name, self._open[-1], replay)

    @contextmanager
    def _span(self, name: str, parent: Optional[int], replay: bool):
        span = Span(name, time.perf_counter(), 0.0, parent, self._op, replay)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount=1) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self time per span name, over every span below an op root."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: Dict[str, float] = Counter()
        for index, span in enumerate(self.spans):
            if span.parent is None:
                continue
            kids = children.get(index, [])
            covered = union_length([(k.start, k.end) for k in kids])
            rerun = sum(k.end - k.start for k in kids if k.replay)
            totals[span.name] += span.end - span.start - covered - rerun
        return totals

    def replay_seconds(self, ops: range) -> float:
        return sum(s.end - s.start for s in self.spans
                   if s.replay and s.op in ops)

    def layer_cover(self, ops: range) -> float:
        """Wall time inside the given ops that some layer span covers."""
        return union_length([(s.start, s.end) for s in self.spans
                             if s.parent is not None and s.op in ops])

    def dump(self) -> List[Dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, "replay": s.replay}
                for s in self.spans]


class _NullTracer:
    """Stands in for a Tracer when tracing is off."""

    def span(self, name: str, replay: bool = False):
        return nullcontext()

    def count(self, name: str, amount: int = 1) -> None:
        pass


NULL = _NullTracer()


def union_length(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


# ---------------------------------------------------------------------------
# Wrapping point generator


class TracedCoord:
    """Delegates to a tower or product coordinate recipe and times each
    fracs call as weyl.tower or weyl.product."""

    def __init__(self, coord, tracer: Tracer):
        self.coord = coord
        self._tracer = tracer
        self._layer = "weyl.tower" if isinstance(coord, wy.TowerCoord) else "weyl.product"

    def fracs(self, indices):
        with self._tracer.span(self._layer):
            out = self.coord.fracs(indices)
        if self._layer == "weyl.tower":
            self._tracer.peak("weyl.tower.mp_bits", self.coord.precision_bits)
        return out

    @property
    def precision_bits(self) -> int:
        return self.coord.precision_bits

    def describe(self) -> str:
        return self.coord.describe()


class TracedGenerator(wy.PointGenerator):
    """A PointGenerator over the same coordinates whose fracs calls show
    up as weyl.fracs spans, with one child span per coordinate."""

    def __init__(self, gen: wy.PointGenerator, tracer: Tracer):
        super().__init__([TracedCoord(c, tracer) for c in gen.coords])
        self._tracer = tracer

    def fracs(self, indices):
        with self._tracer.span("weyl.fracs"):
            out = super().fracs(indices)
        self._tracer.count("weyl.fracs.calls")
        self._tracer.count("weyl.fracs.points", len(out))
        return out
