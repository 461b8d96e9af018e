"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code, around its calls into
``repro``; spans inside the library are a separate concern. A span has a
name, a start, an end and a parent; the recorder keeps them in a list and
writes them out as Chrome trace-event JSON (loadable in Perfetto or
``chrome://tracing``) when the run ends.

Spans can be opened around a call (:meth:`Tracer.span`) or added after
the fact from timestamps taken during the run (:meth:`Tracer.add`), which
is how compile passes (from ``CompilationResult.timings``) and served
requests (from the load generator's timestamps) enter the trace.

The recorder times its own bookkeeping, so the traced run can state its
overhead against the work it traced.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans when ``enabled``; otherwise every call is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: Seconds spent inside the recorder itself.
        self.bookkeeping_s = 0.0

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Optional[Span]]:
        """Record a span around the ``with`` body, nested under the
        innermost open span."""
        if not self.enabled:
            yield None
            return
        begin = time.perf_counter()
        span = self._new(name, begin, begin, self._current(), args)
        self._stack.append(span.id)
        self.bookkeeping_s += time.perf_counter() - begin
        try:
            yield span
        finally:
            end = time.perf_counter()
            span.end = end
            self._stack.pop()
            self.bookkeeping_s += time.perf_counter() - end

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        **args,
    ) -> Optional[int]:
        """Record a span from timestamps taken earlier; returns its id."""
        if not self.enabled:
            return None
        begin = time.perf_counter()
        parent = self._current() if parent is None else parent
        span = self._new(name, start, end, parent, args)
        self.bookkeeping_s += time.perf_counter() - begin
        return span.id

    def _current(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def _new(self, name, start, end, parent, args) -> Span:
        span = Span(len(self.spans), name, start, end, parent, args)
        self.spans.append(span)
        return span

    # -- analysis ----------------------------------------------------------------

    def children(self) -> Dict[Optional[int], List[Span]]:
        table: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            table.setdefault(span.parent, []).append(span)
        return table

    def self_times(self) -> Dict[int, float]:
        """Per span: its duration minus the part of it that child spans
        cover (children may overlap each other; their union counts once)."""
        table = self.children()
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(table.get(span.id, ()), key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.id] = span.duration - covered
        return result

    def check_layer_sum(self, figure: str, tolerance: float) -> "tuple[float, List[str]]":
        """The layer-sum invariant for every span named ``figure``.

        Each such span is an end-to-end figure (one compile, one served
        request). Its descendants must lie inside it and must not overlap
        one another, so that their self times plus the figure's own
        unattributed self time add up to the figure exactly; and the
        unattributed share must stay within ``tolerance``. Returns the
        largest unattributed share seen and the list of violations.
        """
        table = self.children()
        selfs = self.self_times()
        worst = 0.0
        problems: List[str] = []
        for span in self.spans:
            if span.name != figure or span.duration <= 0:
                continue
            subtree = self._subtree(span, table)
            layer_sum = sum(selfs[s.id] for s in subtree)
            slack = 1e-6 * span.duration + 1e-6
            if abs(layer_sum - span.duration) > slack:
                problems.append(
                    f"{figure}#{span.id}: layers sum to {layer_sum:.6f}s, "
                    f"figure is {span.duration:.6f}s"
                )
            unattributed = selfs[span.id] / span.duration
            worst = max(worst, unattributed)
            if unattributed > tolerance:
                problems.append(
                    f"{figure}#{span.id}: {unattributed:.1%} of the figure is "
                    f"outside every layer (limit {tolerance:.0%})"
                )
        return worst, problems

    @staticmethod
    def _subtree(root: Span, table) -> List[Span]:
        """``root`` and its descendants. A descendant that leaks out of
        its parent or overlaps a sibling is counted in full but covered
        only once, so it breaks the exact sum the caller checks."""
        out = [root]
        frontier = [root]
        while frontier:
            kids = table.get(frontier.pop().id, ())
            out.extend(kids)
            frontier.extend(kids)
        return out

    # -- export ------------------------------------------------------------------

    def write_chrome(self, path: str, process_name: str) -> None:
        """Write the spans as Chrome trace-event JSON (complete events)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "args": {"name": process_name},
            }
        ]
        for span in self.spans:
            args = dict(span.args)
            args["span_id"] = span.id
            if span.parent is not None:
                args["parent_id"] = span.parent
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": _lane(span, self.spans),
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "args": args,
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _lane(span: Span, spans: List[Span]) -> int:
    """Served requests overlap one another, so each one gets its own
    lane (tid) in the viewer; everything else shares lane 1."""
    while span.parent is not None and span.name != "request":
        span = spans[span.parent]
    return 2 + span.id % 64 if span.name == "request" else 1
