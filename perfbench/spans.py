"""In-memory spans around fairpost's public functions.

A :class:`Tracer` replaces each target function at the name its caller
looks it up under (``fairpost.barycenter_lp.linprog``,
``fairpost.sweep.fit``, ``FairPostprocessor.predict_batch``, ...) with a
wrapper that records a span, and puts the original back on
:meth:`Tracer.uninstall`.  The program's own code is not modified.

A span is (name, start, end, parent, op): times are ``perf_counter_ns``,
``parent`` is the index of the enclosing span, ``op`` the benchmark
operation it belongs to.  A span's self time is its duration minus the
durations of its children; children run sequentially inside their parent,
so the self times of one operation add up to its wall time.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter_ns


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    op: int
    tags: dict | None


@dataclass(frozen=True)
class Target:
    """Replace ``owner.attr``.  ``name=None`` counts calls without a span;
    ``tags(args, result)`` returns facts to attach to the span."""

    owner: object
    attr: str
    name: str | None
    tags: object = None


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self.calls: dict[int, Counter] = defaultdict(Counter)
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        for t in self.targets:
            original = vars(t.owner)[t.attr]
            self._originals.append((t.owner, t.attr, original))
            if t.name is None:
                setattr(t.owner, t.attr, self._counter(t.attr, original))
            else:
                setattr(t.owner, t.attr, self._wrap(t.name, original, t.tags))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def call(self, name, fn, *args, tags=None, **kwargs):
        """Run ``fn`` inside a span; the innermost open span is its parent."""
        span = Span(name, 0, 0, self._stack[-1] if self._stack else None, self.op, None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter_ns()
            self._stack.pop()
        if tags is not None:
            span.tags = tags(args, result)
        return result

    def _wrap(self, name, fn, tags):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, tags=tags, **kwargs)
        return traced

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[self.op][name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- read-out -----------------------------------------------------------

    def self_ns(self) -> list[int]:
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def self_ms_by_op(self) -> dict[int, Counter]:
        """Per operation, the summed self time of each span name in ms."""
        per_op: dict[int, Counter] = defaultdict(Counter)
        for s, own in zip(self.spans, self.self_ns()):
            per_op[s.op][s.name] += own / 1e6
        return per_op

    def durations_ms(self, name, where=lambda tags: True) -> list[float]:
        return [(s.end - s.start) / 1e6 for s in self.spans
                if s.name == name and where(s.tags or {})]

    def tag_totals(self, op: int) -> Counter:
        """Sum of every numeric tag over the spans of one operation, plus
        the call counts of counted-only targets."""
        total = Counter(self.calls.get(op, {}))
        for s in self.spans:
            if s.op == op and s.tags:
                total.update({f"{s.name}.{key}": value for key, value in s.tags.items()})
        return total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            fh.writelines(f"{s.name},{s.start},{s.end},"
                          f"{'' if s.parent is None else s.parent},{s.op}\n"
                          for s in self.spans)
