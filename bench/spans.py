"""In-memory span tracing of gevrey-ns, installed from outside the package.

The package binds imported names with ``from .x import y``, so a function is
wrapped where its caller looks it up (``verify.integrate``, not
``solver.integrate``).  ``scipy.fft.rfft2`` / ``irfft2`` are wrapped on the
``scipy.fft`` module, which every transform in the package goes through.
Transforms are not recorded as spans of their own: their time, call count
and transformed planes are charged to the innermost open span, so a span's
self time excludes the transforms made under it.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    item: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0     # time covered by child spans and transforms
    fft_calls: int = 0       # transforms made directly under this span
    fft_planes: int = 0
    planes_incl: int = 0     # filled by Tracer.finish: planes in the whole subtree

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """Records spans and transform counts while installed; see module docstring."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    item: str = ""
    _open: list[int] = field(default_factory=list)
    _saved: list = field(default_factory=list)
    _fft: dict = field(default_factory=dict)  # (input shape, real shape) -> stats

    # -- recording ---------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append(Span(name, self.item, time.perf_counter(), parent))

    def exit(self) -> None:
        span = self.spans[self._open.pop()]
        span.end = time.perf_counter()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def _count_fft(self, key, seconds: float) -> None:
        stats = self._fft.get(key)
        if stats is None:
            shape, real = key
            # [planes per call, points per plane, calls, seconds]
            stats = self._fft[key] = [math.prod(shape[:-2]), math.prod(real), 0, 0.0]
        stats[2] += 1
        stats[3] += seconds
        if self._open:
            span = self.spans[self._open[-1]]
            span.child_s += seconds
            span.fft_calls += 1
            span.fft_planes += stats[0]

    # -- installation ------------------------------------------------------

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """fn inside a span called name; on_call(args, kwargs) and
        on_result(value) run outside the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def _wrap_fft(self, fn, inverse: bool):
        @functools.wraps(fn)
        def counted(x, *args, **kwargs):
            start = time.perf_counter()
            result = fn(x, *args, **kwargs)
            seconds = time.perf_counter() - start
            real = kwargs.get("s") if inverse else x.shape[-2:]
            if real is None:
                real = (x.shape[-2], 2 * (x.shape[-1] - 1))
            self._count_fft((x.shape, tuple(real)), seconds)
            return result
        return counted

    def install(self, sites) -> None:
        """Wrap each (module, attribute, span name[, on_call[, on_result]])
        site, plus the scipy.fft real 2-D transforms, until uninstall."""
        import scipy.fft
        for module, attr, name, *hooks in sites:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, *hooks))
        for attr, inverse in (("rfft2", False), ("irfft2", True)):
            original = getattr(scipy.fft, attr)
            self._saved.append((scipy.fft, attr, original))
            setattr(scipy.fft, attr, self._wrap_fft(original, inverse))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- reading -----------------------------------------------------------

    def finish(self) -> None:
        """Fill each span's subtree plane count (children follow parents)."""
        for span in self.spans:
            span.planes_incl = span.fft_planes
        for span in reversed(self.spans):
            if span.parent is not None:
                self.spans[span.parent].planes_incl += span.planes_incl

    def fft_totals(self) -> dict:
        """Transform calls, planes, seconds and computed flop (2.5 N log2 N a plane)."""
        stats = self._fft.values()
        return {"calls": sum(c for _, _, c, _ in stats),
                "planes": sum(p * c for p, _, c, _ in stats),
                "seconds": sum(t for _, _, _, t in stats),
                "flop": sum(p * c * 2.5 * n * math.log2(n) for p, n, c, _ in stats)}

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_total(self, name: str) -> float:
        return sum(s.self_s for s in self.named(name))

    def children_of(self, parent: str, child: str) -> int:
        """Number of spans called child whose direct parent is called parent."""
        return sum(1 for s in self.spans
                   if s.name == child and s.parent is not None
                   and self.spans[s.parent].name == parent)

    def records(self):
        """Spans as plain dicts, for writing out once the run ends."""
        for i, s in enumerate(self.spans):
            yield {"id": i, "name": s.name, "item": s.item, "parent": s.parent,
                   "start": s.start, "end": s.end, "self_s": s.self_s,
                   "fft_calls": s.fft_calls, "fft_planes": s.fft_planes}
