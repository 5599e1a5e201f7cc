"""Span and count recorder for the benchmark's traced run.

The program imports its collaborators by name (``from .codec import
parse_frame``), so a layer is traced by replacing the name its consumer
module looks up, not the defining function. Replacing ``simcore.forward``
also catches its recursion (decapsulate and encapsulate re-enter it), which
shows up as nested spans. Spans stay in memory, in flat arrays, until
``write`` puts them on disk after the run.
"""

from __future__ import annotations

import heapq
import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

# (consumer module, name it looks up)
TIMED = [
    ("transit6.simcore", "parse_frame"),
    ("transit6.simcore", "frame_packet"),
    ("transit6.simcore", "encapsulate_6in4"),
    ("transit6.simcore", "decapsulate_6in4"),
    ("transit6.simcore", "dual_stack_dispatch"),
    ("transit6.simcore", "route_lookup"),
    ("transit6.simcore", "forward"),
    ("transit6.cli", "load_text"),
    ("transit6.cli", "run_simulation"),
    ("transit6.cli", "summarize"),
    ("transit6.scenario_io", "parse_text"),
    ("transit6.scenario_io", "build_model"),
]
# Called hundreds of times per lookup on large tables: counted, not timed,
# so its wrapper does not swamp route_lookup's span.
COUNTED = [("transit6.simcore", "prefix_matches")]
HEAP = ("transit6.simcore", "heapq")


def layer_name(fn) -> str:
    """``codec.parse_frame`` for ``transit6.codec.parse_frame``."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class _CountingHeapq:
    """Stands in for the ``heapq`` module: counts events and the heap peak."""

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def heappush(self, heap: list, item) -> None:
        t = self._tracer
        t.heap_pushes += 1
        heapq.heappush(heap, item)
        if len(heap) > t.heap_peak:
            t.heap_peak = len(heap)

    def heappop(self, heap: list):
        self._tracer.heap_pops += 1
        return heapq.heappop(heap)

    def __getattr__(self, name: str):
        return getattr(heapq, name)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.heap_pushes = 0
        self.heap_pops = 0
        self.heap_peak = 0
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def timed(self, fn):
        nid = self._name_id(layer_name(fn))
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return wrapper

    def counted(self, fn):
        name = layer_name(fn)
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Swap in the wrappers; restore the program's own names on exit.

        A name the program no longer has is listed in ``missing`` and left
        alone, so its metrics read zero instead of failing the run.
        """
        saved: list[tuple[object, str, object]] = []
        plan = [(m, a, self.timed) for m, a in TIMED] + [(m, a, self.counted) for m, a in COUNTED]
        try:
            for module_name, attr, wrap in plan:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, wrap(original))
            module = importlib.import_module(HEAP[0])
            if hasattr(module, HEAP[1]):
                saved.append((module, HEAP[1], getattr(module, HEAP[1])))
                setattr(module, HEAP[1], _CountingHeapq(self))
            else:
                self.missing.append(".".join(HEAP))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def stats(self) -> dict[str, SpanStats]:
        """Calls, inclusive time and time covered by direct children, by name."""
        out = {name: SpanStats() for name in self.names}
        by_id = [out[name] for name in self.names]
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(names)):
            dur = ends[i] - starts[i]
            s = by_id[names[i]]
            s.calls += 1
            s.total_s += dur
            parent = parents[i]
            if parent >= 0:
                by_id[names[parent]].child_s += dur
        return out

    def durations(self, name: str) -> list[float]:
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [e - s for n, s, e in zip(self.span_name, self.span_start, self.span_end) if n == nid]

    def write(self, path: Path) -> None:
        """One line per span: name, parent span index, start and end in us."""
        base = self.span_start[0] if self.span_start else 0.0
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tparent\tstart_us\tend_us\n")
            fh.writelines(
                f"{names[n]}\t{p}\t{(s - base) * 1e6:.3f}\t{(e - base) * 1e6:.3f}\n"
                for n, p, s, e in zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            )
