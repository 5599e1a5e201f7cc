"""A fixed unit of interpreter work that gauges how fast the host runs now.

On a shared host the same code runs up to 2x slower for stretches of seconds
to minutes, and the fastest of many batches moves with those stretches too.
The benchmark times ``unit()`` between its batches and divides each batch's
wall time by the mean of the two units around it. The ratio of the program's
work to this fixed work stays put while the host's speed changes, and the
benchmark reports it as host time at the speed where one unit takes
``REFERENCE_S``.

The unit mimics what the simulator's hot loop does (a heap of small objects
ordered by ``__lt__``, ``struct`` packing and unpacking, framing and slicing
a payload, dict counting, attribute access) and uses nothing from the
package under test, so no change to the program moves it.
"""

from __future__ import annotations

import heapq
import struct
import time

# About one unit's wall time on a quiet 2.1 GHz Xeon (KVM guest) under
# CPython 3.11. Only a scale: every reported time is (time / unit) * REFERENCE_S.
REFERENCE_S = 0.011

_STEPS = 5000
_DEPTH = 64
_HEADER = struct.Struct("!HHI")
_PAYLOAD = bytes(range(256)) * 2


class _Event:
    __slots__ = ("at", "key", "data")

    def __init__(self, at: float, key: int, data: bytes) -> None:
        self.at = at
        self.key = key
        self.data = data

    def __lt__(self, other: "_Event") -> bool:
        return self.at < other.at


def _work() -> int:
    heap: list[_Event] = []
    counts: dict[bytes, int] = {}
    total = 0
    for i in range(_STEPS):
        data = _HEADER.pack(i & 0xFFFF, (i * 7) & 0xFFFF, (i * 2654435761) & 0xFFFFFFFF) + _PAYLOAD
        heapq.heappush(heap, _Event((i * 7919) % 1009 + i * 0.5, i % 97, data))
        counts[data[:4]] = counts.get(data[:4], 0) + 1
        if len(heap) > _DEPTH:
            event = heapq.heappop(heap)
            a, b, c = _HEADER.unpack(event.data[: _HEADER.size])
            total += (a ^ b ^ (c & 0xFF)) + event.key + len(event.data[_HEADER.size :])
    return total + len(counts)


def unit() -> float:
    """Wall seconds of one unit of reference work."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
