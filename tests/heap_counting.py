"""A stand-in for the ``heapq`` module that counts what a run does with its heap.

``simcore`` reads ``heapq.heappush`` and ``heapq.heappop`` from its module
when a run starts, so a test that sets ``simcore.heapq`` to a
``CountingHeapq`` sees every entry the run pushes and pops.
"""

import heapq


class CountingHeapq:
    """Stands in for the heapq module: counts pops and the heap's peak."""

    def __init__(self):
        self.pops = 0
        self.peak = 0

    def heappush(self, heap, item):
        heapq.heappush(heap, item)
        self.peak = max(self.peak, len(heap))

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)
