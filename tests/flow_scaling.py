"""Print packets/s of ``run_simulation`` as 3000 packets split over more flows.

Each shape is the built-in 6to4 with its one flow split into N jittered
flows of one header, 3000 packets in all: flow i sends every N gaps from
gap i, so together the flows send as often as the one flow did and form
one private group on one path. Each shape runs seeded, best of 5. This
script prints only and asserts no timing, so the curve of every Python
version can be read side by side. Standard library only; run as
``PYTHONPATH=src python tests/flow_scaling.py``.
"""

import time
from dataclasses import replace

from transit6.scenarios import build_scenario_6to4
from transit6.simcore import run_simulation

TOTAL = 3000
SPLITS = (1, 10, 100, 1000, 3000)


def split_shape(flows: int):
    """The built-in 6to4's flow split into ``flows`` flows of one header."""
    s = build_scenario_6to4()
    base = s.traffic[0]
    per = TOTAL // flows
    traffic = [
        replace(base, flow_id=f"f{i}", count=per, gap=base.gap * flows,
                start=base.start + i * base.gap, jitter=0.5)
        for i in range(flows)
    ]
    return s.topology, traffic


def packets_per_s(topology, traffic, repeat: int = 5) -> float:
    """Packets injected per second of ``run_simulation``, best of ``repeat``."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        records = run_simulation(topology, traffic, seed=1)
        best = min(best, time.perf_counter() - t0)
    return len(records) / best


def main() -> None:
    for flows in SPLITS:
        rate = packets_per_s(*split_shape(flows))
        print(f"{rate / 1e3:9.1f}k packets/s  {flows} flows x {TOTAL // flows} packets")


if __name__ == "__main__":
    main()
