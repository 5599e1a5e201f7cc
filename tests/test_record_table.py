"""``run_simulation``'s ``RecordTable`` as a sequence of ``MetricsRecord``.

A table keeps each flow's packets in columns and builds a record whenever
one is read. Read any way a list is read, it must give what the list of
the same records gives, with the same ``==`` and ``repr``. Once indexed it
reaches any packet in O(1) through one array, with no object kept per
packet, and a record taken from it is the caller's to edit.
"""

import gc
import tracemalloc
from array import array
from collections.abc import Sequence
from dataclasses import replace

import pytest
from engine_oracle import reference_run
from test_engine_oracle import _hairpin

from transit6.scenarios import build_scenario_6to4, build_scenario_dualstack
from transit6.simcore import DropReason, RecordTable, TrafficSpec, run_simulation


def _runs():
    """Tables with interleaved flows, drops, horizons and mid-path cuts."""
    s = build_scenario_dualstack(count=6, gap=1e-4)
    flows = s.traffic + [
        TrafficSpec("back", "H2", "H1", payload_bytes=64, count=5, gap=3e-4, jitter=0.5),
        TrafficSpec("v4", "R1", "R3", payload_bytes=200, count=4, gap=2e-4, family="v4"),
    ]
    topology, hairpin = _hairpin()
    for topo, traffic in ((s.topology, flows), (topology, hairpin)):
        for horizon in (None, 1.5e-3):
            for trace in (None, []):
                table = run_simulation(topo, traffic, horizon, seed=3, trace=trace)
                yield table, reference_run(topo, traffic, horizon, seed=3)


def test_table_reads_as_the_list_of_its_records():
    ends = set()
    for table, want in _runs():
        ends |= {r.drop_reason for r in table}
        assert isinstance(table, RecordTable) and isinstance(table, Sequence)
        assert len(table) == len(want) > 0
        assert [r.packet_id for r in table] == list(range(len(want)))
        assert table == want and want == table and not table != want
        assert repr(table) == repr(want)
        assert list(table) == want
        assert list(reversed(table)) == want[::-1]
        for i in (0, 1, len(want) - 1, -1, -2, -len(want)):
            assert table[i] == want[i], i
        for bad in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                table[bad]
        for cut in (slice(None), slice(1, 5), slice(-3, None), slice(None, None, -2), slice(5, 1)):
            got = table[cut]
            assert type(got) is list and got == want[cut], cut
        assert table.index(want[-1]) == len(want) - 1
        assert want[0] in table and table.count(want[0]) == 1
        # Equal to the same records in a list or another table, not in a tuple.
        assert table != want[:-1] and table != tuple(want)
        with pytest.raises(TypeError):
            hash(table)
    # Delivered, expired by hop limit and by horizon, each through the
    # end-code column and back.
    assert {None, DropReason.TTL_EXPIRED, DropReason.HORIZON_EXPIRED} <= ends


def test_editing_a_record_leaves_the_table_unchanged():
    s = build_scenario_6to4(count=6, gap=1e-4)
    table = run_simulation(s.topology, s.traffic, 2e-3)
    before = repr(table)
    rec = table[3]
    rec.receive_time = -1.0
    rec.drop_reason = DropReason.NO_ROUTE
    rec.wire_bytes_per_hop += (("extra", 1),)
    assert table[3] != rec
    assert repr(table) == before
    # Two reads of one packet are two equal records.
    assert table[3] == table[3] and table[3] is not table[3]


def test_indexing_is_constant_time_and_keeps_no_per_packet_objects():
    s = build_scenario_dualstack(count=2000, gap=1e-5)
    flows = s.traffic + [replace(s.traffic[0], flow_id="again", start=5e-6, jitter=0.9)]
    table = run_simulation(s.topology, flows, seed=1)
    n = len(table)
    # The first read builds each packet's place among its flow's packets:
    # one 4-byte array, which later reads index directly.
    last = table[-1]
    places = table._places
    assert type(places) is array and places.itemsize == 4 and len(places) == n
    want = [0] * len(table.flows)
    for p, a in enumerate(table.send_flows):
        assert places[p] == want[a]
        want[a] += 1
    gc.collect()
    tracemalloc.start()
    try:
        kept = tracemalloc.get_traced_memory()[0]
        for i in range(-1, -n - 1, -1):
            table[i]
        for _ in table:
            pass
        assert tracemalloc.get_traced_memory()[0] - kept < 1000
    finally:
        tracemalloc.stop()
    assert table._places is places
    assert table[-1] == last
