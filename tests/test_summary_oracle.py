"""``metrics.summarize`` against ``summary_oracle.summarize``.

The oracle walks every hop of every record. ``summarize`` reads a
``RecordTable`` column by column, counting bytes once per distinct hop
tuple and computing its delay statistics in one pass. ``summarize(table)``
must give the summaries that the oracle gives on ``list(table)``, compared
through ``repr`` so that every float matches to the bit and every dict
matches in order, on:

- every variant of ``tests/test_engine_oracle.py``, every golden scenario
  of ``tests/test_engine_golden.py`` and a tunnel loop cut by a horizon,
  traced and untraced;
- tables packed by ``record_tables.table_of`` from hand-built records with
  tied send times, numbered as a table numbers them, arbitrary hop tuples
  and every drop reason;
- one-flow tables built by hand around the one-pass delay statistics: the
  minimum delay after the maximum, all delays equal, one delivery,
  deliveries only after drops, and none.
"""

import random
from dataclasses import fields, replace
from operator import attrgetter

from record_tables import table_of
from summary_oracle import summarize as oracle_summarize
from test_engine_golden import SCENARIOS
from test_engine_oracle import _variant

from transit6.metrics import summarize
from transit6.scenarios import build_scenario_6to4
from transit6.simcore import DropReason, MetricsRecord, run_simulation


def _fields(summary):
    """Every field of ``summary``, dicts as lists of items so order counts."""
    return [
        (f.name, list(v.items()) if isinstance(v, dict) else v)
        for f in fields(summary)
        for v in [getattr(summary, f.name)]
    ]


def _check(table, where):
    got = [_fields(s) for s in summarize(table)]
    want = [_fields(s) for s in oracle_summarize(list(table))]
    assert repr(got) == repr(want), where


def test_summaries_match_oracle_on_engine_variants():
    rng = random.Random(2024)
    for case in range(400):
        base, topology, flows, horizon, seed = _variant(rng)
        _check(run_simulation(topology, flows, horizon, seed=seed), (case, base))


def test_summaries_match_oracle_on_golden_scenarios():
    for name, build in sorted(SCENARIOS.items()):
        topology, traffic, kw = build()
        horizon, seed = kw.get("horizon"), kw.get("seed", 0)
        for trace in (None, []):
            records = run_simulation(topology, traffic, horizon, seed=seed, trace=trace)
            _check(records, name)


def test_summaries_match_oracle_on_tunnel_loop():
    # R1's tunnel points at R1 itself, so R1 drops H1's packets as a tunnel
    # loop, and a horizon expires the last ones sent: a flow whose drop
    # reasons are first seen in another order than DropReason's.
    s = build_scenario_6to4()
    r1 = s.topology.nodes[1]
    r1.tunnels["tun0"] = replace(r1.tunnels["tun0"], remote_v4=r1.tunnels["tun0"].local_v4)
    for horizon in (None, 5e-3):
        for trace in (None, []):
            records = run_simulation(s.topology, s.traffic, horizon, trace=trace)
            if horizon is not None:
                assert list(records)[0].drop_reason is DropReason.TUNNEL_LOOP
                assert list(records)[-1].drop_reason is DropReason.HORIZON_EXPIRED
            _check(records, horizon)


def test_summaries_match_oracle_on_hand_built_records():
    # Few distinct times, so sends tie; hop tuples drawn from a few links,
    # some empty; every drop reason; one payload size per flow. A table
    # numbers tied sends in the order of its columns, which come in
    # first-seen order, so the records are numbered that way: flows by first
    # send and then by name, and each flow's sends in the order drawn.
    rng = random.Random(5)
    hop_choices = [("l", 120), ("m", 140), ("n", 1060), ("l", 1040)]
    seen = set()
    for case in range(200):
        payloads = {flow: rng.choice([0, 64, 1000]) for flow in "xyz"}
        sends = sorted(
            rng.choice([0.0, 0.1, 0.2, 0.3, rng.uniform(0.0, 1.0)])
            for _ in range(rng.randrange(1, 30))
        )
        records = []
        for pid, send in enumerate(sends):
            flow = rng.choice("xyz")
            delivered = rng.random() < 0.7
            drop = None if delivered else rng.choice(list(DropReason))
            seen.add(drop)
            records.append(
                MetricsRecord(
                    packet_id=pid,
                    flow_id=flow,
                    src_node="a",
                    dst_node="b",
                    payload_bytes=payloads[flow],
                    send_time=send,
                    receive_time=send + rng.choice([0.1, 0.2, rng.uniform(0.0, 0.5)])
                    if delivered else None,
                    drop_reason=drop,
                    wire_bytes_per_hop=tuple(
                        rng.choice(hop_choices) for _ in range(rng.randrange(4))
                    ),
                )
            )
        first: dict[str, int] = {}
        for rec in sorted(records, key=attrgetter("send_time", "flow_id")):
            first.setdefault(rec.flow_id, len(first))
        records.sort(key=lambda r: (r.send_time, first[r.flow_id]))
        for pid, rec in enumerate(records):
            rec.packet_id = pid
        table = table_of(records)
        assert list(table) == records, case
        _check(table, case)
    assert seen == {None, *DropReason}


def test_summaries_match_oracle_on_delay_edge_cases():
    # Each case is one flow's packets in send order: (send time, delay) for
    # a delivery, (send time, drop reason) for a drop. The one pass must
    # take its minimum and maximum as min() and max() do, and start both
    # sums at the first delivery, wherever that is.
    lost, unrouted = DropReason.HORIZON_EXPIRED, DropReason.NO_ROUTE
    cases = {
        "minimum after maximum": [(0.0, 0.3), (0.1, 0.7), (0.2, 0.25), (0.3, 0.1), (0.4, 0.2)],
        "all delays equal": [(0.1 * k, 0.2) for k in range(6)],
        "one delivered": [(0.0, lost), (0.1, 0.3), (0.2, lost)],
        "deliveries after drops": [(0.0, unrouted), (0.1, lost), (0.2, 0.3), (0.3, 0.1)],
        "none delivered": [(0.0, unrouted), (0.1, lost)],
    }
    for name, packets in cases.items():
        records = [
            MetricsRecord(
                packet_id=pid,
                flow_id="f",
                src_node="a",
                dst_node="b",
                payload_bytes=100,
                send_time=send,
                receive_time=None if isinstance(out, DropReason) else send + out,
                drop_reason=out if isinstance(out, DropReason) else None,
                wire_bytes_per_hop=() if isinstance(out, DropReason) else (("l", 140),),
            )
            for pid, (send, out) in enumerate(packets)
        ]
        table = table_of(records)
        delivered = sum(r.drop_reason is None for r in records)
        assert summarize(table)[0].delivered_count == delivered, name
        _check(table, name)
