"""Hand-built records packed into the ``RecordTable`` a run would return.

``metrics.summarize`` takes only a ``RecordTable``, so tests that summarize
records written by hand pack them with ``table_of`` first.
"""

from __future__ import annotations

import math
from array import array
from operator import attrgetter
from typing import Iterable, Sequence

from transit6.simcore import DropReason, FlowColumns, MetricsRecord, RecordTable, TrafficSpec


def table_of(records: Iterable[MetricsRecord], flow_ids: Sequence[str] = ()) -> RecordTable:
    """``records`` in packet-id order as one ``FlowColumns`` per flow.

    A run numbers its packets in send order, and a flow sends one frame
    along one path, whose packets keep their send order at every queue. So
    this asserts that send times never go back in packet-id order and that
    every record of a flow has the same payload size and end nodes, and
    that each flow's records have a run's shape: one end, met by a prefix
    of its packets that crossed every hop of the flow's first record, and
    a suffix expired by the horizon, with deliveries as a prefix, and each
    record's hop tuple a prefix of the one before it. A table derives
    packet ids from its columns: a stable sort by send time of the flows'
    sends, one column after another. So this also asserts that packets
    with equal send times come in column order, the only order a run can
    give them. Columns come in the order of ``flow_ids``, as a run keeps
    its traffic's, then in first-seen order, and the table numbers the
    packets from 0. A flow's ``flow`` is a ``TrafficSpec`` of its first
    record's id, end nodes and payload size, and its ``hops`` that record's
    hop tuple, the longest.
    """
    flows = {flow_id: a for a, flow_id in enumerate(flow_ids)}
    columns: dict[int, FlowColumns] = {}
    last = (-math.inf, 0)
    for rec in sorted(records, key=attrgetter("packet_id")):
        assert (rec.receive_time is None) != (rec.drop_reason is None), rec
        a = flows.setdefault(rec.flow_id, len(flows))
        assert (rec.send_time, a) >= last, f"sends go back in packet-id order at {rec}"
        last = rec.send_time, a
        hops = tuple(rec.wire_bytes_per_hop)
        if a not in columns:
            columns[a] = FlowColumns(
                TrafficSpec(rec.flow_id, rec.src_node, rec.dst_node, rec.payload_bytes),
                hops, array("d"), array("d"), None, 0, [0] * (len(hops) + 1),
            )
        c = columns[a]
        flow = c.flow
        assert (rec.src_node, rec.dst_node, rec.payload_bytes) == (
            flow.src, flow.dst, flow.payload_bytes
        ), f"flow {flow.flow_id} mixes frames at {rec}"
        n = len(hops)
        sent = len(c.send)
        # Every packet before this one crossed at least n hops.
        assert c.hops[:n] == hops and c.crossed[n : n + 1] == [sent], (
            f"flow {flow.flow_id}: hops not a prefix of the last packet's at {rec}"
        )
        if rec.drop_reason is not DropReason.HORIZON_EXPIRED:
            assert c.finished == sent, f"flow {flow.flow_id} ends after an expiry at {rec}"
            assert not c.finished or rec.drop_reason is c.end, f"flow {flow.flow_id} ends twice at {rec}"
            assert n == len(c.hops), f"flow {flow.flow_id} ends short of its path at {rec}"
            c.end = rec.drop_reason
            c.finished += 1
            if rec.receive_time is not None:
                c.receive.append(rec.receive_time)
        c.send.append(rec.send_time)
        for h in range(n + 1):
            c.crossed[h] += 1
    return RecordTable([columns[a] for a in sorted(columns)])
