"""Hand-built records packed into the ``RecordTable`` a run would return.

``metrics.summarize`` takes only a ``RecordTable``, so tests that summarize
records written by hand pack them with ``table_of`` first.
"""

from __future__ import annotations

import math
from array import array
from operator import attrgetter
from typing import Iterable

from transit6.simcore import END_REASONS, FlowColumns, MetricsRecord, RecordTable


def table_of(records: Iterable[MetricsRecord]) -> RecordTable:
    """``records`` in packet-id order as one ``FlowColumns`` per flow.

    A run numbers its packets in send order, and a flow sends one frame,
    so this asserts that send times never go back in packet-id order and
    that every record of a flow has the same payload size and end nodes.
    A table derives packet ids from its columns: a stable sort by send time
    of the flows' sends, one column after another. So this also asserts
    that packets with equal send times come in column order, the only
    order a run can give them. Columns are made in first-seen order, and
    the table numbers the packets from 0. A flow's ``prefixes`` lists its
    records' distinct hop tuples in first-seen order, and a packet's entry
    in ``hops`` is the place of its tuple there, where a run has its count
    of hops crossed along the one path.
    """
    flows: dict[str, int] = {}
    columns: list[FlowColumns] = []
    last = (-math.inf, 0)
    for rec in sorted(records, key=attrgetter("packet_id")):
        assert (rec.receive_time is None) != (rec.drop_reason is None), rec
        a = flows.setdefault(rec.flow_id, len(flows))
        assert (rec.send_time, a) >= last, f"sends go back in packet-id order at {rec}"
        last = rec.send_time, a
        if a == len(columns):
            columns.append(
                FlowColumns(
                    rec.flow_id, rec.src_node, rec.dst_node, rec.payload_bytes, [],
                    array("d"), array("d"), bytearray(), bytearray(),
                )
            )
        c = columns[a]
        assert (rec.src_node, rec.dst_node, rec.payload_bytes) == (
            c.src, c.dst, c.payload_bytes
        ), f"flow {c.flow_id} mixes frames at {rec}"
        hops = tuple(rec.wire_bytes_per_hop)
        if hops not in c.prefixes:
            c.prefixes.append(hops)
        c.send.append(rec.send_time)
        c.receive.append(math.nan if rec.receive_time is None else rec.receive_time)
        c.end.append(END_REASONS.index(rec.drop_reason))
        c.hops.append(c.prefixes.index(hops))
    return RecordTable(columns)
