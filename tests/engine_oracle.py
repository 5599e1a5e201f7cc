"""Reference engine, kept as the whole-run oracle for ``simcore``'s engine.

``reference_run`` is the event loop ``simcore`` had before it compiled each
flow's path and folded each hop into one event. It has four event kinds, a
send and then, per hop, processing done, transmission start and arrival, on
a heap ordered by (time, seq), with seqs counted up as events are pushed.
Every event that reaches a node calls ``simcore.forward`` on the frame it
carries, the MTU is read off the frame at processing-done time, and each
transmission adds its hop to a new tuple for the record and formats its own
trace hex as it comes off the heap. ``simcore`` keeps one entry per hop and
a heap key built to pop in this engine's order, so on any scenario the two
engines must give the same records and the same trace, byte for byte. Validation is left
to ``run_simulation``; call it first.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from dataclasses import dataclass, field
from typing import Optional, Sequence

from transit6 import simcore
from transit6.simcore import (
    DropReason,
    ForwardAction,
    MetricsRecord,
    Node,
    Topology,
    TrafficSpec,
)

_SEND, _PROCESSED, _TRANSMIT, _ARRIVE = range(4)


@dataclass(slots=True)
class _Site:
    node: Node
    processing_delay: float
    ports: dict[str, "_Port"] = field(default_factory=dict)


@dataclass(slots=True)
class _Port:
    link_id: str
    node_id: str
    mtu: int
    bandwidth: float
    propagation_delay: float
    peer: int
    peer_id: str
    peer_if: str
    queue: int
    hops: dict[int, tuple[str, int]]


def reference_run(
    topology: Topology,
    traffic: Sequence[TrafficSpec],
    horizon: Optional[float] = None,
    *,
    seed: int = 0,
    trace: Optional[list[str]] = None,
) -> list[MetricsRecord]:
    sites = [_Site(n, n.processing_delay) for n in topology.nodes]
    index = {n.id: i for i, n in enumerate(topology.nodes)}
    queues: dict[tuple[str, str], int] = {}
    for link in topology.links:
        hops: dict[int, tuple[str, int]] = {}
        for (node_id, if_name), (peer_id, peer_if) in ((link.a, link.b), (link.b, link.a)):
            sites[index[node_id]].ports[if_name] = _Port(
                link.id, node_id, link.mtu, link.bandwidth, link.propagation_delay,
                index[peer_id], peer_id, peer_if,
                queues.setdefault((link.id, node_id), len(queues)), hops,
            )

    rng = random.Random(seed)
    times = array("d")
    flows = []
    for flow in traffic:
        base = len(times)
        in_order = True
        for i in range(flow.count):
            t = flow.start + i * flow.gap
            if flow.jitter > 0:
                t += rng.uniform(0.0, flow.jitter * flow.gap)
            if i and t < times[-1]:
                in_order = False
            times.append(t)
        order = range(base, len(times))
        if not in_order:
            order = sorted(order, key=times.__getitem__)
        src = sites[index[flow.src]]
        dst = sites[index[flow.dst]]
        frame = simcore._flow_frame(src.node, dst.node, flow)
        flows.append((flow.flow_id, flow.src, flow.dst, flow.payload_bytes, src, frame, order))

    push, pop, fwd = heapq.heappush, heapq.heappop, simcore.forward
    idle = [0.0] * len(queues)
    records: list[MetricsRecord] = []
    limit = math.inf if horizon is None else horizon
    heap: list[tuple] = []
    for fi, flow in enumerate(flows):
        k = flow[6][0]
        push(heap, (times[k], k, _SEND, fi, 0, None, -1))
    seq = len(times)

    while heap:
        if heap[0][0] > limit:
            break
        now, _, kind, a, b, frame, packet_id = pop(heap)
        if kind == _PROCESSED:
            nbytes = len(frame)
            if nbytes > a.mtu:
                records[packet_id].drop_reason = DropReason.MTU_EXCEEDED
                continue
            free = idle[a.queue]
            start = free if free > now else now
            idle[a.queue] = start + nbytes * 8 / a.bandwidth
            push(heap, (start, seq, _TRANSMIT, a, None, frame, packet_id))
            seq += 1
            continue
        if kind == _TRANSMIT:
            nbytes = len(frame)
            hop = a.hops.get(nbytes)
            if hop is None:
                hop = a.hops[nbytes] = (a.link_id, nbytes)
            rec = records[packet_id]
            rec.wire_bytes_per_hop = (*rec.wire_bytes_per_hop, hop)
            if trace is not None:
                trace.append(
                    f"{now!r} {a.link_id} {a.node_id}->{a.peer_id} pkt={packet_id} {frame.hex()}"
                )
            arrival = now + nbytes * 8 / a.bandwidth + a.propagation_delay
            push(heap, (arrival, seq, _ARRIVE, sites[a.peer], a.peer_if, frame, packet_id))
            seq += 1
            continue
        if kind == _SEND:
            flow_id, src, dst, payload_bytes, site, frame, order = flows[a]
            packet_id = len(records)
            records.append(MetricsRecord(packet_id, flow_id, src, dst, payload_bytes, now))
            b += 1
            if b < len(order):
                k = order[b]
                push(heap, (times[k], k, _SEND, a, b, None, -1))
            in_if = None
        else:
            site, in_if = a, b
        res = fwd(site.node, frame, in_if)
        if res.action is ForwardAction.FORWARD:
            push(heap, (now + site.processing_delay, seq, _PROCESSED,
                        site.ports[res.out_if], None, res.frame, packet_id))
            seq += 1
        elif res.action is ForwardAction.DELIVER:
            records[packet_id].receive_time = now
        else:
            records[packet_id].drop_reason = res.drop_reason

    for rec in records:
        if rec.receive_time is None and rec.drop_reason is None:
            rec.drop_reason = DropReason.HORIZON_EXPIRED
    return records
