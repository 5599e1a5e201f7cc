"""Audit of the wire bytes a traced run sends.

``audit(topology, trace, records)`` takes each trace line's frame from its
last field, the rule ``transit6 decode`` reads a line by, and decodes it
with ``parse_frame``, which reads every field, not with ``check_frame``.
The node a packet leaves on each line is the line's ``FROM``. It checks:

- every IPv4 header checksum verifies;
- a packet has one line per hop, and each frame's link and length are those
  of its hop in the packet's ``wire_bytes_per_hop``;
- from one hop of a packet to its next (RFC 4213 §3.5-3.6 for 6in4):
  - a native frame loses exactly one TTL or hop limit, and nothing else
    changes except the IPv4 checksum;
  - on tunnel entry, the frame becomes a 20-byte outer header plus that
    frame with one less hop limit, and the outer TTL equals the inner hop
    limit;
  - inside the tunnel, only the outer TTL and its checksum change, at a
    node that does not hold the outer IPv4 destination;
  - on tunnel exit, the frame is the inner frame with one less hop limit;
  - a node that takes a frame out of a tunnel and straight into one again
    does both: the new outer header is in front of the old inner frame with
    one less hop limit;
  - a frame leaves a tunnel, alone or into another, only at a node that
    holds its outer IPv4 destination.

So addresses change only where a tunnel is entered or left, and a tunnel is
left only at its end.

``queue_faults(topology, trace, records)`` checks the times, from the
trace's start times, the records' send times and the topology's delays.
A hop's ready time is when its node has processed the packet: its send time
plus the node's processing delay at the first hop, else ``(start + ser) +
prop`` of its previous hop plus the processing delay, in the engine's float
order, where ``ser`` is its frame's bits over the link's bandwidth. Each
(link, sending node) queue, taken in start order, must then:

- start each transmission at exactly ``max(ready, previous start +
  previous ser)``, or at its ready time if it is the first: the link idles
  only while nothing is ready (work conservation, the local form of
  Lindley's recursion);
- take ready times that never decrease (FIFO).

``audit`` fails a trace with any such fault after the byte checks.
"""

from typing import Optional, Sequence

from codec_oracle import Packet, parse_frame, verify_ipv4_checksum

from transit6.codec import FrameKind
from transit6.simcore import MetricsRecord, Topology, node_v4_addresses

# Offsets of the IPv4 TTL, the IPv4 checksum and the IPv6 hop limit.
TTL, CHECKSUM, HOP_LIMIT = 8, 10, 7


def _spent(frame: bytes, at: int) -> bytes:
    """``frame`` with one less in its byte ``at``."""
    return frame[:at] + bytes((frame[at] - 1,)) + frame[at + 1 :]


def _but_checksum(frame: bytes) -> bytes:
    """An IPv4 frame without its header checksum."""
    return frame[:CHECKSUM] + frame[CHECKSUM + 2 :]


def _inner(frame: bytes, p: Packet) -> Optional[bytes]:
    """The inner frame of a 6in4 frame, or None for any other."""
    return frame[p.outer_v4.header_len() :] if p.frame_kind is FrameKind.V6_IN_V4 else None


def _entered(frame: bytes, p: Packet, inner: bytes) -> bool:
    """Whether ``frame`` is a 20-byte outer header put in front of ``inner``
    spent by one hop, with the outer TTL copied from the inner hop limit."""
    return (
        p.outer_v4.header_len() == 20
        and frame[20:] == _spent(inner, HOP_LIMIT)
        and p.outer_v4.ttl == p.v6.hop_limit
    )


def _next_hop_ok(prev: bytes, p: Packet, frame: bytes, q: Packet, here: set) -> bool:
    """Whether ``frame`` (decoded as ``q``) can follow ``prev`` (``p``) from
    a node whose IPv4 addresses are ``here``."""
    before, after = _inner(prev, p), _inner(frame, q)
    # A frame leaves a tunnel exactly at the node its outer header is for.
    if before is not None and (after != before) != (p.outer_v4.dst in here):
        return False
    if before is None and after is None:
        if p.frame_kind is not q.frame_kind:
            return False
        if p.frame_kind is FrameKind.V6:
            return frame == _spent(prev, HOP_LIMIT)
        return _but_checksum(frame) == _but_checksum(_spent(prev, TTL))
    if after is None:  # tunnel exit
        return q.frame_kind is FrameKind.V6 and frame == _spent(before, HOP_LIMIT)
    if before is None:  # tunnel entry
        return p.frame_kind is FrameKind.V6 and _entered(frame, q, prev)
    if after == before:  # inside the tunnel
        return _but_checksum(frame) == _but_checksum(_spent(prev, TTL))
    return _entered(frame, q, before)  # out of one tunnel and into another


def audit(topology: Topology, trace: Sequence[str], records: Sequence[MetricsRecord]) -> None:
    """Raise AssertionError at the first trace line that breaks a rule above."""
    v4 = {node.id: node_v4_addresses(node) for node in topology.nodes}
    hops = {r.packet_id: r.wire_bytes_per_hop for r in records}
    last: dict[int, tuple[bytes, Packet]] = {}
    seen = dict.fromkeys(hops, 0)
    for line in trace:
        *head, hex_frame = line.split()
        link, pid = head[-3], int(head[-1].removeprefix("pkt="))
        node = head[-2].split("->")[0]
        frame = bytes.fromhex(hex_frame)
        p = parse_frame(frame)
        at = line[:100]  # the line's fields and the frame's first bytes
        if p.outer_v4 is not None:
            assert verify_ipv4_checksum(frame[: p.outer_v4.header_len()]), f"bad checksum: {at}"
        k = seen[pid]
        assert k < len(hops[pid]), f"more lines than hops for packet {pid}: {at}"
        assert hops[pid][k] == (link, len(frame)), f"hop {k} is {hops[pid][k]}: {at}"
        if k:
            assert _next_hop_ok(*last[pid], frame, p, v4[node]), f"hop {k} of packet {pid}: {at}"
        last[pid] = frame, p
        seen[pid] = k + 1
    for pid, k in seen.items():
        assert k == len(hops[pid]), f"packet {pid} has {k} lines for {len(hops[pid])} hops"
    faults = queue_faults(topology, trace, records)
    assert not faults, f"{len(faults)} queue faults, first: {faults[0]}"


def queue_faults(topology: Topology, trace: Sequence[str], records: Sequence[MetricsRecord]) -> list[str]:
    """Each trace line whose start time breaks a queue rule above, with why."""
    links = {link.id: link for link in topology.links}
    processing = {node.id: node.processing_delay for node in topology.nodes}
    # Where each packet's next hop begins: its send, then each arrival.
    arrived = {r.packet_id: r.send_time for r in records}
    # Per queue, the ready time of its last transmission and when it ends.
    queues: dict[tuple[str, str], tuple[float, float]] = {}
    faults = []
    for line in trace:
        start_text, link_id, ends, pkt, hex_frame = line.split()
        start, link, node = float(start_text), links[link_id], ends.split("->")[0]
        pid = int(pkt.removeprefix("pkt="))
        ser = len(hex_frame) // 2 * 8 / link.bandwidth
        ready = arrived[pid] + processing[node]
        last, idle = queues.get((link_id, node), (ready, 0.0))
        at = line[:100]
        if start != max(ready, idle):
            faults.append(f"start is not max(ready {ready!r}, idle {idle!r}): {at}")
        if ready < last:
            faults.append(f"ready {ready!r} before the queue's last {last!r}: {at}")
        queues[link_id, node] = ready, start + ser
        arrived[pid] = start + ser + link.propagation_delay
    return faults
