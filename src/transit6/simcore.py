"""Deterministic discrete-event simulation of frames crossing a topology.

The engine moves real wire bytes between nodes. Every hop checks the
frame's structure as ``parse_frame`` would, applies the node's forwarding
rules (family filter, local delivery, hop decrement, longest-prefix routing,
tunnel entry and exit) and edits the bytes it must: the hop count and the
IPv4 checksum, or a 6in4 outer header added or stripped. Frames are never
decoded into header objects on the way.

Every packet of a flow leaves its source with the same bytes, and what a
node does with a frame depends only on the node, the frame and the interface
it came in on. So each run frames and walks the path of each distinct flow
header (source, destination, family, payload size, hop limit) once, calling
``forward`` once per hop; flows with the same header send the same bytes
from one node and share it. A path records every hop's outgoing link
direction, frame size and trace hex, the tuples of its (link, size) hop
prefixes, and how it ends (delivered, or dropped with a reason); timing
never touches a frame.
The walk ends because every hop a frame arrives on spends one ttl or
hop_limit, and a tunnel copies the inner hop_limit into the outer ttl. Precondition: a
frame's bytes are the same for every packet of its flow. A per-packet field
(an IPv4 identification, a sequence number in the payload) would break it.

Timing model per hop: a node that forwards a frame spends its
``processing_delay``, then the frame waits for the outgoing link direction to
go idle (FIFO), is serialized for ``bytes * 8 / bandwidth`` seconds and
propagates for the link's ``propagation_delay``. Delivery is recorded at the
moment the last bit arrives; the receiving host adds nothing. Each queue
thus follows Lindley's recursion (Lindley, "The theory of queues with a
single server", 1952): a frame processed at ``ready`` starts at ``start =
max(idle, ready)``, the queue is idle again at ``start + serialization``,
and the next node has processed the frame at ``start + serialization +
propagation + processing``.

``run_simulation`` holds the run and reads top to bottom: it validates the
model, builds the ports (``_ports``), draws the sends (``_draw_sends``),
compiles each flow header's path (``_path``), times each private group
(``_time_group``), walks the heap and returns the columns.

Send times are drawn up front, flow by flow, and a send's seq is its
position in that draw order. Only sends up to the horizon are kept, and an
unjittered flow makes no other: its sends never decrease, so they are
counted up to the horizon and made in order. The random generator is seeded
only once a jittered flow draws. Each flow keeps its own sends in (time,
seq) order, and no run keeps one schedule of them all: where a set of flows'
sends must go in one (time, seq) order, a stable sort by time of their
sends, one flow after another, gives it, and a send's place in that order
over every flow is its packet id.

Each flow header compiles to one path. A path is private when no other path
uses any of its queues and it uses none twice. Its packets then reach every
queue in their send order, so an untraced run times each private path's
flows on their own, hop by hop: their sends go into one array of ready
times in (time, seq) order, and each hop is one loop over it that applies
the recursion above to every packet in turn. The flows share one frame and
one end, and their ready and start times never decrease from one packet to
the next, so the horizon cuts a suffix of the packets at every hop, and
each flow's columns are written as a few runs of equal hop counts and ends,
with its delivered arrivals taken from the last hop's array. A heap times the
rest (paths that share a queue with another or reuse one, and every path
that transmits in a traced run) with one entry per hop, due when a node has
processed the packet; the frame then takes its FIFO slot and the next hop's
entry goes on at its arrival plus that node's processing delay. The run
puts every flow's sends in order, walks those of the heap's flows only and,
before each send, takes off the entries due strictly before it, so the heap
holds only the packets in flight; with no such flow, there is no walk.

That merge and the heap's key take events in the order of a heap of four
event kinds (a send per packet, then per hop processing done, transmission
start and arrival) ordered by (time, seq), with seqs counted up as events
are pushed; ``tests/engine_oracle.py`` is that engine, and the README's
"Library layout" section tabulates the key. Keys are unique, so identical
inputs always yield identical outputs. With a trace, each transmission's
line is kept with its (start, rank) and the lines are sorted once at the end.
A line reads ``START LINK FROM->TO pkt=ID HEX``, and its last field is always
the frame's bytes in hex: ``transit6 decode`` reads a line by that field.

A packet never aborts the run: whatever happens to it, including a tunnel
that would send it back to its own entry point, is recorded as data. A frame
too big for its next link is dropped when the node has finished processing
it, not when it arrives, so a horizon that falls between the two expires it
instead. A hop counts as crossed only if its transmission starts by the
horizon, and a packet is delivered only if it arrives by then.

A run builds no record per packet. Each packet's end goes into its flow's
columns (``FlowColumns``): its send and receive times in arrays of floats,
how it ended and how many hops it crossed in a byte each (the hop count in
four on a path of over 255 hops). A packet's hops are always a prefix of
its path's, so each compiled path keeps one tuple per prefix, and the hop
count picks the packet's. ``run_simulation`` returns the columns as a
``RecordTable``, which ``metrics.summarize`` reads column by column. The
table has a length and is read by iterating it, which builds one
``MetricsRecord`` per packet; it is not a sequence and equals no list.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import chain, compress, count, islice, repeat
from typing import Optional, Union

from .addressing import FamilyMismatchError, Ipv4Prefix, Ipv6Prefix
from .codec import (
    FrameKind,
    Ipv4Address,
    Ipv4Header,
    Ipv6Address,
    Ipv6Header,
    Packet,
    check_frame,
    frame_packet,
    internet_checksum,
)
from .transition import (
    NoEndpointError,
    PathKind,
    TunnelConfig,
    decapsulate_6in4,
    dual_stack_dispatch,
    encapsulate_6in4,
    resolve_tunnel_endpoint,
)


class SimError(ValueError):
    """Base class for simulation setup errors."""


class NoRouteError(SimError):
    """No routing entry matches the destination."""


class InvalidTopologyError(SimError):
    """Topology violates a structural rule."""


class InvalidTrafficError(SimError):
    """Traffic specification violates a structural rule."""


class NodeKind(Enum):
    IPV4_ONLY = "ipv4-only"
    IPV6_ONLY = "ipv6-only"
    DUAL_STACK = "dual-stack"


class Role(Enum):
    HOST = "host"
    ROUTER = "router"


@dataclass
class Interface:
    name: str
    v4: Optional[Ipv4Address] = None
    v6: list[Ipv6Address] = field(default_factory=list)


@dataclass
class RouteEntry4:
    prefix: Ipv4Prefix
    out_if: str


@dataclass
class RouteEntry6:
    prefix: Ipv6Prefix
    out_if: str


@dataclass
class Node:
    """A host or router. Tunnels are keyed by their pseudo-interface name."""

    id: str
    kind: NodeKind
    role: Role
    interfaces: list[Interface] = field(default_factory=list)
    v4_routes: list[RouteEntry4] = field(default_factory=list)
    v6_routes: list[RouteEntry6] = field(default_factory=list)
    tunnels: dict[str, TunnelConfig] = field(default_factory=dict)
    processing_delay: float = 0.0


@dataclass
class Link:
    """Point-to-point link between two (node, interface) ports."""

    id: str
    a: tuple[str, str]
    b: tuple[str, str]
    bandwidth: float = 100e6
    propagation_delay: float = 1e-3
    mtu: int = 1500


@dataclass
class Topology:
    nodes: list[Node] = field(default_factory=list)
    links: list[Link] = field(default_factory=list)


@dataclass
class TrafficSpec:
    """One one-way constant-rate flow of fixed-size packets."""

    flow_id: str
    src: str
    dst: str
    payload_bytes: int = 1000
    count: int = 10
    gap: float = 1e-3
    start: float = 0.0
    family: str = "v6"
    hop_limit: int = 64
    jitter: float = 0.0


@dataclass
class Scenario:
    name: str
    topology: Topology
    traffic: list[TrafficSpec]
    horizon: Optional[float] = None


class DropReason(Enum):
    WRONG_FAMILY = "dropped-wrong-family"
    TTL_EXPIRED = "ttl-expired"
    NO_ROUTE = "no-route"
    MTU_EXCEEDED = "mtu-exceeded"
    NO_ENDPOINT = "no-endpoint"
    HOST_NOT_ROUTER = "host-not-router"
    HORIZON_EXPIRED = "horizon-expired"
    TUNNEL_LOOP = "tunnel-loop"


@dataclass(slots=True)
class MetricsRecord:
    """Everything the simulator knows about one injected packet.

    ``wire_bytes_per_hop`` is the (link id, frame size) of every link the
    packet was transmitted on, in order. The engine fills it with an
    immutable tuple shared by every record that crossed the same hops of
    the same path. Iterating a ``RecordTable`` builds each record as it
    goes, so editing one, hops included, changes nothing in the table.
    ``metrics.summarize`` reads the table's columns, never its records.
    """

    packet_id: int
    flow_id: str
    src_node: str
    dst_node: str
    payload_bytes: int
    send_time: float
    receive_time: Optional[float] = None
    drop_reason: Optional[DropReason] = None
    wire_bytes_per_hop: Sequence[tuple[str, int]] = ()


# How a packet ended, by its code in ``FlowColumns.end``: None (delivered)
# for 0, then each DropReason.
END_REASONS: tuple[Optional[DropReason], ...] = (None, *DropReason)
_END_CODES = {end: code for code, end in enumerate(END_REASONS)}


@dataclass(slots=True)
class FlowColumns:
    """One flow's packets as columns, in send order (that is, packet-id order).

    ``send`` and ``receive`` are times, ``receive`` NaN for a packet not
    delivered; ``end`` is how each packet ended, ``END_REASONS[end[j]]``
    (None for delivered, at code 0, else the drop reason); ``hops``
    counts the hops it was transmitted on, and ``prefixes[hops[j]]`` is
    packet j's ``wire_bytes_per_hop``, a tuple its flow's packets share.
    ``hops`` is a ``bytearray`` unless the flow's path is longer than 255
    hops. A ``RecordTable`` keeps one per flow; iterating it yields records.
    """

    flow_id: str
    src: str
    dst: str
    payload_bytes: int
    prefixes: list[tuple[tuple[str, int], ...]]
    send: array
    receive: array
    end: bytearray
    hops: Union[bytearray, array]


class RecordTable:
    """A run's result: one ``FlowColumns`` per flow, a length and an iterator.

    Iterating it yields one ``MetricsRecord`` per packet in packet-id order,
    deriving that order from the send columns and building each record as
    it goes, so editing a record changes nothing in the table. It is not a
    sequence and equals no list: ``list(table)`` is its records.
    """

    __slots__ = ("flows",)

    def __init__(self, flows: list[FlowColumns]) -> None:
        self.flows = flows

    def __len__(self) -> int:
        return sum(len(c.send) for c in self.flows)

    def __iter__(self) -> Iterator[MetricsRecord]:
        flows = self.flows
        taken = [0] * len(flows)
        for p, a in enumerate(_merge([c.send for c in flows], range(len(flows)))[1]):
            c = flows[a]
            j = taken[a]
            taken[a] = j + 1
            end = END_REASONS[c.end[j]]
            yield MetricsRecord(
                p, c.flow_id, c.src, c.dst, c.payload_bytes, c.send[j],
                c.receive[j] if end is None else None, end, c.prefixes[c.hops[j]],
            )


RouteEntry = Union[RouteEntry4, RouteEntry6]


def route_lookup(routes: Sequence[RouteEntry], dst: Union[Ipv4Address, Ipv6Address]) -> RouteEntry:
    """Longest-prefix match over ``routes``; first entry wins equal lengths.

    Raises FamilyMismatchError if any entry's prefix is of the other family.
    """
    value = dst.to_int()
    family = Ipv4Prefix if isinstance(dst, Ipv4Address) else Ipv6Prefix
    width = 32 if family is Ipv4Prefix else 128
    best: Optional[RouteEntry] = None
    best_length = -1
    for entry in routes:
        prefix = entry.prefix
        if type(prefix) is not family:
            raise FamilyMismatchError(f"cannot match {prefix} against {dst}")
        if value >> (width - prefix.length) == prefix.network and prefix.length > best_length:
            best, best_length = entry, prefix.length
    if best is None:
        raise NoRouteError(f"no route for {dst}")
    return best


class ForwardAction(Enum):
    DELIVER = "deliver"
    FORWARD = "forward"
    DROP = "drop"


@dataclass
class ForwardResult:
    """What a node does with a frame: the frame it sends on or delivers."""

    action: ForwardAction
    out_if: Optional[str] = None
    frame: bytes = b""
    drop_reason: Optional[DropReason] = None


def node_v4_addresses(node: Node) -> set[Ipv4Address]:
    return {i.v4 for i in node.interfaces if i.v4 is not None}


def node_v6_addresses(node: Node) -> set[Ipv6Address]:
    addrs = {a for i in node.interfaces for a in i.v6}
    for cfg in node.tunnels.values():
        if cfg.tunnel_if_addr is not None:
            addrs.add(cfg.tunnel_if_addr)
    return addrs


def _drop(reason: DropReason) -> ForwardResult:
    return ForwardResult(ForwardAction.DROP, drop_reason=reason)


def _decrement_ttl(frame: bytes) -> bytes:
    """``frame`` (IPv4, ttl >= 1) with one less ttl and a recomputed checksum.

    The checksum is computed afresh over the whole header, options included,
    so a header that arrived with a bad checksum leaves with a good one.
    """
    out = bytearray(frame)
    out[8] -= 1
    out[10] = out[11] = 0
    checksum = internet_checksum(out[: (out[0] & 0x0F) * 4])
    out[10] = checksum >> 8
    out[11] = checksum & 0xFF
    return bytes(out)


def forward(node: Node, frame: bytes, in_if: Optional[str]) -> ForwardResult:
    """Decide what ``node`` does with ``frame``.

    ``in_if`` is the interface the frame arrived on, or None for a frame the
    node originates itself. Arriving frames spend one hop (ttl or hop_limit
    decrement) unless they are delivered locally; originated frames do not.
    A frame leaving through a tunnel is decremented as usual, encapsulated
    with the outer ttl copied from the inner hop_limit, and then routed as a
    locally originated IPv4 frame, so intermediate IPv4 hops only ever touch
    the outer header. The reverse happens on decapsulation, which re-enters
    forwarding as an arriving IPv6 frame and is decremented there once.
    A tunnel whose remote endpoint is one of the node's own IPv4 addresses
    would hand the frame straight back to the node; it is dropped instead.

    A malformed frame raises what ``dual_stack_dispatch`` or ``parse_frame``
    would raise for it, and a 6in4 frame for this node whose outer checksum
    fails raises BadChecksumError. A delivered result carries the delivered
    frame (the inner frame after decapsulation).
    """
    path = dual_stack_dispatch(frame)
    if path is PathKind.V4_PATH and node.kind is NodeKind.IPV6_ONLY:
        return _drop(DropReason.WRONG_FAMILY)
    if path is PathKind.V6_PATH and node.kind is NodeKind.IPV4_ONLY:
        return _drop(DropReason.WRONG_FAMILY)

    kind = check_frame(frame)
    if kind is FrameKind.V6:
        dst = Ipv6Address(frame[24:40])
        if dst in node_v6_addresses(node):
            return ForwardResult(ForwardAction.DELIVER, frame=frame)
    else:
        dst = Ipv4Address(frame[16:20])
        if dst in node_v4_addresses(node):
            if kind is FrameKind.V6_IN_V4:
                return forward(node, decapsulate_6in4(frame), in_if)
            return ForwardResult(ForwardAction.DELIVER, frame=frame)

    if node.role is Role.HOST and in_if is not None:
        # Hosts never forward traffic that is not addressed to them, but a
        # host does route the packets it originates itself.
        return _drop(DropReason.HOST_NOT_ROUTER)

    if in_if is not None:
        if kind is FrameKind.V6:
            hop_limit = frame[7]
            if hop_limit <= 1:
                return _drop(DropReason.TTL_EXPIRED)
            frame = frame[:7] + bytes((hop_limit - 1,)) + frame[8:]
        else:
            if frame[8] <= 1:
                return _drop(DropReason.TTL_EXPIRED)
            frame = _decrement_ttl(frame)

    try:
        entry = route_lookup(node.v6_routes if kind is FrameKind.V6 else node.v4_routes, dst)
    except NoRouteError:
        return _drop(DropReason.NO_ROUTE)

    if entry.out_if in node.tunnels:
        # Topology validation guarantees only v6 routes reference tunnels.
        cfg = node.tunnels[entry.out_if]
        try:
            remote = resolve_tunnel_endpoint(cfg, dst)
        except NoEndpointError:
            return _drop(DropReason.NO_ENDPOINT)
        if remote in node_v4_addresses(node):
            return _drop(DropReason.TUNNEL_LOOP)
        encapsulated = encapsulate_6in4(frame, cfg.local_v4, remote, ttl=frame[7])
        return forward(node, encapsulated, None)

    return ForwardResult(ForwardAction.FORWARD, out_if=entry.out_if, frame=frame)


# The largest start, gap, processing or propagation delay, or time to send
# the largest frame a link carries, in seconds. Every time the engine forms
# is a sum of such terms over the run's packets and hops, so this bound keeps
# each of those sums, and every delay and rate computed from them, finite for
# any run that fits in memory.
MAX_SECONDS = 2.0**32


def validate_topology(topology: Topology) -> None:
    """Raise InvalidTopologyError on the first structural rule violation."""
    # Node id -> its interface names: the duplicate-id check here, the port check below.
    if_names_by_node: dict[str, set[str]] = {}
    for node in topology.nodes:
        if node.id in if_names_by_node:
            raise InvalidTopologyError(f"duplicate node id {node.id!r}")
        if not math.isfinite(node.processing_delay):
            raise InvalidTopologyError(f"{node.id}: processing_delay must be finite")
        if node.processing_delay < 0:
            raise InvalidTopologyError(f"{node.id}: negative processing_delay")
        if node.processing_delay > MAX_SECONDS:
            raise InvalidTopologyError(f"{node.id}: processing_delay over {MAX_SECONDS:.0f} s")
        if_names: set[str] = set()
        for iface in node.interfaces:
            if iface.name in if_names:
                raise InvalidTopologyError(f"{node.id}: duplicate interface {iface.name!r}")
            if_names.add(iface.name)
            if node.kind is NodeKind.IPV4_ONLY and iface.v6:
                raise InvalidTopologyError(f"{node.id}: IPv4-only node holds IPv6 addresses")
            if node.kind is NodeKind.IPV6_ONLY and iface.v4 is not None:
                raise InvalidTopologyError(f"{node.id}: IPv6-only node holds an IPv4 address")
        if_names_by_node[node.id] = if_names
        if node.tunnels:
            if node.kind is not NodeKind.DUAL_STACK:
                raise InvalidTopologyError(f"{node.id}: tunnels require a dual-stack node")
            v4_addresses = node_v4_addresses(node)
            for name, cfg in node.tunnels.items():
                if name in if_names:
                    raise InvalidTopologyError(
                        f"{node.id}: tunnel {name!r} clashes with an interface name"
                    )
                if cfg.local_v4 not in v4_addresses:
                    raise InvalidTopologyError(
                        f"{node.id}: tunnel {name!r} local endpoint {cfg.local_v4} "
                        "is not one of the node's interface addresses"
                    )
        if node.kind is NodeKind.IPV4_ONLY and node.v6_routes:
            raise InvalidTopologyError(f"{node.id}: IPv4-only node holds IPv6 routes")
        if node.kind is NodeKind.IPV6_ONLY and node.v4_routes:
            raise InvalidTopologyError(f"{node.id}: IPv6-only node holds IPv4 routes")
        for entry in node.v4_routes:
            if entry.out_if not in if_names:
                raise InvalidTopologyError(
                    f"{node.id}: IPv4 route {entry.prefix} leaves through "
                    f"unknown interface {entry.out_if!r}"
                )
        for entry in node.v6_routes:
            if entry.out_if not in if_names and entry.out_if not in node.tunnels:
                raise InvalidTopologyError(
                    f"{node.id}: IPv6 route {entry.prefix} leaves through "
                    f"unknown interface {entry.out_if!r}"
                )

    used_ports: set[tuple[str, str]] = set()
    link_ids: set[str] = set()
    for link in topology.links:
        if link.id in link_ids:
            raise InvalidTopologyError(f"duplicate link id {link.id!r}")
        link_ids.add(link.id)
        for key in ("bandwidth", "propagation_delay"):
            if not math.isfinite(getattr(link, key)):
                raise InvalidTopologyError(f"link {link.id}: {key} must be finite")
        if link.bandwidth <= 0:
            raise InvalidTopologyError(f"link {link.id}: bandwidth must be positive")
        if link.propagation_delay < 0:
            raise InvalidTopologyError(f"link {link.id}: negative propagation delay")
        if link.propagation_delay > MAX_SECONDS:
            raise InvalidTopologyError(
                f"link {link.id}: propagation_delay over {MAX_SECONDS:.0f} s"
            )
        if link.mtu < 60:
            raise InvalidTopologyError(f"link {link.id}: mtu below 60 bytes")
        # Validation caps payloads so that no frame, even encapsulated, is longer.
        largest = min(link.mtu, 65535)
        if largest * 8 / link.bandwidth > MAX_SECONDS:
            raise InvalidTopologyError(
                f"link {link.id}: bandwidth takes over {MAX_SECONDS:.0f} s "
                f"to send a {largest}-byte frame"
            )
        if link.a == link.b:
            raise InvalidTopologyError(f"link {link.id}: both ends are the same port")
        for node_id, if_name in (link.a, link.b):
            if if_name not in if_names_by_node.get(node_id, ()):
                raise InvalidTopologyError(
                    f"link {link.id}: no such port {node_id}:{if_name}"
                )
            if (node_id, if_name) in used_ports:
                raise InvalidTopologyError(
                    f"link {link.id}: port {node_id}:{if_name} already linked"
                )
            used_ports.add((node_id, if_name))

    for node in topology.nodes:
        for iface in node.interfaces:
            if (node.id, iface.name) not in used_ports:
                raise InvalidTopologyError(
                    f"{node.id}: interface {iface.name!r} is not attached to any link"
                )


def _primary_address(node: Node, family: str) -> Union[Ipv4Address, Ipv6Address]:
    for iface in node.interfaces:
        if family == "v4" and iface.v4 is not None:
            return iface.v4
        if family == "v6" and iface.v6:
            return iface.v6[0]
    raise InvalidTrafficError(f"{node.id} has no {family} address")


def validate_traffic(topology: Topology, traffic: Sequence[TrafficSpec]) -> None:
    """Raise InvalidTrafficError on the first flow rule violation."""
    nodes_by_id = {n.id: n for n in topology.nodes}
    seen: set[str] = set()
    for flow in traffic:
        if flow.flow_id in seen:
            raise InvalidTrafficError(f"duplicate flow id {flow.flow_id!r}")
        seen.add(flow.flow_id)
        if flow.family not in ("v4", "v6"):
            raise InvalidTrafficError(f"{flow.flow_id}: family must be v4 or v6")
        for end in (flow.src, flow.dst):
            if end not in nodes_by_id:
                raise InvalidTrafficError(f"{flow.flow_id}: unknown node {end!r}")
            _primary_address(nodes_by_id[end], flow.family)
        if flow.payload_bytes < 0:
            raise InvalidTrafficError(f"{flow.flow_id}: negative payload_bytes")
        # Leave room for one level of 6in4 encapsulation in the outer
        # 16-bit total_length field.
        if flow.payload_bytes > 65475:
            raise InvalidTrafficError(f"{flow.flow_id}: payload_bytes over 65475")
        if flow.count < 1:
            raise InvalidTrafficError(f"{flow.flow_id}: count must be at least 1")
        for key in ("gap", "start", "jitter"):
            if not math.isfinite(getattr(flow, key)):
                raise InvalidTrafficError(f"{flow.flow_id}: {key} must be finite")
        if flow.gap < 0 or flow.start < 0:
            raise InvalidTrafficError(f"{flow.flow_id}: negative start or gap")
        for key in ("gap", "start"):
            if getattr(flow, key) > MAX_SECONDS:
                raise InvalidTrafficError(f"{flow.flow_id}: {key} over {MAX_SECONDS:.0f} s")
        if not 1 <= flow.hop_limit <= 255:
            raise InvalidTrafficError(f"{flow.flow_id}: hop_limit outside 1..255")
        if not 0 <= flow.jitter < 1:
            raise InvalidTrafficError(f"{flow.flow_id}: jitter must be in [0, 1)")


# A heap entry is hop i of flow f's path, (key, f, i, j, packet id), due when
# the node has processed the packet; j is the packet's place among its flow's.
# The key, the first five fields, is (time, send time, 0, 0.0, packet id) at
# the source and (time, arrival, 1, previous start, previous rank) at a later
# node: when the packet reached it, and when and at what rank among heap hops
# the previous hop began to transmit. Keys are unique, so entries never
# compare past them.


@dataclass(slots=True)
class _Port:
    """One direction of a link: the link a frame leaves by and where it lands."""

    link: Link
    peer: Node
    peer_if: str
    # Index of this direction's "idle from" time in the run's list.
    queue: int


def _ports(links: Sequence[Link], nodes: dict[str, Node]) -> tuple[dict[tuple, _Port], int]:
    """Each link direction's port, and the number of queues the ports use.

    Ports are keyed by the (node id, interface name) a frame leaves by. There
    is a FIFO queue per (link, sending node), so a link whose two ends sit on
    one node has a single queue.
    """
    ports: dict[tuple[str, str], _Port] = {}
    queues: dict[tuple[str, str], int] = {}
    for link in links:
        for out, (peer_id, peer_if) in ((link.a, link.b), (link.b, link.a)):
            ports[out] = _Port(
                link, nodes[peer_id], peer_if, queues.setdefault((link.id, out[0]), len(queues))
            )
    return ports, len(queues)


def _draw_sends(traffic: Sequence[TrafficSpec], seed: int, limit: float) -> list[array]:
    """Each flow's sends up to ``limit``, in (time, seq) order.

    Send times are drawn flow by flow, one draw per jittered send, and a
    send's seq is its position in that draw order, so a stable sort by time
    of a flow's draws orders its sends. Later sends never happen. An
    unjittered flow's sends ``start + i * gap`` never decrease, as float
    rounding is monotone, so they are in order as made: they are counted up
    to ``limit`` by bisection and made one by one into the array, and no
    send past ``limit`` is made. The generator is seeded when the first
    jittered flow draws, so a run with no jitter seeds none.
    """
    draw = None
    flow_sends: list[array] = []
    for flow in traffic:
        start, gap = flow.start, flow.gap
        if flow.jitter > 0:
            if draw is None:
                # ``b * draw()`` is the float that ``Random.uniform(0.0, b)`` returns.
                draw = random.Random(seed).random
            spread = flow.jitter * gap
            drawn = [start + i * gap + spread * draw() for i in range(flow.count)]
            drawn.sort()
            del drawn[bisect_right(drawn, limit):]
            flow_sends.append(array("d", drawn))
        else:
            n = bisect_right(range(flow.count), limit, key=lambda i: start + i * gap)
            flow_sends.append(array("d", (start + i * gap for i in range(n))))
    return flow_sends


def _path(
    ports: dict[tuple[str, str], _Port], traced: bool, fwd, node: Node, frame: bytes
) -> tuple[list[tuple], list[tuple], Optional[DropReason]]:
    """Every hop a frame takes from ``node``, its hop prefixes, and its end.

    Each hop is (processing delay before it, queue, serialization time,
    propagation delay, trace text if ``traced``), and the end is None for a
    delivery or the drop reason. A frame too big for its next link ends the
    path on a hop with no queue: it is dropped once that node has processed
    it. Prefix n is the tuple of the (link id, size) of the first n hops
    transmitted, for n from 0 to all of them: what a record holds.
    """
    path: list[tuple] = []
    crossed: list[tuple[str, int]] = []
    in_if = None
    while True:
        res = fwd(node, frame, in_if)
        if res.action is not ForwardAction.FORWARD:
            end = res.drop_reason
            break
        port = ports[node.id, res.out_if]
        link = port.link
        frame = res.frame
        nbytes = len(frame)
        if nbytes > link.mtu:
            path.append((node.processing_delay, None, None, None, None))
            end = DropReason.MTU_EXCEEDED
            break
        text = (f"{link.id} {node.id}->{port.peer.id}", frame.hex()) if traced else None
        ser = nbytes * 8 / link.bandwidth
        path.append((node.processing_delay, port.queue, ser, link.propagation_delay, text))
        crossed.append((link.id, nbytes))
        node, in_if = port.peer, port.peer_if
    return path, [tuple(crossed[:n]) for n in range(len(crossed) + 1)], end


def _time_group(
    flow_sends: Sequence[array], limit: float, path: list[tuple], queued: int, end: int,
    flows: list[int], columns: list[FlowColumns],
) -> None:
    """Time the packets of ``flows``, which take the private ``path``.

    ``queued`` is the number of the path's hops that transmit, ``end`` the
    code of how it ends and ``limit`` the horizon. The flows' sends, taken
    from ``flow_sends`` in (time, seq) order, go into one array of ready
    times, and each hop is one loop over it (``_hop``) that leaves there
    when each packet reaches the next node. The path's queues are its own
    and start idle, and its ready and start times never decrease from one
    packet to the next, so the horizon cuts a suffix at every hop: a flow's
    columns are runs of equal hop counts and ends, with the arrivals of its
    delivered packets and NaN after them.
    """
    ready, owners = _merge(flow_sends, flows)
    # cuts[h]: how many of the packets crossed h hops, a prefix.
    cuts = [len(ready)]
    for processing, _, ser, prop, _ in islice(path, queued):
        cuts.append(_hop(ready, cuts[-1], processing, ser, prop, limit))
    # The runs of packets that crossed the same number of hops, as (first,
    # end, hops), the empty ones left out; the 0 closes the last run.
    cuts.append(0)
    runs = [(cuts[h + 1], cuts[h], h) for h in range(queued, -1, -1) if cuts[h] > cuts[h + 1]]

    # A packet that crossed every queue ends when it arrives, or, if its
    # frame is too big for the next link, once the next node has processed
    # it. Arrivals never decrease either, so those that end by the horizon
    # are a prefix too; a delivered one's arrival goes to its flow's column.
    wait = path[queued][0] if len(path) > queued else 0.0
    done = bisect_right(ready, limit, 0, cuts[queued], key=lambda t: t + wait)
    if not end:
        del ready[done:]
        if len(columns[flows[0]].send) == len(owners):
            # One flow sent every packet: the array is its column.
            columns[flows[0]].receive = ready
        else:
            adds = [columns[f].receive.append for f in flows]
            for k, t in zip(owners, ready):
                adds[k](t)
    HORIZON_EXPIRED = _END_CODES[DropReason.HORIZON_EXPIRED]
    for k, f in enumerate(flows):
        c = columns[f]
        sent = len(c.send)
        for first, last, hops in runs:
            c.hops.extend(repeat(hops, owners[first:last].count(k)))
        finished = owners[:done].count(k)
        c.end += bytes((end,)) * finished + bytes((HORIZON_EXPIRED,)) * (sent - finished)
        c.receive += array("d", [math.nan]) * (sent - len(c.receive))


def _hop(ready: array, m: int, processing: float, ser: float, prop: float, limit: float) -> int:
    """Take the first ``m`` packets of a private group through one hop.

    ``ready[k]`` is when packet k reached the hop's node; it becomes when the
    packet reaches the next one, by Lindley's recursion with the queue idle
    at first. Returns how many began to transmit by ``limit``: start times
    never decrease, so the rest are the ones after them.
    """
    free = 0.0
    for k, now in enumerate(islice(ready, m)):
        now += processing
        start = free if free > now else now
        if start > limit:
            return k
        free = start + ser
        ready[k] = free + prop
    return m


def _merge(flow_sends: Sequence[array], flows: Sequence[int]) -> tuple[array, Sequence[int]]:
    """The sends of ``flows`` in (time, seq) order, and each one's place in ``flows``.

    Seqs count sends flow by flow, so a stable sort by time of the flows'
    sends, one flow after another, gives that order. Each flow's sends are
    in order, so the sort is needed only where a flow's first send comes
    before the last send of the flows ahead of it. A place takes a byte for
    up to 256 flows and four past that.

    The sort, a multi-flow run's memory peak, holds per send a list slot
    for its place (one int object per flow), its time as a float key and
    that key's slot, and no copy of the times: ``list.sort`` computes every
    key once, in list order, before it moves anything, so a key function
    that steps through the flows' sends in that order gives each place the
    time of its own send. ``tests/test_simcore.py`` holds the result to
    the plain index sort.
    """
    wide = len(flows) > 256
    times = array("d")
    owners = array("I") if wide else bytearray()
    for k, f in enumerate(flows):
        sends = flow_sends[f]
        if sends and times and sends[0] < times[-1]:
            break
        times += sends
        owners += (array("I", [k]) if wide else bytes((k,))) * len(sends)
    else:
        return times, owners
    del times, owners
    sends = [flow_sends[f] for f in flows]
    # [*...] rather than list(...), whose new list object would stay in
    # CPython's free list after the run, which tracemalloc counts as held.
    picked = [*chain.from_iterable(map(repeat, range(len(sends)), map(len, sends)))]
    picked.sort(key=partial(next, chain.from_iterable(sends)))
    owners = array("I", picked) if wide else bytearray(picked)
    del picked
    # The same stable sort of the same times: the times in that order.
    return array("d", sorted(chain.from_iterable(sends))), owners


def _flow_frame(src_node: Node, dst_node: Node, flow: TrafficSpec) -> bytes:
    payload = bytes(flow.payload_bytes)
    if flow.family == "v6":
        h6 = Ipv6Header(
            src=_primary_address(src_node, "v6"),
            dst=_primary_address(dst_node, "v6"),
            payload_length=len(payload),
            next_header=58,
            hop_limit=flow.hop_limit,
        )
        return frame_packet(Packet(FrameKind.V6, payload=payload, v6=h6))
    h4 = Ipv4Header(
        src=_primary_address(src_node, "v4"),
        dst=_primary_address(dst_node, "v4"),
        total_length=20 + len(payload),
        ttl=flow.hop_limit,
        protocol=1,
    )
    return frame_packet(
        Packet(FrameKind.V4, payload=payload, outer_v4=h4), recompute_checksum=True
    )


def run_simulation(
    topology: Topology,
    traffic: Sequence[TrafficSpec],
    horizon: Optional[float] = None,
    *,
    seed: int = 0,
    trace: Optional[list[str]] = None,
) -> RecordTable:
    """Validate, then run to quiescence (or ``horizon``) and return records.

    The result is a ``RecordTable`` of per-flow columns. Its length is the
    number of injected packets, and iterating it builds one ``MetricsRecord``
    per packet in packet-id order; it is not a sequence and equals no list.
    ``seed`` only matters for flows with a nonzero ``jitter``; without jitter
    the send times are fully determined by the flow specs. ``trace``, if given,
    receives one line of hex per frame transmission.
    """
    validate_topology(topology)
    validate_traffic(topology, traffic)
    if horizon is not None and not math.isfinite(horizon):
        raise InvalidTrafficError("horizon must be finite")
    if horizon is not None and horizon < 0:
        raise InvalidTrafficError("horizon must not be negative")
    limit = math.inf if horizon is None else horizon
    nodes = {n.id: n for n in topology.nodes}
    ports, queue_count = _ports(topology.links, nodes)
    flow_sends = _draw_sends(traffic, seed, limit)

    # Read once per run, from the module, so a caller can substitute them.
    push = heapq.heappush
    pop = heapq.heappop
    fwd = forward
    MTU_EXCEEDED = _END_CODES[DropReason.MTU_EXCEEDED]
    HORIZON_EXPIRED = _END_CODES[DropReason.HORIZON_EXPIRED]
    NAN = math.nan
    idle = [0.0] * queue_count

    # What a node does with a frame depends only on the node, the frame
    # and where it came in, so each distinct flow header is framed and
    # walked once, here, and the timing below only follows its path.
    # Each header's path, hop prefixes, end code and flows.
    compiled: dict[tuple, tuple] = {}
    paths: list[list[tuple]] = []
    ends: list[int] = []
    columns: list[FlowColumns] = []
    for f, (flow, sends) in enumerate(zip(traffic, flow_sends)):
        key = (flow.src, flow.dst, flow.family, flow.payload_bytes, flow.hop_limit)
        if key not in compiled:
            src = nodes[flow.src]
            path, prefixes, end = _path(
                ports, trace is not None, fwd, src, _flow_frame(src, nodes[flow.dst], flow)
            )
            compiled[key] = path, prefixes, _END_CODES[end], []
        path, prefixes, end, flows = compiled[key]
        flows.append(f)
        paths.append(path)
        ends.append(end)
        columns.append(
            FlowColumns(
                flow.flow_id, flow.src, flow.dst, flow.payload_bytes, prefixes, sends,
                array("d"), bytearray(), bytearray() if len(prefixes) <= 256 else array("I"),
            )
        )

    # A path is private when each of its queues occurs once in all the
    # paths: no other path uses it and it does not use it twice. Its
    # packets meet at every queue in send order, so its flows are timed
    # on their own, hop by hop. A trace lists transmissions in the order
    # the heap starts them, so a traced run keeps every flow that
    # transmits on the heap.
    queues = [[hop[1] for hop in path if hop[1] is not None] for path, *_ in compiled.values()]
    users = Counter(queue for own in queues for queue in own)
    on_heap = bytearray(len(paths))
    for (path, _, end, flows), own in zip(compiled.values(), queues):
        if all(users[queue] == 1 for queue in own) and (trace is None or not own):
            _time_group(flow_sends, limit, path, len(own), end, flows, columns)
        else:
            for f in flows:
                on_heap[f] = 1

    heap: list[tuple] = []
    # Counts the hops that began to transmit, in the order they came off.
    rank = 0
    # With a trace, (start, rank, line) per transmission, sorted at the end.
    lines: Optional[list[tuple]] = None if trace is None else []

    # The sends of the flows left for the heap, with their places in the
    # (time, seq) order of every flow's sends, which are their packet ids.
    # Entries due before a send come off first; at equal times the send
    # goes first. The last pass, flow -1, sends nothing: it takes off the
    # entries due by the horizon.
    walk: Iterable[tuple] = ()
    if any(on_heap):
        times, owners = _merge(flow_sends, range(len(paths)))
        sends = compress(zip(count(), times, owners), map(on_heap.__getitem__, owners))
        walk = chain(sends, [(-1, limit, -1)])
    for seq, now, a in walk:
        while heap and (heap[0][0] < now or a < 0 and heap[0][0] <= now):
            # The node has processed the packet for hop b of its flow's
            # path: the frame joins the link's FIFO, is sent and arrives.
            due, _, _, _, _, f, b, j, packet_id = pop(heap)
            path = paths[f]
            _, queue, ser, prop, text = path[b]
            if queue is None:
                columns[f].end[j] = MTU_EXCEEDED
                continue
            free = idle[queue]
            start = free if free > due else due
            idle[queue] = start + ser
            if start > limit:
                continue
            rank += 1
            b += 1
            columns[f].hops[j] = b
            if lines is not None:
                lines.append((start, rank, f"{start!r} {text[0]} pkt={packet_id} {text[1]}"))
            arrival = start + ser + prop
            if b < len(path):
                push(heap, (arrival + path[b][0], arrival, 1, start, rank, f, b, j, packet_id))
            elif arrival <= limit:
                columns[f].end[j] = ends[f]
                if not ends[f]:
                    columns[f].receive[j] = arrival
        if a < 0:
            break

        # A send adds the packet to its flow's columns. It starts out
        # expired by the horizon, which is how it ends if the run stops
        # before its frame does.
        c = columns[a]
        j = len(c.end)
        c.receive.append(NAN)
        c.end.append(HORIZON_EXPIRED)
        c.hops.append(0)
        push(heap, (now + paths[a][0][0], now, 0, 0.0, seq, a, 0, j, seq))

    if lines is not None:
        lines.sort()
        trace.extend(line for _, _, line in lines)
    return RecordTable(columns)
