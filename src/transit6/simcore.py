"""Deterministic discrete-event simulation of frames crossing a topology.

The engine moves real wire bytes between nodes. Every hop checks the
frame's structure with ``codec.check_frame``, applies the node's forwarding
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
direction, frame size and trace hex, one tuple of the (link, size) of the
hops it transmits on, and how it ends (delivered, or dropped with a
reason); timing never touches a frame.
The walk ends because every hop a frame arrives on spends one ttl or
hop_limit, and a tunnel copies the inner hop_limit into the outer ttl. Precondition: a
frame's bytes are the same for every packet of its flow. A per-packet field
(an IPv4 identification, a sequence number in the payload) would break it.

Routing is longest-prefix match. Each route table's ``RouteFacts`` hold
one dict per distinct prefix length, from network bits to the first entry
with that prefix, so a lookup probes one dict per length, longest first,
and reads no entry it does not return. A ``RouteTable``, which every loaded
table is, is indexed by the first run after validation and keeps its facts
from one run to the next, together with a copy of the entries they were
built from, and uses them only while the table still equals that copy;
validation then checks the table's prefix types and interface names through
them. Any other list of entries is indexed afresh for each lookup.

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
model, indexes its loaded route tables, builds the ports (``_ports``),
draws the sends (``_draw_sends``), compiles each flow header's path
(``_path``), times each private group (``_time_group``), walks the heap and
returns the columns.

Send times are drawn up front, flow by flow, and a send's seq is its
position in that draw order. Only sends up to the horizon are kept, and no
send due after it is made or drawn: a send's nominal time, before jitter,
never decreases along its flow, so those due by the horizon are counted by
bisection. The random generator is seeded only once a jittered flow draws.
Each flow keeps its own sends in (time, seq) order, and no run keeps one
schedule of them all: where a set of flows' sends must go in one (time,
seq) order, a stable sort by time of their sends, one flow after another,
gives it, and a send's place in that order over every flow is its packet
id.

Each flow header compiles to one path. A path is private when no other path
uses any of its queues and it uses none twice. Its packets then reach every
queue in their send order, so an untraced run times each private path's
flows on their own: their sends go into one array of ready times in (time,
seq) order, and one pass over it takes each packet through every hop by the
recursion above before it takes the next. Each pass is a function written
out for its hop count (up to 4; a longer path chains passes) and built at
import, so that every hop's idle time and constants are local variables.
The flows share one frame and one end, and their ready and start times
never decrease from one packet to the next, so the horizon cuts a suffix of
the packets at every hop, and each flow's counts are read off those cuts,
with its delivered arrivals taken from the array. A heap times the rest (paths that share a queue with another or
reuse one, and every path that transmits in a traced run) with one entry
per hop, due when a node has processed the packet; the frame then takes its
FIFO slot and the next hop's entry goes on at its arrival plus that node's
processing delay, and each flow's counts go up as its packets cross hops
and end. The run puts every flow's sends in order, walks those of
the heap's flows only and, before each send, takes off the entries due
strictly before it, so the heap holds only the packets in flight; with no
such flow, there is no walk.

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

A run builds no record per packet. A flow sends one frame along one path,
and its packets keep their send order at every queue, so they end as a
prefix that ends as the path does and a suffix that the horizon expires,
and none crosses more hops than the one before it. A flow's result
(``FlowColumns``) is thus the flow it was given, its path's hop tuple and
end, its send times, its delivered arrivals and a few counts; a packet's
hops are a prefix of its path's. ``run_simulation`` returns them as a
``RecordTable``, which ``metrics.summarize`` reads flow by flow. Iterating
it builds one ``MetricsRecord`` per packet, and the prefix tuples those
records share; it is not a sequence and equals no list.
"""

from __future__ import annotations

import heapq
import math
import random
import struct
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import chain, compress, count, repeat
from operator import neg
from typing import Optional, Union

from .addressing import FamilyMismatchError, Ipv4Prefix, Ipv6Prefix
from .codec import (
    FrameKind,
    Ipv4Address,
    Ipv6Address,
    check_frame,
    internet_checksum,
    ipv4_header,
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


@dataclass(frozen=True, slots=True)
class RouteEntry4:
    prefix: Ipv4Prefix
    out_if: str


@dataclass(frozen=True, slots=True)
class RouteEntry6:
    prefix: Ipv6Prefix
    out_if: str


RouteEntry = Union[RouteEntry4, RouteEntry6]


class RouteFacts:
    """What ``route_lookup`` and ``validate_topology`` read of a route table.

    ``entries`` is a copy of the table's entries, and the rest is built from
    it. ``lengths`` holds each distinct prefix length, longest first, with a
    dict from the network bits of that length to the position of the first
    entry with that prefix. ``types`` maps each prefix type present to the
    position of its first prefix, and ``family`` is the one type if there is
    one, else None. ``out_ifs`` is the set of interface names.
    """

    __slots__ = ("entries", "lengths", "types", "family", "out_ifs")

    def __init__(self, entries: Iterable[RouteEntry]) -> None:
        self.entries = entries = [*entries]
        networks: dict[int, dict[int, int]] = {}
        types: dict[type, int] = {}
        # Backwards, so that the first entry of each prefix and type is the
        # one left in place.
        for pos in range(len(entries) - 1, -1, -1):
            prefix = entries[pos].prefix
            types[type(prefix)] = pos
            by_network = networks.get(prefix.length)
            if by_network is None:
                by_network = networks[prefix.length] = {}
            by_network[prefix.network] = pos
        self.lengths = sorted(networks.items(), reverse=True)
        self.types = types
        self.family = next(iter(types)) if len(types) == 1 else None
        self.out_ifs = {entry.out_if for entry in entries}


class RouteTable(list):
    """A route table that keeps its ``RouteFacts`` across runs.

    Every table ``scenario_io`` loads is one. It is a list in every other
    respect, and any list of entries is a route table too: ``route_lookup``
    builds a throwaway ``RouteTable`` for one. The facts are built from a
    copy of the entries on first use and are used only while the table
    still equals that copy, so any change to the list, by any list method,
    rebuilds them. Entries are frozen, so an equal list means equal
    prefixes and interfaces.
    """

    __slots__ = ("_facts",)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._facts: Optional[RouteFacts] = None

    def facts(self) -> RouteFacts:
        """The facts of the entries as they are now, rebuilt if they changed."""
        facts = self._facts
        if facts is None or facts.entries != self:
            facts = self._facts = RouteFacts(self)
        return facts

    def current_facts(self) -> Optional[RouteFacts]:
        """The stored facts if they are those of the entries now, else None."""
        facts = self._facts
        return facts if facts is not None and facts.entries == self else None


@dataclass
class Node:
    """A host or router. Tunnels are keyed by their pseudo-interface name."""

    id: str
    kind: NodeKind
    role: Role
    interfaces: list[Interface] = field(default_factory=list)
    v4_routes: list[RouteEntry4] = field(default_factory=RouteTable)
    v6_routes: list[RouteEntry6] = field(default_factory=RouteTable)
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
    packet was transmitted on, in order: a prefix of its path's hops.
    Iterating a ``RecordTable`` builds each record as it goes, with that
    prefix as an immutable tuple shared by the records of the iteration
    that crossed the same hops, so editing one, hops included, changes
    nothing in the table. ``metrics.summarize`` reads the table's counts,
    never its records.
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


@dataclass(slots=True)
class FlowColumns:
    """One flow's packets as counts, in send order (that is, packet-id order).

    ``flow`` is the ``TrafficSpec`` the run was given, and ``hops`` the
    (link id, frame size) of each hop its path transmits on, one tuple that
    every flow of the same header shares. ``send`` holds the send times.
    The first ``finished`` packets ended as the path does, ``end`` (None
    for delivered, else the drop reason), and the rest expired at the
    horizon; ``receive`` holds the delivered ones' arrivals. ``crossed[h]``
    counts the packets sent on at least h hops, that is on ``hops[:h]``. A
    ``RecordTable`` keeps one per flow; iterating it yields records.
    """

    flow: TrafficSpec
    hops: tuple[tuple[str, int], ...]
    send: array
    receive: array
    end: Optional[DropReason]
    finished: int
    crossed: list[int]


class RecordTable:
    """A run's result: one ``FlowColumns`` per flow, a length and an iterator.

    Iterating it yields one ``MetricsRecord`` per packet in packet-id order,
    deriving that order from the send columns and building each record as
    it goes, so editing a record changes nothing in the table. Each path's
    hop prefixes are built once per iteration, and the records that crossed
    the same hops of it share one tuple. It is not a sequence and equals no
    list: ``list(table)`` is its records.
    """

    __slots__ = ("flows",)

    def __init__(self, flows: list[FlowColumns]) -> None:
        self.flows = flows

    def __len__(self) -> int:
        return sum(len(c.send) for c in self.flows)

    def __iter__(self) -> Iterator[MetricsRecord]:
        flows = self.flows
        # Each path's hop prefixes, built once for the records of this pass.
        shared = {h: [h[:n] for n in range(len(h) + 1)] for h in {c.hops for c in flows}}
        prefixes = [shared[c.hops] for c in flows]
        taken = [0] * len(flows)
        for p, a in enumerate(_merge([c.send for c in flows], range(len(flows)))[1]):
            c = flows[a]
            flow = c.flow
            j = taken[a]
            taken[a] = j + 1
            yield MetricsRecord(
                p, flow.flow_id, flow.src, flow.dst, flow.payload_bytes, c.send[j],
                c.receive[j] if j < len(c.receive) else None,
                c.end if j < c.finished else DropReason.HORIZON_EXPIRED,
                prefixes[a][bisect_left(c.crossed, -j, key=neg) - 1],
            )


def route_lookup(routes: Iterable[RouteEntry], dst: Union[Ipv4Address, Ipv6Address]) -> RouteEntry:
    """Longest-prefix match over ``routes``; first entry wins equal prefixes.

    Reads the table's ``RouteFacts``: one dict probe per distinct prefix
    length, longest first (the per-length hash tables of Waldvogel et al.,
    "Scalable High Speed IP Routing Lookups", SIGCOMM 1997, probed in turn
    rather than by their binary search over the lengths).
    A ``RouteTable`` keeps its facts across calls; any other iterable gets a
    throwaway one. Raises FamilyMismatchError, naming the first such prefix,
    if any entry's prefix is of the other family, and NoRouteError if no
    entry matches.
    """
    table = routes if isinstance(routes, RouteTable) else RouteTable(routes)
    facts = table.facts()
    family = Ipv4Prefix if isinstance(dst, Ipv4Address) else Ipv6Prefix
    if facts.family is not family and facts.types:
        first = min(pos for kind, pos in facts.types.items() if kind is not family)
        raise FamilyMismatchError(f"cannot match {table[first].prefix} against {dst}")
    value = dst.to_int()
    width = 32 if family is Ipv4Prefix else 128
    for length, networks in facts.lengths:
        pos = networks.get(value >> (width - length))
        if pos is not None:
            return table[pos]
    raise NoRouteError(f"no route for {dst}")


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

    A malformed frame raises what ``dual_stack_dispatch`` or ``check_frame``
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

# The largest flow count. Send i is due at ``start + i * gap``, and past 2**53
# not every index is a float, so two sends could share a nominal time; it also
# keeps the send indexes ``_draw_sends`` bisects within a 64-bit ``range``.
MAX_COUNT = 2**53

# The most sends a run makes, over every flow: those due by the horizon. A
# run holds its sends until it ends, and the run shapes that
# ``tests/peak_memory.py`` measures peak at 22-84 B of traced memory per
# send, so a run at this bound peaks under ~0.7 GB. A count of 10**9 with no
# horizon would ask for 8 GB of send times alone. A shorter horizon cuts the
# sends due by it.
MAX_SENDS = 2**23

# The most bytes a traced run's lines hold. A traced run keeps one line per
# transmission until it ends: its link label and frame hex, then its start
# time, packet id and the objects that hold the line. On the built-in 6to4
# traced at 2000 and 8000 transmissions, with payloads of 0 to 1400 bytes,
# ``tracemalloc`` put the peak 192-197 B past the lines' characters per
# transmission (CPython 3.11), and the time and id take under 50 characters.
# So each transmission is counted as its label and hex plus
# ``_TRACE_LINE_BYTES``, once per send due by the horizon on every hop of its
# path that transmits. A run at this bound holds ~0.5 GB of trace beside its
# sends. A shorter horizon cuts the sends due by it.
MAX_TRACE_BYTES = 2**29
_TRACE_LINE_BYTES = 256

# The most draws a run skips: the sends of a jittered flow that the horizon
# cut, which the generator must pass before a later jittered flow draws.
# Skipping takes ~13.5 ns per draw (getrandbits, CPython 3.11 on a 2-core
# x86-64 host) and no memory, so a run at this bound skips for ~15 s; a count
# near MAX_COUNT would skip for years. A longer horizon or a lower count
# cuts the draws skipped.
MAX_SKIPS = 2**30


def _check_seconds(error: type[SimError], owner: str, key: str, value: float) -> None:
    """Raise ``error`` unless ``value`` is a finite time in [0, MAX_SECONDS]."""
    if not math.isfinite(value):
        raise error(f"{owner}: {key} must be finite")
    if value < 0:
        raise error(f"{owner}: negative {key}")
    if value > MAX_SECONDS:
        raise error(f"{owner}: {key} over {MAX_SECONDS:.0f} s")


def _check_routes(node_id: str, routes: Sequence[RouteEntry], family: type, exits: set[str]) -> None:
    """Raise InvalidTopologyError on the first route whose prefix is not of
    ``family`` or that leaves through none of ``exits``.

    A ``RouteTable`` whose current facts show every route valid is not read
    entry by entry; any other table is, and names its first offender.
    """
    facts = routes.current_facts() if isinstance(routes, RouteTable) else None
    if facts is not None and facts.family is family and facts.out_ifs <= exits:
        return
    name = "IPv4" if family is Ipv4Prefix else "IPv6"
    for entry in routes:
        if type(entry.prefix) is not family:
            raise InvalidTopologyError(
                f"{node_id}: {name} route table holds {entry.prefix}, not an {name} prefix"
            )
        if entry.out_if not in exits:
            raise InvalidTopologyError(
                f"{node_id}: {name} route {entry.prefix} leaves through "
                f"unknown interface {entry.out_if!r}"
            )


def validate_topology(topology: Topology) -> None:
    """Raise InvalidTopologyError on the first structural rule violation.

    A loaded route table keeps the ``RouteFacts`` that a run built for it,
    and while they are current its routes are checked through them, with no
    pass over its entries; any other table, or one that fails, is checked
    entry by entry, which gives the first offender's message.
    """
    # Node id -> its interface names: the duplicate-id check here, the port check below.
    if_names_by_node: dict[str, set[str]] = {}
    for node in topology.nodes:
        if node.id in if_names_by_node:
            raise InvalidTopologyError(f"duplicate node id {node.id!r}")
        _check_seconds(InvalidTopologyError, node.id, "processing_delay", node.processing_delay)
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
        # route_lookup would raise FamilyMismatchError on a prefix of the
        # other family mid-run; one type test per route refuses it here.
        _check_routes(node.id, node.v4_routes, Ipv4Prefix, if_names)
        _check_routes(
            node.id, node.v6_routes, Ipv6Prefix,
            if_names.union(node.tunnels) if node.tunnels else if_names,
        )

    used_ports: set[tuple[str, str]] = set()
    link_ids: set[str] = set()
    for link in topology.links:
        if link.id in link_ids:
            raise InvalidTopologyError(f"duplicate link id {link.id!r}")
        link_ids.add(link.id)
        if not math.isfinite(link.bandwidth):
            raise InvalidTopologyError(f"link {link.id}: bandwidth must be finite")
        if link.bandwidth <= 0:
            raise InvalidTopologyError(f"link {link.id}: bandwidth must be positive")
        _check_seconds(
            InvalidTopologyError, f"link {link.id}", "propagation_delay", link.propagation_delay
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


def validate_traffic(
    topology: Topology, traffic: Sequence[TrafficSpec], horizon: Optional[float] = None
) -> None:
    """Raise InvalidTrafficError on the first flow rule violation.

    A ``horizon`` other than None must be finite and not negative. It gets no
    ``MAX_SECONDS`` bound: it only cuts a run short, and no time is formed
    from it.
    """
    if horizon is not None and not 0 <= horizon < math.inf:
        raise InvalidTrafficError(
            f"horizon must be a finite, non-negative number, got {horizon!r}"
        )
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
        if flow.count > MAX_COUNT:
            raise InvalidTrafficError(f"{flow.flow_id}: count over {MAX_COUNT}")
        _check_seconds(InvalidTrafficError, flow.flow_id, "gap", flow.gap)
        _check_seconds(InvalidTrafficError, flow.flow_id, "start", flow.start)
        if not 1 <= flow.hop_limit <= 255:
            raise InvalidTrafficError(f"{flow.flow_id}: hop_limit outside 1..255")
        if not math.isfinite(flow.jitter):
            raise InvalidTrafficError(f"{flow.flow_id}: jitter must be finite")
        if not 0 <= flow.jitter < 1:
            raise InvalidTrafficError(f"{flow.flow_id}: jitter must be in [0, 1)")


# A heap entry is hop i of flow f's path, (key, f, i, packet id), due when
# the node has processed the packet. The key, the first five fields, is
# (time, send time, 0, 0.0, packet id) at the source and (time, arrival, 1,
# previous start, previous rank) at a later node: when the packet reached
# it, and when and at what rank among heap hops the previous hop began to
# transmit. Keys are unique, so entries never compare past them.


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


# The most skipped draws one ``getrandbits`` call stands for: an int of 8 KB.
_SKIP_DRAWS = 2**10


def _draw_sends(traffic: Sequence[TrafficSpec], seed: int, limit: float) -> list[array]:
    """Each flow's sends up to ``limit``, in (time, seq) order.

    Send times are drawn flow by flow, one draw per jittered send, and a
    send's seq is its position in that draw order, so a stable sort by time
    of a flow's draws orders its sends. Later sends never happen. Send i of
    a flow is due at ``start + i * gap``, plus ``spread * draw()`` if it is
    jittered. Those nominal times never decrease, as float rounding is
    monotone, so the sends due by ``limit`` are counted by bisection, and
    only they are made: a later send lands past ``limit`` whatever it
    draws, since the draw adds at least 0. Unjittered sends are in order as
    made. The generator is seeded when the first jittered flow draws, so a
    run with no jitter seeds none.

    A jittered flow's undrawn sends still move the generator on before the
    next jittered flow draws, through ``getrandbits(64 * m)``, which leaves
    it where ``m`` calls to ``random()`` would (two 32-bit words each).
    That costs ~13 ns per skipped draw, since the standard library's
    Mersenne Twister cannot jump ahead. The undrawn sends of the last
    jittered flow cost nothing.

    Before anything is made or drawn, the run's sends and skipped draws are
    summed: over ``MAX_SENDS`` or ``MAX_SKIPS``, InvalidTrafficError names
    the flow that takes the sum past its bound.
    """
    # Per flow, its sends due and the draws to skip before it draws.
    plan: list[tuple[int, int]] = []
    sends = skips = owed = 0
    for flow in traffic:
        start, gap, n = flow.start, flow.gap, flow.count
        if start + (n - 1) * gap > limit:
            n = bisect_right(range(n), limit, key=lambda i: start + i * gap)
        sends += n
        if sends > MAX_SENDS:
            raise InvalidTrafficError(
                f"{flow.flow_id}: count {flow.count} takes the sends due by the horizon "
                f"over {MAX_SENDS}; a shorter --horizon cuts them"
            )
        skip = 0
        if flow.jitter > 0:
            skip = owed
            skips += skip
            if skips > MAX_SKIPS:
                raise InvalidTrafficError(
                    f"{owing.flow_id}: count {owing.count} takes the draws skipped past the "
                    f"horizon over {MAX_SKIPS}; a lower count cuts them"
                )
            owed, owing = flow.count - n, flow
        plan.append((n, skip))

    draw = None
    flow_sends: list[array] = []
    for flow, (n, skip) in zip(traffic, plan):
        start, gap = flow.start, flow.gap
        if flow.jitter > 0:
            if draw is None:
                rng = random.Random(seed)
                # ``b * draw()`` is the float that ``Random.uniform(0.0, b)`` returns.
                draw = rng.random
            while skip:
                chunk = min(skip, _SKIP_DRAWS)
                rng.getrandbits(64 * chunk)
                skip -= chunk
            spread = flow.jitter * gap
            drawn = [start + i * gap + spread * draw() for i in range(n)]
            drawn.sort()
            del drawn[bisect_right(drawn, limit):]
            flow_sends.append(array("d", drawn))
        else:
            flow_sends.append(array("d", (start + i * gap for i in range(n))))
    return flow_sends


def _path(
    ports: dict[tuple[str, str], _Port], traced: bool, fwd, node: Node, frame: bytes
) -> tuple[list[tuple], tuple[tuple[str, int], ...], Optional[DropReason]]:
    """Every hop a frame takes from ``node``, the hops it is sent on, and its end.

    Each hop is (processing delay before it, queue, serialization time,
    propagation delay, trace text if ``traced``), and the end is None for a
    delivery or the drop reason. A frame too big for its next link ends the
    path on a hop with no queue: it is dropped once that node has processed
    it. The hops sent on are the (link id, size) of each hop transmitted.
    """
    path: list[tuple] = []
    hops: list[tuple[str, int]] = []
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
        hops.append((link.id, nbytes))
        node, in_if = port.peer, port.peer_if
    return path, tuple(hops), end


def _check_trace_budget(
    traffic: Sequence[TrafficSpec], flow_sends: Sequence[array], paths: Sequence[list[tuple]]
) -> None:
    """Refuse a traced run whose lines would hold over ``MAX_TRACE_BYTES``.

    Every send due by the horizon is counted as if it crossed each hop of
    its path that transmits; InvalidTrafficError names the flow that takes
    the sum over the bound.
    """
    held = 0
    for flow, sends, path in zip(traffic, flow_sends, paths):
        line = sum(len(text[0]) + len(text[1]) + _TRACE_LINE_BYTES for *_, text in path if text)
        held += len(sends) * line
        if held > MAX_TRACE_BYTES:
            raise InvalidTrafficError(
                f"{flow.flow_id}: count {flow.count} takes the traced lines held over "
                f"{MAX_TRACE_BYTES} bytes; a shorter --horizon cuts them"
            )


def _time_group(
    flow_sends: Sequence[array], limit: float, path: list[tuple], queued: int,
    end: Optional[DropReason], flows: list[int], columns: list[FlowColumns],
) -> None:
    """Time the packets of ``flows``, which take the private ``path``.

    ``queued`` is the number of the path's hops that transmit, ``end`` how
    it ends and ``limit`` the horizon. The flows' sends, taken from
    ``flow_sends`` in (time, seq) order, go into one array of ready times,
    and ``_cross`` takes each packet through every hop before the next,
    leaving there when it reached the node after the last hop it crossed.
    The path's queues are its own and start idle, and its ready and start
    times never decrease from one packet to the next, so the horizon cuts a
    suffix at every hop: a flow's counts are how many of its packets come
    before each cut.
    """
    ready, owners = _merge(flow_sends, flows)
    # cuts[h]: how many of the packets crossed h hops, a prefix.
    cuts = _cross(ready, path, queued, limit)

    # A packet that crossed every queue ends when it arrives, or, if its
    # frame is too big for the next link, once the next node has processed
    # it. Arrivals never decrease either, so those that end by the horizon
    # are a prefix too; a delivered one's arrival goes to its flow's column.
    wait = path[queued][0] if len(path) > queued else 0.0
    done = bisect_right(ready, limit, 0, cuts[queued], key=lambda t: t + wait)
    if end is None:
        del ready[done:]
    c = columns[flows[0]]
    if len(c.send) == len(owners):
        # One flow sent every packet: the cuts are its counts, the array its arrivals.
        c.crossed, c.finished = cuts, done
        if end is None:
            c.receive = ready
        return
    if end is None:
        adds = [columns[f].receive.append for f in flows]
        for k, t in zip(owners, ready):
            adds[k](t)
    if type(owners) is not bytearray:
        # Past 256 flows each ``count`` would box every four-byte place
        # once per flow, so each cut segment and the finished prefix are
        # counted once, for every flow.
        segments = []
        first = 0
        for h in range(queued, 0, -1):
            segments.append((h, Counter(owners[first : cuts[h]])))
            first = cuts[h]
        finished = Counter(owners[:done])
        for k, f in enumerate(flows):
            c = columns[f]
            crossed = c.crossed
            n = 0
            for h, counts in segments:
                n += counts[k]
                crossed[h] = n
            c.finished = finished[k]
        return
    for k, f in enumerate(flows):
        c = columns[f]
        crossed = c.crossed
        # Packets first to cuts[h] crossed h hops and no more, most hops first.
        n = first = 0
        for h in range(queued, 0, -1):
            if cuts[h] > first:
                n += owners[first : cuts[h]].count(k)
                first = cuts[h]
            crossed[h] = n
        c.finished = owners[:done].count(k)


# The most hops one pass takes; a longer path chains passes. Four is the
# longest private path of the built-in scenarios and the bench workloads, so
# no pass is compiled at import that none of them times.
_PASS_HOPS = 4


def _pass_source(hops: int) -> str:
    """The source of ``_pass<hops>``, built from the hop count alone.

    Hop h's processing, serialization and propagation times are ``p<h>``,
    ``s<h>`` and ``q<h>``, and ``f<h>`` is when its queue is next idle.
    ``now`` is when the packet has been processed at the hop's node, then
    when it starts to transmit. A packet the horizon stops keeps in
    ``ready`` its arrival at the node it stopped at.
    """
    def counts(h: int, crossed: str) -> str:
        # Hop h and every hop after it in the pass were crossed by ``crossed``.
        return "".join(f"cuts[first + {g + 1}] = " for g in range(h, hops)) + crossed

    lines = [
        f"def _pass{hops}(ready, i, m, limit, path, first, cuts"
        + "".join(f", f{h}=0.0" for h in range(hops)) + "):",
        *(f"    p{h}, _, s{h}, q{h}, _ = path[first + {h}]" for h in range(hops)),
        "    for k in range(i, m):",
        "        now = ready[k] + p0",
    ]
    for h in range(hops):
        if h:
            lines.append(f"        now = f{h - 1} + q{h - 1} + p{h}")
        lines += [f"        if f{h} > now:", f"            now = f{h}", "        if now > limit:"]
        if h:
            idle = "".join(f", f{g}" for g in range(h))
            lines += [
                f"            ready[k] = f{h - 1} + q{h - 1}",
                f"            {counts(h, 'k')}",
                f"            return _pass{h}(ready, k + 1, m, limit, path, first, cuts{idle})",
            ]
        else:
            lines += [f"            {counts(0, 'k')}", "            return"]
        lines.append(f"        f{h} = now + s{h}")
    lines += [f"        ready[k] = f{hops - 1} + q{hops - 1}", f"    {counts(0, 'm')}", ""]
    return "\n".join(lines)


def _build_passes() -> tuple:
    """``_pass1`` to ``_pass<_PASS_HOPS>``, by hop count, compiled in one go.

    They are built at import, as ``dataclasses`` builds ``__init__``, so
    that no run pays for compiling one or holds the compiler's memory.
    """
    source = "\n".join(map(_pass_source, range(1, _PASS_HOPS + 1)))
    namespace = {"range": range}
    exec(compile(source, "<transit6.simcore passes>", "exec"), namespace)
    return (None, *(namespace[f"_pass{hops}"] for hops in range(1, _PASS_HOPS + 1)))


_PASSES = _build_passes()


def _cross(ready: array, path: Sequence[tuple], queued: int, limit: float) -> list[int]:
    """Take a private group's packets through the first ``queued`` hops of ``path``.

    ``ready[k]`` is when packet k reached the first hop's node, and it
    becomes when the packet reached the node after the last hop it crossed,
    by Lindley's recursion with every queue idle at first. Returns the
    cuts: the number of packets, then how many began to transmit on each
    hop by ``limit``, a prefix of them, as start times never decrease.

    One pass takes each packet through every hop, so a packet is read and
    written once, not once per hop. A loop over the hops inside the packet
    loop would pay an iterator step, a tuple unpack and a list read and
    write per hop, so each pass is a function written out for its hop
    count, with every hop's idle time and constants in local variables
    (``_pass_source``). The pass for 2 hops reads::

        def _pass2(ready, i, m, limit, path, first, cuts, f0=0.0, f1=0.0):
            p0, _, s0, q0, _ = path[first + 0]
            p1, _, s1, q1, _ = path[first + 1]
            for k in range(i, m):
                now = ready[k] + p0
                if f0 > now:
                    now = f0
                if now > limit:
                    cuts[first + 1] = cuts[first + 2] = k
                    return
                f0 = now + s0
                now = f0 + q0 + p1
                if f1 > now:
                    now = f1
                if now > limit:
                    ready[k] = f0 + q0
                    cuts[first + 2] = k
                    return _pass1(ready, k + 1, m, limit, path, first, cuts, f0)
                f1 = now + s1
                ready[k] = f1 + q1
            cuts[first + 1] = cuts[first + 2] = m

    A pass takes up to ``_PASS_HOPS`` hops from hop ``first`` on; a longer
    path chains passes, each over the packets that crossed the hops before
    it. If packet k is the first not to start hop j by the horizon, no
    later packet crosses hop j, so k is the count of hop j and of every hop
    after it in the pass. The pass for the j hops before it then takes the
    packets after k on from the idle times they left.
    """
    cuts = [len(ready)] * (queued + 1)
    for first in range(0, queued, _PASS_HOPS):
        _PASSES[min(queued - first, _PASS_HOPS)](ready, 0, cuts[first], limit, path, first, cuts)
    return cuts


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


# An IPv6 header (RFC 8200 section 3): version, traffic class and flow label
# in one word | payload length, next header, hop limit | src | dst.
_IPV6_HEADER = struct.Struct("!IHBB16s16s")


def _flow_frame(src_node: Node, dst_node: Node, flow: TrafficSpec) -> bytes:
    """The frame every packet of ``flow`` leaves its source with.

    An ICMP (protocol 1) or ICMPv6 (next header 58) frame between the nodes'
    primary addresses, whose payload is ``payload_bytes`` zero bytes and
    whose ttl or hop limit is the flow's; every other field is zero.
    Validation has bounded the payload size and hop limit, so each fits.
    """
    payload = bytes(flow.payload_bytes)
    if flow.family == "v6":
        src, dst = _primary_address(src_node, "v6"), _primary_address(dst_node, "v6")
        return _IPV6_HEADER.pack(
            6 << 28, len(payload), 58, flow.hop_limit, src.octets, dst.octets
        ) + payload
    src, dst = _primary_address(src_node, "v4"), _primary_address(dst_node, "v4")
    return ipv4_header(src, dst, 20 + len(payload), flow.hop_limit, 1) + payload


def run_simulation(
    topology: Topology,
    traffic: Sequence[TrafficSpec],
    horizon: Optional[float] = None,
    *,
    seed: int = 0,
    trace: Optional[list[str]] = None,
) -> RecordTable:
    """Validate, then run to quiescence (or ``horizon``) and return records.

    ``validate_traffic`` checks the horizon with the flows.

    The result is a ``RecordTable`` of per-flow columns. Its length is the
    number of injected packets, and iterating it builds one ``MetricsRecord``
    per packet in packet-id order; it is not a sequence and equals no list.
    ``seed`` only matters for flows with a nonzero ``jitter``; without jitter
    the send times are fully determined by the flow specs. ``trace``, if given,
    receives one line of hex per frame transmission.
    """
    validate_topology(topology)
    validate_traffic(topology, traffic, horizon)
    limit = math.inf if horizon is None else horizon
    nodes = {n.id: n for n in topology.nodes}
    # Index each loaded route table that holds a route, now that its routes
    # are known valid, so that every lookup of the run only probes it; a
    # table indexed by an earlier run and unchanged since costs one list
    # compare.
    for node in topology.nodes:
        for routes in (node.v4_routes, node.v6_routes):
            if routes and isinstance(routes, RouteTable):
                routes.facts()
    ports, queue_count = _ports(topology.links, nodes)
    flow_sends = _draw_sends(traffic, seed, limit)

    # Read once per run, from the module, so a caller can substitute them.
    push = heapq.heappush
    pop = heapq.heappop
    fwd = forward
    idle = [0.0] * queue_count

    # What a node does with a frame depends only on the node, the frame
    # and where it came in, so each distinct flow header is framed and
    # walked once, here, and the timing below only follows its path.
    # Each header's path, hops sent on, end and flows.
    compiled: dict[tuple, tuple] = {}
    paths: list[list[tuple]] = []
    columns: list[FlowColumns] = []
    for f, (flow, sends) in enumerate(zip(traffic, flow_sends)):
        key = (flow.src, flow.dst, flow.family, flow.payload_bytes, flow.hop_limit)
        if key not in compiled:
            src = nodes[flow.src]
            path, hops, end = _path(
                ports, trace is not None, fwd, src, _flow_frame(src, nodes[flow.dst], flow)
            )
            compiled[key] = path, hops, end, []
        path, hops, end, flows = compiled[key]
        flows.append(f)
        paths.append(path)
        columns.append(
            FlowColumns(flow, hops, sends, array("d"), end, 0, [len(sends)] + [0] * len(hops))
        )

    if trace is not None:
        _check_trace_budget(traffic, flow_sends, paths)

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
            due, _, _, _, _, f, b, packet_id = pop(heap)
            path = paths[f]
            _, queue, ser, prop, text = path[b]
            c = columns[f]
            if queue is None:
                c.finished += 1
                continue
            free = idle[queue]
            start = free if free > due else due
            idle[queue] = start + ser
            if start > limit:
                continue
            rank += 1
            b += 1
            c.crossed[b] += 1
            if lines is not None:
                lines.append((start, rank, f"{start!r} {text[0]} pkt={packet_id} {text[1]}"))
            arrival = start + ser + prop
            if b < len(path):
                push(heap, (arrival + path[b][0], arrival, 1, start, rank, f, b, packet_id))
            elif arrival <= limit:
                # A flow's packets keep their send order at every queue, so
                # they arrive in it.
                c.finished += 1
                if c.end is None:
                    c.receive.append(arrival)
        if a < 0:
            break
        push(heap, (now + paths[a][0][0], now, 0, 0.0, seq, a, 0, seq))

    if lines is not None:
        lines.sort()
        trace.extend(line for _, _, line in lines)
    return RecordTable(columns)
