"""Reference forwarding on decoded headers, kept as the oracle for the fast path.

``reference_forward`` is the dataclass implementation ``simcore.forward``
replaced: every hop parses the frame with ``parse_frame``, rebuilds it with
``dataclasses.replace`` and serializes it with ``frame_packet``. It makes
the same decisions from the same node, so on any frame the two must return
the same action, out_if, bytes and drop reason, or raise the same exception
class. Route lookup is a plain scan of the whole table, and 6in4 works on
``Packet`` objects, so nothing here shares code with the fast path beyond
the dataclass codec.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

from codec_oracle import (
    Ipv4Header,
    Packet,
    frame_packet,
    parse_frame,
    parse_ipv4_header,
    serialize_ipv4_header,
    verify_ipv4_checksum,
)

from transit6.codec import IPV6_HEADER_LEN, PROTO_IPV6_IN_IPV4, FrameKind, Ipv4Address, Ipv6Address
from transit6.simcore import (
    DropReason,
    ForwardAction,
    ForwardResult,
    Node,
    NodeKind,
    Role,
    node_v4_addresses,
    node_v6_addresses,
)
from transit6.transition import (
    BadChecksumError,
    InvalidInnerError,
    NoEndpointError,
    NotTunneledError,
    PathKind,
    TunnelKind,
    dual_stack_dispatch,
    resolve_tunnel_endpoint,
)

_V6_UNSPECIFIED = Ipv6Address(bytes(16))
_V6_LOOPBACK = Ipv6Address(bytes(15) + b"\x01")


def _with_checksum(h: Ipv4Header) -> Ipv4Header:
    """``h`` with the checksum its other fields need on the wire."""
    return parse_ipv4_header(serialize_ipv4_header(h, recompute_checksum=True))


def reference_encapsulate(inner: Packet, src_v4: Ipv4Address, dst_v4: Ipv4Address, ttl: int) -> Packet:
    """Wrap a native IPv6 packet in a minimal IPv4 header with protocol 41."""
    if inner.frame_kind is not FrameKind.V6 or inner.v6 is None:
        raise InvalidInnerError(f"can only encapsulate native V6 frames, got {inner.frame_kind}")
    outer = Ipv4Header(
        src=src_v4,
        dst=dst_v4,
        total_length=20 + IPV6_HEADER_LEN + len(inner.payload),
        ttl=ttl,
        protocol=PROTO_IPV6_IN_IPV4,
    )
    return Packet(
        FrameKind.V6_IN_V4, outer_v4=_with_checksum(outer), v6=inner.v6, payload=inner.payload
    )


def reference_decapsulate(p: Packet) -> Packet:
    """Strip the outer IPv4 header from a 6in4 packet, checking it first."""
    if p.frame_kind is not FrameKind.V6_IN_V4 or p.outer_v4 is None or p.v6 is None:
        raise NotTunneledError(f"frame kind {p.frame_kind} is not an encapsulation")
    if p.outer_v4.protocol != PROTO_IPV6_IN_IPV4:
        raise NotTunneledError(f"outer protocol {p.outer_v4.protocol} is not 41")
    if not verify_ipv4_checksum(serialize_ipv4_header(p.outer_v4)):
        raise BadChecksumError("outer IPv4 checksum does not verify")
    expect = p.outer_v4.header_len() + IPV6_HEADER_LEN + len(p.payload)
    if p.outer_v4.total_length != expect:
        raise NotTunneledError(f"outer total_length {p.outer_v4.total_length}, expected {expect}")
    return Packet(FrameKind.V6, v6=p.v6, payload=p.payload)


def reference_route(routes, dst: Union[Ipv4Address, Ipv6Address]):
    """Longest match by scanning every entry; the first wins equal lengths."""
    width = 32 if isinstance(dst, Ipv4Address) else 128
    best = None
    for entry in routes:
        shift = width - entry.prefix.length
        if dst.to_int() >> shift == entry.prefix.address.to_int() >> shift:
            if best is None or entry.prefix.length > best.prefix.length:
                best = entry
    return best


def _drop(reason: DropReason) -> ForwardResult:
    return ForwardResult(ForwardAction.DROP, drop_reason=reason)


def reference_forward(node: Node, frame: bytes, in_if: Optional[str]) -> ForwardResult:
    """What ``node`` does with ``frame``, decided on decoded headers."""
    path = dual_stack_dispatch(frame)
    if path is PathKind.V4_PATH and node.kind is NodeKind.IPV6_ONLY:
        return _drop(DropReason.WRONG_FAMILY)
    if path is PathKind.V6_PATH and node.kind is NodeKind.IPV4_ONLY:
        return _drop(DropReason.WRONG_FAMILY)

    p = parse_frame(frame)
    v4_addresses = node_v4_addresses(node)

    if p.frame_kind is FrameKind.V6_IN_V4 and p.outer_v4.dst in v4_addresses:
        inner = reference_decapsulate(p)
        return reference_forward(node, frame_packet(inner), in_if)
    if p.frame_kind is FrameKind.V4 and p.outer_v4.dst in v4_addresses:
        return ForwardResult(ForwardAction.DELIVER, frame=frame_packet(p))
    if p.frame_kind is FrameKind.V6 and p.v6.dst in node_v6_addresses(node):
        return ForwardResult(ForwardAction.DELIVER, frame=frame_packet(p))

    if node.role is Role.HOST and in_if is not None:
        return _drop(DropReason.HOST_NOT_ROUTER)

    if in_if is not None:
        if p.frame_kind is FrameKind.V6:
            if p.v6.hop_limit <= 1:
                return _drop(DropReason.TTL_EXPIRED)
            p = replace(p, v6=replace(p.v6, hop_limit=p.v6.hop_limit - 1))
        else:
            if p.outer_v4.ttl <= 1:
                return _drop(DropReason.TTL_EXPIRED)
            h = replace(p.outer_v4, ttl=p.outer_v4.ttl - 1)
            p = replace(p, outer_v4=_with_checksum(h))

    if p.frame_kind is FrameKind.V6:
        dst: Union[Ipv4Address, Ipv6Address] = p.v6.dst
        entry = reference_route(node.v6_routes, dst)
    else:
        dst = p.outer_v4.dst
        entry = reference_route(node.v4_routes, dst)
    if entry is None:
        return _drop(DropReason.NO_ROUTE)

    if entry.out_if in node.tunnels:
        cfg = node.tunnels[entry.out_if]
        if cfg.kind is TunnelKind.AUTOMATIC_COMPATIBLE and dst in (_V6_UNSPECIFIED, _V6_LOOPBACK):
            return _drop(DropReason.NO_ENDPOINT)
        try:
            remote = resolve_tunnel_endpoint(cfg, dst)
        except NoEndpointError:
            return _drop(DropReason.NO_ENDPOINT)
        if remote in v4_addresses:
            return _drop(DropReason.TUNNEL_LOOP)
        encapsulated = reference_encapsulate(p, cfg.local_v4, remote, ttl=p.v6.hop_limit)
        return reference_forward(node, frame_packet(encapsulated), None)

    return ForwardResult(ForwardAction.FORWARD, out_if=entry.out_if, frame=frame_packet(p))
