"""Transition mechanisms: 6in4 encapsulation and dual-stack dispatch.

These are the two mechanisms of RFC 4213. Encapsulation wraps a native IPv6
frame in an IPv4 header with protocol 41 so it can cross IPv4-only
infrastructure; decapsulation strips that header after checking it. Both take
and return wire bytes, since forwarding works on the frames themselves.
Dispatch picks the protocol path a dual-stack node uses, from the version
nibble of the first byte alone.

A tunnel finds its remote IPv4 endpoint in one of two ways: a configured
tunnel fixes it, and a 6to4 tunnel reads it from a ``2002::/16``
destination. RFC 4213 keeps configured tunnelling only; 6to4 is RFC 3056.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .addressing import Not6to4Error, extract_6to4_ipv4
from .codec import (
    IPV4_HEADER_LEN,
    IPV6_HEADER_LEN,
    PROTO_IPV6_IN_IPV4,
    Ipv4Address,
    Ipv6Address,
    TooShortError,
    check_frame,
    internet_checksum,
    ipv4_header,
)


class TransitionError(ValueError):
    """Base class for tunneling errors."""


class InvalidInnerError(TransitionError):
    """Only native IPv6 frames can be encapsulated."""


class NotTunneledError(TransitionError):
    """Frame is not an IPv6-in-IPv4 encapsulation."""


class BadChecksumError(TransitionError):
    """Outer IPv4 header fails checksum verification."""


class UnknownVersionError(TransitionError):
    """First nibble is neither 4 nor 6."""


class NoEndpointError(TransitionError):
    """No IPv4 tunnel endpoint can be determined for the destination."""


class BadConfigError(TransitionError):
    """Tunnel configuration violates its own rules."""


class TunnelKind(Enum):
    CONFIGURED = "configured"
    AUTO_6TO4 = "6to4"


@dataclass(frozen=True)
class TunnelConfig:
    """One tunnel interface on a dual-stack node.

    Configured tunnels know both IPv4 endpoints up front. 6to4 tunnels
    derive the remote endpoint per packet from the destination address, so
    they must not carry a fixed remote.
    """

    kind: TunnelKind
    local_v4: Ipv4Address
    remote_v4: Optional[Ipv4Address] = None
    tunnel_if_addr: Optional[Ipv6Address] = None

    def __post_init__(self) -> None:
        if self.kind is TunnelKind.CONFIGURED and self.remote_v4 is None:
            raise BadConfigError("configured tunnel needs remote_v4")
        if self.kind is not TunnelKind.CONFIGURED and self.remote_v4 is not None:
            raise BadConfigError(f"{self.kind.value} tunnel derives its remote, drop remote_v4")


class PathKind(Enum):
    V4_PATH = "v4"
    V6_PATH = "v6"


def dual_stack_dispatch(frame: bytes) -> PathKind:
    """Pick the protocol path from the version nibble of the first byte."""
    if not frame:
        raise TooShortError("empty frame")
    version = frame[0] >> 4
    if version == 4:
        return PathKind.V4_PATH
    if version == 6:
        return PathKind.V6_PATH
    raise UnknownVersionError(f"version nibble {version} is neither 4 nor 6")


def encapsulate_6in4(inner: bytes, src_v4: Ipv4Address, dst_v4: Ipv4Address, ttl: int) -> bytes:
    """Wrap a native IPv6 frame in an IPv4 header with protocol 41.

    The outer header is minimal (ihl 5, no options, identification and flags
    zero), carries the given ttl, and gets a valid checksum (RFC 4213 3.5).
    Encapsulation adds exactly 20 bytes in front of the frame, which is not
    touched. ``inner`` must be a well-formed IPv6 frame; one whose outer
    total_length would not fit in 16 bits, or a ttl outside 0..255, raises
    InvalidHeaderError.
    """
    if not inner or inner[0] >> 4 != 6:
        raise InvalidInnerError("can only encapsulate native IPv6 frames")
    check_frame(inner)
    total_length = IPV4_HEADER_LEN + len(inner)
    return ipv4_header(src_v4, dst_v4, total_length, ttl, PROTO_IPV6_IN_IPV4) + inner


def decapsulate_6in4(frame: bytes) -> bytes:
    """Strip the outer IPv4 header from a 6in4 frame, checking it first.

    The frame must be IPv4 with protocol 41 and its outer checksum must
    verify. The outer total_length must cover exactly the frame, and what
    follows the ``ihl * 4`` header bytes must be a well-formed IPv6 frame,
    which is returned.
    """
    n = len(frame)
    if n < IPV4_HEADER_LEN or frame[0] >> 4 != 4 or frame[9] != PROTO_IPV6_IN_IPV4:
        raise NotTunneledError("frame is not IPv4 with protocol 41")
    hlen = (frame[0] & 0x0F) * 4
    if not IPV4_HEADER_LEN <= hlen <= n:
        raise NotTunneledError(f"outer header of {hlen} bytes does not fit a {n}-byte frame")
    # A header whose checksum field is right sums to 0 with it.
    if internet_checksum(frame[:hlen]):
        raise BadChecksumError("outer IPv4 checksum does not verify")
    total_length = frame[2] << 8 | frame[3]
    if total_length != n:
        raise NotTunneledError(f"outer total_length {total_length}, expected {n}")
    inner = frame[hlen:]
    if (
        len(inner) < IPV6_HEADER_LEN
        or inner[0] >> 4 != 6
        or (inner[4] << 8 | inner[5]) != len(inner) - IPV6_HEADER_LEN
    ):
        raise NotTunneledError("outer header does not carry a well-formed IPv6 frame")
    return inner


def resolve_tunnel_endpoint(cfg: TunnelConfig, dst: Ipv6Address) -> Ipv4Address:
    """IPv4 address the outer header should be sent to for ``dst``."""
    if cfg.kind is TunnelKind.CONFIGURED:
        assert cfg.remote_v4 is not None
        return cfg.remote_v4
    try:
        return extract_6to4_ipv4(dst)
    except Not6to4Error as exc:
        raise NoEndpointError(str(exc)) from None

