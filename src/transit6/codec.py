"""Wire-format primitives for the IPv4 and IPv6 frames the simulator moves.

Everything here is bit-exact and big-endian (network byte order), and frames
are plain ``bytes``: the program builds and reads them by offset, with no
header objects. This module holds the address types, the classic Internet
checksum (the 16-bit one's complement of the one's-complement sum of the
header taken in 16-bit words), ``ipv4_header`` for the minimal headers the
program emits, and ``check_frame``, every structural check a frame must
pass. The header objects (``Ipv4Header``, ``Ipv6Header``, ``Packet``) and
their codec (``frame_packet``, ``parse_frame``) are in
``tests/codec_oracle.py``, the reference the bytes are checked against.
"""

from __future__ import annotations

import ipaddress
import socket
import struct
from dataclasses import dataclass
from enum import Enum

IPV4_HEADER_LEN = 20
IPV6_HEADER_LEN = 40

# IANA protocol number for IPv6 carried inside IPv4 (6in4 encapsulation).
PROTO_IPV6_IN_IPV4 = 41


class CodecError(ValueError):
    """Base class for malformed wire data or inconsistent header fields."""


class TooShortError(CodecError):
    """Buffer ends before the header it claims to hold."""


class BadVersionError(CodecError):
    """Version nibble does not match the expected IP family."""


class BadIhlError(CodecError):
    """IPv4 header-length field below the legal minimum of 5 words."""


class InvalidHeaderError(CodecError):
    """Header fields out of range or inconsistent with each other."""


class LengthMismatchError(CodecError):
    """Declared lengths disagree with the actual byte counts."""


_V4_TEXT_CHARS = "0123456789."


@dataclass(frozen=True, order=True, slots=True)
class Ipv4Address:
    """An IPv4 address held as its four raw octets."""

    octets: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.octets, bytes) or len(self.octets) != 4:
            raise InvalidHeaderError("Ipv4Address needs exactly 4 octets")

    @classmethod
    def parse(cls, text: str) -> "Ipv4Address":
        stripped = text.strip()
        # Only text of ASCII digits and '.' reaches inet_pton, which would
        # raise ValueError on NUL. On that alphabet it rejects leading zeros,
        # octets over 255 and a part count other than 4, as ipaddress does
        # (tests/test_codec.py checks it on the platform it runs on).
        if not stripped.strip(_V4_TEXT_CHARS):
            try:
                return cls(socket.inet_pton(socket.AF_INET, stripped))
            except OSError:
                pass
        raise ValueError(f"bad IPv4 address {text!r}")

    def to_int(self) -> int:
        return int.from_bytes(self.octets, "big")

    def __str__(self) -> str:
        return ".".join(str(b) for b in self.octets)


_V6_TEXT_CHARS = "0123456789abcdefABCDEF:."


@dataclass(frozen=True, order=True, slots=True)
class Ipv6Address:
    """An IPv6 address held as its sixteen raw octets.

    Text form is the canonical lowercase compressed notation (longest run of
    zero groups collapsed to ``::``, leftmost run on a tie, single zero groups
    left alone). Parsing accepts compressed and uncompressed forms.
    """

    octets: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.octets, bytes) or len(self.octets) != 16:
            raise InvalidHeaderError("Ipv6Address needs exactly 16 octets")

    @classmethod
    def parse(cls, text: str) -> "Ipv6Address":
        stripped = text.strip()
        # inet_pton is the fast path, but only for text of ASCII hex digits,
        # ':' and '.'; on that alphabet glibc's inet_pton and ipaddress agree
        # (assumed of other C libraries; tests/test_codec.py checks it on the
        # platform it runs on). All
        # other text, and whatever inet_pton rejects, goes to ipaddress: it
        # also takes a scope id (fe80::1%eth0), and it says what is wrong.
        if not stripped.strip(_V6_TEXT_CHARS):
            try:
                return cls(socket.inet_pton(socket.AF_INET6, stripped))
            except OSError:
                pass
        try:
            return cls(ipaddress.IPv6Address(stripped).packed)
        except ipaddress.AddressValueError as exc:
            raise ValueError(f"bad IPv6 address {text!r}: {exc}") from None

    def to_int(self) -> int:
        return int.from_bytes(self.octets, "big")

    def __str__(self) -> str:
        return ipaddress.IPv6Address(self.octets).compressed


def internet_checksum(data: bytes) -> int:
    """One's-complement 16-bit checksum over ``data`` (odd tail zero-padded)."""
    if len(data) % 2:
        data = data + b"\x00"  # a copy: += would pad a caller's bytearray in place
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


# The IPv4 header without options (RFC 791 section 3.1): ver/ihl, dscp/ecn,
# total length | id, flags/frag | ttl, proto, checksum | src | dst.
_IPV4_HEADER = struct.Struct("!BBHHHBBH4s4s")


def ipv4_header(
    src: Ipv4Address, dst: Ipv4Address, total_length: int, ttl: int, protocol: int
) -> bytes:
    """A 20-byte IPv4 header with a valid checksum.

    It is minimal: ihl 5, no options, and dscp/ecn, identification, flags
    and fragment offset zero. A ``total_length`` or ``ttl`` that does not fit
    its field raises InvalidHeaderError.
    """
    if not IPV4_HEADER_LEN <= total_length <= 0xFFFF:
        raise InvalidHeaderError(f"total_length out of range: {total_length}")
    if not 0 <= ttl <= 0xFF:
        raise InvalidHeaderError(f"ttl out of range: {ttl}")
    fields = (0x45, 0, total_length, 0, 0, ttl, protocol)
    checksum = internet_checksum(_IPV4_HEADER.pack(*fields, 0, src.octets, dst.octets))
    return _IPV4_HEADER.pack(*fields, checksum, src.octets, dst.octets)


class FrameKind(Enum):
    V4 = "v4"
    V6 = "v6"
    V6_IN_V4 = "v6-in-v4"


def check_frame(data: bytes) -> FrameKind:
    """Run every structural check a whole frame must pass; return its kind.

    Versions, the IPv4 header length and the declared lengths (outer
    total_length, IPv6 payload_length) must match the bytes, or a CodecError
    subclass is raised. A 6in4 frame is one of outer protocol 41. Fields
    that need no check (addresses, ttl, checksum) are not read.
    """
    n = len(data)
    if n < 1:
        raise TooShortError("empty buffer")
    version = data[0] >> 4
    if version == 6:
        _check_ipv6_frame(data, 0)
        return FrameKind.V6
    if version != 4:
        raise BadVersionError(f"unknown IP version nibble {version}")
    ihl = data[0] & 0x0F
    if ihl < 5:
        raise BadIhlError(f"ihl {ihl} below minimum 5")
    hlen = ihl * 4
    if n < hlen:
        raise TooShortError(f"need {hlen} header bytes, have {n}")
    total_length = data[2] << 8 | data[3]
    if n != total_length:
        raise LengthMismatchError(f"buffer {n} bytes, outer total_length {total_length}")
    if data[9] != PROTO_IPV6_IN_IPV4:
        return FrameKind.V4
    if n == hlen:
        raise TooShortError("empty buffer")
    inner_version = data[hlen] >> 4
    if inner_version != 6:
        raise BadVersionError(f"expected version 6, got {inner_version}")
    _check_ipv6_frame(data, hlen, "inner ")
    return FrameKind.V6_IN_V4


def _check_ipv6_frame(data: bytes, start: int, label: str = "") -> None:
    """Length checks for the IPv6 frame at ``data[start:]`` (version checked)."""
    n = len(data) - start
    if n < IPV6_HEADER_LEN:
        raise TooShortError(f"need {IPV6_HEADER_LEN} header bytes, have {n}")
    payload_length = data[start + 4] << 8 | data[start + 5]
    if payload_length != n - IPV6_HEADER_LEN:
        raise LengthMismatchError(
            f"{label}payload_length {payload_length} != payload {n - IPV6_HEADER_LEN}"
        )
