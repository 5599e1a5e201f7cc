"""Routing prefixes and the address derivations of the tunneling mechanisms.

The derivations embed an IPv4 address into well-known IPv6 layouts:

* 6to4: ``2002::/16`` followed by the 32-bit IPv4 address, giving a /48 site
  prefix (bits 16..47 carry the IPv4 address).
* IPv4-compatible: 96 zero bits followed by the IPv4 address (``::a.b.c.d``).

Each embedding has an exact inverse, used by automatic tunnels to recover the
IPv4 tunnel endpoint from a destination address.
"""

from __future__ import annotations

import re
import socket
from dataclasses import dataclass, field

from .codec import _V4_TEXT_CHARS, _V6_TEXT_CHARS, Ipv4Address, Ipv6Address

SIX_TO_FOUR_PREFIX_BYTES = bytes((0x20, 0x02))


class AddressingError(ValueError):
    """Base class for derivation and prefix errors."""


class Not6to4Error(AddressingError):
    """Address does not start with the 2002::/16 prefix."""


class NotCompatibleError(AddressingError):
    """Address does not have 96 zero bits in front."""


class FamilyMismatchError(AddressingError):
    """Prefix and address belong to different IP families."""


@dataclass(frozen=True, slots=True)
class Ipv4Prefix:
    """An IPv4 routing prefix. Bits past ``length`` must be zero."""

    address: Ipv4Address
    length: int
    # The top ``length`` bits of the address as an int, so ``route_lookup``
    # converts only the address being looked up.
    network: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "network", _network(self.address, self.length, 32, "IPv4"))

    @classmethod
    def parse(cls, text: str) -> "Ipv4Prefix":
        """Read ``addr/len`` text.

        Text that is exactly address characters (``codec``'s alphabet), a '/'
        and one to three ASCII digits takes a fast path if its address,
        length and host bits pass. All other text takes the checked path,
        which alone raises: AddressingError, or the address parser's
        ValueError.
        """
        return _parse_ipv4_prefix(text)

    def __str__(self) -> str:
        return f"{self.address}/{self.length}"


@dataclass(frozen=True, slots=True)
class Ipv6Prefix:
    """An IPv6 routing prefix. Bits past ``length`` must be zero."""

    address: Ipv6Address
    length: int
    # As for Ipv4Prefix.network.
    network: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "network", _network(self.address, self.length, 128, "IPv6"))

    @classmethod
    def parse(cls, text: str) -> "Ipv6Prefix":
        """As Ipv4Prefix.parse; a scope id (``fe80::1%eth0``) ends the fast
        path too."""
        return _parse_ipv6_prefix(text)

    def __str__(self) -> str:
        return f"{self.address}/{self.length}"


def _network(address: Ipv4Address | Ipv6Address, length: int, width: int, family: str) -> int:
    """The top ``length`` of ``width`` bits of ``address`` as an int.

    Raises when ``length`` is out of range or a bit past it is set.
    """
    if not 0 <= length <= width:
        raise AddressingError(f"{family} prefix length out of range: {length}")
    value = int.from_bytes(address.octets, "big")
    network = value >> (width - length)
    if network << (width - length) != value:
        raise AddressingError(f"host bits set below /{length}: {address}")
    return network


def _split_prefix(text: str) -> tuple[str, int]:
    addr, sep, length = text.strip().partition("/")
    # isdigit alone would take non-ASCII digits such as '\u0663'. The address
    # parsers strip their text, so whitespace before the '/' is refused here.
    if not sep or addr[-1:].isspace() or not (length.isascii() and length.isdigit()):
        raise AddressingError(f"prefix must look like addr/len: {text!r}")
    return addr, int(length)


def _prefix_parser(prefix_cls, address_cls, address_family: int, width: int, chars: str):
    """The ``parse`` of one prefix family, both paths of it.

    The fast path matches the whole text once, calls ``inet_pton`` on the
    address as the address parser would, and makes ``_network``'s length and
    host-bit checks on the int. It then sets the slots of the address and the
    prefix without ``__init__``, so it returns only what the checked path
    would. Text it does not match, or that fails a call or a check, goes to
    the checked path unchanged, so every message stays the same.
    """
    fullmatch = re.compile(f"([{re.escape(chars)}]+)/([0-9]{{1,3}})").fullmatch
    new = object.__new__
    set_octets = address_cls.octets.__set__
    set_address = prefix_cls.address.__set__
    set_length = prefix_cls.length.__set__
    set_network = prefix_cls.network.__set__

    def parse(text: str):
        match = fullmatch(text)
        if match is not None:
            addr, length = match.groups()
            try:
                octets = socket.inet_pton(address_family, addr)
            except OSError:
                pass
            else:
                length = int(length)
                shift = width - length
                value = int.from_bytes(octets, "big")
                if shift >= 0 and (value >> shift) << shift == value:
                    address = new(address_cls)
                    set_octets(address, octets)
                    prefix = new(prefix_cls)
                    set_address(prefix, address)
                    set_length(prefix, length)
                    set_network(prefix, value >> shift)
                    return prefix
        addr, length = _split_prefix(text)
        return prefix_cls(address_cls.parse(addr), length)

    return parse


_parse_ipv4_prefix = _prefix_parser(Ipv4Prefix, Ipv4Address, socket.AF_INET, 32, _V4_TEXT_CHARS)
_parse_ipv6_prefix = _prefix_parser(Ipv6Prefix, Ipv6Address, socket.AF_INET6, 128, _V6_TEXT_CHARS)


def derive_6to4_prefix(v4: Ipv4Address) -> Ipv6Prefix:
    """Site /48 prefix for a 6to4 router numbered ``v4``."""
    return Ipv6Prefix(Ipv6Address(SIX_TO_FOUR_PREFIX_BYTES + v4.octets + bytes(10)), 48)


def extract_6to4_ipv4(addr: Ipv6Address) -> Ipv4Address:
    """Recover the embedded IPv4 address from a 6to4 address."""
    if addr.octets[:2] != SIX_TO_FOUR_PREFIX_BYTES:
        raise Not6to4Error(f"{addr} is not under 2002::/16")
    return Ipv4Address(addr.octets[2:6])


def make_ipv4_compatible(v4: Ipv4Address) -> Ipv6Address:
    """IPv4-compatible IPv6 address: 96 zero bits then the IPv4 address."""
    return Ipv6Address(bytes(12) + v4.octets)


def extract_compatible_ipv4(addr: Ipv6Address) -> Ipv4Address:
    """Recover the IPv4 address from an IPv4-compatible IPv6 address."""
    if addr.octets[:12] != bytes(12):
        raise NotCompatibleError(f"{addr} does not embed an IPv4 address under ::/96")
    return Ipv4Address(addr.octets[12:])
