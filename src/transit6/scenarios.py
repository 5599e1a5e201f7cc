"""Built-in scenarios: a 6in4 tunnel across an IPv4-only ISP, and dual stack.

Both are one five-node chain, H1 - R1 - R2 - R3 - H2, built once by
``_chain``: two IPv6-only hosts, two dual-stack edge routers, and a middle
router R2 standing in for the ISP. Each builder picks only what differs: the
host and LAN addresses, the routers' IPv6 routes, and the tunnels. In the
tunnel scenario R2 speaks only IPv4 and the edge routers carry IPv6 through a
tunnel between their IPv4 addresses; in the dual-stack scenario R2 forwards
IPv6 natively. Link identifiers are the same in both, so per-link
measurements can be compared directly.

The builders are the only source of both scenarios. The command line serves
its built-ins from them through ``serialize_model``, so a built-in reads
exactly like the scenario file a user would write for it.
"""

from __future__ import annotations

from typing import Optional

from .addressing import Ipv4Prefix, Ipv6Prefix, derive_6to4_prefix
from .codec import Ipv4Address, Ipv6Address
from .simcore import (
    Interface,
    Link,
    Node,
    NodeKind,
    Role,
    RouteEntry4,
    RouteEntry6,
    Scenario,
    Topology,
    TrafficSpec,
)
from .transition import TunnelConfig, TunnelKind

V4_R1 = Ipv4Address.parse("10.10.12.1")
V4_R2_LEFT = Ipv4Address.parse("10.10.12.2")
V4_R2_RIGHT = Ipv4Address.parse("10.10.23.2")
V4_R3 = Ipv4Address.parse("10.10.23.3")

# H1, H2 and the LAN addresses of R1 and R3 when the hosts sit under 2001::,
# and the host routes that reach H1 and H2 there.
_HOSTS = ("2001::3", "2001::4")
_LANS = ("2001::1", "2001::2")
_HOST_PREFIXES = tuple(Ipv6Prefix.parse(addr + "/128") for addr in _HOSTS)


def _chain(
    name: str,
    hosts: tuple[str, str],
    lans: tuple[str, str],
    v6_routes: tuple[list[RouteEntry6], list[RouteEntry6], list[RouteEntry6]],
    tunnels: tuple[Optional[TunnelConfig], Optional[TunnelConfig]],
    bandwidth: float,
    propagation_delay: float,
    mtu: int,
    processing_delay: float,
    payload_bytes: int,
    count: int,
    gap: float,
    hop_limit: int,
) -> Scenario:
    """H1 - R1 - R2 - R3 - H2 with the given IPv6 addressing and tunnels.

    ``v6_routes`` belong to R1, R2 and R3; R2 is IPv4-only when it has none.
    ``tunnels`` are R1's and R3's ``tun0``, or None for no tunnel.
    """

    def host(node_id: str, addr: str) -> Node:
        return Node(
            id=node_id,
            kind=NodeKind.IPV6_ONLY,
            role=Role.HOST,
            interfaces=[Interface("eth0", v6=[Ipv6Address.parse(addr)])],
            v6_routes=[RouteEntry6(Ipv6Prefix.parse("::/0"), "eth0")],
        )

    def router(node_id, interfaces, v4_routes, v6, tunnel=None) -> Node:
        return Node(
            id=node_id,
            kind=NodeKind.DUAL_STACK if v6 else NodeKind.IPV4_ONLY,
            role=Role.ROUTER,
            interfaces=interfaces,
            v4_routes=[RouteEntry4(Ipv4Prefix.parse(p), out_if) for p, out_if in v4_routes],
            v6_routes=v6,
            tunnels={"tun0": tunnel} if tunnel is not None else {},
            processing_delay=processing_delay,
        )

    def link(link_id: str, a: tuple[str, str], b: tuple[str, str]) -> Link:
        return Link(link_id, a, b, bandwidth=bandwidth, propagation_delay=propagation_delay, mtu=mtu)

    left, right = "10.10.12.0/24", "10.10.23.0/24"
    r1 = router(
        "R1",
        [Interface("eth0", v6=[Ipv6Address.parse(lans[0])]), Interface("fa0", v4=V4_R1)],
        [(left, "fa0"), (right, "fa0")],
        v6_routes[0],
        tunnels[0],
    )
    r2 = router(
        "R2",
        [Interface("fa0", v4=V4_R2_LEFT), Interface("fa1", v4=V4_R2_RIGHT)],
        [(left, "fa0"), (right, "fa1")],
        v6_routes[1],
    )
    r3 = router(
        "R3",
        [Interface("fa0", v4=V4_R3), Interface("eth0", v6=[Ipv6Address.parse(lans[1])])],
        [(right, "fa0"), (left, "fa0")],
        v6_routes[2],
        tunnels[1],
    )
    topology = Topology(
        nodes=[host("H1", hosts[0]), r1, r2, r3, host("H2", hosts[1])],
        links=[
            link("h1-r1", ("H1", "eth0"), ("R1", "eth0")),
            link("r1-r2", ("R1", "fa0"), ("R2", "fa0")),
            link("r2-r3", ("R2", "fa1"), ("R3", "fa0")),
            link("r3-h2", ("R3", "eth0"), ("H2", "eth0")),
        ],
    )
    flow = TrafficSpec(
        flow_id="h1-to-h2",
        src="H1",
        dst="H2",
        payload_bytes=payload_bytes,
        count=count,
        gap=gap,
        hop_limit=hop_limit,
    )
    return Scenario(name=name, topology=topology, traffic=[flow])


def build_scenario_6to4(
    tunnel_kind: TunnelKind = TunnelKind.CONFIGURED,
    with_tunnel: bool = True,
    bandwidth: float = Link.bandwidth,
    propagation_delay: float = Link.propagation_delay,
    mtu: int = Link.mtu,
    processing_delay: float = 50e-6,
    payload_bytes: int = TrafficSpec.payload_bytes,
    count: int = TrafficSpec.count,
    gap: float = TrafficSpec.gap,
    hop_limit: int = TrafficSpec.hop_limit,
) -> Scenario:
    """Tunnel scenario: IPv6 edges joined across an IPv4-only middle.

    ``tunnel_kind`` picks how the edge routers find each other: CONFIGURED
    pins both IPv4 endpoints; AUTO_6TO4 readdresses the hosts under the edge
    routers' derived 2002::/48 prefixes and extracts the remote endpoint from
    the destination per packet. ``with_tunnel=False`` keeps the topology but
    routes IPv6 straight at the IPv4-only middle router, which cannot carry
    it; nothing arrives, which is the point of that variant.
    """
    if tunnel_kind is TunnelKind.AUTO_6TO4:
        p1 = derive_6to4_prefix(V4_R1)
        p3 = derive_6to4_prefix(V4_R3)
        hosts = (str(p1.address) + "3", str(p3.address) + "4")
        lans = (str(p1.address) + "1", str(p3.address) + "1")
        far1 = far3 = Ipv6Prefix.parse("2002::/16")
        remotes = (None, None)
    else:
        hosts, lans = _HOSTS, _LANS
        p1, p3 = _HOST_PREFIXES
        far1, far3 = p3, p1
        remotes = (V4_R3, V4_R1)

    # Without the tunnel, IPv6 is pointed at the IPv4-only middle instead.
    toward = "tun0" if with_tunnel else "fa0"
    v6_routes = (
        [RouteEntry6(p1, "eth0"), RouteEntry6(far1, toward)],
        [],
        [RouteEntry6(p3, "eth0"), RouteEntry6(far3, toward)],
    )
    tunnels = (None, None)
    if with_tunnel:
        tunnels = (
            TunnelConfig(tunnel_kind, V4_R1, remotes[0], Ipv6Address.parse("2001::7")),
            TunnelConfig(tunnel_kind, V4_R3, remotes[1], Ipv6Address.parse("2001::8")),
        )
    return _chain(
        "6to4", hosts, lans, v6_routes, tunnels,
        bandwidth, propagation_delay, mtu, processing_delay, payload_bytes, count, gap, hop_limit,
    )


def build_scenario_dualstack(
    bandwidth: float = Link.bandwidth,
    propagation_delay: float = Link.propagation_delay,
    mtu: int = Link.mtu,
    processing_delay: float = 50e-6,
    payload_bytes: int = TrafficSpec.payload_bytes,
    count: int = TrafficSpec.count,
    gap: float = TrafficSpec.gap,
    hop_limit: int = TrafficSpec.hop_limit,
) -> Scenario:
    """Dual-stack scenario: the same topology with native IPv6 end to end."""
    h1, h2 = _HOST_PREFIXES
    v6_routes = (
        [RouteEntry6(h1, "eth0"), RouteEntry6(h2, "fa0")],
        [RouteEntry6(h1, "fa0"), RouteEntry6(h2, "fa1")],
        [RouteEntry6(h2, "eth0"), RouteEntry6(h1, "fa0")],
    )
    return _chain(
        "dualstack", _HOSTS, _LANS, v6_routes, (None, None),
        bandwidth, propagation_delay, mtu, processing_delay, payload_bytes, count, gap, hop_limit,
    )
