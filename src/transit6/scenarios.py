"""Built-in scenarios: a 6in4 tunnel across an IPv4-only ISP, and dual stack.

Both scenarios share one shape: two IPv6-only hosts, two dual-stack edge
routers, and a middle router standing in for the ISP. In the tunnel scenario
the middle router speaks only IPv4 and the edge routers carry IPv6 through a
tunnel between their IPv4 addresses; in the dual-stack scenario the middle
router forwards IPv6 natively. Link identifiers match between the two so
per-link measurements can be compared directly.

The builders below are the only source of both scenarios. The command line
serves its built-ins from them through ``serialize_model``, so a built-in
reads exactly like the scenario file a user would write for it.
"""

from __future__ import annotations

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


def _v4_routes_r1() -> list[RouteEntry4]:
    return [
        RouteEntry4(Ipv4Prefix.parse("10.10.12.0/24"), "fa0"),
        RouteEntry4(Ipv4Prefix.parse("10.10.23.0/24"), "fa0"),
    ]


def _v4_routes_r2() -> list[RouteEntry4]:
    return [
        RouteEntry4(Ipv4Prefix.parse("10.10.12.0/24"), "fa0"),
        RouteEntry4(Ipv4Prefix.parse("10.10.23.0/24"), "fa1"),
    ]


def _v4_routes_r3() -> list[RouteEntry4]:
    return [
        RouteEntry4(Ipv4Prefix.parse("10.10.23.0/24"), "fa0"),
        RouteEntry4(Ipv4Prefix.parse("10.10.12.0/24"), "fa0"),
    ]


def _links(bandwidth: float, propagation_delay: float, mtu: int) -> list[Link]:
    def link(link_id: str, a: tuple[str, str], b: tuple[str, str]) -> Link:
        return Link(link_id, a, b, bandwidth=bandwidth, propagation_delay=propagation_delay, mtu=mtu)

    return [
        link("h1-r1", ("H1", "eth0"), ("R1", "eth0")),
        link("r1-r2", ("R1", "fa0"), ("R2", "fa0")),
        link("r2-r3", ("R2", "fa1"), ("R3", "fa0")),
        link("r3-h2", ("R3", "eth0"), ("H2", "eth0")),
    ]


def _host(node_id: str, addr: str) -> Node:
    return Node(
        id=node_id,
        kind=NodeKind.IPV6_ONLY,
        role=Role.HOST,
        interfaces=[Interface("eth0", v6=[Ipv6Address.parse(addr)])],
        v6_routes=[RouteEntry6(Ipv6Prefix.parse("::/0"), "eth0")],
        processing_delay=0.0,
    )


def _flow(payload_bytes: int, count: int, gap: float, hop_limit: int) -> TrafficSpec:
    return TrafficSpec(
        flow_id="h1-to-h2",
        src="H1",
        dst="H2",
        payload_bytes=payload_bytes,
        count=count,
        gap=gap,
        start=0.0,
        family="v6",
        hop_limit=hop_limit,
        jitter=0.0,
    )


def build_scenario_6to4(
    tunnel_kind: TunnelKind = TunnelKind.CONFIGURED,
    with_tunnel: bool = True,
    bandwidth: float = 100e6,
    propagation_delay: float = 1e-3,
    mtu: int = 1500,
    processing_delay: float = 50e-6,
    payload_bytes: int = 1000,
    count: int = 10,
    gap: float = 1e-3,
    hop_limit: int = 64,
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
        h1_addr = str(p1.address) + "3"
        h2_addr = str(p3.address) + "4"
        r1_lan_addr = str(p1.address) + "1"
        r3_lan_addr = str(p3.address) + "1"
        r1_routes = [
            RouteEntry6(p1, "eth0"),
            RouteEntry6(Ipv6Prefix.parse("2002::/16"), "tun0"),
        ]
        r3_routes = [
            RouteEntry6(p3, "eth0"),
            RouteEntry6(Ipv6Prefix.parse("2002::/16"), "tun0"),
        ]
        r1_tunnel = TunnelConfig(TunnelKind.AUTO_6TO4, V4_R1, tunnel_if_addr=Ipv6Address.parse("2001::7"))
        r3_tunnel = TunnelConfig(TunnelKind.AUTO_6TO4, V4_R3, tunnel_if_addr=Ipv6Address.parse("2001::8"))
    elif tunnel_kind is TunnelKind.CONFIGURED:
        h1_addr, h2_addr = "2001::3", "2001::4"
        r1_lan_addr, r3_lan_addr = "2001::1", "2001::2"
        r1_routes = [
            RouteEntry6(Ipv6Prefix.parse("2001::3/128"), "eth0"),
            RouteEntry6(Ipv6Prefix.parse("2001::4/128"), "tun0"),
        ]
        r3_routes = [
            RouteEntry6(Ipv6Prefix.parse("2001::4/128"), "eth0"),
            RouteEntry6(Ipv6Prefix.parse("2001::3/128"), "tun0"),
        ]
        r1_tunnel = TunnelConfig(
            TunnelKind.CONFIGURED, V4_R1, remote_v4=V4_R3, tunnel_if_addr=Ipv6Address.parse("2001::7")
        )
        r3_tunnel = TunnelConfig(
            TunnelKind.CONFIGURED, V4_R3, remote_v4=V4_R1, tunnel_if_addr=Ipv6Address.parse("2001::8")
        )
    else:
        raise ValueError(f"unsupported tunnel kind for this scenario: {tunnel_kind}")

    if not with_tunnel:
        # Point IPv6 at the IPv4-only middle instead of into a tunnel.
        r1_routes = [r1_routes[0]] + [
            RouteEntry6(e.prefix, "fa0") for e in r1_routes[1:]
        ]
        r3_routes = [r3_routes[0]] + [
            RouteEntry6(e.prefix, "fa0") for e in r3_routes[1:]
        ]

    r1 = Node(
        id="R1",
        kind=NodeKind.DUAL_STACK,
        role=Role.ROUTER,
        interfaces=[
            Interface("eth0", v6=[Ipv6Address.parse(r1_lan_addr)]),
            Interface("fa0", v4=V4_R1),
        ],
        v4_routes=_v4_routes_r1(),
        v6_routes=r1_routes,
        tunnels={"tun0": r1_tunnel} if with_tunnel else {},
        processing_delay=processing_delay,
    )
    r2 = Node(
        id="R2",
        kind=NodeKind.IPV4_ONLY,
        role=Role.ROUTER,
        interfaces=[Interface("fa0", v4=V4_R2_LEFT), Interface("fa1", v4=V4_R2_RIGHT)],
        v4_routes=_v4_routes_r2(),
        processing_delay=processing_delay,
    )
    r3 = Node(
        id="R3",
        kind=NodeKind.DUAL_STACK,
        role=Role.ROUTER,
        interfaces=[
            Interface("fa0", v4=V4_R3),
            Interface("eth0", v6=[Ipv6Address.parse(r3_lan_addr)]),
        ],
        v4_routes=_v4_routes_r3(),
        v6_routes=r3_routes,
        tunnels={"tun0": r3_tunnel} if with_tunnel else {},
        processing_delay=processing_delay,
    )
    topology = Topology(
        nodes=[_host("H1", h1_addr), r1, r2, r3, _host("H2", h2_addr)],
        links=_links(bandwidth, propagation_delay, mtu),
    )
    return Scenario(
        name="6to4",
        topology=topology,
        traffic=[_flow(payload_bytes, count, gap, hop_limit)],
    )


def build_scenario_dualstack(
    bandwidth: float = 100e6,
    propagation_delay: float = 1e-3,
    mtu: int = 1500,
    processing_delay: float = 50e-6,
    payload_bytes: int = 1000,
    count: int = 10,
    gap: float = 1e-3,
    hop_limit: int = 64,
) -> Scenario:
    """Dual-stack scenario: the same topology with native IPv6 end to end."""
    r1 = Node(
        id="R1",
        kind=NodeKind.DUAL_STACK,
        role=Role.ROUTER,
        interfaces=[
            Interface("eth0", v6=[Ipv6Address.parse("2001::1")]),
            Interface("fa0", v4=V4_R1),
        ],
        v4_routes=_v4_routes_r1(),
        v6_routes=[
            RouteEntry6(Ipv6Prefix.parse("2001::3/128"), "eth0"),
            RouteEntry6(Ipv6Prefix.parse("2001::4/128"), "fa0"),
        ],
        processing_delay=processing_delay,
    )
    r2 = Node(
        id="R2",
        kind=NodeKind.DUAL_STACK,
        role=Role.ROUTER,
        interfaces=[Interface("fa0", v4=V4_R2_LEFT), Interface("fa1", v4=V4_R2_RIGHT)],
        v4_routes=_v4_routes_r2(),
        v6_routes=[
            RouteEntry6(Ipv6Prefix.parse("2001::3/128"), "fa0"),
            RouteEntry6(Ipv6Prefix.parse("2001::4/128"), "fa1"),
        ],
        processing_delay=processing_delay,
    )
    r3 = Node(
        id="R3",
        kind=NodeKind.DUAL_STACK,
        role=Role.ROUTER,
        interfaces=[
            Interface("fa0", v4=V4_R3),
            Interface("eth0", v6=[Ipv6Address.parse("2001::2")]),
        ],
        v4_routes=_v4_routes_r3(),
        v6_routes=[
            RouteEntry6(Ipv6Prefix.parse("2001::4/128"), "eth0"),
            RouteEntry6(Ipv6Prefix.parse("2001::3/128"), "fa0"),
        ],
        processing_delay=processing_delay,
    )
    topology = Topology(
        nodes=[_host("H1", "2001::3"), r1, r2, r3, _host("H2", "2001::4")],
        links=_links(bandwidth, propagation_delay, mtu),
    )
    return Scenario(
        name="dualstack",
        topology=topology,
        traffic=[_flow(payload_bytes, count, gap, hop_limit)],
    )
