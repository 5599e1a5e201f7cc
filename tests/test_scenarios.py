import hashlib

import pytest

from transit6.scenario_io import serialize_model
from transit6.scenarios import build_scenario_6to4, build_scenario_dualstack
from transit6.simcore import DropReason, TrafficSpec, run_simulation
from transit6.transition import TunnelKind

LINK_IDS = ("h1-r1", "r1-r2", "r2-r3", "r3-h2")
ISP_LINKS = frozenset({"r1-r2", "r2-r3"})


def closed_form_delay(payload_bytes, tunneled, bandwidth=100e6, prop=1e-3, proc=50e-6):
    """Independent sum over the four links: serialization + propagation per
    link, plus processing at the three routers. Tunneled frames carry 20
    extra bytes on the two ISP-side links."""
    total = 0.0
    for link_id in LINK_IDS:
        wire = payload_bytes + 40 + (20 if tunneled and link_id in ISP_LINKS else 0)
        total += wire * 8 / bandwidth + prop
    return total + 3 * proc


def _run(scenario, **kw):
    return run_simulation(scenario.topology, scenario.traffic, scenario.horizon, **kw)


@pytest.mark.parametrize("payload", [64, 512, 1000])
def test_tunnel_scenario_delay_closed_form(payload):
    records = _run(build_scenario_6to4(payload_bytes=payload))
    assert len(records) == 10
    expected = closed_form_delay(payload, tunneled=True)
    for rec in records:
        assert rec.receive_time is not None, rec
        delay = rec.receive_time - rec.send_time
        assert abs(delay - expected) <= 1e-12 * expected


@pytest.mark.parametrize("payload", [64, 512, 1000])
def test_dualstack_scenario_delay_closed_form(payload):
    records = _run(build_scenario_dualstack(payload_bytes=payload))
    assert len(records) == 10
    expected = closed_form_delay(payload, tunneled=False)
    for rec in records:
        assert rec.receive_time is not None, rec
        delay = rec.receive_time - rec.send_time
        assert abs(delay - expected) <= 1e-12 * expected


def test_tunnel_scenario_wire_sizes_per_hop():
    records = _run(build_scenario_6to4())
    for rec in records:
        assert rec.wire_bytes_per_hop == (
            ("h1-r1", 1040),
            ("r1-r2", 1060),
            ("r2-r3", 1060),
            ("r3-h2", 1040),
        )


def test_dualstack_scenario_wire_sizes_per_hop():
    records = _run(build_scenario_dualstack())
    for rec in records:
        assert rec.wire_bytes_per_hop == tuple((link, 1040) for link in LINK_IDS)


def test_tunnel_beats_no_tunnel_on_reachability():
    # Same topology, tunnel routes pointed straight at the IPv4-only middle:
    # every packet dies, and dies for a typed reason.
    broken = _run(build_scenario_6to4(with_tunnel=False))
    assert all(r.receive_time is None for r in broken)
    reasons = {r.drop_reason for r in broken}
    assert reasons <= {DropReason.WRONG_FAMILY, DropReason.NO_ROUTE}
    assert DropReason.WRONG_FAMILY in reasons

    fixed = _run(build_scenario_6to4())
    assert all(r.receive_time is not None for r in fixed)


def test_auto_6to4_variant_delivers_with_same_timing():
    configured = _run(build_scenario_6to4())
    auto = _run(build_scenario_6to4(tunnel_kind=TunnelKind.AUTO_6TO4))
    assert all(r.receive_time is not None for r in auto)
    delays = sorted(r.receive_time - r.send_time for r in auto)
    expected = sorted(r.receive_time - r.send_time for r in configured)
    assert delays == expected
    for rec in auto:
        assert [b for _, b in rec.wire_bytes_per_hop] == [1040, 1060, 1060, 1040]


def test_auto_6to4_hosts_sit_under_derived_prefixes():
    scenario = build_scenario_6to4(tunnel_kind=TunnelKind.AUTO_6TO4)
    nodes = {n.id: n for n in scenario.topology.nodes}
    h1 = nodes["H1"].interfaces[0].v6[0]
    h2 = nodes["H2"].interfaces[0].v6[0]
    assert str(h1) == "2002:a0a:c01::3"
    assert str(h2) == "2002:a0a:1703::4"


def test_reverse_direction_is_symmetric():
    scenario = build_scenario_6to4()
    back = TrafficSpec(
        flow_id="h2-to-h1", src="H2", dst="H1",
        payload_bytes=1000, count=10, gap=1e-3, family="v6", hop_limit=64,
    )
    scenario.traffic.append(back)
    records = run_simulation(scenario.topology, scenario.traffic)
    expected = closed_form_delay(1000, tunneled=True)
    assert len(records) == 20
    for rec in records:
        assert rec.receive_time is not None
        delay = rec.receive_time - rec.send_time
        assert abs(delay - expected) <= 1e-12 * expected


def test_builder_parameters_flow_through():
    scenario = build_scenario_6to4(payload_bytes=64, count=3, bandwidth=10e6,
                                   propagation_delay=5e-3, processing_delay=0.0)
    records = _run(scenario)
    assert len(records) == 3
    expected = closed_form_delay(64, tunneled=True, bandwidth=10e6, prop=5e-3, proc=0.0)
    for rec in records:
        delay = rec.receive_time - rec.send_time
        assert abs(delay - expected) <= 1e-12 * expected


@pytest.mark.parametrize("kind", list(TunnelKind), ids=lambda kind: kind.value)
def test_builder_tunnel_kind_reaches_both_edges(kind):
    scenario = build_scenario_6to4(tunnel_kind=kind)
    nodes = {n.id: n for n in scenario.topology.nodes}
    r1, r3 = nodes["R1"].tunnels["tun0"], nodes["R3"].tunnels["tun0"]
    assert (r1.kind, r3.kind) == (kind, kind)
    # Configured edges name each other; 6to4 edges derive the remote per packet.
    if kind is TunnelKind.CONFIGURED:
        assert (r1.remote_v4, r3.remote_v4) == (r3.local_v4, r1.local_v4)
    else:
        assert (r1.remote_v4, r3.remote_v4) == (None, None)
    assert all(r.receive_time is not None for r in _run(scenario))


def test_hop_limit_budget_through_tunnel():
    # Three routers touch the packet: R1 (encapsulates), R3 (decapsulates),
    # and the middle only sees the outer header. hop_limit 3 is enough.
    records = _run(build_scenario_6to4(hop_limit=3, count=1))
    assert list(records)[0].receive_time is not None
    records = _run(build_scenario_6to4(hop_limit=2, count=1))
    assert list(records)[0].drop_reason is DropReason.TTL_EXPIRED


# SHA-256 of serialize_model() for every builder variant that the tests and
# the benchmark workloads build. The texts are what the command line and the
# benchmark feed the parser, so a builder refactor must leave them unchanged.
_A = TunnelKind.AUTO_6TO4
BUILDER_DIGESTS = {
    "6to4": (lambda: build_scenario_6to4(),
             "67789821847a6c931661831a93dc6643b53a0b05962a2d0dccbb09ab41b68fcc"),
    "6to4-auto": (lambda: build_scenario_6to4(tunnel_kind=_A),
                  "a4df73a96be145733a9512d6c8c057e6c37e08334511a23439fcd097b3ddb37a"),
    "6to4-no-tunnel": (lambda: build_scenario_6to4(with_tunnel=False),
                       "bdc88bd3b1a25efa61af18a6894ce7e42d25c852d21e83c378e7009ee4ed6dbc"),
    "6to4-auto-no-tunnel": (lambda: build_scenario_6to4(tunnel_kind=_A, with_tunnel=False),
                            "b4ca6b1ef0c6bab287f112d73605d630fdf690d90ffb816b9b134d7edd030adf"),
    "dualstack": (lambda: build_scenario_dualstack(),
                  "588bf0a70045f250b4d4e4d4014e63a490dd75dfcb8b4ff5525904db89a7c51f"),
    "6to4-auto-10M": (lambda: build_scenario_6to4(_A, bandwidth=10e6),
                      "e01c496f886930f47e398799f7a538d8abe55388f2ae53b08b238970082643fb"),
    "6to4-no-processing": (lambda: build_scenario_6to4(processing_delay=0.0),
                           "401a299b58b719908ba5f30bf1cdf224be4bbf545e9b31580140dfa70710a70d"),
    "6to4-params": (lambda: build_scenario_6to4(payload_bytes=64, count=3, bandwidth=10e6,
                                                propagation_delay=5e-3, processing_delay=0.0),
                    "de12aa5e6bd2d54ed27a47ac05872bcba8010629d1c7cfc04e39c44c6c6899e1"),
    "6to4-hop-limit": (lambda: build_scenario_6to4(hop_limit=3, count=1),
                       "69ae0cda579ff6646aef4ad2db3f4b136e492648832f4a5c359d04d10bb0acb0"),
    "6to4-tunnel-bulk": (lambda: build_scenario_6to4(count=305, gap=1e-4),
                         "d7386964547bb125425e041d9dd3afb725dda8bcdaff3beb3a04493966c06a02"),
    "6to4-route-heavy": (lambda: build_scenario_6to4(tunnel_kind=_A, payload_bytes=64),
                         "57ea8900c9a2f0b0d0776f8643a0655b6896703c2f7e3b73035fc80c466a7060"),
    "6to4-all-params": (lambda: build_scenario_6to4(TunnelKind.CONFIGURED, True, 1e6, 3e-3,
                                                    1280, 2e-5, 200, 4, 5e-4, 17),
                        "015417268e1d21d72694e5c098ecc5daf75b70170913552a358a8c6ceb96a091"),
    "dualstack-narrow": (lambda: build_scenario_dualstack(bandwidth=5e6, mtu=1200),
                         "cc56caa32a04c2e83a43fbd7ade128d23c79482b3c4918a509a3a9afeab6be18"),
    "dualstack-congested": (lambda: build_scenario_dualstack(payload_bytes=500),
                            "4295f28397102c9e3b66a06ea2cd122d89ac6f4d6b33145afb1eee6be688b444"),
    "dualstack-one": (lambda: build_scenario_dualstack(count=1),
                      "ff2ab2873cb105a63a14b2c5596b22932bdda4da486a3c017ffaa4fed2d49622"),
    "dualstack-params": (lambda: build_scenario_dualstack(propagation_delay=2e-3, processing_delay=1e-5,
                                                          payload_bytes=64, count=7, gap=2e-4,
                                                          hop_limit=9),
                         "2ddc05cd970058d13bb82b8728e73ad177e30b56a4ec670af4af7ba382caa4a7"),
}


@pytest.mark.parametrize("variant", sorted(BUILDER_DIGESTS))
def test_builder_text_digests(variant):
    build, digest = BUILDER_DIGESTS[variant]
    text = serialize_model(build())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
