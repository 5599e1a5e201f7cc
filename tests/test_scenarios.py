import pytest

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
        assert rec.wire_bytes_per_hop == [
            ("h1-r1", 1040),
            ("r1-r2", 1060),
            ("r2-r3", 1060),
            ("r3-h2", 1040),
        ]


def test_dualstack_scenario_wire_sizes_per_hop():
    records = _run(build_scenario_dualstack())
    for rec in records:
        assert rec.wire_bytes_per_hop == [(link, 1040) for link in LINK_IDS]


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


def test_unsupported_builder_tunnel_kind():
    with pytest.raises(ValueError):
        build_scenario_6to4(tunnel_kind=TunnelKind.AUTOMATIC_COMPATIBLE)


def test_hop_limit_budget_through_tunnel():
    # Three routers touch the packet: R1 (encapsulates), R3 (decapsulates),
    # and the middle only sees the outer header. hop_limit 3 is enough.
    records = _run(build_scenario_6to4(hop_limit=3, count=1))
    assert records[0].receive_time is not None
    records = _run(build_scenario_6to4(hop_limit=2, count=1))
    assert records[0].drop_reason is DropReason.TTL_EXPIRED
