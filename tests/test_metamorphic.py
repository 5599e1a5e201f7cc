"""Metamorphic relations: exact checks that need no reference engine.

Time scaling (Chen, Cheung and Yiu, "Metamorphic testing: a new approach
for generating next test cases", 1998). Multiply every processing delay,
propagation delay, start, gap and horizon by 2**k, and divide every
bandwidth by 2**k. Scaling a binary float by a power of two is exact, barring
overflow and underflow, and the engine only adds, compares, multiplies and
divides these values, so each of its roundings scales too. Then every send
time, receive time, trace start and delay statistic is exactly 2**k times
the original, every rate exactly 2**-k times, and packet ids, ends, hops
and every trace line's link, packet id and frame are unchanged. A constant
that does not scale, such as an epsilon in a comparison or a fixed per-hop
cost, breaks the relation, and both the engine and the reference engine
would share it.
"""

import copy
from dataclasses import replace

import pytest
from test_engine_oracle import _congested_shape, _route_shape

from transit6.metrics import summarize
from transit6.scenarios import build_scenario_6to4, build_scenario_dualstack
from transit6.simcore import run_simulation


def _builtin(build):
    s = build()
    return s.topology, s.traffic, s.horizon


SHAPES = {
    "6to4": lambda: _builtin(build_scenario_6to4),
    "dualstack": lambda: _builtin(build_scenario_dualstack),
    "congested-native": _congested_shape,
    "route-heavy": _route_shape,
}


def _scaled_scenario(topology, traffic, horizon, f):
    topology = copy.deepcopy(topology)
    for node in topology.nodes:
        node.processing_delay *= f
    for link in topology.links:
        link.propagation_delay *= f
        link.bandwidth /= f
    traffic = [replace(t, start=t.start * f, gap=t.gap * f) for t in traffic]
    return topology, traffic, None if horizon is None else horizon * f


def _times(value, f):
    return None if value is None else value * f


def _scaled_record(r, f):
    return replace(r, send_time=r.send_time * f, receive_time=_times(r.receive_time, f))


def _scaled_summary(s, f):
    return replace(
        s, mean_delay=_times(s.mean_delay, f), min_delay=_times(s.min_delay, f),
        max_delay=_times(s.max_delay, f), jitter=_times(s.jitter, f),
        goodput_bps=s.goodput_bps / f, wire_throughput_bps=s.wire_throughput_bps / f,
    )


def _scaled_line(line, f):
    start, rest = line.split(" ", 1)
    return f"{float(start) * f!r} {rest}"


@pytest.mark.parametrize("shape", SHAPES)
def test_scaling_every_time_by_a_power_of_two_scales_every_output(shape):
    topology, traffic, horizon = SHAPES[shape]()
    for seed in (0, 17):
        for trace in (None, []):
            table = run_simulation(topology, traffic, horizon, seed=seed, trace=trace)
            records, summaries = list(table), summarize(table)
            assert any(r.receive_time is not None for r in records)
            for k in (-3, 1, 7):
                f = 2.0**k
                scaled_trace = None if trace is None else []
                got = run_simulation(
                    *_scaled_scenario(topology, traffic, horizon, f), seed=seed, trace=scaled_trace
                )
                where = (seed, trace is not None, k)
                assert list(got) == [_scaled_record(r, f) for r in records], where
                assert summarize(got) == [_scaled_summary(s, f) for s in summaries], where
                if trace is not None:
                    assert scaled_trace == [_scaled_line(line, f) for line in trace], where
