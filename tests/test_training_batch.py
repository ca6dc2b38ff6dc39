"""Batched training traces are the ticked ones, bit for bit.

``collect_route_features`` computes each pre-recorded training trace in
one batched pass (:meth:`MobileDevice.training_trace`); the live,
ticked :meth:`MobileDevice.record_trace` stays as the reference.  For
the house and a scaled fleet house, phone and watch, and several
seeds, both paths must give the same sample floats, the same fitted
features, the same state of every random stream, the same clock and
the same pending events.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import (
    TRAINING_REPS,
    build_scenario,
    collect_route_features,
)
from repro.experiments.synthesis import fleet_world

SEEDS = (1, 2, 3)
DEVICES = ("smartphone", "smartwatch")
PLAN_SCALES = (None, 1.07)  # the house itself, and a jittered fleet house


def _scenario(seed, device_kind, plan_scale):
    testbed = None if plan_scale is None else fleet_world("house", 0, plan_scale).testbed
    return build_scenario("house", seed=seed, device_kind=device_kind,
                          with_floor_tracking=False, testbed=testbed)


def _world_state(scenario):
    streams = scenario.env.rng._streams
    assert any(name.startswith("device.") for name in streams)
    assert any(name.startswith("person.") for name in streams)
    return (
        {name: gen.bit_generator.state for name, gen in streams.items()},
        scenario.sim.now,
        len(scenario.sim._queue),
    )


def _walk_and_record(scenario, route_name, offset, ticked):
    """Start ``route_name``, record a trace ``offset`` s in, let it end."""
    env = scenario.env
    device = scenario.devices[0]
    device.carrier.follow(env.testbed.routes[route_name])
    env.sim.run_for(offset)
    if ticked:
        done = []
        device.record_trace(env.speaker_beacon, done.append)
        env.sim.run_for(9.0)
        (samples,) = done
    else:
        samples = device.training_trace(env.speaker_beacon)
        env.sim.run_for(9.0)
    return [(s.rssi, s.time, s.beacon_name, s.scanner_name) for s in samples]


@pytest.mark.parametrize("plan_scale", PLAN_SCALES)
@pytest.mark.parametrize("device_kind", DEVICES)
@pytest.mark.parametrize("seed", SEEDS)
def test_samples_match_ticked_trace(seed, device_kind, plan_scale):
    ticked = _scenario(seed, device_kind, plan_scale)
    batched = _scenario(seed, device_kind, plan_scale)
    # Offsets start the trace at the walk's start, mid-walk (the walker
    # stops partway through the trace), and just before the walk ends.
    for route_name in ("up", "down", "route2", "route3"):
        for offset in (0.0, 3.3, 7.9):
            expected = _walk_and_record(ticked, route_name, offset, ticked=True)
            got = _walk_and_record(batched, route_name, offset, ticked=False)
            assert len(got) == 40
            assert got == expected
    assert _world_state(batched) == _world_state(ticked)


@pytest.mark.parametrize("plan_scale", PLAN_SCALES)
@pytest.mark.parametrize("device_kind", DEVICES)
@pytest.mark.parametrize("seed", SEEDS)
def test_training_features_match_ticked(seed, device_kind, plan_scale):
    ticked = _scenario(seed, device_kind, plan_scale)
    batched = _scenario(seed, device_kind, plan_scale)
    for route_name, count in TRAINING_REPS.items():
        expected = collect_route_features(ticked, ticked.devices[0], route_name,
                                          count, ticked=True)
        got = collect_route_features(batched, batched.devices[0], route_name, count)
        assert got == expected
    assert _world_state(batched) == _world_state(ticked)
