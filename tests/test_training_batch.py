"""Recorded walks computed in one array pass are the ticked ones, bit for bit.

``collect_route_features`` walks every repetition of a training route
through the same ``run_for`` steps as the live path, notes each trace's
tick instants, and then computes the samples of all repetitions in one
array pass (:meth:`MobileDevice.walk_rssi`); the live, ticked
:meth:`MobileDevice.record_trace` stays as the reference.  The
threshold calibration walk is batched the same way, against the
per-sample loop kept here as its reference.  For the house and a scaled
fleet house, phone and watch, and several seeds, both paths must give
the same sample floats, the same fitted features, the same ``run_for``
steps, the same state of every random stream, the same clock and the
same pending events.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.threshold import SAMPLE_PERIOD, ThresholdCalibrator, perimeter_route
from repro.experiments.scenarios import (
    TRAINING_REPS,
    build_scenario,
    collect_route_features,
)
from repro.experiments.synthesis import fleet_world
from repro.home.devices import trace_instants

SEEDS = (1, 2, 3)
DEVICES = ("smartphone", "smartwatch")
PLAN_SCALES = (None, 1.07)  # the house itself, and a jittered fleet house
# Trace start offsets into the walk: at its start, mid-walk (the walker
# stops partway through the trace), and just before it ends.
OFFSETS = (0.0, 3.3, 7.9)


def _scenario(seed, device_kind, plan_scale, calibrate=True):
    testbed = None if plan_scale is None else fleet_world("house", 0, plan_scale).testbed
    return build_scenario("house", seed=seed, device_kind=device_kind,
                          with_floor_tracking=False, testbed=testbed,
                          calibrate=calibrate)


def _world_state(scenario):
    streams = scenario.env.rng._streams
    assert any(name.startswith("device.") for name in streams)
    assert any(name.startswith("person.") for name in streams)
    return (
        {name: gen.bit_generator.state for name, gen in streams.items()},
        scenario.sim.now,
        len(scenario.sim._queue),
    )


def _ticked_walks(scenario, route_name):
    """One ticked trace per offset, each on a fresh walk of the route."""
    env = scenario.env
    device = scenario.devices[0]
    traces = []
    for offset in OFFSETS:
        device.carrier.follow(env.testbed.routes[route_name])
        env.sim.run_for(offset)
        done = []
        device.record_trace(env.speaker_beacon, done.append)
        env.sim.run_for(9.0)
        (samples,) = done
        traces.append([(s.rssi, s.time) for s in samples])
    return traces


def _batched_walks(scenario, route_name):
    """The same walks, their samples computed in one pass afterwards."""
    env = scenario.env
    device = scenario.devices[0]
    route = env.testbed.routes[route_name]
    started, firsts = [], []
    for offset in OFFSETS:
        device.carrier.follow(route)
        started.append(env.sim.now)
        env.sim.run_for(offset)
        firsts.append(env.sim.now)
        env.sim.run_for(9.0)
    times = trace_instants(firsts)
    rssi = device.walk_rssi(env.speaker_beacon, route,
                            np.repeat(started, times.shape[1]), times.ravel())
    rssi = rssi.reshape(times.shape)
    return [list(zip(values.tolist(), row.tolist())) for row, values in zip(times, rssi)]


@pytest.mark.parametrize("plan_scale", PLAN_SCALES)
@pytest.mark.parametrize("device_kind", DEVICES)
@pytest.mark.parametrize("seed", SEEDS)
def test_samples_match_ticked_trace(seed, device_kind, plan_scale):
    ticked = _scenario(seed, device_kind, plan_scale)
    batched = _scenario(seed, device_kind, plan_scale)
    for route_name in ("up", "down", "route2", "route3"):
        expected = _ticked_walks(ticked, route_name)
        got = _batched_walks(batched, route_name)
        assert [len(trace) for trace in got] == [40] * len(OFFSETS)
        assert got == expected
    assert _world_state(batched) == _world_state(ticked)


@pytest.mark.parametrize("plan_scale", PLAN_SCALES)
@pytest.mark.parametrize("device_kind", DEVICES)
@pytest.mark.parametrize("seed", SEEDS)
def test_training_features_match_ticked(seed, device_kind, plan_scale):
    ticked = _scenario(seed, device_kind, plan_scale)
    batched = _scenario(seed, device_kind, plan_scale)
    ticked_steps, batched_steps = [], []
    for route_name, count in TRAINING_REPS.items():
        expected = collect_route_features(ticked, ticked.devices[0], route_name,
                                          count, step_log=ticked_steps, ticked=True)
        got = collect_route_features(batched, batched.devices[0], route_name,
                                     count, step_log=batched_steps)
        assert len(got) == count
        assert got == expected
    assert batched_steps == ticked_steps
    assert _world_state(batched) == _world_state(ticked)


def _calibrate_per_sample(env, device, room):
    """The per-sample calibration loop: one ``instant_rssi`` call before
    each 0.5 s ``run_until`` step (the reference for the batched walk)."""
    route = perimeter_route(room)
    carrier = device.carrier
    return_point = carrier.position
    carrier.follow(route)
    samples = []
    end_time = env.sim.now + route.duration
    while env.sim.now < end_time:
        samples.append(device.instant_rssi(env.speaker_beacon))
        env.sim.run_until(min(env.sim.now + SAMPLE_PERIOD, end_time))
    carrier.teleport(return_point)
    return samples


@pytest.mark.parametrize("plan_scale", PLAN_SCALES)
@pytest.mark.parametrize("device_kind", DEVICES)
@pytest.mark.parametrize("seed", SEEDS)
def test_calibration_matches_per_sample_loop(seed, device_kind, plan_scale):
    reference = _scenario(seed, device_kind, plan_scale, calibrate=False)
    batched = _scenario(seed, device_kind, plan_scale, calibrate=False)
    for name in ("living_room", "kitchen", "bedroom_b"):
        room = reference.env.testbed.plan.rooms[name]
        expected = _calibrate_per_sample(reference.env, reference.devices[0], room)
        result = ThresholdCalibrator(batched.env).calibrate(batched.devices[0], room)
        assert result.samples == expected
        assert result.threshold == min(expected)
    assert _world_state(batched) == _world_state(reference)
