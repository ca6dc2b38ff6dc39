"""Differential property: the motion sensor's gated polling is invisible.

:class:`MotionSensor` skips the polls that cannot observe anything: it
fast-forwards through its refractory window and sleeps while everybody
stands still outside its region.  The reference it must agree with is
the plain poller that checks on every 0.25 s tick,
``PeriodicTask(sim, 0.25, sensor._poll, first_delay=0.25)``.

Both sensors watch the same people in one simulation, driven by random
walks through and past the region, teleports in and out of it (some
timed around the refractory edge), and a sensor-dropout fault plan.
The ``on_motion`` instants, ``event_count`` and ``events_missed`` must
be exactly equal.

One case is outside the equivalence: a move that lands exactly on a
poll instant.  The every-tick poller sees such a move at that instant
or at the next one, depending on whether the move was scheduled before
or after its previous tick pushed the poll; a sleeping gated sensor
cannot know which, and always sees it on the next tick.  The property
draws move instants off the poll grid, and
:func:`test_move_exactly_on_a_poll_instant` pins what each sensor does
in the tie.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.faults.plan import FaultInjector, FaultPlan
from repro.home.devices import MotionSensor
from repro.home.person import Person
from repro.radio.geometry import Point
from repro.radio.testbeds import WalkRoute
from repro.sim.process import PeriodicTask
from repro.sim.simulator import Simulator

REGION = (2.0, 2.0, 4.0, 4.0)  # x0, y0, x1, y1
INSIDE = Point(3.0, 3.0, 0.0)
SPOTS = [INSIDE, Point(2.0, 3.0, 0.0), Point(0.5, 0.5, 0.0), Point(8.0, 1.0, 0.0),
         Point(3.0, 7.5, 0.0)]
PERIOD = MotionSensor.POLL_PERIOD
REFRACTORY = MotionSensor.REFRACTORY

# An action fires at ``base + offset`` seconds.  The offsets put some
# actions a refractory period (or one poll tick either side of it)
# after an earlier one, where the fast-forward lands.
OFFSETS = st.one_of(
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    st.sampled_from([REFRACTORY - PERIOD, REFRACTORY, REFRACTORY + PERIOD]).flatmap(
        lambda edge: st.floats(min_value=edge - 0.01, max_value=edge + 0.01)
    ),
    st.floats(min_value=10.0, max_value=60.0, allow_nan=False),
)
ACTION = st.tuples(
    st.sampled_from(["teleport", "walk"]),
    st.integers(min_value=0, max_value=1),  # which person
    OFFSETS,
    st.integers(min_value=0, max_value=len(SPOTS) - 1),  # destination
    st.integers(min_value=0, max_value=len(SPOTS) - 1),  # walk midpoint
    st.floats(min_value=0.3, max_value=12.0, allow_nan=False),  # walk duration
)


def _apply(person, action):
    kind, _who, _offset, dest, via, duration = action
    if kind == "teleport":
        person.teleport(SPOTS[dest])
    else:
        person.follow(WalkRoute("w", [person.position, SPOTS[via], SPOTS[dest]],
                                duration=duration))


def run(start, actions, dropout, horizon):
    sim = Simulator()
    rng = np.random.default_rng(0)
    people = [Person(f"p{i}", sim, rng, SPOTS[2 + i]) for i in range(2)]
    plan = FaultPlan(seed=5, sensor_dropout=dropout)
    gated = MotionSensor("stair", sim, REGION, people,
                         faults=FaultInjector(sim, plan))
    every_tick = MotionSensor("stair", sim, REGION, people,
                              faults=FaultInjector(sim, plan))
    fired = {"gated": [], "every_tick": []}
    gated.on_motion = fired["gated"].append
    every_tick.on_motion = fired["every_tick"].append
    reference = PeriodicTask(sim, PERIOD, every_tick._poll, first_delay=PERIOD)

    def start_both():
        gated.start()
        reference.start()

    sim.schedule(start, start_both)
    at = 0.0
    for action in actions:
        at += action[2]
        sim.schedule(at, _apply, people[action[1]], action)
    sim.run_until(at + horizon)
    return fired, gated, every_tick


def _poll_grid(start, end):
    """The poll instants, accumulated the way both sensors do."""
    grid = set()
    t = start + PERIOD
    while t <= end:
        grid.add(t)
        t += PERIOD
    return grid


@settings(max_examples=150, deadline=None)
@given(
    start=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    actions=st.lists(ACTION, max_size=24),
    dropout=st.sampled_from([0.0, 0.0, 0.5]),
    horizon=st.sampled_from([1.0, 20.0]),
)
def test_gated_polling_matches_every_tick_poller(start, actions, dropout, horizon):
    instants = list(accumulate(action[2] for action in actions))
    assume(not _poll_grid(start, max(instants, default=0.0)) & set(instants))
    fired, gated, every_tick = run(start, actions, dropout, horizon)
    assert fired["gated"] == fired["every_tick"]
    assert gated.event_count == every_tick.event_count
    assert gated.events_missed == every_tick.events_missed


def test_reference_model_sees_traversals():
    # Guard against a vacuous comparison: a walk through the region
    # fires once, and a teleport into it fires again on entry and then
    # at every refractory edge while the person stays; a dropout plan
    # that always fires swallows every traversal on both sensors.
    actions = [("walk", 0, 1.1, 3, 0, 4.0), ("teleport", 0, 20.0, 0, 0, 1.0)]
    fired, gated, every_tick = run(0.0, actions, 0.0, 20.0)
    assert fired["gated"] == fired["every_tick"]
    assert fired["gated"][1:] == [21.25, 27.25, 33.25, 39.25]
    assert gated.event_count == every_tick.event_count == 5
    fired, gated, every_tick = run(0.0, actions, 1.0, 20.0)
    assert fired == {"gated": [], "every_tick": []}
    assert gated.events_missed == every_tick.events_missed == 5


def test_move_exactly_on_a_poll_instant():
    # A teleport into the region at t = 1.0, a poll instant, scheduled
    # long before: the every-tick poller's 1.0 poll was pushed after
    # it, so it sees the move at once; the gated sensor was asleep and
    # re-joins the grid strictly after the move.
    actions = [("teleport", 0, 1.0, 0, 0, 1.0)]
    fired, _, _ = run(0.0, actions, 0.0, 1.0)
    assert fired == {"gated": [1.25], "every_tick": [1.0]}
