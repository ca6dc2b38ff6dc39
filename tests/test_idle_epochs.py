"""Idle epochs (:mod:`repro.speakers.idle`) against the ticked path.

The epoch path applies whole quiet heartbeat periods in one array pass;
the ticked path (the pass monkeypatched off) fires every one of their
kernel events.  Both must leave the same world: every connection slot
and timer, the queue's live entries and sequence counter, the
``net.jitter`` generator, buffer and index, the FIFO floors, delivery
and packet counts, the TLS counters, the cloud's stats, the proxy's
flow counters, the recognizer's flow state and the metrics registry.

The differential cells run the seven-day workload shape on house/echo
seeds 1 and 11 and one apartment and one office Echo home, comparing
the world right after every epoch with the ticked world at the same
instant, and at the end.  Three obligations get their own tests: a
foreign event tied with an epoch instant, a stale recognizer window
left from before the gap, and the keepalive float chain after more
than 1,000 periods.  A hypothesis property cuts one idle stretch into
``run_until`` chunks at arbitrary instants.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.signature_learning import SignatureLearner
from repro.experiments.scenarios import add_echo_speaker, build_scenario
from repro.experiments.workload import SEVEN_DAY_GAP, SevenDayWorkload
from repro.net.link import Route
from repro.net.packet import Packet, peek_packet_number, reset_packet_numbers
from repro.net.tcp import TcpConnection
from repro.sim.events import EventQueue
from repro.sim.process import DeadlineTimer
from repro.speakers import idle


def ticked(echo) -> bool:
    """Stand-in for the epoch pass: never applies one."""
    return False


# -- world state --------------------------------------------------------------

class _Names:
    """Run-independent labels for the objects a world's callbacks,
    timers and routes point at."""

    def __init__(self, scenario) -> None:
        self.labels = {}
        for host in scenario.network._hosts.values():
            self.labels[id(host)] = host.name
        for conn in _connections(scenario):
            label = f"{conn.stack.host.name}:{conn.local}->{conn.remote}"
            self.labels[id(conn)] = label
            for role in ("_rto_timer", "_keepalive_timer"):
                timer = getattr(conn, role)
                if timer is not None:
                    self.labels[id(timer)] = label + role
        for speaker in scenario.all_speakers:
            timer = getattr(speaker, "_heartbeat_timer", None)
            if timer is not None:
                self.labels[id(timer)] = speaker.name + ":heartbeat"

    def __call__(self, value):
        """A comparable description of ``value``."""
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, (list, tuple)):
            return tuple(self(item) for item in value)
        if isinstance(value, dict):
            return tuple((self(k), self(v)) for k, v in value.items())
        if isinstance(value, Packet):
            return ("packet",) + tuple(self(field) for field in value._astuple())
        if isinstance(value, Route):
            return ("route", self.labels.get(id(value.origin)), value.epoch,
                    self.labels.get(id(value.target)), value.wan, value.base,
                    value.fifo_id, value.scope, value.tapped,
                    self.labels.get(id(value.peer)))
        if isinstance(value, DeadlineTimer):
            return ("timer", self.labels.get(id(value)), value._deadline,
                    value._next_fire)
        if isinstance(value, functools.partial):
            return ("partial", self(value.func), self(value.args))
        owner = getattr(value, "__self__", None)
        if owner is not None and hasattr(value, "__func__"):
            return (value.__func__.__qualname__,
                    self.labels.get(id(owner), type(owner).__name__))
        if callable(value) and hasattr(value, "__qualname__"):
            return value.__qualname__
        if id(value) in self.labels:
            return self.labels[id(value)]
        if type(value).__repr__ is object.__repr__:
            return type(value).__name__  # its address differs between runs
        return repr(value)


def _connections(scenario):
    seen = {}
    for host in scenario.network._hosts.values():
        stack = host._tcp_stack
        if stack is not None:
            for conn in stack._connections.values():
                seen[id(conn)] = conn
    for flow in scenario.guard.proxy.flows:
        for conn in (flow.downstream, flow.upstream):
            if conn is not None:
                seen[id(conn)] = conn
    for speaker in scenario.all_speakers:
        conn = getattr(speaker, "_conn", None)
        if conn is not None:
            seen[id(conn)] = conn
    return list(seen.values())


def world_state(scenario) -> dict:
    """Everything a later event can read, as comparable values."""
    names = _Names(scenario)
    network = scenario.network
    queue = scenario.sim._queue
    live = []
    for entry in queue._heap:
        event = entry[2]
        if event is None:
            live.append((entry[0], entry[1], names(entry[3]), names(entry[4])))
        elif not event.cancelled:
            live.append((entry[0], entry[1], names(event.callback),
                         names(event.args)))
    connections = {}
    for conn in _connections(scenario):
        connections[names.labels[id(conn)]] = tuple(
            (slot, names(getattr(conn, slot)))
            for slot in TcpConnection.__slots__ if slot != "_sim")
    speakers = {}
    for speaker in scenario.all_speakers:
        tls = speaker._tls
        speakers[speaker.name] = (
            names(speaker._heartbeat_timer),
            None if tls is None else (tls._send_seq, tls._recv_expected),
            speaker.reconnect_count, speaker.dns_lookups_for_avs,
        )
    cloud = scenario.avs_cloud
    recognition = scenario.guard.recognition
    flows_seen = {}
    for flow_id, fs in recognition._flows.items():
        window = fs.window
        flows_seen[flow_id] = (
            tuple(fs.prefix), fs.last_data_time, fs.signature_matched,
            fs.signature_failed,
            None if window is None else (window.window_id, window.last_packet_time,
                                         tuple(window.lengths), window.classification),
        )
    return {
        "now": scenario.sim.now,
        "queue": (sorted(live), queue._next_seq, queue._live),
        "connections": connections,
        "network": (
            network.delivered_count, network.packets_lost,
            tuple(network._last_delivery.items()), tuple(network._jitter_buf),
            network._jitter_idx, network._prune_at, network._epoch,
            repr(network._rng.bit_generator.state),
        ),
        "packet_number": peek_packet_number(),
        "speakers": speakers,
        "cloud": (
            repr(dataclasses.asdict(cloud.stats)),
            tuple((str(key), state.dead, state.tls._send_seq, state.tls._recv_expected)
                  for key, state in cloud._sessions.items()),
        ),
        "proxy": tuple(
            (flow.flow_id, flow.records_forwarded, flow.records_discarded,
             flow.closed, len(flow.held), len(flow.awaiting_upstream))
            for flow in scenario.guard.proxy.flows),
        "recognition": (flows_seen, recognition.windows_opened),
        "stream": tuple(scenario.guard.log.stream()),
        "registry": scenario.env.obs.metrics.snapshot(),
    }


def assert_same_world(left: dict, right: dict) -> None:
    """Equal world states, reporting the first differing part."""
    for key in left:
        assert left[key] == right[key], f"world state differs in {key!r}"


# -- epoch and ticked runs -----------------------------------------------------

class EpochLog:
    """Wraps the epoch pass: counts applied epochs and, optionally,
    snapshots the world right after each one."""

    def __init__(self, scenario=None) -> None:
        self.scenario = scenario
        self.applied = []  # (clock after the epoch, periods applied)
        self.declined = 0
        self.states = []

    def __call__(self, echo) -> bool:
        before = echo._tls._send_seq
        if not idle_pass(echo):
            self.declined += 1
            return False
        self.applied.append((echo.sim.now, echo._tls._send_seq - before))
        if self.scenario is not None:
            self.states.append(world_state(self.scenario))
        return True


idle_pass = idle.advance_idle_epoch


class TickedCapture:
    """Snapshots a ticked world right after the last event at or before
    each of ``instants``, before the next one fires."""

    def __init__(self, scenario, instants) -> None:
        self.scenario = scenario
        self.instants = list(instants)
        self.states = []

    def install(self, patch) -> None:
        capture, pop = self, EventQueue.pop_entry_before

        def pop_entry_before(queue, limit):
            capture.note(queue)
            return pop(queue, limit)

        patch.setattr(EventQueue, "pop_entry_before", pop_entry_before)

    def note(self, queue) -> None:
        if self.instants and queue is self.scenario.sim._queue:
            upcoming = min((e[0] for e in queue._heap
                            if e[2] is None or not e[2].cancelled), default=math.inf)
            while self.instants and upcoming > self.instants[0]:
                self.instants.pop(0)
                self.states.append(world_state(self.scenario))


def run_workload(cell, commands, monkeypatch, epochs: bool, capture=None):
    """The seven-day workload shape on ``cell``; returns the final
    world, the epoch log and, for a ticked run given ``capture``
    instants, the worlds at those instants.  (A world is read right
    after its run: the packet counter is process-global.)"""
    testbed, seed = cell
    scenario = build_scenario(testbed, "echo", deployment=0, seed=seed,
                              owner_count=2 if testbed == "house" else 1)
    log = EpochLog(scenario)
    taken = None
    with monkeypatch.context() as patch:
        if epochs:
            patch.setattr(idle, "advance_idle_epoch", log)
        else:
            patch.setattr(idle, "advance_idle_epoch", ticked)
            if capture is not None:
                taken = TickedCapture(scenario, capture)
                taken.install(patch)
        SevenDayWorkload(scenario, episode_gap=SEVEN_DAY_GAP).run(*commands)
    return world_state(scenario), log, (taken.states if taken is not None else None)


CELLS = [("house", 1), ("house", 11), ("apartment", 3), ("office", 5)]


@pytest.mark.parametrize("cell", CELLS, ids=[f"{t}-{s}" for t, s in CELLS])
def test_epochs_match_ticked_world(cell, monkeypatch):
    commands = (2, 1)
    fast, log, _ = run_workload(cell, commands, monkeypatch, epochs=True)
    assert len(log.applied) >= 3, "the workload's gaps should run as epochs"
    instants = [time for time, _periods in log.applied]
    slow, _, states = run_workload(cell, commands, monkeypatch, epochs=False,
                                   capture=instants)
    assert len(states) == len(log.states)
    for index, (epoch_state, ticked_state) in enumerate(zip(log.states, states)):
        assert epoch_state["now"] == ticked_state["now"], f"epoch {index}"
        assert_same_world(epoch_state, ticked_state)
    assert_same_world(fast, slow)


# -- the idle stretch: one world, copied per run -----------------------------------

STRETCH = 40 * 30.0  # seconds of idle heartbeat traffic


@functools.lru_cache(maxsize=None)
def _idle_world():
    """A booted apartment/echo world, its packet-number mark, and the
    ticked instants of a 40-period idle stretch after it: the heartbeat
    wakeups, and those of every RTO and keepalive timer."""
    scenario = build_scenario("apartment", "echo", deployment=0, seed=3)
    scenario.sim.run_for(200.0)  # boot traffic is long gone
    mark = peek_packet_number()
    probe = _restore(scenario, mark)
    heartbeat = probe.speaker._heartbeat_timer
    timers = {id(timer) for conn in _connections(probe)
              for timer in (conn._rto_timer, conn._keepalive_timer)}
    heartbeats, others = [], []

    def record(queue, limit, _pop=EventQueue.pop_entry_before):
        entry = _pop(queue, limit)
        owner = id(getattr(entry[1], "__self__", None)) if entry else None
        if owner == id(heartbeat):
            heartbeats.append(entry[0])
        elif owner in timers:
            others.append(entry[0])
        return entry

    start = probe.sim.now
    patch = pytest.MonkeyPatch()
    try:
        patch.setattr(idle, "advance_idle_epoch", ticked)
        patch.setattr(EventQueue, "pop_entry_before", record)
        probe.sim.run_until(start + STRETCH)
    finally:
        patch.undo()
    return IdleWorld(scenario, mark, start, tuple(heartbeats),
                     tuple(sorted(heartbeats + others)))


@dataclasses.dataclass(frozen=True)
class IdleWorld:
    scenario: object
    mark: int
    start: float
    heartbeats: tuple
    instants: tuple


def _restore(scenario, mark):
    copied = copy.deepcopy(scenario)
    reset_packet_numbers(mark)
    return copied


def _foreign(log, sim):
    log.append((sim.now, sim._queue._next_seq))


def _run_stretch(world, limits, foreign_at=None, epochs=True, pass_=None,
                 prepare=None):
    """Run a copy of ``world`` through ``run_until(limit)`` for each of
    ``limits``; returns its final state, what a foreign post at
    ``foreign_at`` saw, and the epoch log."""
    copied = _restore(world.scenario, world.mark)
    if prepare is not None:
        prepare(copied)
    sim = copied.sim
    seen = []
    if foreign_at is not None:
        sim.post_at(foreign_at, _foreign, seen, sim)
    patch = pytest.MonkeyPatch()
    log = EpochLog()
    if pass_ is not None:
        log_pass = pass_
    else:
        log_pass = log if epochs else ticked
    try:
        patch.setattr(idle, "advance_idle_epoch", log_pass)
        for limit in limits:
            sim.run_until(limit)
    finally:
        patch.undo()
    return world_state(copied), seen, log


def _instant(world, pick):
    """A time in the stretch: a recorded wakeup instant, one ulp either
    side of it, or anywhere."""
    kind, index, fraction = pick
    if kind == "anywhere":
        return world.start + fraction * STRETCH
    at = world.instants[index % len(world.instants)]
    if kind == "below":
        return math.nextafter(at, -math.inf)
    if kind == "above":
        return math.nextafter(at, math.inf)
    return at


instants_st = st.tuples(st.sampled_from(["at", "below", "above", "anywhere"]),
                        st.integers(0, 10_000), st.floats(0.0, 1.0))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cuts=st.lists(instants_st, min_size=0, max_size=5),
       foreign=st.one_of(st.none(), instants_st))
def test_epoch_boundaries_at_arbitrary_instants(cuts, foreign):
    """One idle stretch cut into 1-6 ``run_until`` chunks, at wakeup
    instants, one ulp either side of them, or anywhere, with an
    optional foreign post: the world ends as after one call, and as
    ticked."""
    world = _idle_world()
    end = world.start + STRETCH
    limits = sorted({_instant(world, cut) for cut in cuts} | {end})
    limits = [limit for limit in limits if world.start <= limit <= end]
    foreign_at = None if foreign is None else max(_instant(world, foreign),
                                                  world.start)
    chunked, chunked_seen, _ = _run_stretch(world, limits, foreign_at)
    single, single_seen, log = _run_stretch(world, [end], foreign_at)
    reference, reference_seen, _ = _run_stretch(world, [end], foreign_at,
                                                epochs=False)
    assert log.applied, "a 40-period stretch should run as epochs"
    assert chunked_seen == single_seen == reference_seen
    assert_same_world(chunked, reference)
    assert_same_world(single, reference)


def test_declined_epoch_leaves_the_jitter_stream_alone():
    """A pass that draws its variates, then finds fewer periods exact to
    apply than its minimum, puts the stream back.  Enter one at each
    heartbeat with the limit where the estimate allows the minimum but
    the last of those periods' keepalives falls just past it."""
    world = _idle_world()
    end = world.start + STRETCH
    reference, _, _ = _run_stretch(world, [end], epochs=False)
    minimum = idle._MIN_PERIODS
    reach = (minimum - 2) * 30.0 + 45.0  # keepalive_idle after heartbeat minimum-2
    redrawn = []

    def watched(echo):
        network = echo.network
        short = len(network._jitter_buf) - network._jitter_idx < 8 * minimum
        applied = idle_pass(echo)
        if short and not applied and echo.sim.run_limit == echo.sim.now + reach:
            redrawn.append(echo.sim.now)
        return applied

    for heartbeat in world.heartbeats[1:]:
        if heartbeat + reach > end:
            break
        limits = [math.nextafter(heartbeat, -math.inf), heartbeat + reach, end]
        state, _, _ = _run_stretch(world, limits, pass_=watched)
        assert_same_world(state, reference)
    assert redrawn, "some pass should have drawn a fresh block, then declined"


def test_epoch_cut_short_keeps_only_its_blocks():
    """An epoch the limit cuts one period short of its estimate keeps
    only the variate blocks its own periods use.  Sweep the cut over 33
    consecutive periods from the second heartbeat, so that once the
    dropped period's draws start a block the kept ones did not need."""
    world = _idle_world()
    end = world.start + STRETCH
    reference, _, _ = _run_stretch(world, [end], epochs=False)
    heartbeat = world.heartbeats[1]
    straddled = []

    def watched(echo):
        network = echo.network
        buffered = len(network._jitter_buf) - network._jitter_idx
        before = echo._tls._send_seq
        applied = idle_pass(echo)
        count = echo._tls._send_seq - before
        if applied and (8 * count - buffered) // 256 != (8 * count + 8 - buffered) // 256:
            straddled.append(count)
        return applied

    for periods in range(idle._MIN_PERIODS, idle._MIN_PERIODS + 33):
        cut = heartbeat + (periods - 1) * 30.0 + 45.0
        limits = [math.nextafter(heartbeat, -math.inf), cut, end]
        state, _, _ = _run_stretch(world, limits, pass_=watched)
        assert_same_world(state, reference)
    assert straddled, "some cut should have dropped a period that starts a block"


def _set_tuning(role: str, **knobs):
    def prepare(scenario):
        if role == "echo":
            conn = scenario.speaker._conn
        else:
            conn = next(iter(scenario.avs_cloud.stack._connections.values()))
        conn.tuning = dataclasses.replace(conn.tuning, **knobs)
    return prepare


@pytest.mark.parametrize("role, knobs", [
    ("cloud", {"rto": 0.01}),  # the reply's ACK comes after the RTO
    ("echo", {"keepalive_idle": 20.0}),  # keepalive probes between heartbeats
], ids=["rto-before-ack", "keepalive-probes"])
def test_periods_outside_the_model_tick(role, knobs):
    """Tunings that break the orderings the arrays assume make every
    period tick, and the world still matches the ticked one."""
    world = _idle_world()
    end = world.start + STRETCH
    prepare = _set_tuning(role, **knobs)
    epoch, _, log = _run_stretch(world, [end], prepare=prepare)
    reference, _, _ = _run_stretch(world, [end], epochs=False, prepare=prepare)
    assert not log.applied and log.declined
    assert_same_world(epoch, reference)


def _lossy_wan(scenario):
    scenario.network.wan_loss = 0.05


def _observe(packet, scope):
    pass


def _captured(scenario):
    scenario.network.add_observer(_observe)


def _pass_through(flow, packet, policy):
    return policy(flow, packet)


def _shimmed(scenario):
    scenario.guard.proxy.install_record_shim(_pass_through)


def _learning(scenario):
    scenario.guard.recognition.signature_learner = SignatureLearner()


def _two_echos(scenario):
    add_echo_speaker(scenario)


@pytest.mark.parametrize("prepare", [_lossy_wan, _captured, _shimmed, _learning,
                                     _two_echos],
                         ids=["wan-loss", "capture", "record-shim",
                              "signature-learner", "two-echos"])
def test_homes_that_are_not_quiet_tick(prepare):
    """WAN loss, a capture observer, a record shim, a signature learner
    or a second Echo keep every heartbeat ticked."""
    world = _idle_world()
    end = world.start + STRETCH
    epoch, _, log = _run_stretch(world, [end], prepare=prepare)
    reference, _, _ = _run_stretch(world, [end], epochs=False, prepare=prepare)
    assert not log.applied and log.declined
    assert_same_world(epoch, reference)


# -- the three obligations -----------------------------------------------------------

def test_foreign_event_tied_with_epoch_instants():
    """A foreign post at exactly a heartbeat, keepalive or RTO instant
    fires in the same order and sees the same world either way."""
    world = _idle_world()
    end = world.start + STRETCH
    # Instants from the middle of the stretch, where epochs run.
    middle = len(world.instants) // 3
    for at in world.instants[middle: middle + 12]:
        epoch, epoch_seen, log = _run_stretch(world, [end], at)
        reference, reference_seen, _ = _run_stretch(world, [end], at, epochs=False)
        assert epoch_seen == reference_seen and len(epoch_seen) == 1
        assert log.applied
        assert_same_world(epoch, reference)


def test_stale_window_from_before_the_gap_ticks_then_epochs(monkeypatch):
    """A command leaves its recognizer window open into the gap; the
    first heartbeat must expire it on the ticked path before any epoch
    applies, and the world must still match the ticked one."""
    scenario = build_scenario("house", "echo", deployment=0, seed=1, owner_count=2)
    recognition = scenario.guard.recognition
    calls = []  # (a window was open, an epoch applied)

    def spy(echo):
        stale = any(fs.window is not None for fs in recognition._flows.values())
        applied = idle_pass(echo)
        calls.append((stale, applied))
        return applied

    with monkeypatch.context() as patch:
        patch.setattr(idle, "advance_idle_epoch", spy)
        SevenDayWorkload(scenario, episode_gap=SEVEN_DAY_GAP).run(1, 0)
    fast = world_state(scenario)
    assert (True, False) in calls, "a stale window should make a heartbeat tick"
    assert (False, True) in calls, "the gap should then run as an epoch"
    assert (True, True) not in calls
    slow, _, _ = run_workload(("house", 1), (1, 0), monkeypatch, epochs=False)
    assert_same_world(fast, slow)


def test_keepalive_chain_after_a_thousand_periods():
    """One run over 1,100 periods: every keepalive re-arm lands on the
    float the ticked chain of 1,100 re-arms produces."""
    world = _idle_world()
    end = world.start + 1_100 * 30.0
    epoch, _, log = _run_stretch(world, [end])
    reference, _, _ = _run_stretch(world, [end], epochs=False)
    assert sum(periods for _time, periods in log.applied) > 1_000
    assert_same_world(epoch, reference)
