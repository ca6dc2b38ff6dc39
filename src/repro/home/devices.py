"""Mobile devices and the stair motion sensor.

:class:`Smartphone` and :class:`Smartwatch` run the VoiceGuard
companion app: on a pushed request they scan for the speaker's
Bluetooth beacon and report the RSSI; they can also record the 8-second
40-sample traces the floor-level tracker consumes, and run the
threshold-calibration walk (Section IV-C).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.faults.plan import FaultInjector
from repro.home.person import Person
from repro.radio.bluetooth import BluetoothBeacon, BluetoothScanner, RssiSample
from repro.radio.floorplan import DEVICE_CARRY_HEIGHT
from repro.radio.propagation import PropagationModel
from repro.radio.testbeds import WalkRoute
from repro.sim import compat
from repro.sim.process import PeriodicTask
from repro.sim.simulator import Simulator

TRACE_SAMPLE_PERIOD = 0.2  # the app records RSSI every 0.2 s (Section V-B2)
TRACE_SAMPLE_COUNT = 40  # ... for 8 s, giving 40 values per trace


def trace_instants(firsts: Sequence[float]) -> np.ndarray:
    """The sample instants of traces :meth:`MobileDevice.record_trace`
    started at each of ``firsts``, one row per trace.

    The ticks follow ``PeriodicTask``'s float chain: ``first + 0.0``,
    then ``+ TRACE_SAMPLE_PERIOD`` per tick; ``cumsum`` adds left to
    right, so each row repeats that chain exactly.
    """
    steps = np.full((len(firsts), TRACE_SAMPLE_COUNT), TRACE_SAMPLE_PERIOD)
    steps[:, 0] = np.asarray(firsts, dtype=np.float64) + 0.0
    return np.cumsum(steps, axis=1)


class MobileDevice:
    """A phone or watch carried by (or near) a person."""

    kind = "device"

    def __init__(
        self,
        name: str,
        carrier: Person,
        sim: Simulator,
        model: PropagationModel,
        rng: np.random.Generator,
        interference_provider: Optional[Callable[[], bool]] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.name = name
        self.carrier = carrier
        self.sim = sim
        self.scanner = BluetoothScanner(
            name=f"{name}-scanner",
            model=model,
            position_provider=carrier.device_position,
            rng=rng,
            body_blocked_provider=carrier.body_blocks_radio,
            interference_provider=interference_provider,
            faults=faults,
        )
        self._rng = rng
        self.rssi_requests_served = 0

    # -- guard interactions -------------------------------------------------
    def app_wake_delay(self) -> float:
        """Background app activation latency after a push arrives."""
        return float(self._rng.uniform(0.08, 0.30))

    def measure_rssi(
        self,
        beacon: BluetoothBeacon,
        callback: Callable[[RssiSample], None],
    ) -> None:
        """Scan for ``beacon`` and deliver one sample asynchronously."""
        self.rssi_requests_served += 1

        def after_wake() -> None:
            self.scanner.scan(self.sim, beacon, callback)

        self.sim.schedule(self.app_wake_delay(), after_wake)

    def record_trace(
        self,
        beacon: BluetoothBeacon,
        callback: Callable[[List[RssiSample]], None],
        sample_count: int = TRACE_SAMPLE_COUNT,
        period: float = TRACE_SAMPLE_PERIOD,
    ) -> None:
        """Record ``sample_count`` RSSI samples, ``period`` apart.

        Used for floor-level traces: the Decision Module starts a trace
        whenever the stair motion sensor fires.
        """
        samples: List[RssiSample] = []

        def take_sample(now: float) -> None:
            samples.append(self.scanner.instant_rssi(beacon, now))
            if len(samples) >= sample_count:
                task.stop()
                callback(samples)

        task = PeriodicTask(self.sim, period, take_sample, first_delay=0.0)
        task.start()

    def walk_rssi(
        self,
        beacon: BluetoothBeacon,
        route: WalkRoute,
        started: Union[float, np.ndarray],
        times: Sequence[float],
    ) -> np.ndarray:
        """The RSSI :meth:`instant_rssi` would read at each of ``times``
        while the carrier walks ``route`` begun at ``started`` (one start,
        or one per time), computed in one array pass.

        Positions follow :attr:`Person.position` (a finished walk stands
        at its last waypoint) lifted to carrying height; the body-block
        rolls are one draw on the carrier's stream and the noise one draw
        on this device's, in the per-sample order.  Exact only while
        nothing else draws from either stream over the recorded span:
        true of pre-recorded walks (trace training, threshold
        calibration), not of live traces, where a push may arrive
        mid-trace.
        """
        times = np.asarray(times, dtype=np.float64)
        elapsed = times - started
        xs, ys, zs = route.coords_at(elapsed)
        done = elapsed >= route.duration
        end = route.waypoints[-1]
        xs = np.where(done, end.x, xs) + 0.0
        ys = np.where(done, end.y, ys) + 0.0
        zs = np.where(done, end.z, zs) + DEVICE_CARRY_HEIGHT
        blocked = self.carrier.body_blocks_radio_many(times.size)
        return self.scanner.model.sample_rssi_coords(
            beacon.position, xs, ys, zs, self._rng, blocked)

    def instant_rssi(self, beacon: BluetoothBeacon) -> float:
        """Synchronous single measurement (calibration helper)."""
        return self.scanner.instant_rssi(beacon, self.sim.now).rssi


class Smartphone(MobileDevice):
    """A phone (Pixel 5 / Pixel 4a in the paper's experiments)."""

    kind = "smartphone"


class Smartwatch(MobileDevice):
    """A wearable (Samsung Galaxy Watch4 in the office testbed)."""

    kind = "smartwatch"


class MotionSensor:
    """A Hue-like PIR sensor covering a region of the floor plan.

    It polls person positions (PIR refresh) and fires its callback when
    anyone is inside the covered region; a refractory period models the
    sensor's cooldown, so one stair traversal yields one event.

    Positions are lazy functions of the active walk and the clock, so a
    poll can only observe something new when somebody is walking (or
    just moved).  The sensor exploits that to *gate* its polling: polls
    inside the refractory window are skipped straight to the first
    grid instant past it (they return unconditionally anyway), and when
    every tracked person stands still outside the region the sensor
    sleeps entirely, re-joining its 0.25 s poll grid when a
    movement listener (:meth:`Person.add_movement_listener`) wakes it.
    The instants at which a poll *observes* anything are exactly the
    legacy schedule's, so fire times are bit-identical; only the no-op
    wakeups disappear.  ``repro.sim.compat`` legacy mode keeps the
    original poll-every-tick behaviour for the kernel benchmark.
    """

    POLL_PERIOD = 0.25
    REFRACTORY = 6.0

    def __init__(
        self,
        name: str,
        sim: Simulator,
        region: tuple,
        persons: List[Person],
        floor: Optional[int] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.name = name
        self.sim = sim
        self.region = region  # (x0, y0, x1, y1)
        self.persons = persons
        self.floor = floor
        self.faults = faults
        self.on_motion: Optional[Callable[[float], None]] = None
        self._last_fired = -1e9
        self.event_count = 0
        self.events_missed = 0
        self._stopped = True
        self._next_poll = 0.0
        self._poll_handle = None
        if compat.legacy_kernel_enabled():
            self._task = PeriodicTask(sim, self.POLL_PERIOD, self._poll, first_delay=self.POLL_PERIOD)
        else:
            self._task = None
            for person in persons:
                person.add_movement_listener(self._on_person_moved)

    def start(self) -> None:
        """Begin polling for motion."""
        if self._task is not None:
            self._task.start()
            return
        if not self._stopped:
            return
        self._stopped = False
        self._next_poll = self.sim.now + self.POLL_PERIOD
        self._schedule_next()

    def stop(self) -> None:
        """Stop polling."""
        if self._task is not None:
            self._task.stop()
            return
        self._stopped = True
        if self._poll_handle is not None:
            self._poll_handle.cancel()
            self._poll_handle = None

    def _covers(self, person: Person) -> bool:
        p = person.position
        x0, y0, x1, y1 = self.region
        return x0 <= p.x <= x1 and y0 <= p.y <= y1

    def _poll(self, now: float) -> None:
        if now - self._last_fired < self.REFRACTORY:
            return
        if any(self._covers(person) for person in self.persons):
            self._last_fired = now  # the traversal is consumed either way
            if self.faults is not None and self.faults.sensor_missed(self.name):
                # PIR dropout: the sensor sleeps through this traversal,
                # so the floor tracker never hears about it.
                self.events_missed += 1
                return
            self.event_count += 1
            if self.on_motion is not None:
                self.on_motion(now)

    # -- gated polling (optimized kernel) -------------------------------
    def _poll_event(self) -> None:
        self._poll_handle = None
        if self._stopped:
            return
        now = self._next_poll
        self._poll(now)
        # Advancing by repeated addition reproduces PeriodicTask's grid
        # exactly (each fire schedules the next at fire time + period).
        self._next_poll = now + self.POLL_PERIOD
        self._schedule_next()

    def _schedule_next(self) -> None:
        # Fast-forward through the refractory window: legacy polls in it
        # return before reading any position, so nothing observable can
        # happen until the first grid instant past it.  The loop repeats
        # the legacy per-tick comparison so the landing tick is
        # float-exact.
        t = self._next_poll
        last_fired = self._last_fired
        period = self.POLL_PERIOD
        refractory = self.REFRACTORY
        while t - last_fired < refractory:
            t += period
        self._next_poll = t
        if not any(p.walking for p in self.persons) and not any(
            self._covers(p) for p in self.persons
        ):
            # Everyone is standing still outside the region: coverage
            # cannot change until someone moves.  Sleep; the movement
            # listeners re-enter the poll grid.
            return
        self._poll_handle = self.sim.schedule_at(t, self._poll_event)

    def _on_person_moved(self) -> None:
        if self._stopped or self._poll_handle is not None:
            return
        # Re-join the poll grid at the next instant strictly after now.
        # (A poll at exactly `now` would have read the pre-move position
        # — known uncovered, or we would not have been asleep — so
        # skipping it changes nothing observable.)
        t = self._next_poll
        now = self.sim.now
        period = self.POLL_PERIOD
        if now - t > 64.0 * period:
            # After a long sleep, stepping tick by tick is O(gap).  The
            # grid lives on multiples of the (dyadic) poll period, where
            # one fused jump is float-exact, so land a few ticks short
            # and let the exact per-tick addition finish the walk.
            t += int((now - t) / period - 2.0) * period
        while t <= now:
            t += period
        self._next_poll = t
        self._schedule_next()
