"""The RSSI-threshold calibration app (paper Section IV-C).

The user switches the app on, walks around the speaker's room (e.g.
along the walls), and the app samples the speaker's Bluetooth RSSI
every 0.5 s; when the walk ends, the minimum of the measured values
becomes the device's RSSI threshold.  Everywhere the user could stand
in the room therefore reads at or above the threshold, while other
rooms — behind walls or floors — read below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.home.devices import MobileDevice
from repro.home.environment import HomeEnvironment
from repro.radio.floorplan import Room
from repro.radio.geometry import Point
from repro.radio.testbeds import WalkRoute

SAMPLE_PERIOD = 0.5  # the app samples every 0.5 s


def perimeter_route(room: Room, inset: float = 0.5, laps: int = 1,
                    speed: float = 1.0) -> WalkRoute:
    """A walking route along the room's walls, ``inset`` metres in."""
    x0, y0 = room.x0 + inset, room.y0 + inset
    x1, y1 = room.x1 - inset, room.y1 - inset
    if x0 >= x1 or y0 >= y1:
        raise ConfigError(f"room {room.name!r} is too small for inset {inset}")
    z = room.z_floor
    corners = [Point(x0, y0, z), Point(x1, y0, z), Point(x1, y1, z), Point(x0, y1, z)]
    waypoints = []
    for _ in range(laps):
        waypoints.extend(corners)
    waypoints.append(corners[0])
    length = laps * 2.0 * ((x1 - x0) + (y1 - y0))
    return WalkRoute(f"calibrate-{room.name}", waypoints, duration=length / speed)


@dataclass
class CalibrationResult:
    """Outcome of one calibration walk."""

    device_name: str
    room_name: str
    threshold: float
    samples: List[float] = field(default_factory=list)

    @property
    def sample_count(self) -> int:
        """Number of samples taken during the walk."""
        return len(self.samples)


# Memoized calibration walks, keyed by the caller's *world bucket*
# (quantized geometry + deployment + device mix + build seed) plus the
# walk parameters.  A calibration walk is a deterministic function of
# that bucket, so within one process it only needs to run once per
# bucket; later builds replay the stored result while advancing the sim
# clock by exactly the walk's duration, keeping event timelines aligned
# with a memo-cold build.  (RNG stream *states* do diverge — the walk's
# sampling draws are skipped — which is why the scenario pool re-seeds
# every stream per home afterwards; see repro.experiments.pool.rehome.)
_CALIBRATION_MEMO: Dict[tuple, Tuple["CalibrationResult", float]] = {}


def clear_calibration_memo() -> None:
    """Drop memoized calibration walks (tests / cold benchmarks)."""
    _CALIBRATION_MEMO.clear()


class ThresholdCalibrator:
    """Runs the calibration walk inside the simulation.

    Note: :meth:`calibrate` *advances the simulator* by the duration of
    the walk; run calibrations during experiment setup, before any
    traffic of interest.  ``memo_bucket`` (a hashable description of
    everything that determines the walk — geometry, deployment, build
    seed) enables the per-bucket memo above; leave it ``None`` for the
    always-recompute behaviour.
    """

    def __init__(self, env: HomeEnvironment,
                 memo_bucket: Optional[tuple] = None) -> None:
        self.env = env
        self.memo_bucket = memo_bucket

    def calibrate(
        self,
        device: MobileDevice,
        room: Room,
        laps: int = 1,
        inset: float = 0.5,
    ) -> CalibrationResult:
        """Walk ``device``'s carrier around ``room`` and compute the
        threshold as the minimum sampled RSSI."""
        memo_key = None
        if self.memo_bucket is not None:
            memo_key = (self.memo_bucket, device.name, device.kind,
                        room.name, laps, inset)
            hit = _CALIBRATION_MEMO.get(memo_key)
            if hit is not None:
                result, duration = hit
                # Advance the clock exactly as the walk would have, so
                # everything scheduled later lands at the same instants
                # as in a memo-cold build.
                self.env.sim.run_for(duration)
                return result
        route = perimeter_route(room, inset=inset, laps=laps)
        carrier = device.carrier
        return_point = carrier.position
        carrier.follow(route)
        sim = self.env.sim
        started = sim.now
        end_time = started + route.duration
        # Walk through the same run_until chain a per-sample loop takes,
        # noting each sample instant; then compute every sample in one
        # pass (exact: nothing else draws from the device's or the
        # carrier's stream during the walk).
        instants: List[float] = []
        while sim.now < end_time:
            instants.append(sim.now)
            sim.run_until(min(sim.now + SAMPLE_PERIOD, end_time))
        carrier.teleport(return_point)
        if not instants:
            raise ConfigError("calibration walk produced no samples")
        samples = device.walk_rssi(self.env.speaker_beacon, route, started,
                                   instants).tolist()
        result = CalibrationResult(
            device_name=device.name,
            room_name=room.name,
            threshold=min(samples),
            samples=samples,
        )
        if memo_key is not None:
            _CALIBRATION_MEMO[memo_key] = (result, route.duration)
        return result
