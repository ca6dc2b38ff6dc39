"""The benchmark's workloads, driven only through the program's public calls.

Each workload has a set-up phase (everything before the first timed
step) and a timed phase, and returns an :class:`Outcome` read from
public state: the guard log, the observability registry, the speakers'
interaction records and the fleet accumulator.  The outcome carries the
checks every run must pass and a SHA-256 digest of the guard event
stream, so two versions of the program can be shown to behave the same.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.audio.speech import full_utterance_duration
from repro.core.config import VoiceGuardConfig
from repro.core.decision import Verdict
from repro.experiments import fleet, pool, scenarios, synthesis
from repro.experiments.workload import SevenDayWorkload
from repro.obs.metrics import merge_snapshots
from repro.sim.simulator import Simulator

# seven_day: the paper's house/Echo Dot cell over its real timeline.
SEVEN_DAY_COMMANDS = (91, 69)  # legitimate commands, replay attacks
SEVEN_DAY_GAP = (2700.0, 4800.0)  # idle seconds between episodes

# burst_4spk: the load test's coordinated cell at its "high" rate.
BURST_SPEAKERS = 4
BURST_UTTERANCES = 256
BURST_IDLE_MEAN = 2.0  # mean idle seconds between bursts
BURST_MAX = 3  # utterances per burst, drawn uniformly from 1..BURST_MAX
BURST_SPACING = 3.0  # silence after each utterance inside a burst
BURST_DRAIN = 15.0  # after max_hold, for response playback

# fleet_full: the default population's testbed mix (40/35/25), drawn as
# fixed home counts.  A house template build costs about ten times an
# apartment or office one, and free draws of 24 homes held 6 to 18
# houses over ten seeds; host time followed.
FLEET_FULL_STRATA = (("house", 5), ("apartment", 4), ("office", 3))
FLEET_FULL_HOMES = sum(count for _, count in FLEET_FULL_STRATA)
FLEET_FAST_HOMES = 10_000

DECIDED = (Verdict.LEGITIMATE, Verdict.MALICIOUS)


@dataclass
class Outcome:
    """What one timed phase produced, read from public state."""

    homes: int
    attempted: int  # command windows (fleet: decisions)
    decided: int  # windows that reached any verdict
    failed: int  # windows without a legitimate/malicious verdict
    latency_samples: int  # decisions with a latency
    p50_s: float  # window open -> verdict, seconds
    p90_s: float
    legit: int
    legit_passed: int
    attacks: int
    attacks_blocked: int
    digest: str
    snapshot: dict  # guard metrics registry (fleet: merged over homes)
    violations: List[str] = field(default_factory=list)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- guard outcome, checks and digest -----------------------------------------

def _stream_row(event) -> tuple:
    return (
        event.window_id, event.flow_id, event.speaker_ip, event.protocol,
        event.opened_at,
        event.classification.value if event.classification else None,
        event.classified_at, event.classify_packet_count,
        event.verdict.value if event.verdict else None,
        event.verdict_at, event.released_at, event.discarded_at,
        event.held_records, tuple(repr(report) for report in event.rssi_reports),
    )


def guard_checks(log, snapshot: dict, label: str) -> List[str]:
    """The guard's invariants at the end of a run."""
    violations = []
    for event in log.events:
        ends = (event.released_at is not None) + (event.discarded_at is not None)
        if ends != 1:
            violations.append(f"{label}: window {event.window_id} has {ends} "
                              "terminal outcomes")
        if event.verdict is Verdict.MALICIOUS and event.released_at is not None:
            violations.append(f"{label}: window {event.window_id} released "
                              "after a malicious verdict")
    gauges = snapshot["gauges"]
    for gauge in ("proxy.held_bytes", "proxy.held_records"):
        value = gauges.get(gauge, {}).get("value", 0)
        if value != 0:
            violations.append(f"{label}: gauge {gauge} ends at {value}")
    counters = snapshot["counters"]
    held = counters.get("proxy.records_held", 0)
    resolved = counters.get("proxy.records_resolved", 0)
    if held != resolved:
        violations.append(f"{label}: records_held {held} != records_resolved "
                          f"{resolved}")
    return violations


def guard_outcome(logs_and_registries, records, homes: int) -> Outcome:
    """Fold guard logs, registries and interaction records."""
    digest = hashlib.sha256()
    violations: List[str] = []
    snapshots = []
    attempted = decided = failed = 0
    latencies: List[float] = []
    for index, (log, registry) in enumerate(logs_and_registries):
        snapshot = registry.snapshot()
        snapshots.append(snapshot)
        violations += guard_checks(log, snapshot, f"home {index}")
        digest.update(f"home {index}\n".encode())
        for event in log.events:
            digest.update(repr(_stream_row(event)).encode())
        for event in log.commands():
            attempted += 1
            decided += event.verdict is not None
            failed += event.verdict not in DECIDED
            if event.verdict_at is not None:
                latencies.append(event.decision_latency)
    executed = [r.executed_at is not None for r in records if not r.is_attack]
    blocked = [r.executed_at is None for r in records if r.is_attack]
    return Outcome(
        homes=homes, attempted=attempted, decided=decided, failed=failed,
        latency_samples=len(latencies),
        p50_s=percentile(latencies, 0.50) if latencies else float("nan"),
        p90_s=percentile(latencies, 0.90) if latencies else float("nan"),
        legit=len(executed), legit_passed=sum(executed),
        attacks=len(blocked), attacks_blocked=sum(blocked),
        digest=digest.hexdigest(), snapshot=merge_snapshots(snapshots),
        violations=violations,
    )


# -- seven_day ----------------------------------------------------------------

def setup_seven_day(seed: int):
    scenario = scenarios.build_scenario("house", "echo", deployment=0, seed=seed,
                                        owner_count=2)
    return scenario, SevenDayWorkload(scenario, episode_gap=SEVEN_DAY_GAP)


def run_seven_day(state):
    scenario, workload = state
    workload.run(*SEVEN_DAY_COMMANDS)
    return scenario.speaker.settle_all()


def seven_day_outcome(state, records) -> Outcome:
    scenario, _workload = state
    return guard_outcome([(scenario.guard.log, scenario.env.obs.metrics)],
                         records, homes=1)


# -- burst_4spk ---------------------------------------------------------------

def setup_burst(seed: int):
    config = VoiceGuardConfig(max_concurrent_queries=2, decision_batching=True,
                              held_byte_budget=65_536)
    scenario = scenarios.build_scenario("apartment", "echo", seed=seed,
                                        config=config)
    for _ in range(BURST_SPEAKERS - 1):
        scenarios.add_echo_speaker(scenario)
    scenario.settle()
    return scenario


def drive_burst(scenario) -> None:
    """Bursts of owner commands, every one heard by every speaker."""
    env = scenario.env
    rng = env.rng.stream("loadtest.arrivals")
    owner = scenario.owners[0]
    issued = 0
    while issued < BURST_UTTERANCES:
        burst = min(int(rng.integers(1, BURST_MAX + 1)), BURST_UTTERANCES - issued)
        for _ in range(burst):
            command = scenario.corpus.sample(rng)
            duration = full_utterance_duration(command, rng)
            utterance = owner.speak(command.text, duration)
            env.play_utterance(utterance, owner.device_position())
            issued += 1
            env.sim.run_for(duration + BURST_SPACING)
        env.sim.run_for(float(rng.exponential(BURST_IDLE_MEAN)))
    env.sim.run_for(scenario.guard.config.max_hold + BURST_DRAIN)


def run_burst(scenario):
    drive_burst(scenario)
    return [r for speaker in scenario.all_speakers for r in speaker.settle_all()]


def burst_outcome(scenario, records) -> Outcome:
    return guard_outcome([(scenario.guard.log, scenario.env.obs.metrics)],
                         records, homes=1)


# -- fleets -------------------------------------------------------------------

class Recorder:
    """Wraps one public call and keeps part of each result for the checks."""

    def __init__(self, owner, attr: str, keep: Callable) -> None:
        self.kept: List = []
        call = getattr(owner, attr)

        def recorded(*args):
            result = call(*args)
            self.kept.append(keep(result))
            return result

        setattr(owner, attr, recorded)


def fleet_outcome(acc, expected_homes: int, homes=(), latencies_us=None) -> Outcome:
    """Fold a fleet accumulator, checking its totals against the home count.

    ``homes`` holds each full-fidelity home's (guard log, registry) as
    the pool handed it out; ``latencies_us`` each fast home's decision
    latencies.  Percentiles come from these exact values: the fleet's
    own sketch rounds them to 1 % buckets.
    """
    totals = acc.totals()
    violations = []
    counted = (acc.metrics or {}).get("counters", {}).get("fleet.homes")
    if totals["homes"] != expected_homes or counted != expected_homes:
        violations.append(f"fleet counted {totals['homes']} homes "
                          f"({counted} in metrics), expected {expected_homes}")
    for small, large in (("false_blocks", "legit_commands"),
                         ("attacks_blocked", "attacks"),
                         ("timeouts", "decisions"),
                         ("homes_attacked", "homes")):
        if totals[small] > totals[large]:
            violations.append(f"fleet {small} {totals[small]} > {large} "
                              f"{totals[large]}")
    guard = guard_outcome(homes, [], len(homes))
    violations += guard.violations
    if homes:
        if len(homes) != expected_homes:
            violations.append(f"pool handed out {len(homes)} homes, expected "
                              f"{expected_homes}")
        samples, p50, p90 = guard.latency_samples, guard.p50_s, guard.p90_s
    else:
        values = sorted((np.concatenate(latencies_us) / 1e6).tolist())
        samples = len(values)
        p50, p90 = percentile(values, 0.50), percentile(values, 0.90)
    sketched = acc.total_sketch().count
    if samples != sketched:
        violations.append(f"{samples} decision latencies, the fleet sketch "
                          f"holds {sketched}")
    digest = hashlib.sha256(guard.digest.encode())
    digest.update(json.dumps(acc.to_payload(), sort_keys=True).encode())
    return Outcome(
        homes=totals["homes"], attempted=totals["decisions"],
        decided=totals["decisions"], failed=totals["timeouts"],
        latency_samples=samples, p50_s=p50, p90_s=p90,
        legit=totals["legit_commands"],
        legit_passed=totals["legit_commands"] - totals["false_blocks"],
        attacks=totals["attacks"], attacks_blocked=totals["attacks_blocked"],
        digest=digest.hexdigest(),
        snapshot=guard.snapshot if homes else (acc.metrics or {}),
        violations=violations,
    )


def setup_fleet_full(seed: int):
    homes = Recorder(pool.ScenarioPool, "acquire",
                     lambda scenario: (scenario.guard.log, scenario.env.obs.metrics))
    configs = [
        fleet.FleetConfig(homes=count, seed=seed * len(FLEET_FULL_STRATA) + k,
                          fidelity="full",
                          population=synthesis.PopulationModel(
                              testbed_mix=((testbed, 1.0),)))
        for k, (testbed, count) in enumerate(FLEET_FULL_STRATA)
    ]
    return configs, homes


def run_fleet_full(state):
    configs, _recorder = state
    merged = fleet.FleetAccumulator()
    for config in configs:
        merged.merge_payload(fleet.run_fleet(config, workers=1).accumulator.to_payload())
    return merged


def fleet_full_outcome(state, acc) -> Outcome:
    _configs, homes = state
    return fleet_outcome(acc, FLEET_FULL_HOMES, homes=homes.kept)


def run_fleet(state):
    config, _recorder = state
    return fleet.run_fleet(config, workers=1)


def setup_fleet_fast(seed: int):
    synthesis.warm_worlds(synthesis.PopulationModel())
    latencies = Recorder(fleet, "simulate_home", lambda summary: summary.latencies_us)
    return fleet.FleetConfig(homes=FLEET_FAST_HOMES, seed=seed,
                             fidelity="fast"), latencies


def fleet_fast_outcome(state, result) -> Outcome:
    config, latencies = state
    return fleet_outcome(result.accumulator, config.homes,
                         latencies_us=latencies.kept)


@dataclass(frozen=True)
class Workload:
    """``setup(seed)`` builds the state (counted in ``setup_s``);
    ``run(state)`` is the timed phase; ``outcome(state, result)`` reads
    the result afterwards, untimed.  ``marks`` names the public calls
    whose entries cut the timed phase into intervals (see ``rep.py``)."""

    setup: Callable
    run: Callable
    outcome: Callable
    marks: tuple = ((Simulator, "run_until"),)


WORKLOADS: Dict[str, Workload] = {
    "seven_day": Workload(setup_seven_day, run_seven_day, seven_day_outcome),
    "burst_4spk": Workload(setup_burst, run_burst, burst_outcome),
    "fleet_full": Workload(setup_fleet_full, run_fleet_full, fleet_full_outcome),
    "fleet_fast": Workload(setup_fleet_fast, run_fleet, fleet_fast_outcome,
                           marks=((fleet, "simulate_home"),)),
}
