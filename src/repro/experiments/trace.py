"""``repro trace``: one traced scenario, rendered from spans alone.

Runs a short, fixed workload — a couple of owner commands followed by a
replayed attack — with span tracing enabled, then renders the per-command
waterfall and the phase-timing table (the paper's Figure 4 timeline:
recognition -> hold -> decision -> release/discard) plus the guard's
metric snapshot.  Everything shown is reconstructed from the span
forest, not from guard internals, so the report doubles as a living
check of the instrumentation contract.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

from repro.analysis.reporting import render_metrics_snapshot
from repro.audio.speech import full_utterance_duration
from repro.audio.voiceprint import replay_of
from repro.experiments.scenarios import Scenario, build_scenario
from repro.obs.export import (
    WINDOW_SPAN,
    phase_breakdown,
    render_phase_table,
    render_waterfall,
    write_spans_jsonl,
)
from repro.obs.tracer import SpanTracer
from repro.radio.geometry import distance

SETTLE_AFTER_COMMAND = 12.0  # sim-seconds for a verdict + cloud reply
SETTLE_AFTER_ATTACK = 20.0  # discard + TLS desync + reconnect


@dataclass
class TraceReport:
    """The traced run: its span forest and the rendered views."""

    scenario_name: str
    tracer: SpanTracer
    metrics: dict

    def render(self) -> str:
        """Waterfall + phase table + metrics, as one text report."""
        sections = [
            f"Traced scenario: {self.scenario_name}",
            render_waterfall(self.tracer, roots=[WINDOW_SPAN]),
            render_phase_table(phase_breakdown(self.tracer)),
            render_metrics_snapshot(self.metrics),
        ]
        return "\n\n".join(section for section in sections if section)

    def write_jsonl(self, path) -> pathlib.Path:
        """Dump the full span forest (every root, not just commands)."""
        return write_spans_jsonl(self.tracer, path)


def _speak(scenario: Scenario, rng, source=None) -> float:
    """Issue one owner command (or a replay of it from ``source``)."""
    env = scenario.env
    owner = scenario.owners[0]
    command = scenario.corpus.sample(rng)
    duration = full_utterance_duration(command, rng)
    utterance = owner.speak(command.text, duration)
    if source is None:
        env.play_utterance(utterance, owner.device_position())
    else:
        env.play_utterance(replay_of(utterance, rng), source)
    return duration


def run_trace(
    testbed_name: str = "house",
    speaker_kind: str = "echo",
    seed: int = 3,
    legit: int = 2,
    attacks: int = 1,
    deployment: int = 0,
) -> TraceReport:
    """Run the fixed trace workload with span collection enabled."""
    scenario = build_scenario(
        testbed_name,
        speaker_kind,
        deployment=deployment,
        seed=seed,
        owner_count=1,
        with_floor_tracking=False,
        tracing=True,
    )
    env = scenario.env
    owner = scenario.owners[0]
    rng = env.rng.stream("trace.workload")

    # Owner beside the speaker: these commands should release.
    speaker_room = env.testbed.speaker_room(deployment)
    owner.teleport(speaker_room.center(height=0.0))
    for _ in range(legit):
        duration = _speak(scenario, rng)
        env.sim.run_for(duration + SETTLE_AFTER_COMMAND)

    # Owner in the farthest room; the replay plays beside the speaker
    # and should be blocked (the paper's Figure 4 case III).
    if attacks:
        far_room = max(
            env.testbed.plan.rooms.values(),
            key=lambda room: distance(room.center(height=1.2),
                                      env.speaker_beacon.position),
        )
        owner.teleport(far_room.center(height=0.0))
        attack_source = speaker_room.center(height=1.0)
        for _ in range(attacks):
            duration = _speak(scenario, rng, source=attack_source)
            env.sim.run_for(duration + SETTLE_AFTER_ATTACK)

    return TraceReport(
        scenario_name=scenario.name,
        tracer=env.obs.tracer,
        metrics=env.obs.metrics.snapshot(),
    )
