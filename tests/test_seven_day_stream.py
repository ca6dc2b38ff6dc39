"""The idle-path stream, pinned in tier-1.

A shortened seven-day house/Echo run: two owners, 12 legitimate
commands and 8 replay attacks, spread over the paper's real timeline
(2700–4800 s of idle heartbeat traffic between episodes).  The fixture
``goldens/seven_day_stream.json`` holds:

* the SHA-256 of the guard event stream, over the same row fields as
  the repository benchmark's digest (``perfbench/workloads.py``);
* the exact packet count (delivered plus lost) and the exact number of
  packets numbered since the environment was built;
* the kernel events the workload fired, as a ceiling: a kernel that
  does the same work with fewer wakeups still passes.

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python -m pytest tests/test_seven_day_stream.py --update-goldens
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.experiments.scenarios import build_scenario
from repro.experiments.workload import SevenDayWorkload
from repro.net.packet import peek_packet_number
from repro.sim.simulator import Simulator

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "seven_day_stream.json"
SEED = 1
COMMANDS = (12, 8)  # legitimate commands, replay attacks
GAP = (2700.0, 4800.0)


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


def run_stream(monkeypatch) -> dict:
    fired = [0]
    run_until = Simulator.run_until

    def counting(sim, *args, **kwargs):
        count = run_until(sim, *args, **kwargs)
        fired[0] += count
        return count

    scenario = build_scenario("house", "echo", deployment=0, seed=SEED, owner_count=2)
    workload = SevenDayWorkload(scenario, episode_gap=GAP)
    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "run_until", counting)
        workload.run(*COMMANDS)
    scenario.speaker.settle_all()
    digest = hashlib.sha256(b"home 0\n")
    for event in scenario.guard.log.events:
        digest.update(repr(_stream_row(event)).encode())
    network = scenario.network
    return {
        "digest": digest.hexdigest(),
        "windows": len(scenario.guard.log.events),
        "packets": network.delivered_count + network.packets_lost,
        "packets_numbered": peek_packet_number() - 1,
        "kernel_events_max": fired[0],
        "sim_seconds": scenario.env.sim.now,
    }


def test_seven_day_stream_matches_golden(monkeypatch, update_goldens):
    result = run_stream(monkeypatch)
    assert result["windows"] >= sum(COMMANDS) - 2
    if update_goldens:
        GOLDEN.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
        pytest.skip(f"regenerated {GOLDEN.name}")
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert result["digest"] == expected["digest"]
    assert result["windows"] == expected["windows"]
    assert result["packets"] == expected["packets"]
    assert result["packets_numbered"] == expected["packets_numbered"]
    assert result["sim_seconds"] == expected["sim_seconds"]
    assert result["kernel_events_max"] <= expected["kernel_events_max"]
