"""Guard event streams of the house/Echo workload, pinned in tier-1.

Two cases, each with its own fixture under ``goldens/``:

``seven_day`` (``seven_day_stream.json``)
    A shortened seven-day run: two owners, 12 legitimate commands and
    8 replay attacks, spread over the paper's real timeline
    (:data:`~repro.experiments.workload.SEVEN_DAY_GAP` of idle
    heartbeat traffic between episodes).  Idle-time cost dominates.
``compressed_gap`` (``compressed_gap_stream.json``)
    Seed 11, 6 legitimate commands and 4 replay attacks at the
    workload's default ~1 minute gap.  Packet and guard work dominate.

Each fixture holds:

* the SHA-256 of the guard event stream (:meth:`GuardLog.stream`),
  over the same row fields as the repository benchmark's digest
  (``perfbench/workloads.py``);
* the exact packet count (delivered plus lost) and the exact number of
  packets numbered since the environment was built;
* the kernel events the workload fired, as a ceiling: a kernel that
  does the same work with fewer wakeups still passes, while idle
  polling or timer churn that fires no-op wakeups fails it.  (The
  pre-optimization kernel fired 353,529 events on the seven-day case
  against its ceiling of 52,995, and 7,476 on the compressed case
  against 3,697.)

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python -m pytest tests/test_seven_day_stream.py --update-goldens
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.experiments.scenarios import build_scenario
from repro.experiments.workload import SEVEN_DAY_GAP, SevenDayWorkload
from repro.net.packet import peek_packet_number
from repro.sim.simulator import Simulator

GOLDENS = pathlib.Path(__file__).parent / "goldens"

# name -> (seed, (legitimate commands, replay attacks), episode gap)
CASES = {
    "seven_day": (1, (12, 8), SEVEN_DAY_GAP),
    "compressed_gap": (11, (6, 4), None),
}


def run_stream(monkeypatch, seed, commands, gap) -> dict:
    fired = [0]
    run_until = Simulator.run_until

    def counting(sim, *args, **kwargs):
        count = run_until(sim, *args, **kwargs)
        fired[0] += count
        return count

    scenario = build_scenario("house", "echo", deployment=0, seed=seed, owner_count=2)
    workload = SevenDayWorkload(scenario, episode_gap=gap)
    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "run_until", counting)
        workload.run(*commands)
    scenario.speaker.settle_all()
    digest = hashlib.sha256(b"home 0\n")
    for row in scenario.guard.log.stream():
        digest.update(repr(row).encode())
    network = scenario.network
    return {
        "digest": digest.hexdigest(),
        "windows": len(scenario.guard.log.events),
        "packets": network.delivered_count + network.packets_lost,
        "packets_numbered": peek_packet_number() - 1,
        "kernel_events_max": fired[0],
        "sim_seconds": scenario.env.sim.now,
    }


def check_golden(case, monkeypatch, update_goldens) -> None:
    seed, commands, gap = CASES[case]
    result = run_stream(monkeypatch, seed, commands, gap)
    assert result["windows"] >= sum(commands) - 2
    golden = GOLDENS / f"{case}_stream.json"
    if update_goldens:
        golden.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
        pytest.skip(f"regenerated {golden.name}")
    expected = json.loads(golden.read_text(encoding="utf-8"))
    assert result["digest"] == expected["digest"]
    assert result["windows"] == expected["windows"]
    assert result["packets"] == expected["packets"]
    assert result["packets_numbered"] == expected["packets_numbered"]
    assert result["sim_seconds"] == expected["sim_seconds"]
    assert result["kernel_events_max"] <= expected["kernel_events_max"]


def test_seven_day_stream_matches_golden(monkeypatch, update_goldens):
    check_golden("seven_day", monkeypatch, update_goldens)


def test_compressed_gap_stream_matches_golden(monkeypatch, update_goldens):
    check_golden("compressed_gap", monkeypatch, update_goldens)
