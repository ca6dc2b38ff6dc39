#!/usr/bin/env python
"""Sim-kernel benchmark: wall time of the house/echo workload.

Times the paper's Table II house/echo/loc1 workload (91 legitimate
commands and 69 replay attacks, seed 11) on two cells, measuring only
the workload phase:

``compressed_gap``
    The workload's default ~1 minute of idle between command episodes.
    Packet and guard work dominate.

``seven_day``
    The same episodes spread over the paper's real seven days
    (:data:`repro.experiments.workload.SEVEN_DAY_GAP`).  Idle heartbeat
    traffic, keepalives and the gated motion sensor dominate; a kernel
    that polls or churns timers through the idle stretches shows here.

Every repeat must reproduce the first one's guard event stream
(:meth:`repro.core.events.GuardLog.stream`) and final simulated clock
exactly, or the bench refuses to publish a number.  Each cell's stream
digest is the SHA-256 the stream goldens and ``perfbench`` use, so a
digest change names the cell whose behaviour moved.  Kernel event
counts are gated exactly by ``tests/test_seven_day_stream.py``; this
bench reports wall time, which ``benchmarks/compare_benches.py`` gates
against the committed ``BENCH_sim.json``.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/bench_sim.py

Writes ``benchmarks/results/BENCH_sim.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import pathlib
import platform
import time

import numpy as np

from repro.experiments.scenarios import build_scenario
from repro.experiments.workload import (
    SEVEN_DAY_COUNTS,
    SEVEN_DAY_GAP,
    SevenDayWorkload,
)

CELLS = (
    ("compressed_gap", None),
    ("seven_day", SEVEN_DAY_GAP),
)


def stream_digest(stream) -> str:
    """SHA-256 of a guard event stream, as the stream goldens hash it."""
    digest = hashlib.sha256(b"home 0\n")
    for row in stream:
        digest.update(repr(row).encode())
    return digest.hexdigest()


def run_cell(seed: int, gap) -> tuple:
    """One workload run; returns (workload seconds, stream, sim.now).

    Scenario construction is excluded from the timing; the clock starts
    when the workload starts.
    """
    gc_was_enabled = gc.isenabled()
    try:
        scenario = build_scenario("house", "echo", deployment=0, seed=seed,
                                  owner_count=2, tracing=False)
        workload = SevenDayWorkload(scenario, episode_gap=gap)
        # Collector pauses depend on how much garbage earlier runs left
        # behind; the workload creates no reference cycles, so it is
        # timed with the collector off, after one explicit collection.
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        workload.run(*SEVEN_DAY_COUNTS)
        scenario.speaker.settle_all()
        elapsed = time.perf_counter() - start
        return elapsed, scenario.guard.log.stream(), scenario.sim.now
    finally:
        if gc_was_enabled:
            gc.enable()


def run_bench(seed: int = 11, repeats: int = 3) -> dict:
    """Time both cells, interleaved; the minimum per cell is reported."""
    times = {name: [] for name, _ in CELLS}
    reference = {}
    for _ in range(max(1, repeats)):
        for name, gap in CELLS:
            elapsed, stream, now = run_cell(seed, gap)
            times[name].append(elapsed)
            first = reference.setdefault(name, (stream, now))
            if stream != first[0]:
                raise AssertionError(
                    f"{name}: the guard event stream changed between repeats"
                )
            if now != first[1]:
                raise AssertionError(
                    f"{name}: final sim clock diverged ({now!r} != {first[1]!r})"
                )
    cells = {}
    for name, gap in CELLS:
        stream, now = reference[name]
        cells[name] = {
            "episode_gap_s": list(gap) if gap else None,
            "fast_s": round(min(times[name]), 4),
            "runs_s": [round(t, 4) for t in times[name]],
            "command_events": len(stream),
            "sim_days": round(now / 86400.0, 3),
            "stream_digest": stream_digest(stream),
        }
    legit, malicious = SEVEN_DAY_COUNTS
    return {
        "bench": "sim_kernel",
        "scenario": "house/echo/loc1",
        "legit_count": legit,
        "malicious_count": malicious,
        "seed": seed,
        "repeats": max(1, repeats),
        "streams_identical": True,  # asserted above, on every repeat
        "cells": cells,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def render(payload: dict) -> str:
    lines = [
        f"sim kernel bench — {payload['scenario']}, "
        f"{payload['legit_count']}+{payload['malicious_count']} commands, "
        f"seed {payload['seed']}, best of {payload['repeats']}:",
    ]
    for name, cell in payload["cells"].items():
        lines.append(
            f"  {name:<15} {cell['fast_s']:>7.3f}s  {cell['sim_days']:>6.2f} "
            f"sim days  {cell['command_events']} events  "
            f"stream {cell['stream_digest'][:16]}"
        )
    lines.append("  guard event stream + final sim clock: identical on every repeat")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved runs per cell (the minimum is reported)")
    parser.add_argument("--output", default="benchmarks/results/BENCH_sim.json")
    args = parser.parse_args(argv)

    payload = run_bench(seed=args.seed, repeats=args.repeats)
    print(render(payload))

    target = pathlib.Path(args.output)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"(written to {target})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
