"""The repository benchmark: one workload, timed or traced.

    python3 perfbench/run.py --workload seven_day --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  Each repetition runs in a fresh
interpreter (``rep.py``), so it pays the program's real start-up and
inherits no memo from the one before.  ``--trace 0`` repeats the
workload until ``--seconds`` have passed and reports the end-to-end
metrics.  Its throughputs divide the work by the *best time*: each
repetition's timed phase is cut into the same intervals, and the best
time adds up the fastest repetition's time for each interval, which
leaves out most of the time a shared machine lends to other tenants.
``--trace 1`` runs it once untraced, twice traced and once
under cProfile, and reports the per-layer metrics.

Every repetition's outcome is checked (see ``workloads.py``), and all
repetitions of one seed must produce the same guard event digest and
the same exact work counters.  Human-readable lines come first; the
last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only if every check
passed.  See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("seven_day", "burst_4spk", "fleet_full", "fleet_fast")
BUDGET_S = 170.0  # the whole run, children included, must end before this


class RunFailed(Exception):
    """A repetition crashed, timed out or printed no result."""


def repetition(args, mode: str, deadline: float, spans: Path = None) -> dict:
    """Run ``rep.py`` once in a fresh interpreter and parse its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    spawned_at = time.perf_counter()
    command = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--mode", mode,
               "--spawned-at", repr(spawned_at)]
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(deadline - spawned_at, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{mode} repetition passed the time budget") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(f"{mode} repetition exited {done.returncode}:\n"
                        + done.stderr[-4000:])
    return json.loads(lines[-1])


def same_behaviour(reps: list) -> list:
    """Violations of the determinism self-check across repetitions."""
    problems = []
    first = reps[0]["outcome"]
    for index, rep in enumerate(reps[1:], start=2):
        for key, value in rep["outcome"].items():
            if key != "violations" and json.dumps(value) != json.dumps(first[key]):
                problems.append(f"repetition {index} differs in {key}: "
                                f"{value!r} != {first[key]!r}")
    return problems


def best_time(reps: list) -> tuple:
    """The sum over intervals of each one's fastest time, and the
    check that every repetition was cut into the same intervals."""
    cuts = [rep["intervals"] for rep in reps]
    counts = sorted({len(c) for c in cuts})
    if len(counts) != 1:
        return float("nan"), [f"repetitions were cut into {counts} intervals; "
                              "the work must repeat exactly"]
    return sum(min(column) for column in zip(*cuts)), []


def rate(num: int, den: int) -> float:
    return num / den if den else float("nan")


def timed_run(args, deadline: float, units: dict) -> tuple:
    """Repeat untraced until ``--seconds`` pass; end-to-end metrics."""
    reps = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        reps.append(repetition(args, "timed", deadline))
        now = time.perf_counter()
        # Start another repetition only if it should end near the window:
        # runs then last about --seconds, and never past the budget.
        if (now + 0.5 * (now - began) > start + args.seconds
                or now + 2 * (now - began) > deadline):
            break
    out = reps[0]["outcome"]
    best, problems = best_time(reps)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "commands_per_s": out["decided"] / best,
        "homes_per_s": out["homes"] / best,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "decision_p50_s": out["p50_s"],
        "decision_p90_s": out["p90_s"],
        "legit_pass_rate": rate(out["legit_passed"], out["legit"]),
        "accuracy": rate(out["legit_passed"] + out["attacks_blocked"],
                         out["legit"] + out["attacks"]),
    }
    n = len(reps)
    samples = {
        "setup_s": f"median of {n} repetitions",
        "commands_per_s": f"{out['decided']} decisions in the best time",
        "homes_per_s": f"{out['homes']} homes in the best time",
        "peak_rss_mb": f"median of {n} repetitions",
        "decision_p50_s": f"{out['latency_samples']} decisions (simulated time)",
        "decision_p90_s": f"{out['latency_samples']} decisions (simulated time)",
        "legit_pass_rate": f"{out['legit_passed']}/{out['legit']} legitimate "
                           "commands executed",
        "accuracy": f"{out['legit_passed'] + out['attacks_blocked']}/"
                    f"{out['legit'] + out['attacks']} commands handled correctly",
    }
    print(f"perfbench {args.workload} seed {args.seed}: {n} repetitions, "
          f"{time.perf_counter() - start:.1f} s, untraced")
    for name in values:
        print(f"  {name:<18} {values[name]:>12.6g} {units[name]:<6} {samples[name]}")
    print(f"  {'false_block_rate':<18} "
          f"{rate(out['legit'] - out['legit_passed'], out['legit']):>12.6g} "
          f"{'ratio':<6} {out['legit'] - out['legit_passed']}/{out['legit']} "
          "legitimate commands not executed")
    print(f"  {'attack_block_rate':<18} "
          f"{rate(out['attacks_blocked'], out['attacks']):>12.6g} {'ratio':<6} "
          f"{out['attacks_blocked']}/{out['attacks']} attacks blocked")
    print(f"  {'failed_frac':<18} {rate(out['failed'], out['attempted']):>12.6g} "
          f"{'ratio':<6} {out['failed']}/{out['attempted']} command windows "
          "without a legitimate/malicious verdict")
    timed = sorted(rep["timed_s"] for rep in reps)
    print(f"  {'timed phase':<18} best time {best:.3f} s over "
          f"{len(reps[0]['intervals'])} intervals; repetitions min "
          f"{timed[0]:.3f} s, median {statistics.median(timed):.3f} s, "
          f"max {timed[-1]:.3f} s")
    return reps, values, problems


def traced_run(args, deadline: float, units: dict) -> tuple:
    """Two untraced and two traced repetitions, alternating, then one
    under cProfile.  The overhead compares the faster of each pair."""
    out_dir = ROOT / "perfbench-out"
    base, traced = [], []
    for k in (1, 2):
        base.append(repetition(args, "timed", deadline))
        traced.append(repetition(
            args, "traced", deadline,
            spans=out_dir / f"spans-{args.workload}-seed{args.seed}-{k}.jsonl"))
    profiled = repetition(args, "profile", deadline)
    reps = base + traced + [profiled]

    layers = dict(traced[0]["exact"])
    for name in traced[0]["host"]:
        layers[name] = statistics.mean(rep["host"][name] for rep in traced)
    layers["trace.overhead_frac"] = (min(rep["work_s"] for rep in traced)
                                     / min(rep["work_s"] for rep in base) - 1.0)
    drift = [f"exact counter {name} drifted between traced runs: "
             f"{value!r} != {traced[1]['exact'][name]!r}"
             for name, value in traced[0]["exact"].items()
             if value != traced[1]["exact"][name]]

    print(f"perfbench {args.workload} seed {args.seed}: traced "
          f"(overhead {layers['trace.overhead_frac']:.0%} of "
          f"{min(rep['work_s'] for rep in base):.2f} s untraced)")
    for name in sorted(layers):
        print(f"  {name:<30} {layers[name]:>14.6g} {units[name]}")
    traced_total = sum(traced[0]["shares"].values())
    profile_total = sum(profiled["shares"].values())
    print("  self-time share by layer:     traced  cProfile")
    for layer in sorted(set(traced[0]["shares"]) | set(profiled["shares"]),
                        key=lambda l: -traced[0]["shares"].get(l, 0.0)):
        t = traced[0]["shares"].get(layer)
        p = profiled["shares"].get(layer)
        if (t or 0.0) < 1e-4 and (p or 0.0) < 1e-4:
            continue
        print(f"    {layer:<26} "
              f"{(f'{t / traced_total:7.1%}' if t is not None else '      -')}  "
              f"{(f'{p / profile_total:7.1%}' if p is not None else '      -')}")
    return reps, layers, drift


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    # BENCHMARK.json names every metric the run must report, with its unit.
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    deadline = time.perf_counter() + BUDGET_S
    try:
        if args.trace:
            reps, metrics, problems = traced_run(args, deadline, units)
        else:
            reps, metrics, problems = timed_run(args, deadline, units)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems += same_behaviour(reps)
    for rep in reps:
        problems += rep["outcome"]["violations"]
    out = reps[0]["outcome"]
    print(f"  guard event digest {out['digest']} "
          f"({'identical on' if not problems else 'checked on'} {len(reps)} runs)")
    for problem in dict.fromkeys(problems):
        print(f"  CHECK FAILED: {problem}")
    print(f"  outcome checks: {'all passed' if not problems else 'FAILED'}")
    if sorted(units) != sorted(metrics):
        print("perfbench: measured metrics do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
