"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
pays the program's real cold start and sees no memo a previous one
filled.  It prints one JSON object on its last line of output.

Modes: ``timed`` runs untraced, but notes the time at the entry of
each call the workload's ``marks`` name; these cut the timed phase into
intervals that do the same work on every repetition of a seed (see
``run.py``).  ``traced`` wraps every layer's entry points (see
``ledger.py``) and adds the per-layer metrics; ``profile`` runs under
cProfile and adds the per-layer share of self time.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import time
from pathlib import Path


def layer_metrics(ledger, outcome) -> tuple:
    """Every per-layer metric of the traced run but the overhead, as
    (exact, host): exact counts and simulated-time quantities, which
    must repeat on the same seed, and host-time seconds."""
    from repro.obs.metrics import histogram_quantile

    counts = ledger.counts
    selfs = ledger.layer_self()
    sim_days = counts["sim.seconds"] / 86400.0
    commands = outcome.attempted
    counters = outcome.snapshot.get("counters", {})
    gauges = outcome.snapshot.get("gauges", {})
    histograms = outcome.snapshot.get("histograms", {})

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    def quantile(name: str, q: float) -> float:
        hist = histograms.get(name)
        return histogram_quantile(hist, q) if hist and hist["count"] else 0.0

    held = counters.get("proxy.records_held", 0)
    forwarded = counters.get("proxy.records_forwarded", 0)
    windows = counters.get("recognition.windows_opened", 0)
    queries = counters.get("decision.queries", 0)
    batched = counters.get("decision.batched_settlements", 0)
    builds = counts["pool.template_builds"]
    acquires = ledger.calls("ScenarioPool.acquire")
    exact = {
        "sim.events_per_sim_day": ratio(ledger.calls("dispatch"), sim_days),
        "sim.heap_pushes_per_sim_day": ratio(
            ledger.calls("EventQueue.push", "EventQueue.post"), sim_days),
        "link.packets_per_command": ratio(ledger.calls("Network.send"), commands),
        "tcp.segments_per_command": ratio(counts["tcp.segments"], commands),
        "tcp.records_sent": ledger.calls("TcpConnection.send_record"),
        "proxy.intercepts": ledger.calls("TransparentProxy.intercept"),
        "proxy.hold_ratio": ratio(held, held + forwarded),
        "proxy.held_bytes_peak": gauges.get("proxy.held_bytes", {}).get("high_water", 0),
        "recognition.windows": windows,
        "recognition.command_ratio": ratio(
            counters.get("recognition.classified.command", 0), windows),
        "decision.queries": queries,
        "decision.batch_ratio": ratio(batched, queries + batched),
        "decision.queue_wait_p90_s": quantile("decision.queue_wait", 0.90),
        "push.sent": counters.get("push.sent", 0),
        "push.round_trip_p50_s": quantile("push.round_trip", 0.50),
        "radio.calls": ledger.layer_calls("radio"),
        "floor.traces": counters.get("floor.traces_recorded", 0),
        "pool.template_builds": builds,
        "pool.reuse_ratio": 1.0 - ratio(builds, acquires) if acquires else 0.0,
    }
    host = {
        "pool.template_s": counts["pool.template_s"],
        "pool.restore_s": ledger.inclusive("ScenarioPool.acquire")
        - ledger.inclusive("ScenarioPool.template"),
        "setup.build_s": ledger.inclusive("build_scenario"),
        "setup.calibration_s": ledger.inclusive("ThresholdCalibrator.calibrate"),
        "setup.training_s": ledger.inclusive("train_trace_classifier",
                                             "train_window_recognizer"),
        "fleet.model_s": ledger.inclusive("simulate_home"),
        "synthesis.home_s": ledger.inclusive("PopulationModel.home"),
        "fleet.reduce_s": ledger.inclusive("FleetAccumulator.add_home",
                                           "FleetAccumulator.merge_payload",
                                           "FleetAccumulator.to_payload"),
        "trace.unattributed_frac": ratio(selfs["unattributed"], ledger.wall_s),
    }
    for layer in ("sim", "link", "tcp", "proxy", "speakers", "recognition",
                  "decision", "radio", "floor", "home"):
        host[f"{layer}.self_s"] = selfs[layer]
    return exact, host


class Marks:
    """``perf_counter()`` at the entry of every call to the wrapped
    methods; with the start and end of the timed phase, they cut it
    into consecutive intervals."""

    def __init__(self, targets) -> None:
        self.times = []
        for owner, attr in targets:
            self._wrap(owner, attr)

    def _wrap(self, owner, attr: str) -> None:
        call = getattr(owner, attr)
        note = self.times.append
        clock = time.perf_counter

        @functools.wraps(call)
        def marked(*args, **kwargs):
            note(clock())
            return call(*args, **kwargs)

        setattr(owner, attr, marked)

    def intervals(self, start: float, end: float) -> list:
        cuts = [start] + self.times + [end]
        return [b - a for a, b in zip(cuts, cuts[1:])]


def write_spans(ledger, path: Path) -> None:
    """The kept spans as JSON lines, times relative to the run start."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = min((span[3] for span in ledger.spans), default=0.0)
    with path.open("w", encoding="utf-8") as out:
        for span_id, parent, name, start, end, unit in ledger.spans:
            out.write(json.dumps({
                "id": span_id, "parent": parent, "name": name,
                "start_s": start - origin, "end_s": end - origin, "unit": unit,
            }) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "profile"),
                        default="timed")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's perf_counter() just before spawning")
    parser.add_argument("--spans", type=Path, default=None,
                        help="where the traced mode writes its kept spans")
    args = parser.parse_args()

    import workloads

    spec = workloads.WORKLOADS[args.workload]
    ledger = profile = None
    if args.mode == "traced":
        from ledger import Ledger

        ledger = Ledger()
        ledger.install(extra=((workloads, "drive_burst", "workload"),))
        ledger.start()
    elif args.mode == "profile":
        import cProfile

        profile = cProfile.Profile()
        profile.enable()
    work_start = time.perf_counter()
    state = spec.setup(args.seed)
    marks = Marks(spec.marks) if args.mode == "timed" else None
    first_step = time.perf_counter()
    result = spec.run(state)
    end = time.perf_counter()
    if ledger is not None:
        ledger.stop()
    if profile is not None:
        profile.disable()
    outcome = spec.outcome(state, result)

    report = {
        "setup_s": first_step - args.spawned_at,
        "timed_s": end - first_step,
        "work_s": end - work_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcome": {key: value for key, value in vars(outcome).items()
                    if key != "snapshot"},
    }
    if marks is not None:
        report["intervals"] = marks.intervals(first_step, end)
    if ledger is not None:
        report["exact"], report["host"] = layer_metrics(ledger, outcome)
        report["shares"] = ledger.layer_self()
        if args.spans is not None:
            write_spans(ledger, args.spans)
    if profile is not None:
        from ledger import profile_shares

        report["shares"] = profile_shares(profile)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
