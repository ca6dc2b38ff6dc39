"""Per-layer cost ledger for the traced run.

The program carries no wall-clock instrumentation of its own, so the
benchmark wraps public entry points of every layer from the outside
and times them.  Each wrapped call is a span; a layer's *self time* is
the time its spans cover minus the time their child spans cover.
Totals fold into per-entry-point counters as calls return, so memory
stays flat however many calls a run makes; full span records are kept
only for the coarse entry points and for a bounded sample of the rest.

Callbacks the event loop dispatches are wrapped as ``dispatch`` spans.
When a dispatched callback is a private function (a TCP timer, a link
delivery), its own code is in no layer's entry point, and its time is
reported as unattributed rather than guessed.

The same module-to-layer map groups a cProfile run, so the two share
tables can be compared side by side (``profile_shares``).
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# Longest matching module prefix wins.  The layer names are the ones
# the per-layer metrics use.
LAYER_BY_MODULE: Dict[str, str] = {
    "repro.sim": "sim",
    "repro.net": "link",
    "repro.net.tcp": "tcp",
    "repro.net.tls": "tcp",
    "repro.net.proxy": "proxy",
    "repro.speakers": "speakers",
    "repro.core": "decision",
    "repro.core.recognition": "recognition",
    "repro.core.recognizers": "recognition",
    "repro.core.signature_learning": "recognition",
    "repro.core.floor": "floor",
    "repro.core.threshold": "setup",
    "repro.home": "home",
    "repro.home.push": "push",
    "repro.radio": "radio",
    "repro.experiments.scenarios": "setup",
    "repro.experiments.pool": "pool",
    "repro.experiments.fleet": "fleet",
    "repro.experiments.parallel": "fleet",
    "repro.experiments.synthesis": "synthesis",
    "repro.experiments.workload": "workload",
    "repro.audio": "workload",
    "repro.attacks": "workload",
    "repro.obs": "obs",
    "repro": "other",
}

# Layers in report order.  ``unattributed`` is traced wall time that no
# layer's span covers: dispatched private callbacks and glue outside
# every wrapped call.
LAYERS = ("sim", "link", "tcp", "proxy", "speakers", "recognition",
          "decision", "push", "radio", "floor", "home", "setup", "pool",
          "fleet", "synthesis", "workload", "obs", "other")

# Public entry points wrapped in the traced run, as "module:attribute";
# an attribute with a dot is a method.  The layer comes from the module.
# A missing name is an error: the benchmark depends on these staying.
ENTRY_POINTS: Tuple[str, ...] = (
    # sim kernel
    "repro.sim.events:EventQueue.push",
    "repro.sim.events:EventQueue.post",
    "repro.sim.events:EventHandle.cancel",
    "repro.sim.simulator:Simulator.run",
    "repro.sim.simulator:Simulator.run_until",
    "repro.sim.simulator:Simulator.schedule",
    "repro.sim.simulator:Simulator.schedule_at",
    "repro.sim.simulator:Simulator.post",
    "repro.sim.simulator:Simulator.post_at",
    "repro.sim.process:DeadlineTimer.schedule_at",
    "repro.sim.process:DeadlineTimer.schedule_in",
    "repro.sim.process:DeadlineTimer.cancel",
    # link
    "repro.net.link:Network.send",
    "repro.net.link:Host.send",
    "repro.net.link:Host.receive",
    "repro.net.link:TapHost.bridge",
    "repro.net.udp:UdpFlow.send",
    "repro.net.dns:DnsClient.resolve",
    # tcp / tls
    "repro.net.tcp:TcpStack.receive",
    "repro.net.tcp:TcpStack.connect",
    "repro.net.tcp:TcpConnection.handle",
    "repro.net.tcp:TcpConnection.send_record",
    "repro.net.tcp:TcpConnection.close",
    "repro.net.tcp:TcpConnection.abort",
    "repro.net.tls:TlsSession.accept_record",
    # proxy
    "repro.net.proxy:TransparentProxy.intercept",
    "repro.net.proxy:TransparentProxy.release_held",
    "repro.net.proxy:TransparentProxy.discard_held",
    "repro.net.proxy:UdpForwarder.handle",
    "repro.net.proxy:HoldBudget.try_charge",
    "repro.net.proxy:HoldBudget.credit",
    # speakers and clouds
    "repro.speakers.base:SmartSpeaker.on_audio",
    "repro.speakers.base:SmartSpeaker.mark_executed",
    "repro.speakers.base:SmartSpeaker.settle_all",
    "repro.speakers.echo_dot:EchoDot.boot",
    "repro.speakers.interaction:EchoTrafficModel.command_phase",
    "repro.speakers.interaction:EchoTrafficModel.response_plan",
    "repro.speakers.interaction:EchoTrafficModel.response_spike",
    # recognition
    "repro.core.recognition:TrafficRecognition.observe",
    "repro.core.recognition:TrafficRecognition.observe_snoop",
    "repro.core.recognition:TrafficRecognition.on_flow_closed",
    "repro.core.recognition:classify_echo_lengths",
    "repro.core.recognition:finalize_echo_lengths",
    # decision
    "repro.core.handler:TrafficHandler.on_window_classified",
    "repro.core.handler:TrafficHandler.on_hold_overflow",
    "repro.core.decision:DecisionModule.decide",
    "repro.core.decision:DecisionCoordinator.decide",
    "repro.core.decision:RssiDecisionMethod.decide",
    # push
    "repro.home.push:PushService.request_rssi",
    "repro.home.push:PushService.request_group",
    # radio
    "repro.radio.propagation:PropagationModel.mean_rssi",
    "repro.radio.propagation:PropagationModel.mean_rssi_many",
    "repro.radio.propagation:PropagationModel.sample_rssi",
    "repro.radio.propagation:PropagationModel.sample_rssi_batch",
    "repro.radio.propagation:PropagationModel.average_rssi",
    "repro.radio.propagation:PropagationModel.average_rssi_batch",
    "repro.radio.propagation:PropagationModel.average_rssi_grid",
    "repro.radio.bluetooth:BluetoothScanner.instant_rssi",
    "repro.radio.bluetooth:BluetoothScanner.scan",
    "repro.radio.floorplan:FloorPlan.walls_crossed",
    "repro.radio.floorplan:FloorPlan.walls_crossed_many",
    "repro.radio.floorplan:FloorPlan.floors_crossed",
    "repro.radio.floorplan:FloorPlan.slab_penalties",
    "repro.radio.floorplan:FloorPlan.floor_of",
    "repro.radio.floorplan:FloorPlan.room_of",
    "repro.radio.floorplan:FloorPlan.validate",
    "repro.radio.geometry:WallArray.crossing_mask",
    "repro.radio.geometry:WallArray.crossing_counts_many",
    "repro.radio.testbeds:WalkRoute.position_at",
    # floor tracking
    "repro.core.floor:FloorLevelTracker.on_motion",
    "repro.core.floor:FloorLevelTracker.floor_ok",
    "repro.core.floor:TraceClassifier.fit",
    "repro.core.floor:TraceClassifier.classify",
    # home devices
    "repro.home.devices:MobileDevice.measure_rssi",
    "repro.home.devices:MobileDevice.record_trace",
    "repro.home.devices:MobileDevice.instant_rssi",
    "repro.home.environment:HomeEnvironment.play_utterance",
    "repro.home.environment:HomeEnvironment.speaker_hears",
    "repro.home.person:Person.teleport",
    "repro.home.person:Person.follow",
    "repro.home.person:Person.speak",
    # set-up
    "repro.experiments.scenarios:build_scenario",
    "repro.experiments.scenarios:add_echo_speaker",
    "repro.experiments.scenarios:train_trace_classifier",
    "repro.core.threshold:ThresholdCalibrator.calibrate",
    "repro.core.recognizers:train_window_recognizer",
    # workload loops
    "repro.experiments.workload:SevenDayWorkload.run",
    # fleet engine, pool and synthesis
    "repro.experiments.fleet:run_fleet",
    "repro.experiments.fleet:run_fleet_chunk",
    "repro.experiments.fleet:simulate_home",
    "repro.experiments.fleet:simulate_home_full",
    "repro.experiments.fleet:FleetAccumulator.add_home",
    "repro.experiments.fleet:FleetAccumulator.merge_payload",
    "repro.experiments.fleet:FleetAccumulator.to_payload",
    "repro.experiments.pool:ScenarioPool.acquire",
    "repro.experiments.pool:ScenarioPool.template",
    "repro.experiments.synthesis:PopulationModel.home",
    "repro.experiments.synthesis:fleet_world",
    "repro.experiments.synthesis:warm_worlds",
)

# Entry points whose every span is kept (they are few per run); other
# spans are kept only up to SPAN_SAMPLE.
COARSE = frozenset({
    "build_scenario", "add_echo_speaker", "train_trace_classifier",
    "ThresholdCalibrator.calibrate", "train_window_recognizer",
    "SevenDayWorkload.run", "run_fleet", "run_fleet_chunk",
    "simulate_home_full", "ScenarioPool.acquire", "ScenarioPool.template",
    "warm_worlds", "drive_burst",
})
SPAN_SAMPLE = 2000

DISPATCH = "dispatch"


def layer_of_module(module: str) -> Optional[str]:
    """The layer a module belongs to, or None outside the program."""
    best = None
    for prefix, layer in LAYER_BY_MODULE.items():
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


class Ledger:
    """Folded per-entry-point totals plus a bounded span record.

    ``stats[name] = [layer, calls, inclusive_s, self_s]``; ``counts``
    holds the exact work counters no call count gives directly.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[str, list] = {}
        self.counts: Dict[str, float] = {
            "sim.seconds": 0.0, "tcp.segments": 0,
            "pool.template_builds": 0, "pool.template_s": 0.0,
        }
        self.spans: List[tuple] = []  # (id, parent, name, start, end, unit)
        self.unit_id = 0  # run or home id stamped on each kept span
        self._stack: List[list] = [[0.0, 0]]  # open frames: [child_s, span_id]
        self._ids = itertools.count(1)
        self._started = 0.0
        self.wall_s = 0.0  # from start() to stop()

    def start(self) -> None:
        self._started = self.clock()

    def stop(self) -> None:
        self.wall_s = self.clock() - self._started

    def timed(self, name: str, layer: str, fn: Optional[Callable]) -> Callable:
        """``fn`` wrapped in a span.  With ``fn=None`` the wrapper takes
        the callable as its first argument (the dispatch trampoline)."""
        stat = self.stats.setdefault(name, [layer, 0, 0.0, 0.0])
        stack, clock, spans, ids = self._stack, self.clock, self.spans, self._ids
        keep_all = name in COARSE
        ledger = self

        def wrapped(*args, **kwargs):
            span_id = next(ids)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                if fn is None:
                    return args[0](*args[1])
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                parent = stack[-1]
                parent[0] += elapsed
                stat[1] += 1
                stat[2] += elapsed
                stat[3] += elapsed - frame[0]
                if keep_all or len(spans) < SPAN_SAMPLE:
                    spans.append((span_id, parent[1], name, start, end,
                                  ledger.unit_id))

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installation ---------------------------------------------------
    def install(self, extra: Tuple[Tuple[object, str, str], ...] = ()) -> None:
        """Wrap every entry point, plus ``extra`` (owner, attribute,
        layer) triples from the benchmark's own files."""
        for spec in ENTRY_POINTS:
            module_name, attr = spec.split(":")
            module = importlib.import_module(module_name)
            layer = layer_of_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                if meth not in vars(owner):
                    raise AttributeError(f"entry point {spec} is gone")
                setattr(owner, meth, self._wrapper(attr, layer, vars(owner)[meth]))
            else:
                self._wrap_function(module, attr, layer)
        for owner, attr, layer in extra:
            setattr(owner, attr, self._wrapper(attr, layer, getattr(owner, attr)))
        self._wrap_dispatch()

    def _wrapper(self, name: str, layer: str, fn: Callable) -> Callable:
        special = _SPECIAL.get(name)
        timed = self.timed(name, layer, fn)
        return special(self, timed) if special is not None else timed

    def _wrap_function(self, module: object, attr: str, layer: str) -> None:
        """Replace a module function, and every ``from m import f``
        copy of it already bound in another loaded program module."""
        original = getattr(module, attr)
        wrapped = self._wrapper(attr, layer, original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            if vars(loaded).get(attr) is original:
                setattr(loaded, attr, wrapped)

    def _wrap_dispatch(self) -> None:
        """Time each callback the event loop fires as a dispatch span.

        The popped entry's callback is swapped for a trampoline that the
        loop calls with the same arguments, so the run is unchanged.
        """
        from repro.sim.events import EventQueue

        dispatch = self.timed(DISPATCH, DISPATCH, None)
        for attr in ("pop_entry", "pop_entry_before"):
            pop = self.timed("EventQueue." + attr, "sim", vars(EventQueue)[attr])

            def popper(queue, *args, _pop=pop):
                entry = _pop(queue, *args)
                if entry is None:
                    return None
                return (entry[0], dispatch, (entry[1], entry[2]))

            setattr(EventQueue, attr, popper)

    # -- reporting ------------------------------------------------------
    def inclusive(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def calls(self, *names: str) -> int:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def layer_calls(self, layer: str) -> int:
        return sum(s[1] for s in self.stats.values() if s[0] == layer)

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer, plus ``unattributed``."""
        totals = {layer: 0.0 for layer in LAYERS}
        for layer, _calls, _inclusive, self_s in self.stats.values():
            if layer != DISPATCH:
                totals[layer] += self_s
        totals["unattributed"] = max(self.wall_s - sum(totals.values()), 0.0)
        return totals


# -- wrappers that also count work no call count gives ------------------------

def _network_send(ledger: Ledger, timed: Callable) -> Callable:
    from repro.net.packet import Protocol

    counts, tcp = ledger.counts, Protocol.TCP

    def send(network, origin, packet):
        if packet.protocol is tcp:
            counts["tcp.segments"] += 1
        return timed(network, origin, packet)

    return send


def _run_until(ledger: Ledger, timed: Callable) -> Callable:
    counts = ledger.counts

    def run_until(sim, *args, **kwargs):
        before = sim.now
        try:
            return timed(sim, *args, **kwargs)
        finally:
            counts["sim.seconds"] += sim.now - before

    return run_until


def _pool_template(ledger: Ledger, timed: Callable) -> Callable:
    counts = ledger.counts

    def template(pool, key):
        before = pool.template_builds
        start = ledger.clock()
        try:
            return timed(pool, key)
        finally:
            if pool.template_builds != before:
                counts["pool.template_builds"] += pool.template_builds - before
                counts["pool.template_s"] += ledger.clock() - start

    return template


def _stamp_unit(home_index: Callable) -> Callable:
    """Stamp kept spans with the index of the home a call is about."""
    def factory(ledger: Ledger, timed: Callable) -> Callable:
        def stamped(owner, *args):
            ledger.unit_id = home_index(args)
            return timed(owner, *args)
        return stamped
    return factory


_SPECIAL: Dict[str, Callable] = {
    "Network.send": _network_send,
    "Simulator.run_until": _run_until,
    "ScenarioPool.template": _pool_template,
    # acquire(spec) and home(base_seed, shard, offset, index)
    "ScenarioPool.acquire": _stamp_unit(lambda args: args[0].index),
    "PopulationModel.home": _stamp_unit(lambda args: args[3]),
}


# -- cProfile grouping ---------------------------------------------------------

def _layer_of_file(filename: str) -> Optional[str]:
    """Layer of a profiled function's file; None outside the program.

    The standard library's ``copy`` module counts as ``pool``: the
    scenario pool's snapshot restore is the program's only deep copy.
    """
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker >= 0:
        module = "repro." + path[marker + 7:].rsplit(".", 1)[0].replace("/", ".")
        module = module[:-len(".__init__")] if module.endswith(".__init__") else module
        return layer_of_module(module)
    if path.endswith("/copy.py"):
        return "pool"
    return None


def profile_shares(profile) -> Dict[str, float]:
    """Self seconds per layer from a ``cProfile.Profile``.

    Time inside functions outside the program (builtins, numpy, the
    standard library) is charged to the program layers that called
    them, following callers up the chain and splitting by the time
    cProfile recorded per caller.
    """
    import pstats

    stats = pstats.Stats(profile).stats
    memo: Dict[tuple, Dict[str, float]] = {}

    def weights(func: tuple, seen: frozenset) -> Dict[str, float]:
        """Share of ``func``'s time each layer is responsible for."""
        layer = _layer_of_file(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(c[3] for c in callers.values())
        if func in seen or not total:
            return {"other": 1.0}
        share: Dict[str, float] = {}
        for caller, caller_stat in callers.items():
            for name, w in weights(caller, seen | {func}).items():
                share[name] = share.get(name, 0.0) + w * caller_stat[3] / total
        memo[func] = share
        return share

    totals: Dict[str, float] = {}
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for layer, w in weights(func, frozenset()).items():
            totals[layer] = totals.get(layer, 0.0) + w * tottime
    return totals
