"""Per-layer host self time, measured by wrapping each layer's entry points.

Only the traced benchmark run installs these wrappers; the runs that produce
the end-to-end metrics never do.  A wrapper pushes its layer onto one stack
of open sections, and the time between two stack changes is charged to the
layer on top, so each layer's figure is exclusive (self) time.  Calls that
return a generator -- application programs, ``AppContext`` ops, protocol
operations -- are timed again on every resume, because the event engine
drives them step by step.  Time outside every wrapper is charged to
``unattributed``.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter
from types import GeneratorType
from typing import Any, Callable, Dict, List, Tuple

UNATTRIBUTED = "unattributed"

_APP_OPS = ("compute", "read", "read1", "write", "write1", "fill", "acquire",
            "release", "barrier", "acquire_notice")
_NODE_OPS = ("read", "write", "acquire", "release", "barrier",
             "acquire_notice", "handle_message", "finalize")

#: layer -> entry points, each ``module:attribute`` or ``module:Class.method``
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "engine": ("repro.engine.simulator:Simulator.run",),
    "apps": tuple(f"repro.apps.api:AppContext.{op}" for op in _APP_OPS) + tuple(
        f"{mod}:{cls}.{meth}"
        for mod, cls in (("repro.apps.fft", "FFTApp"),
                         ("repro.apps.is_sort", "ISApp"),
                         ("repro.apps.ocean", "OceanApp"),
                         ("repro.apps.raytrace", "RaytraceApp"),
                         ("repro.apps.water_nsquared", "WaterNsquaredApp"),
                         ("repro.apps.water_spatial", "WaterSpatialApp"),
                         ("repro.fuzz.generator", "GeneratedApp"))
        for meth in ("program", "check")),
    "protocols.aec": tuple(f"repro.core.aec.protocol:AECNode.{op}"
                           for op in _NODE_OPS),
    "protocols.tmk": tuple(
        f"repro.protocols.treadmarks.protocol:TreadMarksNode.{op}"
        for op in _NODE_OPS),
    "protocols.sc": tuple(f"repro.protocols.sc:SCNode.{op}"
                          for op in _NODE_OPS),
    "core.aec.lock_manager": tuple(
        f"repro.core.aec.lock_manager:AECLockManager.{m}"
        for m in ("lock", "reset_step_state", "request", "notice", "release",
                  "peer_dead")),
    "core.aec.barrier_manager": tuple(
        f"repro.core.aec.barrier_manager:AECBarrierManager.{m}"
        for m in ("arrive", "compute", "node_done", "complete",
                  "remove_member")),
    "core.lap": tuple(
        f"repro.core.lap.predictor:LapPredictor.{m}"
        for m in ("predict", "predict_waitq", "predict_waitq_affinity",
                  "predict_waitq_virtualq")) + tuple(
        f"repro.core.lap.affinity:AffinityMatrix.{m}"
        for m in ("record_transfer", "affinity", "row", "affinity_set",
                  "positive_set")) + (
        "repro.core.lap.stats:LapStats.record_grant",),
    "transport": tuple(
        f"repro.protocols.base:ReliableTransport.{m}"
        for m in ("__init__", "on_send", "on_arrival", "_on_timeout",
                  "cancel_peer")),
    "machine": tuple(f"repro.machine.node:NodeHardware.{m}"
                     for m in ("access", "page_updated",
                               "page_protection_changed")),
    "network": ("repro.network.network:Network.deliver",),
    "memory": ("repro.memory.diff:create_diff", "repro.memory.diff:merge_diffs",
               "repro.memory.diff:apply_diffs") + tuple(
        f"repro.memory.pagestore:PageStore.{m}"
        for m in ("has", "page", "ensure", "replace", "drop", "read",
                  "write")),
    "check": tuple(
        f"repro.check.checker:ConsistencyChecker.{m}"
        for m in ("on_acquire", "on_release", "on_barrier_arrive",
                  "on_barrier_depart", "note_transfer", "on_read", "on_write",
                  "finish")) + (
        "repro.check.checker:NullChecker.finish",
        "repro.check.checker:make_checker",
        "repro.check.oracle:MemoryImageApp.program",
        "repro.check.oracle:compare_images"),
    "obs": tuple(f"repro.obs.spans:SpanRecorder.{m}"
                 for m in ("begin", "end", "instant", "finish")) + tuple(
        f"repro.obs.metrics:{cls}.{m}"
        for cls, meths in (("_CounterCell", ("inc",)),
                           ("_GaugeCell", ("set", "add")),
                           ("_HistogramCell", ("observe",)),
                           ("Counter", ("inc",)),
                           ("Gauge", ("set", "add")),
                           ("Histogram", ("observe",)),
                           ("MetricsRegistry", ("counter", "gauge",
                                                "histogram", "snapshot")))
        for m in meths) + (
        "repro.obs:Observability.from_config",
        "repro.obs:Observability.finish",
        "repro.obs.profile:Profiler.add"),
    "faults": ("repro.faults.injector:FaultInjector.fates",
               "repro.faults.injector:make_injector"),
    "recovery": tuple(
        f"repro.recovery.crash:CrashController.{m}"
        for m in ("install", "is_permanently_dead", "live_procs",
                  "on_barrier_epoch", "_crash", "_revive", "_scan",
                  "_declare")) + tuple(
        f"repro.recovery.detector:FailureDetector.{m}"
        for m in ("note_frame", "alive", "last_heard_by", "start",
                  "_beat")) + tuple(
        f"repro.recovery.checkpoint:CheckpointStore.{m}"
        for m in ("take", "pages_for", "page_image")) + (
        "repro.recovery.crash:install_recovery",),
    "fuzz": ("repro.fuzz.generator:generate_spec",
             "repro.fuzz.generator:compile_schedule"),
    "harness": ("repro.harness.runner:run_app",),
}

#: entry points whose call counts feed the per-layer work counts
COUNTED = {
    "apps.ops": tuple(f"AppContext.{op}" for op in _APP_OPS),
    "protocols.messages_handled": tuple(
        f"{cls}.handle_message"
        for cls in ("AECNode", "TreadMarksNode", "SCNode")),
    "core.lap.predictions": ("LapPredictor.predict",),
    "transport.frames": ("ReliableTransport.on_send",),
    "machine.accesses": ("NodeHardware.access",),
    "network.deliveries": ("Network.deliver",),
    "check.accesses": ("ConsistencyChecker.on_read",
                       "ConsistencyChecker.on_write"),
    "faults.fates": ("FaultInjector.fates",),
}


class SelfTimer:
    """One stack of open sections; charges elapsed time to the top layer.

    Every closed section is also kept as a span ``(entry, start, end,
    depth)`` until ``span_cap`` spans are held; the rest are only counted.
    """

    def __init__(self, span_cap: int = 100_000) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.spans: List[Tuple[str, float, float, int]] = []
        self.spans_dropped = 0
        self.span_cap = span_cap
        self.origin = perf_counter()
        self._last = self.origin
        self._stack: List[Tuple[str, str, float]] = [
            (UNATTRIBUTED, UNATTRIBUTED, self.origin)]
        #: harness self time spent before / after ``Simulator.run``
        self.harness_setup_s = 0.0
        self.harness_finalize_s = 0.0

    def enter(self, layer: str, entry: str) -> None:
        now = perf_counter()
        self.self_s[self._stack[-1][0]] += now - self._last
        self._last = now
        self._stack.append((layer, entry, now))

    def leave(self) -> None:
        now = perf_counter()
        layer, entry, start = self._stack.pop()
        self.self_s[layer] += now - self._last
        self._last = now
        if len(self.spans) < self.span_cap:
            self.spans.append((entry, start, now, len(self._stack)))
        else:
            self.spans_dropped += 1

    def exclude(self, seconds: float) -> None:
        """Leave out ``seconds`` just spent outside the program."""
        self._last += seconds

    def settle(self) -> None:
        """Charge the time since the last stack change to the open layer."""
        now = perf_counter()
        self.self_s[self._stack[-1][0]] += now - self._last
        self._last = now

    def chrome_trace(self, layer_of: Dict[str, str]) -> Dict[str, Any]:
        """The kept spans as a Chrome/Perfetto ``traceEvents`` document."""
        events = [{"name": entry, "cat": layer_of.get(entry, UNATTRIBUTED),
                   "ph": "X", "pid": 0, "tid": 0,
                   "ts": round((start - self.origin) * 1e6, 3),
                   "dur": round((end - start) * 1e6, 3),
                   "args": {"depth": depth}}
                  for entry, start, end, depth in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"spans_dropped": self.spans_dropped}}


def _resumes(gen, layer: str, entry: str, timer: SelfTimer):
    """Drive ``gen`` on behalf of its caller, timing each resume."""
    enter, leave = timer.enter, timer.leave
    value: Any = None
    exc: Any = None
    while True:
        enter(layer, entry)
        try:
            out = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            leave()
        value = exc = None
        try:
            value = yield out
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:  # forwarded into ``gen`` above
            exc = thrown


def _wrap(fn: Callable, layer: str, entry: str, timer: SelfTimer) -> Callable:
    enter, leave, calls = timer.enter, timer.leave, timer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[entry] += 1
        enter(layer, entry)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if type(result) is GeneratorType:
            return _resumes(result, layer, entry, timer)
        return result
    return wrapper


def _harness_split(run_app: Callable, sim_run: Callable,
                   timer: SelfTimer) -> Tuple[Callable, Callable]:
    """Split the harness layer's self time at ``Simulator.run``."""
    marks: List[float] = []

    def harness_self() -> float:
        timer.settle()
        return timer.self_s["harness"]

    @functools.wraps(run_app)
    def run_app_split(*args, **kwargs):
        marks.append(harness_self())
        try:
            return run_app(*args, **kwargs)
        finally:
            timer.harness_finalize_s += harness_self() - marks.pop()

    @functools.wraps(sim_run)
    def sim_run_split(*args, **kwargs):
        if marks:
            timer.harness_setup_s += harness_self() - marks[-1]
        try:
            return sim_run(*args, **kwargs)
        finally:
            if marks:
                marks[-1] = harness_self()
    return run_app_split, sim_run_split


class Instrumentation:
    """Installs the wrappers of :data:`ENTRY_POINTS`; ``remove`` undoes it."""

    def __init__(self, timer: SelfTimer) -> None:
        self.timer = timer
        #: entry point (``Class.method`` or function name) -> layer
        self.layer_of: Dict[str, str] = {}
        self._undo: List[Callable[[], None]] = []

    def install(self) -> None:
        for layer, targets in ENTRY_POINTS.items():
            for target in targets:
                module_name, _, entry = target.partition(":")
                owner: Any = importlib.import_module(module_name)
                self.layer_of[entry] = layer
                if "." not in entry:
                    fn = getattr(owner, entry)
                    self._rebind(fn, _wrap(fn, layer, entry, self.timer))
                    continue
                cls_name, name = entry.split(".")
                cls = getattr(owner, cls_name)
                raw = next(k.__dict__[name] for k in cls.__mro__
                           if name in k.__dict__)
                if isinstance(raw, classmethod):
                    value: Any = classmethod(
                        _wrap(raw.__func__, layer, entry, self.timer))
                else:
                    value = _wrap(raw, layer, entry, self.timer)
                self._set_attr(cls, name, value)
        from repro.engine.simulator import Simulator
        from repro.harness import runner
        run_app_split, sim_run_split = _harness_split(
            runner.run_app, Simulator.run, self.timer)
        self._rebind(runner.run_app, run_app_split)
        self._set_attr(Simulator, "run", sim_run_split)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _set_attr(self, owner: Any, name: str, value: Any) -> None:
        missing = object()
        old = owner.__dict__.get(name, missing)
        setattr(owner, name, value)
        if old is missing:
            self._undo.append(lambda: delattr(owner, name))
        else:
            self._undo.append(lambda: setattr(owner, name, old))

    def _rebind(self, fn: Callable, replacement: Callable) -> None:
        """Rebind ``fn`` in every loaded module that holds it by name."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None) or {}
            for name, value in list(namespace.items()):
                if value is fn:
                    self._set_attr(module, name, replacement)
