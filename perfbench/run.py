"""Host-time benchmark of the AEC / TreadMarks DSM simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lock-affinity --seed 1 --seconds 25 --trace 0

Each workload is a closed loop over a fixed list of simulation cells; one
cell is one ``run_app`` call and cells run one after another in this one
process.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is one JSON object.  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import layers
from hostspeed import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("lock-affinity", "barrier-bulk", "certify", "traced")
#: per-cell simulated-event budget (``SimConfig.max_events``): five times the
#: largest healthy cell (water-ns/tmk, ~190k events), so a livelocked cell
#: costs bounded host time and counts as failed
EVENT_BUDGET = 1_000_000
#: generated workloads certified in ``certify`` (bench scale); the run seed
#: drives their fault-plan seeds and ``SimConfig.seed``
CERTIFY_SPECS = (1000, 1002)
CERTIFY_PLANS = ("none", "lossy-1pct", "crash-one-node", "crash-restart")
#: fresh processes timed for ``setup_s`` (the median is reported)
SETUP_REPS = 5

MODEL_KEYS = ("exec_cycles", "events", "messages", "bytes", "lock_acquires",
              "barriers", "busy_cycles", "data_cycles", "synch_cycles",
              "ipc_cycles", "others_cycles")


class Failed(Exception):
    """A cell that ran but did not pass its checks."""


@dataclass
class Cell:
    label: str
    protocol: str
    config: Any
    #: builds the application for one run
    make: Callable[[], Any]
    #: certify cells: (spec index, spec, layout for image comparison)
    spec: Optional[Tuple[int, Any, Any]] = None
    oracle: bool = False


@dataclass
class Outcome:
    #: model counts of a healthy cell, or None
    model: Optional[Dict[str, float]]
    failure: Optional[str]
    result: Any = None
    #: simulated events, also of a cell that ran but failed its checks
    events: float = 0.0

    def signature(self) -> Any:
        return self.failure if self.failure is not None else self.model


@dataclass
class Workload:
    name: str
    cells: List[Cell]
    #: latest SC oracle image per certify spec
    images: Dict[int, Any] = field(default_factory=dict)


# ------------------------------------------------------------ workloads

def _app_cells(r, apps, seed: int, **flags) -> List[Cell]:
    cells = []
    for app in apps:
        for protocol in ("aec", "tmk"):
            cfg = r.SimConfig(seed=seed, max_events=EVENT_BUDGET, **flags)
            cells.append(Cell(f"{app}/{protocol}", protocol, cfg,
                              lambda app=app: r.make_app(app, "bench")))
    return cells


def _certify_cells(r, seed: int) -> List[Cell]:
    cells = []
    for index, fuzz_seed in enumerate(CERTIFY_SPECS):
        spec = r.generate_spec(fuzz_seed, "bench")
        base = r.config_for_spec(spec).replace(seed=seed,
                                               max_events=EVENT_BUDGET)
        layout = r.Layout(base.machine.words_per_page)
        r.GeneratedApp(spec).declare(layout,
                                     r.SyncRegistry(spec.num_procs))
        make = (lambda spec=spec: r.GeneratedApp(spec))
        cells.append(Cell(f"fuzz:{fuzz_seed}/sc-oracle", "sc", base, make,
                          (index, spec, layout), oracle=True))
        for protocol in ("aec", "tmk"):
            for plan in CERTIFY_PLANS:
                faults = None if plan == "none" else r.get_plan(
                    f"{plan}@{seed}")
                cfg = base.replace(check_consistency=True, faults=faults)
                cells.append(Cell(f"fuzz:{fuzz_seed}/{protocol}/{plan}",
                                  protocol, cfg, make, (index, spec, layout)))
    return cells


def build_workload(r, name: str, seed: int) -> Workload:
    if name == "lock-affinity":
        cells = _app_cells(r, ("raytrace", "water-ns"), seed)
    elif name == "barrier-bulk":
        cells = _app_cells(r, ("ocean", "fft", "is", "water-sp"), seed)
    elif name == "certify":
        cells = _certify_cells(r, seed)
    else:
        cells = _app_cells(r, ("ocean", "raytrace"), seed, obs_metrics=True,
                           obs_spans=True, profile=True)
    return Workload(name, cells)


# ------------------------------------------------------------ running

def _model(result) -> Dict[str, float]:
    b = result.breakdown.cycles
    return {"exec_cycles": result.execution_time,
            "events": result.events_processed,
            "messages": result.messages_total,
            "bytes": result.network_bytes,
            "lock_acquires": sum(result.lock_acquires.values()),
            "barriers": result.barrier_events,
            "busy_cycles": b["busy"], "data_cycles": b["data"],
            "synch_cycles": b["synch"], "ipc_cycles": b["ipc"],
            "others_cycles": b["others"]}


def _certify(r, wl: Workload, cell: Cell, result, image) -> None:
    """The three certifications of ``repro.fuzz.campaign``."""
    index, spec, layout = cell.spec
    report = result.check_report
    if report is not None and not report.clean:
        raise Failed("check: " + ",".join(sorted(report.counts)))
    try:
        r.GeneratedApp(spec).check([inner for inner, _ in result.app_results])
    except AssertionError:
        raise Failed("appcheck: wrong checksum") from None
    oracle = wl.images.get(index)
    if oracle is None:
        raise Failed("sc oracle cell failed")
    divergence = r.compare_images(
        image, oracle, layout,
        r.DivergenceReport(app=spec.name, protocol=cell.protocol,
                           oracle_protocol="sc", seed=spec.seed))
    if not divergence.clean:
        raise Failed("diverge: " + divergence.divergences[0].describe())


def run_cell(r, wl: Workload, cell: Cell) -> Outcome:
    result = None
    try:
        if cell.spec is None:
            result = r.run_app(cell.make(), cell.protocol, cell.config)
        else:
            result, image = r.run_with_image(cell.make(), cell.protocol,
                                             config=cell.config, check=False)
            if cell.oracle:
                wl.images[cell.spec[0]] = image
            else:
                _certify(r, wl, cell, result, image)
    except (Failed, AssertionError) as exc:
        why = str(exc) if isinstance(exc, Failed) else f"appcheck: {exc}"
        events = result.events_processed if result is not None else 0.0
        return Outcome(None, why, result, events)
    except Exception as exc:  # a cell must not stop the loop
        if cell.oracle:
            wl.images.pop(cell.spec[0], None)
        return Outcome(None, f"{type(exc).__name__}: {exc}")
    return Outcome(_model(result), None, result, result.events_processed)


class Recorder:
    """Per-cell samples plus the determinism check across repetitions."""

    def __init__(self, r, wl: Workload) -> None:
        self.r = r
        self.wl = wl
        self.clock = HostClock()
        #: per cell: seconds at the reference host speed / raw host seconds
        self.seconds: List[List[float]] = [[] for _ in wl.cells]
        self.host_seconds: List[List[float]] = [[] for _ in wl.cells]
        self.first: List[Optional[Outcome]] = [None] * len(wl.cells)
        self.mismatches: List[str] = []

    def run(self, i: int) -> Tuple[Outcome, float]:
        """Run cell ``i`` once; returns its outcome and its scale to the
        reference host speed."""
        gc.collect()
        out, host_s, scale = self.clock.time(
            lambda: run_cell(self.r, self.wl, self.wl.cells[i]))
        self.seconds[i].append(host_s * scale)
        self.host_seconds[i].append(host_s)
        first = self.first[i]
        if first is None:
            # keep no RunResult alive: it would inflate peak_rss_mb
            self.first[i] = Outcome(out.model, out.failure,
                                    events=out.events)
        elif first.signature() != out.signature():
            msg = (f"NONDETERMINISTIC cell {self.wl.cells[i].label}: "
                   f"{first.signature()!r} then {out.signature()!r}")
            self.mismatches.append(msg)
            print(msg, file=sys.stderr, flush=True)
        return out, scale

    def wall_s(self, samples: List[List[float]]) -> float:
        return sum(statistics.median(s) for s in samples)

    def model_totals(self) -> Dict[str, float]:
        totals = dict.fromkeys(MODEL_KEYS, 0.0)
        for out in self.first:
            if out is not None and out.model is not None:
                for k in MODEL_KEYS:
                    totals[k] += out.model[k]
        return totals

    def events(self) -> float:
        """Simulated events of one pass, failed cells included."""
        return sum(o.events for o in self.first if o is not None)

    def failures(self) -> List[Tuple[str, str]]:
        return [(c.label, o.failure) for c, o in zip(self.wl.cells, self.first)
                if o is not None and o.failure is not None]

    def digest(self) -> str:
        doc = [(c.label, o.signature() if o else None)
               for c, o in zip(self.wl.cells, self.first)]
        blob = json.dumps(doc, sort_keys=True, default=repr).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def print_failures(self) -> None:
        for label, why in self.failures():
            print(f"  FAILED {label}: {why}")


# ------------------------------------------------------------ setup

def measure_setup(r, name: str, seed: int) -> None:
    """One set-up: build the cell list, then the World and nodes of the
    first cell of each protocol (the warm-up build)."""
    wl = build_workload(r, name, seed)
    seen = set()
    for cell in wl.cells:
        if cell.protocol in seen:
            continue
        seen.add(cell.protocol)
        cfg = r.resolve_config(cell.protocol, cell.config)
        factory = r.PROTOCOLS[cell.protocol][0]
        layout = r.Layout(cfg.machine.words_per_page)
        sync = r.SyncRegistry(cfg.machine.num_procs)
        cell.make().declare(layout, sync)
        world = r.World(cfg, layout, sync)
        [factory(world, i) for i in range(cfg.machine.num_procs)]


def time_setup(args) -> float:
    """Median over fresh processes of the set-up seconds each one reports
    for itself, at reference speed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"]
    runs = [float(subprocess.run(cmd, check=True, cwd=ROOT,
                                 capture_output=True, text=True).stdout)
            for _ in range(SETUP_REPS)]
    return statistics.median(runs)


def setup_probe(args) -> float:
    """Imports plus one set-up, timed by this fresh process itself."""
    def setup() -> None:
        measure_setup(_Repro(), args.workload, args.seed)
    _, host_s, scale = HostClock().time(setup)
    return host_s * scale


# ------------------------------------------------------------ reporting

def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(r, args) -> Dict[str, Any]:
    setup_s = time_setup(args)
    wl = build_workload(r, args.workload, args.seed)
    rec = Recorder(r, wl)
    n = len(wl.cells)
    t0 = time.perf_counter()
    i = passes = 0
    while True:
        rec.run(i)
        i = (i + 1) % n
        passes += i == 0
        if passes and time.perf_counter() - t0 >= args.seconds:
            break
    wall_s = rec.wall_s(rec.seconds)
    model = rec.model_totals()
    print(f"workload {wl.name}: {n} cells, {min(map(len, rec.seconds))}-"
          f"{max(map(len, rec.seconds))} samples per cell, "
          f"model digest {rec.digest()}")
    print(f"  wall_s {wall_s:.4f} at reference speed, "
          f"{rec.wall_s(rec.host_seconds):.4f} raw host seconds")
    for cell, samples in zip(wl.cells, rec.seconds):
        print(f"  {cell.label:<34}{statistics.median(samples):>9.4f}s "
              f"median of {len(samples)}")
    rec.print_failures()
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(wall_s, "s"),
        "events_per_s": _metric(rec.events() / wall_s, "1/s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {"correct": not rec.mismatches, "attempted": n,
            "failed": len(rec.failures()), "metrics": metrics}


def _per_pass_counts(outs: List[Outcome]) -> Dict[str, float]:
    c = dict.fromkeys(("retries", "dups", "injected", "spans",
                       "spans_dropped", "lap_hits", "lap_scored", "created",
                       "merged", "applied", "wasted", "violations",
                       "checkpoints"), 0)
    for out in outs:
        res = out.result
        if res is None:
            continue
        ds = res.diff_stats
        c["created"] += ds.diffs_created
        c["merged"] += ds.merged_diffs
        c["applied"] += ds.diffs_applied
        c["wasted"] += ds.diffs_wasted
        if res.net_faults is not None:
            nf = res.net_faults
            c["retries"] += nf.retries
            c["dups"] += nf.dup_suppressed
            c["injected"] += nf.dropped + nf.duplicated + nf.jittered \
                + nf.stalls
        if res.lap_stats is not None:
            for lock in res.lap_stats.per_lock:
                c["lap_hits"] += lock.hits["lap"]
                c["lap_scored"] += lock.scored
        if res.check_report is not None:
            c["violations"] += res.check_report.total_violations
        spans = res.extra.get("spans")
        if spans is not None:
            c["spans"] += len(spans) + spans.dropped_total
            c["spans_dropped"] += spans.dropped_total
        if res.recovery is not None:
            c["checkpoints"] += res.recovery.checkpoints
    return c


#: layers reported as ``<layer>.self_s``; harness time is split in two
SELF_LAYERS = tuple(name for name in layers.ENTRY_POINTS if name != "harness")


class TracedPass:
    """One pass with the layer wrappers installed.

    Each cell's per-layer self time is scaled to the reference host speed
    with that cell's own host-speed samples, like the untraced samples.
    """

    def __init__(self, rec: Recorder) -> None:
        self.timer = layers.SelfTimer()
        self.inst = layers.Instrumentation(self.timer)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        self.outs: List[Outcome] = []
        timer = self.timer
        rec.clock.on_sample = timer.exclude
        self.inst.install()
        try:
            for i in range(len(rec.wl.cells)):
                timer.settle()
                before = dict(timer.self_s)
                split0 = (timer.harness_setup_s, timer.harness_finalize_s)
                out, scale = rec.run(i)
                timer.settle()
                for layer, value in timer.self_s.items():
                    self.self_s[layer] += (value - before.get(layer, 0.0)) \
                        * scale
                self.self_s["harness.setup"] += \
                    (timer.harness_setup_s - split0[0]) * scale
                self.self_s["harness.finalize"] += \
                    (timer.harness_finalize_s - split0[1]) * scale
                self.wall_s += rec.seconds[i][-1]
                self.outs.append(out)
        finally:
            self.inst.remove()
            rec.clock.on_sample = None


def per_layer(r, args) -> Dict[str, Any]:
    wl = build_workload(r, args.workload, args.seed)
    rec = Recorder(r, wl)
    untraced: List[float] = []
    passes: List[TracedPass] = []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for i in range(len(wl.cells)):
            rec.run(i)
        untraced.append(sum(s[-1] for s in rec.seconds))
        passes.append(TracedPass(rec))
        pair = time.perf_counter() - p0
        if time.perf_counter() - t0 + pair > args.seconds:
            break
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(
        OUT_DIR, f"spans-{wl.name}-seed{args.seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(passes[0].timer.chrome_trace(passes[0].inst.layer_of), fh)

    k = len(passes)
    last = passes[-1]

    def mean_self(layer: str) -> float:
        return sum(p.self_s.get(layer, 0.0) for p in passes) / k

    def calls(name: str) -> float:
        return sum(last.timer.calls[e] for e in layers.COUNTED[name])

    traced_wall = statistics.median(p.wall_s for p in passes)
    untraced_wall = statistics.median(untraced)
    c = _per_pass_counts(last.outs)
    failed = sum(o.failure is not None for o in last.outs)
    m: Dict[str, Any] = {}
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = _metric(mean_self(layer), "s")
    m["harness.setup_s"] = _metric(mean_self("harness.setup"), "s")
    m["harness.finalize_s"] = _metric(mean_self("harness.finalize"), "s")
    attributed = sum(mean_self(layer) for layer in layers.ENTRY_POINTS)
    m["trace.unattributed_s"] = _metric(
        statistics.fmean(p.wall_s for p in passes) - attributed, "s")
    m["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s")
    model = rec.model_totals()
    m["engine.events"] = _metric(rec.events(), "count")
    for name in layers.COUNTED:
        m[name] = _metric(calls(name), "count")
    m["memory.diffs_created"] = _metric(c["created"], "count")
    m["memory.diffs_merged"] = _metric(c["merged"], "count")
    m["memory.diffs_applied"] = _metric(c["applied"], "count")
    m["obs.spans"] = _metric(c["spans"], "count")
    m["recovery.checkpoints"] = _metric(c["checkpoints"], "count")
    m["transport.retries"] = _metric(c["retries"], "count")
    m["transport.dups_suppressed"] = _metric(c["dups"], "count")
    frames = calls("transport.frames")
    m["transport.retry_ratio"] = _metric(
        c["retries"] / frames if frames else 0.0, "ratio")
    m["faults.injected"] = _metric(c["injected"], "count")
    m["obs.spans_dropped"] = _metric(c["spans_dropped"], "count")
    m["core.lap.hit_rate"] = _metric(
        c["lap_hits"] / c["lap_scored"] if c["lap_scored"] else 0.0, "ratio")
    m["memory.diffs_wasted_frac"] = _metric(
        c["wasted"] / c["created"] if c["created"] else 0.0, "ratio")
    m["check.violations"] = _metric(c["violations"], "count")
    m["cells.failed"] = _metric(failed, "count")
    m["cells.attempted"] = _metric(len(last.outs), "count")
    for key in MODEL_KEYS:
        m[f"model.{key}"] = _metric(model[key], "count")

    print(f"workload {wl.name}: {k} untraced + {k} traced passes; "
          f"untraced {untraced_wall:.3f}s, traced {traced_wall:.3f}s at "
          f"reference speed; model digest {rec.digest()}")
    print(f"  {'layer':<34}{'self s':>10}{'share':>9}")
    rows = [f"{layer}.self_s" for layer in SELF_LAYERS] + [
        "harness.setup_s", "harness.finalize_s", "trace.unattributed_s"]
    for name in rows:
        value = m[name]["value"]
        print(f"  {name:<34}{value:>10.4f}{100 * value / traced_wall:>8.2f}%")
    overhead = m["trace.overhead_s"]["value"]
    print(f"  {'trace.overhead_s':<34}{overhead:>10.4f}"
          f"{100 * overhead / untraced_wall:>8.2f}% of untraced")
    print(f"  lap hit rate base: {c['lap_scored']} scored transfers; "
          f"retry ratio base: {frames:.0f} frames; wasted-diff base: "
          f"{c['created']} diffs; spans written to {spans_path}")
    rec.print_failures()
    return {"correct": not rec.mismatches, "attempted": len(last.outs),
            "failed": failed, "metrics": m}


# ------------------------------------------------------------ entry point

class _Repro:
    """The simulator's public functions this benchmark drives.

    Functions are looked up on their modules at call time, so the traced
    run's wrappers (which rebind module attributes) see every call.
    """

    def __init__(self) -> None:
        import repro.check.oracle
        import repro.config
        import repro.faults
        import repro.fuzz.generator
        import repro.harness.runner
        import repro.memory.layout
        import repro.protocols.base
        import repro.sync.objects
        # imported lazily by the simulator; loaded here so set-up covers them
        import repro.protocols.treadmarks.protocol  # noqa: F401
        import repro.recovery  # noqa: F401
        from repro.apps import registry
        self._modules = (registry, repro.check.oracle, repro.config,
                         repro.faults, repro.fuzz.generator,
                         repro.harness.runner, repro.memory.layout,
                         repro.protocols.base, repro.sync.objects)

    def __getattr__(self, name: str) -> Any:
        for module in self._modules:
            if name in module.__dict__:
                return module.__dict__[name]
        raise AttributeError(name)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up once and exit (times setup_s)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: simulator sources not found under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_probe:
        print(setup_probe(args))
        return 0
    r = _Repro()
    report = per_layer(r, args) if args.trace else end_to_end(r, args)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
