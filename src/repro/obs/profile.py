"""Wall-clock profiling of the simulator itself.

Everything else in the observability layer measures *simulated* time; this
module measures where the *host* CPU goes while producing it — the event
loop's dispatch kinds, per-protocol message handlers, and coarse harness
phases (setup, run, finalize).  Enable with ``SimConfig(profile=True)`` or
``repro run --profile``; the report lands in ``RunResult.profile``.

The profiler is accumulation-only (name -> call count + seconds) so the
hot loop pays two ``perf_counter()`` calls and one dict update per timed
section, and nothing at all when profiling is off (the simulator guards
every hook with ``if profiler is not None``).
"""
from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Tuple


class Profiler:
    """Named wall-clock accumulators."""

    __slots__ = ("sections",)

    def __init__(self) -> None:
        #: name -> [calls, seconds]
        self.sections: Dict[str, List[float]] = {}

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        cell = self.sections.get(name)
        if cell is None:
            self.sections[name] = [calls, seconds]
        else:
            cell[0] += calls
            cell[1] += seconds

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        t0 = perf_counter()
        try:
            yield
        finally:
            self.add(name, perf_counter() - t0)

    # ---- reporting -------------------------------------------------------

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {name: {"calls": int(calls), "seconds": seconds}
                for name, (calls, seconds) in self.sections.items()}

    def total_seconds(self, prefix: str = "") -> float:
        return sum(sec for name, (_c, sec) in self.sections.items()
                   if name.startswith(prefix))

    def render(self, top: int = 25) -> str:
        """The sections, longest first.  ``harness.sim_run`` contains the
        ``event.*`` rows and ``event.arrival`` the ``handler.*`` rows, so
        when ``harness.*`` rows exist shares are of their total and ``cum``
        runs within each name's first dotted part."""
        if not self.sections:
            return "(no profile data)"
        # sort by descending seconds with the name as a tiebreaker, so two
        # runs with equal timings render identically (diffable reports)
        rows: List[Tuple[str, float, float]] = sorted(
            ((name, calls, sec) for name, (calls, sec)
             in self.sections.items()),
            key=lambda r: (-r[2], r[0]))
        roots = [r for r in rows if r[0].startswith("harness.")]
        total = sum(r[2] for r in (roots or rows))
        out = [f"{'section':<28} {'calls':>10} {'seconds':>9} "
               f"{'us/call':>9} {'share':>6} {'cum':>6}"]
        cum: Dict[str, float] = {}
        for name, calls, sec in rows[:top]:
            per = 1e6 * sec / calls if calls else 0.0
            share = 100.0 * sec / total if total else 0.0
            group = name.split(".", 1)[0] if roots else ""
            cum[group] = cum.get(group, 0.0) + share
            out.append(f"{name:<28} {int(calls):>10,} {sec:>9.3f} "
                       f"{per:>9.1f} {share:>5.1f}% {cum[group]:>5.1f}%")
        if len(rows) > top:
            label = f"{'... ' + str(len(rows) - top) + ' more':<28}"
            if roots:  # hidden rows nest, so their sum would double-count
                out.append(label.rstrip())
            else:
                rest = sum(r[2] for r in rows[top:])
                rest_share = 100.0 * rest / total if total else 0.0
                out.append(f"{label} {'':>10} {rest:>9.3f} {'':>9} "
                           f"{rest_share:>5.1f}%")
        return "\n".join(out)
