"""Host-speed reference kernel and the clock that scales by it.

On the 2-core host this benchmark was built on, the speed of the host
itself changes by up to 2x, both within seconds and over minutes: the same
lock-affinity cell list took 4.6 s of host time in one hour and 9.4 s in
the next, and this kernel between 0.86 ms and 1.8 ms.  Raw host seconds
therefore drift by far more than any regression bound of 25% could absorb.

So :class:`HostClock` samples the host's speed while it times a call: a
short run of this kernel right before and right after the call, and one
every ``SAMPLE_INTERVAL_S`` during it, from a ``SIGALRM`` handler in the
same thread.  The call's host seconds, minus the time spent in those
samples, are scaled by the mean of ``REFERENCE_S / kernel_s`` over the
samples, giving seconds at the reference host speed.  The kernel is pure
Python in the same style as the simulator's event loop (heap pops and
pushes, small tuples, attribute and dict updates, method calls) and
imports nothing from the simulator, so no change to the simulator can move
it.
"""
from __future__ import annotations

import heapq
import signal
from time import perf_counter
from typing import Callable, List, Optional, Tuple, TypeVar

#: kernel time at the host's fast speed when the bench was defined (the
#: fastest of 3000 runs took 0.86 ms), so scaled figures are close to raw
#: seconds on a quiet host
REFERENCE_S = 0.00086
_STEPS = 1_000
SAMPLE_INTERVAL_S = 0.02

T = TypeVar("T")


class _Node:
    __slots__ = ("clock", "seen")

    def __init__(self) -> None:
        self.clock = 0.0
        self.seen: dict = {}

    def step(self, t: float, k: int) -> float:
        self.clock = t
        self.seen[k & 255] = self.seen.get(k & 255, 0) + 1
        return t + (k % 7) + 1.0


def kernel_seconds() -> float:
    """Host seconds for one fixed run of the reference kernel."""
    t0 = perf_counter()
    nodes = [_Node() for _ in range(16)]
    heap = [(float(i), i, i % 16) for i in range(64)]
    heapq.heapify(heap)
    for k in range(_STEPS):
        t, seq, nid = heapq.heappop(heap)
        heapq.heappush(heap, (nodes[nid].step(t, k), seq + 64,
                              (nid + k) % 16))
    return perf_counter() - t0


class HostClock:
    """Times calls and scales them to the reference host speed."""

    def __init__(self) -> None:
        self._before = kernel_seconds()
        #: told the seconds of each sample taken during a call, so that a
        #: caller timing layers inside the call can leave them out
        self.on_sample: Optional[Callable[[float], None]] = None

    def time(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """``(fn(), host seconds, scale to reference speed)``.

        The host seconds exclude the samples taken during the call.
        """
        samples: List[float] = [self._before]
        spent = [0.0]

        def on_alarm(_signum, _frame) -> None:
            t0 = perf_counter()
            samples.append(kernel_seconds())
            took = perf_counter() - t0
            spent[0] += took
            if self.on_sample is not None:
                self.on_sample(took)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            host_s = perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        self._before = kernel_seconds()
        samples.append(self._before)
        scale = sum(REFERENCE_S / k for k in samples) / len(samples)
        return result, host_s - spent[0], scale
