"""How fast this machine runs Python code while a pass runs.

On a shared virtual machine the CPU time of the same pass changes by
tens of percent from one minute to the next, and often from one second
to the next, because the host's other tenants share the cores and caches
(benchmark/NOTES.md has the figures).  A time taken before or after a
pass does not see the speed during it, so the pass samples its own
speed: `Sampler.start()` arms a SIGPROF timer, and every INTERVAL_S of
CPU time the handler runs one fixed chunk of interpreter work and
records the thread CPU time it took.  The program's CPU time is the
pass's minus the chunks'; multiplied by

    (REFERENCE_CHUNK_S / median chunk time) ** SENSITIVITY

it is the CPU time the program would take at a fixed speed, the one at
which a chunk takes REFERENCE_CHUNK_S.  The chunk does nothing to the
program's state and allocates nothing that outlives it.

SENSITIVITY is how much more the program slows than the chunk when the
host gets busier.  Fitting log(program CPU time) against log(median
chunk time) over the passes of five sets of runs on a 2-vCPU VM gave
slopes of 1.13, 1.29 and 1.41 (`verify --all`, warm cache), 1.21
(`groups_sweep`) and 3.0 (`verify --all`, cold cache, where the chunk
explains the least).  Every slope is above 1, so the program leans on
the caches the host's other tenants share more than the chunk does.
With 1.25, the spread of the `verify --all` warm-cache CPU time (the
distance between the quartiles as a share of the median) over 33
passes went from 25% before scaling to 5% after it.
"""
from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.01
# about the median chunk time when this machine ran at its fastest
REFERENCE_CHUNK_S = 250e-6
SENSITIVITY = 1.25


def chunk() -> int:
    """About 250 microseconds of interpreter work on small integers.
    Mixes that also allocate (Fractions, tuples, dicts) tracked the
    program's speed worse: their time depends on the heap the program
    has built, not only on the machine."""
    x = 0
    for i in range(3000):
        x = (x * 31 + i) % 1000003
    return x


class Sampler:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0  # CPU time of all chunks run so far

    def _run_chunk(self, *_signal) -> None:
        t0 = time.thread_time()
        chunk()
        dt = time.thread_time() - t0
        self.samples.append(dt)
        self.spent_s += dt

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._run_chunk)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def top_up(self, n: int) -> None:
        """Run chunks until at least n have been timed."""
        while len(self.samples) < n:
            self._run_chunk()

    def take(self) -> tuple[list[float], float]:
        """The samples and chunk CPU time since the last take."""
        got = self.samples, self.spent_s
        self.samples, self.spent_s = [], 0.0
        return got


def scale(samples: list[float]) -> float:
    """Factor from CPU time at the sampled speed to the reference speed."""
    return (REFERENCE_CHUNK_S / statistics.median(samples)) ** SENSITIVITY
