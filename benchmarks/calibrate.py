"""Reference kernels that measure how fast the host runs while a job runs.

Shared hosts change speed under the benchmark.  On the 2-core Xeon VM where
the bounds were set, a fixed loop switched between speeds up to 1.8x apart,
within a second as well as over minutes, in CPU time as much as in wall
time.  A run that fell in a slow stretch read up to 1.7x longer with no
change to the program, and the median over a 30 s run did not average that
out.  Kernel passes timed between jobs tracked it badly, because the speed
changes within a job.

So while a timed job runs, a ``Sampler`` interrupts it every ``TICK_S``
seconds with SIGALRM and runs one short part of a reference kernel, in
turn.  The job's time is its wall time minus the time spent in those parts,
and it is scaled by the kernel's ``reference_s`` over the kernel's round
time measured during the job.  The result reads in seconds of a host on
which the kernel takes ``reference_s``.  The kernels are the benchmark's
own code and never call asymqkd, so a change to the program moves the job
and not the kernel.

Slow stretches slow interpreted Python more than numpy passes over large
arrays, so each workload uses the kernel whose parts match its work; of
the mixes tried, these kept the job-to-kernel ratio steadiest:

``INTERPRETER`` (the sweeps and the set-up probe): an interpreted float
    loop, numpy calls on small arrays (``majority_phase_error``),
    frozen-dataclass construction with string formatting (``PauliRates``
    and the CLI's rows), and reads scattered over lists and dicts too large
    for the caches.
``ARRAYS`` (the simulator): the float loop, and sampling, masking,
    permuting and sorting 150,000-element arrays (``run_protocol``).

Each part takes 2-5 ms on that VM, so the parts add about 7 % to a job's
wall time.
"""

from __future__ import annotations

import functools
import math
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Seconds between kernel parts while a job runs.
TICK_S = 0.05

_LOG_FACTORIALS = np.cumsum(np.log(np.arange(1, 64, dtype=float)))


@dataclass(frozen=True)
class _Rates:
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        total = self.a + self.b + self.c + self.d
        for name, value in zip("abcd", (self.a, self.b, self.c, self.d)):
            object.__setattr__(self, name, value / total)


def _float_loop() -> float:
    total = 0.0
    for i in range(20_000):
        total += (i * 0.5) % 7.0
    return total


def _small_arrays() -> float:
    total = 0.0
    for i in range(150):
        k = 5 + 2 * (i % 20)
        j = np.arange((k + 1) // 2, k + 1)
        logs = (_LOG_FACTORIALS[k - 1] - _LOG_FACTORIALS[j - 1] - _LOG_FACTORIALS[k - j - 1]
                + j * math.log(0.1) + (k - j) * math.log1p(-0.1))
        total += float(min(np.exp(logs).sum(), 1.0))
    return total


def _objects_and_text() -> int:
    lines = []
    for i in range(500):
        q = _Rates(0.9, 0.05 * (i % 3 + 1) / 3, 0.02, 0.01)
        lines.append(f"{q.a:.6f}\t{q.b:.6f}\t{q.c:.10g}\t{-q.d * math.log2(q.d):.12g}")
    return len("\n".join(lines))


@functools.cache
def _working_set() -> tuple[list[float], dict[int, float], list[int]]:
    """About 30 MB of lists and dicts, built on first use, before anything is timed."""
    return (
        [float(i) for i in range(300_000)],
        {i: float(i) for i in range(100_000)},
        np.random.default_rng(1).permutation(300_000).tolist(),
    )


def _scattered_reads() -> float:
    values, table, order = _working_set()
    total = 0.0
    for k in order[:8_000]:
        total += values[k] + table.get(k % 100_000, 0.0)
    return total


_CDF = np.cumsum([0.85, 0.10, 0.03, 0.02])


def _bulk_arrays() -> int:
    rng = np.random.default_rng(0)
    codes = np.searchsorted(_CDF, rng.random(150_000), side="right").astype(np.uint8)
    flips = rng.integers(0, 2, 150_000, dtype=np.uint8)
    picked = np.flatnonzero((codes ^ flips) == 1)
    return int(np.sort(rng.permutation(picked)[:40_000]).sum())


@dataclass(frozen=True)
class Kernel:
    """Parts run in turn, and the seconds of one round of them on a fast host."""

    parts: tuple[Callable[[], object], ...]
    # The low decile of the round times measured during the workload's
    # jobs on the VM above, which is about its fast stretches.
    reference_s: float

    def round_s(self, rounds: int = 1) -> float:
        """Mean wall seconds per round over ``rounds`` rounds."""
        t0 = time.perf_counter()
        for _ in range(rounds):
            for part in self.parts:
                part()
        return (time.perf_counter() - t0) / rounds

    def scaled(self, elapsed: float, round_s: float) -> float:
        """``elapsed`` in seconds of a host that runs a round in ``reference_s``."""
        return elapsed * self.reference_s / round_s


INTERPRETER = Kernel((_float_loop, _small_arrays, _objects_and_text, _scattered_reads), 0.0125)
ARRAYS = Kernel((_float_loop, _bulk_arrays), 0.0070)


class Sampler:
    """Runs one part of ``kernel`` every TICK_S seconds while the ``with`` block runs.

    The parts run from a SIGALRM handler on the main thread, between two
    bytecodes of the interrupted code.  ``spent`` is the time they took,
    to subtract from the block's wall time.
    """

    def __init__(self, kernel: Kernel) -> None:
        kernel.round_s()  # first calls and the working set, before any timing
        self.kernel = kernel
        self.samples: list[list[float]] = [[] for _ in kernel.parts]
        self.spent = 0.0
        self._next = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        part = self._next
        self._next = (part + 1) % len(self.kernel.parts)
        self.kernel.parts[part]()
        elapsed = time.perf_counter() - t0
        self.samples[part].append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def round_s(self) -> float:
        """Seconds of one kernel round while the block ran: the sum of each part's mean.

        A part that never ran, because the block ended first (a job that
        failed at once), is timed now instead.
        """
        for part, times in zip(self.kernel.parts, self.samples):
            if not times:
                t0 = time.perf_counter()
                part()
                times.append(time.perf_counter() - t0)
        return sum(statistics.fmean(times) for times in self.samples)
