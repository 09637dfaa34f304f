"""Host speed calibration: time a fixed kernel during each timed block.

The benchmark runs on shared hosts whose speed changes by a factor of up to
two within seconds, as other tenants come and go. `timed()` times a block
and, every `INTERVAL` seconds while the block runs, interrupts it with
SIGALRM to time a small kernel that does not touch womctl. The kernel's
time is left out of the block's time, and the block's time is scaled to the
reference host, on which one kernel run takes `REFERENCE_S`:

    reference seconds = block seconds * REFERENCE_S / median kernel seconds

The kernel, about 3 ms, has three parts for the three kinds of work womctl
does: a pure-Python integer loop, small-tuple dict updates, and int64 numpy
arithmetic done in place on a 256 KiB array, so that no run pays for page
faults on fresh memory. On a 2-core shared VM, kernel samples taken between
operations did not follow the host's speed during them; samples taken
inside them cut the spread (interquartile range over median) of the solve
time of ten runs from 0.07-0.26 to 0.04-0.08. A change to womctl cannot
move the kernel, so a metric in reference seconds moves by the same factor
as the raw time it scales.
"""

from __future__ import annotations

import contextlib
import functools
import signal
import statistics
import time

REFERENCE_S = 0.003  # median kernel run inside the operations on a 2-core x86-64 VM
INTERVAL = 0.1  # seconds between two kernel runs inside a timed block
MIN_SAMPLES = 5  # a block shorter than a few intervals is topped up after it ends


@functools.cache
def _arrays():
    """The numpy part's operand and its scratch array, made once."""
    import numpy as np  # on first use, after the caller has pinned numpy's threads

    a = np.arange(1 << 15, dtype=np.int64)
    return np, a, np.empty_like(a)


def kernel() -> None:
    """The fixed calibration work; the numpy part writes into a scratch array."""
    total = 0
    for i in range(8000):
        total += i * i % 7
    table: dict = {}
    for i in range(1500):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0.0) + i * 0.5
    np, a, b = _arrays()
    for _ in range(12):
        np.multiply(a, 3, out=b)
        np.add(b, 1, out=b)
        np.remainder(b, 5, out=b)
        np.add(b, a, out=b)
        int(b.argmin())


class Timing:
    """What `timed()` measured: the block's seconds without the kernel runs,
    the median kernel run, and the block's seconds at reference speed."""

    def __init__(self):
        self.seconds = 0.0
        self.kernel_s = 0.0
        self.samples: list[float] = []

    @property
    def ref_s(self) -> float:
        return self.seconds * REFERENCE_S / self.kernel_s


@contextlib.contextmanager
def timed():
    """Time the block, sampling the host's speed in it; yields a `Timing`.

    One kernel run is made just before the block and at least one just
    after, as many as a short block needs to reach MIN_SAMPLES. Needs the
    main thread (SIGALRM).
    """
    timing = Timing()
    clock = time.perf_counter
    spent = 0.0
    stopped = False

    def run_kernel() -> float:
        started = clock()
        kernel()
        return clock() - started

    def sample(signum, frame):
        nonlocal spent
        if not stopped:
            took = run_kernel()
            timing.samples.append(took)
            spent += took

    timing.samples.append(run_kernel())  # before the block
    previous = signal.signal(signal.SIGALRM, sample)
    started = clock()
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
    try:
        yield timing
    finally:
        stopped = True  # a sample still pending from here on is dropped
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        elapsed = clock() - started
        signal.signal(signal.SIGALRM, previous)
        timing.seconds = elapsed - spent
        timing.samples.append(run_kernel())  # after the block
        while len(timing.samples) < MIN_SAMPLES:
            timing.samples.append(run_kernel())
        timing.kernel_s = statistics.median(timing.samples)
