"""The host's speed, sampled while the program runs.

A shared host's cores can run at a speed that drifts by up to 2x in
phases of seconds to tens of seconds (see README.md). A fixed probe,
about a millisecond of pure-Python and small numpy/LAPACK work like the
training loop's own, is timed every ``interval_s`` seconds of a timed
window from a SIGALRM handler. Its duration over ``PROBE_REF_S`` is the
host's slowdown at that moment. The probes' own time is taken out of the
window, and the rest is converted to seconds at the reference speed:

    reference seconds = program seconds * mean(PROBE_REF_S / probe seconds)

which is exact for work done at a rate proportional to the host's
speed. The probe is part of the benchmark and never changes with the
program, so a change to the program moves reference seconds as it moves
wall seconds, and a slow phase of the host moves neither.
"""

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
# The probe's duration on the reference host (2-core Xeon VM, one BLAS
# thread) in a fast phase; it only scales the reported numbers.
PROBE_REF_S = 0.001

_X = np.random.default_rng(0).standard_normal((48, 4))


def probe():
    """Seconds taken by one fixed unit of interpreter and LAPACK work."""
    t0 = perf_counter()
    s = 0
    for i in range(4000):
        s += i * i % 7
    for _ in range(20):
        np.linalg.eigh(np.cov(_X, rowvar=False))
    return perf_counter() - t0


class Window:
    """Times the code run inside it, in wall and in reference seconds."""

    def __init__(self, interval_s=INTERVAL_S):
        self.interval_s = interval_s
        self.probe_s = []
        self.wall_s = self.program_s = self.speed = self.reference_s = None

    def _sample(self, signum, frame):
        self.probe_s.append(probe())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._old)
        self.program_s = self.wall_s - sum(self.probe_s)
        if not self.probe_s:  # shorter than one interval
            self.probe_s.append(probe())
        self.speed = float(np.mean([PROBE_REF_S / p for p in self.probe_s]))
        self.reference_s = self.program_s * self.speed
        return False
