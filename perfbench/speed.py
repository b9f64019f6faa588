"""Scaling of measured times to a reference CPU speed.

The CPU of a small shared machine runs at full speed or up to ~1.8x
slower, in spells of seconds to minutes, and CPU time stretches with wall
time, so a raw op time says as much about the neighbours as about the
code: on a 2-core sandbox VM the median op time of identical work moved by
14-24% (quartile spread) between 10-second windows.  The worker therefore
times a fixed reference workload (``kernel``) every INTERVAL_S between ops
and scales each op's time by REF_S over the median kernel time within
WINDOW_S of the op's start.  The result is in reference seconds: the time
on a CPU that runs the kernel in exactly REF_S, which that sandbox does at
about full speed.  Over the same windows the scaled op times moved by 2-4%
for the reconstruction ops and by 7% for the self-consistent solves.
"""

import time

import numpy as np

REF_S = 2.0e-3
INTERVAL_S = 0.1
WINDOW_S = 0.25

_MASK = (1 << 256) - 1
_M8 = np.cos(np.arange(64.0)).reshape(8, 8)
_M4 = np.cos(np.arange(16.0)).reshape(4, 4)


def kernel():
    """Seconds one run of the reference work takes now.  The work mixes
    what effham's ops are made of: an integer loop, 256-bit integer
    products (mpmath's mantissas), small-object churn, 8x8 eigenvalue
    calls, and the 4x4 eig, sort and copy of a self-consistent iteration.
    A loop of one kind alone tracked the ops' speed two to four times
    worse."""
    t0 = time.perf_counter()
    x = 0
    for i in range(8000):
        x += i * i
    a, b = (1 << 250) + 12345, (1 << 190) + 999
    for i in range(1500):
        a = (((a * b) >> 190) & _MASK) + i
    table = {i: (i, i * 0.5, str(i)) for i in range(1500)}
    sum(v[1] for v in table.values())
    for _ in range(20):
        np.linalg.eigvals(_M8)
    for _ in range(40):
        w = np.linalg.eig(_M4)[0]
        np.lexsort((w.imag, w.real))
        np.array(_M4)[-1, -1] = 1.0
    return time.perf_counter() - t0


class Calibrator:
    """Kernel timings taken between ops, and the scale factors they give."""

    def __init__(self):
        self.times = []
        self.kernel_s = []

    def sample_if_due(self):
        now = time.perf_counter()
        if not self.times or now - self.times[-1] >= INTERVAL_S:
            self.times.append(now)
            self.kernel_s.append(kernel())

    def factors(self, starts):
        """REF_S over the median kernel time within WINDOW_S of each start.
        A sample is due at most INTERVAL_S < WINDOW_S before every op, so
        no window is empty."""
        t = np.asarray(self.times)
        d = np.asarray(self.kernel_s)
        lo = np.searchsorted(t, np.asarray(starts) - WINDOW_S)
        hi = np.searchsorted(t, np.asarray(starts) + WINDOW_S)
        return np.array([REF_S / np.median(d[a:b]) for a, b in zip(lo, hi)])


def factor_now():
    """Scale factor from five kernel timings taken back to back."""
    return REF_S / float(np.median([kernel() for _ in range(5)]))
