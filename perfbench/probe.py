"""Core-speed probe: calibrate latencies by the speed of the cores they ran on.

The cores of a shared host do not run at a fixed speed: on a 2-core KVM
guest (Xeon, Python 3.11, NumPy 2.4) identical operations ran up to 2x
slower in phases lasting from seconds to minutes, each core on its own,
and the guest saw almost no steal time.  Wall time alone then spread by
20-40% between runs of identical work.

The probe samples core speed where the work runs.  A ``SIGALRM`` handler
runs a small fixed kernel every ``INTERVAL`` seconds in the main thread
and records its duration; forked pool workers start their own timer and
write their samples to a spool file when they exit.  An operation's
calibrated latency is its wall time times the mean of ``NOMINAL / c`` over
the samples ``c`` taken while it ran, so a calibrated second is a second
on a core that runs the kernel in ``NOMINAL`` seconds.  The handler costs
about one percent of a core and runs inside the measured operations.
"""

from __future__ import annotations

import os
import signal
import time
from multiprocessing import util

import numpy as np

INTERVAL = 0.05
NOMINAL = 0.5e-3

# kernel input: a risk-set style walk over suffixes, like the library's scans
_RNG = np.random.default_rng(0)
_Z = _RNG.standard_normal((1000, 3))
_G = _RNG.standard_normal(1000)


def _kernel() -> float:
    acc = 0.0
    for r in range(0, 1000, 50):
        seg = _G[r:]
        w = np.exp(seg - seg.max())
        zr = _Z[r:]
        acc += float((w @ zr).sum() / w.sum())
        acc += float((zr.T @ (w[:, None] * zr)).sum())
    return acc


class SpeedProbe:
    """Samples core speed in this process and in its forked pool workers."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.samples: list = []      # (start, kernel seconds)
        self._active = False
        self._previous = None
        # multiprocessing runs these in a forked worker after it resets its
        # own finalizers, so the one registered there survives
        util.register_after_fork(self, SpeedProbe._after_fork)

    def _handler(self, signum, frame) -> None:
        t = time.perf_counter()
        _kernel()
        self.samples.append((t, time.perf_counter() - t))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._active = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._active = False

    def _after_fork(self) -> None:
        # timers are not inherited across fork; the handler is
        if not self._active:
            return
        self.samples = []
        util.Finalize(self, self._spool, exitpriority=10)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def _spool(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        path = os.path.join(self.spool_dir, f"probe-{os.getpid()}.txt")
        with open(path, "w") as fh:
            fh.writelines(f"{t!r} {c!r}\n" for t, c in self.samples)

    def _collect(self) -> None:
        for entry in os.listdir(self.spool_dir):
            if entry.startswith("probe-"):
                path = os.path.join(self.spool_dir, entry)
                with open(path) as fh:
                    self.samples.extend(tuple(map(float, line.split())) for line in fh)
                os.unlink(path)

    def calibrated(self, t0: float, t1: float) -> float:
        """Calibrated seconds of the interval [t0, t1]; the wall time if unsampled."""
        self._collect()
        speeds = [NOMINAL / c for t, c in self.samples if t0 <= t <= t1]
        self.samples = [s for s in self.samples if s[0] > t1]
        return (t1 - t0) * (float(np.mean(speeds)) if speeds else 1.0)
