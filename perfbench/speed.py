"""Time at a fixed reference speed of the host.

The benchmark runs on a few vCPUs of a shared host whose speed swings by
up to 2x within seconds, and on each vCPU on its own: a small
pure-Python kernel that takes 0.55 ms in a fast phase takes 1.1 ms in a
slow one, and a probe on the other vCPU tracks it only loosely
(correlation 0.5).  Wall times then spread by a quarter of their median
between runs of the same code.

So a timed region is measured together with the host's speed on the
same CPU: every ``PERIOD_S`` a ``SIGALRM`` handler times the fixed
kernel once.  The region's time at reference speed is its wall time,
less the probes' own time, times the mean relative speed of the probes,
``REF_KERNEL_S / k``.  A change to the program changes the work done
between probes, never the probe, so it shows in full.  On ``chip_2d``
this takes the spread of single iterations from 15% of the mean (wall
time) to 4% (reference time).
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Optional

#: seconds the probe kernel takes at the reference speed: the fast phase
#: of the 2-vCPU Xeon VM the bounds were set on
REF_KERNEL_S = 0.00055
#: seconds between probes inside a region
PERIOD_S = 0.05


def _kernel() -> int:
    d: dict = {}
    for i in range(4000):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
    return len(d)


def probe() -> float:
    """Seconds one run of the probe kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class SpeedClock:
    """Times a ``with`` block and the host's speed while it runs.

    The block is probed once before and once after, outside its wall
    time, and every ``period_s`` inside it (``None``: not inside, for
    regions whose inner times are measured too).  Must be used from the
    main thread; the previous ``SIGALRM`` handler is restored on exit.

    Attributes after the block: ``wall_s`` (wall time less the probes
    inside), ``speed`` (mean speed relative to the reference) and
    ``ref_s`` (``wall_s * speed``, the block's time at reference speed).
    """

    def __init__(self, period_s: Optional[float] = PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: List[float] = []
        self.wall_s = 0.0
        self.speed = 1.0
        self.ref_s = 0.0

    def _on_alarm(self, _signum, _frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "SpeedClock":
        self.samples = [probe()]
        self._previous = None
        if self.period_s:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period_s,
                             self.period_s)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> bool:
        if self.period_s:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        wall = time.perf_counter() - self._t0
        self.wall_s = wall - sum(self.samples[1:])
        self.samples.append(probe())
        self.speed = statistics.fmean(REF_KERNEL_S / k
                                      for k in self.samples)
        self.ref_s = self.wall_s * self.speed
        return False
