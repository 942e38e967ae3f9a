"""Machine-speed meter for the end-to-end timings.

The 2-core machine this benchmark was written on shares its cores with
other tenants.  Its speed switches between two levels about 1.9x apart,
for seconds to minutes at a time, and that drift swamped every other
source of run-to-run spread.  While a :class:`SpeedMeter` is active, a
timer signal runs a fixed pure-Python ``Fraction`` kernel every
``INTERVAL_S`` seconds, in the benchmark's own thread, between bytecodes
of whatever is running.  Each timing is then scaled by ``REFERENCE_S``
over the mean kernel time around it.  Scaled times read as seconds at the
reference speed, where the kernel takes ``REFERENCE_S``.  The kernel's
own time is subtracted from every timing, scaled or not.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

#: Kernel time at the reference speed: the faster of the two levels here.
REFERENCE_S = 1.0e-3
INTERVAL_S = 0.01
#: Samples within this many seconds of a timing count towards its speed;
#: a short timing with fewer than MIN_SAMPLES nearby uses the nearest ones.
WINDOW_S = 0.05
MIN_SAMPLES = 5


def kernel() -> Fraction:
    """Fixed rational arithmetic of the kind the library spends its time on."""
    acc = Fraction(0)
    row = [Fraction(i, 3) for i in range(1, 7)]
    for k in range(40):
        for i in range(6):
            acc += row[i] * row[(i + k) % 6] - row[(i * k) % 6]
    return acc


class SpeedMeter:
    """Samples the kernel from SIGALRM while active (use as a context manager)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self.stolen = 0.0  # seconds spent in the kernel so far
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        kernel()
        spent = time.perf_counter() - start
        self.samples.append((start, spent))
        self.stolen += spent

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean kernel time around ``[start, end]``."""
        near = [k for t, k in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if len(near) < MIN_SAMPLES:
            middle = (start + end) / 2
            near = [k for _, k in sorted(self.samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]]
        return REFERENCE_S * len(near) / sum(near)
