"""Machine-speed calibration for item times.

On a shared 2-CPU VM (CPython 3.11) the speed of a fixed pure-Python loop
moved by up to 60 % for seconds to minutes at a time, as other tenants
loaded the host, and process CPU time moved with it.  That is far more
than the changes the benchmark must resolve.  A fixed kernel timed next
to the measured work tracks that speed, and item times are rescaled to
the speed at which the kernel takes CALIBRATION_REFERENCE_S.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Time of calibration_kernel on that VM while the host was quiet.
CALIBRATION_REFERENCE_S = 0.002
CALIBRATE_EVERY_S = 0.05


def calibration_kernel() -> float:
    """Time fixed pure-Python work in the package's style: integer row
    elimination and a Fraction sum.  It uses nothing from the package, so
    a change to the package cannot move it."""
    t0 = perf_counter()
    n, w = 14, 28
    rows = [[(i * 7919 + j * 104729) % 19 - 9 for j in range(w)] for i in range(n)]
    prev = 1
    for c in range(n):
        pv = rows[c][c] or 1
        for r in range(c + 1, n):
            t = rows[r][c]
            rows[r] = [(pv * x - t * y) // prev for x, y in zip(rows[r], rows[c])]
        prev = pv
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(k, k * k + 1)
    return perf_counter() - t0


class ScaledTimes:
    """Item times rescaled to the reference speed.

    After every CALIBRATE_EVERY_S of item time the kernel runs once, and
    the items in between are scaled by CALIBRATION_REFERENCE_S over the
    mean of the two kernel times that bracket them.  On repeated identical
    certify rounds this cut the round-to-round spread of item time from
    19 % to 6.5 %.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.kernel_s = [calibration_kernel()]
        self._open: list[int] = []
        self._since = 0.0

    def add(self, dt: float) -> None:
        self._open.append(len(self.raw))
        self.raw.append(dt)
        self.scaled.append(dt)
        self._since += dt
        if self._since >= CALIBRATE_EVERY_S:
            self.close()

    def close(self) -> None:
        if not self._open:
            return
        k = calibration_kernel()
        factor = CALIBRATION_REFERENCE_S / ((self.kernel_s[-1] + k) / 2)
        for i in self._open:
            self.scaled[i] *= factor
        self.kernel_s.append(k)
        self._open.clear()
        self._since = 0.0
