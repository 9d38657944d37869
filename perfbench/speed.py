"""A fixed unit of exact arithmetic that tells how fast the machine runs right now.

On a shared machine the same code runs tens of percent slower or faster, in
bursts and in phases of minutes, as other tenants' load comes and goes.  A run
times this unit between the pieces of work it measures and takes each piece's
time relative to the unit timed just before and just after it; the median of
those ratios over a piece's repeats, times the unit's nominal time, reads as
seconds at one fixed machine speed and repeats from run to run where raw wall
time does not.  The unit is written here rather than taken from the package,
so that no change to the package alters it, and it does the same kind of work
as the package's kernels: dense Fraction products, exact elimination and
formatting.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REPEATS = 15  # one sample of the unit takes about 60 ms
NOMINAL_S = 0.06  # about one sample's fastest time on the baseline machine in meta.json
GAP = 5  # between cases, a sample is due after GAP times NOMINAL_S
_N = 10
_A = [[Fraction((i * 7 + j * 3) % 9 - 4, 1 + (i + j) % 3) for j in range(_N)] for i in range(_N)]
_B = [[Fraction((i * 5 + j * 11) % 7 - 3, 1 + (i * j) % 3) for j in range(_N)] for i in range(_N)]


def _work() -> str:
    c = [[sum(_A[i][k] * _B[k][j] for k in range(_N)) for j in range(_N)] for i in range(_N)]
    rows = [row[:] for row in c]
    for col in range(_N):
        pivot = next((r for r in range(col, _N) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(_N):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return ",".join(str(x) for row in c + rows for x in row)


class SpeedProbe:
    """Samples of the unit; a piece of work timed after sample k - 1 and before
    sample k is recorded with mark k."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Times the unit once; returns the mark for work that follows."""
        start = perf_counter()
        for _ in range(REPEATS):
            _work()
        self._last = perf_counter()
        self.times.append(self._last - start)
        return len(self.times)

    def sample_if_due(self) -> None:
        if perf_counter() - self._last >= GAP * NOMINAL_S:
            self.sample()

    @property
    def mark(self) -> int:
        return len(self.times)

    def scaled(self, timed: list[tuple[float, int]]) -> float:
        """Seconds at the nominal speed for one piece of work timed repeatedly.

        ``timed`` holds (wall seconds, mark) per repeat; every mark must have a
        sample after it.
        """
        return NOMINAL_S * statistics.median(
            seconds / ((self.times[mark - 1] + self.times[mark]) / 2) for seconds, mark in timed)
