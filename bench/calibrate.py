"""Host-speed calibration of measured times.

The speed of a shared benchmark host drifts by tens of percent over
seconds to minutes, which would swamp the differences the benchmark is
meant to show.  So a fixed calibration loop runs between ops, about
every half second of measured time, and each measured time is divided by
the median time of the loops nearest to it (two before, two after) and
multiplied by ``REF_S``, the loop's nominal time: reported times are
seconds of a host that runs the loop in ``REF_S``.  The loop is
pure-Python exact arithmetic (Fraction and dict work, like discforge's)
that shares no code with discforge, and it runs with the garbage
collector off, so that the program's heap cannot change it.  Raw times
are kept beside the calibrated ones.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# nominal loop time: a round number near its time on a quiet 2-core x86-64
# VM with Python 3.11
REF_S = 0.020


def loop_seconds() -> float:
    """Seconds taken by the fixed calibration loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, 2400):
            acc += Fraction(i, i + 1) * Fraction(3, 7)
        table: dict[tuple[int, int], int] = {}
        for i in range(32000):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i * i
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Scales timed items by the calibration loops timed around them.

    ``add`` takes a dict holding ``raw_seconds`` and runs the loop once
    ``every`` seconds of raw time have passed since the last loop;
    ``flush`` runs a closing loop and sets ``seconds`` on every item added
    since the previous flush.
    """

    def __init__(self, every: float = 0.5) -> None:
        self.every = every
        self.loops = [loop_seconds()]
        self._items: list[tuple[dict, int]] = []  # item, index of the loop before it
        self._since_loop = 0.0

    def add(self, item: dict) -> None:
        self._items.append((item, len(self.loops) - 1))
        self._since_loop += item["raw_seconds"]
        if self._since_loop >= self.every:
            self._loop()

    def _loop(self) -> None:
        self.loops.append(loop_seconds())
        self._since_loop = 0.0

    def flush(self) -> None:
        if not self._items:
            return
        if self._items[-1][1] == len(self.loops) - 1:
            self._loop()
        for item, k in self._items:
            nearest = self.loops[max(0, k - 1): k + 3]
            item["seconds"] = item["raw_seconds"] * REF_S / statistics.median(nearest)
        self._items.clear()
