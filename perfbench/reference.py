"""A fixed computation that tracks the host's speed.

On a shared host the processor's speed moves by a quarter or more for
minutes at a time, and a run's wall and CPU seconds move with it (see
README.md, "Steadiness"). The benchmark times this computation next to
every run and reports times scaled to the speed at which it takes
``CALIBRATION_S``. It uses only the standard library and numpy, never
the program under test, so no change to the program can move it.
"""

from __future__ import annotations

import math
import time

#: About the median seconds of the reference on the 2-core x86_64 host
#: (Xeon, 2.0 GHz nominal) the benchmark was calibrated on, where it
#: ranged over 0.10-0.21 s. Scaled times read as seconds on that host.
CALIBRATION_S = 0.15


class Reference:
    """Geometric mean of a scalar-math loop and a popcount loop.

    The two halves stand for the program's two kinds of work:
    interpreter-bound scalar float math (the p-value tables of the
    Score stage) and memory-bound word kernels (mining and the
    permutation pass).
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._words = np.random.default_rng(0).integers(
            0, 2 ** 63, size=(4000, 128), dtype=np.uint64)

    def _scalar_s(self) -> float:
        start = time.perf_counter()
        table = [0.0] * 4096
        acc = 0.0
        for i in range(1, 300_000):
            k = i & 4095
            v = math.lgamma(k + 1.0) - math.lgamma(i % 977 + 1.0)
            table[k] = math.exp(-abs(v) * 1e-3) + acc * 1e-9
            acc += table[(k * 7) & 4095]
        return time.perf_counter() - start

    def _popcount_s(self) -> float:
        np, words = self._np, self._words
        start = time.perf_counter()
        total = 0
        for _ in range(60):
            total += int(np.bitwise_count(words & words[::-1]).sum())
        return time.perf_counter() - start

    def seconds(self) -> float:
        """One timing of the reference, in seconds."""
        return math.sqrt(self._scalar_s() * self._popcount_s())
