"""The log-factorial buffer ``Bf`` of Section 4.2.3.

The paper stores the factorials of ``0..n`` in a buffer to make each
hypergeometric probability O(1); because ``n!`` overflows any fixed-
width float long before the dataset sizes used here, the buffer holds
*logarithms* of factorials, exactly as the paper prescribes ("we store
the logarithm of the factorials in the buffer"). The buffer grows
incrementally and is shared process-wide through
:func:`default_buffer`. A float64 mirror of the same values
(:meth:`LogFactorialBuffer.as_array`) feeds the native p-value table
kernel and the scalar builder's log-space pmf.
"""

from __future__ import annotations

import math
import threading
from typing import List

import numpy as np

from ..errors import StatsError

__all__ = ["LogFactorialBuffer", "default_buffer", "log_binomial"]


class LogFactorialBuffer:
    """Incrementally grown table of ``ln(k!)`` for ``k = 0..capacity``.

    ``buffer[k]`` is ``ln(k!)``; extension is O(new entries) because
    ``ln((k+1)!) = ln(k!) + ln(k+1)``.
    """

    def __init__(self, initial_capacity: int = 1024) -> None:
        if initial_capacity < 0:
            raise StatsError("initial capacity must be non-negative")
        self._table: List[float] = [0.0]
        # The same values as a float64 array. It is replaced, never
        # written in place, so a reference taken once stays consistent
        # while another thread grows the buffer.
        self._array = _frozen([0.0])
        self._grow_lock = threading.Lock()
        self.ensure(initial_capacity)

    def __len__(self) -> int:
        return len(self._table)

    # Buffers travel to process workers inside pickled rulesets and
    # caches; the growth lock is process-local state, not data.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_grow_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._grow_lock = threading.Lock()

    @property
    def capacity(self) -> int:
        """Largest ``k`` for which ``ln(k!)`` is currently tabulated."""
        return len(self._table) - 1

    def ensure(self, n: int) -> None:
        """Grow the table so that ``log_factorial(n)`` is O(1).

        Growth is serialized: the process-wide default buffer is hit
        concurrently by the thread fan-outs (``Pipeline.run_many``,
        the correct-stage fan-out, the experiment grid), and an
        unlocked read-of-``table[-1]``-then-append loop interleaves
        into silently wrong entries. Reads stay lock-free — the table
        is append-only, so any index below ``len`` is immutable.
        """
        if n < len(self._table):
            return
        with self._grow_lock:
            self._grow(n)

    def _grow(self, n: int) -> None:
        """Extend the table and its array mirror; caller holds the lock."""
        table = self._table
        for k in range(len(table), n + 1):
            table.append(table[-1] + math.log(k))
        if len(self._array) < len(table):
            self._array = _frozen(table)

    def as_array(self, n: int) -> np.ndarray:
        """``ln(k!)`` for ``k = 0..`` at least ``n`` as a float64 array.

        The array holds bit for bit the values :meth:`log_factorial`
        returns. Callers must treat it as read-only and index one
        reference, taken once: growth installs a new array rather than
        resizing this one.
        """
        array = self._array
        if n < len(array):
            return array
        with self._grow_lock:
            self._grow(n)
            return self._array

    def log_factorial(self, k: int) -> float:
        """Return ``ln(k!)``, growing the table if needed."""
        if k < 0:
            raise StatsError(f"factorial of negative number {k}")
        if k > self.capacity:
            self.ensure(k)
        return self._table[k]

    def log_binomial(self, a: int, b: int) -> float:
        """Return ``ln(C(a, b))``; ``-inf`` when the coefficient is 0."""
        if b < 0 or b > a:
            return float("-inf")
        if a > self.capacity:
            self.ensure(a)
        table = self._table
        return table[a] - table[b] - table[a - b]


def _frozen(values: List[float]) -> np.ndarray:
    array = np.array(values, dtype=np.float64)
    array.flags.writeable = False
    return array


_DEFAULT = LogFactorialBuffer()


def default_buffer() -> LogFactorialBuffer:
    """Process-wide shared buffer (grown lazily by all callers)."""
    return _DEFAULT


def log_binomial(a: int, b: int) -> float:
    """Module-level convenience for ``ln(C(a, b))`` via the shared buffer."""
    return _DEFAULT.log_binomial(a, b)
