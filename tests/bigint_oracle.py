"""Bigint bitset oracle for the packed-substrate tests.

A tidset as an arbitrary-precision Python ``int`` (record ``i`` present
when bit ``i`` is set): independent implementations of the set algebra,
popcounts and word packing that the packed
:class:`repro.tidvector.TidVector` kernels are checked against, byte
for byte. :func:`popcount` and :func:`is_subset` accept either
representation.

All functions treat a bitset as immutable; operations return new ints.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

__all__ = [
    "bitset_from_indices",
    "bitset_to_indices",
    "iter_indices",
    "popcount",
    "universe",
    "complement",
    "is_subset",
    "to_uint64_words",
    "from_uint64_words",
]


def popcount(bits) -> int:
    """Return the number of set bits (the cardinality of the set).

    Accepts a bigint or a :class:`~repro.tidvector.TidVector` (both
    expose ``bit_count``), so interop call sites need no dispatch.
    """
    return bits.bit_count()


if not hasattr(int, "bit_count"):  # pragma: no cover - Python < 3.10 fallback

    def popcount(bits) -> int:  # noqa: F811
        """Return the number of set bits (the cardinality of the set)."""
        if hasattr(bits, "bit_count"):
            return bits.bit_count()
        return bin(bits).count("1")


def bitset_from_indices(indices: Iterable[int], n: int | None = None) -> int:
    """Build a bitset from an iterable of record ids.

    ``n`` is accepted for symmetry with fixed-width representations and
    used only to validate that indices are in range when provided.
    """
    bits = 0
    if n is None:
        for i in indices:
            bits |= 1 << i
        return bits
    for i in indices:
        if i < 0 or i >= n:
            raise ValueError(f"record id {i} out of range [0, {n})")
        bits |= 1 << i
    return bits


def iter_indices(bits) -> Iterator[int]:
    """Yield the indices of set bits in ascending order.

    Uses the lowest-set-bit trick: ``bits & -bits`` isolates the lowest
    set bit, whose position is recovered via ``bit_length``. A
    :class:`~repro.tidvector.TidVector` argument delegates to its own
    (vectorized) enumeration.
    """
    if hasattr(bits, "iter_indices"):
        yield from bits.iter_indices()
        return
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def bitset_to_indices(bits: int) -> List[int]:
    """Return the sorted list of indices of set bits."""
    return list(iter_indices(bits))


def universe(n: int) -> int:
    """Return the bitset containing every record id in ``[0, n)``."""
    if n < 0:
        raise ValueError("universe size must be non-negative")
    return (1 << n) - 1


def complement(bits: int, n: int) -> int:
    """Return the complement of ``bits`` within a universe of size ``n``."""
    return universe(n) & ~bits


def is_subset(a, b) -> bool:
    """Return True when every bit of ``a`` is also set in ``b``.

    Either argument may be a bigint or a
    :class:`~repro.tidvector.TidVector`.
    """
    if hasattr(a, "is_subset"):
        return a.is_subset(b)
    if hasattr(b, "to_bigint"):
        b = b.to_bigint()
    return a & ~b == 0


def bitset_from_bool_sequence(flags: Sequence[bool]) -> int:
    """Build a bitset where bit ``i`` is set iff ``flags[i]`` is truthy."""
    bits = 0
    for i, flag in enumerate(flags):
        if flag:
            bits |= 1 << i
    return bits


def to_numpy_indices(bits: int, n: int):
    """Vectorized ``bitset_to_indices``: int32 array of set-bit positions.

    Goes through the little-endian byte representation and
    ``numpy.unpackbits`` so large tidsets convert without a Python-level
    loop per bit.
    """
    import numpy as np

    if bits == 0:
        return np.empty(0, dtype=np.int32)
    raw = bits.to_bytes((n + 7) // 8, "little")
    flags = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                          bitorder="little")[:n]
    return np.nonzero(flags)[0].astype(np.int32)


def from_numpy_bool(flags) -> int:
    """Vectorized ``bitset_from_bool_sequence`` for a numpy bool array."""
    import numpy as np

    packed = np.packbits(np.asarray(flags, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def to_uint64_words(bits: int, n: int):
    """Pack a bigint bitset into a ``ceil(n / 64)`` uint64 word array.

    Little-endian within and across words: record ``i`` is bit
    ``i % 64`` of word ``i // 64`` — the layout
    :class:`repro.bitmat.BitMatrix` counts with, so word-packed and
    bigint representations describe identical sets byte for byte.
    """
    import numpy as np

    n_words = (n + 63) // 64
    if bits < 0:
        raise ValueError("bitsets are non-negative")
    if bits >> n:
        # Catches records in [n, n_words * 64) too, which the
        # to_bytes overflow below would let through when n is not a
        # multiple of 64.
        raise ValueError(f"bitset references records >= {n}")
    raw = int(bits).to_bytes(n_words * 8, "little")
    words = np.frombuffer(raw, dtype=np.dtype("<u8"))
    return words.astype(np.uint64, copy=False)


def from_uint64_words(words) -> int:
    """Rebuild the bigint bitset from a uint64 word array.

    Inverse of :func:`to_uint64_words` (trailing zero words are
    harmless — the bigint simply has no bits there).
    """
    import numpy as np

    raw = (np.ascontiguousarray(words)
           .astype(np.dtype("<u8"), copy=False).tobytes())
    return int.from_bytes(raw, "little")
