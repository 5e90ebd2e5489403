"""The native kernel suite ≡ the numpy fallbacks ≡ the bigint oracle.

The packed word kernels — the subset/closure mask (numpy only; the
native closed walk checks closures inside C), the candidate-support
join and multi-class batched supports — are reached through
:mod:`repro.bitmat` wrappers that silently fall back to numpy. These
tests pin the equivalence with the bigint oracle on ragged shapes
(widths under one word, exact word boundaries, straddling tails) and
the edge cases of kernel selection (empty forests, single-record
datasets). The native closed walk has its own differential suite,
``test_closed_native.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro.bitmat import (
    BitMatrix,
    intersection_counts,
    superset_mask,
)
from repro.mining import mine_closed
from repro.mining.tidsets import build_vertical_view
from repro.tidvector import TidVector, arena_rows, pack_bool_matrix

from .. import bigint_oracle as bs


def _arena(tidsets, n_records):
    """Pack bigint tidsets into a ``(k, n_words)`` uint64 arena."""
    return BitMatrix.from_tidsets(tidsets, n_records).words


@st.composite
def ragged_arenas(draw):
    # 1..130 records straddles <1 word, =1 word, =2 words, ragged tail.
    n_records = draw(st.integers(min_value=1, max_value=130))
    n_rows = draw(st.integers(min_value=0, max_value=8))
    top = (1 << n_records) - 1
    rows = [draw(st.integers(min_value=0, max_value=top))
            for _ in range(n_rows)]
    query = draw(st.integers(min_value=0, max_value=top))
    return rows, query, n_records


def _both_paths(fn):
    """Evaluate ``fn`` on the native path and the numpy fallback."""
    native = fn()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "_kernel", None)
        numpy_out = fn()
    return native, numpy_out


class TestSupersetMask:
    @given(instance=ragged_arenas())
    @settings(max_examples=80, deadline=None)
    def test_matches_bigint_subset(self, instance):
        rows, query, n_records = instance
        matrix = _arena(rows, n_records)
        query_words = _arena([query], n_records)[0]
        oracle = [query & ~row == 0 for row in rows]
        assert superset_mask(matrix, query_words).tolist() == oracle

    def test_empty_and_single_record(self):
        empty = _arena([], 77)
        assert superset_mask(empty, _arena([0], 77)[0]).shape == (0,)
        one = _arena([1, 0], 1)
        assert superset_mask(one, _arena([1], 1)[0]).tolist() == \
            [True, False]
        assert superset_mask(one, _arena([0], 1)[0]).tolist() == \
            [True, True]


class TestIntersectionCounts:
    @given(instance=ragged_arenas())
    @settings(max_examples=80, deadline=None)
    def test_matches_bigint_popcount(self, instance):
        rows, query, n_records = instance
        matrix = _arena(rows, n_records)
        query_words = _arena([query], n_records)[0]
        oracle = [bs.popcount(row & query) for row in rows]
        native, fallback = _both_paths(
            lambda: intersection_counts(matrix, query_words))
        assert native.tolist() == oracle
        assert fallback.tolist() == oracle

    def test_shape_validated(self):
        matrix = _arena([1, 2], 100)
        with pytest.raises(ValueError):
            intersection_counts(matrix, np.zeros(3, dtype=np.uint64))


class TestClassSupportsMulti:
    @given(instance=ragged_arenas(),
           n_batch=st.integers(min_value=0, max_value=3),
           n_classes=st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_matches_per_class_calls(self, instance, n_batch,
                                     n_classes):
        rows, _query, n_records = instance
        matrix = BitMatrix.from_tidsets(rows, n_records)
        rng = np.random.default_rng(n_records * 31 + n_batch)
        stacked = rng.random((n_classes, n_batch, n_records)) < 0.5
        native, fallback = _both_paths(
            lambda: matrix.class_supports_multi(stacked))
        assert native.shape == (n_classes, n_batch, len(rows))
        assert np.array_equal(native, fallback)
        for c in range(n_classes):
            assert np.array_equal(
                native[c], matrix.class_supports_batch(stacked[c]))

    def test_shape_validated(self):
        matrix = BitMatrix.from_tidsets([1], 4)
        with pytest.raises(ValueError):
            matrix.class_supports_multi(np.ones((2, 4), dtype=bool))
        with pytest.raises(ValueError):
            matrix.class_supports_multi(np.ones((1, 2, 5), dtype=bool))


class TestVerticalViewKernels:
    def _view(self, n_records, n_items, seed, density=0.3):
        rng = np.random.default_rng(seed)
        flags = rng.random((n_items, n_records)) < density
        tidsets = arena_rows(pack_bool_matrix(flags), n_records)
        return build_vertical_view(tidsets, n_records, min_sup=1,
                                   order="original")

    def test_candidate_supports_equals_python_loop(self):
        view = self._view(100, 12, seed=5)
        query = view.tidsets[0] & view.tidsets[3]
        expected = [query.intersection_count(t) for t in view.tidsets]
        for start in (0, 4, 11, 12, 40):
            native, fallback = _both_paths(
                lambda s=start: view.candidate_supports(query, s))
            assert native.tolist() == expected[start:]
            assert fallback.tolist() == expected[start:]

    def test_superset_positions_equals_python_loop(self):
        view = self._view(90, 10, seed=8, density=0.6)
        query = view.tidsets[1] & view.tidsets[7]
        expected = [p for p, t in enumerate(view.tidsets)
                    if query.is_subset(t)]
        assert view.superset_positions(query).tolist() == expected

    def test_single_record_dataset(self):
        view = self._view(1, 4, seed=2, density=1.0)
        tids = TidVector.universe(1)
        assert view.candidate_supports(tids).tolist() == [1] * 4
        assert view.superset_positions(tids).tolist() == [0, 1, 2, 3]

    def test_mined_patterns_identical_without_native(self, monkeypatch):
        rng = np.random.default_rng(13)
        flags = rng.random((20, 200)) < 0.4
        tidsets = arena_rows(pack_bool_matrix(flags), 200)
        native_run = mine_closed(tidsets, 200, min_sup=10)
        with monkeypatch.context() as patch:
            patch.setattr(_native, "_kernel", None)
            numpy_run = mine_closed(tidsets, 200, min_sup=10)
        assert list(native_run) == list(numpy_run)

