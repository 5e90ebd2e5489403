"""The native permutation pass ≡ the numpy reductions, bit for bit.

With the kernel suite loaded, :class:`repro.corrections.
PermutationEngine` scores each block of labellings in one
``repro_permutation_pass`` call: it counts every rule's supports and
folds them into the min-p distribution, the pooled rank counts and
the step-down counts. The numpy path is the fallback
without a compiler and the oracle here: every property compares the
public statistics of both paths exactly, over binary and multiclass
data (one class on no rule's right-hand side, every binary rule on
class 1), tables with ties and p = 1.0 plateaus, permutation counts
around the block size, both parallel backends and an empty rule set;
supports past a log-space table's live window are checked against the
full scalar tables. A wide forest pins the sizing: the native path
runs blocks of more than one labelling within its memory budget
without a per-block support array, and so does full Adult under the
default budget; the numpy path's tiled kernel stays within twice its
budget.
"""

from __future__ import annotations

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro.corrections import PermutationEngine
from repro.corrections.permutation import (
    DEFAULT_BATCH_BYTES,
    NATIVE_BATCH_ROWS,
)
from repro.data import Dataset, make_adult, make_mushroom
from repro.errors import CorrectionError
from repro.mining import mine_class_rules
from repro.stats import support_bounds
from repro.stats.pvalue_scalar import pvalue_table

from .permutation_oracle import reference, rule_supports, statistics

PERMUTATION_COUNTS = (1, 5, NATIVE_BATCH_ROWS - 1, NATIVE_BATCH_ROWS,
                      NATIVE_BATCH_ROWS + 1, 2 * NATIVE_BATCH_ROWS + 3)


def _require_native():
    if _native.load_suite() is None:
        pytest.skip(f"native kernel suite unavailable "
                    f"({_native.native_status()})")


def _dataset(seed, n_records, n_attributes, n_classes, signal):
    """Random categorical records; attribute 0 copies the class label
    in a ``signal`` share of them, so small p-values sit among the
    plateaus and ties of the null rules."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, n_records)
    labels[:n_classes] = np.arange(n_classes)
    values = rng.integers(0, 3, (n_records, n_attributes))
    copied = rng.random(n_records) < signal
    values[copied, 0] = labels[copied] % 3
    records = [[f"v{v}" for v in row] for row in values]
    return Dataset.from_records(records, [f"c{c}" for c in labels])


def _statistics(ruleset, native, **options):
    """The public statistics of one engine; ``native=False`` hides the
    kernel suite so the numpy reductions run."""
    with pytest.MonkeyPatch.context() as patch:
        if not native:
            patch.setattr(_native, "load_suite", lambda: None)
        engine = PermutationEngine(ruleset, **options)
        assert engine._native is native
        return (engine.min_p_distribution(),
                engine.empirical_p_values(),
                engine.stepdown_adjusted_p_values())


def _assert_identical(left, right):
    assert np.array_equal(left[0], right[0])
    assert left[1] == right[1]
    assert left[2] == right[2]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n_records=st.integers(12, 90),
       n_attributes=st.integers(2, 5),
       n_classes=st.sampled_from((2, 3, 4)),
       signal=st.sampled_from((0.0, 0.5, 0.9)),
       min_sup=st.integers(2, 12),
       n_permutations=st.sampled_from(PERMUTATION_COUNTS),
       batch_bytes=st.sampled_from((1, DEFAULT_BATCH_BYTES)))
def test_native_equals_numpy(seed, n_records, n_attributes, n_classes,
                             signal, min_sup, n_permutations,
                             batch_bytes):
    _require_native()
    dataset = _dataset(seed, n_records, n_attributes, n_classes, signal)
    ruleset = mine_class_rules(dataset, min_sup)
    options = dict(n_permutations=n_permutations, seed=seed % 997,
                   batch_bytes=batch_bytes)
    _assert_identical(_statistics(ruleset, True, **options),
                      _statistics(ruleset, False, **options))


class TestSeeded:
    @pytest.fixture(scope="class")
    def multiclass(self):
        return mine_class_rules(_dataset(5, 150, 5, 4, 0.6), 6)

    def test_ties_and_plateaus(self):
        _require_native()
        ruleset = mine_class_rules(_dataset(11, 60, 4, 2, 0.5), 3)
        observed = [rule.p_value for rule in ruleset.rules]
        assert max(observed) == 1.0
        assert len(set(observed)) < len(observed)
        for n_permutations in PERMUTATION_COUNTS:
            options = dict(n_permutations=n_permutations, seed=3)
            _assert_identical(_statistics(ruleset, True, **options),
                              _statistics(ruleset, False, **options))

    def test_binary_rules_all_on_class_one(self):
        """Every rule is coverage minus the counted class-0 plane."""
        _require_native()
        ruleset = mine_class_rules(_dataset(17, 90, 4, 2, 0.6), 4,
                                   rhs_class=1)
        assert {rule.class_index for rule in ruleset.rules} == {1}
        options = dict(n_permutations=NATIVE_BATCH_ROWS + 3, seed=6)
        _assert_identical(_statistics(ruleset, True, **options),
                          _statistics(ruleset, False, **options))

    def test_class_on_no_rhs(self):
        """Three classes, one on no rule's right-hand side: the pass
        counts one plane per class that is."""
        _require_native()
        full = mine_class_rules(_dataset(19, 120, 4, 3, 0.6), 5)
        ruleset = full.take(np.flatnonzero(full.classes != 1))
        engine = PermutationEngine(ruleset, n_permutations=1)
        assert engine._slot_classes == [0, 2]
        options = dict(n_permutations=NATIVE_BATCH_ROWS + 3, seed=7)
        _assert_identical(_statistics(ruleset, True, **options),
                          _statistics(ruleset, False, **options))

    def test_support_outside_table_raises(self, multiclass):
        _require_native()
        engine = PermutationEngine(multiclass, n_permutations=3, seed=0)
        engine._keys = engine._keys + engine._tables.n_built
        with pytest.raises(CorrectionError, match="outside its p-value"):
            engine.run()

    @pytest.mark.parametrize("backend", ("threads", "processes"))
    def test_backends(self, multiclass, backend):
        _require_native()
        options = dict(n_permutations=2 * NATIVE_BATCH_ROWS + 5, seed=9)
        serial = _statistics(multiclass, True, **options)
        for native in (True, False):
            _assert_identical(
                serial, _statistics(multiclass, native, n_jobs=3,
                                    backend=backend, **options))

    def test_cache_mode(self, multiclass):
        """Both paths equal the scalar reference's buffer-cache
        scoring, one labelling and one rule at a time."""
        _require_native()
        n_permutations = NATIVE_BATCH_ROWS + 1
        expected = reference(multiclass, n_permutations, seed=2)
        for native in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                if not native:
                    patch.setattr(_native, "load_suite", lambda: None)
                engine = PermutationEngine(
                    multiclass, n_permutations=n_permutations, seed=2)
                engine.run()
            assert np.array_equal(engine._min_p, expected[0])
            assert np.array_equal(engine._pooled_counts, expected[1])
            assert np.array_equal(engine._stepdown_counts, expected[2])

    def test_zero_rules(self):
        _require_native()
        dataset = _dataset(1, 30, 3, 3, 0.0)
        ruleset = mine_class_rules(dataset, dataset.n_records)
        assert not ruleset.rules
        options = dict(n_permutations=NATIVE_BATCH_ROWS + 1, seed=4)
        native = _statistics(ruleset, True, **options)
        _assert_identical(native, _statistics(ruleset, False, **options))
        assert np.array_equal(native[0], np.ones(NATIVE_BATCH_ROWS + 1))


def test_supports_beyond_live_windows():
    """Labellings that put rules' supports past their tables' live
    windows (3,000 records, attribute 0 copies the class, so the
    unshuffled labelling gives its rules the extreme support ``U``):
    both paths clamp into the stored range and reproduce the
    statistics of the full scalar tables."""
    _require_native()
    ruleset = mine_class_rules(_dataset(23, 3000, 3, 2, 1.0), 300)
    tables = ruleset.tables
    assert (tables.first > tables._low).any()
    assert (tables.last < tables._high).any()
    labels = np.array(ruleset.dataset.class_labels, dtype=np.int64)
    rng = np.random.default_rng(0)
    blocks = [labels, np.roll(labels, 1), rng.permutation(labels),
              labels]
    n = ruleset.dataset.n_records
    full = {}
    perm_p = []
    for block in blocks:
        row = []
        for rule, k in zip(ruleset.rules, rule_supports(ruleset, block)):
            n_c = ruleset.dataset.class_support(rule.class_index)
            key = (n_c, rule.coverage)
            if key not in full:
                full[key] = pvalue_table(n, n_c, rule.coverage)
            low = support_bounds(n, n_c, rule.coverage)[0]
            row.append(full[key][k - low])
        perm_p.append(row)
    assert min(perm_p[0]) == 0.0
    expected = statistics(ruleset.p_values().tolist(), perm_p)

    class Replay:
        """Stands in for the seeded generators: hands out
        ``blocks`` in permutation order."""

        def __init__(self, queue, seed):
            self._queue = queue

        def permutation(self, _labels):
            return next(self._queue)

    for native in (True, False):
        queue = iter(blocks)
        with pytest.MonkeyPatch.context() as patch:
            if not native:
                patch.setattr(_native, "load_suite", lambda: None)
            patch.setattr(np.random, "default_rng",
                          lambda seed: Replay(queue, seed))
            engine = PermutationEngine(ruleset,
                                       n_permutations=len(blocks),
                                       seed=0)
            engine.run()
        assert engine._native is native
        assert np.array_equal(engine._min_p, expected[0])
        assert np.array_equal(engine._pooled_counts, expected[1])
        assert np.array_equal(engine._stepdown_counts, expected[2])


class TestDispatchLog:
    @pytest.fixture(scope="class")
    def ruleset(self):
        return mine_class_rules(_dataset(8, 80, 4, 2, 0.5), 5)

    def _records(self, caplog, engine):
        with caplog.at_level(logging.DEBUG, logger="repro.corrections"):
            engine.run()
            engine.run()
        return [r for r in caplog.records
                if r.name == "repro.corrections"]

    def test_native_pass_logged(self, caplog, ruleset):
        _require_native()
        engine = PermutationEngine(
            ruleset, n_permutations=NATIVE_BATCH_ROWS + 1, seed=0)
        records = self._records(caplog, engine)
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert records[0].getMessage() == (
            f"permutation pass: native, B={NATIVE_BATCH_ROWS}, "
            f"{engine._matrix.n_rows} nodes, "
            f"{len(ruleset.rules)} rules")

    def test_numpy_pass_logs_native_status(self, caplog, monkeypatch,
                                           ruleset):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setattr(_native, "_kernel", "unset")
        monkeypatch.setattr(_native, "_status", _native._status)
        engine = PermutationEngine(ruleset, n_permutations=7, seed=0)
        records = self._records(caplog, engine)
        assert len(records) == 1
        message = records[0].getMessage()
        assert message.startswith(
            "permutation pass: numpy (native kernels disabled via "
            "REPRO_NATIVE=0), B=7, ")
        assert message.endswith(f"{len(ruleset.rules)} rules")


@pytest.fixture(scope="module")
def wide_ruleset():
    """Mushroom at min_sup 1500: 18,613 nodes × 127 words."""
    return mine_class_rules(make_mushroom(seed=0), 1500)


def test_wide_forest_resource_contract(wide_ruleset):
    """The wide forest's whole-matrix numpy broadcast (9 bytes per
    word-cell) exceeds a 14 MiB budget. The native path must batch,
    and the fused pass keeps no per-block support array: its peak,
    per-rule columns and rank table included, stays within the
    budget, where a ``(B, n_nodes)`` support block would not fit."""
    _require_native()
    budget = 14 * 2 ** 20
    engine = PermutationEngine(wide_ruleset, n_permutations=40, seed=0,
                               batch_bytes=budget)
    matrix = engine._matrix
    assert matrix.n_rows * matrix.n_words * 9 > budget
    n_batch = engine._batch_rows()
    # The budget, not the permutation count, bounds the block.
    assert 1 < n_batch < 40
    tracemalloc.start()
    try:
        engine.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= budget
    assert peak + n_batch * matrix.n_rows * 8 > budget


def test_full_adult_runs_blocks():
    """Full ``make_adult`` at min_sup 1628 under the default budget:
    its full p-value tables would need an int32 rank table larger
    than the whole budget, which left one labelling per block. The
    windowed store leaves room for blocks."""
    _require_native()
    ruleset = mine_class_rules(make_adult(seed=0), 1628)
    tables = ruleset.tables
    full = int((tables._high - tables._low + 1).sum())
    assert 4 * full > DEFAULT_BATCH_BYTES
    engine = PermutationEngine(ruleset, n_permutations=1000)
    assert engine._batch_rows() > 1


def test_wide_forest_numpy_memory(wide_ruleset):
    """Without the native suite the packed kernel runs in fixed-size
    tiles, so the pass stays within twice its budget whatever the
    forest's width (its whole-matrix broadcast alone is ~20 MiB)."""
    budget = 4 * 2 ** 20
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "load_suite", lambda: None)
        engine = PermutationEngine(wide_ruleset, n_permutations=40,
                                   seed=0, batch_bytes=budget)
        tracemalloc.start()
        try:
            engine.run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 2 * budget
