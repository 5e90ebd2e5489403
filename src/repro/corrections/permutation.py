"""The permutation-based approach (Section 4.2).

Class labels are randomly shuffled ``N`` times; because shuffling
destroys any pattern-class association, the re-computed p-values sample
the null distribution *while preserving the correlation structure among
patterns* — which is exactly what the direct adjustment approach
ignores and why permutation testing is more powerful.

Engineering, following the paper:

* **Mine once** (4.2.1): patterns and their record-id storage come from
  the original mining run; a permutation only changes class labels, so
  each permutation costs one class-support pass over the pattern
  forest plus p-value lookups.
* **Diffsets** (4.2.2): the paper stores each pattern's record ids,
  or only the difference from its parent's when that is smaller. The
  engine instead reuses Score's :class:`~repro.bitmat.BitMatrix` of
  every tidset (``RuleSet.matrix``, ``n_nodes × ceil(n/64)`` uint64
  words) and vectorizes the *counting* itself; the paper's Diffsets
  storage is a Figure 4 ablation arm in
  ``benchmarks/test_fig04_optimizations.py``. A shard's labellings
  are scored in blocks of B. With the native suite loaded
  (:mod:`repro._native`), a block is one ``repro_permutation_pass``
  call: its labellings go in as transposed bit planes, one per
  counted class, and the rules are walked from the worst observed
  rank down, each rule's B supports counted and folded at once into
  the three statistics (see
  :class:`_NativeStats`). Without it,
  :func:`~repro.mining.rules.class_supports` counts the block's node
  supports and all ``B × n_rules`` p-values are reduced by numpy —
  the fallback and the test oracle. Every quantity is an exact
  integer count or an identical table lookup, so results are
  bit-identical under any backend, worker count, and with or without
  the native suite. One DEBUG record per pass on the
  ``repro.corrections`` logger names the path and its block sizing.
* **P-value buffering** (4.2.3): every rule's p-value on every
  permutation is a lookup in the table of its ``(class, coverage)``
  key, read directly from the rule set's flat
  :class:`~repro.stats.pvalue_tables.PValueTables` array, built by
  the rule set's scorer. The paper's static+dynamic buffer cache and
  its unbuffered "no optimization" arm are Figure 4 ablation arms,
  timed per permutation in ``benchmarks/test_fig04_optimizations.py``.

Error control (Section 4.2):

* **FWER**: collect the minimum p-value of each permutation, sort them
  ascending, and use the ``floor(alpha * N)``-th as the cut-off
  (Westfall–Young min-p).
* **FDR**: re-calibrate each rule's p-value to the empirical fraction
  of the ``N * Nt`` permutation p-values at or below it, then run
  Benjamini–Hochberg on the calibrated values.

Beyond the paper, the engine also implements Westfall–Young
**step-down** minP (:meth:`PermutationEngine.fwer_stepdown`): instead of
comparing every rule against the global min-p distribution, rank ``i``'s
observed p-value is compared against the distribution of the minimum
over only the rules ranked ``i`` and worse. The adjusted p-values are
monotonised and thresholded at ``alpha``. Step-down rejects a superset
of the single-step rejections at the same FWER guarantee — the natural
"more power for free" upgrade to Section 4.2.

Parallel execution (``n_jobs`` / ``backend``): the ``N`` permutations
are embarrassingly parallel — each is an independent class-support
pass over the shared pattern forest — so :meth:`PermutationEngine.run`
shards the permutation index range across a
:class:`~repro.parallel.Executor`. Determinism is anchored to
permutation *indices*, not to shards: permutation ``t`` always draws
its labelling from the ``t``-th child of one
``numpy.random.SeedSequence``, and the shard merge (concatenating
per-index min-p entries, summing integer rank counts) is
order-independent, so results are bit-identical for any worker count.
See ``docs/parallel.md``.
"""

from __future__ import annotations

import ctypes
import logging
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import _native
from ..bitmat import TILE_BYTES, pack_indicators
from ..errors import CorrectionError
from ..mining.rules import RuleSet, class_supports
from ..parallel import (
    get_executor,
    root_sequence,
    shard_slices,
    slice_sequences,
    spawn_sequences,
)
from .base import (
    FDR,
    FWER,
    CorrectionResult,
    bh_step_up,
    select_by_threshold,
    validate_alpha,
)

__all__ = ["PermutationEngine", "permutation_fwer",
           "permutation_fwer_stepdown", "permutation_fdr"]

_LOG = logging.getLogger("repro.corrections")

#: Most labellings per native block.
NATIVE_BATCH_ROWS = 64

#: Default memory budget for one scoring block's intermediates.
DEFAULT_BATCH_BYTES = 64 * 1024 * 1024


class PermutationEngine:
    """Shared machinery for permutation-based FWER and FDR control.

    The expensive part — scoring every rule on every permutation — runs
    once (lazily) and is shared by :meth:`fwer` and :meth:`fdr`.

    Parameters
    ----------
    ruleset:
        The original-data mining result (patterns, rules, p-value
        tables).
    n_permutations:
        The paper's ``N``; its experiments use 1000.
    seed:
        Feeds a ``numpy.random.SeedSequence`` whose spawned children
        drive the label shuffles, one independent child per
        permutation.
    n_jobs:
        Worker count for the permutation pass (``-1`` = all cores).
        Results are bit-identical for every value.
    backend:
        ``"serial"``, ``"threads"`` or ``"processes"`` — see
        :mod:`repro.parallel`.
    batch_bytes:
        Memory budget for one scoring block's intermediates: the
        shard's labellings are scored in blocks of ``B`` permutations
        sized so what the dispatched path allocates stays within this
        budget — the block's labelling planes and the pass's rank
        table natively (at most :data:`NATIVE_BATCH_ROWS`), or
        the ``B × n_rules`` p-value matrices and one packed-kernel
        tile (:data:`repro.bitmat.TILE_BYTES`) under numpy. The budget
        is *per worker* —
        concurrent shards under ``threads`` each size their own
        blocks, so peak memory scales with ``n_jobs``. Block sizing
        never changes results, only peak memory.
    """

    def __init__(self, ruleset: RuleSet, n_permutations: int = 1000,
                 seed: Optional[int] = None,
                 n_jobs: int = 1,
                 backend: str = "serial",
                 batch_bytes: int = DEFAULT_BATCH_BYTES) -> None:
        if n_permutations < 1:
            raise CorrectionError("n_permutations must be >= 1")
        if batch_bytes < 1:
            raise CorrectionError("batch_bytes must be >= 1")
        self.ruleset = ruleset
        self.n_permutations = n_permutations
        self.batch_bytes = batch_bytes
        self._executor = get_executor(backend, n_jobs)
        self._seed_seq = root_sequence(seed)
        self._ran = False
        self._min_p: Optional[np.ndarray] = None
        self._pooled_counts: Optional[np.ndarray] = None
        self._stepdown_counts: Optional[np.ndarray] = None
        self._order: Optional[np.ndarray] = None
        dataset = ruleset.dataset
        self.n = dataset.n_records
        self.n_tests = ruleset.n_tests
        self._labels = np.array(dataset.class_labels, dtype=np.int64)
        # Score's matrix: row ``pattern_id`` is a rule's pattern.
        self._matrix = ruleset.matrix
        self._node_coverage = ruleset.coverages
        self._node_ids = ruleset.pattern_ids
        self._classes = ruleset.classes
        self._observed_p = ruleset.p_values()
        # One support slot per class on a rule RHS: rule i's support
        # under labelling b is supports[slot_i, b, node_i].
        self._n_classes = dataset.n_classes
        slot_classes = np.unique(self._classes)
        self._slot_classes = slot_classes.tolist()
        self._rule_slots = np.searchsorted(slot_classes, self._classes)
        # Sizing below charges the path chosen here.
        self._native = _native.load_suite() is not None
        self._native_stats: Optional[_NativeStats] = None
        # Rule i reads the table of key keys[i]: its p-value for
        # support k is flat[offsets[key] + clip(k, first[key],
        # last[key])] (see PValueTables).
        self._tables = ruleset.tables
        self._flat = self._tables.flat
        self._keys = self._tables.index(
            self._classes, self._node_coverage[self._node_ids])

    # ------------------------------------------------------------------
    # the shared permutation pass
    # ------------------------------------------------------------------

    @property
    def n_jobs(self) -> int:
        """Worker count of the configured executor."""
        return self._executor.n_jobs

    @property
    def backend(self) -> str:
        """Backend name of the configured executor."""
        return self._executor.backend

    def run(self) -> None:
        """Score all rules on all permutations (idempotent).

        Sharded across the configured executor. Permutation ``t``
        always shuffles with the ``t``-th spawned seed and the merge
        is order-independent (per-index concatenation + integer
        sums), so the result is identical at any worker count.
        """
        if self._ran:
            return
        n_perm = self.n_permutations
        order = np.argsort(self._observed_p, kind="stable")
        observed_sorted = self._observed_p[order]
        children = spawn_sequences(self._seed_seq, n_perm)
        slices = shard_slices(n_perm, self._executor.n_jobs)
        if self._native and len(order):
            # Built before the fan-out so process workers receive it
            # with the engine.
            self._native_stats = _NativeStats(self, order,
                                              observed_sorted)
        self._log_dispatch()
        if len(slices) <= 1 or self._executor.backend == "serial":
            parts = [self._score_shard(children, order, observed_sorted)]
        else:
            # The engine (and with it the dataset/forest) is the shared
            # payload: hoisted to the executor context, it is shipped
            # once per worker per wave — free under fork, and never
            # re-sent on a retry — while each shard unit carries only
            # its slice of seed sequences. An arena-backed dataset
            # additionally pickles as its file path, so process workers
            # re-map the same on-disk pages instead of receiving words.
            shards = list(slice_sequences(children, slices))
            parts = self._executor.map_shards(
                _score_shard_worker, shards,
                context=(self, order, observed_sorted))
        self._native_stats = None  # the rank table is per pass
        self._min_p = np.sort(np.concatenate([p[0] for p in parts]))
        self._pooled_counts = sum(p[1] for p in parts)
        self._stepdown_counts = sum(p[2] for p in parts)
        self._order = order
        self._observed_sorted = observed_sorted
        self._ran = True

    def _log_dispatch(self) -> None:
        """One DEBUG record per pass: the scoring path and its sizing."""
        sizing = (self._batch_rows(), len(self._node_coverage),
                  len(self._node_ids))
        if self._native:
            _LOG.debug("permutation pass: native, B=%d, %d nodes, "
                       "%d rules", *sizing)
        else:
            _LOG.debug("permutation pass: numpy (native kernels %s), "
                       "B=%d, %d nodes, %d rules",
                       _native.native_status(), *sizing)

    def _score_shard(self, seeds, order: np.ndarray,
                     observed_sorted: np.ndarray,
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Score the permutations whose seed sequences are given.

        Each permutation draws a fresh labelling from its own spawned
        generator (``Generator.permutation`` of the *original* labels,
        never a cumulative in-place shuffle), so its stream is
        independent of every other permutation's placement. The shard
        is scored in memory-bounded blocks of ``(B, n_records)``
        labellings, natively one ``repro_permutation_pass`` call each
        (see :class:`_NativeStats`). Otherwise the block's
        ``(B, n_rules)`` support matrix resolves all p-values with one
        2-D fancy index and the statistics reduce axis-wise — the
        fallback and the test oracle:

        * per-permutation minimum — a row min;
        * pooled rank counts — ``searchsorted`` of the observed
          p-values in the block's *flattened* sorted p-values (the sum
          of per-permutation counts equals the count over the pooled
          block, both exact integers);
        * step-down counts — reversed ``minimum.accumulate`` suffix
          minima per row, compared row-wise and summed down the batch.
        """
        n_shard = len(seeds)
        n_rules = len(observed_sorted)
        min_p = np.empty(n_shard)
        pooled = np.zeros(n_rules, dtype=np.int64)
        stepdown = np.zeros(n_rules, dtype=np.int64)
        suite = _native.load_suite() if self._native else None
        stats = self._native_stats if suite is not None else None
        hist = np.zeros(n_rules + 1, dtype=np.int64)
        if stats is None:
            tables, keys = self._tables, self._keys
            offsets = tables.offsets[keys]
            first, last = tables.first[keys], tables.last[keys]
        block = self._batch_rows()
        # One label buffer for the shard: no block's labels outlive it.
        buffer = np.empty((min(block, n_shard), self.n),
                          dtype=self._labels.dtype)
        for start in range(0, n_shard, block):
            batch = seeds[start:start + block]
            labels = buffer[:len(batch)]
            for j, seq in enumerate(batch):
                generator = np.random.default_rng(seq)
                labels[j] = generator.permutation(self._labels)
            if n_rules == 0:
                min_p[start:start + len(batch)] = 1.0
                continue
            if stats is not None:
                stats.run_block(suite, labels,
                                min_p[start:start + len(batch)], hist,
                                stepdown)
                continue
            supports = self._rule_supports_batch(labels)
            np.clip(supports, first, last, out=supports)
            perm_p = self._flat[offsets[None, :] + supports]
            min_p[start:start + len(batch)] = perm_p.min(axis=1)
            pooled += np.searchsorted(np.sort(perm_p, axis=None),
                                      observed_sorted, side="right")
            # Suffix minima in observed-rank order: entry (b, i) is
            # the minimum permutation-b p-value over rules ranked
            # i..m-1, the step-down minP statistic for rank i.
            ranked = perm_p[:, order]
            suffix_min = np.minimum.accumulate(
                ranked[:, ::-1], axis=1)[:, ::-1]
            stepdown += (suffix_min <= observed_sorted[None, :]).sum(
                axis=0, dtype=np.int64)
        if stats is not None:
            pooled = np.cumsum(hist)[:n_rules]
        return min_p, pooled, stepdown

    def _batch_rows(self) -> int:
        """Permutations per scoring block — the B that actually runs.

        Sized by what the dispatched path allocates per labelling,
        within ``batch_bytes`` and never above ``n_permutations``.
        What a pass allocates whatever ``B`` is comes out of the
        budget first: each permutation's seed sequence and min-p, and
        the pass's per-rule int64/float64 columns (the observed order
        and sorted p-values, the pooled and step-down counts and the
        rank histogram, plus each rule's table offset and stored range
        under numpy, or the rules' node, plane and table and the
        histogram's cumulative sum natively).

        * Native: after the int32 rank table (one entry per stored
          p-value) and the scratch of its chunked fill, one label row
          and per counted class a bool indicator row and its packed
          and transposed words — at most :data:`NATIVE_BATCH_ROWS`.
        * NumPy: after the supports kernel's one scratch tile
          (:data:`repro.bitmat.TILE_BYTES`), one label row, one
          ``n_nodes`` support row per class on a rule RHS (plus the
          counted class-0 row on binary data) and several
          ``n_rules``-wide float intermediates (supports, p-values,
          the pooled sort, the ranked copy and its suffix minima).
        """
        n_rules = len(self._node_ids)
        n_nodes = len(self._node_coverage)
        n_slots = len(self._slot_classes)
        binary = self._n_classes == 2
        per_row = 8 * self.n
        fixed = _PERMUTATION_BYTES * self.n_permutations
        if self._native:
            n_words = (self.n + 63) // 64
            planes = 1 if binary else max(1, n_slots)
            per_row += planes * (self.n + 16 * n_words)
            fixed += (4 * len(self._flat) + 8 * _RANK_CHUNK
                      + 9 * 8 * n_rules)
            rows = min(NATIVE_BATCH_ROWS,
                       (self.batch_bytes - fixed) // per_row)
            return max(1, min(rows, self.n_permutations))
        per_row += (n_slots + binary) * 8 * n_nodes
        per_row += 6 * 8 * n_rules
        fixed += TILE_BYTES + 8 * 8 * n_rules
        rows = (self.batch_bytes - fixed) // per_row
        return max(1, min(rows, self.n_permutations))

    def _rule_supports_batch(self, labels: np.ndarray) -> np.ndarray:
        """``supp(R)`` of every rule under every given labelling.

        The ``(B, n_rules)`` integer support matrix gathered from the
        block's :func:`~repro.mining.rules.class_supports` (the numpy
        scoring path).
        """
        per_slot = class_supports(self._matrix, self._node_coverage,
                                  labels, self._slot_classes,
                                  self._n_classes)
        rows = np.arange(labels.shape[0])[:, None]
        return per_slot[self._rule_slots[None, :], rows,
                        self._node_ids[None, :]]

    # ------------------------------------------------------------------
    # error control
    # ------------------------------------------------------------------

    def min_p_distribution(self) -> np.ndarray:
        """Sorted minimum p-value per permutation (runs the pass)."""
        self.run()
        assert self._min_p is not None
        return self._min_p.copy()

    def empirical_p_values(self) -> List[float]:
        """Re-calibrated p-value of each rule, in rule order.

        ``p~(R) = |{perm p-values <= p(R)}| / (N * Nt)`` — the paper's
        Section 4.2 formula, pooled over all rules and permutations.
        """
        self.run()
        assert self._pooled_counts is not None
        denominator = self.n_permutations * max(self.n_tests, 1)
        # Back to rule order; tied observed p-values share one count.
        empirical = np.empty(len(self._order))
        empirical[self._order] = self._pooled_counts / denominator
        return empirical.tolist()

    def fwer(self, alpha: float = 0.05) -> CorrectionResult:
        """Westfall–Young style FWER control at level ``alpha``."""
        validate_alpha(alpha)
        self.run()
        assert self._min_p is not None
        index = math.floor(alpha * self.n_permutations)
        if index >= 1:
            threshold = float(self._min_p[index - 1])
        else:
            # Too few permutations to estimate the alpha quantile of the
            # min-p distribution; be maximally conservative.
            threshold = 0.0
        significant = select_by_threshold(self.ruleset, threshold)
        return CorrectionResult(
            method="Perm_FWER", control=FWER, alpha=alpha,
            threshold=threshold, significant=significant,
            n_tests=self.n_tests,
            details={
                "n_permutations": self.n_permutations,
                "min_p_quantiles": _quantiles(self._min_p),
            },
        )

    def stepdown_adjusted_p_values(self) -> List[float]:
        """Westfall–Young step-down adjusted p-value per rule (rule
        order).

        Rank ``i``'s raw adjusted value is the fraction of permutations
        whose minimum p-value *over rules ranked i and worse* is at
        most the observed ``p_(i)``; a running maximum down the ranks
        enforces monotonicity of the rejection set.
        """
        self.run()
        assert self._stepdown_counts is not None
        out = np.empty(len(self._order))
        out[self._order] = np.maximum.accumulate(
            self._stepdown_counts / self.n_permutations)
        return out.tolist()

    def fwer_stepdown(self, alpha: float = 0.05) -> CorrectionResult:
        """Westfall–Young step-down minP FWER control at ``alpha``.

        Rejects the maximal prefix of the observed ranking whose
        monotonised adjusted p-values stay at or below ``alpha``.
        Always rejects at least what :meth:`fwer` rejects.
        """
        validate_alpha(alpha)
        # Non-decreasing in rank: the count at or below alpha is the
        # length of the rejected prefix.
        k = int(np.count_nonzero(
            np.asarray(self.stepdown_adjusted_p_values()) <= alpha))
        threshold = float(self._observed_sorted[k - 1]) if k else 0.0
        significant = self.ruleset.rules[self._order[:k]]
        return CorrectionResult(
            method="Perm_FWER_SD", control=FWER, alpha=alpha,
            threshold=threshold, significant=significant,
            n_tests=self.n_tests,
            details={
                "n_permutations": self.n_permutations,
                "n_rejected": k,
            },
        )

    def fdr(self, alpha: float = 0.05) -> CorrectionResult:
        """Empirical-p re-calibration followed by BH at level ``alpha``."""
        validate_alpha(alpha)
        empirical = np.asarray(self.empirical_p_values())
        cut = bh_step_up(empirical, alpha)
        rows = np.flatnonzero(empirical <= cut)
        significant = self.ruleset.rules[rows]
        raw_threshold = float(self._observed_p[rows].max(initial=0.0))
        return CorrectionResult(
            method="Perm_FDR", control=FDR, alpha=alpha,
            threshold=raw_threshold, significant=significant,
            n_tests=self.n_tests,
            details={
                "n_permutations": self.n_permutations,
                "empirical_cutoff": cut,
            },
        )


class _NativeStats:
    """The ``repro_permutation_pass`` kernel bound to one pass.

    Holds the forest's rows and coverages, the rules' node, plane and
    p-value table in observed-rank order, each table's offset and
    stored support range, and ``rank = searchsorted(observed_sorted,
    flat, side="left")`` — ``#{observed < p}`` for every stored table
    entry, built once per pass.
    Because the observed p-values ascend,
    ``p <= observed_sorted[i]`` iff ``rank(p) <= i``: the pooled counts
    become a rank histogram and the step-down suffix minima a running
    minimum of ranks, both exact integer counts.
    """

    def __init__(self, engine: PermutationEngine, order: np.ndarray,
                 observed_sorted: np.ndarray) -> None:
        self.words = engine._matrix.words
        self.coverage = engine._node_coverage
        self.rule_node = np.ascontiguousarray(engine._node_ids[order])
        if engine._n_classes == 2:
            # One plane, class 0; a class-1 rule's support is coverage
            # minus it (slot -1).
            self.classes = [0]
            rule_slot = np.where(engine._classes == 0, 0, -1)
        else:
            self.classes = engine._slot_classes
            rule_slot = engine._rule_slots
        self.rule_slot = np.ascontiguousarray(rule_slot[order],
                                              dtype=np.int64)
        self.rule_key = np.ascontiguousarray(engine._keys[order])
        tables = engine._tables
        # Per table: offset, first and last stored support, adjacent.
        self.key_range = np.ascontiguousarray(
            np.stack([tables.offsets, tables.first, tables.last], axis=1),
            dtype=np.int64)
        # The rule set's own array: already C-contiguous float64, so
        # this checks the kernel's contract without copying.
        self.flat = np.ascontiguousarray(engine._flat, dtype=np.float64)
        # Ranks are at most n_rules, so int32 holds them; the table is
        # as long as the p-value tables, so it is filled in chunks
        # rather than through one intp temporary twice its size.
        self.rank = np.empty(len(self.flat), dtype=np.int32)
        for start in range(0, len(self.flat), _RANK_CHUNK):
            stop = start + _RANK_CHUNK
            self.rank[start:stop] = np.searchsorted(
                observed_sorted, self.flat[start:stop], side="left")

    def run_block(self, suite: _native.KernelSuite, labels: np.ndarray,
                  min_p: np.ndarray, hist: np.ndarray,
                  stepdown: np.ndarray) -> None:
        """Score ``(B, n_records)`` labellings: write ``min_p`` (B),
        add to ``hist`` (``n_rules + 1``) and ``stepdown``."""
        n_batch = labels.shape[0]
        if min_p.shape != (n_batch,) or not min_p.flags.c_contiguous:
            raise ValueError("min-p slice does not match the block")
        planes = np.empty((len(self.classes), self.words.shape[1],
                           n_batch), dtype=np.uint64)
        for plane, c in zip(planes, self.classes):
            plane[...] = pack_indicators(labels == c).T
        status = suite.permutation_pass(
            _ptr(self.words, _UINT64), _ptr(self.coverage, _INT64),
            _ptr(self.rule_node, _INT64), _ptr(self.rule_slot, _INT64),
            _ptr(self.rule_key, _INT64), _ptr(self.key_range, _INT64),
            len(self.key_range), _ptr(self.flat, _DOUBLE),
            _ptr(self.rank, _INT32), len(self.flat), len(self.rule_node),
            self.words.shape[1], _ptr(planes, _UINT64), n_batch,
            _ptr(min_p, _DOUBLE), _ptr(hist, _INT64),
            _ptr(stepdown, _INT64))
        if status == -2:
            raise MemoryError("permutation pass scratch")
        if status:
            raise CorrectionError(
                "a rule's p-value table lies outside its p-value store")


#: Table entries ranked per ``searchsorted`` call.
_RANK_CHUNK = 1 << 16
#: A pass's bytes per permutation: its spawned ``SeedSequence``
#: (~0.3 KiB under ``tracemalloc``) and its min-p entry.
_PERMUTATION_BYTES = 512
_INT32 = ctypes.POINTER(ctypes.c_int32)
_INT64 = ctypes.POINTER(ctypes.c_int64)
_UINT64 = ctypes.POINTER(ctypes.c_uint64)
_DOUBLE = ctypes.POINTER(ctypes.c_double)


def _ptr(array: np.ndarray, kind):
    return array.ctypes.data_as(kind)


def _score_shard_worker(context, seeds):
    """Module-level shard entry point (picklable for ``processes``).

    ``context`` is the hoisted ``(engine, order, observed_sorted)``
    payload shared by every shard; ``seeds`` is the shard's own slice
    of per-permutation seed sequences.
    """
    engine, order, observed_sorted = context
    return engine._score_shard(seeds, order, observed_sorted)


def _quantiles(sorted_values: np.ndarray) -> Dict[str, float]:
    if len(sorted_values) == 0:
        return {}
    return {
        "min": float(sorted_values[0]),
        "q05": float(sorted_values[int(0.05 * (len(sorted_values) - 1))]),
        "median": float(sorted_values[len(sorted_values) // 2]),
        "max": float(sorted_values[-1]),
    }


def permutation_fwer(ruleset: RuleSet, alpha: float = 0.05,
                     n_permutations: int = 1000,
                     seed: Optional[int] = None,
                     **kwargs) -> CorrectionResult:
    """One-shot FWER control; see :class:`PermutationEngine`."""
    engine = PermutationEngine(ruleset, n_permutations=n_permutations,
                               seed=seed, **kwargs)
    return engine.fwer(alpha)


def permutation_fwer_stepdown(ruleset: RuleSet, alpha: float = 0.05,
                              n_permutations: int = 1000,
                              seed: Optional[int] = None,
                              **kwargs) -> CorrectionResult:
    """One-shot step-down minP control; see :class:`PermutationEngine`."""
    engine = PermutationEngine(ruleset, n_permutations=n_permutations,
                               seed=seed, **kwargs)
    return engine.fwer_stepdown(alpha)


def permutation_fdr(ruleset: RuleSet, alpha: float = 0.05,
                    n_permutations: int = 1000,
                    seed: Optional[int] = None,
                    **kwargs) -> CorrectionResult:
    """One-shot FDR control; see :class:`PermutationEngine`."""
    engine = PermutationEngine(ruleset, n_permutations=n_permutations,
                               seed=seed, **kwargs)
    return engine.fdr(alpha)


from .registry import Correction, register_correction  # noqa: E402

register_correction(Correction(
    name="permutation-fwer", abbreviation="Perm_FWER", family=FWER,
    apply_fn=lambda ruleset, alpha, ctx:
        ctx.permutation_engine(ruleset).fwer(alpha),
    aliases=("perm-fwer", "westfall-young"),
    needs_permutations=True,
    description="Westfall-Young min-p permutation FWER control"))

register_correction(Correction(
    name="permutation-fwer-stepdown", abbreviation="Perm_FWER_SD",
    family=FWER,
    apply_fn=lambda ruleset, alpha, ctx:
        ctx.permutation_engine(ruleset).fwer_stepdown(alpha),
    aliases=("perm-fwer-sd", "westfall-young-stepdown"),
    needs_permutations=True,
    description="Westfall-Young step-down min-p permutation FWER"))

register_correction(Correction(
    name="permutation-fdr", abbreviation="Perm_FDR", family=FDR,
    apply_fn=lambda ruleset, alpha, ctx:
        ctx.permutation_engine(ruleset).fdr(alpha),
    aliases=("perm-fdr",),
    needs_permutations=True,
    description="BH over permutation-calibrated empirical p-values"))
