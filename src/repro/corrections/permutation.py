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
* **Diffsets** (4.2.2): one of the forest's storage policies; see
  :class:`~repro.mining.diffsets.PatternForest`. The default policy is
  ``"packed"`` — the :class:`~repro.bitmat.BitMatrix` uint64 kernel —
  which goes beyond the paper's storage optimisation and vectorizes
  the *counting* itself: a shard's labellings are drawn up front into
  a ``(B, n_records)`` label matrix, class supports for all B
  labellings resolve through one batched hardware-popcount kernel
  dispatch for all classes. With the native suite loaded
  (:mod:`repro._native`), one ``repro_permutation_stats`` call per
  block then folds the block's node supports into the min-p
  distribution, the pooled rank counts and the step-down counts: the
  rules are walked in observed-rank order against a per-pass table of
  each p-value's rank among the observed ones, so pooling becomes a
  rank histogram and the step-down suffix minima a running minimum
  of ranks (see :class:`_NativeStats`). Without it, all
  ``B × n_rules`` p-values come back from the vectorized lookup with
  a single 2-D fancy index and the three statistics are axis-wise
  numpy reductions — the fallback and the test oracle. Batches are
  processed in memory-bounded blocks sized for the path that runs,
  and every quantity is an exact integer count or an identical table
  lookup, so results are bit-identical to per-permutation scoring
  under any policy, backend, worker count, and with or without the
  native suite. One DEBUG record per pass on the
  ``repro.corrections`` logger names the path and its block sizing.
* **P-value buffering** (4.2.3): every rule's p-value on every
  permutation is a table lookup in the
  :class:`~repro.stats.pvalue_buffer.PValueBuffer` of its coverage,
  with all buffers concatenated into one flat numpy array. The
  paper's static+dynamic buffer cache and its unbuffered "no
  optimization" arm are Figure 4 ablation arms, timed per
  permutation in ``benchmarks/test_fig04_optimizations.py``.

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
from ..bitmat import DEFAULT_BLOCK_BYTES
from ..errors import CorrectionError
from ..mining.diffsets import (
    DEFAULT_POLICY,
    POLICY_CHOICES,
    PatternForest,
)
from ..mining.rules import RuleSet
from ..parallel import (
    get_executor,
    root_sequence,
    shard_slices,
    slice_sequences,
    spawn_sequences,
)
from .base import FDR, FWER, CorrectionResult, bh_step_up, validate_alpha

__all__ = ["PermutationEngine", "permutation_fwer",
           "permutation_fwer_stepdown", "permutation_fdr"]

_LOG = logging.getLogger("repro.corrections")

#: Most labellings per native scoring block. The supports kernel keeps
#: a block's packed labellings in L1 while each forest row streams past
#: them once; throughput is flat from 8 to 32 rows on German and wide
#: Mushroom, and 16 keeps a 127-word (8128-record) block at 16 KiB.
NATIVE_BATCH_ROWS = 16


class PermutationEngine:
    """Shared machinery for permutation-based FWER and FDR control.

    The expensive part — scoring every rule on every permutation — runs
    once (lazily) and is shared by :meth:`fwer` and :meth:`fdr`.

    Parameters
    ----------
    ruleset:
        The original-data mining result (patterns, rules, caches).
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
    policy:
        Record-id storage policy for the pattern forest; one of
        ``"packed"`` (default — the uint64 bitmap kernel),
        ``"bitset"``, ``"diffsets"``, ``"full"``, or ``"auto"``
        (resolved per dataset shape, see
        :func:`repro.mining.diffsets.resolve_auto_policy`). All
        policies return bit-identical results; see
        ``docs/performance.md``.
    batch_bytes:
        Memory budget for one scoring block's intermediates: the
        shard's labellings are scored in blocks of ``B`` permutations
        sized so what the dispatched path allocates stays within this
        budget — the block's node supports and the pass's rank table
        natively (at most :data:`NATIVE_BATCH_ROWS` labellings), or
        the ``B × n_rules`` p-value matrices and the packed kernel's
        broadcast under numpy. The budget is *per worker* —
        concurrent shards under ``threads`` each size their own
        blocks, so peak memory scales with ``n_jobs``. Block sizing
        never changes results, only peak memory.
    word_block:
        Record-range sharding of the packed scoring kernel, in uint64
        words (64 records per word). ``None`` (default) resolves
        automatically: whole-matrix scoring when the native suite is
        loaded (its kernel allocates no broadcast) or unless a single
        permutation's numpy broadcast alone would blow
        ``batch_bytes``, in which case the matrix is scored in
        word-column shards sized to the budget and the exact int64
        partial supports are summed at the shard boundary — the
        out-of-core path for forests wider than RAM. ``0`` forces
        whole-matrix scoring; any positive value is used as given.
        Sharding never changes results (exact integer merge), only
        peak memory.
    """

    def __init__(self, ruleset: RuleSet, n_permutations: int = 1000,
                 seed: Optional[int] = None,
                 policy: str = DEFAULT_POLICY,
                 n_jobs: int = 1,
                 backend: str = "serial",
                 batch_bytes: int = DEFAULT_BLOCK_BYTES,
                 word_block: Optional[int] = None) -> None:
        if n_permutations < 1:
            raise CorrectionError("n_permutations must be >= 1")
        if policy not in POLICY_CHOICES:
            raise CorrectionError(f"unknown forest policy {policy!r}")
        if batch_bytes < 1:
            raise CorrectionError("batch_bytes must be >= 1")
        self.ruleset = ruleset
        self.n_permutations = n_permutations
        self.policy = policy
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
        self._forest = PatternForest(ruleset.patterns, self.n, policy)
        rules = ruleset.rules
        self._node_ids = np.array([r.pattern_id for r in rules],
                                  dtype=np.int64)
        self._classes = np.array([r.class_index for r in rules],
                                 dtype=np.int64)
        self._coverages = np.array([r.coverage for r in rules],
                                   dtype=np.int64)
        self._observed_p = np.array([r.p_value for r in rules])
        # Support slots of the node-support blocks: binary datasets
        # count class 0 only and derive class 1 as coverage minus it
        # (slot -1); multiclass datasets count every class that
        # appears on a rule RHS.
        self._binary = dataset.n_classes == 2
        if self._binary:
            self._slot_classes: Tuple[int, ...] = (0,)
            self._rule_slots = np.where(self._classes == 0, 0, -1)
        else:
            self._slot_classes = tuple(sorted(set(
                int(c) for c in self._classes)))
            self._rule_slots = np.searchsorted(
                np.array(self._slot_classes, dtype=np.int64),
                self._classes)
        self._n_slots = max(1, len(self._slot_classes))
        # The native statistics kernel serves every forest policy;
        # sizing below charges the path chosen here.
        self._native = _native.load_suite() is not None
        self._native_stats: Optional[_NativeStats] = None
        if word_block is not None and word_block < 0:
            raise CorrectionError("word_block must be >= 0")
        self.word_block = (self._auto_word_block()
                           if word_block is None else word_block)
        self._lookup = _VectorizedLookup(self)

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
        sizing = (self._batch_rows(), self.word_block,
                  self._forest.n_nodes, len(self._node_ids))
        if self._native:
            _LOG.debug("permutation pass: native, B=%d, word_block=%d, "
                       "%d nodes, %d rules", *sizing)
        else:
            _LOG.debug("permutation pass: numpy (native kernels %s), "
                       "B=%d, word_block=%d, %d nodes, %d rules",
                       _native.native_status(), *sizing)

    def _score_shard(self, seeds, order: np.ndarray,
                     observed_sorted: np.ndarray,
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Score the permutations whose seed sequences are given.

        Each permutation draws a fresh labelling from its own spawned
        generator (``Generator.permutation`` of the *original* labels,
        never a cumulative in-place shuffle), so its stream is
        independent of every other permutation's placement. The shard
        is scored in memory-bounded blocks; a block's labellings form
        a ``(B, n_records)`` matrix and one batched class-support
        kernel call (all needed classes in one dispatch) yields the
        block's ``(C, B, n_nodes)`` node supports.
        With the native suite loaded, one ``repro_permutation_stats``
        call turns them into the three statistics (see
        :class:`_NativeStats`). Otherwise the ``(B, n_rules)`` support
        matrix resolves all p-values with one 2-D fancy index and the
        statistics reduce axis-wise — the fallback and the test oracle:

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
        block = self._batch_rows()
        for start in range(0, n_shard, block):
            batch = seeds[start:start + block]
            labels = np.empty((len(batch), self.n),
                              dtype=self._labels.dtype)
            for j, seq in enumerate(batch):
                generator = np.random.default_rng(seq)
                labels[j] = generator.permutation(self._labels)
            if n_rules == 0:
                min_p[start:start + len(batch)] = 1.0
                continue
            if stats is not None:
                stats.accumulate(suite, self._node_supports_batch(labels),
                                 min_p[start:start + len(batch)],
                                 hist, stepdown)
                continue
            supports = self._rule_supports_batch(labels)
            perm_p = self._lookup.p_values_batch(supports)
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

        * Native: one label row, and per support slot a bool indicator
          row, its packed words and ``n_nodes`` int64 supports, after
          the pass's int32 rank table (one entry per p-value table
          entry) — and at most :data:`NATIVE_BATCH_ROWS`, so the
          block's packed labellings stay L1-resident while the forest
          streams past them.
        * NumPy: one label row, one ``n_nodes`` support row per class
          array, several ``n_rules``-wide float intermediates
          (supports, p-values, the pooled sort, the ranked copy and
          its suffix minima), and — under the packed policy — the
          kernel's ``n_nodes × n_words`` broadcast cells at 9 bytes
          each (uint64 AND + uint8 popcount).
        """
        n_rules = len(self._node_ids)
        n_nodes = self._forest.n_nodes
        per_row = 8 * self.n
        if self._native:
            n_words = (self.n + 63) // 64
            per_row += self._n_slots * (self.n + 16 * n_words
                                        + 8 * n_nodes)
            # The pass's int32 rank table comes out of the same budget.
            spare = self.batch_bytes - 4 * len(self._lookup._flat)
            rows = min(NATIVE_BATCH_ROWS, spare // per_row)
            return max(1, min(rows, self.n_permutations))
        # Binary datasets hold two class-support arrays (one computed,
        # one derived); multiclass runs hold one per class that
        # actually appears on a rule RHS, all alive at once.
        class_arrays = 2 if self._binary else self._n_slots
        per_row += class_arrays * 8 * n_nodes
        per_row += 6 * 8 * n_rules
        matrix = self._forest.matrix
        if matrix is not None:
            # The packed kernel's own per-labelling intermediates —
            # bitmat owns that accounting. A word-sharded pass only
            # materializes one shard's broadcast at a time.
            if self.word_block and self.word_block < matrix.n_words:
                per_row += max(1, matrix.n_rows * self.word_block * 9)
            else:
                per_row += matrix.batch_row_bytes
        rows = self.batch_bytes // per_row
        return max(1, min(rows, self.n_permutations))

    def _auto_word_block(self) -> int:
        """Resolve ``word_block=None``: shard only when forced.

        Whole-matrix scoring (``0``) unless the numpy fallback runs and
        one permutation's packed broadcast (``n_nodes × n_words × 9``
        bytes) alone exceeds ``batch_bytes`` — then no block size fits
        the budget and the kernel must shard by record range. The
        shard width is sized so a single shard's broadcast consumes at
        most half the budget, leaving the other half for the block's
        labellings and p-value intermediates. The native kernels
        allocate no broadcast, so they always score the whole matrix.
        """
        matrix = self._forest.matrix
        if self._native or matrix is None or not matrix.n_rows \
                or not matrix.n_words:
            return 0
        if matrix.batch_row_bytes <= self.batch_bytes:
            return 0
        return max(1, min(matrix.n_words - 1,
                          self.batch_bytes // (matrix.n_rows * 9 * 2)))

    def _node_supports_batch(self, labels: np.ndarray) -> np.ndarray:
        """``(C, B, n_nodes)`` node class supports of a block.

        ``labels`` is a ``(B, n_records)`` matrix of shuffled class
        labels; slot ``c`` of the result holds the supports of class
        ``self._slot_classes[c]``. Binary datasets need one slot
        (class-1 supports derive from coverage); multi-class datasets
        stack the indicators of every class that appears on a rule RHS
        into one multi-class kernel dispatch
        (:meth:`~repro.mining.diffsets.PatternForest.
        class_supports_multi`).
        """
        if self._binary:
            return self._forest.class_supports_batch(
                labels == 0, word_block=self.word_block)[None]
        stacked = np.stack([labels == c for c in self._slot_classes])
        return self._forest.class_supports_multi(
            stacked, word_block=self.word_block)

    def _rule_supports_batch(self, labels: np.ndarray) -> np.ndarray:
        """``supp(R)`` of every rule under every given labelling.

        The ``(B, n_rules)`` integer support matrix gathered from
        :meth:`_node_supports_batch` (the numpy scoring path).
        """
        per_slot = self._node_supports_batch(labels)
        out = np.empty((labels.shape[0], len(self._node_ids)),
                       dtype=np.int64)
        for slot in range(per_slot.shape[0]):
            mask = self._rule_slots == slot
            out[:, mask] = per_slot[slot][:, self._node_ids[mask]]
        derived = self._rule_slots < 0
        if derived.any():
            nodes = self._node_ids[derived]
            out[:, derived] = (self._forest.supports[None, nodes]
                               - per_slot[0][:, nodes])
        return out

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
        # pooled counts are aligned with the sorted observed p-values;
        # map back to rule order via the observed value's rank.
        ranks = np.searchsorted(self._observed_sorted, self._observed_p,
                                side="right") - 1
        return [float(self._pooled_counts[r]) / denominator for r in ranks]

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
        significant = [r for r in self.ruleset.rules
                       if r.p_value <= threshold]
        return CorrectionResult(
            method="Perm_FWER", control=FWER, alpha=alpha,
            threshold=threshold, significant=significant,
            n_tests=self.n_tests,
            details={
                "n_permutations": self.n_permutations,
                "min_p_quantiles": _quantiles(self._min_p),
                "policy": self.policy,
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
        n_perm = self.n_permutations
        adjusted_sorted = np.maximum.accumulate(
            self._stepdown_counts / n_perm)
        out = np.empty(len(adjusted_sorted))
        out[self._order] = adjusted_sorted
        return [float(p) for p in out]

    def fwer_stepdown(self, alpha: float = 0.05) -> CorrectionResult:
        """Westfall–Young step-down minP FWER control at ``alpha``.

        Rejects the maximal prefix of the observed ranking whose
        monotonised adjusted p-values stay at or below ``alpha``.
        Always rejects at least what :meth:`fwer` rejects.
        """
        validate_alpha(alpha)
        self.run()
        assert self._stepdown_counts is not None
        adjusted_sorted = np.maximum.accumulate(
            self._stepdown_counts / self.n_permutations)
        k = 0
        while k < len(adjusted_sorted) and adjusted_sorted[k] <= alpha:
            k += 1
        threshold = float(self._observed_sorted[k - 1]) if k else 0.0
        rules = self.ruleset.rules
        significant = [rules[int(i)] for i in self._order[:k]]
        return CorrectionResult(
            method="Perm_FWER_SD", control=FWER, alpha=alpha,
            threshold=threshold, significant=significant,
            n_tests=self.n_tests,
            details={
                "n_permutations": self.n_permutations,
                "n_rejected": k,
                "policy": self.policy,
            },
        )

    def fdr(self, alpha: float = 0.05) -> CorrectionResult:
        """Empirical-p re-calibration followed by BH at level ``alpha``."""
        validate_alpha(alpha)
        empirical = self.empirical_p_values()
        cut = bh_step_up(empirical, alpha)
        significant = []
        raw_threshold = 0.0
        for rule, p_emp in zip(self.ruleset.rules, empirical):
            if p_emp <= cut:
                significant.append(rule)
                raw_threshold = max(raw_threshold, rule.p_value)
        return CorrectionResult(
            method="Perm_FDR", control=FDR, alpha=alpha,
            threshold=raw_threshold, significant=significant,
            n_tests=self.n_tests,
            details={
                "n_permutations": self.n_permutations,
                "empirical_cutoff": cut,
                "policy": self.policy,
            },
        )


class _VectorizedLookup:
    """All rule p-value buffers concatenated into one flat array.

    Rule ``i``'s p-value for support ``k`` is
    ``flat[offset[i] + k]`` where ``offset[i]`` already absorbs the
    buffer's lower bound, so a whole permutation resolves with one fancy
    index.
    """

    def __init__(self, engine: PermutationEngine) -> None:
        ruleset = engine.ruleset
        segments: List[np.ndarray] = []
        # (class, coverage) -> (segment start in the flat array, buffer
        # lower bound), so offset = start - low maps support k directly
        # to its flat position.
        placed: Dict[Tuple[int, int], Tuple[int, int]] = {}
        offsets = np.empty(len(engine._coverages), dtype=np.int64)
        position = 0
        for i in range(len(engine._coverages)):
            key = (int(engine._classes[i]), int(engine._coverages[i]))
            if key not in placed:
                buffer = ruleset.caches[key[0]].buffer_for(key[1])
                segments.append(buffer.array)
                placed[key] = (position, buffer.low)
                position += len(segments[-1])
            start, low = placed[key]
            offsets[i] = start - low
        self._flat = np.concatenate(segments) if segments else np.empty(0)
        self._offsets = offsets

    def p_values_batch(self, supports: np.ndarray) -> np.ndarray:
        """All ``B × n_rules`` p-values with a single 2-D fancy index.

        ``supports`` is the ``(B, n_rules)`` support matrix of a
        scoring block; entry ``(b, i)`` is rule ``i``'s p-value under
        labelling ``b``.
        """
        return self._flat[self._offsets[None, :] + supports]


class _NativeStats:
    """Inputs of the ``repro_permutation_stats`` kernel for one pass.

    The rules' node, support slot and flat-table offset in
    observed-rank order, and ``rank = searchsorted(observed_sorted,
    flat, side="left")`` — ``#{observed < p}`` for every table entry,
    built once per pass. Because the observed p-values ascend,
    ``p <= observed_sorted[i]`` iff ``rank(p) <= i``: the pooled counts
    become a rank histogram and the step-down suffix minima a running
    minimum of ranks, both exact integer counts.
    """

    def __init__(self, engine: PermutationEngine, order: np.ndarray,
                 observed_sorted: np.ndarray) -> None:
        lookup = engine._lookup
        self.rule_node = np.ascontiguousarray(engine._node_ids[order])
        self.rule_slot = np.ascontiguousarray(
            engine._rule_slots[order], dtype=np.int64)
        self.rule_offset = np.ascontiguousarray(lookup._offsets[order])
        self.flat = np.ascontiguousarray(lookup._flat, dtype=np.float64)
        # Ranks are at most n_rules, so int32 holds them; the table is
        # as long as the p-value tables, so it is filled in chunks
        # rather than through one intp temporary twice its size.
        self.rank = np.empty(len(self.flat), dtype=np.int32)
        for start in range(0, len(self.flat), _RANK_CHUNK):
            stop = start + _RANK_CHUNK
            self.rank[start:stop] = np.searchsorted(
                observed_sorted, self.flat[start:stop], side="left")
        self.coverage = np.ascontiguousarray(engine._forest.supports,
                                             dtype=np.int64)

    def accumulate(self, suite: _native.KernelSuite,
                   supports: np.ndarray, min_p: np.ndarray,
                   hist: np.ndarray, stepdown: np.ndarray) -> None:
        """Fold one block's ``(C, B, n_nodes)`` node supports into the
        shard's statistics: writes ``min_p`` (``(B,)``), adds to
        ``hist`` (``(n_rules + 1,)``) and ``stepdown``."""
        supports = np.ascontiguousarray(supports, dtype=np.int64)
        if supports.ndim != 3 or supports.shape[2] != len(self.coverage) \
                or min_p.shape != (supports.shape[1],) \
                or not min_p.flags.c_contiguous:
            raise ValueError("block shapes do not match the forest")
        status = suite.permutation_stats(
            _ptr(supports, _INT64), _ptr(self.coverage, _INT64),
            _ptr(self.rule_node, _INT64), _ptr(self.rule_slot, _INT64),
            _ptr(self.rule_offset, _INT64), _ptr(self.flat, _DOUBLE),
            _ptr(self.rank, _INT32), len(self.flat), len(self.rule_node),
            supports.shape[2], supports.shape[1], _ptr(min_p, _DOUBLE),
            _ptr(hist, _INT64), _ptr(stepdown, _INT64))
        if status == -2:
            raise MemoryError("permutation statistics scratch")
        if status:
            raise CorrectionError(
                "a permutation support fell outside its p-value table")


#: Table entries ranked per ``searchsorted`` call.
_RANK_CHUNK = 1 << 16
_INT32 = ctypes.POINTER(ctypes.c_int32)
_INT64 = ctypes.POINTER(ctypes.c_int64)
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
