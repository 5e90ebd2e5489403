"""Optional fused C kernel suite behind the packed uint64 substrate.

NumPy cannot fuse ``bitwise_and`` → ``bitwise_count`` → reduce into
one pass, so every pure-numpy word kernel materialises a
``words``-sized intermediate and pays extra memory sweeps where one
would do. This module compiles (once, lazily, with the system C
compiler) a small suite of fused loops and loads them through
:mod:`ctypes`:

* ``repro_class_supports_batch`` — the batched class-support kernel::

      out[b][j] = sum_w popcount(words[j][w] & rows[b][w])

  behind :meth:`repro.bitmat.BitMatrix.class_supports_batch` (and,
  flattened over classes, :meth:`~repro.bitmat.BitMatrix.
  class_supports_multi`). The node loop is outer, so each forest row
  is read once per call while the (L1-sized) batch of labellings
  sweeps it;

* ``repro_permutation_pass`` — one block of the permutation pass (see
  :mod:`repro.corrections.permutation`): the block's labellings as
  transposed bit planes in, each rule's supports counted into a
  B-wide accumulator and folded at once, worst observed rank first,
  into the min-p per labelling, the pooled rank histogram and the
  step-down counts;

* ``repro_lcm_mine`` — the whole closed-pattern walk (LCM
  prefix-preserving closure extension) over a vertical view's item
  matrix, node for node as the Python walk of
  :mod:`repro.mining.closed` emits it, in one call per pass: a count
  pass returns the node and closure-position totals, a fill pass
  writes the tidset arena, parent/support and CSR closure
  positions. Its scratch memory grows with the deepest path (one
  tidset and one closure bitmask per depth) and the pending
  ``(j, depth)`` entries, never with the m(m+1)/2 worst case;

* ``repro_pvalue_tables`` — every Fisher (or mid-p) p-value table of
  a :class:`repro.stats.PValueTables` store in one call, written
  straight into its flat array: per key the hypergeometric pmf over
  the caller's window of supports (the whole table by the ratio
  recurrence, or the live window in log space when the seed is not a
  normal double) and Figure 2's two-ends walk with tie grouping, then
  the 1.0 clamp and mid-p. ``repro_pvalue_walk`` runs the walk alone
  on a caller's values. Scratch is one pmf buffer of the widest
  window.

Each call releases the GIL, so the kernels also scale on the
``threads`` backend. Everything here is best-effort: no compiler
(``CC=/bin/false`` is the CI leg for that), a sandboxed filesystem, a
failed compile, or ``REPRO_NATIVE=0`` all degrade silently to the
numpy paths, the Python closed walk and the scalar p-value table
builder (:mod:`repro.stats.pvalue_scalar`). Results are bit-identical
either way. The word kernels count exact integers and compare exact
words; the permutation pass also copies and compares table p-values
without arithmetic. The p-value tables repeat the scalar builder's
floating-point operations in its order, call the libm ``exp`` that
``math.exp`` wraps, and are compiled with ``-ffp-contract=off`` so no
multiply-add is fused into one rounding (never build this suite with
``-ffast-math``). The kernels keep no state between calls, so
concurrent calls are safe.

The shared object is cached under ``$REPRO_NATIVE_CACHE`` (default: a
per-user directory beneath the system temp dir), keyed by a hash of
the source, the compiler identity (``$CC`` and its version banner)
and flags, and published with an atomic rename so concurrent workers
never load a half-written library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import stat
import subprocess
import sys
import tempfile
from typing import Optional

from .testing import faults

__all__ = ["KernelSuite", "load_suite", "native_status"]

_SOURCE = r"""
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Fused word kernels over packed little-endian uint64 record sets.
   The multi-array numpy pipelines are memory bound; each loop here
   reads every word once and keeps its accumulator in a register. */

#if defined(__GNUC__) || defined(__clang__)
#define POPCOUNT64 __builtin_popcountll
#define CTZ64 __builtin_ctzll
#else
static int POPCOUNT64(uint64_t x) {
    int count = 0;
    while (x) { x &= x - 1; ++count; }
    return count;
}
static int CTZ64(uint64_t x) {  /* x != 0 */
    int count = 0;
    while (!(x & 1)) { x >>= 1; ++count; }
    return count;
}
#endif

/* out[b][j] = sum_w popcount(words[j][w] & rows[b][w])

   Node-outer, labelling-inner: each forest row is read from memory
   once per call and stays in L1 while all n_batch labelling rows (kept
   small enough by the caller to stay L1-resident themselves) sweep
   it. */
void repro_class_supports_batch(
    const uint64_t *words,   /* (n_rows, n_words), row-major */
    const uint64_t *rows,    /* (n_batch, n_words), row-major */
    int64_t *out,            /* (n_batch, n_rows), row-major */
    int64_t n_rows,
    int64_t n_words,
    int64_t n_batch)
{
    for (int64_t j = 0; j < n_rows; ++j) {
        const uint64_t *node = words + j * n_words;
        for (int64_t b = 0; b < n_batch; ++b) {
            const uint64_t *row = rows + b * n_words;
            int64_t acc = 0;
            for (int64_t w = 0; w < n_words; ++w)
                acc += POPCOUNT64(node[w] & row[w]);
            out[b * n_rows + j] = acc;
        }
    }
}

/* ---- permutation pass ------------------------------------------------

   One scoring block of the permutation pass: count every rule's
   support under each of the block's n_batch labellings and fold it
   straight into the three Westfall-Young statistics, without a
   per-block support array. The labellings arrive as transposed bit
   planes, planes[p][w][b] = word w of labelling b's class-p
   indicator, so the count for one rule row vectorises over the batch.
   A rule counts plane rule_slot[i]; slot -1 means coverage minus the
   count of plane 0 (binary data counts class 0 only).

   Rules arrive in observed-rank order; rank[k] is #{observed p-values
   < flat[k]}, so for the ascending observed values obs, p <= obs[i]
   iff rank(p) <= i. Per labelling one reverse walk over the rules
   yields
     min-p      the minimum of flat[offset + support];
     pooled     hist[rank] += 1 per (rule, labelling); the caller's
                cumulative sum of hist counts the p-values <= obs[i];
     step-down  stepdown[i] += 1 when the running minimum rank over
                ranks i..n_rules-1 is <= i, i.e. when the suffix
                minimum p-value is <= obs[i].
   Each support is first clamped into its table's stored range
   [first, last]: a log-space table keeps only its live window and a
   0.0 pad on each side where it dropped entries, whose p-values are
   0.0 as well.
   While a rule is counted, the next one's row is prefetched.
   Returns 0, -1 when a rule's table is not one of the n_keys or its
   stored range falls outside flat (checked before the rule's supports
   are counted), or -2
   when scratch memory cannot be allocated. */

#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH(address) __builtin_prefetch((address), 0, 1)
#else
#define PREFETCH(address) ((void)(address))
#endif

/* acc[b] = sum_w popcount(row[w] & plane[w][b]) over n_batch lanes.
   One lane is the plain word loop, which vectorises over the words. */
static void pass_count(const uint64_t *restrict row,
                       const uint64_t *restrict plane,
                       int64_t *restrict acc,
                       int64_t n_words, int64_t n_batch)
{
    if (n_batch == 1) {
        int64_t count = 0;
        for (int64_t w = 0; w < n_words; ++w)
            count += POPCOUNT64(row[w] & plane[w]);
        acc[0] = count;
        return;
    }
    for (int64_t b = 0; b < n_batch; ++b) acc[b] = 0;
    for (int64_t w = 0; w < n_words; ++w) {
        const uint64_t word = row[w];
        const uint64_t *restrict lanes = plane + w * n_batch;
        for (int64_t b = 0; b < n_batch; ++b)
            acc[b] += POPCOUNT64(word & lanes[b]);
    }
}

int64_t repro_permutation_pass(
    const uint64_t *words,   /* (n_nodes, n_words) forest rows */
    const int64_t *coverage, /* (n_nodes,) node supports */
    const int64_t *rule_node,    /* (n_rules,) rank order */
    const int64_t *rule_slot,    /* (n_rules,) -1: coverage - plane 0 */
    const int64_t *rule_key,     /* (n_rules,) p-value table */
    const int64_t *key_range,    /* (n_keys, 3): table start - first,
                                    stored support range first, last */
    int64_t n_keys,
    const double *flat,      /* (n_flat,) p-value tables */
    const int32_t *rank,     /* (n_flat,) */
    int64_t n_flat,
    int64_t n_rules,
    int64_t n_words,
    const uint64_t *planes,  /* (n_planes, n_words, n_batch) */
    int64_t n_batch,
    double *min_p,           /* (n_batch,) */
    int64_t *hist,           /* (n_rules + 1,), accumulated */
    int64_t *stepdown)       /* (n_rules,), accumulated */
{
    const int64_t lines = (n_words * 8 + 63) / 64;
    const size_t lanes = (size_t)(n_batch ? n_batch : 1);
    int64_t *running = malloc(lanes * 8), *acc = malloc(lanes * 8);
    if (!running || !acc) {
        free(running);
        free(acc);
        return -2;
    }
    for (int64_t b = 0; b < n_batch; ++b) {
        min_p[b] = HUGE_VAL;
        running[b] = n_rules;
    }
    for (int64_t i = n_rules - 1; i >= 0; --i) {
        const int64_t complement = rule_slot[i] < 0;
        const int64_t key = rule_key[i];
        int64_t offset, first, last, base;
        uint64_t span;
        const int32_t *rank_row;
        const double *flat_row;
        int64_t below = 0;
        if (key < 0 || key >= n_keys) {
            free(running);
            free(acc);
            return -1;
        }
        offset = key_range[3 * key];
        first = key_range[3 * key + 1];
        last = key_range[3 * key + 2];
        if (first > last || offset + first < 0
                || offset + last >= n_flat) {
            free(running);
            free(acc);
            return -1;
        }
        span = (uint64_t)(last - first);
        /* Support k is stored at row[k - first], k in [first, last];
           a complement rule's k is its coverage minus the count. */
        base = coverage[rule_node[i]] - first;
        rank_row = rank + (offset + first);
        flat_row = flat + (offset + first);
        if (i > 0) {
            const char *next =
                (const char *)(words + rule_node[i - 1] * n_words);
            for (int64_t line = 0; line < lines; ++line)
                PREFETCH(next + line * 64);
            if (rule_key[i - 1] >= 0 && rule_key[i - 1] < n_keys)
                PREFETCH(key_range + 3 * rule_key[i - 1]);
        }
        pass_count(words + rule_node[i] * n_words,
                   planes + (complement ? 0 : rule_slot[i]) * n_words
                       * n_batch,
                   acc, n_words, n_batch);
        for (int64_t b = 0; b < n_batch; ++b) {
            int64_t j = complement ? base - acc[b] : acc[b] - first;
            int64_t r;
            /* Outside a live window only in the far tails: a branch
               that is all but never taken. */
            if ((uint64_t)j > span)
                j = j < 0 ? 0 : (int64_t)span;
            r = rank_row[j];
            ++hist[r];
            if (r <= running[b]) {
                /* A smaller rank means a smaller p-value, so only a
                   lookup at the running minimum rank can lower
                   min-p. */
                if (flat_row[j] < min_p[b]) min_p[b] = flat_row[j];
                running[b] = r;
            }
            below += running[b] <= i;
        }
        stepdown[i] += below;
    }
    free(running);
    free(acc);
    return 0;
}

/* ---- closed-pattern walk ---------------------------------------------

   The whole LCM prefix-preserving closure extension DFS (Uno et al.,
   FIMI 2004) over the item matrix, node for node as the Python walk in
   repro.mining.closed emits it. A pending child is only (j, depth): its
   tidset is rebuilt on pop from the parent's, which sits on the path at
   depth - 1 and stays intact until every sibling has been popped. The
   scratch memory is therefore bounded by the deepest path (one tidset
   and one closure bitmask per depth) plus the pending entries, never by
   the m(m+1)/2 worst case. */

typedef struct { int32_t j; int32_t depth; } lcm_entry;

typedef struct {
    uint64_t *tids;      /* (cap, n_words) tidset per path depth */
    uint64_t *mask;      /* (cap, m_words) closure bitmask per depth */
    int64_t *node;       /* (cap,) emitted node id per depth */
    int64_t *len;        /* (cap,) closure length per depth */
    int64_t cap;
    lcm_entry *stack;    /* pending children, popped in ascending j */
    int64_t sp;
    int64_t stack_cap;
} lcm_scratch;

static int lcm_grow_path(lcm_scratch *s, int64_t depth,
                         int64_t n_words, int64_t m_words)
{
    int64_t cap = s->cap ? s->cap : 16;
    void *p;
    if (depth < s->cap) return 0;
    while (cap <= depth) cap *= 2;
    if (!(p = realloc(s->tids, (size_t)(cap * n_words) * 8))) return -1;
    s->tids = p;
    if (!(p = realloc(s->mask, (size_t)(cap * m_words) * 8))) return -1;
    s->mask = p;
    if (!(p = realloc(s->node, (size_t)cap * 8))) return -1;
    s->node = p;
    if (!(p = realloc(s->len, (size_t)cap * 8))) return -1;
    s->len = p;
    s->cap = cap;
    return 0;
}

static int lcm_reserve(lcm_scratch *s, int64_t extra)
{
    int64_t cap = s->stack_cap ? s->stack_cap : 64;
    void *p;
    if (s->sp + extra <= s->stack_cap) return 0;
    while (cap < s->sp + extra) cap *= 2;
    if (!(p = realloc(s->stack, (size_t)cap * sizeof(lcm_entry))))
        return -1;
    s->stack = p;
    s->stack_cap = cap;
    return 0;
}

/* 1 iff query & ~row == 0, early exit on the first uncovered word. */
static int lcm_subset(const uint64_t *query, const uint64_t *row,
                      int64_t n_words)
{
    for (int64_t w = 0; w < n_words; ++w)
        if (query[w] & ~row[w]) return 0;
    return 1;
}

#define LCM_HAS(mask, p) (((mask)[(p) >> 6] >> ((p) & 63)) & 1)

/* Count pass (tids_out == NULL): counts = {nodes, closure positions}.
   Fill pass: writes node k's tidset row, parent, support and
   its ascending closure positions pos_out[offsets[k]:offsets[k+1]],
   refusing to write past node_cap / pos_cap. Node 0 is the root, whose
   closure (root_pos) and guards the caller has already settled.
   Returns 0, -1 when scratch memory cannot be allocated, or -2 when
   the outputs are too small. */
int64_t repro_lcm_mine(
    const uint64_t *matrix,  /* (m, n_words) item tidsets, mining order */
    int64_t m,
    int64_t n_words,
    int64_t min_sup,
    int64_t max_length,      /* -1: no cap */
    const uint64_t *root_tids,   /* (n_words,) */
    const int32_t *root_pos,     /* (n_root,) ascending */
    int64_t n_root,
    uint64_t *tids_out,      /* (node_cap, n_words) or NULL */
    int64_t *parent_out,     /* (node_cap,) */
    int64_t *support_out,    /* (node_cap,) */
    int32_t *pos_out,        /* (pos_cap,) */
    int64_t *offsets_out,    /* (node_cap + 1,) */
    int64_t node_cap,
    int64_t pos_cap,
    int64_t *counts)         /* (2,) */
{
    const int64_t m_words = m ? (m + 63) / 64 : 1;
    lcm_scratch s = {0};
    int64_t n_nodes = 0, n_pos = 0, status = 0, depth = 0, core = -1;

    if (lcm_grow_path(&s, 0, n_words, m_words)) { status = -1; goto done; }
    for (int64_t w = 0; w < n_words; ++w) s.tids[w] = root_tids[w];
    for (int64_t w = 0; w < m_words; ++w) s.mask[w] = 0;
    for (int64_t i = 0; i < n_root; ++i)
        s.mask[root_pos[i] >> 6] |= (uint64_t)1 << (root_pos[i] & 63);
    s.len[0] = n_root;

    for (;;) {
        /* Emit the node at the end of the path. */
        const uint64_t *tids = s.tids + depth * n_words;
        const uint64_t *mask = s.mask + depth * m_words;
        if (tids_out) {
            int64_t support = 0;
            if (n_nodes >= node_cap || n_pos + s.len[depth] > pos_cap) {
                status = -2;
                goto done;
            }
            for (int64_t w = 0; w < n_words; ++w) {
                tids_out[n_nodes * n_words + w] = tids[w];
                support += POPCOUNT64(tids[w]);
            }
            parent_out[n_nodes] = depth ? s.node[depth - 1] : -1;
            support_out[n_nodes] = support;
            offsets_out[n_nodes] = n_pos;
            for (int64_t w = 0; w < m_words; ++w)
                for (uint64_t bits = mask[w]; bits; bits &= bits - 1)
                    pos_out[n_pos++] =
                        (int32_t)(w * 64 + CTZ64(bits));
        } else {
            n_pos += s.len[depth];
        }
        s.node[depth] = n_nodes++;

        /* Push its frequent extensions j > core, descending so that
           pops ascend; a child adds at least one item, so none fits
           once the node is at the length cap. */
        if (max_length < 0 || s.len[depth] < max_length) {
            if (lcm_reserve(&s, m - core - 1)) { status = -1; goto done; }
            for (int64_t j = m - 1; j > core; --j) {
                const uint64_t *row = matrix + j * n_words;
                int64_t acc = 0;
                if (LCM_HAS(mask, j)) continue;
                for (int64_t w = 0; w < n_words; ++w)
                    acc += POPCOUNT64(tids[w] & row[w]);
                if (acc < min_sup) continue;
                s.stack[s.sp].j = (int32_t)j;
                s.stack[s.sp].depth = (int32_t)(depth + 1);
                ++s.sp;
            }
        }

        /* Pop until a candidate survives the closure, prefix and
           length checks; it becomes the new end of the path. */
        for (;;) {
            lcm_entry e;
            const uint64_t *parent_tids, *parent_mask, *row_j;
            uint64_t *child_tids, *child_mask;
            int64_t len, prefix_ok = 1;
            if (s.sp == 0) goto done;
            e = s.stack[--s.sp];
            if (lcm_grow_path(&s, e.depth, n_words, m_words)) {
                status = -1;
                goto done;
            }
            parent_tids = s.tids + (e.depth - 1) * n_words;
            parent_mask = s.mask + (e.depth - 1) * m_words;
            child_tids = s.tids + e.depth * n_words;
            child_mask = s.mask + e.depth * m_words;
            row_j = matrix + (int64_t)e.j * n_words;
            for (int64_t w = 0; w < n_words; ++w)
                child_tids[w] = parent_tids[w] & row_j[w];
            /* The closure contains the parent's items and j. Below j
               it must add nothing (LCM prefix preservation); above j
               it takes every row containing the child's tidset. */
            for (int64_t p = 0; p < e.j; ++p) {
                if (LCM_HAS(parent_mask, p)) continue;
                if (lcm_subset(child_tids, matrix + p * n_words, n_words)) {
                    prefix_ok = 0;
                    break;
                }
            }
            if (!prefix_ok) continue;
            for (int64_t w = 0; w < m_words; ++w)
                child_mask[w] = parent_mask[w];
            child_mask[e.j >> 6] |= (uint64_t)1 << (e.j & 63);
            len = s.len[e.depth - 1] + 1;
            for (int64_t p = e.j + 1; p < m; ++p) {
                if (LCM_HAS(parent_mask, p)) continue;
                if (lcm_subset(child_tids, matrix + p * n_words, n_words)) {
                    child_mask[p >> 6] |= (uint64_t)1 << (p & 63);
                    ++len;
                }
            }
            if (max_length >= 0 && len > max_length) continue;
            s.len[e.depth] = len;
            depth = e.depth;
            core = e.j;
            break;
        }
    }

done:
    free(s.tids);
    free(s.mask);
    free(s.node);
    free(s.len);
    free(s.stack);
    if (status == 0) {
        counts[0] = n_nodes;
        counts[1] = n_pos;
        if (tids_out) offsets_out[n_nodes] = n_pos;
    }
    return status;
}

/* ---- p-value tables ---------------------------------------------------

   Section 4.2.3's p-value buffer, one table per (n_c, supp_x) key,
   transliterated operation for operation from the scalar builder in
   repro.stats.pvalue_scalar, so every entry equals its result bit for
   bit: the same IEEE double operations in the same order, exp from the
   libm whose exp CPython's math.exp calls, and no a * b + c contracted
   into one rounding (the suite is built with -ffp-contract=off). */

/* ln C(a, b) from the log-factorials lf, as LogFactorialBuffer
   .log_binomial evaluates it. */
static double pv_log_binomial(const double *lf, int64_t a, int64_t b)
{
    return lf[a] - lf[b] - lf[a - b];
}

/* Figure 2's two-ends walk over pmf[0..m): a group is every end value
   <= the smaller end times tolerance, its left members upward, then
   its right members downward; its sum, added left to right, joins the
   running total, which every member receives. Then each p-value is
   clamped to 1.0 and, for mid-p, lowered by half its outcome's pmf.
   Returns 0, or -1 for an empty group (NaN or a negative value). */
static int64_t pv_walk(const double *pmf, int64_t m, double tolerance,
                       int64_t midp, double *out)
{
    int64_t left = 0, right = m - 1;
    double total = 0.0;
    while (left <= right) {
        const int64_t first = left, last = right;
        const double smallest =
            pmf[right] < pmf[left] ? pmf[right] : pmf[left];
        const double ceiling = smallest * tolerance;
        double group = 0.0;
        while (left <= right && pmf[left] <= ceiling)
            group += pmf[left++];
        while (left <= right && pmf[right] <= ceiling)
            group += pmf[right--];
        if (left == first && right == last) return -1;
        total += group;
        for (int64_t i = first; i < left; ++i) out[i] = total;
        for (int64_t i = last; i > right; --i) out[i] = total;
    }
    for (int64_t i = 0; i < m; ++i) {
        double p = out[i] < 1.0 ? out[i] : 1.0;
        if (midp) {
            const double mid = p - 0.5 * pmf[i];
            p = mid > 0.0 ? mid : 0.0;
        }
        out[i] = p;
    }
    return 0;
}

/* The walk alone, over a caller's pmf-like values. */
int64_t repro_pvalue_walk(const double *pmf, int64_t m, double tolerance,
                          int64_t midp, double *out)
{
    return pv_walk(pmf, m, tolerance, midp, out);
}

/* Key i's table over [L, U] = [max(0, n_c + s - n), min(n_c, s)] is
   filled over its window [low[i], high[i]] within [L, U]: the window's
   p-values go to out[start[i] ..]. The pmf comes from the ratio
   recurrence seeded with H(L), whose window must be all of [L, U], or
   entry by entry in log space when that seed is not a normal double.
   There the caller's window is the live one: every entry outside it
   has pmf exp(x < -745.13) == 0.0, and those zeros are the first group
   Figure 2's walk takes from the full table, so the walk over the
   window alone gives every window entry the full table's bits (and
   the full table's p-value outside it is 0.0). Returns 0, -1 when a
   walk meets an empty group, -2 when the pmf scratch (one window of
   the widest key) cannot be allocated, or -3, before writing anything,
   when a key is outside [0, n], a window outside [L, U] (or short of
   it on the ratio path) or outside out. */
static double pv_seed(const double *lf, int64_t n, int64_t c, int64_t s,
                      int64_t low)
{
    return pv_log_binomial(lf, c, low)
           + pv_log_binomial(lf, n - c, s - low)
           - pv_log_binomial(lf, n, s);
}

int64_t repro_pvalue_tables(
    const double *lf,        /* (n + 1,) ln(k!) */
    int64_t n,
    const int64_t *n_c,      /* (n_keys,) class supports */
    const int64_t *supp_x,   /* (n_keys,) coverages */
    const int64_t *low,      /* (n_keys,) window of each key */
    const int64_t *high,     /* (n_keys,) */
    const int64_t *start,    /* (n_keys,) window offsets in out */
    int64_t n_keys,
    double tolerance,
    int64_t midp,
    double *out,             /* (n_out,) */
    int64_t n_out)
{
    int64_t width = 1, status = 0;
    double *pmf;
    for (int64_t i = 0; i < n_keys; ++i) {
        int64_t first, last;
        double seed;
        if (n_c[i] < 0 || n_c[i] > n || supp_x[i] < 0 || supp_x[i] > n)
            return -3;
        first = n_c[i] + supp_x[i] - n > 0 ? n_c[i] + supp_x[i] - n : 0;
        last = n_c[i] < supp_x[i] ? n_c[i] : supp_x[i];
        if (low[i] < first || high[i] > last || low[i] > high[i])
            return -3;
        seed = pv_seed(lf, n, n_c[i], supp_x[i], first);
        if ((low[i] != first || high[i] != last)
                && (seed > -HUGE_VAL ? exp(seed) : 0.0) >= DBL_MIN)
            return -3;
        if (start[i] < 0 || start[i] > n_out - (high[i] - low[i] + 1))
            return -3;
        if (high[i] - low[i] + 1 > width) width = high[i] - low[i] + 1;
    }
    pmf = malloc((size_t)width * sizeof(double));
    if (!pmf) return -2;
    for (int64_t i = 0; i < n_keys && status == 0; ++i) {
        const int64_t c = n_c[i], s = supp_x[i], rest = n - c;
        const int64_t first = c + s - n > 0 ? c + s - n : 0;
        const double denominator = pv_log_binomial(lf, n, s);
        const double seed = pv_seed(lf, n, c, s, first);
        double value = seed > -HUGE_VAL ? exp(seed) : 0.0;
        if (value < DBL_MIN) {
            for (int64_t k = low[i]; k <= high[i]; ++k)
                pmf[k - low[i]] = exp(pv_log_binomial(lf, c, k)
                                      + pv_log_binomial(lf, rest, s - k)
                                      - denominator);
        } else {
            pmf[0] = value;
            for (int64_t k = first; k < high[i]; ++k) {
                value = value * (double)((c - k) * (s - k))
                        / (double)((k + 1) * (rest - s + k + 1));
                pmf[k - first + 1] = value;
            }
        }
        status = pv_walk(pmf, high[i] - low[i] + 1, tolerance, midp,
                         out + start[i]);
    }
    free(pmf);
    return status;
}
"""

#: Flag sets tried in order; the first successful compile wins. The
#: -march=native build unlocks vectorised popcount (AVX-512 VPOPCNTQ
#: where available); the plain build is the portable fallback. Both
#: keep -ffp-contract=off: GNU C defaults to fusing a * b + c into one
#: FMA where the target has it, which moves the last bit of mid-p's
#: ``p - 0.5 * mass`` away from the scalar builder's.
_FLAG_SETS = (
    ("-O3", "-march=native", "-funroll-loops", "-ffp-contract=off"),
    ("-O3", "-ffp-contract=off"),
)

_CACHE_ENV = "REPRO_NATIVE_CACHE"
_DISABLE_ENV = "REPRO_NATIVE"
_CC_ENV = "CC"

_UINT64_P = ctypes.POINTER(ctypes.c_uint64)
_INT64_P = ctypes.POINTER(ctypes.c_int64)
_INT32_P = ctypes.POINTER(ctypes.c_int32)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)

#: (symbol, restype, argtypes) for every kernel the suite must export;
#: a library missing any of them is rejected as a whole.
_KERNEL_SIGNATURES = (
    ("repro_class_supports_batch", None,
     [_UINT64_P, _UINT64_P, _INT64_P,
      ctypes.c_int64, ctypes.c_int64, ctypes.c_int64]),
    ("repro_lcm_mine", ctypes.c_int64,
     [_UINT64_P, ctypes.c_int64, ctypes.c_int64,
      ctypes.c_int64, ctypes.c_int64,
      _UINT64_P, _INT32_P, ctypes.c_int64,
      _UINT64_P, _INT64_P, _INT64_P, _INT32_P, _INT64_P,
      ctypes.c_int64, ctypes.c_int64, _INT64_P]),
    ("repro_permutation_pass", ctypes.c_int64,
     [_UINT64_P, _INT64_P, _INT64_P, _INT64_P, _INT64_P,
      _INT64_P, ctypes.c_int64, _DOUBLE_P, _INT32_P, ctypes.c_int64, ctypes.c_int64,
      ctypes.c_int64, _UINT64_P, ctypes.c_int64,
      _DOUBLE_P, _INT64_P, _INT64_P]),
    ("repro_pvalue_tables", ctypes.c_int64,
     [_DOUBLE_P, ctypes.c_int64, _INT64_P, _INT64_P, _INT64_P,
      _INT64_P, _INT64_P, ctypes.c_int64, ctypes.c_double,
      ctypes.c_int64, _DOUBLE_P, ctypes.c_int64]),
    ("repro_pvalue_walk", ctypes.c_int64,
     [_DOUBLE_P, ctypes.c_int64, ctypes.c_double, ctypes.c_int64,
      _DOUBLE_P]),
)


class KernelSuite:
    """The loaded native kernels, one attribute per C entry point.

    Attributes are ctypes functions with argtypes/restype set:
    ``class_supports_batch``, ``lcm_mine``, ``permutation_pass``,
    ``pvalue_tables``, ``pvalue_walk``.
    The whole suite loads from one shared object — either every kernel
    is native or none is, so callers never mix generations.
    """

    __slots__ = ("class_supports_batch", "lcm_mine",
                 "permutation_pass", "pvalue_tables", "pvalue_walk",
                 "_handle")

    def __init__(self, handle: ctypes.CDLL) -> None:
        self._handle = handle
        for symbol, restype, argtypes in _KERNEL_SIGNATURES:
            fn = getattr(handle, symbol)  # AttributeError -> rejected
            fn.restype = restype
            fn.argtypes = argtypes
            setattr(self, symbol[len("repro_"):], fn)


# Memoised load result: "unset" -> not tried yet; None -> unavailable.
_kernel: object = "unset"
_status = "not loaded"

# Memoised compiler probe: "unset" -> not probed; None -> no usable
# compiler; str -> its identity banner (hashed into the cache tag so
# a compiler upgrade or a CC= switch never reuses a stale library).
_compiler: object = "unset"


def _cache_dir() -> Optional[str]:
    """A private, owned cache directory — or ``None`` to not cache.

    Loading a shared object executes its code, so the cache must not
    be hijackable: the directory is created ``0o700`` and rejected
    unless it is a directory owned by the current user and writable
    by nobody else (the default lives under the world-writable system
    temp dir, where any local user could otherwise pre-create the
    path and plant a library).
    """
    configured = os.environ.get(_CACHE_ENV)
    uid = os.getuid() if hasattr(os, "getuid") else 0
    directory = configured or os.path.join(tempfile.gettempdir(),
                                           f"repro-native-{uid}")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        # lstat + explicit symlink rejection: a pre-planted symlink at
        # the expected path would otherwise redirect the ownership
        # check, the chmod, and the compiler artifacts to its target.
        info = os.lstat(directory)
    except OSError:
        return None
    if stat.S_ISLNK(info.st_mode) or not stat.S_ISDIR(info.st_mode):
        return None
    if hasattr(os, "getuid") and info.st_uid != uid:
        return None
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        # Our own directory from an earlier version (or a permissive
        # umask): tighten it rather than losing the cache. Anything
        # still loose afterwards is rejected.
        try:
            os.chmod(directory, 0o700)
            info = os.stat(directory)
        except OSError:
            return None
        if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
            return None
    return directory


def _compiler_command() -> str:
    """The C compiler to invoke (``$CC``, default ``cc``)."""
    return os.environ.get(_CC_ENV, "").strip() or "cc"


def _compiler_fingerprint() -> Optional[str]:
    """Identity banner of the configured compiler, or ``None``.

    Probed once per process. A missing or broken compiler (the
    ``CC=/bin/false`` CI leg) returns ``None``, which short-circuits
    every compile attempt — the numpy fallback engages without ever
    writing to the cache.
    """
    global _compiler
    if _compiler != "unset":
        return _compiler  # type: ignore[return-value]
    command = _compiler_command()
    try:
        probe = subprocess.run([command, "--version"],
                               capture_output=True, timeout=30)
    except Exception:
        _compiler = None
        return None
    if probe.returncode != 0 or not probe.stdout.strip():
        _compiler = None
        return None
    banner = probe.stdout.splitlines()[0].decode("utf-8", "replace")
    _compiler = f"{command} {banner}"
    return _compiler


def _compile(flags) -> Optional[str]:
    """Compile the suite with ``flags``; return the .so path or None.

    The object is written to a unique temp name and published with
    ``os.replace`` so a concurrent worker either sees the finished
    library or none at all — never a partial write. The cache tag
    hashes the compiler identity and the host identity alongside
    source and flags: ``-march=native`` output is CPU-specific (a
    library built on one machine must never be picked up on another
    through a shared cache directory — SIGILL at call time is
    uncatchable), and a compiler upgrade must rebuild.
    """
    if faults.should_fire("native-compile-failure"):
        # Chaos injection: behave exactly like a failed cc invocation
        # so the caller exercises the numpy-fallback path.
        return None
    compiler = _compiler_fingerprint()
    if compiler is None:
        return None
    tag = hashlib.sha256(
        (_SOURCE + " ".join(flags) + sys.version + compiler
         + platform.machine() + platform.node()).encode()
    ).hexdigest()[:16]
    directory = _cache_dir()
    if directory is None:
        return None
    library = os.path.join(directory, f"bitmat_{tag}.so")
    if os.path.exists(library):
        return library
    # Every attempt compiles from its own unique source and scratch
    # files (mkstemp): concurrent first-use compiles — thread workers,
    # process workers — must never write through each other's paths,
    # or a half-written .so could be published into the cache.
    source_fd, source_path = tempfile.mkstemp(
        dir=directory, prefix=f"bitmat_{tag}_", suffix=".c")
    scratch_fd, scratch = tempfile.mkstemp(
        dir=directory, prefix=f"bitmat_{tag}_", suffix=".so.tmp")
    os.close(scratch_fd)
    try:
        with os.fdopen(source_fd, "w") as handle:
            handle.write(_SOURCE)
        subprocess.run(
            [_compiler_command(), "-shared", "-fPIC", *flags,
             source_path, "-lm", "-o", scratch],
            check=True, capture_output=True, timeout=120)
        os.replace(scratch, library)
        return library
    except Exception:
        try:
            os.unlink(scratch)
        except OSError:
            pass
        return None
    finally:
        try:
            os.unlink(source_path)
        except OSError:
            pass


def load_suite() -> Optional[KernelSuite]:
    """The loaded :class:`KernelSuite`, or ``None`` when unavailable.

    Lazy and memoised; safe to call from any thread or worker
    process (each process compiles at most once, against the shared
    on-disk cache). ``REPRO_NATIVE=0`` disables the whole suite.
    """
    global _kernel, _status
    if _kernel != "unset":
        return _kernel  # type: ignore[return-value]
    if os.environ.get(_DISABLE_ENV, "").strip() == "0":
        _kernel, _status = None, "disabled via REPRO_NATIVE=0"
        return None
    for flags in _FLAG_SETS:
        library = _compile(flags)
        if library is None:
            continue
        try:
            suite = KernelSuite(ctypes.CDLL(library))
        except (OSError, AttributeError):
            # Unloadable, or an older-generation library missing a
            # kernel (the tag hashes the source, so this only happens
            # on a corrupted cache) — try the next flag set.
            continue
        _kernel = suite
        _status = f"loaded ({' '.join(flags)})"
        return suite
    _kernel, _status = None, "compile failed (numpy fallback)"
    return None


def native_status() -> str:
    """Human-readable state of the native kernel suite (diagnostics)."""
    return _status
