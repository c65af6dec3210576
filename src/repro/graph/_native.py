"""Optional C acceleration for the batched longest-path and GA kernels.

Four kernels live here:

* **Batched makespans** (``ft_forward``): the Monte-Carlo hot loop reduces
  to one forward pass over the disjunctive graph with a wide realization
  axis.  The numpy level-synchronous kernel is memory-bandwidth bound:
  every level pays a full-width gather, an edge-weight add and a segment
  reduction over padded candidate rows — roughly three streamed passes
  over the edge rectangle per level.  The C kernel walks the nodes once in
  topological order and keeps each node's realization row in L1 while
  folding gather, add, max and the node-weight add into a single
  edge-driven loop, cutting memory traffic several-fold.

* **Population GA evaluation** (``ga_population_eval``): the GA hot loop
  is the opposite shape — many *small* problems (one per chromosome)
  rather than one wide one.  Per-individual Python/numpy dispatch (decode
  a ``Schedule``, run the scalar forward/backward passes) dominates the
  arithmetic by well over an order of magnitude.  The population kernel
  takes the whole population's scheduling strings and processor maps and,
  for each individual, performs the decode (chain edges are implicit in
  the string), the disjunctive forward pass, the optional backward pass
  and the slack computation entirely in C, parallelised over individuals
  with OpenMP when the toolchain supports ``-fopenmp`` (probed at compile
  time; ``has_openmp`` reports the outcome).  On request it first checks
  every row (processors in range, a permutation, a topological order),
  so the GA validates each generation in the same call that evaluates
  it.

* **GA selection and variation** (``ga_next_generation``): one
  generation's systematic binary tournament, pairing permutation,
  single-point crossover (pc coin, then two cuts) and topological-window
  mutation, in place on the population arrays, over the pred/succ CSR the
  evaluation kernel already binds.  It replaces ~57 interpreted
  ``Generator`` calls and per-row numpy indexing per generation.  Before
  drawing anything it checks every parent row (processors in range, a
  permutation: ``ga_check_one`` without the topological check, which the
  children's evaluation repeats), checks every mutation window before
  using it, and reports the crossover and mutation counts.
  ``GeneticScheduler._next_generation`` stays the reference, and the
  path without the library or with operator overrides.

* **Random topological orders** (``random_topo_order``): the swap-pop
  ready-list walk of :func:`repro.graph.topology.random_topological_order`
  (the GA's random initial orders) over the successor CSR.

The last two draw from the caller's numpy ``Generator`` and must draw
exactly what numpy would, so every seeded trajectory is unchanged:

* they reach it through the documented ``BitGenerator.ctypes`` interface
  (:func:`bitgen` gives the ``bitgen_t`` address) and draw only with its
  ``next_uint32`` and ``next_double``, so any numpy bit generator works
  and a buffered half of a 64-bit output is consumed as numpy consumes
  it;
* they reproduce numpy's algorithms: ``Generator.random`` is one
  ``next_double``; ``integers(lo, hi)`` is Lemire's method on 32-bit
  draws (no draw for a range of 1; a range of 2**32 or more is an error,
  not a different draw); ``permutation(k)`` is an ``arange`` shuffled by
  swapping ``i`` with a masked-rejection ``random_interval(i)`` for
  ``i = k-1 .. 1``;
* the caller holds ``bit_generator.lock`` for the whole call, as numpy's
  own methods do;
* errors are return codes the caller raises as ``ValueError``:
  ``ga_next_generation`` gives the first failing row check (1 processor
  out of range, 2 not a permutation), 3 for an empty mutation window
  (not a topological order), or 4 for sizes a 32-bit draw cannot cover; ``random_topo_order`` gives 1 on a cycle and 2 for such
  sizes.

``rg_random``, ``rg_integers`` and ``rg_permutation`` export the three
draws so ``tests/unit/test_native_draws.py`` can hold them to numpy's on
every bit generator.

The extension is strictly optional and self-contained:

* compiled lazily, at most once per process, with whatever ``cc`` the host
  provides (no build-time or install-time dependency); compilation and
  loading are guarded by a process-wide lock so concurrent first callers
  (e.g. the service's fast-tier thread pool) race neither the filesystem
  nor the module state;
* cached in the system temp directory keyed by a hash of the source, so
  repeated runs pay nothing;
* disabled by setting ``REPRO_NATIVE=0`` in the environment;
* any failure — no compiler, sandboxed temp dir, dlopen error — silently
  falls back to the pure-numpy kernels, which remain the reference-tested
  implementation.

Bit-exactness: every C recurrence performs the same float64 additions and
comparisons in the same per-edge candidate form as the scalar reference
passes — ``ft[v] = w[v] + max_u(ft[u] + c)`` with first-candidate
overwrite and no zero floor for the forward pass,
``bl[v] = max_t(w[v] + (bl[t] + c))`` for the backward pass, and
``slack = (M - bl) - tl`` clamped at zero with NaN passthrough — so
results are bit-identical (``max`` over an identical candidate set is
order-independent).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading

__all__ = ["bitgen", "get_lib", "has_openmp"]

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* Forward finish-time pass, node-major state.
 *
 * topo   : (n,)   topological order of the nodes
 * indptr : (n+1,) CSR row pointer grouping edge ids by destination
 * eidx   : (m,)   edge ids grouped by destination
 * esrc   : (m,)   source node of every edge
 * ew     : (m,)   edge weights
 * nw     : (n*r,) node weights, node-major (row v = realizations of v)
 * ft     : (n*r,) output finish times, node-major
 *
 * ft[v] = nw[v] + max over in-edges e of (ft[src(e)] + ew[e]); entry
 * nodes (no in-edges) get ft[v] = nw[v].  The first in-edge overwrites
 * rather than maxing against an initial value, matching the reference
 * pass (which scatters the plain candidate max with no zero floor).
 */
void ft_forward(int64_t n, int64_t r,
                const int64_t *topo,
                const int64_t *indptr,
                const int64_t *eidx,
                const int64_t *esrc,
                const double *ew,
                const double *nw,
                double *ft)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t v = topo[i];
        double *row = ft + v * r;
        const double *w = nw + v * r;
        int64_t p = indptr[v];
        int64_t p_end = indptr[v + 1];
        if (p == p_end) {
            for (int64_t j = 0; j < r; j++)
                row[j] = 0.0;
        } else {
            int64_t e = eidx[p];
            const double *fu = ft + esrc[e] * r;
            double c = ew[e];
            for (int64_t j = 0; j < r; j++)
                row[j] = fu[j] + c;
            p++;
        }
        for (; p < p_end; p++) {
            int64_t e = eidx[p];
            const double *fu = ft + esrc[e] * r;
            double c = ew[e];
            for (int64_t j = 0; j < r; j++) {
                double cand = fu[j] + c;
                if (cand > row[j])
                    row[j] = cand;
            }
        }
        for (int64_t j = 0; j < r; j++)
            row[j] += w[j];
    }
}

#ifdef _OPENMP
#include <omp.h>
#endif

/* 1 when the library was compiled with OpenMP support. */
int64_t has_openmp(void)
{
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

/* One individual of the population kernel (see ga_population_eval).
 *
 * The disjunctive graph is never materialised: walking the scheduling
 * string keeps a per-processor "last task" cursor, which IS the chain
 * edge of Def. 3.1, and the task-graph edges come from the shared CSR
 * indexes.  A chain pair that is also a task-graph edge yields two
 * equal-valued candidates (same-processor communication is exactly
 * 0.0), which max() absorbs, so the candidate set matches the
 * deduplicated disjunctive graph bit-for-bit.
 *
 * tl/bl/w are per-thread scratch rows of length n; cur is a
 * per-thread scratch row of length m.
 */
static void ga_eval_one(
    int64_t n, int64_t m, int64_t need_slack,
    const int64_t *ord, const int64_t *pr,
    const int64_t *pred_indptr, const int64_t *pred_eidx,
    const int64_t *esrc,
    const int64_t *succ_indptr, const int64_t *succ_eidx,
    const int64_t *edst,
    const double *edata, const double *inv_rates, const double *dur,
    double *tl, double *bl, double *w, int64_t *cur,
    double *makespan_out, double *slack_row)
{
    for (int64_t j = 0; j < m; j++)
        cur[j] = -1;
    for (int64_t v = 0; v < n; v++)
        w[v] = dur[v * m + pr[v]];

    /* Forward pass: tl[v] = max over disjunctive in-edges of
     * (tl[u] + w[u]) + c, first candidate overwriting (entries stay 0),
     * exactly the scalar top_levels recurrence. */
    double mk = 0.0;
    for (int64_t i = 0; i < n; i++) {
        int64_t v = ord[i];
        int64_t pv = pr[v];
        double best = 0.0;
        int first = 1;
        int64_t u = cur[pv];
        if (u >= 0) {
            best = (tl[u] + w[u]) + 0.0;
            first = 0;
        }
        for (int64_t p = pred_indptr[v]; p < pred_indptr[v + 1]; p++) {
            int64_t e = pred_eidx[p];
            int64_t s = esrc[e];
            double c = edata[e] * inv_rates[pr[s] * m + pv];
            double cand = (tl[s] + w[s]) + c;
            if (first || cand > best) {
                best = cand;
                first = 0;
            }
        }
        tl[v] = best;
        double fin = best + w[v];
        if (i == 0 || fin > mk)
            mk = fin;
        cur[pv] = v;
    }
    *makespan_out = mk;

    if (!need_slack)
        return;

    /* Backward pass: bl[v] = max over disjunctive out-edges of
     * w[v] + (bl[t] + c), initialised to w[v] for sinks — the scalar
     * bottom_levels recurrence (max commutes with the monotone w[v]
     * add, so first-overwrite semantics match). */
    for (int64_t j = 0; j < m; j++)
        cur[j] = -1;
    for (int64_t i = n - 1; i >= 0; i--) {
        int64_t v = ord[i];
        int64_t pv = pr[v];
        double best = w[v];
        int first = 1;
        int64_t u = cur[pv];
        if (u >= 0) {
            best = w[v] + (bl[u] + 0.0);
            first = 0;
        }
        for (int64_t p = succ_indptr[v]; p < succ_indptr[v + 1]; p++) {
            int64_t e = succ_eidx[p];
            int64_t t = edst[e];
            double c = edata[e] * inv_rates[pv * m + pr[t]];
            double val = w[v] + (bl[t] + c);
            if (first || val > best) {
                best = val;
                first = 0;
            }
        }
        bl[v] = best;
        cur[pv] = v;
    }

    /* slack = (M - Bl) - Tl clamped at zero; the comparison (not fmax)
     * preserves NaN exactly like numpy.maximum. */
    for (int64_t v = 0; v < n; v++) {
        double s = (mk - bl[v]) - tl[v];
        if (s < 0.0)
            s = 0.0;
        slack_row[v] = s;
    }
}

/* Validation of one individual before it is evaluated.  Returns 0 when
 * the row is legal, else the first failing check in this order:
 *   1  a processor index outside [0, m)
 *   2  the scheduling string is not a permutation of 0..n-1
 *   3  the scheduling string is not a topological order (only if topo)
 * Every index read from the row is range-checked before it is used to
 * address memory.  pos is a scratch row of length n.
 */
static int64_t ga_check_one(
    int64_t n, int64_t m, int topo,
    const int64_t *ord, const int64_t *pr,
    const int64_t *pred_indptr, const int64_t *pred_eidx,
    const int64_t *esrc, int64_t *pos)
{
    for (int64_t v = 0; v < n; v++)
        if (pr[v] < 0 || pr[v] >= m)
            return 1;
    for (int64_t v = 0; v < n; v++)
        pos[v] = -1;
    for (int64_t i = 0; i < n; i++) {
        int64_t v = ord[i];
        if (v < 0 || v >= n || pos[v] >= 0)
            return 2;
        pos[v] = i;
    }
    if (!topo)
        return 0;
    for (int64_t v = 0; v < n; v++)
        for (int64_t p = pred_indptr[v]; p < pred_indptr[v + 1]; p++)
            if (pos[esrc[pred_eidx[p]]] >= pos[v])
                return 3;
    return 0;
}

/* Population-wide GA evaluation: decode + forward + backward + slack
 * for every individual in one call.
 *
 * pop      : number of individuals
 * n, m     : tasks, processors
 * need_slack : 0 = makespans only, 1 = also fill the slack matrix
 * n_threads  : OpenMP width (scratch has this many rows); ignored
 *              without OpenMP
 * validate : 1 = check every row (ga_check_one) before evaluating it
 * orders   : (pop, n) scheduling strings (topological orders)
 * procs    : (pop, n) processor index per task
 * pred_*   : task-graph in-edge CSR (indptr by dst, edge ids, sources)
 * succ_*   : task-graph out-edge CSR (indptr by src, edge ids, dests)
 * edata    : (ne,) per-edge data sizes
 * inv_rates: (m, m) reciprocal transfer rates, zero diagonal
 * dur      : (n, m) duration of task v on processor p
 * ws_f     : (n_threads, 3n) float scratch
 * ws_i     : (n_threads, m + n) int scratch
 * makespans: (pop,) output
 * slacks   : (pop, n) output (written only when need_slack)
 *
 * Returns 0, or the smallest ga_check_one code over all rows (so the
 * reported problem does not depend on which row carries it); rows that
 * fail validation are not evaluated and the outputs are then undefined.
 */
int64_t ga_population_eval(
    int64_t pop, int64_t n, int64_t m,
    int64_t need_slack, int64_t n_threads, int64_t validate,
    const int64_t *orders, const int64_t *procs,
    const int64_t *pred_indptr, const int64_t *pred_eidx,
    const int64_t *esrc,
    const int64_t *succ_indptr, const int64_t *succ_eidx,
    const int64_t *edst,
    const double *edata, const double *inv_rates, const double *dur,
    double *ws_f, int64_t *ws_i,
    double *makespans, double *slacks)
{
    int64_t rc = 4; /* above every error code: min() keeps the first check */
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)n_threads) reduction(min:rc)
#endif
    for (int64_t p = 0; p < pop; p++) {
        int64_t t = 0;
#ifdef _OPENMP
        t = (int64_t)omp_get_thread_num();
#endif
        double *tl = ws_f + t * 3 * n;
        int64_t *cur = ws_i + t * (m + n);
        if (validate) {
            int64_t code = ga_check_one(n, m, 1, orders + p * n,
                                        procs + p * n, pred_indptr,
                                        pred_eidx, esrc, cur + m);
            if (code) {
                if (code < rc)
                    rc = code;
                continue;
            }
        }
        ga_eval_one(n, m, need_slack,
                    orders + p * n, procs + p * n,
                    pred_indptr, pred_eidx, esrc,
                    succ_indptr, succ_eidx, edst,
                    edata, inv_rates, dur,
                    tl, tl + n, tl + 2 * n, cur,
                    makespans + p, slacks + p * n);
    }
    return rc == 4 ? 0 : rc;
}

/* numpy's bitgen_t (numpy/random/bitgen.h), reached through the
 * documented BitGenerator.ctypes interface.  Every draw below goes
 * through its next_uint32 / next_double, so a buffered half of a 64-bit
 * output is consumed exactly as numpy consumes it. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Generator.integers(lo, lo + rng + 1) - lo for rng < 2^32 - 1: numpy's
 * buffered_bounded_lemire_uint32, including its no-draw rng == 0 case. */
static int64_t rg_bounded(bitgen_t *bg, uint64_t rng)
{
    if (rng == 0)
        return 0;
    const uint32_t rng_excl = (uint32_t)rng + 1;
    uint64_t prod = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
    uint32_t leftover = (uint32_t)prod;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - (uint32_t)rng) % rng_excl;
        while (leftover < threshold) {
            prod = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
            leftover = (uint32_t)prod;
        }
    }
    return (int64_t)(prod >> 32);
}

/* Generator.permutation(k) for k <= 2^32: arange, then numpy's shuffle,
 * which swaps i with random_interval(i) (masked rejection on 32-bit
 * draws) for i = k-1 down to 1. */
static void rg_permute(bitgen_t *bg, int64_t k, int64_t *out)
{
    for (int64_t i = 0; i < k; i++)
        out[i] = i;
    for (int64_t i = k - 1; i > 0; i--) {
        uint32_t mask = (uint32_t)i;
        mask |= mask >> 1;
        mask |= mask >> 2;
        mask |= mask >> 4;
        mask |= mask >> 8;
        mask |= mask >> 16;
        int64_t j;
        while ((j = (int64_t)(bg->next_uint32(bg->state) & mask)) > i)
            ;
        int64_t t = out[i];
        out[i] = out[j];
        out[j] = t;
    }
}

/* The three draws as numpy's Generator makes them, for the contract
 * tests.  rg_integers returns -1 (no draw) unless 1 <= hi - lo < 2^32. */
double rg_random(bitgen_t *bg)
{
    return bg->next_double(bg->state);
}

int64_t rg_integers(bitgen_t *bg, int64_t lo, int64_t hi, int64_t *out)
{
    if (hi <= lo || (uint64_t)hi - (uint64_t)lo > UINT32_MAX)
        return -1;
    *out = lo + rg_bounded(bg, (uint64_t)hi - (uint64_t)lo - 1);
    return 0;
}

int64_t rg_permutation(bitgen_t *bg, int64_t k, int64_t *out)
{
    if (k < 0 || k > (int64_t)UINT32_MAX + 1)
        return -1;
    rg_permute(bg, k, out);
    return 0;
}

/* random_topological_order's randomized Kahn walk: the ready list starts
 * as the entry tasks in id order; each step swap-pops a uniformly drawn
 * entry, Generator.integers(len(ready)), and appends the successors it
 * frees in CSR order.  ws is int scratch of length 2n.  Returns 0, 1 on
 * a cycle, 2 when n does not fit a 32-bit draw. */
int64_t random_topo_order(
    int64_t n,
    const int64_t *succ_indptr, const int64_t *succ_eidx,
    const int64_t *edst,
    bitgen_t *bg, int64_t *order, int64_t *ws)
{
    if (n > (int64_t)UINT32_MAX)
        return 2;
    int64_t *indeg = ws, *ready = ws + n;
    for (int64_t v = 0; v < n; v++)
        indeg[v] = 0;
    for (int64_t p = 0; p < succ_indptr[n]; p++)
        indeg[edst[succ_eidx[p]]]++;
    int64_t n_ready = 0;
    for (int64_t v = 0; v < n; v++)
        if (!indeg[v])
            ready[n_ready++] = v;
    for (int64_t i = 0; i < n; i++) {
        if (!n_ready)
            return 1;
        int64_t pick = rg_bounded(bg, (uint64_t)(n_ready - 1));
        int64_t v = ready[pick];
        ready[pick] = ready[--n_ready];
        order[i] = v;
        for (int64_t p = succ_indptr[v]; p < succ_indptr[v + 1]; p++) {
            int64_t w = edst[succ_eidx[p]];
            if (!--indeg[w])
                ready[n_ready++] = w;
        }
    }
    return 0;
}

/* One generation of the paper's selection and variation, in place (see
 * GeneticScheduler._next_generation, the reference):
 *
 *   1. systematic binary tournament on scores: one permutation, pairs
 *      (2j, 2j+1) fight (scores[a] >= scores[b] keeps a, so NaN loses),
 *      an odd leftover advances; a second permutation fills the rest;
 *   2. a third permutation orders the selected rows into out_*;
 *   3. each pair (2j, 2j+1) crosses with pc: cut_order then cut_proc,
 *      each Generator.integers(1, n), unless n < 2; the odd leftover is
 *      copied through;
 *   4. each row mutates with pm: task = integers(n), insert_at =
 *      integers(lo, hi + 1) over its legal window, then its processor =
 *      integers(m).
 *
 * Every parent row is checked first: processors in range, and a
 * permutation, so every task id is in range before it addresses memory
 * (ga_check_one without the topological check, which the evaluation of
 * the children repeats).  Each mutation window must be non-empty.  ws is
 * int scratch of length 2*pop + 4*n + 2; its last two entries receive
 * the crossover and mutation counts.  Returns 0, a ga_check_one code (1
 * or 2), 3 for an empty mutation window, or 4 when n or m is below 1 or
 * pop, n or m does not fit a 32-bit draw.  Nothing is drawn when a
 * parent row fails.
 */
int64_t ga_next_generation(
    int64_t pop, int64_t n, int64_t m,
    double pc, double pm, bitgen_t *bg,
    const double *scores,
    const int64_t *orders, const int64_t *procs,
    int64_t *out_orders, int64_t *out_procs,
    const int64_t *pred_indptr, const int64_t *pred_eidx,
    const int64_t *esrc,
    const int64_t *succ_indptr, const int64_t *succ_eidx,
    const int64_t *edst,
    int64_t *ws)
{
    if (n < 1 || m < 1 || pop > (int64_t)UINT32_MAX
        || n > (int64_t)UINT32_MAX || m > (int64_t)UINT32_MAX)
        return 4;
    int64_t *selected = ws, *perm = ws + pop, *pos = ws + 2 * pop;
    int64_t *pos_b = pos + n, *row_a = pos + 2 * n, *row_b = pos + 3 * n;
    int64_t *counts = pos + 4 * n;
    for (int64_t r = 0; r < pop; r++) {
        int64_t code = ga_check_one(n, m, 0, orders + r * n, procs + r * n,
                                    pred_indptr, pred_eidx, esrc, pos);
        if (code)
            return code;
    }

    int64_t k = 0;
    for (int round = 0; round < 2 && k < pop; round++) {
        rg_permute(bg, pop, perm);
        for (int64_t j = 0; j + 1 < pop; j += 2) {
            int64_t a = perm[j], b = perm[j + 1];
            selected[k++] = scores[a] >= scores[b] ? a : b;
        }
        if (pop % 2 && k < pop)
            selected[k++] = perm[pop - 1];
    }
    rg_permute(bg, pop, perm);
    for (int64_t i = 0; i < pop; i++) {
        int64_t src = selected[perm[i]];
        memcpy(out_orders + i * n, orders + src * n, n * sizeof(int64_t));
        memcpy(out_procs + i * n, procs + src * n, n * sizeof(int64_t));
    }

    int64_t n_cross = 0;
    for (int64_t i = 0; i + 1 < pop; i += 2) {
        if (!(bg->next_double(bg->state) < pc))
            continue;
        n_cross++;
        if (n < 2)
            continue;
        int64_t cut_order = 1 + rg_bounded(bg, (uint64_t)(n - 2));
        int64_t cut_proc = 1 + rg_bounded(bg, (uint64_t)(n - 2));
        int64_t *oa = out_orders + i * n, *ob = oa + n;
        memcpy(row_a, oa, n * sizeof(int64_t));
        memcpy(row_b, ob, n * sizeof(int64_t));
        for (int64_t c = 0; c < n; c++) {
            pos[row_a[c]] = c;
            pos_b[row_b[c]] = c;
        }
        /* Each child keeps its own prefix, then its remaining tasks in
         * the order the other parent gives them. */
        int64_t ka = cut_order, kb = cut_order;
        for (int64_t c = 0; c < n; c++) {
            if (pos[row_b[c]] >= cut_order)
                oa[ka++] = row_b[c];
            if (pos_b[row_a[c]] >= cut_order)
                ob[kb++] = row_a[c];
        }
        int64_t *pa = out_procs + i * n, *pb = pa + n;
        for (int64_t c = cut_proc; c < n; c++) {
            int64_t t = pa[c];
            pa[c] = pb[c];
            pb[c] = t;
        }
    }

    int64_t n_mut = 0;
    for (int64_t i = 0; i < pop; i++) {
        if (!(bg->next_double(bg->state) < pm))
            continue;
        n_mut++;
        int64_t *ord = out_orders + i * n;
        int64_t task = rg_bounded(bg, (uint64_t)(n - 1));
        for (int64_t c = 0; c < n; c++)
            pos[ord[c]] = c;
        /* The window in the string with task removed (mutation.legal_window). */
        int64_t at = pos[task], lo = 0, hi = n - 1;
        for (int64_t p = pred_indptr[task]; p < pred_indptr[task + 1]; p++) {
            int64_t q = pos[esrc[pred_eidx[p]]];
            q -= q > at;
            if (q + 1 > lo)
                lo = q + 1;
        }
        for (int64_t p = succ_indptr[task]; p < succ_indptr[task + 1]; p++) {
            int64_t q = pos[edst[succ_eidx[p]]];
            q -= q > at;
            if (q < hi)
                hi = q;
        }
        if (lo > hi)
            return 3;
        int64_t insert_at = lo + rg_bounded(bg, (uint64_t)(hi - lo));
        if (insert_at > at)
            memmove(ord + at, ord + at + 1, (insert_at - at) * sizeof(int64_t));
        else if (insert_at < at)
            memmove(ord + insert_at + 1, ord + insert_at,
                    (at - insert_at) * sizeof(int64_t));
        ord[insert_at] = task;
        out_procs[i * n + task] = rg_bounded(bg, (uint64_t)(m - 1));
    }
    counts[0] = n_cross;
    counts[1] = n_mut;
    return 0;
}
"""

_lib: ctypes.CDLL | None = None
_tried = False
_lock = threading.Lock()


def _compile(so_path: str, c_path: str) -> bool:
    """Try progressively more conservative flag sets; True on success.

    OpenMP variants come first so the population kernel parallelises
    over individuals where the toolchain allows; plain builds remain
    fully functional (single-threaded population loop).  The temp object
    is pid-unique and moved into place atomically, so concurrent
    *processes* sharing the cache directory cannot observe a torn file.
    """
    tmp = f"{so_path}.{os.getpid()}.tmp"
    flag_sets = (
        ["-O3", "-march=native", "-fopenmp"],
        ["-O3", "-fopenmp"],
        ["-O3", "-march=native"],
        ["-O3"],
        ["-O2"],
    )
    for flags in flag_sets:
        result = subprocess.run(
            ["cc", *flags, "-shared", "-fPIC", "-o", tmp, c_path],
            capture_output=True,
        )
        if result.returncode == 0:
            os.replace(tmp, so_path)
            return True
    return False


def _load() -> ctypes.CDLL | None:
    """Compile (if needed) and load the kernel library; None on failure."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache = os.path.join(tempfile.gettempdir(), f"repro-native-{digest}")
    os.makedirs(cache, exist_ok=True)
    so_path = os.path.join(cache, "kernels.so")
    if not os.path.exists(so_path):
        c_path = os.path.join(cache, f"kernels.{os.getpid()}.c")
        with open(c_path, "w", encoding="utf-8") as fh:
            fh.write(_C_SOURCE)
        try:
            if not _compile(so_path, c_path):
                return None
        finally:
            try:
                os.remove(c_path)
            except OSError:
                pass
    lib = ctypes.CDLL(so_path)
    lib.ft_forward.restype = None
    lib.ft_forward.argtypes = [ctypes.c_int64, ctypes.c_int64] + [
        ctypes.c_void_p
    ] * 7
    lib.has_openmp.restype = ctypes.c_int64
    lib.has_openmp.argtypes = []
    lib.ga_population_eval.restype = ctypes.c_int64
    lib.ga_population_eval.argtypes = [ctypes.c_int64] * 6 + [
        ctypes.c_void_p
    ] * 15
    lib.rg_random.restype = ctypes.c_double
    lib.rg_random.argtypes = [ctypes.c_void_p]
    lib.rg_integers.restype = ctypes.c_int64
    lib.rg_integers.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p
    ]
    lib.rg_permutation.restype = ctypes.c_int64
    lib.rg_permutation.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p
    ]
    lib.random_topo_order.restype = ctypes.c_int64
    lib.random_topo_order.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 6
    lib.ga_next_generation.restype = ctypes.c_int64
    lib.ga_next_generation.argtypes = (
        [ctypes.c_int64] * 3 + [ctypes.c_double] * 2 + [ctypes.c_void_p] * 13
    )
    return lib


def get_lib() -> ctypes.CDLL | None:
    """The compiled kernel library, or ``None`` when unavailable.

    Compilation is attempted at most once per process; every failure mode
    degrades to ``None`` so callers can fall back to the numpy kernels.
    Thread-safe: a process-wide lock serialises the first-compile race
    (the service's fast tier evaluates on a thread pool), and the
    double-checked fast path keeps the steady state lock-free.
    """
    global _lib, _tried
    if _tried:
        return _lib
    with _lock:
        if _tried:
            return _lib
        lib: ctypes.CDLL | None = None
        if os.environ.get("REPRO_NATIVE", "1") != "0":
            try:
                lib = _load()
            except Exception:
                lib = None
        # Publish the result only after it is fully initialised; _tried
        # flips last so racing readers of the unlocked fast path never
        # observe a half-built library.
        _lib = lib
        _tried = True
    return _lib


def has_openmp() -> bool:
    """Whether the loaded kernel library was compiled with OpenMP."""
    lib = get_lib()
    return bool(lib is not None and lib.has_openmp())


def bitgen(gen) -> int:
    """Address of the ``bitgen_t`` behind a ``numpy.random.Generator``.

    Hold ``gen.bit_generator.lock`` while a kernel draws through it.
    """
    return gen.bit_generator.ctypes.bit_generator.value
