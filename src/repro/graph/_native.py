"""Optional C acceleration for the longest-path, GA and list-scheduling kernels.

Eight kernels live here:

* **Batched makespans** (``ft_forward``): the forward pass of
  ``ArrayDag.finish_times`` and ``makespan`` on ``(R, n)`` weights, for
  every batch width: ``ft[v] = w[v] + max over in-edges (ft[u] + c)``,
  node by node in topological order, on node-major realization rows.  The
  numpy pass runs the same recurrence one ``(R,)`` row per node, a few
  numpy dispatches per in-edge; the C kernel walks each node's in-edges
  in one loop and keeps the node's realization row in L1 while it folds
  gather, add, max and the node-weight add.

* **Population GA evaluation** (``ga_population_eval``): the GA hot loop
  is the opposite shape — many *small* problems (one per chromosome)
  rather than one wide one.  Per-individual Python/numpy dispatch (decode
  a ``Schedule``, run the scalar forward/backward passes) dominates the
  arithmetic by well over an order of magnitude.  The population kernel
  takes the whole population's scheduling strings and processor maps and,
  for each individual, checks the row (processors in range, a
  permutation), then performs the decode (chain edges are implicit in
  the string), the disjunctive forward and backward passes and the slack
  computation entirely in C, one individual after another on one set of
  scratch rows.  The forward pass rejects an order that is not
  topological at the first in-edge whose source comes later, before it
  reads that source.  Parallelism lives one level up, in processes
  (``repro.cluster`` workers, service shards, ``--workers`` grids): the
  library starts no threads, so a forked process evaluates exactly as
  its parent.

* **GA selection and variation** (``ga_next_generation``): one
  generation's systematic binary tournament, pairing permutation,
  single-point crossover (pc coin, then two cuts) and topological-window
  mutation, in place on the population arrays, over the pred/succ CSR the
  evaluation kernel already binds.  It replaces ~57 interpreted
  ``Generator`` calls and per-row numpy indexing per generation.  The
  parent rows come from Python, so before drawing anything it checks
  every one of them (processors in range, a permutation:
  ``ga_check_one``; the children's evaluation checks the topological
  order); then its variation core (``ga_vary``) checks every mutation
  window before using it and reports the crossover and mutation counts.
  ``GeneticScheduler._next_generation`` stays the reference, and the
  path without the library or with operator overrides.

* **Random topological orders** (``random_topo_order``): the swap-pop
  ready-list walk of :func:`repro.graph.topology.random_topological_order`
  (the GA's random initial orders) over the successor CSR.

* **Monte-Carlo makespans** (``mc_makespans``): ``assess_robustness``
  and ``convergence_profile`` under the paper's uniform model, in blocks
  of :data:`MC_BLOCK` realizations.  Each block's durations are drawn
  node-major as ``Generator.uniform(low, high, size=(R, n))`` draws them
  (``rg_uniform``: ``low + span * next_double``, realization by
  realization), then ``ft_forward`` runs the block over the schedule's
  disjunctive graph and each realization's makespan is the largest
  finish time over the sinks, so the ``(R, n)`` durations never exist.
  ``realize_durations`` then ``batch_makespans``, which walks the same
  graph, stays the reference.

* **The GA's initial population** (``ga_random_rows``): rows ``k..``
  of a run's ``(Np, n)`` arrays, each candidate a ``random_topo_order``
  walk then ``Generator.integers(m, size=n)``; while the uniqueness
  budget lasts, a candidate equal to an earlier row (a row hash, then a
  full compare) is drawn again.  The ``random_chromosome`` loop of
  :func:`repro.ga.chromosome.random_rows` stays the reference.

* **The GA generations** (``ga_run_steps``): generations ``g`` up to
  ``g_end`` of ``GeneticScheduler.run`` for the paper's operators and its
  three policies (makespan, slack, Eqn. 8's ε-constraint), on a
  run-state block (``ga_run_t``, mirrored by :class:`GaRun`) that
  :class:`repro.ga.popeval.NativeRun` binds once per run.  The loop stops
  after the generation whose stagnation count (generations without
  improvement, kept in the block) reaches the caller's limit, or at the
  end of the bound history, which the caller then grows.  The paper's GA
  converges onto a few distinct rows, so the step carries each row's
  class (the lowest index of an equal row) from one generation to the
  next and never re-proves an equality it made itself.  Each generation
  (``ga_run_step``) runs ``ga_vary`` on the parents, which gives every
  child its origin: the parent's class for a row copied through or
  crossed with a row of its own class (that crossover's cuts are drawn,
  its merge skipped), none after a crossover of different rows or a
  mutation.  A child with an origin takes that parent's hash and
  metrics without a hash or a compare; every other child is hashed and
  looked up among the parents' class representatives and the earlier
  new children (a row hash, then a full compare), and a new one is
  checked (``ga_check_one``) and evaluated (``ga_eval_one``, whose one
  walk over the in-edges also checks the topological order).  The step
  then scores the children, copies the incumbent (a parent row the run
  state names, ``inc_idx``) over the worst child, scores again, applies
  the improvement rule, turns the lookup labels into the next classes
  (their count is the diversity) and writes one history column; each
  new incumbent's rows go to the next row of the incumbent log, which
  grows with the history (a run improves at most once per generation).
  Every row in the block's buffers was checked when the kernel wrote it
  (the initial rows and the children by ``ga_rows_eval``, the elite
  copied from a checked row), so the parents are not checked again.
  For that to hold, ``NativeRun`` copies the caller's initial rows,
  exposes the log read-only, and a generation after 0 before generation
  0 has run is refused.  The engine's Python step stays the reference,
  so this step follows numpy's arithmetic exactly:

  - averages are ``ndarray.mean``: numpy's pairwise summation (plain adds
    below 8 elements, 8 accumulators up to 128, halves above) added to
    0.0, then divided by the count (``np_mean``);
  - ``argmax`` and ``argmin`` take the first NaN, else the first extreme
    (``np_argmax``, ``np_argmin``);
  - Eqn. 8 is ``EpsilonConstraintFitness.scores``: feasible is
    ``M <= bound * (1 + 1e-12)`` (a NaN makespan is not), the minimum
    feasible slack propagates NaN, and an infeasible row scores
    ``base * (bound / M)`` when that minimum is above 0 and
    ``bound / M - 1`` otherwise; the makespan policy scores ``1 / M`` and
    returns 5 for a zero makespan, where Python's division raises;
  - diversity is the distinct rows after elitism over the population
    size.

  ``np_mean``, ``np_argmax`` and ``np_argmin`` are exported so
  ``tests/property/test_native_step.py`` can hold them to numpy.

* **The list scheduler's placement loop** (``list_schedule``): the whole
  loop of ``ComponentScheduler._run`` for every order (``static``,
  ``ready``, ``greedy-eft``, ``greedy-maxeft``), every selection
  (``eft``, ``greedy``, ``oct``, ``pinned``, ``lookahead``) and both
  insertion policies, over the graph's pred/succ CSR, the expected-time
  matrix and the inverse-rate matrix, with per-processor slot rows (start,
  finish, task) in buffers the caller owns.  The rankings stay in numpy.
  The Python loop over ``PartialSchedule`` is the reference, so the kernel
  follows it exactly:

  - an arrival is ``finish[u] + data[e] * inv[pu, p]``, the ready time the
    first strictly later arrival from 0.0, in the in-edge order of the
    graph's CSR;
  - a gap fits when ``start + dur <= slot.start``, and a new slot goes at
    the bisect-left position by start;
  - processor ties go to the lowest index (strict ``<``); the ``greedy``
    selection takes the first minimum, as ``np.argmin`` does;
  - the ``ready`` order is ``heapq``'s own algorithm on ``(-priority,
    id)``; the greedy orders scan the ready tasks by ascending id;
  - the ``lookahead`` key is ``(worst evaluable child finish, own
    finish)``, compared lexicographically with strict ``<``;
  - an unplaced predecessor is return code 1, which the caller raises as
    the Python path's ``ValueError``.

  It keeps no static state: the service's fast-tier threads call it
  concurrently, with the GIL released.
  ``tests/property/test_native_list_schedule.py`` holds it to the Python
  loop on every catalogue entry.

The variation, walk, generation, Monte-Carlo and population kernels
draw from the caller's numpy ``Generator`` and must draw exactly what
numpy would, so every seeded trajectory is unchanged:

* they reach it through the documented ``BitGenerator.ctypes`` interface
  (:func:`bitgen` gives the ``bitgen_t`` address) and draw only with its
  ``next_uint32`` and ``next_double``, so any numpy bit generator works
  and a buffered half of a 64-bit output is consumed as numpy consumes
  it;
* they reproduce numpy's algorithms: ``Generator.random`` is one
  ``next_double``; ``integers(lo, hi)`` is Lemire's method on 32-bit
  draws (no draw for a range of 1; a range of 2**32 or more is an error,
  not a different draw), and ``integers(m, size=k)`` one such draw per
  element; ``uniform(low, high, size=(R, n))`` is ``low + (high - low) *
  next_double`` per element in C order; ``permutation(k)`` is an
  ``arange`` shuffled by swapping ``i`` with a masked-rejection
  ``random_interval(i)`` for ``i = k-1 .. 1``;
* the caller holds ``bit_generator.lock`` for the whole call, as numpy's
  own methods do;
* no kernel keeps static state; scratch belongs to the caller, so the
  service's fast-tier threads may call any of them concurrently;
* errors are return codes the caller raises as ``ValueError``:
  ``ga_next_generation`` gives the first failing row check (1 processor
  out of range, 2 not a permutation), 3 for an empty mutation window
  (not a topological order), or 4 for sizes a 32-bit draw cannot cover;
  ``random_topo_order`` gives 1 on a cycle and 2 for such sizes;
  ``ga_random_rows`` gives 1 on a cycle and 4 for such sizes;
  ``ga_run_steps`` gives 3 or 4 as ``ga_next_generation`` does, the
  smallest code over the rows it evaluates (``ga_check_one``'s 1 or 2,
  ``ga_eval_one``'s 3 for an order that is not topological), 6 for a
  generation after 0 before generation 0 has run, or 5 for a zero
  makespan under the makespan policy (raised as ``ZeroDivisionError``).
  ``mc_makespans`` cannot fail: its caller raises numpy's
  ``OverflowError`` for a non-finite range before calling it.

``rg_random``, ``rg_integers``, ``rg_permutation``, ``rg_integers_fill``
and ``rg_uniform`` export the five draws so
``tests/unit/test_native_draws.py`` can hold them to numpy's on every bit
generator.

The extension is strictly optional and self-contained:

* compiled lazily, at most once per process, with whatever ``cc`` the host
  provides (no build-time or install-time dependency); compilation and
  loading are guarded by a process-wide lock so concurrent first callers
  (e.g. the service's fast-tier thread pool) race neither the filesystem
  nor the module state;
* cached in the system temp directory keyed by a hash of the source and
  the compiler flags, so repeated runs pay nothing;
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
order-independent).  This holds for any transfer rates because every
flag set passes ``-ffp-contract=off``: without it ``-march=native`` lets
the compiler fuse ``(tl + w) + data * inv_rate`` into one fused
multiply-add, which rounds once where numpy rounds twice.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading

__all__ = ["MC_BLOCK", "GaRows", "GaRun", "bitgen", "get_lib"]

#: Realizations per block of ``mc_makespans``, compiled into the kernel;
#: its scratch holds two node-major blocks.
MC_BLOCK = 64

_C_SOURCE = f"#define MC_BLOCK {MC_BLOCK}\n" + r"""
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
 * pos is the position of every task in ord (ga_check_one fills it): the
 * forward pass returns 3 at the first in-edge whose source sits later in
 * ord, before it reads that source's finish time, so a row that is not a
 * topological order is rejected by the walk that would evaluate it.
 * tl/bl/w are scratch rows of length n; cur is a scratch row of length m.
 * Returns 0, or 3 with the outputs undefined.
 */
static int64_t ga_eval_one(
    int64_t n, int64_t m,
    const int64_t *ord, const int64_t *pr, const int64_t *pos,
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
            if (pos[s] >= i)
                return 3;
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
    return 0;
}

/* Validation of one row before it is varied or evaluated.  Returns 0
 * when the row is legal, else the first failing check in this order:
 *   1  a processor index outside [0, m)
 *   2  the scheduling string is not a permutation of 0..n-1
 * Every index read from the row is range-checked before it is used to
 * address memory.  pos (length n) receives every task's position in the
 * string; ga_eval_one reads it for the topological check (code 3).
 */
static int64_t ga_check_one(
    int64_t n, int64_t m,
    const int64_t *ord, const int64_t *pr, int64_t *pos)
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
    return 0;
}

/* Population-wide GA evaluation: decode + forward + backward + slack
 * for every individual in one call.
 *
 * pop      : number of individuals
 * n, m     : tasks, processors
 * orders   : (pop, n) scheduling strings (topological orders)
 * procs    : (pop, n) processor index per task
 * pred_*   : task-graph in-edge CSR (indptr by dst, edge ids, sources)
 * succ_*   : task-graph out-edge CSR (indptr by src, edge ids, dests)
 * edata    : (ne,) per-edge data sizes
 * inv_rates: (m, m) reciprocal transfer rates, zero diagonal
 * dur      : (n, m) duration of task v on processor p
 * ws_f     : (3n,) float scratch
 * ws_i     : (m + n,) int scratch
 * makespans: (pop,) output
 * slacks   : (pop, n) output
 *
 * Every row is checked (ga_check_one) before it is evaluated, and the
 * evaluation (ga_eval_one) rejects an order that is not topological.
 * Returns 0, or the smallest code over all rows (so the reported problem
 * does not depend on which row carries it); the outputs are then
 * undefined.
 */
int64_t ga_population_eval(
    int64_t pop, int64_t n, int64_t m,
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
    for (int64_t p = 0; p < pop; p++) {
        const int64_t *ord = orders + p * n, *pr = procs + p * n;
        int64_t code = ga_check_one(n, m, ord, pr, ws_i + m);
        if (!code)
            code = ga_eval_one(n, m, ord, pr, ws_i + m,
                               pred_indptr, pred_eidx, esrc,
                               succ_indptr, succ_eidx, edst,
                               edata, inv_rates, dur,
                               ws_f, ws_f + n, ws_f + 2 * n, ws_i,
                               makespans + p, slacks + p * n);
        if (code && code < rc)
            rc = code;
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

/* The draws as numpy's Generator makes them, exported for the contract
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

/* Generator.integers(m, size=k): one rg_bounded draw per element, so
 * none for m == 1.  Returns -1 (no draw) unless 1 <= m < 2^32. */
int64_t rg_integers_fill(bitgen_t *bg, int64_t m, int64_t k, int64_t *out)
{
    if (m < 1 || m > (int64_t)UINT32_MAX)
        return -1;
    for (int64_t i = 0; i < k; i++)
        out[i] = rg_bounded(bg, (uint64_t)(m - 1));
    return 0;
}

/* Generator.uniform(low, low + span, size=(r, n)), written node-major:
 * out[v * r + j] is task v's value in realization j.  numpy draws in C
 * order over (r, n), each value low + span * next_double
 * (random_uniform). */
void rg_uniform(bitgen_t *bg, int64_t r, int64_t n,
                const double *low, const double *span, double *out)
{
    for (int64_t j = 0; j < r; j++)
        for (int64_t v = 0; v < n; v++)
            out[v * r + j] = low[v] + span[v] * bg->next_double(bg->state);
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

/* Realized makespans of one schedule under the uniform duration model
 * (realize_durations, then batch_makespans, is the reference).  The r
 * realizations go in blocks of MC_BLOCK: rg_uniform draws a block's
 * durations node-major into the first half of ws, ft_forward runs the
 * forward pass over the schedule's disjunctive graph (topo, the
 * by-destination CSR indptr/eidx, esrc, edge weights ew) into the second
 * half, and a realization's makespan is its largest finish time over the
 * n_sinks >= 1 sinks.  ws holds 2 * MC_BLOCK * n doubles. */
void mc_makespans(int64_t n, int64_t r,
                  const int64_t *topo, const int64_t *indptr,
                  const int64_t *eidx, const int64_t *esrc, const double *ew,
                  const int64_t *sinks, int64_t n_sinks,
                  const double *low, const double *span,
                  bitgen_t *bg, double *ws, double *out)
{
    double *nw = ws, *ft = ws + MC_BLOCK * n;
    for (int64_t b = 0; b < r; b += MC_BLOCK) {
        int64_t nb = r - b < MC_BLOCK ? r - b : MC_BLOCK;
        double *mk = out + b;
        rg_uniform(bg, nb, n, low, span, nw);
        ft_forward(n, nb, topo, indptr, eidx, esrc, ew, nw, ft);
        memcpy(mk, ft + sinks[0] * nb, nb * sizeof(double));
        for (int64_t k = 1; k < n_sinks; k++) {
            const double *f = ft + sinks[k] * nb;
            for (int64_t j = 0; j < nb; j++)
                if (f[j] > mk[j])
                    mk[j] = f[j];
        }
    }
}

/* Whether a population of pop rows over n tasks and m processors fits
 * the draws: n and m at least 1, and pop, n and m below 2^32. */
static int ga_sizes_ok(int64_t pop, int64_t n, int64_t m)
{
    return n >= 1 && m >= 1 && pop <= (int64_t)UINT32_MAX
           && n <= (int64_t)UINT32_MAX && m <= (int64_t)UINT32_MAX;
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
 * The parent rows must be checked (processors in range, a permutation)
 * and the sizes must fit the draws (ga_sizes_ok): a task id read from a
 * row addresses memory.  Each mutation window must be non-empty.  ws is
 * int scratch of length 2*pop + 4*n + 2; its last two entries receive
 * the crossover and mutation counts.  Returns 0, or 3 for an empty
 * mutation window (a parent that is not a topological order).
 *
 * With the parents' classes (cls[j], the lowest index of a parent equal
 * to parent j; NULL for none), origin[i] receives the class of the
 * parent child i still equals: cls[src] for a row copied through or
 * crossed with a row of its own class (whose cuts are drawn, but whose
 * merge and swap would give the parents back, so they are skipped), -1
 * after a crossover of different rows or a mutation.
 */
static int64_t ga_vary(
    int64_t pop, int64_t n, int64_t m,
    double pc, double pm, bitgen_t *bg,
    const double *scores, const int64_t *cls,
    const int64_t *orders, const int64_t *procs,
    int64_t *out_orders, int64_t *out_procs, int64_t *origin,
    const int64_t *pred_indptr, const int64_t *pred_eidx,
    const int64_t *esrc,
    const int64_t *succ_indptr, const int64_t *succ_eidx,
    const int64_t *edst,
    int64_t *ws)
{
    int64_t *selected = ws, *perm = ws + pop, *pos = ws + 2 * pop;
    int64_t *pos_b = pos + n, *row_a = pos + 2 * n, *row_b = pos + 3 * n;
    int64_t *counts = pos + 4 * n;

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
        if (cls)
            origin[i] = cls[src];
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
        if (cls) {
            if (origin[i] == origin[i + 1])
                continue;
            origin[i] = origin[i + 1] = -1;
        }
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
        if (cls)
            origin[i] = -1;
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

/* ga_vary on parent rows from outside the kernel, without classes: every
 * parent row is checked first (ga_check_one; the evaluation of the
 * children checks the topological order), so every task id is in range
 * before it addresses memory.  Returns 0, a ga_check_one code (1 or 2),
 * 3 for an empty mutation window, or 4 when the sizes do not fit the
 * draws (ga_sizes_ok).  Nothing is drawn when a parent row fails. */
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
    if (!ga_sizes_ok(pop, n, m))
        return 4;
    for (int64_t r = 0; r < pop; r++) {
        int64_t code = ga_check_one(n, m, orders + r * n, procs + r * n,
                                    ws + 2 * pop);
        if (code)
            return code;
    }
    return ga_vary(pop, n, m, pc, pm, bg, scores, NULL, orders, procs,
                   out_orders, out_procs, NULL, pred_indptr, pred_eidx, esrc,
                   succ_indptr, succ_eidx, edst, ws);
}

/* numpy's pairwise_sum_DOUBLE over a contiguous row: plain adds below 8
 * elements, 8 accumulators up to 128, halves (cut at a multiple of 8)
 * above. */
static double np_pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return np_pairwise_sum(a, n2) + np_pairwise_sum(a + n2, n - n2);
}

/* ndarray.mean of a contiguous row (n >= 1): the add reduction starts
 * from its identity 0.0, then divides by the count. */
double np_mean(const double *a, int64_t n)
{
    return (0.0 + np_pairwise_sum(a, n)) / (double)n;
}

/* ndarray.argmax and argmin (n >= 1): the first NaN, else the first
 * extreme. */
int64_t np_argmax(const double *a, int64_t n)
{
    int64_t k = 0;
    double best = a[0];
    for (int64_t i = 1; i < n && best == best; i++)
        if (!(a[i] <= best)) {
            best = a[i];
            k = i;
        }
    return k;
}

int64_t np_argmin(const double *a, int64_t n)
{
    int64_t k = 0;
    double best = a[0];
    for (int64_t i = 1; i < n && best == best; i++)
        if (!(a[i] >= best)) {
            best = a[i];
            k = i;
        }
    return k;
}

/* One population buffer of the generation step: rows and per-row
 * makespan, average slack, score, row hash and class, the lowest index
 * of a row equal to the row (between the variation and the class pass,
 * the row's origin, then its label: see ga_rows_eval). */
typedef struct {
    int64_t *orders, *procs;
    double *mk, *sl, *score;
    uint64_t *hash;
    int64_t *cls;
} ga_rows_t;

enum { GA_MAKESPAN = 0, GA_SLACK = 1, GA_EPSILON = 2 };

/* A GA run's state, bound once per run (repro.ga.popeval.NativeRun
 * mirrors the layout).  par holds the current population and kid the
 * next; the step swaps them.  Every row in them was checked when the
 * kernel wrote it, so the variation reads them unchecked.  inc_score is
 * the incumbent's score when it was taken and inc_idx a row of par equal
 * to the incumbent.  gen is the last generation run (-1 before
 * generation 0), n_inc the number of improvements and stagnation the
 * generations since the last one.  hist is (6, hist_len): per generation
 * the incumbent's score, makespan and average slack, the mean score, the
 * diversity and n_inc.  log is the incumbent log, (2, hist_len, n): row
 * k of its first half the scheduling string of the incumbent after k
 * improvements, the same row of its second half the processor map; row
 * n_inc is the incumbent, and n_inc <= gen < hist_len.  table has
 * table_mask + 1 >= 4 * pop slots; ws_f has 4n doubles and ws_i
 * max(m + n, 2 * pop + 4 * n + 2) ints. */
typedef struct {
    int64_t pop, n, m, policy;
    double pc, pm, bound, lim;
    const int64_t *pred_indptr, *pred_eidx, *esrc;
    const int64_t *succ_indptr, *succ_eidx, *edst;
    const double *edata, *inv_rates, *dur;
    ga_rows_t par, kid;
    double inc_score;
    int64_t inc_idx, gen, n_inc, stagnation;
    double *hist;
    int64_t *log;
    int64_t hist_len;
    int64_t *table;
    int64_t table_mask;
    double *ws_f;
    int64_t *ws_i;
} ga_run_t;

/* A row's hash: four independent multiply chains over (task, processor)
 * words, then a final mix.  Equal rows hash equal; ga_table_find
 * compares the rows themselves. */
static uint64_t ga_row_hash(int64_t n, const int64_t *ord, const int64_t *pr)
{
    uint64_t h[4] = {1, 2, 3, 4};
    for (int64_t i = 0; i < n; i++)
        h[i & 3] = (h[i & 3] ^ ((uint64_t)ord[i] << 32 ^ (uint64_t)pr[i]))
                   * 0x9E3779B97F4A7C15ULL;
    uint64_t x = ((h[0] * 31 + h[1]) * 31 + h[2]) * 31 + h[3];
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    return x ^ (x >> 33);
}

/* Look up the row (ord, pr) with hash h among the rows in the table (ids
 * below pop name rows of a, the others rows of b) by hash, then a full
 * compare.  Returns the equal row's id, or inserts id and returns -1. */
static int64_t ga_table_find(ga_run_t *r, const ga_rows_t *a,
                             const ga_rows_t *b, uint64_t h,
                             const int64_t *ord, const int64_t *pr,
                             int64_t id)
{
    int64_t pop = r->pop, n = r->n;
    for (uint64_t s = h & (uint64_t)r->table_mask;;
         s = (s + 1) & (uint64_t)r->table_mask) {
        int64_t k = r->table[s];
        if (k < 0) {
            r->table[s] = id;
            return -1;
        }
        const ga_rows_t *q = k < pop ? a : b;
        int64_t j = k < pop ? k : k - pop;
        if (q->hash[j] == h
            && !memcmp(q->orders + j * n, ord, n * sizeof(int64_t))
            && !memcmp(q->procs + j * n, pr, n * sizeof(int64_t)))
            return k;
    }
}

static void ga_table_clear(ga_run_t *r)
{
    for (int64_t s = 0; s <= r->table_mask; s++)
        r->table[s] = -1;
}

/* Hash, makespan, average slack and label of every row of p, given its
 * parents prev (NULL at generation 0, where p's classes are not read).
 * Equal rows get the same label below 2 pop, the id of the one table
 * entry equal to them: a class representative j of prev (prev->cls[j]
 * == j; every one is in the table) or the first new row i of p, pop + i.
 * A row with an origin (p->cls[i] >= 0, set by ga_vary) takes that
 * representative's hash and metrics and keeps the origin as its label.
 * Every other row is hashed and looked up: a row found takes the found
 * row's metrics and id, and a new row goes into the table, is checked
 * (ga_check_one) and evaluated (ga_eval_one, which rejects an order that
 * is not topological).  Returns 0 or the smallest failing code; the
 * metrics are then undefined. */
static int64_t ga_rows_eval(ga_run_t *r, ga_rows_t *p, const ga_rows_t *prev)
{
    int64_t pop = r->pop, n = r->n, m = r->m;
    int64_t *pos = r->ws_i + m;
    double *slack_row = r->ws_f + 3 * n;
    int64_t rc = 4; /* above every check code */
    ga_table_clear(r);
    for (int64_t j = 0; prev && j < pop; j++)
        if (prev->cls[j] == j)
            ga_table_find(r, prev, p, prev->hash[j], prev->orders + j * n,
                          prev->procs + j * n, j);
    for (int64_t i = 0; i < pop; i++) {
        int64_t k = prev ? p->cls[i] : -1;
        if (k >= 0) {
            p->hash[i] = prev->hash[k];
            p->mk[i] = prev->mk[k];
            p->sl[i] = prev->sl[k];
            continue;
        }
        const int64_t *ord = p->orders + i * n, *pr = p->procs + i * n;
        p->hash[i] = ga_row_hash(n, ord, pr);
        k = ga_table_find(r, prev, p, p->hash[i], ord, pr, pop + i);
        if (k >= 0) {
            const ga_rows_t *q = k < pop ? prev : p;
            int64_t j = k < pop ? k : k - pop;
            p->cls[i] = k;
            p->mk[i] = q->mk[j];
            p->sl[i] = q->sl[j];
            continue;
        }
        p->cls[i] = pop + i;
        int64_t code = ga_check_one(n, m, ord, pr, pos);
        if (!code)
            code = ga_eval_one(n, m, ord, pr, pos, r->pred_indptr,
                               r->pred_eidx, r->esrc, r->succ_indptr,
                               r->succ_eidx, r->edst, r->edata, r->inv_rates,
                               r->dur, r->ws_f, r->ws_f + n, r->ws_f + 2 * n,
                               r->ws_i, p->mk + i, slack_row);
        if (code) {
            if (code < rc)
                rc = code;
            continue;
        }
        p->sl[i] = np_mean(slack_row, n);
    }
    return rc == 4 ? 0 : rc;
}

/* Replace the labels in cls (below 2 pop, equal for equal rows) by the
 * classes: cls[i] becomes the lowest index with row i's label.  Returns
 * the number of distinct rows.  first is int scratch of length 2 pop. */
static int64_t ga_classes(int64_t pop, int64_t *cls, int64_t *first)
{
    int64_t distinct = 0;
    for (int64_t k = 0; k < 2 * pop; k++)
        first[k] = -1;
    for (int64_t i = 0; i < pop; i++) {
        int64_t *f = first + cls[i];
        if (*f < 0) {
            *f = i;
            distinct++;
        }
        cls[i] = *f;
    }
    return distinct;
}

/* The policy's scores of p, as MakespanFitness (1 / M),
 * SlackFitness (average slack) and EpsilonConstraintFitness (Eqn. 8)
 * compute them.  *n_feasible gets the ε policy's feasible count, else -1.
 * Returns 5 for a zero makespan under the makespan policy, where
 * Python's 1.0 / 0.0 raises. */
static int64_t ga_score(const ga_run_t *r, ga_rows_t *p, int64_t *n_feasible)
{
    int64_t pop = r->pop;
    *n_feasible = -1;
    if (r->policy == GA_MAKESPAN) {
        for (int64_t i = 0; i < pop; i++) {
            if (p->mk[i] == 0.0)
                return 5;
            p->score[i] = 1.0 / p->mk[i];
        }
        return 0;
    }
    if (r->policy == GA_SLACK) {
        memcpy(p->score, p->sl, pop * sizeof(double));
        return 0;
    }
    /* Feasible is M <= lim (a NaN makespan is not); the minimum feasible
     * slack propagates NaN, as ndarray.min does. */
    int64_t nf = 0;
    double base = 0.0;
    for (int64_t i = 0; i < pop; i++)
        if (p->mk[i] <= r->lim) {
            if (!nf || p->sl[i] != p->sl[i] || p->sl[i] < base)
                base = p->sl[i];
            nf++;
        }
    *n_feasible = nf;
    int scale = nf && base > 0.0;
    for (int64_t i = 0; i < pop; i++) {
        if (p->mk[i] <= r->lim) {
            p->score[i] = p->sl[i];
        } else {
            double ratio = r->bound / p->mk[i];
            p->score[i] = scale ? base * ratio : ratio - 1.0;
        }
    }
    return 0;
}

static void ga_copy_row(ga_run_t *r, int64_t *ord, int64_t *pr,
                        const int64_t *src_ord, const int64_t *src_pr)
{
    memcpy(ord, src_ord, r->n * sizeof(int64_t));
    memcpy(pr, src_pr, r->n * sizeof(int64_t));
}

/* Make row i of p the incumbent: its rows go to log row n_inc, its score
 * and index to the run. */
static void ga_take(ga_run_t *r, const ga_rows_t *p, int64_t i)
{
    int64_t n = r->n, *ord = r->log + r->n_inc * n;
    ga_copy_row(r, ord, ord + r->hist_len * n, p->orders + i * n,
                p->procs + i * n);
    r->inc_score = p->score[i];
    r->inc_idx = i;
}

/* One generation of GeneticScheduler.run for the paper's operators and
 * policies (the Python step is the reference).  Generation 0 evaluates
 * and scores the initial population in par and takes its best as the
 * incumbent.  Every later generation:
 *
 *   1. selects and varies par into kid (ga_vary: par's rows were
 *      checked when they were written), with each child's origin;
 *   2. evaluates kid (ga_rows_eval, reusing par's metrics);
 *   3. scores kid, copies the incumbent (par's row inc_idx, with its
 *      metrics and label) over the worst row (elitism), scores again;
 *   4. takes the best row as the new incumbent when it beats the old by
 *      the engine's margin, else counts one more generation without
 *      improvement, the incumbent now the elite row;
 *   5. turns the labels into classes (ga_classes), writes history column
 *      g and swaps par and kid.
 *
 * stats gets the improvement flag, the crossover and mutation counts and
 * the feasible count (-1 without a constraint).  Returns 0, a ga_vary,
 * ga_check_one or ga_eval_one code (1-3), 4 when the sizes do not fit
 * the draws, or 5 (ga_score). */
static int64_t ga_run_step(ga_run_t *r, bitgen_t *bg, int64_t g,
                           int64_t *stats)
{
    int64_t pop = r->pop, n = r->n, rc, nf;
    double *hist = r->hist + g;
    int64_t len = r->hist_len;
    ga_rows_t *p = &r->kid;
    stats[0] = stats[1] = stats[2] = 0;
    if (g == 0) {
        p = &r->par;
        r->gen = r->n_inc = -1;
        if ((rc = ga_rows_eval(r, p, NULL)) || (rc = ga_score(r, p, &nf)))
            return rc;
        r->n_inc = r->stagnation = 0;
        ga_take(r, p, np_argmax(p->score, pop));
    } else {
        if (!ga_sizes_ok(pop, n, r->m))
            return 4;
        const ga_rows_t *par = &r->par;
        rc = ga_vary(pop, n, r->m, r->pc, r->pm, bg, par->score, par->cls,
                     par->orders, par->procs, p->orders, p->procs, p->cls,
                     r->pred_indptr, r->pred_eidx, r->esrc, r->succ_indptr,
                     r->succ_eidx, r->edst, r->ws_i);
        if (rc)
            return rc;
        stats[1] = r->ws_i[2 * pop + 4 * n];
        stats[2] = r->ws_i[2 * pop + 4 * n + 1];
        if ((rc = ga_rows_eval(r, p, par)) || (rc = ga_score(r, p, &nf)))
            return rc;
        int64_t worst = np_argmin(p->score, pop), inc = r->inc_idx;
        ga_copy_row(r, p->orders + worst * n, p->procs + worst * n,
                    par->orders + inc * n, par->procs + inc * n);
        p->mk[worst] = par->mk[inc];
        p->sl[worst] = par->sl[inc];
        p->hash[worst] = par->hash[inc];
        p->cls[worst] = par->cls[inc];
        if ((rc = ga_score(r, p, &nf)))
            return rc;
        r->inc_idx = worst;
        int64_t best = np_argmax(p->score, pop);
        double s = p->score[best], b = r->inc_score;
        /* A relative margin above the incumbent, as in the engine. */
        double margin = b >= 0.0 ? 1.0 + 1e-12 : 1.0 - 1e-12;
        if (s > b * margin || (b <= 0.0 && s > b + 1e-15)) {
            r->n_inc++;
            ga_take(r, p, best);
            r->stagnation = 0;
            stats[0] = 1;
        } else {
            r->stagnation++;
        }
    }
    stats[3] = nf;
    /* Diversity: the distinct rows of the population, as a fraction. */
    int64_t distinct = ga_classes(pop, p->cls, r->ws_i);
    hist[0] = r->inc_score;
    hist[len] = p->mk[r->inc_idx];
    hist[2 * len] = p->sl[r->inc_idx];
    hist[3 * len] = np_mean(p->score, pop);
    hist[4 * len] = (double)distinct / (double)pop;
    hist[5 * len] = (double)r->n_inc;
    if (g > 0) {
        ga_rows_t t = r->par;
        r->par = r->kid;
        r->kid = t;
    }
    return 0;
}

/* Generations g .. g_end - 1 of the run, one ga_run_step each, up to the
 * end of the bound history and the log: the loop stops after the
 * generation whose stagnation count reaches limit, or before column
 * hist_len, where the caller grows both and calls again.  gen is then
 * the last generation run and stats holds its counts.  Returns 0, 6 for
 * a negative generation or one after 0 before generation 0 has run
 * (nothing is drawn), or the failing step's code. */
int64_t ga_run_steps(ga_run_t *r, bitgen_t *bg, int64_t g, int64_t g_end,
                     int64_t limit, int64_t *stats)
{
    if (g < 0 || (g > 0 && r->gen < 0))
        return 6;
    for (; g < g_end && g < r->hist_len; g++) {
        int64_t rc = ga_run_step(r, bg, g, stats);
        if (rc)
            return rc;
        r->gen = g;
        if (r->stagnation >= limit)
            break;
    }
    return 0;
}

/* Whether row i of p equals a row already in the table (by hash, then a
 * full compare); if not, row i goes in. */
static int ga_seen(ga_run_t *r, ga_rows_t *p, int64_t i)
{
    const int64_t *ord = p->orders + i * r->n, *pr = p->procs + i * r->n;
    p->hash[i] = ga_row_hash(r->n, ord, pr);
    return ga_table_find(r, NULL, p, p->hash[i], ord, pr, r->pop + i) >= 0;
}

/* Rows k .. pop - 1 of a GA run's (pop, n) initial population (the
 * random_chromosome loop of repro.ga.chromosome.random_rows is the
 * reference).  Each candidate is a random_topo_order walk into the row's
 * scheduling string, then Generator.integers(m, size=n) into its
 * processor map.  While budget lasts, each candidate spends one and is
 * drawn again when it equals an earlier row; after that every candidate
 * is kept.  ws is int scratch of length 2n + 5 pop: the walk's, the row
 * hashes, then a table of at least 2 pop slots.  Returns 0, 1 on a
 * cycle, or 4 (nothing drawn) when the sizes do not fit the draws
 * (ga_sizes_ok). */
int64_t ga_random_rows(int64_t pop, int64_t k, int64_t n, int64_t m,
                       int64_t budget,
                       const int64_t *succ_indptr, const int64_t *succ_eidx,
                       const int64_t *edst,
                       bitgen_t *bg, int64_t *orders, int64_t *procs,
                       int64_t *ws)
{
    if (!ga_sizes_ok(pop, n, m))
        return 4;
    ga_rows_t rows = {.orders = orders, .procs = procs,
                      .hash = (uint64_t *)(ws + 2 * n)};
    ga_run_t r = {.pop = pop, .n = n, .table = ws + 2 * n + pop,
                  .table_mask = 1};
    while (r.table_mask + 1 < 2 * pop)
        r.table_mask = 2 * r.table_mask + 1;
    ga_table_clear(&r);
    for (int64_t i = 0; i < k && budget > 0; i++)
        ga_seen(&r, &rows, i);
    for (int64_t i = k; i < pop; i++) {
        do {
            if (random_topo_order(n, succ_indptr, succ_eidx, edst, bg,
                                  orders + i * n, ws))
                return 1;
            rg_integers_fill(bg, m, n, procs + i * n); /* m fits: checked */
        } while (budget-- > 0 && ga_seen(&r, &rows, i));
    }
    return 0;
}

/* The list scheduler's placement loop (ComponentScheduler._run; the
 * Python loop over PartialSchedule is the reference).  ls_t is one call's
 * state, on the caller's stack; its slot rows live in caller-owned
 * buffers. */
enum { LS_STATIC = 0, LS_READY = 1, LS_GREEDY_EFT = 2, LS_GREEDY_MAXEFT = 3 };
enum { LS_EFT = 0, LS_GREEDY = 1, LS_OCT = 2, LS_PINNED = 3, LS_LOOKAHEAD = 4 };

typedef struct {
    int64_t n, m, append, selection, cp_proc;
    const int64_t *pred_indptr, *pred_eidx, *esrc;
    const int64_t *succ_indptr, *succ_eidx, *edst;
    const double *edata, *inv_rates, *et, *oct;
    const int64_t *pinned;
    double *start, *fin;   /* (m, n) slot rows, sorted by start */
    int64_t *task, *count; /* (m, n) slot tasks, (m,) row lengths */
    double *finish;        /* (n,) finish time of each placed task */
    int64_t *proc_of;      /* (n,) processor of each task, -1 unplaced */
} ls_t;

/* PartialSchedule.eft: v's earliest (start, fin) on p.  The ready time is
 * the latest arrival finish[u] + data * inv_rate over v's in-edges, from
 * 0.0; the start is the first gap with start + dur <= slot start
 * (insertion), else after the row's last finish.  Returns v's first
 * unplaced predecessor, else -1. */
static int64_t ls_eft(const ls_t *s, int64_t v, int64_t p,
                      double *start, double *fin)
{
    int64_t m = s->m, cnt = s->count[p];
    double ready = 0.0;
    for (int64_t k = s->pred_indptr[v]; k < s->pred_indptr[v + 1]; k++) {
        int64_t e = s->pred_eidx[k], u = s->esrc[e];
        if (s->proc_of[u] < 0)
            return u;
        double arrival = s->finish[u]
                         + s->edata[e] * s->inv_rates[s->proc_of[u] * m + p];
        if (arrival > ready)
            ready = arrival;
    }
    double dur = s->et[v * m + p], prev = 0.0;
    const double *st = s->start + p * s->n, *fn = s->fin + p * s->n;
    if (s->append) {
        if (cnt)
            prev = fn[cnt - 1];
    } else {
        for (int64_t i = 0; i < cnt; i++) {
            double t = prev > ready ? prev : ready;
            if (t + dur <= st[i]) {
                *start = t;
                *fin = t + dur;
                return -1;
            }
            prev = fn[i];
        }
    }
    *start = prev > ready ? prev : ready;
    *fin = *start + dur;
    return -1;
}

/* PartialSchedule.best_processor: the first processor of least finish. */
static int64_t ls_best(const ls_t *s, int64_t v, int64_t *proc,
                       double *start, double *fin)
{
    for (int64_t p = 0; p < s->m; p++) {
        double st = 0.0, f = 0.0;
        int64_t u = ls_eft(s, v, p, &st, &f);
        if (u >= 0)
            return u;
        if (p == 0 || f < *fin) {
            *proc = p;
            *start = st;
            *fin = f;
        }
    }
    return -1;
}

/* PartialSchedule.place: the slot goes at the bisect-left position by
 * start.  Each row holds at most n slots. */
static void ls_place(ls_t *s, int64_t v, int64_t p, double start, double fin)
{
    int64_t n = s->n, cnt = s->count[p], lo = 0, hi = cnt;
    double *st = s->start + p * n, *fn = s->fin + p * n;
    int64_t *tk = s->task + p * n;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (st[mid] < start)
            lo = mid + 1;
        else
            hi = mid;
    }
    memmove(st + lo + 1, st + lo, (cnt - lo) * sizeof(double));
    memmove(fn + lo + 1, fn + lo, (cnt - lo) * sizeof(double));
    memmove(tk + lo + 1, tk + lo, (cnt - lo) * sizeof(int64_t));
    st[lo] = start;
    fn[lo] = fin;
    tk[lo] = v;
    s->count[p] = cnt + 1;
    s->finish[v] = fin;
    s->proc_of[v] = p;
}

/* PartialSchedule.unplace, the exact inverse of ls_place. */
static void ls_unplace(ls_t *s, int64_t v)
{
    int64_t n = s->n, p = s->proc_of[v], cnt = s->count[p], i = 0;
    double *st = s->start + p * n, *fn = s->fin + p * n;
    int64_t *tk = s->task + p * n;
    while (tk[i] != v)
        i++;
    memmove(st + i, st + i + 1, (cnt - i - 1) * sizeof(double));
    memmove(fn + i, fn + i + 1, (cnt - i - 1) * sizeof(double));
    memmove(tk + i, tk + i + 1, (cnt - i - 1) * sizeof(int64_t));
    s->count[p] = cnt - 1;
    s->proc_of[v] = -1;
}

/* _select_lookahead: place v on each processor in turn, take the worst
 * best finish over the children whose predecessors are then all placed
 * (v's own finish when there is none), and keep the first processor of
 * least (worst, own finish) key. */
static int64_t ls_lookahead(ls_t *s, int64_t v, int64_t *proc,
                            double *start, double *fin)
{
    double best = 0.0;
    for (int64_t p = 0; p < s->m; p++) {
        double st, f, worst = 0.0;
        int64_t u = ls_eft(s, v, p, &st, &f), have = 0;
        if (u >= 0)
            return u;
        ls_place(s, v, p, st, f);
        for (int64_t k = s->succ_indptr[v]; k < s->succ_indptr[v + 1]; k++) {
            int64_t w = s->edst[s->succ_eidx[k]], ready = 1, cp;
            for (int64_t j = s->pred_indptr[w];
                 ready && j < s->pred_indptr[w + 1]; j++)
                ready = s->proc_of[s->esrc[s->pred_eidx[j]]] >= 0;
            if (!ready)
                continue;
            double cs, cf = 0.0;
            ls_best(s, w, &cp, &cs, &cf);
            if (!have || cf > worst)
                worst = cf;
            have = 1;
        }
        ls_unplace(s, v);
        double key = have ? worst : f;
        if (p == 0 || key < best || (key == best && f < *fin)) {
            best = key;
            *proc = p;
            *start = st;
            *fin = f;
        }
    }
    return -1;
}

/* The selection axis (the _select_* functions): v's processor and its
 * (start, fin) there.  Returns v's first unplaced predecessor, else -1. */
static int64_t ls_select(ls_t *s, int64_t v, int64_t *proc,
                         double *start, double *fin)
{
    int64_t m = s->m;
    if (s->selection == LS_GREEDY) {
        *proc = np_argmin(s->et + v * m, m);
        return ls_eft(s, v, *proc, start, fin);
    }
    if (s->selection == LS_OCT) {
        double best = 0.0;
        for (int64_t p = 0; p < m; p++) {
            double st, f;
            int64_t u = ls_eft(s, v, p, &st, &f);
            if (u >= 0)
                return u;
            double score = f + s->oct[v * m + p];
            if (p == 0 || score < best) {
                best = score;
                *proc = p;
                *start = st;
                *fin = f;
            }
        }
        return -1;
    }
    if (s->selection == LS_PINNED && s->pinned[v]) {
        *proc = s->cp_proc;
        return ls_eft(s, v, s->cp_proc, start, fin);
    }
    if (s->selection == LS_LOOKAHEAD)
        return ls_lookahead(s, v, proc, start, fin);
    return ls_best(s, v, proc, start, fin);
}

/* heapq's order on (key, id) entries, key = -priority. */
static int ls_heap_lt(double ka, int64_t ia, double kb, int64_t ib)
{
    return ka == kb ? ia < ib : ka < kb;
}

/* heapq._siftdown and heapq._siftup over parallel key and id arrays. */
static void ls_siftdown(double *key, int64_t *id, int64_t start, int64_t pos)
{
    double nk = key[pos];
    int64_t ni = id[pos];
    while (pos > start) {
        int64_t parent = (pos - 1) >> 1;
        if (!ls_heap_lt(nk, ni, key[parent], id[parent]))
            break;
        key[pos] = key[parent];
        id[pos] = id[parent];
        pos = parent;
    }
    key[pos] = nk;
    id[pos] = ni;
}

static void ls_siftup(double *key, int64_t *id, int64_t len, int64_t pos)
{
    int64_t start = pos, child = 2 * pos + 1;
    double nk = key[pos];
    int64_t ni = id[pos];
    while (child < len) {
        if (child + 1 < len
            && !ls_heap_lt(key[child], id[child], key[child + 1],
                           id[child + 1]))
            child++;
        key[pos] = key[child];
        id[pos] = id[child];
        pos = child;
        child = 2 * pos + 1;
    }
    key[pos] = nk;
    id[pos] = ni;
    ls_siftdown(key, id, start, pos);
}

/* One list schedule: order_kind and selection take the LS_ codes above,
 * append selects append-only slots.  The graph is the pred/succ CSR (as
 * in ga_population_eval), et the (n, m) expected times, order the static
 * order, prio the ready order's priorities, oct_table the (n, m) OCT
 * table and pinned a 0/1 mask of the critical path for cp_proc; inputs
 * the mode does not read may be NULL.  ws_f holds 2mn + 2n doubles and
 * ws_i mn + m + 3n + 2 ints; on return ws_i starts with the (m, n) slot
 * tasks and the m row lengths.  Returns 0; 1 when a task's predecessor
 * is not placed (ws_i's last two entries get the task and the
 * predecessor); 2 when the order leaves a task unplaced (a cycle); 3 when
 * a static-order entry is out of range or repeated (the second to last
 * entry gets it). */
int64_t list_schedule(
    int64_t n, int64_t m, int64_t order_kind, int64_t selection,
    int64_t append, int64_t cp_proc,
    const int64_t *pred_indptr, const int64_t *pred_eidx,
    const int64_t *esrc,
    const int64_t *succ_indptr, const int64_t *succ_eidx,
    const int64_t *edst,
    const double *edata, const double *inv_rates, const double *et,
    const int64_t *order, const double *prio, const double *oct_table,
    const int64_t *pinned, double *ws_f, int64_t *ws_i)
{
    ls_t s = {.n = n, .m = m, .append = append, .selection = selection,
              .cp_proc = cp_proc, .pred_indptr = pred_indptr,
              .pred_eidx = pred_eidx, .esrc = esrc,
              .succ_indptr = succ_indptr, .succ_eidx = succ_eidx,
              .edst = edst, .edata = edata, .inv_rates = inv_rates,
              .et = et, .oct = oct_table, .pinned = pinned,
              .start = ws_f, .fin = ws_f + m * n, .finish = ws_f + 2 * m * n,
              .task = ws_i, .count = ws_i + m * n,
              .proc_of = ws_i + m * n + m};
    double *hkey = s.finish + n, st, f;
    int64_t *indeg = s.proc_of + n, *list = indeg + n, *err = list + n;
    int64_t len = 0, proc, u;
    for (int64_t p = 0; p < m; p++)
        s.count[p] = 0;
    for (int64_t v = 0; v < n; v++) {
        s.proc_of[v] = -1;
        indeg[v] = pred_indptr[v + 1] - pred_indptr[v];
    }

    if (order_kind == LS_STATIC) {
        for (int64_t i = 0; i < n; i++) {
            int64_t v = order[i];
            if (v < 0 || v >= n || s.proc_of[v] >= 0) {
                err[0] = v;
                return 3;
            }
            if ((u = ls_select(&s, v, &proc, &st, &f)) >= 0) {
                err[0] = v;
                err[1] = u;
                return 1;
            }
            ls_place(&s, v, proc, st, f);
        }
        return 0;
    }

    if (order_kind == LS_READY) {
        /* heapq over (-priority, id): heapify the entry tasks, then pop
         * and push as the Python loop does. */
        int64_t placed = 0;
        for (int64_t v = 0; v < n; v++)
            if (!indeg[v]) {
                hkey[len] = -prio[v];
                list[len++] = v;
            }
        for (int64_t i = len / 2 - 1; i >= 0; i--)
            ls_siftup(hkey, list, len, i);
        while (len) {
            int64_t v = list[0];
            if (--len) {
                hkey[0] = hkey[len];
                list[0] = list[len];
                ls_siftup(hkey, list, len, 0);
            }
            if ((u = ls_select(&s, v, &proc, &st, &f)) >= 0) {
                err[0] = v;
                err[1] = u;
                return 1;
            }
            ls_place(&s, v, proc, st, f);
            placed++;
            for (int64_t k = succ_indptr[v]; k < succ_indptr[v + 1]; k++) {
                int64_t w = edst[succ_eidx[k]];
                if (!--indeg[w]) {
                    hkey[len] = -prio[w];
                    list[len] = w;
                    ls_siftdown(hkey, list, 0, len++);
                }
            }
        }
        return placed == n ? 0 : 2;
    }

    /* The greedy orders: scan the ready tasks by ascending id (list stays
     * sorted) and commit the first of least (or greatest) finish. */
    int maximize = order_kind == LS_GREEDY_MAXEFT;
    for (int64_t v = 0; v < n; v++)
        if (!indeg[v])
            list[len++] = v;
    for (int64_t step = 0; step < n; step++) {
        int64_t bi = 0, bp = 0;
        double bs = 0.0, bf = 0.0;
        if (!len)
            return 2;
        for (int64_t i = 0; i < len; i++) {
            if ((u = ls_select(&s, list[i], &proc, &st, &f)) >= 0) {
                err[0] = list[i];
                err[1] = u;
                return 1;
            }
            if (i == 0 || (maximize ? f > bf : f < bf)) {
                bi = i;
                bp = proc;
                bs = st;
                bf = f;
            }
        }
        int64_t v = list[bi];
        ls_place(&s, v, bp, bs, bf);
        len--;
        memmove(list + bi, list + bi + 1, (len - bi) * sizeof(int64_t));
        for (int64_t k = succ_indptr[v]; k < succ_indptr[v + 1]; k++) {
            int64_t w = edst[succ_eidx[k]], j = len;
            if (--indeg[w])
                continue;
            for (; j > 0 && list[j - 1] > w; j--)
                list[j] = list[j - 1];
            list[j] = w;
            len++;
        }
    }
    return 0;
}
"""

_lib: ctypes.CDLL | None = None
_tried = False
_lock = threading.Lock()

#: Compiler flag sets, most capable first.  Every set forbids contracting
#: a multiply and an add into an FMA, which rounds once where the numpy
#: reference rounds twice.
_FLAG_SETS = tuple(
    [*flags, "-ffp-contract=off"]
    for flags in (
        ["-O3", "-march=native"],
        ["-O3"],
        ["-O2"],
    )
)


class GaRows(ctypes.Structure):
    """``ga_rows_t``: one population buffer of the generation step."""

    _fields_ = [
        (name, ctypes.c_void_p)
        for name in ("orders", "procs", "mk", "sl", "score", "hash", "cls")
    ]


class GaRun(ctypes.Structure):
    """``ga_run_t``: one GA run's state block for ``ga_run_steps``."""

    _fields_ = [
        *[(name, ctypes.c_int64) for name in ("pop", "n", "m", "policy")],
        *[(name, ctypes.c_double) for name in ("pc", "pm", "bound", "lim")],
        *[
            (name, ctypes.c_void_p)
            for name in (
                "pred_indptr",
                "pred_eidx",
                "esrc",
                "succ_indptr",
                "succ_eidx",
                "edst",
                "edata",
                "inv_rates",
                "dur",
            )
        ],
        ("par", GaRows),
        ("kid", GaRows),
        ("inc_score", ctypes.c_double),
        *[
            (name, ctypes.c_int64)
            for name in ("inc_idx", "gen", "n_inc", "stagnation")
        ],
        ("hist", ctypes.c_void_p),
        ("log", ctypes.c_void_p),
        ("hist_len", ctypes.c_int64),
        ("table", ctypes.c_void_p),
        ("table_mask", ctypes.c_int64),
        ("ws_f", ctypes.c_void_p),
        ("ws_i", ctypes.c_void_p),
    ]


def _compile(so_path: str, c_path: str) -> bool:
    """Try progressively more conservative flag sets; True on success.

    ``-march=native`` comes first and is dropped when the toolchain
    rejects it.  The temp object is pid-unique and moved into place
    atomically, so concurrent *processes* sharing the cache directory
    cannot observe a torn file.
    """
    tmp = f"{so_path}.{os.getpid()}.tmp"
    for flags in _FLAG_SETS:
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
    digest = hashlib.sha256(
        (_C_SOURCE + repr(_FLAG_SETS)).encode()
    ).hexdigest()[:16]
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
    lib.ga_population_eval.restype = ctypes.c_int64
    lib.ga_population_eval.argtypes = [ctypes.c_int64] * 3 + [
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
    lib.rg_integers_fill.restype = ctypes.c_int64
    lib.rg_integers_fill.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p
    ]
    lib.rg_uniform.restype = None
    lib.rg_uniform.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64] + [
        ctypes.c_void_p
    ] * 3
    lib.random_topo_order.restype = ctypes.c_int64
    lib.random_topo_order.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 6
    lib.mc_makespans.restype = None
    lib.mc_makespans.argtypes = (
        [ctypes.c_int64] * 2
        + [ctypes.c_void_p] * 6
        + [ctypes.c_int64]
        + [ctypes.c_void_p] * 5
    )
    lib.ga_random_rows.restype = ctypes.c_int64
    lib.ga_random_rows.argtypes = [ctypes.c_int64] * 5 + [ctypes.c_void_p] * 7
    lib.ga_next_generation.restype = ctypes.c_int64
    lib.ga_next_generation.argtypes = (
        [ctypes.c_int64] * 3 + [ctypes.c_double] * 2 + [ctypes.c_void_p] * 13
    )
    lib.np_mean.restype = ctypes.c_double
    lib.np_mean.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    for name in ("np_argmax", "np_argmin"):
        getattr(lib, name).restype = ctypes.c_int64
        getattr(lib, name).argtypes = [ctypes.c_void_p, ctypes.c_int64]
    lib.ga_run_steps.restype = ctypes.c_int64
    lib.ga_run_steps.argtypes = [ctypes.c_void_p, ctypes.c_void_p] + [
        ctypes.c_int64
    ] * 3 + [ctypes.c_void_p]
    lib.list_schedule.restype = ctypes.c_int64
    lib.list_schedule.argtypes = [ctypes.c_int64] * 6 + [ctypes.c_void_p] * 15
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
    """Always ``False``: the kernels are built without OpenMP.

    Only ``perfbench/run.py``'s ``env.openmp`` row reads this; it goes
    when a benchmark change drops that row.
    """
    return False


def bitgen(gen) -> int:
    """Address of the ``bitgen_t`` behind a ``numpy.random.Generator``.

    Hold ``gen.bit_generator.lock`` while a kernel draws through it.
    """
    return gen.bit_generator.ctypes.bit_generator.value
