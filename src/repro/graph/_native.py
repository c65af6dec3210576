"""Optional C acceleration for the batched longest-path and GA kernels.

Two hot loops live here:

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

__all__ = ["get_lib", "has_openmp"]

_C_SOURCE = r"""
#include <stdint.h>

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
 *   3  the scheduling string is not a topological order
 * Every index read from the row is range-checked before it is used to
 * address memory.  pos is a scratch row of length n.
 */
static int64_t ga_check_one(
    int64_t n, int64_t m,
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
            int64_t code = ga_check_one(n, m, orders + p * n, procs + p * n,
                                        pred_indptr, pred_eidx, esrc,
                                        cur + m);
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
