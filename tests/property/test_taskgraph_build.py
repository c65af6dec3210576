"""The array-pass ``TaskGraph`` build against the per-edge constructor.

The original constructor is kept here as :func:`reference_build`: a list
of int tuples, two ``fromiter`` arrays, a set of tuples for the duplicate
check, two stable-argsort CSRs and a Kahn sort that reads the edge arrays
as numpy scalars.  On valid inputs the graph must hold the same arrays
(values, dtype, read-only flag): edges, data, CSR, topological order,
entries and exits.  On invalid inputs it must raise the same exception
type, with the same message for every error the constructor raises
itself.

Node ids are relabelled by a random permutation: the ``task_graphs``
strategy draws only ``u < v`` pairs, whose order is the identity, so
without it the heap would never decide anything.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.analysis import ArrayDag
from repro.graph.taskgraph import TaskGraph

#: The arrays a build leaves on the graph, by attribute name.
ARRAYS = (
    "edge_src",
    "edge_dst",
    "edge_data",
    "_succ_indptr",
    "_succ_eidx",
    "_pred_indptr",
    "_pred_eidx",
    "_topo",
    "_entry",
    "_exit",
)

#: The ways a caller hands over its edges: each makes a fresh iterable.
FORMS = {
    "tuples": lambda edges: [tuple(e) for e in edges],
    "json": lambda edges: [list(e) for e in edges],
    "generator": lambda edges: (tuple(e) for e in edges),
    "zip": lambda edges: zip([e[0] for e in edges], [e[1] for e in edges]),
    "array": lambda edges: np.array(edges, dtype=np.int64).reshape(-1, 2),
}


def _csr_reference(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    return indptr, np.argsort(keys, kind="stable").astype(np.int64, copy=False)


def _kahn_reference(
    n: int, edge_dst: np.ndarray, indptr: np.ndarray, eidx: np.ndarray
) -> np.ndarray:
    indeg = np.bincount(edge_dst, minlength=n).astype(np.int64)
    ready = [int(v) for v in np.flatnonzero(indeg == 0)]
    heapq.heapify(ready)
    order = np.empty(n, dtype=np.int64)
    k = 0
    while ready:
        v = heapq.heappop(ready)
        order[k] = v
        k += 1
        for e in eidx[indptr[v] : indptr[v + 1]]:
            w = int(edge_dst[e])
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if k != n:
        raise ValueError("task graph contains a cycle")
    return order


def reference_build(n, edges=(), data_sizes=None) -> dict[str, np.ndarray]:
    """The original ``TaskGraph.__init__``, returning its arrays by name."""
    if n <= 0:
        raise ValueError(f"task graph needs at least one task, got n={n}")
    edge_list = [(int(u), int(v)) for u, v in edges]
    m = len(edge_list)
    src = np.fromiter((u for u, _ in edge_list), dtype=np.int64, count=m)
    dst = np.fromiter((v for _, v in edge_list), dtype=np.int64, count=m)
    if m and (src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n):
        raise ValueError("edge endpoint out of range")
    if np.any(src == dst):
        raise ValueError("self-loops are not allowed in a task graph")
    if len({*edge_list}) != m:
        raise ValueError("duplicate edges are not allowed")
    if data_sizes is None:
        data = np.zeros(m, dtype=np.float64)
    else:
        data = np.asarray(list(data_sizes), dtype=np.float64)
        if data.shape != (m,):
            raise ValueError(
                f"data_sizes must have one entry per edge ({m}), got {data.shape}"
            )
        if np.any(~np.isfinite(data)) or np.any(data < 0):
            raise ValueError("data sizes must be finite and non-negative")

    order = np.lexsort((dst, src))
    out = {"edge_src": src[order], "edge_dst": dst[order], "edge_data": data[order]}
    out["_succ_indptr"], out["_succ_eidx"] = _csr_reference(n, out["edge_src"])
    out["_pred_indptr"], out["_pred_eidx"] = _csr_reference(n, out["edge_dst"])
    out["_topo"] = _kahn_reference(
        n, out["edge_dst"], out["_succ_indptr"], out["_succ_eidx"]
    )
    out["_entry"] = np.flatnonzero(np.bincount(out["edge_dst"], minlength=n) == 0)
    out["_exit"] = np.flatnonzero(np.bincount(out["edge_src"], minlength=n) == 0)
    for arr in out.values():
        arr.setflags(write=False)
    return out


@st.composite
def relabelled_graphs(draw, max_n: int = 12):
    """``(n, edges, data_sizes)`` of a DAG whose ids are randomly permuted."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    if pairs:
        edges = draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=min(len(pairs), 30))
        )
    perm = draw(st.permutations(range(n)))
    edges = [(perm[u], perm[v]) for u, v in edges]
    data = draw(
        st.none()
        | st.lists(
            st.floats(0.0, 10.0), min_size=len(edges), max_size=len(edges)
        )
    )
    return n, edges, data


@st.composite
def broken_inputs(draw):
    """``(kind, n, edges, data_sizes)`` with exactly one defect of *kind*."""
    n, edges, data = draw(relabelled_graphs(max_n=8).filter(lambda g: g[0] >= 3))
    kinds = ["n", "range", "self-loop", "3-cycle", "wide", "narrow", "not-int"]
    kinds += ["duplicate", "2-cycle", "misaligned", "negative", "nan"] if edges else []
    kind = draw(st.sampled_from(kinds))
    edges = [list(e) for e in edges]
    at = draw(st.integers(0, len(edges)))  # where a new pair goes
    if kind == "n":
        n = draw(st.integers(-2, 0))
    elif kind == "range":
        bad = draw(st.sampled_from([-1, n, n + 5]))
        edges.insert(at, draw(st.sampled_from([[0, bad], [bad, 1]])))
    elif kind == "self-loop":
        v = draw(st.integers(0, n - 1))
        edges.insert(at, [v, v])
    elif kind == "duplicate":
        edges.insert(at, list(draw(st.sampled_from(edges))))
    elif kind == "2-cycle":
        u, v = draw(st.sampled_from(edges))
        edges.insert(at, [v, u])
    elif kind == "3-cycle":
        a, b, c = draw(st.permutations(range(n)))[:3]
        cycle = [[a, b], [b, c], [c, a]]
        edges = [e for e in edges if e not in cycle] + cycle
    elif kind == "wide":
        edges.insert(at, [0, 1, 2])
    elif kind == "narrow":
        edges.insert(at, [1])
    elif kind == "not-int":
        edges.insert(at, [0, None])
    elif kind == "misaligned":
        data = list(data or [1.0] * len(edges))
        if draw(st.booleans()):
            data.append(1.0)
        else:
            data.pop()
        return kind, n, edges, data
    else:
        data = list(data or [1.0] * len(edges))
        data[draw(st.integers(0, len(data) - 1))] = -1.0 if kind == "negative" else np.nan
        return kind, n, edges, data
    if data is not None:  # keep one data size per pair
        data = (list(data) + [1.0] * len(edges))[: len(edges)]
    return kind, n, edges, data


def assert_same_build(graph: TaskGraph, expect: dict[str, np.ndarray]) -> None:
    for name in ARRAYS:
        got, want = getattr(graph, name), expect[name]
        assert got.dtype == want.dtype, name
        assert got.flags.writeable == want.flags.writeable, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    np.testing.assert_array_equal(graph.topological, expect["_topo"])
    np.testing.assert_array_equal(graph.entry_nodes, expect["_entry"])
    np.testing.assert_array_equal(graph.exit_nodes, expect["_exit"])


@settings(max_examples=300, deadline=None)
@given(graph=relabelled_graphs(), form=st.sampled_from(sorted(FORMS)))
def test_valid_build_matches_reference(graph, form):
    n, edges, data = graph
    expect = reference_build(n, FORMS[form](edges), data)
    assert_same_build(TaskGraph(n, FORMS[form](edges), data), expect)


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("n", [1, 2, 7])
def test_edgeless_build_matches_reference(n, form):
    expect = reference_build(n, FORMS[form]([]), [])
    assert_same_build(TaskGraph(n, FORMS[form]([]), []), expect)
    assert_same_build(TaskGraph(n), reference_build(n))


def _raised(build, *args) -> Exception:
    with pytest.raises(Exception) as info:
        build(*args)
    return info.value


@settings(max_examples=400, deadline=None)
@given(case=broken_inputs(), form=st.sampled_from(["tuples", "json", "generator"]))
def test_invalid_build_raises_like_reference(case, form):
    kind, n, edges, data = case
    expect = _raised(reference_build, n, FORMS[form](edges), data)
    got = _raised(TaskGraph, n, FORMS[form](edges), data)
    assert type(got) is type(expect), (kind, got, expect)
    if kind not in ("wide", "narrow", "not-int"):  # raised by TaskGraph itself
        assert str(got) == str(expect), kind


@settings(max_examples=100, deadline=None)
@given(graph=relabelled_graphs())
def test_invalid_zip_and_array_edges_raise_like_reference(graph):
    """A cycle through the two forms that carry no pair structure of
    their own."""
    n, edges, _ = graph
    if not edges:
        return
    u, v = edges[0]
    edges = edges + [(v, u)]
    for form in ("zip", "array"):
        expect = _raised(reference_build, n, FORMS[form](edges))
        got = _raised(TaskGraph, n, FORMS[form](edges))
        assert type(got) is type(expect) and str(got) == str(expect)


@settings(max_examples=150, deadline=None)
@given(graph=relabelled_graphs())
def test_from_taskgraph_adopts_the_heap_order(graph):
    """The adopted order is the one an untrusted build peels and sorts."""
    n, edges, data = graph
    tg = TaskGraph(n, edges, data)
    adopted = ArrayDag.from_taskgraph(tg)
    built = ArrayDag.build(n, tg.edge_src, tg.edge_dst)
    np.testing.assert_array_equal(adopted.topo, built.topo)
    np.testing.assert_array_equal(adopted.level, built.level)
    assert adopted.depth == built.depth
