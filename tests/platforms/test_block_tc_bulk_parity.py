"""Scalar-vs-bulk parity of the block-centric TC hot loop.

The vectorized pass (:func:`tc_blocks_bulk`) promises *bit-identical*
metering to the scalar pass — the same per-round ops, message counts,
and message bytes, and the exact triangle total — because every charged
quantity is integer-valued, so aggregation order cannot change float64
sums.  These tests diff whole Grape runs between the two paths and pin
the forward-edge flat view against the list-of-arrays form it mirrors.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import Graph, path_graph, random_graph, star_graph
from repro.platforms import get_platform
from repro.cluster import single_machine
from repro.platforms.kernels import forward_adjacency, forward_edge_arrays


def _clustered_graph() -> Graph:
    """Many triangles spread across blocks: dense 12-cliques chained by
    bridge edges, so intersections are non-trivial and pulls cross
    block boundaries."""
    rng = np.random.default_rng(11)
    src, dst = [], []
    for c in range(5):
        base = c * 12
        for i in range(12):
            for j in range(i + 1, 12):
                if rng.random() < 0.7:
                    src.append(base + i)
                    dst.append(base + j)
        if c:
            src.append(base - 1)
            dst.append(base)
    return Graph.from_edges(src, dst, num_vertices=60, directed=False)


RANDOM = random_graph(200, 900, seed=13)
CLUSTERED = _clustered_graph()
TRIANGLE_FREE = path_graph(40)
STAR = star_graph(9)


def _assert_traces_identical(a, b):
    assert a.supersteps == b.supersteps
    for step_a, step_b in zip(a.steps, b.steps):
        assert np.array_equal(step_a.ops, step_b.ops)
        assert np.array_equal(step_a.msg_count, step_b.msg_count)
        assert np.array_equal(step_a.msg_bytes, step_b.msg_bytes)


def _run_both(graph):
    platform = get_platform("Grape")
    cluster = single_machine()
    scalar = platform.run("tc", graph, cluster, engine_mode="scalar")
    bulk = platform.run("tc", graph, cluster, engine_mode="bulk")
    return scalar, bulk


class TestBlockTCParity:
    """Whole-platform Grape TC runs diffed between the two paths."""

    @pytest.mark.parametrize(
        "graph",
        [RANDOM, CLUSTERED, TRIANGLE_FREE, STAR],
        ids=["random", "clustered", "triangle-free", "star"],
    )
    def test_trace_and_count_identical(self, graph):
        scalar, bulk = _run_both(graph)
        assert scalar.values == bulk.values
        _assert_traces_identical(scalar.trace, bulk.trace)

    def test_auto_mode_matches_bulk_and_scalar(self):
        platform = get_platform("Grape")
        auto = platform.run("tc", RANDOM, single_machine())
        scalar, bulk = _run_both(RANDOM)
        assert auto.values == scalar.values == bulk.values
        _assert_traces_identical(auto.trace, bulk.trace)

    def test_empty_graph(self):
        empty = Graph.from_edges([], [], num_vertices=8, directed=False)
        scalar, bulk = _run_both(empty)
        assert scalar.values == bulk.values == 0
        _assert_traces_identical(scalar.trace, bulk.trace)

    def test_engine_span_carries_path(self):
        platform = get_platform("Grape")
        with obs.tracing() as tracer:
            platform.run("tc", RANDOM, single_machine(), engine_mode="bulk")
        (engine_span,) = [s for s in tracer.spans if s.category == "engine"]
        assert engine_span.attrs.get("path") == "bulk"
        with obs.tracing() as tracer:
            platform.run("tc", RANDOM, single_machine(), engine_mode="scalar")
        (engine_span,) = [s for s in tracer.spans if s.category == "engine"]
        assert engine_span.attrs.get("path") == "scalar"


class TestForwardEdgeArrays:
    """The flat CSR forward view mirrors the list-of-arrays form."""

    @pytest.mark.parametrize(
        "graph",
        [RANDOM, CLUSTERED, TRIANGLE_FREE, STAR],
        ids=["random", "clustered", "triangle-free", "star"],
    )
    def test_matches_forward_adjacency(self, graph):
        indptr, src, dst = forward_edge_arrays(graph)
        lists = forward_adjacency(graph)
        assert indptr.shape[0] == graph.num_vertices + 1
        for v, fv in enumerate(lists):
            seg = dst[indptr[v]:indptr[v + 1]]
            assert np.array_equal(seg, fv)
            assert (src[indptr[v]:indptr[v + 1]] == v).all()

    def test_keys_are_sorted(self):
        _, src, dst = forward_edge_arrays(RANDOM)
        keys = src * RANDOM.num_vertices + dst
        assert (np.diff(keys) > 0).all()
