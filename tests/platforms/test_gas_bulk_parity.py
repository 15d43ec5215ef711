"""Scalar-vs-bulk GAS path parity and the array-native edge placement.

The bulk GAS path promises *bit-identical* WorkTraces and results to
the scalar path — identical per-iteration ops, message counts, message
bytes, and iteration counts, and ``np.array_equal`` on the algorithm
outputs — for the four ported programs (PR, LPA, SSSP, WCC).  The
placement tests pin down the greedy vertex-cut's invariants on small
hand-checked graphs.
"""

import numpy as np
import pytest

from repro import obs
from repro.cluster import NUM_PARTS, TraceRecorder, single_machine
from repro.core import Graph, path_graph, random_graph, star_graph
from repro.datagen import uniform_weights
from repro.errors import PlatformError
from repro.platforms import get_platform, get_profile
from repro.platforms.edge_centric.engine import (
    EdgeCentricEngine,
    EdgePlacement,
)
from repro.platforms.edge_centric.programs import (
    BFSGAS,
    PageRankGAS,
)


def _isolated_graph() -> Graph:
    """Edges among the first 40 of 60 vertices: exercises isolated-
    vertex masters and empty gather segments."""
    rng = np.random.default_rng(7)
    src = rng.integers(0, 40, size=120)
    dst = rng.integers(0, 40, size=120)
    keep = src != dst
    return Graph.from_edges(src[keep], dst[keep], num_vertices=60,
                            directed=False)


RANDOM = random_graph(250, 1000, seed=21)
ISOLATED = _isolated_graph()
WEIGHTED = uniform_weights(random_graph(150, 600, seed=8), seed=5)


def _assert_traces_identical(a, b):
    assert a.supersteps == b.supersteps
    for step_a, step_b in zip(a.steps, b.steps):
        assert np.array_equal(step_a.ops, step_b.ops)
        assert np.array_equal(step_a.msg_count, step_b.msg_count)
        assert np.array_equal(step_a.msg_bytes, step_b.msg_bytes)


def _run_both(algorithm, graph, **params):
    platform = get_platform("PowerGraph")
    cluster = single_machine()
    scalar = platform.run(
        algorithm, graph, cluster, engine_mode="scalar", **params
    )
    bulk = platform.run(
        algorithm, graph, cluster, engine_mode="bulk", **params
    )
    return scalar, bulk


class TestGASPathParity:
    """Whole-platform PowerGraph runs diffed between the two paths."""

    @pytest.mark.parametrize(
        "graph", [RANDOM, ISOLATED], ids=["random", "isolated"]
    )
    def test_pr(self, graph):
        scalar, bulk = _run_both("pr", graph)
        assert np.array_equal(scalar.values, bulk.values)
        _assert_traces_identical(scalar.trace, bulk.trace)

    @pytest.mark.parametrize(
        "graph", [RANDOM, ISOLATED], ids=["random", "isolated"]
    )
    def test_lpa(self, graph):
        scalar, bulk = _run_both("lpa", graph)
        assert np.array_equal(scalar.values, bulk.values)
        _assert_traces_identical(scalar.trace, bulk.trace)

    @pytest.mark.parametrize(
        "graph", [RANDOM, WEIGHTED, path_graph(40)],
        ids=["unweighted", "weighted", "path"],
    )
    def test_sssp(self, graph):
        scalar, bulk = _run_both("sssp", graph)
        assert np.array_equal(scalar.values, bulk.values)
        _assert_traces_identical(scalar.trace, bulk.trace)

    @pytest.mark.parametrize(
        "graph", [RANDOM, ISOLATED, path_graph(40)],
        ids=["random", "isolated", "path"],
    )
    def test_wcc(self, graph):
        scalar, bulk = _run_both("wcc", graph)
        assert np.array_equal(scalar.values, bulk.values)
        _assert_traces_identical(scalar.trace, bulk.trace)

    def test_lpa_messages_are_24_bytes_on_both_paths(self):
        scalar, bulk = _run_both("lpa", RANDOM)
        for outcome in (scalar, bulk):
            assert outcome.trace.total_message_bytes == pytest.approx(
                24.0 * outcome.trace.total_messages
            )


class TestGASPathSelection:
    def _engine(self, graph, mode="auto"):
        profile = get_profile("PowerGraph")
        placement = EdgePlacement(graph, NUM_PARTS)
        recorder = TraceRecorder(NUM_PARTS)
        return EdgeCentricEngine(
            graph, placement, recorder, profile, mode=mode
        )

    def test_auto_picks_bulk_for_capable_program(self):
        engine = self._engine(RANDOM)
        engine.run(PageRankGAS(iterations=2))
        assert engine.last_path == "bulk"

    def test_auto_falls_back_for_scalar_only_program(self):
        engine = self._engine(RANDOM)
        engine.run(BFSGAS(source=0), max_iterations=300)
        assert engine.last_path == "scalar"

    def test_scalar_mode_pins_capable_program_to_scalar(self):
        engine = self._engine(RANDOM, mode="scalar")
        engine.run(PageRankGAS(iterations=2))
        assert engine.last_path == "scalar"

    def test_forced_bulk_rejects_scalar_only_program(self):
        engine = self._engine(RANDOM, mode="bulk")
        with pytest.raises(PlatformError):
            engine.run(BFSGAS(source=0))

    def test_invalid_mode_rejected(self):
        with pytest.raises(PlatformError):
            self._engine(RANDOM, mode="turbo")

    def test_bulk_iterations_emit_gas_iteration_spans(self):
        platform = get_platform("PowerGraph")
        with obs.tracing() as tracer:
            platform.run(
                "pr", RANDOM, single_machine(), engine_mode="bulk"
            )
        steps = [s for s in tracer.spans if s.category == "superstep"]
        assert steps and {s.name for s in steps} == {"gas-iteration"}
        (engine_span,) = [
            s for s in tracer.spans if s.category == "engine"
        ]
        assert engine_span.attrs.get("path") == "bulk"


class TestEdgePlacementCut:
    def test_seed_determinism(self):
        g = random_graph(120, 500, seed=3)
        a = EdgePlacement(g, NUM_PARTS, seed=23)
        b = EdgePlacement(g, NUM_PARTS, seed=23)
        assert np.array_equal(a.edge_part, b.edge_part)
        assert np.array_equal(a.master, b.master)
        assert np.array_equal(a.adj_part, b.adj_part)
        assert np.array_equal(a.replica_flat, b.replica_flat)

    def test_path_graph_hand_checked(self):
        # Path 0-1-2: the greedy cut reuses the part both chained edges
        # share through vertex 1, so everything lands on one part and
        # every vertex has exactly one replica.
        placement = EdgePlacement(path_graph(3), 4)
        assert np.unique(placement.edge_part).size == 1
        part = int(placement.edge_part[0])
        assert placement.replication_factor() == 1.0
        assert (placement.master == part).all()
        for v in range(3):
            assert placement.replica_parts[v].tolist() == [part]

    def test_star_graph_hand_checked(self):
        # All edges share the centre, whose replica set the greedy cut
        # keeps reusing while under the load cap — one part total.
        placement = EdgePlacement(star_graph(6), 2)
        assert np.unique(placement.edge_part).size == 1
        assert placement.replication_factor() == 1.0

    def test_master_is_lowest_replica_part(self):
        g = random_graph(200, 900, seed=4)
        placement = EdgePlacement(g, NUM_PARTS)
        for v in range(g.num_vertices):
            parts = placement.replica_parts[v]
            if parts.size:
                assert placement.master[v] == parts[0] == parts.min()
            else:
                assert placement.master[v] == v % NUM_PARTS

    def test_replication_factor_bounds(self):
        g = random_graph(300, 1500, seed=5)
        placement = EdgePlacement(g, NUM_PARTS)
        # between 1 (every vertex placed) and the published 2-4 range,
        # with head-room for the load cap's forced spills
        assert 1.0 <= placement.replication_factor() <= 5.0

    def test_per_part_load_balance_bound(self):
        g = random_graph(400, 3000, seed=6)
        parts = 8
        placement = EdgePlacement(g, parts, seed=23)
        m = placement.edge_part.shape[0]
        load = np.bincount(placement.edge_part, minlength=parts)
        # the greedy capacity 1.15 * m / parts + 2 is a hard cap
        assert load.max() <= 1.15 * m / parts + 3

    def test_adjacency_matches_graph(self):
        g = random_graph(100, 400, seed=6)
        placement = EdgePlacement(g, NUM_PARTS)
        for v in range(g.num_vertices):
            assert np.array_equal(
                np.sort(placement.neighbors[v]), g.neighbors(v)
            )
            assert placement.neighbors[v].size == placement.neighbor_parts[v].size

    def test_weighted_slots_align_with_neighbors(self):
        g = WEIGHTED
        placement = EdgePlacement(g, NUM_PARTS)
        for v in range(g.num_vertices):
            lo, hi = placement.indptr[v], placement.indptr[v + 1]
            for u, w in zip(placement.adj[lo:hi].tolist(),
                            placement.adj_weight[lo:hi].tolist()):
                assert w == g.edge_weight(v, u)

    def test_empty_graph(self):
        g = Graph.from_edges([], [], num_vertices=5, directed=False)
        placement = EdgePlacement(g, 4)
        assert placement.replication_factor() == 0.0
        assert np.array_equal(placement.master, np.arange(5) % 4)
