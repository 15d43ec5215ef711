"""Scalar-vs-bulk execution path parity.

The bulk-frontier path promises *bit-identical* results and WorkTraces
to the scalar path — not approximately equal: identical per-superstep
ops, message counts, message bytes, and superstep counts, and
``np.array_equal`` on the algorithm outputs.  These tests diff the two
paths for PR, LPA, SSSP, and WCC across platform personalities and
datasets (including dangling/isolated vertices and weighted edges).
"""

import numpy as np
import pytest

from repro.cluster import NUM_PARTS, TraceRecorder, single_machine
from repro.core import Graph, random_graph
from repro.core.partition import hash_partition
from repro.datagen import uniform_weights
from repro.errors import PlatformError
from repro.platforms import get_platform, get_profile
from repro.platforms.vertex_centric.engine import (
    BulkVertexProgram,
    VertexCentricEngine,
    VertexProgram,
)
from repro.platforms.vertex_centric.programs import (
    PageRankProgram,
    SSSPProgram,
    TriangleCountProgram,
    WCCHashMinProgram,
)


def _dangling_graph() -> Graph:
    """Directed graph with dangling sinks (5, 6) and an isolated vertex
    (7): exercises PR's aggregator path and empty-adjacency handling."""
    src = [0, 0, 1, 2, 3, 4, 4]
    dst = [1, 2, 3, 4, 5, 6, 0]
    return Graph.from_edges(src, dst, num_vertices=8, directed=True)


RANDOM = random_graph(250, 1000, seed=21)
DANGLING = _dangling_graph()
WEIGHTED = uniform_weights(random_graph(150, 600, seed=8), seed=5)

VERTEX_PLATFORMS = ("GraphX", "Flash", "Pregel+", "Ligra")


def _assert_traces_identical(a, b):
    assert a.supersteps == b.supersteps
    for step_a, step_b in zip(a.steps, b.steps):
        assert np.array_equal(step_a.ops, step_b.ops)
        assert np.array_equal(step_a.msg_count, step_b.msg_count)
        assert np.array_equal(step_a.msg_bytes, step_b.msg_bytes)


def _run_both(platform_name, algorithm, graph, **params):
    platform = get_platform(platform_name)
    cluster = single_machine()
    scalar = platform.run(
        algorithm, graph, cluster, engine_mode="scalar", **params
    )
    bulk = platform.run(
        algorithm, graph, cluster, engine_mode="bulk", **params
    )
    return scalar, bulk


class TestPlatformLevelParity:
    """Whole-platform runs diffed between forced scalar and forced bulk."""

    @pytest.mark.parametrize("platform_name", VERTEX_PLATFORMS)
    @pytest.mark.parametrize(
        "graph", [RANDOM, DANGLING], ids=["random", "dangling"]
    )
    def test_pr(self, platform_name, graph):
        scalar, bulk = _run_both(platform_name, "pr", graph)
        assert np.array_equal(scalar.values, bulk.values)
        _assert_traces_identical(scalar.trace, bulk.trace)

    @pytest.mark.parametrize("platform_name", VERTEX_PLATFORMS)
    @pytest.mark.parametrize(
        "graph", [RANDOM, DANGLING], ids=["random", "dangling"]
    )
    def test_lpa(self, platform_name, graph):
        scalar, bulk = _run_both(platform_name, "lpa", graph)
        assert np.array_equal(scalar.values, bulk.values)
        _assert_traces_identical(scalar.trace, bulk.trace)

    @pytest.mark.parametrize("platform_name", VERTEX_PLATFORMS)
    @pytest.mark.parametrize(
        "graph", [RANDOM, WEIGHTED], ids=["unweighted", "weighted"]
    )
    def test_sssp(self, platform_name, graph):
        scalar, bulk = _run_both(platform_name, "sssp", graph)
        assert np.array_equal(scalar.values, bulk.values)
        _assert_traces_identical(scalar.trace, bulk.trace)

    @pytest.mark.parametrize("platform_name", ["GraphX", "Ligra"])
    @pytest.mark.parametrize(
        "graph", [RANDOM, DANGLING], ids=["random", "dangling"]
    )
    def test_wcc(self, platform_name, graph):
        # Flash/Pregel+ select pointer-jumping WCC (scalar-only); the
        # HashMin bulk port is engine-tested under those profiles below.
        scalar, bulk = _run_both(platform_name, "wcc", graph)
        assert np.array_equal(scalar.values, bulk.values)
        _assert_traces_identical(scalar.trace, bulk.trace)


def _engine(graph, profile, mode):
    recorder = TraceRecorder(NUM_PARTS)
    partition = hash_partition(graph, NUM_PARTS)
    engine = VertexCentricEngine(
        graph, partition, recorder, profile, mode=mode
    )
    return engine, recorder


class TestCombinerParity:
    """Min-combining (Pregel+ mirroring) on the bulk path, which the
    platform-level WCC matrix can't reach (Pregel+ runs pointer-jump)."""

    @pytest.mark.parametrize("graph", [RANDOM, DANGLING],
                             ids=["random", "dangling"])
    def test_wcc_hashmin_under_combiner(self, graph):
        profile = get_profile("Pregel+")
        results = {}
        for mode in ("scalar", "bulk"):
            engine, recorder = _engine(graph, profile, mode)
            program = engine.run(
                WCCHashMinProgram(),
                max_supersteps=graph.num_vertices + 2,
            )
            results[mode] = (program.labels, recorder.trace)
        assert np.array_equal(results["scalar"][0], results["bulk"][0])
        _assert_traces_identical(results["scalar"][1], results["bulk"][1])


class TestPathSelection:
    def test_auto_picks_bulk_for_capable_program(self):
        engine, _ = _engine(RANDOM, get_profile("Flash"), "auto")
        engine.run(PageRankProgram(iterations=2))
        assert engine.last_path == "bulk"

    def test_auto_falls_back_for_scalar_only_program(self):
        engine, _ = _engine(RANDOM, get_profile("Flash"), "auto")
        engine.run(TriangleCountProgram())
        assert engine.last_path == "scalar"

    def test_scalar_mode_pins_capable_program_to_scalar(self):
        engine, _ = _engine(RANDOM, get_profile("Flash"), "scalar")
        engine.run(PageRankProgram(iterations=2))
        assert engine.last_path == "scalar"

    def test_forced_bulk_rejects_scalar_only_program(self):
        engine, _ = _engine(RANDOM, get_profile("Flash"), "bulk")
        with pytest.raises(PlatformError):
            engine.run(TriangleCountProgram())

    def test_invalid_mode_rejected(self):
        recorder = TraceRecorder(NUM_PARTS)
        partition = hash_partition(RANDOM, NUM_PARTS)
        with pytest.raises(PlatformError):
            VertexCentricEngine(
                RANDOM, partition, recorder, get_profile("Flash"),
                mode="turbo",
            )

    def test_bulk_combining_requires_declared_reducer(self):
        class _BadCombiner(BulkVertexProgram):
            combine = staticmethod(lambda a, b: a + b)
            bulk_combine = None  # scalar combine with no bulk twin

            def compute(self, v, messages, ctx):
                pass

            def compute_bulk(self, frontier, inbox, ctx):
                pass

        engine, _ = _engine(RANDOM, get_profile("Pregel+"), "bulk")
        with pytest.raises(PlatformError):
            engine.run(_BadCombiner())


class TestMessageBytesHonored:
    """Regression: sends used to hard-code 8.0-byte payloads, ignoring
    the program's ``message_bytes`` and coercing explicit 0.0 payloads
    back to 8.0 via ``nbytes or 8.0``."""

    def test_program_message_bytes_used_as_default(self):
        class _Wide(VertexProgram):
            message_bytes = 24.0

            def setup(self, graph):
                pass

            def compute(self, v, messages, ctx):
                if ctx.superstep == 0:
                    ctx.send_to_neighbors(v, 1.0)

        graph = random_graph(40, 150, seed=2)
        engine, recorder = _engine(graph, get_profile("Flash"), "scalar")
        engine.run(_Wide())
        trace = recorder.trace
        assert trace.total_message_bytes == pytest.approx(
            24.0 * trace.total_messages
        )

    def test_explicit_zero_nbytes_honored(self):
        class _Signal(VertexProgram):
            def setup(self, graph):
                pass

            def compute(self, v, messages, ctx):
                if ctx.superstep == 0 and v == 0:
                    ctx.send(0, 1, 1.0, nbytes=0.0)

        graph = random_graph(40, 150, seed=2)
        engine, recorder = _engine(graph, get_profile("Flash"), "scalar")
        engine.run(_Signal())
        trace = recorder.trace
        assert trace.total_messages == 1
        assert trace.total_message_bytes == 0.0

    def test_bulk_sends_use_program_message_bytes(self):
        class _WideBulk(BulkVertexProgram):
            message_bytes = 16.0

            def setup(self, graph):
                pass

            def compute(self, v, messages, ctx):
                if ctx.superstep == 0:
                    ctx.send_to_neighbors(v, 1.0)

            def compute_bulk(self, frontier, inbox, ctx):
                if ctx.superstep == 0:
                    ctx.send_to_neighbors_bulk(
                        frontier, np.ones(frontier.shape[0])
                    )

        graph = random_graph(40, 150, seed=2)
        engine, recorder = _engine(graph, get_profile("Flash"), "bulk")
        engine.run(_WideBulk())
        trace = recorder.trace
        assert trace.total_messages == int(graph.out_degrees().sum())
        assert trace.total_message_bytes == pytest.approx(
            16.0 * trace.total_messages
        )
