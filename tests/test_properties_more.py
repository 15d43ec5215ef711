"""Additional property-based tests: serialization roundtrips, cost-model
monotonicity, and incremental-algorithm equivalence."""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.reference import wcc
from repro.cluster import (
    CostParameters,
    TraceRecorder,
    scale_out,
    single_machine,
    price_trace,
)
from repro.core import Graph, read_edge_list, write_edge_list
from repro.datagen.dynamic import EdgeBatch
from repro.platforms.vertex_centric.streaming import StreamingSession

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_n=30, max_m=90):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return Graph.from_edges(src, dst, num_vertices=n)


@st.composite
def traces(draw, parts=8):
    steps = draw(st.integers(1, 4))
    rec = TraceRecorder(parts)
    for _ in range(steps):
        rec.begin_superstep()
        for p in range(parts):
            rec.add_compute(p, draw(st.floats(0.0, 1e5)))
        pairs = draw(st.integers(0, 3))
        for _ in range(pairs):
            rec.add_message(
                draw(st.integers(0, parts - 1)),
                draw(st.integers(0, parts - 1)),
                draw(st.floats(1.0, 256.0)),
                count=draw(st.integers(1, 50)),
            )
        rec.end_superstep()
    return rec.trace


class TestSerializationProperties:
    @_settings
    @given(graphs())
    def test_edge_list_text_roundtrip(self, g):
        buffer = io.StringIO()
        write_edge_list(g, buffer)
        buffer.seek(0)
        g2 = read_edge_list(buffer, num_vertices=g.num_vertices)
        assert g == g2


class TestCostModelProperties:
    @_settings
    @given(traces(), st.integers(1, 32), st.integers(1, 32))
    def test_more_threads_never_slower(self, trace, t1, t2):
        lo, hi = sorted((t1, t2))
        params = CostParameters()
        slow = price_trace(trace, single_machine(lo), params).seconds
        fast = price_trace(trace, single_machine(hi), params).seconds
        assert fast <= slow + 1e-9

    @_settings
    @given(traces(), st.integers(1, 8))
    def test_compute_phase_shrinks_with_machines(self, trace, machines):
        params = CostParameters()
        one = price_trace(trace, scale_out(1), params)
        many = price_trace(trace, scale_out(machines), params)
        assert many.compute_seconds <= one.compute_seconds + 1e-9

    @_settings
    @given(traces())
    def test_breakdown_adds_up(self, trace):
        params = CostParameters(startup_seconds=0.5)
        priced = price_trace(trace, scale_out(4), params)
        assert priced.seconds == pytest.approx(
            0.5 + priced.compute_seconds + priced.network_seconds
            + priced.barrier_seconds
        )

    @_settings
    @given(traces())
    def test_higher_multiplier_never_faster(self, trace):
        lean = price_trace(trace, single_machine(8),
                           CostParameters(compute_multiplier=1.0)).seconds
        heavy = price_trace(trace, single_machine(8),
                            CostParameters(compute_multiplier=4.0)).seconds
        assert heavy >= lean - 1e-9


class TestIncrementalProperties:
    @_settings
    @given(graphs(), st.integers(1, 5), st.integers(0, 2 ** 16))
    def test_incremental_wcc_matches_batch_order(self, g, batches, seed):
        """Any batching of the same edges yields the same components."""
        src, dst, _ = g.edge_arrays()
        rng = np.random.default_rng(seed)
        order = rng.permutation(src.shape[0])
        src, dst = src[order], dst[order]
        session = StreamingSession(g.num_vertices, "wcc")
        bounds = np.linspace(0, src.shape[0], batches + 1).astype(int)
        for t in range(batches):
            session.process_window(EdgeBatch(
                time=t,
                src=src[bounds[t]: bounds[t + 1]],
                dst=dst[bounds[t]: bounds[t + 1]],
            ))
        assert np.array_equal(session.values(), wcc(g))
