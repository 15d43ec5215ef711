"""Tests for the dynamic edge-stream generator."""

import numpy as np
import pytest

from repro.datagen.dynamic import generate_stream
from repro.errors import GeneratorParameterError


class TestStream:
    def test_batches_cover_final_graph(self):
        stream = generate_stream(400, num_batches=5, seed=3)
        assert len(stream) == 5
        final = stream.final_graph()
        assert final.num_edges == stream.total_edges  # dedup-free split

    def test_snapshots_grow(self):
        stream = generate_stream(300, num_batches=4, seed=1)
        sizes = [stream.snapshot(t).num_edges for t in range(4)]
        assert sizes == sorted(sizes)
        assert sizes[0] > 0

    def test_snapshot_bounds_checked(self):
        stream = generate_stream(100, num_batches=3, seed=0)
        with pytest.raises(GeneratorParameterError):
            stream.snapshot(3)

    def test_deterministic(self):
        a = generate_stream(200, num_batches=4, seed=9)
        b = generate_stream(200, num_batches=4, seed=9)
        assert a.final_graph() == b.final_graph()
        assert np.array_equal(a.batches[0].src, b.batches[0].src)

    def test_rejects_bad_batches(self):
        with pytest.raises(GeneratorParameterError):
            generate_stream(100, num_batches=0)
