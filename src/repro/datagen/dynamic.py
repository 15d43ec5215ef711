"""Dynamic graph streams (the WGB-style workload from related work).

The paper's Table 1 credits WGB with a dynamic-graph generator for
evaluating systems under evolving workloads.  This module provides that
capability on top of FFT-DG: a deterministic stream of edge-insertion
batches whose union is an FFT-DG graph, plus snapshot materialization —
the substrate for the engine-level PEval/IncEval mode in
:mod:`repro.platforms.vertex_centric.streaming`.

Snapshots are served through a :class:`~repro.core.delta.DeltaCSR`
cursor: the stream keeps one running CSR and merges each batch into it
as a sorted delta segment, so replaying a T-window stream costs one
linear merge per window instead of re-running ``Graph.from_edges`` over
the whole prefix every time (the seed's O(T²) shape).  Materialized
snapshots are memoized, so repeated passes over the same stream (the
warm/cold comparison loops in the benchmarks) reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.delta import DeltaCSR
from repro.core.graph import Graph
from repro.datagen.fft import FFTDG, FFTDGConfig
from repro.errors import GeneratorParameterError

__all__ = ["EdgeBatch", "DynamicGraphStream", "generate_stream"]


@dataclass(frozen=True)
class EdgeBatch:
    """One time window's edge insertions."""

    time: int
    src: np.ndarray
    dst: np.ndarray

    @property
    def size(self) -> int:
        """Number of inserted edges."""
        return int(self.src.shape[0])


class DynamicGraphStream:
    """A sequence of edge-insertion batches over a fixed vertex set.

    The batch list doubles as the stream's *update log*: the crash-replay
    leg of the dynamic benchmark re-applies ``batches[c:t]`` to a window-c
    checkpoint to recover window t's state bit-identically.
    """

    def __init__(self, num_vertices: int, batches: list[EdgeBatch]) -> None:
        self.num_vertices = num_vertices
        self.batches = batches
        self._cursor = DeltaCSR(num_vertices=num_vertices)
        self._cursor_pos = 0  # batches already folded into the cursor
        self._snapshots: dict[int, Graph] = {}

    def __len__(self) -> int:
        return len(self.batches)

    def __iter__(self):
        return iter(self.batches)

    @property
    def total_edges(self) -> int:
        """Edges across all batches (before dedup)."""
        return sum(batch.size for batch in self.batches)

    def snapshot(self, upto: int) -> Graph:
        """Graph containing all edges of batches ``0..upto`` inclusive.

        Served from the running :class:`~repro.core.delta.DeltaCSR`
        cursor: the first request for window t merges only batches the
        cursor has not folded yet, and every materialized snapshot is
        memoized — a full replay (in any number of passes) does O(total
        edges) of merge work, not O(T²).
        """
        if not 0 <= upto < len(self.batches):
            raise GeneratorParameterError(
                f"snapshot index {upto} out of range [0, {len(self.batches)})"
            )
        cached = self._snapshots.get(upto)
        if cached is not None:
            return cached
        while self._cursor_pos <= upto:
            batch = self.batches[self._cursor_pos]
            self._cursor.apply_batch(batch.src, batch.dst)
            self._snapshots[self._cursor_pos] = self._cursor.rebase()
            self._cursor_pos += 1
        return self._snapshots[upto]

    def snapshots(self) -> Iterator[Graph]:
        """Iterate the T prefix snapshots in order (amortized O(total
        edges) across the whole iteration)."""
        for t in range(len(self.batches)):
            yield self.snapshot(t)

    def final_graph(self) -> Graph:
        """The union of every batch."""
        return self.snapshot(len(self.batches) - 1)


def generate_stream(
    num_vertices: int,
    *,
    num_batches: int = 10,
    edges_per_batch: int | None = None,
    bulk_load: float = 0.0,
    alpha: float = 20.0,
    seed: int = 0,
) -> DynamicGraphStream:
    """Generate an FFT-DG graph and split its edges into arrival batches.

    Edges arrive in random order (social networks densify everywhere,
    not front-to-back), so every batch touches the whole vertex range —
    the WGB dynamic-workload shape.

    ``edges_per_batch`` overrides ``num_batches``: the stream is cut into
    windows of (at most) that many edges — the batch-size knob of the
    windowed-throughput experiment (``repro-bench dynamic``).

    ``bulk_load`` (0 ≤ f < 1) front-loads that fraction of all edges into
    window 0, modelling the common deployment shape of a bulk-loaded
    graph followed by a trickle of updates: window 0 is the PEval
    cold-start, and only the remaining ``1 - f`` of the edges arrive
    through the incremental windows (split by ``edges_per_batch`` if
    given, else evenly over ``num_batches - 1`` windows).
    """
    if num_batches < 1:
        raise GeneratorParameterError(
            f"num_batches must be >= 1, got {num_batches}"
        )
    if edges_per_batch is not None and edges_per_batch < 1:
        raise GeneratorParameterError(
            f"edges_per_batch must be >= 1, got {edges_per_batch}"
        )
    if not 0.0 <= bulk_load < 1.0:
        raise GeneratorParameterError(
            f"bulk_load must be in [0, 1), got {bulk_load}"
        )
    graph = FFTDG(
        FFTDGConfig(num_vertices=num_vertices, alpha=alpha, seed=seed)
    ).generate().graph
    src, dst, _ = graph.edge_arrays()
    rng = np.random.default_rng(seed + 7)
    order = rng.permutation(src.shape[0])
    src, dst = src[order], dst[order]
    total = src.shape[0]
    if bulk_load > 0.0:
        cut = min(total, max(1, int(round(total * bulk_load))))
        tail = total - cut
        if edges_per_batch is not None:
            tail_windows = -(-tail // edges_per_batch) if tail else 0
        else:
            tail_windows = min(tail, num_batches - 1)
        if tail_windows == 0:
            cut, tail = total, 0
        batches = [EdgeBatch(time=0, src=src[:cut], dst=dst[:cut])]
        bounds = cut + np.linspace(0, tail, tail_windows + 1).astype(np.int64)
        batches.extend(
            EdgeBatch(time=t + 1, src=src[bounds[t]: bounds[t + 1]],
                      dst=dst[bounds[t]: bounds[t + 1]])
            for t in range(tail_windows)
        )
        return DynamicGraphStream(num_vertices=num_vertices, batches=batches)
    if edges_per_batch is not None:
        num_batches = max(1, -(-total // edges_per_batch))
    bounds = np.linspace(0, total, num_batches + 1).astype(np.int64)
    batches = [
        EdgeBatch(time=t, src=src[bounds[t]: bounds[t + 1]],
                  dst=dst[bounds[t]: bounds[t + 1]])
        for t in range(num_batches)
    ]
    return DynamicGraphStream(num_vertices=num_vertices, batches=batches)
