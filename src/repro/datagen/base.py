"""Generator infrastructure: results, trial accounting, and the shared
homophily ordering step.

Both LDBC-DG and FFT-DG share their first two stages (Section 4): generate
vertices with properties, then order them by similarity so that nearby ids
are likely to connect (the "Homophily Principle").  The third stage — edge
sampling — is where the two differ, and where the paper's efficiency claim
(trials per generated edge, Fig. 9) is measured.  :class:`TrialCounter`
records exactly that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.graph import Graph
from repro.errors import GeneratorParameterError

__all__ = [
    "TrialCounter",
    "GenerationResult",
    "homophily_order",
    "VertexProperties",
]


@dataclass
class TrialCounter:
    """Accounting of sampling work during edge generation.

    ``trials`` counts every random draw the sampler makes; ``edges``
    counts draws that produced an edge.  LDBC-DG's rejection sampler
    records failures; FFT-DG by construction records almost none (only
    the per-vertex terminating draw that overshoots the range).
    """

    trials: int = 0
    edges: int = 0

    def record_trial(self, produced_edge: bool) -> None:
        """Record one sampling draw."""
        self.trials += 1
        if produced_edge:
            self.edges += 1

    @property
    def failures(self) -> int:
        """Draws that produced no edge."""
        return self.trials - self.edges

    @property
    def trials_per_edge(self) -> float:
        """The Fig. 9 efficiency headline number."""
        if self.edges == 0:
            return float("inf") if self.trials else 0.0
        return self.trials / self.edges

    def merge(self, other: "TrialCounter") -> None:
        """Accumulate another counter (per-vertex workers)."""
        self.trials += other.trials
        self.edges += other.edges


@dataclass(frozen=True)
class GenerationResult:
    """Output of one generator run: the graph plus its cost accounting."""

    graph: Graph
    counter: TrialCounter
    elapsed_seconds: float
    parameters: dict = field(default_factory=dict)

    @property
    def edges_per_second(self) -> float:
        """Generation throughput (the Fig. 9 right-hand series)."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.graph.num_edges / self.elapsed_seconds


@dataclass(frozen=True)
class VertexProperties:
    """The stage-1 vertex attributes used for similarity ordering.

    ``location`` models a 2-D coordinate (sorted by Z-order) and
    ``interest`` a categorical identifier (sorted by value), mirroring the
    LDBC-DG property model described in Section 4.
    """

    location: np.ndarray  # shape (n, 2), uint32 grid coordinates
    interest: np.ndarray  # shape (n,), int64


def generate_vertex_properties(n: int, *, seed: int = 0) -> VertexProperties:
    """Stage 1: draw per-vertex properties."""
    if n < 0:
        raise GeneratorParameterError(f"n must be non-negative, got {n}")
    rng = np.random.default_rng(seed)
    location = rng.integers(0, 2 ** 16, size=(n, 2), dtype=np.uint32)
    interest = rng.integers(0, max(1, n // 10 + 1), size=n, dtype=np.int64)
    return VertexProperties(location=location, interest=interest)


def homophily_order(properties: VertexProperties) -> np.ndarray:
    """Stage 2: order vertices so similar vertices are adjacent.

    Sorts by (interest, Z-order(location)) — vertices sharing an interest
    cluster together, and within an interest group spatially close
    vertices are neighbours.  Returns the permutation ``order`` such that
    position ``k`` in the homophily sequence is original vertex
    ``order[k]``.
    """
    z = _z_order(properties.location)
    return np.lexsort((z, properties.interest))


def _z_order(coords: np.ndarray) -> np.ndarray:
    """Morton (Z-order) code of 16-bit (x, y) pairs."""
    x = coords[:, 0].astype(np.uint64)
    y = coords[:, 1].astype(np.uint64)
    return (_spread_bits(x) << np.uint64(1)) | _spread_bits(y)


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """Interleave zeros between the low 16 bits of each value."""
    v = v & np.uint64(0xFFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x33333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x55555555)
    return v


def timed(fn):
    """Run ``fn()`` returning ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start
