"""Platform profiles: the constant factors and feature flags that
differentiate the seven evaluated platforms.

The computing-model *engines* (vertex-, edge-, block-, subgraph-centric)
capture the structural differences between platforms; profiles capture
the rest — language/runtime overhead, thread-scaling quality, message
handling costs, memory footprint, and the feature flags the paper calls
out (push/pull, vertex subsets, combiners/mirroring, global messaging).

Constant factors are calibrated against the paper's published results:
Table 10 thread-scaling factors pin each platform's ``parallel_fraction``
(e.g. GraphX 3.8× at 32 threads → f ≈ 0.76; Grape 25.3× → f ≈ 0.992),
and the Fig. 10 single-machine orderings pin the compute multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cost import CostParameters
from repro.errors import PlatformError

__all__ = ["PlatformProfile", "PROFILES", "get_profile", "platform_names"]

VERTEX_CENTRIC = "vertex-centric"
EDGE_CENTRIC = "edge-centric"
BLOCK_CENTRIC = "block-centric"
SUBGRAPH_CENTRIC = "subgraph-centric"


@dataclass(frozen=True)
class PlatformProfile:
    """Static description of one graph-analytics platform.

    Attributes
    ----------
    name / abbreviation / language:
        Identity (Table 6).
    model:
        Computing model (Section 3.3).
    cost:
        Cost-model constants (see :class:`~repro.cluster.cost.CostParameters`).
    push_pull:
        Direction-optimizing traversal (Flash, Ligra): dense frontiers
        switch to pull mode, reducing metered work.
    vertex_subset:
        Maintains explicit active-vertex subsets (Flash, Ligra); without
        it every superstep scans all vertices (GraphX's Pregel joins the
        full vertex RDD each iteration).
    combiner:
        Sender-side message combining / vertex mirroring (Pregel+): all
        messages from one part to one destination vertex collapse into
        one.
    global_messaging:
        Can message arbitrary vertices, enabling pointer-jumping WCC and
        similar round-compressed algorithms (Flash, Pregel+).
    single_machine_only:
        Ligra: shared memory only; running on >1 machine is an error.
    partition_strategy:
        "hash" (vertex placement), "edge" (PowerGraph vertex-cuts), or
        "block" (Grape contiguous blocks).
    bytes_per_vertex / bytes_per_edge / replication_factor:
        Memory model for the stress-test experiment.
    upload_rate_bytes_per_second:
        Graph ingestion rate (drives the Table-5 upload-time metric).
    min_threads:
        Per-algorithm minimum thread counts (GraphX needs 4 threads for
        PR and 2 for SSSP to operate, Section 8.3).
    """

    name: str
    abbreviation: str
    language: str
    model: str
    cost: CostParameters
    push_pull: bool = False
    vertex_subset: bool = False
    combiner: bool = False
    global_messaging: bool = False
    single_machine_only: bool = False
    partition_strategy: str = "hash"
    bytes_per_vertex: float = 16.0
    bytes_per_edge: float = 16.0
    replication_factor: float = 1.0
    upload_rate_bytes_per_second: float = 200e6
    min_threads: dict[str, int] = field(default_factory=dict)

    def memory_bytes(self, num_vertices: int, num_edges: int) -> float:
        """Working-set estimate for a loaded graph."""
        return (
            num_vertices * self.bytes_per_vertex
            + 2 * num_edges * self.bytes_per_edge
        ) * self.replication_factor


PROFILES: dict[str, PlatformProfile] = {
    profile.name: profile
    for profile in (
        PlatformProfile(
            name="GraphX",
            abbreviation="GX",
            language="Scala",
            model=VERTEX_CENTRIC,
            cost=CostParameters(
                compute_multiplier=22.0,
                parallel_fraction=0.76,
                per_message_cpu_ops=6.0,
                remote_message_multiplier=4.0,
                remote_parallel_fraction=0.6,
                bytes_per_message_overhead=48.0,
                barrier_factor=8.0,
                startup_seconds=3.0,
            ),
            partition_strategy="hash",
            bytes_per_vertex=80.0,
            bytes_per_edge=48.0,
            replication_factor=2.5,
            upload_rate_bytes_per_second=60e6,
            min_threads={"pr": 4, "sssp": 2},
        ),
        PlatformProfile(
            name="PowerGraph",
            abbreviation="PG",
            language="C++",
            model=EDGE_CENTRIC,
            cost=CostParameters(
                compute_multiplier=2.6,
                parallel_fraction=0.84,
                per_message_cpu_ops=2.5,
                remote_message_multiplier=2.0,
                remote_parallel_fraction=0.7,
                bytes_per_message_overhead=24.0,
                barrier_factor=1.5,
                startup_seconds=0.3,
            ),
            partition_strategy="edge",
            bytes_per_vertex=48.0,
            bytes_per_edge=40.0,
            replication_factor=1.8,
            upload_rate_bytes_per_second=150e6,
        ),
        PlatformProfile(
            name="Flash",
            abbreviation="FL",
            language="C++",
            model=VERTEX_CENTRIC,
            cost=CostParameters(
                compute_multiplier=1.5,
                parallel_fraction=0.905,
                per_message_cpu_ops=2.0,
                remote_message_multiplier=8.0,
                remote_parallel_fraction=0.5,
                bytes_per_message_overhead=16.0,
                barrier_factor=1.2,
                startup_seconds=0.2,
                # Flash synchronizes a global vertex status each
                # superstep, hurting scale-out (Table 11).
                broadcast_bytes_per_superstep=2e4,
            ),
            push_pull=True,
            vertex_subset=True,
            global_messaging=True,
            partition_strategy="hash",
            bytes_per_vertex=24.0,
            bytes_per_edge=16.0,
            upload_rate_bytes_per_second=250e6,
        ),
        PlatformProfile(
            name="Grape",
            abbreviation="GR",
            language="C++/Java",
            model=BLOCK_CENTRIC,
            cost=CostParameters(
                compute_multiplier=1.0,
                parallel_fraction=0.992,
                per_message_cpu_ops=1.5,
                remote_message_multiplier=1.0,
                remote_parallel_fraction=0.99,
                bytes_per_message_overhead=16.0,
                barrier_factor=0.8,
                startup_seconds=0.2,
            ),
            partition_strategy="block",
            bytes_per_vertex=20.0,
            bytes_per_edge=12.0,
            upload_rate_bytes_per_second=300e6,
        ),
        PlatformProfile(
            name="Pregel+",
            abbreviation="PP",
            language="C++",
            model=VERTEX_CENTRIC,
            cost=CostParameters(
                compute_multiplier=1.4,
                parallel_fraction=0.9965,
                per_message_cpu_ops=1.5,
                remote_message_multiplier=1.0,
                remote_parallel_fraction=0.99,
                bytes_per_message_overhead=12.0,
                barrier_factor=1.0,
                startup_seconds=0.2,
            ),
            combiner=True,
            global_messaging=True,
            partition_strategy="hash",
            bytes_per_vertex=28.0,
            bytes_per_edge=20.0,
            replication_factor=1.2,
            upload_rate_bytes_per_second=220e6,
        ),
        PlatformProfile(
            name="Ligra",
            abbreviation="LI",
            language="C++",
            model=VERTEX_CENTRIC,
            cost=CostParameters(
                compute_multiplier=0.9,
                parallel_fraction=0.999,
                per_message_cpu_ops=1.0,
                remote_message_multiplier=1.0,
                bytes_per_message_overhead=0.0,
                barrier_factor=0.4,
                startup_seconds=0.05,
            ),
            push_pull=True,
            vertex_subset=True,
            single_machine_only=True,
            partition_strategy="hash",
            bytes_per_vertex=12.0,
            bytes_per_edge=8.0,
            upload_rate_bytes_per_second=400e6,
        ),
        PlatformProfile(
            name="G-thinker",
            abbreviation="GT",
            language="C++",
            model=SUBGRAPH_CENTRIC,
            cost=CostParameters(
                compute_multiplier=1.0,
                parallel_fraction=0.98,
                per_message_cpu_ops=1.5,
                remote_message_multiplier=8.0,
                remote_parallel_fraction=0.7,
                bytes_per_message_overhead=16.0,
                barrier_factor=0.8,
                startup_seconds=0.2,
            ),
            partition_strategy="hash",
            bytes_per_vertex=24.0,
            bytes_per_edge=16.0,
            upload_rate_bytes_per_second=250e6,
        ),
    )
}


def get_profile(name: str) -> PlatformProfile:
    """Profile by platform name or abbreviation."""
    if name in PROFILES:
        return PROFILES[name]
    for profile in PROFILES.values():
        if profile.abbreviation == name:
            return profile
    raise PlatformError(
        f"unknown platform {name!r}; choose from {list(PROFILES)}"
    )


def platform_names() -> list[str]:
    """Platform names in the paper's Table-6 order."""
    return list(PROFILES)
