"""The benchmark landscape (paper Table 1), made runnable.

Table 1 compares four existing graph-analytics benchmarks with the
paper's.  This module executes a *representative workload from each*
on the same simulated platforms and datasets, so the comparison is a
measurement rather than a citation:

* **Graph500** — BFS on a Kronecker graph, harmonic-mean TEPS;
* **WGB** — K-Hop on an FFT-DG graph plus the dynamic edge-stream
  workload (WCC maintained by a PEval/IncEval streaming session);
* **BigDataBench** — its graph subset: BFS, PR, WCC timings;
* **LDBC Graphalytics** — its six algorithms;
* **Ours** — the eight core algorithms plus the usability axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.reference import k_hop
from repro.bench.graph500 import run_graph500
from repro.bench.runner import run_case
from repro.cluster.spec import single_machine
from repro.datagen.catalog import build_dataset
from repro.datagen.dynamic import generate_stream
from repro.platforms.registry import get_platform
from repro.platforms.vertex_centric.streaming import StreamingSession

__all__ = ["BenchmarkProfile", "run_landscape"]

_LDBC_ALGOS = ("pr", "bfs", "sssp", "wcc", "lpa", "lcc")
_OURS_ALGOS = ("pr", "lpa", "sssp", "wcc", "bc", "cd", "tc", "kc")
_BDB_ALGOS = ("bfs", "pr", "wcc")


@dataclass
class BenchmarkProfile:
    """What one benchmark measures, plus our measured sample of it."""

    name: str
    workloads: str
    controls: str                    # dataset attributes it can vary
    usability_axis: bool
    sample: dict[str, float] = field(default_factory=dict)


def run_landscape(
    *, dataset: str = "S8-Std", platform: str = "Flash", seed: int = 5
) -> list[BenchmarkProfile]:
    """Run each benchmark's representative workload on one platform.

    The qualitative columns reproduce Table 1; ``sample`` carries a
    measured number per benchmark so the comparison is live.
    """
    graph = build_dataset(dataset).graph
    cluster = single_machine(32)
    plat = get_platform(platform)

    profiles: list[BenchmarkProfile] = []

    # Graph500: BFS TEPS on Kronecker.
    g500 = run_graph500(scale=9, num_roots=4, platforms=(platform,),
                        seed=seed)
    profiles.append(BenchmarkProfile(
        name="Graph500",
        workloads="BFS, SSSP",
        controls="scale",
        usability_axis=False,
        sample={"bfs_harmonic_teps": g500[0].harmonic_mean_teps},
    ))

    # WGB: K-Hop plus the dynamic stream.
    bfs_run = plat.run("bfs", graph, cluster)
    hop3 = k_hop(graph, 0, 3)
    stream = generate_stream(graph.num_vertices, num_batches=5, seed=seed)
    session = StreamingSession(stream.num_vertices, "wcc")
    windows = [session.process_window(batch) for batch in stream]
    inceval_seconds = sum(
        w.priced.seconds for w in windows if w.mode == "inceval"
    )
    profiles.append(BenchmarkProfile(
        name="WGB",
        workloads="K-Hop, SSSP, PR, WCC, Cluster (+dynamic)",
        controls="scale, density",
        usability_axis=False,
        sample={
            "k3_hop_vertices": float(hop3.size),
            "khop_seconds": bfs_run.priced.seconds,
            "dynamic_inceval_seconds": inceval_seconds,
        },
    ))

    # BigDataBench graph subset.
    bdb_total = sum(
        run_case(platform, algo, dataset, apply_red_bar=False).seconds
        for algo in _BDB_ALGOS
        if run_case(platform, algo, dataset, apply_red_bar=False).status == "ok"
    )
    profiles.append(BenchmarkProfile(
        name="BigDataBench",
        workloads="BFS, PR, WCC, Cluster",
        controls="scale",
        usability_axis=False,
        sample={"suite_seconds": bdb_total},
    ))

    # LDBC Graphalytics.
    ldbc_total = 0.0
    for algo in _LDBC_ALGOS:
        outcome = run_case(platform, algo, dataset, apply_red_bar=False)
        if outcome.status == "ok":
            ldbc_total += outcome.seconds
    profiles.append(BenchmarkProfile(
        name="LDBC Graphalytics",
        workloads="PR, BFS, SSSP, WCC, LPA, LCC",
        controls="scale",
        usability_axis=False,
        sample={"suite_seconds": ldbc_total},
    ))

    # Ours: the eight core algorithms + the usability axis.
    ours_total = 0.0
    supported = 0
    for algo in _OURS_ALGOS:
        outcome = run_case(platform, algo, dataset, apply_red_bar=False)
        if outcome.status == "ok":
            ours_total += outcome.seconds
            supported += 1
    profiles.append(BenchmarkProfile(
        name="Ours",
        workloads="PR, SSSP, TC, BC, KC, CD, LPA, WCC",
        controls="scale, density, diameter",
        usability_axis=True,
        sample={"suite_seconds": ours_total,
                "algorithms_run": float(supported)},
    ))
    return profiles
