"""``grid-cold``: the paper's coverage matrix as one cold pooled request.

Seven platforms × eight algorithms on S9-Std, S8-Dense and S8-Diam go
to :func:`repro.api.submit` as one request and run through
:func:`repro.api.gather` on ``nproc`` pool workers, with no artifact
store.  Every repetition starts from an empty session memo, dataset
cache and kernel cache, and the pool forks fresh workers, so dataset
build, placement, the four engine families, pricing and pool IPC all do
real work on every pass.

The datasets are scaled further down than the catalog default (see
:data:`DATASETS`) so that a cold pass fits a run several times over;
the generator code paths are the catalog's own.  The grid's inputs do
not depend on the seed.
"""

from __future__ import annotations

import pickle
import time

import numpy as np

from common import (
    SETUP_REPEATS,
    Recorder,
    WorkerProbe,
    cpu_ticks,
    datagen_metrics,
    datagen_targets,
    harvest_spans,
    median,
    nproc,
    patched,
    peak_rss_mb,
    percentile,
    reset_caches,
    speed_scale,
    timed_setups,
    timing_wrapper,
)

#: ``(dataset, scale_divisor)``: S9-Std at 1700 vertices, S8-Dense and
#: S8-Diam at the 300/900-vertex floor of their variants.  The density
#: and diameter variants change superstep counts relative to
#: per-superstep work.
DATASETS = (("S9-Std", 16000), ("S8-Dense", 4000), ("S8-Diam", 4000))

#: Table-6 order.
PLATFORMS = (
    "GraphX", "PowerGraph", "Flash", "Grape", "Pregel+", "Ligra", "G-thinker",
)
ALGORITHMS = ("pr", "lpa", "sssp", "wcc", "bc", "cd", "tc", "kc")

#: The coverage matrix at the commit that defined this benchmark: 49 of
#: 56 cases run, these seven are ``unsupported``.  A status change is an
#: output change and fails the run.
UNSUPPORTED = frozenset(
    {("Pregel+", "cd")}
    | {("G-thinker", a) for a in ("pr", "lpa", "sssp", "wcc", "bc", "cd")}
)

#: Cache temperature of the untraced run's measured phase.
MODE = "cold"

#: One cold pass of the grid per this many seconds of ``--seconds``.
SECONDS_PER_PASS = 7.5

#: Algorithms whose values must match the reference exactly; the others
#: are floating point and compared with ``allclose``.
EXACT = ("lpa", "wcc", "cd")

FAMILIES = (
    "vertex_centric", "edge_centric", "block_centric", "subgraph_centric",
)


def _request():
    from repro import api
    from repro.service.schema import SubmitRequest

    cases = tuple(
        api.case(platform, algorithm, dataset, scale_divisor=divisor)
        for dataset, divisor in DATASETS
        for algorithm in ALGORITHMS
        for platform in PLATFORMS
    )
    return SubmitRequest(tenant="grid", cases=cases)


def _cold_pass(request, jobs: int):
    """Submit and gather the grid once from cold caches; returns
    ``(wall seconds, outcomes)``."""
    from repro import api

    reset_caches()
    start = time.perf_counter()
    handle = api.submit(request)
    result = api.gather([handle], jobs=jobs)[0]
    return time.perf_counter() - start, result.outcomes


# -- output checks --------------------------------------------------------


def _reference(graph, algorithm):
    from repro.algorithms import reference as ref

    if algorithm == "pr":
        return ref.pagerank(graph)
    if algorithm == "lpa":
        return ref.label_propagation(graph)
    if algorithm == "sssp":
        return ref.dijkstra(graph, 0)
    if algorithm == "wcc":
        return ref.wcc(graph)
    if algorithm == "bc":
        return ref.betweenness_from_source(graph, 0)
    if algorithm == "cd":
        return ref.core_decomposition(graph)
    if algorithm == "tc":
        return ref.triangle_count(graph)
    return ref.k_clique_count(graph, 4)


def _matches(values, expected, algorithm: str) -> bool:
    """The parity rules of the platform parity suite."""
    if isinstance(expected, (int, np.integer)):
        return values == expected
    if algorithm in EXACT:
        return bool(np.array_equal(values, expected))
    return bool(np.allclose(values, expected, equal_nan=True))


class Checker:
    """Checks grid outcomes against the reference kernels and the
    coverage matrix; references are computed once per run."""

    def __init__(self) -> None:
        self._refs: dict[tuple[str, str], object] = {}

    def _expected(self, dataset: str, algorithm: str):
        key = (dataset, algorithm)
        if key not in self._refs:
            from repro.datagen.catalog import build_dataset

            divisor = dict(DATASETS)[dataset]
            graph = build_dataset(dataset, scale_divisor=divisor).graph
            self._refs[key] = _reference(graph, algorithm)
        return self._refs[key]

    def failures(self, outcomes) -> list[str]:
        """One line per outcome whose status or values are wrong."""
        bad = []
        for o in outcomes:
            want = (
                "unsupported" if (o.platform, o.algorithm) in UNSUPPORTED
                else "ok"
            )
            label = f"{o.platform}/{o.algorithm}/{o.dataset}"
            if o.status != want:
                bad.append(f"{label}: status {o.status}, expected {want}")
            elif o.status == "ok" and not _matches(
                o.result.values,
                self._expected(o.dataset, o.algorithm),
                o.algorithm,
            ):
                bad.append(f"{label}: values differ from the reference")
        return bad


# -- per-layer passes ---------------------------------------------------


def _family(platform) -> str:
    """Computing-model family: the platform class's package name."""
    return type(platform).__module__.split(".")[2]


def _rerun_pass(recorder: Recorder) -> None:
    """Time each supported case's first ``Platform.run`` on a fresh graph
    object and the same call again with the kernel cache warm."""
    from repro.bench.runner import CaseSpec, resolve_spec
    from repro.datagen.catalog import build_dataset

    reset_caches()
    for dataset, divisor in DATASETS:
        base = pickle.dumps(
            build_dataset(dataset, scale_divisor=divisor).graph
        )
        for algorithm in ALGORITHMS:
            for name in PLATFORMS:
                if (name, algorithm) in UNSUPPORTED:
                    continue
                spec = CaseSpec.make(
                    name, algorithm, dataset, scale_divisor=divisor
                )
                platform, cluster, _, _ = resolve_spec(spec)
                graph = pickle.loads(base)
                family = _family(platform)
                for leg in ("run", "rerun"):
                    start = time.perf_counter()
                    platform.run(algorithm, graph, cluster)
                    recorder.record(
                        f"platforms.{leg}", time.perf_counter() - start,
                        family=family,
                    )


def _price_pass(recorder: Recorder, outcomes) -> dict[str, float]:
    """Re-price every successful trace; sum the exact work counts."""
    from repro.cluster.cost import price_trace
    from repro.platforms.registry import get_platform

    counts = {"cluster.compute_ops": 0.0, "cluster.messages": 0.0,
              "cluster.supersteps": 0.0}
    for o in outcomes:
        if o.status != "ok":
            continue
        result = o.result
        cost = get_platform(o.platform).profile.cost
        start = time.perf_counter()
        price_trace(result.trace, result.cluster, cost)
        recorder.record("cluster.price", time.perf_counter() - start)
        counts["cluster.compute_ops"] += float(result.metrics.compute_ops)
        counts["cluster.messages"] += float(result.metrics.messages)
        counts["cluster.supersteps"] += float(result.metrics.supersteps)
    return counts


def _traced_pass(request, jobs: int, recorder: Recorder):
    """One cold pass with ``build_dataset`` and ``CaseSpec.run`` timed in
    the pool workers; returns ``(wall, outcomes, simulated spans dropped)``."""
    from repro.bench.runner import CaseSpec
    from repro.obs import tracing

    targets = datagen_targets(recorder) + [
        (CaseSpec, "run", timing_wrapper(recorder, "bench.pool.case")),
    ]
    with patched(*targets), tracing() as tracer:
        wall, outcomes = _cold_pass(request, jobs)
    return wall, outcomes, harvest_spans(tracer, recorder)


# -- entry point -----------------------------------------------------------


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload; see :func:`run.main` for the result shape."""
    jobs = nproc()
    request, setups = timed_setups(_request, 1 if trace else SETUP_REPEATS)
    checker = Checker()
    if not trace:
        passes = max(1, round(seconds / SECONDS_PER_PASS))
        probe = WorkerProbe()
        raw, walls, case_ms, failures = [], [], [], []
        for _ in range(passes):
            ticks = cpu_ticks()
            with patched(*probe.targets()):
                wall, outcomes = _cold_pass(request, jobs)
            ticks = (ticks, cpu_ticks())
            probes, case_s = probe.collect()
            scale = speed_scale(probes, ticks)
            raw.append(wall)
            walls.append(wall * scale)
            case_ms += [1000.0 * t * scale for t in case_s]
            failures += checker.failures(outcomes)
        cases = len(request.cases)
        wall = median(walls)
        return {
            "metrics": {
                "setup_s": median(setups),
                "wall_s": wall,
                "peak_rss_mb": peak_rss_mb(),
                "p50_ms": percentile(case_ms, 50),
                "tail_ms": percentile(case_ms, 90),
                "ops_per_s": cases / wall,
            },
            "attempted": cases * passes,
            "failures": failures,
            "notes": {"pass_walls_s": walls, "raw_pass_walls_s": raw,
                      "cases": cases, "jobs": jobs},
        }

    recorder = Recorder()
    plain_wall, outcomes = _cold_pass(request, jobs)
    failures = checker.failures(outcomes)
    traced_wall, outcomes, dropped = _traced_pass(request, jobs, recorder)
    failures += checker.failures(outcomes)
    counts = _price_pass(recorder, outcomes)
    _rerun_pass(recorder)
    busy_ms = recorder.total_ms("bench.pool.case")
    metrics = {
        **datagen_metrics(recorder),
        **counts,
        "cluster.price_ms": recorder.total_ms("cluster.price"),
        "bench.pool.overhead_ms": 1000.0 * traced_wall - busy_ms / jobs,
        "bench.pool.tasks": float(recorder.count("bench.pool.case")),
        "obs.tracing_overhead_frac": traced_wall / plain_wall - 1.0,
    }
    for family in FAMILIES:
        run_ms = recorder.total_ms("platforms.run", family=family)
        rerun_ms = recorder.total_ms("platforms.rerun", family=family)
        metrics[f"platforms.{family}.run_ms"] = run_ms
        metrics[f"platforms.{family}.rerun_ms"] = rerun_ms
        metrics[f"platforms.{family}.kernel_build_ms"] = run_ms - rerun_ms
    return {
        "metrics": metrics,
        "attempted": 2 * len(request.cases),
        "failures": failures,
        "notes": {"jobs": jobs, "simulated_spans_dropped": dropped},
    }
