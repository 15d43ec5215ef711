"""``stream-update``: incremental sessions over a bulk-loaded edge stream.

One :class:`~repro.platforms.vertex_centric.streaming.StreamingSession`
each for PR, SSSP, WCC and LPA tracks an FFT-DG edge stream whose first
window holds :data:`BULK_LOAD` of the edges.  Set-up generates the
stream and runs PEval on that bulk window; the measured phase then
hands each insertion window to all four sessions.  A window writes (the
session's :class:`~repro.core.delta.DeltaCSR` batch apply and rebase)
and then reads (IncEval from the delta frontier, then a copy of the
result), and its latency runs from the batch being handed in to all
four results being readable.  Pool, store and service are not used.

A run is several passes, each a fresh set-up followed by every window
of the stream: a session keeps each window's snapshot in its update
log, so one long pass would hold hundreds of snapshots at once.  Every
pass gets the same inputs; the first is checked window by window
against recomputes and every later one must reproduce it bit for bit.
The graph is fixed; the seed permutes the order in which the post-bulk
edges arrive.
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    Recorder,
    cpu_ticks,
    median,
    patched,
    peak_rss_mb,
    probe_tick,
    sliced_percentile,
    speed_scale,
    timed_setups,
    timing_wrapper,
)

MODE = "cold"

VERTICES = 2000
BULK_LOAD = 0.8
BATCH_EDGES = 400
#: Generator seed of the graph itself (the workload seed only orders it).
GRAPH_SEED = 3
ALGORITHMS = ("pr", "sssp", "wcc", "lpa")

#: LPA's round cap.  Cold LPA on this stream's bulk window settles in
#: 23 rounds; under the default cap of 10 it is cut off mid-way, and an
#: unsettled labelling is what capped LPA promises, so stability could
#: not be checked.  Above 23 every window's labelling is a fixpoint.
LPA_ITERATIONS = 40

#: One pass (set-up plus every window) per this many seconds of
#: ``--seconds``; a pass's windows take about this long.
SECONDS_PER_PASS = 2.5


def _windows(stream, seed: int):
    """The post-bulk edges in seed order, cut into insertion windows."""
    from repro.datagen.dynamic import EdgeBatch

    src = np.concatenate([b.src for b in stream.batches[1:]])
    dst = np.concatenate([b.dst for b in stream.batches[1:]])
    order = np.random.default_rng(seed).permutation(src.size)
    src, dst = src[order], dst[order]
    return [
        EdgeBatch(time=1 + i // BATCH_EDGES, src=src[i:i + BATCH_EDGES],
                  dst=dst[i:i + BATCH_EDGES])
        for i in range(0, src.size, BATCH_EDGES)
    ]


class Setup:
    """The generated stream and four sessions current on its bulk window."""

    def __init__(self, seed: int, recorder: Recorder):
        from repro.bench.dynamic_exp import DEFAULT_PRUNE
        from repro.datagen.dynamic import generate_stream
        from repro.platforms.vertex_centric.streaming import StreamingSession

        start = time.perf_counter()
        stream = generate_stream(
            VERTICES, edges_per_batch=BATCH_EDGES, bulk_load=BULK_LOAD,
            seed=GRAPH_SEED,
        )
        recorder.record("datagen.build", time.perf_counter() - start,
                        hit=False)
        self.bulk = stream.batches[0]
        self.windows = _windows(stream, seed)
        params = {"pr": {"prune": DEFAULT_PRUNE},
                  "lpa": {"iterations": LPA_ITERATIONS}}
        self.sessions = {
            algorithm: StreamingSession(
                VERTICES, algorithm, **params.get(algorithm, {})
            )
            for algorithm in ALGORITHMS
        }
        for session in self.sessions.values():
            session.process_window(self.bulk)


def _measure(setup: Setup, recorder: Recorder):
    """Hand every window to every session; returns the per-window
    latencies, the new-edge count, each session's result copies and the
    probe times taken, untimed, before each window."""
    latencies = []
    probes = []
    new_edges = 0
    results = {algorithm: [] for algorithm in ALGORITHMS}
    for batch in setup.windows:
        probes.append(probe_tick())
        start = time.perf_counter()
        for algorithm, session in setup.sessions.items():
            began = time.perf_counter()
            window = session.process_window(batch)
            results[algorithm].append(session.values().copy())
            recorder.record("streaming.window", time.perf_counter() - began,
                            supersteps=window.supersteps,
                            frontier=window.frontier_size)
        latencies.append(time.perf_counter() - start)
        new_edges += window.new_edges
    return latencies, new_edges, results, probes


# -- output checks --------------------------------------------------------


def _pagerank_fixpoint(graph, damping: float, start: np.ndarray):
    """The delta PageRank fixpoint of ``graph``, solved independently.

    Jacobi iteration of ``x = (1-d)/n + d * A (x / deg)`` (dangling
    vertices keep their base mass), from ``start`` until the 1-norm step
    is below 1e-10.  The map contracts by ``d`` in the 1-norm, so the
    answer is within ``1e-10 * d / (1 - d)`` of the exact fixpoint
    whatever ``start`` is.
    """
    n = graph.num_vertices
    degrees = np.diff(graph.indptr)
    owners = np.repeat(np.arange(n), degrees)
    inverse = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1), 0.0)
    base = (1.0 - damping) / n
    x = start
    while True:
        pushed = (x * inverse)[graph.indices]
        y = base + damping * np.bincount(owners, weights=pushed, minlength=n)
        step = float(np.abs(y - x).sum())
        x = y
        if step < 1e-10:
            return x


def check(setup: Setup, results, recorder: Recorder) -> list[str]:
    """Check every window of every session against its snapshot.

    Each window's snapshot is built twice: by replaying the windows on a
    separate :class:`DeltaCSR` cursor (the replay is what
    ``core.delta.apply_ms`` times) and, independently of the overlay, by
    ``Graph.from_edges`` over every edge so far; the two must agree.
    On that snapshot, WCC and SSSP must equal a cold recompute bit for
    bit, PR must lie within ``PR_PARITY_ATOL`` of the fixpoint, and
    LPA's labels must be stable under one more synchronous pass.
    """
    from repro.bench.dynamic_exp import PR_PARITY_ATOL, lpa_is_stable
    from repro.core.delta import DeltaCSR
    from repro.core.graph import Graph

    sessions = setup.sessions
    cursor = DeltaCSR(num_vertices=VERTICES)
    cursor.apply_batch(setup.bulk.src, setup.bulk.dst)
    graph = cursor.rebase()
    src, dst = [setup.bulk.src], [setup.bulk.dst]
    damping = sessions["pr"].program.damping
    ranks = _pagerank_fixpoint(graph, damping, np.full(VERTICES, 1 / VERTICES))
    bad = []
    for w, batch in enumerate(setup.windows):
        start = time.perf_counter()
        cursor.apply_batch(batch.src, batch.dst)
        replayed = cursor.rebase()
        recorder.record("core.delta.apply", time.perf_counter() - start)
        src.append(batch.src)
        dst.append(batch.dst)
        graph = Graph.from_edges(
            np.concatenate(src), np.concatenate(dst), num_vertices=VERTICES
        )
        wrong = {}
        if not (np.array_equal(replayed.indptr, graph.indptr)
                and np.array_equal(replayed.indices, graph.indices)):
            # Every session read the overlay's snapshot, so all four fail.
            wrong = dict.fromkeys(ALGORITHMS, "DeltaCSR snapshot differs "
                                  "from Graph.from_edges")
        for algorithm in ("sssp", "wcc"):
            _, cold = sessions[algorithm].recompute_window(graph)
            if not np.array_equal(results[algorithm][w], cold):
                wrong.setdefault(algorithm, "differs from recompute")
        ranks = _pagerank_fixpoint(graph, damping, ranks)
        err = float(np.max(np.abs(results["pr"][w] - ranks)))
        if err > PR_PARITY_ATOL:
            wrong.setdefault("pr", f"off the fixpoint by {err:.3e}")
        if not lpa_is_stable(graph, results["lpa"][w]):
            wrong.setdefault("lpa", "labels not stable")
        bad += [f"window {w} {a}: {why}" for a, why in wrong.items()]
    return bad


# -- entry point -----------------------------------------------------------


def _pass(seed: int, recorder: Recorder, *wrap):
    """One timed set-up, then every window measured with ``wrap``
    patched in; returns ``(set-up s, latencies, new edges, setup,
    results, speed scale)``."""
    setup, setup_s = timed_setups(lambda: Setup(seed, recorder), 1)
    ticks = cpu_ticks()
    with patched(*wrap):
        latencies, new_edges, results, probes = _measure(setup, recorder)
    ticks = (ticks, cpu_ticks())
    return (setup_s[0], latencies, new_edges, setup, results,
            speed_scale(probes, ticks))


def _same(first, results, index: int) -> list[str]:
    """Every window of pass ``index`` (counted from 0) must equal the
    checked first pass bit for bit: the inputs are the same and a session
    is deterministic."""
    return [
        f"pass {index} window {w} {algorithm}: differs from the checked "
        f"pass 0"
        for algorithm, windows in results.items()
        for w, values in enumerate(windows)
        if not np.array_equal(values, first[algorithm][w])
    ]


def _trace_counts(args, kwargs, result) -> dict:
    """The exact work counts of the trace ``price_trace`` was given."""
    trace = args[0]
    return {"ops": trace.total_ops, "messages": trace.total_messages,
            "supersteps": trace.supersteps}


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload; see :func:`run.main` for the result shape."""
    if not trace:
        passes = max(1, round(seconds / SECONDS_PER_PASS))
        setups, latencies, raw, walls, failures = [], [], [], [], []
        for index in range(passes):
            setup_s, lat, new_edges, setup, results, scale = _pass(
                seed, Recorder()
            )
            setups.append(setup_s)
            latencies += [seconds * scale for seconds in lat]
            raw.append(sum(lat))
            walls.append(sum(lat) * scale)
            if index == 0:
                failures += check(setup, results, Recorder())
                first = results
            else:
                failures += _same(first, results, index)
            del setup  # free its sessions before the next set-up
        wall = median(walls)
        return {
            "metrics": {
                "setup_s": median(setups),
                "wall_s": wall,
                "peak_rss_mb": peak_rss_mb(),
                "p50_ms": 1000.0 * sliced_percentile(latencies, 50, passes),
                "tail_ms": 1000.0 * sliced_percentile(latencies, 90, passes),
                "ops_per_s": new_edges / wall,
            },
            "attempted": len(latencies) * len(ALGORITHMS),
            "failures": failures,
            "notes": {"passes": passes, "pass_walls_s": walls,
                      "raw_pass_walls_s": raw,
                      "windows": len(latencies), "new_edges": new_edges,
                      "vertices": VERTICES, "batch_edges": BATCH_EDGES},
        }

    import repro.platforms.vertex_centric.streaming as streaming

    # A process's first pass pays one-time costs, so the tracing overhead
    # compares the second, untraced, pass with the traced third.
    _, _, _, setup, first, _ = _pass(seed, Recorder())
    failures = check(setup, first, Recorder())
    del setup
    _, plain, _, _, results, _ = _pass(seed, Recorder())
    failures += _same(first, results, 1)
    recorder = Recorder()
    _, latencies, _, setup, results, _ = _pass(
        seed, recorder,
        (streaming, "price_trace",
         timing_wrapper(recorder, "cluster.price", _trace_counts)),
    )
    failures += check(setup, results, recorder)
    windows = recorder.select("streaming.window")
    prices = recorder.select("cluster.price")
    apply_ms = recorder.total_ms("core.delta.apply")
    return {
        "metrics": {
            "datagen.build_ms": recorder.total_ms("datagen.build"),
            "datagen.builds": float(recorder.count("datagen.build")),
            "cluster.price_ms": recorder.total_ms("cluster.price"),
            "cluster.compute_ops": float(sum(a["ops"] for _, a in prices)),
            "cluster.messages": float(sum(a["messages"] for _, a in prices)),
            "cluster.supersteps": float(
                sum(a["supersteps"] for _, a in prices)
            ),
            "core.delta.apply_ms": apply_ms,
            "core.delta.frontier": float(
                sum(a["frontier"] for _, a in windows) / len(ALGORITHMS)
            ),
            "streaming.inceval_ms": (
                recorder.total_ms("streaming.window")
                - len(ALGORITHMS) * apply_ms
            ),
            "streaming.supersteps_per_window": (
                sum(a["supersteps"] for _, a in windows) / len(windows)
            ),
            "obs.tracing_overhead_frac": sum(latencies) / sum(plain) - 1.0,
        },
        "attempted": 3 * len(latencies) * len(ALGORITHMS),
        "failures": failures,
        "notes": {"windows": len(latencies)},
    }
