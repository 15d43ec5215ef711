"""WGB-style dynamic workload: PEval/IncEval vs per-window recompute.

A grid over batch sizes runs every streaming algorithm (PR, SSSP, WCC,
LPA) through a warm
:class:`~repro.platforms.vertex_centric.streaming.StreamingSession`
(PEval on the bulk-load window, IncEval per update batch) against a
cold recompute of the *same* program per window, with per-window
result-parity checks (bit-exact for WCC/SSSP, certified tolerance for
delta PR, stability for LPA).  The headline batch size additionally
routes every window snapshot through
:func:`~repro.bench.pool.run_cases` as ordinary ``Dyn-`` catalog cases,
and runs crash-mid-stream legs where the faults subsystem replays the
update log from the last checkpoint and must recover bit-identically.

Asserts: incremental ≥ 3x recompute on the headline PR and WCC legs,
fewer warm than cold supersteps on the headline PR leg, and
bit-identical crash recovery.  Results land in
``benchmarks/out/BENCH_dynamic.json``.

Runs two ways: under pytest (via the ``regen`` fixture) or as a script —
``python benchmarks/bench_dynamic_workload.py``.
"""

import argparse
import dataclasses
import json
import os
import time
from pathlib import Path

from repro.bench.dynamic_exp import crash_replay_case, run_dynamic_case
from repro.platforms.vertex_centric.streaming import STREAM_ALGORITHMS

#: Edges per incremental window, largest first; the last entry is the
#: headline configuration (platform cases + crash legs + speedup gate).
BATCH_GRID = (200, 100, 50)

HEADLINE_BATCH = 50
NUM_BATCHES = 8
CRASH_WINDOW = 5

#: The acceptance gate: warm IncEval must beat cold recompute by at
#: least this factor on the headline PR and WCC legs.
MIN_HEADLINE_SPEEDUP = 3.0


def _engine_leg(algorithm: str, batch_edges: int) -> dict:
    """One (algorithm, batch size) cell of the engine grid."""
    report = run_dynamic_case(
        algorithm,
        batch_edges=batch_edges,
        num_batches=NUM_BATCHES,
        platform_cases=(batch_edges == HEADLINE_BATCH),
    )
    return {
        "algorithm": algorithm,
        "batch_edges": batch_edges,
        "num_vertices": report.num_vertices,
        "windows": [dataclasses.asdict(w) for w in report.windows],
        "incremental_seconds": report.incremental_seconds,
        "recompute_seconds": report.recompute_seconds,
        "speedup": report.speedup,
        "edges_per_second": report.edges_per_second,
        "max_abs_err": report.max_abs_err,
        "fingerprint": report.fingerprint,
        "platform_case_seconds": {
            str(t): s for t, s in report.platform_case_seconds.items()
        },
    }


def run_dynamic_grid() -> dict:
    """Run the engine grid and the crash legs; persist JSON."""
    start = time.perf_counter()
    grid = [
        _engine_leg(algorithm, batch_edges)
        for batch_edges in BATCH_GRID
        for algorithm in STREAM_ALGORITHMS
    ]
    crashes = [
        crash_replay_case(
            algorithm,
            batch_edges=HEADLINE_BATCH,
            num_batches=NUM_BATCHES,
            crash_window=CRASH_WINDOW,
        )
        for algorithm in ("wcc", "pr")
    ]
    headline = {
        leg["algorithm"]: leg["speedup"]
        for leg in grid
        if leg["batch_edges"] == HEADLINE_BATCH
    }
    results = {
        "batch_grid": list(BATCH_GRID),
        "num_batches": NUM_BATCHES,
        "headline_batch_edges": HEADLINE_BATCH,
        "grid": grid,
        "crash_replay": crashes,
        "headline_speedups": headline,
        "wall_s": time.perf_counter() - start,
    }

    out_dir = Path(os.environ.get("REPRO_BENCH_OUT", "benchmarks/out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "BENCH_dynamic.json"
    path.write_text(json.dumps(results, indent=2), encoding="utf-8")

    print(f"dynamic workload ({NUM_BATCHES} windows, "
          f"batch grid {BATCH_GRID}):")
    for leg in grid:
        print(f"  {leg['algorithm']:4s} x{leg['batch_edges']:4d}: "
              f"inc {leg['incremental_seconds']:9.3f}s  "
              f"cold {leg['recompute_seconds']:9.3f}s  "
              f"speedup {leg['speedup']:7.1f}x  "
              f"{leg['edges_per_second']:8.1f} edges/s  "
              f"parity {leg['windows'][-1]['parity']}")
    for crash in crashes:
        print(f"  crash {crash['algorithm']:4s} @window "
              f"{crash['crash_window']}: replayed "
              f"{crash['replayed_windows']}, recovery "
              f"{crash['recovery_seconds']:.3f}s, bit-identical "
              f"{crash['bit_identical']}")
    print(f"wrote {path}")
    return results


def _assert_headline(results: dict) -> None:
    """The acceptance gates shared by pytest and script entry points."""
    for algorithm in ("pr", "wcc"):
        speedup = results["headline_speedups"][algorithm]
        assert speedup >= MIN_HEADLINE_SPEEDUP, (
            f"{algorithm}: headline speedup {speedup:.1f}x below "
            f"{MIN_HEADLINE_SPEEDUP}x"
        )
    assert all(c["bit_identical"] for c in results["crash_replay"])
    (pr,) = [
        leg for leg in results["grid"]
        if leg["algorithm"] == "pr" and leg["batch_edges"] == HEADLINE_BATCH
    ]
    inceval = [w for w in pr["windows"] if w["mode"] == "inceval"]
    warm = sum(w["incremental_supersteps"] for w in inceval)
    cold = sum(w["recompute_supersteps"] for w in inceval)
    assert warm < cold, (
        f"pr: warm start took {warm} supersteps, cold {cold}"
    )


def test_dynamic_workload(regen):
    """PEval/IncEval must beat recomputation on priced seconds (and on
    supersteps for PR) with per-window result parity and bit-identical
    crash recovery (validated inside run_dynamic_case and
    crash_replay_case)."""
    results = regen(run_dynamic_grid)
    _assert_headline(results)


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    _assert_headline(run_dynamic_grid())


if __name__ == "__main__":
    main()
