"""Pool executor determinism: parallelism may only change wall-clock.

The contract of :func:`repro.bench.pool.run_cases` is that for any
``jobs`` value the outcome list is bit-identical to sequential
execution — same statuses, values, traces, priced seconds, and metrics,
in submission order — including cases carrying fault schedules, whose
crash/checkpoint events must survive the process boundary intact.
"""

import numpy as np
import pytest

from repro import obs
from repro.bench import CaseSpec, clear_case_cache
from repro.bench.pool import run_cases
from repro.bench.pool import get_default_jobs, set_default_jobs
from repro.errors import ClusterConfigError
from repro.faults import FaultSchedule, MachineCrash
from repro.cluster import scale_out


def _assert_outcomes_identical(a, b):
    assert (a.platform, a.algorithm, a.dataset, a.status, a.detail,
            a.red_bar, a.attempts, a.retry_backoff_seconds) == (
        b.platform, b.algorithm, b.dataset, b.status, b.detail,
        b.red_bar, b.attempts, b.retry_backoff_seconds)
    if a.result is None:
        assert b.result is None
        return
    ra, rb = a.result, b.result
    assert np.array_equal(np.asarray(ra.values), np.asarray(rb.values))
    assert ra.priced == rb.priced
    assert ra.metrics == rb.metrics
    assert ra.cluster == rb.cluster
    assert ra.trace.supersteps == rb.trace.supersteps
    for sa, sb in zip(ra.trace.steps, rb.trace.steps):
        assert np.array_equal(sa.ops, sb.ops)
        assert np.array_equal(sa.msg_count, sb.msg_count)
        assert np.array_equal(sa.msg_bytes, sb.msg_bytes)
    assert ra.timeline == rb.timeline


def _grid_specs():
    """A small mixed grid: ok, unsupported, red-bar, and faulted cases."""
    schedule = FaultSchedule(crashes=(MachineCrash(superstep=2, machine=1),))
    return [
        CaseSpec.make("Ligra", "pr", "S8-Std"),
        CaseSpec.make("Grape", "tc", "S8-Std"),
        CaseSpec.make("G-thinker", "pr", "S8-Std"),   # unsupported
        CaseSpec.make("Pregel+", "tc", "S8-Std"),     # red-bar promotion
        CaseSpec.make("Pregel+", "pr", "S8-Std", cluster=scale_out(4),
                      apply_red_bar=False, fault_schedule=schedule,
                      checkpoint_interval=2),          # faulted
    ]


class TestPoolDeterminism:
    def test_jobs1_vs_jobs4_identical_outcomes(self):
        specs = _grid_specs()
        clear_case_cache()
        sequential = run_cases(specs, jobs=1)
        clear_case_cache()
        parallel = run_cases(specs, jobs=4)
        assert len(sequential) == len(parallel) == len(specs)
        for a, b in zip(sequential, parallel):
            _assert_outcomes_identical(a, b)
        # The faulted case's events crossed the process boundary intact.
        faulted = parallel[-1]
        assert faulted.result.timeline is not None
        assert faulted.result.timeline.crashes

    def test_duplicate_specs_dispatch_once_and_fan_back(self):
        spec = CaseSpec.make("Ligra", "pr", "S8-Std")
        clear_case_cache()
        with obs.tracing() as tracer:
            outcomes = run_cases([spec, spec, spec], jobs=2)
        assert tracer.counters.snapshot().get("pool_tasks") == 1.0
        assert outcomes[0] is outcomes[1] is outcomes[2]

    def test_duplicate_faulted_specs_dedupe_to_one_execution(self):
        """Fault schedules are part of the case key: two identical
        faulted specs collapse into one dispatch, and both callers see
        the same faulted outcome (crash events included)."""
        schedule = FaultSchedule(crashes=(MachineCrash(superstep=2,
                                                       machine=1),))
        spec = CaseSpec.make(
            "Pregel+", "pr", "S8-Std", cluster=scale_out(4),
            apply_red_bar=False, fault_schedule=schedule,
            checkpoint_interval=2,
        )
        twin = CaseSpec.make(
            "Pregel+", "pr", "S8-Std", cluster=scale_out(4),
            apply_red_bar=False, fault_schedule=schedule,
            checkpoint_interval=2,
        )
        clear_case_cache()
        with obs.tracing() as tracer:
            outcomes = run_cases([spec, twin], jobs=2)
        assert tracer.counters.snapshot().get("pool_tasks") == 1.0
        assert outcomes[0] is outcomes[1]
        assert outcomes[0].result.timeline is not None
        assert outcomes[0].result.timeline.crashes

    def test_parallel_outcomes_seed_the_parent_memo(self):
        spec = CaseSpec.make("Ligra", "pr", "S8-Std")
        clear_case_cache()
        (pooled,) = run_cases([spec, CaseSpec.make("Grape", "pr", "S8-Std")],
                              jobs=2)[:1]
        assert spec.run() is pooled  # memo hit, no re-execution

    def test_run_cases_keeps_grid_spec_order(self):
        specs = [CaseSpec.make(p, "pr", "S8-Std") for p in ("Ligra", "Grape")]
        clear_case_cache()
        grid = run_cases(specs, jobs=1)
        assert [o.platform for o in grid] == ["Ligra", "Grape"]

    def test_worker_spans_and_counters_merge_into_parent(self):
        specs = _grid_specs()[:2]
        clear_case_cache()
        with obs.tracing() as tracer:
            run_cases(specs, jobs=2)
        names = [s.name for s in tracer.spans]
        assert "pool" in names
        assert any(n.startswith("pool-case/") for n in names)
        assert tracer.counters.snapshot().get("cases_run") == 2.0

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ClusterConfigError):
            run_cases([], jobs=0)
        with pytest.raises(ClusterConfigError):
            set_default_jobs(0)

    def test_default_jobs_round_trip(self):
        previous = set_default_jobs(3)
        try:
            assert get_default_jobs() == 3
        finally:
            set_default_jobs(previous)
        assert get_default_jobs() == previous
