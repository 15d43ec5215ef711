"""Benchmark harness: experiment executor and per-table/figure
regenerators.

One module per experiment family — :mod:`repro.bench.genquality`
(Section 8.1), :mod:`repro.bench.performance` (Sections 8.2–8.3),
:mod:`repro.bench.usability_exp` (Section 8.4), and
:mod:`repro.bench.selection` (Section 9) — plus static tables, plain-text
reporting, and the ``repro-bench`` CLI.

Grid execution has two shared layers: :mod:`repro.bench.pool` (the
parallel case executor behind ``repro-bench --jobs``) and
:mod:`repro.bench.store` (the persistent content-addressed artifact
cache behind ``--cache-dir``); both preserve bit-identical outcomes and
change only wall-clock time.

Cases are submitted through the versioned :mod:`repro.api` facade
(``submit`` / ``gather`` / ``run_sync``) or, inside the harness,
:func:`repro.bench.runner.run_case` and :func:`repro.bench.pool.run_cases`.
"""

from repro.bench.pool import (
    get_default_jobs,
    set_default_jobs,
)
from repro.bench.runner import (
    RED_BAR_CASES,
    RETRY_BACKOFF_SECONDS,
    RETRY_LIMIT,
    CaseOutcome,
    CaseSpec,
    clear_case_cache,
)
from repro.bench.store import (
    ArtifactStore,
    get_artifact_store,
    set_artifact_store,
)
from repro.bench.reporting import emit, render_series, render_table

__all__ = [
    "RED_BAR_CASES",
    "RETRY_LIMIT",
    "RETRY_BACKOFF_SECONDS",
    "CaseOutcome",
    "CaseSpec",
    "set_default_jobs",
    "get_default_jobs",
    "ArtifactStore",
    "get_artifact_store",
    "set_artifact_store",
    "clear_case_cache",
    "emit",
    "render_series",
    "render_table",
]
