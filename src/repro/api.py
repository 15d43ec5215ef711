"""`repro.api` — the stable, versioned programmatic entry point.

This facade wraps the harness executors behind the versioned
request/response dataclasses the benchmark service speaks
(:mod:`repro.service.schema`), so in-process callers and TCP clients
share one contract:

* :func:`case` — build a :class:`~repro.service.schema.CaseRequest`.
* :func:`submit` — queue a :class:`~repro.service.schema.SubmitRequest`
  locally; returns a :class:`JobHandle` immediately.
* :func:`gather` — execute all pending handles through the pool
  executor (cross-job dedupe included) and return
  :class:`~repro.service.schema.JobResult`\\ s in handle order.
* :func:`run_sync` — submit + gather one request in a single call.

Outcomes are bit-identical to direct ``run_case`` executions — the
facade adds batching and a schema, never semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchemaError, ServiceError
from repro.service.schema import (
    API_VERSION,
    CaseRequest,
    JobResult,
    SubmitRequest,
)

__all__ = [
    "API_VERSION",
    "JobHandle",
    "case",
    "submit",
    "gather",
    "run_sync",
]


@dataclass(frozen=True)
class JobHandle:
    """Ticket for one locally-submitted request (see :func:`submit`)."""

    job_id: str
    request: SubmitRequest


_PENDING: dict[str, JobHandle] = {}
_RESULTS: dict[str, JobResult] = {}
_SEQ = 0


def case(
    platform: str,
    algorithm: str,
    dataset: str,
    **kwargs,
) -> CaseRequest:
    """Build one :class:`CaseRequest` (same knobs as ``CaseSpec.make``).

    Keyword arguments split exactly as ``run_case``'s did: ``cluster``,
    ``scale_divisor``, ``apply_red_bar``, ``weighted`` are harness
    knobs; everything else goes to the algorithm as params.
    """
    return CaseRequest.make(platform, algorithm, dataset, **kwargs)


def submit(request: SubmitRequest) -> JobHandle:
    """Queue a request for the next :func:`gather`; returns immediately.

    Validation (schema shape, API version) happens here, so malformed
    requests fail at the submission site, not deep inside a batch.
    """
    global _SEQ
    if not isinstance(request, SubmitRequest):
        raise SchemaError(
            f"submit() takes a SubmitRequest, got {type(request).__name__}"
        )
    _SEQ += 1
    handle = JobHandle(job_id=f"local-{_SEQ:06d}", request=request)
    _PENDING[handle.job_id] = handle
    return handle


def gather(
    handles: list[JobHandle] | tuple[JobHandle, ...] | None = None,
    *,
    jobs: int | None = None,
) -> list[JobResult]:
    """Execute pending submissions and return their results in order.

    ``handles=None`` gathers everything submitted since the last
    gather.  All pending cases are batched through one
    :func:`~repro.bench.pool.run_cases` call, so identical cases across
    different jobs execute once (``jobs`` is the pool width).  Results
    for already-gathered handles are served from the facade's result
    table without re-execution.
    """
    if handles is None:
        handles = [_PENDING[job_id] for job_id in sorted(_PENDING)]
    todo = [h for h in handles if h.job_id not in _RESULTS]
    unknown = [
        h.job_id for h in todo
        if _PENDING.get(h.job_id) is not h
    ]
    if unknown:
        raise ServiceError(
            f"unknown job handle(s): {', '.join(sorted(unknown))}"
        )
    if todo:
        from repro.bench.pool import run_cases

        specs = [
            c.to_spec() for h in todo for c in h.request.cases
        ]
        outcomes = run_cases(specs, jobs=jobs)
        cursor = 0
        for handle in todo:
            n = len(handle.request.cases)
            _RESULTS[handle.job_id] = JobResult(
                job_id=handle.job_id,
                tenant=handle.request.tenant,
                outcomes=tuple(outcomes[cursor:cursor + n]),
            )
            cursor += n
            _PENDING.pop(handle.job_id, None)
    return [_RESULTS[h.job_id] for h in handles]


def run_sync(request: SubmitRequest, *, jobs: int | None = None) -> JobResult:
    """Submit one request and execute it immediately.

    The one-liner for scripts::

        result = run_sync(SubmitRequest(tenant="me", cases=(case(...),)))
    """
    return gather([submit(request)], jobs=jobs)[0]
