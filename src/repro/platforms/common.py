"""Shared helpers for platform algorithm implementations.

This module owns the **engine options** vocabulary: every platform's
``run()`` accepts the same keyword knobs (``engine_mode``,
``fault_schedule``, ``checkpoint_interval``), and
:func:`parse_engine_options` is the single place they are popped,
validated, and normalized into an :class:`EngineOptions`.  The vertex-
and edge-centric platforms used to each pop ``engine_mode`` themselves
with silently-diverging defaults; now an unknown mode raises one clear
:class:`~repro.errors.PlatformError` everywhere.

The flat-CSR vectorization primitives (``expand_segments``,
``forward_edge_arrays``, …) live in :mod:`repro.platforms.kernels`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.graph import Graph
from repro.errors import PlatformError
from repro.faults.schedule import EMPTY_SCHEDULE, FaultSchedule
from repro.platforms.kernels import vertex_order_positions

__all__ = [
    "EngineMode",
    "EngineOptions",
    "parse_engine_options",
    "adjacency_shipping_bytes",
]


class EngineMode(enum.Enum):
    """Execution-path selector for engines with scalar and bulk paths.

    ``AUTO`` lets the engine pick (currently the vectorized bulk path
    where one exists); ``BULK`` and ``SCALAR`` force a path, which the
    parity suites use to assert both meter identically.  Engines with a
    single path accept the knob and ignore it.
    """

    AUTO = "auto"
    BULK = "bulk"
    SCALAR = "scalar"


@dataclass(frozen=True)
class EngineOptions:
    """Normalized engine knobs shared by every platform's ``run()``.

    Attributes
    ----------
    mode:
        Scalar/bulk path selection (:class:`EngineMode`).
    fault_schedule:
        The run's :class:`~repro.faults.FaultSchedule`; defaults to the
        empty schedule, under which execution, metering, and pricing are
        bit-identical to a run with no fault machinery at all.
    checkpoint_interval:
        Supersteps between checkpoint images when the schedule is
        non-empty (ignored otherwise).
    intra_jobs:
        Requested shard-worker processes for intra-case partition
        parallelism on the bulk paths (clamped at run time by the
        shared slot budget; 1 disables sharding).
    """

    mode: EngineMode = EngineMode.AUTO
    fault_schedule: FaultSchedule = EMPTY_SCHEDULE
    checkpoint_interval: int = 8
    intra_jobs: int = 1


def parse_engine_options(params: dict) -> EngineOptions:
    """Pop and validate the shared engine knobs out of ``params``.

    Mutates ``params`` (the platform's remaining keyword arguments) by
    removing ``engine_mode``, ``fault_schedule``,
    ``checkpoint_interval``, and ``intra_jobs`` (whose default comes
    from the process-global parallel config, not the case params);
    everything else is left for the algorithm implementations.  Raises :class:`~repro.errors.PlatformError` for an
    unknown mode, a schedule of the wrong type, or a non-positive
    checkpoint interval.
    """
    raw_mode = params.pop("engine_mode", EngineMode.AUTO)
    if isinstance(raw_mode, EngineMode):
        mode = raw_mode
    else:
        try:
            mode = EngineMode(raw_mode)
        except ValueError:
            valid = ", ".join(repr(m.value) for m in EngineMode)
            raise PlatformError(
                f"unknown engine_mode {raw_mode!r}; expected one of {valid}"
            ) from None
    schedule = params.pop("fault_schedule", None)
    if schedule is None:
        schedule = EMPTY_SCHEDULE
    elif not isinstance(schedule, FaultSchedule):
        raise PlatformError(
            f"fault_schedule must be a FaultSchedule, got "
            f"{type(schedule).__name__}"
        )
    interval = params.pop("checkpoint_interval", 8)
    if not isinstance(interval, int) or isinstance(interval, bool) or interval < 1:
        raise PlatformError(
            f"checkpoint_interval must be an int >= 1, got {interval!r}"
        )
    intra_jobs = params.pop("intra_jobs", None)
    if intra_jobs is None:
        # Deliberately sourced from process-global config (CLI flag /
        # REPRO_INTRA_JOBS), not from case params: the knob must never
        # enter CaseSpec fingerprints — a sharded run is bit-identical
        # to a single-process one, so cached artifacts stay shared.
        from repro.platforms.parallel.config import get_default_intra_jobs

        intra_jobs = get_default_intra_jobs()
    if (
        not isinstance(intra_jobs, int)
        or isinstance(intra_jobs, bool)
        or intra_jobs < 1
    ):
        raise PlatformError(
            f"intra_jobs must be an int >= 1, got {intra_jobs!r}"
        )
    return EngineOptions(
        mode=mode,
        fault_schedule=schedule,
        checkpoint_interval=interval,
        intra_jobs=intra_jobs,
    )


def adjacency_shipping_bytes(
    graph: Graph, *, envelope_bytes: float
) -> tuple[float, float]:
    """(payload, envelope) bytes of a forward-adjacency broadcast.

    Triangle counting on message-passing models ships each vertex's
    forward list to each forward neighbour: payload is
    ``8 * sum(fdeg^2)``, envelopes one per forward edge.
    """
    und = graph.to_undirected()
    position = vertex_order_positions(und)
    payload = 0.0
    messages = 0.0
    for v in range(und.num_vertices):
        neigh = und.neighbors(v)
        fdeg = int((position[neigh] > position[v]).sum())
        payload += 8.0 * fdeg * fdeg
        messages += fdeg
    return payload, envelope_bytes * messages
