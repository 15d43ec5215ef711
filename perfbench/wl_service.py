"""``service-zipf``: open-loop Zipfian traffic against the in-process service.

Sixty-four tenants send single-case jobs to a
:class:`~repro.service.BenchmarkService` (thread mode, ``nproc`` slots).
Cases are drawn Zipfian from an S8-scale universe of 2,750 cases; the
tenant count, the Zipf exponent and the per-request priorities are those
of the repository's own service load generator
(``benchmarks/bench_service_load.py``).  Before each measured generation
starts, an earlier service generation executes the universe's head into
an :class:`~repro.bench.store.ArtifactStore`; the measured generation
starts with an empty memo, so its traffic mixes store reads, memo hits,
in-flight dedupe, admission preflight and real executions of the cold
tail.

A run has two phases, each on a fresh generation:

* a fixed-rate phase, an open loop at :data:`RATE_RPS`: each request is
  sent when it is due whatever the service's state, and its latency
  runs from the due time to the moment its result is readable, so a
  stall is charged to every request it delays;
* a burst phase, :data:`BURST_PER_S` requests per second of
  ``--seconds`` all due at once, served :data:`BURSTS` times over, each
  time by a fresh generation: the time the service takes to drain them,
  and so the rate it can sustain, is set by the service alone.

The seed drives the arrival times, tenants, priorities and the Zipf
draw; the universe and its popularity order are fixed.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import time

import numpy as np

from common import (
    Recorder,
    cpu_ticks,
    datagen_metrics,
    datagen_targets,
    median,
    nproc,
    patched,
    peak_rss_mb,
    percentile,
    probe_tick,
    reset_caches,
    sliced_percentile,
    speed_scale,
    timed_setups,
    timing_wrapper,
    work_dir,
)

MODE = "warm-store"

#: The case universe on S8-Std at 450 vertices: the 56 platform ×
#: algorithm cases with default parameters, which head the popularity
#: order, then a long tail of single-source queries (SSSP from every
#: other source on the six platforms that run it).  Tail queries cost
#: about the same few milliseconds, so the cold executions form a
#: steady stream over the whole phase rather than a few bursts, and
#: engine work stays a small share of the service's time.
DATASET = "S8-Std"
SCALE_DIVISOR = 8000
PLATFORMS = (
    "GraphX", "PowerGraph", "Flash", "Grape", "Pregel+", "Ligra", "G-thinker",
)
ALGORITHMS = ("pr", "lpa", "sssp", "wcc", "bc", "cd", "tc", "kc")
SOURCES = 450

#: Popularity order within the head and within the tail: a fixed
#: shuffle, so cheap and expensive cases mix at every rank.
RANK_SEED = 0

#: Traffic shape of ``benchmarks/bench_service_load.py``: 64 tenants,
#: Zipf exponent 1.2, each request's priority uniform in 1..4.
ZIPF_S = 1.2
TENANTS = 64
PRIORITIES = (1, 4)

#: Merged arrival rate of the fixed-rate phase.
RATE_RPS = 50.0

#: Consecutive slices of the fixed-rate phase whose latency percentiles
#: are combined by their median.
SLICES = 5

#: Requests of the burst phase per second of ``--seconds``, and how
#: many times the burst is served (the median drain time is reported).
BURST_PER_S = 35
BURSTS = 3

#: Cases the earlier service generation stores before the measured one:
#: the whole head.
STORED_HEAD = len(PLATFORMS) * len(ALGORITHMS)

#: A request slower than this (or failed, or refused) misses the limit.
LATENCY_LIMIT_MS = 250.0

#: Stepped sweep for the highest sustainable rate (traced run only).
SWEEP_RATES = (100.0, 200.0, 300.0, 400.0, 600.0, 800.0)
SWEEP_STEP_S = 1.5

#: A run whose generator sent its p99 request this late is invalid:
#: the load it offered was not the load it claims.
LATE_LIMIT_MS = 0.2 * LATENCY_LIMIT_MS

FAILED_STATUSES = ("error", "transient")

#: Seconds between host-speed probe ticks on the service's event loop
#: while it serves (each tick takes about 2.5 ms of the loop).
PROBE_PERIOD_S = 0.1


def universe():
    """The case universe as :class:`CaseRequest`\\ s in popularity order."""
    from repro.service.schema import CaseRequest

    shuffle = random.Random(RANK_SEED).shuffle
    head = [
        CaseRequest.make(p, a, DATASET, scale_divisor=SCALE_DIVISOR)
        for a in ALGORITHMS for p in PLATFORMS
    ]
    tail = [
        CaseRequest.make(p, "sssp", DATASET, scale_divisor=SCALE_DIVISOR,
                         source=source)
        for p in PLATFORMS if p != "G-thinker"
        for source in range(1, SOURCES)
    ]
    shuffle(head)
    shuffle(tail)
    return head + tail


def schedule(rng: np.random.Generator, cases, count: int, seconds: float):
    """``[(offset seconds, SubmitRequest)]`` of one open-loop phase.

    Exactly ``count`` arrivals over ``seconds``, placed as a Poisson
    process conditioned on that count (sorted uniform times; all at 0
    for a burst), each from a uniformly drawn tenant with a uniformly
    drawn priority; a fixed count keeps the offered load the same on
    every seed.

    The cases are a systematic sample of the Zipf law: ``count`` evenly
    spaced quantiles behind one random offset, in random order.  Every
    case then appears within one request of its expected count, so the
    number of distinct cases, and with it the cold executions a phase
    does, is the same on every seed; independent draws swing it by
    about 10 % between seeds, and a burst's drain time by twice that.
    """
    from repro.service.schema import SubmitRequest

    weights = 1.0 / np.arange(1, len(cases) + 1) ** ZIPF_S
    cdf = np.cumsum(weights / weights.sum())
    offsets = np.sort(rng.uniform(0.0, seconds, size=count))
    tenants = rng.integers(0, TENANTS, size=count)
    priorities = rng.integers(PRIORITIES[0], PRIORITIES[1] + 1, size=count)
    quantiles = (np.arange(count) + rng.uniform()) / count
    picks = rng.permutation(np.minimum(
        np.searchsorted(cdf, quantiles, side="right"), len(cases) - 1
    ))
    return [
        (float(t), SubmitRequest(tenant=f"tenant-{tenant:02d}",
                                 cases=(cases[pick],), priority=int(priority)))
        for t, tenant, priority, pick in zip(offsets, tenants, priorities,
                                             picks)
    ]


def timed_store(root, recorder: Recorder):
    """An :class:`ArtifactStore` whose ``get`` and ``put`` are timed."""
    from repro.bench.store import ArtifactStore

    class TimedStore(ArtifactStore):
        get = timing_wrapper(
            recorder, "bench.store.get",
            lambda args, kwargs, artifact: {"hit": artifact is not None},
        )(ArtifactStore.get)
        put = timing_wrapper(recorder, "bench.store.put")(ArtifactStore.put)

    return TimedStore(root)


class Setup:
    """One service generation ready to serve: a store warmed by an
    earlier generation and a started service.  ``close()`` stops the
    service and its loop."""

    def __init__(self, cases, recorder: Recorder | None):
        from repro.bench.store import ArtifactStore, set_artifact_store
        from repro.service import BenchmarkService

        root = work_dir("store")
        store = (ArtifactStore(root) if recorder is None
                 else timed_store(root, recorder))
        set_artifact_store(store)
        self.store_root = root
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._warm(cases[:STORED_HEAD]))
        reset_caches()
        self.service = BenchmarkService(jobs=nproc())
        self.loop.run_until_complete(self.service.start())

    @staticmethod
    async def _warm(hot):
        """The earlier generation: execute the hot head into the store."""
        from repro.service import BenchmarkService
        from repro.service.schema import SubmitRequest

        async with BenchmarkService(jobs=nproc()) as service:
            ids = [
                await service.submit(SubmitRequest(tenant="warm", cases=(c,)))
                for c in hot
            ]
            for job_id in ids:
                await service.result(job_id)

    def serve(self, traffic, sampler=None):
        """Run :func:`open_loop` on this generation's service, ticking the
        host-speed probe on its event loop every :data:`PROBE_PERIOD_S`;
        returns ``(wall, lateness, served, speed scale)``."""
        probes = []
        ticks = cpu_ticks()

        async def ticker():
            while True:
                probes.append(probe_tick())
                await asyncio.sleep(PROBE_PERIOD_S)

        async def serve():
            task = asyncio.create_task(ticker())
            try:
                return await open_loop(self.service, traffic, sampler)
            finally:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task

        wall, lateness, served = self.loop.run_until_complete(serve())
        scale = speed_scale(probes, (ticks, cpu_ticks()))
        return wall, lateness, served, scale

    def close(self) -> None:
        from repro.bench.store import set_artifact_store

        self.loop.run_until_complete(self.service.close())
        self.loop.close()
        set_artifact_store(None)


async def open_loop(service, traffic, sampler=None):
    """Send ``traffic`` on schedule; returns ``(wall, lateness, served)``.

    ``served[i]`` is ``(latency seconds, outcome)`` of request ``i``,
    its latency measured from its due time; ``wall`` runs from the first
    due time to the last result.
    """
    served: list = [None] * len(traffic)
    lateness = []

    async def collect(i, job_id, due):
        result = await service.result(job_id)
        served[i] = (time.perf_counter() - due, result.outcomes[0])

    waiters = []
    start = time.perf_counter() + 0.01
    for i, (offset, request) in enumerate(traffic):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(time.perf_counter() - due)
        job_id = await service.submit(request)
        waiters.append(asyncio.create_task(collect(i, job_id, due)))
        if sampler is not None:
            sampler()
    await asyncio.gather(*waiters)
    return time.perf_counter() - start, lateness, served


def _failed(outcome) -> bool:
    """A failed or refused request."""
    return outcome.status in FAILED_STATUSES + ("oom",)


def _latencies_ms(served, wall: float) -> list[float]:
    """Request latencies; a failed or refused request is charged the
    whole phase, so it misses any limit."""
    return [
        1000.0 * (wall if _failed(outcome) else latency)
        for latency, outcome in served
    ]


def check(traffic, served) -> list[str]:
    """Compare every distinct served outcome with a direct ``run_case``
    in a cold session with no store; returns one line per failed request."""
    from repro.bench.runner import clear_case_cache
    from repro.service.schema import case_key, outcome_fingerprint

    clear_case_cache()
    direct: dict[str, str] = {}
    bad = []
    for (_, request), (_, outcome) in zip(traffic, served):
        spec = request.cases[0].to_spec()
        key = case_key(spec)
        if key not in direct:
            direct[key] = outcome_fingerprint(spec.run())
        label = f"{spec.platform}/{spec.algorithm}/{spec.dataset}"
        if outcome.status in FAILED_STATUSES:
            bad.append(f"{label}: served status {outcome.status}")
        elif outcome_fingerprint(outcome) != direct[key]:
            bad.append(f"{label}: served outcome differs from run_case")
    return bad


def _sweep(setup: Setup, rng, cases) -> float:
    """Highest completed rate of a stepped sweep meeting the p99 limit
    with no backlog left at the end of the step (0 if none does)."""
    best = 0.0
    for rate in SWEEP_RATES:
        traffic = schedule(rng, cases, round(rate * SWEEP_STEP_S),
                           SWEEP_STEP_S)
        wall, _, served, _ = setup.serve(traffic)
        lat = _latencies_ms(served, wall)
        drained = wall <= SWEEP_STEP_S + LATENCY_LIMIT_MS / 1000.0
        if percentile(lat, 99) > LATENCY_LIMIT_MS or not drained:
            break
        best = len(served) / wall
    return best


def _traffic(seed: int, seconds: float):
    """The run's universe and its fixed-rate and burst traffic."""
    cases = universe()
    rng = np.random.default_rng(seed)
    fixed = schedule(rng, cases, round(RATE_RPS * seconds), seconds)
    burst = schedule(rng, cases, round(BURST_PER_S * seconds), 0.0)
    return cases, rng, fixed, burst


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload; see :func:`run.main` for the result shape."""
    cases, rng, fixed, burst = _traffic(seed, seconds)
    if not trace:
        setups, burst_walls, burst_rates, burst_served = [], [], [], []
        raw_burst_walls = []
        for _ in range(BURSTS):
            setup, times = timed_setups(lambda: Setup(cases, None), 1)
            burst_wall, _, once, scale = setup.serve(burst)
            setup.close()
            setups += times
            raw_burst_walls.append(burst_wall)
            burst_wall *= scale
            burst_walls.append(burst_wall)
            done = sum(1 for _, outcome in once if not _failed(outcome))
            burst_rates.append(done / burst_wall)
            burst_served += once
        setup, times = timed_setups(lambda: Setup(cases, None), 1)
        wall, lateness, served, scale = setup.serve(fixed)
        setup.close()
        failures = check(fixed + BURSTS * burst, served + burst_served)
        raw_lat = _latencies_ms(served, wall)
        lat = [ms * scale for ms in raw_lat]
        late_p99 = 1000.0 * percentile(lateness, 99)
        return {
            "metrics": {
                "setup_s": median(setups + times),
                "wall_s": median(burst_walls),
                "peak_rss_mb": peak_rss_mb(),
                "p50_ms": sliced_percentile(lat, 50, SLICES),
                "tail_ms": sliced_percentile(lat, 90, SLICES),
                "ops_per_s": median(burst_rates),
            },
            "attempted": len(served) + len(burst_served),
            "failures": failures,
            "notes": {
                "requests": len(served),
                "rate_rps": RATE_RPS,
                "burst_requests": len(burst),
                "burst_walls_s": burst_walls,
                "raw_burst_walls_s": raw_burst_walls,
                "fixed_speed_scale": scale,
                "latency_limit_ms": LATENCY_LIMIT_MS,
                "p99_ms": percentile(lat, 99),
                "goodput_rps": sum(
                    1 for ms in raw_lat if ms <= LATENCY_LIMIT_MS
                ) / wall,
                "loadgen_late_p99_ms": late_p99,
                "valid": late_p99 <= LATE_LIMIT_MS,
            },
        }

    # A process's first burst pays one-time costs, so the tracing
    # overhead compares the second, untraced, burst with the traced third.
    plain_served = []
    for _ in range(2):
        setup, _ = timed_setups(lambda: Setup(cases, None), 1)
        plain_wall, _, once, _ = setup.serve(burst)
        setup.close()
        plain_served += once
    recorder = Recorder()
    depth = [0]

    with patched(*datagen_targets(recorder)):
        setup, _ = timed_setups(lambda: Setup(cases, recorder), 1)
        traced_wall, _, burst_served, _ = setup.serve(burst)
        setup.close()
        setup, _ = timed_setups(lambda: Setup(cases, recorder), 1)

        def sample():
            queues = setup.service.metrics()["queues"]
            depth[0] = max(depth[0], queues["depth_total"])

        _, lateness, served, _ = setup.serve(fixed, sample)
        stats = setup.service.metrics()
        max_rps = _sweep(setup, rng, cases)
        setup.close()
    store_bytes = sum(
        p.stat().st_size for p in setup.store_root.rglob("*") if p.is_file()
    )
    failures = check(3 * burst + fixed,
                     plain_served + burst_served + served)
    _time_preflight(fixed, recorder)
    gets = recorder.count("bench.store.get")
    jobs = stats["cases"]
    return {
        "metrics": {
            **datagen_metrics(recorder),
            "bench.store.get_ms": recorder.total_ms("bench.store.get"),
            "bench.store.put_ms": recorder.total_ms("bench.store.put"),
            "bench.store.hit_ratio": (
                recorder.count("bench.store.get", hit=True) / gets
                if gets else 0.0
            ),
            "bench.store.bytes": float(store_bytes),
            "service.preflight_ms": recorder.total_ms("service.preflight"),
            "service.queue_depth_max": float(depth[0]),
            "service.inflight_peak": float(stats["inflight"]["peak"]),
            "service.dedup_ratio": jobs["dedup_hits"] / jobs["submitted"],
            "service.executions": float(jobs["executions"]),
            "service.admission_rejected": float(jobs["admission_rejected"]),
            "service.max_rps": max_rps,
            "obs.tracing_overhead_frac": traced_wall / plain_wall - 1.0,
            "loadgen.late_p99_ms": 1000.0 * percentile(lateness, 99),
        },
        "attempted": 3 * len(burst) + len(fixed),
        "failures": failures,
        "notes": {"requests": len(served), "rate_rps": RATE_RPS,
                  "burst_requests": len(burst)},
    }


def _time_preflight(traffic, recorder: Recorder) -> None:
    """Time ``preflight_case`` once on each distinct spec of the traffic
    (dataset cache warm, so only the admission work is timed)."""
    from repro.service.scheduler import preflight_case

    seen = set()
    for _, request in traffic:
        spec = request.cases[0].to_spec()
        if spec in seen:
            continue
        seen.add(spec)
        preflight_case(spec)  # build the dataset outside the timing
        start = time.perf_counter()
        preflight_case(spec)
        recorder.record("service.preflight", time.perf_counter() - start)
