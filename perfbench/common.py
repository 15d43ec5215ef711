"""Shared pieces of the benchmark: statistics, the host-speed probe,
environment, set-up timing, cache resets and the outside-in layer
recorder.

Everything here drives the program through its public entry points; no
module under ``src/`` is edited.  Layer timings come from wrapping calls
into a layer's public functions (:func:`patched`) and recording the
wall-clock time of each call on a :class:`Recorder`.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import platform as _platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from pathlib import Path

import numpy as np

#: Root of the checkout the benchmark runs from (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent

#: How many times an untraced ``grid-cold`` run repeats its set-up (the
#: other workloads set up once per pass or burst); ``setup_s`` is the
#: median.
SETUP_REPEATS = 7

#: Probe ticks taken before and again after each set-up repetition.
SETUP_PROBES = 10

#: Modules a user imports to drive every workload (timed in a child
#: interpreter, so import cost is measured cold on every set-up).
IMPORTS = (
    "repro.api",
    "repro.service",
    "repro.bench.store",
    "repro.datagen.catalog",
    "repro.datagen.dynamic",
    "repro.platforms.vertex_centric.streaming",
    "repro.algorithms.reference",
)


def nproc() -> int:
    """CPUs this process may run on: the worker budget of every pool."""
    return len(os.sched_getaffinity(0))


# -- statistics ---------------------------------------------------------


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile of a non-empty sequence."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def sliced_percentile(samples, q: float, slices: int) -> float:
    """Median over ``slices`` consecutive slices of ``samples`` of each
    slice's ``q``-th percentile.

    On a shared host a stall of a few seconds inflates every percentile
    of the slices it touches; the median over slices keeps one stall
    from setting the run's figure, while a change that slows every
    operation moves every slice.
    """
    return median([
        percentile(part, q)
        for part in np.array_split(np.asarray(samples, dtype=np.float64),
                                   slices)
    ])


# -- host-speed probe ---------------------------------------------------

#: CPU seconds :func:`probe_tick` takes on the reference host (a shared
#: 2-vCPU x86_64 VM, Python 3.11, numpy 2.4, unloaded).  Every bounded
#: time is reported in seconds of that host: see :func:`speed_scale`.
PROBE_REFERENCE_S = 0.0025

_PROBE_KEYS = np.random.default_rng(0).integers(0, 50_000, 100_000)


def probe_tick() -> float:
    """CPU seconds this thread takes to run a fixed kernel.

    The kernel mixes interpreter work (a dict update loop) with numpy
    work (``bincount`` and ``sort`` of 100,000 keys), about 2.5 ms in
    all.  It is timed on the thread's own CPU clock, so time the thread
    spends waiting for the GIL or a core is not counted; what remains
    tracks how fast the host runs code right now.  On a shared host that
    speed drifts by tens of percent within a minute, and the drift moves
    every timing a run takes; the probe's time moves with it.
    """
    start = time.thread_time()
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    np.bincount(_PROBE_KEYS, minlength=50_000)
    np.sort(_PROBE_KEYS)
    return time.thread_time() - start


def cpu_ticks() -> tuple[int, int]:
    """``(busy, stolen)`` clock ticks of all the host's CPUs so far.

    Read from ``/proc/stat``: busy is user, nice, system, irq and softirq
    time; stolen is time a virtual CPU wanted to run while the hypervisor
    ran something else.  ``(0, 0)`` where the file cannot be read.
    """
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _, _, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def speed_scale(samples, ticks) -> float:
    """Factor that turns seconds measured over one phase into
    reference-host seconds.

    ``samples`` are the probe times taken among the phase's work and
    ``ticks`` the :func:`cpu_ticks` readings at its start and end.  The
    probe's CPU time tracks how fast the host runs code while it runs;
    the steal share between the readings is the time it did not run at
    all, which CPU time cannot see.  A time multiplied by this factor is
    what it would have read on the reference host with nothing stolen: a
    host-speed change moves the time and the probe alike and cancels,
    while a change to the program moves the time alone.
    """
    (busy0, stolen0), (busy1, stolen1) = ticks
    busy, stolen = busy1 - busy0, stolen1 - stolen0
    running = busy / (busy + stolen) if busy + stolen > 0 else 1.0
    return PROBE_REFERENCE_S * len(samples) / sum(samples) * running


class WorkerProbe:
    """Probe ticks and case times taken in pool worker processes.

    :meth:`targets` wraps ``CaseSpec.run`` (pool workers are forked, so
    they inherit the wrapper): each case is preceded by a probe tick and
    timed on its own, and each worker appends both times to a file of
    its own under a scratch directory; :meth:`collect` reads and clears
    them in the parent.
    """

    def __init__(self) -> None:
        self.root = work_dir("probe")

    def targets(self):
        """:func:`patched` targets that tick the probe before every case
        and time the case."""
        from repro.bench.runner import CaseSpec

        root = self.root

        def make(original):
            def run(spec):
                probe = probe_tick()
                start = time.perf_counter()
                try:
                    return original(spec)
                finally:
                    seconds = time.perf_counter() - start
                    with open(root / str(os.getpid()), "a") as out:
                        out.write(f"{probe!r} {seconds!r}\n")

            return run

        return [(CaseSpec, "run", make)]

    def collect(self) -> tuple[list[float], list[float]]:
        """``(probe times, case times)`` the workers wrote since the last
        collect."""
        probes, cases = [], []
        for path in sorted(self.root.iterdir()):
            for line in path.read_text().splitlines():
                probe, seconds = line.split()
                probes.append(float(probe))
                cases.append(float(seconds))
            path.unlink()
        return probes, cases


# -- environment --------------------------------------------------------


def _source_digest() -> str:
    """SHA-256 over every file under ``src/`` (paths and bytes).

    The checkout the benchmark runs in need not be a git repository, so
    the program version is identified by its source tree instead.
    """
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    """HEAD's commit id when the checkout is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(workload: str, seed: int, mode: str) -> dict:
    """The record every result carries: where and how it was measured."""
    return {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "nproc": nproc(),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": _platform.python_version(),
        "numpy": np.__version__,
        "machine": _platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- set-up -------------------------------------------------------------


def time_imports() -> float:
    """Seconds a fresh interpreter takes to import the public API."""
    code = "import " + ", ".join(IMPORTS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, timeout=120
    )
    return time.perf_counter() - start


def reset_caches() -> None:
    """Empty the session memo, dataset cache and kernel cache.

    Each run starts in a fresh process; resetting between repeated
    set-ups and measured phases keeps every repetition as cold as the
    first.
    """
    from repro.bench.runner import clear_case_cache
    from repro.datagen.catalog import clear_dataset_cache
    from repro.platforms.kernels import clear_kernel_cache

    clear_case_cache()
    clear_dataset_cache()
    clear_kernel_cache()


def timed_setups(build, repeats: int = SETUP_REPEATS):
    """Run ``build()`` ``repeats`` times from cold caches.

    Each repetition also times a cold import in a child interpreter.
    Returns the last repetition's state and every repetition's set-up
    time in reference-host seconds, scaled by probe ticks taken just
    before and after it (:func:`speed_scale`).

    Set-up ends, untimed, by moving every object alive so far into the
    collector's permanent generation: otherwise the harness's own inputs
    and records make each full collection in the measured phase rescan
    them, and the run's figures depend on how many such pauses it hits.
    """
    gc.unfreeze()
    gc.collect()
    times = []
    state = None
    for _ in range(repeats):
        if state is not None and hasattr(state, "close"):
            state.close()
        reset_caches()
        probes = [probe_tick() for _ in range(SETUP_PROBES)]
        ticks = cpu_ticks()
        imports = time_imports()
        start = time.perf_counter()
        state = build()
        seconds = imports + time.perf_counter() - start
        ticks = (ticks, cpu_ticks())
        probes += [probe_tick() for _ in range(SETUP_PROBES)]
        times.append(seconds * speed_scale(probes, ticks))
    gc.collect()
    gc.freeze()
    return state, times


# -- outside-in layer recording ----------------------------------------


class Recorder:
    """Thread-safe list of ``(name, seconds, attrs)`` timings.

    Wall-clock only: the benchmark never records simulated cost-model
    seconds here.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.records: list[tuple[str, float, dict]] = []

    def record(self, name: str, seconds: float, **attrs) -> None:
        """Append one timed call."""
        with self._lock:
            self.records.append((name, seconds, attrs))

    def select(self, name: str, **match) -> list[tuple[float, dict]]:
        """Records called ``name`` whose attrs include ``match``."""
        with self._lock:
            return [
                (sec, attrs) for n, sec, attrs in self.records
                if n == name
                and all(attrs.get(k) == v for k, v in match.items())
            ]

    def total_ms(self, name: str, **match) -> float:
        """Summed wall-clock milliseconds of matching records."""
        return 1000.0 * sum(sec for sec, _ in self.select(name, **match))

    def count(self, name: str, **match) -> int:
        """Number of matching records."""
        return len(self.select(name, **match))


def emit(recorder: Recorder, name: str, seconds: float, **attrs) -> None:
    """Record one timing, shipping it through the program's tracer when on.

    Pool workers run under the tracer the parent's traced session
    enables; a span recorded there travels back with the case outcome
    under the ``perfbench`` category and :func:`harvest_spans` moves it
    onto the recorder.  Elsewhere the timing goes onto the recorder
    directly.
    """
    from repro.obs import get_tracer

    tracer = get_tracer()
    if tracer.enabled:
        tracer.record_span(name, seconds, category="perfbench", **attrs)
    else:
        recorder.record(name, seconds, **attrs)


def harvest_spans(tracer, recorder: Recorder) -> int:
    """Move the benchmark's own spans from ``tracer`` onto ``recorder``.

    Only ``perfbench`` spans are wall-clock timings the benchmark took.
    The program's ``simulated`` spans hold cost-model seconds on another
    timebase and are dropped, as are its other spans.  Returns how many
    simulated spans were dropped.
    """
    dropped = 0
    for span in tracer.spans:
        if span.category == "perfbench":
            recorder.record(span.name, span.duration, **span.attrs)
        elif span.category == "simulated":
            dropped += 1
    return dropped


@contextlib.contextmanager
def patched(*targets):
    """Temporarily replace attributes: ``(owner, name, make_wrapper)``.

    ``make_wrapper(original)`` returns the replacement.  Originals are
    restored on exit, so untraced phases run the program unwrapped.
    """
    saved = []
    try:
        for owner, name, make_wrapper in targets:
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, make_wrapper(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def timing_wrapper(recorder: Recorder, name: str, attrs=None):
    """Wrapper factory for :func:`patched` that times every call.

    ``attrs(args, kwargs, result)``, when given, returns the attributes
    recorded with the call's timing (``result`` is None if it raised).
    """

    def make(original):
        def wrapper(*args, **kwargs):
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                seconds = time.perf_counter() - start
                emit(recorder, name, seconds,
                     **(attrs(args, kwargs, result) if attrs else {}))

        return wrapper

    return make


def datagen_targets(recorder: Recorder):
    """Wrap ``build_dataset`` where the runner and the admission
    preflight call it, noting whether the in-process cache answered.

    The cache hands back the very instance it built, so a call is a hit
    when its result was returned before in this process.
    """
    import repro.bench.runner as runner
    import repro.datagen.catalog as catalog

    returned = weakref.WeakValueDictionary()

    def hit(args, kwargs, dataset) -> dict:
        if dataset is None:  # the call raised
            return {"hit": False}
        seen = returned.get(id(dataset)) is dataset
        returned[id(dataset)] = dataset
        return {"hit": seen}

    make = timing_wrapper(recorder, "datagen.build", hit)
    return [(runner, "build_dataset", make), (catalog, "build_dataset", make)]


def datagen_metrics(recorder: Recorder) -> dict[str, float]:
    """``datagen.*`` per-layer metrics from recorded ``build_dataset`` calls."""
    calls = recorder.count("datagen.build")
    builds = recorder.count("datagen.build", hit=False)
    return {
        "datagen.build_ms": recorder.total_ms("datagen.build"),
        "datagen.builds": float(builds),
        "datagen.cache_hit_ratio": (calls - builds) / calls if calls else 0.0,
    }


#: This process's scratch directory; :func:`remove_work_dir` deletes it.
WORK_DIR = ROOT / ".perfbench_work" / str(os.getpid())


def work_dir(tag: str) -> Path:
    """A fresh, empty scratch directory inside the checkout."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_DIR))


def remove_work_dir() -> None:
    """Delete this process's scratch files (and their parent once empty)."""
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK_DIR.parent.rmdir()
