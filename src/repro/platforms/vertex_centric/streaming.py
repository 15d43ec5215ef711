"""PEval/IncEval streaming execution over the vertex-centric engine.

The paper's Grape personality (Section 8.2) distinguishes a *partial
evaluation* (PEval: run the batch algorithm on the initial fragment) from
*incremental evaluation* (IncEval: after a change, re-run only from the
affected frontier, reusing the batch compute body).  This module brings
that split to the streaming workload of :mod:`repro.datagen.dynamic`:

* :class:`StreamingSession` owns a :class:`~repro.core.delta.DeltaCSR`
  cursor, one warm :class:`BulkVertexProgram` instance, and an update
  log.  Window 0 is PEval — an ordinary cold
  :meth:`~repro.platforms.vertex_centric.engine.VertexCentricEngine.run`.
  Every later window applies its :class:`~repro.datagen.dynamic.EdgeBatch`
  to the overlay, seeds the engine with boundary messages derived from
  the genuinely-new edges, and resumes via
  :meth:`~repro.platforms.vertex_centric.engine.VertexCentricEngine.run_incremental`
  — pricing only the work the delta actually causes.

* SSSP and WCC need **no new program**: the existing
  :class:`~repro.platforms.vertex_centric.programs.SSSPProgram` /
  :class:`~repro.platforms.vertex_centric.programs.WCCHashMinProgram`
  ``compute_bulk`` bodies already implement monotone relaxation, so
  IncEval is just a seeded inbox entering at superstep 1 (both results
  are exact: edge insertions only lower distances / merge components).

* PageRank and LPA get delta-aware subclasses below
  (:class:`DeltaPageRankProgram`, :class:`DeltaLabelPropagationProgram`)
  whose *cold* run is the fair recompute baseline: the same program, the
  same convergence criterion, started from scratch.

Fault tolerance composes with the stream: the session checkpoints the
program's state every ``checkpoint_every`` windows and, when the
:class:`~repro.faults.FaultSchedule` crashes a window, recovers by
restoring the latest checkpoint and replaying the logged batches through
IncEval — deterministically, hence bit-identically (asserted by the
dynamic benchmark's crash leg).
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cost import NUM_PARTS, PricedRun, TraceRecorder, price_trace
from repro.cluster.spec import ClusterSpec
from repro.core.delta import DeltaCSR
from repro.core.graph import Graph
from repro.core.partition import hash_partition
from repro.datagen.dynamic import EdgeBatch
from repro.errors import PlatformError
from repro.faults.schedule import EMPTY_SCHEDULE, FaultSchedule
from repro.obs import get_tracer
from repro.obs.counters import (
    DELTA_EDGES_APPLIED,
    DELTA_FRONTIER_VERTICES,
    STREAM_WINDOWS,
)
from repro.platforms.profile import PlatformProfile, get_profile
from repro.platforms.vertex_centric.engine import (
    BulkInbox,
    VertexCentricEngine,
)
from repro.platforms.vertex_centric.programs import (
    LabelPropagationProgram,
    PageRankProgram,
    SSSPProgram,
    WCCHashMinProgram,
)

__all__ = [
    "DeltaPageRankProgram",
    "DeltaLabelPropagationProgram",
    "StreamingSession",
    "WindowResult",
    "STREAM_ALGORITHMS",
    "fingerprint",
]


def fingerprint(values: np.ndarray) -> str:
    """SHA-256 digest of a result array (dtype, shape, and raw bytes).

    Equal fingerprints mean bit-identical results.
    """
    arr = np.ascontiguousarray(values)
    digest = hashlib.sha256()
    digest.update(str(arr.dtype).encode())
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()


class DeltaPageRankProgram(PageRankProgram):
    """Delta-filtered push PageRank (no dangling redistribution).

    Each vertex remembers the per-edge contribution it last broadcast
    (``last_sent``); a superstep pushes only the *change* in contribution,
    and only from vertices whose pending mass ``|delta| * degree``
    exceeds ``prune``.  The wave dies out on its own — no iteration cap,
    no explicit activation — so a warm restart after a small edge batch
    quiesces in a handful of supersteps while a cold start must drain the
    whole graph's initial mass.

    At quiescence every vertex ``v`` holds
    ``ranks[v] = (1-d)/n + d * sum(ranks[u]/deg[u] for u in N(v))``
    to within the prune tolerance: the PageRank fixpoint without dangling
    redistribution (dangling vertices keep their base mass).  Warm and
    cold runs converge to the same fixpoint, so window parity is
    certified with an ``allclose`` whose bound the benchmark records.

    IncEval seeding (:meth:`StreamingSession._seed_pr`) injects each new
    edge's missing history — ``last_sent[u]`` delivered to ``v`` and vice
    versa — and activates the endpoints, whose degree change makes them
    re-broadcast a corrective delta to *all* their neighbours.
    """

    # Warm per-vertex state (last_sent) lives in one process; the
    # sharded bulk path must not split it.
    shard_safe = False

    def __init__(self, *, damping: float = 0.85, prune: float = 1e-9) -> None:
        super().__init__(damping=damping, iterations=0)
        self.prune = prune
        self.last_sent: np.ndarray | None = None

    def setup(self, graph: Graph) -> None:
        n = graph.num_vertices
        # Start from the base mass, not 1/n: the delta scheme adds
        # received contributions on top, so the initial value must be the
        # constant term of the fixpoint equation.
        self.ranks = np.full(n, (1.0 - self.damping) / n if n else 0.0)
        self.last_sent = np.zeros(n)
        self._degrees = graph.out_degrees()

    def refresh_graph(self, graph: Graph) -> None:
        """Adopt a new window's graph: only the degrees need updating
        (rank state carries over; the engine supplies the adjacency)."""
        self._degrees = graph.out_degrees()

    def compute(self, v, messages, ctx) -> None:  # pragma: no cover
        raise PlatformError(
            "DeltaPageRankProgram is bulk-only (delta filtering needs "
            "the array path)"
        )

    def compute_bulk(self, frontier, inbox, ctx) -> None:
        recv = inbox.destinations()
        if recv.size:
            self.ranks[recv] += (
                self.damping * inbox.sum_per_vertex()[recv]
            )
        deg = self._degrees[frontier].astype(np.float64)
        target = np.where(
            deg > 0,
            self.ranks[frontier] / np.maximum(deg, 1.0),
            0.0,
        )
        delta = target - self.last_sent[frontier]
        mass = np.abs(delta) * deg
        push = mass > self.prune
        senders = frontier[push]
        if senders.size:
            ctx.charge_bulk(senders, 1.0)
            ctx.send_to_neighbors_bulk(senders, delta[push])
            self.last_sent[senders] = target[push]
        # No activation: the program quiesces when no mass is left.


class DeltaLabelPropagationProgram(LabelPropagationProgram):
    """Pull-based synchronous LPA whose frontier shrinks as labels settle.

    Each superstep is one synchronous round: every frontier vertex pulls
    its neighbours' *current* labels, takes the modal label (min id on
    ties), and schedules exactly the vertices whose neighbour multiset
    changed — the neighbours of this round's changed set.  A vertex not
    scheduled would recompute the same label it already has, so the cold
    run is **exactly** the reference synchronous LPA, round for round,
    while pricing only the still-moving region (and IncEval restarts the
    same loop from an edge batch's endpoints).

    Rounds are capped at ``iterations`` per run, matching the benchmark
    setting; label oscillation (possible in synchronous LPA) therefore
    cannot loop forever.
    """

    # Pull-mode reads neighbour labels across the whole array; keep the
    # run in one process.
    shard_safe = False

    def compute(self, v, messages, ctx) -> None:  # pragma: no cover
        raise PlatformError(
            "DeltaLabelPropagationProgram is bulk-only (pull-mode "
            "needs the array path)"
        )

    def compute_bulk(self, frontier, inbox, ctx) -> None:
        graph = ctx.graph
        indptr = graph.indptr
        degrees = indptr[frontier + 1] - indptr[frontier]
        pullers = frontier[degrees > 0]
        if pullers.size == 0:
            return
        owner, nbrs, _ = ctx.expand_frontier(pullers)
        # Pulling costs the same hash-merging work the push form charges
        # at receivers: one op per gathered label.
        ctx.charge_bulk(
            pullers,
            self.hash_merge_factor
            * degrees[degrees > 0].astype(np.float64),
        )
        synth = BulkInbox(
            graph.num_vertices,
            dst=owner,
            values=self.labels[nbrs],
            counts=np.bincount(owner, minlength=graph.num_vertices),
        )
        best = self._modal_min_labels(synth)
        changed = pullers[best[pullers] != self.labels[pullers]]
        if changed.size == 0:
            return
        self.labels[changed] = best[changed]
        ctx.aggregate("changed", float(changed.size))
        if ctx.superstep + 1 < self.iterations:
            # Only vertices whose neighbour multiset moved can change
            # next round: the neighbours of this round's changed set.
            _, affected, _ = ctx.expand_frontier(changed)
            ctx.activate_bulk(affected)


#: Algorithms the streaming session can run, with their program factory.
STREAM_ALGORITHMS = ("pr", "sssp", "wcc", "lpa")


def _make_program(algorithm: str, **params):
    if algorithm == "pr":
        return DeltaPageRankProgram(
            damping=params.get("damping", 0.85),
            prune=params.get("prune", 1e-9),
        )
    if algorithm == "sssp":
        return SSSPProgram(source=params.get("source", 0))
    if algorithm == "wcc":
        return WCCHashMinProgram()
    if algorithm == "lpa":
        return DeltaLabelPropagationProgram(
            iterations=params.get("iterations", 10),
            hash_merge_factor=params.get("hash_merge_factor", 1.0),
        )
    raise PlatformError(
        f"streaming supports {STREAM_ALGORITHMS}, got {algorithm!r}"
    )


@dataclass(frozen=True)
class WindowResult:
    """What one stream window cost and produced."""

    window: int
    mode: str                   # "peval" | "inceval"
    new_edges: int              # genuinely-new undirected edges
    frontier_size: int          # delta-activated vertices seeded
    priced: PricedRun           # this window's metered work, priced
    supersteps: int
    recovered: bool = False     # crash injected and recovered this window
    recovery: PricedRun | None = None
    replayed_windows: int = 0


@dataclass
class _LogEntry:
    """Update log record: enough to re-derive a window's IncEval seeds."""

    pairs: tuple[np.ndarray, np.ndarray]
    frontier: np.ndarray
    graph: Graph = field(repr=False)


class StreamingSession:
    """One algorithm tracking one edge stream, window by window.

    ``process_window`` is the only mutator: apply the batch to the
    overlay, run PEval (window 0) or IncEval (later windows), meter and
    price the window, checkpoint on schedule, and — if the fault schedule
    crashes this window — lose the in-memory state and recover it from
    the last checkpoint plus the update log.

    The session prices each window on its own
    :class:`~repro.cluster.cost.TraceRecorder`, so windowed throughput
    (edges applied per priced second) falls straight out.
    """

    def __init__(
        self,
        num_vertices: int,
        algorithm: str,
        *,
        profile: PlatformProfile | None = None,
        cluster: ClusterSpec | None = None,
        parts: int = NUM_PARTS,
        checkpoint_every: int = 4,
        fault_schedule: FaultSchedule = EMPTY_SCHEDULE,
        **params,
    ) -> None:
        if algorithm not in STREAM_ALGORITHMS:
            raise PlatformError(
                f"streaming supports {STREAM_ALGORITHMS}, got {algorithm!r}"
            )
        if checkpoint_every < 1:
            raise PlatformError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.algorithm = algorithm
        self.profile = profile if profile is not None else get_profile("Flash")
        self.cluster = cluster if cluster is not None else ClusterSpec()
        self.parts = parts
        self.checkpoint_every = checkpoint_every
        self.params = params
        self.cursor = DeltaCSR(num_vertices=num_vertices)
        self.program = _make_program(algorithm, **params)
        self.window = -1            # last processed window index
        self._log: list[_LogEntry] = []
        #: window index -> deep-copied program state taken *after* that
        #: window was processed
        self._checkpoints: dict[int, dict] = {}
        #: windows the schedule crashes (MachineCrash.superstep is read
        #: as a stream-window index at this level)
        self._crash_windows = {c.superstep for c in fault_schedule.crashes}

    # -- results --------------------------------------------------------

    def values(self) -> np.ndarray:
        """The tracked result array (ranks / dist / labels)."""
        if self.algorithm == "pr":
            return self.program.ranks
        if self.algorithm == "sssp":
            return self.program.dist
        return self.program.labels

    def result_fingerprint(self) -> str:
        """Content hash of the tracked result (bit-exact comparisons)."""
        return fingerprint(self.values())

    # -- the PEval / IncEval loop --------------------------------------

    def _engine(self, graph: Graph, recorder: TraceRecorder):
        return VertexCentricEngine(
            graph,
            hash_partition(graph, self.parts),
            recorder,
            self.profile,
            mode="bulk",
        )

    def process_window(self, batch: EdgeBatch) -> WindowResult:
        """Fold one batch into the graph and bring the result current."""
        tracer = get_tracer()
        frontier = self.cursor.apply_batch(batch.src, batch.dst)
        pairs = self.cursor.last_applied
        graph = self.cursor.rebase()
        self.window += 1
        t = self.window
        self._log.append(
            _LogEntry(pairs=pairs, frontier=frontier, graph=graph)
        )

        recorder = TraceRecorder(self.parts)
        if t == 0:
            mode = "peval"
            self._run_peval(graph, recorder)
        else:
            mode = "inceval"
            self._run_inceval(
                self.program, graph, recorder, pairs, frontier
            )
        priced = price_trace(recorder.trace, self.cluster, self.profile.cost)

        tracer.add(DELTA_EDGES_APPLIED, int(pairs[0].size))
        tracer.add(DELTA_FRONTIER_VERTICES, int(frontier.size))
        tracer.add(STREAM_WINDOWS, 1)

        recovered = False
        recovery = None
        replayed = 0
        if t in self._crash_windows:
            recovery, replayed = self._recover(t)
            recovered = True

        if t % self.checkpoint_every == 0:
            self._checkpoints[t] = copy.deepcopy(self.program.__dict__)

        return WindowResult(
            window=t,
            mode=mode,
            new_edges=int(pairs[0].size),
            frontier_size=int(frontier.size),
            priced=priced,
            supersteps=recorder.trace.supersteps,
            recovered=recovered,
            recovery=recovery,
            replayed_windows=replayed,
        )

    def _run_peval(self, graph: Graph, recorder: TraceRecorder) -> None:
        engine = self._engine(graph, recorder)
        engine.run(self.program)

    def _run_inceval(
        self,
        program,
        graph: Graph,
        recorder: TraceRecorder,
        pairs: tuple[np.ndarray, np.ndarray],
        frontier: np.ndarray,
    ) -> None:
        """Seed and resume ``program`` on ``graph`` after an edge batch."""
        engine = self._engine(graph, recorder)
        if self.algorithm == "pr":
            program.refresh_graph(graph)
        active, inbox, start = self._seeds(program, graph, pairs, frontier)
        if inbox is not None and not inbox.empty:
            self._meter_ingest(recorder, graph, inbox)
        engine.run_incremental(
            program, active=active, inbox=inbox, start_superstep=start
        )

    def _seeds(self, program, graph, pairs, frontier):
        """Per-algorithm IncEval seed: (active, inbox, start_superstep)."""
        a, b = pairs
        n = graph.num_vertices
        if a.size == 0:
            return None, None, 1
        if self.algorithm == "pr":
            # Inject each new edge's missing contribution history; the
            # endpoints re-broadcast corrective deltas themselves.
            dst = np.concatenate([b, a])
            val = np.concatenate(
                [program.last_sent[a], program.last_sent[b]]
            )
            keep = val != 0.0
            dst, val = dst[keep], val[keep]
            inbox = self._raw_inbox(n, dst, val)
            return frontier, inbox, 1
        if self.algorithm == "sssp":
            dist = program.dist
            cand_b, cand_a = dist[a] + 1.0, dist[b] + 1.0
            dst = np.concatenate([b, a])
            val = np.concatenate([cand_b, cand_a])
            keep = np.isfinite(val) & (val < dist[dst])
            dst, val = dst[keep], val[keep]
            return None, self._raw_inbox(n, dst, val), 1
        if self.algorithm == "wcc":
            labels = program.labels
            la, lb = labels[a], labels[b]
            differ = la != lb
            dst = np.where(la[differ] < lb[differ], b[differ], a[differ])
            val = np.minimum(la[differ], lb[differ])
            return None, self._raw_inbox(n, dst, val), 1
        # lpa: the new edges change only the endpoints' neighbour
        # multisets — restart the pull rounds from them.
        return frontier, None, 0

    @staticmethod
    def _raw_inbox(n, dst, values) -> BulkInbox | None:
        if dst.size == 0:
            return None
        return BulkInbox(
            n,
            dst=dst,
            values=values,
            counts=np.bincount(dst, minlength=n),
        )

    def _meter_ingest(
        self, recorder: TraceRecorder, graph: Graph, inbox: BulkInbox
    ) -> None:
        """Charge the boundary-message injection as its own superstep.

        ``run_incremental`` meters everything *after* the seeds, but the
        seeds themselves model real shipped messages (a fragment telling
        its neighbours about new border edges), so the session prices
        them explicitly: one op per seeded message at the receiving part,
        bytes across a uniform source spread.
        """
        part = hash_partition(graph, self.parts).owner
        dst, _ = inbox.raw()
        recorder.begin_superstep()
        per_part = np.bincount(part[dst], minlength=self.parts)
        for p in np.nonzero(per_part)[0]:
            recorder.add_compute(int(p), float(per_part[p]))
            # Border edges arrive from another fragment: meter the bytes
            # across a part boundary, not as a local hop.
            recorder.add_message_block(
                int((p + 1) % self.parts),
                int(p),
                self.program.message_bytes * float(per_part[p]),
                count=int(per_part[p]),
            )
        recorder.end_superstep()

    # -- fault tolerance ------------------------------------------------

    def _recover(self, t: int) -> tuple[PricedRun, int]:
        """Crash at window ``t``: restore the newest checkpoint and replay
        the logged windows after it through IncEval."""
        base = max(
            (w for w in self._checkpoints if w <= t), default=None
        )
        if base is None:
            # No checkpoint yet: recompute from the stream's origin.
            self.program = _make_program(self.algorithm, **self.params)
            replay_from = 0
        else:
            self.program.__dict__.clear()
            self.program.__dict__.update(
                copy.deepcopy(self._checkpoints[base])
            )
            replay_from = base + 1
        recorder = TraceRecorder(self.parts)
        replayed = 0
        for w in range(replay_from, t + 1):
            entry = self._log[w]
            if w == 0:
                engine = self._engine(entry.graph, recorder)
                engine.run(self.program)
            else:
                self._run_inceval(
                    self.program,
                    entry.graph,
                    recorder,
                    entry.pairs,
                    entry.frontier,
                )
            replayed += 1
        priced = price_trace(recorder.trace, self.cluster, self.profile.cost)
        return priced, replayed

    # -- the recompute baseline ----------------------------------------

    def recompute_window(self, graph: Graph) -> tuple[PricedRun, np.ndarray]:
        """Cold full recomputation on ``graph`` — the per-window baseline.

        Runs a *fresh* instance of the same program to quiescence on its
        own recorder, so the comparison is one program, two execution
        strategies.  Returns the priced run and the result array.
        """
        program = _make_program(self.algorithm, **self.params)
        recorder = TraceRecorder(self.parts)
        engine = self._engine(graph, recorder)
        engine.run(program)
        priced = price_trace(recorder.trace, self.cluster, self.profile.cost)
        if self.algorithm == "pr":
            values = program.ranks
        elif self.algorithm == "sssp":
            values = program.dist
        else:
            values = program.labels
        return priced, values
