"""Edge-centric GAS engine (PowerGraph's Gather-Apply-Scatter model).

Edges — not vertices — are the unit of placement: each logical edge is
assigned to one of the 16 parts (a greedy vertex-cut), so load is
balanced even on power-law graphs (the design goal of PowerGraph).  A
vertex is *replicated* on every part holding one of its edges; one
replica is the master.

One GAS iteration of an active vertex ``v``:

1. **Gather** — every replica part folds the gather function over its
   local edges of ``v`` (ops = edges scanned) and sends its partial
   accumulator to the master (one message per non-master replica);
2. **Apply** — the master runs the apply function;
3. **Scatter** — if the value changed, the master broadcasts it back to
   the replicas (one message per non-master replica) and the scatter
   policy decides which neighbours activate next round.

The per-iteration replica synchronization is what makes PowerGraph's
scale-out middling in the paper's Table 11 — and it falls straight out
of this metering.

Two execution paths produce that metering:

* the **scalar path** runs every :class:`GASProgram` with per-vertex
  Python calls (gather per edge, apply per vertex);
* the **bulk path** runs :class:`BulkGASProgram` subclasses with numpy
  segment reductions over the placement's flat edge arrays — gather
  contributions for the whole frontier in one vectorized call, the
  per-``(vertex, part)`` message matrix from one ``np.bincount``, apply
  and scatter as boolean-mask array ops.

The two paths meter through the same :class:`TraceRecorder` sites and
produce **bit-identical WorkTraces**.  Three properties make that hold:

* partial accumulators fold into the apply accumulator in ascending
  part order on *both* paths (the canonical order; ``np.bincount``'s
  per-bin accumulation matches the scalar path's left-to-right
  adjacency-order sums);
* ``min`` gathers reduce exactly (order-free), so
  ``np.minimum.reduceat`` over contiguous frontier segments equals the
  scalar fold;
* message metering is additive, so emitting one ``count=k`` block per
  ``(src part, dst part)`` pair equals ``k`` scalar ``add_message``
  calls (``k * 8.0`` and ``k * 24.0`` are float-exact).

Bulk programs must gather *totally* (never return ``None`` for an
edge) and read a ``before_iteration`` snapshot rather than live state —
the engine charges one gather op per scanned edge on both paths.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.cluster.cost import TraceRecorder
from repro.core.graph import Graph
from repro.errors import ConvergenceError, PlatformError
from repro.obs import get_tracer
from repro.platforms.kernels import expand_segments, lexsorted_csr
from repro.platforms.profile import PlatformProfile

__all__ = [
    "GASProgram",
    "BulkGASProgram",
    "EdgeCentricEngine",
    "EdgePlacement",
]

_EMPTY = np.empty(0, dtype=np.int64)


class GASProgram:
    """Gather-Apply-Scatter program.

    Subclasses override the three phases.  ``gather`` folds one edge
    ``(u, v)`` into the accumulator for ``v``; ``merge`` combines partial
    accumulators; ``apply`` produces the new vertex value; ``scatter``
    returns ``True`` to activate the vertex's neighbours next iteration.
    """

    #: payload size of replica-sync and accumulator messages
    message_bytes: float = 8.0

    def setup(self, graph: Graph) -> None:
        """Allocate per-vertex state before iteration 0."""

    def initial_active(self, graph: Graph) -> Iterable[int]:
        """Vertices active in iteration 0 (default: all)."""
        return range(graph.num_vertices)

    def gather(self, u: int, v: int, weight: float):
        """Contribution of edge ``(u, v)`` to ``v``'s accumulator."""
        raise NotImplementedError

    def merge(self, a, b):
        """Combine two partial accumulators."""
        raise NotImplementedError

    def apply(self, v: int, acc) -> bool:
        """Consume the accumulator; return True if the value changed."""
        raise NotImplementedError

    def scatter(self, v: int) -> bool:
        """Whether a changed ``v`` activates its neighbours."""
        return True

    def before_iteration(self, iteration: int) -> Iterable[int] | None:
        """Master hook: extra vertices to activate this iteration."""
        return None

    def should_stop(self, iteration: int) -> bool:
        """Master hook: terminate after this many iterations."""
        return False


class BulkGASProgram(GASProgram):
    """A :class:`GASProgram` that also runs on the vectorized bulk path.

    The scalar hooks (``gather``/``merge``/``apply``) stay mandatory —
    they define the semantics and the parity baseline.  The bulk hooks
    express the same program over whole-frontier arrays:

    * ``gather_mode`` names the engine-side reduction combining per-edge
      contributions — ``"sum"`` (bincount partial sums folded in
      ascending part order), ``"min"`` (exact segment minimum), or
      ``"majority"`` (most frequent value, ties to the smallest —
      label-histogram programs);
    * :meth:`gather_bulk` maps the gather function over the frontier's
      expanded edge arrays in one call;
    * :meth:`apply_bulk` consumes the reduced accumulators for the whole
      frontier and returns the changed mask (the scalar ``apply`` return
      values, vectorized);
    * :meth:`scatter_bulk` returns the activation mask over the changed
      vertices (the scalar ``scatter`` results, vectorized).

    Bulk gathers must be *total*: every scanned edge contributes (the
    scalar ``gather`` never returns ``None``).  Programs whose gather
    skips edges (BFS, BC) stay on the scalar path.

    ``shard_safe`` opts the program into intra-case partition
    parallelism: it declares that :meth:`apply_bulk` writes per-vertex
    state only at ``vertices`` indexes and that scalar attributes are
    only ever set to values independent of which vertices a process
    handles (e.g. a ``changed`` flag) — so gather/apply/scatter over
    contiguous active slices in separate processes, merged in slice
    order, is bit-identical to one call.
    """

    #: engine-side reduction: "sum" | "min" | "majority"
    gather_mode: str = "sum"
    #: opt-in for intra-case partition parallelism (see class docstring)
    shard_safe: bool = False

    def gather_bulk(
        self, sources: np.ndarray, weights: np.ndarray | None
    ) -> np.ndarray:
        """Per-edge contributions for the expanded frontier edges.

        ``sources`` holds the gather neighbour of each scanned edge;
        ``weights`` the per-edge weights (``None`` on unweighted
        graphs, meaning weight 1.0).  Must be the vectorization of
        ``gather(u, v, w)`` — same values, same dtype.
        """
        raise NotImplementedError

    def apply_bulk(
        self,
        vertices: np.ndarray,
        acc: np.ndarray,
        gathered: np.ndarray,
    ) -> np.ndarray:
        """Vectorized apply over the frontier.

        ``acc`` holds the reduced accumulator per frontier vertex
        (meaningful only where ``gathered`` is True — elsewhere it is
        the mode's neutral fill, standing in for the scalar ``None``).
        Returns the boolean changed mask.
        """
        raise NotImplementedError

    def scatter_bulk(self, vertices: np.ndarray) -> np.ndarray:
        """Activation mask over the changed vertices (default: all)."""
        return np.ones(vertices.size, dtype=bool)


def _frontier_array(vertices) -> np.ndarray:
    """Normalize an iterable of vertex ids to a sorted unique int64 array."""
    if isinstance(vertices, np.ndarray):
        arr = vertices.astype(np.int64, copy=False)
    elif isinstance(vertices, range):
        arr = np.arange(
            vertices.start, vertices.stop, vertices.step, dtype=np.int64
        )
    else:
        arr = np.fromiter((int(v) for v in vertices), dtype=np.int64)
    return np.unique(arr)


def _greedy_vertex_cut(
    src: np.ndarray, dst: np.ndarray, n: int, parts: int, tiebreak: np.ndarray
) -> np.ndarray:
    """PowerGraph's greedy "oblivious" vertex-cut over logical edges.

    Prefer a part both endpoints already occupy, else any part either
    occupies, breaking ties toward the least-loaded (then lowest-id)
    part; a load cap keeps the greedy choice from collapsing onto one
    part.  Replica sets are int bitmasks (one bit per part), so the
    whole state is two flat arrays — no per-vertex sets.
    """
    m = int(src.shape[0])
    if m == 0:
        return np.empty(0, dtype=np.int64)
    if parts > 60:
        raise PlatformError(f"vertex-cut bitmask supports <= 60 parts, got {parts}")
    replica_mask = [0] * n
    load = [0] * parts
    chosen = [0] * m
    src_l, dst_l = src.tolist(), dst.tolist()
    tie_l = tiebreak.tolist()
    cap_step = 1.15 / parts

    def pick(mask: int, capacity: float) -> int:
        best, best_load = -1, capacity
        while mask:
            low = mask & -mask
            q = low.bit_length() - 1
            if load[q] < best_load:
                best, best_load = q, load[q]
            mask &= mask - 1
        return best

    capacity = 2.0
    for e in range(m):
        a, b = src_l[e], dst_l[e]
        ra, rb = replica_mask[a], replica_mask[b]
        capacity += cap_step  # = 1.15 * (e + 1) / parts + 2
        p = pick(ra & rb, capacity)
        if p < 0:
            p = pick(ra | rb, capacity)
        if p < 0:
            t = tie_l[e]
            p = t if load[t] < capacity else min(
                range(parts), key=load.__getitem__
            )
        chosen[e] = p
        bit = 1 << p
        replica_mask[a] = ra | bit
        replica_mask[b] = rb | bit
        load[p] += 1
    return np.asarray(chosen, dtype=np.int64)


class _CSRRows:
    """Indexable per-vertex view over a flat CSR (indptr, values) pair."""

    __slots__ = ("_indptr", "_values")

    def __init__(self, indptr: np.ndarray, values: np.ndarray) -> None:
        self._indptr = indptr
        self._values = values

    def __len__(self) -> int:
        return self._indptr.shape[0] - 1

    def __getitem__(self, v: int) -> np.ndarray:
        return self._values[self._indptr[v]:self._indptr[v + 1]]

    def __iter__(self):
        for v in range(len(self)):
            yield self[v]


class EdgePlacement:
    """Greedy vertex-cut over logical edges, stored as flat arrays.

    The gather adjacency is the graph's symmetric CSR replayed with a
    slot -> logical-edge mapping, so every adjacency slot knows the part
    its edge lives on:

    * ``indptr`` / ``adj`` / ``adj_part`` / ``adj_weight`` — per-vertex
      gather edges (neighbour id, owning part, weight) as one flat CSR;
    * ``replica_indptr`` / ``replica_flat`` — each vertex's replica
      parts, ascending, as a second CSR;
    * ``master`` — the master part per vertex (lowest replica part;
      ``v % parts`` for isolated vertices);
    * ``edge_part`` — the part of each logical edge.

    ``neighbors`` / ``neighbor_parts`` / ``replica_parts`` are indexable
    per-vertex views over those arrays.
    """

    def __init__(self, graph: Graph, parts: int, *, seed: int = 23) -> None:
        self.parts = parts
        n = graph.num_vertices
        rng = np.random.default_rng(seed)
        src, dst, weight = graph.edge_arrays()
        m = int(src.shape[0])
        tiebreak = rng.integers(0, parts, size=m)
        self.edge_part = _greedy_vertex_cut(src, dst, n, parts, tiebreak)

        # Replay the CSR construction (symmetrize, lexsort) so each
        # adjacency slot maps back to the logical edge it mirrors.
        eid = np.arange(m, dtype=np.int64)
        if graph.directed:
            all_src, all_dst, all_eid = src, dst, eid
            all_w = weight
        else:
            mirror = src != dst  # self-loops occupy a single slot
            all_src = np.concatenate([src, dst[mirror]])
            all_dst = np.concatenate([dst, src[mirror]])
            all_eid = np.concatenate([eid, eid[mirror]])
            all_w = (
                None if weight is None
                else np.concatenate([weight, weight[mirror]])
            )
        self.indptr, _, self.adj, eid_sorted, self.adj_weight = lexsorted_csr(
            all_src, all_dst, n, all_eid, all_w
        )
        self.adj_part = self.edge_part[eid_sorted] if m else _EMPTY
        counts = np.diff(self.indptr)

        # Replica CSR: the sorted unique (vertex, part) pairs.
        if m:
            owner = np.repeat(np.arange(n, dtype=np.int64), counts)
            keys = np.unique(owner * parts + self.adj_part)
            rep_v, rep_p = keys // parts, keys % parts
        else:
            rep_v, rep_p = _EMPTY, _EMPTY
        rep_counts = np.bincount(rep_v, minlength=n)
        self.replica_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(rep_counts, out=self.replica_indptr[1:])
        self.replica_flat = rep_p

        master = np.arange(n, dtype=np.int64) % parts if n else _EMPTY
        has_replicas = rep_counts > 0
        master[has_replicas] = rep_p[self.replica_indptr[:-1][has_replicas]]
        self.master = master

    @property
    def neighbors(self) -> _CSRRows:
        """Per-vertex gather neighbour arrays."""
        return _CSRRows(self.indptr, self.adj)

    @property
    def neighbor_parts(self) -> _CSRRows:
        """Per-vertex owning-part arrays, aligned with ``neighbors``."""
        return _CSRRows(self.indptr, self.adj_part)

    @property
    def replica_parts(self) -> _CSRRows:
        """Per-vertex ascending replica-part arrays."""
        return _CSRRows(self.replica_indptr, self.replica_flat)

    def replication_factor(self) -> float:
        """Average replicas per vertex (PowerGraph's lambda)."""
        n = self.indptr.shape[0] - 1
        return self.replica_flat.size / n if n else 0.0


class EdgeCentricEngine:
    """Iterative GAS executor with vertex-cut metering.

    ``mode`` selects the execution path: ``"auto"`` (default) takes the
    vectorized bulk path whenever the program implements it, ``"bulk"``
    forces it (raising :class:`~repro.errors.PlatformError` for
    scalar-only programs), and ``"scalar"`` forces the per-vertex path.
    """

    def __init__(
        self,
        graph: Graph,
        placement: EdgePlacement,
        recorder: TraceRecorder,
        profile: PlatformProfile,
        *,
        mode: str = "auto",
        intra_jobs: int = 1,
    ) -> None:
        if mode not in ("auto", "bulk", "scalar"):
            raise PlatformError(
                f"engine mode must be 'auto', 'bulk', or 'scalar'; got {mode!r}"
            )
        self.graph = graph
        self.placement = placement
        self.recorder = recorder
        self.profile = profile
        self.mode = mode
        self.intra_jobs = intra_jobs
        self.last_path: str | None = None

    def run(self, program: GASProgram, *, max_iterations: int = 100000) -> GASProgram:
        """Run ``program`` until no vertices are active."""
        bulk_capable = isinstance(program, BulkGASProgram)
        if self.mode == "scalar":
            use_bulk = False
        elif self.mode == "bulk":
            if not bulk_capable:
                raise PlatformError(
                    f"{type(program).__name__} has no bulk GAS path "
                    "(partial-gather programs run on the scalar path)"
                )
            use_bulk = True
        else:
            use_bulk = bulk_capable
        self.last_path = "bulk" if use_bulk else "scalar"
        shard_jobs = self._shard_jobs(program) if use_bulk else 1
        with get_tracer().span(
            f"edge-centric/{type(program).__name__}",
            category="engine",
            path=self.last_path,
        ):
            if use_bulk:
                if shard_jobs > 1:
                    from repro.platforms.parallel.edge import (
                        run_bulk_sharded_gas,
                    )
                    return run_bulk_sharded_gas(
                        self, program, max_iterations, shard_jobs
                    )
                return self._run_bulk(program, max_iterations)
            return self._run_scalar(program, max_iterations)

    def _shard_jobs(self, program: GASProgram) -> int:
        """Shard count for this run: >1 only for ``shard_safe`` programs
        with no fault injection and a slot budget granting more than one
        process; 1 keeps the in-process bulk path (same results, same
        ``last_path``)."""
        if (
            not getattr(program, "shard_safe", False)
            or self.recorder.faults is not None
        ):
            return 1
        from repro.platforms.parallel.config import effective_intra_jobs

        jobs = min(
            effective_intra_jobs(self.intra_jobs),
            max(1, self.graph.num_vertices),
        )
        return jobs if jobs >= 2 else 1

    # ------------------------------------------------------------------
    # Scalar path
    # ------------------------------------------------------------------

    def _run_scalar(self, program: GASProgram, max_iterations: int) -> GASProgram:
        graph, rec, placement = self.graph, self.recorder, self.placement
        tracer = get_tracer()
        parts = rec.parts
        program.setup(graph)
        active = _frontier_array(program.initial_active(graph))
        indptr, adj = placement.indptr, placement.adj
        adj_part, adj_weight = placement.adj_part, placement.adj_weight
        rep_indptr, rep_flat = placement.replica_indptr, placement.replica_flat
        masters = placement.master

        faults = rec.faults
        if faults is not None:
            def _capture() -> tuple:
                return (program.__dict__, active)

            faults.start_section(_capture)
        try:
            iteration = 0
            while iteration < max_iterations:
                if faults is not None:
                    faults.checkpoint_if_due(iteration)
                extra = program.before_iteration(iteration)
                if extra is not None:
                    active = np.union1d(active, _frontier_array(extra))
                if active.size == 0 or program.should_stop(iteration):
                    return program
                with tracer.span("gas-iteration", category="superstep",
                                 index=iteration, active=int(active.size)):
                    rec.begin_superstep()
                    step_ops = np.zeros(parts)
                    activation: list[np.ndarray] = []

                    for v in active.tolist():
                        lo, hi = int(indptr[v]), int(indptr[v + 1])
                        master = int(masters[v])

                        # Gather: fold each replica's local edges; partial
                        # accs travel replica -> master.
                        acc = None
                        if hi > lo:
                            neighbors = adj[lo:hi]
                            nparts = adj_part[lo:hi]
                            partials: dict[int, object] = {}
                            for idx, u in enumerate(neighbors.tolist()):
                                p = int(nparts[idx])
                                w = (float(adj_weight[lo + idx])
                                     if adj_weight is not None else 1.0)
                                g = program.gather(int(u), v, w)
                                if g is None:
                                    continue
                                prev = partials.get(p)
                                partials[p] = (
                                    g if prev is None
                                    else program.merge(prev, g)
                                )
                                step_ops[p] += 1.0
                            # Ascending part order is the canonical fold
                            # order (the bulk path's, hence the parity).
                            for p in sorted(partials):
                                if p != master:
                                    rec.add_message(p, master,
                                                    program.message_bytes)
                                partial = partials[p]
                                acc = (partial if acc is None
                                       else program.merge(acc, partial))

                        # Apply at the master.
                        step_ops[master] += 1.0
                        changed = program.apply(v, acc)

                        # Scatter: replica sync + neighbour activation.
                        if changed:
                            rlo = int(rep_indptr[v])
                            rhi = int(rep_indptr[v + 1])
                            for p in rep_flat[rlo:rhi].tolist():
                                if p != master:
                                    rec.add_message(master, p,
                                                    program.message_bytes)
                            if program.scatter(v):
                                activation.append(adj[lo:hi])

                    for p in range(parts):
                        if step_ops[p]:
                            rec.add_compute(p, float(step_ops[p]))
                    rec.end_superstep()
                    active = (np.unique(np.concatenate(activation))
                              if activation else _EMPTY)

                if faults is not None:
                    target = faults.after_superstep(iteration)
                    if target is not None:
                        # Crash at this barrier: restore the checkpoint
                        # and re-execute the lost iterations for real.
                        prog_state, active = faults.rollback()
                        program.__dict__.clear()
                        program.__dict__.update(prog_state)
                        iteration = target
                        continue
                iteration += 1
        finally:
            if faults is not None:
                faults.end_section()

        raise ConvergenceError(
            f"{type(program).__name__} did not quiesce within "
            f"{max_iterations} GAS iterations"
        )

    # ------------------------------------------------------------------
    # Bulk path
    # ------------------------------------------------------------------

    def _run_bulk(
        self, program: BulkGASProgram, max_iterations: int
    ) -> BulkGASProgram:
        graph, rec, placement = self.graph, self.recorder, self.placement
        tracer = get_tracer()
        parts = rec.parts
        program.setup(graph)
        active = _frontier_array(program.initial_active(graph))
        indptr, adj = placement.indptr, placement.adj
        adj_part, adj_weight = placement.adj_part, placement.adj_weight
        rep_indptr, rep_flat = placement.replica_indptr, placement.replica_flat
        masters_all = placement.master
        mode = program.gather_mode
        if mode not in ("sum", "min", "majority"):
            raise PlatformError(f"unknown bulk gather mode {mode!r}")
        mbytes = program.message_bytes

        faults = rec.faults
        if faults is not None:
            def _capture() -> tuple:
                return (program.__dict__, active)

            faults.start_section(_capture)
        try:
            iteration = 0
            while iteration < max_iterations:
                if faults is not None:
                    faults.checkpoint_if_due(iteration)
                extra = program.before_iteration(iteration)
                if extra is not None:
                    active = np.union1d(active, _frontier_array(extra))
                if active.size == 0 or program.should_stop(iteration):
                    return program
                with tracer.span("gas-iteration", category="superstep",
                                 index=iteration, active=int(active.size)):
                    rec.begin_superstep()
                    step_ops = np.zeros(parts)
                    front = active.size

                    # Gather: expand the frontier's adjacency segments and
                    # evaluate every edge contribution in one call.
                    slots, dst_pos, counts = expand_segments(indptr, active)
                    sources = adj[slots]
                    edge_parts = adj_part[slots]
                    weights = None if adj_weight is None else adj_weight[slots]
                    masters = masters_all[active]
                    contrib = program.gather_bulk(sources, weights)
                    step_ops += np.bincount(edge_parts, minlength=parts)

                    # Partial-accumulator messages: one per touched
                    # (vertex, part) pair whose part is not the master.
                    pair = np.bincount(
                        dst_pos * parts + edge_parts, minlength=front * parts
                    ).reshape(front, parts)
                    vpos, touched_part = np.nonzero(pair)
                    remote = touched_part != masters[vpos]
                    self._emit_messages(
                        touched_part[remote], masters[vpos[remote]], mbytes
                    )

                    gathered = counts > 0
                    acc = _reduce_contributions(
                        mode, contrib, dst_pos, edge_parts, counts,
                        front, parts, graph.num_vertices,
                    )

                    # Apply at the masters.
                    step_ops += np.bincount(masters, minlength=parts)
                    changed = program.apply_bulk(active, acc, gathered)

                    # Scatter: replica sync + neighbour activation.
                    activation = _EMPTY
                    changed_vs = active[changed]
                    if changed_vs.size:
                        rslots, rpos, _ = expand_segments(
                            rep_indptr, changed_vs
                        )
                        rep_parts = rep_flat[rslots]
                        rep_masters = masters_all[changed_vs][rpos]
                        sync = rep_parts != rep_masters
                        self._emit_messages(
                            rep_masters[sync], rep_parts[sync], mbytes
                        )
                        seeds = changed_vs[program.scatter_bulk(changed_vs)]
                        if seeds.size:
                            aslots, _, _ = expand_segments(indptr, seeds)
                            activation = np.unique(adj[aslots])

                    for p in range(parts):
                        if step_ops[p]:
                            rec.add_compute(p, float(step_ops[p]))
                    rec.end_superstep()
                    active = activation

                if faults is not None:
                    target = faults.after_superstep(iteration)
                    if target is not None:
                        prog_state, active = faults.rollback()
                        program.__dict__.clear()
                        program.__dict__.update(prog_state)
                        iteration = target
                        continue
                iteration += 1
        finally:
            if faults is not None:
                faults.end_section()

        raise ConvergenceError(
            f"{type(program).__name__} did not quiesce within "
            f"{max_iterations} GAS iterations"
        )

    def _emit_messages(
        self, src_parts: np.ndarray, dst_parts: np.ndarray, nbytes: float
    ) -> None:
        """Meter a batch of messages as per-(src, dst) count blocks."""
        if not src_parts.size:
            return
        parts = self.recorder.parts
        matrix = np.bincount(
            src_parts * parts + dst_parts, minlength=parts * parts
        )
        for key in np.nonzero(matrix)[0].tolist():
            self.recorder.add_message(
                key // parts, key % parts, nbytes, count=int(matrix[key])
            )


def _reduce_contributions(
    mode: str,
    contrib: np.ndarray,
    dst_pos: np.ndarray,
    edge_parts: np.ndarray,
    counts: np.ndarray,
    front: int,
    parts: int,
    num_vertices: int,
) -> np.ndarray:
    """Reduce per-edge contributions to one accumulator per frontier slot.

    ``contrib[i]`` belongs to frontier position ``dst_pos[i]`` via the
    part ``edge_parts[i]``; ``counts`` are the per-position segment
    lengths (contributions of one position are contiguous).
    """
    if mode == "sum":
        # Per-(vertex, part) partial sums accumulate in adjacency order
        # (bincount is sequential per bin), then fold across parts in
        # ascending order — both exactly as the scalar path does, so
        # float sums match bit-for-bit.  Untouched partials are 0.0,
        # which is additively invisible to the fold.
        partial = np.bincount(
            dst_pos * parts + edge_parts,
            weights=contrib,
            minlength=front * parts,
        ).reshape(front, parts)
        acc = partial[:, 0].copy()
        for q in range(1, parts):
            acc += partial[:, q]
        return acc
    if mode == "min":
        # Min is an exact reduction — fold order is irrelevant, so one
        # segmented minimum equals the scalar per-part fold.
        if np.issubdtype(contrib.dtype, np.floating):
            fill = np.inf
        else:
            fill = np.iinfo(contrib.dtype).max
        acc = np.full(front, fill, dtype=contrib.dtype)
        nonempty = counts > 0
        if contrib.size:
            # Consecutive non-empty segment starts are contiguous, so
            # reduceat's implicit segment ends line up exactly.
            starts = (np.cumsum(counts) - counts)[nonempty]
            acc[nonempty] = np.minimum.reduceat(contrib, starts)
        return acc
    # "majority": most frequent contribution per vertex, ties to the
    # smallest value — the scalar label-histogram apply, vectorized.
    acc = np.full(front, -1, dtype=np.int64)
    if contrib.size:
        span = np.int64(max(1, num_vertices))
        keys, key_counts = np.unique(
            dst_pos * span + contrib, return_counts=True
        )
        key_pos, key_val = keys // span, keys % span
        order = np.lexsort((key_val, -key_counts, key_pos))
        pos_sorted = key_pos[order]
        first = np.ones(pos_sorted.size, dtype=bool)
        first[1:] = pos_sorted[1:] != pos_sorted[:-1]
        acc[pos_sorted[first]] = key_val[order][first]
    return acc
