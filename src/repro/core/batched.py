"""Lockstep batched evaluation of K sibling candidates.

The speculative annealer (:mod:`repro.pisa.batch`) proposes K siblings of
the current instance per round — each differing from the parent by one
weight (:class:`repro.pisa.perturbations.Delta`).  This module evaluates
all K schedules *in lockstep*: the compiled tables of the siblings are
stacked into 3-D arrays (``exec[k, t, v]``, ``strength[k, u, v]``,
``data[k, t, s]``) and the scheduling loop runs once, performing each
round's selection / insertion-scan / commit for every sibling with a
handful of vectorized operations instead of ``K`` Python passes.

Three properties make this exact, not approximate:

* **Bit-identical arithmetic.**  Every float the lockstep loop produces
  is the same IEEE-754 operation, applied to the same operands, as the
  serial :class:`~repro.core.simulator.ScheduleBuilder` path: elementwise
  ``numpy`` arithmetic is the scalar op, and the only reductions involved
  (max-folds over predecessor arrivals, schedule ends, rank chains) are
  order-independent once NaN is excluded — which the batchability guard
  ensures.  The trajectory tests pin lockstep makespans against the
  serial schedulers bit-for-bit.
* **Push-based data-ready times.**  Instead of folding a task's
  predecessor arrivals when the task is scored (the serial builder's
  pull), each commit *pushes* ``end + data/strength[v, :]`` into its
  successors' data-ready rows.  Pushes always use the committing
  sibling's own tables, so per-sibling state never goes stale, and the
  max-fold's order-independence makes commit-order folding equal to the
  serial predecessor-order fold.
* **Dirty-cone prefix replay.**  A sibling's serial trajectory provably
  equals its parent's until the first round that *reads* the changed
  cell (for weight deltas: the round the perturbed task enters the ready
  set / its position in the priority order).  Below that bound the loop
  skips selection entirely and replays the parent's recorded decisions —
  commit bookkeeping and pushes only — which is why a one-cell delta
  re-simulates only its dirty cone.

Only schedulers with a lockstep kernel (:data:`SUPPORTED_SCHEDULERS`)
batch; the annealer falls back to serial evaluation for other pairs, for
structural moves, and for instances failing the finiteness guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.compiled import CompiledInstance

__all__ = [
    "SUPPORTED_SCHEDULERS",
    "pair_supported",
    "ParentContext",
    "SiblingTables",
    "SchedTrace",
    "SchedRecord",
    "BatchEval",
    "evaluate_batch",
]


# --------------------------------------------------------------------- #
# Structure artifacts (shared by a parent and all its delta clones)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Structure:
    """Shape-only arrays of one task graph, cached in ``shape_cache``."""

    pred_count: np.ndarray  # (T,) intp
    succ_pad: np.ndarray  # (T, S) intp, padded successor ids
    succ_mask: np.ndarray  # (T, S) bool
    succ_count: np.ndarray  # (T,) intp
    task_str_order: np.ndarray  # (T,) intp, task ids sorted by str(task)
    topo: tuple[int, ...]  # a valid topological order (Kahn)
    topo_index: np.ndarray  # (T,) intp, position in the lexicographic order


def _structure(compiled: CompiledInstance) -> _Structure:
    cache = compiled.shape_cache
    art = cache.get("lockstep")
    if art is not None:
        return art
    n_tasks = len(compiled.tasks)
    pred_count = np.array([len(p) for p in compiled.pred_ids], dtype=np.intp)
    width = max((len(s) for s in compiled.succ_ids), default=0) or 1
    succ_pad = np.zeros((n_tasks, width), dtype=np.intp)
    succ_mask = np.zeros((n_tasks, width), dtype=bool)
    for tid, succs in enumerate(compiled.succ_ids):
        for j, sid in enumerate(succs):
            succ_pad[tid, j] = sid
            succ_mask[tid, j] = True
    succ_count = np.array([len(s) for s in compiled.succ_ids], dtype=np.intp)
    task_str_order = np.array(
        sorted(range(n_tasks), key=lambda i: str(compiled.tasks[i])), dtype=np.intp
    )
    remaining = pred_count.tolist()
    frontier = [t for t in range(n_tasks) if remaining[t] == 0]
    topo: list[int] = []
    while frontier:
        tid = frontier.pop()
        topo.append(tid)
        for sid in compiled.succ_ids[tid]:
            remaining[sid] -= 1
            if remaining[sid] == 0:
                frontier.append(sid)
    topo_index = np.empty(n_tasks, dtype=np.intp)
    for i, task in enumerate(compiled.topological_order()):
        topo_index[compiled.task_id[task]] = i
    art = _Structure(
        pred_count=pred_count,
        succ_pad=succ_pad,
        succ_mask=succ_mask,
        succ_count=succ_count,
        task_str_order=task_str_order,
        topo=tuple(topo),
        topo_index=topo_index,
    )
    cache["lockstep"] = art
    return art


class ParentContext:
    """Per-compilation context for lockstep evaluation.

    Holds the value-dependent artifacts the shared ``shape_cache``
    cannot (delta clones share that cache but differ in weights): the
    dense ``(T, T)`` data matrix and the finiteness verdict gating
    batchability.  Built once per annealing parent / population member.
    """

    __slots__ = ("compiled", "structure", "data_mat", "batchable")

    def __init__(self, compiled: CompiledInstance) -> None:
        self.compiled = compiled
        self.structure = _structure(compiled)
        n_tasks = len(compiled.tasks)
        mat = np.zeros((n_tasks, n_tasks))
        for (sid, did), weight in compiled.data.items():
            mat[sid, did] = weight
        self.data_mat = mat
        # The lockstep loop's max-folds are order-independent only
        # without NaN.  Finite costs and data rule NaN out of the timing
        # tables (speeds/strengths are validated non-NaN at compile
        # time); finite inverse-speed/strength aggregates rule 0 * inf
        # out of the rank arithmetic.
        self.batchable = bool(
            np.isfinite(compiled.cost).all()
            and np.isfinite(mat).all()
            and math.isfinite(compiled._mean_inv_speed)
            and math.isfinite(compiled._inv_strength_sum)
        )


# --------------------------------------------------------------------- #
# Stacked sibling tables
# --------------------------------------------------------------------- #
class SiblingTables:
    """The compiled tables of K candidates stacked along a batch axis."""

    __slots__ = (
        "size",
        "exec_tbl",
        "strength",
        "data",
        "cost",
        "mean_inv_speed",
        "inv_strength_sum",
        "links_have_zero",
        "bound_tid",
    )

    def __init__(
        self,
        exec_tbl: np.ndarray,
        strength: np.ndarray,
        data: np.ndarray,
        cost: np.ndarray,
        mean_inv_speed: np.ndarray,
        inv_strength_sum: np.ndarray,
        links_have_zero: np.ndarray,
        bound_tid: np.ndarray,
    ) -> None:
        self.size = exec_tbl.shape[0]
        self.exec_tbl = exec_tbl
        self.strength = strength
        self.data = data
        self.cost = cost
        self.mean_inv_speed = mean_inv_speed
        self.inv_strength_sum = inv_strength_sum
        self.links_have_zero = links_have_zero
        #: Per-candidate dirty bound: the id of the task whose first read
        #: ends the replayable prefix (task-weight: the task itself;
        #: dep-weight: the edge head), or -1 when any round may read the
        #: change (node/link deltas, full members) -> prefix 0.
        self.bound_tid = bound_tid

    @classmethod
    def from_siblings(cls, ctx: ParentContext, clones: list, deltas: list) -> "SiblingTables":
        """Stack delta clones of one parent (the annealer's batch shape).

        ``clones[k]`` must be ``parent.apply_delta(deltas[k])``; tables
        are taken from the clones (bit-identity is inherited from
        ``apply_delta``), except the dense data matrix which is patched
        cell-wise from the parent's.
        """
        parent = ctx.compiled
        batch = len(clones)
        task_id = parent.task_id
        dep_ks = [
            (k, d) for k, d in enumerate(deltas) if d is not None and d.kind == "dep_weight"
        ]
        if dep_ks:
            data = np.repeat(ctx.data_mat[None], batch, axis=0)
            for k, d in dep_ks:
                sid, did = task_id[d.key[0]], task_id[d.key[1]]
                data[k, sid, did] = clones[k].data[(sid, did)]
        else:
            data = np.broadcast_to(ctx.data_mat, (batch,) + ctx.data_mat.shape)
        bound = np.full(batch, -1, dtype=np.intp)
        for k, d in enumerate(deltas):
            if d is None:
                continue
            if d.kind == "task_weight":
                bound[k] = task_id[d.key[0]]
            elif d.kind == "dep_weight":
                bound[k] = task_id[d.key[1]]
        return cls(
            exec_tbl=np.stack([c.exec_tbl for c in clones]),
            strength=np.stack([c.strength for c in clones]),
            data=data,
            cost=np.stack([c.cost for c in clones]),
            mean_inv_speed=np.array([c._mean_inv_speed for c in clones]),
            inv_strength_sum=np.array([c._inv_strength_sum for c in clones]),
            links_have_zero=np.array([c._links_have_zero for c in clones], dtype=bool),
            bound_tid=bound,
        )

    @classmethod
    def from_group(cls, contexts: list[ParentContext]) -> "SiblingTables":
        """Stack structure-identical full compilations (batch_energy's shape)."""
        members = [ctx.compiled for ctx in contexts]
        return cls(
            exec_tbl=np.stack([c.exec_tbl for c in members]),
            strength=np.stack([c.strength for c in members]),
            data=np.stack([ctx.data_mat for ctx in contexts]),
            cost=np.stack([c.cost for c in members]),
            mean_inv_speed=np.array([c._mean_inv_speed for c in members]),
            inv_strength_sum=np.array([c._inv_strength_sum for c in members]),
            links_have_zero=np.array([c._links_have_zero for c in members], dtype=bool),
            bound_tid=np.full(len(members), -1, dtype=np.intp),
        )

    def finite(self) -> bool:
        """Batchability of the stacked values (same rule as the parent's)."""
        return bool(
            np.isfinite(self.cost).all()
            and np.isfinite(self.data).all()
            and np.isfinite(self.mean_inv_speed).all()
            and np.isfinite(self.inv_strength_sum).all()
        )


# --------------------------------------------------------------------- #
# Traces and records
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SchedTrace:
    """One candidate's recorded trajectory, for next-round prefix replay."""

    chosen_t: np.ndarray  # (T,) task id committed per round
    chosen_v: np.ndarray  # (T,) node id committed per round
    ready_round: np.ndarray | None = None  # MinMin/MaxMin: first-ready round
    order: np.ndarray | None = None  # HEFT: priority order (== chosen_t)
    pos: np.ndarray | None = None  # HEFT: task id -> order position


@dataclass
class SchedRecord:
    """Lockstep output of one scheduler over a batch: makespans + traces."""

    makespans: np.ndarray  # (K,)
    chosen_t: np.ndarray  # (K, T)
    chosen_v: np.ndarray  # (K, T)
    ready_round: np.ndarray | None = None  # (K, T) for MinMin/MaxMin
    is_heft: bool = False

    def trace_for(self, k: int) -> SchedTrace:
        chosen_t = self.chosen_t[k].copy()
        chosen_v = self.chosen_v[k].copy()
        if self.is_heft:
            pos = np.empty(len(chosen_t), dtype=np.intp)
            pos[chosen_t] = np.arange(len(chosen_t))
            return SchedTrace(chosen_t=chosen_t, chosen_v=chosen_v, order=chosen_t, pos=pos)
        return SchedTrace(
            chosen_t=chosen_t, chosen_v=chosen_v, ready_round=self.ready_round[k].copy()
        )


@dataclass
class BatchEval:
    """Both schedulers' lockstep records over one batch."""

    target: SchedRecord
    baseline: SchedRecord

    def traces_for(self, k: int) -> tuple[SchedTrace, SchedTrace]:
        return self.target.trace_for(k), self.baseline.trace_for(k)


# --------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------- #
def _empty_record(batch: int, is_heft: bool) -> SchedRecord:
    shape = (batch, 0)
    return SchedRecord(
        makespans=np.zeros(batch),
        chosen_t=np.empty(shape, dtype=np.intp),
        chosen_v=np.empty(shape, dtype=np.intp),
        ready_round=None if is_heft else np.empty(shape, dtype=np.intp),
        is_heft=is_heft,
    )


def _push_scalar(drt, data_mat, strength, succ_ids, tid, vid, end) -> None:
    """Push commit ``(tid -> vid, end)`` into successor DRT rows, scalar task.

    ``end + data/strength[v, :]`` per successor — elementwise, the exact
    IEEE ops of the serial ``_drt_row`` fold; zero data short-circuits to
    ``end`` exactly as the serial ``np.maximum(row, end)`` branch.
    """
    if not succ_ids:
        return
    srow = strength[:, vid, :]  # (K, V)
    for sid in succ_ids:
        data = data_mat[:, tid, sid]  # (K,)
        with np.errstate(divide="ignore", invalid="ignore"):
            comm = data[:, None] / srow
        comm = np.where(data[:, None] == 0.0, 0.0, comm)
        np.maximum(drt[:, sid, :], end[:, None] + comm, out=drt[:, sid, :])


def _push_vector(drt, data_mat, strength, st: _Structure, ar, t_k, v_k, end) -> tuple:
    """Push per-candidate commits ``(t_k[k] -> v_k[k], end[k])``.

    Returns ``(kv, sv)`` fancy-index arrays of the pushed (candidate,
    successor) pairs per pad slot, for callers that also maintain
    ready-set bookkeeping.
    """
    srow = strength[ar, v_k, :]  # (K, V)
    pushed = []
    width = int(st.succ_count[t_k].max()) if len(t_k) else 0
    for j in range(width):
        valid = st.succ_mask[t_k, j]
        sid = st.succ_pad[t_k, j]
        data = data_mat[ar, t_k, sid]  # (K,)
        with np.errstate(divide="ignore", invalid="ignore"):
            comm = data[:, None] / srow
        comm = np.where(data[:, None] == 0.0, 0.0, comm)
        contrib = end[:, None] + comm  # (K, V)
        kv = ar[valid]
        sv = sid[valid]
        drt[kv, sv] = np.maximum(drt[kv, sv], contrib[valid])
        pushed.append((kv, sv))
    return pushed


# --------------------------------------------------------------------- #
# MinMin / MaxMin lockstep
# --------------------------------------------------------------------- #
def _minmax_lockstep(
    ctx: ParentContext, tables: SiblingTables, trace: SchedTrace | None, take_max: bool
) -> SchedRecord:
    parent = ctx.compiled
    st = ctx.structure
    n_tasks = len(parent.tasks)
    n_nodes = len(parent.nodes)
    batch = tables.size
    if n_tasks == 0:
        return _empty_record(batch, is_heft=False)

    exec_tbl = tables.exec_tbl  # (K, T, V)
    strength = tables.strength  # (K, V, V)
    data_mat = tables.data  # (K, T, T)
    node_order = parent.node_str_order
    torder = st.task_str_order
    ar = np.arange(batch)
    sign = -1.0 if take_max else 1.0

    drt = np.zeros((batch, n_tasks, n_nodes))
    remaining = np.repeat(st.pred_count[None], batch, axis=0)
    ready = remaining == 0
    ready_round = np.where(ready, 0, -1).astype(np.intp)
    avail = np.zeros((batch, n_nodes))
    end_t = np.zeros((batch, n_tasks))
    chosen_t = np.empty((batch, n_tasks), dtype=np.intp)
    chosen_v = np.empty((batch, n_tasks), dtype=np.intp)

    prefix = 0
    if trace is not None:
        bounds = np.where(tables.bound_tid >= 0, trace.ready_round[tables.bound_tid], 0)
        prefix = int(bounds.min())

    for rnd in range(n_tasks):
        if rnd < prefix:
            # Replay the parent's decision; only state upkeep runs.  The
            # dirty cell is unread by selection before `prefix`, so each
            # sibling's own choice provably equals the parent's.
            tid = int(trace.chosen_t[rnd])
            vid = int(trace.chosen_v[rnd])
            est_col = np.maximum(drt[:, tid, vid], avail[:, vid])
            end = est_col + exec_tbl[:, tid, vid]
            chosen_t[:, rnd] = tid
            chosen_v[:, rnd] = vid
            end_t[:, tid] = end
            avail[:, vid] = end
            ready[:, tid] = False
            srow = strength[:, vid, :]
            for sid in parent.succ_ids[tid]:
                data = data_mat[:, tid, sid]
                with np.errstate(divide="ignore", invalid="ignore"):
                    comm = data[:, None] / srow
                comm = np.where(data[:, None] == 0.0, 0.0, comm)
                np.maximum(drt[:, sid, :], end[:, None] + comm, out=drt[:, sid, :])
                remaining[:, sid] -= 1
                newly = remaining[:, sid] == 0
                ready[:, sid] = newly
                ready_round[newly, sid] = rnd + 1
            continue

        # est/eft for every (candidate, task, node); non-ready tasks are
        # scored on garbage-but-finite partial DRT rows and masked below.
        est = np.maximum(drt, avail[:, None, :])
        eft = est + exec_tbl
        # Node pick: gather columns in str(node) order, then first-min —
        # the (eft, str(node)) tie-break of the serial min().
        rows = eft[:, :, node_order]
        pos = rows.argmin(axis=2)
        mct = np.take_along_axis(rows, pos[:, :, None], axis=2)[:, :, 0]
        # Task pick: gather in str(task) order, mask non-ready with +inf,
        # first-min — the (sign * mct, str(task)) tie-break of min().
        ordered = (sign * mct)[:, torder]
        ready_ord = ready[:, torder]
        masked = np.where(ready_ord, ordered, np.inf)
        cpos = masked.argmin(axis=1)
        picked_ready = np.take_along_axis(ready_ord, cpos[:, None], axis=1)[:, 0]
        if not picked_ready.all():
            # Every ready MCT is +inf (MinMin only): the masked argmin
            # landed on a non-ready task; take the first ready instead.
            cpos = np.where(picked_ready, cpos, ready_ord.argmax(axis=1))
        t_k = torder[cpos]
        v_k = node_order[pos[ar, t_k]]
        end = mct[ar, t_k]  # == est + exec at the chosen cell

        chosen_t[:, rnd] = t_k
        chosen_v[:, rnd] = v_k
        end_t[ar, t_k] = end
        avail[ar, v_k] = end
        ready[ar, t_k] = False
        pushed = _push_vector(drt, data_mat, strength, st, ar, t_k, v_k, end)
        for kv, sv in pushed:
            remaining[kv, sv] -= 1
            newly = remaining[kv, sv] == 0
            knew, snew = kv[newly], sv[newly]
            ready[knew, snew] = True
            ready_round[knew, snew] = rnd + 1

    return SchedRecord(
        makespans=end_t.max(axis=1),
        chosen_t=chosen_t,
        chosen_v=chosen_v,
        ready_round=ready_round,
    )


# --------------------------------------------------------------------- #
# HEFT lockstep
# --------------------------------------------------------------------- #
def _heft_ranks(ctx: ParentContext, tables: SiblingTables) -> np.ndarray:
    """Upward ranks for every candidate, (K, T).

    The reverse-topological DP over per-candidate mean execution /
    communication times; rank values are independent of which valid
    topological order drives the DP, and the successor max-fold is
    order-independent without NaN, so every entry is bit-identical to
    the serial :func:`repro.schedulers.common.upward_rank`.
    """
    parent = ctx.compiled
    st = ctx.structure
    batch = tables.size
    n_tasks = len(parent.tasks)
    num_links = parent._num_links
    inv = tables.inv_strength_sum  # (K,)
    lhz = tables.links_have_zero  # (K,)
    mean_exec = tables.cost * tables.mean_inv_speed[:, None]  # (K, T)
    ranks = np.empty((batch, n_tasks))
    for tid in reversed(st.topo):
        part = None
        for sid in parent.succ_ids[tid]:
            if num_links == 0:
                mc = np.zeros(batch)
            else:
                data = tables.data[:, tid, sid]
                mc = np.where(
                    data == 0.0, 0.0, np.where(lhz, np.inf, data * inv / num_links)
                )
            val = mc + ranks[:, sid]
            part = val if part is None else np.maximum(part, val)
        if part is None:
            part = np.zeros(batch)
        ranks[:, tid] = mean_exec[:, tid] + part
    return ranks


def _heft_lockstep(
    ctx: ParentContext, tables: SiblingTables, trace: SchedTrace | None
) -> SchedRecord:
    parent = ctx.compiled
    st = ctx.structure
    n_tasks = len(parent.tasks)
    batch = tables.size
    if n_tasks == 0:
        return _empty_record(batch, is_heft=True)

    exec_tbl = tables.exec_tbl
    strength = tables.strength
    data_mat = tables.data
    ar = np.arange(batch)
    slot_idx = np.arange(n_tasks)

    ranks = _heft_ranks(ctx, tables)
    # Per-candidate priority order: sorted by (-rank, topo index) — the
    # stable lexsort with exact float keys matches Python's sorted().
    order = np.empty((batch, n_tasks), dtype=np.intp)
    neg = -ranks
    for k in range(batch):
        order[k] = np.lexsort((st.topo_index, neg[k]))

    prefix = 0
    if trace is not None:
        mismatch = order != trace.order[None, :]
        first = np.where(mismatch.any(axis=1), mismatch.argmax(axis=1), n_tasks)
        bounds = np.where(tables.bound_tid >= 0, trace.pos[tables.bound_tid], 0)
        prefix = int(np.minimum(first, bounds).min())

    drt = np.zeros((batch, n_tasks, len(parent.nodes)))
    starts = np.zeros((batch, len(parent.nodes), n_tasks))
    ends = np.zeros((batch, len(parent.nodes), n_tasks))
    count = np.zeros((batch, len(parent.nodes)), dtype=np.intp)
    node_max_end = np.zeros((batch, len(parent.nodes)))
    end_t = np.empty((batch, n_tasks))
    chosen_v = np.empty((batch, n_tasks), dtype=np.intp)

    for step in range(n_tasks):
        lim = max(step, 1)  # committed entries per node <= step
        if step < prefix:
            tid = int(trace.order[step])
            vid = int(trace.chosen_v[step])
            ready_col = drt[:, tid, vid]  # (K,)
            dur_col = exec_tbl[:, tid, vid]
            ends_v = ends[:, vid, :lim]
            pm = np.maximum.accumulate(ends_v, axis=1)
            gap_start = np.concatenate([np.zeros((batch, 1)), pm[:, :-1]], axis=1)
            cand = np.maximum(gap_start, ready_col[:, None])
            feas = (cand + dur_col[:, None] <= starts[:, vid, :lim]) & (
                slot_idx[None, :lim] < count[:, vid, None]
            )
            anyf = feas.any(axis=1)
            first_slot = feas.argmax(axis=1)
            est_slot = np.take_along_axis(cand, first_slot[:, None], axis=1)[:, 0]
            est = np.where(anyf, est_slot, np.maximum(node_max_end[:, vid], ready_col))
            end = est + dur_col
            ins = np.where(anyf, first_slot, count[:, vid])[:, None]
            srow = starts[:, vid, :]
            erow = ends[:, vid, :]
            s_prev = np.concatenate([np.zeros((batch, 1)), srow[:, :-1]], axis=1)
            e_prev = np.concatenate([np.zeros((batch, 1)), erow[:, :-1]], axis=1)
            idx = slot_idx[None, :]
            starts[:, vid, :] = np.where(
                idx < ins, srow, np.where(idx == ins, est[:, None], s_prev)
            )
            ends[:, vid, :] = np.where(
                idx < ins, erow, np.where(idx == ins, end[:, None], e_prev)
            )
            count[:, vid] += 1
            node_max_end[:, vid] = np.maximum(node_max_end[:, vid], end)
            end_t[:, tid] = end
            chosen_v[:, step] = vid
            _push_scalar(drt, data_mat, strength, parent.succ_ids[tid], tid, vid, end)
            continue

        t_k = order[:, step]  # (K,)
        ready_k = drt[ar, t_k, :]  # (K, V)
        dur_k = exec_tbl[ar, t_k, :]  # (K, V)
        # Insertion scan over all nodes at once: prefix-max of committed
        # ends (in start order) gives each gap's start; first feasible
        # gap or append — the serial _earliest_slot, vectorized.
        ends_s = ends[:, :, :lim]
        pm = np.maximum.accumulate(ends_s, axis=2)
        gap_start = np.concatenate([np.zeros((batch, ends_s.shape[1], 1)), pm[:, :, :-1]], axis=2)
        cand = np.maximum(gap_start, ready_k[:, :, None])
        feas = (cand + dur_k[:, :, None] <= starts[:, :, :lim]) & (
            slot_idx[None, None, :lim] < count[:, :, None]
        )
        anyf = feas.any(axis=2)
        first_slot = feas.argmax(axis=2)
        est_slot = np.take_along_axis(cand, first_slot[:, :, None], axis=2)[:, :, 0]
        est = np.where(anyf, est_slot, np.maximum(node_max_end, ready_k))  # (K, V)
        eft = est + dur_k
        v_k = eft.argmin(axis=1)  # first-min == serial argmin
        start = est[ar, v_k]
        end = eft[ar, v_k]
        ins = np.where(anyf[ar, v_k], first_slot[ar, v_k], count[ar, v_k])[:, None]
        srow = starts[ar, v_k, :]  # gather copies
        erow = ends[ar, v_k, :]
        s_prev = np.concatenate([np.zeros((batch, 1)), srow[:, :-1]], axis=1)
        e_prev = np.concatenate([np.zeros((batch, 1)), erow[:, :-1]], axis=1)
        idx = slot_idx[None, :]
        starts[ar, v_k, :] = np.where(
            idx < ins, srow, np.where(idx == ins, start[:, None], s_prev)
        )
        ends[ar, v_k, :] = np.where(idx < ins, erow, np.where(idx == ins, end[:, None], e_prev))
        count[ar, v_k] += 1
        node_max_end[ar, v_k] = np.maximum(node_max_end[ar, v_k], end)
        end_t[ar, t_k] = end
        chosen_v[:, step] = v_k
        _push_vector(drt, data_mat, strength, st, ar, t_k, v_k, end)

    return SchedRecord(
        makespans=end_t.max(axis=1), chosen_t=order, chosen_v=chosen_v, is_heft=True
    )


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
def _run_minmin(ctx, tables, trace):
    return _minmax_lockstep(ctx, tables, trace, take_max=False)


def _run_maxmin(ctx, tables, trace):
    return _minmax_lockstep(ctx, tables, trace, take_max=True)


_KERNELS = {
    "HEFT": _heft_lockstep,
    "MinMin": _run_minmin,
    "MaxMin": _run_maxmin,
}

#: Schedulers with a lockstep kernel; pairs outside this set evaluate
#: serially (the annealer's transparent fallback).
SUPPORTED_SCHEDULERS = frozenset(_KERNELS)


def pair_supported(target_name: str, baseline_name: str) -> bool:
    """Can a (target, baseline) pair evaluate through the lockstep kernels?"""
    return target_name in _KERNELS and baseline_name in _KERNELS


def evaluate_batch(
    ctx: ParentContext,
    tables: SiblingTables,
    target_name: str,
    baseline_name: str,
    traces: tuple[SchedTrace, SchedTrace] | None = None,
) -> BatchEval:
    """Run both schedulers' lockstep kernels over one stacked batch.

    ``traces``, when given, are the parent's recorded trajectories
    (target, baseline) enabling dirty-cone prefix replay; without them
    every round computes live (still batched).
    """
    target_rec = _KERNELS[target_name](ctx, tables, traces[0] if traces else None)
    baseline_rec = _KERNELS[baseline_name](ctx, tables, traces[1] if traces else None)
    return BatchEval(target=target_rec, baseline=baseline_rec)
