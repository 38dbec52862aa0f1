"""Execution semantics shared by every scheduler and by PISA.

This module is the *substrate simulator*: it encodes, in one place, how
long tasks take, when data arrives, and when a task may start on a node
given previously committed decisions.  Schedulers are thin policies on top
of :class:`ScheduleBuilder`; because they all share these semantics, their
makespans are directly comparable (the property the paper's makespan-ratio
metric relies on).

Conventions
-----------
* ``exec_time(t, v) = c(t) / s(v)`` (related machines, Section II).
* ``comm_time`` over a link of strength 0 is infinite unless the data size
  is 0; over an infinite-strength link (or node-to-itself) it is 0.
* Start times may therefore be infinite.  An infinite makespan simply means
  "this scheduler routed positive data over a dead link"; makespan ratios
  treat it as an arbitrarily-bad outcome (the ``> 1000`` cells of Fig. 4).

The builder runs on the array-compiled instance kernel
(:mod:`repro.core.compiled`): timing tables are integer-indexed numpy
arrays compiled once per instance and shared by every builder over it,
and the batch queries (:meth:`ScheduleBuilder.est_all` /
:meth:`~ScheduleBuilder.eft_all`) score **all** nodes of a task in one
vectorized sweep.  Results are bit-identical to the scalar dict-based
builder this replaced (frozen as
:class:`repro.core.reference.ReferenceScheduleBuilder` and pinned by
``tests/test_compiled.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Hashable, Iterable

import numpy as np

from repro.core.compiled import compile_instance
from repro.core.exceptions import SchedulingError
from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule, ScheduledTask

__all__ = [
    "exec_time",
    "comm_time",
    "mean_exec_time",
    "mean_comm_time",
    "ScheduleBuilder",
]

Task = Hashable
Node = Hashable


def exec_time(instance: ProblemInstance, task: Task, node: Node) -> float:
    """Execution time ``c(t) / s(v)`` of ``task`` on ``node``."""
    return instance.task_graph.cost(task) / instance.network.speed(node)


def comm_time(
    instance: ProblemInstance, src_task: Task, dst_task: Task, src_node: Node, dst_node: Node
) -> float:
    """Communication time of dependency ``(src_task, dst_task)`` across a link.

    Zero when both tasks run on the same node, when the data size is zero,
    or when the link strength is infinite; infinite when positive data must
    cross a zero-strength link.
    """
    if src_node == dst_node:
        return 0.0
    data = instance.task_graph.data_size(src_task, dst_task)
    if data == 0.0:
        return 0.0
    strength = instance.network.strength(src_node, dst_node)
    if strength == 0.0:
        return math.inf
    if math.isinf(strength):
        return 0.0
    return data / strength


def mean_exec_time(instance: ProblemInstance, task: Task) -> float:
    """Average execution time of ``task`` over all nodes (HEFT's ``w̄``)."""
    nodes = instance.network.nodes
    inv = sum(1.0 / instance.network.speed(v) for v in nodes) / len(nodes)
    return instance.task_graph.cost(task) * inv


def mean_comm_time(instance: ProblemInstance, src_task: Task, dst_task: Task) -> float:
    """Average communication time of a dependency over distinct node pairs.

    ``c(t,t') * avg_{u != v} 1/s(u,v)``; infinite-strength links contribute
    zero inverse strength, so a shared-filesystem network yields 0.  A
    single-node network also yields 0 (no transfer ever happens).
    """
    links = instance.network.links
    if not links:
        return 0.0
    data = instance.task_graph.data_size(src_task, dst_task)
    if data == 0.0:
        return 0.0
    inv = 0.0
    for u, v in links:
        s = instance.network.strength(u, v)
        if s == 0.0:
            return math.inf
        if not math.isinf(s):
            inv += 1.0 / s
    return data * inv / len(links)


class ScheduleBuilder:
    """Incremental schedule construction with shared timing semantics.

    A scheduler interacts with the builder in rounds: query earliest start /
    finish times of candidate (task, node) placements, then ``commit`` one.
    The builder enforces that a task is only committed after all of its
    predecessors, tracks the ready set, and finally materializes a
    :class:`~repro.core.schedule.Schedule`.

    Parameters
    ----------
    instance:
        The problem instance being scheduled, or its
        :class:`~repro.core.compiled.CompiledInstance` (a PISA candidate
        is only ever a delta-compiled table set).
    insertion:
        If True (default), ``est`` searches idle gaps between already
        committed tasks on a node (HEFT's insertion-based policy); if
        False, tasks are appended after the node's last committed task
        (the non-insertion policy of MCT, ETF, FCP, ...).

    The builder's timing tables come from the shared
    :class:`~repro.core.compiled.CompiledInstance` kernel: one compilation
    per instance, reused across builders (PISA's energy schedules every
    candidate twice; a whole genetic population's elites re-schedule every
    generation).  The instance must therefore not be mutated while a
    builder is live — PISA's perturbations already operate on copies, and
    schedulers build-and-discard.  (Mutation *between* builds is safe: the
    compile cache is keyed on the graphs' mutation counters.)

    Batch queries — :meth:`est_all`, :meth:`eft_all`,
    :meth:`node_available_all` — return float64 arrays aligned with
    ``instance.network.nodes`` and are bit-identical, element for element,
    to the corresponding scalar query.
    """

    def __init__(self, instance: ProblemInstance, insertion: bool = True) -> None:
        compiled = compile_instance(instance)  # validates on first compile
        self.instance = instance
        self.insertion = insertion
        self.compiled = compiled
        self._tasks: tuple[Task, ...] = compiled.tasks
        self._nodes: tuple[Node, ...] = compiled.nodes
        self._task_id = compiled.task_id
        self._node_id = compiled.node_id
        self._exec_list = compiled.exec_list
        self._entries: dict[Node, list[ScheduledTask]] = {v: [] for v in self._nodes}
        self._placed: dict[Task, ScheduledTask] = {}
        self._remaining_preds: dict[Task, int] = {
            t: len(ps) for t, ps in zip(self._tasks, compiled.pred_ids)
        }
        #: Sorted task ids of the current ready set (insertion order ==
        #: id order, so the incremental list reproduces the full rescan).
        self._ready_ids: list[int] = [
            tid for tid, ps in enumerate(compiled.pred_ids) if not ps
        ]
        #: entry ids of placed tasks, by task id (None while unplaced).
        self._placed_vid: list[int | None] = [None] * len(self._tasks)
        #: Finish time of the last committed task per node id.
        self._avail = np.zeros(len(self._nodes))
        #: Memoized data-ready rows, by task id (immutable once computed).
        self._drt_rows: dict[int, np.ndarray] = {}
        self._makespan = 0.0

    # ------------------------------------------------------------------ #
    # Memoized timing primitives (semantics of exec_time / comm_time)
    # ------------------------------------------------------------------ #
    def _exec_time(self, task: Task, node: Node) -> float:
        tid = self._task_id.get(task)
        vid = self._node_id.get(node)
        if tid is None or vid is None:
            # Unknown task/node: defer to the reference path for its error.
            return exec_time(self._fallback_instance((task,), (node,)), task, node)
        return self._exec_list[tid][vid]

    def _comm_time(self, src_task: Task, dst_task: Task, src_node: Node, dst_node: Node) -> float:
        try:
            return self.compiled.comm(
                self._task_id[src_task],
                self._task_id[dst_task],
                self._node_id[src_node],
                self._node_id[dst_node],
            )
        except KeyError:
            # Unknown dependency/link: defer for the proper error.
            instance = self._fallback_instance((src_task, dst_task), (src_node, dst_node))
            return comm_time(instance, src_task, dst_task, src_node, dst_node)

    def _fallback_instance(self, tasks: tuple, nodes: tuple = ()) -> ProblemInstance:
        """The instance a query with an unknown key falls back to.

        The reference functions raise the canonical error for it; an
        unbound compilation (a PISA candidate) has no instance, so name
        the first unknown task, node or dependency here instead.
        """
        instance = self.compiled.instance
        if instance is not None:
            return instance
        for task in tasks:
            if task not in self._task_id:
                raise SchedulingError(f"unknown task {task!r}")
        for node in nodes:
            if node not in self._node_id:
                raise SchedulingError(f"unknown node {node!r}")
        raise SchedulingError(f"unknown dependency {tasks[0]!r}->{tasks[1]!r}")

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def scheduled_tasks(self) -> tuple[Task, ...]:
        return tuple(self._placed)

    @property
    def unscheduled_tasks(self) -> tuple[Task, ...]:
        return tuple(t for t in self._tasks if t not in self._placed)

    def is_scheduled(self, task: Task) -> bool:
        return task in self._placed

    def ready_tasks(self) -> list[Task]:
        """Unscheduled tasks whose predecessors are all scheduled.

        Order matches task-graph insertion order, so iteration is
        deterministic.  Maintained incrementally by :meth:`commit` (no
        full rescan per round).
        """
        tasks = self._tasks
        return [tasks[tid] for tid in self._ready_ids]

    def placement(self, task: Task) -> ScheduledTask:
        """The committed entry for ``task`` (raises if not yet committed)."""
        try:
            return self._placed[task]
        except KeyError:
            raise SchedulingError(f"task {task!r} has not been scheduled yet") from None

    def node_available(self, node: Node) -> float:
        """Finish time of the last committed task on ``node`` (0.0 if idle)."""
        entries = self._entries[node]
        return entries[-1].end if entries else 0.0

    def node_available_all(self) -> np.ndarray:
        """Per-node finish times of the last committed tasks.

        Aligned with ``instance.network.nodes``.  A live, read-only view:
        it reflects subsequent commits, so callers must not mutate it.
        """
        return self._avail

    @property
    def nodes(self) -> tuple[Node, ...]:
        """The network's nodes, in the order every batch query follows."""
        return self._nodes

    @property
    def node_str_order(self) -> np.ndarray:
        """Rank of each node index under ``str(node)`` ordering.

        For vectorizing ``min(nodes, key=lambda v: (score(v), str(v)))``
        via :func:`repro.core.compiled.argmin_ranked`.
        """
        return self.compiled.node_str_order

    # ------------------------------------------------------------------ #
    # Timing queries
    # ------------------------------------------------------------------ #
    def _drt_row(self, tid: int) -> np.ndarray:
        """Data-ready times of task ``tid`` on every node (memoized).

        The sequential ``max`` fold over predecessors is replicated with
        element-wise ``np.maximum`` in the same order, so every entry is
        bit-identical to the scalar reference.  Computable (and therefore
        cached) only once all predecessors are committed; committed
        placements are immutable, so the row never goes stale.
        """
        row = self._drt_rows.get(tid)
        if row is not None:
            return row
        compiled = self.compiled
        if compiled.exec_has_nan:
            # NaN finish times (validate()-legal inf cost / inf speed)
            # interact with np.maximum differently from the scalar max
            # fold (which ignores a NaN that arrives after a larger
            # value); replicate the scalar fold exactly.
            row = self._drt_row_degenerate(tid)
            self._drt_rows[tid] = row
            return row
        row = np.zeros(len(self._nodes))
        placed_vid = self._placed_vid
        row_has_zero = compiled.strength_row_has_zero
        strength = compiled.strength
        for pid, data in compiled.pred_edges[tid]:
            src_vid = placed_vid[pid]
            if src_vid is None:
                raise SchedulingError(
                    f"cannot evaluate task {self._tasks[tid]!r}: "
                    f"predecessor {self._tasks[pid]!r} unscheduled"
                )
            end = self._placed[self._tasks[pid]].end
            if data == 0.0:
                np.maximum(row, end, out=row)
            elif not (row_has_zero[src_vid] or math.isinf(data)):
                # Hot path: finite data over live links divides clean
                # (x / inf == 0 covers the diagonal and infinite links).
                np.maximum(row, end + data / strength[src_vid], out=row)
            else:
                # Dead links / infinite data: the convention corner cases
                # live in one place, CompiledInstance.comm_row.
                np.maximum(row, end + compiled.comm_row(data, src_vid), out=row)
        self._drt_rows[tid] = row
        return row

    def _drt_row_degenerate(self, tid: int) -> np.ndarray:
        """Per-node scalar data-ready fold for NaN-degenerate instances."""
        compiled = self.compiled
        placed_vid = self._placed_vid
        edges = []
        for pid, data in compiled.pred_edges[tid]:
            src_vid = placed_vid[pid]
            if src_vid is None:
                raise SchedulingError(
                    f"cannot evaluate task {self._tasks[tid]!r}: "
                    f"predecessor {self._tasks[pid]!r} unscheduled"
                )
            edges.append((pid, src_vid, self._placed[self._tasks[pid]].end))
        row = np.empty(len(self._nodes))
        for vid in range(len(self._nodes)):
            ready = 0.0
            for pid, src_vid, end in edges:
                ready = max(ready, end + compiled.comm(pid, tid, src_vid, vid))
            row[vid] = ready
        return row

    def data_ready_time(self, task: Task, node: Node) -> float:
        """Earliest time all inputs of ``task`` are available at ``node``.

        Max over scheduled predecessors of (finish + communication); all
        predecessors must already be committed.
        """
        tid = self._task_id.get(task)
        vid = self._node_id.get(node)
        if tid is None or vid is None:
            return self._data_ready_time_fallback(task, node)
        return float(self._drt_row(tid)[vid])

    def _data_ready_time_fallback(self, task: Task, node: Node) -> float:
        """Unknown task/node: the scalar reference path, for its errors."""
        instance = self._fallback_instance((task,), (node,))
        preds = instance.task_graph.predecessors(task)  # unknown task: error
        ready = 0.0
        for pred in preds:
            entry = self._placed.get(pred)
            if entry is None:
                raise SchedulingError(
                    f"cannot evaluate task {task!r}: predecessor {pred!r} unscheduled"
                )
            arrival = entry.end + self._comm_time(pred, task, entry.node, node)
            ready = max(ready, arrival)
        return ready

    def enabling_parent(self, task: Task, node: Node) -> Task | None:
        """The predecessor whose message arrives last at ``node`` (FCP/FLB).

        Returns None for source tasks.
        """
        best: tuple[float, Task] | None = None
        tid = self._task_id.get(task)
        preds = (
            self.compiled.preds[tid]
            if tid is not None
            # unknown task: the reference path's error
            else self._fallback_instance((task,)).task_graph.predecessors(task)
        )
        for pred in preds:
            entry = self._placed.get(pred)
            if entry is None:
                raise SchedulingError(
                    f"cannot evaluate task {task!r}: predecessor {pred!r} unscheduled"
                )
            arrival = entry.end + self._comm_time(pred, task, entry.node, node)
            if best is None or arrival > best[0]:
                best = (arrival, pred)
        return best[1] if best else None

    def est(self, task: Task, node: Node) -> float:
        """Earliest start of ``task`` on ``node`` under the builder's policy."""
        ready = self.data_ready_time(task, node)
        duration = self._exec_time(task, node)
        return self._earliest_slot(node, ready, duration)

    def eft(self, task: Task, node: Node) -> float:
        """Earliest finish of ``task`` on ``node``."""
        start = self.est(task, node)
        if math.isinf(start):
            return math.inf
        return start + self._exec_time(task, node)

    def est_all(self, task: Task) -> np.ndarray:
        """Earliest starts of ``task`` on every node, in one sweep.

        Aligned with ``instance.network.nodes``; each element equals
        ``est(task, node)`` bit-for-bit.
        """
        tid = self._task_id.get(task)
        if tid is None:
            raise SchedulingError(f"unknown task {task!r}")
        if self.compiled.exec_has_nan:
            # Scalar fallback: NaN durations/availabilities break the
            # vectorized maximum's equivalence with Python's max.
            return np.array([self.est(task, v) for v in self._nodes])
        row = self._drt_row(tid)
        if not self.insertion:
            # Non-insertion earliest slot is max(ready, last end) — one
            # vectorized maximum (infinite ready times stay infinite).
            return np.maximum(row, self._avail)
        # Insertion gap scans are per-node Python; tolist() unboxes the
        # ready times once instead of paying np.float64 boxing per index.
        exec_row = self._exec_list[tid]
        ready_list = row.tolist()
        entries_map = self._entries
        out = np.empty(len(self._nodes))
        for vid, node in enumerate(self._nodes):
            ready = ready_list[vid]
            if not entries_map[node]:
                out[vid] = ready
            else:
                out[vid] = self._earliest_slot(node, ready, exec_row[vid])
        return out

    def eft_all(self, task: Task) -> np.ndarray:
        """Earliest finishes of ``task`` on every node, in one sweep."""
        tid = self._task_id.get(task)
        if tid is None:
            raise SchedulingError(f"unknown task {task!r}")
        if self.compiled.exec_has_nan:
            # Scalar fallback: eft() short-circuits an infinite start to
            # inf before adding the (possibly NaN) execution time.
            return np.array([self.eft(task, v) for v in self._nodes])
        # est + exec element-wise: an infinite start stays infinite, and
        # finite sums are the identical IEEE addition of the scalar path.
        return self.est_all(task) + self.compiled.exec_tbl[tid]

    def est_all_many(self, tasks: list[Task]) -> np.ndarray:
        """Earliest starts of several tasks on every node: one (R, |V|) sweep.

        Row ``i`` equals ``est_all(tasks[i])`` bit-for-bit.  The whole
        ready set of a list scheduler's round is scored with two
        vectorized operations (non-insertion policy; the insertion
        policy's gap scans stay per-task).
        """
        if self.insertion or self.compiled.exec_has_nan:
            return np.array([self.est_all(task) for task in tasks])
        task_id = self._task_id
        stack = np.array([self._drt_row(task_id[task]) for task in tasks])
        np.maximum(stack, self._avail, out=stack)
        return stack

    def eft_all_many(self, tasks: list[Task]) -> np.ndarray:
        """Earliest finishes of several tasks on every node, one sweep."""
        if self.compiled.exec_has_nan:
            return np.array([self.eft_all(task) for task in tasks])
        stack = self.est_all_many(tasks)
        stack += self.compiled.exec_tbl[[self._task_id[task] for task in tasks]]
        return stack

    def best_node_by_eft(self, task: Task, nodes: Iterable[Node] | None = None) -> Node:
        """Node minimizing EFT for ``task`` (first wins on ties)."""
        if nodes is None:
            # Batched sweep; argmin keeps the first minimum, matching
            # the scalar min() over nodes in insertion order.
            return self._nodes[int(self.eft_all(task).argmin())]
        candidates = list(nodes)
        if not candidates:
            raise SchedulingError("no candidate nodes")
        return min(candidates, key=lambda v: (self.eft(task, v),))

    def _earliest_slot(self, node: Node, ready: float, duration: float) -> float:
        """Earliest feasible start on ``node`` at or after ``ready``."""
        if math.isinf(ready):
            return math.inf
        entries = self._entries[node]
        if not entries:
            return ready
        if not self.insertion:
            return max(ready, entries[-1].end)
        # Insertion policy: scan gaps (before first task, between tasks,
        # after last task) for the first one that fits ``duration``.  The
        # comparison is exact: an epsilon here would let tasks overlap by
        # that epsilon, which the validator rightly rejects.
        gap_start = 0.0
        for entry in entries:
            start = max(gap_start, ready)
            if start + duration <= entry.start:
                return start
            gap_start = max(gap_start, entry.end)
        return max(gap_start, ready)

    # ------------------------------------------------------------------ #
    # Committing
    # ------------------------------------------------------------------ #
    def commit(self, task: Task, node: Node, start: float | None = None) -> ScheduledTask:
        """Schedule ``task`` on ``node``.

        If ``start`` is None, the policy's earliest start is used.  An
        explicit ``start`` must be feasible (>= data-ready time and not
        overlapping committed tasks); this path is used by replay / test
        code.
        """
        if task in self._placed:
            raise SchedulingError(f"task {task!r} is already scheduled")
        if self._remaining_preds[task] != 0:
            raise SchedulingError(
                f"task {task!r} committed before its predecessors were scheduled"
            )
        if node not in self._entries:
            raise SchedulingError(f"unknown node {node!r}")
        duration = self._exec_time(task, node)
        if start is None:
            start = self.est(task, node)
        else:
            ready = self.data_ready_time(task, node)
            if start < ready - 1e-9:
                raise SchedulingError(
                    f"explicit start {start} of {task!r} precedes data-ready time {ready}"
                )
            for entry in self._entries[node]:
                if start < entry.end - 1e-12 and entry.start < start + duration - 1e-12:
                    raise SchedulingError(
                        f"explicit start {start} of {task!r} overlaps {entry.task!r}"
                    )
        end = start + duration if not math.isinf(start) else math.inf
        entry = ScheduledTask(start=float(start), end=float(end), task=task, node=node)
        entries = self._entries[node]
        insort(entries, entry)
        self._placed[task] = entry
        tid = self._task_id[task]
        vid = self._node_id[node]
        self._placed_vid[tid] = vid
        self._avail[vid] = entries[-1].end
        # Running maximum, seeded (not folded from 0.0) by the first
        # entry so a NaN end poisons it exactly like max() over the ends.
        if len(self._placed) == 1 or entry.end > self._makespan:
            self._makespan = entry.end
        # Incremental ready set: drop the committed task, add successors
        # whose last predecessor this was (sorted insert keeps id order).
        del self._ready_ids[bisect_left(self._ready_ids, tid)]
        remaining = self._remaining_preds
        for sid in self.compiled.succ_ids[tid]:
            succ = self._tasks[sid]
            left = remaining[succ] - 1
            remaining[succ] = left
            if left == 0:
                insort(self._ready_ids, sid)
        return entry

    def makespan(self) -> float:
        """Makespan of the committed entries so far (running maximum)."""
        return self._makespan

    def schedule(self) -> Schedule:
        """Materialize the final :class:`Schedule`; all tasks must be committed.

        The committed entries are handed over as they are — already
        time-sorted per node — with :meth:`Schedule.add`'s checks run on
        each in commit order.
        """
        if len(self._placed) != len(self._tasks):
            missing = self.unscheduled_tasks
            raise SchedulingError(f"tasks left unscheduled: {sorted(map(str, missing))}")
        return Schedule.from_placements(self._placed, self._entries)
