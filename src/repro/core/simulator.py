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

The builder reads the compiled instance kernel (:mod:`repro.core.compiled`):
integer-indexed timing tables compiled once per instance and shared by
every builder over it.  Its queries are plain-Python folds over the
tables' list mirrors, in the reference's order and arithmetic, so every
time it reports is the float the scalar dict-based builder it replaced
reports (frozen as :class:`repro.core.reference.ReferenceScheduleBuilder`
and pinned by ``tests/test_compiled.py``), NaN and infinity included.
:func:`select_node` is the one ``(value, str(node))`` node-selection rule
the schedulers share.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Hashable, Iterable, Sequence

from repro.core.compiled import compile_instance
from repro.core.exceptions import SchedulingError
from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule, ScheduledTask

__all__ = [
    "exec_time",
    "comm_time",
    "mean_exec_time",
    "mean_comm_time",
    "select_node",
    "ScheduleBuilder",
]

Task = Hashable
Node = Hashable

_INF = math.inf


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


def select_node(values: Sequence[float], nodes: Sequence[Node]) -> int:
    """Index of the node minimizing ``(values[i], str(nodes[i]))``.

    Exactly ``min(range(len(nodes)), key=lambda i: (values[i],
    str(nodes[i])))``: the first node seeds the minimum, and a later node
    replaces it only when its key compares strictly less.  A NaN value
    therefore never displaces another value, and a leading NaN is kept.
    ``str`` is evaluated only on value ties; like tuple comparison, an
    identical object counts as a tie.
    """
    best = 0
    best_value = values[0]
    for i in range(1, len(values)):
        value = values[i]
        if value is best_value or value == best_value:
            if str(nodes[i]) < str(nodes[best]):
                best = i
        elif value < best_value:
            best, best_value = i, value
    return best


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
    candidate twice).  The instance must therefore not be mutated while a
    builder is live — PISA's perturbations already operate on copies, and
    schedulers build-and-discard.  (Mutation *between* builds is safe: the
    compile cache is keyed on the graphs' mutation counters.)

    The row queries :meth:`est_row` and :meth:`eft_row` return lists
    aligned with :attr:`nodes`, equal element for element to the scalar
    :meth:`est` / :meth:`eft`.  Every query raises
    :class:`~repro.core.exceptions.SchedulingError` naming an unknown task
    or node.
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
        n_tasks = len(self._tasks)
        #: Committed entries per node id, time-sorted; ``_entries`` maps
        #: each node to the same list.
        self._slots: list[list[ScheduledTask]] = [[] for _ in self._nodes]
        self._entries: dict[Node, list[ScheduledTask]] = dict(zip(self._nodes, self._slots))
        self._placed: dict[Task, ScheduledTask] = {}
        self._remaining_preds: list[int] = [len(ps) for ps in compiled.pred_ids]
        #: Sorted task ids of the current ready set (insertion order ==
        #: id order, so the incremental list reproduces the full rescan).
        self._ready_ids: list[int] = [tid for tid, n in enumerate(self._remaining_preds) if not n]
        #: Node id and finish time of each placed task, by task id.
        self._placed_vid: list[int | None] = [None] * n_tasks
        self._placed_end: list[float] = [0.0] * n_tasks
        #: Finish time of the last committed task per node id.
        self._avail: list[float] = [0.0] * len(self._nodes)
        #: Memoized data-ready rows, by task id (immutable once computed).
        self._drt_rows: list[list[float] | None] = [None] * n_tasks
        self._makespan = 0.0

    def _tid(self, task: Task) -> int:
        tid = self._task_id.get(task)
        if tid is None:
            raise SchedulingError(f"unknown task {task!r}")
        return tid

    def _vid(self, node: Node) -> int:
        vid = self._node_id.get(node)
        if vid is None:
            raise SchedulingError(f"unknown node {node!r}")
        return vid

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
        return self._avail[self._vid(node)]

    @property
    def nodes(self) -> tuple[Node, ...]:
        """The network's nodes, in the order every row query follows."""
        return self._nodes

    # ------------------------------------------------------------------ #
    # Timing queries
    # ------------------------------------------------------------------ #
    def _drt_row(self, tid: int) -> list[float]:
        """Data-ready times of task ``tid`` on every node (memoized).

        The reference fold ``ready = max(ready, end + comm)`` over the
        predecessors in order, seeded with 0.0, run per node: a NaN
        arrival never displaces the running value.  Computable (and
        therefore cached) only once all predecessors are committed;
        committed placements are immutable, so the row never goes stale.
        """
        row = self._drt_rows[tid]
        if row is not None:
            return row
        row = [0.0] * len(self._nodes)
        placed_vid = self._placed_vid
        strength = self.compiled.strength_list
        for pid, data in self.compiled.pred_edges[tid]:
            src_vid = placed_vid[pid]
            if src_vid is None:
                raise SchedulingError(
                    f"cannot evaluate task {self._tasks[tid]!r}: "
                    f"predecessor {self._tasks[pid]!r} unscheduled"
                )
            end = self._placed_end[pid]
            if data == 0.0:
                arrivals = [end] * len(row)
            else:
                # comm_time's conventions over the strength row: the
                # infinite diagonal and infinite links transfer for free,
                # a dead link never delivers.
                arrivals = [
                    end + (data / s if 0.0 < s < _INF else _INF if s == 0.0 else 0.0)
                    for s in strength[src_vid]
                ]
            row = [a if a > r else r for r, a in zip(row, arrivals)]
        self._drt_rows[tid] = row
        return row

    def data_ready_time(self, task: Task, node: Node) -> float:
        """Earliest time all inputs of ``task`` are available at ``node``.

        Max over scheduled predecessors of (finish + communication); all
        predecessors must already be committed.
        """
        tid = self._tid(task)
        vid = self._vid(node)
        return self._drt_row(tid)[vid]

    def est(self, task: Task, node: Node) -> float:
        """Earliest start of ``task`` on ``node`` under the builder's policy."""
        tid = self._tid(task)
        vid = self._vid(node)
        return self._earliest_slot(vid, self._drt_row(tid)[vid], self._exec_list[tid][vid])

    def eft(self, task: Task, node: Node) -> float:
        """Earliest finish of ``task`` on ``node``."""
        start = self.est(task, node)
        if math.isinf(start):
            return math.inf
        return start + self._exec_list[self._task_id[task]][self._node_id[node]]

    def _est_row(self, tid: int) -> list[float]:
        ready = self._drt_row(tid)
        if not self.insertion:
            # max(ready, last end): an idle node's 0.0 never beats ready.
            return [a if a > r else r for r, a in zip(ready, self._avail)]
        exec_row = self._exec_list[tid]
        slot = self._earliest_slot
        return [slot(vid, r, exec_row[vid]) for vid, r in enumerate(ready)]

    def est_row(self, task: Task) -> list[float]:
        """Earliest starts of ``task`` on every node, aligned with :attr:`nodes`."""
        return self._est_row(self._tid(task))

    def eft_row(self, task: Task) -> list[float]:
        """Earliest finishes of ``task`` on every node, aligned with :attr:`nodes`.

        An infinite start finishes at infinity before the (possibly NaN)
        execution time is added, as in :meth:`eft`; starts are never NaN.
        """
        tid = self._tid(task)
        return [
            s + e if s != _INF else _INF
            for s, e in zip(self._est_row(tid), self._exec_list[tid])
        ]

    def best_node_by_eft(self, task: Task, nodes: Iterable[Node] | None = None) -> Node:
        """Node minimizing EFT for ``task`` (first wins on ties)."""
        if nodes is None:
            row = self.eft_row(task)
            return self._nodes[min(range(len(row)), key=row.__getitem__)]
        candidates = list(nodes)
        if not candidates:
            raise SchedulingError("no candidate nodes")
        return min(candidates, key=lambda v: self.eft(task, v))

    def _earliest_slot(self, vid: int, ready: float, duration: float) -> float:
        """Earliest feasible start on node ``vid`` at or after ``ready``."""
        if math.isinf(ready):
            return math.inf
        entries = self._slots[vid]
        if not entries:
            return ready
        # ``b if b > a else a`` is ``max(a, b)``, without the call.
        if not self.insertion:
            end = entries[-1].end
            return end if end > ready else ready
        # Insertion policy: scan gaps (before first task, between tasks,
        # after last task) for the first one that fits ``duration``.  The
        # comparison is exact: an epsilon here would let tasks overlap by
        # that epsilon, which the validator rightly rejects.
        gap_start = 0.0
        for entry in entries:
            start = ready if ready > gap_start else gap_start
            if start + duration <= entry.start:
                return start
            if entry.end > gap_start:
                gap_start = entry.end
        return ready if ready > gap_start else gap_start

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
        tid = self._tid(task)
        if task in self._placed:
            raise SchedulingError(f"task {task!r} is already scheduled")
        if self._remaining_preds[tid] != 0:
            raise SchedulingError(
                f"task {task!r} committed before its predecessors were scheduled"
            )
        vid = self._vid(node)
        entries = self._slots[vid]
        duration = self._exec_list[tid][vid]
        ready = self._drt_row(tid)[vid]
        if start is None:
            start = self._earliest_slot(vid, ready, duration)
        else:
            if start < ready - 1e-9:
                raise SchedulingError(
                    f"explicit start {start} of {task!r} precedes data-ready time {ready}"
                )
            for entry in entries:
                if start < entry.end - 1e-12 and entry.start < start + duration - 1e-12:
                    raise SchedulingError(
                        f"explicit start {start} of {task!r} overlaps {entry.task!r}"
                    )
        end = start + duration if not math.isinf(start) else math.inf
        entry = ScheduledTask(start=float(start), end=float(end), task=task, node=node)
        insort(entries, entry)
        self._placed[task] = entry
        self._placed_vid[tid] = vid
        self._placed_end[tid] = entry.end
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
            remaining[sid] -= 1
            if remaining[sid] == 0:
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
