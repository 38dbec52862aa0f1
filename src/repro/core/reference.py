"""The frozen pre-compilation ``ScheduleBuilder`` — equivalence oracle.

This module preserves, verbatim, the scalar dict-based builder that
:class:`repro.core.simulator.ScheduleBuilder` replaced when the
array-compiled kernel (:mod:`repro.core.compiled`) landed.  It exists for
two consumers:

* ``tests/test_compiled.py`` runs every registered scheduler against both
  builders (via :func:`use_reference_builder`) and asserts the schedules
  are **bit-identical** — the refactor's core guarantee;
* ``benchmarks/bench_runtime.py`` uses it as the honest "pre-PR" side of
  the annealing-energy hot-loop speedup measurement.

The batch queries the ported schedulers now call (``est_all`` /
``eft_all`` / ``node_available_all`` / ``node_str_order``) are provided
as thin scalar wrappers, so the *same* scheduler code runs on both
substrates and any divergence is attributable to the kernel alone.

Do not "optimize" this module: its value is that it does not change.
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Hashable, Iterable
from contextlib import contextmanager

import networkx as nx
import numpy as np

from repro.core.exceptions import SchedulingError
from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule, ScheduledTask
from repro.core.simulator import comm_time, exec_time, mean_comm_time, mean_exec_time

__all__ = ["ReferenceScheduleBuilder", "use_reference_builder"]

Task = Hashable
Node = Hashable


class ReferenceScheduleBuilder:
    """The pre-compilation builder: per-build snapshots, scalar memo dicts.

    Semantics documentation lives on the live builder; this copy is kept
    byte-for-byte faithful to the code it replaced (plus the scalar batch
    wrappers at the bottom).
    """

    def __init__(self, instance: ProblemInstance, insertion: bool = True) -> None:
        instance.validate()
        self.instance = instance
        self.insertion = insertion
        task_graph = instance.task_graph
        network = instance.network
        self._tasks: tuple[Task, ...] = task_graph.tasks
        self._nodes: tuple[Node, ...] = network.nodes
        self._entries: dict[Node, list[ScheduledTask]] = {v: [] for v in self._nodes}
        self._placed: dict[Task, ScheduledTask] = {}
        self._preds: dict[Task, tuple[Task, ...]] = {
            t: task_graph.predecessors(t) for t in self._tasks
        }
        self._succs: dict[Task, tuple[Task, ...]] = {
            t: task_graph.successors(t) for t in self._tasks
        }
        self._remaining_preds: dict[Task, int] = {
            t: len(self._preds[t]) for t in self._tasks
        }
        self._cost: dict[Task, float] = {t: task_graph.cost(t) for t in self._tasks}
        self._speed: dict[Node, float] = {v: network.speed(v) for v in self._nodes}
        self._data: dict[tuple[Task, Task], float] = {
            (u, v): size for u, v, size in task_graph.iter_dependencies()
        }
        self._strength: dict[tuple[Node, Node], float] = {}
        for u, v in network.links:
            s = network.strength(u, v)
            self._strength[(u, v)] = s
            self._strength[(v, u)] = s
        self._exec_cache: dict[tuple[Task, Node], float] = {}
        self._comm_cache: dict[tuple[Task, Task, Node, Node], float] = {}
        self._drt_cache: dict[tuple[Task, Node], float] = {}

    # ------------------------------------------------------------------ #
    def _exec_time(self, task: Task, node: Node) -> float:
        key = (task, node)
        cached = self._exec_cache.get(key)
        if cached is not None:
            return cached
        try:
            value = self._cost[task] / self._speed[node]
        except KeyError:
            value = exec_time(self.instance, task, node)
        self._exec_cache[key] = value
        return value

    def _comm_time(self, src_task: Task, dst_task: Task, src_node: Node, dst_node: Node) -> float:
        key = (src_task, dst_task, src_node, dst_node)
        cached = self._comm_cache.get(key)
        if cached is not None:
            return cached
        if src_node == dst_node:
            value = 0.0
        else:
            data = self._data.get((src_task, dst_task))
            strength = self._strength.get((src_node, dst_node))
            if data is None or strength is None:
                value = comm_time(self.instance, src_task, dst_task, src_node, dst_node)
            elif data == 0.0:
                value = 0.0
            elif strength == 0.0:
                value = math.inf
            elif math.isinf(strength):
                value = 0.0
            else:
                value = data / strength
        self._comm_cache[key] = value
        return value

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
        return [
            t
            for t in self._tasks
            if t not in self._placed and self._remaining_preds[t] == 0
        ]

    def placement(self, task: Task) -> ScheduledTask:
        try:
            return self._placed[task]
        except KeyError:
            raise SchedulingError(f"task {task!r} has not been scheduled yet") from None

    def node_available(self, node: Node) -> float:
        entries = self._entries[node]
        return entries[-1].end if entries else 0.0

    # ------------------------------------------------------------------ #
    def data_ready_time(self, task: Task, node: Node) -> float:
        key = (task, node)
        cached = self._drt_cache.get(key)
        if cached is not None:
            return cached
        preds = self._preds.get(task)
        if preds is None:
            preds = self.instance.task_graph.predecessors(task)
        ready = 0.0
        for pred in preds:
            entry = self._placed.get(pred)
            if entry is None:
                raise SchedulingError(
                    f"cannot evaluate task {task!r}: predecessor {pred!r} unscheduled"
                )
            arrival = entry.end + self._comm_time(pred, task, entry.node, node)
            ready = max(ready, arrival)
        self._drt_cache[key] = ready
        return ready

    def enabling_parent(self, task: Task, node: Node) -> Task | None:
        best: tuple[float, Task] | None = None
        preds = self._preds.get(task)
        if preds is None:
            preds = self.instance.task_graph.predecessors(task)
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
        ready = self.data_ready_time(task, node)
        duration = self._exec_time(task, node)
        return self._earliest_slot(node, ready, duration)

    def eft(self, task: Task, node: Node) -> float:
        start = self.est(task, node)
        if math.isinf(start):
            return math.inf
        return start + self._exec_time(task, node)

    def best_node_by_eft(self, task: Task, nodes: Iterable[Node] | None = None) -> Node:
        candidates = list(nodes) if nodes is not None else list(self._nodes)
        if not candidates:
            raise SchedulingError("no candidate nodes")
        return min(candidates, key=lambda v: (self.eft(task, v),))

    def _earliest_slot(self, node: Node, ready: float, duration: float) -> float:
        if math.isinf(ready):
            return math.inf
        entries = self._entries[node]
        if not entries:
            return ready
        if not self.insertion:
            return max(ready, entries[-1].end)
        gap_start = 0.0
        for entry in entries:
            start = max(gap_start, ready)
            if start + duration <= entry.start:
                return start
            gap_start = max(gap_start, entry.end)
        return max(gap_start, ready)

    # ------------------------------------------------------------------ #
    def commit(self, task: Task, node: Node, start: float | None = None) -> ScheduledTask:
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
        insort(self._entries[node], entry)
        self._placed[task] = entry
        for succ in self._succs[task]:
            self._remaining_preds[succ] -= 1
        return entry

    def makespan(self) -> float:
        ends = [e.end for e in self._placed.values()]
        return max(ends) if ends else 0.0

    def schedule(self) -> Schedule:
        missing = self.unscheduled_tasks
        if missing:
            raise SchedulingError(f"tasks left unscheduled: {sorted(map(str, missing))}")
        sched = Schedule()
        for entry in self._placed.values():
            sched.add(entry.task, entry.node, entry.start, entry.end)
        return sched

    # ------------------------------------------------------------------ #
    # Scalar realizations of the batch API the ported schedulers use.
    # ------------------------------------------------------------------ #
    @property
    def node_str_order(self) -> np.ndarray:
        order = getattr(self, "_node_str_order", None)
        if order is None:
            order = np.array(
                sorted(range(len(self._nodes)), key=lambda i: str(self._nodes[i])),
                dtype=np.intp,
            )
            self._node_str_order = order
        return order

    def node_available_all(self) -> np.ndarray:
        return np.array([self.node_available(v) for v in self._nodes])

    def data_ready_time_all(self, task: Task) -> np.ndarray:
        return np.array([self.data_ready_time(task, v) for v in self._nodes])

    def est_all(self, task: Task) -> np.ndarray:
        return np.array([self.est(task, v) for v in self._nodes])

    def eft_all(self, task: Task) -> np.ndarray:
        return np.array([self.eft(task, v) for v in self._nodes])

    def est_all_many(self, tasks) -> np.ndarray:
        return np.array([[self.est(t, v) for v in self._nodes] for t in tasks])

    def eft_all_many(self, tasks) -> np.ndarray:
        return np.array([[self.eft(t, v) for v in self._nodes] for t in tasks])


@contextmanager
def use_reference_builder():
    """Run everything inside the block on the frozen pre-PR substrate.

    Swaps :class:`ReferenceScheduleBuilder` into every imported module
    that refers to the live ``ScheduleBuilder`` class (the scheduler
    modules bind it at import time) and reverts the rank helpers in
    ``repro.schedulers.common`` (mean times *and* both topological
    orders: the priority/MCT-style lexicographic order and the rank
    functions' ``networkx.topological_sort``) to the uncompiled per-call
    reference functions, so schedulers that only touch those paths build
    no ``CompiledInstance`` at all inside the block.  Restores everything
    on exit.

    (Schedulers that read compiled tables directly — GDL's mean
    execution times, BIL's static level table, FCP's enabling-parent
    mean comms — still compile here; those values are produced by the
    very same reference formulas, so equivalence testing is unaffected,
    and none of them participate in the benchmark's reference timings.)
    """
    import sys

    from repro.core import simulator
    from repro.schedulers import common

    real_builder = simulator.ScheduleBuilder
    patched: list[tuple[object, str, object]] = []
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("repro"):
            continue
        if getattr(module, "ScheduleBuilder", None) is real_builder:
            patched.append((module, "ScheduleBuilder", real_builder))
            module.ScheduleBuilder = ReferenceScheduleBuilder

    def _ref_mean_exec(instance, task):
        return mean_exec_time(instance, task)

    def _ref_mean_comm(instance, src, dst):
        return mean_comm_time(instance, src, dst)

    def _ref_topological_order(instance):
        return instance.task_graph.topological_order()

    def _ref_sort_order(instance):
        return list(nx.topological_sort(instance.task_graph.graph))

    real_mean_exec = common._mean_exec
    real_mean_comm = common._mean_comm
    real_topological_order = common._topological_order
    real_sort_order = common._sort_order
    common._mean_exec = _ref_mean_exec
    common._mean_comm = _ref_mean_comm
    common._topological_order = _ref_topological_order
    common._sort_order = _ref_sort_order
    try:
        yield ReferenceScheduleBuilder
    finally:
        common._mean_exec = real_mean_exec
        common._mean_comm = real_mean_comm
        common._topological_order = real_topological_order
        common._sort_order = real_sort_order
        for module, attr, value in patched:
            setattr(module, attr, value)
