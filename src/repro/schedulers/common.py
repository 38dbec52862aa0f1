"""Machinery shared by the list-scheduling algorithms.

Most algorithms in Table I are list schedulers (Section III): they compute
a task priority, then greedily place tasks.  The priority functions here —
upward rank, downward rank, static level — are the standard definitions
from Topcuoglu et al. (HEFT/CPoP) and Sih & Lee (DLS/GDL), computed with
*average* execution and communication times over the network, which is the
convention the paper describes in Section VI-B.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.core.compiled import compile_instance
from repro.core.instance import ProblemInstance

__all__ = [
    "upward_rank",
    "downward_rank",
    "static_level",
    "priority_order",
    "critical_path_tasks",
]

Task = Hashable


def _mean_exec(instance: ProblemInstance, task: Task) -> float:
    """Compiled-cache route to :func:`repro.core.simulator.mean_exec_time`.

    The compiled kernel memoizes the reference function per instance, so
    rank computations stop paying O(|V|) per query.  (The reference
    context in :mod:`repro.core.reference` patches this back to the
    uncached function.)
    """
    return compile_instance(instance).mean_exec(task)


def _mean_comm(instance: ProblemInstance, src: Task, dst: Task) -> float:
    """Compiled-cache route to :func:`repro.core.simulator.mean_comm_time`."""
    return compile_instance(instance).mean_comm(src, dst)


def _topological_order(instance: ProblemInstance) -> list[Task]:
    """Compiled-cache route to :meth:`TaskGraph.topological_order`."""
    return compile_instance(instance).topological_order()


def _sort_order(instance: ProblemInstance) -> tuple[Task, ...]:
    """Compiled-cache route to ``networkx.topological_sort`` of the task graph."""
    return compile_instance(instance).sort_order


def upward_rank(instance: ProblemInstance) -> dict[Task, float]:
    """HEFT's upward rank ``rank_u``.

    ``rank_u(t) = w̄(t) + max over successors s of (c̄(t,s) + rank_u(s))``
    with ``rank_u`` of a sink equal to its average execution time.  The
    upward rank of a task is the length (in average time) of the longest
    chain from the task to the end of the graph.
    """
    graph = instance.task_graph.graph
    ranks: dict[Task, float] = {}
    for task in reversed(_sort_order(instance)):
        succ_part = max(
            (_mean_comm(instance, task, s) + ranks[s] for s in graph.successors(task)),
            default=0.0,
        )
        ranks[task] = _mean_exec(instance, task) + succ_part
    return ranks


def downward_rank(instance: ProblemInstance) -> dict[Task, float]:
    """CPoP's downward rank ``rank_d``: average distance from the start.

    ``rank_d(t) = max over predecessors p of (rank_d(p) + w̄(p) + c̄(p,t))``
    and 0 for entry tasks.  ``rank_u(t) + rank_d(t)`` is the length of the
    longest average-time path through ``t``.
    """
    graph = instance.task_graph.graph
    ranks: dict[Task, float] = {}
    for task in _sort_order(instance):
        ranks[task] = max(
            (
                ranks[p] + _mean_exec(instance, p) + _mean_comm(instance, p, task)
                for p in graph.predecessors(task)
            ),
            default=0.0,
        )
    return ranks


def static_level(instance: ProblemInstance) -> dict[Task, float]:
    """Sih & Lee's static level: longest chain of average execution times.

    Like the upward rank but ignoring communication — the SL term of GDL's
    dynamic level, also used as the tie-breaking priority in ETF.
    """
    graph = instance.task_graph.graph
    levels: dict[Task, float] = {}
    for task in reversed(_sort_order(instance)):
        succ_part = max((levels[s] for s in graph.successors(task)), default=0.0)
        levels[task] = _mean_exec(instance, task) + succ_part
    return levels


def priority_order(instance: ProblemInstance, ranks: dict[Task, float]) -> list[Task]:
    """Tasks in decreasing rank, tie-broken by topological index.

    With strictly positive weights, decreasing upward rank is automatically
    a valid topological order; the tie-break keeps it valid when zero
    weights (allowed by the paper's clipped Gaussians) create rank ties
    between a task and its descendant.
    """
    topo_index = {t: i for i, t in enumerate(_topological_order(instance))}
    return sorted(instance.task_graph.tasks, key=lambda t: (-ranks[t], topo_index[t]))


def critical_path_tasks(
    instance: ProblemInstance,
    rank_u: dict[Task, float],
    rank_d: dict[Task, float],
    rel_tol: float = 1e-9,
) -> set[Task]:
    """The critical-path set used by CPoP.

    Following Topcuoglu et al., the critical path is constructed by walking
    from an entry task with maximal ``rank_u + rank_d`` and repeatedly
    stepping to a successor with the same (maximal) priority, until a sink
    is reached.  Only tasks actually on the walked path are returned, which
    matters when several disjoint chains happen to have equal length.
    """
    priority = {t: rank_u[t] + rank_d[t] for t in instance.task_graph.tasks}
    if not priority:
        return set()
    cp_value = max(priority.values())
    tol = max(rel_tol * max(cp_value, 1.0), 1e-12)

    def on_cp(task: Task) -> bool:
        return abs(priority[task] - cp_value) <= tol

    entries = [t for t in instance.task_graph.source_tasks if on_cp(t)]
    if not entries:  # degenerate (shouldn't happen): fall back to the level set
        return {t for t in priority if on_cp(t)}
    current = min(entries, key=str)
    path = {current}
    while True:
        nxt = [s for s in instance.task_graph.successors(current) if on_cp(s)]
        if not nxt:
            break
        current = min(nxt, key=str)
        path.add(current)
    return path
