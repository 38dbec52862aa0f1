"""CPoP — Critical Path on Processor (Topcuoglu, Hariri, Wu).

Reference: same paper as HEFT.  Scheduling complexity O(|T|^2 |V|).

CPoP's priority of a task is ``rank_u + rank_d`` (its distance to the end
plus its distance from the start).  Tasks on the *critical path* (those
whose priority equals the graph's maximum) are committed to the
*critical-path processor* — the node minimizing the total execution time of
the critical-path tasks, which under the related-machines model is the
fastest node (footnote 3 of the paper).  All other tasks go to the node
minimizing their earliest finish time.  Unlike HEFT, tasks are consumed
from a ready queue ordered by priority rather than a static list.
"""

from __future__ import annotations

import heapq

from repro.core.compiled import compile_instance
from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler, SchedulerInfo, register_scheduler
from repro.core.simulator import ScheduleBuilder, select_node
from repro.schedulers import common
from repro.schedulers.common import critical_path_tasks, downward_rank, upward_rank

__all__ = ["CPoPScheduler"]


@register_scheduler
class CPoPScheduler(Scheduler):
    """Critical Path on Processor with insertion-based EFT."""

    name = "CPoP"
    info = SchedulerInfo(
        name="CPoP",
        full_name="Critical Path on Processor",
        reference="Topcuoglu, Hariri & Wu, HCW 1999",
        complexity="O(|T|^2 |V|)",
        machine_model="unrelated",
        notes="Critical-path tasks pinned to the critical-path processor.",
    )

    def schedule(self, instance: ProblemInstance) -> Schedule:
        builder = ScheduleBuilder(instance, insertion=True)
        rank_u = upward_rank(instance)
        rank_d = downward_rank(instance)
        priority = {t: rank_u[t] + rank_d[t] for t in common._tasks(instance)}
        cp_set = critical_path_tasks(instance, rank_u, rank_d)

        # Critical-path processor: minimizes the summed execution time of the
        # CP tasks (== the fastest node under related machines).
        compiled = compile_instance(instance)
        exec_list, task_id = compiled.exec_list, compiled.task_id
        cp_ids = [task_id[t] for t in cp_set]
        nodes = compiled.nodes
        totals = [sum(exec_list[tid][vid] for tid in cp_ids) for vid in range(len(nodes))]
        cp_node = nodes[select_node(totals, nodes)]

        # Ready queue ordered by decreasing priority (heapq is a min-heap, so
        # negate); tie-break by insertion order for determinism.
        counter = 0
        heap: list[tuple[float, int, object]] = []
        for task in builder.ready_tasks():
            heapq.heappush(heap, (-priority[task], counter, task))
            counter += 1
        in_heap = {t for *_, t in heap}

        while heap:
            _, _, task = heapq.heappop(heap)
            node = cp_node if task in cp_set else builder.best_node_by_eft(task)
            builder.commit(task, node)
            for ready in builder.ready_tasks():
                if ready not in in_heap:
                    heapq.heappush(heap, (-priority[ready], counter, ready))
                    counter += 1
                    in_heap.add(ready)
        return builder.schedule()
