"""MinMin (Braun et al. 2001), adapted to precedence-constrained task graphs.

Reference: "A comparison of eleven static heuristics for mapping a class of
independent tasks onto heterogeneous distributed computing systems",
JPDC 2001.  The original operates on independent tasks; following SAGA, we
apply it to the *ready set* of a task graph:

repeat until all tasks are scheduled:
    for every ready task, find its minimum completion time (MCT) over all
    nodes given previously committed decisions;
    commit the task whose MCT is **smallest** to its MCT node.

Intuition: lock in the placements that finish soonest, keeping machines
busy with quick wins.  Scheduling complexity O(|T|^2 |V|).
"""

from __future__ import annotations

import math

from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler, SchedulerInfo, register_scheduler
from repro.core.simulator import ScheduleBuilder, select_node

__all__ = ["MinMinScheduler", "minmax_completion_pass"]


def minmax_completion_pass(builder: ScheduleBuilder, take_max: bool) -> None:
    """Shared MinMin/MaxMin loop: repeatedly commit the extreme-MCT ready task.

    ``take_max=False`` gives MinMin, ``take_max=True`` gives MaxMin.  Ties
    are broken deterministically by task name; each task's best node is
    its :func:`~repro.core.simulator.select_node` over its EFT row.
    """
    nodes = builder.nodes
    while True:
        ready = builder.ready_tasks()
        if not ready:
            break
        best_per_task = {}
        for task in ready:
            row = builder.eft_row(task)
            vid = select_node(row, nodes)
            best_per_task[task] = (row[vid], nodes[vid])
        sign = -1.0 if take_max else 1.0

        def key(task):
            mct = best_per_task[task][0]
            # Infinite completion times sort last for MinMin and first for
            # MaxMin, matching the sign convention below.
            return (sign * mct if not math.isinf(mct) else sign * math.inf, str(task))

        chosen = min(ready, key=key)
        builder.commit(chosen, best_per_task[chosen][1])


@register_scheduler
class MinMinScheduler(Scheduler):
    """Iteratively commit the ready task with the smallest minimum completion time."""

    name = "MinMin"
    info = SchedulerInfo(
        name="MinMin",
        full_name="MinMin",
        reference="Braun et al., JPDC 2001",
        complexity="O(|T|^2 |V|)",
        machine_model="unrelated",
        notes="Ready-set adaptation of the independent-task heuristic.",
    )

    def schedule(self, instance: ProblemInstance) -> Schedule:
        builder = ScheduleBuilder(instance, insertion=False)
        minmax_completion_pass(builder, take_max=False)
        return builder.schedule()
