"""FCP — Fast Critical Path (Radulescu & van Gemund 2000).

Reference: "Fast and effective task scheduling in heterogeneous systems",
HCW 2000.  Runtime O(|T| log|V| + |D|).

FCP gets its speed from two restrictions relative to HEFT:

1. Tasks are consumed in a *static* priority order (upward rank computed
   once) from a ready queue — no re-prioritization.
2. For each task only **two** candidate nodes are evaluated: the node that
   becomes idle first, and the task's *enabling node* — the node where the
   parent whose message arrives last was placed (running there makes that
   message free).  The candidate with the smaller finish time wins.

FCP was designed for heterogeneous node speeds but a homogeneous
interconnect; PISA accordingly freezes both node speeds and link strengths
at 1 when FCP participates (Section VI).  On heterogeneous networks we
identify the enabling parent using average communication times, a faithful
generalization (the original tie is exact under homogeneous links).
"""

from __future__ import annotations

import heapq

from repro.core.compiled import compile_instance
from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler, SchedulerInfo, register_scheduler
from repro.core.simulator import ScheduleBuilder, select_node
from repro.schedulers.common import upward_rank

__all__ = ["FCPScheduler", "candidate_nodes"]


def candidate_nodes(builder: ScheduleBuilder, task) -> list:
    """FCP/FLB's restricted candidate set: first-idle node + enabling node.

    The first-idle node minimizes ``(available, str(node))``.
    """
    nodes = builder.nodes
    first_idle = nodes[select_node([builder.node_available(v) for v in nodes], nodes)]
    candidates = [first_idle]
    enabling = _enabling_node(builder, task)
    if enabling is not None and enabling != first_idle:
        candidates.append(enabling)
    return candidates


def _enabling_node(builder: ScheduleBuilder, task):
    """Node of the parent whose message (by average comm time) arrives last."""
    compiled = compile_instance(builder.instance)
    best = None
    for pred in compiled.preds[compiled.task_id[task]]:
        entry = builder.placement(pred)
        arrival = entry.end + compiled.mean_comm(pred, task)
        if best is None or arrival > best[0]:
            best = (arrival, entry.node)
    return best[1] if best else None


@register_scheduler
class FCPScheduler(Scheduler):
    """Static-priority list scheduling over a two-node candidate set."""

    name = "FCP"
    info = SchedulerInfo(
        name="FCP",
        full_name="Fast Critical Path",
        reference="Radulescu & van Gemund, HCW 2000",
        complexity="O(|T| log|V| + |D|)",
        machine_model="heterogeneous-nodes/homogeneous-links",
        notes="Two-candidate processor selection.",
    )

    def schedule(self, instance: ProblemInstance) -> Schedule:
        builder = ScheduleBuilder(instance, insertion=False)
        ranks = upward_rank(instance)

        counter = 0
        heap: list[tuple[float, int, object]] = []
        in_heap: set = set()
        for task in builder.ready_tasks():
            heapq.heappush(heap, (-ranks[task], counter, task))
            counter += 1
            in_heap.add(task)

        while heap:
            _, _, task = heapq.heappop(heap)
            node = builder.best_node_by_eft(task, candidate_nodes(builder, task))
            builder.commit(task, node)
            for ready in builder.ready_tasks():
                if ready not in in_heap:
                    heapq.heappush(heap, (-ranks[ready], counter, ready))
                    counter += 1
                    in_heap.add(ready)
        return builder.schedule()
