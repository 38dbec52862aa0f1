"""FLB — Fast Load Balancing (Radulescu & van Gemund 2000).

Reference: the same HCW 2000 paper as FCP; runtime O(|T| log|V| + |D|).

FLB shares FCP's two-candidate processor restriction (first-idle node +
enabling node) but differs in *task* selection: instead of a static
priority order, each round commits the ready task with the overall
earliest finish time across its candidate nodes.  This makes FLB a
load-balancing greedy — it keeps processors busy, at the cost of ignoring
the critical path (the original paper shows FCP usually beats FLB on
communication-heavy graphs).

Like FCP, FLB assumes heterogeneous node speeds but homogeneous links;
PISA freezes both when FLB participates (Section VI).
"""

from __future__ import annotations

from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler, SchedulerInfo, register_scheduler
from repro.core.simulator import ScheduleBuilder
from repro.schedulers.fcp import candidate_nodes

__all__ = ["FLBScheduler"]


@register_scheduler
class FLBScheduler(Scheduler):
    """Commit the ready (task, candidate-node) pair with minimum finish time."""

    name = "FLB"
    info = SchedulerInfo(
        name="FLB",
        full_name="Fast Load Balancing",
        reference="Radulescu & van Gemund, HCW 2000",
        complexity="O(|T| log|V| + |D|)",
        machine_model="heterogeneous-nodes/homogeneous-links",
        notes="Dynamic EFT task selection over two candidate nodes.",
    )

    def schedule(self, instance: ProblemInstance) -> Schedule:
        builder = ScheduleBuilder(instance, insertion=False)
        while True:
            ready = builder.ready_tasks()
            if not ready:
                break
            best: tuple[float, str, str, object, object] | None = None
            for task in ready:
                # The <=2 candidates share the task's memoized data-ready
                # row, so the scalar eft calls stay cheap.
                for node in candidate_nodes(builder, task):
                    key = (builder.eft(task, node), str(task), str(node), task, node)
                    if best is None or key[:3] < best[:3]:
                        best = key
            assert best is not None
            builder.commit(best[3], best[4])
        return builder.schedule()
