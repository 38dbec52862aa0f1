"""ETF — Earliest Task First (Hwang, Chow, Anger & Lee 1989).

Reference: "Scheduling precedence graphs in systems with interprocessor
communication times", SIAM J. Comput. 18(2).  Runtime O(|T| |V|^2).

Each round, ETF computes the earliest possible *start* time of every ready
task on every node (given previously committed decisions) and commits the
(task, node) pair with the minimum start time — in contrast to HEFT/CPoP,
which minimize *completion* time (Section IV-A highlights this
difference).  Ties are broken by higher static level, as in the original
paper, then by task name for determinism.

ETF was designed for homogeneous compute nodes; PISA therefore freezes all
node speeds at 1 when ETF takes part in a comparison (Section VI), but the
implementation itself runs on arbitrary related-machines networks.
"""

from __future__ import annotations

from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler, SchedulerInfo, register_scheduler
from repro.core.simulator import ScheduleBuilder
from repro.schedulers.common import static_level

__all__ = ["ETFScheduler"]


@register_scheduler
class ETFScheduler(Scheduler):
    """Greedily commit the (ready task, node) pair with the earliest start time."""

    name = "ETF"
    info = SchedulerInfo(
        name="ETF",
        full_name="Earliest Task First",
        reference="Hwang, Chow, Anger & Lee, SIAM J. Comput. 1989",
        complexity="O(|T| |V|^2)",
        machine_model="homogeneous-nodes",
        notes="Provable bound (2 - 1/n) w_opt + C; minimizes start, not finish.",
    )

    def schedule(self, instance: ProblemInstance) -> Schedule:
        builder = ScheduleBuilder(instance, insertion=False)
        levels = static_level(instance)
        nodes = builder.nodes
        while True:
            ready = builder.ready_tasks()
            if not ready:
                break
            best: tuple[float, float, str, object, object] | None = None
            for task in ready:
                # Within a task the key varies only by EST, so the row's
                # first minimum is the scalar inner loop's node choice.
                row = builder.est_row(task)
                vid = min(range(len(row)), key=row.__getitem__)
                key = (row[vid], -levels[task], str(task), task, nodes[vid])
                if best is None or key[:3] < best[:3]:
                    best = key
            assert best is not None
            builder.commit(best[3], best[4])
        return builder.schedule()
