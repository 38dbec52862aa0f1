"""WBA — Workflow-Based Application scheduler (Blythe et al. 2005).

Reference: "Task scheduling strategies for workflow-based applications in
grids", CCGrid 2005.  Scheduling complexity at most O(|T| |D| |V|)
(Section IV-A).

WBA is a greedy randomized (GRASP-style) algorithm: in each iteration it
evaluates, for every ready task, the increase in the current schedule's
makespan caused by placing the task on its best node, and then picks
randomly among the placements whose increase is within
``alpha * (max_increase - min_increase)`` of the minimum — "guided by a
distribution that favors choices that least increase the schedule
makespan" (Section IV-A).

With ``alpha = 0`` WBA degenerates to a deterministic min-increase greedy;
``alpha = 0.5`` (default) matches the exploration/exploitation middle
ground of the original paper.  The RNG seed makes runs reproducible.
"""

from __future__ import annotations

import math

from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler, SchedulerInfo, register_scheduler
from repro.core.simulator import ScheduleBuilder, select_node
from repro.utils.rng import as_generator

__all__ = ["WBAScheduler"]


@register_scheduler
class WBAScheduler(Scheduler):
    """Greedy randomized makespan-increase minimization.

    Parameters
    ----------
    alpha:
        Restricted-candidate-list width in [0, 1]; 0 = fully greedy,
        1 = uniform over all ready placements.
    seed:
        RNG seed (default 0 so that the scheduler is deterministic unless
        the caller opts into randomness).
    """

    name = "WBA"
    info = SchedulerInfo(
        name="WBA",
        full_name="Workflow-Based Application",
        reference="Blythe et al., CCGrid 2005",
        complexity="O(|T| |D| |V|)",
        machine_model="unrelated",
        notes="Greedy randomized; favors least makespan increase.",
    )

    def __init__(self, alpha: float = 0.5, seed: int = 0) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self.seed = seed

    def schedule(self, instance: ProblemInstance) -> Schedule:
        rng = as_generator(self.seed)
        builder = ScheduleBuilder(instance, insertion=False)
        nodes = builder.nodes
        while True:
            ready = builder.ready_tasks()
            if not ready:
                break
            current = builder.makespan()
            options: list[tuple[float, object, object]] = []
            for task in ready:
                row = builder.eft_row(task)
                vid = select_node(row, nodes)
                # A finish at or before the current makespan (an infinite
                # one included, once the makespan is infinite) adds nothing.
                value = row[vid]
                increase = value - current if value > current else 0.0
                options.append((increase, task, nodes[vid]))
            finite = [o for o in options if not math.isinf(o[0])]
            pool = finite if finite else options
            lo = min(o[0] for o in pool)
            hi = max(o[0] for o in pool)
            # All-infinite pools (hi == lo == inf) keep every option.
            threshold = lo + self.alpha * (hi - lo) if hi > lo else lo
            # Scale-relative tolerance: membership in the candidate list
            # must be invariant under rescaling the instance's weights.
            tol = 1e-12 * hi if math.isfinite(hi) else 0.0
            candidates = [o for o in pool if o[0] <= threshold + tol]
            choice = candidates[int(rng.integers(len(candidates)))]
            builder.commit(choice[1], choice[2])
        return builder.schedule()
