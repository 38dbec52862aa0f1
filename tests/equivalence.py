"""Golden-equivalence fixtures shared by tests and the golden generator.

The array-compiled instance kernel (``repro.core.compiled``) promises
*bit-identical* schedules and makespan ratios relative to the scalar
dict-based builder it replaced.  This module pins that promise to a
committed artifact: ``tests/data/equivalence_golden.json`` was generated
by running the **pre-compilation** code on the deterministic cases built
here, and ``tests/test_compiled.py`` asserts the current code reproduces
it exactly (float-repr equality, no tolerances).

Regenerate (only when an intentional semantic change is being made, in
which case the change must be called out in the PR):

    PYTHONPATH=src python tests/equivalence.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.core.instance import ProblemInstance
from repro.core.network import Network
from repro.core.task_graph import TaskGraph
from repro.core.scheduler import get_scheduler, list_schedulers
from repro.datasets.random_graphs import (
    out_tree_task_graph,
    parallel_chains_task_graph,
    random_network,
)
from repro.pisa import AnnealingConfig, PISAConfig, pairwise_comparison
from repro.pisa.initial import random_chain_instance
from repro.utils.rng import as_generator

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "equivalence_golden.json"

#: Exponential schedulers only see the tiny cases (their search space
#: explodes otherwise); everything else runs the full case list.
EXPONENTIAL = ("BruteForce", "SMT")

#: The mini Fig. 4 sweep pinned by the golden matrix.
FIG4_SCHEDULERS = ["HEFT", "CPoP", "MinMin", "FastestNode"]
FIG4_CONFIG = PISAConfig(
    annealing=AnnealingConfig(max_iterations=40, alpha=0.95), restarts=2
)
FIG4_SEED = 0


def tiny_cases() -> list[ProblemInstance]:
    """Instances small enough for the exponential oracles."""
    out = []
    for i, seed in enumerate((11, 12)):
        gen = as_generator(seed)
        inst = random_chain_instance(gen, min_nodes=2, max_nodes=2, min_tasks=3, max_tasks=3)
        out.append(inst.with_name(f"tiny[{i}]"))
    return out


def standard_cases() -> list[ProblemInstance]:
    """Deterministic mid-size instances covering chains, trees, and DAGs."""
    out = list(tiny_cases())
    for i, seed in enumerate((21, 22)):
        gen = as_generator(seed)
        out.append(
            ProblemInstance(
                random_network(gen, min_nodes=4, max_nodes=6),
                parallel_chains_task_graph(
                    gen, min_chains=2, max_chains=4, min_length=2, max_length=4
                ),
                name=f"chains[{i}]",
            )
        )
    for i, seed in enumerate((31, 32)):
        gen = as_generator(seed)
        out.append(
            ProblemInstance(
                random_network(gen, min_nodes=3, max_nodes=5),
                out_tree_task_graph(gen, min_levels=3, max_levels=3),
                name=f"tree[{i}]",
            )
        )
    return out


def degenerate_cases() -> list[ProblemInstance]:
    """validate()-legal instances whose times are NaN or infinite.

    Small enough for the exponential oracles.  Not part of the golden
    (it predates them); the equivalence suite runs them against the
    frozen builder.  Node order disagrees with ``str`` order where ties
    are possible, so both tie-break rules are exercised.
    """
    inf = math.inf
    return [
        # inf cost on an inf-speed node: exec time inf/inf is NaN.
        ProblemInstance(
            Network.from_speeds({"v0": 1.0, "v1": inf, "v2": 2.0}, default_strength=1.0),
            TaskGraph.from_dicts({"a": inf, "b": 1.0}, {("a", "b"): 1.0}),
            name="nan_exec",
        ),
        # inf cost on finite-speed nodes: every makespan is infinite.
        ProblemInstance(
            Network.from_speeds({"v1": 1.0, "v0": 2.0}, default_strength=1.0),
            TaskGraph.from_dicts(
                {"a": 1.0, "b": inf, "c": 2.0}, {("a", "b"): 1.0, ("a", "c"): 0.5}
            ),
            name="all_infinite",
        ),
        # Positive data over zero-strength links.
        ProblemInstance(
            Network.from_speeds(
                {"v2": 1.0, "v0": 2.0, "v1": 1.0},
                strengths={("v2", "v0"): 0.0, ("v0", "v1"): 0.0, ("v2", "v1"): 1.0},
            ),
            TaskGraph.from_dicts(
                {"a": 1.0, "b": 2.0, "c": 1.0}, {("a", "b"): 1.0, ("b", "c"): 0.0}
            ),
            name="dead_links",
        ),
        # Infinite data: free only on one node and over the infinite link.
        ProblemInstance(
            Network.from_speeds(
                {"v1": 1.0, "v0": 2.0, "v2": 1.0},
                default_strength=1.0,
                strengths={("v1", "v0"): inf},
            ),
            TaskGraph.from_dicts(
                {"a": 1.0, "b": 2.0, "c": 1.0}, {("a", "b"): inf, ("a", "c"): 1.0}
            ),
            name="infinite_data",
        ),
    ]


def cases_for(scheduler_name: str) -> list[ProblemInstance]:
    return tiny_cases() if scheduler_name in EXPONENTIAL else standard_cases()


def schedule_entries(scheduler_name: str, instance: ProblemInstance) -> list[list]:
    """Canonical (task, node, start, end) rows, sorted for comparability."""
    sched = get_scheduler(scheduler_name).schedule(instance)
    return sorted(
        [str(e.task), str(e.node), repr(e.start), repr(e.end)] for e in sched
    )


def compute_schedules() -> dict:
    return {
        name: {inst.name: schedule_entries(name, inst) for inst in cases_for(name)}
        for name in list_schedulers()
    }


def compute_fig4_matrix() -> dict:
    result = pairwise_comparison(FIG4_SCHEDULERS, config=FIG4_CONFIG, rng=FIG4_SEED)
    return {
        f"{target}|{baseline}": [repr(r) for r in res.restart_ratios]
        for (target, baseline), res in result.results.items()
    }


def compute_golden() -> dict:
    return {"schedules": compute_schedules(), "fig4": compute_fig4_matrix()}


def main() -> None:
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
