"""PISA's perturbation operators (Section VI).

Each iteration of the annealer perturbs the current problem instance by
selecting, uniformly at random, one of six operators:

1. **Change Network Node Weight** — pick a node uniformly, move its weight
   by U(-1/10, 1/10), clipped into [0, 1].
2. **Change Network Edge Weight** — the same for a (non-self) link.
3. **Change Task Weight** — the same for a task cost.
4. **Change Dependency Weight** — the same for a dependency data size.
5. **Add Dependency** — pick a task ``t`` uniformly, add ``t -> t'`` to a
   uniformly random ``t'`` with ``(t, t') not in D`` such that no cycle is
   created.
6. **Remove Dependency** — remove a uniformly random dependency.

Operators are objects so the application-specific variant (Section VII)
can re-parameterize the weight ranges and drop the structural operators.
Operators never mutate their input; they return a perturbed copy.

Implementation notes
--------------------
* Node *speeds* have a tiny positive floor (the related-machines model
  divides by them); the paper's nominal floor is 0.
* A new dependency's weight is drawn U(low, high) — the paper does not
  specify it; U over the same range its weight perturbations use is the
  natural choice.
* When an operator has no legal move (e.g. Remove Dependency on an empty
  edge set), it reports itself inapplicable and the selector skips it.

Plan / materialize split
------------------------
Every operator exposes two equivalent surfaces:

* :meth:`Perturbation.apply` — the classic form: copy, mutate, return.
* :meth:`Perturbation.plan` — draw *exactly the same* random numbers but
  defer the copy: the returned :class:`PlannedMove` records the move as a
  structured :class:`Delta` (every move but the identity has one, the
  structural moves included) and materializes the perturbed instance
  only on demand.

The split is what makes annealing cheap: proposing a candidate costs
only the RNG draws, and the :class:`Delta` feeds
:meth:`repro.core.compiled.CompiledInstance.apply_delta`, which derives
the candidate's compiled tables from the parent's — weight moves and
add/remove-dependency moves alike.  The annealer scores candidates from
those tables and never copies one; it materializes only the restart's
best instance, once, by replaying the accepted deltas
(:func:`apply_delta_mutation`).  ``apply`` is implemented as
``plan(...).materialize(...)``, so the two paths cannot drift.

Plans are drawn from the parent's compiled tables
(:class:`~repro.core.compiled.CompiledInstance`: task, node, dependency
and link lists in graph order, their weights, O(1) applicability
counts), not from networkx — the parent of every annealing step is
already compiled, so a draw costs no graph walk.  A materialized move
copies only the half of the instance it touches (the network for node
and link moves, the task graph for task, dependency and structural
moves) and shares the other half with the parent; neither is ever
mutated after the copy, so sharing is safe.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.compiled import NETWORK_KINDS, CompiledInstance, compile_instance
from repro.core.instance import ProblemInstance
from repro.utils import phases

__all__ = [
    "Delta",
    "PlannedMove",
    "Perturbation",
    "ChangeNetworkNodeWeight",
    "ChangeNetworkEdgeWeight",
    "ChangeTaskWeight",
    "ChangeDependencyWeight",
    "AddDependency",
    "RemoveDependency",
    "PerturbationSet",
    "default_perturbations",
]

#: Speeds must stay strictly positive under the related-machines model.
MIN_NODE_SPEED = 1e-6

#: Delta kinds understood by ``CompiledInstance.apply_delta``.
DELTA_KINDS = (
    "task_weight",
    "dep_weight",
    "node_speed",
    "link_strength",
    "add_dep",
    "remove_dep",
)

#: The delta kinds that change the task graph's edge set.
STRUCTURAL_KINDS = ("add_dep", "remove_dep")



@dataclass(frozen=True)
class Delta:
    """One move: the cell or edge a perturbation touched and its new value.

    ``kind`` selects the table (see :data:`DELTA_KINDS`); ``key`` names
    the cell in graph terms — ``(task,)``, ``(src, dst)``, ``(node,)`` or
    ``(u, v)``.  The structural kinds key the edge ``(src, dst)``;
    ``value`` is the new dependency's data size (``add_dep``) or unused
    (``remove_dep``).
    """

    kind: str
    key: tuple
    value: float


def apply_delta_mutation(instance: ProblemInstance, delta: Delta) -> None:
    """Mutate ``instance`` in place per ``delta`` (the canonical setters)."""
    if delta.kind == "task_weight":
        instance.task_graph.set_cost(delta.key[0], delta.value)
    elif delta.kind == "dep_weight":
        instance.task_graph.set_data_size(delta.key[0], delta.key[1], delta.value)
    elif delta.kind == "node_speed":
        instance.network.set_speed(delta.key[0], delta.value)
    elif delta.kind == "link_strength":
        instance.network.set_strength(delta.key[0], delta.key[1], delta.value)
    elif delta.kind == "add_dep":
        instance.task_graph.add_dependency(delta.key[0], delta.key[1], delta.value)
    elif delta.kind == "remove_dep":
        instance.task_graph.remove_dependency(delta.key[0], delta.key[1])
    else:  # pragma: no cover - Delta construction is internal
        raise ValueError(f"unknown delta kind {delta.kind!r}")


@dataclass(frozen=True)
class PlannedMove:
    """A perturbation whose randomness is already drawn but whose copy is not.

    ``delta`` describes the move (``None`` only for the identity move).
    :meth:`materialize` produces the perturbed copy — bit-identical to
    what :meth:`Perturbation.apply` would have returned under the same
    generator state, because ``apply`` *is* ``plan().materialize()``.
    """

    op_name: str
    delta: Delta | None = None

    @property
    def is_identity(self) -> bool:
        """No operator applied: the candidate equals its parent."""
        return self.delta is None

    def materialize(self, parent: ProblemInstance) -> ProblemInstance:
        """The perturbed instance: a copy of the half the move touches.

        The untouched half is *shared* with ``parent`` (the identity move
        copies both), so ``parent`` itself is never changed.
        """
        if self.is_identity:
            return parent.copy()
        network, task_graph = parent.network, parent.task_graph
        if self.delta.kind in NETWORK_KINDS:
            network = network.copy()
        else:
            task_graph = task_graph.copy()
        out = ProblemInstance(network=network, task_graph=task_graph, name=parent.name)
        apply_delta_mutation(out, self.delta)
        return out


class Perturbation(ABC):
    """One atomic instance-space move, drawn from an instance's compiled
    tables (:func:`~repro.core.compiled.compile_instance`)."""

    name: str = ""

    @abstractmethod
    def applicable(self, tables: CompiledInstance) -> bool:
        """Can this operator do anything on the compiled instance?"""

    @abstractmethod
    def plan(self, tables: CompiledInstance, rng: np.random.Generator) -> PlannedMove:
        """Draw the move without copying the instance (see module docs)."""

    def apply(self, instance: ProblemInstance, rng: np.random.Generator) -> ProblemInstance:
        """Return a perturbed *copy* of ``instance``."""
        return self.plan(compile_instance(instance), rng).materialize(instance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


@dataclass(repr=False)
class _WeightPerturbation(Perturbation):
    """Shared implementation of the four weight-nudging operators.

    ``low``/``high`` bound the weight; ``step`` is the half-width of the
    uniform nudge (paper default: 1/10 on the [0, 1] range).
    """

    low: float = 0.0
    high: float = 1.0
    step: float = 0.1

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"low ({self.low}) must not exceed high ({self.high})")
        if self.step <= 0:
            raise ValueError("step must be positive")

    def _nudge(self, value: float, rng: np.random.Generator, floor: float | None = None) -> float:
        delta = float(rng.uniform(-self.step, self.step))
        lo = self.low if floor is None else max(self.low, floor)
        return float(min(max(value + delta, lo), self.high))


class ChangeNetworkNodeWeight(_WeightPerturbation):
    """Nudge one node speed (floored slightly above 0)."""

    name = "change_network_node_weight"

    def applicable(self, tables: CompiledInstance) -> bool:
        return len(tables.nodes) > 0

    def plan(self, tables: CompiledInstance, rng: np.random.Generator) -> PlannedMove:
        vid = int(rng.integers(len(tables.nodes)))
        value = self._nudge(float(tables.speed[vid]), rng, floor=MIN_NODE_SPEED)
        return PlannedMove(self.name, delta=Delta("node_speed", (tables.nodes[vid],), value))


class ChangeNetworkEdgeWeight(_WeightPerturbation):
    """Nudge one (non-self) link strength; zero is allowed."""

    name = "change_network_edge_weight"

    def applicable(self, tables: CompiledInstance) -> bool:
        return len(tables.link_ids) > 0

    def plan(self, tables: CompiledInstance, rng: np.random.Generator) -> PlannedMove:
        a, b = tables.link_ids[int(rng.integers(len(tables.link_ids)))]
        value = self._nudge(float(tables.strength[a, b]), rng)
        key = (tables.nodes[a], tables.nodes[b])
        return PlannedMove(self.name, delta=Delta("link_strength", key, value))


class ChangeTaskWeight(_WeightPerturbation):
    """Nudge one task cost; zero is allowed."""

    name = "change_task_weight"

    def applicable(self, tables: CompiledInstance) -> bool:
        return len(tables.tasks) > 0

    def plan(self, tables: CompiledInstance, rng: np.random.Generator) -> PlannedMove:
        tid = int(rng.integers(len(tables.tasks)))
        value = self._nudge(tables.cost_list[tid], rng)
        return PlannedMove(self.name, delta=Delta("task_weight", (tables.tasks[tid],), value))


class ChangeDependencyWeight(_WeightPerturbation):
    """Nudge one dependency data size; zero is allowed."""

    name = "change_dependency_weight"

    def applicable(self, tables: CompiledInstance) -> bool:
        return len(tables.dep_ids) > 0

    def plan(self, tables: CompiledInstance, rng: np.random.Generator) -> PlannedMove:
        edge = tables.dep_ids[int(rng.integers(len(tables.dep_ids)))]
        value = self._nudge(tables.data[edge], rng)
        key = (tables.tasks[edge[0]], tables.tasks[edge[1]])
        return PlannedMove(self.name, delta=Delta("dep_weight", key, value))


def _ancestors(tables: CompiledInstance, tid: int) -> set[int]:
    """Ids of every task with a path to ``tid`` (``tid`` excluded)."""
    seen: set[int] = set()
    stack = list(tables.pred_ids[tid])
    while stack:
        pid = stack.pop()
        if pid not in seen:
            seen.add(pid)
            stack.extend(tables.pred_ids[pid])
    return seen


@dataclass(repr=False)
class AddDependency(Perturbation):
    """Add an acyclicity-preserving dependency with a U(low, high) weight."""

    low: float = 0.0
    high: float = 1.0

    name = "add_dependency"

    def applicable(self, tables: CompiledInstance) -> bool:
        return len(tables.tasks) >= 2

    def plan(self, tables: CompiledInstance, rng: np.random.Generator) -> PlannedMove:
        tasks = tables.tasks
        # Paper: pick t uniformly, then a uniformly random legal t'.  If t
        # has no legal partner, fall through to the next candidate source
        # (in random order) so the operator is a no-op only when the graph
        # admits no new edge at all.  All draws read the parent only
        # (legality is a structural question, identical on any copy).
        # t -> t' is legal when it is new and t' is not an ancestor of t
        # (a path t' ~> t would close a cycle).
        for src_id in rng.permutation(len(tasks)).tolist():
            blocked = _ancestors(tables, src_id)
            blocked.add(src_id)
            blocked.update(tables.succ_ids[src_id])
            partners = [dst_id for dst_id in range(len(tasks)) if dst_id not in blocked]
            if partners:
                dst = tasks[partners[int(rng.integers(len(partners)))]]
                weight = float(rng.uniform(self.low, self.high))
                return PlannedMove(self.name, Delta("add_dep", (tasks[src_id], dst), weight))
        return PlannedMove(self.name)  # complete DAG: nothing to add


class RemoveDependency(Perturbation):
    """Remove a uniformly random dependency."""

    name = "remove_dependency"

    def applicable(self, tables: CompiledInstance) -> bool:
        return len(tables.dep_ids) > 0

    def plan(self, tables: CompiledInstance, rng: np.random.Generator) -> PlannedMove:
        sid, did = tables.dep_ids[int(rng.integers(len(tables.dep_ids)))]
        key = (tables.tasks[sid], tables.tasks[did])
        return PlannedMove(self.name, Delta("remove_dep", key, 0.0))


class PerturbationSet:
    """A uniform mixture of perturbation operators (the PERTURB function).

    ``perturb`` picks uniformly among the operators that are *applicable*
    to the instance at hand — the paper's "randomly selecting (with equal
    probability) one of the following perturbations", restricted to legal
    moves.
    """

    def __init__(self, operators: list[Perturbation]) -> None:
        if not operators:
            raise ValueError("PerturbationSet needs at least one operator")
        self.operators = list(operators)

    def perturb(self, instance: ProblemInstance, rng: np.random.Generator) -> ProblemInstance:
        t0 = perf_counter() if phases.enabled else 0.0
        mutated = self.plan(instance, rng).materialize(instance)
        if phases.enabled:
            phases.add("perturb", perf_counter() - t0)
        return mutated

    def plan(
        self, instance: ProblemInstance | CompiledInstance, rng: np.random.Generator
    ) -> PlannedMove:
        """Draw one move (same RNG stream as :meth:`perturb`) without copying.

        Reads ``instance``'s compiled tables (the annealer passes its
        state's :class:`~repro.core.compiled.CompiledInstance` itself).
        The identity move (no applicable operator) materializes to a
        plain copy, matching what :meth:`perturb` always returned in that
        case.
        """
        tables = compile_instance(instance)
        candidates = [op for op in self.operators if op.applicable(tables)]
        if not candidates:
            return PlannedMove("identity")
        op = candidates[int(rng.integers(len(candidates)))]
        return op.plan(tables, rng)

    def without(self, *names: str) -> "PerturbationSet":
        """A copy of this set minus the named operators (Section VII)."""
        remaining = [op for op in self.operators if op.name not in names]
        return PerturbationSet(remaining)

    @property
    def names(self) -> list[str]:
        return [op.name for op in self.operators]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PerturbationSet({self.names})"


def default_perturbations() -> PerturbationSet:
    """The six operators of Section VI with the paper's parameters."""
    return PerturbationSet(
        [
            ChangeNetworkNodeWeight(),
            ChangeNetworkEdgeWeight(),
            ChangeTaskWeight(),
            ChangeDependencyWeight(),
            AddDependency(),
            RemoveDependency(),
        ]
    )
