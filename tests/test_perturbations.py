"""Tests for PISA's perturbation operators (Section VI)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Network, ProblemInstance, TaskGraph
from repro.core.compiled import compile_instance
from repro.pisa.perturbations import (
    MIN_NODE_SPEED,
    AddDependency,
    ChangeDependencyWeight,
    ChangeNetworkEdgeWeight,
    ChangeNetworkNodeWeight,
    ChangeTaskWeight,
    PerturbationSet,
    RemoveDependency,
    default_perturbations,
)
from tests.strategies import instances


@pytest.fixture
def instance() -> ProblemInstance:
    tg = TaskGraph.from_dicts(
        {"a": 0.5, "b": 0.5, "c": 0.5},
        {("a", "b"): 0.5, ("b", "c"): 0.5},
    )
    net = Network.from_speeds(
        {"u": 0.5, "v": 0.5, "w": 0.5}, default_strength=0.5
    )
    return ProblemInstance(net, tg)


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestWeightOperators:
    def test_node_weight_changes_one_node(self, instance):
        out = ChangeNetworkNodeWeight().apply(instance, rng())
        changed = [
            v for v in instance.network.nodes
            if out.network.speed(v) != instance.network.speed(v)
        ]
        assert len(changed) <= 1  # at most one node nudged

    def test_node_weight_bounds(self, instance):
        op = ChangeNetworkNodeWeight()
        current = instance
        for i in range(200):
            current = op.apply(current, rng(i))
        for v in current.network.nodes:
            assert MIN_NODE_SPEED <= current.network.speed(v) <= 1.0

    def test_edge_weight_bounds_allow_zero(self, instance):
        op = ChangeNetworkEdgeWeight()
        current = instance
        for i in range(300):
            current = op.apply(current, rng(i))
        strengths = [current.network.strength(u, v) for u, v in current.network.links]
        assert all(0.0 <= s <= 1.0 for s in strengths)

    def test_task_weight_bounds(self, instance):
        op = ChangeTaskWeight()
        current = instance
        for i in range(200):
            current = op.apply(current, rng(i))
        assert all(0.0 <= current.task_graph.cost(t) <= 1.0 for t in current.task_graph.tasks)

    def test_dependency_weight_bounds(self, instance):
        op = ChangeDependencyWeight()
        current = instance
        for i in range(200):
            current = op.apply(current, rng(i))
        assert all(
            0.0 <= current.task_graph.data_size(u, v) <= 1.0
            for u, v in current.task_graph.dependencies
        )

    def test_step_magnitude(self, instance):
        """A single nudge moves a weight by at most `step`."""
        op = ChangeTaskWeight(step=0.1)
        out = op.apply(instance, rng(7))
        diffs = [
            abs(out.task_graph.cost(t) - instance.task_graph.cost(t))
            for t in instance.task_graph.tasks
        ]
        assert max(diffs) <= 0.1 + 1e-12

    def test_custom_range(self, instance):
        """Section VII re-scales the ranges to trace observations."""
        op = ChangeTaskWeight(low=10.0, high=60.0, step=5.0)
        out = op.apply(instance, rng(0))
        changed = [
            t for t in out.task_graph.tasks
            if out.task_graph.cost(t) != instance.task_graph.cost(t)
        ]
        for t in changed:
            assert 10.0 <= out.task_graph.cost(t) <= 60.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ChangeTaskWeight(low=1.0, high=0.0)
        with pytest.raises(ValueError):
            ChangeTaskWeight(step=0.0)

    def test_does_not_mutate_input(self, instance):
        before = instance.copy()
        for op in default_perturbations().operators:
            op.apply(instance, rng(3))
        assert instance.task_graph == before.task_graph
        assert instance.network == before.network


class TestStructuralOperators:
    def test_add_dependency_keeps_dag(self, instance):
        op = AddDependency()
        current = instance
        for i in range(100):
            current = op.apply(current, rng(i))
            assert nx.is_directed_acyclic_graph(current.task_graph.graph)

    def test_add_dependency_complete_dag_noop(self):
        tg = TaskGraph.from_dicts(
            {"a": 0.5, "b": 0.5}, {("a", "b"): 0.5}
        )
        net = Network.from_speeds({"u": 1.0})
        inst = ProblemInstance(net, tg)
        out = AddDependency().apply(inst, rng(0))
        # a->b exists; b->a would cycle: the graph must be unchanged.
        assert out.task_graph.dependencies == (("a", "b"),)

    def test_add_dependency_weight_range(self, instance):
        op = AddDependency(low=0.0, high=1.0)
        out = op.apply(instance, rng(1))
        new_edges = set(out.task_graph.dependencies) - set(instance.task_graph.dependencies)
        for u, v in new_edges:
            assert 0.0 <= out.task_graph.data_size(u, v) <= 1.0

    def test_remove_dependency(self, instance):
        out = RemoveDependency().apply(instance, rng(0))
        assert out.task_graph.num_dependencies == instance.task_graph.num_dependencies - 1

    def test_remove_dependency_inapplicable_when_empty(self):
        tg = TaskGraph.from_dicts({"a": 0.5}, {})
        inst = ProblemInstance(Network.from_speeds({"u": 1.0}), tg)
        assert not RemoveDependency().applicable(compile_instance(inst))


class TestPerturbationSet:
    def test_default_has_six_operators(self):
        assert len(default_perturbations().operators) == 6

    def test_perturb_skips_inapplicable(self):
        tg = TaskGraph.from_dicts({"a": 0.5}, {})  # no deps to remove/change
        inst = ProblemInstance(Network.from_speeds({"u": 1.0}), tg)
        pset = PerturbationSet([RemoveDependency()])
        out = pset.perturb(inst, rng(0))
        assert out.task_graph == inst.task_graph  # graceful no-op copy

    def test_without(self):
        pset = default_perturbations().without("add_dependency", "remove_dependency")
        assert len(pset.operators) == 4
        assert "add_dependency" not in pset.names

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            PerturbationSet([])

    def test_perturbed_instances_stay_valid(self, instance):
        pset = default_perturbations()
        current = instance
        gen = rng(0)
        for _ in range(300):
            current = pset.perturb(current, gen)
        current.validate()


@settings(max_examples=30, deadline=None)
@given(inst=instances(min_tasks=2, max_tasks=5, min_nodes=2, max_nodes=3), seed=st.integers(0, 10_000))
def test_property_perturbation_chain_preserves_invariants(inst, seed):
    """Any perturbation chain keeps instances valid and acyclic."""
    pset = default_perturbations()
    gen = np.random.default_rng(seed)
    current = inst
    for _ in range(20):
        current = pset.perturb(current, gen)
    current.validate()
    assert nx.is_directed_acyclic_graph(current.task_graph.graph)
    assert set(current.task_graph.tasks) == set(inst.task_graph.tasks)
    assert set(current.network.nodes) == set(inst.network.nodes)
