"""Delta-compilation contract: ``apply_delta`` == a fresh compile.

The speculative annealer evaluates perturbed candidates on tables built
by :meth:`CompiledInstance.apply_delta` instead of recompiling, so the
clone must be *bit-identical* to ``compile_instance`` of the perturbed
instance — every table, list mirror, and scalar aggregate — for every
delta kind a perturbation can emit.  Hypothesis drives instances and
deltas; equality is exact (``==``), never approximate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Network, ProblemInstance, TaskGraph
from repro.core.compiled import (
    CompiledInstance,
    compile_instance,
    compile_stats,
    reset_compile_stats,
)
from repro.core.exceptions import InvalidInstanceError, SchedulingError
from repro.pisa.perturbations import (
    MIN_NODE_SPEED,
    Delta,
    PlannedMove,
    apply_delta_mutation,
)

from tests.strategies import instances, networks

#: Every array/list/scalar a delta clone could plausibly get wrong.
_COMPARED = (
    "cost",
    "cost_list",
    "speed",
    "exec_tbl",
    "exec_list",
    "strength",
    "strength_list",
    "data",
    "pred_edges",
    "_mean_inv_speed",
    "_inv_strength_sum",
    "_links_have_zero",
)

_values = st.floats(min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False)


def _assert_clone_equals_fresh(parent_inst, delta: Delta) -> None:
    parent = compile_instance(parent_inst)
    clone = parent.apply_delta(delta)
    assert clone is not None, f"apply_delta rejected a legal delta {delta}"

    perturbed = parent_inst.copy()
    apply_delta_mutation(perturbed, delta)
    fresh = compile_instance(perturbed)

    for name in _COMPARED:
        got, want = getattr(clone, name), getattr(fresh, name)
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape, name
            # Bit-exact: NaN-free by construction here, == suffices.
            assert (got == want).all(), f"{name} diverged for {delta}"
        else:
            assert got == want, f"{name} diverged for {delta}"
    # Structure is shared by construction; assert it anyway (cheap).
    assert clone.tasks == fresh.tasks
    assert clone.nodes == fresh.nodes
    assert clone.pred_ids == fresh.pred_ids


@settings(max_examples=60, deadline=None)
@given(inst=instances(min_tasks=1, max_tasks=6), value=_values, data=st.data())
def test_task_weight_delta_matches_fresh_compile(inst, value, data):
    tasks = inst.task_graph.tasks
    task = data.draw(st.sampled_from(list(tasks)))
    _assert_clone_equals_fresh(inst, Delta("task_weight", (task,), value))


@settings(max_examples=60, deadline=None)
@given(inst=instances(min_tasks=2, max_tasks=6), value=_values, data=st.data())
def test_dep_weight_delta_matches_fresh_compile(inst, value, data):
    deps = inst.task_graph.dependencies
    if not deps:
        return
    src, dst = data.draw(st.sampled_from(list(deps)))
    _assert_clone_equals_fresh(inst, Delta("dep_weight", (src, dst), value))


@settings(max_examples=60, deadline=None)
@given(
    inst=instances(min_tasks=1, max_tasks=5, min_nodes=1, max_nodes=4),
    value=st.floats(
        min_value=MIN_NODE_SPEED, max_value=2.0, allow_nan=False, allow_infinity=False
    ),
    data=st.data(),
)
def test_node_speed_delta_matches_fresh_compile(inst, value, data):
    node = data.draw(st.sampled_from(list(inst.network.nodes)))
    _assert_clone_equals_fresh(inst, Delta("node_speed", (node,), value))


@settings(max_examples=60, deadline=None)
@given(
    inst=instances(min_tasks=1, max_tasks=5, min_nodes=2, max_nodes=4),
    value=_values,
    data=st.data(),
)
def test_link_strength_delta_matches_fresh_compile(inst, value, data):
    links = inst.network.links
    if not links:
        return
    u, v = data.draw(st.sampled_from(list(links)))
    _assert_clone_equals_fresh(inst, Delta("link_strength", (u, v), value))


# --------------------------------------------------------------------- #
# Rejections and bookkeeping
# --------------------------------------------------------------------- #
def _tiny_instance():
    tg = TaskGraph()
    tg.add_task("a", 1.0)
    tg.add_task("b", 0.5)
    tg.add_dependency("a", "b", 0.25)
    net = Network()
    net.add_node("x", 1.0)
    net.add_node("y", 2.0)
    net.set_strength("x", "y", 1.0)
    return ProblemInstance(net, tg, name="tiny")


@pytest.mark.parametrize(
    "delta",
    [
        Delta("task_weight", ("missing",), 1.0),
        Delta("task_weight", ("a",), -0.5),
        Delta("dep_weight", ("a", "missing"), 1.0),
        Delta("dep_weight", ("b", "a"), 1.0),  # not an edge
        Delta("node_speed", ("x",), 0.0),  # speeds must stay positive
        Delta("node_speed", ("missing",), 1.0),
        Delta("link_strength", ("x", "x"), 1.0),  # self-link
        Delta("link_strength", ("x", "y"), -1.0),
        Delta("no_such_kind", ("a",), 1.0),
    ],
)
def test_apply_delta_rejects_illegal(delta):
    compiled = compile_instance(_tiny_instance())
    assert compiled.apply_delta(delta) is None


def test_compile_stats_counters():
    reset_compile_stats()
    inst = _tiny_instance()
    compiled = compile_instance(inst)  # full
    compile_instance(inst)  # cache hit
    clone = compiled.apply_delta(Delta("task_weight", ("a",), 0.75))
    assert clone is not None
    stats = compile_stats()
    assert stats["full"] == 1
    assert stats["cache_hits"] == 1
    assert stats["delta"] == 1


def test_unbound_clone_is_scored_as_its_own_instance():
    """An unbound clone stands in for the materialized candidate: it is
    its own compilation (a counted cache hit), and schedulers score it
    exactly like the copy it describes."""
    from repro.core.scheduler import get_scheduler

    inst = _tiny_instance()
    compiled = compile_instance(inst)
    delta = Delta("task_weight", ("a",), 0.75)
    clone = compiled.apply_delta(delta)
    assert clone.instance is None  # unbound: tables only
    reset_compile_stats()
    assert compile_instance(clone) is clone
    assert compile_stats() == {"full": 0, "delta": 0, "cache_hits": 1}
    perturbed = inst.copy()
    apply_delta_mutation(perturbed, delta)
    for name in ("HEFT", "CPoP", "FCP", "BIL", "FastestNode", "BruteForce", "SMT"):
        scheduler = get_scheduler(name)
        assert scheduler.schedule(clone).to_dict() == scheduler.schedule(perturbed).to_dict()


# --------------------------------------------------------------------- #
# Every slot, every delta kind, against the materialized move
# --------------------------------------------------------------------- #
#: Slots that tie a compilation to an instance (or its shape cache), not
#: to the tables: an unbound clone differs there by design.
_BINDING = {"instance", "_task_graph", "_network", "_tg_version", "_net_version", "shape_cache"}


@st.composite
def shuffled_edge_instances(draw, max_tasks: int = 7):
    """Instances whose dependencies were inserted in random order, so the
    predecessor lists are *not* sorted by source (as after an added edge)."""
    n = draw(st.integers(2, max_tasks))
    names = [f"t{i}" for i in range(n)]
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    tg = TaskGraph()
    for name in names:
        tg.add_task(name, draw(_values))
    for u, v in edges:
        tg.add_dependency(u, v, draw(_values))
    return ProblemInstance(draw(networks(1, 3)), tg, name="shuffled")


def _assert_all_slots_equal(clone: CompiledInstance, fresh: CompiledInstance, why) -> None:
    for name in CompiledInstance.__slots__:
        if name in _BINDING:
            continue
        got, want = getattr(clone, name), getattr(fresh, name)
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape, (name, why)
            assert (got == want).all(), (name, why)
        elif isinstance(want, dict):
            # Iteration order is part of the contract (graph edge order).
            assert list(got.items()) == list(want.items()), (name, why)
        else:
            assert got == want, (name, why)


def _delta_for(inst, kind: str, data) -> Delta | None:
    tasks, deps = inst.task_graph.tasks, inst.task_graph.dependencies
    nodes, links = inst.network.nodes, inst.network.links
    value = data.draw(_values)
    if kind == "task_weight":
        return Delta(kind, (data.draw(st.sampled_from(tasks)),), value)
    if kind in ("dep_weight", "remove_dep"):
        return Delta(kind, data.draw(st.sampled_from(deps)), value) if deps else None
    if kind == "node_speed":
        return Delta(kind, (data.draw(st.sampled_from(nodes)),), max(value, MIN_NODE_SPEED))
    if kind == "link_strength":
        return Delta(kind, data.draw(st.sampled_from(links)), value) if links else None
    src, dst = data.draw(st.sampled_from(tasks)), data.draw(st.sampled_from(tasks))
    return Delta(kind, (src, dst), value)  # add_dep, legal or not


@settings(max_examples=150, deadline=None)
@given(
    inst=shuffled_edge_instances(),
    kind=st.sampled_from(
        ["task_weight", "dep_weight", "node_speed", "link_strength", "add_dep", "remove_dep"]
    ),
    data=st.data(),
)
def test_every_delta_matches_a_fresh_compile_of_the_materialized_move(inst, kind, data):
    """``apply_delta`` equals a fresh compile of ``move.materialize`` on
    every slot — including the order of ``data`` and of each predecessor
    tuple, which a task-graph copy re-sorts and an added edge extends."""
    delta = _delta_for(inst, kind, data)
    if delta is None:
        return
    parent = compile_instance(inst)
    clone = parent.apply_delta(delta)
    try:
        materialized = PlannedMove(kind, delta).materialize(inst)
    except InvalidInstanceError:
        # Self-dependency or cycle: the setter's error.
        assert clone is None, delta
        return
    if kind == "add_dep" and delta.key in inst.task_graph.dependencies:
        # networkx re-adding an edge only updates its weight; no plan
        # draws one, so apply_delta refuses and the caller materializes.
        assert clone is None, delta
        return
    assert clone is not None, delta
    _assert_all_slots_equal(clone, compile_instance(materialized), delta)
    # A chain of moves stays exact: derive again from the clone.
    follow = _delta_for(materialized, data.draw(st.sampled_from(["task_weight", "remove_dep"])), data)
    if follow is not None:
        again = clone.apply_delta(follow)
        assert again is not None
        twice = PlannedMove("follow", follow).materialize(materialized)
        _assert_all_slots_equal(again, compile_instance(twice), (delta, follow))


def _chain_instance():
    tg = TaskGraph()
    for name in ("d", "c", "b", "a"):
        tg.add_task(name, 1.0)
    for u, v in (("d", "c"), ("c", "b"), ("b", "a")):
        tg.add_dependency(u, v, 0.5)
    net = Network()
    net.add_node("x", 1.0)
    net.add_node("y", 0.5)
    net.set_strength("x", "y", 1.0)
    return ProblemInstance(net, tg, name="chain")


def test_shape_cache_is_per_structure():
    """A structural clone gets a fresh shape cache: the lexicographic
    order and the lockstep kernel's padded arrays are recomputed for the
    new edges, never read from the parent's structure."""
    from repro.core.batched import _structure

    inst = _chain_instance()
    parent = compile_instance(inst)
    parent_order = parent.topological_order()
    parent_art = _structure(parent)
    assert parent.apply_delta(Delta("task_weight", ("a",), 0.5)).shape_cache is parent.shape_cache

    delta = Delta("add_dep", ("d", "a"), 0.25)
    clone = parent.apply_delta(delta)
    assert clone.shape_cache is not parent.shape_cache
    assert clone.shape_cache == {}
    fresh = compile_instance(PlannedMove("add_dependency", delta).materialize(inst))
    assert clone.topological_order() == fresh.topological_order() == parent_order
    art, want = _structure(clone), _structure(fresh)
    assert art is not parent_art
    for field in ("pred_count", "succ_pad", "succ_mask", "succ_count", "topo_index"):
        assert (getattr(art, field) == getattr(want, field)).all(), field
    assert art.succ_pad.shape != parent_art.succ_pad.shape  # "d" now has 2 successors

    # Removing the chain's middle edge changes the lexicographic order.
    cut = Delta("remove_dep", ("c", "b"), 0.0)
    removed = parent.apply_delta(cut)
    fresh = compile_instance(PlannedMove("remove_dependency", cut).materialize(inst))
    assert removed.topological_order() == fresh.topological_order() != parent_order
    assert (_structure(removed).pred_count == _structure(fresh).pred_count).all()


def test_structural_delta_rejections():
    compiled = compile_instance(_chain_instance())
    for delta in (
        Delta("add_dep", ("d", "c"), 0.5),  # duplicate
        Delta("add_dep", ("a", "d"), 0.5),  # cycle
        Delta("add_dep", ("a", "a"), 0.5),  # self-dependency
        Delta("add_dep", ("d", "zz"), 0.5),  # unknown task
        Delta("add_dep", ("d", "b"), -1.0),  # negative size
        Delta("remove_dep", ("d", "b"), 0.0),  # missing edge
    ):
        assert compiled.apply_delta(delta) is None, delta


# --------------------------------------------------------------------- #
# Unknown keys raise SchedulingError, on bound and unbound builders alike
# --------------------------------------------------------------------- #
@pytest.fixture
def unbound():
    compiled = compile_instance(_tiny_instance())
    clone = compiled.apply_delta(Delta("task_weight", ("a",), 0.75))
    assert clone.instance is None
    return clone


def test_unbound_mean_exec_names_the_task(unbound):
    with pytest.raises(SchedulingError, match="unknown task 'zz'"):
        unbound.mean_exec("zz")


def test_unbound_mean_comm_names_the_dependency(unbound):
    with pytest.raises(SchedulingError, match="unknown dependency 'b'->'a'"):
        unbound.mean_comm("b", "a")
    with pytest.raises(SchedulingError, match="unknown dependency 'a'->'zz'"):
        unbound.mean_comm("a", "zz")


def test_unbound_builder_exec_time(unbound):
    from repro.core.simulator import ScheduleBuilder

    builder = ScheduleBuilder(unbound)
    with pytest.raises(SchedulingError, match="unknown task 'zz'"):
        builder.eft("zz", "x")
    with pytest.raises(SchedulingError, match="unknown node 'w'"):
        builder.eft("a", "w")
    with pytest.raises(SchedulingError, match="unknown task 'zz'"):
        builder.est("zz", "x")


def test_unbound_builder_data_ready_time(unbound):
    from repro.core.simulator import ScheduleBuilder

    builder = ScheduleBuilder(unbound)
    with pytest.raises(SchedulingError, match="unknown task 'zz'"):
        builder.data_ready_time("zz", "x")
    with pytest.raises(SchedulingError, match="unknown node 'w'"):
        builder.data_ready_time("a", "w")


@pytest.mark.parametrize("kind", ["bound", "unbound"])
def test_builder_unknown_keys_raise_scheduling_error(kind, unbound):
    """Every query names the unknown task or node, whichever kind of
    compilation the builder runs on."""
    from repro.core.simulator import ScheduleBuilder

    builder = ScheduleBuilder(_tiny_instance() if kind == "bound" else unbound)
    unknown_task = [
        lambda: builder.est("zz", "x"),
        lambda: builder.eft("zz", "x"),
        lambda: builder.data_ready_time("zz", "x"),
        lambda: builder.est_row("zz"),
        lambda: builder.eft_row("zz"),
        lambda: builder.best_node_by_eft("zz"),
        lambda: builder.best_node_by_eft("zz", ["x"]),
        lambda: builder.commit("zz", "x"),
    ]
    for query in unknown_task:
        with pytest.raises(SchedulingError, match="unknown task 'zz'"):
            query()
    unknown_node = [
        lambda: builder.est("a", "w"),
        lambda: builder.eft("a", "w"),
        lambda: builder.data_ready_time("a", "w"),
        lambda: builder.best_node_by_eft("a", ["w"]),
        lambda: builder.node_available("w"),
        lambda: builder.commit("a", "w"),
    ]
    for query in unknown_node:
        with pytest.raises(SchedulingError, match="unknown node 'w'"):
            query()
    builder.commit("a", "x")  # the failed queries left no trace
    assert builder.ready_tasks() == ["b"]
