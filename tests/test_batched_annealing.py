"""PISA's one annealer: bit-identical to the frozen serial loop.

The golden property of `repro.pisa.batch.SpeculativeAnnealer` is that
its machinery is *invisible*: for any seed, schedule, and scheduler
pair, the trajectory — every candidate energy, acceptance decision,
temperature, best energy, and the generator state at every point — is
exactly Algorithm 1's serial loop, the frozen `SimulatedAnnealing` run
with PISA's energy and PERTURB (a fresh copy and a full compile per
candidate).  These tests pin that across all fig4 ordered pairs (kernel
pairs speculate and batch; the rest run at depth 1 with half-copied,
delta-compiled candidates), with the lockstep kernel on and off, plus
the NaN regression for the hoisted finiteness validation and the grouped
`batch_energy` rework.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pisa.annealing import (
    AnnealingConfig,
    SimulatedAnnealing,
    require_finite_energy,
)
from repro.pisa.app_specific import AppSpecificSpace
from repro.pisa.batch import SpeculativeAnnealer, batch_energy
from repro.pisa.constraints import apply_initial_constraints
from repro.pisa.initial import random_chain_instance
from repro.pisa.pisa import PISA, PISAConfig
from repro.schedulers import PAPER_SCHEDULERS
from repro.utils.rng import as_generator

KERNEL_TRIO = ("HEFT", "MinMin", "MaxMin")
NON_KERNEL_PAIRS = [
    (t, b)
    for t, b in itertools.permutations(PAPER_SCHEDULERS, 2)
    if not (t in KERNEL_TRIO and b in KERNEL_TRIO)
]


def _pisa(target, baseline, cfg, batch=True, **kwargs):
    return PISA(
        target,
        baseline,
        config=PISAConfig(annealing=cfg, restarts=1, keep_history=True, batch=batch),
        **kwargs,
    )


def _reference_restart(pisa, rng):
    """``pisa.run_restart`` through the frozen serial loop: PISA's energy
    and PERTURB, a fresh copy and a full compile per candidate."""
    gen = as_generator(rng)
    annealer = SimulatedAnnealing(
        energy=pisa.energy,
        perturb=pisa.perturbations.perturb,
        config=pisa.config.annealing,
        keep_history=True,
    )
    initial = apply_initial_constraints(pisa.initial_factory(gen), pisa.constraints)
    return annealer.run(initial, rng=gen)


def _assert_same_trajectory(serial, batched):
    assert batched.initial_energy == serial.initial_energy
    assert batched.best_energy == serial.best_energy
    assert batched.iterations == serial.iterations
    assert len(batched.history) == len(serial.history)
    for a, b in zip(serial.history, batched.history):
        assert (a.iteration, a.temperature, a.candidate_energy, a.accepted, a.best_energy) == (
            b.iteration,
            b.temperature,
            b.candidate_energy,
            b.accepted,
            b.best_energy,
        )
        # Plain Python scalars only: the history is JSON-encoded into
        # runtime checkpoints.
        assert type(b.accepted) is bool
        assert type(b.candidate_energy) is float


def _assert_same_run(pisa, seed):
    """The restart and the reference agree on history, best state, and
    the generator state they leave behind."""
    gens = [as_generator(seed), as_generator(seed)]
    reference = _reference_restart(pisa, gens[0])
    result = pisa.run_restart(rng=gens[1])
    _assert_same_trajectory(reference, result)
    assert result.best_state.to_dict() == reference.best_state.to_dict()
    assert gens[0].bit_generator.state == gens[1].bit_generator.state


@pytest.mark.parametrize(
    "target,baseline",
    [(t, b) for t, b in itertools.permutations(KERNEL_TRIO, 2)],
)
def test_kernel_pairs_trajectory_identical(target, baseline):
    """The lockstep-backed pairs, on a schedule long enough to cross the
    accept-heavy -> reject-heavy transition (serial-mode and kernel-mode
    rounds both execute, with several window adaptations), with the
    kernel on and off."""
    cfg = AnnealingConfig(alpha=0.95)
    for seed in (0, 1):
        for batch in (True, False):
            _assert_same_run(_pisa(target, baseline, cfg, batch=batch), seed)


def test_all_fig4_pairs_trajectory_identical():
    """Every ordered pair of the 15 paper schedulers, short schedule."""
    cfg = AnnealingConfig(alpha=0.75)  # ~16 iterations
    for target, baseline in itertools.permutations(PAPER_SCHEDULERS, 2):
        pisa = _pisa(target, baseline, cfg)
        _assert_same_trajectory(_reference_restart(pisa, 3), pisa.run_restart(rng=3))


def test_generator_state_identical_after_run():
    """The rewind protocol leaves the generator exactly where the serial
    run would have: the next draws after the run agree."""
    cfg = AnnealingConfig(alpha=0.9)
    for seed in range(3):
        gen = as_generator(seed)
        _reference_restart(_pisa("HEFT", "MinMin", cfg), gen)
        want = gen.random(8).tolist()
        for batch in (True, False):
            gen = as_generator(seed)
            _pisa("HEFT", "MinMin", cfg, batch=batch).run_restart(rng=gen)
            assert gen.random(8).tolist() == want


def test_metropolis_acceptance_identical():
    cfg = AnnealingConfig(alpha=0.9, acceptance="metropolis")
    pisa = _pisa("MinMin", "MaxMin", cfg)
    _assert_same_trajectory(_reference_restart(pisa, 11), pisa.run_restart(rng=11))


_APP_SPACE = AppSpecificSpace("srasearch", ccr=0.2, min_nodes=3, max_nodes=4)


@settings(max_examples=25, deadline=None)
@given(
    pair=st.sampled_from(NON_KERNEL_PAIRS),
    app=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from([0.6, 0.75, 0.85]),
)
def test_depth_one_pairs_match_the_reference(pair, app, seed, alpha):
    """Random non-kernel pairs — constrained ones (ETF, FCP, FLB, BIL,
    GDL freeze network weights) and the Section VII app perturbation set
    (weights only, trace-scaled ranges) included — run at speculation
    depth 1 exactly like the frozen serial loop."""
    cfg = AnnealingConfig(alpha=alpha)
    kwargs = {}
    if app:
        kwargs = dict(
            perturbations=_APP_SPACE.perturbations(),
            initial_factory=_APP_SPACE.initial_instance,
        )
    _assert_same_run(_pisa(*pair, cfg, **kwargs), seed)


def test_robustness_gap_on_a_kernel_pair_scores_its_own_energy():
    """`RobustnessGapPISA` overrides the energy, so even on a lockstep
    pair (and with the kernel allowed) every candidate must be scored by
    the robustness objective, never by the kernel's static ratio."""
    from repro.core.dynamic import DynamicsSpec, NoiseSpec
    from repro.pisa.robustness import RobustnessGapPISA

    dynamics = DynamicsSpec(
        contention="fair", error=NoiseSpec(kind="uniform", low=0.7, high=1.8), samples=3
    )
    cfg = AnnealingConfig(max_iterations=300, alpha=0.99)
    pisa = RobustnessGapPISA(
        "HEFT",
        "MinMin",
        dynamics=dynamics,
        config=PISAConfig(annealing=cfg, restarts=1, keep_history=True, batch=True),
    )
    _assert_same_run(pisa, 3)


def test_materialize_copies_only_the_touched_half():
    """A planned move never changes its parent, and shares exactly the
    half of the instance it does not touch."""
    pset = PISA("HEFT", "CPoP").perturbations
    parent = random_chain_instance(7)
    snapshot = parent.to_dict()
    versions = (parent.network.version, parent.task_graph.version)
    gen = as_generator(7)
    seen = set()
    for _ in range(200):
        move = pset.plan(parent, gen)
        child = move.materialize(parent)
        network_move = move.op_name.startswith("change_network")
        assert (child.network is parent.network) == (not network_move)
        assert (child.task_graph is parent.task_graph) == network_move
        seen.add(move.op_name)
    identity = type(move)("identity").materialize(parent)
    assert identity.network is not parent.network
    assert identity.task_graph is not parent.task_graph
    assert len(seen) == 6
    assert parent.to_dict() == snapshot
    assert (parent.network.version, parent.task_graph.version) == versions


def test_kernel_pair_history_is_json_serializable():
    """The speculative replay stores plain bools, so an opted-in history
    of a lockstep pair survives the checkpoint codec."""
    from repro.runtime.pairwise import (
        decode_unit_result,
        encode_unit_result,
        run_pairwise_unit,
        unit_key,
    )
    from repro.runtime.units import WorkUnit
    from repro.utils.rng import spawn

    pisa = _pisa("HEFT", "MinMin", AnnealingConfig(alpha=0.9))
    unit = WorkUnit(key=unit_key("HEFT", "MinMin", 0), payload=(pisa, 0), rng=spawn(3, 1)[0])
    result = run_pairwise_unit(unit)
    assert any(step.accepted for step in result.annealing.history)
    restored = decode_unit_result(json.loads(json.dumps(encode_unit_result(result))))
    assert restored.annealing.history == result.annealing.history


# --------------------------------------------------------------------- #
# Finiteness validation (hoisted to the batch boundary)
# --------------------------------------------------------------------- #
def test_require_finite_energy_messages():
    require_finite_energy(1.5)  # finite: no-op
    with pytest.raises(ValueError, match="energy must be finite, got nan"):
        require_finite_energy(float("nan"))
    with pytest.raises(ValueError, match="energy must be finite, got inf"):
        require_finite_energy(float("inf"))
    with pytest.raises(ValueError, match="energy of the initial state must be finite"):
        require_finite_energy(float("nan"), initial=True)


def test_serial_annealer_still_raises_on_nan():
    """Regression for the hoist: the serial loop must keep raising."""
    calls = {"n": 0}

    def energy(state):
        calls["n"] += 1
        return 1.0 if calls["n"] <= 3 else float("nan")

    annealer = SimulatedAnnealing(
        energy=energy, perturb=lambda s, rng: s, config=AnnealingConfig(alpha=0.5)
    )
    with pytest.raises(ValueError, match="energy must be finite, got nan"):
        annealer.run(object(), rng=0)


def test_serial_annealer_raises_on_nonfinite_initial():
    annealer = SimulatedAnnealing(
        energy=lambda s: float("inf"), perturb=lambda s, rng: s
    )
    with pytest.raises(ValueError, match="energy of the initial state must be finite"):
        annealer.run(object(), rng=0)


def test_batched_annealer_raises_on_nan(monkeypatch):
    """A NaN energy inside a speculative batch surfaces with the serial
    message, via the vectorized batch-boundary check."""
    import repro.pisa.batch as batch_mod

    real_ratio = batch_mod.makespan_ratio
    calls = {"n": 0}

    def poisoned(target_ms, baseline_ms):
        calls["n"] += 1
        if calls["n"] <= 1:  # let the initial-state evaluation through
            return real_ratio(target_ms, baseline_ms)
        return float("nan")

    monkeypatch.setattr(batch_mod, "makespan_ratio", poisoned)
    pisa = PISA(
        "HEFT",
        "MinMin",
        config=PISAConfig(annealing=AnnealingConfig(alpha=0.95), restarts=1, batch=True),
    )
    with pytest.raises(ValueError, match="energy must be finite, got nan"):
        pisa.run_restart(rng=0)


def test_batched_annealer_raises_on_nonfinite_initial(monkeypatch):
    import repro.pisa.batch as batch_mod

    monkeypatch.setattr(batch_mod, "makespan_ratio", lambda t, b: float("nan"))
    pisa = PISA(
        "HEFT",
        "MinMin",
        config=PISAConfig(annealing=AnnealingConfig(alpha=0.95), restarts=1, batch=True),
    )
    with pytest.raises(ValueError, match="energy of the initial state must be finite"):
        pisa.run_restart(rng=0)


# --------------------------------------------------------------------- #
# Grouped batch_energy
# --------------------------------------------------------------------- #
def test_batch_energy_grouped_identical_to_scalar():
    pisa = PISA("HEFT", "MinMin")
    gen = as_generator(2)
    seed_inst = random_chain_instance(gen)
    # Weight siblings (structure-identical, stacked through the kernel)
    # plus structural mutants (serial path) in one population.
    population = [seed_inst]
    for _ in range(12):
        population.append(pisa.perturbations.perturb(seed_inst, gen))
    got = batch_energy("HEFT", "MinMin", population)
    want = np.array([pisa.energy(p) for p in population])
    assert got.tolist() == want.tolist()


def test_batch_energy_unsupported_pair_identical():
    pisa = PISA("HEFT", "CPoP")
    gen = as_generator(4)
    seed_inst = random_chain_instance(gen)
    population = [seed_inst] + [
        pisa.perturbations.perturb(seed_inst, gen) for _ in range(5)
    ]
    got = batch_energy("HEFT", "CPoP", population)
    want = np.array([pisa.energy(p) for p in population])
    assert got.tolist() == want.tolist()


def test_unsupported_pair_runs_at_depth_one():
    """A pair without a lockstep kernel, driven directly: no context is
    built, every candidate is scored serially, and the run equals the
    frozen reference."""
    pisa = _pisa("HEFT", "CPoP", AnnealingConfig(alpha=0.8))
    annealer = SpeculativeAnnealer(
        target="HEFT",
        baseline="CPoP",
        perturbations=pisa.perturbations,
        energy=pisa.energy,
        config=pisa.config.annealing,
    )
    assert not annealer.lockstep
    gen = as_generator(6)
    initial = random_chain_instance(gen)
    result = annealer.run(initial, rng=gen)
    gen = as_generator(6)
    initial = random_chain_instance(gen)
    reference = SimulatedAnnealing(
        energy=pisa.energy, perturb=pisa.perturbations.perturb, config=pisa.config.annealing
    ).run(initial, rng=gen)
    _assert_same_trajectory(reference, result)


# --------------------------------------------------------------------- #
# Config plumbing
# --------------------------------------------------------------------- #
def test_pisa_config_batch_round_trips_through_spec():
    from repro.sweeps.spec import _config_from_dict, _config_to_dict

    for flag in (True, False):
        cfg = PISAConfig(batch=flag)
        data = _config_to_dict(cfg)
        assert data["batch"] is flag
        assert _config_from_dict(data, "config").batch is flag
    # Default stays on when the key is absent (older spec files).
    assert _config_from_dict({"restarts": 2}, "config").batch is True


# --------------------------------------------------------------------- #
# Candidates are scored from compiled tables; the best state is built once
# --------------------------------------------------------------------- #
def _structural_heavy():
    from repro.pisa.perturbations import (
        AddDependency,
        ChangeNetworkNodeWeight,
        ChangeTaskWeight,
        PerturbationSet,
        RemoveDependency,
    )

    return PerturbationSet(
        [AddDependency(), RemoveDependency(), ChangeTaskWeight(), ChangeNetworkNodeWeight()]
    )


def _adjacency(instance):
    """Everything networkx iteration order exposes of an instance."""
    tg, net = instance.task_graph.graph, instance.network.graph
    return (
        instance.to_dict(),
        [list(tg.pred[v]) for v in tg],
        [list(tg.succ[u]) for u in tg],
        list(tg.edges),
        list(net.edges),
        [list(net.adj[v]) for v in net],
    )


@pytest.mark.parametrize(
    "target,baseline",
    [("HEFT", "MinMin"), ("FCP", "FLB"), ("CPoP", "MET"), ("WBA", "GDL"), ("BIL", "OLB")],
)
def test_best_state_equals_the_serial_copies_on_structural_runs(target, baseline):
    """The best instance, built once from the accepted moves, equals the
    frozen loop's chain of copies down to networkx adjacency order: the
    predecessor order a task-graph copy re-sorts and an added edge
    extends, successor and edge order, the network's edge order."""
    cfg = AnnealingConfig(alpha=0.93)
    for seed in (0, 1, 2):
        pisa = _pisa(target, baseline, cfg, perturbations=_structural_heavy())
        gens = [as_generator(seed), as_generator(seed)]
        reference = _reference_restart(pisa, gens[0])
        result = pisa.run_restart(rng=gens[1])
        _assert_same_trajectory(reference, result)
        assert _adjacency(result.best_state) == _adjacency(reference.best_state)
        assert gens[0].bit_generator.state == gens[1].bit_generator.state
        assert result.best_state.name == reference.best_state.name


def test_identity_moves_match_the_serial_copies():
    """On a complete DAG, AddDependency has no legal edge: the move is
    the identity (a full copy in the serial loop) and may be accepted
    between structural moves."""
    from repro import Network, ProblemInstance, TaskGraph
    from repro.pisa.perturbations import AddDependency, PerturbationSet, RemoveDependency

    def complete_dag(rng):
        gen = as_generator(rng)
        tg = TaskGraph()
        for name in ("c", "a", "b"):
            tg.add_task(name, float(gen.uniform(0.1, 1.0)))
        for u, v in (("a", "b"), ("c", "b"), ("c", "a")):
            tg.add_dependency(u, v, float(gen.uniform(0.1, 1.0)))
        net = Network.from_speeds({"x": 1.0, "y": 0.5}, default_strength=0.7)
        return ProblemInstance(net, tg, name="complete")

    ops = PerturbationSet([AddDependency(), RemoveDependency()])
    for batch in (True, False):
        pisa = _pisa(
            "HEFT", "CPoP", AnnealingConfig(alpha=0.9), batch=batch,
            perturbations=ops, initial_factory=complete_dag,
        )
        for seed in range(4):
            gens = [as_generator(seed), as_generator(seed)]
            reference = _reference_restart(pisa, gens[0])
            result = pisa.run_restart(rng=gens[1])
            _assert_same_trajectory(reference, result)
            assert _adjacency(result.best_state) == _adjacency(reference.best_state)


@pytest.mark.parametrize("target,baseline", [("HEFT", "MinMin"), ("CPoP", "FCP")])
def test_plain_fig4_restart_compiles_once(target, baseline):
    """One plain-ratio restart at the fig4 preset's scale makes exactly
    one full compile — its initial instance's: every candidate is an
    ``apply_delta`` clone, and the best instance is never compiled."""
    from repro.core.compiled import compile_stats, reset_compile_stats
    from repro.sweeps.presets import fig4_spec

    pisa = PISA(target, baseline, config=fig4_spec().config)
    reset_compile_stats()
    result = pisa.run_restart(rng=0)
    stats = compile_stats()
    assert stats["full"] == 1
    assert stats["delta"] > 0
    assert result.iterations > 0
    # The best instance (built after the fact) re-scores to its energy.
    assert pisa.energy(result.best_state.copy()) == result.best_energy


def test_profile_phases_are_exclusive_on_fig4(monkeypatch):
    """``--profile`` phases never nest on a fig4-mode sweep (structural
    moves on): no compile, full or delta, runs inside a scored energy —
    the "compile" phase used to nest inside "schedule" — so the phase
    totals cannot add up to more than the wall time."""
    from time import perf_counter

    from repro.core.compiled import compile_stats
    from repro.sweeps import run_sweep
    from repro.sweeps.presets import fig4_spec
    from repro.utils import phases

    nested = []
    real_energy = PISA.energy

    def energy(self, instance):
        before = compile_stats()
        value = real_energy(self, instance)
        after = compile_stats()
        nested.append(after["full"] + after["delta"] - before["full"] - before["delta"])
        return value

    monkeypatch.setattr(PISA, "energy", energy)
    config = PISAConfig(annealing=AnnealingConfig(max_iterations=40, alpha=0.9), restarts=1)
    spec = fig4_spec(schedulers=["HEFT", "MinMin", "CPoP", "FCP", "BIL"], config=config)
    phases.reset()
    phases.enable()
    try:
        t0 = perf_counter()
        run_sweep(spec)
        wall = perf_counter() - t0
    finally:
        phases.disable()
    table = phases.snapshot()
    phases.reset()
    assert len(nested) > 100 and not any(nested)
    assert {"compile", "perturb", "schedule"} <= set(table)
    total = sum(entry["seconds"] for entry in table.values())
    assert 0.0 < total <= wall, (total, wall, table)
