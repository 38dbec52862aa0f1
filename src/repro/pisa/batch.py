"""Batched energy evaluation and the speculative batched annealer.

The adversarial finders all maximize the same energy — the makespan
ratio of a target scheduler over a baseline on one candidate instance —
and all of them evaluate it in bulk.  This module holds the two batched
entry points over the lockstep kernels of :mod:`repro.core.batched`:

* :func:`batch_energy` scores a population (the genetic finder's shape):
  structure-identical, batchable members are stacked and swept through
  one lockstep pass; everything else takes the serial compiled path.
  Either way element ``i`` is bit-identical to
  ``PISA(target, baseline).energy(instances[i])``.

* :class:`SpeculativeAnnealer` is PISA's annealer — every scheduler
  pair, every restart.  Each round it speculates K sibling candidates of
  the current state under the *all-reject* hypothesis — drawing the
  perturbation plan and the acceptance uniform for each in exactly the
  serial interleaving (plan_0, u_0, plan_1, u_1, ...) and snapshotting
  the generator state before every draw — evaluates the delta-compiled
  siblings in one lockstep pass, then replays the paper's sequential
  accept/reject chain over the precomputed energies.  At the first
  acceptance the generator is rewound to the state the serial annealer
  would hold (an ``E > best`` acceptance never drew its uniform; a
  probabilistic one consumed it) and the remaining speculation is
  discarded, so the trajectory — every candidate, draw, temperature,
  history record, and error — is bit-identical to Algorithm 1's serial
  loop (the frozen :class:`~repro.pisa.annealing.SimulatedAnnealing`)
  by construction.  The last candidate of a round draws its uniform
  only when the replay needs it, so a round of depth 1 takes no
  snapshot at all.

The annealer's state is a :class:`~repro.core.compiled.CompiledInstance`,
never a networkx instance.  Pairs without a lockstep kernel (and parents
the kernel cannot stack) run at speculation depth 1: each candidate is
planned from the state's tables, derived from them by ``apply_delta``
(weight and add/remove-dependency moves alike) and scored by the serial
energy on that unbound clone — no copy, no recompile.  Inside a kernel
round the same lazy path serves the candidates the kernel cannot take
(structural moves, non-finite weights), lazily, because a speculative
candidate *past* the first acceptance was drawn from a state the serial
annealer never visits, so its side effects (including validation
errors) must never surface.

The accepted moves are kept as a chain; the restart's best
:class:`~repro.core.instance.ProblemInstance` is built once, at the end,
by replaying the best prefix of that chain onto the initial instance
(:func:`_replay`, equal to the serial copies down to networkx adjacency
order).  An objective other than the plain makespan ratio (e.g.
:class:`~repro.pisa.robustness.RobustnessGapPISA`) still scores
materialized candidates: each is copied from the current instance, which
the chain then carries along.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from time import perf_counter
from typing import Any

import numpy as np

from repro.benchmarking.metrics import makespan_ratio
from repro.core.batched import (
    BatchEval,
    ParentContext,
    SchedTrace,
    SiblingTables,
    evaluate_batch,
    pair_supported,
)
from repro.core.compiled import NETWORK_KINDS, CompiledInstance, compile_instance
from repro.core.instance import ProblemInstance
from repro.core.scheduler import Scheduler, get_scheduler
from repro.pisa.annealing import (
    AnnealingConfig,
    AnnealingResult,
    AnnealingStep,
    acceptance_probability,
    require_finite_energy,
)
from repro.pisa.perturbations import (
    STRUCTURAL_KINDS,
    Delta,
    PerturbationSet,
    PlannedMove,
    apply_delta_mutation,
)
from repro.utils import phases
from repro.utils.rng import as_generator

__all__ = ["batch_energy", "SpeculativeAnnealer", "MIN_BATCH", "MAX_BATCH"]

#: Adaptive speculation window: K starts at 8 and tracks twice the number
#: of candidates the last round actually consumed, clamped into
#: [MIN_BATCH, MAX_BATCH].  Larger K amortizes the python-level loop of
#: the lockstep kernels (per-candidate cost keeps falling through K=64);
#: smaller K caps the work thrown away when acceptances are frequent.
MIN_BATCH = 4
MAX_BATCH = 64
_START_BATCH = 8

#: Below this speculation window the lockstep pass cannot amortize its
#: per-round python overhead over enough consumed candidates (measured
#: crossover: ~3 consumed per pass on both the paper's chain shape and
#: the benchmark shape), so small-window rounds — the accept-heavy high
#: temperature phase — evaluate serially, on ``apply_delta`` clones.
_KERNEL_MIN = 6


# --------------------------------------------------------------------- #
# Population scoring
# --------------------------------------------------------------------- #
def _structure_signature(compiled: CompiledInstance) -> tuple:
    """Hashable key equal iff two compilations share every structure
    artifact the lockstep kernels read (task/node tuples fix the id maps
    and tie-break orders; predecessor ids fix the edge set and topology)."""
    return (compiled.tasks, compiled.nodes, compiled.pred_ids)


def batch_energy(
    target: Scheduler | str,
    baseline: Scheduler | str,
    instances: Sequence[ProblemInstance],
) -> np.ndarray:
    """Makespan ratios of ``target`` over ``baseline`` on every instance.

    Returns a float64 array aligned with ``instances``; element ``i`` is
    bit-identical to ``PISA(target, baseline).energy(instances[i])``.

    When both schedulers have lockstep kernels, instances are grouped by
    structure signature and every batchable group of two or more is
    stacked and evaluated in one numpy pass; singletons, non-batchable
    members (non-finite weights), and unsupported pairs take the serial
    compile-once-schedule-twice path.
    """
    target = get_scheduler(target) if isinstance(target, str) else target
    baseline = get_scheduler(baseline) if isinstance(baseline, str) else baseline
    out = np.empty(len(instances))
    lockstep = pair_supported(target.name, baseline.name)

    groups: dict[tuple, list[int]] = {}
    contexts: list[ParentContext | None] = []
    serial: list[int] = []
    for i, instance in enumerate(instances):
        compiled = compile_instance(instance)  # shared by both schedules
        if not lockstep:
            contexts.append(None)
            serial.append(i)
            continue
        ctx = ParentContext(compiled)
        contexts.append(ctx)
        if ctx.batchable:
            groups.setdefault(_structure_signature(compiled), []).append(i)
        else:
            serial.append(i)

    for idxs in groups.values():
        if len(idxs) < 2:  # stacking overhead beats nothing at K=1
            serial.extend(idxs)
            continue
        ctxs = [contexts[i] for i in idxs]
        ev = evaluate_batch(
            ctxs[0], SiblingTables.from_group(ctxs), target.name, baseline.name
        )
        for j, i in enumerate(idxs):
            out[i] = makespan_ratio(
                float(ev.target.makespans[j]), float(ev.baseline.makespans[j])
            )

    for i in serial:
        instance = instances[i]
        out[i] = makespan_ratio(
            target.schedule(instance).makespan,
            baseline.schedule(instance).makespan,
        )
    return out


# --------------------------------------------------------------------- #
# Speculative batched annealing
# --------------------------------------------------------------------- #
def _clone_batchable(clone: CompiledInstance, delta: Delta) -> bool:
    """Does a delta clone of a *batchable* parent stay batchable?

    Only the changed cell can break the parent's verdict: a weight delta
    must be finite itself; a node/link delta can overflow the inverse
    aggregates the rank arithmetic multiplies (0 * inf -> NaN).
    """
    if delta.kind in ("task_weight", "dep_weight"):
        return math.isfinite(delta.value)
    if delta.kind == "node_speed":
        return math.isfinite(clone._mean_inv_speed)
    return math.isfinite(clone._inv_strength_sum)  # link_strength


def _replay(initial: ProblemInstance, moves: Sequence[PlannedMove]) -> ProblemInstance:
    """The instance the serial annealer reaches from ``initial`` through
    the accepted ``moves`` — equal to the chain of ``move.materialize``
    copies down to networkx adjacency order — built from at most three
    copies.

    The serial loop copies the half each move touches (both halves for
    the identity) and then changes the copy.  A copy preserves values
    and only re-orders adjacency: networkx re-inserts the edges source by
    source, which sorts every predecessor list, and copying twice equals
    copying once.  So one network copy takes every network move in
    place, and one task-graph copy takes every task-graph move but the
    last; a second copy before the last move leaves the predecessor
    order that move's own copy leaves (a dependency it adds goes last).
    """
    if not moves:
        return initial
    t0 = perf_counter() if phases.enabled else 0.0
    out = ProblemInstance(initial.network, initial.task_graph, name=initial.name)
    net_moves = [m for m in moves if m.is_identity or m.delta.kind in NETWORK_KINDS]
    tg_moves = [m for m in moves if m.is_identity or m.delta.kind not in NETWORK_KINDS]
    if net_moves:
        out.network = out.network.copy()
        for move in net_moves:
            if not move.is_identity:
                apply_delta_mutation(out, move.delta)
    if tg_moves:
        out.task_graph = out.task_graph.copy()
        for i, move in enumerate(tg_moves):
            if 0 < i == len(tg_moves) - 1:
                out.task_graph = out.task_graph.copy()
            if not move.is_identity:
                apply_delta_mutation(out, move.delta)
    if phases.enabled:
        phases.add("perturb", perf_counter() - t0)
    return out


class SpeculativeAnnealer:
    """PISA's annealer: Algorithm 1 with speculative lockstep evaluation.

    Produces exactly the :class:`AnnealingResult` of the serial loop —
    same best state and energy, same per-iteration history, same
    generator consumption, same errors — while evaluating up to
    :data:`MAX_BATCH` candidates per numpy pass when the scheduler pair
    has lockstep kernels (see the module docstring for the speculation
    and rewind protocol, and for the depth-1 path every other pair
    takes).

    Parameters
    ----------
    target, baseline:
        The scheduler pair whose makespan ratio is the energy.
    perturbations:
        The PERTURB mixture (already constrained by the caller).
    energy:
        The serial energy function, used for every candidate the kernel
        does not score; where both paths apply the lockstep kernel must
        equal it bit-for-bit (pinned by ``tests/test_batched_annealing.py``).
    config, keep_history:
        As for :class:`~repro.pisa.annealing.SimulatedAnnealing`.
    lockstep:
        ``energy`` is the plain makespan ratio.  Candidates are then
        scored from their delta-compiled tables (``energy`` receives the
        :class:`~repro.core.compiled.CompiledInstance`), and by the
        lockstep kernel when the pair has one.  Pass ``False`` for any
        other objective: ``energy`` then receives each candidate
        materialized as a :class:`ProblemInstance`.
    """

    def __init__(
        self,
        target: Scheduler | str,
        baseline: Scheduler | str,
        perturbations: PerturbationSet,
        energy: Callable[[ProblemInstance | CompiledInstance], float],
        config: AnnealingConfig | None = None,
        keep_history: bool = True,
        lockstep: bool = True,
    ) -> None:
        self.target = get_scheduler(target) if isinstance(target, str) else target
        self.baseline = get_scheduler(baseline) if isinstance(baseline, str) else baseline
        self.perturbations = perturbations
        self.energy = energy
        self.config = config or AnnealingConfig()
        self.keep_history = keep_history
        self.plain = lockstep
        self.lockstep = lockstep and pair_supported(self.target.name, self.baseline.name)

    # ------------------------------------------------------------------ #
    def run(
        self, initial: ProblemInstance, rng: int | np.random.Generator | None = None
    ) -> AnnealingResult:
        gen = as_generator(rng)
        cfg = self.config

        compiled = compile_instance(initial)  # the restart's only full build
        ctx = ParentContext(compiled) if self.lockstep else None
        traces: tuple[SchedTrace, SchedTrace] | None = None
        if ctx is not None and ctx.batchable:
            ev = evaluate_batch(
                ctx, SiblingTables.from_group([ctx]), self.target.name, self.baseline.name
            )
            current_energy = makespan_ratio(
                float(ev.target.makespans[0]), float(ev.baseline.makespans[0])
            )
            traces = ev.traces_for(0)
        else:
            current_energy = float(self.energy(initial))
        require_finite_energy(current_energy, initial=True)
        best_energy = current_energy
        initial_energy = current_energy

        # The state is ``compiled``.  ``chain`` lists the accepted moves
        # from ``initial`` to it (the best state is ``chain[:best_len]``);
        # ``current``/``best`` are the states' instances where one was
        # materialized anyway (always, for an instance-scored objective),
        # else None: the best one is built once, at the end.
        chain: list[PlannedMove] = []
        best_len = 0
        current: ProblemInstance | None = initial
        best: ProblemInstance | None = initial

        history: list[AnnealingStep] = []
        temperature = cfg.t_max
        iteration = 0
        window = _START_BATCH
        while temperature > cfg.t_min and iteration < cfg.max_iterations:
            kernel = ctx is not None and ctx.batchable
            rounds = self._rounds_left(temperature, iteration, window if kernel else 1)
            last = rounds - 1

            # -- speculate: the serial draw interleaving under all-reject.
            # pre_plan[i] (i >= 1) is the state before plan i, pre_u[i]
            # the state before u_i; the last candidate's uniform is drawn
            # in replay, only if needed, so it needs neither.
            t0 = perf_counter() if phases.enabled else 0.0
            pre_plan: list[dict | None] = [None]
            pre_u: list[dict] = []
            moves: list[PlannedMove] = []
            draws: list[float] = []
            for i in range(rounds):
                if i:
                    pre_plan.append(gen.bit_generator.state)
                moves.append(self.perturbations.plan(compiled, gen))
                if i < last:
                    pre_u.append(gen.bit_generator.state)
                    draws.append(gen.random())
            if phases.enabled:
                phases.add("perturb", perf_counter() - t0)

            # -- evaluate the weight-delta siblings in one pass (a clone
            # whose predecessor lists the move re-sorted stacks too: the
            # kernels never read predecessor order)
            slot = [-1] * rounds
            made: list[CompiledInstance | None] = [None] * rounds
            clones: list[CompiledInstance] = []
            deltas: list[Delta] = []
            if kernel and rounds >= _KERNEL_MIN:
                for i, move in enumerate(moves):
                    delta = move.delta
                    if delta is None or delta.kind in STRUCTURAL_KINDS:
                        continue  # identity / structural: resolved in replay
                    clone = made[i] = compiled.apply_delta(delta)
                    if clone is not None and _clone_batchable(clone, delta):
                        slot[i] = len(clones)
                        clones.append(clone)
                        deltas.append(delta)
            evaluation: BatchEval | None = None
            batch_energies: list[float] = []
            batch_finite = True
            if clones:
                t0 = perf_counter() if phases.enabled else 0.0
                tables = SiblingTables.from_siblings(ctx, clones, deltas)
                evaluation = evaluate_batch(
                    ctx, tables, self.target.name, self.baseline.name, traces=traces
                )
                batch_energies = [
                    makespan_ratio(float(t), float(b))
                    for t, b in zip(evaluation.target.makespans, evaluation.baseline.makespans)
                ]
                # One vectorized finiteness check at the batch boundary;
                # per-candidate raises only replay when this trips (and
                # only for consumed candidates).
                batch_finite = bool(np.isfinite(batch_energies).all())
                if phases.enabled:
                    phases.add("schedule", perf_counter() - t0)

            # -- replay the serial accept/reject chain
            accepted = False
            for i in range(rounds):
                move = moves[i]
                clone = None
                cand_inst: ProblemInstance | None = None
                if slot[i] >= 0:
                    clone = clones[slot[i]]
                    candidate_energy = batch_energies[slot[i]]
                    if not batch_finite:
                        require_finite_energy(candidate_energy)
                elif move.is_identity:
                    # The serial annealer scores a plain copy — same
                    # values, same (already validated) energy.
                    candidate_energy = current_energy
                else:
                    # Lazy serial path: only now, so a candidate past the
                    # first acceptance — drawn from a state the serial run
                    # never visits — has no effect.
                    if self.plain:
                        clone = made[i] or compiled.apply_delta(move.delta)
                    if clone is not None:
                        candidate_energy = float(self.energy(clone))
                    else:
                        # An instance-scored objective, or a delta
                        # apply_delta refuses: the copy's setters and
                        # validators raise the canonical error.
                        if current is None:
                            current = _replay(initial, chain)
                        t0 = perf_counter() if phases.enabled else 0.0
                        cand_inst = move.materialize(current)
                        if phases.enabled:
                            phases.add("perturb", perf_counter() - t0)
                        candidate_energy = float(self.energy(cand_inst))
                    require_finite_energy(candidate_energy)

                if candidate_energy > best_energy:
                    # Serial accepts here *without* drawing its uniform.
                    if i < last:
                        gen.bit_generator.state = pre_u[i]
                    compiled, ctx, traces, current = self._accept(
                        compiled, ctx, traces, current, move, clone, cand_inst,
                        slot[i], evaluation,
                    )
                    chain.append(move)
                    best_len, best, best_energy = len(chain), current, candidate_energy
                    current_energy = candidate_energy
                    accepted = True
                else:
                    u = draws[i] if i < last else gen.random()
                    accepted = u < acceptance_probability(
                        cfg, candidate_energy, current_energy, best_energy, temperature
                    )
                    if accepted:
                        # Serial consumed u_i; its state is pre_plan[i+1]
                        # (the tail past i is pure speculation).
                        if i < last:
                            gen.bit_generator.state = pre_plan[i + 1]
                        compiled, ctx, traces, current = self._accept(
                            compiled, ctx, traces, current, move, clone, cand_inst,
                            slot[i], evaluation,
                        )
                        chain.append(move)
                        current_energy = candidate_energy

                if self.keep_history:
                    history.append(
                        AnnealingStep(
                            iteration=iteration,
                            temperature=temperature,
                            candidate_energy=candidate_energy,
                            accepted=accepted,
                            best_energy=best_energy,
                        )
                    )
                temperature *= cfg.alpha
                iteration += 1
                if accepted:
                    window = min(MAX_BATCH, max(MIN_BATCH, 2 * (i + 1)))
                    break
            else:
                window = min(MAX_BATCH, max(MIN_BATCH, 2 * rounds))

        return AnnealingResult(
            best_state=best if best is not None else _replay(initial, chain[:best_len]),
            best_energy=best_energy,
            initial_energy=initial_energy,
            iterations=iteration,
            history=history,
        )

    # ------------------------------------------------------------------ #
    def _accept(
        self,
        compiled: CompiledInstance,
        ctx: ParentContext | None,
        traces: Any,
        current: ProblemInstance | None,
        move: PlannedMove,
        clone: CompiledInstance | None,
        cand_inst: ProblemInstance | None,
        slot: int,
        evaluation: BatchEval | None,
    ) -> tuple[CompiledInstance, ParentContext | None, Any, ProblemInstance | None]:
        """The state after accepting ``move``: its compiled tables, kernel
        context and traces, and its instance when one exists.

        ``clone`` is the candidate's delta compilation (plain objective)
        and ``cand_inst`` its materialized copy (instance-scored
        objective, or a refused delta).
        """
        if move.is_identity:
            # The serial annealer continues from a full copy of the state.
            copied = compiled.copied()
            if copied is not compiled:
                compiled = copied
                ctx = ParentContext(compiled) if self.lockstep else None
                traces = None
            return compiled, ctx, traces, None if current is None else current.copy()
        if cand_inst is not None:
            compiled = compile_instance(cand_inst)  # cached if the energy compiled it
        else:
            compiled = clone
        ctx = ParentContext(compiled) if self.lockstep else None
        traces = evaluation.traces_for(slot) if slot >= 0 and ctx.batchable else None
        return compiled, ctx, traces, cand_inst

    def _rounds_left(self, temperature: float, iteration: int, cap: int) -> int:
        """How many iterations the serial loop would still run, capped.

        Simulated with the exact float recurrence (``t *= alpha``) the
        loop itself executes — a logarithm would disagree with the float
        sequence at the boundary.
        """
        cfg = self.config
        count = 0
        t = temperature
        while t > cfg.t_min and iteration + count < cfg.max_iterations and count < cap:
            count += 1
            t *= cfg.alpha
        return count
