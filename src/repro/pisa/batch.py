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

Pairs without a lockstep kernel (and objectives other than the plain
makespan ratio, and parents the kernel cannot stack) run at speculation
depth 1: each candidate is planned from the parent's compiled tables,
materialized as a copy of the half it touches, compiled as an
``apply_delta`` clone of the parent for weight moves, and scored by the
serial energy.  Inside a kernel round the same lazy path serves the
candidates the kernel cannot take — structural moves (add/remove
dependency), non-batchable parents (non-finite weights), and deltas
``apply_delta`` rejects — lazily, because a speculative candidate *past*
the first acceptance was drawn from a state the serial annealer never
visits, so its side effects (including validation errors) must never
surface.
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
from repro.core.compiled import CompiledInstance, compile_instance
from repro.core.instance import ProblemInstance
from repro.core.scheduler import Scheduler, get_scheduler
from repro.pisa.annealing import (
    AnnealingConfig,
    AnnealingResult,
    AnnealingStep,
    acceptance_probability,
    require_finite_energy,
)
from repro.pisa.perturbations import Delta, PerturbationSet, PlannedMove
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
#: temperature phase — evaluate serially, still delta-assisted: the
#: candidate's compilation is an ``apply_delta`` clone bound to the
#: materialized copy, not a recompile.
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
        Allow the lockstep kernel (when the pair has one).  The kernel
        scores the plain makespan ratio, so pass ``False`` when
        ``energy`` is any other objective.
    """

    def __init__(
        self,
        target: Scheduler | str,
        baseline: Scheduler | str,
        perturbations: PerturbationSet,
        energy: Callable[[ProblemInstance], float],
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
        self.lockstep = lockstep and pair_supported(self.target.name, self.baseline.name)

    # ------------------------------------------------------------------ #
    def run(
        self, initial: ProblemInstance, rng: int | np.random.Generator | None = None
    ) -> AnnealingResult:
        gen = as_generator(rng)
        cfg = self.config

        current = initial
        compiled = compile_instance(current)
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
            current_energy = float(self.energy(current))
        require_finite_energy(current_energy, initial=True)
        best, best_energy = current, current_energy
        initial_energy = current_energy

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
                moves.append(self.perturbations.plan(current, gen))
                if i < last:
                    pre_u.append(gen.bit_generator.state)
                    draws.append(gen.random())
            if phases.enabled:
                phases.add("perturb", perf_counter() - t0)

            # -- evaluate the delta-compiled siblings in one pass
            slot = [-1] * rounds
            clones: list[CompiledInstance] = []
            deltas: list[Delta] = []
            if kernel and rounds >= _KERNEL_MIN:
                for i, move in enumerate(moves):
                    if move.delta is None:
                        continue  # identity / structural: resolved in replay
                    clone = compiled.apply_delta(move.delta)
                    if clone is not None and _clone_batchable(clone, move.delta):
                        slot[i] = len(clones)
                        clones.append(clone)
                        deltas.append(move.delta)
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
                cand_inst: ProblemInstance | None = None
                if slot[i] >= 0:
                    candidate_energy = batch_energies[slot[i]]
                    if not batch_finite:
                        require_finite_energy(candidate_energy)
                elif move.is_identity:
                    # The serial annealer scores a plain copy — same
                    # values, same (already validated) energy.
                    candidate_energy = current_energy
                else:
                    # Lazy serial path: materialize only now, so a
                    # candidate past the first acceptance — drawn from a
                    # state the serial run never visits — has no effect.
                    # Weight moves bind a delta clone of the parent to the
                    # copy, so the energy call skips recompilation.
                    t0 = perf_counter() if phases.enabled else 0.0
                    cand_inst = move.materialize(current)
                    if phases.enabled:
                        phases.add("perturb", perf_counter() - t0)
                    if move.delta is not None:
                        compiled.apply_delta(move.delta, instance=cand_inst)
                    candidate_energy = float(self.energy(cand_inst))
                    require_finite_energy(candidate_energy)

                if candidate_energy > best_energy:
                    # Serial accepts here *without* drawing its uniform.
                    if i < last:
                        gen.bit_generator.state = pre_u[i]
                    candidate, compiled, ctx, traces = self._accept(
                        current, move, slot[i], clones, evaluation, cand_inst
                    )
                    best, best_energy = candidate, candidate_energy
                    current, current_energy = candidate, candidate_energy
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
                        if not move.is_identity:
                            # (An identity candidate keeps the current
                            # objects: the serial copy is value-identical
                            # in every future draw.)
                            current, compiled, ctx, traces = self._accept(
                                current, move, slot[i], clones, evaluation, cand_inst
                            )
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
            best_state=best,
            best_energy=best_energy,
            initial_energy=initial_energy,
            iterations=iteration,
            history=history,
        )

    # ------------------------------------------------------------------ #
    def _accept(
        self,
        current: ProblemInstance,
        move: PlannedMove,
        slot: int,
        clones: list[CompiledInstance],
        evaluation: BatchEval | None,
        cand_inst: ProblemInstance | None = None,
    ) -> tuple[ProblemInstance, CompiledInstance, ParentContext | None, Any]:
        """Materialize an accepted non-identity candidate and rebuild the
        parent-side evaluation state (compiled tables, context, traces).

        ``cand_inst`` is the copy a lazy serial evaluation already
        materialized (with its compilation cached on it); kernel-scored
        candidates materialize only here, on acceptance.
        """
        inst = cand_inst if cand_inst is not None else move.materialize(current)
        if slot >= 0:
            compiled = clones[slot]
            compiled.bind(inst)
            ctx = ParentContext(compiled)
            traces = evaluation.traces_for(slot) if ctx.batchable else None
        else:
            compiled = compile_instance(inst)
            ctx = ParentContext(compiled) if self.lockstep else None
            traces = None
        return inst, compiled, ctx, traces

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
