"""Which public calls of each layer the traced run wraps, and under what name.

Every probe is installed from here onto the loaded modules and removed
by :meth:`Tracer.restore`; the traced pass must still produce the same
result digest as the untraced one (checked by the runner).
"""

from __future__ import annotations

from sweepbench.tracer import Tracer


def _topological_sort_eager(original):
    # networkx returns a lazy generator, whose work would land in the
    # caller's span; materializing it inside the probe keeps the time in
    # task_graph.topo.  Same order, and still an iterator.
    def topological_sort(graph):
        return iter(list(original(graph)))

    return topological_sort


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points named in ``sweepbench/README.md``."""
    import networkx as nx

    import repro.utils.topo as topo
    from repro.core import batched
    from repro.core.compiled import CompiledInstance, compile_instance, compile_stats
    from repro.core.instance import ProblemInstance
    from repro.core.scheduler import scheduler_registry
    from repro.pisa.annealing import SimulatedAnnealing
    from repro.pisa.batch import SpeculativeAnnealer
    from repro.pisa.perturbations import PerturbationSet, PlannedMove
    from repro.pisa.pisa import PISA
    from repro.runtime.checkpoint import RunCheckpoint

    counts = tracer.counts

    # -- runtime: the local checkpoint (the coordinator path is proxied)
    tracer.patch_method(RunCheckpoint, "record", "runtime.checkpoint_append")
    tracer.patch_method(RunCheckpoint, "record_many", "runtime.checkpoint_append")

    # -- pisa
    tracer.patch_method(PISA, "run_restart", "pisa.restart")
    tracer.patch_method(PISA, "energy", "pisa.energy")
    tracer.patch_method(SimulatedAnnealing, "run", "pisa.anneal")

    def _speculative(state, args, result):
        if result is not None:
            counts["pisa.speculative_iterations"] += result.iterations
        return "pisa.anneal_speculative"

    tracer.patch_method(SpeculativeAnnealer, "run", "pisa.anneal_speculative", rename=_speculative)
    tracer.patch_method(PerturbationSet, "perturb", "pisa.perturb")
    tracer.patch_method(PerturbationSet, "plan", "pisa.plan")
    tracer.patch_method(PlannedMove, "materialize", "pisa.materialize")

    # -- core.instance / core.task_graph
    tracer.patch_method(ProblemInstance, "copy", "instance.copy")
    tracer.patch_function(topo.topological_order, "task_graph.topo")
    eager = _topological_sort_eager(nx.topological_sort)
    tracer.replace(nx, "topological_sort", tracer.wrap(eager, "task_graph.topo"))

    # -- core.compiled: a span per full build; cache hits are only counted
    # (by compile_stats) and stay in their caller's self time.
    def _compile_kind(before, args, result):
        after = compile_stats()
        if after["cache_hits"] > before["cache_hits"]:
            return None
        if after["full"] > before["full"]:
            return "compile.full"
        return "compile.other"

    tracer.patch_function(
        compile_instance,
        "compile.full",
        before=lambda args: compile_stats(),
        rename=_compile_kind,
    )
    tracer.patch_method(CompiledInstance, "apply_delta", "compile.delta")

    # -- core.batched: the lockstep kernel
    def _kernel(state, args, result):
        if result is not None:
            counts["kernel.candidates"] += len(result.target.makespans)
        return "kernel.evaluate"

    tracer.patch_function(batched.evaluate_batch, "kernel.evaluate", rename=_kernel)
    tracer.patch_method(batched.SiblingTables, "from_siblings", "kernel.tables")

    # -- schedulers (and the core.simulator builder they drive)
    def _scheduler_name(state, args, result):
        return f"schedule.{args[0].name}"

    owners = {
        next(klass for klass in cls.__mro__ if "schedule" in klass.__dict__)
        for cls in scheduler_registry().values()
    }
    for owner in owners:
        tracer.patch_method(owner, "schedule", "schedule", rename=_scheduler_name)
