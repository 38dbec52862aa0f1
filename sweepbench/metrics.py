"""Metric names, units, and how each is derived from a run.

End-to-end metrics come from untraced passes, with timings in
calibrated seconds (:mod:`sweepbench.clock`); per-layer metrics come
from the one traced pass, in raw seconds.  Every ``*_s`` layer metric is
*self* time (span duration minus its child spans) except
``pisa.energy_s``, which is the inclusive time of serial candidate
scoring (``PISA.energy``: compile plus both schedules), the path the
lockstep kernel replaces.
"""

from __future__ import annotations

import math
import resource
import statistics

from repro.sweeps.presets import fig4_spec

from sweepbench.tracer import LAYERS
from sweepbench.workloads import scrape_delta

#: name -> (unit, better)
END_TO_END = {
    "units_per_s": ("1/s", "higher"),
    "unit_ms_p50": ("ms", "lower"),
    "unit_ms_tail": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "unit_ok_ratio": ("ratio", "higher"),
}

#: The schedulers with a ``schedule.self_s.<name>`` row: the fig4 set,
#: which covers every scheduler both workloads run.
SCHEDULERS = tuple(fig4_spec().scheduler_names())

LAYER_NAMES = tuple(layer for _prefix, layer in LAYERS)

#: name -> unit
PER_LAYER = {
    "runtime.claim_s": "s",
    "runtime.record_s": "s",
    "runtime.release_s": "s",
    "runtime.requests_per_unit": "count",
    "runtime.checkpoint_append_s": "s",
    "runtime.overhead_frac": "ratio",
    "runtime.drain_self_s": "s",
    "runtime.unit_self_s": "s",
    "coordinator.handler_s.claim": "s",
    "coordinator.handler_s.record": "s",
    "coordinator.handler_s.release": "s",
    "coordinator.fsync_s": "s",
    "coordinator.events_per_commit": "count",
    "coordinator.transport_s": "s",
    "coordinator.rss_mb": "MB",
    "pisa.candidates": "count",
    "pisa.perturb_s": "s",
    "pisa.energy_s": "s",
    "pisa.anneal_self_s": "s",
    "pisa.restart_self_s": "s",
    "pisa.speculative_unit_share": "ratio",
    "pisa.speculative_useful_ratio": "ratio",
    "instance.copy_calls": "count",
    "instance.copy_s": "s",
    "task_graph.topo_calls": "count",
    "task_graph.topo_s": "s",
    "compile.full": "count",
    "compile.delta": "count",
    "compile.cache_hit": "count",
    "compile.full_s": "s",
    "compile.delta_s": "s",
    "compile.hit_ratio": "ratio",
    "kernel.calls": "count",
    "kernel.candidates": "count",
    "kernel.s": "s",
    "schedule.calls": "count",
    "schedule.self_s": "s",
    **{f"schedule.self_s.{name}": "s" for name in SCHEDULERS},
    **{f"layer.{layer}.self_s": "s" for layer in LAYER_NAMES},
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Spans that only frame the work: the drain loop (the root span) and
#: the worker's call for one unit.  Their self time is wall time that no
#: layer probe covers, and counts as ``trace.unattributed_s``.
FRAME_SPANS = ("runtime.drain", "runtime.execute")

#: The traced wall that may stay unattributed: this share of it, plus
#: an allowance per unit for the drain loop's own bookkeeping (heartbeat
#: thread, callbacks, counters: about 0.07 ms a unit locally and 0.6 ms
#: through a coordinator) and, in benchmark-mode units, the instance
#: sampling in the worker (about 0.4 ms a fig7 unit).
RESIDUAL_FRAC = 0.01
RESIDUAL_PER_UNIT_S = 1.5e-3


def allowed_residual_s(wall_s: float, units: int) -> float:
    return RESIDUAL_FRAC * wall_s + RESIDUAL_PER_UNIT_S * units

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (80, 90, 95, 97, 99, 99.9)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least 10 samples beyond it
    (the lowest rung when no rung qualifies)."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            best = p
    return best


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gap_timings(gap_lists) -> dict[str, float]:
    """Throughput, median and tail of completion gaps; medians over passes."""
    tail_p = tail_percentile(len(gap_lists[0]))
    return {
        "units_per_s": statistics.median(len(g) / sum(g) for g in gap_lists),
        "unit_ms_p50": 1e3 * statistics.median(statistics.median(g) for g in gap_lists),
        "unit_ms_tail": 1e3 * statistics.median(percentile(g, tail_p) for g in gap_lists),
    }


def end_to_end(passes, setup_samples) -> dict[str, float]:
    """The end-to-end metrics, timings in calibrated seconds, medians over passes."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        **gap_timings([p.gaps_s for p in passes]),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
        "unit_ok_ratio": (attempted - failed) / attempted,
    }


def raw_end_to_end(passes, setup_samples) -> dict[str, float]:
    """The timing metrics in raw wall-clock seconds (reported, not gated)."""
    return {
        **gap_timings([p.raw_gaps_s for p in passes]),
        "setup_s": statistics.median(setup_samples),
    }


class _Rows:
    def __init__(self, summary: dict) -> None:
        self.summary = summary

    def self_s(self, *names: str) -> float:
        return sum(self.summary[n]["self_s"] for n in names if n in self.summary)

    def incl_s(self, *names: str) -> float:
        return sum(self.summary[n]["incl_s"] for n in names if n in self.summary)

    def calls(self, *names: str) -> int:
        return sum(int(self.summary[n]["calls"]) for n in names if n in self.summary)

    def prefixed(self, prefix: str) -> list[str]:
        return [n for n in self.summary if n.startswith(prefix)]


_ROLE_OPS = {
    "claim": ("/claim", "/claim-batch"),
    "record": ("/record", "/record-batch"),
    "release": ("/release", "/release-batch"),
    "renew": ("/renew", "/renew-batch"),
    "poll": ("/completed",),
}


def speculative_plans(spans) -> int:
    """``pisa.plan`` spans opened directly by the speculative annealer."""
    speculative = {sid for sid, name, *_ in spans if name == "pisa.anneal_speculative"}
    return sum(1 for _sid, name, _t0, _t1, parent in spans
               if name == "pisa.plan" and parent in speculative)


def per_layer(
    spans,
    summary: dict,
    counts,
    compile_delta: dict[str, int],
    traced,
    untraced_units_per_s: float,
    coordinator_rss_mb: float = 0.0,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see the module docstring).

    ``summary`` is :func:`~sweepbench.tracer.summarize` of ``spans``;
    ``untraced_units_per_s`` is in raw seconds, like the traced pass.
    """
    r = _Rows(summary)
    units = max(len(traced.results), 1)
    wall = traced.wall_s
    out: dict[str, float] = {}

    requests = r.calls(*(f"runtime.{role}" for role in _ROLE_OPS))
    out["runtime.claim_s"] = r.self_s("runtime.claim")
    out["runtime.record_s"] = r.self_s("runtime.record")
    out["runtime.release_s"] = r.self_s("runtime.release")
    out["runtime.requests_per_unit"] = requests / units
    out["runtime.checkpoint_append_s"] = r.self_s("runtime.checkpoint_append")
    out["runtime.overhead_frac"] = (wall - r.incl_s("runtime.execute")) / wall
    out["runtime.drain_self_s"] = r.self_s("runtime.drain")
    out["runtime.unit_self_s"] = r.self_s("runtime.execute")

    before = traced.extra.get("scrape_before", {})
    after = traced.extra.get("scrape_after", {})

    def handler(role: str) -> float:
        return sum(
            scrape_delta(before, after, "coordinator_request_seconds_sum", op=op)
            for op in _ROLE_OPS[role]
        )

    commits = scrape_delta(before, after, "coordinator_journal_batch_size_count")
    out["coordinator.handler_s.claim"] = handler("claim")
    out["coordinator.handler_s.record"] = handler("record")
    out["coordinator.handler_s.release"] = handler("release")
    out["coordinator.fsync_s"] = scrape_delta(
        before, after, "coordinator_journal_fsync_seconds_sum"
    )
    out["coordinator.events_per_commit"] = (
        scrape_delta(before, after, "coordinator_journal_batch_size_sum") / commits
        if commits
        else 0.0
    )
    out["coordinator.transport_s"] = (
        r.incl_s(*(f"runtime.{role}" for role in _ROLE_OPS)) - sum(map(handler, _ROLE_OPS))
        if before
        else 0.0
    )
    out["coordinator.rss_mb"] = coordinator_rss_mb

    annealers = r.calls("pisa.anneal", "pisa.anneal_speculative")
    # PerturbationSet.perturb plans internally; only plans made by the
    # speculative annealer itself are extra candidates.
    planned = speculative_plans(spans)
    out["pisa.candidates"] = r.calls("pisa.perturb") + planned
    out["pisa.perturb_s"] = r.self_s("pisa.perturb", "pisa.plan", "pisa.materialize")
    out["pisa.energy_s"] = r.incl_s("pisa.energy")
    out["pisa.anneal_self_s"] = r.self_s("pisa.anneal", "pisa.anneal_speculative")
    out["pisa.restart_self_s"] = r.self_s("pisa.restart")
    out["pisa.speculative_unit_share"] = (
        r.calls("pisa.anneal_speculative") / annealers if annealers else 0.0
    )
    out["pisa.speculative_useful_ratio"] = (
        counts["pisa.speculative_iterations"] / planned if planned else 0.0
    )

    out["instance.copy_calls"] = r.calls("instance.copy")
    out["instance.copy_s"] = r.self_s("instance.copy")
    out["task_graph.topo_calls"] = r.calls("task_graph.topo")
    out["task_graph.topo_s"] = r.self_s("task_graph.topo")

    compiles = sum(compile_delta.values())
    out["compile.full"] = compile_delta["full"]
    out["compile.delta"] = compile_delta["delta"]
    out["compile.cache_hit"] = compile_delta["cache_hits"]
    out["compile.full_s"] = r.self_s("compile.full")
    out["compile.delta_s"] = r.self_s("compile.delta")
    out["compile.hit_ratio"] = compile_delta["cache_hits"] / compiles if compiles else 0.0

    out["kernel.calls"] = r.calls("kernel.evaluate")
    out["kernel.candidates"] = counts["kernel.candidates"]
    out["kernel.s"] = r.self_s("kernel.evaluate", "kernel.tables")

    schedule_rows = r.prefixed("schedule.")
    out["schedule.calls"] = r.calls(*schedule_rows)
    out["schedule.self_s"] = r.self_s(*schedule_rows)
    for name in SCHEDULERS:
        out[f"schedule.self_s.{name}"] = r.self_s(f"schedule.{name}")

    for prefix, layer in LAYERS:
        names = [n for n in r.prefixed(prefix) if n not in FRAME_SPANS]
        out[f"layer.{layer}.self_s"] = r.self_s(*names)

    attributed = sum(row["self_s"] for n, row in summary.items() if n not in FRAME_SPANS)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - attributed
    out["trace.overhead_frac"] = untraced_units_per_s / traced.raw_units_per_s - 1.0
    return out
