"""Figs. 10-19: application-specific benchmarking + PISA panels.

For each scientific workflow and each CCR in {0.2, 0.5, 1, 2, 5}
(Section VII), the paper shows a panel whose top row is traditional
benchmarking (makespan-ratio gradients over an in-family dataset) and
whose remaining rows are the pairwise PISA matrix restricted to the
application's search space — schedulers {CPoP, FastestNode, HEFT, MaxMin,
MinMin, WBA}.

Each panel is a pair of declarative sweeps — a benchmark-mode sweep over
the in-family dataset and a PISA-mode sweep in the restricted space
(:func:`repro.sweeps.fig10_19_bench_spec` /
:func:`~repro.sweeps.fig10_19_pisa_spec`) — executed by
:func:`repro.sweeps.run_sweep`.  Figs. 10/11 are srasearch and blast;
Figs. 12-19 (appendix) cover the remaining workflows.  The driver
regenerates any subset; the default scale runs two workflows x two CCRs
with a shortened annealing schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.benchmarking.harness import BenchmarkResult
from repro.benchmarking.heatmap import format_gradient, render_matrix
from repro.experiments.config import pick
from repro.pisa.app_specific import PAPER_CCRS
from repro.pisa.pisa import PISAConfig, PairwiseResult
from repro.sweeps import fig10_19_bench_spec, fig10_19_pisa_spec, run_sweep

__all__ = ["Panel", "run_panel", "Fig1019Result", "run"]


@dataclass
class Panel:
    """One (workflow, CCR) panel: benchmark row + PISA matrix."""

    workflow: str
    ccr: float
    benchmark: BenchmarkResult
    pisa: PairwiseResult

    def render(self) -> str:
        schedulers = self.pisa.schedulers
        values = {
            (baseline, target): result.best_ratio
            for (target, baseline), result in self.pisa.results.items()
        }
        matrix = render_matrix(
            values,
            row_labels=schedulers,
            col_labels=schedulers,
            title=f"{self.workflow} (CCR = {self.ccr}) — PISA (row = base, col = target)",
            row_header="base",
        )
        bench_cells = "  ".join(
            f"{s}={format_gradient(self.benchmark.summary(s))}" for s in schedulers
        )
        return matrix + "\nBenchmarking: " + bench_cells


def run_panel(
    workflow: str,
    ccr: float,
    schedulers: list[str] | None = None,
    bench_instances: int = 10,
    config: PISAConfig | None = None,
    rng: int = 0,
    full: bool | None = None,
    progress=None,
    jobs: int = 1,
    run_dir=None,
    resume: bool = False,
) -> Panel:
    """One Figs. 10-19 panel.

    With a ``run_dir``, the panel's two sweeps checkpoint to
    ``run_dir/bench`` and ``run_dir/pisa``.
    """
    bench_spec = fig10_19_bench_spec(
        workflow, ccr, schedulers=schedulers, bench_instances=bench_instances, seed=rng
    )
    pisa_spec = fig10_19_pisa_spec(
        workflow, ccr, schedulers=schedulers, config=config, seed=rng, full=full
    )
    run_dir = Path(run_dir) if run_dir is not None else None
    bench = run_sweep(
        bench_spec,
        jobs=jobs,
        run_dir=run_dir / "bench" if run_dir is not None else None,
        resume=resume,
    )
    pisa = run_sweep(
        pisa_spec,
        jobs=jobs,
        run_dir=run_dir / "pisa" if run_dir is not None else None,
        resume=resume,
        progress=progress,
    )
    return Panel(workflow=workflow, ccr=ccr, benchmark=bench.benchmark, pisa=pisa.pairwise)


@dataclass
class Fig1019Result:
    panels: list[Panel] = field(default_factory=list)

    @property
    def report(self) -> str:
        return "\n\n".join(p.render() for p in self.panels)


def run(
    workflows: tuple[str, ...] | None = None,
    ccrs: tuple[float, ...] | None = None,
    schedulers: list[str] | None = None,
    config: PISAConfig | None = None,
    rng: int = 0,
    full: bool | None = None,
    progress=None,
    jobs: int = 1,
    run_dir=None,
    resume: bool = False,
) -> Fig1019Result:
    """Regenerate Figs. 10-19 panels.

    Defaults: srasearch + blast (the two panels in the paper body) at
    CCRs {0.2, 1.0}; full scale runs all nine workflows at all five CCRs
    (the appendix).  With a ``run_dir``, every panel checkpoints its
    work units to ``run_dir/<workflow>_ccr<ccr>/{bench,pisa}`` so the
    whole multi-panel sweep is resumable.
    """
    if workflows is None:
        workflows = pick(
            ("srasearch", "blast"),
            (
                "srasearch",
                "blast",
                "bwa",
                "epigenomics",
                "genome",
                "montage",
                "seismology",
                "soykb",
                "cycles",
            ),
            full,
        )
    if ccrs is None:
        ccrs = pick((0.2, 1.0), PAPER_CCRS, full)
    result = Fig1019Result()
    for workflow in workflows:
        for ccr in ccrs:
            panel_dir = None
            if run_dir is not None:
                panel_dir = Path(run_dir) / f"{workflow}_ccr{ccr}"
            result.panels.append(
                run_panel(
                    workflow,
                    ccr,
                    schedulers=schedulers,
                    config=config,
                    rng=rng,
                    full=full,
                    progress=progress,
                    jobs=jobs,
                    run_dir=panel_dir,
                    resume=resume,
                )
            )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().report)
