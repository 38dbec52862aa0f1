"""Fig. 4: the PISA pairwise heatmap over all 15 schedulers.

For every ordered pair (base scheduler B row, target scheduler A column)
PISA searches for the instance maximizing A's makespan ratio over B; the
cell shows the best ratio found (clamped at "> 5.0" / "> 1000" like the
paper).  The extra "Worst" row shows, per target, the maximum over all
baselines — the paper's headline lower bounds ("for every scheduler, an
instance exists on which it is at least 2x worse than some other
scheduler; for 10 of 15, at least 5x").

The experiment is the named sweep spec :func:`repro.sweeps.fig4_spec`
executed by :func:`repro.sweeps.run_sweep`; this module only renders the
matrix.  ``repro sweep show fig4`` dumps the same definition as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.benchmarking.heatmap import render_matrix
from repro.pisa.pisa import PairwiseResult, PISAConfig
from repro.sweeps import fig4_spec, run_sweep
from repro.utils.rng import as_generator

__all__ = ["Fig4Result", "run"]


@dataclass
class Fig4Result:
    pairwise: PairwiseResult
    report: str

    def worst_case(self, target: str) -> float:
        return self.pairwise.worst_case_row()[target]


def run(
    schedulers: list[str] | None = None,
    config: PISAConfig | None = None,
    rng: int = 0,
    full: bool | None = None,
    progress=None,
    jobs: int = 1,
    run_dir=None,
    resume: bool = False,
) -> Fig4Result:
    """Regenerate the Fig. 4 matrix (reduced annealing schedule by default).

    ``jobs`` fans the (pair, restart) work units over worker processes;
    ``run_dir``/``resume`` stream completed units to a run directory so
    an interrupted sweep continues where it stopped (see
    :func:`repro.sweeps.run_sweep`).
    """
    # Generator rngs and None (fresh OS entropy, interactive use) ride
    # through as a runner override; integer seeds live in the spec so the
    # run-dir manifest records them.
    if rng is None or isinstance(rng, np.random.Generator):
        seed, rng_override = 0, as_generator(rng)
    else:
        seed, rng_override = rng, None
    spec = fig4_spec(schedulers=schedulers, config=config, seed=seed, full=full)
    result = run_sweep(
        spec, jobs=jobs, run_dir=run_dir, resume=resume, rng=rng_override, progress=progress
    )
    pairwise = result.pairwise

    # Row = base scheduler, column = target scheduler, matching Fig. 4.
    matrix_schedulers = pairwise.schedulers
    values = {
        (baseline, target): res.best_ratio
        for (target, baseline), res in pairwise.results.items()
    }
    worst = pairwise.worst_case_row()
    rows = ["Worst"] + matrix_schedulers
    for target, ratio in worst.items():
        values[("Worst", target)] = ratio
    report = render_matrix(
        values,
        row_labels=rows,
        col_labels=matrix_schedulers,
        title="Fig. 4 — PISA pairwise makespan ratios (row = base, column = target)",
        row_header="base",
    )
    return Fig4Result(pairwise=pairwise, report=report)


if __name__ == "__main__":  # pragma: no cover
    result = run(progress=lambda t, b, r: print(f"  {t} vs {b}: {r:.2f}", flush=True))
    print(result.report)
