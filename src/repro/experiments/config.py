"""Experiment scaling knobs.

Paper-scale experiments (1000-instance datasets, 459-iteration annealing
runs, all 210 scheduler pairs) take hours.  Every experiment driver in
this package therefore has two scales:

* the **default** scale, sized so the whole benchmark suite regenerates
  every figure in minutes on a laptop, and
* the **full** (paper) scale, enabled by setting ``REPRO_FULL=1`` in the
  environment or passing ``full=True`` to the drivers.

The claim being reproduced is shape-level (who wins, by roughly what
factor), which the reduced scale already exhibits; the full scale exists
to match the paper's experimental protocol exactly.
"""

from __future__ import annotations

import os
from typing import TypeVar

from repro.pisa.annealing import AnnealingConfig
from repro.pisa.pisa import PISAConfig

__all__ = [
    "is_full_scale",
    "pick",
    "pisa_config",
    "instances_per_dataset",
]

T = TypeVar("T")


def is_full_scale(full: bool | None = None) -> bool:
    """Resolve the scale flag: explicit argument wins, then $REPRO_FULL."""
    if full is not None:
        return full
    return os.environ.get("REPRO_FULL", "") == "1"


def pick(small: T, paper: T, full: bool | None = None) -> T:
    """Pick the small or paper-scale value of a parameter."""
    return paper if is_full_scale(full) else small


def pisa_config(full: bool | None = None) -> PISAConfig:
    """PISA parameters: the paper's (Tmax=10, Tmin=0.1, Imax=1000,
    alpha=0.99, 5 restarts) at full scale, a shortened schedule otherwise."""
    if is_full_scale(full):
        return PISAConfig(annealing=AnnealingConfig(), restarts=5)
    return PISAConfig(
        annealing=AnnealingConfig(t_max=10.0, t_min=0.1, max_iterations=80, alpha=0.945),
        restarts=2,
    )


def instances_per_dataset(name: str, full: bool | None = None) -> int:
    """Dataset sizes: Table II's 1000/100 at full scale, 10 otherwise."""
    if is_full_scale(full):
        return 100 if _is_workflow(name) else 1000
    return 10


def _is_workflow(name: str) -> bool:
    from repro.datasets.workflows import list_recipes

    return name in list_recipes()

