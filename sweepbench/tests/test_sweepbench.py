"""The sweep benchmark at a tiny scale.

Run from the repository root with ``python -m pytest sweepbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.pisa.annealing import AnnealingConfig  # noqa: E402
from repro.pisa.pisa import PISAConfig  # noqa: E402
from repro.sweeps.presets import fig4_spec, fig7_spec  # noqa: E402

from sweepbench import checks, metrics, probes  # noqa: E402
from sweepbench.clock import CompletionClock  # noqa: E402
from sweepbench.run import measure, result_digest  # noqa: E402
from sweepbench.workloads import WORKLOADS, LocalSession, Workload  # noqa: E402

_TINY = PISAConfig(
    annealing=AnnealingConfig(t_max=10.0, t_min=0.1, max_iterations=12, alpha=0.945),
    restarts=1,
)

TINY_FIG4 = Workload(
    name="tiny_fig4",
    why="fig4 with 3 schedulers",
    spec=lambda seed: fig4_spec(
        schedulers=["HEFT", "MinMin", "OLB"], config=_TINY, seed=seed, full=False
    ),
    warmup=lambda seed: fig4_spec(
        schedulers=["HEFT", "OLB"], config=_TINY, seed=seed + 1, full=False
    ),
)

TINY_FLEET = Workload(
    name="tiny_fleet",
    why="a 20-unit fleet",
    spec=lambda seed: fig7_spec(num_instances=20, seed=seed, full=False),
    warmup=lambda seed: fig7_spec(num_instances=5, seed=seed + 1, full=False),
    coordinator=True,
)

TINY_FIG4_COORDINATOR = Workload(
    name="tiny_fig4_coordinator",
    why="fig4 with 3 schedulers through a coordinator",
    spec=TINY_FIG4.spec,
    warmup=TINY_FIG4.warmup,
    coordinator=True,
)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, tmp_path, trace: bool, seconds: float = 0.01) -> dict:
    return measure(
        workload,
        seed=3,
        seconds=seconds,
        trace=trace,
        work_dir=tmp_path / "work",
        digests_path=tmp_path / "digests.json",
        record=True,
    )


def test_benchmark_json_names_match_the_emitted_metrics():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        k: u for k, (u, _) in metrics.END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == metrics.PER_LAYER
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])


@pytest.mark.parametrize(
    "workload", [TINY_FIG4, TINY_FLEET, TINY_FIG4_COORDINATOR], ids=lambda w: w.name
)
def test_every_metric_is_emitted_and_the_breakdown_sums(workload, tmp_path):
    report = _run(workload, tmp_path, trace=True)
    assert set(report["end_to_end"]) == set(metrics.END_TO_END)
    assert set(report["per_layer"]) == set(metrics.PER_LAYER)
    assert all(v > 0 for k, v in report["end_to_end"].items())
    assert report["attempted"] > 0 and report["failed"] == 0

    layers = report["per_layer"]
    wall = layers["trace.wall_s"]
    assert 0 <= layers["trace.unattributed_s"] <= report["residual_s"]
    by_layer = sum(layers[f"layer.{name}.self_s"] for name in metrics.LAYER_NAMES)
    assert by_layer + layers["trace.unattributed_s"] == pytest.approx(wall, rel=1e-9)
    if workload.coordinator:
        assert layers["runtime.requests_per_unit"] >= 3  # claim, record, release
        assert layers["coordinator.handler_s.record"] > 0
    if workload.spec(0).mode == "pisa":
        assert layers["pisa.candidates"] > 0
        assert layers["kernel.calls"] > 0  # HEFT x MinMin takes the lockstep kernel
        assert layers["compile.full"] > 0

    # The first run recorded the digest; a second run is checked against it.
    again = _run(workload, tmp_path, trace=False)
    assert again["digest"] == report["digest"] and again["digest_checked"]


def test_the_breakdown_check_fails_when_no_probe_covers_the_work(tmp_path, monkeypatch):
    # Without layer probes every unit's time is the worker call's own
    # (frame) time, which is unattributed.
    monkeypatch.setattr(probes, "install", lambda tracer: None)
    with pytest.raises(checks.CheckFailed, match="unattributed"):
        _run(TINY_FIG4, tmp_path, trace=True)


def _fixed_unit() -> float:
    # The same pure-Python work every call: about 10-20 ms of CPU.
    total = 0.0
    for i in range(200_000):
        total += (i * 1.0001) % 7.0
    return total


def _calibrated_units_per_s(units: int = 40) -> tuple[float, float]:
    """(calibrated, raw) units per second of a drain of fixed units."""
    clock = CompletionClock()
    clock.start()
    for _ in range(units):
        _fixed_unit()
        clock.completed()
    clock.finish()
    return units / sum(clock.calibrated_gaps()), units / sum(clock.gaps)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_calibration_keeps_a_slowdown_from_another_process():
    # A process spinning on this process's CPU takes CPU time from the
    # units, as a busy coordinator would; the probe must not absorb it.
    mask = os.sched_getaffinity(0)
    cpu = min(mask)
    os.sched_setaffinity(0, {cpu})
    quiet, loaded = [], []
    try:
        for _ in range(2):
            quiet.append(_calibrated_units_per_s())
            spinner = subprocess.Popen(
                [sys.executable, "-c",
                 f"import os\nos.sched_setaffinity(0, {{{cpu}}})\nwhile True: pass"]
            )
            try:
                loaded.append(_calibrated_units_per_s())
            finally:
                spinner.kill()
                spinner.wait()
    finally:
        os.sched_setaffinity(0, mask)

    def slowdown(i):
        return statistics.median(r[i] for r in quiet) / statistics.median(r[i] for r in loaded)

    # The spinner takes about half the CPU, so units take about twice as
    # long (raw figures also move with the host's speed).  Calibrated,
    # this measured 1.85-1.97; with a probe timed in wall time, 1.50-1.60.
    assert slowdown(1) > 1.3
    assert slowdown(0) > 1.75


def test_a_perturbed_result_fails_the_checks(tmp_path):
    digests = tmp_path / "digests.json"
    session = LocalSession(TINY_FIG4.spec(0), tmp_path / "run")
    try:
        results = session.drain().results
    finally:
        session.close()
    plan = session.plan
    checks.record_digest("tiny_fig4", 0, result_digest(plan, results), digests)

    key = plan.units[0].key
    annealing = results[key].annealing
    annealing.best_energy = float(np.nextafter(annealing.best_energy, np.inf))
    with pytest.raises(checks.CheckFailed):
        checks.check_digest("tiny_fig4", 0, result_digest(plan, results), digests)
    with pytest.raises(checks.CheckFailed):
        checks.verify_pisa_units(plan, results)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "sweepbench", tmp_path / "sweepbench",
        ignore=shutil.ignore_patterns("_work", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "sweepbench/run.py", "--workload", "fig4_chains", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
