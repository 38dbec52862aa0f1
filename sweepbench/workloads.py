"""The benchmark's workloads and the sessions that execute one pass of each.

A *session* is one set-up (plan, source resolution, a fresh run
directory, and for a coordinator workload a ``repro sweep serve``
coordinator started to ready) followed by at most one drain.  Sessions
use only the public sweep and runtime API: ``plan_sweep``,
``RunCheckpoint``, ``run_units(on_result=)`` and
``drain_units(backend=, on_unit=)``.  The worker is this one process
with one thread.
"""

from __future__ import annotations

import os
import re
import selectors
import shutil
import signal
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.pisa.annealing import AnnealingConfig
from repro.pisa.pisa import PISAConfig
from repro.sweeps import SweepSpec, plan_sweep
from repro.sweeps.presets import fig4_spec, fig10_19_pisa_spec

from sweepbench.clock import CompletionClock
from sweepbench.tracer import TracedBackend, Tracer

#: A short annealing schedule for warm-up sweeps: long enough for the
#: speculative annealer to reach its lockstep kernel (6+ rounds).
_WARMUP_CONFIG = PISAConfig(
    annealing=AnnealingConfig(t_max=10.0, t_min=0.1, max_iterations=8, alpha=0.945),
    restarts=1,
)

#: Seconds a coordinator may take from launch to its ready line.
READY_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: Callable[[int], SweepSpec]  # seed -> the measured sweep
    warmup: Callable[[int], SweepSpec]  # seed -> a small sweep of the same shape
    coordinator: bool = False  # drained through a coordinator subprocess


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig4_chains",
            why="the paper's headline PISA sweep: 210 pairs x 2 restarts on chain "
            "instances; candidate construction (copy, compile, perturb) dominates",
            spec=lambda seed: fig4_spec(seed=seed, full=False),
            warmup=lambda seed: fig4_spec(config=_WARMUP_CONFIG, seed=seed + 1, full=False),
        ),
        Workload(
            name="app_workflows",
            why="Section VII PISA panel on larger srasearch workflows, drained "
            "through a coordinator one unit per claim; scheduler self time and "
            "the lockstep kernel dominate",
            spec=lambda seed: fig10_19_pisa_spec(seed=seed, full=False),
            warmup=lambda seed: fig10_19_pisa_spec(
                config=_WARMUP_CONFIG, seed=seed + 1, full=False
            ),
            coordinator=True,
        ),
    )
}


@dataclass
class Pass:
    """One drain: its wall time, completion gaps, and results.

    ``gaps_s`` are calibrated (see :mod:`sweepbench.clock`) on untraced
    passes and raw on the traced one; ``raw_gaps_s`` are always raw.
    """

    wall_s: float  # drain wall, probes included
    raw_gaps_s: list[float]
    gaps_s: list[float]
    results: dict[str, Any]
    attempted: int
    failed: int
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def raw_units_per_s(self) -> float:
        return len(self.raw_gaps_s) / sum(self.raw_gaps_s)


def _pass(wall_s: float, clock: CompletionClock, **fields) -> Pass:
    gaps = clock.calibrated_gaps() if clock.probing else clock.gaps
    return Pass(wall_s=wall_s, raw_gaps_s=clock.gaps, gaps_s=gaps, **fields)


def clean_env() -> dict[str, str]:
    """This process's environment without ``REPRO_*`` overrides, so the
    program runs with its defaults whatever the caller exported."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


class LocalSession:
    """Serial, in-process drain into a fresh run directory."""

    def __init__(self, spec: SweepSpec, run_dir: Path) -> None:
        from repro.runtime.checkpoint import RunCheckpoint

        self.run_dir = run_dir
        t0 = perf_counter()
        self.plan = plan_sweep(spec)
        self.checkpoint = RunCheckpoint(run_dir, encode=self.plan.encode, decode=self.plan.decode)
        self.checkpoint.initialize(self.plan.manifest(), resume=False)
        self.setup_s = perf_counter() - t0

    def drain(self, tracer: Tracer | None = None) -> Pass:
        from repro.runtime.executor import run_units

        plan = self.plan
        worker, drain = plan.worker, run_units
        if tracer is not None:
            worker = tracer.wrap(plan.worker, "runtime.execute")
            drain = tracer.wrap(run_units, "runtime.drain")
        clock = CompletionClock(probing=tracer is None)
        clock.start()
        t0 = perf_counter()
        results = drain(
            plan.units, worker, jobs=1, checkpoint=self.checkpoint, on_result=clock.completed
        )
        wall = perf_counter() - t0
        clock.finish()
        recorded = self.checkpoint.completed()
        return _pass(
            wall,
            clock,
            results=results,
            attempted=len(plan.units),
            failed=sum(1 for u in plan.units if u.key not in recorded),
        )

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


class CoordinatorSession:
    """A ``repro sweep serve`` subprocess drained by this process as one worker."""

    def __init__(self, spec: SweepSpec, run_dir: Path, root: Path) -> None:
        self.run_dir = run_dir
        self.proc: subprocess.Popen | None = None
        spec_path = run_dir.parent / f"{run_dir.name}.spec.json"
        self._files = [spec_path, run_dir.parent / f"{run_dir.name}.log"]
        t0 = perf_counter()
        self.plan = plan_sweep(spec)
        spec_path.write_text(spec.to_json())
        env = clean_env()
        env["PYTHONPATH"] = str(root / "src")
        with open(self._files[1], "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "sweep", "serve", str(run_dir),
                 "--spec", str(spec_path)],
                cwd=root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        try:
            self.url = self._await_ready()
        except BaseException:
            self.close()
            raise
        self.setup_s = perf_counter() - t0

    def _await_ready(self) -> str:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = perf_counter() + READY_TIMEOUT_S
        line = b""
        try:
            while not line.endswith(b"\n"):
                if not sel.select(timeout=max(0.0, deadline - perf_counter())):
                    raise RuntimeError("coordinator did not become ready in time")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    log = self._files[1].read_text(errors="replace")[-2000:]
                    raise RuntimeError(f"coordinator exited before ready:\n{log}")
                line += chunk
        finally:
            sel.close()
        match = re.search(r"on (http://\S+)", line.decode(errors="replace"))
        if match is None:
            raise RuntimeError(f"unexpected coordinator banner: {line!r}")
        return match.group(1)

    def drain(self, tracer: Tracer | None = None, units: list | None = None) -> Pass:
        from repro.runtime.backends import HttpWorkBackend
        from repro.runtime.distributed import drain_units

        plan = self.plan
        units = plan.units if units is None else units
        client = HttpWorkBackend(self.url, encode=plan.encode)
        before = _scrape(client)
        clock = CompletionClock(probing=tracer is None)
        clock.start()
        t0 = perf_counter()
        worker, backend, drain = plan.worker, client, drain_units
        if tracer is not None:
            worker = tracer.wrap(plan.worker, "runtime.execute")
            backend = TracedBackend(client, tracer)
            drain = tracer.wrap(drain_units, "runtime.drain")
        stats = drain(units, worker, backend=backend, on_unit=clock.completed)
        wall = perf_counter() - t0
        clock.finish()
        after = _scrape(client)
        raw = client.results()
        client.close()
        decode = plan.decode or (lambda value: value)
        results = {u.key: decode(raw[u.key]) for u in units if u.key in raw}
        protocol_faults = sum(
            scrape_delta(before, after, name)
            for name in (
                "coordinator_duplicate_records_total",
                "coordinator_leases_expired_total",
                "coordinator_claims_reclaimed_total",
            )
        )
        return _pass(
            wall,
            clock,
            results=results,
            attempted=stats.executed + stats.skipped,
            failed=int(stats.skipped + protocol_faults) + (len(units) - len(results)),
            extra={"scrape_before": before, "scrape_after": after},
        )

    def peak_rss_mb(self) -> float:
        """The coordinator process's peak resident set (Linux ``VmHWM``)."""
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return 0.0
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def close(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc.stdout.close()
            self.proc = None
        shutil.rmtree(self.run_dir, ignore_errors=True)
        for path in self._files:
            path.unlink(missing_ok=True)


def _scrape(client) -> dict:
    from repro.observability.dashboard import parse_prometheus_text

    return parse_prometheus_text(client.metrics_text())


def scrape_delta(before: dict, after: dict, name: str, **labels: str) -> float:
    """Change of one series (or, without labels, of the whole family)."""
    if labels:
        key = tuple(sorted(labels.items()))
        return after.get(name, {}).get(key, 0.0) - before.get(name, {}).get(key, 0.0)
    return sum(after.get(name, {}).values()) - sum(before.get(name, {}).values())
