"""End-to-end sweep benchmark with an outside-in per-layer trace.

Run from the repository root::

    python3 sweepbench/run.py --workload fig4_chains --seed 0 --seconds 25 --trace 0
    python3 sweepbench/run.py --workload all        # every metric of every workload

One run warms up, times several set-ups, drains the workload's sweep in
full passes until ``--seconds`` is used up (at least one pass), and
checks the outputs.  ``--trace 1`` adds one traced pass whose spans
give the per-layer breakdown.  The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``); the lines before it are the human-readable report.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / "sweepbench" / "_work"

#: Set-ups timed before the first pass (``setup_s`` is their median).
SETUPS = {"local": 21, "coordinator": 5}
#: Units of the first coordinator set-up drained to warm the HTTP path.
COORDINATOR_WARM_UNITS = 3
MAX_PASSES = 20


def _bootstrap() -> bool:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def result_digest(plan, results) -> str:
    from repro.runtime.pairwise import aggregate_pair_sweep

    from sweepbench import checks

    spec = plan.spec
    if spec.mode == "pisa":
        pairwise = aggregate_pair_sweep(
            plan.pairs, spec.config.restarts, results, spec.scheduler_names()
        )
        return checks.pisa_digest(pairwise, plan.pairs)
    rows = [results[u.key] for u in plan.units]
    return checks.makespan_digest(checks.makespan_arrays(rows, spec.schedulers))


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    work_dir: Path = WORK_DIR,
    digests_path: Path | None = None,
    record: bool = False,
) -> dict:
    """Run one workload; returns the report (raises ``CheckFailed``)."""
    from repro.core.compiled import compile_stats
    from repro.runtime.executor import run_units
    from repro.sweeps import plan_sweep

    from sweepbench import checks, clock, metrics, probes
    from sweepbench.tracer import Tracer, summarize
    from sweepbench.workloads import CoordinatorSession, LocalSession

    digests_path = checks.DIGESTS_PATH if digests_path is None else digests_path
    spec = workload.spec(seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}-s{seed}-p{os.getpid()}"
    serial = itertools.count()

    def new_session():
        run_dir = work_dir / f"{tag}-{next(serial)}"
        if workload.coordinator:
            return CoordinatorSession(spec, run_dir, ROOT)
        return LocalSession(spec, run_dir)

    report: dict = {"workload": workload.name, "why": workload.why, "seed": seed}
    session = None
    try:
        # -- warm-up: a small sweep of the same shape, not timed
        warm = plan_sweep(workload.warmup(seed))
        run_units(warm.units, warm.worker, jobs=1)

        # -- set-up, several times
        setup_samples: list[tuple[float, float]] = []  # (calibrated, raw)

        def timed_session():
            before = clock.probe()
            opened = new_session()
            after = clock.probe()
            setup_samples.append(
                (clock.calibrate(opened.setup_s, before, after), opened.setup_s)
            )
            return opened

        for i in range(SETUPS["coordinator" if workload.coordinator else "local"]):
            if session is not None:
                session.close()
            session = timed_session()
            if workload.coordinator and i == 0:
                session.drain(units=session.plan.units[:COORDINATOR_WARM_UNITS])
        plan = session.plan
        report["sizes"] = input_sizes(plan)

        # -- untraced passes, each checked as it finishes and then reduced
        # to its timings, so the resident set does not grow with the
        # number of passes that fit into ``seconds``
        passes = []
        digest = None
        start = perf_counter()
        while True:
            if session is None:
                session = timed_session()
            done = session.drain()
            session.close()
            session = None
            digest = check_pass(plan, done, digest)
            done.results = None
            passes.append(done)
            elapsed = perf_counter() - start
            if elapsed + done.wall_s > seconds or len(passes) >= MAX_PASSES:
                break
        report["passes"] = len(passes)
        report["setups"] = len(setup_samples)
        report["digest"] = digest
        if record and checks.expected_digest(workload.name, seed, digests_path) is None:
            checks.record_digest(workload.name, seed, digest, digests_path)
        report["digest_checked"] = checks.check_digest(workload.name, seed, digest, digests_path)

        e2e = metrics.end_to_end(passes, [cal for cal, _raw in setup_samples])
        report["end_to_end"] = e2e
        report["raw_wall_clock"] = metrics.raw_end_to_end(
            passes, [raw for _cal, raw in setup_samples]
        )
        report["per_pass"] = [
            {
                "calibrated": metrics.gap_timings([p.gaps_s]),
                "raw": metrics.gap_timings([p.raw_gaps_s]),
            }
            for p in passes
        ]
        report["tail_percentile"] = metrics.tail_percentile(len(passes[0].gaps_s))
        report["tail_samples"] = len(passes[0].gaps_s)
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)

        # -- the traced pass
        if trace:
            session = new_session()
            tracer = Tracer()
            probes.install(tracer)
            stats0 = compile_stats()
            try:
                traced = session.drain(tracer=tracer)
            finally:
                tracer.restore()
            stats1 = compile_stats()
            coordinator_rss = session.peak_rss_mb() if workload.coordinator else 0.0
            session.close()
            session = None
            attempted += traced.attempted
            failed += traced.failed
            check_pass(plan, traced, digest)
            summary = summarize(tracer.spans)
            layers = metrics.per_layer(
                tracer.spans,
                summary,
                tracer.counts,
                {k: stats1[k] - stats0[k] for k in stats1},
                traced,
                report["raw_wall_clock"]["units_per_s"],
                coordinator_rss,
            )
            report["per_layer"] = layers
            report["breakdown"] = summary
            residual = metrics.allowed_residual_s(traced.wall_s, len(traced.results))
            report["residual_s"] = residual
            spans_path = work_dir / f"spans-{workload.name}-seed{seed}.jsonl"
            write_spans(spans_path, tracer.spans, traced.wall_s)
            report["spans_file"] = str(spans_path)
            if abs(layers["trace.unattributed_s"]) > residual:
                raise checks.CheckFailed(
                    f"{layers['trace.unattributed_s']:.4f} s of the traced wall is unattributed, "
                    f"outside every layer probe (allowed {residual:.4f} s)"
                )
        report["attempted"] = attempted
        report["failed"] = failed
        return report
    finally:
        if session is not None:
            session.close()


def check_pass(plan, done, digest: str | None) -> str:
    """Check one pass; returns its result digest.

    The first pass (``digest is None``) is checked in full; a later one
    must reproduce the first pass's digest.
    """
    from repro.runtime.executor import run_units
    from repro.sweeps import plan_sweep

    from sweepbench import checks

    if done.failed:
        raise checks.CheckFailed(f"{done.failed} unit(s) failed or were retried")
    found = result_digest(plan, done.results)
    if digest is not None:
        if found != digest:
            raise checks.CheckFailed("two passes over the same inputs differ")
        return digest
    if plan.spec.mode == "pisa":
        checks.verify_pisa_units(plan, done.results)
    else:
        fresh = plan_sweep(plan.spec)  # drained units' generators are consumed
        if done.results != run_units(fresh.units, fresh.worker, jobs=1):
            raise checks.CheckFailed("drained results differ from a local serial run")
    return found


def input_sizes(plan) -> dict:
    spec = plan.spec
    sizes = {"units": len(plan.units), "schedulers": len(spec.scheduler_names())}
    if spec.mode == "pisa":
        import numpy as np

        # A private stream: the units' own generators must stay unconsumed.
        rng = np.random.default_rng(spec.seed)
        draws = [plan.pairs[0][2].initial_factory(rng) for _ in range(20)]
        tasks = [len(inst.task_graph) for inst in draws]
        nodes = [len(inst.network) for inst in draws]
        sizes.update(
            pairs=len(plan.pairs),
            restarts=spec.config.restarts,
            iterations=spec.config.annealing.effective_iterations,
            initial_tasks=f"{min(tasks)}-{max(tasks)}",
            initial_nodes=f"{min(nodes)}-{max(nodes)}",
        )
    else:
        sizes["instances"] = spec.num_instances
    return sizes


def write_spans(path: Path, spans, wall_s: float) -> None:
    origin = min((s[2] for s in spans), default=0.0)
    with open(path, "w") as fh:
        fh.write(json.dumps({"fields": ["id", "name", "start_s", "end_s", "parent"],
                             "wall_s": wall_s}) + "\n")
        for sid, name, t0, t1, parent in spans:
            fh.write(json.dumps([sid, name, round(t0 - origin, 9), round(t1 - origin, 9), parent]))
            fh.write("\n")


def render(report: dict, trace: bool) -> None:
    from sweepbench import metrics

    print(f"workload {report['workload']} (seed {report['seed']}): {report['why']}")
    print("  input sizes: " + ", ".join(f"{k}={v}" for k, v in report.get("sizes", {}).items()))
    print(f"  passes={report.get('passes')} setups={report.get('setups')} "
        f"digest={report.get('digest', '')[:16]} "
        f"committed_digest_checked={report.get('digest_checked')}")
    raw = report.get("raw_wall_clock", {})
    print("  end-to-end (calibrated seconds; raw wall clock in brackets):")
    for name, value in report.get("end_to_end", {}).items():
        unit = metrics.END_TO_END[name][0]
        note = ""
        if name == "unit_ms_tail":
            note = f"  (p{report['tail_percentile']:g} of {report['tail_samples']} samples)"
        bracket = f" [{raw[name]:.6g}]" if name in raw else ""
        print(f"    {name:<40} {value:>14.6g} {unit}{bracket}{note}")
    if not trace or "per_layer" not in report:
        return
    print("  per-layer (traced pass):")
    for name, value in report["per_layer"].items():
        print(f"    {name:<40} {value:>14.6g} {metrics.PER_LAYER[name]}")
    wall = report["per_layer"]["trace.wall_s"]
    print(f"  exclusive breakdown (self time; sums to the traced wall {wall:.3f} s; "
        f"unattributed {report['per_layer']['trace.unattributed_s']:.4f} s, "
        f"allowed {report['residual_s']:.4f} s):")
    rows = sorted(report["breakdown"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        print(f"    {name:<32} calls={int(row['calls']):>8} self={row['self_s']:>9.4f} s "
            f"({100 * row['self_s'] / wall:5.1f}%) incl={row['incl_s']:>9.4f} s")


def _result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        }
    )


def run_all(args) -> int:
    """Every workload with ``--trace 1``, each in its own process."""
    from sweepbench.workloads import WORKLOADS, clean_env

    correct, attempted, failed, values, units = True, 0, 0, {}, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
            cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1], flush=True)
            return 1
        correct &= proc.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, metric in result["metrics"].items():
            values[f"{name}/{key}"] = metric["value"]
            units[f"{name}/{key}"] = metric["unit"]
    print(_result_line(correct, attempted, failed, values, units))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="fig4_chains, app_workflows, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _bootstrap():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # A terminated run still stops its coordinator (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for this process and the coordinator it starts (children
    # inherit the mask): on a shared VM, wakeups across vCPUs made
    # coordinator-bound figures swing twice as much from run to run.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from sweepbench import checks, metrics
    from sweepbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    workload = WORKLOADS[args.workload]
    started = perf_counter()
    try:
        report = measure(workload, args.seed, args.seconds, bool(args.trace))
    except checks.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", flush=True)
        print(_result_line(False, 1, 1, {}, {}))
        return 1
    render(report, bool(args.trace))
    print(f"  total run time: {perf_counter() - started:.1f} s")
    report_path = WORK_DIR / f"report-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2, default=str) + "\n")
    if args.trace:
        values, units = report["per_layer"], metrics.PER_LAYER
    else:
        values, units = report["end_to_end"], {k: u for k, (u, _) in metrics.END_TO_END.items()}
    print(_result_line(True, report["attempted"], report["failed"], values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
