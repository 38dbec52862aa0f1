"""Tests for the distributed runtime (src/repro/runtime/distributed.py).

The properties that make multi-host draining trustworthy:

* **mutual exclusion** — however many workers race, exactly one claims
  each unit (``O_EXCL`` lease creation; atomic-rename stealing of stale
  leases);
* **crash recovery** — a SIGKILLed worker's in-flight unit is reclaimed
  after its lease TTL and re-executed by a survivor, and a unit it
  *recorded* before dying is never executed twice;
* **bit-identity** — the merged result of any number of workers, in any
  interleaving, across any number of crashes, equals
  ``run_sweep(spec, jobs=1)`` exactly (every unit owns a spawned RNG
  stream, so who executes it cannot matter);
* **format robustness** — lease files round-trip losslessly, and torn /
  garbage trailing lines in ``units*.jsonl`` (what a killed writer
  leaves) are tolerated and logged, never fatal.

The fault-injection harness spawns real ``repro sweep work`` worker
processes on one shared run directory, SIGKILLs one mid-unit (the
``REPRO_RUNTIME_UNIT_DELAY`` hook holds each unit open long enough to
make "mid-unit" deterministic), and checks the survivors' merged output
against the serial golden.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pisa import AnnealingConfig, PISAConfig
from repro.runtime import RunCheckpoint, WorkUnit
from repro.runtime.checkpoint import (
    CheckpointError,
    iter_result_records,
    safe_filename,
)
from repro.runtime.distributed import (
    Lease,
    LeaseDir,
    drain_units,
    inspect_run_dir,
    run_units_distributed,
    worker_identity,
)
from repro.runtime.executor import run_units
from repro.sweeps import SourceSpec, SweepSpec, fig4_spec, run_sweep, work_run_dir
from repro.utils.rng import spawn

TINY = PISAConfig(annealing=AnnealingConfig(max_iterations=10, alpha=0.8), restarts=2)
SCHEDULERS = ["HEFT", "CPoP", "MinMin"]  # 6 ordered pairs x 2 restarts = 12 units
REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def tiny_fig4_spec(seed: int = 0) -> SweepSpec:
    """The fig4 preset at test scale: same decomposition, tiny annealing."""
    return fig4_spec(schedulers=SCHEDULERS, config=TINY, seed=seed)


def tiny_benchmark_spec(seed: int = 1) -> SweepSpec:
    return SweepSpec(
        name="bench",
        mode="benchmark",
        schedulers=("HEFT", "CPoP"),
        source=SourceSpec("dataset", {"dataset": "chains"}),
        num_instances=4,
        sampling="sequential",
        seed=seed,
    )


def _ratios(result):
    return {pair: res.restart_ratios for pair, res in result.pairwise.results.items()}


# ---------------------------------------------------------------------- #
# Lease file format (property tests)
# ---------------------------------------------------------------------- #
_ids = st.text(
    st.characters(min_codepoint=33, max_codepoint=0x2FF), min_size=1, max_size=40
)
_times = st.floats(min_value=0, max_value=4e9, allow_nan=False, allow_infinity=False)
_ttls = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestLeaseFormat:
    @given(unit=_ids, worker=_ids, acquired=_times, heartbeat=_times, ttl=_ttls)
    def test_json_round_trip_is_lossless(self, unit, worker, acquired, heartbeat, ttl):
        lease = Lease(
            unit=unit, worker=worker, acquired_at=acquired, heartbeat=heartbeat, ttl=ttl
        )
        restored = Lease.from_dict(json.loads(json.dumps(lease.to_dict())))
        assert restored == lease

    @given(
        payload=st.one_of(
            st.none(),
            st.integers(),
            st.text(max_size=10),
            st.lists(st.integers(), max_size=3),
            st.dictionaries(st.sampled_from(["unit", "worker", "ttl"]), st.none(), max_size=2),
        )
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(ValueError):
            Lease.from_dict(payload)

    def test_reclaimed_flag_is_not_serialized_and_not_compared(self):
        lease = Lease(unit="u", worker="w", acquired_at=1.0, heartbeat=1.0, ttl=2.0)
        assert "reclaimed" not in lease.to_dict()
        assert replace(lease, reclaimed=True) == lease


# ---------------------------------------------------------------------- #
# Claim protocol: mutual exclusion, stealing, renewal
# ---------------------------------------------------------------------- #
class TestClaimRace:
    @given(contenders=st.integers(min_value=2, max_value=8))
    @settings(max_examples=15, deadline=None)
    def test_concurrent_claims_have_exactly_one_winner(self, contenders):
        with tempfile.TemporaryDirectory() as td:
            leases = LeaseDir(td, ttl=60)
            barrier = threading.Barrier(contenders)

            def attempt(i: int):
                barrier.wait()
                return leases.claim("HEFT|CPoP|r0", f"w{i}")

            with ThreadPoolExecutor(max_workers=contenders) as pool:
                results = list(pool.map(attempt, range(contenders)))
            winners = [lease for lease in results if lease is not None]
            assert len(winners) == 1
            assert not winners[0].reclaimed

    @given(contenders=st.integers(min_value=2, max_value=8))
    @settings(max_examples=15, deadline=None)
    def test_concurrent_steals_of_a_stale_lease_have_exactly_one_winner(self, contenders):
        with tempfile.TemporaryDirectory() as td:
            leases = LeaseDir(td, ttl=60)
            dead = Lease(
                unit="u", worker="dead", acquired_at=0.0, heartbeat=0.0, ttl=0.02
            )
            leases.path.mkdir(parents=True, exist_ok=True)
            leases.lease_path("u").write_text(json.dumps(dead.to_dict()))
            # Staleness is observer-local: a first probe starts the
            # unchanged-for-TTL watch, and only after the dead worker's
            # declared TTL passes (by our clock) is the lease stealable.
            assert leases.claim("u", "probe") is None
            time.sleep(0.05)
            barrier = threading.Barrier(contenders)

            def attempt(i: int):
                barrier.wait()
                return leases.claim("u", f"w{i}")

            with ThreadPoolExecutor(max_workers=contenders) as pool:
                results = list(pool.map(attempt, range(contenders)))
            winners = [lease for lease in results if lease is not None]
            assert len(winners) == 1
            assert winners[0].reclaimed

    @staticmethod
    def _stale_holder(td: str, observers: list[LeaseDir]) -> Lease:
        """A lease claimed by ``holder`` with a 20 ms TTL, watched past
        that TTL by every observer (staleness is observer-local)."""
        holder = LeaseDir(td, ttl=0.02).claim("u", "holder")
        assert holder is not None
        for observer in observers:
            assert observer.claim("u", "probe") is None
        time.sleep(0.05)
        return holder

    @staticmethod
    def _race(calls):
        barrier = threading.Barrier(len(calls))

        def attempt(call):
            barrier.wait()
            return call()

        with ThreadPoolExecutor(max_workers=len(calls)) as pool:
            return list(pool.map(attempt, calls))

    @given(contenders=st.integers(min_value=2, max_value=6))
    @settings(max_examples=15, deadline=None)
    def test_concurrent_steals_across_separate_lease_dirs_have_exactly_one_winner(
        self, contenders
    ):
        """Separate ``LeaseDir`` objects — separate processes or hosts,
        each with its own TTL watch — race for one stale lease."""
        with tempfile.TemporaryDirectory() as td:
            dirs = [LeaseDir(td, ttl=60) for _ in range(contenders)]
            self._stale_holder(td, dirs)
            results = self._race(
                [lambda d=d, i=i: d.claim("u", f"w{i}") for i, d in enumerate(dirs)]
            )
            winners = [lease for lease in results if lease is not None]
            assert len(winners) == 1
            assert winners[0].reclaimed
            stored = dirs[0].load(dirs[0].lease_path("u"))
            assert stored.worker == winners[0].worker

    @given(thieves=st.integers(min_value=1, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_renew_racing_steals_keeps_exactly_one_owner(self, thieves):
        """A late heartbeat racing the thieves: either the renewal lands
        and no thief wins, or one thief wins and the renewal is refused —
        never both, and the file names whoever won."""
        with tempfile.TemporaryDirectory() as td:
            dirs = [LeaseDir(td, ttl=60) for _ in range(thieves)]
            holder = self._stale_holder(td, dirs)
            own = LeaseDir(td, ttl=0.02)
            results = self._race(
                [lambda: own.renew(holder)]
                + [lambda d=d, i=i: d.claim("u", f"w{i}") for i, d in enumerate(dirs)]
            )
            renewed, stolen = results[0], [r for r in results[1:] if r is not None]
            assert (renewed is not None) + len(stolen) == 1
            stored = own.load(own.lease_path("u"))
            owner = renewed if renewed is not None else stolen[0]
            assert (stored.worker, stored.heartbeat) == (owner.worker, owner.heartbeat)

    @given(thieves=st.integers(min_value=1, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_release_racing_steals_never_removes_the_thiefs_lease(self, thieves):
        """The stale holder's release racing the thieves: exactly one
        thief ends up holding the unit (by steal, or by a fresh claim
        after the release), and its lease file survives the release."""
        with tempfile.TemporaryDirectory() as td:
            dirs = [LeaseDir(td, ttl=60) for _ in range(thieves)]
            holder = self._stale_holder(td, dirs)
            own = LeaseDir(td, ttl=0.02)
            results = self._race(
                [lambda: own.release(holder)]
                + [lambda d=d, i=i: d.claim("u", f"w{i}") for i, d in enumerate(dirs)]
            )
            winners = [r for r in results[1:] if r is not None]
            assert len(winners) <= 1
            stored = own.load(own.lease_path("u"))
            if winners:
                assert stored is not None and stored.worker == winners[0].worker
            else:
                # Every thief lost to the release ordering (tried before it
                # landed): the unit is simply free again.
                assert stored is None
            assert not list(Path(td, "leases").glob("*.fence.*"))


class TestLeaseLifecycle:
    def test_second_claim_is_refused_until_release(self, tmp_path):
        leases = LeaseDir(tmp_path, ttl=60)
        lease = leases.claim("u0", "w1")
        assert lease is not None and lease.worker == "w1"
        assert leases.claim("u0", "w2") is None
        leases.release(lease)
        assert leases.claim("u0", "w2") is not None

    def test_dead_lease_is_reclaimed_after_observed_ttl(self, tmp_path):
        """Observer-local expiry: the heartbeat must be *watched* staying
        unchanged for the holder's TTL — host clocks are never compared,
        so a skewed-but-renewing holder can never look dead."""
        leases = LeaseDir(tmp_path, ttl=60)
        dead = Lease(unit="u0", worker="dead", acquired_at=0.0, heartbeat=0.0, ttl=0.1)
        leases.path.mkdir(parents=True)
        leases.lease_path("u0").write_text(json.dumps(dead.to_dict()))
        assert leases.claim("u0", "w1") is None  # first sighting: watch starts
        time.sleep(0.15)
        stolen = leases.claim("u0", "w1")
        assert stolen is not None and stolen.reclaimed

    def test_heartbeat_change_resets_the_staleness_watch(self, tmp_path):
        leases = LeaseDir(tmp_path, ttl=60)
        path = leases.lease_path("u0")
        leases.path.mkdir(parents=True)
        dead = Lease(unit="u0", worker="slow", acquired_at=0.0, heartbeat=1.0, ttl=0.1)
        path.write_text(json.dumps(dead.to_dict()))
        assert leases.claim("u0", "w1") is None
        time.sleep(0.15)
        # The holder heartbeats (with an arbitrarily skewed timestamp —
        # only the *change* matters) just before the steal attempt.
        path.write_text(json.dumps(dead.to_dict() | {"heartbeat": 2.0}))
        assert leases.claim("u0", "w1") is None  # watch restarted
        time.sleep(0.15)
        stolen = leases.claim("u0", "w1")
        assert stolen is not None and stolen.reclaimed

    def test_torn_lease_is_respected_until_watched_for_a_full_ttl(self, tmp_path):
        leases = LeaseDir(tmp_path, ttl=0.1)
        leases.path.mkdir(parents=True)
        leases.lease_path("u0").write_text('{"unit": "u0", "wor')  # torn write
        assert leases.claim("u0", "w1") is None
        time.sleep(0.15)
        lease = leases.claim("u0", "w1")
        assert lease is not None and lease.reclaimed

    def test_renew_refreshes_heartbeat(self, tmp_path):
        leases = LeaseDir(tmp_path, ttl=60)
        lease = leases.claim("u0", "w1")
        renewed = leases.renew(lease)
        assert renewed is not None
        assert renewed.heartbeat >= lease.heartbeat
        stored = leases.load(leases.lease_path("u0"))
        assert stored.heartbeat == renewed.heartbeat

    def test_release_by_a_robbed_worker_keeps_the_thiefs_lease(self, tmp_path):
        """A stalled worker whose lease was stolen must not unlink the
        thief's live lease when it bails out (e.g. its worker fn raised)."""
        leases = LeaseDir(tmp_path, ttl=60)
        mine = Lease(unit="u0", worker="me", acquired_at=0.0, heartbeat=0.0, ttl=0.1)
        leases.path.mkdir(parents=True)
        leases.lease_path("u0").write_text(json.dumps(mine.to_dict()))
        assert leases.claim("u0", "thief") is None
        time.sleep(0.15)
        assert leases.claim("u0", "thief") is not None
        leases.release(mine)  # the robbed worker's failure-path release
        assert leases.load(leases.lease_path("u0")).worker == "thief"

    def test_heartbeat_slower_than_ttl_rejected(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "t"})
        with pytest.raises(ValueError, match="smaller than the lease"):
            drain_units(
                [WorkUnit(key="u0", payload=1)],
                _square,
                checkpoint,
                lease_ttl=2,
                heartbeat_interval=10,
            )

    def test_renew_after_release_does_not_resurrect_the_lease(self, tmp_path):
        """A straggler heartbeat (blocked in a slow fs call while the unit
        finished) must not recreate a released lease — that phantom would
        block gc and fresh initialization for a full TTL."""
        leases = LeaseDir(tmp_path, ttl=60)
        lease = leases.claim("u0", "w1")
        leases.release(lease)
        assert leases.renew(lease) is None
        assert not leases.lease_path("u0").exists()

    def test_renew_after_steal_reports_lost_ownership(self, tmp_path):
        leases = LeaseDir(tmp_path, ttl=60)
        mine = Lease(unit="u0", worker="me", acquired_at=0.0, heartbeat=0.0, ttl=0.1)
        leases.path.mkdir(parents=True)
        leases.lease_path("u0").write_text(json.dumps(mine.to_dict()))
        assert leases.claim("u0", "thief") is None  # watch starts
        time.sleep(0.15)
        thief = leases.claim("u0", "thief")
        assert thief is not None and thief.reclaimed
        assert leases.renew(mine) is None
        # The thief's lease survives untouched.
        assert leases.load(leases.lease_path("u0")).worker == "thief"

    def test_cleanup_sweeps_only_expired_leases_of_completed_units(self, tmp_path):
        leases = LeaseDir(tmp_path, ttl=60)
        live = leases.claim("pending", "w1")
        dead = Lease(unit="done", worker="dead", acquired_at=0.0, heartbeat=0.0, ttl=0.5)
        dead_path = leases.lease_path("done")
        dead_path.write_text(json.dumps(dead.to_dict()))
        old = time.time() - 3600
        os.utime(dead_path, (old, old))  # heartbeat *and* mtime old: truly dead
        removed = leases.cleanup({"done"})
        assert removed == 1
        assert not dead_path.exists()
        assert leases.lease_path(live.unit).exists()

    def test_worker_identity_is_stable_per_process_and_filesystem_safe(self):
        """One process is one worker: repeated calls must agree (leases and
        shard appends have to land under one id), while the random 32-bit
        suffix keeps hosts sharing a hostname+pid (container fleets, pid
        reuse) from colliding."""
        from repro.runtime import distributed

        a, b = worker_identity(), worker_identity()
        assert a == b
        suffix = a.rsplit("-", 1)[1]
        assert len(suffix) == 8  # 32 bits of hex
        int(suffix, 16)  # does not raise: it is the random suffix
        assert safe_filename(a)  # does not raise; names a valid shard
        # Another process draws its own suffix (simulated by resetting the
        # lazily-chosen one); hostname+pid equality alone must not collide.
        original = distributed._identity_suffix
        try:
            distributed._identity_suffix = None
            assert worker_identity() != a
        finally:
            distributed._identity_suffix = original


# ---------------------------------------------------------------------- #
# Shard/result file robustness (property tests)
# ---------------------------------------------------------------------- #
class TestResultFileRobustness:
    @given(
        n=st.integers(min_value=1, max_value=6),
        cut_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_resume_over_truncated_trailing_line(self, n, cut_fraction):
        """A killed writer's partial last line is tolerated, and appending
        after it never corrupts the new record (the latent bug this PR
        fixes: resume used to glue the fresh record onto the torn bytes)."""
        with tempfile.TemporaryDirectory() as td:
            checkpoint = RunCheckpoint(td)
            checkpoint.initialize({"kind": "t"})
            ends = {}
            for i in range(n):
                checkpoint.record(f"u{i}", i)
                ends[f"u{i}"] = checkpoint.units_path.stat().st_size
            blob = checkpoint.units_path.read_bytes()
            cut = int(len(blob) * cut_fraction)
            checkpoint.units_path.write_bytes(blob[:cut])

            completed = checkpoint.completed()  # must not raise
            survivors = {f"u{i}" for i in range(n) if ends[f"u{i}"] <= cut}
            assert survivors <= set(completed)
            assert set(completed) <= {f"u{i}" for i in range(n)}

            checkpoint.record("fresh", 99)
            completed = checkpoint.completed()
            assert completed["fresh"] == 99
            assert survivors <= set(completed)

    @given(n=st.integers(min_value=1, max_value=4), garbage=st.binary(max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_resume_over_garbage_trailing_bytes(self, n, garbage):
        from hypothesis import assume

        assume(b"key" not in garbage)
        with tempfile.TemporaryDirectory() as td:
            checkpoint = RunCheckpoint(td)
            checkpoint.initialize({"kind": "t"})
            for i in range(n):
                checkpoint.record(f"u{i}", i)
            with checkpoint.units_path.open("ab") as fh:
                fh.write(garbage)
            completed = checkpoint.completed()  # must not raise
            assert {f"u{i}": i for i in range(n)}.items() <= completed.items()

            checkpoint.record("fresh", 99)
            assert checkpoint.completed()["fresh"] == 99

    def test_garbage_lines_are_logged_not_fatal(self, tmp_path, caplog):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.initialize({"kind": "t"})
        checkpoint.record("u0", 0)
        with checkpoint.units_path.open("a") as fh:
            fh.write('{"key": "u1", "resu')  # torn final line
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.runtime.checkpoint"):
            assert checkpoint.completed() == {"u0": 0}
        assert any("unparseable" in rec.message for rec in caplog.records)

    def test_shards_merge_and_dedupe_first_writer_wins(self, tmp_path, caplog):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.initialize({"kind": "t"})
        checkpoint.record("u0", 1)
        checkpoint.record("u1", 2, shard="w1")
        checkpoint.record("u0", 999, shard="w1")  # late duplicate
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.runtime.checkpoint"):
            assert checkpoint.completed() == {"u0": 1, "u1": 2}
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_concurrent_attach_initialization_is_safe(self, tmp_path):
        """Racing `initialize(resume=True)` attaches must never destroy a
        winner's state: the manifest is published with an atomic exclusive
        link and the attach path deletes nothing."""
        manifest = {"kind": "sweep", "units": 2}
        barrier = threading.Barrier(4)
        errors = []

        def attach(i: int):
            checkpoint = RunCheckpoint(tmp_path / "run")
            barrier.wait()
            try:
                checkpoint.initialize(manifest, resume=True)
                # Immediately behave like a worker: claim and record.
                lease = LeaseDir(checkpoint.run_dir, ttl=30).claim("u0", f"w{i}")
                if lease is not None:
                    checkpoint.record("u0", i, shard=f"w{i}")
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(attach, range(4)))
        assert errors == []
        checkpoint = RunCheckpoint(tmp_path / "run")
        assert checkpoint.manifest() == manifest
        # Exactly one claimant recorded u0; nobody's shard was deleted.
        assert list(checkpoint.completed()) == ["u0"]

    def test_attach_with_mismatched_manifest_still_refused(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "sweep", "units": 2}, resume=True)
        with pytest.raises(CheckpointError, match="manifest"):
            RunCheckpoint(tmp_path / "run").initialize(
                {"kind": "sweep", "units": 3}, resume=True
            )

    def test_fresh_initialize_refuses_over_nonempty_shards(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.initialize({"kind": "t"})
        checkpoint.record("u0", 1, shard="w1")
        with pytest.raises(CheckpointError, match="resume"):
            checkpoint.initialize({"kind": "t"}, resume=False)
        # resume keeps the shard records.
        checkpoint.initialize({"kind": "t"}, resume=True)
        assert checkpoint.completed() == {"u0": 1}

    def test_fresh_initialize_refuses_while_a_worker_holds_a_live_lease(self, tmp_path):
        """An in-flight worker has recorded nothing yet, but overwriting
        the manifest under it would let it record results for a different
        experiment into this directory."""
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.initialize({"kind": "t"})
        LeaseDir(tmp_path, ttl=60).claim("u0", "busy-worker")
        with pytest.raises(CheckpointError, match="busy-worker"):
            checkpoint.initialize({"kind": "other"}, resume=False)
        # Once the lease is dead (old heartbeat + old mtime), fresh
        # initialization proceeds and sweeps the husk.
        leases = LeaseDir(tmp_path, ttl=60)
        old = time.time() - 3600
        dead = Lease(unit="u0", worker="dead", acquired_at=old, heartbeat=old, ttl=1.0)
        leases.lease_path("u0").write_text(json.dumps(dead.to_dict()))
        os.utime(leases.lease_path("u0"), (old, old))
        checkpoint.initialize({"kind": "other"}, resume=False)
        assert not list(leases.path.glob("*.json"))


# ---------------------------------------------------------------------- #
# The drain loop (in-process workers)
# ---------------------------------------------------------------------- #
def _square(unit: WorkUnit) -> int:
    return int(unit.payload) ** 2


def _draw(unit: WorkUnit) -> float:
    return float(unit.rng.random())


class TestDrainUnits:
    def test_single_worker_drains_everything(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "t"})
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(5)]
        stats = drain_units(units, _square, checkpoint, worker_id="w1", lease_ttl=30)
        assert stats.executed == 5
        assert checkpoint.completed() == {f"u{i}": i * i for i in range(5)}
        # Results live in this worker's shard, not units.jsonl.
        assert checkpoint.units_path.read_text() == ""
        assert checkpoint.shard_path("w1").exists()

    def test_concurrent_workers_split_the_run_without_double_execution(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "t"})
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(20)]
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [
                pool.submit(
                    drain_units,
                    units,
                    _square,
                    checkpoint,
                    worker_id=f"w{i}",
                    lease_ttl=30,
                    poll_interval=0.01,
                )
                for i in range(3)
            ]
            all_stats = [f.result() for f in futures]
        assert sum(s.executed for s in all_stats) == 20
        assert checkpoint.completed() == {f"u{i}": i * i for i in range(20)}
        # Exactly-once: no duplicate records across the three shards.
        keys = [
            record["key"]
            for path in checkpoint.result_paths()
            for record in iter_result_records(path)
        ]
        assert sorted(keys) == sorted(f"u{i}" for i in range(20))

    def test_no_wait_returns_while_peer_holds_a_live_lease(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "t"})
        units = [WorkUnit(key="u0", payload=1)]
        LeaseDir(checkpoint.run_dir, ttl=60).claim("u0", "peer")
        stats = drain_units(
            units, _square, checkpoint, worker_id="w1", lease_ttl=60, wait=False
        )
        assert stats.executed == 0
        assert checkpoint.completed() == {}

    def test_dead_workers_stale_lease_is_reclaimed_and_unit_executed(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "t"})
        units = [WorkUnit(key="u0", payload=3)]
        leases = LeaseDir(checkpoint.run_dir, ttl=60)
        dead = Lease(unit="u0", worker="dead", acquired_at=0.0, heartbeat=0.0, ttl=0.2)
        leases.path.mkdir(parents=True)
        leases.lease_path("u0").write_text(json.dumps(dead.to_dict()))
        # The drain loop observes the frozen heartbeat, waits out the
        # dead worker's declared TTL on its own clock, then reclaims.
        stats = drain_units(
            units, _square, checkpoint, worker_id="w1", lease_ttl=30, poll_interval=0.05
        )
        assert stats.executed == 1 and stats.reclaimed == 1
        assert checkpoint.completed() == {"u0": 9}

    def test_recorded_but_unreleased_unit_is_not_executed_twice(self, tmp_path):
        """A worker killed between recording and releasing leaves a stale
        lease on a *completed* unit; reclaiming it must not re-execute."""
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "t"})
        checkpoint.record("u0", 42, shard="dead")
        leases = LeaseDir(checkpoint.run_dir, ttl=60)
        dead = Lease(unit="u0", worker="dead", acquired_at=0.0, heartbeat=0.0, ttl=0.2)
        leases.path.mkdir(parents=True)
        leases.lease_path("u0").write_text(json.dumps(dead.to_dict()))
        old = time.time() - 3600
        os.utime(leases.lease_path("u0"), (old, old))
        executed = []

        def worker(unit):
            executed.append(unit.key)
            return 0

        units = [WorkUnit(key="u0", payload=0), WorkUnit(key="u1", payload=1)]
        stats = drain_units(units, worker, checkpoint, worker_id="w1", lease_ttl=30)
        assert executed == ["u1"]
        assert stats.executed == 1
        assert checkpoint.completed()["u0"] == 42  # the dead worker's record
        # The dead worker's leftover lease on the completed unit was swept.
        assert not leases.lease_path("u0").exists()

    def test_duplicate_unit_keys_rejected(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        with pytest.raises(ValueError, match="unique"):
            drain_units(
                [WorkUnit(key="u", payload=1), WorkUnit(key="u", payload=2)],
                _square,
                checkpoint,
            )

    def test_invalid_claim_batch_rejected(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        with pytest.raises(ValueError, match="claim_batch"):
            drain_units(
                [WorkUnit(key="u", payload=1)], _square, checkpoint, claim_batch=0
            )

    def test_batched_workers_split_the_run_without_double_execution(self, tmp_path):
        """claim_batch > 1 over the filesystem backend: batches amortize
        claim overhead but exactly-once still holds across workers."""
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "t"})
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(20)]
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [
                pool.submit(
                    drain_units,
                    units,
                    _square,
                    checkpoint,
                    worker_id=f"w{i}",
                    lease_ttl=30,
                    poll_interval=0.01,
                    claim_batch=4,
                )
                for i in range(3)
            ]
            all_stats = [f.result() for f in futures]
        assert sum(s.executed for s in all_stats) == 20
        assert checkpoint.completed() == {f"u{i}": i * i for i in range(20)}
        keys = [
            record["key"]
            for path in checkpoint.result_paths()
            for record in iter_result_records(path)
        ]
        assert sorted(keys) == sorted(f"u{i}" for i in range(20))

    def test_batched_drain_keeps_finished_units_and_frees_the_rest_on_failure(
        self, tmp_path
    ):
        """A worker that dies mid-batch keeps what it already recorded
        (per-unit crash granularity) and releases the unfinished
        remainder immediately for peers."""
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "t"})
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(4)]

        def breaks_on_u2(unit):
            if unit.key == "u2":
                raise OSError("mid-batch failure")
            return int(unit.payload) ** 2

        with pytest.raises(OSError, match="mid-batch"):
            drain_units(
                units, breaks_on_u2, checkpoint, worker_id="w1",
                lease_ttl=3600, claim_batch=4,
            )
        # u0/u1 were recorded before the failure and stay recorded...
        assert checkpoint.completed() == {"u0": 0, "u1": 1}
        # ...and no lease lingers: a peer finishes the rest with no TTL wait.
        stats = drain_units(
            units, _square, checkpoint, worker_id="w2", lease_ttl=3600, claim_batch=4
        )
        assert stats.executed == 2 and stats.reclaimed == 0
        assert checkpoint.completed() == {f"u{i}": i * i for i in range(4)}

    def test_worker_exception_releases_the_lease_immediately(self, tmp_path):
        """A Python-level failure must not strand the lease like a SIGKILL
        would: peers should be able to re-claim without waiting the TTL."""
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "t"})
        units = [WorkUnit(key="u0", payload=1)]

        def broken(unit):
            raise OSError("transient failure")

        with pytest.raises(OSError, match="transient"):
            drain_units(units, broken, checkpoint, worker_id="w1", lease_ttl=3600)
        leases = LeaseDir(checkpoint.run_dir, ttl=3600)
        assert not leases.lease_path("u0").exists()
        # A healthy peer picks the unit up right away (no TTL wait).
        stats = drain_units(units, _square, checkpoint, worker_id="w2", lease_ttl=3600)
        assert stats.executed == 1 and stats.reclaimed == 0
        assert checkpoint.completed() == {"u0": 1}


class TestRunUnitsDistributedBackend:
    def test_matches_local_backend_with_spawned_rngs(self, tmp_path):
        units = [WorkUnit(key=f"u{i}", rng=gen) for i, gen in enumerate(spawn(123, 6))]
        local = run_units(units, _draw, jobs=1)
        units2 = [WorkUnit(key=f"u{i}", rng=gen) for i, gen in enumerate(spawn(123, 6))]
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "t"})
        distributed = run_units(
            units2,
            _draw,
            checkpoint=checkpoint,
            backend="distributed",
            jobs=2,
            lease_ttl=30,
            poll_interval=0.01,
        )
        assert local == distributed

    def test_distributed_backend_requires_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoint"):
            run_units([WorkUnit(key="u", payload=1)], _square, backend="distributed")

    def test_local_backend_rejects_distributed_options(self):
        with pytest.raises(ValueError, match="lease_ttl"):
            run_units([WorkUnit(key="u", payload=1)], _square, lease_ttl=5)
        with pytest.raises(ValueError, match="claim_batch"):
            run_units([WorkUnit(key="u", payload=1)], _square, claim_batch=4)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            run_units([WorkUnit(key="u", payload=1)], _square, backend="rpc")

    def test_on_result_reports_peer_executed_units_as_cached(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "t"})
        checkpoint.record("u0", 0, shard="peer")  # a peer already did u0
        units = [WorkUnit(key="u0", payload=0), WorkUnit(key="u1", payload=3)]
        seen = []
        run_units_distributed(
            units,
            _square,
            checkpoint,
            worker_id="w1",
            lease_ttl=30,
            on_result=lambda u, r, cached: seen.append((u.key, r, cached)),
        )
        assert seen == [("u0", 0, True), ("u1", 9, False)]


# ---------------------------------------------------------------------- #
# Manifest reconstruction (`repro sweep work` without the spec file)
# ---------------------------------------------------------------------- #
class TestWorkRunDir:
    def test_worker_reconstructs_sweep_from_manifest_alone(self, tmp_path):
        spec = tiny_benchmark_spec()
        run_dir = tmp_path / "run"
        # Host 1 initializes (and drains nothing: no-wait with everything
        # immediately claimable means it actually drains; use it fully).
        plan, stats = work_run_dir(run_dir, spec=spec, worker_id="w1", lease_ttl=30)
        assert stats.executed == len(plan.units) == 4
        # Host 2 joins knowing only the directory: nothing left to do.
        plan2, stats2 = work_run_dir(run_dir, worker_id="w2", lease_ttl=30)
        assert stats2.executed == 0
        assert [u.key for u in plan2.units] == [u.key for u in plan.units]
        # The merged run aggregates bit-identically to a plain local run.
        import numpy as np

        local = run_sweep(spec, jobs=1)
        merged = run_sweep(spec, run_dir=run_dir, resume=True, jobs=1)
        for scheduler in local.makespans:
            assert np.array_equal(local.makespans[scheduler], merged.makespans[scheduler])

    def test_uninitialized_directory_without_spec_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            work_run_dir(tmp_path / "empty")

    def test_mismatched_spec_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        work_run_dir(run_dir, spec=tiny_benchmark_spec(seed=1), worker_id="w1")
        with pytest.raises(CheckpointError, match="manifest"):
            work_run_dir(run_dir, spec=tiny_benchmark_spec(seed=2), worker_id="w2")

    def test_externally_seeded_manifest_refused(self, tmp_path):
        import numpy as np

        spec = tiny_benchmark_spec()
        run_dir = tmp_path / "run"
        run_sweep(spec, run_dir=run_dir, rng=np.random.default_rng(5))
        with pytest.raises(CheckpointError, match="external"):
            work_run_dir(run_dir)

    def test_non_sweep_manifest_refused(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "pairwise", "units": 2})
        with pytest.raises(CheckpointError, match="sweep"):
            work_run_dir(tmp_path / "run")

    def test_distributed_run_sweep_requires_run_dir_and_spec_seeding(self):
        import numpy as np

        spec = tiny_benchmark_spec()
        with pytest.raises(CheckpointError, match="run_dir"):
            run_sweep(spec, backend="distributed")
        with pytest.raises(ValueError, match="rng"):
            run_sweep(
                spec,
                backend="distributed",
                run_dir="unused",
                rng=np.random.default_rng(1),
            )

    def test_local_run_sweep_rejects_distributed_options(self):
        """Forgetting backend='distributed' while tuning lease timing must
        fail loudly, not silently drop the options."""
        spec = tiny_benchmark_spec()
        with pytest.raises(ValueError, match="lease_ttl"):
            run_sweep(spec, lease_ttl=5)
        with pytest.raises(ValueError, match="poll_interval"):
            run_sweep(spec, poll_interval=0.1)


# ---------------------------------------------------------------------- #
# Fault injection: real worker processes, SIGKILL, reclaim, bit-identity
# ---------------------------------------------------------------------- #
def _worker_env(delay: float | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if delay is not None:
        env["REPRO_RUNTIME_UNIT_DELAY"] = str(delay)
    else:
        env.pop("REPRO_RUNTIME_UNIT_DELAY", None)
    return env


def _start_worker(
    run_dir: Path,
    worker_id: str,
    *,
    spec_path: Path | None = None,
    delay: float | None = None,
    ttl: float = 2.0,
) -> subprocess.Popen:
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "sweep",
        "work",
        str(run_dir),
        "--worker-id",
        worker_id,
        "--ttl",
        str(ttl),
        "--heartbeat",
        "0.4",
        "--poll",
        "0.05",
    ]
    if spec_path is not None:
        cmd += ["--spec", str(spec_path)]
    return subprocess.Popen(
        cmd,
        env=_worker_env(delay),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _wait_until(predicate, timeout: float, message: str) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for: {message}")


def _victim_holds_lease(run_dir: Path, worker_id: str) -> bool:
    leases = run_dir / "leases"
    if not leases.is_dir():
        return False
    for path in leases.glob("*.json"):
        try:
            if json.loads(path.read_text()).get("worker") == worker_id:
                return True
        except (OSError, json.JSONDecodeError):
            continue
    return False


def _shard_lines(run_dir: Path, worker_id: str) -> int:
    shard = run_dir / f"units-{safe_filename(worker_id)}.jsonl"
    try:
        return len([line for line in shard.read_text().splitlines() if line.strip()])
    except OSError:
        return 0


class TestFaultInjection:
    """SIGKILL real workers mid-unit; survivors must finish the run and
    the merged result must be bit-identical to the serial one."""

    @pytest.mark.parametrize(
        "survivors,kill_after_units",
        [
            # The acceptance scenario: 3 concurrent workers, one killed on
            # its first unit and reclaimed.
            (2, 0),
            # More workers, killed later: exercises a mid-run kill point
            # where the victim has already contributed results.
            (3, 2),
        ],
    )
    def test_kill_and_reclaim_is_bit_identical_to_serial(
        self, tmp_path, survivors, kill_after_units
    ):
        spec = tiny_fig4_spec()
        serial = run_sweep(spec, jobs=1)
        expected_keys = sorted(
            f"{t}|{b}|r{r}"
            for t in SCHEDULERS
            for b in SCHEDULERS
            if t != b
            for r in range(TINY.restarts)
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        run_dir = tmp_path / "run"

        victim = _start_worker(
            run_dir, "victim", spec_path=spec_path, delay=0.6, ttl=2.0
        )
        workers: list[subprocess.Popen] = []
        try:
            # Let the victim make its configured progress, then start the
            # survivor fleet so the kill happens under real concurrency.
            _wait_until(
                lambda: _shard_lines(run_dir, "victim") >= kill_after_units
                and _victim_holds_lease(run_dir, "victim"),
                timeout=90,
                message=f"victim to complete {kill_after_units} unit(s) and claim another",
            )
            workers += [
                _start_worker(run_dir, f"w{i}", ttl=2.0) for i in range(survivors)
            ]
            _wait_until(
                lambda: _victim_holds_lease(run_dir, "victim"),
                timeout=90,
                message="victim to hold a lease at kill time",
            )
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
            # SIGKILL froze the victim's filesystem state; its lease (if it
            # died mid-unit, which the wait above makes near-certain) now
            # sits stale until a survivor's TTL check reclaims it.
            killed_mid_unit = _victim_holds_lease(run_dir, "victim")

            outputs = []
            for worker in workers:
                out, err = worker.communicate(timeout=240)
                assert worker.returncode == 0, err
                outputs.append(out)
        finally:
            for proc in [victim, *workers]:
                if proc.poll() is None:
                    proc.kill()

        # Every unit executed, none double-counted.
        recorded = []
        for shard in run_dir.glob("units-*.jsonl"):
            recorded += [
                json.loads(line)["key"]
                for line in shard.read_text().splitlines()
                if line.strip()
            ]
        assert sorted(recorded) == expected_keys
        # The killed unit's lease was reclaimed, not leaked.
        assert not list((run_dir / "leases").glob("*.json"))
        if killed_mid_unit:
            assert any("reclaimed" in out for out in outputs)

        # Merged result is bit-identical to the serial run.
        merged = run_sweep(spec, run_dir=run_dir, resume=True, jobs=1)
        assert _ratios(merged) == _ratios(serial)
        for pair, res in serial.pairwise.results.items():
            best = merged.pairwise.results[pair].best_instance
            assert best.task_graph == res.best_instance.task_graph
            assert best.network == res.best_instance.network

    def test_status_reports_progress_and_stale_lease(self, tmp_path):
        spec = tiny_benchmark_spec()
        run_dir = tmp_path / "run"
        work_run_dir(run_dir, spec=spec, worker_id="w1", lease_ttl=30)
        # Fabricate a dead worker's leftover lease on a completed run.
        leases = LeaseDir(run_dir, ttl=30)
        leases.path.mkdir(parents=True, exist_ok=True)
        dead = Lease(unit="ghost", worker="dead", acquired_at=0.0, heartbeat=0.0, ttl=1.0)
        leases.lease_path("ghost").write_text(json.dumps(dead.to_dict()))
        old = time.time() - 3600
        os.utime(leases.lease_path("ghost"), (old, old))
        status = inspect_run_dir(run_dir)
        assert status.complete
        assert status.completed_units == status.total_units == 4
        assert status.active_leases == []
        assert [lease.unit for lease in status.stale_leases] == ["ghost"]
