"""Filesystem-coordinated multi-worker execution over a shared run directory.

Any number of worker processes — on any hosts that mount the same run
directory — can drain one sweep cooperatively.  Coordination is pure
filesystem protocol; there is no coordinator process:

``leases/<unit>.json``
    A worker *claims* a unit by creating its lease file with ``O_EXCL``
    (exactly one creator wins, atomically, on POSIX filesystems and on
    NFSv3+).  The lease holds the worker id, acquisition time, heartbeat
    timestamp, and TTL.  While executing, a daemon thread renews the
    heartbeat.  Staleness is judged **observer-locally**: a contender
    declares a lease dead only after watching its heartbeat stay
    *unchanged* for the lease's full TTL on the contender's own monotonic
    clock — no cross-host clock synchronization is required, because
    timestamps are only ever compared for *change*, never across hosts.
    A stale lease is *reclaimed* — stolen via an atomic rename (again,
    exactly one thief wins) — so a crashed host's units are re-executed.
``units-<worker>.jsonl``
    Completed results append to a per-worker shard (see
    :mod:`repro.runtime.checkpoint`); one writer per file means
    concurrent appends never interleave.  The merged view dedupes on
    unit key, so the rare "presumed-dead worker wakes up and records a
    unit someone already re-executed" case is benign: both records are
    bit-identical (units own deterministic RNG streams) and the first
    one wins.

The drain loop (:func:`drain_units`) claims, executes, records, and
releases until every unit of the run is recorded by *someone*, sleeping
``poll_interval`` between passes when all remaining units are leased by
live peers.  Liveness requires only that clocks advance at roughly the
same rate across hosts (TTLs compare durations, not wall-clock
instants).

Fault injection (used by ``tests/test_distributed.py``): setting
``REPRO_RUNTIME_UNIT_DELAY`` to a float number of seconds makes every
worker sleep that long between claiming a unit and executing it, which
gives a test harness a deterministic window to ``SIGKILL`` a worker
mid-unit.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import secrets
import socket
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.runtime.checkpoint import (
    RunCheckpoint,
    iter_result_records,
    result_file_paths,
    safe_filename,
)
from repro.runtime.units import WorkUnit

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_POLL_INTERVAL",
    "LEASES_DIR",
    "STATUS_SCHEMA_VERSION",
    "Lease",
    "LeaseDir",
    "lease_seems_live",
    "WorkerStats",
    "RunDirStatus",
    "worker_identity",
    "drain_units",
    "run_units_distributed",
    "run_units_coordinator",
    "inspect_run_dir",
    "render_status_payload",
]

logger = logging.getLogger(__name__)

#: Seconds without a heartbeat after which a lease is presumed dead.
DEFAULT_LEASE_TTL = 120.0
#: Seconds between drain-loop passes while waiting on other workers.
DEFAULT_POLL_INTERVAL = 0.5
#: Lease directory name inside a run directory.
LEASES_DIR = "leases"
#: Version tag of the machine-readable status payload schema
#: (``RunDirStatus.to_payload`` / coordinator ``GET /status`` /
#: ``repro sweep status --json``).
STATUS_SCHEMA_VERSION = 1

#: Fault-injection hook: sleep this many seconds between claim and
#: execution (see module docstring).
_UNIT_DELAY_ENV = "REPRO_RUNTIME_UNIT_DELAY"


def lease_seems_live(lease: "Lease | None", path: Path, now: float) -> bool:
    """Conservative, stateless liveness guess shared by every *advisory*
    consumer — ``sweep status``, lease-aware ``runs gc``, and end-of-run
    lease cleanup — so their judgements cannot drift apart.

    A lease seems live if either its embedded heartbeat or its file mtime
    is younger than its TTL.  Using both errs toward "live" under clock
    skew (mtimes on a shared filesystem come from one server clock), which
    is the safe direction for anything that might delete state.  The claim
    protocol itself never uses this: it relies on :class:`LeaseDir`'s
    observer-local unchanged-for-TTL rule.
    """
    ttl = lease.ttl if lease is not None else DEFAULT_LEASE_TTL
    if lease is not None and now - lease.heartbeat <= ttl:
        return True
    try:
        mtime = path.stat().st_mtime
    except OSError:
        return False  # vanished: certainly not holding anything
    return now - mtime <= ttl


#: Per-process random identity suffix, chosen lazily at first use (so a
#: forked child that first calls :func:`worker_identity` after the fork
#: still shares the parent's suffix — its pid already distinguishes it).
_identity_suffix: str | None = None


def worker_identity() -> str:
    """This process's worker id: ``<host>-<pid>-<random32>``.

    Uniqueness matters because the worker id names the result shard and
    leases; two workers sharing an id would interleave appends in one
    file.  Hostname + pid alone collide across container fleets (every
    container is ``host`` pid 42) and across pid reuse on one machine, so
    a random 32-bit suffix is appended — chosen once, at the first call,
    so every call in one process names the *same* worker.  Leases and
    shards treat the id as opaque, so the format can evolve freely.
    """
    global _identity_suffix
    if _identity_suffix is None:
        _identity_suffix = secrets.token_hex(4)
    host = socket.gethostname().split(".")[0] or "host"
    return f"{host}-{os.getpid()}-{_identity_suffix}"


# ---------------------------------------------------------------------- #
# Leases
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Lease:
    """One worker's claim on one work unit."""

    unit: str
    worker: str
    acquired_at: float
    heartbeat: float
    ttl: float
    #: Whether this claim reclaimed a dead worker's stale lease (not part
    #: of the serialized format).
    reclaimed: bool = field(default=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "unit": self.unit,
            "worker": self.worker,
            "acquired_at": self.acquired_at,
            "heartbeat": self.heartbeat,
            "ttl": self.ttl,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "Lease":
        """Parse a lease payload; raises :class:`ValueError` on anything
        a torn write or foreign file could have left behind."""
        if not isinstance(data, dict):
            raise ValueError(f"lease payload must be an object, got {type(data).__name__}")
        try:
            unit = data["unit"]
            worker = data["worker"]
            acquired_at = float(data["acquired_at"])
            heartbeat = float(data["heartbeat"])
            ttl = float(data["ttl"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed lease payload: {exc}") from None
        if not isinstance(unit, str) or not isinstance(worker, str):
            raise ValueError("lease unit/worker must be strings")
        return cls(
            unit=unit, worker=worker, acquired_at=acquired_at, heartbeat=heartbeat, ttl=ttl
        )


#: How often :meth:`LeaseDir.release` retries a busy fence, and how long
#: it waits between tries (a fence is held for microseconds).
_FENCE_RETRIES = 50
_FENCE_BACKOFF_S = 0.002


class LeaseDir:
    """The ``leases/`` directory of one run: claim, renew, release.

    All mutations are atomic filesystem operations, so any number of
    workers — threads, processes, or hosts — can race safely.  A fresh
    claim is an ``O_EXCL`` create.  Every mutation of an *existing*
    lease — a steal, a renewal, a release — is **fenced on file
    identity**: the mutator reads the lease and ``fstat``s the file it
    read, then hard-links that path to a fence name derived from the
    inode (``<lease>.fence.<inode>``; ``link`` fails on ``EEXIST``, so at
    most one mutator holds a given lease file's fence), and proceeds only
    if the fence is the very file it judged (same inode, same heartbeat).
    Every mutation of a lease file happens under its fence, so between
    the check and the act nobody else can swap the file — a second thief
    can no longer replace the first thief's fresh lease, nor a robbed
    worker's renewal or release clobber the thief's.  Steals and
    renewals replace the file atomically (``os.replace``), so the lease
    path is never momentarily empty; a fence left behind by a mutator
    that died inside its critical section is broken once watched for a
    TTL, like a stale lease.

    Staleness is **observer-local**: each ``LeaseDir`` instance remembers
    when it first observed a lease's current heartbeat value (on its own
    monotonic clock) and presumes the holder dead only after the value
    has stayed unchanged for the lease's declared TTL.  Host clocks are
    never compared, so arbitrary wall-clock skew cannot make a live
    lease look dead (or vice versa) — at the cost of up to one extra TTL
    of reclaim latency after a crash is first noticed.
    """

    def __init__(self, run_dir: str | Path, ttl: float = DEFAULT_LEASE_TTL) -> None:
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")
        self.path = Path(run_dir) / LEASES_DIR
        self.ttl = float(ttl)
        #: lease file name -> (last observed heartbeat value or None for a
        #: torn file, monotonic instant that value was first observed, the
        #: TTL the holder declared on that sighting)
        self._observed: dict[str, tuple[float | None, float, float]] = {}

    def lease_path(self, unit_key: str) -> Path:
        return self.path / f"{safe_filename(unit_key)}.json"

    # ------------------------------------------------------------------ #
    def claim(self, unit_key: str, worker: str) -> Lease | None:
        """Try to claim ``unit_key`` for ``worker``.

        Returns the new lease, or ``None`` if another worker holds a
        lease not yet presumed dead (or won the race for a stale one).
        Stale leases — heartbeat unchanged for the TTL *the holder
        declared*, by this observer's clock — are stolen first via an
        atomic rename so exactly one contender inherits the claim.
        """
        self.path.mkdir(parents=True, exist_ok=True)
        path = self.lease_path(unit_key)
        now = time.time()
        reclaimed = False
        fd: int | None = None
        fence: Path | None = None
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            # A first-try create can still follow a death: the holder may
            # have been presumed dead by our own watch just before its
            # lease disappeared (a release racing the TTL, or a cleanup).
            # Flag such a claim reclaimed so the handover is not invisible
            # in status/logs.
            seen = self._observed.get(path.name)
            if seen is not None and time.monotonic() - seen[1] > seen[2]:
                reclaimed = True
        except FileExistsError:
            outcome = self._expire(path)
            if outcome is None:
                return None
            if outcome == "vanished":
                # The holder released it normally between our O_EXCL
                # failure and now — an ordinary race, not a reclaim.
                try:
                    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
                except FileExistsError:
                    return None  # lost the re-create race
            else:
                fence = outcome  # we hold the stale lease's fence
                reclaimed = True
        self._observed.pop(path.name, None)
        lease = Lease(
            unit=unit_key,
            worker=worker,
            acquired_at=now,
            heartbeat=now,
            ttl=self.ttl,
            reclaimed=reclaimed,
        )
        if fd is not None:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(lease.to_dict()) + "\n")
                fh.flush()
        else:
            self._write_over(path, lease)
            os.unlink(fence)
        if reclaimed:
            logger.warning(
                "reclaimed stale lease on unit %r for worker %s", unit_key, worker
            )
        return lease

    def _expire(self, path: Path) -> Path | str | None:
        """Fence ``path``'s lease if its holder is gone.

        Returns the fence (we won the takeover of a stale lease and may
        now replace it), ``"vanished"`` (the holder released it normally
        in the meantime), or ``None`` (a holder not yet presumed dead
        still owns it, or another contender is taking it over).
        """
        found = self._read(path)
        if found is None:
            return "vanished"  # released; O_EXCL settles the rest
        existing, ino = found
        # Torn files (a writer died mid-write) have no heartbeat; watch
        # them under the None marker with our own TTL.
        marker = existing.heartbeat if existing is not None else None
        ttl = existing.ttl if existing is not None else self.ttl
        mono = time.monotonic()
        seen = self._observed.get(path.name)
        if seen is None or seen[0] != marker:
            # First sighting of this heartbeat value: start (or restart)
            # the unchanged-for-TTL watch.  A renewing holder resets it
            # every beat, so live leases are never presumed dead.
            self._observed[path.name] = (marker, mono, ttl)
            return None
        if mono - seen[1] <= ttl:
            return None
        return self._fence(path, ino, marker)

    def _read(self, path: Path) -> tuple[Lease | None, int] | None:
        """The lease at ``path`` (``None`` if torn) and the inode it was
        read from; ``None`` if there is no file."""
        try:
            with open(path, "rb") as fh:
                ino = os.fstat(fh.fileno()).st_ino
                raw = fh.read()
        except OSError:
            return None
        try:
            return Lease.from_dict(json.loads(raw)), ino
        except ValueError:  # torn or foreign payload
            return None, ino

    def _fence(self, path: Path, ino: int, marker: float | None) -> Path | None:
        """Pin the lease file judged at ``path`` (inode ``ino``, heartbeat
        ``marker``) for one mutation; ``None`` if it is not ours to pin.

        The fence is a hard link named after the inode: ``link`` is
        exclusive, so one mutator at a time holds a given lease file, and
        the link is checked to be that very file — a lease swapped in
        since it was judged is never touched.  The holder mutates
        ``path`` and then unlinks the fence.
        """
        fence = path.with_name(f"{path.name}.fence.{ino}")
        try:
            os.link(path, fence)
        except FileExistsError:
            self._break_abandoned(fence)
            return None
        except OSError:
            return None  # the lease vanished
        held = self._read(fence)
        if held is None or held[1] != ino or (
            (held[0].heartbeat if held[0] is not None else None) != marker
        ):
            os.unlink(fence)  # a different lease, or rewritten: not ours
            return None
        self._observed.pop(fence.name, None)
        return fence

    def _break_abandoned(self, fence: Path) -> None:
        """Remove a fence whose holder died inside its critical section.

        A live holder keeps a fence for microseconds; one watched
        unchanged (same link episode: inode change time) for a TTL is
        presumed abandoned, so the lease it pins becomes mutable again.
        """
        try:
            st = os.stat(fence)
        except OSError:
            return
        marker = float(st.st_ctime_ns)
        mono = time.monotonic()
        seen = self._observed.get(fence.name)
        if seen is None or seen[0] != marker:
            self._observed[fence.name] = (marker, mono, self.ttl)
            return
        if mono - seen[1] <= seen[2]:
            return
        tomb = fence.with_name(f"{fence.name}.broken.{os.getpid()}.{secrets.token_hex(2)}")
        with contextlib.suppress(OSError):
            os.rename(fence, tomb)
            os.unlink(tomb)
        self._observed.pop(fence.name, None)

    def _write_over(self, path: Path, lease: Lease) -> None:
        """Atomically replace the (fenced) lease at ``path`` with ``lease``."""
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{secrets.token_hex(2)}")
        tmp.write_text(json.dumps(lease.to_dict()) + "\n")
        os.replace(tmp, path)

    def renew(self, lease: Lease) -> Lease | None:
        """Refresh ``lease``'s heartbeat; ``None`` if ownership was lost.

        A worker stalled past its TTL may find its lease stolen; renewing
        would clobber the thief's claim, so the renewal is refused and the
        caller should stop heartbeating (finishing the unit stays safe —
        the duplicate record is deduplicated on merge).  A *vanished*
        lease refuses renewal too: recreating it would let a straggler
        heartbeat — e.g. one blocked in a slow filesystem call while the
        unit finished and released — resurrect a phantom "live" lease on
        a completed unit, blocking gc for a full TTL.
        """
        path = self.lease_path(lease.unit)
        found = self._read(path)
        if found is None or found[0] is None or found[0].worker != lease.worker:
            return None
        fence = self._fence(path, found[1], found[0].heartbeat)
        if fence is None:
            return None  # it is being stolen (or released) right now
        updated = replace(lease, heartbeat=time.time())
        self._write_over(path, updated)
        os.unlink(fence)
        return updated

    def release(self, lease: Lease) -> None:
        """Remove ``lease`` — only if it is still ours.

        A stalled worker whose lease was stolen must not unlink the
        thief's live lease (e.g. from the failure-path release in the
        drain loop): that would hide the thief from gc/status and let a
        third worker start the unit concurrently.  A busy fence is
        usually our own heartbeat renewing the lease; retry briefly.
        """
        path = self.lease_path(lease.unit)
        for _ in range(_FENCE_RETRIES):
            found = self._read(path)
            if found is None or found[0] is None or found[0].worker != lease.worker:
                return  # gone, or not ours: the thief's lease is not ours to remove
            fence = self._fence(path, found[1], found[0].heartbeat)
            if fence is not None:
                os.unlink(path)
                os.unlink(fence)
                return
            time.sleep(_FENCE_BACKOFF_S)

    def load(self, path: Path) -> Lease | None:
        """The lease at ``path``, or ``None`` if torn/unreadable/vanished."""
        try:
            return Lease.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError, json.JSONDecodeError):
            return None

    def leases(self) -> list[tuple[Path, Lease | None]]:
        """Every lease file currently present (``None`` payload = torn)."""
        if not self.path.is_dir():
            return []
        return [(p, self.load(p)) for p in sorted(self.path.glob("*.json"))]

    def cleanup(self, completed_keys: set[str], now: float | None = None) -> int:
        """Remove leftover expired leases of already-completed units.

        A worker killed between recording a result and releasing its lease
        leaves a lease nobody will ever claim again (the unit is done);
        this sweeps such husks so ``gc``/``status`` don't report phantom
        work.  Seemingly-live leases are never touched.
        """
        now = time.time() if now is None else now
        removed = 0
        for path, lease in self.leases():
            if lease is not None and lease.unit not in completed_keys:
                continue
            if lease_seems_live(lease, path, now):
                continue
            with contextlib.suppress(OSError):
                os.unlink(path)
                removed += 1
        return removed


@contextlib.contextmanager
def _renewing(backend, lease, interval: float, renew=None):
    """Renew ``lease`` on ``backend`` every ``interval`` seconds while the
    body runs.  ``backend`` is any :class:`~repro.runtime.backends.
    WorkBackend`; transient errors (filesystem hiccups, a coordinator
    restarting) are retried on the next beat.  ``renew`` overrides the
    renewal callable (``backend.renew_batch`` for batch leases, whose
    one round trip covers the batch's whole unfinished remainder)."""
    stop = threading.Event()
    renew_fn = backend.renew if renew is None else renew

    def _beat() -> None:
        current = lease
        while not stop.wait(interval):
            try:
                renewed = renew_fn(current)
            except OSError:
                continue  # transient fs/network hiccup; retry next beat
            except Exception as exc:  # noqa: BLE001 - the beat must survive
                # e.g. a protocol error from a version-skewed coordinator
                # or an intermediary returning garbage: losing the thread
                # here would silently stop renewals and hand the unit to a
                # peer; keep beating — if the condition persists the lease
                # expires anyway, which is the same worst case, loudly.
                logger.warning(
                    "heartbeat renewal for unit %r failed (%s); retrying next beat",
                    lease.unit,
                    exc,
                )
                continue
            if renewed is None:
                logger.warning(
                    "lease on unit %r was reclaimed from worker %s while it "
                    "was still running (stalled past its TTL?); finishing "
                    "anyway — the duplicate result is deduplicated on merge",
                    lease.unit,
                    lease.worker,
                )
                return
            current = renewed

    thread = threading.Thread(target=_beat, daemon=True, name=f"lease-renew-{lease.unit}")
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=max(interval, 1.0) + 5.0)


# ---------------------------------------------------------------------- #
# The drain loop
# ---------------------------------------------------------------------- #
@dataclass
class WorkerStats:
    """What one worker did while draining a run directory."""

    worker_id: str
    executed: int = 0
    reclaimed: int = 0  # stale leases stolen from dead workers
    skipped: int = 0  # claims that turned out to be already completed
    executed_keys: set[str] = field(default_factory=set)


class _CompletedTracker:
    """Incremental merged view of the completed-unit keys of a run.

    Re-reads only the bytes appended since the last refresh (per result
    file), consuming up to the last newline so a peer's in-flight torn
    tail is simply picked up next time.
    """

    def __init__(self, checkpoint: RunCheckpoint) -> None:
        self._checkpoint = checkpoint
        self._offsets: dict[Path, int] = {}
        self.keys: set[str] = set()

    def refresh(self) -> set[str]:
        for path in self._checkpoint.result_paths():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            offset = self._offsets.get(path, 0)
            if size <= offset:
                continue
            try:
                with path.open("rb") as fh:
                    fh.seek(offset)
                    blob = fh.read()
            except OSError:
                continue
            end = blob.rfind(b"\n")
            if end < 0:
                continue
            self._offsets[path] = offset + end + 1
            for raw in blob[: end + 1].splitlines():
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    continue  # torn/garbage line; completed() logs it
                if isinstance(record, dict) and "key" in record and "result" in record:
                    self.keys.add(record["key"])
        return self.keys


def drain_units(
    units: Iterable[WorkUnit],
    worker: Callable[[WorkUnit], Any],
    checkpoint: RunCheckpoint | None = None,
    *,
    backend: Any | None = None,
    worker_id: str | None = None,
    lease_ttl: float | None = None,
    heartbeat_interval: float | None = None,
    poll_interval: float | None = None,
    wait: bool = True,
    on_unit: Callable[[str], None] | None = None,
    claim_batch: int = 1,
    telemetry_dir: str | Path | None = None,
) -> WorkerStats:
    """Drain ``units`` through a work backend as one worker.

    The loop is backend-agnostic: claim a unit, execute it with
    ``worker``, record the result, release the claim — against any
    :class:`~repro.runtime.backends.WorkBackend`.  The default backend is
    the filesystem protocol over ``checkpoint``'s run directory (lease
    files + per-worker shards); pass ``backend=`` (e.g. an
    :class:`~repro.runtime.backends.HttpWorkBackend`) to coordinate
    through an HTTP coordinator instead.  Returns when every unit of the
    run is completed (by this worker or any peer); with ``wait=False``,
    returns as soon as nothing is claimable instead of waiting for peers'
    in-flight units.

    Parameters
    ----------
    checkpoint:
        Run directory for the default filesystem backend.  Exactly one of
        ``checkpoint``/``backend`` must be given.
    backend:
        An explicit :class:`WorkBackend` to drain through.
    worker_id:
        Shard/lease identity; default :func:`worker_identity`.  Must be
        unique among concurrently running workers.
    lease_ttl:
        Filesystem backend only: seconds without a heartbeat before this
        worker's leases may be reclaimed by peers (default
        :data:`DEFAULT_LEASE_TTL`).  A coordinator backend's TTL is owned
        by the coordinator, so passing it here is rejected.
    heartbeat_interval:
        Seconds between heartbeat renewals (default: a quarter of each
        lease's TTL).
    poll_interval:
        Sleep between passes when all pending units are leased by live
        peers (default :data:`DEFAULT_POLL_INTERVAL`).
    on_unit:
        Callback invoked with each unit key this worker finished.
    claim_batch:
        Units to lease per claim request (default 1: the per-unit
        protocol, byte-for-byte the pre-batching behavior).  Larger
        batches amortize claim/release round trips — the big win on an
        HTTP backend — while results are still recorded (and members
        released) one by one, so a worker that dies mid-batch leaks
        only the *unfinished* remainder to TTL expiry.
    telemetry_dir:
        Where this worker's ``telemetry-<worker>.jsonl`` trace shard
        goes.  Defaults to the run directory for the filesystem backend
        and to ``$REPRO_TELEMETRY_DIR`` (if set) otherwise; ``None``
        with no default means no trace shard.  Telemetry is inert — it
        records wall-clock observations about completed units and never
        touches RNG streams or results — and is disabled entirely by
        ``REPRO_TELEMETRY=0``.
    """
    from repro.runtime.backends import FilesystemWorkBackend

    units = list(units)
    keys = [u.key for u in units]
    if len(set(keys)) != len(keys):
        raise ValueError("work-unit keys must be unique within a run")
    if (checkpoint is None) == (backend is None):
        raise ValueError("exactly one of checkpoint/backend is required")
    if backend is None:
        ttl = DEFAULT_LEASE_TTL if lease_ttl is None else float(lease_ttl)
        backend = FilesystemWorkBackend(checkpoint, ttl=ttl)
    elif lease_ttl is not None:
        raise ValueError(
            "lease_ttl cannot be combined with an explicit backend: the "
            "backend (its coordinator, for HTTP) owns the lease TTL"
        )
    wid = worker_id if worker_id is not None else worker_identity()
    beat_override = None if heartbeat_interval is None else float(heartbeat_interval)
    if beat_override is not None and beat_override <= 0:
        raise ValueError(f"heartbeat interval must be positive, got {beat_override}")
    known_ttl = getattr(backend, "ttl", None)

    def _beat_for(lease) -> float:
        beat = lease.ttl / 4.0 if beat_override is None else beat_override
        if beat >= lease.ttl:
            # A heartbeat slower than the TTL makes every live lease look
            # stale to peers: they would steal mid-unit and systematically
            # re-execute every long unit.
            raise ValueError(
                f"heartbeat interval ({beat}) must be smaller than the lease "
                f"ttl ({lease.ttl}); leave it unset for the ttl/4 default"
            )
        return beat

    if beat_override is not None and known_ttl is not None and beat_override >= known_ttl:
        # Fail before any claim when the backend's TTL is known up front
        # (the filesystem backend); a coordinator backend's TTL arrives
        # with each grant, so there the per-lease check catches it.
        raise ValueError(
            f"heartbeat interval ({beat_override}) must be smaller than the "
            f"lease ttl ({known_ttl}); leave it unset for the ttl/4 default"
        )

    poll = DEFAULT_POLL_INTERVAL if poll_interval is None else float(poll_interval)
    delay = float(os.environ.get(_UNIT_DELAY_ENV, 0) or 0)
    batch_size = int(claim_batch)
    if batch_size < 1:
        raise ValueError(f"claim_batch must be >= 1, got {claim_batch}")

    stats = WorkerStats(worker_id=wid)
    by_key = {u.key: u for u in units}

    from repro.observability.metrics import global_registry
    from repro.observability.trace import TelemetryWriter, profile_requested
    from repro.utils import phases

    if telemetry_dir is None:
        if checkpoint is not None:
            telemetry_dir = checkpoint.run_dir
        else:
            telemetry_dir = os.environ.get("REPRO_TELEMETRY_DIR") or None
    telemetry = TelemetryWriter.open(telemetry_dir, wid)
    if profile_requested():
        phases.enable()
    registry = global_registry()
    # Children resolved once: steady-state recording is one lock + add.
    m_executed = registry.counter(
        "repro_worker_units_total", "Units this process executed.", ("worker",)
    ).labels(wid)
    m_reclaimed = registry.counter(
        "repro_worker_reclaims_total", "Stale leases this process stole.", ("worker",)
    ).labels(wid)
    m_skipped = registry.counter(
        "repro_worker_skips_total",
        "Claims that turned out to be already completed.",
        ("worker",),
    ).labels(wid)

    def _execute(key: str) -> Any:
        if delay > 0:
            time.sleep(delay)  # fault-injection window (see module docstring)
        return worker(by_key[key])

    def _finished(key: str) -> None:
        stats.executed += 1
        stats.executed_keys.add(key)
        m_executed.inc()
        if on_unit is not None:
            on_unit(key)

    def _close_telemetry() -> None:
        if telemetry is None:
            return
        # Serialize-and-reset: this worker's phase accumulators travel in
        # its telemetry shard (which is what lets --profile work at any
        # --jobs and on remote backends), and the reset keeps the parent
        # process's in-memory snapshot from double-counting what it
        # already shipped.
        snap = phases.snapshot()
        if snap:
            telemetry.phases(snap)
            phases.reset()
        telemetry.event("drain_end", executed=stats.executed, reclaimed=stats.reclaimed)
        telemetry.close()

    if telemetry is not None:
        telemetry.event("drain_start", units=len(units))
    try:
        while True:
            done = backend.completed_keys()
            pending = [k for k in by_key if k not in done]
            if not pending:
                backend.cleanup(done)
                return stats
            progressed = False
            if batch_size > 1:
                for start in range(0, len(pending), batch_size):
                    chunk = pending[start : start + batch_size]
                    claim_t0 = time.perf_counter()
                    batch = backend.claim_batch(chunk, wid)
                    claim_s = time.perf_counter() - claim_t0
                    if batch is None:
                        continue
                    progressed = True
                    stats.reclaimed += len(batch.reclaimed_units)
                    m_reclaimed.inc(len(batch.reclaimed_units))
                    # One claim round trip covers the batch; spans amortize
                    # its cost evenly across the granted members.
                    claim_share = claim_s / max(len(batch.units), 1)
                    reclaimed_units = set(batch.reclaimed_units)
                    try:
                        with _renewing(
                            backend, batch, _beat_for(batch), renew=backend.renew_batch
                        ):
                            for key in list(batch.units):
                                # Same post-claim recheck as the per-unit path
                                # below, per member.
                                if backend.recheck_after_claim and key in backend.completed_keys():
                                    backend.release_unit(batch, key)
                                    stats.skipped += 1
                                    m_skipped.inc()
                                    continue
                                t0 = time.perf_counter()
                                result = _execute(key)
                                execute_s = time.perf_counter() - t0
                                # Record-and-release member by member: a crash
                                # from here on costs peers only the *unfinished*
                                # remainder after TTL expiry.
                                t0 = time.perf_counter()
                                backend.record_in_batch(batch, key, result)
                                record_s = time.perf_counter() - t0
                                _finished(key)
                                if telemetry is not None:
                                    telemetry.span(
                                        key,
                                        claim_s=claim_share,
                                        execute_s=execute_s,
                                        record_s=record_s,
                                        release_s=0.0,  # released with the batch
                                        reclaimed=key in reclaimed_units,
                                        batched=True,
                                    )
                    finally:
                        # Success path: every member was recorded and released,
                        # so this releases nothing.  Failure path: hands the
                        # unfinished remainder back to peers immediately.
                        backend.release_batch(batch)
            else:
                for key in pending:
                    claim_t0 = time.perf_counter()
                    lease = backend.claim(key, wid)
                    if lease is None:
                        continue
                    claim_s = time.perf_counter() - claim_t0
                    progressed = True
                    if lease.reclaimed:
                        stats.reclaimed += 1
                        m_reclaimed.inc()
                    # Results are recorded *before* leases are released, so a
                    # post-claim recheck sees everything any peer finished: a dead
                    # worker that recorded then crashed before releasing, or a live
                    # one that completed this unit after this pass listed it as
                    # pending.  Never execute a completed unit twice.  (A
                    # coordinator backend refuses the claim atomically instead, so
                    # the recheck round-trip is skipped there.)
                    if backend.recheck_after_claim and key in backend.completed_keys():
                        backend.release(lease)
                        stats.skipped += 1
                        m_skipped.inc()
                        continue
                    execute_s = record_s = release_s = 0.0
                    try:
                        t0 = time.perf_counter()
                        with _renewing(backend, lease, _beat_for(lease)):
                            result = _execute(key)
                        execute_s = time.perf_counter() - t0
                        t0 = time.perf_counter()
                        backend.record(lease, result)
                        record_s = time.perf_counter() - t0
                    finally:
                        # Success path: record-before-release (the correctness
                        # ordering).  Failure path: nothing was recorded, so
                        # releasing immediately lets peers re-claim the unit now
                        # instead of waiting out this worker's full TTL.
                        t0 = time.perf_counter()
                        backend.release(lease)
                        release_s = time.perf_counter() - t0
                    _finished(key)
                    if telemetry is not None:
                        telemetry.span(
                            key,
                            claim_s=claim_s,
                            execute_s=execute_s,
                            record_s=record_s,
                            release_s=release_s,
                            reclaimed=lease.reclaimed,
                        )
            if not progressed:
                if not wait:
                    return stats
                time.sleep(poll)
    finally:
        _close_telemetry()


# ---------------------------------------------------------------------- #
# Multi-process distributed execution (the `backend="distributed"` path)
# ---------------------------------------------------------------------- #
def _drain_child(
    checkpoint: RunCheckpoint,
    units: list[WorkUnit],
    worker: Callable[[WorkUnit], Any],
    lease_ttl: float | None,
    heartbeat_interval: float | None,
    poll_interval: float | None,
    claim_batch: int = 1,
) -> WorkerStats:
    """Module-level child entry (crosses process boundaries by pickle)."""
    return drain_units(
        units,
        worker,
        checkpoint,
        lease_ttl=lease_ttl,
        heartbeat_interval=heartbeat_interval,
        poll_interval=poll_interval,
        claim_batch=claim_batch,
    )


def run_units_distributed(
    units: Iterable[WorkUnit],
    worker: Callable[[WorkUnit], Any],
    checkpoint: RunCheckpoint,
    *,
    jobs: int = 1,
    worker_id: str | None = None,
    lease_ttl: float | None = None,
    heartbeat_interval: float | None = None,
    poll_interval: float | None = None,
    claim_batch: int = 1,
    on_result: Callable[[WorkUnit, Any, bool], None] | None = None,
) -> dict[str, Any]:
    """Execute ``units`` via the lease protocol and return ``{key: result}``.

    The calling process participates as one worker; ``jobs > 1`` adds
    ``jobs - 1`` sibling worker processes on this host.  Workers on
    *other* hosts join by pointing ``repro sweep work`` at the same run
    directory — this function simply keeps draining until the run is
    complete, however many peers help, then merges every shard.

    ``on_result`` follows :func:`repro.runtime.executor.run_units`
    semantics, invoked once per unit after the run completes (in unit
    order) with ``cached=True`` for units this process did not execute.
    """
    from repro.runtime.executor import _ensure_child_importable, _mp_context

    units = list(units)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    stats: WorkerStats
    if jobs > 1 and len(units) > 1:
        from concurrent.futures import ProcessPoolExecutor

        _ensure_child_importable()
        siblings = min(jobs, len(units)) - 1
        with ProcessPoolExecutor(max_workers=max(siblings, 1), mp_context=_mp_context()) as pool:
            futures = [
                pool.submit(
                    _drain_child,
                    checkpoint,
                    units,
                    worker,
                    lease_ttl,
                    heartbeat_interval,
                    poll_interval,
                    claim_batch,
                )
                for _ in range(siblings)
            ]
            stats = drain_units(
                units,
                worker,
                checkpoint,
                worker_id=worker_id,
                lease_ttl=lease_ttl,
                heartbeat_interval=heartbeat_interval,
                poll_interval=poll_interval,
                claim_batch=claim_batch,
            )
            for future in futures:
                future.result()  # surface child crashes
    else:
        stats = drain_units(
            units,
            worker,
            checkpoint,
            worker_id=worker_id,
            lease_ttl=lease_ttl,
            heartbeat_interval=heartbeat_interval,
            poll_interval=poll_interval,
            claim_batch=claim_batch,
        )

    merged = checkpoint.completed()
    missing = [u.key for u in units if u.key not in merged]
    if missing:
        raise RuntimeError(
            f"distributed run at {checkpoint.run_dir} ended with "
            f"{len(missing)} unit(s) unrecorded (first: {missing[0]!r}); "
            "a worker may have failed without surfacing its error"
        )
    results = {u.key: merged[u.key] for u in units}
    if on_result is not None:
        for unit in units:
            on_result(unit, results[unit.key], unit.key not in stats.executed_keys)
    return results


# ---------------------------------------------------------------------- #
# Coordinator-backed execution (the `backend="coordinator"` path)
# ---------------------------------------------------------------------- #
def _drain_coordinator_child(
    url: str,
    units: list[WorkUnit],
    worker: Callable[[WorkUnit], Any],
    encode: Callable[[Any], Any] | None,
    heartbeat_interval: float | None,
    poll_interval: float | None,
    retry_timeout: float | None,
    claim_batch: int = 1,
    telemetry_dir: str | None = None,
) -> WorkerStats:
    """Module-level child entry (crosses process boundaries by pickle)."""
    from repro.runtime.backends import HttpWorkBackend

    backend = HttpWorkBackend(url, encode=encode, retry_timeout=retry_timeout)
    return drain_units(
        units,
        worker,
        backend=backend,
        heartbeat_interval=heartbeat_interval,
        poll_interval=poll_interval,
        claim_batch=claim_batch,
        telemetry_dir=telemetry_dir,
    )


def run_units_coordinator(
    units: Iterable[WorkUnit],
    worker: Callable[[WorkUnit], Any],
    url: str,
    *,
    jobs: int = 1,
    worker_id: str | None = None,
    encode: Callable[[Any], Any] | None = None,
    decode: Callable[[Any], Any] | None = None,
    heartbeat_interval: float | None = None,
    poll_interval: float | None = None,
    retry_timeout: float | None = None,
    claim_batch: int = 1,
    on_result: Callable[[WorkUnit, Any, bool], None] | None = None,
    telemetry_dir: str | Path | None = None,
) -> dict[str, Any]:
    """Execute ``units`` through the HTTP coordinator at ``url``.

    The calling process participates as one worker; ``jobs > 1`` adds
    ``jobs - 1`` sibling worker processes on this host, and workers on
    other hosts join with ``repro sweep work --coordinator <url>``.  No
    shared filesystem is required: results are recorded to (and, at the
    end, fetched back from) the coordinator over the wire, so this
    process never touches the coordinator's run directory.

    ``encode``/``decode`` are the unit-result codecs (the same ones a
    :class:`~repro.runtime.checkpoint.RunCheckpoint` would hold);
    ``on_result`` follows :func:`repro.runtime.executor.run_units`
    semantics, invoked once per unit after the run completes.
    """
    from repro.runtime.backends import HttpWorkBackend
    from repro.runtime.executor import _ensure_child_importable, _mp_context

    units = list(units)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    backend = HttpWorkBackend(url, encode=encode, retry_timeout=retry_timeout)
    stats: WorkerStats
    if jobs > 1 and len(units) > 1:
        from concurrent.futures import ProcessPoolExecutor

        _ensure_child_importable()
        siblings = min(jobs, len(units)) - 1
        with ProcessPoolExecutor(max_workers=max(siblings, 1), mp_context=_mp_context()) as pool:
            futures = [
                pool.submit(
                    _drain_coordinator_child,
                    url,
                    units,
                    worker,
                    encode,
                    heartbeat_interval,
                    poll_interval,
                    retry_timeout,
                    claim_batch,
                    None if telemetry_dir is None else str(telemetry_dir),
                )
                for _ in range(siblings)
            ]
            stats = drain_units(
                units,
                worker,
                backend=backend,
                worker_id=worker_id,
                heartbeat_interval=heartbeat_interval,
                poll_interval=poll_interval,
                claim_batch=claim_batch,
                telemetry_dir=telemetry_dir,
            )
            for future in futures:
                future.result()  # surface child crashes
    else:
        stats = drain_units(
            units,
            worker,
            backend=backend,
            worker_id=worker_id,
            heartbeat_interval=heartbeat_interval,
            poll_interval=poll_interval,
            claim_batch=claim_batch,
            telemetry_dir=telemetry_dir,
        )

    raw = backend.results()
    missing = [u.key for u in units if u.key not in raw]
    if missing:
        raise RuntimeError(
            f"coordinator run at {url} ended with {len(missing)} unit(s) "
            f"unrecorded (first: {missing[0]!r}); a worker may have failed "
            "without surfacing its error"
        )
    decode = decode if decode is not None else (lambda value: value)
    results = {u.key: decode(raw[u.key]) for u in units}
    if on_result is not None:
        for unit in units:
            on_result(unit, results[unit.key], unit.key not in stats.executed_keys)
    return results


# ---------------------------------------------------------------------- #
# Introspection (`repro sweep status`, lease-aware gc)
# ---------------------------------------------------------------------- #
@dataclass
class RunDirStatus:
    """A point-in-time snapshot of a shared run directory's progress.

    This is *the* read-only inspection of a run directory: ``repro sweep
    status`` renders it and the lease-aware ``runs gc`` classifier is
    layered on it, so the two CLIs can never disagree about what a
    directory contains.
    """

    run_dir: Path
    kind: str | None
    name: str | None
    total_units: int | None
    completed_units: int
    shard_counts: dict[str, int]  # result file name -> distinct keys in it
    duplicate_records: int
    active_leases: list[Lease]
    stale_leases: list[Lease]
    torn_leases: int  # unparseable lease files (a writer died mid-write)
    torn_live: int  # of those, still fresh by the conservative rule

    @property
    def complete(self) -> bool:
        return self.total_units is not None and self.completed_units >= self.total_units

    @property
    def live_lease_count(self) -> int:
        """Leases that may belong to a live worker — fresh parseable ones
        plus fresh torn ones (their writer may still be mid-write)."""
        return len(self.active_leases) + self.torn_live

    def to_payload(self, now: float | None = None) -> dict:
        """This snapshot as the machine-readable status schema.

        One schema for every backend: ``repro sweep status --json``
        emits it for filesystem run directories, and the coordinator's
        ``GET /status`` returns the identical shape, so dashboards never
        care where a snapshot came from.  Heartbeats are reported as
        *ages* (seconds since last beat), never absolute timestamps —
        ages survive the trip between hosts with skewed clocks.
        """
        now = time.time() if now is None else now

        def lease_payload(lease: Lease) -> dict:
            return {
                "unit": lease.unit,
                "worker": lease.worker,
                "heartbeat_age": max(round(now - lease.heartbeat, 3), 0.0),
                "ttl": lease.ttl,
            }

        return {
            # "schema" is the legacy alias; dashboard consumers should key
            # off "schema_version" to detect payload drift.
            "schema": STATUS_SCHEMA_VERSION,
            "schema_version": STATUS_SCHEMA_VERSION,
            "backend": "filesystem",
            "source": str(self.run_dir),
            "kind": self.kind,
            "name": self.name,
            "complete": self.complete,
            "total_units": self.total_units,
            "completed_units": self.completed_units,
            "shard_counts": dict(sorted(self.shard_counts.items())),
            "duplicate_records": self.duplicate_records,
            "active_leases": [lease_payload(lease) for lease in self.active_leases],
            "stale_leases": [lease_payload(lease) for lease in self.stale_leases],
            "torn_leases": self.torn_leases,
            "torn_live": self.torn_live,
        }


def inspect_run_dir(run_dir: str | Path, now: float | None = None) -> RunDirStatus:
    """Inspect progress, shards, and leases of ``run_dir`` (read-only)."""
    run_dir = Path(run_dir)
    now = time.time() if now is None else now
    kind = name = None
    total = None
    try:
        manifest = json.loads((run_dir / RunCheckpoint.MANIFEST_NAME).read_text())
    except (OSError, json.JSONDecodeError):
        manifest = None
    if isinstance(manifest, dict):
        kind = manifest.get("kind") if isinstance(manifest.get("kind"), str) else None
        total = manifest.get("units") if isinstance(manifest.get("units"), int) else None
        spec = manifest.get("spec")
        if isinstance(spec, dict) and isinstance(spec.get("name"), str):
            name = spec["name"]

    seen: set[str] = set()
    shard_counts: dict[str, int] = {}
    duplicates = 0
    for path in result_file_paths(run_dir):
        in_file: set[str] = set()
        for record in iter_result_records(path, log=False):
            key = record["key"]
            if key in seen:
                duplicates += 1
            seen.add(key)
            in_file.add(key)
        shard_counts[path.name] = len(in_file)

    active: list[Lease] = []
    stale: list[Lease] = []
    torn = torn_live = 0
    for path, lease in LeaseDir(run_dir).leases():
        if lease is None:
            torn += 1
            if lease_seems_live(lease, path, now):
                torn_live += 1
        elif lease_seems_live(lease, path, now):
            active.append(lease)
        else:
            stale.append(lease)

    return RunDirStatus(
        run_dir=run_dir,
        kind=kind,
        name=name,
        total_units=total,
        completed_units=len(seen),
        shard_counts=shard_counts,
        duplicate_records=duplicates,
        active_leases=active,
        stale_leases=stale,
        torn_leases=torn,
        torn_live=torn_live,
    )


def render_status_payload(payload: dict) -> str:
    """Human-readable rendering of one status-schema payload.

    This is *the* ``repro sweep status`` output; because it consumes the
    shared payload schema (:meth:`RunDirStatus.to_payload` / the
    coordinator's ``GET /status``), the filesystem and coordinator views
    of one run render identically.
    """
    label = payload.get("name") or payload.get("kind") or "run"
    total = payload.get("total_units")
    total_text = "?" if total is None else total
    state = "complete" if payload.get("complete") else "incomplete"
    via = " (via coordinator)" if payload.get("backend") == "coordinator" else ""
    lines = [
        f"{payload.get('source')} [{label}]{via} {state}: "
        f"{payload.get('completed_units', 0)}/{total_text} units"
    ]
    for file_name, count in sorted((payload.get("shard_counts") or {}).items()):
        lines.append(f"  {file_name}: {count} unit(s)")
    if payload.get("duplicate_records"):
        lines.append(
            f"  {payload['duplicate_records']} duplicate record(s) across shards "
            "(first writer wins on merge)"
        )
    for lease in payload.get("active_leases") or []:
        # Replay-restored leases had their heartbeat reset at coordinator
        # restart, so heartbeat_age says nothing about worker liveness
        # until the holder renews once.
        restored = "; restored from journal, awaiting renewal" if lease.get("restored") else ""
        lines.append(
            f"  lease {lease['unit']}: held by {lease['worker']} "
            f"(heartbeat {lease['heartbeat_age']:.1f}s ago, ttl {lease['ttl']:.0f}s{restored})"
        )
    for lease in payload.get("stale_leases") or []:
        lines.append(
            f"  stale lease {lease['unit']}: worker {lease['worker']} presumed dead "
            f"(heartbeat {lease['heartbeat_age']:.1f}s ago, ttl {lease['ttl']:.0f}s); "
            "reclaimable"
        )
    if payload.get("torn_leases"):
        lines.append(f"  {payload['torn_leases']} torn lease file(s)")
    return "\n".join(lines)
