"""Result digests and output checks.

A digest is a SHA-256 over a workload's result, in a canonical text
form with every float written as ``float.hex`` (exact):

* PISA sweeps: for every ordered pair in plan order, the pair's best
  ratio and a hash of its best instance (``ProblemInstance.to_dict``);
* benchmark sweeps: every scheduler's makespan array, in unit order.

``digests.json`` holds committed digests per workload and seed.  A run
whose seed has one must match it; any seed is also checked
independently (:func:`verify_pisa_units` for PISA sweeps; benchmark
sweeps are compared with a local serial run).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

DIGESTS_PATH = Path(__file__).with_name("digests.json")


class CheckFailed(Exception):
    """An output check failed; the run is not correct."""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def instance_hash(instance) -> str:
    return _sha(json.dumps(instance.to_dict(), sort_keys=True))


def pisa_digest(pairwise, pairs) -> str:
    lines = []
    for target, baseline, _pisa in pairs:
        res = pairwise.results[(target, baseline)]
        lines.append(
            f"{target}|{baseline}|{float(res.best_ratio).hex()}|{instance_hash(res.best_instance)}"
        )
    return _sha("\n".join(lines))


def makespan_arrays(rows: list[dict], schedulers) -> dict[str, list[float]]:
    return {s: [float(row["makespans"][s]) for row in rows] for s in schedulers}


def makespan_digest(arrays: dict[str, list[float]]) -> str:
    lines = [f"{s}|" + ",".join(v.hex() for v in arrays[s]) for s in sorted(arrays)]
    return _sha("\n".join(lines))


def load_digests(path: Path = DIGESTS_PATH) -> dict[str, Any]:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {"digests": {}}


def expected_digest(workload: str, seed: int, path: Path = DIGESTS_PATH) -> str | None:
    return load_digests(path)["digests"].get(workload, {}).get(str(seed))


def check_digest(workload: str, seed: int, digest: str, path: Path = DIGESTS_PATH) -> bool:
    """Compare against the committed digest; ``True`` if one was checked.

    Raises :class:`CheckFailed` on a mismatch.
    """
    expected = expected_digest(workload, seed, path)
    if expected is None:
        return False
    if expected != digest:
        raise CheckFailed(
            f"{workload} seed {seed}: result digest {digest[:16]} does not match "
            f"the committed {expected[:16]}"
        )
    return True


def record_digest(workload: str, seed: int, digest: str, path: Path = DIGESTS_PATH) -> None:
    data = load_digests(path)
    data["digests"].setdefault(workload, {})[str(seed)] = digest
    data["digests"][workload] = dict(
        sorted(data["digests"][workload].items(), key=lambda kv: int(kv[0]))
    )
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def verify_pisa_units(plan, results: dict[str, Any]) -> None:
    """Re-score every unit's best instance from a fresh copy.

    The copy has no compile cache, so this runs the serial scheduling
    path end to end; it must reproduce the annealer's best energy
    exactly, whichever path (serial, delta-compiled, lockstep kernel)
    produced it.
    """
    for unit in plan.units:
        pisa, _restart = unit.payload
        best = results[unit.key].annealing
        rescored = pisa.energy(best.best_state.copy())
        if rescored != best.best_energy:
            raise CheckFailed(
                f"unit {unit.key}: best energy {best.best_energy!r} but the best "
                f"instance re-scores to {rescored!r}"
            )
