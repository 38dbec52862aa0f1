"""Calibrated time: wall seconds rescaled by the machine's measured speed.

On a shared host the CPU's speed swings by tens of percent within
seconds and drifts over minutes; the same fig4 sweep took 18 to 27 s
from one run to the next.  Such swings swamp the differences the
benchmark exists to show, so it times a fixed probe loop — pure Python,
independent of the program under test — between units, and rescales
every interval by the probe speed measured around it.  A calibrated
second is a wall second at the speed where the probe takes
:data:`PROBE_NOMINAL_S`.  Raw wall figures are kept in the report.

The probe is timed in this thread's CPU time, not in wall time: CPU
time the program takes elsewhere — the coordinator process, which
shares this process's CPU, or a program thread left running — would
slow a wall-timed probe as much as the units around it and so cancel
out of the calibrated figures.  Timed in thread CPU time, the probe
sees only the speed of the CPU while this thread runs, and such a
slowdown stays in the calibrated gaps.
"""

from __future__ import annotations

from time import perf_counter, thread_time

PROBE_ITERATIONS = 2000
#: The probe's duration that defines a calibrated second (about its
#: duration on an idle 2-vCPU x86 VM).
PROBE_NOMINAL_S = 4.0e-4
#: A completion triggers a probe once this much wall time has passed
#: since the previous one (after every unit of both workloads; units of
#: a few milliseconds are probed every few units).
PROBE_EVERY_S = 0.02


def probe() -> float:
    """CPU seconds this thread takes for the fixed probe loop right now."""
    t0 = thread_time()
    acc: dict[int, float] = {}
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        key = i & 63
        acc[key] = acc.get(key, 0.0) + i * 0.5
        total += (i * 1.0001) % 7.0
    return thread_time() - t0


def calibrate(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time bracketed by probes ``before``/``after``."""
    return seconds * PROBE_NOMINAL_S / (0.5 * (before + after))


class CompletionClock:
    """Completion-to-completion gaps of one drain, probed in between.

    Probe time is excluded from the gaps.  With ``probing=False`` (the
    traced pass, whose spans must not contain benchmark work) the gaps
    are raw and :meth:`calibrated_gaps` is unavailable.
    """

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self._events: list[tuple[bool, float]] = []  # (is_probe, seconds)
        self._mark = 0.0
        self._last_probe = 0.0

    def _probe(self) -> None:
        self._events.append((True, probe()))
        self._last_probe = self._mark = perf_counter()

    def start(self) -> None:
        if self.probing:
            self._probe()
        else:
            self._mark = perf_counter()

    def completed(self, *_args) -> None:
        now = perf_counter()
        self._events.append((False, now - self._mark))
        self._mark = now
        if self.probing and now - self._last_probe >= PROBE_EVERY_S:
            self._probe()

    def finish(self) -> None:
        if self.probing and not self._events[-1][0]:
            self._probe()

    @property
    def gaps(self) -> list[float]:
        return [s for is_probe, s in self._events if not is_probe]

    def calibrated_gaps(self) -> list[float]:
        """Each gap calibrated by the probes just before and after it."""
        if not self.probing:
            raise ValueError("an unprobed drain has no calibrated gaps")
        out: list[float] = []
        pending: list[float] = []
        before = None
        for is_probe, seconds in self._events:
            if is_probe:
                out.extend(calibrate(g, before, seconds) for g in pending)
                pending = []
                before = seconds
            else:
                pending.append(seconds)
        return out
