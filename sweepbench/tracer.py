"""Outside-in span tracer for the sweep benchmark.

Spans are recorded around calls *into* each layer's public functions by
patching them from here; the program itself is not instrumented.  A span
is ``(id, name, start, end, parent_id)``: ids are assigned when a span
opens and spans are appended when they close, so a call that turns out
to be uninteresting (a compile-cache hit) can be dropped without leaving
a hole.  Only the main thread is traced — the drain loop's heartbeat
thread calls straight through — so spans nest strictly.

Self time is a span's duration minus the part of it that its children
cover (:func:`self_times`); summed over every span it must equal the
traced wall clock up to the residual the caller states.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter, defaultdict
from collections.abc import Callable
from time import perf_counter
from typing import Any

#: Span-name prefix -> the repository layer it belongs to.
LAYERS = (
    ("runtime.", "runtime"),
    ("pisa.", "pisa"),
    ("instance.", "core.instance"),
    ("task_graph.", "core.task_graph"),
    ("compile.", "core.compiled"),
    ("kernel.", "core.batched"),
    ("schedule.", "schedulers"),
)


class Tracer:
    """In-memory span recorder with attribute patching helpers."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._main = threading.get_ident()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def wrap(
        self,
        fn: Callable,
        name: str,
        rename: Callable[[Any, tuple, Any], str | None] | None = None,
        before: Callable[[tuple], Any] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call on the main thread.

        ``rename(state, args, result)`` may return another span name, or
        ``None`` to drop the span; ``state`` is ``before(args)``.
        """
        main = self._main
        stack = self._stack
        spans = self.spans
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if get_ident() != main:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            state = before(args) if before is not None else None
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                label = name if rename is None else rename(state, args, result)
                if label is not None:
                    spans.append((sid, label, t0, t1, parent))

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def patch_method(self, owner: type, attr: str, name: str, **kw) -> None:
        """Wrap ``owner.attr`` (function, classmethod or staticmethod)."""
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.wrap(raw.__func__, name, **kw))
        else:
            replacement = self.wrap(raw, name, **kw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def patch_function(self, fn: Callable, name: str, prefix: str = "repro", **kw) -> None:
        """Wrap ``fn`` in every loaded module under ``prefix`` that binds it.

        Modules import layer functions by name, so the defining module is
        not the only place a call can resolve through.
        """
        traced = self.wrap(fn, name, **kw)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, traced)

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------- #
# Analysis
# ---------------------------------------------------------------------- #
def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children.

    Children are clipped to their parent's interval and merged, so an
    overlap between siblings is never subtracted twice; the sum of self
    times therefore exceeds the wall clock only if a span escapes its
    parent, which the caller's residual check catches.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, t0, t1, parent in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out: dict[int, float] = {}
    for sid, _name, t0, t1, _parent in spans:
        covered = 0.0
        kids = children.get(sid)
        if kids:
            kids.sort()
            cur_start = cur_end = None
            for c0, c1 in kids:
                c0, c1 = max(c0, t0), min(c1, t1)
                if c1 <= c0:
                    continue
                if cur_end is None or c0 > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = c0, c1
                else:
                    cur_end = max(cur_end, c1)
            if cur_end is not None:
                covered += cur_end - cur_start
        out[sid] = (t1 - t0) - covered
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and inclusive ``incl_s``."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
    )
    for sid, name, t0, t1, _parent in spans:
        row = table[name]
        row["calls"] += 1
        row["self_s"] += selfs[sid]
        row["incl_s"] += t1 - t0
    return dict(table)


# ---------------------------------------------------------------------- #
# The coordinator worker's backend proxy
# ---------------------------------------------------------------------- #
class TracedBackend:
    """Delegating :class:`~repro.runtime.backends.WorkBackend` proxy.

    Each backend call becomes a span named by its role (claim, record,
    release, renew, poll), so per-unit and batched protocols land in the
    same rows.
    """

    _ROLES = {
        "completed_keys": "runtime.poll",
        "claim": "runtime.claim",
        "claim_batch": "runtime.claim",
        "renew": "runtime.renew",
        "renew_batch": "runtime.renew",
        "release": "runtime.release",
        "release_batch": "runtime.release",
        "release_unit": "runtime.release",
        "record": "runtime.record",
        "record_in_batch": "runtime.record",
        "record_batch": "runtime.record",
        "cleanup": "runtime.cleanup",
    }

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self.recheck_after_claim = inner.recheck_after_claim
        for method, role in self._ROLES.items():
            setattr(self, method, tracer.wrap(getattr(inner, method), role))

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)
