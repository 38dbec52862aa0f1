"""The array-compiled instance kernel under the scheduling hot path.

PISA spends essentially all of its time evaluating ``energy()``: hundreds
of annealing iterations, each scheduling a candidate instance twice (the
target and the baseline scheduler).  Before this module existed, every
one of those schedules re-validated the instance, re-walked the networkx
graphs to snapshot weights, and answered every ``est``/``eft``/
``data_ready_time`` query one ``(task, node)`` dict lookup at a time.

:class:`CompiledInstance` is the fix: a dense, integer-indexed view of a
:class:`~repro.core.instance.ProblemInstance` shared by every
:class:`~repro.core.simulator.ScheduleBuilder` over that instance — both
schedules of a PISA candidate, every member of a genetic population.  A
PISA candidate is never compiled from scratch:
:meth:`CompiledInstance.apply_delta` derives its tables from the
parent's.  A weight move shares every structure artifact and copies the
tables its cell touches; an add/remove-dependency move shares every
weight and network table and rebuilds only the edge structure.  Only
fresh instances pay a full build.  Schedulers accept a compilation in
place of the instance (:func:`compile_instance` is the identity on one),
so PISA scores a candidate from its tables alone.  It precomputes:

* ``exec_tbl[t, v] = c(t) / s(v)`` — the related-machines timing table;
* ``strength[u, v]`` — the full node-to-node strength matrix with the
  conventions of :func:`repro.core.simulator.comm_time` baked into IEEE
  arithmetic (``inf`` on the diagonal so ``data / inf == 0``, raw zeros
  off it so ``data / 0 == inf`` for positive data);
* ``exec_list`` / ``strength_list`` — nested-list mirrors of those two
  tables, which the builder's scalar folds read;
* per-task predecessor/successor id lists plus per-edge data sizes, in
  graph insertion order, and the dependency/link id lists PISA's
  perturbations draw from;
* the two topological orders the schedulers walk — the order of
  ``networkx.topological_sort`` (rank functions, BIL) and the
  lexicographic order (MCT-style schedulers, HEFT's tie-break) — computed
  from the id lists, never from networkx;
* the average-time quantities (``mean_exec``, ``mean_comm``) used by the
  list schedulers' rank functions, evaluated through the *reference*
  implementations so they are bit-identical by construction.

Bit-identical guarantee
-----------------------
Every scalar the kernel hands back is produced by the same IEEE-754
operation, applied in the same order, as the scalar code it replaced:
element-wise ``numpy`` division/addition/``maximum`` on float64 arrays is
the same hardware op as Python float arithmetic, and reductions that
depend on evaluation order (Python ``sum`` loops, sequential ``max``
folds) are replicated loop-for-loop at compile time.  The equivalence
suite (``tests/test_compiled.py``) pins this against the frozen pre-
compilation builder and a committed golden file.

Cache invalidation
------------------
``compile_instance`` memoizes the compiled kernel on the instance object,
keyed by the mutation counters :attr:`TaskGraph.version` /
:attr:`Network.version` and the identity of the two halves; direct
mutation of a compiled instance simply triggers a recompile on next use.
A delta clone is *unbound*: it belongs to no instance, and its tables
are the only description of the candidate until the annealer builds
the restart's best instance at the end.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from time import perf_counter

import numpy as np

from repro.core.exceptions import InvalidInstanceError, SchedulingError
from repro.core.instance import ProblemInstance
from repro.utils import phases
from repro.utils.topo import lexicographic_ids

__all__ = [
    "CompiledInstance",
    "compile_instance",
    "compile_stats",
    "reset_compile_stats",
]

Task = Hashable
Node = Hashable

#: Kernel construction counters, for benchmarks reporting reuse rates:
#: ``full`` counts from-scratch table builds, ``delta`` copy-on-write
#: derivations (:meth:`CompiledInstance.apply_delta`), ``cache_hits``
#: :func:`compile_instance` calls answered by the per-instance cache.
_STATS = {"full": 0, "delta": 0, "cache_hits": 0}


def compile_stats() -> dict[str, int]:
    """A snapshot of the kernel-construction counters (see :data:`_STATS`)."""
    return dict(_STATS)


def reset_compile_stats() -> None:
    """Zero the kernel-construction counters."""
    for key in _STATS:
        _STATS[key] = 0


#: The delta kinds that change the network half of an instance; every
#: other kind changes the task graph (a materialized move copies the half
#: it changes).
NETWORK_KINDS = ("node_speed", "link_strength")


def _ascending(ids: tuple[int, ...]) -> bool:
    return all(a < b for a, b in zip(ids, ids[1:]))


def _reject(instance: ProblemInstance) -> None:
    """An inline invariant check failed: raise the canonical error."""
    instance.validate()  # raises InvalidInstanceError with the exact message
    raise InvalidInstanceError(
        "instance failed compiled-kernel validation but passed validate(); "
        "this is a bug in repro.core.compiled"
    )  # pragma: no cover - the validators are strictly stronger


class CompiledInstance:
    """Integer-indexed timing tables for one problem instance.

    Build via :func:`compile_instance` (which caches) rather than
    directly.  All arrays are float64; task/node axes follow the graphs'
    insertion order, matching ``task_graph.tasks`` / ``network.nodes``.
    """

    __slots__ = (
        "instance",
        "tasks",
        "nodes",
        "task_id",
        "node_id",
        "cost",
        "speed",
        "exec_tbl",
        "exec_list",
        "strength",
        "strength_list",
        "pred_ids",
        "succ_ids",
        "preds",
        "succs",
        "pred_edges",
        "data",
        "node_str_order",
        "cost_list",
        "dep_ids",
        "link_ids",
        "sort_order",
        "shape_cache",
        "_preds_sorted",
        "_mean_inv_speed",
        "_inv_strength_sum",
        "_num_links",
        "_links_have_zero",
        "_task_graph",
        "_network",
        "_tg_version",
        "_net_version",
    )

    def __init__(self, instance: ProblemInstance) -> None:
        task_graph = instance.task_graph
        network = instance.network
        self.instance = instance
        self._task_graph = task_graph
        self._network = network
        self._tg_version = task_graph.version
        self._net_version = network.version

        # Weights come straight off the underlying graphs; the instance
        # invariants (non-negative weights, positive speeds, network
        # completeness, acyclicity) are checked inline as the tables are
        # built — the equivalent of ``instance.validate()``, run once per
        # candidate, at a fraction of its cost.  Any violation defers to
        # the canonical validators for their exact error.
        try:
            self._build(task_graph.graph, network.graph)
        except KeyError:
            _reject(instance)  # missing weight attribute: canonical error

    def _build(self, tg_graph, net_graph) -> None:
        instance = self.instance
        self.tasks: tuple[Task, ...] = tuple(tg_graph)
        self.nodes: tuple[Node, ...] = tuple(net_graph)
        task_id: dict[Task, int] = {t: i for i, t in enumerate(self.tasks)}
        node_id: dict[Node, int] = {v: i for i, v in enumerate(self.nodes)}
        self.task_id = task_id
        self.node_id = node_id
        n_nodes = len(self.nodes)
        if n_nodes == 0:
            _reject(instance)  # "network has no nodes"

        cost_list = [float(tg_graph.nodes[t]["weight"]) for t in self.tasks]
        speed_list = [float(net_graph.nodes[v]["weight"]) for v in self.nodes]
        if any(not (c >= 0.0) for c in cost_list):  # NaN fails the >= too
            _reject(instance)
        if any(not (s > 0.0) for s in speed_list):
            _reject(instance)
        self.cost = np.array(cost_list, dtype=np.float64)
        self.speed = np.array(speed_list, dtype=np.float64)
        # exec_tbl[t, v] = c(t) / s(v): broadcast elementwise division is
        # the identical IEEE op as the scalar `cost / speed`.  An
        # infinite cost on an infinite-speed node (both validate()-legal)
        # divides to NaN exactly like the scalar quotient; silence numpy's
        # invalid-op warning, which the scalar path never emits.
        with np.errstate(invalid="ignore"):
            self.exec_tbl = self.cost[:, None] / self.speed[None, :]
        # Nested-list mirror for the builder's scalar folds: plain-list
        # indexing beats ndarray scalar indexing on the tiny instances
        # PISA searches.
        self.exec_list: list[list[float]] = self.exec_tbl.tolist()

        # strength[u, v]: inf on the diagonal (data already present) and
        # the raw link strength elsewhere, so `data / strength` lands on
        # exactly the comm_time conventions for positive data.
        strength = np.full((n_nodes, n_nodes), math.inf, dtype=np.float64)
        links: list[tuple[Node, Node, float]] = [
            (u, v, float(d["weight"])) for u, v, d in net_graph.edges(data=True)
        ]
        # A simple graph with exactly C(n, 2) self-loop-free edges is
        # complete; anything else defers to the canonical completeness
        # error.  Strengths must be non-negative (NaN fails that too).
        if len(links) != n_nodes * (n_nodes - 1) // 2 or any(
            u == v or not (s >= 0.0) for u, v, s in links
        ):
            _reject(instance)
        for u, v, s in links:
            strength[node_id[u], node_id[v]] = s
            strength[node_id[v], node_id[u]] = s
        self.strength = strength
        self.strength_list: list[list[float]] = strength.tolist()

        self.preds: tuple[tuple[Task, ...], ...] = tuple(
            tuple(tg_graph.pred[t]) for t in self.tasks
        )
        self.succs: tuple[tuple[Task, ...], ...] = tuple(
            tuple(tg_graph.succ[t]) for t in self.tasks
        )
        self.pred_ids: tuple[tuple[int, ...], ...] = tuple(
            tuple(task_id[p] for p in ps) for ps in self.preds
        )
        self.succ_ids: tuple[tuple[int, ...], ...] = tuple(
            tuple(task_id[s] for s in ss) for ss in self.succs
        )
        self.data: dict[tuple[int, int], float] = {
            (task_id[u], task_id[v]): float(d["weight"])
            for u, v, d in tg_graph.edges(data=True)
        }
        if any(not (size >= 0.0) for size in self.data.values()):
            _reject(instance)
        # Dependency ids in graph edge order (``TaskGraph.dependencies``).
        self.dep_ids: tuple[tuple[int, int], ...] = tuple(self.data)
        sort_order = self._sort_order()
        if sort_order is None:
            _reject(instance)  # "task graph contains a cycle"
        self.sort_order: tuple[Task, ...] = sort_order
        # Per-task (pred_id, data_size) rows in predecessor order — the
        # iteration order of the scalar data-ready loop.
        self.pred_edges: tuple[tuple[tuple[int, float], ...], ...] = self._pred_edges()
        # Copying a task graph (networkx ``DiGraph.copy``) re-inserts the
        # edges source by source, which sorts every predecessor list by
        # source id; apply_delta reproduces that for task-graph moves.
        self._preds_sorted = all(_ascending(ps) for ps in self.pred_ids)

        # Node ids sorted by str(): the lockstep kernel's form of the
        # `(value, str(node))` tie-break (repro.core.simulator.select_node).
        self.node_str_order = np.array(
            sorted(range(n_nodes), key=lambda i: str(self.nodes[i])), dtype=np.intp
        )

        # Average-time aggregates, accumulated in exactly the reference
        # functions' iteration order so the floats match bit-for-bit.
        self.cost_list: list[float] = self.cost.tolist()
        self._mean_inv_speed = sum(1.0 / s for s in self.speed.tolist()) / n_nodes
        inv_sum = 0.0
        have_zero = False
        for _, _, s in links:
            if s == 0.0:
                have_zero = True
            elif not math.isinf(s):
                inv_sum += 1.0 / s
        self._inv_strength_sum = inv_sum
        self._num_links = len(links)
        self._links_have_zero = have_zero
        # Link ids in graph edge order (``Network.links``) — also the
        # iteration order of the reference inverse-strength fold, which
        # apply_delta redoes bit-identically after a strength change.
        self.link_ids: tuple[tuple[int, int], ...] = tuple(
            (node_id[u], node_id[v]) for u, v, _ in links
        )
        # Structure-only artifacts built on first use (the lexicographic
        # topological order, the lockstep kernel's padded arrays).  The
        # dict itself is shared by every weight-delta clone of the same
        # structure, so whichever sibling builds an artifact first builds
        # it for all of them; a clone with different structure gets its
        # own.
        self.shape_cache: dict = {}
        _STATS["full"] += 1

    def _sort_order(self) -> tuple[Task, ...] | None:
        """The ``networkx.topological_sort`` order, or None on a cycle.

        Kahn's algorithm over the id lists, run generation by generation
        exactly like networkx's ``topological_generations`` (in-degree
        scan in node order, children in successor order), so the order it
        leaves behind is the one ``networkx.topological_sort`` yields.
        """
        remaining = [len(ps) for ps in self.pred_ids]
        generation = [t for t, r in enumerate(remaining) if r == 0]
        order: list[int] = []
        while generation:
            order.extend(generation)
            following = []
            for tid in generation:
                for sid in self.succ_ids[tid]:
                    remaining[sid] -= 1
                    if remaining[sid] == 0:
                        following.append(sid)
            generation = following
        if len(order) != len(self.tasks):
            return None
        tasks = self.tasks
        return tuple(tasks[t] for t in order)

    def _pred_edges(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        data = self.data
        return tuple(
            tuple((p, data[(p, t)]) for p in ps) for t, ps in enumerate(self.pred_ids)
        )

    # ------------------------------------------------------------------ #
    # Cache validity
    # ------------------------------------------------------------------ #
    def matches(self, instance: ProblemInstance) -> bool:
        """True while this compilation still reflects ``instance``."""
        return (
            self._task_graph is instance.task_graph
            and self._network is instance.network
            and self._tg_version == instance.task_graph.version
            and self._net_version == instance.network.version
        )

    # ------------------------------------------------------------------ #
    # Delta compilation (one PISA move applied to the tables)
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta) -> "CompiledInstance | None":
        """A sibling compilation: this one with one PISA move applied.

        ``delta`` is a :class:`repro.pisa.perturbations.Delta`.  The clone
        equals, slot for slot, a fresh :func:`compile_instance` of the
        materialized move (the touched half of the instance copied, then
        changed) — pinned by ``tests/test_delta_compile.py``:

        * a weight move (``task_weight``, ``dep_weight``, ``node_speed``,
          ``link_strength``) copies only the tables its cell touches and
          recomputes the affected rows and scalar aggregates with exactly
          the reference arithmetic; it shares every structure artifact,
          the :attr:`shape_cache` included;
        * a structural move (``add_dep``, ``remove_dep``) shares every
          weight and network table and rebuilds only the edge structure —
          the predecessor/successor lists, ``data`` in graph edge order,
          ``dep_ids``, ``pred_edges`` and ``sort_order`` — under a fresh
          :attr:`shape_cache`.

        Copying a task graph sorts its predecessor lists by source id, so
        a task-graph move (weight or structural) sorts them too.

        The clone is unbound: it belongs to no instance.  Returns ``None``
        when the delta cannot be applied — unknown kind or key, a value
        the inline validators would reject, a duplicate or missing edge,
        a cycle — so the caller falls back to materializing the move,
        whose setters and validators raise the canonical error (re-adding
        an existing edge only updates its weight in networkx; no plan
        draws one).
        """
        t0 = perf_counter() if phases.enabled else 0.0
        kind = delta.kind
        value = delta.value
        clone = self._clone()
        if kind not in NETWORK_KINDS and not self._preds_sorted:
            clone._sort_preds()

        if kind == "task_weight":
            tid = self.task_id.get(delta.key[0])
            if tid is None or not (value >= 0.0):
                return None
            cost = self.cost.copy()
            cost[tid] = value
            exec_tbl = self.exec_tbl.copy()
            with np.errstate(invalid="ignore"):
                exec_tbl[tid] = value / self.speed
            clone.cost = cost
            cost_list = list(self.cost_list)
            cost_list[tid] = float(cost[tid])
            clone.cost_list = cost_list
            clone.exec_tbl = exec_tbl
            exec_list = list(self.exec_list)
            exec_list[tid] = exec_tbl[tid].tolist()
            clone.exec_list = exec_list
        elif kind == "dep_weight":
            sid = self.task_id.get(delta.key[0])
            did = self.task_id.get(delta.key[1])
            if sid is None or did is None or (sid, did) not in self.data:
                return None
            if not (value >= 0.0):
                return None
            data = dict(self.data)
            data[(sid, did)] = float(value)
            clone.data = data
            pred_edges = list(clone.pred_edges)
            pred_edges[did] = tuple((p, data[(p, did)]) for p in clone.pred_ids[did])
            clone.pred_edges = tuple(pred_edges)
        elif kind in ("add_dep", "remove_dep"):
            if not clone._restructure(delta):
                return None
        elif kind == "node_speed":
            vid = self.node_id.get(delta.key[0])
            if vid is None or not (value > 0.0):
                return None
            speed = self.speed.copy()
            speed[vid] = value
            exec_tbl = self.exec_tbl.copy()
            with np.errstate(invalid="ignore"):
                exec_tbl[:, vid] = self.cost / value
            clone.speed = speed
            clone.exec_tbl = exec_tbl
            clone.exec_list = exec_tbl.tolist()
            # Reference fold order: sum of inverses over nodes in order.
            clone._mean_inv_speed = sum(1.0 / s for s in speed.tolist()) / len(self.nodes)
        elif kind == "link_strength":
            uid = self.node_id.get(delta.key[0])
            vid = self.node_id.get(delta.key[1])
            if uid is None or vid is None or uid == vid or not (value >= 0.0):
                return None
            strength = self.strength.copy()
            strength[uid, vid] = value
            strength[vid, uid] = value
            clone.strength = strength
            strength_list = list(self.strength_list)
            strength_list[uid] = strength[uid].tolist()
            strength_list[vid] = strength[vid].tolist()
            clone.strength_list = strength_list
            # Redo the inverse-strength fold in graph edge order — a
            # sequential float sum cannot be patched incrementally.
            inv_sum = 0.0
            have_zero = False
            for a, b in self.link_ids:
                s = float(strength[a, b])
                if s == 0.0:
                    have_zero = True
                elif not math.isinf(s):
                    inv_sum += 1.0 / s
            clone._inv_strength_sum = inv_sum
            clone._links_have_zero = have_zero
        else:
            return None

        _STATS["delta"] += 1
        if phases.enabled:
            phases.add("compile", perf_counter() - t0)
        return clone

    def copied(self) -> "CompiledInstance":
        """The compilation of a full copy of this candidate (the identity
        move): every predecessor list sorted by source id, as copying the
        task graph does, everything else shared.  ``self`` when already
        sorted."""
        if self._preds_sorted:
            return self
        clone = self._clone()
        clone._sort_preds()
        return clone

    def _clone(self) -> "CompiledInstance":
        """An unbound shallow copy: every slot shared, no instance."""
        clone = CompiledInstance.__new__(CompiledInstance)
        for name in CompiledInstance.__slots__:
            setattr(clone, name, getattr(self, name))
        clone.instance = None
        clone._task_graph = None
        clone._network = None
        clone._tg_version = -1
        clone._net_version = -1
        return clone

    def _sort_preds(self) -> None:
        """Sort every predecessor list by source id, as copying the task
        graph does.  The sorted structure (and its own shape cache) is
        memoized on the unsorted one, so all siblings share it."""
        cached = self.shape_cache.get("sorted_preds")
        if cached is None:
            pred_ids = tuple(tuple(sorted(ps)) for ps in self.pred_ids)
            tasks = self.tasks
            preds = tuple(tuple(tasks[p] for p in ps) for ps in pred_ids)
            cached = (pred_ids, preds, {})
            self.shape_cache["sorted_preds"] = cached
        self.pred_ids, self.preds, self.shape_cache = cached
        self.pred_edges = self._pred_edges()
        self._preds_sorted = True

    def _restructure(self, delta) -> bool:
        """Apply an ``add_dep``/``remove_dep`` delta to this clone's edge
        structure in place; False when the move is illegal."""
        sid = self.task_id.get(delta.key[0])
        did = self.task_id.get(delta.key[1])
        if sid is None or did is None:
            return False
        adding = delta.kind == "add_dep"
        if ((sid, did) in self.data) == adding:
            return False  # duplicate edge to add, or missing edge to remove
        if adding and (sid == did or not (delta.value >= 0.0)):
            return False
        tasks = self.tasks
        pred_ids = list(self.pred_ids)
        succ_ids = list(self.succ_ids)
        preds = list(self.preds)
        succs = list(self.succs)
        if adding:
            # networkx appends a new edge to both adjacency dicts.
            pred_ids[did] += (sid,)
            succ_ids[sid] += (did,)
            preds[did] += (tasks[sid],)
            succs[sid] += (tasks[did],)
        else:
            pred_ids[did] = tuple(p for p in pred_ids[did] if p != sid)
            succ_ids[sid] = tuple(s for s in succ_ids[sid] if s != did)
            preds[did] = tuple(tasks[p] for p in pred_ids[did])
            succs[sid] = tuple(tasks[s] for s in succ_ids[sid])
        self.pred_ids = tuple(pred_ids)
        self.succ_ids = tuple(succ_ids)
        self.preds = tuple(preds)
        self.succs = tuple(succs)
        sort_order = self._sort_order()
        if sort_order is None:
            return False  # the new edge closes a cycle
        self.sort_order = sort_order
        # Graph edge order: sources in task order, each source's edges in
        # successor order.
        old = self.data
        weight = float(delta.value)
        self.data = {
            (u, v): old.get((u, v), weight) for u, ss in enumerate(self.succ_ids) for v in ss
        }
        self.dep_ids = tuple(self.data)
        self.pred_edges = self._pred_edges()
        self.shape_cache = {}
        self._preds_sorted = _ascending(self.pred_ids[did])
        return True

    # ------------------------------------------------------------------ #
    # Scalar convenience (identical semantics to simulator.comm_time)
    # ------------------------------------------------------------------ #
    def comm(self, src_tid: int, dst_tid: int, src_vid: int, dst_vid: int) -> float:
        """Communication time of a dependency across a link, by ids."""
        if src_vid == dst_vid:
            return 0.0
        data = self.data[(src_tid, dst_tid)]
        if data == 0.0:
            return 0.0
        strength = self.strength_list[src_vid][dst_vid]
        if strength == 0.0:
            return math.inf
        if math.isinf(strength):
            return 0.0
        return data / strength

    def topological_order(self) -> list[Task]:
        """Memoized :meth:`TaskGraph.topological_order` (lexicographic).

        MCT-style schedulers and HEFT's priority tie-break walk it.  Run
        over the id lists, so unbound delta clones can answer it too; the
        result is shared with every sibling through :attr:`shape_cache`.
        """
        order = self.shape_cache.get("lexicographic")
        if order is None:
            ids = lexicographic_ids(
                [str(t) for t in self.tasks], [len(ps) for ps in self.pred_ids], self.succ_ids
            )
            order = [self.tasks[t] for t in ids]
            self.shape_cache["lexicographic"] = order
        return order

    def adjacency(self) -> tuple[dict[Task, tuple[Task, ...]], dict[Task, tuple[Task, ...]]]:
        """``({task: predecessors}, {task: successors})``, in graph order.

        The rank functions' view of the edges; memoized in
        :attr:`shape_cache`, so every sibling of one structure shares it.
        """
        adjacency = self.shape_cache.get("adjacency")
        if adjacency is None:
            adjacency = (dict(zip(self.tasks, self.preds)), dict(zip(self.tasks, self.succs)))
            self.shape_cache["adjacency"] = adjacency
        return adjacency

    # ------------------------------------------------------------------ #
    # Average-time quantities (HEFT/CPoP/GDL rank functions)
    # ------------------------------------------------------------------ #
    def mean_exec(self, task: Task) -> float:
        """:func:`repro.core.simulator.mean_exec_time`, O(1) per query.

        ``cost * mean(1/speed)`` with the mean accumulated once at
        compile time in the reference function's summation order.
        """
        tid = self.task_id.get(task)
        if tid is None:
            if self.instance is None:
                raise SchedulingError(f"unknown task {task!r}")
            from repro.core.simulator import mean_exec_time

            return mean_exec_time(self.instance, task)  # unknown task: error
        return self.cost_list[tid] * self._mean_inv_speed

    def mean_comm(self, src: Task, dst: Task) -> float:
        """:func:`repro.core.simulator.mean_comm_time`, O(1) per query.

        The inverse-strength sum over finite links is accumulated once at
        compile time in link order, so ``data * inv / len(links)`` is the
        identical float; the zero-strength-link early-inf and the
        no-links/zero-data short-circuits are preserved.
        """
        if self._num_links == 0:
            return 0.0
        data = self.data.get((self.task_id.get(src), self.task_id.get(dst)))
        if data is None:
            if self.instance is None:
                raise SchedulingError(f"unknown dependency {src!r}->{dst!r}")
            from repro.core.simulator import mean_comm_time

            return mean_comm_time(self.instance, src, dst)  # unknown edge: error
        if data == 0.0:
            return 0.0
        if self._links_have_zero:
            return math.inf
        return data * self._inv_strength_sum / self._num_links


def compile_instance(instance: ProblemInstance | CompiledInstance) -> CompiledInstance:
    """The (cached) compiled kernel of ``instance``.

    The compilation is stored on the instance object and keyed by the
    task-graph/network mutation counters: repeated schedules of the same
    candidate — PISA's target + baseline pair, a whole genetic
    population's elites — share one compilation, and any mutation through
    the public setters triggers a transparent recompile.

    A :class:`CompiledInstance` is its own compilation (returned as is,
    counted as a cache hit): every consumer of this function — the
    builder, the schedulers, the perturbation plans — takes a compiled
    candidate wherever it takes an instance.
    """
    if isinstance(instance, CompiledInstance):
        _STATS["cache_hits"] += 1
        return instance
    cached = getattr(instance, "_compiled_cache", None)
    if cached is not None and cached.matches(instance):
        _STATS["cache_hits"] += 1
        return cached
    t0 = perf_counter() if phases.enabled else 0.0
    compiled = CompiledInstance(instance)
    if phases.enabled:
        phases.add("compile", perf_counter() - t0)
    instance._compiled_cache = compiled
    return compiled
