"""Topological helpers over :class:`networkx.DiGraph` task graphs.

These are used by the list schedulers (deterministic topological orders),
the PISA *Add Dependency* perturbation (cycle check), and the BruteForce /
SMT schedulers (enumeration of linear extensions).
"""

from __future__ import annotations

import heapq
from collections.abc import Hashable, Iterator, Sequence
from itertools import count

import networkx as nx

__all__ = [
    "topological_order",
    "lexicographic_ids",
    "is_dag_after_edge",
    "all_linear_extensions",
    "longest_path_length",
]


def topological_order(graph: nx.DiGraph) -> list[Hashable]:
    """A deterministic topological order (lexicographic tie-breaking).

    ``networkx.topological_sort`` is insertion-order dependent; schedulers
    such as MCT/OLB process tasks "in arbitrary order", and for
    reproducibility our arbitrary order is the lexicographically smallest
    topological order.  (Kahn's algorithm over a ``(str(node), counter)``
    heap, exactly networkx's tie-breaking: nodes sharing a ``str()`` key
    leave in heap-arrival order, and the nodes themselves are never
    compared.  The result equals
    ``nx.lexicographical_topological_sort(graph, key=str)`` at a fraction
    of its overhead.)
    """
    nodes = list(graph)
    index = {n: i for i, n in enumerate(nodes)}
    order = lexicographic_ids(
        [str(n) for n in nodes],
        [len(graph.pred[n]) for n in nodes],
        [[index[s] for s in graph.succ[n]] for n in nodes],
    )
    if len(order) != len(nodes):
        raise nx.NetworkXUnfeasible("Graph contains a cycle.")
    return [nodes[i] for i in order]


def lexicographic_ids(
    keys: Sequence[str], pred_count: Sequence[int], succ: Sequence[Sequence[int]]
) -> list[int]:
    """:func:`topological_order` over integer ids (``0..n-1``).

    ``keys[i]`` is node ``i``'s tie-break string, ``pred_count[i]`` its
    in-degree and ``succ[i]`` its successors in graph order.  Shorter
    than ``n`` when the graph has a cycle.  The compiled scheduling
    kernel (:mod:`repro.core.compiled`) runs it on its own id lists.
    """
    remaining = list(pred_count)
    arrival = count()
    heap = [(keys[i], next(arrival), i) for i, d in enumerate(remaining) if d == 0]
    heapq.heapify(heap)
    out: list[int] = []
    while heap:
        i = heapq.heappop(heap)[2]
        out.append(i)
        for j in succ[i]:
            remaining[j] -= 1
            if remaining[j] == 0:
                heapq.heappush(heap, (keys[j], next(arrival), j))
    return out


def is_dag_after_edge(graph: nx.DiGraph, u: Hashable, v: Hashable) -> bool:
    """Would adding edge ``u -> v`` keep ``graph`` acyclic?

    Equivalent to: there is no path from ``v`` to ``u``.  Used by PISA's
    *Add Dependency* perturbation, which must only propose acyclic graphs.
    """
    if u == v:
        return False
    if graph.has_edge(u, v):
        return True  # already present; re-adding cannot create a cycle
    return not nx.has_path(graph, v, u)


def all_linear_extensions(graph: nx.DiGraph) -> Iterator[tuple[Hashable, ...]]:
    """Yield every linear extension (valid topological order) of ``graph``.

    Exponential; used only by the BruteForce scheduler on tiny instances.
    The enumeration is deterministic (candidates visited in sorted order).
    """
    in_deg = {n: graph.in_degree(n) for n in graph.nodes}
    order: list[Hashable] = []

    def backtrack() -> Iterator[tuple[Hashable, ...]]:
        if len(order) == len(in_deg):
            yield tuple(order)
            return
        ready = sorted((n for n, d in in_deg.items() if d == 0), key=str)
        for node in ready:
            in_deg[node] = -1  # mark scheduled
            for succ in graph.successors(node):
                in_deg[succ] -= 1
            order.append(node)
            yield from backtrack()
            order.pop()
            for succ in graph.successors(node):
                in_deg[succ] += 1
            in_deg[node] = 0

    yield from backtrack()


def longest_path_length(
    graph: nx.DiGraph,
    node_weight: dict[Hashable, float],
    edge_weight: dict[tuple[Hashable, Hashable], float] | None = None,
) -> float:
    """Length of the heaviest path: sum of node weights plus edge weights.

    This is the classic critical-path length used by CPoP's priority
    metric (with average execution/communication times as weights).
    Runs in O(V + E) over a topological order.
    """
    edge_weight = edge_weight or {}
    best: dict[Hashable, float] = {}
    total = 0.0
    for node in nx.topological_sort(graph):
        incoming = [
            best[p] + edge_weight.get((p, node), 0.0) for p in graph.predecessors(node)
        ]
        best[node] = node_weight.get(node, 0.0) + (max(incoming) if incoming else 0.0)
        total = max(total, best[node])
    return total
