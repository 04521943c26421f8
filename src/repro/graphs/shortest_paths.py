"""Exact sequential shortest-path algorithms.

These are the ground-truth oracles against which every distributed and
quantum routine in the library is checked.  The module provides:

* :func:`dijkstra` -- single-source distances on positively weighted graphs.
* :func:`bellman_ford` -- single-source distances via relaxation, also usable
  as a hop-bounded variant.
* :func:`bounded_hop_distances` -- the ``l``-hop distance
  ``d^l_{G,w}(u, v)`` from Section 3.1 of the paper: the least length over all
  paths using at most ``l`` edges.
* :func:`bounded_distance_sssp` -- distances up to a length threshold ``L``,
  mirroring Algorithm 2 (Bounded-Distance SSSP) of the paper's Appendix A.
* :func:`all_pairs_distances` -- exact APSP in one batched kernel pass.
* :func:`shortest_path` -- an explicit shortest path (node list).

The public functions delegate to the CSR kernel layer
(:mod:`repro.kernels`), which snapshots the graph into array form once and
dispatches to the fastest registered backend; signatures and return
conventions are unchanged.  The original dict-based implementations live
on as the test suite's independent oracles
(``tests/graphs/shortest_path_reference.py``).

All functions treat unreachable nodes as being at distance
:data:`math.inf` and never invent edges.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graphs.weighted_graph import WeightedGraph

__all__ = [
    "dijkstra",
    "bellman_ford",
    "bounded_hop_distances",
    "bounded_distance_sssp",
    "all_pairs_distances",
    "shortest_path",
    "INFINITY",
]

#: Distance value used for unreachable nodes.
INFINITY = math.inf


def dijkstra(graph: WeightedGraph, source: int) -> Dict[int, float]:
    """Compute exact single-source shortest distances from ``source``.

    Parameters
    ----------
    graph:
        The weighted graph; weights must be positive (guaranteed by
        :class:`WeightedGraph`).
    source:
        The source node; must be in the graph.

    Returns
    -------
    dict
        Mapping from every node to its distance from ``source``
        (``math.inf`` when unreachable).
    """
    from repro.kernels import dijkstra_csr

    return dijkstra_csr(graph, source)


def bellman_ford(
    graph: WeightedGraph, source: int, max_hops: Optional[int] = None
) -> Dict[int, float]:
    """Single-source distances by iterated relaxation.

    With ``max_hops=None`` this computes exact distances (equivalent to
    :func:`dijkstra` on positive weights).  With ``max_hops=l`` it computes
    the ``l``-hop distance ``d^l_{G,w}(source, v)``: the least length over
    paths with at most ``l`` edges.

    Returns
    -------
    dict
        Mapping node -> distance (``math.inf`` if unreachable within the hop
        budget).
    """
    from repro.kernels import batched_bellman_ford

    rounds = graph.num_nodes - 1 if max_hops is None else max_hops
    return batched_bellman_ford(graph, [source], rounds)[source]


def bounded_hop_distances(
    graph: WeightedGraph, source: int, max_hops: int
) -> Dict[int, float]:
    """Exact ``l``-hop distances ``d^l_{G,w}(source, .)``.

    The ``l``-hop distance between ``u`` and ``v`` is the least length over
    all paths between them containing at most ``l`` edges (Section 3.1).
    It equals the true distance whenever the shortest path uses at most ``l``
    hops.
    """
    from repro.kernels import batched_bellman_ford

    return batched_bellman_ford(graph, [source], max_hops)[source]


def bounded_distance_sssp(
    graph: WeightedGraph, source: int, max_distance: float
) -> Dict[int, float]:
    """Distances from ``source`` restricted to nodes within ``max_distance``.

    Mirrors Algorithm 2 of the paper: a node learns its distance if and only
    if that distance is at most ``L = max_distance``.  Nodes farther than
    ``L`` are reported at ``math.inf``.
    """
    distances = dijkstra(graph, source)
    return {
        node: (
            INFINITY
            if math.isinf(dist) or dist > max_distance
            else dist
        )
        for node, dist in distances.items()
    }


def all_pairs_distances(graph: WeightedGraph) -> Dict[int, Dict[int, float]]:
    """Exact all-pairs shortest-path distances via the batched CSR kernel."""
    from repro.kernels import all_pairs_distances_csr

    return all_pairs_distances_csr(graph)


def shortest_path(
    graph: WeightedGraph, source: int, target: int
) -> Tuple[float, Sequence[int]]:
    """Return ``(distance, path)`` for one shortest path from source to target.

    The path is returned as a list of nodes starting at ``source`` and ending
    at ``target``.  If ``target`` is unreachable the distance is
    ``math.inf`` and the path is empty.
    """
    if source not in graph:
        raise KeyError(f"source node {source} is not in the graph")
    if target not in graph:
        raise KeyError(f"target node {target} is not in the graph")
    distances: Dict[int, float] = {node: INFINITY for node in graph.nodes}
    parents: Dict[int, Optional[int]] = {source: None}
    distances[source] = 0
    heap: List[Tuple[float, int]] = [(0, source)]
    visited: set = set()
    while heap:
        dist, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == target:
            break
        for neighbor, weight in graph.incident_edges(node):
            candidate = dist + weight
            if candidate < distances[neighbor]:
                distances[neighbor] = candidate
                parents[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    if math.isinf(distances[target]):
        return INFINITY, []
    path: List[int] = []
    node: Optional[int] = target
    while node is not None:
        path.append(node)
        node = parents.get(node)
    path.reverse()
    return distances[target], path
