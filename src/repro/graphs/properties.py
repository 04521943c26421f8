"""Graph-parameter computations: eccentricity, diameter, radius, hop diameter.

These follow the definitions in Section 2.1 of the paper:

* ``e_{G,w}(u) = max_v d_{G,w}(u, v)`` -- the eccentricity of ``u``.
* ``R_{G,w}  = min_u e_{G,w}(u)``       -- the radius.
* ``D_{G,w}  = max_u e_{G,w}(u)``       -- the (weighted) diameter.
* ``D_G``  -- the *unweighted* diameter, i.e. the diameter under the constant
  weight function ``w*(e) = 1``; this is the parameter ``D`` appearing in all
  round-complexity bounds.
* ``h_{G,w}(u, v)`` -- the hop distance: the minimum number of edges over all
  *shortest* (by weight) paths between ``u`` and ``v``.
* ``H_{G,w}`` -- the hop diameter: the maximum hop distance over all pairs.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Tuple

from repro.graphs.shortest_paths import INFINITY, dijkstra
from repro.graphs.weighted_graph import WeightedGraph

__all__ = [
    "eccentricity",
    "all_eccentricities",
    "diameter",
    "radius",
    "center",
    "periphery",
    "hop_distance",
    "hop_diameter",
    "unweighted_diameter",
    "unweighted_eccentricity",
]


def eccentricity(graph: WeightedGraph, node: int) -> float:
    """Return ``e_{G,w}(node)``, the maximum distance from ``node``.

    Returns ``math.inf`` when the graph is disconnected.
    """
    distances = dijkstra(graph, node)
    return max(distances.values()) if distances else INFINITY


def all_eccentricities(graph: WeightedGraph) -> Dict[int, float]:
    """Return the eccentricity of every node (one batched APSP kernel pass)."""
    from repro.kernels import eccentricities_csr

    return eccentricities_csr(graph)


def diameter(graph: WeightedGraph) -> float:
    """Return the weighted diameter ``D_{G,w} = max_u e(u)``."""
    from repro.kernels import diameter_csr

    return diameter_csr(graph)


def radius(graph: WeightedGraph) -> float:
    """Return the weighted radius ``R_{G,w} = min_u e(u)``."""
    from repro.kernels import radius_csr

    return radius_csr(graph)


def center(graph: WeightedGraph) -> List[int]:
    """Return all nodes whose eccentricity equals the radius."""
    from repro.kernels import extremal_eccentricity_csr

    return extremal_eccentricity_csr(graph, maximize=False)[1]


def periphery(graph: WeightedGraph) -> List[int]:
    """Return all nodes whose eccentricity equals the diameter."""
    from repro.kernels import extremal_eccentricity_csr

    return extremal_eccentricity_csr(graph, maximize=True)[1]


def unweighted_eccentricity(graph: WeightedGraph, node: int) -> float:
    """Eccentricity of ``node`` under unit weights (BFS depth)."""
    return eccentricity(graph.with_unit_weights(), node)


def unweighted_diameter(graph: WeightedGraph) -> float:
    """Return ``D_G``: the diameter of the graph under unit weights.

    This is the parameter ``D`` appearing in every round-complexity bound of
    the paper; it is a property of the *network topology*, not of the weight
    function.
    """
    return diameter(graph.with_unit_weights())


def hop_distance(graph: WeightedGraph, u: int, v: int) -> float:
    """Return ``h_{G,w}(u, v)``: the fewest edges on any weighted shortest path.

    A path qualifies only if its total weight equals ``d_{G,w}(u, v)``; among
    those, the one with the fewest edges determines the hop distance.  This is
    computed with a lexicographic Dijkstra on ``(length, hops)``.
    """
    if u not in graph:
        raise KeyError(f"node {u} is not in the graph")
    if v not in graph:
        raise KeyError(f"node {v} is not in the graph")
    best: Dict[int, Tuple[float, float]] = {
        node: (INFINITY, INFINITY) for node in graph.nodes
    }
    best[u] = (0, 0)
    heap: List[Tuple[float, float, int]] = [(0, 0, u)]
    visited: set = set()
    while heap:
        dist, hops, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == v:
            return hops
        for neighbor, weight in graph.incident_edges(node):
            candidate = (dist + weight, hops + 1)
            if candidate < best[neighbor]:
                best[neighbor] = candidate
                heapq.heappush(heap, (candidate[0], candidate[1], neighbor))
    return INFINITY


def hop_diameter(graph: WeightedGraph) -> float:
    """Return ``H_{G,w}``: the maximum hop distance over all node pairs.

    Quadratic in the number of nodes; intended for the moderate graph sizes
    used in tests and benchmarks.
    """
    if graph.num_nodes == 0:
        raise ValueError("hop diameter of an empty graph is undefined")
    worst = 0.0
    nodes = graph.nodes
    for source in nodes:
        # One lexicographic Dijkstra per source.
        best: Dict[int, Tuple[float, float]] = {
            node: (INFINITY, INFINITY) for node in nodes
        }
        best[source] = (0, 0)
        heap: List[Tuple[float, float, int]] = [(0, 0, source)]
        visited: set = set()
        while heap:
            dist, hops, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            worst = max(worst, hops)
            for neighbor, weight in graph.incident_edges(node):
                candidate = (dist + weight, hops + 1)
                if candidate < best[neighbor]:
                    best[neighbor] = candidate
                    heapq.heappush(heap, (candidate[0], candidate[1], neighbor))
        if any(node not in visited for node in nodes):
            return INFINITY
    return worst
