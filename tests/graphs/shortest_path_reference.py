"""Dict-based shortest-path oracles: the seed implementations of
:mod:`repro.graphs.shortest_paths`.

They are the independent references the kernel property tests
(``tests/kernels/test_property_kernels.py``) and the kernel benchmark
(``benchmarks/test_bench_kernels.py``) cross-check every backend against,
and they document the textbook algorithms.  Load by path where this
directory is not on ``sys.path``.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

from repro.graphs.shortest_paths import INFINITY
from repro.graphs.weighted_graph import WeightedGraph


def dijkstra_reference(graph: WeightedGraph, source: int) -> Dict[int, float]:
    """Textbook binary-heap Dijkstra on the adjacency dicts.

    Kept as the independent oracle the kernel property tests cross-check
    :func:`dijkstra` (and every backend) against.
    """
    if source not in graph:
        raise KeyError(f"source node {source} is not in the graph")
    distances: Dict[int, float] = {node: INFINITY for node in graph.nodes}
    distances[source] = 0
    heap: List[Tuple[float, int]] = [(0, source)]
    visited: set = set()
    while heap:
        dist, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for neighbor, weight in graph.incident_edges(node):
            candidate = dist + weight
            if candidate < distances[neighbor]:
                distances[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return distances


def bellman_ford_reference(
    graph: WeightedGraph, source: int, max_hops: Optional[int] = None
) -> Dict[int, float]:
    """Frontier-based relaxation on the adjacency dicts (kernel oracle)."""
    if source not in graph:
        raise KeyError(f"source node {source} is not in the graph")
    rounds = graph.num_nodes - 1 if max_hops is None else max_hops
    distances: Dict[int, float] = {node: INFINITY for node in graph.nodes}
    distances[source] = 0
    # Relax edges `rounds` times; track only nodes updated in the previous
    # iteration to keep the loop close to the distributed behaviour.
    frontier = {source}
    for _ in range(rounds):
        if not frontier:
            break
        next_frontier: set = set()
        updates: Dict[int, float] = {}
        for node in frontier:
            base = distances[node]
            for neighbor, weight in graph.incident_edges(node):
                candidate = base + weight
                best = updates.get(neighbor, distances[neighbor])
                if candidate < best:
                    updates[neighbor] = candidate
        for node, value in updates.items():
            if value < distances[node]:
                distances[node] = value
                next_frontier.add(node)
        frontier = next_frontier
    return distances


def bounded_hop_distances_reference(
    graph: WeightedGraph, source: int, max_hops: int
) -> Dict[int, float]:
    """Explicit dynamic program over the hop count (kernel oracle).

    Computes the same quantity as :func:`bounded_hop_distances` through a
    structurally different recurrence, which the property tests cross-check
    against both the kernel layer and the relaxation variant.
    """
    if max_hops < 0:
        raise ValueError(f"max_hops must be non-negative, got {max_hops}")
    if source not in graph:
        raise KeyError(f"source node {source} is not in the graph")
    best: Dict[int, float] = {node: INFINITY for node in graph.nodes}
    best[source] = 0
    current = dict(best)
    for _ in range(max_hops):
        nxt = dict(current)
        changed = False
        for node in graph.nodes:
            if math.isinf(current[node]):
                continue
            base = current[node]
            for neighbor, weight in graph.incident_edges(node):
                candidate = base + weight
                if candidate < nxt[neighbor]:
                    nxt[neighbor] = candidate
                    changed = True
        current = nxt
        for node, value in current.items():
            if value < best[node]:
                best[node] = value
        if not changed:
            break
    return best


def all_pairs_distances_reference(
    graph: WeightedGraph,
) -> Dict[int, Dict[int, float]]:
    """Exact APSP by repeated dict-based Dijkstra (the seed implementation)."""
    return {node: dijkstra_reference(graph, node) for node in graph.nodes}
