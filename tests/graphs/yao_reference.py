"""The full-ring Yao spanner scan, kept as the reference for
:func:`repro.graphs.yao_spanner_graph`.

This is the construction the generator used before its ring scan learned to
close cones: it stops only once every cone holds a candidate nearer than the
ring, so a node whose cone points out of the unit square scans the whole
grid.  It is slow and obviously exact; the generator must build the same
graph from it, edge for edge and in the same insertion order.  Shared by
``tests/graphs/test_yao_spanner_closure.py`` and
``benchmarks/test_bench_generators.py``.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

from repro.graphs import WeightedGraph


def _ring_cells(cx: int, cy: int, ring: int, side: int) -> List[Tuple[int, int]]:
    """Grid cells at Chebyshev distance exactly ``ring`` from ``(cx, cy)``."""
    if ring == 0:
        return [(cx, cy)]
    cells = []
    for gx in range(max(0, cx - ring), min(side, cx + ring + 1)):
        for gy in (cy - ring, cy + ring):
            if 0 <= gy < side:
                cells.append((gx, gy))
    for gy in range(max(0, cy - ring + 1), min(side, cy + ring)):
        for gx in (cx - ring, cx + ring):
            if 0 <= gx < side:
                cells.append((gx, gy))
    return cells


def yao_spanner_reference(
    num_nodes: int, num_cones: int = 6, weight_scale: int = 1000, seed: int = 0
) -> WeightedGraph:
    """:func:`repro.graphs.yao_spanner_graph` by the full-ring scan."""
    rng = random.Random(seed)
    positions = [(rng.random(), rng.random()) for _ in range(num_nodes)]
    graph = WeightedGraph(nodes=range(num_nodes))
    if num_nodes == 1:
        return graph

    side = max(1, math.isqrt(num_nodes))

    def cell_of(x: float, y: float) -> Tuple[int, int]:
        return (min(side - 1, int(x * side)), min(side - 1, int(y * side)))

    buckets: dict = {}
    for index, (x, y) in enumerate(positions):
        buckets.setdefault(cell_of(x, y), []).append(index)

    two_pi = 2.0 * math.pi
    for u in range(num_nodes):
        ux, uy = positions[u]
        cx, cy = cell_of(ux, uy)
        best: List[Optional[Tuple[float, int]]] = [None] * num_cones
        ring = 0
        while ring <= 2 * side:
            floor_distance = (ring - 1) / side
            if (
                all(entry is not None for entry in best)
                and floor_distance > max(entry[0] for entry in best)
            ):
                break
            for cell in _ring_cells(cx, cy, ring, side):
                for v in buckets.get(cell, ()):
                    if v == u:
                        continue
                    dx = positions[v][0] - ux
                    dy = positions[v][1] - uy
                    distance = math.hypot(dx, dy)
                    sector = int((math.atan2(dy, dx) % two_pi) / two_pi * num_cones)
                    sector = min(sector, num_cones - 1)
                    if best[sector] is None or (distance, v) < best[sector]:
                        best[sector] = (distance, v)
            ring += 1
        for entry in best:
            if entry is None:
                continue
            distance, v = entry
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, max(1, round(distance * weight_scale)))

    components = graph.connected_components()
    while len(components) > 1:
        base = components[0]
        best_link: Optional[Tuple[float, int, int]] = None
        for other in components[1:]:
            for u in base:
                for v in other:
                    dx = positions[u][0] - positions[v][0]
                    dy = positions[u][1] - positions[v][1]
                    distance = math.hypot(dx, dy)
                    if best_link is None or distance < best_link[0]:
                        best_link = (distance, u, v)
        assert best_link is not None
        graph.add_edge(
            best_link[1], best_link[2], max(1, round(best_link[0] * weight_scale))
        )
        components = graph.connected_components()
    return graph
