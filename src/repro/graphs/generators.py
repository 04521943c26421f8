"""Graph generators for the test-suite and the benchmark sweeps.

The round-complexity bounds in the paper depend on two independent knobs:

* ``n``  -- the number of nodes, and
* ``D``  -- the *unweighted* diameter of the network topology,

so the benchmark harness needs graph families whose diameter can be dialled
from ``Theta(log n)`` up to ``Theta(n)`` while ``n`` is held fixed.  The
generators below cover that range:

* :func:`low_diameter_expander` and :func:`erdos_renyi_graph` give
  ``D = O(log n)``.
* :func:`path_of_cliques` interpolates: ``k`` cliques strung on a path give
  ``D = Theta(k)`` for any ``k``.
* :func:`path_graph`, :func:`cycle_graph` and :func:`caterpillar_graph`
  give ``D = Theta(n)``.

Every generator that uses randomness takes an explicit ``seed`` and is fully
deterministic given it.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Tuple

from repro.graphs.weighted_graph import WeightedGraph

__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "grid_graph",
    "balanced_binary_tree",
    "erdos_renyi_graph",
    "random_geometric_graph",
    "barbell_graph",
    "path_of_cliques",
    "random_weighted_graph",
    "random_tree",
    "caterpillar_graph",
    "low_diameter_expander",
    "yao_spanner_graph",
    "assign_random_weights",
]


def _weight_picker(
    rng: Optional[random.Random], max_weight: int
) -> "callable":
    """Return a function producing edge weights in ``[1, max_weight]``."""
    if max_weight < 1:
        raise ValueError(f"max_weight must be at least 1, got {max_weight}")
    if rng is None or max_weight == 1:
        return lambda: 1
    return lambda: rng.randint(1, max_weight)


def assign_random_weights(
    graph: WeightedGraph, max_weight: int, seed: int = 0
) -> WeightedGraph:
    """Return a copy of ``graph`` with i.i.d. uniform weights in ``[1, max_weight]``."""
    rng = random.Random(seed)
    pick = _weight_picker(rng, max_weight)
    return graph.reweighted(lambda u, v, w: pick())


def path_graph(
    num_nodes: int, max_weight: int = 1, seed: int = 0
) -> WeightedGraph:
    """A path on ``num_nodes`` nodes; unweighted diameter ``num_nodes - 1``."""
    if num_nodes < 1:
        raise ValueError("path_graph needs at least one node")
    rng = random.Random(seed)
    pick = _weight_picker(rng, max_weight)
    graph = WeightedGraph(nodes=range(num_nodes))
    for i in range(num_nodes - 1):
        graph.add_edge(i, i + 1, pick())
    return graph


def cycle_graph(
    num_nodes: int, max_weight: int = 1, seed: int = 0
) -> WeightedGraph:
    """A cycle on ``num_nodes`` nodes; unweighted diameter ``floor(n/2)``."""
    if num_nodes < 3:
        raise ValueError("cycle_graph needs at least three nodes")
    graph = path_graph(num_nodes, max_weight=max_weight, seed=seed)
    rng = random.Random(seed + 1)
    pick = _weight_picker(rng, max_weight)
    graph.add_edge(num_nodes - 1, 0, pick())
    return graph


def complete_graph(
    num_nodes: int, max_weight: int = 1, seed: int = 0
) -> WeightedGraph:
    """The complete graph ``K_n``; unweighted diameter 1."""
    if num_nodes < 1:
        raise ValueError("complete_graph needs at least one node")
    rng = random.Random(seed)
    pick = _weight_picker(rng, max_weight)
    graph = WeightedGraph(nodes=range(num_nodes))
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            graph.add_edge(u, v, pick())
    return graph


def star_graph(num_leaves: int, max_weight: int = 1, seed: int = 0) -> WeightedGraph:
    """A star with one hub (node 0) and ``num_leaves`` leaves; diameter 2."""
    if num_leaves < 1:
        raise ValueError("star_graph needs at least one leaf")
    rng = random.Random(seed)
    pick = _weight_picker(rng, max_weight)
    graph = WeightedGraph(nodes=range(num_leaves + 1))
    for leaf in range(1, num_leaves + 1):
        graph.add_edge(0, leaf, pick())
    return graph


def grid_graph(
    rows: int, cols: int, max_weight: int = 1, seed: int = 0
) -> WeightedGraph:
    """A ``rows x cols`` grid; unweighted diameter ``rows + cols - 2``."""
    if rows < 1 or cols < 1:
        raise ValueError("grid_graph needs positive dimensions")
    rng = random.Random(seed)
    pick = _weight_picker(rng, max_weight)
    graph = WeightedGraph(nodes=range(rows * cols))

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                graph.add_edge(node_id(r, c), node_id(r, c + 1), pick())
            if r + 1 < rows:
                graph.add_edge(node_id(r, c), node_id(r + 1, c), pick())
    return graph


def balanced_binary_tree(
    height: int, max_weight: int = 1, seed: int = 0
) -> WeightedGraph:
    """A complete binary tree of the given height; diameter ``2 * height``."""
    if height < 0:
        raise ValueError("height must be non-negative")
    rng = random.Random(seed)
    pick = _weight_picker(rng, max_weight)
    num_nodes = 2 ** (height + 1) - 1
    graph = WeightedGraph(nodes=range(num_nodes))
    for node in range(1, num_nodes):
        parent = (node - 1) // 2
        graph.add_edge(parent, node, pick())
    return graph


def random_tree(num_nodes: int, max_weight: int = 1, seed: int = 0) -> WeightedGraph:
    """A uniformly random labelled tree built from a random Prüfer-like attachment."""
    if num_nodes < 1:
        raise ValueError("random_tree needs at least one node")
    rng = random.Random(seed)
    pick = _weight_picker(rng, max_weight)
    graph = WeightedGraph(nodes=range(num_nodes))
    for node in range(1, num_nodes):
        parent = rng.randrange(node)
        graph.add_edge(parent, node, pick())
    return graph


def caterpillar_graph(
    spine_length: int, legs_per_node: int, max_weight: int = 1, seed: int = 0
) -> WeightedGraph:
    """A caterpillar: a spine path with ``legs_per_node`` leaves on each spine node.

    The unweighted diameter is ``spine_length + 1`` (leaf to leaf across the
    spine), so the family gives a linear-diameter topology whose node count
    can be scaled independently via the leg count.
    """
    if spine_length < 1:
        raise ValueError("spine_length must be at least 1")
    if legs_per_node < 0:
        raise ValueError("legs_per_node must be non-negative")
    rng = random.Random(seed)
    pick = _weight_picker(rng, max_weight)
    graph = WeightedGraph()
    for i in range(spine_length):
        graph.add_node(i)
        if i > 0:
            graph.add_edge(i - 1, i, pick())
    next_id = spine_length
    for i in range(spine_length):
        for _ in range(legs_per_node):
            graph.add_edge(i, next_id, pick())
            next_id += 1
    return graph


def erdos_renyi_graph(
    num_nodes: int,
    edge_probability: float,
    max_weight: int = 1,
    seed: int = 0,
    ensure_connected: bool = True,
) -> WeightedGraph:
    """An Erdős–Rényi ``G(n, p)`` graph with optional connectivity repair.

    When ``ensure_connected`` is true, a spanning path over a random node
    permutation is added so the graph is always connected; for
    ``p >= (1 + eps) ln n / n`` this changes the structure negligibly and
    keeps the diameter ``O(log n)`` in the dense regime.
    """
    if num_nodes < 1:
        raise ValueError("erdos_renyi_graph needs at least one node")
    if not 0 <= edge_probability <= 1:
        raise ValueError("edge_probability must lie in [0, 1]")
    rng = random.Random(seed)
    pick = _weight_picker(rng, max_weight)
    graph = WeightedGraph(nodes=range(num_nodes))
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if rng.random() < edge_probability:
                graph.add_edge(u, v, pick())
    if ensure_connected and num_nodes > 1:
        order = list(range(num_nodes))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            if not graph.has_edge(a, b):
                graph.add_edge(a, b, pick())
    return graph


def random_geometric_graph(
    num_nodes: int,
    connection_radius: float,
    max_weight: int = 1,
    seed: int = 0,
    ensure_connected: bool = True,
) -> WeightedGraph:
    """A random geometric graph on the unit square.

    Nodes are placed uniformly at random; nodes within ``connection_radius``
    are connected.  This is a standard model of sensor/wireless networks used
    in the example applications.
    """
    if num_nodes < 1:
        raise ValueError("random_geometric_graph needs at least one node")
    rng = random.Random(seed)
    pick = _weight_picker(rng, max_weight)
    positions = [(rng.random(), rng.random()) for _ in range(num_nodes)]
    graph = WeightedGraph(nodes=range(num_nodes))
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            dx = positions[u][0] - positions[v][0]
            dy = positions[u][1] - positions[v][1]
            if math.hypot(dx, dy) <= connection_radius:
                graph.add_edge(u, v, pick())
    if ensure_connected and num_nodes > 1:
        # Connect components greedily by nearest pairs so the topology stays
        # geometric in spirit.
        components = graph.connected_components()
        while len(components) > 1:
            base = components[0]
            best: Optional[Tuple[float, int, int]] = None
            for other in components[1:]:
                for u in base:
                    for v in other:
                        dx = positions[u][0] - positions[v][0]
                        dy = positions[u][1] - positions[v][1]
                        dist = math.hypot(dx, dy)
                        if best is None or dist < best[0]:
                            best = (dist, u, v)
            assert best is not None
            graph.add_edge(best[1], best[2], pick())
            components = graph.connected_components()
    return graph


def barbell_graph(
    clique_size: int, bridge_length: int, max_weight: int = 1, seed: int = 0
) -> WeightedGraph:
    """Two cliques of ``clique_size`` nodes joined by a path of ``bridge_length`` edges."""
    if clique_size < 1:
        raise ValueError("clique_size must be at least 1")
    if bridge_length < 1:
        raise ValueError("bridge_length must be at least 1")
    rng = random.Random(seed)
    pick = _weight_picker(rng, max_weight)
    graph = WeightedGraph()
    left = list(range(clique_size))
    right = list(range(clique_size, 2 * clique_size))
    for group in (left, right):
        for i, u in enumerate(group):
            graph.add_node(u)
            for v in group[i + 1 :]:
                graph.add_edge(u, v, pick())
    bridge = list(range(2 * clique_size, 2 * clique_size + bridge_length - 1))
    chain = [left[0]] + bridge + [right[0]]
    for a, b in zip(chain, chain[1:]):
        graph.add_edge(a, b, pick())
    return graph


def path_of_cliques(
    num_cliques: int, clique_size: int, max_weight: int = 1, seed: int = 0
) -> WeightedGraph:
    """``num_cliques`` cliques strung along a path.

    The unweighted diameter is ``Theta(num_cliques)`` while the node count is
    ``num_cliques * clique_size``; this family lets the benchmarks sweep the
    diameter independently of ``n``, which is exactly what the
    ``min{n^{9/10} D^{3/10}, n}`` crossover analysis needs.
    """
    if num_cliques < 1:
        raise ValueError("num_cliques must be at least 1")
    if clique_size < 1:
        raise ValueError("clique_size must be at least 1")
    rng = random.Random(seed)
    pick = _weight_picker(rng, max_weight)
    graph = WeightedGraph()
    previous_gate: Optional[int] = None
    for clique_index in range(num_cliques):
        base = clique_index * clique_size
        members = list(range(base, base + clique_size))
        for i, u in enumerate(members):
            graph.add_node(u)
            for v in members[i + 1 :]:
                graph.add_edge(u, v, pick())
        if previous_gate is not None:
            graph.add_edge(previous_gate, members[0], pick())
        previous_gate = members[-1]
    return graph


def low_diameter_expander(
    num_nodes: int, degree: int = 6, max_weight: int = 1, seed: int = 0
) -> WeightedGraph:
    """A random near-regular graph with ``O(log n)`` diameter.

    Built as the union of ``degree / 2`` random perfect matchings over a
    Hamiltonian cycle; the cycle guarantees connectivity, the matchings give
    expansion.  Used for the "small D" end of the benchmark sweeps.
    """
    if num_nodes < 4:
        raise ValueError("low_diameter_expander needs at least four nodes")
    if degree < 3:
        raise ValueError("degree must be at least 3")
    rng = random.Random(seed)
    pick = _weight_picker(rng, max_weight)
    graph = cycle_graph(num_nodes, max_weight=1, seed=seed)
    graph = graph.reweighted(lambda u, v, w: pick())
    num_matchings = max(1, (degree - 2) // 2)
    for _ in range(num_matchings):
        order = list(range(num_nodes))
        rng.shuffle(order)
        for a, b in zip(order[0::2], order[1::2]):
            if a != b and not graph.has_edge(a, b):
                graph.add_edge(a, b, pick())
    return graph


def _ring_cells(
    cx: int, cy: int, ring: int, side: int
) -> "list[Tuple[int, int]]":
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


# Angular slack (radians) added to each side of a cone before bounding how
# far the unit square reaches within it: far above the few-ulp error of the
# float sector computation in yao_spanner_graph, far below any cone's width.
_CONE_SLACK = 1e-9


def _cone_reach(ux: float, uy: float, start: float, width: float) -> float:
    """An upper bound on the distance from ``(ux, uy)`` to any point of the
    unit square in the directions ``[start, start + width]`` (radians, with
    ``width < pi``).

    The wedge meets the square in a convex polygon, so the farthest point is
    a vertex: where a bounding ray leaves the square, or a corner inside the
    wedge.  Corners are admitted with extra slack and the result is rounded
    up, so float error can only loosen the bound.
    """
    reach = 0.0
    for angle in (start, start + width):
        dx, dy = math.cos(angle), math.sin(angle)
        exit_distance = math.inf
        if dx > 0:
            exit_distance = (1.0 - ux) / dx
        elif dx < 0:
            exit_distance = -ux / dx
        if dy > 0:
            exit_distance = min(exit_distance, (1.0 - uy) / dy)
        elif dy < 0:
            exit_distance = min(exit_distance, -uy / dy)
        reach = max(reach, exit_distance)
    two_pi = 2.0 * math.pi
    for corner_x, corner_y in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        dx, dy = corner_x - ux, corner_y - uy
        offset = (math.atan2(dy, dx) - start + _CONE_SLACK) % two_pi
        if offset <= width + 2 * _CONE_SLACK:
            reach = max(reach, math.hypot(dx, dy))
    return reach * (1.0 + 1e-9) + 1e-12


def yao_spanner_graph(
    num_nodes: int,
    num_cones: int = 6,
    weight_scale: int = 1000,
    seed: int = 0,
) -> WeightedGraph:
    """A Yao-graph spanner on random unit-square points.

    Each node connects to its nearest neighbour within each of ``num_cones``
    equal angular cones, giving a connected, geometric, *bounded-degree*
    graph (out-degree at most ``num_cones``, constant expected in-degree)
    whose edge weights are the rounded Euclidean distances.  This is the
    bounded-degree end of the topology zoo -- maximum degree independent of
    ``n``, diameter ``Theta(sqrt(n))`` -- and the workload on which the
    closed-form symbolic engine is benchmarked, so construction must stay
    cheap at ``n = 4096``.  Neighbour search walks rings of a
    ``sqrt(n) x sqrt(n)`` bucket grid outward from each node and stops once
    every cone is settled: it holds a candidate nearer than the ring, or it
    is empty and the unit square ends within it nearer than the ring.  An
    interior node settles after an expected ``O(1)`` rings; a node whose
    cone points along the square's edge scans as far as the square reaches
    in that cone, up to the grid edge farthest from it.

    Parameters
    ----------
    num_nodes:
        Number of points placed uniformly in the unit square.
    num_cones:
        Number of angular sectors per node (at least 3; 6 keeps the graph
        connected in practice and any residual components are repaired by
        linking nearest pairs, as in :func:`random_geometric_graph`).
    weight_scale:
        Euclidean distances are scaled by this factor and rounded to
        positive integer weights.
    seed:
        Randomness seed; the construction is fully deterministic given it.
    """
    if num_nodes < 1:
        raise ValueError("yao_spanner_graph needs at least one node")
    if num_cones < 3:
        raise ValueError("num_cones must be at least 3")
    if weight_scale < 1:
        raise ValueError("weight_scale must be at least 1")
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
    cone_width = two_pi / num_cones
    for u in range(num_nodes):
        ux, uy = positions[u]
        cx, cy = cell_of(ux, uy)
        best: "list[Optional[Tuple[float, int]]]" = [None] * num_cones
        reach: "list[Optional[float]]" = [None] * num_cones

        def bound(k: int) -> float:
            """How far cone ``k`` needs scanning: to its best candidate or,
            while it is empty, as far as the square reaches within it."""
            if best[k] is not None:
                return best[k][0]
            if reach[k] is None:
                reach[k] = _cone_reach(
                    ux, uy, k * cone_width - _CONE_SLACK, cone_width + 2 * _CONE_SLACK
                )
            return reach[k]

        # Rings past the grid edge farthest from u's cell hold no cells.
        for ring in range(max(cx, cy, side - 1 - cx, side - 1 - cy) + 1):
            # A cell at Chebyshev ring distance r is at least (r-1)/side
            # away, so once every cone's bound is nearer than that the scan
            # is exact and can stop (never before ring 2: bounds are >= 0).
            floor_distance = (ring - 1) / side
            if floor_distance > 0 and all(
                floor_distance > bound(k) for k in range(num_cones)
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
        for entry in best:
            if entry is None:
                continue
            distance, v = entry
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, max(1, round(distance * weight_scale)))

    # Repair any residual disconnection by linking nearest pairs, keeping
    # the weights geometric (same scheme as random_geometric_graph).
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


def random_weighted_graph(
    num_nodes: int,
    average_degree: float = 4.0,
    max_weight: int = 100,
    seed: int = 0,
) -> WeightedGraph:
    """A connected random graph with roughly the requested average degree.

    A convenient default workload for the approximation-quality experiments:
    connected, sparse, with a wide weight range so weighted and unweighted
    diameters genuinely differ.
    """
    if num_nodes < 2:
        raise ValueError("random_weighted_graph needs at least two nodes")
    probability = min(1.0, average_degree / max(1, num_nodes - 1))
    return erdos_renyi_graph(
        num_nodes,
        probability,
        max_weight=max_weight,
        seed=seed,
        ensure_connected=True,
    )
