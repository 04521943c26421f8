"""Algorithms 4 and 5: the overlay (skeleton) network and SSSP on it.

Given a skeleton set ``S`` and the approximate bounded-hop distances
``d̃^ℓ(u, v)`` produced by Algorithm 3, Nanongkai's scheme builds two complete
weighted graphs on ``S``:

* ``(G'_S, w'_S)`` with ``w'_S({u, v}) = d̃^ℓ_{G,w}(u, v)``, and
* the *k-shortcut graph* ``(G''_S, w''_S)`` in which the edge ``{u, v}`` is
  replaced by the exact ``G'_S`` distance whenever ``u`` is among the ``k``
  closest skeleton nodes to ``v`` (or vice versa).  The point of the shortcut
  graph is Theorem 3.10 of Nanongkai: its hop diameter is below ``4|S|/k``,
  so bounded-hop distances on it are exact.

Algorithm 4 ("embedding") makes this structure globally known by having each
skeleton node broadcast its ``k`` shortest incident overlay edges
(``Õ(D + |S|·k)`` rounds -- here: a measured pipelined gather to the leader
plus a measured pipelined broadcast).  Algorithm 5 then runs Bounded-Hop SSSP
(Algorithm 1) *on the overlay*, simulating each overlay round with a global
broadcast (``O(D + a)`` network rounds when ``a`` overlay nodes announce);
its round charge here is assembled from the measured BFS-tree depth and the
per-overlay-round announcement counts of the executed protocol, exactly as
Lemma A.4 prescribes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.congest.engine.schema import BroadcastReplaySchema
from repro.congest.engine.symbolic import broadcast_replay_report
from repro.congest.network import Network
from repro.congest.primitives import (
    BfsTree,
    broadcast_values_from,
    build_bfs_tree,
    gather_values_to,
)
from repro.congest.simulator import RoundReport

__all__ = [
    "OverlayGraph",
    "OverlayEmbedding",
    "build_skeleton_graph",
    "build_shortcut_graph",
    "embed_overlay_network",
    "overlay_sssp_protocol",
]

_INF = math.inf


class OverlayGraph:
    """A complete graph on the skeleton set with (possibly fractional) weights.

    The overlay weights are approximate distances (``d̃`` values), which are
    rational rather than integral, so the overlay gets its own small graph
    class instead of reusing :class:`~repro.graphs.WeightedGraph` (whose
    positive-integer invariant mirrors the paper's input model).
    """

    def __init__(self, nodes: List[int]) -> None:
        self._nodes = list(nodes)
        self._weights: Dict[FrozenSet[int], float] = {}

    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> List[int]:
        """The skeleton nodes."""
        return list(self._nodes)

    @property
    def num_nodes(self) -> int:
        """Number of skeleton nodes."""
        return len(self._nodes)

    def set_weight(self, u: int, v: int, weight: float) -> None:
        """Set the weight of overlay edge ``{u, v}`` (must be positive)."""
        if u == v:
            raise ValueError("overlay self loops are not allowed")
        if weight <= 0:
            raise ValueError(f"overlay weight must be positive, got {weight}")
        self._weights[frozenset((u, v))] = float(weight)

    def weight(self, u: int, v: int) -> float:
        """Weight of overlay edge ``{u, v}`` (``inf`` if the d̃ value was inf)."""
        return self._weights.get(frozenset((u, v)), _INF)

    def edges(self) -> List[Tuple[int, int, float]]:
        """All finite-weight overlay edges as ``(u, v, weight)`` with ``u < v``."""
        out = []
        for pair, weight in self._weights.items():
            u, v = sorted(pair)
            out.append((u, v, weight))
        return sorted(out)

    def neighbors(self, node: int) -> List[Tuple[int, float]]:
        """All finite-weight overlay neighbors of ``node`` with weights."""
        out = []
        for other in self._nodes:
            if other == node:
                continue
            weight = self.weight(node, other)
            if not math.isinf(weight):
                out.append((other, weight))
        return out

    # ------------------------------------------------------------------ #
    def dijkstra(self, source: int) -> Dict[int, float]:
        """Exact single-source distances on the overlay."""
        distances = {node: _INF for node in self._nodes}
        distances[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        visited: set = set()
        while heap:
            dist, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            for neighbor, weight in self.neighbors(node):
                candidate = dist + weight
                if candidate < distances[neighbor]:
                    distances[neighbor] = candidate
                    heapq.heappush(heap, (candidate, neighbor))
        return distances

    def bounded_hop_distances(self, source: int, max_hops: int) -> Dict[int, float]:
        """Exact ``max_hops``-hop-bounded distances on the overlay."""
        current = {node: _INF for node in self._nodes}
        current[source] = 0.0
        best = dict(current)
        for _ in range(max_hops):
            nxt = dict(current)
            for node in self._nodes:
                if math.isinf(current[node]):
                    continue
                for neighbor, weight in self.neighbors(node):
                    candidate = current[node] + weight
                    if candidate < nxt[neighbor]:
                        nxt[neighbor] = candidate
            current = nxt
            for node, value in current.items():
                if value < best[node]:
                    best[node] = value
        return best

    def k_nearest(self, node: int, k: int) -> List[int]:
        """The ``k`` skeleton nodes nearest to ``node`` in overlay distance.

        ``node`` itself is excluded; ties are broken by node identifier so the
        result is deterministic.
        """
        distances = self.dijkstra(node)
        others = sorted(
            (other for other in self._nodes if other != node),
            key=lambda other: (distances[other], other),
        )
        return others[: max(0, k)]


def build_skeleton_graph(
    skeleton: List[int], dtilde: Dict[int, Dict[int, float]]
) -> OverlayGraph:
    """Build ``(G'_S, w'_S)`` from the Algorithm-3 output.

    Parameters
    ----------
    skeleton:
        The skeleton set ``S``.
    dtilde:
        ``dtilde[v][u] = d̃^ℓ_{G,w}(u, v)`` as known at node ``v`` (only the
        rows for ``v ∈ S`` are consulted).
    """
    overlay = OverlayGraph(skeleton)
    for i, u in enumerate(skeleton):
        for v in skeleton[i + 1 :]:
            weight = dtilde[v][u]
            if not math.isinf(weight) and weight > 0:
                overlay.set_weight(u, v, weight)
    return overlay


def build_shortcut_graph(
    skeleton_graph: OverlayGraph, k: int
) -> Tuple[OverlayGraph, Dict[int, List[int]]]:
    """Build the k-shortcut graph ``(G''_S, w''_S)`` of Lemma 3.3.

    Returns the shortcut overlay together with the ``N^k_S`` neighbourhoods.
    """
    nodes = skeleton_graph.nodes
    shortcut = OverlayGraph(nodes)
    nearest: Dict[int, List[int]] = {}
    exact: Dict[int, Dict[int, float]] = {}
    for node in nodes:
        exact[node] = skeleton_graph.dijkstra(node)
        nearest[node] = skeleton_graph.k_nearest(node, k)
    nearest_sets = {node: set(members) for node, members in nearest.items()}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if v in nearest_sets[u] or u in nearest_sets[v]:
                weight = exact[u][v]
            else:
                weight = skeleton_graph.weight(u, v)
            if not math.isinf(weight) and weight > 0:
                shortcut.set_weight(u, v, weight)
    return shortcut, nearest


@dataclass
class OverlayEmbedding:
    """Result of Algorithm 4: the embedded overlay networks and their cost.

    Attributes
    ----------
    skeleton:
        The skeleton set ``S``.
    skeleton_graph:
        ``(G'_S, w'_S)``.
    shortcut_graph:
        ``(G''_S, w''_S)``.
    k:
        The shortcut parameter ``k``.
    nearest:
        ``N^k_S(s)`` for each ``s ∈ S``.
    tree:
        The BFS tree used for the gather/broadcast (reused by later phases).
    report:
        Measured round cost of the embedding.
    """

    skeleton: List[int]
    skeleton_graph: OverlayGraph
    shortcut_graph: OverlayGraph
    k: int
    nearest: Dict[int, List[int]]
    tree: BfsTree
    report: RoundReport = field(default_factory=RoundReport)

    @property
    def hop_bound(self) -> int:
        """The overlay hop bound ``4|S|/k`` used by Algorithm 5."""
        return max(1, math.ceil(4 * len(self.skeleton) / max(1, self.k)))


def embed_overlay_network(
    network: Network,
    skeleton: List[int],
    dtilde: Dict[int, Dict[int, float]],
    k: int,
    tree: Optional[BfsTree] = None,
) -> OverlayEmbedding:
    """Algorithm 4: embed ``(G''_S, w''_S)`` and charge its round cost.

    The communication pattern of the paper's Algorithm 4 is: every skeleton
    node announces its ``k`` shortest incident overlay edges to the whole
    network (``O(D + |S|·k)`` rounds).  We realise it as a measured pipelined
    gather of those records to the leader followed by a measured pipelined
    broadcast; the shortcut graph itself is then local computation at every
    node (free in the CONGEST model, Observation 3.12 in Nanongkai).
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    skeleton = sorted(skeleton)
    skeleton_graph = build_skeleton_graph(skeleton, dtilde)

    reports: List[RoundReport] = []
    leader = min(network.nodes)
    if tree is None:
        tree, tree_report = build_bfs_tree(network, leader)
        reports.append(tree_report)

    # Each skeleton node contributes its k shortest incident overlay edges.
    records: Dict[int, List[Tuple[int, int, float]]] = {
        node: [] for node in network.nodes
    }
    for s in skeleton:
        incident = sorted(
            skeleton_graph.neighbors(s), key=lambda item: (item[1], item[0])
        )[: k]
        records[s] = [(s, neighbor, weight) for neighbor, weight in incident]

    gathered, gather_report = gather_values_to(network, tree.root, records, tree=tree)
    reports.append(gather_report)
    _, broadcast_report = broadcast_values_from(
        network, tree.root, gathered, tree=tree
    )
    reports.append(broadcast_report)

    shortcut_graph, nearest = build_shortcut_graph(skeleton_graph, k)

    report = RoundReport.sequential(reports)
    report.protocol = "overlay-embedding"
    return OverlayEmbedding(
        skeleton=skeleton,
        skeleton_graph=skeleton_graph,
        shortcut_graph=shortcut_graph,
        k=k,
        nearest=nearest,
        tree=tree,
        report=report,
    )


def _overlay_rounding_levels(
    edges: List[Tuple[int, int, float]], num_nodes: int, epsilon: float
) -> int:
    max_weight = max((w for _, _, w in edges), default=1.0)
    levels = math.ceil(
        math.log2(max(2.0, 2 * num_nodes * max(1.0, max_weight) / epsilon))
    )
    return max(1, levels + 1)


def overlay_sssp_protocol(
    network: Network,
    embedding: OverlayEmbedding,
    source: int,
    epsilon: float,
    hop_bound: Optional[int] = None,
) -> Tuple[Dict[int, float], RoundReport]:
    """Algorithm 5: ``d̃^{4|S|/k}_{G''_S, w''_S}(source, u)`` for every ``u ∈ S``.

    The overlay protocol is Bounded-Hop SSSP (Algorithm 1) run on
    ``(G''_S, w''_S)``; each overlay round is simulated in the real network by
    a global broadcast costing ``O(D + a)`` rounds where ``a`` is the number
    of overlay nodes announcing in that round (the paper's Algorithm 5,
    steps 3-4).  The announcement schedule has a closed form: per level the
    rounded weights are integers ``>= 1``, so every relaxation in overlay
    round ``r`` yields a value ``>= r + 1`` and a node announces exactly in
    the round equal to its final distance.  Each level is therefore one
    Dijkstra on the overlay capped at the distance bound, and its
    announcement counts are the histogram of the final distances over
    ``0..bound``.  The returned report charges ``depth(BFS tree) + 1 + a_r``
    network rounds per overlay round, plus the final ``O(D + |S|)``
    pipelined broadcast that hands the results to every node of the
    network.

    Returns
    -------
    (distances, report)
        ``distances[u]`` for ``u ∈ S`` (``math.inf`` when unreachable within
        the hop bound), and the assembled round charge.
    """
    overlay = embedding.shortcut_graph
    skeleton = embedding.skeleton
    if source not in skeleton:
        raise KeyError(f"source {source} is not a skeleton node")
    if hop_bound is None:
        hop_bound = embedding.hop_bound
    edges = overlay.edges()
    levels = _overlay_rounding_levels(edges, overlay.num_nodes, epsilon)
    bound = int(math.floor((1 + 2 / epsilon) * hop_bound))
    depth = embedding.tree.height
    adjacency: Dict[int, List[Tuple[int, float]]] = {node: [] for node in skeleton}
    for u, v, weight in edges:
        adjacency[u].append((v, weight))
        adjacency[v].append((u, weight))

    best: Dict[int, float] = {node: _INF for node in skeleton}
    best[source] = 0.0

    # Per-overlay-round announcer counts, across all levels: the replay's
    # whole communication pattern, declared to the symbolic tier below.
    announcement_counts: List[int] = []

    for level in range(levels):
        scale = epsilon * (2**level)
        heap = [(0, source)] if bound >= 0 else []
        distances = {node: d for d, node in heap}
        while heap:
            d, u = heapq.heappop(heap)
            if d > distances[u]:
                continue  # stale heap entry
            for v, weight in adjacency[u]:
                candidate = d + max(1, math.ceil(2 * hop_bound * weight / scale))
                if candidate <= bound and candidate < distances.get(v, _INF):
                    distances[v] = candidate
                    heapq.heappush(heap, (candidate, v))
        counts = [0] * (bound + 1)
        rescale = scale / (2 * hop_bound)
        for node, value in distances.items():
            counts[value] += 1
            rescaled = value * rescale
            if rescaled < best[node]:
                best[node] = rescaled
        announcement_counts.extend(counts)

    # Hand the |S| results to every node of the network (pipelined broadcast).
    payload = [
        (node, -1 if math.isinf(best[node]) else best[node]) for node in skeleton
    ]
    _, broadcast_report = broadcast_values_from(
        network, embedding.tree.root, payload, tree=embedding.tree
    )

    # The replay's round cost is a closed form of the announcement schedule
    # (Lemma A.4: depth + 1 + a_r network rounds per overlay round, a_r
    # records of one id + one value to the other skeleton nodes): declare it
    # as a schema and read the report off the symbolic tier.
    replay_schema = BroadcastReplaySchema(
        label="overlay-sssp-core",
        announcements=tuple(announcement_counts),
        fanout=max(1, len(skeleton) - 1),
        depth=depth,
    )
    overlay_report = broadcast_replay_report(replay_schema, network.word_bits)
    report = RoundReport.sequential([overlay_report, broadcast_report])
    report.protocol = "overlay-sssp"
    return best, report
