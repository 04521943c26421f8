"""Distributed single-source shortest-path protocols.

Three protocols live here:

* :func:`distributed_bfs` -- unweighted BFS distances from one source in
  ``O(D)`` rounds (it reuses the BFS-tree primitive, whose depth labels *are*
  the hop distances).
* :func:`distributed_bellman_ford` -- exact weighted SSSP by synchronous
  relaxation; every node that improves its tentative distance re-announces it.
  Terminates by quiescence; the number of rounds is at most the hop diameter
  of the shortest-path forest, i.e. at most ``n - 1``.
* :func:`distributed_weighted_sssp` -- the exact SSSP entry point used by the
  classical baselines (an alias with explicit reporting).

These are the "obvious" classical protocols; the clever hop-bounded /
weight-rounded machinery of Nanongkai lives in :mod:`repro.nanongkai`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.engine.schema import MinPlusSchema
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.primitives import build_bfs_tree
from repro.congest.simulator import RoundReport, Simulator

__all__ = [
    "distributed_bfs",
    "distributed_bellman_ford",
    "distributed_weighted_sssp",
]

_INF = math.inf


def distributed_bfs(
    network: Network, source: int
) -> Tuple[Dict[int, int], RoundReport]:
    """Hop distances from ``source`` for every node, in ``O(D)`` rounds."""
    tree, report = build_bfs_tree(network, source)
    return dict(tree.depth), report


class _BellmanFordAlgorithm(NodeAlgorithm):
    """Synchronous distributed Bellman-Ford from one or more sources.

    Each node keeps a tentative distance per source; whenever a distance
    improves, the new value is broadcast to all neighbors in the next round.
    With a single source this is the textbook distributed Bellman-Ford; with
    all nodes as sources it doubles as a (bandwidth-charged) APSP protocol.
    """

    name = "bellman-ford"

    def __init__(self, sources: List[int], max_hops: Optional[int] = None) -> None:
        self._sources = list(sources)
        self._max_hops = max_hops

    def message_schema(self) -> MinPlusSchema:
        # One min-plus column per distinct source (initialize() dedups the
        # same way through its dict comprehension); announcements carry
        # ("d", source, distance) and relax through the incident edge weight.
        keys = tuple(dict.fromkeys(self._sources))
        return MinPlusSchema(
            label="d",
            tag="bf",
            keys=keys,
            initial=lambda node: [0 if key == node else _INF for key in keys],
            send_initial="finite",
            add_edge_weight=True,
            round_budget=self._max_hops,
            finalize=lambda node, row: {"distances": dict(zip(keys, row))},
        )

    def initialize(self, ctx: NodeContext) -> None:
        distances = {source: _INF for source in self._sources}
        if ctx.node in distances:
            distances[ctx.node] = 0
            ctx.broadcast(("d", ctx.node, 0), tag="bf")
        ctx.memory["distances"] = distances

    def receive(
        self, ctx: NodeContext, round_number: int, messages: List[Message]
    ) -> None:
        memory = ctx.memory
        distances = memory["distances"]
        improved: Dict[int, int] = {}
        for message in messages:
            _, source, dist = message.payload
            candidate = dist + ctx.edge_weight(message.sender)
            if candidate < distances[source]:
                distances[source] = candidate
                improved[source] = candidate
        if self._max_hops is not None and round_number >= self._max_hops:
            ctx.halt()
            return
        for source, dist in improved.items():
            ctx.broadcast(("d", source, dist), tag="bf")

    def output(self, ctx: NodeContext) -> Any:
        return dict(ctx.memory["distances"])


def distributed_bellman_ford(
    network: Network,
    source: int,
    max_hops: Optional[int] = None,
) -> Tuple[Dict[int, float], RoundReport]:
    """Exact weighted distances from ``source`` at every node.

    Parameters
    ----------
    network:
        The CONGEST network (its graph carries the weights).
    source:
        The source node.
    max_hops:
        Optional hop budget; with ``max_hops=l`` the result is the ``l``-hop
        bounded distance ``d^l_{G,w}(source, .)`` (used by the toolkit tests).

    Returns
    -------
    (distances, report)
        ``distances[v]`` is the distance learned by node ``v``.
    """
    if source not in network.graph:
        raise KeyError(f"source {source} is not a node of the network")
    simulator = Simulator(network)
    result = simulator.run(
        _BellmanFordAlgorithm([source], max_hops=max_hops), halt_on_quiescence=True
    )
    distances = {node: out[source] for node, out in result.outputs.items()}
    return distances, result.report


def distributed_weighted_sssp(
    network: Network, source: int
) -> Tuple[Dict[int, float], RoundReport]:
    """Exact weighted SSSP from ``source`` (alias of distributed Bellman-Ford).

    This is the protocol whose eccentricity output gives the classical
    2-approximation of diameter and radius (any node's eccentricity ``e``
    satisfies ``e <= D <= 2e`` and ``R <= e``).
    """
    return distributed_bellman_ford(network, source)


def multi_source_bellman_ford(
    network: Network,
    sources: List[int],
    max_hops: Optional[int] = None,
) -> Tuple[Dict[int, Dict[int, float]], RoundReport]:
    """Distances from every source in ``sources`` at every node, simultaneously.

    All sources flood concurrently; the bandwidth accounting of the simulator
    charges the congestion this causes, which is exactly how the classical
    ``Θ̃(n)`` APSP cost arises when ``sources`` is the whole node set.

    Returns
    -------
    (distances, report)
        ``distances[v][s]`` is the distance from ``s`` learned by node ``v``.
    """
    missing = [source for source in sources if source not in network.graph]
    if missing:
        raise KeyError(f"sources {missing} are not nodes of the network")
    simulator = Simulator(network)
    result = simulator.run(
        _BellmanFordAlgorithm(list(sources), max_hops=max_hops),
        halt_on_quiescence=True,
    )
    return result.outputs, result.report
