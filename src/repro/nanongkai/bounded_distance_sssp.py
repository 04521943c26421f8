"""Algorithm 2: Bounded-Distance SSSP.

Given a source ``s`` and a distance bound ``L``, every node ``v`` learns
whether ``d_{G,w}(s, v) <= L`` and, if so, the exact distance -- in exactly
``L + 1`` rounds.  The protocol is the classic "time-of-arrival" BFS
generalisation: a node whose (integer) distance from the source equals the
current round offset announces itself, so announcements travel outward at one
weight-unit per round and every announced value is already final.

This is the inner loop of Nanongkai's weight-rounding scheme: the rounded
weight functions ``w_i`` make the interesting distances small enough
(``L = (1 + 2/ε)·ℓ``) that ``O(L)`` rounds are affordable.

The protocol declares an arrival-gated :class:`MinPlusSchema` (announce
once, in the round whose offset reaches the value; value cap ``L``;
optional pre-loaded rounded weights), so the whole Algorithm 1/2 pipeline
runs on the closed-form ``symbolic`` execution engine.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.engine.schema import MinPlusSchema
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.simulator import RoundReport, Simulator

__all__ = ["BoundedDistanceSsspAlgorithm", "bounded_distance_sssp_protocol"]

_INF = math.inf

#: Memory key under which override weights are pre-loaded for the rounding
#: levels of Algorithm 1 (and declared to the symbolic engine's schema).
_WEIGHT_KEY = "override_weights"


class BoundedDistanceSsspAlgorithm(NodeAlgorithm):
    """Node program for Algorithm 2 (single source, integer weights, bound ``L``).

    Parameters
    ----------
    source:
        The source node (globally known, as in the paper).
    max_distance:
        The bound ``L``; nodes farther than ``L`` end with distance ``inf``.
    weight_key:
        Optional name of a per-node memory entry holding a dict
        ``neighbor -> weight`` to use instead of the network's own weights
        (the weight-rounding levels of Algorithm 1 pass rounded weights this
        way without rebuilding the network).
    """

    name = "bounded-distance-sssp"

    def __init__(
        self,
        source: int,
        max_distance: int,
        weight_key: Optional[str] = None,
    ) -> None:
        if max_distance < 0:
            raise ValueError(f"max_distance must be non-negative, got {max_distance}")
        self._source = source
        self._max_distance = max_distance
        self._weight_key = weight_key

    def message_schema(self) -> MinPlusSchema:
        # One anonymous min-plus column per node: ("bd", distance) payloads,
        # relaxed through the (possibly overridden) incident weight, accepted
        # only up to the bound L, and announced exactly once -- in the round
        # whose offset reaches the distance (the time-of-arrival discipline).
        # The run halts in round L + 1, exactly like receive() below.
        source = self._source
        bound = self._max_distance
        return MinPlusSchema(
            label="bd",
            tag="bdsssp",
            keys=None,
            initial=lambda node: [0 if node == source else _INF],
            send_initial="finite",
            add_edge_weight=True,
            value_cap=bound,
            arrival_gated=True,
            round_budget=bound + 1,
            weight_memory_key=self._weight_key,
            finalize=lambda node, row: {
                "distance": _INF if math.isinf(row[0]) else int(row[0]),
                "announced": not math.isinf(row[0]),
            },
        )

    def _weight(self, ctx: NodeContext, neighbor: int) -> int:
        if self._weight_key is not None:
            return ctx.memory[self._weight_key][neighbor]
        return ctx.edge_weight(neighbor)

    def initialize(self, ctx: NodeContext) -> None:
        ctx.memory["distance"] = 0 if ctx.node == self._source else _INF
        ctx.memory["announced"] = False
        if ctx.node == self._source:
            ctx.broadcast(("bd", 0), tag="bdsssp")
            ctx.memory["announced"] = True

    def receive(
        self, ctx: NodeContext, round_number: int, messages: List[Message]
    ) -> None:
        memory = ctx.memory
        for message in messages:
            _, dist = message.payload
            candidate = dist + self._weight(ctx, message.sender)
            if candidate <= self._max_distance and candidate < memory["distance"]:
                memory["distance"] = candidate
        # A node announces in the round whose offset equals its distance, so
        # the announcement is guaranteed final (weights are >= 1).
        if (
            not memory["announced"]
            and not math.isinf(memory["distance"])
            and memory["distance"] <= round_number
        ):
            ctx.broadcast(("bd", memory["distance"]), tag="bdsssp")
            memory["announced"] = True
        if round_number > self._max_distance:
            ctx.halt()

    def output(self, ctx: NodeContext) -> Any:
        return ctx.memory["distance"]


def bounded_distance_sssp_protocol(
    network: Network,
    source: int,
    max_distance: int,
    weights: Optional[Dict[int, Dict[int, int]]] = None,
) -> Tuple[Dict[int, float], RoundReport]:
    """Run Algorithm 2 on the simulator and return per-node distances.

    Parameters
    ----------
    network:
        The CONGEST network.
    source:
        Source node.
    max_distance:
        The bound ``L``.
    weights:
        Optional override weights ``{node: {neighbor: weight}}`` (used by the
        rounding levels of Algorithm 1).  A node with no incident edges may
        be omitted; omitting the weight of an existing edge is malformed and
        raises ``ValueError`` up front (rather than a bare ``KeyError`` deep
        inside the node program).  When omitted entirely the network's own
        weights are used.

    Returns
    -------
    (distances, report)
        ``distances[v]`` is ``d(source, v)`` if it is at most ``L`` and
        ``math.inf`` otherwise; ``report`` is the measured round cost
        (``L + 1`` rounds).
    """
    if source not in network.graph:
        raise KeyError(f"source {source} is not a node of the network")
    weight_key = None
    initial_memory = None
    if weights is not None:
        weight_key = _WEIGHT_KEY
        initial_memory = {}
        for node in network.nodes:
            table = weights.get(node)
            if table is None:
                # A node without incident overrides (e.g. an isolated node at
                # a rounding level) simply has nothing to look up.
                table = {}
            missing = [
                neighbor
                for neighbor in network.neighbors(node)
                if neighbor not in table
            ]
            if missing:
                raise ValueError(
                    f"malformed weight overrides: node {node} has no override "
                    f"for neighbor(s) {sorted(missing)}"
                )
            initial_memory[node] = {weight_key: dict(table)}
    simulator = Simulator(
        network, max_rounds=max(10, 4 * (max_distance + 2)) + network.num_nodes
    )
    result = simulator.run(
        BoundedDistanceSsspAlgorithm(source, max_distance, weight_key=weight_key),
        initial_memory=initial_memory,
    )
    return result.outputs, result.report
