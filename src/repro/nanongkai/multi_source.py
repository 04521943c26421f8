"""Algorithm 3: Bounded-Hop Multi-Source Shortest Paths with random delays.

Runs one Algorithm-1 (Bounded-Hop SSSP) instance per source in ``S``
*concurrently*, staggering the instances by random delays chosen by the
leader, so that with high probability no node has to broadcast too many
messages in the same round.  Every node ends up knowing
``d̃^ℓ_{G,w}(s, v)`` for every source ``s ∈ S`` in ``Õ(D + ℓ/ε + |S|)``
rounds.

Implementation notes
--------------------
* The leader's sampling and pipelined broadcast of the ``|S|`` delays is run
  for real on the simulator (``O(D + |S|)`` rounds) and merged into the
  returned report.
* The paper's Algorithm 3 smooths residual collisions by letting each node
  spend ``⌈log n⌉`` sub-rounds per round; our simulator instead *charges* any
  residual per-edge contention through the congestion-adjusted round count,
  which is the same accounting applied to every other protocol in the
  library (see DESIGN.md).
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Optional, Tuple

from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.engine.schema import MinPlusSchema
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.primitives import broadcast_values_from, build_bfs_tree
from repro.congest.simulator import RoundReport, Simulator
from repro.graphs.rounding import rounded_weight, rounding_levels
from repro.nanongkai.bounded_hop_sssp import level_distance_bound

__all__ = [
    "MultiSourceBoundedHopAlgorithm",
    "multi_source_bounded_hop_protocol",
    "multi_source_bounded_hop_oracle",
]

_INF = math.inf


class MultiSourceBoundedHopAlgorithm(NodeAlgorithm):
    """Concurrent, delay-staggered execution of one Algorithm 1 per source.

    Instance ``j`` (source ``sources[j]``) runs its level ``i`` during the
    global-round window ``[σ, σ + L]`` with
    ``σ = delays[j] + i·(L + 1) + 1``; within the window, a node announces
    its (final) rounded distance ``d`` at offset ``d``, exactly as in
    Algorithm 2.
    """

    name = "multi-source-bounded-hop-sssp"

    def __init__(
        self,
        sources: List[int],
        hop_bound: int,
        epsilon: float,
        levels: int,
        delays: List[int],
    ) -> None:
        if len(delays) != len(sources):
            raise ValueError("one delay per source is required")
        self._sources = list(sources)
        self._hop_bound = hop_bound
        self._epsilon = epsilon
        self._levels = levels
        self._delays = list(delays)
        self._bound = level_distance_bound(hop_bound, epsilon)
        window = self._bound + 1
        self._window = window
        self._duration = max(self._delays) + levels * window + 2

    def message_schema(self) -> MinPlusSchema:
        # One min-plus column per (instance, level) pair, live only inside
        # its delay-staggered window: deliveries relax a column while its
        # window is open at the receiver (a message sent in the window's
        # last round is charged but dropped, like a closed-level
        # announcement), relaxations go through the level's rounded weights
        # and the bound cap, and a column announces once -- in the window
        # round whose offset reaches its distance, exactly Algorithm 2's
        # schedule.  Payloads flatten the key into ("ms", j, i, distance).
        sources = self._sources
        levels = self._levels
        bound = self._bound
        window = self._window
        delays = self._delays
        hop_bound = self._hop_bound
        epsilon = self._epsilon
        keys = tuple(
            (instance, level)
            for instance in range(len(sources))
            for level in range(levels)
        )
        windows = tuple(
            (delays[instance] + 1 + level * window, delays[instance] + (level + 1) * window)
            for instance, level in keys
        )

        def initial(node: int) -> List[float]:
            return [
                0 if node == sources[instance] else _INF for instance, _level in keys
            ]

        def column_weight(column: int, weight: int) -> int:
            return rounded_weight(weight, hop_bound, epsilon, keys[column][1])

        def finalize(node: int, row: Any) -> Dict[str, Any]:
            # Rebuild the memory the node program leaves behind: the final
            # level's per-instance state, and the running best folded level
            # by level (increasing, exactly the window order of receive()).
            best = {
                source: (0.0 if node == source else _INF) for source in sources
            }
            current: List[float] = [_INF] * len(sources)
            announced: List[bool] = [False] * len(sources)
            for column, (instance, level) in enumerate(keys):
                value = row[column]
                finite = not math.isinf(value)
                if level == levels - 1:
                    current[instance] = int(value) if finite else _INF
                    announced[instance] = finite
                if not finite:
                    continue
                scale = epsilon * (2**level) / (2 * hop_bound)
                rescaled = int(value) * scale
                source = sources[instance]
                if rescaled < best[source]:
                    best[source] = rescaled
            return {
                "best": best,
                "current_distance": current,
                "current_level": [levels - 1 if levels else -1] * len(sources),
                "announced": announced,
            }

        return MinPlusSchema(
            label="ms",
            tag="mssp",
            keys=keys,
            flatten_keys=True,
            initial=initial,
            send_initial="none",
            add_edge_weight=True,
            value_cap=bound,
            arrival_gated=True,
            round_budget=self._duration,
            column_windows=windows,
            column_weight=column_weight,
            finalize=finalize,
        )

    # ------------------------------------------------------------------ #
    def _rounded_weight(self, weight: int, level: int) -> int:
        return rounded_weight(weight, self._hop_bound, self._epsilon, level)

    def _level_and_offset(self, instance: int, round_number: int) -> Optional[Tuple[int, int]]:
        """Return ``(level, offset)`` if the instance is active this round."""
        local = round_number - self._delays[instance] - 1
        if local < 0:
            return None
        level, offset = divmod(local, self._window)
        if level >= self._levels:
            return None
        return level, offset

    def initialize(self, ctx: NodeContext) -> None:
        num_instances = len(self._sources)
        ctx.memory["best"] = {
            source: (0.0 if ctx.node == source else _INF) for source in self._sources
        }
        ctx.memory["current_distance"] = [_INF] * num_instances
        ctx.memory["current_level"] = [-1] * num_instances
        ctx.memory["announced"] = [False] * num_instances

    def _start_level(self, ctx: NodeContext, instance: int, level: int) -> None:
        memory = ctx.memory
        memory["current_level"][instance] = level
        memory["announced"][instance] = False
        memory["current_distance"][instance] = (
            0 if ctx.node == self._sources[instance] else _INF
        )

    def _fold_level(self, ctx: NodeContext, instance: int) -> None:
        """Fold the finished level's rounded distance into the running best."""
        memory = ctx.memory
        level = memory["current_level"][instance]
        if level < 0:
            return
        distance = memory["current_distance"][instance]
        if math.isinf(distance) or distance > self._bound:
            return
        scale = self._epsilon * (2**level) / (2 * self._hop_bound)
        source = self._sources[instance]
        rescaled = distance * scale
        if rescaled < memory["best"][source]:
            memory["best"][source] = rescaled

    def receive(
        self, ctx: NodeContext, round_number: int, messages: List[Message]
    ) -> None:
        memory = ctx.memory

        # Group incoming announcements by instance; they carry (instance,
        # level, distance) and only matter while the matching level window is
        # still open at this node.
        pending: Dict[int, List[Message]] = {}
        for message in messages:
            _, instance, level, _dist = message.payload
            pending.setdefault(instance, []).append(message)

        for instance in range(len(self._sources)):
            state = self._level_and_offset(instance, round_number)
            if state is None:
                continue
            level, offset = state
            if memory["current_level"][instance] != level:
                # A new level window just opened: bank the previous level's
                # result and reset the per-level state.
                self._fold_level(ctx, instance)
                self._start_level(ctx, instance, level)

            for message in pending.get(instance, []):
                _, _, msg_level, dist = message.payload
                if msg_level != level:
                    continue
                weight = self._rounded_weight(
                    ctx.edge_weight(message.sender), level
                )
                candidate = dist + weight
                if (
                    candidate <= self._bound
                    and candidate < memory["current_distance"][instance]
                ):
                    memory["current_distance"][instance] = candidate

            distance = memory["current_distance"][instance]
            if (
                not memory["announced"][instance]
                and not math.isinf(distance)
                and distance <= offset
            ):
                ctx.broadcast(("ms", instance, level, distance), tag="mssp")
                memory["announced"][instance] = True

        if round_number >= self._duration:
            for instance in range(len(self._sources)):
                self._fold_level(ctx, instance)
            ctx.halt()

    def output(self, ctx: NodeContext) -> Any:
        return dict(ctx.memory["best"])


def multi_source_bounded_hop_oracle(
    network: Network,
    sources: List[int],
    hop_bound: int,
    epsilon: float,
    levels: Optional[int] = None,
) -> Dict[int, Dict[int, float]]:
    """Sequential ground truth for Algorithm 3, in the protocol's output shape.

    Computes ``d̃^ℓ_{G,w}(s, v)`` for every ``s ∈ sources`` with the batched
    CSR kernels (one multi-source pass per rounding level) and returns it as
    ``{v: {s: distance}}`` -- exactly the table
    :func:`multi_source_bounded_hop_protocol` produces, so differential tests
    can compare the two element-wise.
    """
    from repro.graphs.rounding import approx_bounded_hop_distances_multi

    if not sources:
        raise ValueError("the source set must be non-empty")
    missing = [source for source in sources if source not in network.graph]
    if missing:
        raise KeyError(f"sources {missing} are not nodes of the network")
    per_source = approx_bounded_hop_distances_multi(
        network.graph, sources, hop_bound, epsilon, levels=levels
    )
    return {
        node: {source: per_source[source][node] for source in sources}
        for node in network.nodes
    }


def multi_source_bounded_hop_protocol(
    network: Network,
    sources: List[int],
    hop_bound: int,
    epsilon: float,
    levels: Optional[int] = None,
    seed: int = 0,
    charge_delay_broadcast: bool = True,
) -> Tuple[Dict[int, Dict[int, float]], RoundReport]:
    """Run Algorithm 3: every node learns ``d̃^ℓ(s, ·)`` for every ``s ∈ sources``.

    Parameters
    ----------
    network:
        The CONGEST network.
    sources:
        The source set ``S`` (e.g. a sampled skeleton set).
    hop_bound:
        The hop bound ``ℓ``.
    epsilon:
        Accuracy parameter ``ε``.
    levels:
        Number of rounding levels (defaults to ``O(log(nW/ε))``).
    seed:
        Seed for the leader's random delays.
    charge_delay_broadcast:
        Include the ``O(D + |S|)``-round pipelined broadcast of the delays in
        the returned report (on by default, as in the paper).

    Returns
    -------
    (distances, report)
        ``distances[v][s] = d̃^ℓ_{G,w}(s, v)`` and the measured round cost.
    """
    if not sources:
        raise ValueError("the source set must be non-empty")
    missing = [source for source in sources if source not in network.graph]
    if missing:
        raise KeyError(f"sources {missing} are not nodes of the network")
    if levels is None:
        levels = rounding_levels(network.graph, hop_bound, epsilon)

    rng = random.Random(seed)
    num_sources = len(sources)
    delay_cap = max(1, num_sources * max(1, math.ceil(math.log2(network.num_nodes + 1))))
    delays = [rng.randint(0, delay_cap) for _ in range(num_sources)]

    reports: List[RoundReport] = []
    if charge_delay_broadcast:
        leader = min(network.nodes)
        tree, tree_report = build_bfs_tree(network, leader)
        _, delay_report = broadcast_values_from(network, leader, delays, tree=tree)
        reports.extend([tree_report, delay_report])

    algorithm = MultiSourceBoundedHopAlgorithm(
        sources, hop_bound, epsilon, levels, delays
    )
    duration = algorithm._duration
    simulator = Simulator(network, max_rounds=duration + network.num_nodes + 10)
    result = simulator.run(algorithm)
    reports.append(result.report)

    report = RoundReport.sequential(reports)
    report.protocol = "multi-source-bounded-hop-sssp"
    return result.outputs, report
