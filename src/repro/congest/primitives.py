"""Building-block CONGEST protocols: BFS tree, broadcast, convergecast, leader election.

Every higher-level routine in the paper is phrased in terms of a handful of
standard primitives:

* building a BFS tree rooted at a designated node (``O(D)`` rounds),
* broadcasting a value from the root to every node over that tree
  (``O(D)`` rounds, or ``O(D + k)`` pipelined for ``k`` values),
* converge-casting an aggregate (max / min / sum) up the tree
  (``O(D)`` rounds), and
* leader election (the paper simply assumes a pre-defined ``leader`` node;
  the helper here elects the minimum identifier).

All of them are implemented as genuine message-passing node programs on the
simulator so their round counts are *measured*, not assumed.
"""

from __future__ import annotations

import collections.abc
import functools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.engine import PreparedRun, resolve_engine
from repro.congest.engine.schema import MinPlusSchema, TreeSchema
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.simulator import RoundReport, Simulator, default_max_rounds

__all__ = [
    "BfsTree",
    "build_bfs_tree",
    "broadcast_from",
    "broadcast_values_from",
    "convergecast_max",
    "convergecast_min",
    "convergecast_sum",
    "convergecast_aggregate",
    "zero_convergecast_report",
    "gather_values_to",
    "elect_leader",
]


@dataclass
class BfsTree:
    """A rooted BFS (breadth-first search) spanning tree of the network.

    Attributes
    ----------
    root:
        The root node.
    parent:
        Mapping node -> parent node (the root maps to ``None``).
    depth:
        Mapping node -> hop distance from the root.
    children:
        Mapping node -> list of children.
    """

    root: int
    parent: Dict[int, Optional[int]]
    depth: Dict[int, int]
    children: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def height(self) -> int:
        """The depth of the deepest node (equals the root's eccentricity)."""
        return max(self.depth.values()) if self.depth else 0

    def nodes_by_depth(self) -> List[List[int]]:
        """Return nodes grouped by depth, shallowest first."""
        layers: List[List[int]] = [[] for _ in range(self.height + 1)]
        for node, depth in self.depth.items():
            layers[depth].append(node)
        return layers


# --------------------------------------------------------------------------- #
# BFS tree construction with echo-based termination detection
# --------------------------------------------------------------------------- #
class _BfsTreeAlgorithm(NodeAlgorithm):
    """Flood-and-echo BFS tree construction.

    Phases (all message-driven, no global knowledge beyond ``n``):

    1. *Explore*: the root floods ``explore`` tokens; the first token a node
       receives fixes its parent and depth, and the node re-floods.
    2. *Adopt*: one round after exploring, a node tells each neighbor whether
       it adopted it as its parent, so every node learns its children and
       which neighbors are already covered.
    3. *Echo*: a node whose children have all echoed (leaves echo immediately)
       sends ``done`` to its parent.  When the root has heard ``done`` from
       all children the tree is complete.
    4. *Terminate*: the root floods ``stop`` down the tree and every node
       halts after forwarding it.

    Total round count is ``O(D)``.
    """

    name = "bfs-tree"

    def __init__(self, root: int) -> None:
        self._root = root

    def message_schema(self) -> TreeSchema:
        # The explore/adopt/reject/done/stop schedule is fully determined by
        # the topology and the root; the dense engine derives it analytically.
        return TreeSchema(kind="bfs", tag="bfs", root=self._root)

    def initialize(self, ctx: NodeContext) -> None:
        memory = ctx.memory
        memory["parent"] = None
        memory["depth"] = None
        memory["children"] = []
        memory["pending_neighbors"] = set(ctx.neighbors)
        memory["echoed_children"] = set()
        memory["sent_echo"] = False
        memory["explored"] = False
        if ctx.node == self._root:
            memory["depth"] = 0
            memory["explored"] = True
            ctx.broadcast(("explore", 0), tag="bfs")

    def receive(
        self, ctx: NodeContext, round_number: int, messages: List[Message]
    ) -> None:
        memory = ctx.memory
        explore_msgs = [m for m in messages if m.payload[0] == "explore"]
        adopt_msgs = [m for m in messages if m.payload[0] == "adopt"]
        reject_msgs = [m for m in messages if m.payload[0] == "reject"]
        done_msgs = [m for m in messages if m.payload[0] == "done"]
        stop_msgs = [m for m in messages if m.payload[0] == "stop"]

        # Phase 1: adopt a parent on the first explore token received.
        if not memory["explored"] and explore_msgs:
            best = min(explore_msgs, key=lambda m: (m.payload[1], m.sender))
            memory["parent"] = best.sender
            memory["depth"] = best.payload[1] + 1
            memory["explored"] = True
            ctx.send(best.sender, ("adopt",), tag="bfs")
            for message in explore_msgs:
                if message.sender != best.sender:
                    ctx.send(message.sender, ("reject",), tag="bfs")
            for neighbor in ctx.neighbors:
                if neighbor not in {m.sender for m in explore_msgs}:
                    ctx.send(neighbor, ("explore", memory["depth"]), tag="bfs")
            memory["pending_neighbors"] -= {m.sender for m in explore_msgs}
        elif memory["explored"] and explore_msgs:
            # Already in the tree: decline late explore offers.
            for message in explore_msgs:
                ctx.send(message.sender, ("reject",), tag="bfs")
                memory["pending_neighbors"].discard(message.sender)

        # Phase 2: record children and covered neighbors.
        for message in adopt_msgs:
            memory["children"].append(message.sender)
            memory["pending_neighbors"].discard(message.sender)
        for message in reject_msgs:
            memory["pending_neighbors"].discard(message.sender)

        # Phase 3: echo completion up the tree.
        for message in done_msgs:
            memory["echoed_children"].add(message.sender)

        if (
            memory["explored"]
            and not memory["sent_echo"]
            and not memory["pending_neighbors"]
            and set(memory["children"]) <= memory["echoed_children"]
        ):
            memory["sent_echo"] = True
            if ctx.node == self._root:
                # Tree complete: start the termination wave.
                for child in memory["children"]:
                    ctx.send(child, ("stop",), tag="bfs")
                ctx.halt()
            else:
                ctx.send(memory["parent"], ("done",), tag="bfs")

        # Phase 4: forward the stop wave and halt.
        if stop_msgs:
            for child in memory["children"]:
                ctx.send(child, ("stop",), tag="bfs")
            ctx.halt()

    def output(self, ctx: NodeContext) -> Any:
        return {
            "parent": ctx.memory["parent"],
            "depth": ctx.memory["depth"],
            "children": list(ctx.memory["children"]),
        }


def _unreachable_from(network: Network, root: int) -> List[int]:
    """Nodes the explore flood can never reach (normally none: a freshly
    constructed :class:`Network` is connected, but the underlying graph is
    mutable and may have been disconnected afterwards)."""
    seen = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for neighbor in network.neighbors(node):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return [node for node in network.nodes if node not in seen]


def build_bfs_tree(network: Network, root: int) -> Tuple[BfsTree, RoundReport]:
    """Construct a BFS tree rooted at ``root`` and return it with its round cost.

    The run is memoized on ``network`` per topology (see
    :meth:`Network._memoized`), root and the engine that resolves for it,
    so Theorem 1.1's repeated builds on the leader simulate once while
    forcing another engine still executes that engine.  Every call returns
    its own copies of the tree and the report: callers mutate both.

    Raises
    ------
    KeyError
        If ``root`` is not a node of the network.
    ValueError
        If the network has become disconnected (the graph is mutable), naming
        the nodes the flood cannot reach.  Checked up front -- on a
        disconnected topology the unreached nodes would never halt and the
        protocol would grind into the round limit -- and therefore
        identically on every execution engine.
    """
    if root not in network.graph:
        raise KeyError(f"root {root} is not a node of the network")
    engine, prepared = resolve_engine(None, network, _BfsTreeAlgorithm(root))
    tree, report = network._memoized(
        ("bfs-tree", root, engine.name), lambda: _run_bfs_tree(network, root, prepared)
    )
    children = {node: list(kids) for node, kids in tree.children.items()}
    return (
        BfsTree(root, dict(tree.parent), dict(tree.depth), children),
        replace(report),
    )


def _run_bfs_tree(
    network: Network, root: int, prepared: PreparedRun
) -> Tuple[BfsTree, RoundReport]:
    unreachable = _unreachable_from(network, root)
    if unreachable:
        raise ValueError(
            f"BFS tree rooted at {root} cannot reach nodes {unreachable}: "
            "the network topology is disconnected"
        )
    result = prepared(default_max_rounds(network), False)
    parent = {node: out["parent"] for node, out in result.outputs.items()}
    depth = {node: out["depth"] for node, out in result.outputs.items()}
    children = {node: out["children"] for node, out in result.outputs.items()}
    missing = [node for node, d in depth.items() if d is None]
    if missing:  # pragma: no cover - the reachability pre-check rules this out
        raise RuntimeError(f"BFS tree did not reach nodes {missing}")
    tree = BfsTree(root=root, parent=parent, depth=depth, children=children)
    return tree, result.report


# --------------------------------------------------------------------------- #
# Broadcast over an existing BFS tree
# --------------------------------------------------------------------------- #
class _TreeBroadcastAlgorithm(NodeAlgorithm):
    """Pipeline a list of values from the root down an existing BFS tree.

    True pipelining: the root injects *one* value per round (index order),
    every node forwards the one value it received this round, so each tree
    edge carries at most one ``bc`` message per round and the whole
    broadcast fits any bandwidth that fits a single value.  ``received`` is
    therefore ordered by index at every node, and the root halts only once
    it has forwarded its last value -- ``O(height + len(values))`` rounds.

    (The previous implementation pushed all ``k`` values down every tree
    edge in one round, inflating ``congested_rounds`` by
    ``ceil(k * bits / B)`` and raising under ``strict_bandwidth`` for any
    non-trivial ``k``.)
    """

    name = "tree-broadcast"

    def __init__(self, tree: BfsTree, values: List[Any]) -> None:
        self._tree = tree
        self._values = list(values)

    def message_schema(self) -> TreeSchema:
        return TreeSchema(
            kind="broadcast",
            tag="bcast",
            root=self._tree.root,
            parent=self._tree.parent,
            children=self._tree.children,
            depth=self._tree.depth,
            values=tuple(self._values),
        )

    def _forward_one(self, ctx: NodeContext) -> None:
        memory = ctx.memory
        index = memory["forwarded"]
        if index < memory["expected"]:
            value = self._values[index]
            for child in memory["children"]:
                ctx.send(child, ("bc", index, value), tag="bcast")
            memory["forwarded"] = index + 1

    def initialize(self, ctx: NodeContext) -> None:
        memory = ctx.memory
        memory["expected"] = len(self._values)
        memory["children"] = list(self._tree.children.get(ctx.node, []))
        if ctx.node == self._tree.root:
            memory["received"] = list(self._values)
            if not memory["children"]:
                memory["forwarded"] = memory["expected"]  # nothing to pipeline
                ctx.halt()
                return
            memory["forwarded"] = 0
            self._forward_one(ctx)
            if memory["forwarded"] >= memory["expected"]:
                ctx.halt()
        else:
            memory["received"] = []
            if memory["expected"] == 0:
                ctx.halt()

    def receive(
        self, ctx: NodeContext, round_number: int, messages: List[Message]
    ) -> None:
        memory = ctx.memory
        if ctx.node == self._tree.root:
            # The root's empty inboxes are its pipeline clock ticks.
            self._forward_one(ctx)
            if memory["forwarded"] >= memory["expected"]:
                ctx.halt()
            return
        for message in messages:
            _, index, value = message.payload
            # The parent emits one value per round in index order, so
            # appending keeps ``received`` ordered by index.
            memory["received"].append(value)
            for child in memory["children"]:
                ctx.send(child, ("bc", index, value), tag="bcast")
        if len(memory["received"]) >= memory["expected"]:
            ctx.halt()

    def output(self, ctx: NodeContext) -> Any:
        return list(ctx.memory["received"])


class _ReadOnDemand(collections.abc.Mapping):
    """A read-only mapping filled by ``build()`` on its first read."""

    def __init__(self, build: Callable[[], Mapping[Any, Any]]) -> None:
        self._build = build

    @functools.cached_property
    def _data(self) -> Mapping[Any, Any]:
        return self._build()

    def __getitem__(self, key: Any) -> Any:
        return self._data[key]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return repr(self._data)


def broadcast_from(
    network: Network,
    root: int,
    value: Any,
    tree: Optional[BfsTree] = None,
) -> Tuple[Mapping[int, Any], RoundReport]:
    """Broadcast a single value from ``root`` to every node.

    Returns the value as received by each node -- a read-only mapping built
    on its first read -- and the round report (including the BFS-tree
    construction cost when no tree is supplied).
    """
    received, report = broadcast_values_from(network, root, [value], tree=tree)
    return _ReadOnDemand(
        lambda: {node: values[0] for node, values in received.items()}
    ), report


def broadcast_values_from(
    network: Network,
    root: int,
    values: List[Any],
    tree: Optional[BfsTree] = None,
) -> Tuple[Mapping[int, List[Any]], RoundReport]:
    """Pipeline ``values`` from ``root`` to all nodes in ``O(D + len(values))`` rounds.

    Returns what each node received, as a read-only mapping built on its
    first read, and the round report.  A supplied ``tree`` must be rooted at
    ``root`` (mirroring :func:`gather_values_to`); broadcasting from
    ``tree.root`` instead of the requested root would silently answer a
    different question.
    """
    reports: List[RoundReport] = []
    if tree is None:
        tree, tree_report = build_bfs_tree(network, root)
        reports.append(tree_report)
    elif tree.root != root:
        raise ValueError("the supplied BFS tree is rooted elsewhere")
    simulator = Simulator(network)
    result = simulator.run(_TreeBroadcastAlgorithm(tree, values))
    reports.append(result.report)
    return _ReadOnDemand(lambda: result.outputs), RoundReport.sequential(reports)


# --------------------------------------------------------------------------- #
# Convergecast over an existing BFS tree
# --------------------------------------------------------------------------- #
class _ConvergecastAlgorithm(NodeAlgorithm):
    """Aggregate per-node values up an existing BFS tree to the root."""

    name = "convergecast"

    def __init__(self, tree: BfsTree, values: Dict[int, Any], combine) -> None:
        self._tree = tree
        self._values = values
        self._combine = combine

    def message_schema(self) -> TreeSchema:
        return TreeSchema(
            kind="convergecast",
            tag="cc",
            root=self._tree.root,
            parent=self._tree.parent,
            children=self._tree.children,
            depth=self._tree.depth,
            node_values=self._values,
            combine=self._combine,
        )

    def initialize(self, ctx: NodeContext) -> None:
        memory = ctx.memory
        memory["children"] = list(self._tree.children.get(ctx.node, []))
        memory["pending"] = set(memory["children"])
        memory["accumulator"] = self._values[ctx.node]
        memory["parent"] = self._tree.parent.get(ctx.node)
        if not memory["pending"]:
            self._emit(ctx)

    def _emit(self, ctx: NodeContext) -> None:
        memory = ctx.memory
        if ctx.node == self._tree.root:
            memory["result"] = memory["accumulator"]
        else:
            ctx.send(memory["parent"], ("agg", memory["accumulator"]), tag="cc")
        ctx.halt()

    def receive(
        self, ctx: NodeContext, round_number: int, messages: List[Message]
    ) -> None:
        memory = ctx.memory
        for message in messages:
            _, value = message.payload
            memory["accumulator"] = self._combine(memory["accumulator"], value)
            memory["pending"].discard(message.sender)
        if not memory["pending"]:
            self._emit(ctx)

    def output(self, ctx: NodeContext) -> Any:
        return ctx.memory.get("result")


def convergecast_aggregate(
    network: Network,
    values: Dict[int, Any],
    combine,
    tree: Optional[BfsTree] = None,
    root: Optional[int] = None,
) -> Tuple[Any, RoundReport]:
    """Aggregate ``values`` (one per node) to the root with ``combine``.

    ``combine`` must be associative and commutative (max, min, +, ...).
    When both ``tree`` and ``root`` are supplied they must agree (the same
    check :func:`gather_values_to` and :func:`broadcast_values_from` make).
    """
    reports: List[RoundReport] = []
    if tree is None:
        if root is None:
            root = min(network.nodes)
        tree, tree_report = build_bfs_tree(network, root)
        reports.append(tree_report)
    elif root is not None and tree.root != root:
        raise ValueError("the supplied BFS tree is rooted elsewhere")
    missing = [node for node in network.nodes if node not in values]
    if missing:
        raise ValueError(f"convergecast is missing values for nodes {missing}")
    simulator = Simulator(network)
    result = simulator.run(_ConvergecastAlgorithm(tree, values, combine))
    reports.append(result.report)
    return result.output_of(tree.root), RoundReport.sequential(reports)


def convergecast_max(
    network: Network,
    values: Dict[int, Any],
    tree: Optional[BfsTree] = None,
    root: Optional[int] = None,
) -> Tuple[Any, RoundReport]:
    """Compute the maximum of the per-node values at the root."""
    return convergecast_aggregate(network, values, max, tree=tree, root=root)


def convergecast_min(
    network: Network,
    values: Dict[int, Any],
    tree: Optional[BfsTree] = None,
    root: Optional[int] = None,
) -> Tuple[Any, RoundReport]:
    """Compute the minimum of the per-node values at the root."""
    return convergecast_aggregate(network, values, min, tree=tree, root=root)


def convergecast_sum(
    network: Network,
    values: Dict[int, Any],
    tree: Optional[BfsTree] = None,
    root: Optional[int] = None,
) -> Tuple[Any, RoundReport]:
    """Compute the sum of the per-node values at the root."""
    return convergecast_aggregate(
        network, values, lambda a, b: a + b, tree=tree, root=root
    )


def zero_convergecast_report(network: Network, tree: BfsTree) -> RoundReport:
    """The round cost of a convergecast of one ``0`` per node over ``tree``
    (every ``combine`` of zeros sends zeros).

    ``tree`` must be the tree :func:`build_bfs_tree` returns for its root
    on ``network``.  The run is then memoized like that tree: on ``network``
    per topology, root and the engine that resolves for it.  Every call
    returns its own copy of the report.
    """
    algorithm = _ConvergecastAlgorithm(tree, dict.fromkeys(network.nodes, 0), max)
    engine, prepared = resolve_engine(None, network, algorithm)
    report = network._memoized(
        ("zero-convergecast", tree.root, engine.name),
        lambda: prepared(default_max_rounds(network), False).report,
    )
    return replace(report)


# --------------------------------------------------------------------------- #
# Pipelined gather (upcast) over an existing BFS tree
# --------------------------------------------------------------------------- #
class _TreeGatherAlgorithm(NodeAlgorithm):
    """Pipeline per-node records up an existing BFS tree to the root.

    Every node owns a (possibly empty) list of records; each round a node
    forwards at most one record to its parent, so the total cost is
    ``O(depth + total records)`` rounds -- the standard pipelined upcast.
    A node signals completion to its parent with an ``end`` marker once its
    own queue is empty and all children have signalled.
    """

    name = "tree-gather"

    def __init__(self, tree: BfsTree, records: Dict[int, List[Any]]) -> None:
        self._tree = tree
        self._records = records

    def message_schema(self) -> TreeSchema:
        return TreeSchema(
            kind="gather",
            tag="gather",
            root=self._tree.root,
            parent=self._tree.parent,
            children=self._tree.children,
            depth=self._tree.depth,
            records=self._records,
        )

    def initialize(self, ctx: NodeContext) -> None:
        memory = ctx.memory
        memory["queue"] = list(self._records.get(ctx.node, []))
        memory["collected"] = list(self._records.get(ctx.node, []))
        memory["children_pending"] = set(self._tree.children.get(ctx.node, []))
        memory["parent"] = self._tree.parent.get(ctx.node)
        memory["sent_end"] = False
        self._step(ctx)

    def _step(self, ctx: NodeContext) -> None:
        memory = ctx.memory
        is_root = ctx.node == self._tree.root
        if memory["queue"] and not is_root:
            record = memory["queue"].pop(0)
            ctx.send(memory["parent"], ("rec", record), tag="gather")
            return
        if not memory["children_pending"] and not memory["queue"]:
            if is_root:
                ctx.halt()
            elif not memory["sent_end"]:
                memory["sent_end"] = True
                ctx.send(memory["parent"], ("end",), tag="gather")
                ctx.halt()

    def receive(
        self, ctx: NodeContext, round_number: int, messages: List[Message]
    ) -> None:
        memory = ctx.memory
        for message in messages:
            if message.payload[0] == "rec":
                record = message.payload[1]
                memory["queue"].append(record)
                if ctx.node == self._tree.root:
                    memory["collected"].append(record)
            else:
                memory["children_pending"].discard(message.sender)
        if ctx.node == self._tree.root:
            # The root only accumulates; drain its queue bookkeeping.
            memory["queue"] = []
        self._step(ctx)

    def output(self, ctx: NodeContext) -> Any:
        return list(ctx.memory["collected"])


def gather_values_to(
    network: Network,
    root: int,
    records: Dict[int, List[Any]],
    tree: Optional[BfsTree] = None,
) -> Tuple[List[Any], RoundReport]:
    """Gather per-node record lists to ``root`` in ``O(D + total records)`` rounds.

    Returns the list of records collected at the root (the root's own records
    first, then the others in arrival order) and the measured round cost.
    """
    reports: List[RoundReport] = []
    if tree is None:
        tree, tree_report = build_bfs_tree(network, root)
        reports.append(tree_report)
    if tree.root != root:
        raise ValueError("the supplied BFS tree is rooted elsewhere")
    simulator = Simulator(network)
    result = simulator.run(_TreeGatherAlgorithm(tree, records))
    reports.append(result.report)
    return result.output_of(root), RoundReport.sequential(reports)


# --------------------------------------------------------------------------- #
# Leader election
# --------------------------------------------------------------------------- #
class _MinIdFloodAlgorithm(NodeAlgorithm):
    """Flood the minimum node identifier for a fixed number of rounds."""

    name = "leader-election"

    def __init__(self, round_budget: int) -> None:
        self._round_budget = round_budget

    def message_schema(self) -> TreeSchema:
        # A single anonymous min column seeded with each node's own id,
        # flooded unchanged ("min", id) until the round budget halts
        # everyone.  Declared as the tree family's flood member; the dense
        # engine executes the wrapped min-plus schema unchanged.
        return TreeSchema(
            kind="flood",
            tag="lead",
            flood=MinPlusSchema(
                label="min",
                tag="lead",
                keys=None,
                initial=lambda node: [node],
                send_initial="all",
                add_edge_weight=False,
                round_budget=self._round_budget,
                finalize=lambda node, row: {"best": int(row[0])},
            ),
        )

    def initialize(self, ctx: NodeContext) -> None:
        ctx.memory["best"] = ctx.node
        ctx.broadcast(("min", ctx.node), tag="lead")

    def receive(
        self, ctx: NodeContext, round_number: int, messages: List[Message]
    ) -> None:
        memory = ctx.memory
        improved = False
        for message in messages:
            _, candidate = message.payload
            if candidate < memory["best"]:
                memory["best"] = candidate
                improved = True
        if round_number >= self._round_budget:
            ctx.halt()
            return
        if improved:
            ctx.broadcast(("min", memory["best"]), tag="lead")

    def output(self, ctx: NodeContext) -> Any:
        return ctx.memory["best"]


def elect_leader(
    network: Network, diameter_bound: Optional[int] = None
) -> Tuple[int, RoundReport]:
    """Elect the minimum node identifier as leader.

    The paper simply assumes a pre-defined leader; this helper exists so the
    example applications can start from nothing.  The flood runs for
    ``diameter_bound`` rounds (every node knows ``n``, so ``n - 1`` is always
    a safe default; pass the unweighted diameter when it is known to get the
    ``O(D)`` behaviour).
    """
    budget = diameter_bound if diameter_bound is not None else max(1, network.num_nodes - 1)
    simulator = Simulator(network)
    result = simulator.run(_MinIdFloodAlgorithm(budget))
    leaders = set(result.outputs.values())
    if len(leaders) != 1:
        raise RuntimeError(
            "leader election did not converge; increase diameter_bound "
            f"(got candidates {sorted(leaders)})"
        )
    return result.outputs[min(network.nodes)], result.report
