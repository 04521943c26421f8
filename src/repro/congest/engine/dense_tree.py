"""Analytic executors for the tree-primitive (:class:`TreeSchema`) family.

The flood/echo tree primitives -- BFS-tree construction, pipelined
broadcast, convergecast, pipelined gather -- have message schedules that are
fully determined by the topology (and, for the tree-shaped kinds, the
declared tree): which node sends which payload over which edge in which
round never depends on runtime data the engine cannot see.  The dense
engine therefore does not interpret ``receive`` per node; it derives the
whole schedule up front and replays only the *accounting*:

1. a per-kind planner computes, for every send time ``t`` (``t = 0`` is
   ``initialize``; messages sent at ``t`` are delivered in round ``t + 1``),
   the aggregate message count, bit sum, largest single message and largest
   per-edge bit load of that round -- aggregates only, never a message;
2. a shared accounting loop turns those aggregates into the
   :class:`~repro.congest.engine.types.RoundReport` exactly as the sparse
   engine's single-pass accounting would, including the congestion charge
   ``max_edge ceil(bits / B)`` and the round-limit failure mode.  A round
   over the bandwidth under ``strict_bandwidth`` hands the run to the
   ``sparse`` interpreter, which sizes the actual messages and so raises
   the same first-violating-edge error (an error path only); observed runs
   never reach this module (see :meth:`Simulator.run`);
3. a per-kind finalizer rebuilds a node's memory as the node program
   would have left it, so outputs and contexts are engine-independent; it
   runs only for the nodes whose output or context is read.

All derivations mirror ``repro.congest.primitives`` statement by statement;
``tests/congest/test_engine_differential.py`` pins the bit-identical
guarantee across random, structured and single-node networks.
"""

from __future__ import annotations

import copy
import functools
import math
import weakref
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.engine.base import PreparedRun, get_engine
from repro.congest.engine.schema import TreeSchema
from repro.congest.engine.types import (
    RoundLimitExceeded,
    RoundReport,
    SimulationResult,
)
from repro.congest.message import message_size_bits
from repro.congest.network import Network

__all__ = ["prepare_tree", "final_state"]


@dataclass
class _TreePlan:
    """One run's precomputed schedule: aggregates per send time."""

    rounds: int
    msgs: List[int]
    bits: List[int]
    max_message: List[int]
    max_edge: List[int]
    #: Builds one node's final memory; called only when that node is read.
    memory: Callable[[int], Dict[str, Any]]


class _Unsupported(ValueError):
    """The schema/topology combination cannot be reproduced analytically."""


#: Payload types whose equal values (within one type) charge the same bits.
_FLAT_TYPES = (int, float, str, bool, type(None))


# --------------------------------------------------------------------------- #
# Per-graph memo of topology-derived layouts
# --------------------------------------------------------------------------- #
#: Memoized layouts, per graph (by ``id``, evicted via ``weakref.finalize``
#: when the graph dies -- :class:`WeightedGraph` is deliberately unhashable)
#: and, within a graph, keyed by its mutation counter first:
#:
#: * ``(version, root)`` -> the explore-flood layering of :func:`_bfs_layers`
#:   (Theorem 1.1 builds the same tree many times); ``None`` records a
#:   disconnected outcome;
#: * ``(version, root, "tree")`` -> the :class:`_TreeMemo` of the last tree
#:   with that root validated by :func:`_tree_arrays`.
#:
#: A topology mutation bumps the counter and drops every entry of the graph.
_BFS_LAYER_CACHE: Dict[int, Dict[Tuple[Any, ...], Any]] = {}


def _graph_memo(graph: Any, version: Any) -> Dict[Tuple[Any, ...], Any]:
    """``graph``'s memo, emptied of entries from an older topology."""
    memo = _BFS_LAYER_CACHE.get(id(graph))
    if memo is None:
        memo = _BFS_LAYER_CACHE[id(graph)] = {}
        weakref.finalize(graph, _BFS_LAYER_CACHE.pop, id(graph), None)
    elif any(key[0] != version for key in memo):
        memo.clear()
    return memo


def _copy_map(mapping: Optional[Mapping[Any, Any]]) -> Optional[Dict[Any, Any]]:
    return None if mapping is None else dict(mapping)


# --------------------------------------------------------------------------- #
# Shared tree validation (broadcast / convergecast / gather)
# --------------------------------------------------------------------------- #
@dataclass
class _TreeArrays:
    """The declared tree, validated against the topology and node order."""

    nodes: List[int]
    order: Dict[int, int]
    root: int
    depth: Dict[int, int]
    parent: Dict[int, Optional[int]]
    children: Dict[int, List[int]]
    height: int
    #: ``layer[d]``: nodes at depth ``d + 1`` (tree edges out of depth ``d``).
    layer: List[int]


def _tree_arrays(network: Network, schema: TreeSchema) -> _TreeArrays:
    """The validated layout of ``schema``'s declared tree; raises
    :class:`_Unsupported` on any shape the node program would not execute
    cleanly, so such runs fall back to the engines that interpret the
    program and fail *its* way.

    Memoized per graph beside the BFS layering (see :data:`_BFS_LAYER_CACHE`),
    by (mutation counter, root), together with a snapshot of the declared
    ``depth`` / ``parent`` / ``children`` maps.  A lookup hits only when the
    schema's maps compare equal (``==``) to that snapshot -- a C-level dict
    comparison, far cheaper than the validation sweep -- never on object
    identity, so a tree mutated after validation, or a different tree with
    the same root, is validated again and replaces the entry.  Invalid
    trees are cached too and re-raise the same message.  The returned
    layout is shared: callers treat it as read-only.
    """
    graph = network.graph
    version = getattr(graph, "_version", None)
    if version is None:
        return _validate_tree(network, schema)
    memo = _graph_memo(graph, version)
    key = (version, schema.root, "tree")
    entry = memo.get(key)
    if entry is None or not entry.matches(schema):
        entry = _TreeMemo.validate(network, schema)
        memo[key] = entry
    if isinstance(entry.outcome, str):
        raise _Unsupported(entry.outcome)
    return entry.outcome


@dataclass(frozen=True)
class _TreeMemo:
    """A snapshot of one declared tree's maps and its validation outcome:
    the :class:`_TreeArrays`, or the :class:`_Unsupported` message."""

    depth: Optional[Dict[int, int]]
    parent: Optional[Dict[int, Optional[int]]]
    children: Optional[Dict[int, Any]]
    outcome: Union[_TreeArrays, str]

    @classmethod
    def validate(cls, network: Network, schema: TreeSchema) -> "_TreeMemo":
        try:
            outcome: Union[_TreeArrays, str] = _validate_tree(network, schema)
        except _Unsupported as error:
            outcome = str(error)
        # Any other error (maps of the wrong type) propagated uncached.  The
        # snapshot copies the children lists too: declarers mutate in place.
        children = schema.children
        if children is not None:
            children = {node: copy.copy(kids) for node, kids in children.items()}
        return cls(_copy_map(schema.depth), _copy_map(schema.parent), children, outcome)

    def matches(self, schema: TreeSchema) -> bool:
        return (
            schema.depth == self.depth
            and schema.parent == self.parent
            and schema.children == self.children
        )


def _validate_tree(network: Network, schema: TreeSchema) -> _TreeArrays:
    """Validate ``schema``'s tree maps against the topology and node order
    (wrong root, missing nodes, non-edges, inconsistent depths/children
    raise :class:`_Unsupported`); the uncached work behind
    :func:`_tree_arrays`."""
    nodes = list(network.nodes)
    order = {node: i for i, node in enumerate(nodes)}
    root = schema.root
    depth = schema.depth
    parent = schema.parent
    if root not in order:
        raise _Unsupported(f"tree root {root} is not a node of the network")
    actual_children: Dict[int, List[int]] = {node: [] for node in nodes}
    for node in nodes:
        if node not in depth or node not in parent:
            raise _Unsupported(f"tree maps do not cover node {node}")
    if parent[root] is not None or depth[root] != 0:
        raise _Unsupported("tree root must have no parent and depth 0")
    for node in nodes:
        if node == root:
            continue
        p = parent[node]
        if p is None or p not in order:
            raise _Unsupported(f"node {node} has no valid tree parent")
        if depth[node] != depth[p] + 1:
            raise _Unsupported(f"node {node} breaks the depth invariant")
        if not network.graph.has_edge(p, node):
            raise _Unsupported(f"tree edge ({p}, {node}) is not a network edge")
        actual_children[p].append(node)
    children: Dict[int, List[int]] = {}
    for node in nodes:
        declared = list((schema.children or {}).get(node, []))
        if len(set(declared)) != len(declared) or set(declared) != set(
            actual_children[node]
        ):
            raise _Unsupported(f"children of {node} disagree with the parent map")
        children[node] = declared
    height = max(depth[node] for node in nodes)
    sizes = Counter(depth[node] for node in nodes)
    return _TreeArrays(
        nodes=nodes,
        order=order,
        root=root,
        depth=dict(depth),
        parent={node: parent[node] for node in nodes},
        children=children,
        height=height,
        layer=[sizes[d] for d in range(1, height + 1)],
    )


def _empty_plan(memory: Callable[[int], Dict[str, Any]]) -> _TreePlan:
    return _TreePlan(0, [], [], [], [], memory)


# --------------------------------------------------------------------------- #
# BFS-tree construction (flood-and-echo)
# --------------------------------------------------------------------------- #
def _bfs_layers(
    network: Network, root: int
) -> Tuple[Dict[int, int], Dict[int, Optional[int]]]:
    """Hop depths and min-id parents of the explore flood; raises
    :class:`_Unsupported` when the flood cannot span the topology."""
    graph = network.graph
    version = getattr(graph, "_version", None)
    if version is None:
        return _compute_bfs_layers(network, root)
    memo = _graph_memo(graph, version)
    key = (version, root)
    if key in memo:
        layering = memo[key]
    else:
        try:
            layering = _compute_bfs_layers(network, root)
        except _Unsupported:
            layering = None
        memo[key] = layering
    if layering is None:
        raise _Unsupported("the topology is disconnected: the flood never ends")
    return layering


def _compute_bfs_layers(
    network: Network, root: int
) -> Tuple[Dict[int, int], Dict[int, Optional[int]]]:
    depth: Dict[int, int] = {root: 0}
    frontier = [root]
    while frontier:
        next_frontier: List[int] = []
        for node in frontier:
            for neighbor in network.neighbors(node):
                if neighbor not in depth:
                    depth[neighbor] = depth[node] + 1
                    next_frontier.append(neighbor)
        frontier = next_frontier
    if len(depth) != network.num_nodes:
        raise _Unsupported("the topology is disconnected: the flood never ends")
    parent: Dict[int, Optional[int]] = {root: None}
    for node in network.nodes:
        if node == root:
            continue
        d = depth[node]
        # The node program adopts min(explore_msgs, key=(payload depth,
        # sender)); all offers carry depth d - 1, so the min-id neighbor
        # one level up wins.
        parent[node] = min(
            u for u in network.neighbors(node) if depth[u] == d - 1
        )
    return depth, parent


def _bfs_plan(
    network: Network,
    schema: TreeSchema,
    layering: Tuple[Dict[int, int], Dict[int, Optional[int]]],
    max_rounds: int,
) -> _TreePlan:
    root = schema.root
    tag = schema.tag
    word_bits = network.word_bits
    nodes = list(network.nodes)
    depth, parent = layering
    height = max(depth.values())

    children: Dict[int, List[int]] = {node: [] for node in nodes}
    for node in nodes:  # node order = the adopt inbox order children arrive in
        if node != root:
            children[parent[node]].append(node)

    up: Dict[int, int] = {}
    same: Dict[int, int] = {}
    down: Dict[int, int] = {}
    for node in nodes:
        d = depth[node]
        u = s = dn = 0
        for neighbor in network.neighbors(node):
            nd = depth[neighbor]
            if nd == d - 1:
                u += 1
            elif nd == d:
                s += 1
            else:
                dn += 1
        up[node], same[node], down[node] = u, s, dn

    # pending_neighbors empties at d (only up-neighbors), d+1 (same-depth
    # explores rejected) or d+2 (down-neighbors' adopt/reject replies).
    pending_empty = {
        node: depth[node]
        + (2 if down[node] else 1 if same[node] else 0)
        for node in nodes
    }
    # Echo round: all children echoed and the pending set is empty.  The
    # root's floor of 1 covers the single-node network (first receive call).
    echo: Dict[int, int] = {}
    for node in sorted(nodes, key=lambda v: -depth[v]):
        t = pending_empty[node]
        if node == root:
            t = max(t, 1)
        for child in children[node]:
            t = max(t, echo[child] + 1)
        echo[node] = t
    stop_start = echo[root]
    rounds = stop_start + height

    explore_bits = [
        message_size_bits(("explore", d), tag=tag, word_bits=word_bits)
        for d in range(height + 1)
    ]
    adopt_bits = message_size_bits(("adopt",), tag=tag, word_bits=word_bits)
    reject_bits = message_size_bits(("reject",), tag=tag, word_bits=word_bits)
    done_bits = message_size_bits(("done",), tag=tag, word_bits=word_bits)
    stop_bits = message_size_bits(("stop",), tag=tag, word_bits=word_bits)

    msgs = [0] * rounds
    bits = [0] * rounds
    max_message = [0] * rounds
    max_edge = [0] * rounds

    def add(t: int, count: int, per_bits: int) -> None:
        if count:
            msgs[t] += count
            bits[t] += count * per_bits
            if per_bits > max_message[t]:
                max_message[t] = per_bits
            if per_bits > max_edge[t]:
                max_edge[t] = per_bits

    add(0, len(network.neighbors(root)), explore_bits[0])
    for node in nodes:
        d = depth[node]
        kids = len(children[node])
        if node == root:
            add(stop_start, kids, stop_bits)
            continue
        add(d, same[node] + down[node], explore_bits[d])
        add(d, 1, adopt_bits)
        add(d, up[node] - 1, reject_bits)
        add(d + 1, same[node], reject_bits)
        add(echo[node], 1, done_bits)
        add(stop_start + d, kids, stop_bits)
        if echo[node] == d:
            # Adopt and done leave on the same parent edge in one round.
            combo = adopt_bits + done_bits
            if combo > max_edge[d]:
                max_edge[d] = combo

    def memory(node: int) -> Dict[str, Any]:
        return {
            "parent": parent[node],
            "depth": depth[node],
            "children": list(children[node]),
            "pending_neighbors": set(),
            "echoed_children": set(children[node]),
            "sent_echo": True,
            "explored": True,
        }

    return _TreePlan(rounds, msgs, bits, max_message, max_edge, memory)


# --------------------------------------------------------------------------- #
# Pipelined broadcast
# --------------------------------------------------------------------------- #
def _broadcast_plan(
    network: Network, schema: TreeSchema, tree: _TreeArrays, max_rounds: int
) -> _TreePlan:
    word_bits = network.word_bits
    values = list(schema.values)
    k = len(values)
    height = tree.height

    def final_memory(node: int) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "expected": k,
            "children": list(tree.children[node]),
            "received": list(values),
        }
        if node == tree.root:
            entry["forwarded"] = k
        return entry

    if k == 0 or height == 0:
        return _empty_plan(final_memory)

    bc_bits = [
        message_size_bits(("bc", i, values[i]), tag=schema.tag, word_bits=word_bits)
        for i in range(k)
    ]
    rounds = height + k - 1
    msgs = [0] * rounds
    bits = [0] * rounds
    for d in range(height):
        edges = tree.layer[d]
        for i in range(k):  # value i leaves depth-d parents at t = d + i
            msgs[d + i] += edges
            bits[d + i] += edges * bc_bits[i]
    # Each tree edge carries at most one bc message per round, so the edge
    # load equals the largest value in the round's sliding index window.
    max_message = [0] * rounds
    window: deque = deque()  # indices i with decreasing bc_bits
    for t in range(rounds):
        if t < k:
            while window and bc_bits[window[-1]] <= bc_bits[t]:
                window.pop()
            window.append(t)
        while window and window[0] < t - height + 1:
            window.popleft()
        max_message[t] = bc_bits[window[0]]
    max_edge = list(max_message)
    return _TreePlan(rounds, msgs, bits, max_message, max_edge, final_memory)


# --------------------------------------------------------------------------- #
# Convergecast
# --------------------------------------------------------------------------- #
def _convergecast_plan(
    network: Network, schema: TreeSchema, tree: _TreeArrays, max_rounds: int
) -> _TreePlan:
    word_bits = network.word_bits
    nodes = tree.nodes
    node_values = schema.node_values

    # Emit round: leaves emit during initialize (t = 0); an inner node emits
    # one round after its slowest child.  The fold applies children in their
    # arrival order -- by (emit round, node order) -- exactly as the inbox
    # interleaves them.
    emit: Dict[int, int] = {}
    acc: Dict[int, Any] = {}
    combine = schema.combine
    for node in sorted(nodes, key=lambda v: -tree.depth[v]):
        kids = tree.children[node]
        emit[node] = 1 + max((emit[c] for c in kids), default=-1)
        value = node_values[node]
        for child in sorted(kids, key=lambda c: (emit[c], tree.order[c])):
            value = combine(value, acc[child])
        acc[node] = value

    def memory(node: int) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "children": list(tree.children[node]),
            "pending": set(),
            "accumulator": acc[node],
            "parent": tree.parent[node],
        }
        if node == tree.root:
            entry["result"] = acc[node]
        return entry

    rounds = emit[tree.root]
    if rounds == 0:
        return _empty_plan(memory)

    msgs = [0] * rounds
    bits = [0] * rounds
    max_message = [0] * rounds
    # Equal values of one flat type charge equally, so each is sized once;
    # keyed by type too, so 1, 1.0 and True never share a size.
    sizes: Dict[Tuple[type, Any], int] = {}
    for node in nodes:
        if node == tree.root:
            continue
        value = acc[node]
        key = (type(value), value)
        b = sizes.get(key) if type(value) in _FLAT_TYPES else None
        if b is None:
            b = sizes[key] = message_size_bits(
                ("agg", value), tag=schema.tag, word_bits=word_bits
            )
        t = emit[node]
        msgs[t] += 1
        bits[t] += b
        if b > max_message[t]:
            max_message[t] = b
    max_edge = list(max_message)  # one upward message per edge per round
    return _TreePlan(rounds, msgs, bits, max_message, max_edge, memory)


# --------------------------------------------------------------------------- #
# Pipelined gather (upcast)
# --------------------------------------------------------------------------- #
def _gather_plan(
    network: Network, schema: TreeSchema, tree: _TreeArrays, max_rounds: int
) -> _TreePlan:
    word_bits = network.word_bits
    nodes = tree.nodes
    n = len(nodes)
    order = tree.order
    root = tree.root
    root_idx = order[root]
    records = schema.records or {}
    tag = schema.tag
    end_payload = ("end",)
    end_bits = message_size_bits(end_payload, tag=tag, word_bits=word_bits)

    # Lightweight queue simulation over (payload, bits) pairs: the schedule
    # depends on how the per-child streams interleave, so it is replayed --
    # but without Message objects, context dispatch or inbox pooling.
    queues: List[deque] = [deque() for _ in range(n)]
    pending = [len(tree.children[node]) for node in nodes]
    halted = [False] * n
    parent_idx = [-1 if node == root else order[tree.parent[node]] for node in nodes]
    # Only the nodes that hold records need their own queue filled.
    own_records: Dict[int, List[Any]] = {}
    for node, recs in records.items():
        if not recs or node not in order:
            continue
        own_records[node] = recs = list(recs)
        queues[order[node]].extend(
            (("rec", record), message_size_bits(("rec", record), tag=tag, word_bits=word_bits))
            for record in recs
        )
    collected: List[Any] = list(own_records.get(root, []))

    # Per send time, each send's (receiver index, payload, bits) in node order.
    sends_by_t: List[List[Tuple[int, Tuple[Any, ...], int]]] = []

    def step(i: int, out: List[Tuple[int, Tuple[Any, ...], int]]) -> None:
        if i != root_idx and queues[i]:
            payload, b = queues[i].popleft()
            out.append((parent_idx[i], payload, b))
            return
        if pending[i] == 0 and not queues[i]:
            if i == root_idx:
                halted[i] = True
            else:
                out.append((parent_idx[i], end_payload, end_bits))
                halted[i] = True

    init_sends: List[Tuple[int, Tuple[Any, ...], int]] = []
    for i in range(n):
        step(i, init_sends)
    sends_by_t.append(init_sends)
    # Only live nodes step, in node order: most halt in the first rounds.
    live = [i for i in range(n) if not halted[i]]

    rounds = 0
    while live and rounds <= max_rounds:
        rounds += 1
        for receiver, payload, b in sends_by_t[rounds - 1]:
            if payload[0] == "rec":
                if receiver == root_idx:
                    collected.append(payload[1])
                else:
                    queues[receiver].append((payload, b))
            else:
                pending[receiver] -= 1
        current: List[Tuple[int, Tuple[Any, ...], int]] = []
        for i in live:
            if i == root_idx:
                queues[i].clear()  # the root only accumulates
            step(i, current)
        live = [i for i in live if not halted[i]]
        sends_by_t.append(current)

    msgs = [0] * rounds
    bits = [0] * rounds
    max_message = [0] * rounds
    for t in range(rounds):
        for _, _, b in sends_by_t[t]:
            msgs[t] += 1
            bits[t] += b
            if b > max_message[t]:
                max_message[t] = b
    max_edge = list(max_message)  # one upward message per edge per round

    def memory(node: int) -> Dict[str, Any]:
        return {
            "queue": [],
            "collected": list(collected if node == root else own_records.get(node, [])),
            "children_pending": set(),
            "parent": tree.parent[node],
            "sent_end": node != root,
        }

    return _TreePlan(rounds, msgs, bits, max_message, max_edge, memory)


# --------------------------------------------------------------------------- #
# Entry point used by the dense and symbolic engines
# --------------------------------------------------------------------------- #
#: Planner per tree kind, called as ``(network, schema, layout, max_rounds)``.
_PLANNERS: Dict[str, Callable[..., _TreePlan]] = {
    "bfs": _bfs_plan,
    "broadcast": _broadcast_plan,
    "convergecast": _convergecast_plan,
    "gather": _gather_plan,
}


def prepare_tree(
    network: Network,
    algorithm: NodeAlgorithm,
    schema: TreeSchema,
    initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
) -> Optional[PreparedRun]:
    """The tree-schema run, validated, or ``None``: the declared tree (or,
    for ``bfs``, the topology) must be one whose schedule the planners
    reproduce exactly.  The run closes over the validated layout and plans
    its schedule when called."""
    planner = _PLANNERS.get(schema.kind)
    if planner is None or initial_memory:
        return None
    try:
        if schema.kind == "bfs":
            if schema.root not in network.graph:
                return None
            layout: Any = _bfs_layers(network, schema.root)
        else:
            layout = _tree_arrays(network, schema)
    except _Unsupported:
        return None
    if schema.kind == "convergecast" and any(
        node not in schema.node_values for node in layout.nodes
    ):
        return None
    return functools.partial(_run_tree, network, algorithm, schema, planner, layout)


def _run_tree(
    network: Network,
    algorithm: NodeAlgorithm,
    schema: TreeSchema,
    planner: Callable[..., _TreePlan],
    layout: Any,
    max_rounds: int,
    halt_on_quiescence: bool,
) -> SimulationResult:
    """Execute a prepared tree-schema run, bit-identical to sparse."""
    name = algorithm.name
    plan = planner(network, schema, layout, max_rounds)
    rounds = plan.rounds
    if halt_on_quiescence and any(plan.msgs[t] == 0 for t in range(1, rounds)):
        # An idle round mid-protocol would make the sparse engine's
        # quiescence halt truncate the run; no bundled tree primitive stalls
        # mid-stream, so fail loudly instead of diverging silently.
        raise ValueError(
            f"dense engine cannot honor halt_on_quiescence for protocol "
            f"'{name}': the schedule has an idle round mid-protocol"
        )

    bandwidth = network.bandwidth_bits
    strict = network.config.strict_bandwidth
    report = RoundReport(protocol=name)
    for r in range(1, rounds + 1):
        if r > max_rounds:
            raise RoundLimitExceeded(
                f"protocol '{name}' exceeded {max_rounds} rounds"
            )
        t = r - 1
        max_edge_charge = 1
        if plan.msgs[t]:
            report.total_messages += plan.msgs[t]
            report.total_bits += plan.bits[t]
            if plan.max_message[t] > report.max_message_bits:
                report.max_message_bits = plan.max_message[t]
            if plan.max_edge[t] > bandwidth:
                if strict:
                    # The interpreter sizes the round's actual messages and
                    # raises on the first over-budget edge -- the same error.
                    return get_engine("sparse").run(
                        network, algorithm, max_rounds, halt_on_quiescence=halt_on_quiescence
                    )
                max_edge_charge = math.ceil(plan.max_edge[t] / bandwidth)
        report.rounds += 1
        report.congested_rounds += max_edge_charge

    return SimulationResult(
        None,
        report,
        nodes=network.nodes,
        build=final_state(network, algorithm, plan.memory),
    )


def final_state(
    network: Network,
    algorithm: NodeAlgorithm,
    memory: Callable[[int], Dict[str, Any]],
) -> Callable[[int], Tuple[Any, NodeContext]]:
    """A deferred :class:`SimulationResult`'s per-node builder: the node's
    halted context holding ``memory(node)``, and the node's output."""

    def build(node: int) -> Tuple[Any, NodeContext]:
        ctx = NodeContext(node=node, network=network)
        ctx.memory.update(memory(node))
        ctx._halted = True
        return algorithm.output(ctx), ctx

    return build

