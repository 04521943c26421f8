"""Differential tests: every execution engine must be indistinguishable.

The engines (the reference interpreter ``sparse``, vectorized ``dense``,
closed-form ``symbolic``) may differ arbitrarily in how they
execute a round, but never in what they compute: outputs must be identical
and the ``RoundReport`` numbers (rounds, congested_rounds, total_messages,
total_bits, max_message_bits) bit-identical, across every migrated protocol,
on random, structured, hop-truncated (unreachable-entry) and single-node
networks.  The paper's round-complexity tables are read off these reports,
so any engine divergence is a correctness bug.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import (
    CongestConfig,
    Network,
    NodeAlgorithm,
    Simulator,
    available_engines,
    force_engine,
)
from repro.congest.apsp import (
    classical_diameter_protocol,
    classical_eccentricity_protocol,
    classical_radius_protocol,
    distributed_unweighted_apsp,
    distributed_weighted_apsp,
)
from repro.congest.primitives import (
    broadcast_values_from,
    build_bfs_tree,
    convergecast_aggregate,
    convergecast_sum,
    elect_leader,
    gather_values_to,
)
from repro.congest.simulator import RoundLimitExceeded
from repro.congest.sssp import (
    _BellmanFordAlgorithm,
    distributed_bellman_ford,
    multi_source_bellman_ford,
)
from repro.graphs import (
    WeightedGraph,
    cycle_graph,
    path_graph,
    random_weighted_graph,
    star_graph,
    yao_spanner_graph,
)
from repro.nanongkai.bounded_distance_sssp import (
    BoundedDistanceSsspAlgorithm,
    bounded_distance_sssp_protocol,
)
from repro.nanongkai.bounded_hop_sssp import (
    bounded_hop_sssp_protocol,
    level_distance_bound,
    rounded_incident_weights,
)
from repro.nanongkai.multi_source import multi_source_bounded_hop_protocol

ENGINES = available_engines()

pytestmark = pytest.mark.engines


def _networks():
    """The differential topology zoo: random, structured, tiny, single-node."""
    cases = {
        "single-node": WeightedGraph(nodes=[0]),
        "two-node": WeightedGraph(edges=[(0, 1, 3)]),
        "path": path_graph(6, max_weight=7, seed=2),
        "star": star_graph(5, max_weight=9, seed=4),
        "cycle": cycle_graph(7, max_weight=5, seed=1),
        # Bounded-degree geometric spanner: constant degree, Theta(sqrt(n))
        # diameter -- the workload family the symbolic engine is benchmarked
        # on, so it must sit in the differential zoo too.
        "spanner": yao_spanner_graph(18, weight_scale=20, seed=6),
    }
    for seed in (0, 1, 2):
        cases[f"random-{seed}"] = random_weighted_graph(
            14 + 3 * seed, average_degree=3.0, max_weight=40, seed=seed
        )
    return {name: Network(graph) for name, graph in cases.items()}


NETWORKS = _networks()


def _run_on_all_engines(protocol):
    """Run ``protocol`` under every registered engine; return {engine: result}."""
    results = {}
    for engine in ENGINES:
        with force_engine(engine):
            results[engine] = protocol()
    return results


def _assert_identical(results):
    """Every engine produced sparse's outputs and bit-identical report."""
    ref_out, ref_report = results["sparse"]
    for engine, (out, report) in results.items():
        assert out == ref_out, f"{engine} outputs diverge from sparse"
        assert report == ref_report, (
            f"{engine} report diverges from sparse: {report} != {ref_report}"
        )


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_weighted_sssp_identical(name):
    network = NETWORKS[name]
    source = min(network.nodes)
    _assert_identical(
        _run_on_all_engines(lambda: distributed_bellman_ford(network, source))
    )


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_weighted_apsp_identical(name):
    network = NETWORKS[name]
    _assert_identical(_run_on_all_engines(lambda: distributed_weighted_apsp(network)))


@pytest.mark.parametrize("name", ["path", "random-0", "random-2"])
def test_unweighted_apsp_identical(name):
    network = NETWORKS[name]
    _assert_identical(
        _run_on_all_engines(lambda: distributed_unweighted_apsp(network))
    )


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_leader_election_identical(name):
    network = NETWORKS[name]
    _assert_identical(_run_on_all_engines(lambda: elect_leader(network)))


@pytest.mark.parametrize("name", ["path", "star", "random-1"])
@pytest.mark.parametrize("max_hops", [1, 2])
def test_hop_bounded_multi_source_identical(name, max_hops):
    """Hop budgets leave unreachable (inf) entries; engines must agree on them."""
    network = NETWORKS[name]
    sources = sorted(network.nodes)[:3]
    _assert_identical(
        _run_on_all_engines(
            lambda: multi_source_bellman_ford(network, sources, max_hops=max_hops)
        )
    )


@pytest.mark.parametrize("name", ["path", "random-0"])
def test_diameter_radius_eccentricity_pipelines_identical(name):
    """Composite protocols mix dense-eligible and schema-less stages."""
    network = NETWORKS[name]
    node = max(network.nodes)
    for protocol in (
        lambda: classical_diameter_protocol(network),
        lambda: classical_radius_protocol(network, weighted=False),
        lambda: classical_eccentricity_protocol(network, node),
    ):
        _assert_identical(_run_on_all_engines(protocol))


# --------------------------------------------------------------------------- #
# Tree-primitive schemas (the flood/echo family): the dense engine executes
# BFS-tree build, pipelined broadcast, convergecast, pipelined gather and the
# min-id leader flood from their TreeSchema declarations, bit-identically to
# the engines that interpret the node programs.
# --------------------------------------------------------------------------- #
def _tree_protocols(network):
    root = min(network.nodes)
    records = {node: [node, node + 1] for node in network.nodes}
    values = {node: node for node in network.nodes}

    def build():
        tree, report = build_bfs_tree(network, root)
        return (
            {"parent": tree.parent, "depth": tree.depth, "children": tree.children},
            report,
        )

    return {
        "bfs-tree": build,
        "broadcast": lambda: broadcast_values_from(network, root, ["a", "b", "c"]),
        "gather": lambda: gather_values_to(network, root, records),
        "convergecast": lambda: convergecast_sum(network, values),
    }


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_tree_primitives_identical(name):
    """The whole flood/echo family, across the full topology zoo (the
    composite wrappers also cover the BFS-build + tree-phase report sums)."""
    network = NETWORKS[name]
    for protocol in _tree_protocols(network).values():
        _assert_identical(_run_on_all_engines(protocol))


@pytest.mark.parametrize("name", ["path", "star", "random-1"])
def test_tree_primitives_with_prebuilt_tree_identical(name):
    """Tree-phase runs alone (no BFS-build prefix), over a shared tree."""
    network = NETWORKS[name]
    root = min(network.nodes)
    tree, _ = build_bfs_tree(network, root)
    records = {node: [(node, "r")] for node in network.nodes}
    values = {node: 3 * node - 7 for node in network.nodes}
    for protocol in (
        lambda: broadcast_values_from(network, root, list(range(6)), tree=tree),
        lambda: gather_values_to(network, root, records, tree=tree),
        lambda: convergecast_sum(network, values, tree=tree),
    ):
        _assert_identical(_run_on_all_engines(protocol))


@pytest.mark.parametrize("name", ["path", "star", "random-1"])
def test_tree_runs_size_equal_values_of_each_type_apart(name):
    """Convergecast values equal across types (``1 == 1.0 == True``) charge
    different bits and must never share a size, and a gather whose records
    sit on a few nodes keeps sparse's schedule."""
    network = NETWORKS[name]
    nodes = sorted(network.nodes)
    flavors = [1, 1.0, True, (1,), (True,), "1", None, 1]
    values = {node: flavors[i % len(flavors)] for i, node in enumerate(nodes)}
    records = {node: [] for node in nodes}
    records[nodes[-1]] = [(nodes[-1], 1.0), (nodes[-1], 1)]
    records[nodes[len(nodes) // 2]] = [True]
    for protocol in (
        lambda: convergecast_aggregate(network, values, lambda own, child: own),
        lambda: gather_values_to(network, nodes[0], records),
    ):
        _assert_identical(_run_on_all_engines(protocol))


@pytest.mark.skipif("dense" not in ENGINES, reason="dense engine needs NumPy")
def test_tree_primitives_are_dense_eligible():
    """The flood/echo family must actually *run* dense, not fall back."""
    from repro.congest.engine import get_engine
    from repro.congest.primitives import (
        _BfsTreeAlgorithm,
        _ConvergecastAlgorithm,
        _MinIdFloodAlgorithm,
        _TreeBroadcastAlgorithm,
        _TreeGatherAlgorithm,
    )

    network = NETWORKS["random-0"]
    root = min(network.nodes)
    tree, _ = build_bfs_tree(network, root)
    dense = get_engine("dense")
    algorithms = [
        _BfsTreeAlgorithm(root),
        _TreeBroadcastAlgorithm(tree, ["a", "b"]),
        _ConvergecastAlgorithm(tree, {node: node for node in network.nodes}, max),
        _TreeGatherAlgorithm(tree, {node: [node] for node in network.nodes}),
        _MinIdFloodAlgorithm(4),
    ]
    for algorithm in algorithms:
        assert dense.prepare(network, algorithm) is not None, algorithm.name
        # An explicit engine request must execute (it raises when unsupported).
        result = Simulator(network).run(algorithm, engine="dense")
        assert result.report.rounds > 0


@pytest.mark.skipif("dense" not in ENGINES, reason="dense engine needs NumPy")
def test_tree_schema_ineligible_runs_fall_back():
    """Pre-loaded memory and trees the planner cannot validate stay on the
    engines that interpret the node program."""
    from repro.congest.engine import get_engine
    from repro.congest.primitives import BfsTree, _TreeBroadcastAlgorithm

    network = NETWORKS["path"]
    root = min(network.nodes)
    tree, _ = build_bfs_tree(network, root)
    dense = get_engine("dense")
    algorithm = _TreeBroadcastAlgorithm(tree, [1, 2])
    assert dense.prepare(
        network, algorithm, initial_memory={root: {"x": 1}}
    ) is None
    # A tree whose edges are not network edges would make the node program
    # raise on its first send; the planner declines instead of guessing.
    nodes = sorted(network.nodes)
    bogus = BfsTree(
        root=root,
        parent={node: (None if node == root else root) for node in nodes},
        depth={node: (0 if node == root else 1) for node in nodes},
        children={root: [node for node in nodes if node != root]},
    )
    assert dense.prepare(network, _TreeBroadcastAlgorithm(bogus, [1])) is None


def test_tree_strict_bandwidth_parity():
    """The first over-budget edge -- here the adopt+done combo a leaf sends
    its parent in one round -- must raise the same error on every engine."""
    from repro.congest.primitives import _BfsTreeAlgorithm

    graph = random_weighted_graph(12, average_degree=3.0, max_weight=9, seed=5)
    network = Network(
        graph,
        CongestConfig(bandwidth_words=1, word_bits_override=8, strict_bandwidth=True),
    )
    messages = {}
    for engine in ENGINES:
        with pytest.raises(ValueError) as excinfo:
            Simulator(network).run(
                _BfsTreeAlgorithm(min(network.nodes)), engine=engine
            )
        messages[engine] = str(excinfo.value)
    assert len(set(messages.values())) == 1, messages


def test_tree_round_limit_parity():
    """A round limit below the pipeline length fails identically everywhere."""
    from repro.congest.primitives import _TreeBroadcastAlgorithm

    network = NETWORKS["path"]
    tree, _ = build_bfs_tree(network, min(network.nodes))
    messages = {}
    for engine in ENGINES:
        with pytest.raises(RoundLimitExceeded) as excinfo:
            Simulator(network, max_rounds=3).run(
                _TreeBroadcastAlgorithm(tree, list(range(9))), engine=engine
            )
        messages[engine] = str(excinfo.value)
    assert len(set(messages.values())) == 1, messages


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "kind",
    ["bfs", "broadcast", "convergecast", "gather", "algorithm2", "bellman-ford"],
)
def test_tree_observer_streams_identical(engine, kind, monkeypatch):
    """Only the sparse interpreter streams messages: an observed run -- a
    tree primitive, the gated Algorithm 2 or an ungated Bellman-Ford flood
    -- executes on ``sparse`` whatever engine is named.  It makes exactly one
    ``SparseEngine.run`` call and no other engine's ``run`` or prepared run
    executes; the stream, report and outputs equal a plain sparse run's.  An
    engine that cannot execute the run still rejects the explicit request."""
    from collections import Counter

    from repro.congest.engine import dense_tree, get_engine, symbolic
    from repro.congest.primitives import (
        _BfsTreeAlgorithm,
        _ConvergecastAlgorithm,
        _TreeBroadcastAlgorithm,
        _TreeGatherAlgorithm,
    )

    network = NETWORKS["random-1"]
    root = min(network.nodes)
    tree, _ = build_bfs_tree(network, root)
    # Broadcast values longer than the tree is deep, with the *largest*
    # payloads first: exercises the sliding-window edge charges.
    values = [10**9, 10**6, "x", 3, 1, 0, 2, 1, 0, 3, 1]
    algorithms = {
        "bfs": lambda: _BfsTreeAlgorithm(root),
        "broadcast": lambda: _TreeBroadcastAlgorithm(tree, values),
        "convergecast": lambda: _ConvergecastAlgorithm(
            tree, {node: node % 5 for node in network.nodes}, min
        ),
        "gather": lambda: _TreeGatherAlgorithm(
            tree, {node: [node] for node in network.nodes}
        ),
        "algorithm2": lambda: BoundedDistanceSsspAlgorithm(root, 20),
        "bellman-ford": lambda: _BellmanFordAlgorithm([root]),
    }
    quiescence = kind == "bellman-ford"

    def record(target_engine):
        rounds = []

        def observer(round_number, delivered):
            rounds.append(
                (
                    round_number,
                    [(m.sender, m.receiver, m.payload, m.tag) for m in delivered],
                )
            )

        result = Simulator(network).run(
            algorithms[kind](),
            halt_on_quiescence=quiescence,
            observer=observer,
            engine=target_engine,
        )
        return rounds, result.report, result.outputs

    reference = record("sparse")

    calls = Counter()

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    for name in ENGINES:
        cls = type(get_engine(name))
        monkeypatch.setattr(cls, "run", counted(name, cls.run))
    # What the schema engines' prepared runs execute.
    executors = [(dense_tree, "_run_tree"), (symbolic, "_run")]
    if "dense" in ENGINES:
        from repro.congest.engine import dense

        executors.append((dense, "_run_minplus"))
    for module, attr in executors:
        monkeypatch.setattr(module, attr, counted(attr, getattr(module, attr)))

    if get_engine(engine).prepare(network, algorithms[kind]()) is None:
        assert (engine, kind) in {("dense", "algorithm2"), ("symbolic", "bellman-ford")}
        with pytest.raises(ValueError, match="cannot execute"):
            record(engine)
        assert not calls
        return
    observed = record(engine)
    assert calls == Counter({"sparse": 1})
    rounds, report, outputs = observed
    assert rounds == reference[0]
    assert report == reference[1]
    assert outputs == reference[2]


@pytest.mark.skipif("dense" not in ENGINES, reason="dense engine needs NumPy")
def test_tree_schema_validation_declines_malformed_trees():
    """Every malformed tree shape the planner cannot reproduce falls back
    (the interpreting engines then fail the node program's own way)."""
    from repro.congest.engine import get_engine
    from repro.congest.primitives import BfsTree, _ConvergecastAlgorithm, _TreeGatherAlgorithm

    network = NETWORKS["path"]
    nodes = sorted(network.nodes)
    tree, _ = build_bfs_tree(network, nodes[0])
    dense = get_engine("dense")
    records = {node: [node] for node in nodes}

    def variant(**overrides):
        base = {
            "root": tree.root,
            "parent": dict(tree.parent),
            "depth": dict(tree.depth),
            "children": {n: list(c) for n, c in tree.children.items()},
        }
        base.update(overrides)
        return BfsTree(**base)

    missing_depth = variant(depth={n: d for n, d in tree.depth.items() if n != nodes[-1]})
    bad_root = variant(parent={**tree.parent, tree.root: nodes[1]})
    broken_depth = variant(depth={**tree.depth, nodes[-1]: 0})
    orphan = variant(parent={**tree.parent, nodes[-1]: None})
    bad_children = variant(children={**tree.children, nodes[-1]: [nodes[0]]})
    for bogus in (missing_depth, bad_root, broken_depth, orphan, bad_children):
        assert dense.prepare(network, _TreeGatherAlgorithm(bogus, records)) is None
    foreign_root = variant(root=987654)
    assert dense.prepare(network, _TreeGatherAlgorithm(foreign_root, records)) is None
    # Convergecast additionally needs a value for every node.
    partial_values = {node: node for node in nodes[1:]}
    assert dense.prepare(
        network, _ConvergecastAlgorithm(tree, partial_values, max)
    ) is None


@pytest.mark.skipif("dense" not in ENGINES, reason="dense engine needs NumPy")
def test_tree_schema_dense_guards():
    """Disconnected BFS floods and pre-loaded memory are declined up front;
    an explicit dense request with pre-loaded memory fails loudly."""
    from repro.congest.engine import get_engine
    from repro.congest.primitives import _BfsTreeAlgorithm, _TreeGatherAlgorithm
    from repro.graphs import WeightedGraph

    graph = WeightedGraph(edges=[(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    network = Network(graph)
    graph.remove_edge(1, 2)
    dense = get_engine("dense")
    assert dense.prepare(network, _BfsTreeAlgorithm(0)) is None
    assert dense.prepare(network, _BfsTreeAlgorithm(99)) is None

    connected = NETWORKS["path"]
    tree, _ = build_bfs_tree(connected, min(connected.nodes))
    algorithm = _TreeGatherAlgorithm(tree, {n: [] for n in connected.nodes})
    memory = {min(connected.nodes): {"x": 1}}
    assert dense.prepare(connected, algorithm, initial_memory=memory) is None
    # An explicit Simulator request refuses at resolution time; invoking the
    # engine directly must still fail loudly rather than drop the memory.
    with pytest.raises(ValueError, match="dense"):
        Simulator(connected).run(algorithm, initial_memory=memory, engine="dense")
    with pytest.raises(ValueError, match="dense engine cannot execute protocol"):
        dense.run(connected, algorithm, max_rounds=100, initial_memory=memory)


@pytest.mark.parametrize("engine", ENGINES)
def test_tree_runs_support_quiescence_halting(engine):
    """The flood/echo schedules never go idle mid-protocol, so quiescence
    halting charges exactly the natural round count on every engine."""
    from repro.congest.primitives import _TreeBroadcastAlgorithm

    network = NETWORKS["random-0"]
    tree, _ = build_bfs_tree(network, min(network.nodes))
    algorithm = _TreeBroadcastAlgorithm(tree, [1, 2, 3])
    plain = Simulator(network).run(algorithm, engine=engine)
    quiescent = Simulator(network).run(
        algorithm, halt_on_quiescence=True, engine=engine
    )
    assert quiescent.report == plain.report
    assert quiescent.outputs == plain.outputs


@st.composite
def _networks_with_trees(draw):
    """A connected random network (spanning tree plus chords), a root and
    the BFS tree the protocol builds from it."""
    num_nodes = draw(st.integers(min_value=4, max_value=9))
    graph = WeightedGraph(nodes=range(num_nodes))
    for node in range(1, num_nodes):
        graph.add_edge(draw(st.integers(0, node - 1)), node, draw(st.integers(1, 9)))
    for _ in range(draw(st.integers(0, num_nodes // 2))):
        u = draw(st.integers(0, num_nodes - 1))
        v = draw(st.integers(0, num_nodes - 1))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, draw(st.integers(1, 9)))
    network = Network(graph)
    tree, _ = build_bfs_tree(network, draw(st.sampled_from(network.nodes)))
    return network, tree


def _mutate_tree(draw, network, tree):
    """Apply one random in-place mutation to ``tree``'s declared maps."""
    nodes = network.nodes
    inner = [node for node in nodes if tree.children[node]]
    mutations = ["drop-child", "duplicate-child", "bump-depth"]
    if any(len(tree.children[node]) > 1 for node in inner):
        mutations.append("reorder-children")
    strangers = [
        (node, other)
        for node in nodes
        if node != tree.root
        for other in nodes
        if other != node and not network.graph.has_edge(node, other)
    ]
    if strangers:
        mutations.append("reparent")
    mutation = draw(st.sampled_from(mutations))
    if mutation == "drop-child":
        node = draw(st.sampled_from(inner))
        tree.children[node].remove(draw(st.sampled_from(tree.children[node])))
    elif mutation == "duplicate-child":
        node = draw(st.sampled_from(inner))
        tree.children[node].append(draw(st.sampled_from(tree.children[node])))
    elif mutation == "bump-depth":
        tree.depth[draw(st.sampled_from(nodes))] += 1
    elif mutation == "reorder-children":
        node = draw(st.sampled_from([n for n in inner if len(tree.children[n]) > 1]))
        tree.children[node][:] = draw(st.permutations(tree.children[node]))
    else:  # reparent onto a non-neighbour, keeping the maps consistent
        node, other = draw(st.sampled_from(strangers))
        tree.children[tree.parent[node]].remove(node)
        tree.children[other].append(node)
        tree.parent[node] = other
        tree.depth[node] = tree.depth[other] + 1
    return mutation


@given(case=_networks_with_trees(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_tree_layout_memo_never_serves_a_mutated_tree(case, data):
    """A tree primitive warms the tree-layout memo; the tree is then mutated
    in place and run again.  Every engine must agree -- same outputs and
    reports, or the same exception -- so the schema-driven engines must
    notice the mutation rather than replay the layout they validated."""
    from repro.congest.engine import get_engine
    from repro.congest.primitives import (
        _ConvergecastAlgorithm,
        _TreeBroadcastAlgorithm,
        _TreeGatherAlgorithm,
    )

    network, tree = case
    nodes = network.nodes
    kind = data.draw(st.sampled_from(["broadcast", "convergecast", "gather"]))
    make = {
        "broadcast": lambda: _TreeBroadcastAlgorithm(tree, ["a", 7, "c"]),
        "convergecast": lambda: _ConvergecastAlgorithm(
            tree, {node: node % 3 for node in nodes}, max
        ),
        "gather": lambda: _TreeGatherAlgorithm(
            tree, {node: [node] * (node % 3) for node in nodes}
        ),
    }[kind]
    max_rounds = 6 * len(nodes) + 10

    def outcomes():
        seen = {}
        for engine in ENGINES:
            with force_engine(engine):
                try:
                    result = Simulator(network, max_rounds=max_rounds).run(make())
                except Exception as error:  # compared across engines below
                    seen[engine] = (type(error).__name__, str(error))
                else:
                    seen[engine] = (result.outputs, result.report)
        return seen

    def assert_agree(seen, label):
        reference = seen["sparse"]
        for engine, outcome in seen.items():
            assert outcome == reference, f"{label}: {engine} diverges from sparse"

    assert get_engine("symbolic").prepare(network, make()) is not None  # memo warm
    assert_agree(outcomes(), "valid tree")
    mutation = _mutate_tree(data.draw, network, tree)
    assert_agree(outcomes(), mutation)


def test_bounded_distance_sssp_with_initial_memory_identical():
    """Weight-override runs (pre-loaded memory) stay engine-invariant.

    These runs are *eligible* for symbolic (the overrides are declared via
    ``weight_memory_key``), so this doubles as the override-column
    differential check.
    """
    network = NETWORKS["random-0"]
    source = min(network.nodes)
    override = {
        node: {
            neighbor: max(1, weight // 2)
            for neighbor, weight in network.incident_weights(node).items()
        }
        for node in network.nodes
    }
    _assert_identical(
        _run_on_all_engines(
            lambda: bounded_distance_sssp_protocol(
                network, source, max_distance=25, weights=override
            )
        )
    )


# --------------------------------------------------------------------------- #
# Announce-schedule schemas (Algorithm 2 / Algorithm 1 level loop /
# Algorithm 3): gated announcements, value caps, per-column windows and
# weight overrides must stay engine-invariant.
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(NETWORKS))
@pytest.mark.parametrize("bound", [0, 7, 30])
def test_bounded_distance_sssp_identical(name, bound):
    """Algorithm 2's time-of-arrival announce schedule, across topologies
    (including the single-node network with zero announcements)."""
    network = NETWORKS[name]
    source = min(network.nodes)
    _assert_identical(
        _run_on_all_engines(
            lambda: bounded_distance_sssp_protocol(network, source, bound)
        )
    )


@pytest.mark.parametrize("name", ["path", "star", "random-0", "single-node"])
def test_bounded_distance_sssp_rounded_overrides_identical(name):
    """Algorithm 1's rounded weights w_i, pre-loaded as override columns."""
    network = NETWORKS[name]
    source = min(network.nodes)
    bound = level_distance_bound(3, 0.5)
    weights = rounded_incident_weights(network, 3, 0.5, level=1)
    _assert_identical(
        _run_on_all_engines(
            lambda: bounded_distance_sssp_protocol(
                network, source, bound, weights=weights
            )
        )
    )


@pytest.mark.parametrize("name", ["path", "random-1", "single-node"])
def test_bounded_hop_sssp_pipeline_identical(name):
    """One full Algorithm 1 run: every rounding level executes Algorithm 2
    under its own override weights, and the summed report must match."""
    network = NETWORKS[name]
    source = min(network.nodes)
    _assert_identical(
        _run_on_all_engines(
            lambda: bounded_hop_sssp_protocol(network, source, 3, 0.5, levels=4)
        )
    )


@pytest.mark.parametrize("name", ["path", "star", "random-0"])
def test_multi_source_bounded_hop_identical(name):
    """Algorithm 3's delay-staggered level windows: per-column activity
    ranges, per-level rounded weights and once-per-window announcements."""
    network = NETWORKS[name]
    sources = sorted(network.nodes)[:2]
    _assert_identical(
        _run_on_all_engines(
            lambda: multi_source_bounded_hop_protocol(
                network, sources, 3, 0.5, levels=3, seed=5
            )
        )
    )


@pytest.mark.skipif("dense" not in ENGINES, reason="dense engine needs NumPy")
def test_gated_runs_decline_dense():
    """Arrival-gated runs belong to symbolic: dense declines them, an
    explicit dense request fails loudly, and a forced dense preference runs
    them on sparse with the reference report."""
    from repro.congest.engine import get_engine, resolve_engine

    network = NETWORKS["random-0"]
    source = min(network.nodes)
    dense = get_engine("dense")
    override = {
        node: {"override_weights": dict(network.incident_weights(node))}
        for node in network.nodes
    }
    runs = [
        (BoundedDistanceSsspAlgorithm(source, 20), None),
        (
            BoundedDistanceSsspAlgorithm(source, 20, weight_key="override_weights"),
            override,
        ),
    ]
    for algorithm, memory in runs:
        assert dense.prepare(network, algorithm, initial_memory=memory) is None
        with pytest.raises(ValueError, match="dense"):
            Simulator(network).run(algorithm, initial_memory=memory, engine="dense")
        with pytest.raises(ValueError, match="dense"):
            dense.run(network, algorithm, max_rounds=100, initial_memory=memory)
        with force_engine("dense"):
            assert resolve_engine(None, network, algorithm, memory).name == "sparse"
            forced = Simulator(network).run(algorithm, initial_memory=memory)
        reference = Simulator(network).run(
            algorithm, initial_memory=memory, engine="sparse"
        )
        assert forced.report == reference.report
        assert forced.outputs == reference.outputs
        assert forced.report.rounds == 21


def test_malformed_weight_overrides_raise_before_the_run():
    """Override dicts must cover every incident edge; a missing node with
    neighbors (or a missing neighbor entry) is a clear ValueError instead of
    a bare KeyError deep inside the node program, on every engine."""
    network = NETWORKS["path"]
    source = min(network.nodes)
    weights = rounded_incident_weights(network, 2, 0.5, level=0)
    incomplete = {node: dict(weights[node]) for node in network.nodes}
    victim = sorted(network.nodes)[1]
    incomplete[victim].popitem()
    for engine in ENGINES:
        with force_engine(engine):
            with pytest.raises(ValueError, match=f"node {victim}"):
                bounded_distance_sssp_protocol(
                    network, source, 10, weights=incomplete
                )
    dropped = {node: dict(weights[node]) for node in network.nodes if node != victim}
    with pytest.raises(ValueError, match=f"node {victim}"):
        bounded_distance_sssp_protocol(network, source, 10, weights=dropped)


def test_isolated_node_weight_overrides_may_be_omitted():
    """A node with no incident edges needs no override entry (it has nothing
    to look up); ``dict(weights[node])`` used to raise a bare KeyError."""
    network = NETWORKS["single-node"]
    source = min(network.nodes)
    results = _run_on_all_engines(
        lambda: bounded_distance_sssp_protocol(network, source, 4, weights={})
    )
    _assert_identical(results)
    outputs, report = results["sparse"]
    assert outputs == {source: 0}
    assert report.rounds == 5


def test_duplicate_sources_identical():
    """The schema must dedup repeated sources exactly like initialize() does."""
    network = NETWORKS["random-1"]
    nodes = sorted(network.nodes)
    sources = [nodes[0], nodes[2], nodes[0], nodes[2], nodes[1]]
    _assert_identical(
        _run_on_all_engines(lambda: multi_source_bellman_ford(network, sources))
    )


def test_negative_node_ids_identical():
    """Negative ids flood negative values: encode_value charges them by
    magnitude plus sign bit, and the engines must agree bit-for-bit."""
    network = Network(WeightedGraph(edges=[(-5, 3, 2), (3, 7, 1), (-5, -2, 4)]))
    for protocol in (
        lambda: elect_leader(network),
        lambda: distributed_bellman_ford(network, -5),
    ):
        _assert_identical(_run_on_all_engines(protocol))


def test_huge_weights_stay_exact_on_every_engine():
    """Weights near 2^53 overflow float64 exactness: the dense engine must
    refuse such runs (auto falls back to sparse) rather than silently round."""
    network = Network(WeightedGraph(edges=[(0, 1, 2**53 + 1), (1, 2, 3)]))
    source = 0
    results = _run_on_all_engines(lambda: distributed_bellman_ford(network, source))
    _assert_identical(results)
    assert results["sparse"][0][1] == 2**53 + 1  # the exact odd distance
    if "dense" in ENGINES:
        from repro.congest.engine import get_engine

        algorithm = _BellmanFordAlgorithm([source])
        assert get_engine("dense").prepare(network, algorithm) is None
        with pytest.raises(ValueError):
            Simulator(network).run(algorithm, engine="dense")


def test_empty_source_set_identical():
    """Zero state columns: one idle round, then quiescence, on every engine."""
    network = NETWORKS["path"]
    _assert_identical(
        _run_on_all_engines(lambda: multi_source_bellman_ford(network, []))
    )


def test_round_limit_exceeded_parity():
    network = NETWORKS["path"]
    algorithm = _BellmanFordAlgorithm([min(network.nodes)])
    messages = {}
    for engine in ENGINES:
        simulator = Simulator(network, max_rounds=17)
        # force_engine, not engine=: ineligible engines (e.g. symbolic on an
        # ungated flood) fall back to sparse and must still raise identically.
        with force_engine(engine):
            with pytest.raises(RoundLimitExceeded) as excinfo:
                # No quiescence halting and no hop budget: never terminates.
                simulator.run(algorithm)
        messages[engine] = str(excinfo.value)
    assert len(set(messages.values())) == 1, messages


def test_strict_bandwidth_parity():
    graph = random_weighted_graph(10, average_degree=3.0, max_weight=60, seed=5)
    network = Network(
        graph, CongestConfig(bandwidth_words=1, word_bits_override=8, strict_bandwidth=True)
    )
    messages = {}
    for engine in ENGINES:
        with force_engine(engine):
            with pytest.raises(ValueError) as excinfo:
                Simulator(network).run(
                    _BellmanFordAlgorithm(sorted(network.nodes)),
                    halt_on_quiescence=True,
                )
        messages[engine] = str(excinfo.value)
    assert len(set(messages.values())) == 1, messages


class _NoSchema(NodeAlgorithm):
    name = "no-schema"

    def receive(self, ctx, round_number, messages):
        ctx.halt()


@pytest.mark.skipif("dense" not in ENGINES, reason="dense engine needs NumPy")
def test_explicit_dense_on_schema_less_algorithm_raises():
    network = NETWORKS["two-node"]
    with pytest.raises(ValueError, match="dense"):
        Simulator(network).run(_NoSchema(), engine="dense")


@pytest.mark.skipif("dense" not in ENGINES, reason="dense engine needs NumPy")
def test_forced_dense_falls_back_for_schema_less_algorithm():
    network = NETWORKS["two-node"]
    with force_engine("dense"):
        result = Simulator(network).run(_NoSchema())
    assert result.report.rounds == 1


# --------------------------------------------------------------------------- #
# Symbolic engine: the closed-form executor must be bit-identical to the
# stepping engines on every schedule-determined schema (it already crosses
# the whole zoo via ENGINES above); the tests here pin its eligibility rules
# and its native strict-bandwidth first-violation.
# --------------------------------------------------------------------------- #
def test_announce_schedule_runs_are_symbolic_eligible():
    """The Theorem 1.1 protocols must actually *run* symbolic, not fall back."""
    from repro.congest.engine import get_engine

    network = NETWORKS["spanner"]
    source = min(network.nodes)
    symbolic = get_engine("symbolic")
    assert symbolic.prepare(network, BoundedDistanceSsspAlgorithm(source, 20)) is not None
    # An explicit engine request must execute (it raises when unsupported).
    result = Simulator(network).run(
        BoundedDistanceSsspAlgorithm(source, 20), engine="symbolic"
    )
    assert result.report.rounds == 21


def test_explicit_symbolic_on_schema_less_algorithm_raises():
    network = NETWORKS["two-node"]
    with pytest.raises(ValueError, match="symbolic"):
        Simulator(network).run(_NoSchema(), engine="symbolic")


def test_explicit_symbolic_on_ungated_flood_raises():
    """Bellman-Ford floods have no announce gate, so their schedule is not
    closed-form; an explicit request fails loudly instead of guessing."""
    network = NETWORKS["path"]
    with pytest.raises(ValueError, match="symbolic"):
        Simulator(network).run(
            _BellmanFordAlgorithm([min(network.nodes)]),
            halt_on_quiescence=True,
            engine="symbolic",
        )


def test_forced_symbolic_falls_back_for_ineligible_runs():
    """A blanket REPRO_ENGINE=symbolic must keep the whole suite working."""
    with force_engine("symbolic"):
        flood = Simulator(NETWORKS["random-0"]).run(
            _BellmanFordAlgorithm([min(NETWORKS["random-0"].nodes)]),
            halt_on_quiescence=True,
        )
        schema_less = Simulator(NETWORKS["two-node"]).run(_NoSchema())
    reference = Simulator(NETWORKS["random-0"]).run(
        _BellmanFordAlgorithm([min(NETWORKS["random-0"].nodes)]),
        halt_on_quiescence=True,
        engine="sparse",
    )
    assert flood.report == reference.report
    assert flood.outputs == reference.outputs
    assert schema_less.report.rounds == 1


def test_symbolic_strict_bandwidth_first_violation_parity():
    """On a run the symbolic engine executes *natively* (arrival-gated
    Algorithm 2), the first over-budget edge -- and hence the exact error
    text, bits included -- must match the sparse engine's."""
    from repro.congest.engine import get_engine

    graph = random_weighted_graph(10, average_degree=3.0, max_weight=60, seed=5)
    network = Network(
        graph,
        CongestConfig(bandwidth_words=1, word_bits_override=8, strict_bandwidth=True),
    )
    algorithm = BoundedDistanceSsspAlgorithm(min(network.nodes), 120)
    assert get_engine("symbolic").prepare(network, algorithm) is not None
    messages = {}
    for engine in ("sparse", "symbolic"):
        with pytest.raises(ValueError) as excinfo:
            Simulator(network).run(algorithm, engine=engine)
        messages[engine] = str(excinfo.value)
    assert messages["symbolic"] == messages["sparse"]
    assert "exceeded the bandwidth" in messages["sparse"]
