"""The per-topology BFS-tree memo and root-only tree reads.

``build_bfs_tree`` memoizes its run on the :class:`Network` by (topology
version, root, resolved engine): a repeated build on an unchanged topology
simulates nothing and hands out fresh copies of the tree and the report.  A
topology mutation invalidates the memo; forcing another engine executes that
engine; networks with different bandwidth configurations never share
entries.  Gathers and convergecasts on the closed-form engines build only
the root's context, and a later full read still equals ``sparse``.

Pure Python: runs on every engine the install registers, NumPy or not.
"""

from __future__ import annotations

import copy
from collections import Counter

import pytest

from repro.congest import (
    CongestConfig,
    Network,
    Simulator,
    available_engines,
    build_bfs_tree,
    force_engine,
    get_engine,
)
from repro.congest.engine import dense_tree
from repro.congest.primitives import (
    _ConvergecastAlgorithm,
    _TreeGatherAlgorithm,
    convergecast_max,
    convergecast_sum,
    gather_values_to,
    zero_convergecast_report,
)
from repro.graphs import WeightedGraph, random_weighted_graph

pytestmark = pytest.mark.engines


def _path_network(length: int = 6) -> Network:
    return Network(WeightedGraph(edges=[(i, i + 1, 1) for i in range(length - 1)]))


def _snapshot(tree, report):
    return copy.deepcopy((tree.parent, tree.depth, tree.children, report.to_json()))


@pytest.fixture
def runs(monkeypatch):
    """Count the prepared runs each registered engine executes."""
    counts = Counter()
    for name in available_engines():
        engine = get_engine(name)

        def counting(*args, _name=name, _prepare=engine.prepare, **kwargs):
            prepared = _prepare(*args, **kwargs)
            if prepared is None:
                return None

            def run(*run_args):
                counts[_name] += 1
                return prepared(*run_args)

            return run

        monkeypatch.setattr(engine, "prepare", counting)
    return counts


def test_tree_hit_returns_copies_that_callers_may_mutate(runs):
    network = Network(random_weighted_graph(num_nodes=12, max_weight=5, seed=3))
    tree, report = build_bfs_tree(network, 0)
    expected = _snapshot(tree, report)
    again, again_report = build_bfs_tree(network, 0)
    assert sum(runs.values()) == 1
    assert again is not tree and again_report is not report
    assert again.parent is not tree.parent and again.depth is not tree.depth
    assert all(again.children[v] is not tree.children[v] for v in network.nodes)
    assert _snapshot(again, again_report) == expected
    # What callers do with their copy must not reach the next hit.
    child = tree.children[0][0]
    tree.children[0].clear()
    tree.parent[child] = None
    tree.depth.clear()
    report.protocol = "renamed"
    report.rounds += 99
    third, third_report = build_bfs_tree(network, 0)
    assert _snapshot(third, third_report) == expected
    assert sum(runs.values()) == 1


def test_tree_memo_keys_roots_independently(runs):
    network = Network(random_weighted_graph(num_nodes=10, max_weight=7, seed=11))
    from_zero, _ = build_bfs_tree(network, 0)
    from_one, _ = build_bfs_tree(network, 1)
    assert from_zero.root == 0 and from_one.root == 1
    assert from_one.depth[1] == 0
    build_bfs_tree(network, 0)
    build_bfs_tree(network, 1)
    assert sum(runs.values()) == 2


def test_tree_memo_follows_add_edge_and_remove_edge(runs):
    network = _path_network(6)
    tree, _ = build_bfs_tree(network, 0)
    assert tree.depth[5] == 5
    network.graph.add_edge(0, 5, 1)
    tree, _ = build_bfs_tree(network, 0)
    assert tree.depth[5] == 1  # the chord shortens the flood
    assert tree.parent[5] == 0
    network.graph.remove_edge(0, 5)
    tree, report = build_bfs_tree(network, 0)
    assert tree.depth[5] == 5
    assert sum(runs.values()) == 3
    # The rebuilt entry is what a fresh network over the same path builds.
    fresh_tree, fresh_report = build_bfs_tree(_path_network(6), 0)
    assert _snapshot(tree, report) == _snapshot(fresh_tree, fresh_report)


@pytest.mark.parametrize("engine", available_engines())
def test_tree_disconnecting_mutation_raises_on_every_engine(engine):
    network = _path_network(4)
    with force_engine(engine):
        build_bfs_tree(network, 0)
        network.graph.remove_edge(2, 3)
        with pytest.raises(ValueError, match=r"cannot reach nodes \[3\]"):
            build_bfs_tree(network, 0)
        network.graph.add_edge(2, 3, 1)
        tree, _ = build_bfs_tree(network, 0)
    assert tree.depth[3] == 3


def test_tree_first_build_under_each_forced_engine_runs_that_engine(runs):
    network = Network(random_weighted_graph(num_nodes=14, max_weight=9, seed=5))
    built = {}
    for engine in available_engines():
        with force_engine(engine):
            before = runs[engine]
            tree, report = build_bfs_tree(network, 0)
            assert runs[engine] == before + 1, engine
            build_bfs_tree(network, 0)
            assert runs[engine] == before + 1, engine
        built[engine] = _snapshot(tree, report)
    assert len({repr(snapshot) for snapshot in built.values()}) == 1


def test_tree_memo_is_per_network_not_per_graph(runs):
    graph = random_weighted_graph(num_nodes=12, max_weight=5, seed=8)
    wide = Network(graph)
    narrow = Network(graph, CongestConfig(word_bits_override=64))
    _, wide_report = build_bfs_tree(wide, 0)
    _, narrow_report = build_bfs_tree(narrow, 0)
    assert sum(runs.values()) == 2
    assert wide_report.congested_rounds != narrow_report.congested_rounds
    assert wide_report == build_bfs_tree(Network(graph), 0)[1]
    assert narrow_report == build_bfs_tree(
        Network(graph, CongestConfig(word_bits_override=64)), 0
    )[1]


@pytest.fixture
def contexts_built(monkeypatch):
    """Count the contexts the closed-form engines' deferred builder makes."""
    calls = []
    make = dense_tree.NodeContext

    def counting(**kwargs):
        calls.append(kwargs["node"])
        return make(**kwargs)

    monkeypatch.setattr(dense_tree, "NodeContext", counting)
    return calls


def _tree_reads(network):
    root = min(network.nodes)
    tree, _ = build_bfs_tree(network, root)
    records = {node: [node, -node] for node in network.nodes if node % 2}
    values = {node: node * 3 for node in network.nodes}
    return root, tree, records, values


def test_tree_gather_and_convergecast_build_only_the_root(contexts_built):
    network = Network(random_weighted_graph(num_nodes=16, max_weight=9, seed=2))
    root, tree, records, values = _tree_reads(network)
    with force_engine("sparse"):
        expected = (
            gather_values_to(network, root, records, tree=tree),
            convergecast_sum(network, values, tree=tree),
        )
    contexts_built.clear()
    with force_engine("symbolic"):
        gathered = gather_values_to(network, root, records, tree=tree)
        assert contexts_built == [root]
        total = convergecast_sum(network, values, tree=tree)
        assert contexts_built == [root, root]
    assert (gathered, total) == expected


@pytest.mark.parametrize("kind", ["gather", "convergecast"])
def test_tree_root_read_then_full_read_equals_sparse(kind, contexts_built):
    network = Network(random_weighted_graph(num_nodes=16, max_weight=9, seed=6))
    root, tree, records, values = _tree_reads(network)
    if kind == "gather":
        algorithm = _TreeGatherAlgorithm(tree, records)
    else:
        algorithm = _ConvergecastAlgorithm(tree, values, lambda a, b: a + b)
    eager = Simulator(network).run(algorithm, engine="sparse")
    contexts_built.clear()
    deferred = Simulator(network).run(algorithm, engine="symbolic")
    root_output = deferred.output_of(root)
    assert contexts_built == [root]
    assert root_output == eager.output_of(root)
    # The full read builds every other node once and keeps the root's.
    assert deferred.outputs == eager.outputs
    assert deferred.outputs[root] is root_output
    assert sorted(contexts_built) == sorted(network.nodes)
    assert deferred.contexts == eager.contexts
    assert deferred == eager
    assert repr(deferred) == repr(eager)
    assert deferred.to_json() == eager.to_json()
    with pytest.raises(KeyError):
        deferred.output_of(-1)


@pytest.mark.parametrize("engine", available_engines())
def test_zero_convergecast_memo_equals_a_fresh_simulation(engine, runs):
    """The memoized all-zero convergecast report equals the one a fresh
    convergecast simulates, on every engine; a hit runs nothing and hands
    out a copy the caller may relabel."""
    network = Network(random_weighted_graph(num_nodes=14, max_weight=6, seed=8))
    with force_engine(engine):
        tree, _ = build_bfs_tree(network, 2)
        report = zero_convergecast_report(network, tree)
        runs.clear()
        again = zero_convergecast_report(network, tree)
        assert sum(runs.values()) == 0
        _, fresh = convergecast_max(network, dict.fromkeys(network.nodes, 0), tree=tree)
    assert report == again == fresh
    assert again is not report
    again.protocol = "relabelled"
    assert zero_convergecast_report(network, tree) == fresh
