"""Pinning tests for the dense-tree engine's per-graph layout memo.

``dense_tree._BFS_LAYER_CACHE`` holds, per graph (by ``id``,
weakref-evicted) and per mutation counter, two kinds of layout:

* the explore-flood layering of ``_bfs_layers``, keyed by (version, root),
  so that repeated tree primitives on the same network reuse one layering;
* the validated declared tree of ``_tree_arrays``, keyed by
  (version, root, "tree") and stored with a snapshot of the declared
  ``depth`` / ``parent`` / ``children`` maps, so that the many tree
  primitives of one Theorem 1.1 run validate their shared tree once.

These tests pin that contract: hits return the identical object, roots key
independently, a topology mutation invalidates every stale entry, and
disconnected floods and invalid trees are cached as negative entries.  A
tree lookup hits on equal maps (a second ``build_bfs_tree`` of the same
tree, which since the per-``Network`` tree memo is a fresh copy rather than
a re-run) and misses on maps mutated after validation; the graph's entry
goes away when the graph is collected.  The ``Network``-level memo itself is
pinned in ``test_tree_topology_memo.py``.
"""

from __future__ import annotations

import gc

import pytest

from repro.congest import force_engine
from repro.congest.engine import dense_tree
from repro.congest.network import Network
from repro.congest.primitives import build_bfs_tree, _TreeBroadcastAlgorithm
from repro.core import quantum_weighted_diameter
from repro.graphs import WeightedGraph, random_weighted_graph, yao_spanner_graph


def _path_network(length: int = 6) -> Network:
    graph = WeightedGraph(edges=[(i, i + 1, 1) for i in range(length - 1)])
    return Network(graph)


class TestBfsLayerCache:
    def test_second_lookup_returns_the_cached_object(self):
        network = _path_network()
        graph = network.graph
        dense_tree._BFS_LAYER_CACHE.pop(id(graph), None)
        first = dense_tree._bfs_layers(network, 0)
        second = dense_tree._bfs_layers(network, 0)
        assert second is first
        assert dense_tree._BFS_LAYER_CACHE[id(graph)][(graph._version, 0)] is first

    def test_layering_is_correct_on_a_path(self):
        network = _path_network(5)
        depth, parent = dense_tree._bfs_layers(network, 0)
        assert depth == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
        assert parent == {0: None, 1: 0, 2: 1, 3: 2, 4: 3}

    def test_roots_key_independently(self):
        graph = random_weighted_graph(num_nodes=10, max_weight=7, seed=11)
        network = Network(graph)
        dense_tree._BFS_LAYER_CACHE.pop(id(graph), None)
        from_zero = dense_tree._bfs_layers(network, 0)
        from_one = dense_tree._bfs_layers(network, 1)
        per_graph = dense_tree._BFS_LAYER_CACHE[id(graph)]
        assert per_graph[(graph._version, 0)] is from_zero
        assert per_graph[(graph._version, 1)] is from_one
        assert from_zero[0][0] == 0 and from_one[0][1] == 0

    def test_mutation_invalidates_stale_layerings(self):
        network = _path_network(6)
        graph = network.graph
        dense_tree._BFS_LAYER_CACHE.pop(id(graph), None)
        stale = dense_tree._bfs_layers(network, 0)
        assert stale[0][5] == 5
        graph.add_edge(0, 5, 1)  # bumps the mutation counter
        fresh = dense_tree._bfs_layers(network, 0)
        assert fresh is not stale
        assert fresh[0][5] == 1  # the chord shortens the flood
        # The stale entry was dropped, not kept alongside the fresh one.
        per_graph = dense_tree._BFS_LAYER_CACHE[id(graph)]
        assert set(per_graph) == {(graph._version, 0)}

    def test_disconnected_outcome_is_cached_negatively(self):
        graph = WeightedGraph(edges=[(0, 1, 1), (2, 3, 1)])
        # Bypass Network's connectivity check: build a connected network,
        # then hand the flood a root of a disconnected graph directly.
        network = Network.__new__(Network)
        network._graph = graph
        dense_tree._BFS_LAYER_CACHE.pop(id(graph), None)
        with pytest.raises(dense_tree._Unsupported):
            dense_tree._bfs_layers(network, 0)
        assert dense_tree._BFS_LAYER_CACHE[id(graph)][(graph._version, 0)] is None
        with pytest.raises(dense_tree._Unsupported):
            dense_tree._bfs_layers(network, 0)


def _schema(tree):
    """A fresh broadcast schema over ``tree`` (every run fetches its own)."""
    return _TreeBroadcastAlgorithm(tree, [1]).message_schema()


@pytest.fixture
def validations(monkeypatch):
    """Count the uncached tree validations behind ``_tree_arrays``."""
    calls = []
    validate = dense_tree._validate_tree

    def counting(network, schema):
        calls.append(schema.root)
        return validate(network, schema)

    monkeypatch.setattr(dense_tree, "_validate_tree", counting)
    return calls


class TestTreeLayoutCache:
    def test_hit_returns_the_identical_layout(self, validations):
        network = Network(random_weighted_graph(num_nodes=12, max_weight=5, seed=3))
        tree, _ = build_bfs_tree(network, 0)
        first = dense_tree._tree_arrays(network, _schema(tree))
        second = dense_tree._tree_arrays(network, _schema(tree))
        assert second is first
        assert len(validations) == 1
        entry = dense_tree._BFS_LAYER_CACHE[id(network.graph)][
            (network.graph._version, 0, "tree")
        ]
        assert entry.outcome is first

    def test_an_equal_tree_from_a_second_build_hits(self, validations):
        network = Network(random_weighted_graph(num_nodes=12, max_weight=5, seed=4))
        tree, _ = build_bfs_tree(network, 0)
        again, _ = build_bfs_tree(network, 0)
        assert again is not tree and again.parent is not tree.parent
        first = dense_tree._tree_arrays(network, _schema(tree))
        assert dense_tree._tree_arrays(network, _schema(again)) is first
        assert len(validations) == 1

    def test_mutated_maps_miss_and_are_validated_again(self, validations):
        network = _path_network(5)
        tree, _ = build_bfs_tree(network, 0)
        stale = dense_tree._tree_arrays(network, _schema(tree))
        # Reparent the tail of the path 0-1-2-3-4 under node 2, in place:
        # the maps stay consistent, but (2, 4) is not a network edge.
        tree.children[3].clear()
        tree.children[2].append(4)
        tree.parent[4] = 2
        tree.depth[4] = 3
        with pytest.raises(dense_tree._Unsupported, match="not a network edge"):
            dense_tree._tree_arrays(network, _schema(tree))
        assert len(validations) == 2
        # Undo the mutation: the maps now differ from the negative entry's
        # snapshot, so they validate once more, then hit.
        tree.children[2].remove(4)
        tree.children[3].append(4)
        tree.parent[4] = 3
        tree.depth[4] = 4
        fresh = dense_tree._tree_arrays(network, _schema(tree))
        assert fresh is not stale and fresh == stale
        assert dense_tree._tree_arrays(network, _schema(tree)) is fresh
        assert len(validations) == 3

    def test_reordered_children_miss_and_relayout(self, validations):
        graph = WeightedGraph(edges=[(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        network = Network(graph)
        tree, _ = build_bfs_tree(network, 0)
        before = dense_tree._tree_arrays(network, _schema(tree))
        assert before.children[0] == [1, 2, 3]
        tree.children[0].reverse()
        after = dense_tree._tree_arrays(network, _schema(tree))
        assert after.children[0] == [3, 2, 1]
        assert before.children[0] == [1, 2, 3]  # the old layout is untouched
        assert len(validations) == 2

    def test_topology_mutation_drops_layouts_with_the_layering(self, validations):
        network = _path_network(6)
        graph = network.graph
        tree, _ = build_bfs_tree(network, 0)
        dense_tree._bfs_layers(network, 0)
        stale = dense_tree._tree_arrays(network, _schema(tree))
        old = graph._version
        assert set(dense_tree._BFS_LAYER_CACHE[id(graph)]) == {
            (old, 0),
            (old, 0, "tree"),
        }
        graph.add_edge(0, 5, 1)  # bumps the mutation counter
        fresh = dense_tree._tree_arrays(network, _schema(tree))
        assert fresh is not stale
        assert len(validations) == 2
        assert set(dense_tree._BFS_LAYER_CACHE[id(graph)]) == {
            (graph._version, 0, "tree")
        }

    def test_invalid_tree_is_cached_negatively(self, validations):
        network = _path_network(5)
        tree, _ = build_bfs_tree(network, 0)
        tree.depth[4] += 1
        messages = []
        for _ in range(2):
            with pytest.raises(dense_tree._Unsupported) as excinfo:
                dense_tree._tree_arrays(network, _schema(tree))
            messages.append(str(excinfo.value))
        assert messages == ["node 4 breaks the depth invariant"] * 2
        assert len(validations) == 1
        entry = dense_tree._BFS_LAYER_CACHE[id(network.graph)][
            (network.graph._version, 0, "tree")
        ]
        assert entry.outcome == messages[0]

    def test_entry_goes_away_when_the_graph_is_collected(self):
        network = _path_network(5)
        key = id(network.graph)
        tree, _ = build_bfs_tree(network, 0)
        dense_tree._tree_arrays(network, _schema(tree))
        assert key in dense_tree._BFS_LAYER_CACHE
        del network
        gc.collect()
        assert key not in dense_tree._BFS_LAYER_CACHE

    def test_one_theorem11_op_validates_its_tree_once(self, validations):
        """Every Setup, delay broadcast and overlay hand-off of one cold
        Theorem 1.1 op runs on the leader's BFS tree: one validation."""
        network = Network(yao_spanner_graph(32, seed=0))
        with force_engine("symbolic"):
            quantum_weighted_diameter(network, seed=2)
        assert len(validations) == 1
