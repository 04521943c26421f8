"""Tests for the BFS-tree / broadcast / convergecast / gather / election primitives."""

from __future__ import annotations

import pytest

from repro.congest import (
    CongestConfig,
    Network,
    Simulator,
    broadcast_from,
    build_bfs_tree,
    convergecast_max,
    convergecast_min,
    convergecast_sum,
    elect_leader,
)
from repro.congest.primitives import (
    _TreeBroadcastAlgorithm,
    broadcast_values_from,
    convergecast_aggregate,
    gather_values_to,
)
from repro.graphs import (
    WeightedGraph,
    dijkstra,
    grid_graph,
    path_graph,
    random_weighted_graph,
    star_graph,
)


class TestBfsTree:
    def test_depths_are_hop_distances(self, random_network):
        root = 0
        tree, _ = build_bfs_tree(random_network, root)
        hop_distances = dijkstra(random_network.graph.with_unit_weights(), root)
        assert all(tree.depth[v] == hop_distances[v] for v in random_network.nodes)

    def test_parents_are_neighbors_one_level_up(self, random_network):
        tree, _ = build_bfs_tree(random_network, 0)
        for node, parent in tree.parent.items():
            if parent is None:
                assert node == 0
                continue
            assert random_network.graph.has_edge(node, parent)
            assert tree.depth[node] == tree.depth[parent] + 1

    def test_children_consistent_with_parents(self, random_network):
        tree, _ = build_bfs_tree(random_network, 0)
        for node, children in tree.children.items():
            for child in children:
                assert tree.parent[child] == node

    def test_spanning(self, random_network):
        tree, _ = build_bfs_tree(random_network, 0)
        assert set(tree.depth) == set(random_network.nodes)

    def test_rounds_scale_with_depth_not_n(self):
        star = Network(star_graph(30))
        path = Network(path_graph(31))
        _, star_report = build_bfs_tree(star, 0)
        _, path_report = build_bfs_tree(path, 0)
        assert star_report.rounds < path_report.rounds

    def test_single_node(self):
        network = Network(WeightedGraph(nodes=[0]))
        tree, report = build_bfs_tree(network, 0)
        assert tree.height == 0
        assert tree.parent[0] is None

    def test_unknown_root_raises(self, random_network):
        with pytest.raises(KeyError):
            build_bfs_tree(random_network, 9999)

    def test_disconnected_network_raises_naming_unreachable_nodes(self):
        """A graph disconnected after Network construction must fail with a
        clear ValueError naming the unreachable nodes -- identically on
        every engine -- instead of grinding into the round limit."""
        from repro.congest import available_engines, force_engine

        graph = WeightedGraph(edges=[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
        network = Network(graph)
        graph.remove_edge(2, 3)
        for engine in available_engines():
            with force_engine(engine):
                with pytest.raises(ValueError, match=r"\[3, 4\]"):
                    build_bfs_tree(network, 0)

    def test_nodes_by_depth(self, path_network):
        tree, _ = build_bfs_tree(path_network, 0)
        layers = tree.nodes_by_depth()
        assert layers[0] == [0]
        assert all(len(layer) == 1 for layer in layers)


class TestBroadcast:
    def test_single_value_reaches_everyone(self, random_network):
        received, report = broadcast_from(random_network, 0, "payload")
        assert all(value == "payload" for value in received.values())
        assert report.rounds > 0

    def test_pipelined_values_all_delivered_in_order_free(self, random_network):
        values = list(range(7))
        received, _ = broadcast_values_from(random_network, 0, values)
        assert all(sorted(v) == values for v in received.values())

    def test_pipelining_cheaper_than_sequential(self, path_network):
        tree, _ = build_bfs_tree(path_network, 0)
        values = list(range(10))
        _, pipelined = broadcast_values_from(path_network, 0, values, tree=tree)
        sequential_rounds = 0
        for value in values:
            _, single = broadcast_from(path_network, 0, value, tree=tree)
            sequential_rounds += single.rounds
        assert pipelined.rounds < sequential_rounds

    def test_empty_value_list(self, random_network):
        received, _ = broadcast_values_from(random_network, 0, [])
        assert all(v == [] for v in received.values())

    def test_received_ordered_by_index(self, random_network):
        tree, _ = build_bfs_tree(random_network, 0)
        values = ["v0", "v1", "v2", "v3", "v4"]
        received, _ = broadcast_values_from(random_network, 0, values, tree=tree)
        assert all(v == values for v in received.values())

    def test_wrong_tree_root_rejected(self, path_network):
        """A supplied tree must match the requested root (mirrors gather)."""
        tree, _ = build_bfs_tree(path_network, 1)
        with pytest.raises(ValueError, match="rooted elsewhere"):
            broadcast_values_from(path_network, 0, [1, 2], tree=tree)
        with pytest.raises(ValueError, match="rooted elsewhere"):
            broadcast_from(path_network, 0, "x", tree=tree)


class TestBroadcastPipelining:
    """The tentpole bugfix: one value per tree edge per round."""

    @staticmethod
    def _per_edge_per_round(network, tree, values):
        per_round: list = []

        def observer(round_number, delivered):
            counts: dict = {}
            for message in delivered:
                counts[(message.sender, message.receiver)] = (
                    counts.get((message.sender, message.receiver), 0) + 1
                )
            per_round.append(counts)

        Simulator(network).run(
            _TreeBroadcastAlgorithm(tree, values), observer=observer
        )
        return per_round

    def test_at_most_one_bc_message_per_edge_per_round(self):
        network = Network(random_weighted_graph(18, average_degree=3.0, seed=2))
        tree, _ = build_bfs_tree(network, 0)
        per_round = self._per_edge_per_round(network, tree, list(range(12)))
        assert per_round, "the broadcast delivered no rounds"
        for counts in per_round:
            assert counts and max(counts.values()) == 1

    def test_exact_round_counts_on_a_path(self):
        # 5 words of 8 bits: one ("bc", index, value) message (~34 bits)
        # fits a round, so pipelining incurs no congestion surcharge.
        network = Network(
            path_graph(7, max_weight=5, seed=1), CongestConfig(bandwidth_words=5)
        )
        tree, _ = build_bfs_tree(network, 0)
        height = tree.height
        for k in (1, 2, 3, 8):
            _, report = broadcast_values_from(
                network, 0, list(range(k)), tree=tree
            )
            assert report.rounds == height + k - 1, k
            # One value per edge per round: no congestion surcharge.
            assert report.congested_rounds == report.rounds, k

    def test_strict_bandwidth_broadcast_completes(self):
        """The acceptance scenario: 32 pipelined values through an n=64
        strict-bandwidth network, on every engine, in <= depth + k rounds.
        (The old all-values-per-round broadcast raised here.)"""
        from repro.congest import available_engines, force_engine

        network = Network(
            random_weighted_graph(64, average_degree=4.0, max_weight=50, seed=11),
            CongestConfig(bandwidth_words=12, strict_bandwidth=True),
        )
        root = min(network.nodes)
        values = list(range(32))
        reports = {}
        for engine in available_engines():
            with force_engine(engine):
                tree, _ = build_bfs_tree(network, root)
                received, report = broadcast_values_from(
                    network, root, values, tree=tree
                )
            assert all(v == values for v in received.values())
            assert report.rounds <= tree.height + len(values)
            reports[engine] = (received, report)
        reference = next(iter(reports.values()))
        assert all(result == reference for result in reports.values())


class TestConvergecast:
    def test_max(self, random_network):
        values = {node: node * 3 for node in random_network.nodes}
        result, _ = convergecast_max(random_network, values)
        assert result == max(values.values())

    def test_min(self, random_network):
        values = {node: 100 - node for node in random_network.nodes}
        result, _ = convergecast_min(random_network, values)
        assert result == min(values.values())

    def test_sum(self, random_network):
        values = {node: 2 for node in random_network.nodes}
        result, _ = convergecast_sum(random_network, values)
        assert result == 2 * random_network.num_nodes

    def test_reuses_supplied_tree(self, random_network):
        tree, _ = build_bfs_tree(random_network, 0)
        values = {node: node for node in random_network.nodes}
        result, report = convergecast_max(random_network, values, tree=tree)
        assert result == max(values.values())
        # Without the tree-construction phase the cost is only O(depth).
        assert report.rounds <= 4 * (tree.height + 2)

    def test_missing_values_rejected(self, random_network):
        with pytest.raises(ValueError):
            convergecast_max(random_network, {0: 1})

    def test_conflicting_tree_and_root_rejected(self, path_network):
        """Passing both a tree and a root demands they agree (symmetric to
        the gather/broadcast check)."""
        tree, _ = build_bfs_tree(path_network, 1)
        values = {node: node for node in path_network.nodes}
        with pytest.raises(ValueError, match="rooted elsewhere"):
            convergecast_aggregate(path_network, values, max, tree=tree, root=0)
        # Agreeing tree+root (and tree alone) still work.
        result, _ = convergecast_aggregate(
            path_network, values, max, tree=tree, root=1
        )
        assert result == max(values.values())

    def test_rounds_scale_with_depth(self):
        star = Network(star_graph(30))
        path = Network(path_graph(31))
        star_values = {node: node for node in star.nodes}
        path_values = {node: node for node in path.nodes}
        _, star_report = convergecast_max(star, star_values)
        _, path_report = convergecast_max(path, path_values)
        assert star_report.rounds < path_report.rounds


class TestGather:
    def test_all_records_collected(self, random_network):
        records = {node: [f"r{node}"] for node in random_network.nodes}
        collected, _ = gather_values_to(random_network, 0, records)
        assert sorted(collected) == sorted(f"r{node}" for node in random_network.nodes)

    def test_multiple_records_per_node(self, path_network):
        records = {node: [node, node + 100] for node in path_network.nodes}
        collected, _ = gather_values_to(path_network, 0, records)
        assert len(collected) == 2 * path_network.num_nodes

    def test_empty_records(self, random_network):
        records = {node: [] for node in random_network.nodes}
        collected, _ = gather_values_to(random_network, 0, records)
        assert collected == []

    def test_rounds_scale_with_total_records(self, path_network):
        small = {node: [1] for node in path_network.nodes}
        large = {node: list(range(8)) for node in path_network.nodes}
        tree, _ = build_bfs_tree(path_network, 0)
        _, small_report = gather_values_to(path_network, 0, small, tree=tree)
        _, large_report = gather_values_to(path_network, 0, large, tree=tree)
        assert large_report.rounds > small_report.rounds

    def test_wrong_tree_root_rejected(self, path_network):
        tree, _ = build_bfs_tree(path_network, 1)
        with pytest.raises(ValueError):
            gather_values_to(path_network, 0, {n: [] for n in path_network.nodes}, tree=tree)


class TestLeaderElection:
    def test_minimum_id_wins(self, random_network):
        leader, _ = elect_leader(random_network)
        assert leader == min(random_network.nodes)

    def test_diameter_bound_speeds_up(self, random_network):
        diameter = int(random_network.unweighted_diameter())
        _, fast = elect_leader(random_network, diameter_bound=diameter + 1)
        _, slow = elect_leader(random_network)
        assert fast.rounds <= slow.rounds

    def test_grid(self):
        network = Network(grid_graph(4, 4))
        leader, _ = elect_leader(network, diameter_bound=7)
        assert leader == 0
