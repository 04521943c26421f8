"""Tests for the WeightedGraph data structure."""

from __future__ import annotations

import pytest

from repro.graphs import WeightedGraph, path_graph


class TestConstruction:
    def test_empty_graph(self):
        graph = WeightedGraph()
        assert graph.num_nodes == 0
        assert graph.num_edges == 0
        assert graph.nodes == []

    def test_nodes_only(self):
        graph = WeightedGraph(nodes=[3, 1, 2])
        assert graph.num_nodes == 3
        assert set(graph.nodes) == {1, 2, 3}
        assert graph.num_edges == 0

    def test_edges_constructor(self):
        graph = WeightedGraph(edges=[(0, 1, 5), (1, 2, 7)])
        assert graph.num_nodes == 3
        assert graph.num_edges == 2
        assert graph.weight(0, 1) == 5

    def test_from_edges_classmethod(self):
        graph = WeightedGraph.from_edges([(0, 1, 2), (2, 3, 4)])
        assert graph.num_nodes == 4
        assert graph.num_edges == 2

    def test_add_node_idempotent(self):
        graph = WeightedGraph()
        graph.add_node(5)
        graph.add_node(5)
        assert graph.num_nodes == 1

    def test_add_edge_creates_nodes(self):
        graph = WeightedGraph()
        graph.add_edge(10, 20, 3)
        assert 10 in graph
        assert 20 in graph

    def test_add_edge_overwrites_weight(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 3)
        graph.add_edge(0, 1, 8)
        assert graph.weight(0, 1) == 8
        assert graph.num_edges == 1

    def test_self_loop_rejected(self):
        graph = WeightedGraph()
        with pytest.raises(ValueError):
            graph.add_edge(1, 1, 2)

    def test_zero_weight_rejected(self):
        graph = WeightedGraph()
        with pytest.raises(ValueError):
            graph.add_edge(0, 1, 0)

    def test_negative_weight_rejected(self):
        graph = WeightedGraph()
        with pytest.raises(ValueError):
            graph.add_edge(0, 1, -4)

    def test_float_weight_rejected(self):
        graph = WeightedGraph()
        with pytest.raises(TypeError):
            graph.add_edge(0, 1, 1.5)

    def test_bool_weight_rejected(self):
        graph = WeightedGraph()
        with pytest.raises(TypeError):
            graph.add_edge(0, 1, True)


class TestQueries:
    def test_weight_symmetric(self, triangle_graph):
        assert triangle_graph.weight(0, 1) == triangle_graph.weight(1, 0)

    def test_missing_edge_raises(self, triangle_graph):
        triangle_graph.remove_edge(0, 2)
        with pytest.raises(KeyError):
            triangle_graph.weight(0, 2)

    def test_neighbors(self, triangle_graph):
        assert set(triangle_graph.neighbors(1)) == {0, 2}

    def test_degree(self, triangle_graph):
        assert triangle_graph.degree(0) == 2

    def test_has_edge(self, triangle_graph):
        assert triangle_graph.has_edge(0, 1)
        assert triangle_graph.has_edge(1, 0)
        assert not triangle_graph.has_edge(0, 99)

    def test_incident_edges(self, triangle_graph):
        incident = dict(triangle_graph.incident_edges(0))
        assert incident == {1: 3, 2: 10}

    def test_edges_canonical_and_unique(self, triangle_graph):
        edges = list(triangle_graph.edges())
        assert len(edges) == 3
        assert all(u <= v for u, v, _ in edges)

    def test_len_and_contains(self, triangle_graph):
        assert len(triangle_graph) == 3
        assert 2 in triangle_graph
        assert 42 not in triangle_graph

    def test_max_weight(self, triangle_graph):
        assert triangle_graph.max_weight() == 10

    def test_max_weight_empty(self):
        assert WeightedGraph(nodes=[0]).max_weight() == 0

    def test_max_weight_memo_follows_mutations(self, monkeypatch):
        graph = WeightedGraph(edges=[(0, 1, 3), (1, 2, 7)])
        assert graph.max_weight() == 7
        scans = []
        edges = WeightedGraph.edges

        def counting_edges(self):
            scans.append(1)
            return edges(self)

        monkeypatch.setattr(WeightedGraph, "edges", counting_edges)
        assert graph.max_weight() == 7
        assert not scans  # memoized: no edge scan
        graph.add_edge(2, 3, 9)
        assert graph.max_weight() == 9
        graph.add_edge(2, 3, 4)  # reweight an existing edge
        assert graph.max_weight() == 7
        graph.remove_edge(1, 2)
        assert graph.max_weight() == 4
        assert len(scans) == 3

    def test_total_weight(self, triangle_graph):
        assert triangle_graph.total_weight() == 17


class TestMutation:
    def test_remove_edge(self, triangle_graph):
        triangle_graph.remove_edge(0, 1)
        assert not triangle_graph.has_edge(0, 1)
        assert triangle_graph.num_edges == 2

    def test_remove_node(self, triangle_graph):
        triangle_graph.remove_node(1)
        assert 1 not in triangle_graph
        assert triangle_graph.num_edges == 1
        assert triangle_graph.has_edge(0, 2)


class TestDerivedGraphs:
    def test_copy_is_independent(self, triangle_graph):
        clone = triangle_graph.copy()
        clone.add_edge(0, 5, 1)
        assert 5 not in triangle_graph
        assert clone == clone

    def test_equality(self, triangle_graph):
        assert triangle_graph == triangle_graph.copy()
        other = triangle_graph.copy()
        other.add_edge(0, 1, 99)
        assert triangle_graph != other

    def test_unhashable(self, triangle_graph):
        with pytest.raises(TypeError):
            hash(triangle_graph)

    def test_subgraph(self, triangle_graph):
        sub = triangle_graph.subgraph([0, 1])
        assert sub.num_nodes == 2
        assert sub.num_edges == 1
        assert sub.weight(0, 1) == 3

    def test_with_unit_weights(self, triangle_graph):
        unit = triangle_graph.with_unit_weights()
        assert all(w == 1 for _, _, w in unit.edges())
        assert unit.num_edges == triangle_graph.num_edges

    def test_reweighted(self, triangle_graph):
        doubled = triangle_graph.reweighted(lambda u, v, w: 2 * w)
        assert doubled.weight(0, 1) == 6
        assert triangle_graph.weight(0, 1) == 3

    def test_relabeled(self, triangle_graph):
        relabeled = triangle_graph.relabeled({0: 100, 1: 101, 2: 102})
        assert relabeled.weight(100, 101) == 3
        assert set(relabeled.nodes) == {100, 101, 102}

    def test_relabeled_partial_mapping(self, triangle_graph):
        relabeled = triangle_graph.relabeled({0: 100})
        assert relabeled.has_edge(100, 1)

    def test_relabeled_non_injective_rejected(self, triangle_graph):
        with pytest.raises(ValueError):
            triangle_graph.relabeled({0: 7, 1: 7})


class TestConnectivity:
    def test_connected_path(self):
        assert path_graph(5).is_connected()

    def test_empty_not_connected(self):
        assert not WeightedGraph().is_connected()

    def test_single_node_connected(self):
        assert WeightedGraph(nodes=[0]).is_connected()

    def test_disconnected(self):
        graph = WeightedGraph(nodes=[0, 1, 2])
        graph.add_edge(0, 1, 1)
        assert not graph.is_connected()

    def test_connected_components(self):
        graph = WeightedGraph(edges=[(0, 1, 1), (2, 3, 1)])
        graph.add_node(4)
        components = graph.connected_components()
        assert len(components) == 3
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 2, 2]


class TestNetworkxInterop:
    def test_round_trip(self, weighted_random_graph):
        nx_graph = weighted_random_graph.to_networkx()
        back = WeightedGraph.from_networkx(nx_graph)
        assert back == weighted_random_graph

    def test_from_networkx_default_weight(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_edge(0, 1)
        converted = WeightedGraph.from_networkx(graph)
        assert converted.weight(0, 1) == 1

    def test_from_networkx_integral_float(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_edge(0, 1, weight=4.0)
        converted = WeightedGraph.from_networkx(graph)
        assert converted.weight(0, 1) == 4

    def test_from_networkx_fractional_float_rejected(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_edge(0, 1, weight=2.5)
        with pytest.raises(ValueError):
            WeightedGraph.from_networkx(graph)
