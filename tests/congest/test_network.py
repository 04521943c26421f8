"""Tests for the Network / CongestConfig wrappers."""

from __future__ import annotations

import pytest

from repro.congest import CongestConfig, Network
from repro.graphs import WeightedGraph, path_graph, unweighted_diameter


class TestCongestConfig:
    def test_default_word_bits_scale_with_n(self):
        config = CongestConfig()
        assert config.word_bits(10) == 8
        assert config.word_bits(10**6) == 20

    def test_word_bits_override(self):
        config = CongestConfig(word_bits_override=13)
        assert config.word_bits(10**6) == 13

    def test_bandwidth_bits(self):
        config = CongestConfig(bandwidth_words=3, word_bits_override=10)
        assert config.bandwidth_bits(100) == 30


class TestNetwork:
    def test_basic_properties(self, path_network):
        assert path_network.num_nodes == 8
        assert len(path_network.nodes) == 8
        assert path_network.bandwidth_bits > 0

    def test_neighbors_and_weights(self):
        graph = path_graph(4, max_weight=5, seed=2)
        network = Network(graph)
        assert set(network.neighbors(1)) == {0, 2}
        assert network.edge_weight(1, 2) == graph.weight(1, 2)
        assert network.incident_weights(0) == {1: graph.weight(0, 1)}

    def test_unweighted_diameter_cached_and_correct(self, random_network):
        expected = unweighted_diameter(random_network.graph)
        assert random_network.unweighted_diameter() == expected
        # Second call uses the cache and must agree.
        assert random_network.unweighted_diameter() == expected

    def test_unweighted_diameter_follows_topology_mutation(self):
        graph = WeightedGraph(edges=[(i, i + 1, 1) for i in range(5)])
        network = Network(graph)
        assert network.unweighted_diameter() == 5.0
        graph.add_edge(0, 5, 1)
        assert network.unweighted_diameter() == 3.0
        assert Network(graph).unweighted_diameter() == 3.0
        graph.remove_edge(0, 5)
        assert network.unweighted_diameter() == 5.0

    def test_single_node_network(self):
        network = Network(WeightedGraph(nodes=[0]))
        assert network.num_nodes == 1
        assert network.unweighted_diameter() == 0

    def test_disconnected_rejected(self):
        graph = WeightedGraph(nodes=[0, 1, 2])
        graph.add_edge(0, 1, 1)
        with pytest.raises(ValueError):
            Network(graph)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Network(WeightedGraph())

    def test_max_weight(self):
        graph = path_graph(4, max_weight=50, seed=1)
        network = Network(graph)
        assert network.max_weight() == graph.max_weight()
