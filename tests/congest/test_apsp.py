"""Tests for the classical APSP and diameter/radius protocols (Table 1 baselines)."""

from __future__ import annotations

import pytest

from repro.congest import (
    Network,
    classical_diameter_protocol,
    classical_eccentricity_protocol,
    classical_radius_protocol,
    distributed_unweighted_apsp,
    distributed_weighted_apsp,
)
from repro.graphs import (
    all_pairs_distances,
    diameter,
    eccentricity,
    low_diameter_expander,
    radius,
    random_weighted_graph,
    unweighted_diameter,
)


class TestDistributedApsp:
    def test_weighted_apsp_matches_sequential(self, random_network):
        table, _ = distributed_weighted_apsp(random_network)
        expected = all_pairs_distances(random_network.graph)
        for u in random_network.nodes:
            for v in random_network.nodes:
                assert abs(table[u][v] - expected[u][v]) < 1e-9

    def test_unweighted_apsp_ignores_weights(self, random_network):
        table, _ = distributed_unweighted_apsp(random_network)
        expected = all_pairs_distances(random_network.graph.with_unit_weights())
        for u in random_network.nodes:
            for v in random_network.nodes:
                assert table[u][v] == expected[u][v]

    def test_congested_rounds_scale_superlinearly_vs_bfs(self):
        """APSP costs far more than a single BFS on the same graph (Θ̃(n) vs O(D))."""
        graph = low_diameter_expander(40, max_weight=5, seed=3)
        network = Network(graph)
        _, apsp_report = distributed_unweighted_apsp(network)
        assert apsp_report.congested_rounds >= network.num_nodes / 2


class TestClassicalDiameterRadius:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weighted_diameter_exact(self, seed):
        graph = random_weighted_graph(num_nodes=18, max_weight=15, seed=seed)
        network = Network(graph)
        value, report = classical_diameter_protocol(network)
        assert value == diameter(graph)
        assert report.congested_rounds > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weighted_radius_exact(self, seed):
        graph = random_weighted_graph(num_nodes=18, max_weight=15, seed=seed)
        network = Network(graph)
        value, _ = classical_radius_protocol(network)
        assert value == radius(graph)

    def test_unweighted_variants(self, random_network):
        d, _ = classical_diameter_protocol(random_network, weighted=False)
        r, _ = classical_radius_protocol(random_network, weighted=False)
        unit = random_network.graph.with_unit_weights()
        assert d == unweighted_diameter(random_network.graph)
        assert r == radius(unit)

    def test_radius_le_diameter(self, random_network):
        d, _ = classical_diameter_protocol(random_network)
        r, _ = classical_radius_protocol(random_network)
        assert r <= d <= 2 * r

    def test_rounds_near_linear(self, random_network):
        """The classical exact protocol lands in the Θ̃(n)-or-worse regime."""
        _, report = classical_diameter_protocol(random_network)
        n = random_network.num_nodes
        assert report.congested_rounds >= n / 2


class TestEccentricityProtocol:
    @pytest.mark.parametrize("node", [0, 4, 9])
    def test_weighted_eccentricity(self, random_network, node):
        value, _ = classical_eccentricity_protocol(random_network, node)
        assert value == eccentricity(random_network.graph, node)

    def test_unweighted_eccentricity(self, random_network):
        value, _ = classical_eccentricity_protocol(random_network, 0, weighted=False)
        assert value == eccentricity(random_network.graph.with_unit_weights(), 0)

    def test_unknown_node_raises(self, random_network):
        with pytest.raises(KeyError):
            classical_eccentricity_protocol(random_network, 12345)

    def test_cheaper_than_full_diameter(self, random_network):
        _, ecc_report = classical_eccentricity_protocol(random_network, 0)
        _, diam_report = classical_diameter_protocol(random_network)
        assert ecc_report.congested_rounds < diam_report.congested_rounds


class TestUnitWeightCompanion:
    def test_companion_is_memoized(self, random_network):
        """Repeated unweighted baselines must reuse one unit-weight network
        (and hence one cached CSR snapshot) instead of re-freezing per call."""
        first = random_network.unit_weight_companion()
        assert random_network.unit_weight_companion() is first
        assert first.config is random_network.config
        assert all(
            first.edge_weight(u, v) == 1
            for u in first.nodes
            for v in first.neighbors(u)
        )

    def test_companion_invalidated_on_mutation(self, random_network):
        first = random_network.unit_weight_companion()
        nodes = sorted(random_network.nodes)
        random_network.graph.add_edge(nodes[0], nodes[-1], 7)
        second = random_network.unit_weight_companion()
        assert second is not first
        assert second.edge_weight(nodes[0], nodes[-1]) == 1

    def test_unweighted_protocols_share_the_companion(self, random_network):
        distributed_unweighted_apsp(random_network)
        cached = random_network._memo.get("unit-companion")
        assert cached is not None
        classical_eccentricity_protocol(random_network, 0, weighted=False)
        assert random_network._memo["unit-companion"] is cached
