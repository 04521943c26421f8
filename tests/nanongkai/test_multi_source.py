"""Tests for Algorithm 3 (multi-source bounded-hop SSSP with random delays)."""

from __future__ import annotations

import math

import pytest

from repro.congest.engine import available_engines, force_engine
from repro.graphs import dijkstra
from repro.graphs.rounding import approx_bounded_hop_distances_from
from repro.nanongkai import (
    SkeletonApproximator,
    bounded_hop_sssp_protocol,
    multi_source_bounded_hop_protocol,
)

INF = math.inf


class TestCorrectness:
    def test_matches_single_source_runs(self, random_network):
        sources = [0, 4, 9, 13]
        hop_bound, epsilon, levels = 5, 0.5, 5
        table, _ = multi_source_bounded_hop_protocol(
            random_network, sources, hop_bound, epsilon, levels=levels, seed=3
        )
        for source in sources:
            single, _ = bounded_hop_sssp_protocol(
                random_network, source, hop_bound, epsilon, levels=levels
            )
            for node in random_network.nodes:
                both_inf = table[node][source] == INF and single[node] == INF
                assert both_inf or abs(table[node][source] - single[node]) < 1e-9

    def test_matches_sequential_reference(self, random_network):
        sources = [1, 7]
        hop_bound, epsilon = 6, 0.5
        table, _ = multi_source_bounded_hop_protocol(
            random_network, sources, hop_bound, epsilon, seed=1
        )
        for source in sources:
            reference = approx_bounded_hop_distances_from(
                random_network.graph, source, hop_bound, epsilon
            )
            for node in random_network.nodes:
                both_inf = table[node][source] == INF and reference[node] == INF
                assert both_inf or abs(table[node][source] - reference[node]) < 1e-9

    def test_never_underestimates_true_distance(self, random_network):
        sources = [0, 5]
        table, _ = multi_source_bounded_hop_protocol(random_network, sources, 6, 0.5, seed=2)
        for source in sources:
            exact = dijkstra(random_network.graph, source)
            for node in random_network.nodes:
                if not math.isinf(table[node][source]):
                    assert table[node][source] >= exact[node] - 1e-9

    def test_source_rows_are_zero(self, random_network):
        sources = [2, 8]
        table, _ = multi_source_bounded_hop_protocol(random_network, sources, 4, 0.5, seed=4)
        assert table[2][2] == 0
        assert table[8][8] == 0

    def test_deterministic_given_seed(self, random_network):
        sources = [0, 3]
        a, _ = multi_source_bounded_hop_protocol(random_network, sources, 4, 0.5, seed=9)
        b, _ = multi_source_bounded_hop_protocol(random_network, sources, 4, 0.5, seed=9)
        assert a == b

    def test_empty_sources_rejected(self, random_network):
        with pytest.raises(ValueError):
            multi_source_bounded_hop_protocol(random_network, [], 4, 0.5)

    def test_unknown_source_rejected(self, random_network):
        with pytest.raises(KeyError):
            multi_source_bounded_hop_protocol(random_network, [0, 999], 4, 0.5)


class TestRoundCost:
    def test_concurrent_cheaper_than_sequential(self, random_network):
        """Algorithm 3's point: |S| concurrent instances cost far less than |S| sequential runs."""
        sources = random_network.nodes[:6]
        hop_bound, epsilon, levels = 5, 0.5, 4
        _, concurrent = multi_source_bounded_hop_protocol(
            random_network, sources, hop_bound, epsilon, levels=levels, seed=0
        )
        sequential_rounds = 0
        for source in sources:
            _, single = bounded_hop_sssp_protocol(
                random_network, source, hop_bound, epsilon, levels=levels
            )
            sequential_rounds += single.congested_rounds
        assert concurrent.congested_rounds < sequential_rounds

    def test_delay_broadcast_charged_by_default(self, random_network):
        sources = [0, 1]
        _, with_broadcast = multi_source_bounded_hop_protocol(
            random_network, sources, 4, 0.5, levels=3, seed=0
        )
        _, without_broadcast = multi_source_bounded_hop_protocol(
            random_network, sources, 4, 0.5, levels=3, seed=0,
            charge_delay_broadcast=False,
        )
        assert with_broadcast.congested_rounds > without_broadcast.congested_rounds


class TestLevels:
    def test_negative_levels_rejected_on_every_engine(self, random_network):
        messages = set()
        for engine in available_engines():
            with force_engine(engine):
                with pytest.raises(ValueError, match="levels") as excinfo:
                    multi_source_bounded_hop_protocol(
                        random_network, [0, 4], 4, 0.5, levels=-2
                    )
                messages.add(str(excinfo.value))
                with pytest.raises(ValueError, match="levels") as excinfo:
                    SkeletonApproximator(
                        random_network, [0, 4], epsilon=0.5, hop_bound=4, k=2, levels=-2
                    )
                messages.add(str(excinfo.value))
        assert messages == {"levels must be non-negative, got -2"}

    def test_zero_levels_fold_to_the_sources_alone(self, random_network):
        """No rounding level, no column: 0.0 at each source, inf elsewhere."""
        sources = [0, 4, 4]
        expected = {
            node: {source: (0.0 if node == source else INF) for source in sources}
            for node in random_network.nodes
        }
        for engine in available_engines():
            with force_engine(engine):
                table, report = multi_source_bounded_hop_protocol(
                    random_network, sources, 4, 0.5, levels=0, seed=2
                )
            assert repr(dict(table)) == repr(expected), engine
            assert report.rounds > 0
