"""Tests for Algorithms 4 and 5 (overlay embedding and overlay SSSP)."""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import Network, RoundReport
from repro.congest.engine.schema import BroadcastReplaySchema
from repro.congest.engine.symbolic import broadcast_replay_report
from repro.congest.primitives import broadcast_values_from, build_bfs_tree
from repro.graphs import dijkstra, path_graph
from repro.nanongkai import (
    OverlayEmbedding,
    OverlayGraph,
    embed_overlay_network,
    multi_source_bounded_hop_protocol,
    overlay_sssp_protocol,
)
from repro.nanongkai import overlay as overlay_module
from repro.nanongkai.overlay import build_shortcut_graph, build_skeleton_graph

INF = math.inf


@pytest.fixture
def overlay_setup(random_network):
    """A skeleton, its Algorithm-3 tables and an embedded overlay."""
    skeleton = [0, 4, 9, 13, 17]
    hop_bound, epsilon = 8, 0.5
    dtilde, _ = multi_source_bounded_hop_protocol(
        random_network, skeleton, hop_bound, epsilon, seed=5
    )
    embedding = embed_overlay_network(random_network, skeleton, dtilde, k=2)
    return random_network, skeleton, dtilde, embedding, epsilon


class TestOverlayGraph:
    def test_weights_and_edges(self):
        overlay = OverlayGraph([1, 2, 3])
        overlay.set_weight(1, 2, 4.5)
        overlay.set_weight(2, 3, 1.0)
        assert overlay.weight(1, 2) == 4.5
        assert overlay.weight(2, 1) == 4.5
        assert overlay.weight(1, 3) == INF
        assert len(overlay.edges()) == 2

    def test_self_loop_and_bad_weight_rejected(self):
        overlay = OverlayGraph([1, 2])
        with pytest.raises(ValueError):
            overlay.set_weight(1, 1, 2.0)
        with pytest.raises(ValueError):
            overlay.set_weight(1, 2, 0)

    def test_dijkstra_on_overlay(self):
        overlay = OverlayGraph([0, 1, 2])
        overlay.set_weight(0, 1, 1.0)
        overlay.set_weight(1, 2, 2.0)
        overlay.set_weight(0, 2, 10.0)
        distances = overlay.dijkstra(0)
        assert distances == {0: 0.0, 1: 1.0, 2: 3.0}

    def test_bounded_hop_distances(self):
        overlay = OverlayGraph([0, 1, 2])
        overlay.set_weight(0, 1, 1.0)
        overlay.set_weight(1, 2, 2.0)
        overlay.set_weight(0, 2, 10.0)
        one_hop = overlay.bounded_hop_distances(0, 1)
        assert one_hop[2] == 10.0
        two_hops = overlay.bounded_hop_distances(0, 2)
        assert two_hops[2] == 3.0

    def test_k_nearest(self):
        overlay = OverlayGraph([0, 1, 2, 3])
        overlay.set_weight(0, 1, 1.0)
        overlay.set_weight(0, 2, 5.0)
        overlay.set_weight(0, 3, 2.0)
        overlay.set_weight(1, 3, 0.5)
        assert overlay.k_nearest(0, 2) == [1, 3]


class TestSkeletonGraph:
    def test_weights_are_dtilde_values(self, overlay_setup):
        network, skeleton, dtilde, embedding, _ = overlay_setup
        skeleton_graph = build_skeleton_graph(skeleton, dtilde)
        for i, u in enumerate(skeleton):
            for v in skeleton[i + 1 :]:
                if not math.isinf(dtilde[v][u]):
                    assert skeleton_graph.weight(u, v) == dtilde[v][u]

    def test_skeleton_weights_upper_bound_true_distance(self, overlay_setup):
        network, skeleton, dtilde, embedding, _ = overlay_setup
        for u in skeleton:
            exact = dijkstra(network.graph, u)
            for v in skeleton:
                if u == v:
                    continue
                weight = embedding.skeleton_graph.weight(u, v)
                if not math.isinf(weight):
                    assert weight >= exact[v] - 1e-9


class TestShortcutGraph:
    def test_shortcut_edges_never_longer_than_skeleton_edges(self, overlay_setup):
        _, skeleton, _, embedding, _ = overlay_setup
        for i, u in enumerate(skeleton):
            for v in skeleton[i + 1 :]:
                original = embedding.skeleton_graph.weight(u, v)
                shortcut = embedding.shortcut_graph.weight(u, v)
                if not math.isinf(original) and not math.isinf(shortcut):
                    assert shortcut <= original + 1e-9

    def test_shortcut_preserves_shortest_path_metric(self, overlay_setup):
        _, skeleton, _, embedding, _ = overlay_setup
        for source in skeleton:
            original = embedding.skeleton_graph.dijkstra(source)
            shortcut = embedding.shortcut_graph.dijkstra(source)
            for target in skeleton:
                if math.isinf(original[target]):
                    continue
                assert abs(original[target] - shortcut[target]) < 1e-9

    def test_nearest_sets_have_size_k(self, overlay_setup):
        _, skeleton, _, embedding, _ = overlay_setup
        for node, nearest in embedding.nearest.items():
            assert len(nearest) == min(2, len(skeleton) - 1)

    def test_build_shortcut_graph_direct(self):
        skeleton_graph = OverlayGraph([0, 1, 2, 3])
        skeleton_graph.set_weight(0, 1, 1.0)
        skeleton_graph.set_weight(1, 2, 1.0)
        skeleton_graph.set_weight(2, 3, 1.0)
        skeleton_graph.set_weight(0, 3, 10.0)
        shortcut, nearest = build_shortcut_graph(skeleton_graph, k=3)
        # 3 is within the 3 nearest of 0 via the path, so the heavy direct
        # edge is replaced by the true distance 3.
        assert shortcut.weight(0, 3) == 3.0


class TestEmbedding:
    def test_embedding_reports_rounds(self, overlay_setup):
        _, _, _, embedding, _ = overlay_setup
        assert embedding.report.congested_rounds > 0

    def test_hop_bound_formula(self, overlay_setup):
        _, skeleton, _, embedding, _ = overlay_setup
        assert embedding.hop_bound == math.ceil(4 * len(skeleton) / embedding.k)

    def test_invalid_k_rejected(self, overlay_setup):
        network, skeleton, dtilde, _, _ = overlay_setup
        with pytest.raises(ValueError):
            embed_overlay_network(network, skeleton, dtilde, k=0)


class TestOverlaySssp:
    def test_distances_match_overlay_bounded_hop(self, overlay_setup):
        network, skeleton, _, embedding, epsilon = overlay_setup
        source = skeleton[0]
        distances, report = overlay_sssp_protocol(network, embedding, source, epsilon)
        exact_overlay = embedding.shortcut_graph.dijkstra(source)
        hop_limited = embedding.shortcut_graph.bounded_hop_distances(
            source, embedding.hop_bound
        )
        for node in skeleton:
            if math.isinf(hop_limited[node]):
                continue
            assert distances[node] >= exact_overlay[node] - 1e-9
            assert distances[node] <= (1 + epsilon) * hop_limited[node] + 1e-9
        assert report.congested_rounds > 0

    def test_source_zero(self, overlay_setup):
        network, skeleton, _, embedding, epsilon = overlay_setup
        distances, _ = overlay_sssp_protocol(network, embedding, skeleton[1], epsilon)
        assert distances[skeleton[1]] == 0

    def test_non_skeleton_source_rejected(self, overlay_setup):
        network, skeleton, _, embedding, epsilon = overlay_setup
        bad_source = next(n for n in network.nodes if n not in skeleton)
        with pytest.raises(KeyError):
            overlay_sssp_protocol(network, embedding, bad_source, epsilon)


# --------------------------------------------------------------------------- #
# Algorithm 5's closed-form schedule against the round-by-round scan
# --------------------------------------------------------------------------- #
SCAN_NETWORK = Network(path_graph(8, max_weight=5, seed=1))
SCAN_TREE, _ = build_bfs_tree(SCAN_NETWORK, 0)


def _scan_reference(network, embedding, source, epsilon, hop_bound):
    """Algorithm 5 executed overlay round by overlay round: each round, every
    node whose rounded distance is at most the round number and that has
    not announced yet announces and relaxes the others.  Returns the
    distances, the announcement counts and the report."""
    overlay = embedding.shortcut_graph
    skeleton = embedding.skeleton
    max_weight = max((w for _, _, w in overlay.edges()), default=1.0)
    levels = math.ceil(
        math.log2(max(2.0, 2 * overlay.num_nodes * max(1.0, max_weight) / epsilon))
    )
    levels = max(1, levels + 1)
    bound = int(math.floor((1 + 2 / epsilon) * hop_bound))
    best: Dict[int, float] = {node: INF for node in skeleton}
    best[source] = 0.0
    announcement_counts: List[int] = []
    for level in range(levels):
        scale = epsilon * (2**level)
        rounded: Dict[FrozenSet[int], int] = {}
        for u, v, weight in overlay.edges():
            rounded[frozenset((u, v))] = max(
                1, math.ceil(2 * hop_bound * weight / scale)
            )
        distances = {node: INF for node in skeleton}
        distances[source] = 0
        announced = {node: False for node in skeleton}
        for overlay_round in range(bound + 1):
            announcers = [
                node
                for node in skeleton
                if not announced[node]
                and not math.isinf(distances[node])
                and distances[node] <= overlay_round
            ]
            for node in announcers:
                announced[node] = True
                for other in skeleton:
                    if other == node:
                        continue
                    weight = rounded.get(frozenset((node, other)))
                    if weight is None:
                        continue
                    candidate = distances[node] + weight
                    if candidate <= bound and candidate < distances[other]:
                        distances[other] = candidate
            announcement_counts.append(len(announcers))
        rescale = scale / (2 * hop_bound)
        for node, value in distances.items():
            if math.isinf(value) or value > bound:
                continue
            if value * rescale < best[node]:
                best[node] = value * rescale
    payload = [
        (node, -1 if math.isinf(best[node]) else best[node]) for node in skeleton
    ]
    _, broadcast_report = broadcast_values_from(
        network, embedding.tree.root, payload, tree=embedding.tree
    )
    schema = BroadcastReplaySchema(
        label="overlay-sssp-core",
        announcements=tuple(announcement_counts),
        fanout=max(1, len(skeleton) - 1),
        depth=embedding.tree.height,
    )
    report = RoundReport.sequential(
        [broadcast_replay_report(schema, network.word_bits), broadcast_report]
    )
    report.protocol = "overlay-sssp"
    return best, tuple(announcement_counts), report


def _assert_matches_scan(overlay, source, epsilon, hop_bound):
    skeleton = overlay.nodes
    embedding = OverlayEmbedding(
        skeleton=skeleton,
        skeleton_graph=overlay,
        shortcut_graph=overlay,
        k=1,
        nearest={},
        tree=SCAN_TREE,
    )
    with mock.patch.object(
        overlay_module,
        "broadcast_replay_report",
        wraps=overlay_module.broadcast_replay_report,
    ) as replay:
        distances, report = overlay_sssp_protocol(
            SCAN_NETWORK, embedding, source, epsilon, hop_bound
        )
    announcements = replay.call_args.args[0].announcements
    expected = _scan_reference(SCAN_NETWORK, embedding, source, epsilon, hop_bound)
    assert (distances, announcements, report) == expected
    return distances, announcements


@st.composite
def overlay_runs(draw):
    """A random overlay on skeleton nodes of the scan network, possibly with
    unreachable nodes, plus a source, epsilon and hop bound."""
    skeleton = sorted(
        draw(st.lists(st.integers(0, 7), min_size=1, max_size=6, unique=True))
    )
    overlay = OverlayGraph(skeleton)
    weights = st.floats(min_value=0.05, max_value=40.0) | st.sampled_from(
        [0.5, 1.0, 1.5, 2.0, 3.0]
    )
    for i, u in enumerate(skeleton):
        for v in skeleton[i + 1 :]:
            if draw(st.booleans()):
                overlay.set_weight(u, v, draw(weights))
    source = draw(st.sampled_from(skeleton))
    epsilon = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0]))
    hop_bound = draw(st.integers(min_value=1, max_value=6))
    return overlay, source, epsilon, hop_bound


@given(overlay_runs())
@settings(max_examples=150, deadline=None)
def test_closed_form_schedule_matches_the_scan(run):
    _assert_matches_scan(*run)


def test_closed_form_schedule_at_the_bound_and_unreached():
    """epsilon 1 and hop bound 1 give distance bound 3.  At level 0 the
    edge 0-1 rounds to exactly 3 and is used; 1-2 rounds to 4 and only
    becomes usable at coarser levels; node 5 has no edge at all."""
    overlay = OverlayGraph([0, 1, 2, 5])
    overlay.set_weight(0, 1, 1.5)
    overlay.set_weight(1, 2, 1.6)
    distances, announcements = _assert_matches_scan(overlay, 0, 1.0, 1)
    assert announcements[:4] == (1, 0, 0, 1)  # level 0: source, then node 1
    assert distances[1] == 1.5 and distances[5] == INF
    assert distances[2] < INF
