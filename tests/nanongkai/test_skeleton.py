"""Tests for skeleton sampling and the Lemma 3.3 approximate distances."""

from __future__ import annotations

import math

import pytest

from repro.congest import Network, RoundReport, available_engines, get_engine
from repro.congest.primitives import broadcast_from, gather_values_to
from repro.graphs import dijkstra, eccentricity, random_weighted_graph
from repro.kernels import available_backends, force_backend, get_backend
from repro.nanongkai import SkeletonApproximator, sample_skeleton_sets
from repro.nanongkai import skeleton as skeleton_module
from repro.nanongkai.overlay import overlay_sssp_protocol
from repro.nanongkai.skeleton import PipelineComposer

INF = math.inf


class TestSampling:
    def test_number_of_sets(self):
        sets = sample_skeleton_sets(list(range(30)), expected_size=5, num_sets=12, seed=1)
        assert len(sets) == 12

    def test_sets_are_sorted_node_subsets(self):
        nodes = list(range(40))
        sets = sample_skeleton_sets(nodes, expected_size=6, num_sets=10, seed=2)
        for members in sets:
            assert members == sorted(members)
            assert set(members) <= set(nodes)

    def test_expected_size_roughly_respected(self):
        nodes = list(range(200))
        sets = sample_skeleton_sets(nodes, expected_size=20, num_sets=50, seed=3)
        average = sum(len(s) for s in sets) / len(sets)
        assert 12 < average < 30

    def test_nonempty_guarantee(self):
        sets = sample_skeleton_sets(list(range(5)), expected_size=0.01, num_sets=30, seed=4)
        assert all(len(members) >= 1 for members in sets)

    def test_deterministic(self):
        a = sample_skeleton_sets(list(range(25)), 4, 6, seed=9)
        b = sample_skeleton_sets(list(range(25)), 4, 6, seed=9)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_skeleton_sets([1, 2], 3, 0)
        with pytest.raises(ValueError):
            sample_skeleton_sets([1, 2], 0, 3)

    @pytest.mark.parametrize("backend", available_backends())
    def test_nan_expected_size_rejected(self, backend):
        # min(1.0, nan) is 1.0: unchecked, NaN would put every node in
        # every set.
        with force_backend(backend):
            with pytest.raises(ValueError, match="expected_size must not be NaN"):
                sample_skeleton_sets(list(range(10)), math.nan, 3)

    @pytest.mark.parametrize("backend", available_backends())
    def test_empty_nodes_with_patch_rejected(self, backend):
        with force_backend(backend):
            with pytest.raises(ValueError, match="empty node set"):
                sample_skeleton_sets([], 2.0, 3)
            assert sample_skeleton_sets([], 2.0, 3, ensure_nonempty=False) == [[], [], []]


class TestCombineHelper:
    """Lemma 3.3's ``min_u (overlay[u] + local[v][u])``, on every backend."""

    def test_minimum_over_skeleton(self):
        for name in available_backends():
            combined = get_backend(name).min_plus_rows([1.0, 5.0], [[10.0, 2.0]])
            assert combined == [7.0], name

    def test_missing_entries_treated_as_inf(self):
        for name in available_backends():
            combined = get_backend(name).min_plus_rows([INF, INF], [[INF, INF]])
            assert combined == [INF], name


@pytest.fixture(scope="module")
def approximator():
    graph = random_weighted_graph(num_nodes=22, max_weight=12, seed=13)
    network = Network(graph)
    skeleton = [0, 3, 8, 12, 16, 20]
    return (
        network,
        SkeletonApproximator(
            network, skeleton, epsilon=0.5, hop_bound=30, k=3, seed=7
        ),
    )


class TestSkeletonApproximator:
    def test_skeleton_preserved(self, approximator):
        _, approx = approximator
        assert approx.skeleton == [0, 3, 8, 12, 16, 20]

    def test_empty_skeleton_rejected(self, approximator):
        network, _ = approximator
        with pytest.raises(ValueError):
            SkeletonApproximator(network, [], epsilon=0.5, hop_bound=5, k=2)

    def test_approx_distance_sandwich(self, approximator):
        """Lemma 3.3: d <= d~ <= (1 + eps)^2 d, w.h.p., for skeleton sources."""
        network, approx = approximator
        epsilon = 0.5
        for source in approx.skeleton[:3]:
            exact = dijkstra(network.graph, source)
            distances = approx.approx_distances_from(source)
            for node in network.nodes:
                assert distances[node] >= exact[node] - 1e-9
                assert distances[node] <= (1 + epsilon) ** 2 * exact[node] + 1e-9

    def test_approx_eccentricity_sandwich(self, approximator):
        network, approx = approximator
        epsilon = 0.5
        for source in approx.skeleton[:3]:
            true_ecc = eccentricity(network.graph, source)
            estimate = approx.approx_eccentricity(source)
            assert true_ecc - 1e-9 <= estimate <= (1 + epsilon) ** 2 * true_ecc + 1e-9

    def test_approx_distance_single_pair(self, approximator):
        network, approx = approximator
        source = approx.skeleton[0]
        table = approx.approx_distances_from(source)
        assert approx.approx_distance(source, 5) == table[5]

    def test_non_skeleton_source_rejected(self, approximator):
        _, approx = approximator
        with pytest.raises(KeyError):
            approx.setup(1)  # node 1 is not in the skeleton

    def test_initialization_report_positive(self, approximator):
        _, approx = approximator
        assert approx.initialization_report.congested_rounds > 0

    def test_setup_report_cached(self, approximator):
        _, approx = approximator
        first = approx.setup_report()
        second = approx.setup_report()
        assert first is second

    def test_setup_gathers_membership_once(self, approximator, monkeypatch):
        """The source-independent gather runs once per approximator, and
        every Setup still charges it."""
        network, _ = approximator
        calls = []

        def counting_gather(*args, **kwargs):
            calls.append(args)
            return gather_values_to(*args, **kwargs)

        monkeypatch.setattr(skeleton_module, "gather_values_to", counting_gather)
        approx = SkeletonApproximator(
            network, [0, 3, 8, 12, 16, 20], epsilon=0.5, hop_bound=30, k=3, seed=7
        )
        sources = approx.skeleton[:2]
        reports = [approx.setup_report(source) for source in sources]
        assert len(calls) == 1

        tree = approx.embedding.tree
        members = set(approx.skeleton)
        membership = {
            node: ([node] if node in members else []) for node in network.nodes
        }
        for source, report in zip(sources, reports):
            composer = PipelineComposer("skeleton-setup")
            composer.add(
                "gather-membership",
                gather_values_to(network, tree.root, membership, tree=tree)[1],
            )
            composer.add(
                "announce-source",
                broadcast_from(network, tree.root, source, tree=tree)[1],
            )
            composer.add(
                "overlay-sssp",
                overlay_sssp_protocol(network, approx.embedding, source, 0.5)[1],
            )
            assert report.to_json() == composer.report().to_json()

    def test_evaluation_report_is_cheap(self, approximator):
        _, approx = approximator
        evaluation = approx.evaluation_report()
        assert evaluation.congested_rounds > 0
        assert evaluation.congested_rounds < approx.initialization_report.congested_rounds

    def test_second_op_simulates_no_evaluation_convergecast(self, monkeypatch):
        """Evaluation's convergecast is memoized on the network: a second
        approximator (the next op) on the same topology runs none, and its
        report equals the first one's."""
        network = Network(random_weighted_graph(num_nodes=16, max_weight=9, seed=5))
        runs = []
        for name in available_engines():
            engine = get_engine(name)

            def counting(net, algorithm, *args, _prepare=engine.prepare, **kwargs):
                prepared = _prepare(net, algorithm, *args, **kwargs)
                if prepared is None:
                    return None
                return lambda *run_args: runs.append(algorithm.name) or prepared(*run_args)

            monkeypatch.setattr(engine, "prepare", counting)
        reports = []
        for seed in (1, 2):
            approx = SkeletonApproximator(
                network, [0, 5, 9], epsilon=0.5, hop_bound=20, k=2, seed=seed
            )
            runs.clear()
            reports.append(approx.evaluation_report())
            assert runs.count("convergecast") == (1 if seed == 1 else 0)
        assert reports[0] == reports[1] and reports[0] is not reports[1]
        assert reports[1].protocol == "skeleton-evaluation"

    def test_cost_ordering_matches_lemma_3_5(self, approximator):
        """T0 (Algorithms 3+4) dominates a single Setup, which dominates Evaluation."""
        _, approx = approximator
        t0 = approx.initialization_report.congested_rounds
        t1 = approx.setup_report().congested_rounds
        t2 = approx.evaluation_report().congested_rounds
        assert t0 > t2
        assert t1 > t2


class TestPipelineComposer:
    def _report(self, rounds, congested, messages, bits, biggest, protocol):
        return RoundReport(
            rounds=rounds,
            congested_rounds=congested,
            total_messages=messages,
            total_bits=bits,
            max_message_bits=biggest,
            protocol=protocol,
        )

    def test_flattening_matches_sequential(self):
        a = self._report(3, 5, 7, 90, 12, "a")
        b = self._report(2, 2, 1, 30, 40, "b")
        composer = PipelineComposer("pipeline")
        composer.add("first", a)
        composer.add("second", b)
        report = composer.report()
        expected = RoundReport.sequential([a, b])
        assert report.rounds == expected.rounds
        assert report.congested_rounds == expected.congested_rounds
        assert report.total_messages == expected.total_messages
        assert report.total_bits == expected.total_bits
        assert report.max_message_bits == expected.max_message_bits
        assert report.protocol == "pipeline"

    def test_phases_recorded_in_order(self):
        composer = PipelineComposer("pipeline")
        a = composer.add("first", self._report(1, 1, 0, 0, 0, "a"))
        composer.add("second", self._report(2, 2, 0, 0, 0, "b"))
        assert [phase for phase, _ in composer.phases] == ["first", "second"]
        assert a.protocol == "a"  # add() returns the report unchanged

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            PipelineComposer("pipeline").report()

    def test_single_phase_is_identity_up_to_protocol(self):
        a = self._report(4, 9, 2, 17, 8, "a")
        composer = PipelineComposer("renamed")
        composer.add("only", a)
        report = composer.report()
        assert (
            report.rounds,
            report.congested_rounds,
            report.total_messages,
            report.total_bits,
            report.max_message_bits,
        ) == (4, 9, 2, 17, 8)
        assert report.protocol == "renamed"

    def test_setup_report_equals_flattened_phases(self, approximator):
        """The composed skeleton-setup report is the sequential flattening."""
        _, approx = approximator
        report = approx.setup_report()
        assert report.protocol == "skeleton-setup"
        assert report.congested_rounds > 0
