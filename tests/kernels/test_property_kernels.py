"""Hypothesis property tests: every CSR kernel vs the seed oracles and networkx.

Random graphs (including disconnected ones, single-node graphs and
maximum-magnitude edge weights) are pushed through every registered backend
and cross-checked against

* the seed dict-based implementations kept as ``*_reference`` twins, and
* networkx's Dijkstra,

asserting bit-for-bit identical distance tables.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import WeightedGraph
from repro.graphs.shortest_paths import INFINITY
from repro.kernels import (
    all_pairs_distances_csr,
    available_backends,
    batched_bellman_ford,
    diameter_csr,
    dijkstra_csr,
    eccentricities_csr,
    force_backend,
    multi_source_dijkstra,
    radius_csr,
)


def _load_reference():
    """The dict-based oracles, loaded from ``tests/graphs`` by path."""
    path = Path(__file__).parent.parent / "graphs" / "shortest_path_reference.py"
    spec = importlib.util.spec_from_file_location("shortest_path_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_reference = _load_reference()
dijkstra_reference = _reference.dijkstra_reference
bellman_ford_reference = _reference.bellman_ford_reference
bounded_hop_distances_reference = _reference.bounded_hop_distances_reference
all_pairs_distances_reference = _reference.all_pairs_distances_reference

pytestmark = pytest.mark.kernels

#: The paper's weights are arbitrary positive integers; exercise both small
#: weights (ties, many equal-length paths) and maximum-magnitude ones (the
#: float64 exactness envelope of the vectorized backends).
MAX_WEIGHT = 2**31

_weights = st.one_of(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=MAX_WEIGHT),
    st.just(MAX_WEIGHT),
)


@st.composite
def weighted_graphs(draw, min_nodes: int = 1, max_nodes: int = 10):
    """Random simple graphs; edge density is drawn too, so disconnected
    graphs, forests and near-cliques all appear."""
    num_nodes = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    graph = WeightedGraph(nodes=range(num_nodes))
    pairs = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    if pairs:
        chosen = draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        )
        for u, v in chosen:
            graph.add_edge(u, v, draw(_weights))
    return graph


def _assert_rows_equal(actual, expected):
    assert set(actual) == set(expected)
    for node, value in expected.items():
        got = actual[node]
        if math.isinf(value):
            assert got is INFINITY
        else:
            assert got == value
            assert isinstance(got, int)


@settings(max_examples=40, deadline=None)
@given(graph=weighted_graphs(), data=st.data())
def test_dijkstra_matches_reference_on_every_backend(graph, data):
    source = data.draw(st.sampled_from(graph.nodes))
    expected = dijkstra_reference(graph, source)
    for backend in available_backends():
        with force_backend(backend):
            _assert_rows_equal(dijkstra_csr(graph, source), expected)


@settings(max_examples=25, deadline=None)
@given(graph=weighted_graphs(min_nodes=2), data=st.data())
def test_dijkstra_matches_networkx(graph, data):
    source = data.draw(st.sampled_from(graph.nodes))
    nx_lengths = nx.single_source_dijkstra_path_length(graph.to_networkx(), source)
    for backend in available_backends():
        with force_backend(backend):
            distances = dijkstra_csr(graph, source)
        for node in graph.nodes:
            if node in nx_lengths:
                assert distances[node] == nx_lengths[node]
            else:
                assert math.isinf(distances[node])


@settings(max_examples=30, deadline=None)
@given(graph=weighted_graphs(), data=st.data(), hops=st.integers(0, 12))
def test_bounded_hop_matches_both_references(graph, data, hops):
    source = data.draw(st.sampled_from(graph.nodes))
    dp = bounded_hop_distances_reference(graph, source, hops)
    relaxation = bellman_ford_reference(graph, source, max_hops=hops)
    assert dp == relaxation
    for backend in available_backends():
        with force_backend(backend):
            _assert_rows_equal(batched_bellman_ford(graph, [source], hops)[source], dp)


@settings(max_examples=25, deadline=None)
@given(graph=weighted_graphs(), data=st.data())
def test_exact_bellman_ford_equals_dijkstra(graph, data):
    source = data.draw(st.sampled_from(graph.nodes))
    expected = dijkstra_reference(graph, source)
    rounds = graph.num_nodes - 1
    for backend in available_backends():
        with force_backend(backend):
            _assert_rows_equal(
                batched_bellman_ford(graph, [source], rounds)[source], expected
            )


@settings(max_examples=25, deadline=None)
@given(graph=weighted_graphs(), data=st.data())
def test_multi_source_matches_per_source_runs(graph, data):
    sources = data.draw(
        st.lists(st.sampled_from(graph.nodes), min_size=1, unique=True)
    )
    expected = {source: dijkstra_reference(graph, source) for source in sources}
    for backend in available_backends():
        with force_backend(backend):
            table = multi_source_dijkstra(graph, sources)
        assert set(table) == set(sources)
        for source in sources:
            _assert_rows_equal(table[source], expected[source])


@settings(max_examples=25, deadline=None)
@given(graph=weighted_graphs())
def test_all_pairs_and_reductions_match_reference(graph):
    expected = all_pairs_distances_reference(graph)
    expected_ecc = {
        node: max(row.values()) for node, row in expected.items()
    }
    for backend in available_backends():
        with force_backend(backend):
            table = all_pairs_distances_csr(graph)
            assert set(table) == set(expected)
            for node in expected:
                _assert_rows_equal(table[node], expected[node])
            eccentricities = eccentricities_csr(graph)
            for node, value in expected_ecc.items():
                if math.isinf(value):
                    assert eccentricities[node] is INFINITY
                else:
                    assert eccentricities[node] == value
            assert diameter_csr(graph) == max(expected_ecc.values())
            assert radius_csr(graph) == min(expected_ecc.values())


@settings(max_examples=20, deadline=None)
@given(graph=weighted_graphs(min_nodes=2))
def test_symmetry_of_all_pairs(graph):
    # Undirected graphs: the distance matrix must be symmetric on every backend.
    for backend in available_backends():
        with force_backend(backend):
            table = all_pairs_distances_csr(graph)
        for u in graph.nodes:
            for v in graph.nodes:
                assert table[u][v] == table[v][u]


class TestExplicitEdgeCases:
    @pytest.mark.parametrize("backend_name", available_backends())
    def test_single_node_graph(self, backend_name):
        graph = WeightedGraph(nodes=[3])
        with force_backend(backend_name):
            assert dijkstra_csr(graph, 3) == {3: 0}
            assert multi_source_dijkstra(graph, [3]) == {3: {3: 0}}
            assert batched_bellman_ford(graph, [3], 5) == {3: {3: 0}}
            assert eccentricities_csr(graph) == {3: 0}
            assert diameter_csr(graph) == 0
            assert radius_csr(graph) == 0

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_fully_disconnected_graph(self, backend_name):
        graph = WeightedGraph(nodes=range(4))
        with force_backend(backend_name):
            distances = dijkstra_csr(graph, 0)
        assert distances[0] == 0
        for node in (1, 2, 3):
            assert distances[node] is INFINITY
        with force_backend(backend_name):
            assert diameter_csr(graph) is INFINITY
            assert radius_csr(graph) is INFINITY

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_max_weight_edge_is_exact(self, backend_name):
        graph = WeightedGraph()
        graph.add_edge(0, 1, MAX_WEIGHT)
        graph.add_edge(1, 2, MAX_WEIGHT)
        graph.add_edge(2, 3, MAX_WEIGHT)
        with force_backend(backend_name):
            distances = dijkstra_csr(graph, 0)
        assert distances[3] == 3 * MAX_WEIGHT
        assert isinstance(distances[3], int)

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_missing_source_raises_keyerror(self, backend_name, triangle_graph):
        with force_backend(backend_name):
            with pytest.raises(KeyError):
                dijkstra_csr(triangle_graph, 99)
            with pytest.raises(KeyError):
                multi_source_dijkstra(triangle_graph, [0, 99])

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_negative_hop_budget_rejected(self, backend_name, triangle_graph):
        with force_backend(backend_name):
            with pytest.raises(ValueError):
                batched_bellman_ford(triangle_graph, [0], -1)

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_empty_graph_reductions_raise(self, backend_name):
        with force_backend(backend_name):
            assert all_pairs_distances_csr(WeightedGraph()) == {}
            with pytest.raises(ValueError):
                diameter_csr(WeightedGraph())
            with pytest.raises(ValueError):
                radius_csr(WeightedGraph())
