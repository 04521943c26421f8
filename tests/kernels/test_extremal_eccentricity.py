"""The extremal-eccentricity kernel: bound pruning vs the all-pairs reference.

``KernelBackend.extremal_eccentricity`` returns the largest (or smallest)
eccentricity and the sorted indices of every node attaining it.  The base
class reduces all-pairs rows; the NumPy override (inherited by SciPy) runs
exact rows from a few sources at a time and drops every node whose bounds
exclude the best eccentricity found so far.  Both must agree exactly -- on
disconnected, single-node and edgeless graphs, on whole-graph ties, on unit
weights, and past float64's exact range, where the override takes the
reference.  The Theorem 1.1 good-set oracle (``_extremal_nodes``) and the
label-space wrapper are pinned here too.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import Network
from repro.core.diameter_radius import _extremal_nodes
from repro.graphs import WeightedGraph, complete_graph, cycle_graph, path_graph
from repro.kernels import (
    CSRGraph,
    all_pairs_distances_csr,
    available_backends,
    batched_bellman_ford,
    diameter_csr,
    dijkstra_csr,
    eccentricities_csr,
    extremal_eccentricity_csr,
    get_backend,
)

pytestmark = pytest.mark.kernels

INF = math.inf


def _reference(csr, maximize):
    return get_backend("python").extremal_eccentricity(csr, maximize)


def _assert_every_backend_matches(graph):
    csr = CSRGraph.from_graph(graph)
    for maximize in (True, False):
        value, indices = _reference(csr, maximize)
        for backend in available_backends():
            got_value, got_indices = get_backend(backend).extremal_eccentricity(
                csr, maximize
            )
            assert got_value == value, (backend, maximize)
            assert got_indices == indices, (backend, maximize)


@st.composite
def graphs(draw, max_nodes: int = 12):
    """Random simple graphs with unit, small or large weights; the edge
    density is drawn too, so disconnected and edgeless graphs appear."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    weights = draw(
        st.sampled_from(
            [st.just(1), st.integers(1, 4), st.integers(1, 2**31)]
        )
    )
    graph = WeightedGraph(nodes=range(num_nodes))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if draw(st.floats(min_value=0.0, max_value=1.0)) < density:
                graph.add_edge(u, v, draw(weights))
    return graph


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_every_backend_matches_the_reference(graph):
    _assert_every_backend_matches(graph)


@settings(max_examples=20, deadline=None)
@given(graphs(max_nodes=32))
def test_every_backend_matches_the_reference_on_larger_graphs(graph):
    _assert_every_backend_matches(graph)


def test_reference_values():
    """Path 0 -2- 1 -3- 2: eccentricities 5, 3, 5."""
    csr = CSRGraph.from_graph(WeightedGraph(edges=[(0, 1, 2), (1, 2, 3)]))
    assert _reference(csr, True) == (5, [0, 2])
    assert _reference(csr, False) == (3, [1])


@pytest.mark.parametrize(
    "graph",
    [
        WeightedGraph(nodes=[0]),
        WeightedGraph(nodes=range(3)),
        WeightedGraph(nodes=range(4), edges=[(0, 1, 2), (2, 3, 1)]),
    ],
    ids=["single-node", "edgeless", "two-components"],
)
def test_degenerate_graphs(graph):
    _assert_every_backend_matches(graph)
    csr = CSRGraph.from_graph(graph)
    expected = 0 if graph.num_nodes == 1 else INF
    for backend in available_backends():
        for maximize in (True, False):
            value, indices = get_backend(backend).extremal_eccentricity(csr, maximize)
            assert value == expected
            assert indices == list(range(graph.num_nodes))


@pytest.mark.parametrize(
    "graph",
    [cycle_graph(9), cycle_graph(10, max_weight=1), complete_graph(7, max_weight=1)],
    ids=["odd-cycle", "even-cycle", "clique"],
)
def test_whole_graph_ties_return_every_node(graph):
    """Every node has the same eccentricity, so no bound can drop a node:
    the set is the whole graph for both extremes."""
    _assert_every_backend_matches(graph)
    csr = CSRGraph.from_graph(graph)
    for backend in available_backends():
        for maximize in (True, False):
            _, indices = get_backend(backend).extremal_eccentricity(csr, maximize)
            assert indices == list(range(graph.num_nodes))


@pytest.mark.parametrize("maximize", [True, False])
def test_weights_past_the_float64_range_take_the_reference(maximize):
    """Path 0 - 1 - 2 with weights 2**52 + 1 and 2**52 + 2: the diameter
    2**53 + 3 has no float64 image, so only the exact-int reference returns
    it; the radius is node 1's 2**52 + 2."""
    graph = WeightedGraph(edges=[(0, 1, 2**52 + 1), (1, 2, 2**52 + 2)])
    csr = CSRGraph.from_graph(graph)
    expected = (2**53 + 3, [0, 2]) if maximize else (2**52 + 2, [1])
    for backend in available_backends():
        value, indices = get_backend(backend).extremal_eccentricity(csr, maximize)
        assert (type(value), value, indices) == (int, *expected), backend


def test_label_space_wrappers_stay_exact_past_the_float64_range():
    """The same path through the wrappers: every backend returns the exact
    ints, the NumPy and SciPy distance kernels by taking the reference."""
    exact = 2**53 + 3
    assert exact == 9007199254740995
    graph = WeightedGraph(edges=[(0, 1, 2**52 + 1), (1, 2, 2**52 + 2)])
    for backend in available_backends():
        assert diameter_csr(graph, backend=backend) == exact, backend
        assert all_pairs_distances_csr(graph, backend=backend)[0][2] == exact, backend
        assert dijkstra_csr(graph, 2, backend=backend)[0] == exact, backend
        assert batched_bellman_ford(graph, [0], 2, backend=backend)[0][2] == exact, backend
        assert eccentricities_csr(graph, backend=backend)[2] == exact, backend


def test_weights_just_inside_the_float64_range_stay_exact():
    """The largest weights the pruned path accepts (2 * n * W < 2**53) and
    the smallest it hands to the reference give the reference's results."""
    for weight in (2**53 // 8 - 1, 2**53 // 8):
        graph = WeightedGraph(
            edges=[(0, 1, weight), (1, 2, weight - 1), (2, 3, weight - 2)]
        )
        _assert_every_backend_matches(graph)


def test_override_prunes_sources():
    """On a long weighted path the bounds settle every node after a few
    batches, so the override never runs all-pairs (128 rows)."""
    graph = path_graph(128, max_weight=9, seed=3)
    csr = CSRGraph.from_graph(graph)
    for backend in available_backends():
        if backend == "python":
            continue
        kernel = get_backend(backend)
        sources = []
        run_rows = kernel.multi_source_sssp

        class Counting(type(kernel)):
            def multi_source_sssp(self, csr, batch):
                sources.extend(batch)
                return run_rows(csr, batch)

        counting = Counting()
        for maximize in (True, False):
            sources.clear()
            assert counting.extremal_eccentricity(csr, maximize) == _reference(
                csr, maximize
            )
            assert len(sources) == len(set(sources)) < 40, (backend, maximize)


# --------------------------------------------------------------------------- #
# Label-space wrapper and callers
# --------------------------------------------------------------------------- #
def test_wrapper_maps_labels_and_memoises_per_backend():
    graph = WeightedGraph(edges=[(30, 10, 2), (10, 20, 3), (20, 40, 2)])
    for backend in available_backends():
        value, nodes = extremal_eccentricity_csr(graph, True, backend=backend)
        assert (type(value), value, nodes) == (int, 7, [30, 40])
        nodes.append(99)  # the caller's copy; the memo stays intact
        assert extremal_eccentricity_csr(graph, False, backend=backend) == (5, [10, 20])
        assert extremal_eccentricity_csr(graph, True, backend=backend) == (7, [30, 40])
    memo = CSRGraph.from_graph(graph).memo
    for backend in available_backends():
        assert f"api:extremal-eccentricity:{backend}:True" in memo


def test_wrapper_rejects_an_empty_graph():
    with pytest.raises(ValueError, match="empty graph"):
        extremal_eccentricity_csr(WeightedGraph(), True)


def test_wrapper_returns_infinity_on_a_disconnected_graph():
    graph = WeightedGraph(nodes=[5, 6], edges=[(1, 2, 4)])
    assert extremal_eccentricity_csr(graph, False) == (INF, [5, 6, 1, 2])


def test_extremal_nodes_returns_the_full_tie_set():
    """Theorem 1.1's good skeleton sets hold *any* extremal node, so the
    oracle must return all of them: every node of a cycle, both ends of a
    path."""
    cycle = Network(cycle_graph(8, max_weight=1))
    assert _extremal_nodes(cycle, True) == (list(range(8)), 4)
    assert _extremal_nodes(cycle, False) == (list(range(8)), 4)
    path = Network(path_graph(7, max_weight=1))
    assert _extremal_nodes(path, True) == ([0, 6], 6)
    assert _extremal_nodes(path, False) == ([3], 3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_extremal_nodes_equals_the_all_pairs_reduction(seed):
    graph = cycle_graph(24, max_weight=3, seed=seed)
    graph.add_edge(0, 12, 5)
    graph.add_edge(6, 18, 2)
    network = Network(graph)
    eccentricities = eccentricities_csr(graph)
    for maximize, pick in ((True, max), (False, min)):
        target = pick(eccentricities.values())
        expected = [node for node, value in eccentricities.items() if value == target]
        assert _extremal_nodes(network, maximize) == (expected, target)
    unit = eccentricities_csr(graph.with_unit_weights())
    assert network.unweighted_diameter() == float(max(unit.values()))
