"""The Yao spanner's cone-closing ring scan builds the full-ring scan's graph.

:func:`repro.graphs.yao_spanner_graph` stops scanning a node's rings once
every cone is settled, counting an empty cone as settled once the unit
square ends within it.  Stopping early must never change a cone's winner, so
the graph has to match :func:`yao_reference.yao_spanner_reference` edge for
edge: the same ``edges()`` order, per-node neighbour order and weights, and
so the same ``content_digest()``.  The property needs nothing but the
standard library and runs without NumPy.
"""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from yao_reference import yao_spanner_reference

from repro.graphs import WeightedGraph, yao_spanner_graph
from repro.graphs.generators import _cone_reach


def _adjacency(graph: WeightedGraph):
    """Every node's ``(neighbour, weight)`` pairs, in insertion order."""
    return {u: list(graph.incident_edges(u)) for u in graph.nodes}


def _adjacency_digest(graph: WeightedGraph) -> str:
    """SHA-256 over the adjacency in insertion order (``content_digest``
    sorts, so it cannot see a change of order)."""
    hasher = hashlib.sha256()
    for u in graph.nodes:
        for v, w in graph.incident_edges(u):
            hasher.update(b"%d %d %d\n" % (u, v, w))
    return hasher.hexdigest()


def _assert_same_graph(built: WeightedGraph, reference: WeightedGraph) -> None:
    assert list(built.edges()) == list(reference.edges())
    assert list(built.nodes) == list(reference.nodes)
    assert _adjacency(built) == _adjacency(reference)
    assert built.content_digest() == reference.content_digest()


@settings(max_examples=40, deadline=None)
@given(
    num_nodes=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    num_cones=st.integers(min_value=3, max_value=12),
    weight_scale=st.sampled_from([1, 20, 1000]),
)
def test_cone_closure_builds_the_full_scan_graph(num_nodes, seed, num_cones, weight_scale):
    _assert_same_graph(
        yao_spanner_graph(num_nodes, num_cones, weight_scale, seed),
        yao_spanner_reference(num_nodes, num_cones, weight_scale, seed),
    )


@settings(max_examples=60, deadline=None)
@given(
    ux=st.floats(min_value=0.0, max_value=1.0),
    uy=st.floats(min_value=0.0, max_value=1.0),
    num_cones=st.integers(min_value=3, max_value=12),
    cone=st.integers(min_value=0, max_value=11),
)
def test_cone_reach_bounds_the_square_within_the_cone(ux, uy, num_cones, cone):
    # The square's part of a cone is convex and its farthest point lies on
    # the square's boundary, so checking the corners and a fine sample of
    # the perimeter exercises every vertex the bound must cover.
    width = 2 * math.pi / num_cones
    start = (cone % num_cones) * width
    reach = _cone_reach(ux, uy, start, width)
    steps = [i / 256 for i in range(257)]
    perimeter = [(t, 0.0) for t in steps] + [(t, 1.0) for t in steps]
    perimeter += [(0.0, t) for t in steps] + [(1.0, t) for t in steps]
    for x, y in perimeter:
        dx, dy = x - ux, y - uy
        if (math.atan2(dy, dx) - start) % (2 * math.pi) <= width:
            assert math.hypot(dx, dy) <= reach
    assert reach <= math.sqrt(2) * (1 + 1e-6)


@pytest.mark.parametrize(
    "num_nodes, seed",
    [
        (1024, 0),  # the thm11-symbolic benchmark graph
        (256, 1924307474),  # service-replay's first deck at run seed 0
        (256, 1950493505),
    ],
)
def test_benchmark_graphs_match_the_full_scan(num_nodes, seed):
    _assert_same_graph(
        yao_spanner_graph(num_nodes, seed=seed), yao_spanner_reference(num_nodes, seed=seed)
    )


def test_n4096_graph_is_pinned():
    # Digests of the full-ring scan's graph; the reference itself takes
    # seconds at this size.
    graph = yao_spanner_graph(4096, seed=0)
    assert graph.num_edges == 16796
    assert graph.content_digest() == (
        "ba754e4d6447a3fbf293271b8dbe33f9b7a6c4974cc9ee6f2d1c8afb7c7a1b14"
    )
    assert _adjacency_digest(graph) == (
        "af776121c3bf70c563efaa5b4895f3b634fd76a97790bc130df55cbaeccc8901"
    )
