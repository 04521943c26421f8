"""Generated-input differential of the dense engine's min-plus rounds.

The dense engine relaxes only the entries announced in the previous round,
charges them analytically and reads the next frontier off a mark array; the
sparse interpreter runs the node programs.  On Hypothesis-generated weighted
graphs (isolated nodes and single-node graphs included), bandwidths and
protocol parameters, both must end the same way: the same outputs, equal
``SimulationResult``s and the same ``RoundReport`` JSON, or the same
exception with the same text (the strict-bandwidth ``ValueError``, the
round-limit failure).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import CongestConfig, Network, Simulator, available_engines, get_engine
from repro.congest.primitives import _MinIdFloodAlgorithm
from repro.congest.simulator import RoundLimitExceeded
from repro.congest.sssp import _BellmanFordAlgorithm
from repro.graphs import WeightedGraph

pytestmark = [
    pytest.mark.engines,
    pytest.mark.skipif("dense" not in available_engines(), reason="dense engine needs NumPy"),
]


@st.composite
def _networks(draw, min_id=0, strict=None, word_bits=st.none() | st.integers(8, 96)):
    """A connected weighted graph of 1-9 nodes (ids from ``min_id``, in
    drawn order) under a bandwidth of one or two words of ``word_bits``,
    strict when ``strict`` says so (drawn when ``None``).  A network must be
    connected when it is built, so some edges are removed from its graph
    afterwards, which leaves nodes isolated or components apart."""
    nodes = draw(
        st.lists(st.integers(min_id, min_id + 40), min_size=1, max_size=9, unique=True)
    )
    weights = st.integers(1, 2**20) | st.integers(1, 9)
    graph = WeightedGraph(nodes=nodes)
    for i, node in enumerate(nodes[1:], start=1):
        graph.add_edge(node, draw(st.sampled_from(nodes[:i])), draw(weights))
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])):
        graph.add_edge(u, v, draw(weights))
    config = CongestConfig(
        bandwidth_words=1 if strict else draw(st.sampled_from([1, 2])),
        word_bits_override=draw(word_bits),
        strict_bandwidth=draw(st.booleans()) if strict is None else strict,
    )
    network = Network(graph, config)
    edges = sorted((u, v) for u, v, _ in graph.edges())
    for u, v in draw(st.lists(st.sampled_from(edges), unique=True) if edges else st.just([])):
        graph.remove_edge(u, v)
    return network


def _outcome(network, algorithm, engine, **kwargs):
    """The run's result, or the type and text of the exception it raised."""
    try:
        return Simulator(network, max_rounds=3 * network.num_nodes + 3).run(
            algorithm, engine=engine, **kwargs
        )
    except (ValueError, RoundLimitExceeded) as exc:
        return type(exc).__name__, str(exc)


def _assert_dense_matches_sparse(network, make_algorithm, **kwargs):
    assert get_engine("dense").prepare(network, make_algorithm()) is not None
    dense = _outcome(network, make_algorithm(), "dense", **kwargs)
    sparse = _outcome(network, make_algorithm(), "sparse", **kwargs)
    if isinstance(sparse, tuple):
        assert dense == sparse
        return
    assert not isinstance(dense, tuple), dense
    assert dense.outputs == sparse.outputs
    assert dense == sparse
    assert json.dumps(dense.report.to_json()) == json.dumps(sparse.report.to_json())


@given(network=_networks(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_bellman_ford_dense_matches_sparse(network, data):
    """Any source subset (duplicates included), any hop budget 1..n or none,
    with or without quiescence halting."""
    nodes = list(network.nodes)
    sources = data.draw(st.lists(st.sampled_from(nodes), max_size=len(nodes) + 2))
    max_hops = data.draw(st.none() | st.integers(1, len(nodes)))
    quiescence = data.draw(st.booleans())
    _assert_dense_matches_sparse(
        network,
        lambda: _BellmanFordAlgorithm(sources, max_hops=max_hops),
        halt_on_quiescence=quiescence,
    )


@given(network=_networks(min_id=-20), budget=st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_min_id_flood_dense_matches_sparse(network, budget):
    """Negative ids and round budgets below and past convergence."""
    _assert_dense_matches_sparse(network, lambda: _MinIdFloodAlgorithm(budget))


@given(network=_networks(strict=True, word_bits=st.integers(8, 160)), data=st.data())
@settings(max_examples=100, deadline=None)
def test_strict_bandwidth_error_text_identical(network, data):
    """Strict one-word bandwidth: both engines stop in the same round at
    the same first overrun sender, naming its load in the same words.
    Words of 47+ bits carry any single announcement, so the overrun comes
    in a later round, where senders announce several entries at once."""
    nodes = list(network.nodes)
    sources = data.draw(st.lists(st.sampled_from(nodes), min_size=1))
    _assert_dense_matches_sparse(
        network, lambda: _BellmanFordAlgorithm(sources), halt_on_quiescence=True
    )
