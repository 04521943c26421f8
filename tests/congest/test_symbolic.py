"""Unit and property tests for the closed-form symbolic engine.

The differential suite already crosses ``symbolic`` into every zoo test;
this file covers what cross-checking final reports cannot: the
:class:`BroadcastReplaySchema` contract, the Lemma A.4 replay closed form,
and -- via Hypothesis -- the *per-round* trajectory of the min-plus closed
form against totals collected from a sparse-engine observer on random
networks.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import Network, Simulator
from repro.congest.engine import (
    BroadcastReplaySchema,
    available_engines,
    force_engine,
)
from repro.congest.engine.symbolic import (
    broadcast_replay_report,
    minplus_round_trace,
)
from repro.congest.message import message_size_bits
from repro.graphs import WeightedGraph
from repro.nanongkai.bounded_distance_sssp import BoundedDistanceSsspAlgorithm
from repro.nanongkai.multi_source import (
    MultiSourceBoundedHopAlgorithm,
    multi_source_bounded_hop_protocol,
)


class TestBroadcastReplaySchema:
    def test_total_announcements(self):
        schema = BroadcastReplaySchema(
            label="x", announcements=(0, 3, 1), fanout=2, depth=4
        )
        assert schema.total_announcements == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            BroadcastReplaySchema(label="x", announcements=(), fanout=0, depth=1)
        with pytest.raises(ValueError):
            BroadcastReplaySchema(label="x", announcements=(), fanout=1, depth=-1)
        with pytest.raises(ValueError):
            BroadcastReplaySchema(
                label="x", announcements=(1,), fanout=1, depth=0, words_per_message=0
            )
        with pytest.raises(ValueError):
            BroadcastReplaySchema(label="x", announcements=(-1,), fanout=1, depth=0)

    def test_replay_report_closed_form(self):
        """Lemma A.4: overlay round r costs depth + 1 + a_r congestion-adjusted
        rounds; every announcement is one fixed-width record re-broadcast to
        the whole skeleton."""
        schema = BroadcastReplaySchema(
            label="replay", announcements=(2, 0, 5), fanout=3, depth=4,
            words_per_message=2,
        )
        word_bits = 16
        report = broadcast_replay_report(schema, word_bits)
        assert report.protocol == "replay"
        assert report.rounds == 3
        assert report.congested_rounds == (4 + 1 + 2) + (4 + 1 + 0) + (4 + 1 + 5)
        assert report.total_messages == 7 * 3
        assert report.total_bits == 7 * 3 * (16 * 2)
        assert report.max_message_bits == 16 * 2

    def test_empty_replay_is_free(self):
        schema = BroadcastReplaySchema(
            label="empty", announcements=(), fanout=1, depth=2
        )
        report = broadcast_replay_report(schema, 32)
        assert report.rounds == 0
        assert report.congested_rounds == 0
        assert report.total_messages == 0
        assert report.total_bits == 0


def test_trace_rejects_ungated_schemas():
    from repro.congest.sssp import _BellmanFordAlgorithm

    network = Network(WeightedGraph(edges=[(0, 1, 2), (1, 2, 3)]))
    with pytest.raises(ValueError):
        minplus_round_trace(network, _BellmanFordAlgorithm([0]), max_rounds=50)


def test_multi_source_pipeline_symbolic_vs_sparse():
    """Algorithm 3 end to end -- windows, overrides, staggered levels --
    under a forced symbolic engine vs sparse, on one deterministic network."""
    graph = WeightedGraph(
        edges=[(0, 1, 4), (1, 2, 2), (2, 3, 6), (3, 0, 1), (1, 3, 5), (0, 4, 3)]
    )
    network = Network(graph)
    runs = {}
    for engine in ("sparse", "symbolic"):
        with force_engine(engine):
            runs[engine] = multi_source_bounded_hop_protocol(
                network, [0, 2], 3, 0.5, levels=3, seed=2
            )
    assert runs["symbolic"][0] == runs["sparse"][0]
    assert runs["symbolic"][1] == runs["sparse"][1]


# --------------------------------------------------------------------------- #
# Hypothesis: the expanded closed form must match the sparse engine's
# round-by-round totals, not just the summed report.
# --------------------------------------------------------------------------- #
@st.composite
def random_networks(draw, max_nodes: int = 9, max_weight: int = 9):
    """A connected random network: spanning tree plus a few chords."""
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    graph = WeightedGraph(nodes=range(num_nodes))
    for node in range(1, num_nodes):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        graph.add_edge(
            parent, node, draw(st.integers(min_value=1, max_value=max_weight))
        )
    extra = draw(st.integers(min_value=0, max_value=num_nodes // 2))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        v = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, draw(st.integers(min_value=1, max_value=max_weight)))
    return Network(graph)


def _sparse_round_totals(network, algorithm):
    """(round, messages, bits) per round, observed on the sparse engine."""
    word_bits = network.word_bits
    totals = []

    def observer(round_number, delivered):
        bits = sum(
            message_size_bits(m.payload, m.tag, word_bits) for m in delivered
        )
        totals.append((round_number, len(delivered), bits))

    Simulator(network).run(algorithm, observer=observer, engine="sparse")
    return totals


@given(random_networks(), st.integers(min_value=0, max_value=40))
@settings(max_examples=40, deadline=None)
def test_symbolic_per_round_totals_match_sparse(network, bound):
    """Every round of the Algorithm 2 announce schedule -- idle rounds
    included -- carries the same message and bit totals in the closed form
    as on the stepping engine."""
    algorithm = BoundedDistanceSsspAlgorithm(min(network.nodes), bound)
    trace = minplus_round_trace(
        network, algorithm, max_rounds=10_000
    )
    sparse = _sparse_round_totals(network, algorithm)
    assert [(r, m, b) for r, m, b, _ in trace] == sparse


@given(random_networks(), st.integers(min_value=0, max_value=30))
@settings(max_examples=25, deadline=None)
def test_symbolic_report_matches_sparse_on_random_networks(network, bound):
    algorithm = BoundedDistanceSsspAlgorithm(min(network.nodes), bound)
    results = {}
    for engine in ("sparse", "symbolic"):
        results[engine] = Simulator(network).run(algorithm, engine=engine)
    assert results["symbolic"].report == results["sparse"].report
    assert results["symbolic"].outputs == results["sparse"].outputs


@given(random_networks(), st.data())
@settings(max_examples=40, deadline=None)
def test_multi_source_matches_sparse_on_random_networks(network, data):
    """Algorithm 3's delay-staggered level windows gate each column at an
    offset from its window start; report, outputs and every round's totals
    must match the stepping engine."""
    sources = data.draw(
        st.lists(st.sampled_from(sorted(network.nodes)), min_size=1, max_size=3)
    )
    hop_bound = data.draw(st.integers(min_value=1, max_value=3))
    levels = data.draw(st.integers(min_value=1, max_value=3))
    delays = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=6),
            min_size=len(sources),
            max_size=len(sources),
        )
    )
    algorithm = MultiSourceBoundedHopAlgorithm(
        sources, hop_bound, 0.5, levels, delays
    )
    sparse = Simulator(network).run(algorithm, engine="sparse")
    engines = [e for e in ("symbolic", "dense") if e in available_engines()]
    for engine in engines:
        result = Simulator(network).run(algorithm, engine=engine)
        assert result.report == sparse.report, engine
        assert result.outputs == sparse.outputs, engine
    trace = minplus_round_trace(network, algorithm, max_rounds=10_000)
    assert [(r, m, b) for r, m, b, _ in trace] == _sparse_round_totals(
        network, algorithm
    )
