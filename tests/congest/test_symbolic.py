"""Unit and property tests for the closed-form symbolic engine.

The differential suite already crosses ``symbolic`` into every zoo test;
this file covers what cross-checking final reports cannot: the
:class:`BroadcastReplaySchema` contract, the Lemma A.4 replay closed form,
and -- via Hypothesis -- the *per-round* trajectory of the min-plus closed
form against totals collected from a sparse-engine observer on random
networks.  It also pins the hand-off of ``supports``' closed-form inputs to
the ``run`` that follows: one derivation per run, never another run's.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import Network, Simulator
from repro.congest.engine import (
    BroadcastReplaySchema,
    MinPlusSchema,
    force_engine,
    get_engine,
)
from repro.congest.engine import symbolic as symbolic_module
from repro.congest.engine.symbolic import SymbolicEngine, broadcast_replay_report
from repro.congest.message import message_size_bits
from repro.graphs import WeightedGraph
from repro.nanongkai.bounded_distance_sssp import BoundedDistanceSsspAlgorithm
from repro.nanongkai.multi_source import (
    MultiSourceBoundedHopAlgorithm,
    multi_source_bounded_hop_protocol,
)

from gated_trace import minplus_round_trace


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

    def test_counts_are_checked_as_a_whole(self):
        """An empty replay constructs; one negative count anywhere in the
        tuple raises the schema's own error."""
        schema = BroadcastReplaySchema(label="x", announcements=(), fanout=3, depth=5)
        assert broadcast_replay_report(schema, 8).rounds == 0
        with pytest.raises(ValueError, match="announcement counts must be non-negative"):
            BroadcastReplaySchema(label="x", announcements=(4, 0, -2, 1), fanout=1, depth=0)


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
    result = Simulator(network).run(algorithm, engine="symbolic")
    assert result.report == sparse.report
    assert result.outputs == sparse.outputs
    trace = minplus_round_trace(network, algorithm, max_rounds=10_000)
    assert [(r, m, b) for r, m, b, _ in trace] == _sparse_round_totals(
        network, algorithm
    )


def _count_roundings(monkeypatch):
    """Record the symbolic engine's ``(level, weight)`` roundings."""
    calls = []
    rounded_weight = symbolic_module.rounded_weight

    def counting(weight, hop_bound, epsilon, level):
        calls.append((level, weight))
        return rounded_weight(weight, hop_bound, epsilon, level)

    monkeypatch.setattr(symbolic_module, "rounded_weight", counting)
    return calls


def _algorithm3_runs(network):
    runs = {}
    for engine in ("sparse", "symbolic"):
        with force_engine(engine):
            runs[engine] = multi_source_bounded_hop_protocol(
                network, [0, 2, 3], 3, 0.5, levels=4, seed=2
            )
    return runs


def test_algorithm3_maps_each_weight_once_per_level(monkeypatch):
    """Algorithm 3 declares its columns' weight maps as data (the Lemma 3.2
    rounding and each column's level), so the symbolic engine rounds once
    per (level, distinct weight), not once per (column, weight), and a
    second run on the same topology rounds nothing; the results stay those
    of the sparse engine."""
    graph = WeightedGraph(
        edges=[(0, 1, 4), (1, 2, 2), (2, 3, 6), (3, 0, 1), (1, 3, 5), (0, 4, 3)]
    )
    network = Network(graph)
    calls = _count_roundings(monkeypatch)
    runs = _algorithm3_runs(network)
    assert runs["symbolic"] == runs["sparse"]
    assert sorted(calls) == sorted((level, w) for level in range(4) for w in (1, 2, 3, 4, 5, 6))
    calls.clear()
    assert _algorithm3_runs(network) == runs
    assert calls == []


def test_algorithm3_declares_its_levels_as_column_groups():
    algorithm = MultiSourceBoundedHopAlgorithm([0, 5], 3, 0.5, 4, [0, 2])
    schema = algorithm.message_schema()
    assert schema.column_rounding == (3, 0.5)
    assert schema.column_groups == tuple(level for _, level in schema.keys)
    assert sorted(set(schema.column_groups)) == [0, 1, 2, 3]


def test_reweight_invalidates_the_memoized_palettes(monkeypatch):
    """A weight change replaces the topology's snapshot, so the palettes are
    rounded afresh from the new distinct weights and the results follow
    the sparse engine on the new weights."""
    graph = WeightedGraph(
        edges=[(0, 1, 4), (1, 2, 2), (2, 3, 6), (3, 0, 1), (1, 3, 5), (0, 4, 3)]
    )
    network = Network(graph)
    calls = _count_roundings(monkeypatch)
    before = _algorithm3_runs(network)
    calls.clear()
    graph.add_edge(2, 3, 7)  # overwrites the weight 6
    after = _algorithm3_runs(network)
    assert after["symbolic"] == after["sparse"]
    assert after["symbolic"] != before["symbolic"]
    assert sorted(calls) == sorted((level, w) for level in range(4) for w in (1, 2, 3, 4, 5, 7))


def test_column_groups_must_cover_every_column():
    with pytest.raises(ValueError, match="2 column groups for 1 columns"):
        MinPlusSchema(
            label="x",
            tag="",
            keys=None,
            initial=lambda node: [0],
            finalize=lambda node, row: {},
            arrival_gated=True,
            column_groups=(0, 0),
        )
    with pytest.raises(ValueError, match="MinPlusSchema.column_groups "):
        MinPlusSchema(
            label="x",
            tag="",
            keys=None,
            initial=lambda node: [0],
            finalize=lambda node, row: {},
            column_groups=(0,),
        )


# --------------------------------------------------------------------------- #
# supports() hands its inputs to the run that follows it
# --------------------------------------------------------------------------- #
def _override_run(network):
    algorithm = BoundedDistanceSsspAlgorithm(0, 12, weight_key="override_weights")
    memory = {
        node: {"override_weights": {v: w + 1 for v, w in network.incident_weights(node).items()}}
        for node in network.nodes
    }
    return algorithm, memory


def _counting_inputs(monkeypatch):
    calls = []
    inputs_of = symbolic_module._minplus_inputs

    def counting(network, schema, initial_memory):
        calls.append(network)
        return inputs_of(network, schema, initial_memory)

    monkeypatch.setattr(symbolic_module, "_minplus_inputs", counting)
    return calls


def _network():
    return Network(
        WeightedGraph(edges=[(0, 1, 4), (1, 2, 2), (2, 3, 6), (3, 0, 1), (1, 3, 5)])
    )


def test_a_gated_run_builds_its_inputs_once(monkeypatch):
    network = _network()
    algorithm, memory = _override_run(network)
    expected = Simulator(network).run(algorithm, initial_memory=memory, engine="sparse")
    calls = _counting_inputs(monkeypatch)
    result = Simulator(network).run(algorithm, initial_memory=memory, engine="symbolic")
    assert len(calls) == 1
    assert result.report == expected.report
    assert result.outputs == expected.outputs


def test_the_handoff_serves_only_the_same_run_on_the_same_topology(monkeypatch):
    """A run on another algorithm, other memory or a mutated graph derives
    its own inputs, so it runs (or fails) exactly as without a handoff."""
    network = _network()
    algorithm, memory = _override_run(network)
    symbolic = get_engine("symbolic")
    calls = _counting_inputs(monkeypatch)

    assert symbolic.supports(network, algorithm, memory)
    other, _ = _override_run(network)
    symbolic.run(network, other, 50, initial_memory=memory)
    assert len(calls) == 2

    assert symbolic.supports(network, algorithm, memory)
    with pytest.raises(ValueError, match="symbolic engine cannot execute"):
        symbolic.run(network, algorithm, 50, initial_memory={})
    assert len(calls) == 4

    assert symbolic.supports(network, algorithm, memory)
    network.graph.add_edge(0, 2, 3)  # memory now misses the new edge
    assert not symbolic.supports(network, algorithm, memory)
    with pytest.raises(ValueError, match="symbolic engine cannot execute"):
        symbolic.run(network, algorithm, 50, initial_memory=memory)


def test_an_observed_run_leaves_no_handoff():
    """An observed run that names symbolic is checked by its ``supports``
    and then executes on sparse; the inputs ``supports`` derived for it
    must not stay on the engine."""
    network = _network()
    algorithm = BoundedDistanceSsspAlgorithm(0, 12)
    expected = Simulator(network).run(algorithm, engine="sparse")
    rounds = []
    result = Simulator(network).run(
        algorithm,
        observer=lambda number, delivered: rounds.append(number),
        engine="symbolic",
    )
    assert get_engine("symbolic")._handoff is None
    assert result.report == expected.report
    assert result.outputs == expected.outputs
    assert rounds == list(range(1, expected.report.rounds + 1))


def test_a_declined_run_leaves_no_handoff(monkeypatch):
    network = _network()
    algorithm, memory = _override_run(network)
    symbolic = get_engine("symbolic")
    assert symbolic.supports(network, algorithm, memory)
    symbolic.run(network, algorithm, 50, initial_memory=memory)  # consumes it
    calls = _counting_inputs(monkeypatch)
    bad = {node: dict(entry, extra=1) for node, entry in memory.items()}
    assert not symbolic.supports(network, algorithm, bad)
    with pytest.raises(ValueError, match="symbolic engine cannot execute"):
        symbolic.run(network, algorithm, 50, initial_memory=bad)
    assert len(calls) == 2


def test_concurrent_runs_each_get_their_own_inputs(monkeypatch):
    """The handoff lives on the shared engine instance: threads interleaving
    ``supports`` and ``run`` on different networks and override weights
    must each get their own sparse-identical result.  ``supports`` yields
    the interpreter before returning, so another thread's ``supports``
    lands between most ``supports`` / ``run`` pairs."""
    runs = []
    for offset in range(4):
        network = _network()
        algorithm = BoundedDistanceSsspAlgorithm(0, 12, weight_key="override_weights")
        memory = {
            node: {
                "override_weights": {
                    v: w + offset for v, w in network.incident_weights(node).items()
                }
            }
            for node in network.nodes
        }
        expected = Simulator(network).run(algorithm, initial_memory=memory, engine="sparse")
        runs.append((network, algorithm, memory, expected))
    supports = SymbolicEngine.supports

    def yielding_supports(self, *args, **kwargs):
        accepted = supports(self, *args, **kwargs)
        time.sleep(0.0005)
        return accepted

    monkeypatch.setattr(SymbolicEngine, "supports", yielding_supports)
    barrier = threading.Barrier(len(runs))
    errors = []

    def worker(network, algorithm, memory, expected):
        barrier.wait(timeout=60)
        for _ in range(25):
            got = Simulator(network).run(algorithm, initial_memory=memory, engine="symbolic")
            if got.report != expected.report or got.outputs != expected.outputs:
                errors.append(memory)

    threads = [threading.Thread(target=worker, args=run) for run in runs]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
