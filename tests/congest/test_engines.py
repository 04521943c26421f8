"""Engine registry behaviour plus observer/quiescence semantics per engine.

Covers the engine-selection contract (explicit > forced > ``REPRO_ENGINE`` >
auto, with sparse fallback for ineligible runs) and the two cross-engine
semantic guarantees the satellite protocols rely on: observers see rounds
numbered from 1 with exactly the delivered messages, and quiescence halting
charges the same final round on every engine.
"""

from __future__ import annotations

import pytest

from repro.congest import (
    Network,
    NodeAlgorithm,
    Simulator,
    available_engines,
    force_engine,
    get_engine,
)
from repro.congest.engine import base as engine_base
from repro.congest.engine.base import resolve_engine
from repro.congest.primitives import _MinIdFloodAlgorithm
from repro.congest.sssp import _BellmanFordAlgorithm
from repro.graphs import WeightedGraph, path_graph, random_weighted_graph

ENGINES = available_engines()

pytestmark = pytest.mark.engines


@pytest.fixture
def network():
    return Network(random_weighted_graph(12, average_degree=3.0, max_weight=20, seed=9))


class _Quiet(NodeAlgorithm):
    name = "quiet"

    def receive(self, ctx, round_number, messages):
        ctx.halt()


class TestRegistry:
    def test_bundled_engines_registered(self):
        assert "sparse" in ENGINES
        assert "legacy" in ENGINES
        assert "symbolic" in ENGINES  # registered with or without NumPy

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown execution engine"):
            get_engine("warp-drive")
        with pytest.raises(ValueError, match="unknown execution engine"):
            with force_engine("warp-drive"):
                pass  # pragma: no cover

    def test_unknown_env_engine_rejected(self, network, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "warp-drive")
        with pytest.raises(ValueError, match="unknown execution engine"):
            resolve_engine(None, network, _Quiet())

    def test_force_engine_nesting_restores_prior_engine(self, network, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        algorithm = _Quiet()
        with force_engine("legacy"):
            with force_engine("sparse"):
                assert resolve_engine(None, network, algorithm).name == "sparse"
            # Leaving the inner block restores the *outer* pin, not "auto".
            assert resolve_engine(None, network, algorithm).name == "legacy"
        assert resolve_engine(None, network, algorithm).name == "sparse"

    def test_force_engine_restores_even_after_errors(self, network, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        with force_engine("legacy"):
            with pytest.raises(RuntimeError):
                with force_engine("sparse"):
                    raise RuntimeError("mid-block failure")
            assert resolve_engine(None, network, _Quiet()).name == "legacy"
        assert resolve_engine(None, network, _Quiet()).name == "sparse"

    def test_force_engine_pins_and_restores(self, network, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        algorithm = _Quiet()
        with force_engine("legacy"):
            assert resolve_engine(None, network, algorithm).name == "legacy"
        # Override gone: auto resolution picks sparse for schema-less programs.
        assert resolve_engine(None, network, algorithm).name == "sparse"

    def test_env_variable_selects_engine(self, network, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "legacy")
        assert resolve_engine(None, network, _Quiet()).name == "legacy"

    def test_env_variable_falls_back_when_ineligible(self, network, monkeypatch):
        if "dense" not in ENGINES:
            pytest.skip("dense engine needs NumPy")
        monkeypatch.setenv("REPRO_ENGINE", "dense")
        # No message schema: the env preference cannot apply and sparse runs.
        assert resolve_engine(None, network, _Quiet()).name == "sparse"

    def test_env_dense_falls_back_when_unregistered(self, network, monkeypatch):
        """REPRO_ENGINE=dense must not crash runs on a NumPy-free machine
        (where the dense engine never registers): known-but-absent optional
        engines fall back to sparse; typos still raise."""
        monkeypatch.setenv("REPRO_ENGINE", "dense")
        removed = engine_base._REGISTRY.pop("dense", None)
        try:
            algorithm = _BellmanFordAlgorithm([min(network.nodes)])
            assert resolve_engine(None, network, algorithm).name == "sparse"
            monkeypatch.setenv("REPRO_ENGINE", "warp-drive")
            with pytest.raises(ValueError, match="unknown execution engine"):
                resolve_engine(None, network, algorithm)
        finally:
            if removed is not None:
                engine_base._REGISTRY["dense"] = removed

    def test_auto_prefers_dense_for_schema_protocols(self, network, monkeypatch):
        if "dense" not in ENGINES:
            pytest.skip("dense engine needs NumPy")
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        algorithm = _BellmanFordAlgorithm([min(network.nodes)])
        assert resolve_engine(None, network, algorithm).name == "dense"
        # ... but not when pre-loaded memory makes the run ineligible.
        assert (
            resolve_engine(
                None, network, algorithm, initial_memory={0: {"x": 1}}
            ).name
            == "sparse"
        )

    def test_custom_engine_registration(self, network):
        class EchoEngine(engine_base.ExecutionEngine):
            name = "echo-test"

            def run(self, network, algorithm, max_rounds, **kwargs):
                return get_engine("sparse").run(
                    network, algorithm, max_rounds, **kwargs
                )

        engine_base.register_engine(EchoEngine())
        try:
            result = Simulator(network).run(_Quiet(), engine="echo-test")
            assert result.report.rounds == 1
        finally:
            engine_base._REGISTRY.pop("echo-test", None)


class TestObserverSemantics:
    """Observers see rounds numbered from 1 with exactly the delivered messages."""

    @staticmethod
    def _record(network, algorithm, engine, **kwargs):
        rounds = []

        def observer(round_number, delivered):
            rounds.append(
                (
                    round_number,
                    sorted(
                        (m.sender, m.receiver, m.payload, m.tag) for m in delivered
                    ),
                )
            )

        # force_engine, not engine=: engines that cannot run the algorithm
        # (e.g. symbolic on an ungated flood) must fall back to sparse and
        # still produce the identical observer stream.
        with force_engine(engine):
            result = Simulator(network).run(algorithm, observer=observer, **kwargs)
        return rounds, result

    @pytest.mark.parametrize("engine", ENGINES)
    def test_round_numbering_and_delivery(self, network, engine):
        source = min(network.nodes)
        rounds, result = self._record(
            network,
            _BellmanFordAlgorithm([source]),
            engine,
            halt_on_quiescence=True,
        )
        numbers = [number for number, _ in rounds]
        assert numbers == list(range(1, result.report.rounds + 1))
        # Round 1 delivers exactly the source's initial announcements.
        assert rounds[0][1] == sorted(
            (source, neighbor, ("d", source, 0), "bf")
            for neighbor in network.neighbors(source)
        )
        delivered_total = sum(len(batch) for _, batch in rounds)
        assert delivered_total == result.report.total_messages

    def test_observed_messages_identical_across_engines(self, network):
        streams = {}
        for engine in ENGINES:
            streams[engine] = self._record(
                network,
                _BellmanFordAlgorithm(sorted(network.nodes)[:4]),
                engine,
                halt_on_quiescence=True,
            )[0]
        reference = streams.pop(ENGINES[0])
        for engine, stream in streams.items():
            assert stream == reference, f"{engine} observer stream diverged"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_idle_rounds_observed_with_empty_delivery(self, engine):
        # Budget far beyond convergence: the trailing rounds are idle but
        # still numbered and observed, with nothing delivered.
        network = Network(path_graph(4))
        budget = 9
        rounds, result = self._record(
            network, _MinIdFloodAlgorithm(budget), engine
        )
        assert result.report.rounds == budget
        numbers = [number for number, _ in rounds]
        assert numbers == list(range(1, budget + 1))
        assert all(batch == [] for _, batch in rounds[4:])


class _ListPayload(NodeAlgorithm):
    """Sends an unhashable (list) payload: exercises the sparse engine's
    fallback from the shared payload-size cache to the per-message walk."""

    name = "list-payload"

    def initialize(self, ctx):
        if ctx.node == 0:
            ctx.send(1, [1, 2, 3], tag="raw")

    def receive(self, ctx, round_number, messages):
        ctx.halt()


def test_sparse_sizes_unhashable_payloads_like_legacy():
    network = Network(WeightedGraph(edges=[(0, 1, 1)]))
    sparse = Simulator(network).run(_ListPayload(), engine="sparse")
    legacy = Simulator(network).run(_ListPayload(), engine="legacy")
    assert sparse.report == legacy.report
    assert sparse.report.total_bits > 0


class _MixedTypePayloads(NodeAlgorithm):
    """Equal-comparing payloads of different types: 2 == 2.0 == two*True.

    encode_value charges them differently (int 2 -> 3 bits, float -> one
    word, bool -> 1 bit), so a size cache keyed on payload *equality* alone
    would collapse them onto whichever was sized first."""

    name = "mixed-type-payloads"

    def initialize(self, ctx):
        other = 1 - ctx.node
        ctx.send(other, 2 if ctx.node == 0 else 2.0)
        ctx.send(other, (True,) if ctx.node == 0 else (1,))

    def receive(self, ctx, round_number, messages):
        ctx.halt()


def test_sparse_never_conflates_equal_payloads_of_different_types():
    network = Network(WeightedGraph(edges=[(0, 1, 1)]))
    sparse = Simulator(network).run(_MixedTypePayloads(), engine="sparse")
    legacy = Simulator(network).run(_MixedTypePayloads(), engine="legacy")
    assert sparse.report == legacy.report


def test_schema_overhead_respects_word_bits():
    """Custom schemas may use word-sized (float) key labels; the analytic
    overhead must charge them with the network's word size, exactly as
    message_size_bits would, or dense accounting desyncs."""
    from repro.congest import MinPlusSchema
    from repro.congest.message import encode_value, message_size_bits

    schema = MinPlusSchema(
        label="d",
        tag="t",
        keys=(2.5,),
        initial=lambda node: [0],
        finalize=lambda node, row: {},
    )
    for word_bits in (8, 32, 64):
        expected = message_size_bits(
            ("d", 2.5, 0), tag="t", word_bits=word_bits
        ) - encode_value(0, word_bits)
        assert schema.payload_overhead_bits(0, word_bits) == expected


@pytest.mark.skipif("dense" not in ENGINES, reason="dense engine needs NumPy")
def test_dense_bit_lengths_exact_at_power_boundaries():
    """The vectorized bit_length must match int.bit_length exactly -- float
    log2 is only an estimate near powers of two, where the accounting would
    otherwise drift off the other engines by a bit."""
    np = pytest.importorskip("numpy")
    from repro.congest.engine.dense import _bit_lengths

    values = [0, 1, 2, 3]
    for k in range(1, 60):
        values.extend([2**k - 1, 2**k, 2**k + 1])
    arr = np.array(values, dtype=np.int64)
    assert _bit_lengths(arr).tolist() == [v.bit_length() for v in values]


class TestQuiescenceSemantics:
    """halt_on_quiescence charges the same final round on every engine."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_quiescent_round_still_charged(self, engine):
        network = Network(path_graph(5))
        source = 0
        with force_engine(engine):
            result = Simulator(network).run(
                _BellmanFordAlgorithm([source]),
                halt_on_quiescence=True,
            )
        # The flood takes 4 rounds to cross the path; the quiescence halt is
        # detected in (and charges) the round after the last improvement.
        assert result.report.rounds == 5
        assert result.report.congested_rounds >= result.report.rounds
        assert all(ctx.halted for ctx in result.contexts.values())

    def test_reports_identical_across_engines(self):
        network = Network(
            random_weighted_graph(16, average_degree=3.0, max_weight=30, seed=11)
        )
        reports = {}
        for engine in ENGINES:
            with force_engine(engine):
                reports[engine] = Simulator(network).run(
                    _BellmanFordAlgorithm(sorted(network.nodes)),
                    halt_on_quiescence=True,
                ).report
        reference = reports.pop(ENGINES[0])
        for engine, report in reports.items():
            assert report == reference, f"{engine} diverged: {report} != {reference}"


# --------------------------------------------------------------------------- #
# Announce-schedule schema validation: the dense engine must refuse (fall
# back) or fail loudly on every pre-loaded-memory / schema shape it cannot
# express, and the schema payload helpers must mirror the node programs.
# --------------------------------------------------------------------------- #
@pytest.mark.skipif("dense" not in ENGINES, reason="dense engine needs NumPy")
class TestWeightOverrideValidation:
    def _algorithm(self, source=0, bound=10, weight_key="override_weights"):
        from repro.nanongkai.bounded_distance_sssp import BoundedDistanceSsspAlgorithm

        return BoundedDistanceSsspAlgorithm(source, bound, weight_key=weight_key)

    def _memory(self, network):
        return {
            node: {"override_weights": dict(network.incident_weights(node))}
            for node in network.nodes
        }

    def test_well_formed_overrides_are_eligible(self, network):
        dense = get_engine("dense")
        assert dense.supports(network, self._algorithm(), self._memory(network))

    def test_schema_key_without_memory_falls_back(self, network):
        # The node program would KeyError on its first weight lookup; the
        # dense engine must not silently run the network weights instead.
        dense = get_engine("dense")
        assert not dense.supports(network, self._algorithm())

    def test_extra_memory_keys_fall_back(self, network):
        memory = self._memory(network)
        memory[min(network.nodes)]["extra_state"] = 1
        assert not get_engine("dense").supports(network, self._algorithm(), memory)
        with pytest.raises(ValueError, match="dense|memory"):
            Simulator(network).run(
                self._algorithm(), initial_memory=memory, engine="dense"
            )

    def test_non_integer_weights_fall_back(self, network):
        memory = self._memory(network)
        node = min(network.nodes)
        neighbor = network.neighbors(node)[0]
        memory[node]["override_weights"][neighbor] = 2.5
        assert not get_engine("dense").supports(network, self._algorithm(), memory)

    def test_non_positive_weights_fall_back(self, network):
        memory = self._memory(network)
        node = min(network.nodes)
        neighbor = network.neighbors(node)[0]
        memory[node]["override_weights"][neighbor] = 0
        assert not get_engine("dense").supports(network, self._algorithm(), memory)

    def test_unknown_nodes_in_memory_fall_back(self, network):
        memory = self._memory(network)
        memory[987654] = {"override_weights": {}}
        assert not get_engine("dense").supports(network, self._algorithm(), memory)

    def test_memory_without_schema_key_falls_back(self, network):
        memory = self._memory(network)
        assert not get_engine("dense").supports(
            network, self._algorithm(weight_key=None), memory
        )

    def test_huge_override_weights_fall_back(self, network):
        memory = self._memory(network)
        node = min(network.nodes)
        neighbor = network.neighbors(node)[0]
        memory[node]["override_weights"][neighbor] = 2**53
        assert not get_engine("dense").supports(network, self._algorithm(), memory)


@pytest.mark.skipif("dense" not in ENGINES, reason="dense engine needs NumPy")
class TestAnnounceScheduleSchemas:
    def test_column_window_count_must_match_columns(self, network):
        from repro.congest.engine.schema import MinPlusSchema

        class _BadWindows(NodeAlgorithm):
            name = "bad-windows"

            def message_schema(self):
                return MinPlusSchema(
                    label="x",
                    tag="",
                    keys=("a", "b"),
                    initial=lambda node: [0, 0],
                    finalize=lambda node, row: {},
                    arrival_gated=True,
                    round_budget=3,
                    column_windows=((1, 2),),  # two columns, one window
                )

            def receive(self, ctx, round_number, messages):
                ctx.halt()

        with pytest.raises(ValueError, match="column windows"):
            Simulator(network).run(_BadWindows(), engine="dense")

    def test_huge_column_weights_fall_back(self, network):
        from repro.congest.engine.schema import MinPlusSchema

        class _HugeTransform(NodeAlgorithm):
            name = "huge-transform"

            def message_schema(self):
                return MinPlusSchema(
                    label="x",
                    tag="",
                    keys=(0,),
                    initial=lambda node: [0 if node == 0 else float("inf")],
                    finalize=lambda node, row: {},
                    value_cap=10,
                    round_budget=3,
                    column_weight=lambda column, weight: weight * 2**53,
                )

            def receive(self, ctx, round_number, messages):
                ctx.halt()

        assert not get_engine("dense").supports(network, _HugeTransform())

    def test_schedule_that_never_fires_hits_the_round_limit_on_every_engine(self):
        """A finite pending entry keeps the dense loop stepping (its window
        could open later); if the gate never fires before the round limit,
        the failure mode must match the engines that run the node program."""
        from repro.congest.engine.schema import MinPlusSchema
        from repro.congest.simulator import RoundLimitExceeded

        class _NeverAnnounce(NodeAlgorithm):
            name = "never-announce"

            def message_schema(self):
                return MinPlusSchema(
                    label="x",
                    tag="",
                    keys=None,
                    initial=lambda node: [node],
                    send_initial="none",
                    add_edge_weight=False,
                    arrival_gated=True,
                    column_windows=((100, 200),),  # opens after max_rounds
                    finalize=lambda node, row: {"value": int(row[0])},
                )

            def initialize(self, ctx):
                ctx.memory["value"] = ctx.node

            def receive(self, ctx, round_number, messages):
                pass  # never announces, never halts

        network = Network(path_graph(4, max_weight=3, seed=0))
        messages = {}
        for engine in ENGINES:
            with pytest.raises(RoundLimitExceeded) as excinfo:
                Simulator(network, max_rounds=9).run(_NeverAnnounce(), engine=engine)
            messages[engine] = str(excinfo.value)
        assert len(set(messages.values())) == 1, messages

    def test_flattened_keys_splat_into_payloads(self):
        from repro.congest.engine.schema import MinPlusSchema

        schema = MinPlusSchema(
            label="ms",
            tag="mssp",
            keys=((0, 1), (2, 3)),
            flatten_keys=True,
            initial=lambda node: [0, 0],
            finalize=lambda node, row: {},
        )
        assert schema.payload_for(0, 5.0) == ("ms", 0, 1, 5)
        assert schema.payload_for(1, float("inf"))[:3] == ("ms", 2, 3)
        nested = MinPlusSchema(
            label="ms",
            tag="",
            keys=((0, 1),),
            initial=lambda node: [0],
            finalize=lambda node, row: {},
        )
        assert nested.payload_for(0, 5.0) == ("ms", (0, 1), 5)
