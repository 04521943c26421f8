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
from repro.congest.engine.schema import MinPlusSchema
from repro.congest.engine.types import RoundReport
from repro.congest.message import message_size_bits
from repro.congest.primitives import _BfsTreeAlgorithm, _MinIdFloodAlgorithm
from repro.congest.sssp import _BellmanFordAlgorithm
from repro.graphs import WeightedGraph, path_graph, random_weighted_graph
from repro.nanongkai.bounded_distance_sssp import BoundedDistanceSsspAlgorithm
from repro.nanongkai.multi_source import MultiSourceBoundedHopAlgorithm

ENGINES = available_engines()

pytestmark = pytest.mark.engines


@pytest.fixture
def network():
    return Network(random_weighted_graph(12, average_degree=3.0, max_weight=20, seed=9))


class _Quiet(NodeAlgorithm):
    name = "quiet"

    def receive(self, ctx, round_number, messages):
        ctx.halt()


class _PinnedEngine(engine_base.ExecutionEngine):
    """A test-local engine that runs anything on sparse: pinning it is
    observable through :func:`resolve_engine` on any program."""

    name = "pinned-test"

    def prepare(self, network, algorithm, initial_memory=None):
        return get_engine("sparse").prepare(network, algorithm, initial_memory)


@pytest.fixture
def pinned(monkeypatch):
    monkeypatch.setitem(engine_base._REGISTRY, _PinnedEngine.name, _PinnedEngine())
    return _PinnedEngine.name


#: Unregistered names, including the seed loop's, which was removed.
UNKNOWN_ENGINES = ("warp-drive", "legacy")


class TestRegistry:
    def test_bundled_engines_registered(self):
        # symbolic registers with or without NumPy, dense only with it.
        assert ENGINES in (["dense", "sparse", "symbolic"], ["sparse", "symbolic"])

    def test_unknown_engine_rejected(self):
        listing = f"available: {available_engines()}"
        for name in UNKNOWN_ENGINES:
            with pytest.raises(ValueError, match="unknown execution engine") as info:
                get_engine(name)
            assert listing in str(info.value)
            with pytest.raises(ValueError, match="unknown execution engine") as info:
                with force_engine(name):
                    pass  # pragma: no cover
            assert listing in str(info.value)

    def test_unknown_env_engine_rejected(self, network, monkeypatch):
        for name in UNKNOWN_ENGINES:
            monkeypatch.setenv("REPRO_ENGINE", name)
            with pytest.raises(ValueError, match="unknown execution engine") as info:
                resolve_engine(None, network, _Quiet())
            assert f"available: {available_engines()}" in str(info.value)

    def test_force_engine_nesting_restores_prior_engine(
        self, network, monkeypatch, pinned
    ):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        algorithm = _Quiet()
        with force_engine(pinned):
            with force_engine("sparse"):
                assert resolve_engine(None, network, algorithm).name == "sparse"
            # Leaving the inner block restores the *outer* pin, not "auto".
            assert resolve_engine(None, network, algorithm).name == pinned
        assert resolve_engine(None, network, algorithm).name == "sparse"

    def test_force_engine_restores_even_after_errors(
        self, network, monkeypatch, pinned
    ):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        with force_engine(pinned):
            with pytest.raises(RuntimeError):
                with force_engine("sparse"):
                    raise RuntimeError("mid-block failure")
            assert resolve_engine(None, network, _Quiet()).name == pinned
        assert resolve_engine(None, network, _Quiet()).name == "sparse"

    def test_force_engine_pins_and_restores(self, network, monkeypatch, pinned):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        algorithm = _Quiet()
        with force_engine(pinned):
            assert resolve_engine(None, network, algorithm).name == pinned
        # Override gone: auto resolution picks sparse for schema-less programs.
        assert resolve_engine(None, network, algorithm).name == "sparse"

    def test_env_variable_selects_engine(self, network, monkeypatch, pinned):
        monkeypatch.setenv("REPRO_ENGINE", pinned)
        assert resolve_engine(None, network, _Quiet()).name == pinned

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

    def test_auto_resolution_per_protocol_family(self, network, monkeypatch):
        """``auto`` tries symbolic, then dense, then sparse."""
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        source = min(network.nodes)
        flood_engine = "dense" if "dense" in ENGINES else "sparse"
        expected = [
            (BoundedDistanceSsspAlgorithm(source, 10), "symbolic"),
            (MultiSourceBoundedHopAlgorithm([source], 2, 0.5, 2, [1]), "symbolic"),
            (_BfsTreeAlgorithm(source), "symbolic"),
            (_BellmanFordAlgorithm(list(network.nodes)), flood_engine),
            (_MinIdFloodAlgorithm(5), flood_engine),
            (_Quiet(), "sparse"),
        ]
        for algorithm, engine in expected:
            assert resolve_engine(None, network, algorithm).name == engine, (
                algorithm.name
            )

    def test_custom_engine_registration(self, network):
        class EchoEngine(engine_base.ExecutionEngine):
            name = "echo-test"

            def prepare(self, network, algorithm, initial_memory=None):
                return get_engine("sparse").prepare(network, algorithm, initial_memory)

        engine_base.register_engine(EchoEngine())
        try:
            result = Simulator(network).run(_Quiet(), engine="echo-test")
            assert result.report.rounds == 1
        finally:
            engine_base._REGISTRY.pop("echo-test", None)


class TestObserverSemantics:
    """Observers see rounds numbered from 1 with exactly the delivered
    messages.  An observed run always executes on ``sparse``; the cases per
    engine force each one in turn and check its hand-off (see also
    ``test_tree_observer_streams_identical`` for the routing per engine)."""

    @staticmethod
    def _record(network, algorithm, forced=None, **kwargs):
        """Run ``algorithm`` observed, under ``force_engine(forced)`` when
        given: an engine that cannot run it must still hand the observed run
        to sparse and produce the identical stream."""
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

        if forced is None:
            result = Simulator(network).run(algorithm, observer=observer, **kwargs)
        else:
            with force_engine(forced):
                result = Simulator(network).run(
                    algorithm, observer=observer, **kwargs
                )
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

    def test_observed_messages_identical_across_engines(self, network, monkeypatch):
        """Under ``auto`` or a forced engine, an observed run asks no engine
        to ``prepare`` the run (symbolic's is a full input pass that the
        sparse run would discard) and streams what sparse does."""
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        algorithm = _BellmanFordAlgorithm(sorted(network.nodes)[:4])
        reference = self._record(
            network, algorithm, halt_on_quiescence=True, engine="sparse"
        )[0]
        asked = []
        for name in ENGINES:
            cls = type(get_engine(name))
            monkeypatch.setattr(
                cls,
                "prepare",
                lambda self, *args, _prepare=cls.prepare: asked.append(self.name)
                or _prepare(self, *args),
            )
        assert self._record(network, algorithm, halt_on_quiescence=True)[0] == reference
        for name in ENGINES:
            with force_engine(name):
                stream = self._record(network, algorithm, halt_on_quiescence=True)[0]
            assert stream == reference, f"{name} observer stream diverged"
        assert asked == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_idle_rounds_observed_with_empty_delivery(self, engine):
        # Budget far beyond convergence: the trailing rounds are idle but
        # still numbered and observed, with nothing delivered.
        network = Network(path_graph(4))
        budget = 9
        rounds, result = self._record(network, _MinIdFloodAlgorithm(budget), engine)
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


def _sized_report(network, protocol, messages):
    """The one-round report of delivering ``messages`` (``(sender, receiver,
    tag, payload)``), each sized on its own by ``message_size_bits``."""
    bits, edge_bits = [], {}
    for sender, receiver, tag, payload in messages:
        bits.append(message_size_bits(payload, tag=tag, word_bits=network.word_bits))
        edge_bits[sender, receiver] = edge_bits.get((sender, receiver), 0) + bits[-1]
    charge = max(-(-total // network.bandwidth_bits) for total in edge_bits.values())
    return RoundReport(1, max(charge, 1), len(bits), sum(bits), max(bits), protocol)


def test_sparse_sizes_unhashable_payloads_like_legacy():
    network = Network(WeightedGraph(edges=[(0, 1, 1)]))
    sparse = Simulator(network).run(_ListPayload(), engine="sparse")
    assert sparse.report == _sized_report(
        network, "list-payload", [(0, 1, "raw", [1, 2, 3])]
    )
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
    assert sparse.report == _sized_report(
        network,
        "mixed-type-payloads",
        [(0, 1, "", 2), (0, 1, "", (True,)), (1, 0, "", 2.0), (1, 0, "", (1,))],
    )


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


def test_schema_overhead_memo_never_conflates_equal_keys_of_different_types():
    """Overheads are sized once per distinct (label, tag, key, flattening,
    word size); keys that compare equal but charge differently (``1``,
    ``True``, ``1.0``, and tuples of them) each keep their own charge."""
    from repro.congest import MinPlusSchema
    from repro.congest.message import encode_value, message_size_bits

    keys = (1, True, 1.0, (1, 2), (True, 2), (1.0, 2), 1, (1, 2))
    for flatten_keys in (False, True):
        schema = MinPlusSchema(
            label="d",
            tag="t",
            keys=keys,
            initial=lambda node: [0] * len(keys),
            finalize=lambda node, row: {},
            flatten_keys=flatten_keys,
        )
        for word_bits in (8, 32, 8):
            for j, key in enumerate(keys):
                payload = schema.payload_for(j, 0)
                expected = message_size_bits(
                    payload, tag="t", word_bits=word_bits
                ) - encode_value(0, word_bits)
                assert schema.payload_overhead_bits(j, word_bits) == expected
    assert len({schema.payload_overhead_bits(j, 32) for j in range(3)}) == 3


@pytest.mark.skipif("dense" not in ENGINES, reason="dense engine needs NumPy")
def test_dense_bit_lengths_exact_at_power_boundaries():
    """Dense sizes an announced value by its float64 exponent; at
    ``2**k - 1``, ``2**k`` and ``2**k + 1`` (k <= 52, either sign) the
    charge must match the interpreter's exact ``int.bit_length``, or the
    reports drift apart by a bit."""
    ids = [0, 1, -1]
    for k in range(1, 53):
        for value in (2**k - 1, 2**k, 2**k + 1):
            ids.extend([value, -value])
    ids = list(dict.fromkeys(ids))
    # Every id is announced in round 1; the minimum then floods the path.
    network = Network(WeightedGraph(edges=[(a, b, 1) for a, b in zip(ids, ids[1:])]))
    algorithm = _MinIdFloodAlgorithm(4)
    assert get_engine("dense").prepare(network, algorithm) is not None
    results = {
        engine: Simulator(network).run(algorithm, engine=engine)
        for engine in ("dense", "sparse")
    }
    assert results["dense"].outputs == results["sparse"].outputs
    assert results["dense"].report.to_json() == results["sparse"].report.to_json()


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
        reference = reports.pop("sparse")
        for engine, report in reports.items():
            assert report == reference, f"{engine} diverged: {report} != {reference}"


# --------------------------------------------------------------------------- #
# Announce-schedule schema validation: the symbolic engine must refuse (fall
# back) or fail loudly on every pre-loaded-memory / schema shape it cannot
# express, and the schema payload helpers must mirror the node programs.
# --------------------------------------------------------------------------- #
class TestWeightOverrideValidation:
    def _algorithm(self, source=0, bound=10, weight_key="override_weights"):
        return BoundedDistanceSsspAlgorithm(source, bound, weight_key=weight_key)

    def _memory(self, network):
        return {
            node: {"override_weights": dict(network.incident_weights(node))}
            for node in network.nodes
        }

    def test_well_formed_overrides_are_eligible(self, network):
        symbolic = get_engine("symbolic")
        assert symbolic.prepare(network, self._algorithm(), self._memory(network)) is not None

    def test_schema_key_without_memory_falls_back(self, network):
        # The node program would KeyError on its first weight lookup; the
        # symbolic engine must not silently run the network weights instead.
        symbolic = get_engine("symbolic")
        assert symbolic.prepare(network, self._algorithm()) is None

    def test_extra_memory_keys_fall_back(self, network):
        memory = self._memory(network)
        memory[min(network.nodes)]["extra_state"] = 1
        assert get_engine("symbolic").prepare(
            network, self._algorithm(), memory
        ) is None
        with pytest.raises(ValueError, match="symbolic|memory"):
            Simulator(network).run(
                self._algorithm(), initial_memory=memory, engine="symbolic"
            )

    def test_non_integer_weights_fall_back(self, network):
        memory = self._memory(network)
        node = min(network.nodes)
        neighbor = network.neighbors(node)[0]
        memory[node]["override_weights"][neighbor] = 2.5
        assert get_engine("symbolic").prepare(
            network, self._algorithm(), memory
        ) is None

    def test_non_positive_weights_fall_back(self, network):
        memory = self._memory(network)
        node = min(network.nodes)
        neighbor = network.neighbors(node)[0]
        memory[node]["override_weights"][neighbor] = 0
        assert get_engine("symbolic").prepare(
            network, self._algorithm(), memory
        ) is None

    def test_unknown_nodes_in_memory_fall_back(self, network):
        memory = self._memory(network)
        memory[987654] = {"override_weights": {}}
        assert get_engine("symbolic").prepare(
            network, self._algorithm(), memory
        ) is None

    def test_memory_without_schema_key_falls_back(self, network):
        memory = self._memory(network)
        assert get_engine("symbolic").prepare(
            network, self._algorithm(weight_key=None), memory
        ) is None

    def test_huge_override_weights_stay_exact(self, network):
        # Symbolic relaxes exact Python ints, so weights past float64's 2^53
        # are eligible and must match the node program bit for bit.
        memory = self._memory(network)
        node = min(network.nodes)
        neighbor = network.neighbors(node)[0]
        memory[node]["override_weights"][neighbor] = 2**53 + 1
        algorithm = self._algorithm(source=neighbor)
        assert get_engine("symbolic").prepare(network, algorithm, memory) is not None
        symbolic, sparse = (
            Simulator(network).run(algorithm, initial_memory=memory, engine=engine)
            for engine in ("symbolic", "sparse")
        )
        assert symbolic.report == sparse.report
        assert symbolic.outputs == sparse.outputs


class TestAnnounceScheduleSchemas:
    def test_column_window_count_must_match_columns(self):
        with pytest.raises(ValueError, match="2 column windows for 1 columns"):
            MinPlusSchema(
                label="x",
                tag="",
                keys=None,
                initial=lambda node: [0],
                finalize=lambda node, row: {},
                arrival_gated=True,
                round_budget=3,
                column_windows=((1, 2), (2, 3)),  # one column, two windows
            )

    @pytest.mark.parametrize(
        "field", ["value_cap", "column_windows", "weight_memory_key", "column_rounding"]
    )
    def test_gated_fields_require_arrival_gating(self, field):
        fields = {
            "value_cap": {"value_cap": 10},
            "column_windows": {"column_windows": ((1, 2),)},
            "weight_memory_key": {"weight_memory_key": "override_weights"},
            # The rounding comes with each column's level.
            "column_rounding": {"column_rounding": (3, 0.5), "column_groups": (0,)},
        }[field]
        with pytest.raises(ValueError, match=f"MinPlusSchema.{field} "):
            MinPlusSchema(
                label="x",
                tag="",
                keys=None,
                initial=lambda node: [0],
                finalize=lambda node, row: {},
                **fields,
            )
        gated = MinPlusSchema(
            label="x",
            tag="",
            keys=None,
            initial=lambda node: [0],
            finalize=lambda node, row: {},
            arrival_gated=True,
            **fields,
        )
        for name, value in fields.items():
            assert getattr(gated, name) == value

    def test_schedule_that_never_fires_hits_the_round_limit_on_every_engine(self):
        """An entry whose window opens after the round limit never fires;
        the failure mode must match the engines that run the node program."""
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
            # A forced preference, not engine=: dense declines gated runs and
            # hands them to sparse.
            with force_engine(engine), pytest.raises(RoundLimitExceeded) as excinfo:
                Simulator(network, max_rounds=9).run(_NeverAnnounce())
            messages[engine] = str(excinfo.value)
        assert len(set(messages.values())) == 1, messages

    def test_flattened_keys_splat_into_payloads(self):
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


# --------------------------------------------------------------------------- #
# Gated shapes: symbolic runs the ones its closed form covers bit-identically
# to the node program, declines the rest (or, for quiescence halting, hands
# the run over) and the sparse engine runs the node program instead.
# --------------------------------------------------------------------------- #
class _GatedFlood(NodeAlgorithm):
    """One arrival-gated min-plus column, executed as a node program."""

    name = "gated-flood"

    def __init__(
        self,
        initial,
        send_initial="finite",
        add_edge_weight=True,
        budget=12,
        window=None,
        cap=None,
    ):
        self._initial = initial
        self._send_initial = send_initial
        self._add_edge_weight = add_edge_weight
        self._budget = budget
        self._window = window
        self._cap = cap

    def message_schema(self):
        initial = self._initial
        return MinPlusSchema(
            label="g",
            tag="gated",
            keys=None,
            initial=lambda node: [initial.get(node, float("inf"))],
            finalize=lambda node, row: {"value": row[0]},
            send_initial=self._send_initial,
            add_edge_weight=self._add_edge_weight,
            round_budget=self._budget,
            arrival_gated=True,
            value_cap=self._cap,
            column_windows=None if self._window is None else (self._window,),
        )

    def initialize(self, ctx):
        value = self._initial.get(ctx.node, float("inf"))
        ctx.memory["value"] = value
        ctx.memory["announced"] = False
        finite = value != float("inf")
        if self._send_initial == "all" or (self._send_initial == "finite" and finite):
            ctx.broadcast(("g", value), tag="gated")
            ctx.memory["announced"] = finite

    def receive(self, ctx, round_number, messages):
        memory = ctx.memory
        first, last = self._window or (0, round_number)
        if first < round_number <= last:
            for message in messages:
                candidate = message.payload[1]
                if self._add_edge_weight:
                    candidate += ctx.edge_weight(message.sender)
                if self._cap is not None and candidate > self._cap:
                    continue
                if candidate < memory["value"]:
                    memory["value"] = candidate
        if round_number >= self._budget:
            ctx.halt()
            return
        if (
            not memory["announced"]
            and memory["value"] != float("inf")
            and memory["value"] <= round_number - first
            and round_number <= last
        ):
            ctx.broadcast(("g", memory["value"]), tag="gated")
            memory["announced"] = True

    def output(self, ctx):
        return ctx.memory["value"]


class TestGatedShapes:
    @pytest.mark.parametrize(
        "shape",
        [
            {},
            # The window closes (round 8) before the cap: entries past
            # value 5 are relaxed but their broadcasts arrive too late.
            {"send_initial": "none", "initial_value": 1, "window": (2, 8), "cap": 20},
            # The budget halts the run (round 10) inside the window.
            {"send_initial": "none", "initial_value": 1, "window": (2, 30), "budget": 10},
        ],
        ids=["plain", "window-closes-before-cap", "budget-cuts-window"],
    )
    @pytest.mark.parametrize("graph", ["unit-path", "random"])
    def test_covered_shape_runs_natively(self, network, graph, shape):
        """The node program mirrors its schema where symbolic runs."""
        if graph == "unit-path":
            network = Network(path_graph(12))
        shape = dict(shape)
        initial = {min(network.nodes): shape.pop("initial_value", 0)}
        algorithm = _GatedFlood(initial, **shape)
        assert get_engine("symbolic").prepare(network, algorithm) is not None
        symbolic, sparse = (
            Simulator(network).run(algorithm, engine=engine)
            for engine in ("symbolic", "sparse")
        )
        assert symbolic.report == sparse.report
        assert symbolic.outputs == sparse.outputs

    @pytest.mark.parametrize(
        "shape",
        [
            {"add_edge_weight": False},
            # A finite initial entry announced in initialize (round 0) ahead
            # of its gate round base + value = 3.
            {"initial_value": 3},
            # Gated, a 0 at base 0 waits for round 1, one past base + value.
            {"send_initial": "none"},
            {"send_initial": "all"},
        ],
        ids=[
            "add-edge-weight-off",
            "initial-fires-early",
            "initial-fires-late",
            "send-initial-all",
        ],
    )
    def test_declined_shape_runs_on_sparse(self, network, shape):
        shape = dict(shape)
        initial = {min(network.nodes): shape.pop("initial_value", 0)}
        algorithm = _GatedFlood(initial, **shape)
        assert get_engine("symbolic").prepare(network, algorithm) is None
        with force_engine("symbolic"):
            forced = Simulator(network).run(algorithm)
        sparse = Simulator(network).run(algorithm, engine="sparse")
        assert forced.report == sparse.report
        assert forced.outputs == sparse.outputs

    def test_round_limit_before_the_budget_matches_sparse(self, network):
        from repro.congest.simulator import RoundLimitExceeded

        algorithm = _GatedFlood({min(network.nodes): 0}, budget=50)
        assert get_engine("symbolic").prepare(network, algorithm) is not None
        messages = {}
        for engine in ("symbolic", "sparse"):
            with pytest.raises(RoundLimitExceeded) as excinfo:
                Simulator(network, max_rounds=9).run(algorithm, engine=engine)
            messages[engine] = str(excinfo.value)
        assert messages["symbolic"] == messages["sparse"]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"column_rounding": (3, 0.5)}, "come together"),
            ({"column_groups": (0,)}, "come together"),
            ({"column_rounding": (0, 0.5), "column_groups": (0,)}, r"\(0, 0.5\) needs"),
            ({"column_rounding": (3, 0.0), "column_groups": (0,)}, r"\(3, 0.0\) needs"),
            ({"column_rounding": (3, 0.5), "column_groups": (-1,)}, r"levels \(-1,\)"),
            ({"column_rounding": (3, 0.5), "column_groups": ("a",)}, r"levels \('a',\)"),
            ({"column_rounding": (3, 0.5), "column_groups": (True,)}, r"levels \(True,\)"),
        ],
        ids=[
            "rounding-without-levels",
            "levels-without-rounding",
            "zero-hop-bound",
            "zero-epsilon",
            "negative-level",
            "label-level",
            "bool-level",
        ],
    )
    def test_malformed_column_rounding_raises(self, fields, message):
        """Rounded weights are integers >= 1 by construction, so what can
        go wrong is the declaration: rounding without each column's level
        (or levels without rounding), parameters the Lemma 3.2 rounding
        rejects, or a level that is no non-negative int."""
        with pytest.raises(ValueError, match=message):
            MinPlusSchema(
                label="x",
                tag="",
                keys=None,
                initial=lambda node: [0],
                finalize=lambda node, row: {},
                arrival_gated=True,
                **fields,
            )

    @pytest.mark.parametrize(
        "algorithm",
        [
            BoundedDistanceSsspAlgorithm(0, 30),
            # Window L + 1 = 4 rounds per level with delays 0 and 7: the
            # staggered windows leave idle gaps a quiescence halt stops in.
            MultiSourceBoundedHopAlgorithm([0, 5], 1, 1.0, 2, [0, 7]),
        ],
        ids=["algorithm-2", "algorithm-3"],
    )
    def test_gated_quiescence_identical_on_every_engine(self, network, algorithm):
        results = {}
        for engine in ENGINES:
            with force_engine(engine):
                results[engine] = Simulator(network).run(
                    algorithm, halt_on_quiescence=True
                )
        reference = results.pop("sparse")
        for engine, result in results.items():
            assert result.report == reference.report, engine
            assert result.outputs == reference.outputs, engine
