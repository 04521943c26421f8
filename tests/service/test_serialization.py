"""Bit-identical JSON round-trips for results and round reports."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.engine.types import (
    RoundReport,
    SimulationResult,
    decode_result_value,
    encode_result_value,
)

pytestmark = pytest.mark.service


def roundtrip(value):
    """Encode, push through real JSON text, decode."""
    return decode_result_value(json.loads(json.dumps(encode_result_value(value))))


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            2**80,
            "text",
            "",
            1.5,
            -0.0,
            [1, 2, 3],
            (1, 2, 3),
            {"a": 1, "b": [2, (3, 4)]},
            {1: "x", 2: "y"},
            {(0, 1): 5},
            {"nested": {10: {"deep": (1.25, float("inf"))}}},
            frozenset({3, 1, 2}),
            set(),
        ],
    )
    def test_roundtrip_identity(self, value):
        result = roundtrip(value)
        assert result == value
        assert type(result) is type(value)

    def test_float_bits_preserved(self):
        for value in [0.1, 1e-308, 1e308, math.pi, float("inf"), float("-inf"), -0.0]:
            back = roundtrip(value)
            assert math.copysign(1.0, back) == math.copysign(1.0, value)
            if math.isfinite(value):
                assert back.hex() == value.hex()
            else:
                assert back == value

    def test_nan_roundtrips(self):
        back = roundtrip(float("nan"))
        assert isinstance(back, float) and math.isnan(back)

    def test_int_stays_int_float_stays_float(self):
        assert type(roundtrip(3)) is int
        assert type(roundtrip(3.0)) is float

    def test_dict_key_types_preserved(self):
        back = roundtrip({1: "a", "1": "b"})
        assert back == {1: "a", "1": "b"}
        assert {type(k) for k in back} == {int, str}

    def test_dict_order_preserved(self):
        back = roundtrip({"z": 1, "a": 2})
        assert list(back) == ["z", "a"]

    def test_tuple_vs_list_distinguished(self):
        assert type(roundtrip((1, [2], (3,)))[1]) is list
        assert type(roundtrip((1, [2], (3,)))[2]) is tuple

    def test_unserializable_names_path(self):
        with pytest.raises(TypeError, match=r"\$\.outputs\[1\]"):
            encode_result_value([1, object()], path="$.outputs")


def assert_identical(back, value):
    """``back`` equals ``value`` with the same type at every level, the same
    dict key order and the same float bits (``nan`` matches ``nan``)."""
    assert type(back) is type(value), (back, value)
    if isinstance(value, float):
        assert math.isnan(back) if math.isnan(value) else back.hex() == value.hex()
    elif isinstance(value, (list, tuple)):
        assert len(back) == len(value)
        for got, want in zip(back, value):
            assert_identical(got, want)
    elif isinstance(value, dict):
        assert len(back) == len(value)
        for (got_key, got), (want_key, want) in zip(back.items(), value.items()):
            assert_identical(got_key, want_key)
            assert_identical(got, want)
    else:
        assert back == value


_ints = st.integers(min_value=-(2**80), max_value=2**80)
_keys = st.one_of(_ints, st.text(max_size=4), st.tuples(_ints, st.text(max_size=2)))
_values = st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, st.floats(), st.text(max_size=6)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_keys, children, max_size=5),
    ),
    max_leaves=30,
)


class TestColumnarCodec:
    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_generated_values_roundtrip_through_json_text(self, value):
        back = roundtrip(value)
        assert_identical(back, value)
        assert repr(back) == repr(value)

    def test_dict_encodes_as_key_and_value_columns(self):
        assert encode_result_value({1: 2.5, 3: -0.0}) == {
            "__repro__": "dict",
            "k": [1, 3],
            "v": [2.5, -0.0],
        }
        assert encode_result_value(float("inf")) == {"__repro__": "float", "v": "inf"}

    def test_empty_dict(self):
        assert encode_result_value({}) == {"__repro__": "dict", "k": [], "v": []}
        assert_identical(roundtrip({}), {})

    def test_atoms_then_a_container_in_one_column(self):
        value = {0: 1, 1: "a", 2: None, 3: 2.5, 4: float("-inf"), 5: [1, (2, {6: 7})]}
        assert_identical(roundtrip(value), value)

    def test_true_and_one_in_one_column(self):
        for value in ([True, 1, False, 0], {1: True, 2: 1}, (1, True)):
            assert_identical(roundtrip(value), value)

    def test_mismatched_key_and_value_columns_raise(self):
        with pytest.raises(ValueError):
            decode_result_value({"__repro__": "dict", "k": [1, 2], "v": [1]})
        with pytest.raises(ValueError):
            decode_result_value({"__repro__": "dict", "k": [1], "v": [[1], [2]]})

    def test_decoding_twice_shares_no_containers(self):
        payload = encode_result_value({0: [1, 2], 1: {2: 3}})
        first = decode_result_value(payload)
        first[0].append(9)
        first[1][5] = 6
        assert decode_result_value(payload) == {0: [1, 2], 1: {2: 3}}

    def test_unserializable_key_and_nested_value_name_their_path(self):
        with pytest.raises(TypeError, match=r"at \$\[1\]\[\(2, 3\)\]\[0\]:"):
            encode_result_value({1: {(2, 3): [object()]}})
        with pytest.raises(TypeError, match=r"at \$\[1\]\.key:"):
            encode_result_value({1: {object(): 1}})


class TestRoundReportJson:
    def test_roundtrip(self):
        report = RoundReport(
            rounds=7,
            congested_rounds=3,
            total_messages=41,
            total_bits=902,
            max_message_bits=23,
            protocol="bellman-ford",
        )
        assert RoundReport.from_json(report.to_json()) == report

    def test_roundtrip_through_text(self):
        report = RoundReport(1, 2, 3, 4, 5, "p")
        assert RoundReport.from_json(json.loads(json.dumps(report.to_json()))) == report

    def test_rejects_bad_fields(self):
        payload = RoundReport(1, 2, 3, 4, 5, "p").to_json()
        payload["rounds"] = "seven"
        with pytest.raises(ValueError, match="rounds"):
            RoundReport.from_json(payload)


class TestSimulationResultJson:
    def test_roundtrip_equality(self):
        result = SimulationResult(
            outputs={0: {"dist": 0, "parent": None}, 1: {"dist": 2.5, "parent": 0}},
            report=RoundReport(5, 1, 9, 200, 23, "test"),
            contexts={},
        )
        back = SimulationResult.from_json(json.loads(json.dumps(result.to_json())))
        assert back == result

    def test_inf_outputs_roundtrip(self):
        result = SimulationResult(
            outputs={0: float("inf"), 1: (3, float("-inf"))},
            report=RoundReport(1, 0, 0, 0, 0, "inf-test"),
            contexts={},
        )
        back = SimulationResult.from_json(result.to_json())
        assert back.outputs[0] == float("inf")
        assert back.outputs[1] == (3, float("-inf"))

    def test_contexts_not_serialized(self):
        result = SimulationResult(
            outputs={0: 1},
            report=RoundReport(1, 0, 0, 0, 0, "ctx"),
            contexts={0: object()},
        )
        payload = result.to_json()
        assert "contexts" not in payload
        assert SimulationResult.from_json(payload).contexts == {}

    def test_from_json_validates_shape(self):
        with pytest.raises(ValueError):
            SimulationResult.from_json({"outputs": {}})


class TestLiveRunRoundtrip:
    def test_simulator_result_roundtrips(self):
        from repro.congest import Network, Simulator
        from repro.congest.sssp import _BellmanFordAlgorithm
        from repro.graphs import random_weighted_graph

        network = Network(random_weighted_graph(12, 0.5, max_weight=9, seed=3))
        result = Simulator(network).run(
            _BellmanFordAlgorithm([0]), halt_on_quiescence=True
        )
        stripped = SimulationResult(
            outputs=result.outputs, report=result.report, contexts={}
        )
        back = SimulationResult.from_json(json.loads(json.dumps(result.to_json())))
        assert back == stripped
        assert back.report == result.report
