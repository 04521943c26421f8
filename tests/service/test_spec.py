"""Tests for RunSpec / GraphSpec: canonical serialization and validation."""

from __future__ import annotations

import json

import pytest

from repro.service import GraphSpec, RunSpec, available_generators
from repro.service.spec import _freeze_json


def path_spec(**overrides) -> RunSpec:
    fields = dict(
        protocol="bellman-ford-sssp",
        graph=GraphSpec(generator="path", params={"num_nodes": 6}),
        params={"source": 0},
    )
    fields.update(overrides)
    return RunSpec(**fields)


pytestmark = pytest.mark.service


class TestGraphSpec:
    def test_generator_xor_edges(self):
        with pytest.raises(ValueError, match="exactly one"):
            GraphSpec()
        with pytest.raises(ValueError, match="exactly one"):
            GraphSpec(generator="path", edges=((0, 1, 1),))

    def test_generator_build_matches_direct_call(self):
        from repro.graphs import yao_spanner_graph

        spec = GraphSpec(generator="yao_spanner", params={"num_nodes": 20, "seed": 7})
        assert spec.build() == yao_spanner_graph(num_nodes=20, seed=7)

    def test_inline_edges_build(self):
        spec = GraphSpec(edges=((0, 1, 5), (1, 2, 3)), nodes=(9,))
        graph = spec.build()
        assert graph.num_edges == 2
        assert 9 in graph

    def test_roundtrip(self):
        for spec in [
            GraphSpec(generator="cycle", params={"num_nodes": 5}),
            GraphSpec(edges=((0, 1, 2),), nodes=(4,)),
        ]:
            assert GraphSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec

    def test_unknown_generator_names_registry(self):
        with pytest.raises(ValueError) as excinfo:
            GraphSpec(generator="petersen").validate()
        message = str(excinfo.value)
        assert "petersen" in message
        for name in available_generators():
            assert name in message

    def test_bad_generator_params_is_value_error(self):
        with pytest.raises(ValueError, match="rejected parameters"):
            GraphSpec(generator="path", params={"n": 8}).build()

    def test_params_frozen(self):
        spec = GraphSpec(generator="path", params={"num_nodes": 4})
        with pytest.raises(TypeError):
            spec.params["num_nodes"] = 5


class TestFreezeJson:
    def test_tuples_become_lists(self):
        assert _freeze_json({"a": (1, 2)}, "$") == {"a": [1, 2]}

    def test_rejects_non_string_keys(self):
        with pytest.raises(ValueError, match="keys must be strings"):
            _freeze_json({1: "x"}, "$")

    def test_rejects_unserializable_with_path(self):
        with pytest.raises(ValueError, match=r"\$\.a\[0\]"):
            _freeze_json({"a": [object()]}, "$")


class TestRunSpecSerialization:
    def test_roundtrip_exact(self):
        spec = path_spec(
            engine="dense",
            backend="python",
            max_rounds=99,
            halt_on_quiescence=True,
            bandwidth_words=3,
            strict_bandwidth=True,
        )
        assert RunSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec

    def test_canonical_json_stable_under_param_order(self):
        a = RunSpec(
            protocol="multi-source-sssp",
            graph=GraphSpec(generator="grid", params={"rows": 3, "cols": 4}),
            params={"sources": [0, 5], "max_hops": 9},
        )
        b = RunSpec(
            protocol="multi-source-sssp",
            graph=GraphSpec(generator="grid", params={"cols": 4, "rows": 3}),
            params={"max_hops": 9, "sources": [0, 5]},
        )
        assert a.canonical_json() == b.canonical_json()
        assert hash(a) == hash(b)
        assert a == b

    def test_canonical_json_is_compact_sorted(self):
        text = path_spec().canonical_json()
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))

    # Besides a made-up field, the two execution knobs older specs carried
    # (always serialized, ``null`` unless set): such payloads must fail
    # loudly, not silently run on sparse.
    @pytest.mark.parametrize("field", ["turbo", "shards", "workers"])
    def test_from_json_rejects_unknown_fields(self, field):
        payload = path_spec().to_json()
        payload[field] = None
        with pytest.raises(ValueError, match=f"unknown fields \\['{field}'\\]"):
            RunSpec.from_json(payload)

    def test_from_json_requires_protocol_and_graph(self):
        with pytest.raises(ValueError, match="'protocol' and 'graph'"):
            RunSpec.from_json({"params": {}})

    def test_with_engine_replaces_only_engine(self):
        spec = path_spec(engine="sparse")
        other = spec.with_engine("dense")
        assert other.engine == "dense"
        assert other.graph == spec.graph
        assert spec.engine == "sparse"


class TestRunSpecValidation:
    def test_valid_spec_passes(self):
        assert path_spec(engine="sparse", backend="python").validate() is not None

    def test_unknown_protocol_names_registry(self):
        from repro.service import available_protocols

        with pytest.raises(ValueError) as excinfo:
            path_spec(protocol="quantum-gossip").validate()
        message = str(excinfo.value)
        assert "quantum-gossip" in message
        for name in available_protocols():
            assert name in message

    def test_unknown_engine_names_registry(self):
        from repro.congest import available_engines

        # "legacy" names the removed seed loop: it must fail like any typo.
        for name in ("nope", "legacy"):
            with pytest.raises(ValueError) as excinfo:
                path_spec(engine=name).validate()
            message = str(excinfo.value)
            assert repr(name) in message
            assert f"available: {available_engines()}" in message

    def test_unknown_backend_names_registry(self):
        with pytest.raises(ValueError) as excinfo:
            path_spec(backend="cuda").validate()
        message = str(excinfo.value)
        assert "cuda" in message
        assert "python" in message  # always-registered fallback backend

    @pytest.mark.parametrize("field", ["max_rounds"])
    @pytest.mark.parametrize("bad", [0, -3, 1.5, "two", True])
    def test_counts_must_be_positive_ints(self, field, bad):
        with pytest.raises(ValueError, match=field):
            path_spec(**{field: bad})

    def test_graph_must_be_graph_spec(self):
        with pytest.raises(ValueError, match="GraphSpec"):
            path_spec(graph={"generator": "path"})

    def test_congest_config_flows_through(self):
        spec = path_spec(bandwidth_words=4, word_bits=10, strict_bandwidth=True)
        config = spec.congest_config()
        assert config.bandwidth_words == 4
        assert config.strict_bandwidth is True
        network = spec.build_network()
        assert network.graph.num_nodes == 6
