"""Tests for repro.runtime: the unified configure() entry point."""

from __future__ import annotations

import os

import pytest

from repro.runtime import configure

pytestmark = pytest.mark.service


class TestRunConfigValidation:
    """``configure`` validates its knobs when called, before any is applied."""

    def test_default_is_all_none(self):
        from repro.congest.engine import base as engine_base
        from repro.kernels.backend import get_backend

        backend = get_backend().name
        with configure():
            assert engine_base._FORCED is None
            assert get_backend().name == backend

    def test_unknown_engine_names_registry(self):
        from repro.congest import available_engines

        # "legacy" names the removed seed loop: it must fail like any typo.
        for name in ("warp", "legacy"):
            with pytest.raises(ValueError) as excinfo:
                configure(engine=name)
            message = str(excinfo.value)
            assert repr(name) in message
            assert f"available: {available_engines()}" in message

    def test_unknown_backend_names_registry(self):
        with pytest.raises(ValueError) as excinfo:
            configure(backend="tpu")
        message = str(excinfo.value)
        assert "tpu" in message and "python" in message

    def test_apply_validates_eagerly(self):
        from repro.congest.engine import base as engine_base

        with pytest.raises(ValueError, match="warp"):
            with configure(engine="sparse", backend="warp"):
                raise AssertionError("the body must not run")
        assert engine_base._FORCED is None
        with pytest.raises(ValueError, match="unknown execution engine 'legacy'"):
            with configure(engine="legacy"):
                raise AssertionError("the body must not run")


class TestConfigureComposition:
    def test_engine_knob_forces_selection(self):
        from repro.congest.engine import base as engine_base

        assert engine_base._FORCED is None
        with configure(engine="symbolic"):
            assert engine_base._FORCED == "symbolic"
        assert engine_base._FORCED is None

    def test_backend_knob_forces_the_kernel_registry(self):
        from repro.kernels.backend import get_backend

        with configure(backend="python"):
            assert get_backend().name == "python"

    def test_restores_preexisting_env_value(self, monkeypatch):
        from repro.congest import Network
        from repro.congest.engine.base import resolve_engine
        from repro.graphs import path_graph
        from repro.nanongkai.bounded_distance_sssp import (
            BoundedDistanceSsspAlgorithm,
        )

        network = Network(path_graph(4))
        # A gated schema: symbolic runs it, and so would ``auto``, so only
        # the environment's pin makes it resolve to sparse.
        algorithm = BoundedDistanceSsspAlgorithm(0, 10)
        monkeypatch.setenv("REPRO_ENGINE", "sparse")
        with configure(engine="symbolic"):
            # The forced engine wins over the environment while applied ...
            assert resolve_engine(None, network, algorithm).name == "symbolic"
        # ... and the environment selection is untouched afterwards.
        assert os.environ["REPRO_ENGINE"] == "sparse"
        assert resolve_engine(None, network, algorithm).name == "sparse"

    def test_restores_after_body_raises(self):
        from repro.congest.engine import base as engine_base

        with pytest.raises(RuntimeError):
            with configure(engine="sparse"):
                raise RuntimeError("boom")
        assert engine_base._FORCED is None

    def test_end_to_end_run_under_configure(self):
        from repro.congest import Network, Simulator
        from repro.congest.sssp import _BellmanFordAlgorithm
        from repro.graphs import path_graph

        with configure(engine="sparse", backend="python"):
            result = Simulator(Network(path_graph(6))).run(
                _BellmanFordAlgorithm([0]), halt_on_quiescence=True
            )
        assert result.report.rounds == 6
