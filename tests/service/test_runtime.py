"""Tests for repro.runtime: the unified configure() entry point."""

from __future__ import annotations

import os
import threading

import pytest

from repro.runtime import configure

pytestmark = pytest.mark.service


def _resolved_engine() -> str:
    """The engine a gated run resolves to under the current pins.

    ``symbolic`` runs the gated schema, and so would ``auto``; only a pin or
    the environment makes it resolve to ``sparse``.
    """
    from repro.congest import Network
    from repro.congest.engine.base import resolve_engine
    from repro.graphs import path_graph
    from repro.nanongkai.bounded_distance_sssp import BoundedDistanceSsspAlgorithm

    return resolve_engine(None, Network(path_graph(4)), BoundedDistanceSsspAlgorithm(0, 10)).name


@pytest.fixture
def env_sparse(monkeypatch):
    """Select ``sparse`` through the environment, so an unpinned gated run
    resolves to ``sparse`` and a ``symbolic`` pin shows."""
    monkeypatch.setenv("REPRO_ENGINE", "sparse")


class TestRunConfigValidation:
    """``configure`` validates its knobs when called, before any is applied."""

    def test_default_is_all_none(self, env_sparse):
        from repro.kernels.backend import get_backend

        backend = get_backend().name
        with configure():
            assert _resolved_engine() == "sparse"
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

    def test_apply_validates_eagerly(self, env_sparse):
        with pytest.raises(ValueError, match="warp"):
            with configure(engine="symbolic", backend="warp"):
                raise AssertionError("the body must not run")
        assert _resolved_engine() == "sparse"
        with pytest.raises(ValueError, match="unknown execution engine 'legacy'"):
            with configure(engine="legacy"):
                raise AssertionError("the body must not run")


class TestConfigureComposition:
    def test_engine_knob_forces_selection(self, env_sparse):
        assert _resolved_engine() == "sparse"
        with configure(engine="symbolic"):
            assert _resolved_engine() == "symbolic"
        assert _resolved_engine() == "sparse"

    def test_backend_knob_forces_the_kernel_registry(self):
        from repro.kernels.backend import get_backend

        with configure(backend="python"):
            assert get_backend().name == "python"

    def test_restores_preexisting_env_value(self, env_sparse):
        with configure(engine="symbolic"):
            # The forced engine wins over the environment while applied ...
            assert _resolved_engine() == "symbolic"
        # ... and the environment selection is untouched afterwards.
        assert os.environ["REPRO_ENGINE"] == "sparse"
        assert _resolved_engine() == "sparse"

    def test_restores_after_body_raises(self, env_sparse):
        with pytest.raises(RuntimeError):
            with configure(engine="symbolic"):
                raise RuntimeError("boom")
        assert _resolved_engine() == "sparse"

    def test_end_to_end_run_under_configure(self):
        from repro.congest import Network, Simulator
        from repro.congest.sssp import _BellmanFordAlgorithm
        from repro.graphs import path_graph

        with configure(engine="sparse", backend="python"):
            result = Simulator(Network(path_graph(6))).run(
                _BellmanFordAlgorithm([0]), halt_on_quiescence=True
            )
        assert result.report.rounds == 6


def _read_beside_a_pin(pin, read):
    """``read()`` in a thread holding ``pin``, then in this thread while
    that thread still holds it: ``(pinned reading, other thread's reading)``."""
    pinned = threading.Event()
    released = threading.Event()
    seen = {}

    def holder():
        with pin:
            seen["pinned"] = read()
            pinned.set()
            released.wait(timeout=60)

    thread = threading.Thread(target=holder)
    thread.start()
    try:
        assert pinned.wait(timeout=60)
        other = read()
    finally:
        released.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    return seen["pinned"], other


class TestContextLocalPins:
    """A pin holds in the thread that set it, never in another thread."""

    def test_force_engine_does_not_reach_another_thread(self, monkeypatch):
        from repro.congest.engine.base import force_engine

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        pinned, other = _read_beside_a_pin(force_engine("sparse"), _resolved_engine)
        assert (pinned, other) == ("sparse", "symbolic")

    def test_force_backend_does_not_reach_another_thread(self, monkeypatch):
        from repro.kernels import backend as kernel_backend

        class PinnedBackend(kernel_backend.KernelBackend):
            name = "pinned"

        # A backend of its own, so the pin shows on the NumPy-less tier too.
        monkeypatch.setitem(kernel_backend._REGISTRY, "pinned", PinnedBackend())
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        default = kernel_backend.get_backend().name
        pinned, other = _read_beside_a_pin(
            kernel_backend.force_backend("pinned"), lambda: kernel_backend.get_backend().name
        )
        assert (pinned, other) == ("pinned", default)

    def test_configure_does_not_reach_another_thread(self, env_sparse):
        pinned, other = _read_beside_a_pin(configure(engine="symbolic"), _resolved_engine)
        assert (pinned, other) == ("symbolic", "sparse")
