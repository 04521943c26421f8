"""Tests for backend registration, selection and the env-var override."""

from __future__ import annotations

import re

import pytest

from repro.kernels import (
    BACKEND_ENV_VAR,
    KernelBackend,
    available_backends,
    dijkstra_csr,
    force_backend,
    get_backend,
)
from repro.runtime import configure

pytestmark = pytest.mark.kernels


class TestSelection:
    def test_python_backend_always_registered(self):
        assert "python" in available_backends()
        # The pure-Python tier is the base class itself, holding every
        # reference the accelerated backends override.
        assert type(get_backend("python")) is KernelBackend

    def test_auto_prefers_fastest_available(self):
        # Explicit "auto" resolves the same way regardless of REPRO_BACKEND.
        auto = get_backend("auto")
        if "scipy" in available_backends():
            assert auto.name == "scipy"
        else:
            assert auto.name == "python"

    def test_explicit_name_wins(self):
        assert get_backend("python").name == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("fortran")

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert get_backend().name == "python"
        monkeypatch.setenv(BACKEND_ENV_VAR, "auto")
        assert get_backend().name == get_backend(None).name

    def test_env_var_bogus_value(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "cuda")
        with pytest.raises(ValueError):
            get_backend()

    def test_removed_numpy_tier_fails_loudly(self, monkeypatch):
        # A name that no longer registers must fail loudly on every entry
        # point, never resolve to another tier.
        registered = re.escape(str(available_backends()))
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        with pytest.raises(ValueError, match=registered):
            get_backend()
        with pytest.raises(ValueError, match=registered):
            force_backend("numpy").__enter__()
        with pytest.raises(ValueError, match=registered):
            configure(backend="numpy").__enter__()

    def test_force_backend_scopes_and_restores(self):
        default = get_backend().name
        with force_backend("python") as backend:
            assert backend.name == "python"
            assert get_backend().name == "python"
        assert get_backend().name == default

    def test_force_backend_beats_env(self, monkeypatch):
        if "scipy" not in available_backends():
            pytest.skip("needs a second backend")
        monkeypatch.setenv(BACKEND_ENV_VAR, "scipy")
        with force_backend("python"):
            assert get_backend().name == "python"

    def test_explicit_argument_beats_force(self, triangle_graph):
        if "scipy" not in available_backends():
            pytest.skip("needs a second backend")
        with force_backend("python"):
            assert get_backend("scipy").name == "scipy"
            # Kernel calls accept the explicit override too.
            distances = dijkstra_csr(triangle_graph, 0, backend="scipy")
            assert distances == {0: 0, 1: 3, 2: 7}


class TestRegistration:
    def test_future_backend_slots_in(self):
        from repro.kernels import backend as backend_module

        class _Stub(KernelBackend):
            name = "stub"

            def sssp(self, csr, source):  # pragma: no cover - never called
                raise NotImplementedError

        backend_module.register_backend(_Stub())
        try:
            assert "stub" in available_backends()
            assert get_backend("stub").name == "stub"
        finally:
            del backend_module._REGISTRY["stub"]
        assert "stub" not in available_backends()
