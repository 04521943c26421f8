"""Regression tests: invalid selections fail with the registry menu.

The contract: an unknown engine, backend or protocol must raise
``ValueError`` naming the registered options -- never a bare ``KeyError`` or
an unexplained fallback -- whether it arrives via ``Simulator.run(engine=...)``,
an environment variable, or the service layer's ``RunSpec``.
"""

from __future__ import annotations

import pytest

from repro.congest import Network, Simulator
from repro.congest.sssp import _BellmanFordAlgorithm
from repro.graphs import path_graph
from repro.service import GraphSpec, RunSpec, SimulationService

pytestmark = pytest.mark.service


def run_spec(**overrides) -> RunSpec:
    fields = dict(
        protocol="bellman-ford-sssp",
        graph=GraphSpec(generator="path", params={"num_nodes": 5}),
        params={"source": 0},
    )
    fields.update(overrides)
    return RunSpec(**fields)


class TestSimulatorEngineErrors:
    def test_unknown_engine_names_registry(self):
        simulator = Simulator(Network(path_graph(4)))
        with pytest.raises(ValueError) as excinfo:
            simulator.run(_BellmanFordAlgorithm([0]), engine="nope")
        message = str(excinfo.value)
        assert "nope" in message
        assert "sparse" in message and "symbolic" in message

    def test_env_engine_bogus_names_registry(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        simulator = Simulator(Network(path_graph(4)))
        with pytest.raises(ValueError, match="bogus"):
            simulator.run(_BellmanFordAlgorithm([0]), halt_on_quiescence=True)


class TestBackendErrors:
    def test_kernel_backend_names_registry(self):
        from repro.kernels.backend import get_backend

        with pytest.raises(ValueError) as excinfo:
            get_backend("nope")
        assert "nope" in str(excinfo.value) and "python" in str(excinfo.value)


class TestServiceValidationErrors:
    def test_submit_rejects_unknown_engine_synchronously(self):
        service = SimulationService(max_workers=1)
        with pytest.raises(ValueError) as excinfo:
            service.submit(run_spec(engine="nope"))
        message = str(excinfo.value)
        assert "nope" in message and "sparse" in message
        service.close()

    def test_submit_rejects_unknown_protocol_synchronously(self):
        service = SimulationService(max_workers=1)
        with pytest.raises(ValueError) as excinfo:
            service.submit(run_spec(protocol="frisbee"))
        message = str(excinfo.value)
        assert "frisbee" in message and "bellman-ford-sssp" in message
        service.close()

    def test_submit_rejects_unknown_generator_synchronously(self):
        service = SimulationService(max_workers=1)
        with pytest.raises(ValueError) as excinfo:
            service.submit(run_spec(graph=GraphSpec(generator="moebius")))
        message = str(excinfo.value)
        assert "moebius" in message and "yao_spanner" in message
        service.close()

    def test_submit_rejects_non_spec(self):
        service = SimulationService(max_workers=1)
        with pytest.raises(TypeError, match="RunSpec"):
            service.submit({"protocol": "bellman-ford-sssp"})
        service.close()

    def test_unknown_job_id_names_known_jobs(self):
        service = SimulationService(max_workers=1)
        with pytest.raises(KeyError, match="unknown job id"):
            service.poll("job-999")
        service.close()
