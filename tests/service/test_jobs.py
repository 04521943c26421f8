"""Tests for the SimulationService job lifecycle and metrics wiring."""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro.service import (
    GraphSpec,
    JobState,
    RunSpec,
    SimulationService,
    parse_exposition,
)

pytestmark = pytest.mark.service


def leader_spec(n: int = 7, **overrides) -> RunSpec:
    fields = dict(
        protocol="leader-election",
        graph=GraphSpec(generator="cycle", params={"num_nodes": n}),
    )
    fields.update(overrides)
    return RunSpec(**fields)


@pytest.fixture
def service():
    with SimulationService(max_workers=2) as svc:
        yield svc


class TestLifecycle:
    def test_submit_poll_result(self, service):
        handle = service.submit(leader_spec())
        result = handle.result(timeout=60)
        status = handle.poll()
        assert status.state is JobState.COMPLETED
        assert status.protocol == "leader-election"
        assert status.error is None
        assert status.queue_seconds is not None and status.queue_seconds >= 0
        assert status.run_seconds is not None and status.run_seconds >= 0
        assert result.outputs[0] == 0  # min-id flood elects node 0

    def test_result_is_idempotent(self, service):
        handle = service.submit(leader_spec())
        assert handle.result() == handle.result()

    def test_job_ids_are_sequential_and_distinct(self, service):
        a = service.submit(leader_spec())
        b = service.submit(leader_spec(n=9))
        assert a.job_id != b.job_id
        assert {s.job_id for s in service.jobs()} == {a.job_id, b.job_id}

    def test_failed_job_reraises_and_reports(self, service):
        handle = service.submit(
            leader_spec(params={"budget": 1}, max_rounds=1)
        )
        with pytest.raises(Exception):
            handle.result()
        status = handle.poll()
        assert status.state is JobState.FAILED
        assert status.error

    def test_closed_service_rejects_submissions(self):
        svc = SimulationService(max_workers=1)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(leader_spec())

    def test_bad_max_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            SimulationService(max_workers=0)


class TestRunBatch:
    def test_results_in_submission_order(self, service):
        specs = [leader_spec(n=n) for n in (5, 7, 9)]
        results = service.run_batch(specs)
        assert [len(r.outputs) for r in results] == [5, 7, 9]

    def test_batch_failure_propagates_after_settling(self, service):
        specs = [
            leader_spec(n=5),
            leader_spec(n=7, params={"budget": 1}, max_rounds=1),
            leader_spec(n=9),
        ]
        with pytest.raises(Exception):
            service.run_batch(specs)
        jobs = service.service_stats()["jobs"]
        assert jobs["failed"] == 1
        # The siblings still completed -- one bad spec doesn't orphan them.
        assert jobs["completed"] == 2

    def test_service_stats_counts_jobs(self, service):
        service.run_batch([leader_spec(n=5), leader_spec(n=5)])
        stats = service.service_stats()
        assert stats["jobs"]["total"] == 2
        assert stats["jobs"]["completed"] == 2
        assert stats["jobs"]["failed"] == 0
        assert stats["cache"]["stores"] >= 1


class TestJobRetention:
    """``run`` and ``run_batch`` hand out no job handle, so they drop each
    job's record once they have collected it (``submit``-ed jobs keep
    theirs: see ``test_result_is_idempotent``)."""

    def test_warm_runs_leave_no_records_and_keep_no_results(self):
        spec = RunSpec(
            protocol="weighted-apsp",
            graph=GraphSpec(generator="yao_spanner", params={"num_nodes": 256, "seed": 0}),
        )
        service = SimulationService(max_workers=1)
        try:
            service.run(spec)  # the miss
            for _ in range(100):
                result = service.run(spec)
            assert service.cache.stats.hits == 100
            assert service.jobs() == []
            jobs = service.service_stats()["jobs"]
            assert jobs == {"total": 101, "pending": 0, "running": 0, "completed": 101, "failed": 0}
        finally:
            service.close()  # joins the worker, so it holds no job either
        held = weakref.ref(result)
        del result
        gc.collect()
        assert held() is None

    def test_batch_records_go_after_collection(self, service):
        with pytest.raises(Exception):
            service.run_batch([leader_spec(n=5), leader_spec(params={"budget": 1}, max_rounds=1)])
        assert service.jobs() == []

    def test_an_invalid_batch_starts_no_job(self, service):
        # Every spec is validated before any is submitted, so a bad last
        # spec leaves no record of the good ones behind.
        with pytest.raises(ValueError, match="quantum-gossip"):
            service.run_batch(
                [leader_spec(n=5), leader_spec(n=7), leader_spec(protocol="quantum-gossip")]
            )
        assert service.jobs() == []
        assert service.service_stats()["jobs"]["total"] == 0


class TestMetricsWiring:
    def test_counters_before_and_after_batch(self, service):
        before = parse_exposition(service.render_prometheus())
        assert before["repro_service_jobs_submitted_total"] == 0
        assert before["repro_service_jobs_completed_total"] == 0

        spec = leader_spec()
        service.run(spec)  # miss
        service.run(spec)  # hit

        after = parse_exposition(service.render_prometheus())
        assert after["repro_service_jobs_submitted_total"] == 2
        assert after["repro_service_jobs_completed_total"] == 2
        assert after["repro_service_jobs_failed_total"] == 0
        assert after["repro_service_cache_misses_total"] == 1
        assert after["repro_service_cache_hits_total"] == 1

    def test_failed_counter(self, service):
        handle = service.submit(leader_spec(params={"budget": 1}, max_rounds=1))
        with pytest.raises(Exception):
            handle.result()
        samples = parse_exposition(service.render_prometheus())
        assert samples["repro_service_jobs_failed_total"] == 1
        assert samples["repro_service_jobs_completed_total"] == 0

    def test_run_latency_labelled_by_engine(self, service):
        service.run(leader_spec(engine="sparse"))
        service.run(leader_spec(n=9))  # engine=None -> "auto" label
        samples = parse_exposition(service.render_prometheus())
        assert samples['repro_service_run_latency_seconds_count{engine="sparse"}'] == 1
        assert samples['repro_service_run_latency_seconds_count{engine="auto"}'] == 1
        assert samples["repro_service_queue_latency_seconds_count"] == 2

    def test_cache_hits_skip_run_latency(self, service):
        spec = leader_spec()
        service.run(spec)
        service.run(spec)
        samples = parse_exposition(service.render_prometheus())
        assert samples['repro_service_run_latency_seconds_count{engine="auto"}'] == 1

    def test_shared_registry_across_services(self):
        from repro.service import MetricsRegistry

        registry = MetricsRegistry()
        with SimulationService(max_workers=1, metrics=registry) as a:
            a.run(leader_spec())
        with SimulationService(max_workers=1, metrics=registry) as b:
            b.run(leader_spec(n=9))
        samples = parse_exposition(registry.render_prometheus())
        assert samples["repro_service_jobs_submitted_total"] == 2


class TestContextFreeResults:
    def test_cold_and_warm_results_have_same_shape(self, service):
        spec = leader_spec()
        cold = service.run(spec)
        warm = service.run(spec)
        assert cold == warm
        assert cold.contexts == {} and warm.contexts == {}

    def test_a_miss_encodes_its_result_once(self, service, monkeypatch):
        from repro.congest.engine import types

        calls = []
        encode = types.encode_result_value

        def counting_encode(value, path="$"):
            calls.append(path)
            return encode(value, path)

        monkeypatch.setattr(types, "encode_result_value", counting_encode)
        cold = service.run(leader_spec())
        assert calls == ["$.outputs"]
        assert service.run(leader_spec()) == cold
        assert calls == ["$.outputs"]


def bfs_spec(n: int, **overrides) -> RunSpec:
    """A bfs-tree spec; sparse, dense and symbolic all run it, unforced
    ``auto`` picks symbolic."""
    return RunSpec(
        protocol="bfs-tree",
        graph=GraphSpec(generator="path", params={"num_nodes": n}),
        params={"root": 0},
        **overrides,
    )


class _Resolutions:
    """The ``(engine, backend)`` pairs each graph size's runs resolved to."""

    def __init__(self) -> None:
        self.seen = {}
        self.lock = threading.Lock()
        self.barrier = threading.Barrier(2, timeout=30)
        self.gated = 0

    def gate_next_two(self) -> None:
        """Make the next two resolutions wait for each other before they
        resolve and again after they are recorded, so both happen while two
        jobs hold their pins at once.  A service that ran one job at a time
        would break the barrier and fail the job."""
        self.gated = 2

    def take_gate(self) -> bool:
        with self.lock:
            gated = self.gated > 0
            self.gated -= gated
        return gated

    def record(self, run, network) -> None:
        from repro.kernels.backend import get_backend

        with self.lock:
            self.seen.setdefault(network.num_nodes, set()).add((run.name, get_backend().name))


@pytest.fixture
def resolutions(monkeypatch):
    from repro.congest import simulator

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    recorder = _Resolutions()
    resolve_engine = simulator.resolve_engine

    def recording_resolve(name, network, *args, **kwargs):
        gated = recorder.take_gate()
        if gated:
            recorder.barrier.wait()
        run = resolve_engine(name, network, *args, **kwargs)
        recorder.record(run, network)
        if gated:
            recorder.barrier.wait()
        return run

    monkeypatch.setattr(simulator, "resolve_engine", recording_resolve)
    return recorder


class TestContextLocalJobs:
    """Jobs run without a lock, each under its own spec's engine/backend pins
    and its submitter's, never a concurrent job's."""

    def test_concurrent_forced_specs_equal_serial_runs(self, resolutions):
        from repro.congest import available_engines
        from repro.kernels import available_backends

        # Twice every (engine, backend), each on its own path length, so no
        # spec is another's cache hit.
        configurations = [
            (engine, backend) for engine in available_engines() for backend in available_backends()
        ] * 2
        specs = [
            bfs_spec(n, engine=engine, backend=backend)
            for n, (engine, backend) in enumerate(configurations, start=5)
        ]
        with SimulationService(max_workers=1) as serial_service:
            serial = [serial_service.run(spec).to_json() for spec in specs]
        resolutions.seen.clear()
        resolutions.gate_next_two()
        with SimulationService(max_workers=2) as service:
            batch = [result.to_json() for result in service.run_batch(specs)]
        assert batch == serial
        for spec in specs:
            assert resolutions.seen[spec.graph.params["num_nodes"]] == {
                (spec.engine, spec.backend)
            }

    def test_a_job_sees_its_submitters_pins(self, resolutions):
        from repro.congest.engine.base import force_engine

        seen = resolutions.seen
        with SimulationService(max_workers=2) as service:
            with force_engine("sparse"):
                service.run(bfs_spec(5))
            service.run(bfs_spec(6))
            # The spec's own knob wins over the submitter's pin.
            with force_engine("sparse"):
                service.run(bfs_spec(7, engine="symbolic"))
        assert {n: {engine for engine, _ in seen[n]} for n in (5, 6, 7)} == {
            5: {"sparse"},
            6: {"symbolic"},
            7: {"symbolic"},
        }

    def test_stress_more_workers_than_cores(self):
        # Jobs share the engines' module-level memos and the service's cache
        # and metrics; a short switch interval interleaves them finely.
        from repro.congest import available_engines
        from repro.kernels import available_backends

        configurations = [
            (engine, backend) for engine in available_engines() for backend in available_backends()
        ]
        specs = [
            RunSpec(
                protocol=protocol,
                graph=GraphSpec(generator="yao_spanner", params={"num_nodes": 16, "seed": seed}),
                params=params,
                engine=engine,
                backend=backend,
            )
            for seed, (engine, backend) in enumerate(configurations)
            for protocol, params in (
                ("bfs-tree", {"root": 0}),
                ("bellman-ford-sssp", {"source": 1}),
                ("theorem11-pipeline", {}),
            )
        ]
        with SimulationService(max_workers=1) as serial_service:
            serial = [serial_service.run(spec).to_json() for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SimulationService(max_workers=6) as service:
                batch = [result.to_json() for result in service.run_batch(specs)]
        finally:
            sys.setswitchinterval(interval)
        assert batch == serial
