"""Tests for the SimulationService job lifecycle and metrics wiring."""

from __future__ import annotations

import gc
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
