"""The batch job layer: submit / poll / result over the simulator.

:class:`SimulationService` is the serve-many-requests front end the ROADMAP
asks for: requests are frozen :class:`~repro.service.spec.RunSpec` values,
jobs execute on a bounded :class:`~concurrent.futures.ThreadPoolExecutor`,
results flow through the content-addressed
:class:`~repro.service.cache.ResultCache`, and every lifecycle event is
counted in a :class:`~repro.service.metrics.MetricsRegistry`.

Concurrency model (the GIL caveat, stated honestly): worker *threads* are
the right executor here because the expensive engines already release the
work from the interpreter -- ``dense`` runs NumPy kernels (which drop the
GIL in the C layer) and cache hits are pure lookups.  Pure-Python engine
runs (``sparse``, ``symbolic``) do serialize on the GIL; batches
of those gain concurrency only in wall-clock overlap of their NumPy phases,
not CPU parallelism.

Execution-knob scoping: a spec's engine/backend are validated at submit and
applied around the run by the one :func:`repro.runtime.configure` call,
whose pins are context-local.  Each job runs in a copy of its submitter's
context, so it sees the submitter's pins and its own spec's, never a
concurrent job's.

Job records: a ``submit()``-ed job keeps its record for its
:class:`JobHandle`.  :meth:`~SimulationService.run` and
:meth:`~SimulationService.run_batch` hand out no handle, so they drop each
record once they have collected its result or error.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

from repro.congest.engine.types import SimulationResult
from repro.congest.network import Network
from repro.runtime import configure
from repro.service.cache import ResultCache
from repro.service.metrics import MetricsRegistry
from repro.service.protocols import get_protocol
from repro.service.spec import RunSpec

__all__ = ["JobState", "JobHandle", "JobStatus", "SimulationService"]


class JobState(str, Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass(frozen=True)
class JobStatus:
    """A point-in-time snapshot of one job (what :meth:`poll` returns)."""

    job_id: str
    state: JobState
    protocol: str
    cache_hit: bool = False
    error: Optional[str] = None
    queue_seconds: Optional[float] = None
    run_seconds: Optional[float] = None

    def to_json(self) -> Dict[str, Any]:
        payload = dict(self.__dict__)
        payload["state"] = self.state.value
        return payload


@dataclass
class _Job:
    """Mutable server-side job record (guarded by the service lock)."""

    job_id: str
    spec: RunSpec
    state: JobState = JobState.PENDING
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cache_hit: bool = False
    result: Optional[SimulationResult] = None
    error: Optional[BaseException] = None
    done: threading.Event = field(default_factory=threading.Event)

    def status(self) -> JobStatus:
        queue = run = None
        if self.started_at is not None:
            queue = self.started_at - self.submitted_at
            if self.finished_at is not None:
                run = self.finished_at - self.started_at
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            protocol=self.spec.protocol,
            cache_hit=self.cache_hit,
            error=str(self.error) if self.error is not None else None,
            queue_seconds=queue,
            run_seconds=run,
        )


@dataclass(frozen=True)
class JobHandle:
    """The caller's reference to a submitted job."""

    job_id: str
    spec: RunSpec
    _service: "SimulationService" = field(repr=False, compare=False)

    def poll(self) -> JobStatus:
        return self._service.poll(self.job_id)

    def result(self, timeout: Optional[float] = None) -> SimulationResult:
        return self._service.result(self.job_id, timeout=timeout)


class SimulationService:
    """Simulation-as-a-service over the engine/backend registries.

    Parameters
    ----------
    max_workers:
        Bound of the executor thread pool (see the module docstring for the
        GIL discussion).
    cache:
        A :class:`ResultCache`, or ``None`` to build a default in-memory
        one.  Pass ``ResultCache(directory=...)`` for a persistent tier.
    metrics:
        A shared :class:`MetricsRegistry`; a private one is created by
        default.
    """

    def __init__(
        self,
        max_workers: int = 2,
        cache: Optional[ResultCache] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not isinstance(max_workers, int) or isinstance(max_workers, bool) or max_workers < 1:
            raise ValueError(
                f"max_workers must be a positive integer, got {max_workers!r}"
            )
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-service"
        )
        self._cache = cache if cache is not None else ResultCache()
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._jobs: Dict[str, _Job] = {}
        self._jobs_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False

        m = self._metrics
        self._submitted = m.counter(
            "repro_service_jobs_submitted_total", "Jobs accepted by submit()/run_batch()"
        )
        self._completed = m.counter(
            "repro_service_jobs_completed_total", "Jobs that finished successfully"
        )
        self._failed = m.counter(
            "repro_service_jobs_failed_total", "Jobs that raised"
        )
        self._cache_hits = m.counter(
            "repro_service_cache_hits_total", "Requests answered from the result cache"
        )
        self._cache_misses = m.counter(
            "repro_service_cache_misses_total", "Requests that had to run the simulator"
        )
        self._queue_latency = m.histogram(
            "repro_service_queue_latency_seconds",
            "Time from submit() to execution start",
        )
        self._run_latency = m.histogram(
            "repro_service_run_latency_seconds",
            "Execution wall-clock per engine (cache hits excluded)",
            label_names=("engine",),
        )

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def cache(self) -> ResultCache:
        return self._cache

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    def submit(self, spec: RunSpec) -> JobHandle:
        """Validate ``spec``, enqueue it, and return a :class:`JobHandle`.

        Validation happens synchronously so an unknown protocol / engine /
        backend / generator fails the ``submit`` call itself with a message
        naming the registered options, not a later ``result()`` call.
        """
        self._validate(spec)
        return self._enqueue(spec)

    def poll(self, job_id: str) -> JobStatus:
        """A snapshot of the job's state (never blocks)."""
        return self._get_job(job_id).status()

    def result(self, job_id: str, timeout: Optional[float] = None) -> SimulationResult:
        """Block until the job finishes; return its result or re-raise.

        The returned result is context-free (see
        :meth:`SimulationResult.to_json`) whether it was computed or served
        from cache, so callers cannot distinguish the two by shape.
        """
        job = self._get_job(job_id)
        if not job.done.wait(timeout):
            raise TimeoutError(
                f"job {job_id} still {job.state.value} after {timeout}s"
            )
        if job.error is not None:
            raise job.error
        assert job.result is not None
        return job.result

    def run(self, spec: RunSpec) -> SimulationResult:
        """Synchronous convenience: ``submit`` + ``result``; the job's
        record goes once its result is collected."""
        return self._collect(self.submit(spec).job_id)

    def run_batch(self, specs: List[RunSpec]) -> List[SimulationResult]:
        """Execute ``specs`` concurrently; results in submission order.

        Every spec is validated before any is submitted.  The first failing
        job's exception propagates after every job has settled (so one bad
        spec cannot orphan its batch siblings).
        """
        for spec in specs:
            self._validate(spec)
        handles = [self._enqueue(spec) for spec in specs]
        results: List[Optional[SimulationResult]] = []
        first_error: Optional[BaseException] = None
        for handle in handles:
            try:
                results.append(self._collect(handle.job_id))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                results.append(None)
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results  # type: ignore[return-value]

    def jobs(self) -> List[JobStatus]:
        """Snapshots of the jobs this service still holds, oldest first:
        every ``submit()``-ed job, and ``run``/``run_batch`` jobs until
        their result is collected."""
        with self._jobs_lock:
            return [job.status() for job in self._jobs.values()]

    def service_stats(self) -> Dict[str, Any]:
        """A JSON-friendly snapshot: job counts, cache stats, metrics.

        ``total``, ``completed`` and ``failed`` are the metrics registry's
        job counters; ``pending`` and ``running`` count the held jobs.
        """
        with self._jobs_lock:
            states = [job.state for job in self._jobs.values()]
        return {
            "jobs": {
                "total": int(self._submitted.total()),
                JobState.PENDING.value: states.count(JobState.PENDING),
                JobState.RUNNING.value: states.count(JobState.RUNNING),
                JobState.COMPLETED.value: int(self._completed.total()),
                JobState.FAILED.value: int(self._failed.total()),
            },
            "cache": self._cache.snapshot(),
            "metrics": self._metrics.snapshot(),
        }

    def render_prometheus(self) -> str:
        """The service metrics in the Prometheus text exposition format."""
        return self._metrics.render_prometheus()

    def close(self, wait: bool = True) -> None:
        """Stop accepting jobs and shut the executor down."""
        self._closed = True
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _validate(self, spec: RunSpec) -> None:
        if self._closed:
            raise RuntimeError("the service has been closed")
        if not isinstance(spec, RunSpec):
            raise TypeError(f"submit() takes a RunSpec, got {type(spec).__name__}")
        spec.validate()

    def _enqueue(self, spec: RunSpec) -> JobHandle:
        """Record a job for the validated ``spec`` and hand it to the executor."""
        job = _Job(job_id=f"job-{next(self._ids)}", spec=spec, submitted_at=time.perf_counter())
        with self._jobs_lock:
            self._jobs[job.job_id] = job
        self._submitted.inc()
        self._executor.submit(contextvars.copy_context().run, self._execute, job)
        return JobHandle(job_id=job.job_id, spec=spec, _service=self)

    def _get_job(self, job_id: str) -> _Job:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job id {job_id!r}; known jobs: {sorted(self._jobs)}")
        return job

    def _collect(self, job_id: str) -> SimulationResult:
        """:meth:`result`, then drop the record: the caller holds no handle."""
        try:
            return self.result(job_id)
        finally:
            with self._jobs_lock:
                del self._jobs[job_id]

    def _execute(self, job: _Job) -> None:
        spec = job.spec
        job.started_at = time.perf_counter()
        job.state = JobState.RUNNING
        self._queue_latency.observe(job.started_at - job.submitted_at)
        try:
            protocol = get_protocol(spec.protocol)
            # The digest is memoized per graph spec, so a warm request never
            # pays for materializing a graph it will not run on.
            digest, graph = spec.graph.digest_with_graph()
            cached = self._cache.lookup(spec, digest)
            if cached is not None:
                job.result = cached
                job.cache_hit = True
                self._cache_hits.inc()
                self._finish(job, JobState.COMPLETED)
                return
            self._cache_misses.inc()
            if graph is None:
                graph = spec.graph.build()
            network = Network(graph, spec.congest_config())
            run_started = time.perf_counter()
            with configure(engine=spec.engine, backend=spec.backend):
                result = protocol.run(network, spec.params, spec.run_options())
            run_seconds = time.perf_counter() - run_started
            self._run_latency.observe(run_seconds, engine=spec.engine or "auto")
            # Serve the job from what it stored: the caller receives a
            # context-free copy identical in shape to a warm hit.
            job.result = self._cache.store(spec, digest, result)
            self._finish(job, JobState.COMPLETED)
        except BaseException as exc:  # noqa: BLE001 - stored and re-raised in result()
            job.error = exc
            self._finish(job, JobState.FAILED)

    def _finish(self, job: _Job, state: JobState) -> None:
        job.finished_at = time.perf_counter()
        job.state = state
        if state is JobState.COMPLETED:
            self._completed.inc()
        else:
            self._failed.inc()
        job.done.set()
