"""Simulation-as-a-service: batch jobs, result cache, metrics.

The service layer turns the simulator into a request/response system:

>>> from repro.service import RunSpec, GraphSpec, SimulationService
>>> service = SimulationService()
>>> spec = RunSpec(
...     protocol="bellman-ford-sssp",
...     graph=GraphSpec(generator="path", params={"n": 8}),
...     params={"source": 0},
... )
>>> result = service.run(spec)          # or submit() -> JobHandle
>>> result.report.round_count
7

Everything here is stdlib-only; the engines and backends a spec selects are
resolved through the existing registries via :mod:`repro.runtime`.
"""

from repro.service.cache import CacheStats, ResultCache, cache_key
from repro.service.jobs import JobHandle, JobState, JobStatus, SimulationService
from repro.service.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    parse_exposition,
)
from repro.service.protocols import (
    ProtocolSpec,
    RunOptions,
    available_protocols,
    get_protocol,
    register_protocol,
)
from repro.service.spec import GraphSpec, RunSpec, available_generators

__all__ = [
    "CacheStats",
    "Counter",
    "GraphSpec",
    "Histogram",
    "JobHandle",
    "JobState",
    "JobStatus",
    "MetricsRegistry",
    "ProtocolSpec",
    "ResultCache",
    "RunOptions",
    "RunSpec",
    "SimulationService",
    "available_generators",
    "available_protocols",
    "cache_key",
    "get_protocol",
    "parse_exposition",
    "register_protocol",
]
