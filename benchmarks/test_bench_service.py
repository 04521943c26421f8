"""Service-layer benchmark: cold vs warm content-addressed cache.

Regenerates a table timing requests issued through
:class:`repro.service.SimulationService`: a *cold* request that has to run
the simulator, a *warm* request answered from the in-memory LRU, and a
*disk-tier* request from a brand-new service (empty LRU) pointed at the
same cache directory, which promotes the entry from disk.  Every row is the
median of ``HIT_REPEATS`` requests, and the cold requests (each on a fresh
cache) alternate with the warm hits, so a slow phase of the host slows
both sides of the ratio.

Two workloads, each asserting that every hit equals the cold result:

* ``theorem11-pipeline`` (the full Theorem 1.1 classical pipeline on the
  ``n = 1024`` bounded-degree spanner, symbolic engine).  Its outputs are
  small, so a hit is a digest-memo hit plus a tiny decode: both tiers
  (median of ``HIT_REPEATS`` hits each) must be at least **20x** faster
  than cold (they measure hundreds of x).
* ``weighted-apsp`` on the ``n = 256`` spanner, whose result is an
  ``n x n`` distance table.  The cache decodes it once; a memory hit
  costs a structural copy of 65,536 entries and a disk hit one JSON parse
  and decode plus that copy.  Its warm hit (median of ``HIT_REPEATS``)
  must clear ``APSP_SPEEDUP_FLOOR``; the disk tier has no floor.

The machine-readable twin is ``BENCH_service_cache.json``.
"""

from __future__ import annotations

import statistics
import time

from conftest import cpu_count

from repro.analysis import render_table
from repro.service import GraphSpec, ResultCache, RunSpec, SimulationService

SERVICE_N = 1024
#: The warm in-memory request must be at least this much faster than cold.
WARM_SPEEDUP_FLOOR = 20.0

APSP_N = 256
#: Floor for the weighted-APSP row, whose n x n distance table makes a hit
#: cost one structural copy of the decoded result: about half the warm
#: ratio measured with the columnar codec (see CHANGES.md).
APSP_SPEEDUP_FLOOR = 15.0
#: Requests timed per tier and workload (median), since a single
#: millisecond-scale hit is at the mercy of one garbage collection.
HIT_REPEATS = 5

HEADERS = ["workload", "request", "time [s]", "cache", "rounds", "speedup vs cold"]


def _pipeline_spec(n: int) -> RunSpec:
    return RunSpec(
        protocol="theorem11-pipeline",
        graph=GraphSpec(generator="yao_spanner", params={"num_nodes": n, "seed": 7}),
        params={
            "skeleton": sorted({0, n // 3, 2 * n // 3, n - 1}),
            "hop_bound": 48,
            "levels": 8,
        },
        engine="symbolic",
    )


def _apsp_spec(n: int) -> RunSpec:
    return RunSpec(
        protocol="weighted-apsp",
        graph=GraphSpec(generator="yao_spanner", params={"num_nodes": n, "seed": 7}),
    )


def _timed(func):
    started = time.perf_counter()
    result = func()
    return time.perf_counter() - started, result


def _cold_warm_disk(spec: RunSpec, root, repeats: int):
    """Time ``repeats`` cold requests, each on a service with a fresh cache
    directory under ``root``, alternating with ``repeats`` warm in-memory
    hits on one service whose cache an untimed first request filled; then
    ``repeats`` disk-tier hits, each from a fresh service whose LRU is empty
    (the digest memo stays warm, which isolates the disk tier).  Returns the
    median cold and hit times and the cold result."""
    cache_dir = root / "shared"
    service = SimulationService(max_workers=1, cache=ResultCache(directory=cache_dir))
    cold = service.run(spec)
    cold_times, warm_times = [], []
    for repeat in range(repeats):
        fresh = SimulationService(
            max_workers=1, cache=ResultCache(directory=root / f"cold-{repeat}")
        )
        cold_time, rerun = _timed(lambda: fresh.run(spec))
        assert rerun == cold, "a cold run on a fresh cache must equal the first"
        fresh.close()
        cold_times.append(cold_time)
        warm_time, warm = _timed(lambda: service.run(spec))
        assert warm == cold, "warm cache hit must equal the fresh run"
        warm_times.append(warm_time)
    assert service.cache.stats.hits == repeats and service.cache.stats.misses == 1
    service.close()

    disk_times = []
    for _ in range(repeats):
        revived = SimulationService(max_workers=1, cache=ResultCache(directory=cache_dir))
        disk_time, disk = _timed(lambda: revived.run(spec))
        assert disk == cold, "disk-tier hit must equal the fresh run"
        assert revived.cache.stats.disk_hits == 1
        revived.close()
        disk_times.append(disk_time)
    return (
        statistics.median(cold_times),
        statistics.median(warm_times),
        statistics.median(disk_times),
        cold,
    )


def _rows(workload: str, cold_time, warm_time, disk_time, rounds):
    return [
        [workload, "cold (simulated)", f"{cold_time:.3f}", "miss", rounds, "1.0x"],
        [workload, "warm (memory)", f"{warm_time:.5f}", "hit", rounds,
         f"{cold_time / warm_time:.0f}x"],
        [workload, "warm (disk tier)", f"{disk_time:.5f}", "disk hit", rounds,
         f"{cold_time / disk_time:.0f}x"],
    ]


def test_bench_service_cache(record_artifact, record_json, tmp_path):
    cold_time, warm_time, disk_time, cold = _cold_warm_disk(
        _pipeline_spec(SERVICE_N), tmp_path / "pipeline", repeats=HIT_REPEATS
    )
    warm_speedup = cold_time / warm_time
    disk_speedup = cold_time / disk_time

    apsp_cold, apsp_warm, apsp_disk, apsp = _cold_warm_disk(
        _apsp_spec(APSP_N), tmp_path / "apsp", repeats=HIT_REPEATS
    )
    apsp_warm_speedup = apsp_cold / apsp_warm
    apsp_disk_speedup = apsp_cold / apsp_disk

    rows = _rows(
        f"theorem11-pipeline n={SERVICE_N} symbolic",
        cold_time, warm_time, disk_time, cold.report.rounds,
    ) + _rows(
        f"weighted-apsp n={APSP_N}", apsp_cold, apsp_warm, apsp_disk, apsp.report.rounds
    )
    table = render_table(
        HEADERS, rows, title=f"Service result cache: cold vs warm ({cpu_count()} CPUs)"
    )
    record_artifact("service_cache", table)
    record_json(
        "service_cache",
        {
            "workload": "theorem11-pipeline",
            "n": SERVICE_N,
            "engine": "symbolic",
            "hit_repeats": HIT_REPEATS,
            "cold_seconds": round(cold_time, 4),
            "warm_seconds": round(warm_time, 6),
            "disk_seconds": round(disk_time, 6),
            "warm_speedup": round(warm_speedup, 1),
            "disk_speedup": round(disk_speedup, 1),
            "speedup_floor": WARM_SPEEDUP_FLOOR,
            "rounds": cold.report.rounds,
            "weighted_apsp": {
                "n": APSP_N,
                "engine": "auto",
                "hit_repeats": HIT_REPEATS,
                "cold_seconds": round(apsp_cold, 4),
                "warm_seconds": round(apsp_warm, 6),
                "disk_seconds": round(apsp_disk, 6),
                "warm_speedup": round(apsp_warm_speedup, 1),
                "disk_speedup": round(apsp_disk_speedup, 1),
                "speedup_floor": APSP_SPEEDUP_FLOOR,
                "rounds": apsp.report.rounds,
            },
        },
    )

    assert warm_speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm cache hit only {warm_speedup:.1f}x faster than cold "
        f"(floor {WARM_SPEEDUP_FLOOR}x): cold={cold_time:.3f}s warm={warm_time:.5f}s"
    )
    assert disk_speedup >= WARM_SPEEDUP_FLOOR, (
        f"disk-tier hit only {disk_speedup:.1f}x faster than cold "
        f"(floor {WARM_SPEEDUP_FLOOR}x): cold={cold_time:.3f}s disk={disk_time:.5f}s"
    )
    assert apsp_warm_speedup >= APSP_SPEEDUP_FLOOR, (
        f"weighted-apsp warm hit only {apsp_warm_speedup:.1f}x faster than cold "
        f"(floor {APSP_SPEEDUP_FLOOR}x): cold={apsp_cold:.3f}s warm={apsp_warm:.5f}s"
    )


def test_bench_service_batch_metrics(record_json):
    """Pin the metrics contract on a small batch: counters must reconcile."""
    from repro.service import parse_exposition

    service = SimulationService(max_workers=2)
    specs = [_pipeline_spec(128), _pipeline_spec(192), _pipeline_spec(128)]
    results = service.run_batch(specs)
    assert len(results) == 3
    samples = parse_exposition(service.render_prometheus())
    submitted = samples["repro_service_jobs_submitted_total"]
    completed = samples["repro_service_jobs_completed_total"]
    hits = samples["repro_service_cache_hits_total"]
    misses = samples["repro_service_cache_misses_total"]
    assert submitted == completed == 3
    assert hits + misses == 3
    service.close()
    record_json(
        "service_batch_metrics",
        {
            "workload": "theorem11-pipeline batch",
            "batch_size": 3,
            "submitted": submitted,
            "completed": completed,
            "cache_hits": hits,
            "cache_misses": misses,
        },
    )
