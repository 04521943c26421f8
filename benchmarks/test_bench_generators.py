"""Graph-build benchmark: the Yao spanner's cone-closing scan vs the full scan.

Every Theorem 1.1 run at scale starts by building ``yao_spanner_graph``.  Its
ring scan stops once each cone is settled, and counts an empty cone as
settled once the unit square ends within it; the full-ring reference
(``tests/graphs/yao_reference.py``) scans boundary nodes across the whole
grid.  This benchmark times both at ``n = 1024`` (the ``thm11-symbolic``
graph), checks that they build the same graph, and records the ``n = 4096``
build time in ``BENCH_generators_yao.json``.

Acceptance floor: the generator must be at least ``REQUIRED_SPEEDUP`` times
faster than the reference at ``n = 1024``, best of ``REPEATS`` each.
"""

from __future__ import annotations

import gc
import importlib.util
import time
from pathlib import Path

from conftest import run_once

from repro.analysis import render_table
from repro.graphs import yao_spanner_graph

HEADERS = ["implementation", "n", "time [s]", "speedup", "same graph"]

#: Measured 4.4-5.1x (0.26-0.49 s against 0.05-0.10 s, six runs) on a
#: 2-CPU container.  Best of 2 with the collector on read as low as 3.0x.
REQUIRED_SPEEDUP = 3.0

#: Timed runs per build; the best one counts.
REPEATS = 3

_REFERENCE_PATH = Path(__file__).parent.parent / "tests" / "graphs" / "yao_reference.py"


def _reference():
    """``yao_spanner_reference``, loaded from the test suite by path."""
    spec = importlib.util.spec_from_file_location("yao_reference", _REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.yao_spanner_reference


def _best_of(func, repeats: int = REPEATS):
    """Smallest wall-clock over ``repeats`` runs, and the last result.

    Each run starts from a collected heap with the cyclic collector off, as
    ``timeit`` does: otherwise a run pays for traversing whatever the
    process allocated before it (the rest of the test session included)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        result = None  # the previous run's graph is garbage too
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = func()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best, result


def _adjacency(graph):
    return [(u, list(graph.incident_edges(u))) for u in graph.nodes]


def _sweep():
    reference = _reference()
    reference_time, expected = _best_of(lambda: reference(1024, seed=0))
    build_time, built = _best_of(lambda: yao_spanner_graph(1024, seed=0))
    same = _adjacency(built) == _adjacency(expected)
    large_time, _ = _best_of(lambda: yao_spanner_graph(4096, seed=0), repeats=1)
    speedup = reference_time / build_time
    rows = [
        ["full-ring reference", 1024, f"{reference_time:.3f}", "1.0x", "--"],
        ["cone closure", 1024, f"{build_time:.3f}", f"{speedup:.1f}x", "yes" if same else "NO"],
        ["cone closure", 4096, f"{large_time:.3f}", "--", "--"],
    ]
    return rows, reference_time, build_time, large_time, same


def test_bench_yao_spanner_build(benchmark, record_artifact, record_json):
    rows, reference_time, build_time, large_time, same = run_once(benchmark, _sweep)
    record_artifact(
        "generators_yao",
        render_table(HEADERS, rows, title="yao_spanner_graph build: cone closure vs full scan"),
    )
    record_json(
        "generators_yao",
        {
            "workload": "yao_spanner_graph(n, seed=0)",
            "n": 1024,
            "reference_seconds": round(reference_time, 4),
            "build_seconds": round(build_time, 4),
            "speedup": round(reference_time / build_time, 2),
            "speedup_floor": REQUIRED_SPEEDUP,
            "repeats": REPEATS,
            "n4096_build_seconds": round(large_time, 4),
        },
    )
    assert same, "the cone-closing scan built a different graph from the full scan"
    assert reference_time / build_time >= REQUIRED_SPEEDUP, (
        f"yao_spanner_graph(1024) is only {reference_time / build_time:.1f}x faster "
        f"than the full-ring reference (needs {REQUIRED_SPEEDUP}x)"
    )
