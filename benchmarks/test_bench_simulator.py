"""Simulation-engine benchmark: weighted APSP rounds/sec per engine.

Regenerates a table comparing, per execution engine, the end-to-end
wall-clock and simulated rounds/sec of the weighted APSP protocol
(``n`` concurrent Bellman-Ford floods -- the workload behind the classical
rows of Table 1/2) at ``n ∈ {64, 128, 256}``, against the ``sparse``
reference interpreter.

The acceptance check of the engine subsystem lives here: on the ``n = 256``
instance the vectorized ``dense`` engine must be at least 4.8x faster than
sparse (it measures ~70-120x on a 2-core host), with *bit-identical* round
reports and identical outputs everywhere.

A second table covers the announce-schedule family: symbolic
bounded-distance SSSP (Nanongkai's Algorithm 2, the inner loop of the
Theorem 1.1 pipeline) from 40 sources must clear a >=5.4x floor over sparse
at ``n = 256`` (~11-13x measured on a 2-core host: the workload is
dominated by the ``L + 1`` fixed schedule rounds, which the closed form
charges without stepping them).

A third table covers the closed-form ``symbolic`` engine on the full
Theorem 1.1 classical pipeline (Algorithm 3 + overlay embedding + Setup +
Evaluation) over the bounded-degree spanner family: at ``n = 1024`` the
closed form must beat the sparse engine by >= 26x with a bit-identical
flattened report (~60-100x measured on a 2-core host, each engine on its
own fresh graph), and an ``n = 4096``
end-to-end run must finish inside a fixed wall-clock budget on the 1-CPU
container.

Every table also emits a machine-readable ``BENCH_*.json`` twin (workload,
engine config, measured seconds, speedups, CPU count) so the performance
trajectory is diffable across PRs.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.analysis import render_table
from repro.congest import Network, available_engines, force_engine
from repro.congest.apsp import distributed_weighted_apsp
from repro.graphs import random_weighted_graph

HEADERS = [
    "engine",
    "n",
    "time [s]",
    "rounds",
    "rounds/sec",
    "speedup vs sparse",
    "identical",
]

NODE_COUNTS = (64, 128, 256)

#: Acceptance floor for dense on the n=256 instance (speedup over sparse):
#: the original 3x floor over the seed loop times the seed loop's measured
#: 1.59x (median of 5) cost over sparse.
REQUIRED_DENSE_SPEEDUP = 4.8


def _best_of(func, repeats):
    """Smallest wall-clock over ``repeats`` runs (load-noise resistant)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def _sweep():
    rows = []
    records = []
    speedups = {}
    for n in NODE_COUNTS:
        network = Network(
            random_weighted_graph(n, average_degree=4.0, max_weight=100, seed=7)
        )
        reference = None
        sparse_time = None
        for engine in ("sparse", "dense"):
            if engine not in available_engines():
                continue
            # Sparse is timed once: only the n=256 ratio is asserted, and a
            # second sparse run at n=64/128 only fed table rows.
            repeats = 2 if n < 256 and engine == "dense" else 1
            with force_engine(engine):
                elapsed, (outputs, report) = _best_of(
                    lambda: distributed_weighted_apsp(network), repeats
                )
            if engine == "sparse":
                sparse_time = elapsed
                reference = (outputs, report)
                identical = "--"
            else:
                matches = outputs == reference[0] and report == reference[1]
                identical = "yes" if matches else "NO"
                assert matches, f"engine {engine} diverged from sparse at n={n}"
                speedups[n] = sparse_time / elapsed
            rows.append(
                [
                    engine,
                    n,
                    f"{elapsed:.3f}",
                    report.rounds,
                    f"{report.rounds / elapsed:.1f}",
                    f"{sparse_time / elapsed:.1f}x",
                    identical,
                ]
            )
            records.append(
                {
                    "workload": "weighted-apsp",
                    "engine": engine,
                    "n": n,
                    "seconds": round(elapsed, 4),
                    "rounds": report.rounds,
                    "speedup_vs_sparse": round(sparse_time / elapsed, 3),
                }
            )
    return rows, speedups, records


def test_bench_simulator_engines(benchmark, record_artifact, record_json):
    rows, speedups, records = run_once(benchmark, _sweep)
    record_artifact(
        "simulator_engines",
        render_table(
            HEADERS,
            rows,
            title="CONGEST engine wall-clock: weighted APSP simulation",
        ),
    )
    record_json(
        "simulator_engines",
        {"workload": "weighted-apsp", "node_counts": list(NODE_COUNTS), "rows": records},
    )
    largest = NODE_COUNTS[-1]
    if speedups:  # dense absent without NumPy and SciPy
        assert speedups[largest] >= REQUIRED_DENSE_SPEEDUP, (
            f"dense reached only {speedups[largest]:.1f}x over sparse at "
            f"n={largest} (needs {REQUIRED_DENSE_SPEEDUP}x)"
        )


# --------------------------------------------------------------------------- #
# Announce-schedule family: bounded-distance SSSP (Algorithm 2) per engine.
# --------------------------------------------------------------------------- #
#: Acceptance floor for symbolic Algorithm 2 at n=256 (speedup over sparse;
#: ~11-13x measured on a 2-core host): the original 3x floor over the seed
#: loop times its measured 1.76x (median of 5) cost over sparse, rounded up.
BD_REQUIRED_SYMBOLIC_SPEEDUP = 5.4

#: n=256 with a dense-ish topology and a moderate bound keeps the run at
#: ~100 schedule rounds, the regime the Theorem 1.1 levels actually use.
BD_NODE_COUNT = 256
BD_MAX_DISTANCE = 100
#: One timed sample runs Algorithm 2 from this many sources in turn: one
#: symbolic run takes ~2 ms, too little for a stable ratio, while 40 take
#: over 50 ms.
BD_SOURCES = 40


def _bounded_distance_sweep():
    from repro.nanongkai.bounded_distance_sssp import bounded_distance_sssp_protocol

    network = Network(
        random_weighted_graph(
            BD_NODE_COUNT, average_degree=8.0, max_weight=20, seed=7
        )
    )
    sources = sorted(network.nodes)[:BD_SOURCES]

    def run_all():
        return [
            bounded_distance_sssp_protocol(network, source, BD_MAX_DISTANCE)
            for source in sources
        ]

    # Best of 3 per engine, the engines' samples alternating so that a slow
    # phase of the host slows both sides rather than one.
    best = {}
    for _ in range(3):
        for engine in ("sparse", "symbolic"):
            with force_engine(engine):
                sample = _best_of(run_all, repeats=1)
            if engine not in best or sample[0] < best[engine][0]:
                best[engine] = sample
    rows = []
    records = []
    reference = None
    sparse_time = None
    for engine, (elapsed, results) in best.items():
        rounds = sum(report.rounds for _, report in results)
        if engine == "sparse":
            sparse_time = elapsed
            reference = results
            identical = "--"
        else:
            matches = results == reference
            identical = "yes" if matches else "NO"
            assert matches, f"engine {engine} diverged from sparse"
        rows.append(
            [
                engine,
                BD_NODE_COUNT,
                f"{elapsed:.3f}",
                rounds,
                f"{rounds / elapsed:.1f}",
                f"{sparse_time / elapsed:.1f}x",
                identical,
            ]
        )
        records.append(
            {
                "workload": "bounded-distance-sssp",
                "engine": engine,
                "n": BD_NODE_COUNT,
                "max_distance": BD_MAX_DISTANCE,
                "sources": len(sources),
                "seconds": round(elapsed, 4),
                "rounds": rounds,
                "speedup_vs_sparse": round(sparse_time / elapsed, 3),
            }
        )
    return rows, sparse_time / elapsed, records


def test_bench_bounded_distance_sssp_engines(benchmark, record_artifact, record_json):
    rows, symbolic_speedup, records = run_once(benchmark, _bounded_distance_sweep)
    record_artifact(
        "simulator_bounded_distance",
        render_table(
            HEADERS,
            rows,
            title=(
                "CONGEST engine wall-clock: bounded-distance SSSP (Algorithm 2) "
                f"from {BD_SOURCES} sources"
            ),
        ),
    )
    record_json(
        "simulator_bounded_distance",
        {"workload": "bounded-distance-sssp", "n": BD_NODE_COUNT, "rows": records},
    )
    assert symbolic_speedup >= BD_REQUIRED_SYMBOLIC_SPEEDUP, (
        f"symbolic Algorithm 2 reached only {symbolic_speedup:.1f}x over "
        f"sparse at n={BD_NODE_COUNT} "
        f"(needs {BD_REQUIRED_SYMBOLIC_SPEEDUP}x)"
    )


# --------------------------------------------------------------------------- #
# Tree-primitive family: pipelined gather + broadcast over a BFS tree.
# --------------------------------------------------------------------------- #
#: Acceptance floor for the dense tree-schema executors at n=256: the
#: analytic schedule replay must beat sparse interpreting the flood/echo
#: node programs by at least 5.7x (measures ~10-15x on a 2-core host), the
#: original 3x floor over the seed loop times its measured 1.88x (median of
#: 5) cost over sparse, rounded up.
TREE_REQUIRED_DENSE_SPEEDUP = 5.7

TREE_NODE_COUNT = 256
TREE_BROADCAST_VALUES = 64
TREE_RECORDS_PER_NODE = 2


def _tree_primitive_sweep():
    from repro.congest.primitives import (
        broadcast_values_from,
        build_bfs_tree,
        gather_values_to,
    )

    network = Network(
        random_weighted_graph(
            TREE_NODE_COUNT, average_degree=4.0, max_weight=100, seed=7
        )
    )
    root = min(network.nodes)
    with force_engine("sparse"):
        tree, _ = build_bfs_tree(network, root)
    values = list(range(TREE_BROADCAST_VALUES))
    gather_records = {
        node: [(node, i) for i in range(TREE_RECORDS_PER_NODE)]
        for node in network.nodes
    }

    def workload():
        received, broadcast_report = broadcast_values_from(
            network, root, values, tree=tree
        )
        # Engines may build per-node outputs on first read: read them here,
        # inside the timed call, so every engine pays for what is compared.
        received = dict(received)
        collected, gather_report = gather_values_to(
            network, root, gather_records, tree=tree
        )
        return (received, collected), broadcast_report.merge_sequential(
            gather_report
        )

    rows = []
    records = []
    reference = None
    sparse_time = None
    dense_speedup = None
    for engine in ("sparse", "dense"):
        if engine not in available_engines():
            continue
        with force_engine(engine):
            elapsed, (outputs, report) = _best_of(workload, repeats=3)
        if engine == "sparse":
            sparse_time = elapsed
            reference = (outputs, report)
            identical = "--"
        else:
            matches = outputs == reference[0] and report == reference[1]
            identical = "yes" if matches else "NO"
            assert matches, f"engine {engine} diverged from sparse"
            dense_speedup = sparse_time / elapsed
        rows.append(
            [
                engine,
                TREE_NODE_COUNT,
                f"{elapsed:.3f}",
                report.rounds,
                f"{report.rounds / elapsed:.1f}",
                f"{sparse_time / elapsed:.1f}x",
                identical,
            ]
        )
        records.append(
            {
                "workload": "tree-primitives",
                "engine": engine,
                "n": TREE_NODE_COUNT,
                "seconds": round(elapsed, 4),
                "rounds": report.rounds,
                "speedup_vs_sparse": round(sparse_time / elapsed, 3),
            }
        )
    return rows, dense_speedup, records


def test_bench_tree_primitives_engines(benchmark, record_artifact, record_json):
    rows, dense_speedup, records = run_once(benchmark, _tree_primitive_sweep)
    record_artifact(
        "simulator_tree_primitives",
        render_table(
            HEADERS,
            rows,
            title=(
                "CONGEST engine wall-clock: pipelined gather + broadcast "
                "over a BFS tree"
            ),
        ),
    )
    record_json(
        "simulator_tree_primitives",
        {"workload": "tree-primitives", "n": TREE_NODE_COUNT, "rows": records},
    )
    if dense_speedup is not None:  # dense absent without NumPy and SciPy
        assert dense_speedup >= TREE_REQUIRED_DENSE_SPEEDUP, (
            f"dense tree primitives reached only {dense_speedup:.1f}x over "
            f"sparse at n={TREE_NODE_COUNT} "
            f"(needs {TREE_REQUIRED_DENSE_SPEEDUP}x)"
        )


# --------------------------------------------------------------------------- #
# Symbolic closed-form engine: the full Theorem 1.1 classical pipeline
# (Algorithm 3 + overlay embedding + Setup + Evaluation) on the bounded-
# degree spanner family, sparse vs symbolic.
# --------------------------------------------------------------------------- #
#: Acceptance floor at n=1024: deriving the pipeline's round reports in
#: closed form must beat stepping the schedules with the sparse engine by at
#: least 26x (measures ~60-100x on a 2-core host; the sparse cost scales with
#: schedule rounds, the symbolic cost with events).  26x is the earlier 5x
#: floor over the vectorized dense engine times dense's measured 5.2x lead
#: over sparse on this pipeline.
SYMBOLIC_REQUIRED_SPEEDUP = 26.0
SYMBOLIC_PIPELINE_N = 1024
SYMBOLIC_SMOKE_N = 4096
#: The n=4096 end-to-end smoke run must stay inside this wall-clock budget
#: on the 1-CPU container (measures well under a second).
SYMBOLIC_SMOKE_BUDGET_SECONDS = 60.0
#: Theorem 1.1 scale knobs: a long announce schedule (hop bound x levels)
#: puts the run in the regime where per-round stepping dominates, which is
#: exactly what the closed form removes.
SYMBOLIC_HOP_BOUND = 48
SYMBOLIC_LEVELS = 8

SYMBOLIC_HEADERS = [
    "engine",
    "n",
    "time [s]",
    "rounds",
    "congested",
    "speedup vs sparse",
    "identical",
]


def _symbolic_pipeline(n):
    from repro.congest import RoundReport
    from repro.graphs import yao_spanner_graph
    from repro.nanongkai.skeleton import SkeletonApproximator

    network = Network(yao_spanner_graph(n, seed=7))
    skeleton = sorted({0, n // 3, 2 * n // 3, n - 1})

    def pipeline():
        approximator = SkeletonApproximator(
            network,
            skeleton,
            epsilon=0.5,
            hop_bound=SYMBOLIC_HOP_BOUND,
            k=4,
            seed=3,
            levels=SYMBOLIC_LEVELS,
        )
        return RoundReport.sequential(
            [
                approximator.initialization_report,
                approximator.setup_report(),
                approximator.evaluation_report(),
            ]
        )

    return pipeline


def _symbolic_pipeline_sweep():
    rows = []
    records = []

    def add_row(engine, n, elapsed, report, speedup_label, identical):
        rows.append(
            [
                engine,
                n,
                f"{elapsed:.3f}",
                report.rounds,
                report.congested_rounds,
                speedup_label,
                identical,
            ]
        )
        records.append(
            {
                "workload": "theorem-1.1-pipeline",
                "engine": engine,
                "n": n,
                "hop_bound": SYMBOLIC_HOP_BOUND,
                "levels": SYMBOLIC_LEVELS,
                "seconds": round(elapsed, 4),
                "rounds": report.rounds,
                "congested_rounds": report.congested_rounds,
            }
        )

    # ---- n=1024: sparse vs symbolic, bit-identical, 26x floor ------------ #
    # Each side runs once, on its own freshly built graph and network, so
    # neither reuses the other's (or an earlier run's) memoized BFS trees,
    # tree layouts or CSR snapshot.
    with force_engine("sparse"):
        sparse_time, sparse_report = _best_of(
            _symbolic_pipeline(SYMBOLIC_PIPELINE_N), repeats=1
        )
    with force_engine("symbolic"):
        symbolic_time, symbolic_report = _best_of(
            _symbolic_pipeline(SYMBOLIC_PIPELINE_N), repeats=1
        )
    assert symbolic_report == sparse_report, (
        "symbolic pipeline report diverged from sparse at "
        f"n={SYMBOLIC_PIPELINE_N}"
    )
    speedup = sparse_time / symbolic_time
    add_row("sparse", SYMBOLIC_PIPELINE_N, sparse_time, sparse_report, "1.0x", "--")
    add_row(
        "symbolic",
        SYMBOLIC_PIPELINE_N,
        symbolic_time,
        symbolic_report,
        f"{speedup:.1f}x",
        "yes",
    )

    # ---- n=4096: closed-form end-to-end smoke run ------------------------- #
    smoke = _symbolic_pipeline(SYMBOLIC_SMOKE_N)
    with force_engine("symbolic"):
        smoke_time, smoke_report = _best_of(smoke, repeats=1)
    add_row("symbolic", SYMBOLIC_SMOKE_N, smoke_time, smoke_report, "--", "--")
    return rows, records, speedup, smoke_time


def test_bench_symbolic_pipeline(benchmark, record_artifact, record_json):
    rows, records, speedup, smoke_time = run_once(
        benchmark, _symbolic_pipeline_sweep
    )
    record_artifact(
        "simulator_symbolic_pipeline",
        render_table(
            SYMBOLIC_HEADERS,
            rows,
            title=(
                "Symbolic closed-form engine: Theorem 1.1 pipeline on the "
                "bounded-degree spanner"
            ),
        ),
    )
    record_json(
        "symbolic_pipeline",
        {
            "workload": "theorem-1.1-pipeline",
            "node_counts": [SYMBOLIC_PIPELINE_N, SYMBOLIC_SMOKE_N],
            "rows": records,
        },
    )
    assert smoke_time < SYMBOLIC_SMOKE_BUDGET_SECONDS, (
        f"the n={SYMBOLIC_SMOKE_N} symbolic smoke run took {smoke_time:.1f}s "
        f"(budget {SYMBOLIC_SMOKE_BUDGET_SECONDS:.0f}s)"
    )
    assert speedup >= SYMBOLIC_REQUIRED_SPEEDUP, (
        f"the symbolic pipeline reached only {speedup:.1f}x over the "
        f"sparse engine at n={SYMBOLIC_PIPELINE_N} "
        f"(needs {SYMBOLIC_REQUIRED_SPEEDUP}x)"
    )
