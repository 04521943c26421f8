"""Kernel-layer benchmark: batched CSR APSP vs the seed dict-based oracle.

Regenerates a table comparing, per backend, the wall-clock of exact
all-pairs shortest paths on a 500-node random graph against the seed
implementation (one dict-based Dijkstra per node,
``all_pairs_distances_reference`` in ``tests/graphs/shortest_path_reference.py``), plus a larger ladder from
``kernel_scaling_workloads`` showing the sizes the batched kernels unlock.
On an accelerated backend each ladder graph also gets an extremal-eccentricity
row: the bound-pruned diameter and radius with their node sets
(``extremal_eccentricity``) against the same values reduced from the
backend's all-pairs rows.

A second table times the arrival-gated min-plus kernel on Algorithm 3's
inputs (one skeleton set of ``yao_spanner_graph(256, seed=0)`` under the
Theorem 1.1 FAST parameters, captured from a symbolic run): the SciPy
override against the pure-Python reference.

The acceptance checks of the kernel subsystem live here: on the ``auto``
backend the 500-node APSP must be at least 5x faster than the seed
implementation, with identical output tables; at ``n = 1024`` the pruned
diameter and radius together must be at least 2x faster than the all-pairs
reduction, with identical values and node sets; and the SciPy gated kernel
must clear ``REQUIRED_GATED_SPEEDUP`` over the reference with identical rows
and message totals.
"""

from __future__ import annotations

import importlib.util
import statistics
import time
from pathlib import Path

import pytest
from conftest import run_once

from repro.analysis import kernel_scaling_workloads, render_table
from repro.congest import Network, force_engine
from repro.core.parameters import AlgorithmParameters, ParameterProfile
from repro.graphs import random_weighted_graph, yao_spanner_graph
from repro.graphs.shortest_paths import all_pairs_distances
from repro.kernels import (
    CSRGraph,
    all_pairs_distances_csr,
    available_backends,
    force_backend,
    get_backend,
)
from repro.nanongkai import multi_source_bounded_hop_protocol, sample_skeleton_sets

_REFERENCE_PATH = (
    Path(__file__).parent.parent / "tests" / "graphs" / "shortest_path_reference.py"
)


def _reference():
    """``all_pairs_distances_reference``, loaded from the test suite by path."""
    spec = importlib.util.spec_from_file_location("shortest_path_reference", _REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.all_pairs_distances_reference


all_pairs_distances_reference = _reference()

HEADERS = ["implementation", "n", "time [s]", "speedup", "matches reference"]

#: Acceptance floor for the accelerated backend on the 500-node instance;
#: SciPy's compiled Dijkstra clears 5x with margin.
REQUIRED_SPEEDUP = {"scipy": 5.0}

#: Floor for the pruned diameter + radius over the all-pairs reduction at
#: n = 1024, measured 2.6-3.2x with SciPy on a 2-CPU container.  The ladder's random graphs are the hard case: the pruning
#: needs ~130 sources per extreme there, against 10-35 on the Theorem 1.1
#: Yao spanners.
REQUIRED_EXTREMAL_SPEEDUP = 2.0

#: Floor for the SciPy gated min-plus kernel over the pure-Python reference
#: on Algorithm 3's n = 256 inputs (180 columns, 20 palettes), median of
#: ``GATED_REPEATS`` calls each: measured 6.3-9.0x (median 7.9x) over 16
#: runs on a 2-CPU container.  Most of the SciPy time is its 20 Dijkstra
#: calls, one per palette.
REQUIRED_GATED_SPEEDUP = 4.5

#: Timed calls per backend in the gated row; the table reports the median.
GATED_REPEATS = 3


def _best_of(func, repeats: int = 3):
    """Smallest wall-clock over ``repeats`` runs (load-noise resistant)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def _sweep():
    graph = random_weighted_graph(500, average_degree=4.0, max_weight=100, seed=1)
    # Warm the snapshot cache outside the timed region: the comparison
    # targets the kernels, not the one-off CSR construction (which is itself
    # amortised across every later kernel call on the same graph).
    CSRGraph.from_graph(graph)

    seed_time, seed_table = _best_of(lambda: all_pairs_distances_reference(graph))
    rows = [["seed (dict dijkstra)", 500, f"{seed_time:.3f}", "1.0x", "--"]]

    speedups = {}
    for backend in available_backends():
        with force_backend(backend):
            csr_time, csr_table = _best_of(lambda: all_pairs_distances_csr(graph))
        speedups[backend] = seed_time / csr_time
        rows.append(
            [
                f"csr[{backend}]",
                500,
                f"{csr_time:.3f}",
                f"{speedups[backend]:.1f}x",
                "yes" if csr_table == seed_table else "NO",
            ]
        )
        assert csr_table == seed_table, f"backend {backend} diverged from the seed"

    # The ladder the batched kernels unlock (public API, auto backend).
    backend = get_backend()
    extremal_speedups = {}
    for graph_n in kernel_scaling_workloads(node_counts=(128, 256, 512, 1024)):
        ladder_time, _ = _best_of(lambda: all_pairs_distances(graph_n), repeats=1)
        rows.append(
            [
                f"csr[{backend.name}] ladder",
                graph_n.num_nodes,
                f"{ladder_time:.3f}",
                "--",
                "--",
            ]
        )
        if backend.name == "python":
            continue  # there the kernel *is* the all-pairs reduction
        csr = CSRGraph.from_graph(graph_n)
        apsp_time, reduced = _best_of(lambda: _reduce_all_pairs(backend, csr), repeats=1)
        pruned_time, pruned = _best_of(
            lambda: [backend.extremal_eccentricity(csr, m) for m in (True, False)]
        )
        extremal_speedups[graph_n.num_nodes] = apsp_time / pruned_time
        rows.append(
            [
                f"extremal[{backend.name}] vs all-pairs",
                graph_n.num_nodes,
                f"{pruned_time:.4f}",
                f"{apsp_time / pruned_time:.1f}x",
                "yes" if pruned == reduced else "NO",
            ]
        )
        assert pruned == reduced, f"pruned extremes diverged at n={graph_n.num_nodes}"
    return rows, speedups, extremal_speedups


def _reduce_all_pairs(backend, csr):
    """Diameter and radius with their node sets, reduced from all-pairs rows."""
    eccentricities = [row.max() for row in backend.all_pairs(csr)]
    out = []
    for pick in (max, min):
        value = pick(eccentricities)
        out.append((value, [i for i, e in enumerate(eccentricities) if e == value]))
    return out


def test_bench_kernel_apsp(benchmark, record_artifact):
    rows, speedups, extremal_speedups = run_once(benchmark, _sweep)
    record_artifact(
        "kernels_apsp",
        render_table(HEADERS, rows, title="CSR kernel APSP vs seed implementation"),
    )
    if extremal_speedups:
        assert extremal_speedups[1024] >= REQUIRED_EXTREMAL_SPEEDUP, (
            f"pruned extremes reached only {extremal_speedups[1024]:.1f}x over "
            f"the all-pairs reduction at n=1024 (needs {REQUIRED_EXTREMAL_SPEEDUP}x)"
        )
    accelerated = {
        backend: value for backend, value in speedups.items() if backend != "python"
    }
    if not accelerated:
        # No accelerated backend in this environment; the fallback only has
        # to be correct, which the assertions above already established.
        return
    # The floor applies to the CSR acceleration itself, independent of any
    # REPRO_BACKEND forcing in effect: the best accelerated backend (the one
    # `auto` would pick in an unforced environment) must clear it.
    best_backend = max(accelerated, key=accelerated.get)
    floor = REQUIRED_SPEEDUP[best_backend]
    assert accelerated[best_backend] >= floor, (
        f"best accelerated backend '{best_backend}' reached only "
        f"{accelerated[best_backend]:.1f}x (needs {floor}x)"
    )


def _algorithm3_inputs(monkeypatch):
    """The ``gated_minplus`` arguments of one Algorithm 3 run on
    ``yao_spanner_graph(256, seed=0)``: one skeleton set and the Theorem 1.1
    FAST parameters, as a Theorem 1.1 op would run it."""
    network = Network(yao_spanner_graph(256, seed=0))
    parameters = AlgorithmParameters.for_network(network, ParameterProfile.FAST)
    skeleton = sample_skeleton_sets(network.nodes, parameters.skeleton_size, 1, seed=1)[0]
    scipy = type(get_backend("scipy"))
    calls = []
    gated_minplus = scipy.gated_minplus

    def recording(self, *args):
        calls.append(args)
        return gated_minplus(self, *args)

    with monkeypatch.context() as patch, force_engine("symbolic"), force_backend("scipy"):
        patch.setattr(scipy, "gated_minplus", recording)
        multi_source_bounded_hop_protocol(
            network, skeleton, parameters.hop_bound, parameters.epsilon, seed=1
        )
    (inputs,) = calls
    return inputs


def _gated_sweep(inputs):
    """Per backend, ``GATED_REPEATS`` wall-clock samples and the output."""
    times, outputs = {}, {}
    for name in ("python", "scipy"):
        backend = get_backend(name)
        samples = []
        for _ in range(GATED_REPEATS):
            start = time.perf_counter()
            rows, totals = backend.gated_minplus(*inputs)
            samples.append(time.perf_counter() - start)
        times[name] = samples
        outputs[name] = ([list(row) for row in rows], totals)
    return times, outputs


@pytest.mark.skipif("scipy" not in available_backends(), reason="SciPy backend not installed")
def test_bench_gated_minplus(benchmark, monkeypatch, record_artifact, record_json):
    inputs = _algorithm3_inputs(monkeypatch)
    csr, palettes, _, columns, _, _ = inputs
    times, outputs = run_once(benchmark, _gated_sweep, inputs)
    identical = outputs["scipy"] == outputs["python"]
    medians = {name: statistics.median(samples) for name, samples in times.items()}
    speedup = medians["python"] / medians["scipy"]
    rows = [
        [
            f"gated_minplus[{name}]",
            csr.num_nodes,
            f"{medians[name]:.4f}",
            f"{medians['python'] / medians[name]:.1f}x",
            "yes" if identical else "NO",
        ]
        for name in ("python", "scipy")
    ]
    record_artifact(
        "kernels_gated",
        render_table(
            HEADERS,
            rows,
            title=(
                f"Gated min-plus kernel on Algorithm 3's inputs "
                f"({len(columns)} columns, {len(palettes)} palettes)"
            ),
        ),
    )
    record_json(
        "kernels_gated",
        {
            "workload": (
                "Algorithm 3 gated_minplus inputs: yao_spanner_graph(256, seed=0), "
                "one FAST-profile skeleton set"
            ),
            "n": csr.num_nodes,
            "columns": len(columns),
            "palettes": len(palettes),
            "repeats": GATED_REPEATS,
            "seconds": {
                name: [round(t, 5) for t in samples] for name, samples in times.items()
            },
            "median_seconds": {name: round(t, 5) for name, t in medians.items()},
            "speedup": round(speedup, 2),
            "speedup_floor": REQUIRED_GATED_SPEEDUP,
            "identical": identical,
        },
    )
    assert identical, "the SciPy gated kernel diverged from the reference"
    assert speedup >= REQUIRED_GATED_SPEEDUP, (
        f"the SciPy gated kernel reached only {speedup:.1f}x over the reference "
        f"(needs {REQUIRED_GATED_SPEEDUP}x)"
    )
