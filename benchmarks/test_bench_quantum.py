"""E12 -- quantum search: the two-class state vs the statevector reference.

Dürr-Høyer maximum finding runs on the exact two-class amplitude state
(:mod:`repro.quantum.grover`), which needs no statevector backend.  Its
``quantum_extremum_reference`` twin runs the same draws on a full ``2**q``
statevector of the selected backend (:mod:`repro.quantum.backend`).  This
benchmark times both, on the same values and seed, hence the same iteration
schedules and query counts.

Three properties are pinned:

* **Observational identity**: every reference backend and the two-class
  path report the same optimum and the same oracle-query count.
* **Backend-relative speedup floor**: on the reference, the vectorized NumPy
  tier must beat the pure-Python tier by at least 5x on an ``n = 2048``
  workload.
* **Two-class speedup floor**: at ``N = 2**14`` the two-class path must beat
  the NumPy reference by at least 10x (19-30x measured on a 2-CPU x86-64
  VM).

Both ratios are measured on the same machine in the same process, so they
are stable across runner hardware in a way absolute timings are not.  A
``2**20``-element domain, out of reach for the reference (minutes), is timed
on the two-class path alone.
"""

from __future__ import annotations

import math
import random
import time

from conftest import run_once

from repro.analysis import render_table
from repro.quantum import available_backends, quantum_extremum_reference, quantum_maximum

DOMAIN = 2048
LARGE_DOMAIN = 2**14
HUGE_DOMAIN = 2**20
SEED = 3
REPETITIONS = 3
TIMING_ROUNDS = 3
SPEEDUP_FLOOR = 5.0
TWO_CLASS_FLOOR = 10.0
HUGE_DOMAIN_SECONDS = 60.0
# The N = 2**14 reference runs on NumPy when it is registered.
LARGE_REFERENCE = "reference/" + ("numpy" if "numpy" in available_backends() else "python")

HEADERS = [
    "N",
    "path",
    "best time (ms)",
    "oracle queries",
    "optimum found",
    "speedup",
]


def _workload_values(domain):
    values = list(range(domain))
    random.Random(29).shuffle(values)
    return values


def _time(label, domain, search, rounds=TIMING_ROUNDS):
    timings = []
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = search()
        timings.append(time.perf_counter() - start)
    return {
        "path": label,
        "domain_size": domain,
        "best_seconds": min(timings),
        "oracle_queries": result.oracle_queries,
        "value": result.value,
        "is_exact": bool(result.is_exact),
    }


def _reference(values, backend):
    return lambda: quantum_extremum_reference(
        values, True, rng=SEED, repetitions=REPETITIONS, backend=backend
    )


def _two_class(values):
    return lambda: quantum_maximum(values, rng=SEED, repetitions=REPETITIONS)


def _sweep():
    values = _workload_values(DOMAIN)
    rows = [
        _time(f"reference/{name}", DOMAIN, _reference(values, name))
        for name in sorted(available_backends())
    ]
    rows.append(_time("two-class", DOMAIN, _two_class(values)))
    large = _workload_values(LARGE_DOMAIN)
    reference_backend = LARGE_REFERENCE.split("/")[1]
    rows.append(_time(LARGE_REFERENCE, LARGE_DOMAIN, _reference(large, reference_backend)))
    rows.append(_time("two-class", LARGE_DOMAIN, _two_class(large)))
    huge = _workload_values(HUGE_DOMAIN)
    rows.append(_time("two-class", HUGE_DOMAIN, _two_class(huge), rounds=1))
    return rows


def test_quantum_backend_speedup(benchmark, record_artifact, record_json):
    measurements = run_once(benchmark, _sweep)
    by_key = {(entry["domain_size"], entry["path"]): entry for entry in measurements}
    python_time = by_key[(DOMAIN, "reference/python")]["best_seconds"]
    large_reference = by_key[(LARGE_DOMAIN, LARGE_REFERENCE)]

    rows = []
    for entry in measurements:
        domain = entry["domain_size"]
        if domain == DOMAIN:
            baseline, versus = python_time, "reference/python"
        elif domain == LARGE_DOMAIN:
            baseline, versus = large_reference["best_seconds"], LARGE_REFERENCE
        else:
            baseline, versus = None, None
        speedup = baseline / entry["best_seconds"] if baseline else None
        entry["speedup"] = round(speedup, 2) if speedup else None
        entry["speedup_versus"] = versus
        rows.append(
            [
                domain,
                entry["path"],
                round(entry["best_seconds"] * 1e3, 2),
                entry["oracle_queries"],
                entry["value"],
                f"{speedup:.1f}x vs {versus}" if speedup else "-",
            ]
        )
    table = render_table(
        HEADERS,
        rows,
        title=(
            f"Quantum search: Dürr-Høyer maximum, two-class state vs statevector "
            f"reference (seed {SEED}, {REPETITIONS} repetitions)"
        ),
    )
    record_artifact("quantum_backends", table)
    record_json(
        "quantum_backends",
        {
            "workload": {
                "algorithm": "quantum_maximum",
                "domain_sizes": [DOMAIN, LARGE_DOMAIN, HUGE_DOMAIN],
                "seed": SEED,
                "repetitions": REPETITIONS,
                "timing_rounds": TIMING_ROUNDS,
            },
            "results": measurements,
            "speedup_floor": SPEEDUP_FLOOR,
            "two_class_floor": TWO_CLASS_FLOOR,
        },
    )

    # Observational identity: same optimum, same queries on every path.
    for domain in (DOMAIN, LARGE_DOMAIN):
        entries = [entry for entry in measurements if entry["domain_size"] == domain]
        for entry in entries[1:]:
            assert entry["value"] == entries[0]["value"]
            assert entry["oracle_queries"] == entries[0]["oracle_queries"]

    # Query counts stay Grover-like on this domain.
    assert by_key[(DOMAIN, "two-class")]["oracle_queries"] <= REPETITIONS * (
        2 * (9 * math.sqrt(DOMAIN) + 20) + 20
    )

    # The vectorized reference tier must clear the backend-relative floor.
    if (DOMAIN, "reference/numpy") in by_key:
        numpy_speedup = python_time / by_key[(DOMAIN, "reference/numpy")]["best_seconds"]
        assert numpy_speedup >= SPEEDUP_FLOOR, (
            f"numpy reference only {numpy_speedup:.1f}x over python "
            f"(floor {SPEEDUP_FLOOR}x)"
        )

    # The two-class state must clear its floor over the NumPy reference.
    if LARGE_REFERENCE == "reference/numpy":
        two_class_speedup = by_key[(LARGE_DOMAIN, "two-class")]["speedup"]
        assert two_class_speedup >= TWO_CLASS_FLOOR, (
            f"two-class only {two_class_speedup:.1f}x over the numpy reference "
            f"at N={LARGE_DOMAIN} (floor {TWO_CLASS_FLOOR}x)"
        )

    # A 2**20 domain finishes in seconds on the two-class state.
    huge = by_key[(HUGE_DOMAIN, "two-class")]
    assert huge["best_seconds"] < HUGE_DOMAIN_SECONDS
    assert huge["is_exact"]
