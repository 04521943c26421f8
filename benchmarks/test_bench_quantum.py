"""E12 -- quantum search: the two-class state vs the statevector reference.

Dürr-Høyer maximum finding runs on the exact two-class amplitude state
(:mod:`repro.quantum.grover`), so a Grover iteration costs O(1).  Its
``quantum_extremum_reference`` twin runs the same draws on a full ``2**q``
pure-Python statevector.  This benchmark times both, on the same values and
seed, hence the same iteration schedules and query counts.

Three properties are pinned:

* **Observational identity**: the reference and the two-class path report
  the same optimum and the same oracle-query count.
* **Two-class speedup floor**: at ``N = 2048`` the two-class path must beat
  the reference by at least 50x (141-236x, median 188x, over 12 runs on a
  2-vCPU x86-64 container).  Both sides are timed in the same process, so
  the ratio travels across runner hardware better than absolute timings.
* **Large-domain ceiling**: a ``2**20``-element domain, out of reach for the
  reference, finishes on the two-class path within ``HUGE_DOMAIN_SECONDS``
  (1.19-2.26 s, median 1.46 s, over the same 12 runs).
"""

from __future__ import annotations

import math
import random
import time

from conftest import run_once

from repro.analysis import render_table
from repro.quantum import quantum_extremum_reference, quantum_maximum

DOMAIN = 2048
HUGE_DOMAIN = 2**20
SEED = 3
REPETITIONS = 3
TIMING_ROUNDS = 3
TWO_CLASS_FLOOR = 50.0
HUGE_DOMAIN_SECONDS = 5.0

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


def _sweep():
    values = _workload_values(DOMAIN)
    huge = _workload_values(HUGE_DOMAIN)
    return [
        _time(
            "reference",
            DOMAIN,
            lambda: quantum_extremum_reference(
                values, True, rng=SEED, repetitions=REPETITIONS
            ),
        ),
        _time(
            "two-class",
            DOMAIN,
            lambda: quantum_maximum(values, rng=SEED, repetitions=REPETITIONS),
        ),
        _time(
            "two-class",
            HUGE_DOMAIN,
            lambda: quantum_maximum(huge, rng=SEED, repetitions=REPETITIONS),
            rounds=1,
        ),
    ]


def test_two_class_speedup(benchmark, record_artifact, record_json):
    measurements = run_once(benchmark, _sweep)
    reference, two_class, huge = measurements
    speedup = reference["best_seconds"] / two_class["best_seconds"]
    reference["speedup"] = 1.0
    two_class["speedup"] = round(speedup, 2)
    huge["speedup"] = None

    rows = [
        [
            entry["domain_size"],
            entry["path"],
            round(entry["best_seconds"] * 1e3, 2),
            entry["oracle_queries"],
            entry["value"],
            f"{entry['speedup']:.1f}x vs reference" if entry["speedup"] else "-",
        ]
        for entry in measurements
    ]
    table = render_table(
        HEADERS,
        rows,
        title=(
            f"Quantum search: Dürr-Høyer maximum, two-class state vs statevector "
            f"reference (seed {SEED}, {REPETITIONS} repetitions)"
        ),
    )
    record_artifact("quantum_two_class", table)
    record_json(
        "quantum_two_class",
        {
            "workload": {
                "algorithm": "quantum_maximum",
                "domain_sizes": [DOMAIN, HUGE_DOMAIN],
                "seed": SEED,
                "repetitions": REPETITIONS,
                "timing_rounds": TIMING_ROUNDS,
            },
            "results": measurements,
            "two_class_floor": TWO_CLASS_FLOOR,
            "huge_domain_seconds": HUGE_DOMAIN_SECONDS,
        },
    )

    # Observational identity: same optimum, same queries on both paths.
    assert two_class["value"] == reference["value"]
    assert two_class["oracle_queries"] == reference["oracle_queries"]

    # Query counts stay Grover-like on this domain.
    assert two_class["oracle_queries"] <= REPETITIONS * (
        2 * (9 * math.sqrt(DOMAIN) + 20) + 20
    )

    # The two-class state must clear its floor over the reference.
    assert speedup >= TWO_CLASS_FLOOR, (
        f"two-class only {speedup:.1f}x over the reference at N={DOMAIN} "
        f"(floor {TWO_CLASS_FLOOR}x)"
    )

    # A 2**20 domain finishes in seconds on the two-class state.
    assert huge["best_seconds"] < HUGE_DOMAIN_SECONDS
    assert huge["is_exact"]
