"""E11 -- Lemma 3.1: behaviour of the distributed quantum search primitive.

Two measurements back the cost model used everywhere else in the repo:

* **Grover / Dürr-Høyer query counts**: on explicit value tables the measured
  oracle-query counts of quantum maximum finding grow like ``sqrt(N)``
  (against ``N`` for any classical exact maximum), and the search still
  returns the true optimum essentially always.
* **Lemma 3.1 invocation counts**: the ``ceil(sqrt(log(1/δ)/ρ))`` factor the
  round charge uses, tabulated over the (ρ, δ) grid the algorithm actually
  hits (outer search ρ = r/n, inner search ρ = 1/|S|).
"""

from __future__ import annotations

import math
import random

from conftest import run_once

from repro.analysis import fit_power_law, render_table
from repro.quantum import quantum_maximum
from repro.quantum_congest import grover_invocation_count

SEARCH_HEADERS = [
    "domain size N",
    "mean oracle queries (measured)",
    "sqrt(N)",
    "success rate",
]
INVOCATION_HEADERS = ["rho", "delta", "invocations (Lemma 3.1)", "sqrt(ln(1/delta)/rho)"]


def _search_rows():
    rows = []
    for domain in (16, 64, 256, 1024):
        values = list(range(domain))
        random.Random(11).shuffle(values)
        queries = []
        successes = 0
        trials = 6
        for seed in range(trials):
            result = quantum_maximum(values, rng=seed, repetitions=1)
            queries.append(result.oracle_queries)
            successes += bool(result.is_exact)
        rows.append(
            [
                domain,
                round(sum(queries) / len(queries), 1),
                round(math.sqrt(domain), 1),
                f"{successes}/{trials}",
            ]
        )
    return rows


def _invocation_rows():
    rows = []
    for rho in (0.5, 0.1, 0.04, 0.01):
        for delta in (0.1, 0.01):
            rows.append(
                [
                    rho,
                    delta,
                    grover_invocation_count(rho, delta),
                    round(math.sqrt(math.log(1 / delta) / rho), 2),
                ]
            )
    return rows


def _sweep():
    return _search_rows(), _invocation_rows()


def test_quantum_search_scaling(benchmark, record_artifact, record_json):
    search_rows, invocation_rows = run_once(benchmark, _sweep)

    search_table = render_table(
        SEARCH_HEADERS,
        search_rows,
        title="Dürr-Høyer maximum finding: measured query counts",
    )
    invocation_table = render_table(
        INVOCATION_HEADERS,
        invocation_rows,
        title="Lemma 3.1 invocation counts over the (rho, delta) grid",
    )
    record_artifact("quantum_search", search_table + "\n\n" + invocation_table)

    # Query growth is square-root-like: fit and compare against linear.
    fit = fit_power_law([row[0] for row in search_rows], [row[1] for row in search_rows])
    record_json(
        "quantum_search",
        {
            "workload": {
                "domains": [row[0] for row in search_rows],
                "trials_per_domain": 6,
                "repetitions": 1,
            },
            "results": {
                "mean_oracle_queries": {
                    str(row[0]): row[1] for row in search_rows
                },
                "success_rates": {str(row[0]): row[3] for row in search_rows},
                "query_growth_exponent": fit.exponent,
                "invocation_grid": [
                    {
                        "rho": row[0],
                        "delta": row[1],
                        "invocations": row[2],
                        "formula": row[3],
                    }
                    for row in invocation_rows
                ],
            },
        },
    )
    assert 0.3 <= fit.exponent <= 0.75
    # The searches essentially always find the true maximum.
    total_success = sum(int(row[3].split("/")[0]) for row in search_rows)
    total_trials = sum(int(row[3].split("/")[1]) for row in search_rows)
    assert total_success >= 0.9 * total_trials
    # Lemma 3.1 counts match the formula within rounding.
    for row in invocation_rows:
        assert row[2] == math.ceil(row[3]) or row[2] == max(1, math.ceil(row[3]))
