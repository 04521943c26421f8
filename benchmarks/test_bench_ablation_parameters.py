"""Ablation -- the Eq. (1) parameter choices of the Theorem 1.1 algorithm.

The algorithm inherits three design choices from the paper:

* the skeleton-set size ``r = n^{2/5} D^{-1/5}`` (and with it the hop bound
  ``ℓ = n log n / r``),
* the shortcut parameter ``k = sqrt(D)`` used by the overlay, and
* the accuracy parameter ``ε`` (profile constant here).

This benchmark perturbs each knob independently around the paper's value on a
fixed workload and records the measured round charge and approximation ratio,
showing the trade-off each parameter controls:

* shrinking ``r`` makes the hop bound ``ℓ`` (and the toolkit cost) blow up,
  while growing ``r`` inflates the overlay and the per-invocation cost --
  the paper's value sits near the measured minimum;
* ``k`` trades Algorithm-4 cost (``|S|·k``) against Algorithm-5 cost
  (``|S|/k·D``);
* smaller ``ε`` tightens the ratio at the price of proportionally more rounds.
"""

from __future__ import annotations

import dataclasses
import math

from conftest import run_once

from repro.analysis import render_table
from repro.congest import Network
from repro.core import AlgorithmParameters, ParameterProfile, quantum_weighted_diameter
from repro.graphs import low_diameter_expander

HEADERS = [
    "ablation",
    "r (skeleton)",
    "hop bound l",
    "k",
    "eps",
    "measured rounds",
    "approx ratio",
]


def _network():
    return Network(low_diameter_expander(40, degree=6, max_weight=20, seed=6))


def _run(network, parameters, label):
    result = quantum_weighted_diameter(network, seed=9, parameters=parameters)
    return [
        label,
        round(parameters.skeleton_size, 2),
        parameters.hop_bound,
        parameters.shortcut_k,
        parameters.epsilon,
        result.total_rounds,
        f"{result.approximation_ratio:.3f}",
    ]


def _sweep():
    network = _network()
    n = network.num_nodes
    diameter_d = network.unweighted_diameter()
    log_n = max(2.0, math.log2(n))
    baseline = AlgorithmParameters.for_network(network, profile=ParameterProfile.FAST)

    rows = [_run(network, baseline, "paper choice (Eq. 1)")]

    # --- skeleton size r (hop bound follows l = n log n / r) --------------- #
    for factor, label in ((0.4, "r / 2.5"), (2.5, "r * 2.5")):
        r = max(1.0, baseline.skeleton_size * factor)
        params = dataclasses.replace(
            baseline,
            skeleton_size=r,
            hop_bound=max(1, math.ceil(n * log_n / r)),
        )
        rows.append(_run(network, params, f"skeleton size {label}"))

    # --- shortcut parameter k ---------------------------------------------- #
    for k, label in ((1, "k = 1"), (max(1, int(4 * math.sqrt(diameter_d))), "k = 4*sqrt(D)")):
        params = dataclasses.replace(baseline, shortcut_k=k)
        rows.append(_run(network, params, f"shortcut {label}"))

    # --- accuracy epsilon --------------------------------------------------- #
    params = dataclasses.replace(baseline, epsilon=0.25)
    rows.append(_run(network, params, "eps = 0.25 (tighter)"))
    params = dataclasses.replace(baseline, epsilon=1.0)
    rows.append(_run(network, params, "eps = 1.0 (looser)"))

    return rows


def test_parameter_ablation(benchmark, record_artifact):
    rows = run_once(benchmark, _sweep)
    table = render_table(
        HEADERS,
        rows,
        title="Ablation: perturbing the Eq. (1) parameters around the paper's choice",
    )
    record_artifact("ablation_parameters", table)

    baseline_rounds = rows[0][5]
    by_label = {row[0]: row for row in rows}

    # Every configuration still meets its own (1 + eps)^2 guarantee.
    for row in rows:
        guarantee = (1 + row[4]) ** 2
        assert float(row[6]) <= guarantee + 1e-9

    # Shrinking the skeleton (larger hop bound) must cost more rounds than the
    # paper's choice; the paper's choice stays within a factor ~3 of the best
    # configuration found by the sweep.
    assert by_label["skeleton size r / 2.5"][5] > baseline_rounds
    cheapest = min(row[5] for row in rows)
    assert baseline_rounds <= 3 * cheapest

    # A tighter epsilon costs more rounds than a looser one.
    assert by_label["eps = 0.25 (tighter)"][5] > by_label["eps = 1.0 (looser)"][5]
