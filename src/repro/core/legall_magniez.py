"""Round-cost models for the Le Gall-Magniez quantum algorithms (unweighted case).

Table 1 compares this paper's weighted algorithm against Le Gall and
Magniez's quantum algorithms for the *unweighted* diameter and radius:

* exact / ``(3/2 - ε)``-approximate unweighted diameter and radius in
  ``Õ(sqrt(n·D))`` rounds, and
* a ``3/2``-approximation of the diameter in ``Õ((n·D)^{1/3} + D)`` rounds.

Together with Theorem 1.2 of the paper (the ``Ω̃(n^{2/3})`` lower bound for
weighted graphs with ``D = Θ(log n)``), these formulas exhibit the separation
between weighted and unweighted diameter/radius in the quantum CONGEST model.
Re-implementing the full Le Gall-Magniez machinery is outside the paper's own
scope (it is cited, not reproved), so these rows of Table 1 are represented
by explicit cost formulas -- the same way the paper itself uses them.  A
small polylog factor makes the formulas comparable with the *measured*
congestion-adjusted rounds of the simulated protocols, which also carry
their own log factors.
"""

from __future__ import annotations

import math

__all__ = [
    "legall_magniez_unweighted_diameter_rounds",
    "legall_magniez_unweighted_radius_rounds",
    "legall_magniez_three_halves_diameter_rounds",
    "quantum_eccentricity_rounds",
]


def _polylog(num_nodes: int) -> float:
    """The polylog factor attached to every ``Õ``-style formula here."""
    return max(1.0, math.log2(max(2, num_nodes)))


def legall_magniez_unweighted_diameter_rounds(
    num_nodes: int, unweighted_diameter: float
) -> float:
    """``Õ(sqrt(n·D))`` -- exact unweighted diameter [Le Gall-Magniez, PODC 2018]."""
    n = max(2, num_nodes)
    d = max(1.0, unweighted_diameter)
    return math.sqrt(n * d) * _polylog(n)


def legall_magniez_unweighted_radius_rounds(
    num_nodes: int, unweighted_diameter: float
) -> float:
    """``Õ(sqrt(n·D))`` -- exact unweighted radius [Le Gall-Magniez, PODC 2018]."""
    return legall_magniez_unweighted_diameter_rounds(num_nodes, unweighted_diameter)


def legall_magniez_three_halves_diameter_rounds(
    num_nodes: int, unweighted_diameter: float
) -> float:
    """``Õ((n·D)^{1/3} + D)`` -- 3/2-approximate unweighted diameter."""
    n = max(2, num_nodes)
    d = max(1.0, unweighted_diameter)
    return ((n * d) ** (1 / 3) + d) * _polylog(n)


def quantum_eccentricity_rounds(num_nodes: int, unweighted_diameter: float) -> float:
    """``Θ̃(sqrt(n))`` -- evaluating one node's eccentricity quantumly.

    This is the primitive whose cost (lower bound by Elkin et al., upper
    bound within the Le Gall-Magniez framework) makes the naive
    "Grover over all nodes" approach cost ``Θ̃(n)`` rounds, motivating the
    skeleton-set construction of Section 3 (see the paper's introduction).
    """
    n = max(2, num_nodes)
    return math.sqrt(n) * _polylog(n) + max(1.0, unweighted_diameter)
