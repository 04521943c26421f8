"""Classical CONGEST baselines for weighted diameter and radius.

These populate the classical columns of Table 1 for the weighted problem:

* :func:`classical_exact_diameter` / :func:`classical_exact_radius` -- exact
  values via distributed APSP, convergecast and broadcast (the role played by
  Bernstein-Nanongkai's ``Õ(n)`` algorithm in the paper; the measured rounds
  of our simpler APSP land in the same near-linear-or-worse regime, which is
  the only property the comparison uses).
* :func:`sssp_two_approximation_diameter` -- one exact SSSP from the leader
  plus a max-convergecast: the leader's eccentricity ``e`` satisfies
  ``e ≤ D ≤ 2e``, so ``2e`` is a 2-approximation from above and ``e`` one
  from below.  This is the classical cheap baseline corresponding to the
  ``Õ(sqrt(n) D^{1/4} + D)`` row of Table 1 (Chechik-Mukhtar); our SSSP is
  the textbook Bellman-Ford, so only the approximation factor -- not the
  round count -- matches that row.
* :func:`sssp_upper_bound_radius` -- the same single-source run gives
  ``R ≤ e``, an upper bound on the radius (and a 2-approximation since
  ``e ≤ 2R``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.congest.apsp import (
    classical_diameter_protocol,
    classical_eccentricity_protocol,
    classical_radius_protocol,
)
from repro.congest.network import Network
from repro.congest.simulator import RoundReport

__all__ = [
    "BaselineResult",
    "classical_exact_diameter",
    "classical_exact_radius",
    "sssp_two_approximation_diameter",
    "sssp_upper_bound_radius",
]


@dataclass
class BaselineResult:
    """A baseline's answer together with its measured round cost.

    Attributes
    ----------
    name:
        Human-readable protocol name.
    value:
        The computed (or bounding) value.
    lower_bound / upper_bound:
        The interval the protocol certifies for the true quantity (equal to
        ``value`` for the exact protocols).
    report:
        Measured round cost.
    """

    name: str
    value: float
    lower_bound: float
    upper_bound: float
    report: RoundReport

    @property
    def rounds(self) -> int:
        """Congestion-adjusted rounds of the protocol."""
        return self.report.congested_rounds


def classical_exact_diameter(
    network: Network, weighted: bool = True
) -> BaselineResult:
    """Exact (weighted by default) diameter via distributed APSP."""
    value, report = classical_diameter_protocol(network, weighted=weighted)
    return BaselineResult(
        name="classical-exact-diameter",
        value=value,
        lower_bound=value,
        upper_bound=value,
        report=report,
    )


def classical_exact_radius(network: Network, weighted: bool = True) -> BaselineResult:
    """Exact (weighted by default) radius via distributed APSP."""
    value, report = classical_radius_protocol(network, weighted=weighted)
    return BaselineResult(
        name="classical-exact-radius",
        value=value,
        lower_bound=value,
        upper_bound=value,
        report=report,
    )


def sssp_two_approximation_diameter(
    network: Network, source: Optional[int] = None
) -> BaselineResult:
    """2-approximation of the weighted diameter from one SSSP.

    The eccentricity ``e`` of any node satisfies ``e ≤ D ≤ 2e``; the returned
    ``value`` is ``2e`` (an over-estimate within a factor 2), with the
    certified interval ``[e, 2e]``.
    """
    if source is None:
        source = min(network.nodes)
    eccentricity, report = classical_eccentricity_protocol(network, source)
    return BaselineResult(
        name="sssp-2-approx-diameter",
        value=2 * eccentricity,
        lower_bound=eccentricity,
        upper_bound=2 * eccentricity,
        report=report,
    )


def sssp_upper_bound_radius(
    network: Network, source: Optional[int] = None
) -> BaselineResult:
    """Upper bound (and 2-approximation) of the weighted radius from one SSSP.

    ``R ≤ e(source) ≤ 2R`` for any source, so the returned eccentricity is a
    2-approximation from above.
    """
    if source is None:
        source = min(network.nodes)
    eccentricity, report = classical_eccentricity_protocol(network, source)
    return BaselineResult(
        name="sssp-upper-bound-radius",
        value=eccentricity,
        lower_bound=eccentricity / 2,
        upper_bound=eccentricity,
        report=report,
    )
