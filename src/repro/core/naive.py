"""The naive quantum-search baseline the paper's introduction argues against.

Section 1.1 of the paper explains why Theorem 1.1 needs the skeleton-set
machinery: simply running quantum search over all ``n`` nodes for the one of
maximum (or minimum) eccentricity does **not** give a sublinear algorithm,
because

* evaluating one node's eccentricity takes ``Θ̃(sqrt(n))`` rounds in the
  quantum CONGEST model (here: the measured cost of the classical
  SSSP + convergecast evaluation, which is what our cost model charges), and
* the search needs ``Θ̃(sqrt(n))`` evaluations when only ``O(1)`` nodes attain
  the extremum,

for a total of ``Θ̃(n)`` rounds -- no better than the classical protocol.

:func:`naive_quantum_diameter` and :func:`naive_quantum_radius` implement this
strawman faithfully (Lemma 3.1 over the node set, Evaluation = one distributed
eccentricity computation), so the benchmarks can show the gap between it and
the skeleton-based algorithm of Theorem 1.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.congest.apsp import classical_eccentricity_protocol
from repro.congest.network import Network
from repro.congest.primitives import broadcast_from, build_bfs_tree
from repro.core.diameter_radius import _search_rng
from repro.kernels import eccentricities_csr
from repro.quantum_congest.model import ProcedureCosts, QuantumCongestCharge
from repro.quantum_congest.optimizer import DistributedQuantumOptimizer, SearchMode

__all__ = ["NaiveSearchResult", "naive_quantum_diameter", "naive_quantum_radius"]


@dataclass
class NaiveSearchResult:
    """Outcome of the naive "Grover over all nodes" algorithm.

    Attributes
    ----------
    problem:
        ``"diameter"`` or ``"radius"``.
    value:
        The eccentricity of the node the search returned (exact for that
        node -- the naive algorithm has no approximation error, only an
        enormous round cost).
    chosen_node:
        The node the search returned.
    charge:
        The Lemma 3.1 round charge (``T0 + invocations * T``).
    exact_value:
        The true diameter/radius.
    succeeded:
        Whether the returned node attains the true extremum.
    """

    problem: str
    value: float
    chosen_node: int
    charge: QuantumCongestCharge
    exact_value: float
    succeeded: bool

    @property
    def total_rounds(self) -> int:
        """Charged quantum CONGEST rounds."""
        return self.charge.total_rounds


def _naive_search(
    network: Network, maximize: bool, seed: int, delta: float
) -> NaiveSearchResult:
    problem = "diameter" if maximize else "radius"
    rng = _search_rng(seed)

    # The Evaluation black box: one distributed eccentricity computation,
    # measured once on a representative node (every branch of the
    # superposition costs the same up to constants).
    representative = min(network.nodes)
    _, evaluation_report = classical_eccentricity_protocol(network, representative)

    # Setup: the leader broadcasts the superposed node identifier, O(D).
    leader = min(network.nodes)
    tree, tree_report = build_bfs_tree(network, leader)
    _, setup_report = broadcast_from(network, leader, 0, tree=tree)

    costs = ProcedureCosts(
        initialization=tree_report,
        setup=setup_report,
        evaluation=evaluation_report,
        label=f"naive[{problem}]",
    )
    optimizer = DistributedQuantumOptimizer(
        costs, delta=delta, rng=rng, mode=SearchMode.QUERY_MODEL
    )

    # Ground-truth eccentricities for the search oracle, via one batched
    # APSP kernel pass (never charged rounds).
    eccentricities = eccentricities_csr(network.graph)
    search = optimizer.maximize if maximize else optimizer.minimize
    outcome = search(
        network.nodes,
        lambda node: eccentricities[node],
        rho=1.0 / network.num_nodes,
    )

    exact = max(eccentricities.values()) if maximize else min(eccentricities.values())
    return NaiveSearchResult(
        problem=problem,
        value=outcome.value,
        chosen_node=outcome.element,
        charge=outcome.charge,
        exact_value=exact,
        succeeded=outcome.value == exact,
    )


def naive_quantum_diameter(
    network: Network, seed: int = 0, delta: float = 0.1
) -> NaiveSearchResult:
    """Quantum search over all nodes for the maximum eccentricity (strawman).

    Exact when it succeeds, but its charged rounds are
    ``Θ̃(sqrt(n)) * Θ̃(eccentricity cost)``, i.e. no better than classical --
    this is the baseline Theorem 1.1 improves on for small ``D``.
    """
    return _naive_search(network, maximize=True, seed=seed, delta=delta)


def naive_quantum_radius(
    network: Network, seed: int = 0, delta: float = 0.1
) -> NaiveSearchResult:
    """Quantum search over all nodes for the minimum eccentricity (strawman)."""
    return _naive_search(network, maximize=False, seed=seed, delta=delta)
