"""Classical all-pairs shortest paths and diameter/radius protocols.

These populate the *classical* rows of Table 1:

* :func:`distributed_unweighted_apsp` -- every node learns its hop distance to
  every other node.  Conceptually this is ``n`` concurrent BFS floods; the
  simulator's congestion accounting charges the contention on each edge, which
  reproduces the classical ``Θ̃(n)`` behaviour (Holzer-Wattenhofer / Peleg-
  Roditty-Tal achieve ``O(n)`` with careful pipelining; our measured
  congestion-adjusted rounds land in the same near-linear regime).
* :func:`distributed_weighted_apsp` -- every node learns its exact weighted
  distance to every other node via concurrent Bellman-Ford relaxations (the
  role played by Bernstein-Nanongkai's ``Õ(n)`` algorithm in the paper; the
  comparison uses only its exact outputs and its near-linear-or-worse round
  count, not that algorithm's round bound).
* :func:`classical_diameter_protocol` / :func:`classical_radius_protocol` --
  APSP, then local eccentricities, then a max/min convergecast and a broadcast
  so that *every node* outputs the answer (the paper's success criterion).
* :func:`classical_eccentricity_protocol` -- the eccentricity of a single
  node, the ``Θ̃(√n)``-hard primitive discussed in the introduction (here it
  costs an SSSP plus a convergecast).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.congest.network import Network
from repro.congest.primitives import (
    broadcast_from,
    build_bfs_tree,
    convergecast_max,
    convergecast_min,
)
from repro.congest.simulator import RoundReport, Simulator
from repro.congest.sssp import (
    _BellmanFordAlgorithm,
    multi_source_bellman_ford,
)

__all__ = [
    "distributed_unweighted_apsp",
    "distributed_weighted_apsp",
    "classical_diameter_protocol",
    "classical_radius_protocol",
    "classical_eccentricity_protocol",
]


def distributed_unweighted_apsp(
    network: Network,
) -> Tuple[Dict[int, Dict[int, float]], RoundReport]:
    """Hop distances between all pairs, learned locally by every node.

    Returns ``(distances, report)`` where ``distances[v][u]`` is the hop
    distance from ``u`` as known at node ``v``.
    """
    unit_network = network.unit_weight_companion()
    distances, report = multi_source_bellman_ford(unit_network, unit_network.nodes)
    report.protocol = "unweighted-apsp"
    return distances, report


def distributed_weighted_apsp(
    network: Network,
) -> Tuple[Dict[int, Dict[int, float]], RoundReport]:
    """Exact weighted distances between all pairs, learned locally by every node."""
    distances, report = multi_source_bellman_ford(network, network.nodes)
    report.protocol = "weighted-apsp"
    return distances, report


def _eccentricities_from_apsp(
    distances: Dict[int, Dict[int, float]]
) -> Dict[int, float]:
    """Each node's eccentricity computed from its local distance vector."""
    return {node: max(vector.values()) for node, vector in distances.items()}


def classical_diameter_protocol(
    network: Network, weighted: bool = True
) -> Tuple[float, RoundReport]:
    """Exact diameter via APSP + convergecast + broadcast.

    Every node ends up knowing the diameter; the returned report covers the
    complete protocol (APSP, BFS tree, convergecast, broadcast).
    """
    apsp = distributed_weighted_apsp if weighted else distributed_unweighted_apsp
    distances, apsp_report = apsp(network)
    eccentricities = _eccentricities_from_apsp(distances)

    leader = min(network.nodes)
    tree, tree_report = build_bfs_tree(network, leader)
    diameter_value, cc_report = convergecast_max(network, eccentricities, tree=tree)
    _, bc_report = broadcast_from(network, leader, diameter_value, tree=tree)

    report = RoundReport.sequential([apsp_report, tree_report, cc_report, bc_report])
    report.protocol = "classical-diameter" + ("-weighted" if weighted else "")
    return diameter_value, report


def classical_radius_protocol(
    network: Network, weighted: bool = True
) -> Tuple[float, RoundReport]:
    """Exact radius via APSP + convergecast + broadcast (all nodes learn it)."""
    apsp = distributed_weighted_apsp if weighted else distributed_unweighted_apsp
    distances, apsp_report = apsp(network)
    eccentricities = _eccentricities_from_apsp(distances)

    leader = min(network.nodes)
    tree, tree_report = build_bfs_tree(network, leader)
    radius_value, cc_report = convergecast_min(network, eccentricities, tree=tree)
    _, bc_report = broadcast_from(network, leader, radius_value, tree=tree)

    report = RoundReport.sequential([apsp_report, tree_report, cc_report, bc_report])
    report.protocol = "classical-radius" + ("-weighted" if weighted else "")
    return radius_value, report


def classical_eccentricity_protocol(
    network: Network, node: int, weighted: bool = True
) -> Tuple[float, RoundReport]:
    """The eccentricity of a single node, computed distributively.

    Runs an exact SSSP from ``node`` (weighted Bellman-Ford or BFS) followed
    by a max-convergecast of the learned distances.  This is the primitive
    whose ``Θ̃(√n)`` quantum round complexity (Elkin et al. lower bound, Le
    Gall-Magniez upper bound) motivates the paper's set-sampling approach: one
    cannot afford to evaluate it separately for every node.
    """
    if node not in network.graph:
        raise KeyError(f"node {node} is not in the network")
    target_network = network if weighted else network.unit_weight_companion()
    simulator = Simulator(target_network)
    result = simulator.run(
        _BellmanFordAlgorithm([node]), halt_on_quiescence=True
    )
    distances = {v: out[node] for v, out in result.outputs.items()}
    sssp_report = result.report

    value, cc_report = convergecast_max(network, distances, root=node)
    report = RoundReport.sequential([sssp_report, cc_report])
    report.protocol = "eccentricity"
    return value, report
