"""Weighted-graph substrate.

This subpackage provides the sequential (non-distributed) graph machinery that
every other layer of the reproduction builds on:

* :class:`~repro.graphs.weighted_graph.WeightedGraph` -- a simple, explicit
  adjacency-list representation of an undirected, positively weighted graph.
* Exact shortest-path algorithms (Dijkstra, Bellman-Ford, bounded-hop
  variants) in :mod:`repro.graphs.shortest_paths`.
* Graph-parameter computations (eccentricity, diameter, radius, hop diameter)
  in :mod:`repro.graphs.properties`.
* The weight-rounding scheme of Nanongkai used by Lemma 3.2 of the paper in
  :mod:`repro.graphs.rounding`.
* Edge contraction used by Lemma 4.3 in :mod:`repro.graphs.contraction`.
* Graph generators for the benchmark sweeps in :mod:`repro.graphs.generators`.

Everything here is deterministic and serves as ground truth for the
distributed and quantum algorithms implemented elsewhere.
"""

from repro.graphs.weighted_graph import WeightedGraph
from repro.graphs.shortest_paths import (
    dijkstra,
    bellman_ford,
    bounded_hop_distances,
    bounded_distance_sssp,
    all_pairs_distances,
    shortest_path,
)
from repro.graphs.properties import (
    eccentricity,
    all_eccentricities,
    diameter,
    radius,
    hop_distance,
    hop_diameter,
    center,
    periphery,
    unweighted_diameter,
)
from repro.graphs.rounding import (
    rounded_weight,
    rounded_weights,
    approx_bounded_hop_distance,
    approx_bounded_hop_distances_from,
    approx_bounded_hop_distances_multi,
)
from repro.graphs.contraction import contract_unit_weight_edges, ContractionResult
from repro.graphs.generators import (
    path_graph,
    cycle_graph,
    complete_graph,
    star_graph,
    grid_graph,
    balanced_binary_tree,
    erdos_renyi_graph,
    random_geometric_graph,
    barbell_graph,
    path_of_cliques,
    random_weighted_graph,
    random_tree,
    caterpillar_graph,
    low_diameter_expander,
    yao_spanner_graph,
)

__all__ = [
    "WeightedGraph",
    "dijkstra",
    "bellman_ford",
    "bounded_hop_distances",
    "bounded_distance_sssp",
    "all_pairs_distances",
    "shortest_path",
    "eccentricity",
    "all_eccentricities",
    "diameter",
    "radius",
    "hop_distance",
    "hop_diameter",
    "center",
    "periphery",
    "unweighted_diameter",
    "rounded_weight",
    "rounded_weights",
    "approx_bounded_hop_distance",
    "approx_bounded_hop_distances_from",
    "approx_bounded_hop_distances_multi",
    "contract_unit_weight_edges",
    "ContractionResult",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "grid_graph",
    "balanced_binary_tree",
    "erdos_renyi_graph",
    "random_geometric_graph",
    "barbell_graph",
    "path_of_cliques",
    "random_weighted_graph",
    "random_tree",
    "caterpillar_graph",
    "low_diameter_expander",
    "yao_spanner_graph",
]
