"""Label-space wrappers around the CSR kernel backends.

These are the functions the rest of the library calls.  They accept either a
:class:`~repro.graphs.weighted_graph.WeightedGraph` (snapshotted through the
CSR cache) or a pre-built :class:`~repro.kernels.csr.CSRGraph`, translate node
labels to dense indices, dispatch to the selected backend, and normalise the
results back to the library's historical conventions:

* distances are plain Python ``int`` values (the graphs carry positive
  integer weights, so every finite distance is an integer), and
* unreachable nodes map to the module-level :data:`repro.graphs.shortest_paths.INFINITY`
  object itself, preserving the ``value is INFINITY`` identity checks used
  elsewhere in the library.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.kernels.backend import get_backend
from repro.kernels.csr import CSRGraph
from repro.graphs.weighted_graph import WeightedGraph

__all__ = [
    "dijkstra_csr",
    "multi_source_dijkstra",
    "batched_bellman_ford",
    "all_pairs_distances_csr",
    "eccentricities_csr",
    "extremal_eccentricity_csr",
    "diameter_csr",
    "radius_csr",
]

_INF = math.inf

GraphLike = Union[WeightedGraph, CSRGraph]


def _snapshot(graph: GraphLike) -> CSRGraph:
    if isinstance(graph, CSRGraph):
        return graph
    return CSRGraph.from_graph(graph)


def _as_scalar(value: float) -> float:
    """Normalise one backend distance to ``int`` or the ``INFINITY`` object;
    an ``int`` (the exact reference's) passes through unrounded."""
    if isinstance(value, int):
        return value
    value = float(value)
    if math.isinf(value):
        return _INF
    return int(value)


def _as_dict(csr: CSRGraph, row: Sequence[float]) -> Dict[int, float]:
    if isinstance(row, list):
        # The Python backend already emits ints plus the INFINITY object.
        return dict(zip(csr.nodes, row))
    # NumPy row: fully reachable rows convert through one C-level cast; the
    # (rare) rows with unreachable nodes fall back to per-element handling so
    # the INFINITY identity is preserved.
    if len(row) and not math.isinf(row.max()):
        return dict(zip(csr.nodes, row.astype("int64").tolist()))
    return {
        node: (_INF if math.isinf(value) else int(value))
        for node, value in zip(csr.nodes, row.tolist())
    }


def _source_index(csr: CSRGraph, source: int) -> int:
    try:
        return csr.index[source]
    except KeyError:
        raise KeyError(f"source node {source} is not in the graph") from None


# ---------------------------------------------------------------------- #
# Shortest-path kernels
# ---------------------------------------------------------------------- #
def dijkstra_csr(
    graph: GraphLike, source: int, backend: Optional[str] = None
) -> Dict[int, float]:
    """Exact single-source distances; drop-in for the dict-based Dijkstra."""
    csr = _snapshot(graph)
    row = get_backend(backend).sssp(csr, _source_index(csr, source))
    return _as_dict(csr, row)


def multi_source_dijkstra(
    graph: GraphLike, sources: Sequence[int], backend: Optional[str] = None
) -> Dict[int, Dict[int, float]]:
    """Exact distances from every source in one kernel invocation.

    Returns ``{source: {node: distance}}``; the per-source rows are identical
    to ``dijkstra_csr`` run source by source, which is what the pure-Python
    backend does; NumPy relaxes the batch vectorized and SciPy hands it to
    ``csgraph.dijkstra``.
    """
    csr = _snapshot(graph)
    source_indices = [_source_index(csr, source) for source in sources]
    rows = get_backend(backend).multi_source_sssp(csr, source_indices)
    return {source: _as_dict(csr, row) for source, row in zip(sources, rows)}


def batched_bellman_ford(
    graph: GraphLike,
    sources: Sequence[int],
    max_hops: int,
    backend: Optional[str] = None,
) -> Dict[int, Dict[int, float]]:
    """Hop-bounded distances ``d^l(s, .)`` for every source in one batch.

    ``max_hops`` is the hop budget ``l`` of Section 3.1: each entry is the
    least length over paths using at most ``l`` edges.
    """
    if max_hops < 0:
        raise ValueError(f"max_hops must be non-negative, got {max_hops}")
    csr = _snapshot(graph)
    source_indices = [_source_index(csr, source) for source in sources]
    rows = get_backend(backend).bounded_hop(csr, source_indices, max_hops)
    return {source: _as_dict(csr, row) for source, row in zip(sources, rows)}


def all_pairs_distances_csr(
    graph: GraphLike, backend: Optional[str] = None
) -> Dict[int, Dict[int, float]]:
    """Exact APSP as ``{source: {node: distance}}`` via the batched kernel."""
    csr = _snapshot(graph)
    rows = get_backend(backend).all_pairs(csr)
    return {node: _as_dict(csr, row) for node, row in zip(csr.nodes, rows)}


# ---------------------------------------------------------------------- #
# Eccentricity / diameter / radius reductions
# ---------------------------------------------------------------------- #
def eccentricities_csr(
    graph: GraphLike, backend: Optional[str] = None
) -> Dict[int, float]:
    """``e(u) = max_v d(u, v)`` for every node, from one batched APSP,
    memoised on the snapshot per backend (so the differential tests still
    observe each backend's own computation)."""
    csr = _snapshot(graph)
    resolved = get_backend(backend)
    memo_key = f"api:eccentricities:{resolved.name}"
    values = csr.memo.get(memo_key)
    if values is None:
        values = [
            _as_scalar(max(row) if isinstance(row, list) else row.max())
            for row in resolved.all_pairs(csr)
        ]
        csr.memo[memo_key] = values
    return dict(zip(csr.nodes, values))


def extremal_eccentricity_csr(
    graph: GraphLike, maximize: bool, backend: Optional[str] = None
) -> Tuple[float, List[int]]:
    """The diameter (``maximize``) or radius and every node attaining it, in
    snapshot order; memoised like :func:`eccentricities_csr`.  Raises on an
    empty graph."""
    csr = _snapshot(graph)
    if not csr.num_nodes:
        raise ValueError("eccentricities of an empty graph are undefined")
    resolved = get_backend(backend)
    memo_key = f"api:extremal-eccentricity:{resolved.name}:{maximize}"
    if memo_key not in csr.memo:
        value, indices = resolved.extremal_eccentricity(csr, maximize)
        csr.memo[memo_key] = (_as_scalar(value), [csr.nodes[i] for i in indices])
    value, nodes = csr.memo[memo_key]
    return value, list(nodes)


def diameter_csr(graph: GraphLike, backend: Optional[str] = None) -> float:
    """Weighted diameter ``D = max_u e(u)``; raises on an empty graph."""
    return extremal_eccentricity_csr(graph, True, backend)[0]


def radius_csr(graph: GraphLike, backend: Optional[str] = None) -> float:
    """Weighted radius ``R = min_u e(u)``; raises on an empty graph."""
    return extremal_eccentricity_csr(graph, False, backend)[0]
