"""Frozen CSR (compressed sparse row) snapshots of :class:`WeightedGraph`.

The dict-of-dicts adjacency of :class:`~repro.graphs.weighted_graph.WeightedGraph`
is convenient for the CONGEST simulator but slow for the sequential oracles:
every Dijkstra pass chases hash buckets and boxes every weight.  A
:class:`CSRGraph` flattens the adjacency into three parallel arrays

* ``indptr``  -- ``indptr[i]:indptr[i+1]`` is node ``i``'s adjacency slice,
* ``indices`` -- neighbor *indices* (dense ``0..n-1``, not original labels),
* ``weights`` -- the matching edge weights,

plus the label <-> index mapping needed to translate results back.  Because the
graph is undirected, every edge appears in both endpoint slices, so the slice
of node ``v`` simultaneously lists ``v``'s *incoming* edges -- which is exactly
the grouping the batched relaxation kernels need.

Snapshots are immutable by convention and cached on the source graph:
:meth:`CSRGraph.from_graph` stores the snapshot on the ``WeightedGraph``
keyed by its mutation counter, so repeated kernel calls on an unchanged graph
reuse the arrays and any mutation (``add_edge`` etc.) transparently
invalidates the cache.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.graphs.weighted_graph import WeightedGraph

__all__ = ["CSRGraph"]

_CACHE_ATTR = "_csr_cache"


class CSRGraph:
    """An immutable array-form snapshot of a :class:`WeightedGraph`.

    Attributes
    ----------
    nodes:
        The original node labels, in the graph's insertion order; index ``i``
        in every kernel array refers to ``nodes[i]``.
    index:
        Mapping from original label to dense index.
    indptr / indices / weights:
        The CSR arrays (plain Python lists; the SciPy backend and the dense
        engine mirror them into ``ndarray`` form lazily via
        :meth:`numpy_arrays`).
    """

    __slots__ = ("nodes", "index", "indptr", "indices", "weights", "memo", "_np")

    def __init__(
        self,
        nodes: Sequence[int],
        indptr: List[int],
        indices: List[int],
        weights: List[int],
    ) -> None:
        self.nodes: Tuple[int, ...] = tuple(nodes)
        self.index: Dict[int, int] = {node: i for i, node in enumerate(self.nodes)}
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        #: Scratch space for backend-private derived structures (degree
        #: buckets, sparse matrices, ...), keyed by backend-chosen strings.
        #: Tied to this snapshot's lifetime, so it never outlives the arrays.
        self.memo: Dict[str, object] = {}
        self._np: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(cls, graph: WeightedGraph) -> "CSRGraph":
        """Return the (cached) CSR snapshot of ``graph``.

        The snapshot is cached on the graph instance and keyed by the graph's
        mutation counter, so it is rebuilt automatically after any mutation.
        """
        version = getattr(graph, "_version", None)
        cached = getattr(graph, _CACHE_ATTR, None)
        if cached is not None and version is not None and cached[0] == version:
            return cached[1]
        snapshot = cls._build(graph)
        if version is not None:
            try:
                setattr(graph, _CACHE_ATTR, (version, snapshot))
            except AttributeError:  # pragma: no cover - slotted subclass
                pass
        return snapshot

    @classmethod
    def _build(cls, graph: WeightedGraph) -> "CSRGraph":
        nodes = graph.nodes
        index = {node: i for i, node in enumerate(nodes)}
        indptr: List[int] = [0] * (len(nodes) + 1)
        indices: List[int] = []
        weights: List[int] = []
        for i, node in enumerate(nodes):
            for neighbor, weight in graph.incident_edges(node):
                indices.append(index[neighbor])
                weights.append(weight)
            indptr[i + 1] = len(indices)
        return cls(nodes, indptr, indices, weights)

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_directed_edges(self) -> int:
        """Number of CSR entries (each undirected edge counted twice)."""
        return len(self.indices)

    def degree(self, i: int) -> int:
        return self.indptr[i + 1] - self.indptr[i]

    def with_weights(self, weights: Sequence[int]) -> "CSRGraph":
        """Return a snapshot sharing this topology with replaced weights.

        Used by the Lemma 3.2 rounding scheme, which re-weights the same
        topology once per rounding level; sharing ``indptr``/``indices``
        avoids re-walking the adjacency dicts.
        """
        if len(weights) != len(self.weights):
            raise ValueError(
                f"expected {len(self.weights)} weights, got {len(weights)}"
            )
        clone = CSRGraph.__new__(CSRGraph)
        clone.nodes = self.nodes
        clone.index = self.index
        clone.indptr = self.indptr
        clone.indices = self.indices
        clone.weights = list(weights)
        clone.memo = {}
        clone._np = None
        return clone

    # ------------------------------------------------------------------ #
    def numpy_arrays(self):
        """Return ``(indptr, indices, weights)`` as cached NumPy arrays.

        Only the SciPy backend and the dense engine call this; the import is
        deliberately local so the module stays importable without NumPy.
        """
        if self._np is None:
            import numpy as np

            self._np = (
                np.asarray(self.indptr, dtype=np.int64),
                np.asarray(self.indices, dtype=np.int64),
                np.asarray(self.weights, dtype=np.float64),
            )
        return self._np

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRGraph(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_directed_edges // 2})"
        )
