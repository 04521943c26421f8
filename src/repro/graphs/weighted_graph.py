"""A small, explicit weighted-graph data structure.

The reproduction deliberately does not depend on :mod:`networkx` for its core
data structure: the CONGEST simulator needs cheap, predictable access to
adjacency lists and edge weights, and the graph class is a natural place to
hang the invariants the paper relies on (positive integer weights, undirected
edges, no self loops).  A :meth:`WeightedGraph.to_networkx` bridge is provided
for cross-checking against networkx in the test suite.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["WeightedGraph", "Edge"]

#: An undirected edge ``(u, v, weight)`` with ``u < v`` in canonical form.
Edge = Tuple[int, int, int]


class WeightedGraph:
    """An undirected graph with positive integer edge weights.

    Nodes are arbitrary hashable integers.  Weights must be positive integers,
    matching the paper's ``w : E -> N+``.  The class supports the handful of
    operations the rest of the library needs: adjacency iteration, weight
    lookup, node/edge counting, subgraph extraction and conversion to
    networkx.

    Parameters
    ----------
    nodes:
        Optional iterable of initial nodes.
    edges:
        Optional iterable of ``(u, v, weight)`` triples.

    Examples
    --------
    >>> g = WeightedGraph()
    >>> g.add_edge(0, 1, 5)
    >>> g.add_edge(1, 2, 3)
    >>> g.weight(0, 1)
    5
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    def __init__(
        self,
        nodes: Optional[Iterable[int]] = None,
        edges: Optional[Iterable[Edge]] = None,
    ) -> None:
        self._adjacency: Dict[int, Dict[int, int]] = {}
        #: Monotone mutation counter; :mod:`repro.kernels.csr` keys its frozen
        #: CSR snapshot cache on this so any mutation invalidates the snapshot.
        self._version: int = 0
        #: Memoized ``(version, digest)`` pair backing :meth:`content_digest`.
        self._digest_cache: Optional[Tuple[int, str]] = None
        #: Memoized ``(version, weight)`` pair backing :meth:`max_weight`.
        self._max_weight_cache: Tuple[int, int] = (-1, 0)
        if nodes is not None:
            for node in nodes:
                self.add_node(node)
        if edges is not None:
            for u, v, w in edges:
                self.add_edge(u, v, w)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: int) -> None:
        """Add ``node`` to the graph (a no-op if it already exists)."""
        if node not in self._adjacency:
            self._adjacency[node] = {}
            self._version += 1

    def add_edge(self, u: int, v: int, weight: int = 1) -> None:
        """Add the undirected edge ``{u, v}`` with the given positive weight.

        Adding an edge that already exists overwrites its weight.  Self loops
        are rejected because the paper's graphs are simple.
        """
        if u == v:
            raise ValueError(f"self loops are not allowed (node {u})")
        if not isinstance(weight, (int,)) or isinstance(weight, bool):
            raise TypeError(f"edge weight must be an int, got {type(weight).__name__}")
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        self.add_node(u)
        self.add_node(v)
        self._adjacency[u][v] = weight
        self._adjacency[v][u] = weight
        self._version += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the edge ``{u, v}``; raises ``KeyError`` if absent."""
        del self._adjacency[u][v]
        del self._adjacency[v][u]
        self._version += 1

    def remove_node(self, node: int) -> None:
        """Remove ``node`` and all incident edges."""
        for neighbor in list(self._adjacency[node]):
            del self._adjacency[neighbor][node]
        del self._adjacency[node]
        self._version += 1

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> List[int]:
        """A list of the graph's nodes in insertion order."""
        return list(self._adjacency)

    def __contains__(self, node: int) -> bool:
        return node in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(neighbors) for neighbors in self._adjacency.values()) // 2

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the edge ``{u, v}`` exists."""
        return u in self._adjacency and v in self._adjacency[u]

    def weight(self, u: int, v: int) -> int:
        """Return the weight of edge ``{u, v}``; raises ``KeyError`` if absent."""
        return self._adjacency[u][v]

    def neighbors(self, node: int) -> Iterator[int]:
        """Iterate over the neighbors of ``node``."""
        return iter(self._adjacency[node])

    def degree(self, node: int) -> int:
        """Return the number of neighbors of ``node``."""
        return len(self._adjacency[node])

    def incident_edges(self, node: int) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(neighbor, weight)`` pairs incident to ``node``."""
        return iter(self._adjacency[node].items())

    def edges(self) -> Iterator[Edge]:
        """Iterate over canonical ``(u, v, weight)`` triples, each edge once."""
        for u, neighbors in self._adjacency.items():
            for v, w in neighbors.items():
                if u <= v:
                    yield (u, v, w)

    def content_digest(self) -> str:
        """SHA-256 hex digest of the graph's canonical node/edge content.

        The digest is computed over the *sorted* node list and the sorted
        canonical edge list ``(u, v, w)`` with ``u <= v``, so two graphs that
        compare equal under ``==`` (same node set, same edge set) share a
        digest regardless of insertion order.  Node *labels* are part of the
        content: an isomorphic graph with relabeled nodes hashes differently,
        because protocol results (distances per node id, elected leader ids)
        depend on the labels, not just the shape.  The service-layer result
        cache (:mod:`repro.service.cache`) keys on this digest.

        The digest is memoized on the mutation counter, so repeated calls on
        an unmodified graph are O(1) and any mutation transparently
        invalidates it.
        """
        if self._digest_cache is not None and self._digest_cache[0] == self._version:
            return self._digest_cache[1]
        hasher = hashlib.sha256()
        hasher.update(b"repro.WeightedGraph.v1\n")
        for node in sorted(self._adjacency):
            hasher.update(b"n %d\n" % node)
        for u, v, w in sorted(self.edges()):
            hasher.update(b"e %d %d %d\n" % (u, v, w))
        digest = hasher.hexdigest()
        self._digest_cache = (self._version, digest)
        return digest

    def max_weight(self) -> int:
        """Return the maximum edge weight (``0`` for an edgeless graph),
        memoized on the mutation counter like :meth:`content_digest`."""
        if self._max_weight_cache[0] != self._version:
            weight = max((w for _, _, w in self.edges()), default=0)
            self._max_weight_cache = (self._version, weight)
        return self._max_weight_cache[1]

    def total_weight(self) -> int:
        """Return the sum of all edge weights."""
        return sum(w for _, _, w in self.edges())

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def copy(self) -> "WeightedGraph":
        """Return a deep copy of this graph."""
        clone = WeightedGraph(nodes=self.nodes)
        for u, v, w in self.edges():
            clone.add_edge(u, v, w)
        return clone

    def subgraph(self, nodes: Iterable[int]) -> "WeightedGraph":
        """Return the induced subgraph on ``nodes``."""
        selected = set(nodes)
        sub = WeightedGraph(nodes=selected)
        for u, v, w in self.edges():
            if u in selected and v in selected:
                sub.add_edge(u, v, w)
        return sub

    def with_unit_weights(self) -> "WeightedGraph":
        """Return a copy in which every edge weight is 1.

        This realises the ``w*`` weight function from Section 2.1 of the paper
        and is used to compute the *unweighted* diameter ``D_G`` of a network.
        """
        unit = WeightedGraph(nodes=self.nodes)
        for u, v, _ in self.edges():
            unit.add_edge(u, v, 1)
        return unit

    def reweighted(self, weight_fn) -> "WeightedGraph":
        """Return a copy with each edge weight mapped through ``weight_fn``.

        ``weight_fn`` receives ``(u, v, weight)`` and must return a positive
        integer.  Used for the rounding scheme of Lemma 3.2.
        """
        out = WeightedGraph(nodes=self.nodes)
        for u, v, w in self.edges():
            out.add_edge(u, v, weight_fn(u, v, w))
        return out

    def relabeled(self, mapping: Dict[int, int]) -> "WeightedGraph":
        """Return a copy with nodes renamed through ``mapping``.

        Nodes missing from ``mapping`` keep their labels.  The mapping must be
        injective on the graph's node set.
        """
        target = {node: mapping.get(node, node) for node in self.nodes}
        if len(set(target.values())) != len(target):
            raise ValueError("relabeling mapping is not injective on the node set")
        out = WeightedGraph(nodes=target.values())
        for u, v, w in self.edges():
            out.add_edge(target[u], target[v], w)
        return out

    # ------------------------------------------------------------------ #
    # Structure checks
    # ------------------------------------------------------------------ #
    def is_connected(self) -> bool:
        """Return ``True`` if the graph is connected (an empty graph is not)."""
        if not self._adjacency:
            return False
        start = next(iter(self._adjacency))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbor in self._adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == len(self._adjacency)

    def connected_components(self) -> List[List[int]]:
        """Return the connected components as lists of nodes."""
        seen: set = set()
        components: List[List[int]] = []
        for start in self._adjacency:
            if start in seen:
                continue
            component = [start]
            seen.add(start)
            stack = [start]
            while stack:
                node = stack.pop()
                for neighbor in self._adjacency[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        component.append(neighbor)
                        stack.append(neighbor)
            components.append(component)
        return components

    # ------------------------------------------------------------------ #
    # Interop
    # ------------------------------------------------------------------ #
    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` with a ``weight`` attribute."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        graph.add_weighted_edges_from(self.edges())
        return graph

    @classmethod
    def from_networkx(cls, graph, weight_attr: str = "weight") -> "WeightedGraph":
        """Build a :class:`WeightedGraph` from a networkx graph.

        Missing weight attributes default to 1; float weights are rejected so
        that the positive-integer invariant is preserved.
        """
        out = cls(nodes=graph.nodes())
        for u, v, data in graph.edges(data=True):
            weight = data.get(weight_attr, 1)
            if isinstance(weight, float):
                if not weight.is_integer():
                    raise ValueError(
                        f"edge ({u}, {v}) has non-integer weight {weight}"
                    )
                weight = int(weight)
            out.add_edge(u, v, weight)
        return out

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "WeightedGraph":
        """Build a graph from an iterable of ``(u, v, weight)`` triples."""
        return cls(edges=edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WeightedGraph(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        if set(self.nodes) != set(other.nodes):
            return False
        return set(self.edges()) == set(other.edges())

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("WeightedGraph is mutable and unhashable")
