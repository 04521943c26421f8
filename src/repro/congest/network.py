"""Network topology and CONGEST configuration.

A :class:`Network` wraps a connected :class:`~repro.graphs.WeightedGraph`
(the communication topology *and* the weighted input graph of the distance
problem -- in the paper the input graph is the network itself, with each edge
weight initially known to both endpoints) together with a
:class:`CongestConfig` fixing the bandwidth ``B``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Tuple, TypeVar

from repro.graphs.properties import unweighted_diameter
from repro.graphs.weighted_graph import WeightedGraph

__all__ = ["CongestConfig", "Network"]

_T = TypeVar("_T")


@dataclass(frozen=True)
class CongestConfig:
    """Bandwidth configuration of a CONGEST network.

    Attributes
    ----------
    bandwidth_words:
        Number of ``O(log n)``-bit words a single per-edge, per-round message
        may carry.  The paper's model allows ``O(log n)`` bits, i.e. a small
        constant number of words; the default of 2 words matches the usual
        convention that a message holds one node identifier plus one distance
        value.
    word_bits_override:
        If set, the size of a word in bits; otherwise the word size is
        ``ceil(log2 n)`` rounded up to at least 8 bits.
    strict_bandwidth:
        When ``True`` the simulator raises if any single message exceeds the
        per-round budget.  When ``False`` oversized messages are accepted but
        charged extra rounds in the congestion-adjusted round count.
    """

    bandwidth_words: int = 2
    word_bits_override: int | None = None
    strict_bandwidth: bool = False

    def word_bits(self, num_nodes: int) -> int:
        """Size of one word in bits for an ``n``-node network."""
        if self.word_bits_override is not None:
            return self.word_bits_override
        return max(8, math.ceil(math.log2(max(2, num_nodes))))

    def bandwidth_bits(self, num_nodes: int) -> int:
        """Per-edge, per-round bandwidth ``B`` in bits."""
        return self.bandwidth_words * self.word_bits(num_nodes)


class Network:
    """A CONGEST communication network over a weighted graph.

    Parameters
    ----------
    graph:
        The weighted topology.  Must be connected: the paper (and the CONGEST
        distance literature generally) assumes a connected network, since
        otherwise the diameter is infinite and no node can learn about other
        components.
    config:
        Bandwidth configuration; defaults to 2 words of ``ceil(log2 n)`` bits.

    Notes
    -----
    The same object doubles as the problem input: ``graph`` carries the edge
    weights whose induced distances define the weighted diameter and radius.
    """

    def __init__(self, graph: WeightedGraph, config: CongestConfig | None = None) -> None:
        if graph.num_nodes == 0:
            raise ValueError("a CONGEST network needs at least one node")
        if graph.num_nodes > 1 and not graph.is_connected():
            raise ValueError("the CONGEST network topology must be connected")
        self._graph = graph
        self._config = config or CongestConfig()
        self._memo_version: Any = None
        self._memo: Dict[Hashable, Any] = {}

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> WeightedGraph:
        """The underlying weighted graph."""
        return self._graph

    @property
    def config(self) -> CongestConfig:
        """The bandwidth configuration."""
        return self._config

    @property
    def num_nodes(self) -> int:
        """Number of processors ``n``."""
        return self._graph.num_nodes

    @property
    def nodes(self) -> List[int]:
        """All node identifiers."""
        return self._graph.nodes

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """The neighbors of ``node`` in the topology."""
        return tuple(self._graph.neighbors(node))

    def edge_weight(self, u: int, v: int) -> int:
        """Weight of edge ``{u, v}`` (known initially to both endpoints)."""
        return self._graph.weight(u, v)

    def incident_weights(self, node: int) -> Dict[int, int]:
        """Mapping neighbor -> edge weight for all edges incident to ``node``."""
        return dict(self._graph.incident_edges(node))

    @property
    def bandwidth_bits(self) -> int:
        """Per-edge, per-round bandwidth ``B`` in bits."""
        return self._config.bandwidth_bits(self.num_nodes)

    @property
    def word_bits(self) -> int:
        """Size of one ``O(log n)``-bit word for this network."""
        return self._config.word_bits(self.num_nodes)

    def _memoized(self, key: Hashable, compute: Callable[[], _T]) -> _T:
        """``compute()``, memoized on this network for the current topology.

        One memo per instance, keyed by the graph's mutation counter: a
        topology mutation empties it, so every entry (``D``, the unit-weight
        companion, the BFS trees of :func:`~repro.congest.primitives.build_bfs_tree`
        and their :func:`~repro.congest.primitives.zero_convergecast_report`)
        is invalidated by the same rule.  A graph without a counter is never
        memoized; an exception from ``compute`` is never stored.
        """
        version = getattr(self._graph, "_version", None)
        if version is None:
            return compute()
        if version != self._memo_version:
            self._memo_version, self._memo = version, {}
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def unweighted_diameter(self) -> float:
        """The topology's unweighted diameter ``D`` (memoized per topology)."""
        return self._memoized(
            "unweighted-diameter", lambda: float(unweighted_diameter(self._graph))
        )

    def max_weight(self) -> int:
        """The maximum edge weight ``W`` (assumed globally known, as in Appendix A)."""
        return self._graph.max_weight()

    def unit_weight_companion(self) -> "Network":
        """The unit-weight twin of this network (same topology and config).

        Memoized per topology, so repeated unweighted baselines
        (``distributed_unweighted_apsp``, ``classical_eccentricity_protocol``)
        reuse one companion -- and hence one cached CSR snapshot -- instead
        of re-freezing a fresh graph per call.
        """
        return self._memoized(
            "unit-companion",
            lambda: Network(self._graph.with_unit_weights(), self._config),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(n={self.num_nodes}, m={self._graph.num_edges}, "
            f"B={self.bandwidth_bits} bits)"
        )
