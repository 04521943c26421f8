"""Structured message schemas: the contract between algorithms and the
schema-driven engines (``symbolic`` and ``dense``).

Those engines cannot run arbitrary Python node programs -- ``dense``
executes whole rounds as vectorized scatter/reduce over the network's CSR
adjacency, ``symbolic`` derives the schedule in closed form.  What they
*can* run is the min-plus flooding family that dominates the classical
baselines of the paper (Table 1/2): every node keeps one
monotonically non-increasing numeric value per key (a source, or a single
anonymous slot), every delivered value is relaxed through
``min(current, received [+ edge weight])``, and the re-broadcast rule is
either "announce every strict improvement" (Bellman-Ford) or *arrival
gated* (Nanongkai's Algorithm 2 time-of-arrival discipline: a node
broadcasts its value exactly once, in the round whose offset reaches the
value).  ``symbolic`` runs the arrival-gated schemas, ``dense`` the
announce-on-improvement ones.  Payloads are tuples ``(label, key, value)``
(``(label, value)`` for single-slot protocols, ``(label, *key, value)`` for
flattened composite keys).

A :class:`~repro.congest.algorithm.NodeAlgorithm` opts in by returning a
:class:`MinPlusSchema` from :meth:`message_schema`; Bellman-Ford SSSP/APSP
(and hence unweighted BFS flooding) in :mod:`repro.congest.sssp` and the
arrival-gated protocols of :mod:`repro.nanongkai` (Algorithm 2
bounded-distance SSSP -- and through it the Algorithm 1 level loop -- plus
the delay-staggered Algorithm 3 multi-source run) do.

The second family is :class:`TreeSchema`: the flood/echo tree primitives of
:mod:`repro.congest.primitives` (BFS-tree construction, pipelined broadcast,
convergecast, pipelined gather, and the min-id leader-election flood).
Their round structure is fixed by the tree alone -- a flood phase, per-edge
pipelined up/down phases, and an echo-terminated stop wave -- so the
schema-driven engines compute the whole message schedule analytically
instead of interpreting ``receive`` per node.  Every schema is purely
declarative -- the sparse engine ignores it, and the differential
tests assert that the schema-driven execution is bit-identical to running
the node program itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, Mapping, Optional, Sequence, Tuple

from repro.congest.message import encode_value, message_size_bits

__all__ = ["BroadcastReplaySchema", "MinPlusSchema", "TreeSchema"]


@dataclass(frozen=True)
class MinPlusSchema:
    """Declarative description of a min-plus flooding protocol.

    Attributes
    ----------
    label:
        Constant string marker carried as ``payload[0]`` of every message.
    tag:
        Protocol tag on every message (charged at 8 bits when non-empty).
    keys:
        Key labels, one per state column; when not ``None`` the key label is
        carried as ``payload[1]`` and the value as ``payload[2]``.  ``None``
        declares a single anonymous column with 2-tuple ``(label, value)``
        payloads (e.g. the min-id flood).
    initial:
        ``initial(node) -> row`` of per-key starting values for ``node``
        (``math.inf`` for "unknown"); all finite values the protocol ever
        floods must be integers of magnitude below ``2**53`` (exact in
        float64), as produced by the paper's positive-integer weights and
        node ids -- the dense engine refuses or aborts otherwise.  Arrival-
        gated runs on the symbolic engine compute in float64 only while every
        value and round stays below ``2**53`` and switch to the exact-int
        reference kernel beyond it, so they have no such bound.
    send_initial:
        Which initial entries are broadcast during ``initialize``:
        ``"finite"`` (every finite entry, e.g. each source announces itself),
        ``"all"`` or ``"none"``.
    add_edge_weight:
        When ``True`` a received value is relaxed as ``value + w(u, v)``
        (Bellman-Ford); when ``False`` the value floods unchanged (min-id).
    round_budget:
        When set, every node halts -- after applying the round's relaxations
        but *without* re-broadcasting -- in the first round whose number
        reaches the budget (the ``max_hops`` / flood-budget pattern).
    finalize:
        ``finalize(node, row) -> memory`` rebuilding the per-node memory dict
        exactly as the node program would have left it, so
        :meth:`NodeAlgorithm.output` and ``SimulationResult.contexts`` are
        engine-independent.  ``row`` holds the node's final values as
        exact ints, with ``math.inf`` for unreached entries.
    arrival_gated:
        Replaces the default announce-on-improvement rule with Algorithm 2's
        time-of-arrival rule: each finite entry broadcasts at most once over
        the whole run (entries broadcast during ``initialize`` count), in the
        first round whose offset reaches its value.  The offset is the round
        number, or -- when :attr:`column_windows` is set -- the round number
        minus the column's window start.  Mirrors the node programs'
        ``announced`` flag.  The five fields below belong to this rule:
        setting any of them without ``arrival_gated=True`` is rejected at
        construction.
    value_cap:
        When set, relaxed candidates strictly above the cap are discarded
        (the receiver keeps its previous value), mirroring Algorithm 2's
        ``candidate <= L`` acceptance test.  Stored finite values therefore
        never exceed ``max(cap, initial finite values)``.
    column_windows:
        Optional per-column ``(first_round, last_round)`` activity windows
        (Algorithm 3's delay-staggered level windows).  Announcements for a
        column may fire only in rounds inside its window, and deliveries
        relax a column only in rounds ``first_round < r <= last_round`` --
        a message sent in the window's last round is charged but discarded
        by every receiver, exactly as the node program drops announcements
        whose level window has closed.
    weight_memory_key:
        When set, the run's ``initial_memory`` pre-loads, for every node,
        a dict ``{weight_memory_key: {neighbor: weight}}`` of override
        weights (Algorithm 1's rounded weights ``w_i``); relaxations use the
        *receiver's* override for the sending neighbor instead of the
        network weight.  The symbolic engine only accepts runs whose
        pre-loaded memory is exactly this shape (positive integer weights
        covering every incident edge); anything else stays on the sparse
        engine.
    column_rounding:
        Optional ``(hop_bound, epsilon)`` of the Lemma 3.2 rounding
        (:func:`repro.graphs.rounding.rounded_weight`): column ``j`` relaxes
        under ``w_i = max(1, ceil(2 * hop_bound * w / (epsilon * 2**i)))``
        of the (possibly overridden) edge weight ``w``, where ``i`` is its
        level in :attr:`column_groups` (Algorithm 3 relaxes level ``i``
        columns under the rounded weights ``w_i``).  Rounded weights are
        integers ``>= 1`` by construction.  Set together with
        ``column_groups``.
    column_groups:
        Per-column rounding level ``i`` (a non-negative int) under
        :attr:`column_rounding`, which it must accompany.  The symbolic
        engine rounds each (level, distinct weight) once per topology.
    flatten_keys:
        When ``True``, tuple keys are splatted into the payload --
        ``(label, *key, value)`` -- matching protocols whose announcements
        carry composite keys as separate words (Algorithm 3's
        ``(instance, level)``).
    """

    label: str
    tag: str
    keys: Optional[Tuple[Any, ...]]
    initial: Callable[[int], Sequence[float]]
    finalize: Callable[[int, Sequence[Any]], Dict[str, Any]]
    send_initial: str = "finite"
    add_edge_weight: bool = True
    round_budget: Optional[int] = None
    arrival_gated: bool = False
    value_cap: Optional[int] = None
    column_windows: Optional[Tuple[Tuple[int, int], ...]] = None
    weight_memory_key: Optional[str] = None
    column_rounding: Optional[Tuple[int, float]] = None
    column_groups: Optional[Tuple[int, ...]] = None
    flatten_keys: bool = False

    def __post_init__(self) -> None:
        if not self.arrival_gated:
            for name in (
                "value_cap",
                "column_windows",
                "weight_memory_key",
                "column_rounding",
                "column_groups",
            ):
                if getattr(self, name) is not None:
                    raise ValueError(
                        f"MinPlusSchema.{name} is only meaningful with "
                        f"arrival_gated=True"
                    )
        for name in ("column_windows", "column_groups"):
            declared = getattr(self, name)
            if declared is not None and len(declared) != self.num_columns:
                raise ValueError(
                    f"schema declares {len(declared)} {name.replace('_', ' ')} "
                    f"for {self.num_columns} columns"
                )
        if (self.column_rounding is None) != (self.column_groups is None):
            raise ValueError(
                "MinPlusSchema.column_rounding and column_groups come together"
            )
        if self.column_rounding is not None:
            hop_bound, epsilon = self.column_rounding
            levels = self.column_groups
            if hop_bound < 1 or not epsilon > 0 or not all(
                type(level) is int and level >= 0 for level in levels
            ):
                raise ValueError(
                    f"column_rounding {self.column_rounding!r} needs hop_bound "
                    f">= 1, epsilon > 0 and int levels >= 0, got levels {levels!r}"
                )

    @property
    def num_columns(self) -> int:
        """Number of state columns per node."""
        return 1 if self.keys is None else len(self.keys)

    def payload_overhead_bits(self, key_index: int, word_bits: int = 32) -> int:
        """Charged bits of one message minus the value's own encoding.

        Derived by sizing an actual payload through
        :func:`repro.congest.message.message_size_bits` and subtracting the
        probe value's own charge, so :func:`encode_value` stays the single
        source of truth -- label/tuple/tag charging rules can change there
        without desynchronizing the engines' analytic accounting.
        ``word_bits`` must be the network's word size: key labels are
        charged through ``encode_value`` too, and non-integer keys (allowed
        for custom schemas) are word-sized.  A probe payload of exact ints
        and strs is sized once per (payload, tag, word size); other payloads
        are sized every time (``1 == True == 1.0`` charge differently).
        """
        probe = self.payload_for(key_index, 0)
        exact = all(type(item) is int or type(item) is str for item in probe)
        sizer = _overhead_bits if exact else _overhead_bits.__wrapped__
        return sizer(probe, self.tag, word_bits)

    def payload_for(self, key_index: int, value: float) -> Tuple[Any, ...]:
        """The exact payload tuple the node program would have sent."""
        encoded = int(value) if value != math.inf else value
        if self.keys is None:
            return (self.label, encoded)
        key = self.keys[key_index]
        if self.flatten_keys and isinstance(key, tuple):
            return (self.label, *key, encoded)
        return (self.label, key, encoded)


@functools.lru_cache(maxsize=4096, typed=True)
def _overhead_bits(probe: Tuple[Any, ...], tag: str, word_bits: int) -> int:
    """See :meth:`MinPlusSchema.payload_overhead_bits`."""
    return message_size_bits(probe, tag=tag, word_bits=word_bits) - encode_value(
        probe[-1], word_bits
    )


@dataclass(frozen=True)
class TreeSchema:
    """Declarative description of a tree primitive (the flood/echo family).

    One schema per protocol ``kind``:

    * ``"bfs"`` -- flood-and-echo BFS-tree construction from ``root``
      (explore flood, adopt/reject replies, echo up, stop wave down).  The
      whole schedule is determined by the topology, so only ``root`` is
      declared.
    * ``"broadcast"`` -- pipelined root-to-all broadcast of ``values`` over
      an existing tree: one value per tree edge per round, in index order.
    * ``"convergecast"`` -- bottom-up aggregation of ``node_values`` with
      ``combine`` (associative + commutative) over an existing tree.
    * ``"gather"`` -- pipelined upcast of per-node ``records`` to the root
      over an existing tree: each node forwards at most one record per
      round and signals completion with an ``end`` marker.
    * ``"flood"`` -- a round-budgeted min flood (leader election); the
      actual execution semantics are carried by the wrapped
      :attr:`flood` :class:`MinPlusSchema`.

    The tree-shaped kinds declare the tree as plain mappings
    (``parent`` / ``children`` / ``depth``, exactly the contents of
    :class:`repro.congest.primitives.BfsTree`) so the schema layer stays
    free of protocol-layer imports.  Like :class:`MinPlusSchema`, the
    schema must describe the node program *exactly*: the schema-driven
    engines derive the full per-round message schedule (payloads, senders and
    receivers included) from it, and the differential tests require
    bit-identical :class:`~repro.congest.engine.types.RoundReport` numbers
    against the engines that interpret the node program.
    """

    kind: str
    tag: str = ""
    root: Optional[int] = None
    parent: Optional[Mapping[int, Optional[int]]] = None
    children: Optional[Mapping[int, Sequence[int]]] = None
    depth: Optional[Mapping[int, int]] = None
    values: Optional[Tuple[Any, ...]] = None
    node_values: Optional[Mapping[int, Any]] = None
    records: Optional[Mapping[int, Sequence[Any]]] = None
    combine: Optional[Callable[[Any, Any], Any]] = None
    flood: Optional[MinPlusSchema] = None

    KINDS: ClassVar[Tuple[str, ...]] = (
        "bfs",
        "broadcast",
        "convergecast",
        "gather",
        "flood",
    )

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(
                f"unknown TreeSchema kind {self.kind!r}; expected one of {self.KINDS}"
            )
        if self.kind == "flood":
            if self.flood is None:
                raise ValueError("TreeSchema kind 'flood' needs a MinPlusSchema")
            return
        if self.root is None:
            raise ValueError(f"TreeSchema kind {self.kind!r} needs a root")
        if self.kind == "bfs":
            return
        if self.parent is None or self.children is None or self.depth is None:
            raise ValueError(
                f"TreeSchema kind {self.kind!r} needs the parent/children/depth maps"
            )
        if self.kind == "broadcast" and self.values is None:
            raise ValueError("TreeSchema kind 'broadcast' needs the value tuple")
        if self.kind == "convergecast" and (
            self.node_values is None or self.combine is None
        ):
            raise ValueError(
                "TreeSchema kind 'convergecast' needs node_values and combine"
            )
        if self.kind == "gather" and self.records is None:
            raise ValueError("TreeSchema kind 'gather' needs the records map")


@dataclass(frozen=True)
class BroadcastReplaySchema:
    """Declarative description of a global-broadcast replay phase.

    The third schema family, covering Lemma A.4-style protocols that simulate
    a virtual (overlay) round with a network-wide broadcast: in overlay round
    ``r``, ``announcements[r]`` overlay nodes each broadcast one
    fixed-size record to the ``fanout`` other overlay nodes, at a network
    cost of ``depth + 1 + announcements[r]`` congestion-adjusted rounds
    (the BFS-tree depth to reach the leader, one aggregation round, and one
    pipelined slot per announcement).  The whole schedule is a closed form of
    these counts, so the symbolic tier
    (:func:`repro.congest.engine.symbolic.broadcast_replay_report`) derives
    the full :class:`~repro.congest.engine.types.RoundReport` without
    materializing a single message.

    The bundled user is Algorithm 5 (``nanongkai/overlay.py``): the overlay
    Bounded-Distance SSSP replay collects its per-overlay-round announcer
    counts while computing the distances locally, then declares this schema
    and reads the report off the closed form -- bit-identical to the
    accounting the replay loop used to accumulate inline.

    Attributes
    ----------
    label:
        Protocol label stamped on the derived report.
    announcements:
        Per virtual round, the number of announcing overlay nodes ``a_r``;
        the length is the virtual round count.
    fanout:
        Receivers of each announcement (``max(1, |S| - 1)`` for a complete
        overlay on skeleton set ``S``).
    depth:
        Depth of the BFS tree carrying each global broadcast.
    words_per_message:
        Charged words per announcement record (id + value = 2 by default).
    """

    label: str
    announcements: Tuple[int, ...]
    fanout: int
    depth: int
    words_per_message: int = 2

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ValueError(f"fanout must be at least 1, got {self.fanout}")
        if self.depth < 0:
            raise ValueError(f"depth must be non-negative, got {self.depth}")
        if self.words_per_message < 1:
            raise ValueError(
                f"words_per_message must be at least 1, got {self.words_per_message}"
            )
        if self.announcements and min(self.announcements) < 0:
            raise ValueError("announcement counts must be non-negative")

    @property
    def total_announcements(self) -> int:
        """Total announcements over all virtual rounds."""
        return sum(self.announcements)
