"""The symbolic engine: closed-form round accounting, no round stepping.

Where the stepping engines execute every round, this engine never steps
idle rounds at all -- it derives the complete
:class:`~repro.congest.engine.types.RoundReport` (per-round message counts,
bit totals, max message size, per-edge congestion charges and the first
strict-bandwidth violation) from the schedule the schema determines:

* :class:`TreeSchema` runs (the flood/echo tree primitives) delegate to the
  analytic planners of :mod:`repro.congest.engine.dense_tree`, which are
  pure Python -- the symbolic engine therefore registers without NumPy.
* :class:`BroadcastReplaySchema` runs (the overlay global-broadcast replay)
  read the report off the closed form in :func:`broadcast_replay_report`.
* :class:`MinPlusSchema` runs declared ``arrival_gated`` (the Algorithm 2/3
  time-of-arrival discipline) are one bounded Dijkstra per column.  Every
  weight is an integer ``>= 1`` and every initially finite entry broadcasts
  in round ``base + value`` (``base`` is the column's window start, 0
  without windows), so each entry ends at its column's cap- and
  window-bounded Dijkstra distance ``d`` and broadcasts exactly once, in
  round ``base + d``.  The kernel backend's
  :meth:`~repro.kernels.backend.KernelBackend.gated_minplus` computes the
  distances and the broadcasts' totals -- messages, bits, the largest
  message, the congestion charge past one round per active round and the
  first over-budget cell; the report adds the idle rounds up to the round
  budget.  Announce-on-improvement floods
  (plain Bellman-Ford) re-broadcast on a data-dependent schedule with no
  useful closed form; those runs are not supported and fall back per the
  registry rules.

The engine is registered always (pure Python) and is ``auto``'s first
choice.  Pre-loaded node memory is accepted only in the
shape a schema's ``weight_memory_key`` declares (Algorithm 1's rounded
weights); any other pre-loaded state is declined, as are gated runs that
flood values unchanged (``add_edge_weight=False``), initial entries that
broadcast before round ``base + value``, and ``send_initial="all"``.
A ``halt_on_quiescence`` min-plus run is handed to ``sparse``: the halt ends
the run in the first round with nothing in flight, even with a gate still
to fire.  Observed runs go to ``sparse`` (see :meth:`Simulator.run`).

The contract is the library invariant: outputs, contexts and every
:class:`RoundReport` field are bit-identical to the sparse engine, enforced
by ``tests/congest/test_engine_differential.py``.  The kernel works on
float64 only while every value stays below ``2**53`` and otherwise on exact
Python ints, so weights of any size are exact.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.congest.algorithm import NodeAlgorithm
from repro.congest.engine import dense_tree
from repro.congest.engine.base import (
    ExecutionEngine,
    PreparedRun,
    get_engine,
    register_engine,
)
from repro.congest.engine.schema import (
    BroadcastReplaySchema,
    MinPlusSchema,
    TreeSchema,
)
from repro.congest.engine.types import (
    RoundLimitExceeded,
    RoundReport,
    SimulationResult,
)
from repro.congest.network import Network
from repro.graphs.rounding import rounded_weight
from repro.kernels.backend import GatedColumn, GatedTotals, get_backend
from repro.kernels.csr import CSRGraph

__all__ = ["SymbolicEngine", "broadcast_replay_report"]

#: Per column, the ``(node index, value)`` of every initially finite entry.
_Seeds = List[List[Tuple[int, int]]]

#: ``csr.memo`` key of a snapshot's weight layout (see :func:`_column_weights`).
_LAYOUT_KEY = "symbolic:weight-layout"


def broadcast_replay_report(
    schema: BroadcastReplaySchema, word_bits: int
) -> RoundReport:
    """The closed-form :class:`RoundReport` of a global-broadcast replay.

    Per virtual round ``r`` with ``a_r = schema.announcements[r]`` announcing
    overlay nodes: one round, ``depth + 1 + a_r`` congestion-adjusted network
    rounds (tree depth up, one aggregation slot, one pipelined slot per
    announcement), ``a_r * fanout`` messages of
    ``word_bits * words_per_message`` bits each.  ``max_message_bits`` is the
    fixed record size unconditionally (a replay with zero announcements still
    reserves the record slot), matching the inline accounting the overlay
    replay loop historically accumulated.
    """
    record_bits = word_bits * schema.words_per_message
    total = schema.total_announcements
    rounds = len(schema.announcements)
    return RoundReport(
        rounds=rounds,
        congested_rounds=rounds * (schema.depth + 1) + total,
        total_messages=total * schema.fanout,
        total_bits=total * schema.fanout * record_bits,
        max_message_bits=record_bits,
        protocol=schema.label,
    )


class SymbolicEngine(ExecutionEngine):
    """Closed-form executor for schedule-determined schemas."""

    name = "symbolic"

    def prepare(
        self,
        network: Network,
        algorithm: NodeAlgorithm,
        initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> Optional[PreparedRun]:
        schema = algorithm.message_schema()
        inputs = None
        if isinstance(schema, TreeSchema):
            if schema.kind != "flood":
                return dense_tree.prepare_tree(network, algorithm, schema, initial_memory)
            # The min-id flood announces on improvement (no gate): dynamic
            # schedule, not symbolically executable.
            schema = schema.flood
        if isinstance(schema, MinPlusSchema):
            inputs = _minplus_inputs(network, schema, initial_memory)
            if inputs is None:
                return None
        elif not isinstance(schema, BroadcastReplaySchema):
            return None
        return functools.partial(_run, network, algorithm, schema, initial_memory, inputs)


def _run(
    network: Network,
    algorithm: NodeAlgorithm,
    schema: Any,
    initial_memory: Optional[Dict[int, Dict[str, Any]]],
    inputs: Optional[Tuple[_Seeds, Optional[Dict[int, Dict[int, int]]]]],
    max_rounds: int,
    halt_on_quiescence: bool,
) -> SimulationResult:
    """Execute a prepared broadcast replay (``inputs`` is ``None``) or gated
    min-plus run (``inputs`` from :func:`_minplus_inputs`)."""
    if isinstance(schema, BroadcastReplaySchema):
        report = broadcast_replay_report(schema, network.word_bits)
        report.protocol = algorithm.name
        schema = dist = None
    elif halt_on_quiescence:
        # A quiescence halt ends the run in the first round with nothing in
        # flight, even with a gate still to fire: the interpreter runs it.
        return get_engine("sparse").run(network, algorithm, max_rounds, initial_memory, True)
    else:
        dist, totals, last_round = _minplus_closed_form(
            network, algorithm.name, schema, max_rounds, inputs
        )
        report = RoundReport(
            rounds=last_round,
            congested_rounds=last_round + totals.extra_charge,
            total_messages=totals.messages,
            total_bits=totals.bits,
            max_message_bits=totals.max_message_bits,
            protocol=algorithm.name,
        )
    memory = _final_memory(network, initial_memory, schema, dist)
    return SimulationResult(
        None,
        report,
        table=dist,
        nodes=network.nodes,
        build=dense_tree.final_state(network, algorithm, memory),
    )


def _minplus_inputs(
    network: Network,
    schema: MinPlusSchema,
    initial_memory: Optional[Dict[int, Dict[str, Any]]],
) -> Optional[Tuple[_Seeds, Optional[Dict[int, Dict[int, int]]]]]:
    """The seeds and override weights of a run the closed form covers.

    Covered: arrival-gated schemas that relax through the edge weight, with
    ``send_initial`` ``"finite"`` or ``"none"``, override memory exactly as
    :func:`_resolve_weight_overrides` accepts it, and initial rows whose
    finite entries are non-negative ints broadcasting in round
    ``base + value`` -- round 0 for ``"finite"`` (``initialize``), round
    ``base + value >= 1`` for ``"none"``.  Returns ``None`` otherwise.
    """
    if (
        not schema.arrival_gated
        or not schema.add_edge_weight
        or schema.send_initial not in ("finite", "none")
    ):
        return None
    try:
        overrides = _resolve_weight_overrides(network, schema, initial_memory)
    except ValueError:
        return None
    k = schema.num_columns
    windows = schema.column_windows
    announce_at_zero = schema.send_initial == "finite"
    seeds: _Seeds = [[] for _ in range(k)]
    for index, node in enumerate(network.nodes):
        row = list(schema.initial(node))
        if len(row) != k:
            raise ValueError(
                f"schema initial() returned {len(row)} values, expected {k}"
            )
        if row.count(math.inf) == k:
            continue
        for j, value in enumerate(row):
            if value == math.inf:
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                return None
            base, close = windows[j] if windows is not None else (0, 0)
            if announce_at_zero:
                if base + value != 0 or close < 0:
                    return None
            elif base + value < 1:
                return None
            seeds[j].append((index, value))
    return seeds, overrides


def _resolve_weight_overrides(
    network: Network,
    schema: MinPlusSchema,
    initial_memory: Optional[Dict[int, Dict[str, Any]]],
) -> Optional[Dict[int, Dict[int, int]]]:
    """Extract and validate per-node override weights from ``initial_memory``.

    Returns ``None`` when the run carries no pre-loaded memory and the schema
    expects none.  Raises ``ValueError`` for any run the closed form cannot
    express faithfully: pre-loaded memory without a ``weight_memory_key``
    schema (arbitrary node-program state), memory entries beyond the single
    override dict, overrides missing an incident edge, or non-positive /
    non-integer weights (the Dijkstra needs integer weights ``>= 1``).
    :meth:`SymbolicEngine.prepare` turns the error into a clean fallback to
    ``sparse``.
    """
    key = schema.weight_memory_key
    if not initial_memory:
        if key is not None:
            raise ValueError(
                "schema declares weight overrides but the run pre-loads none"
            )
        return None
    if key is None:
        raise ValueError("pre-loaded node memory without a weight_memory_key")
    node_set = set(network.nodes)
    if set(initial_memory) - node_set:
        raise ValueError("pre-loaded memory names nodes outside the network")
    overrides: Dict[int, Dict[int, int]] = {}
    for node in network.nodes:
        memory = initial_memory.get(node)
        if memory is None or set(memory) != {key}:
            raise ValueError(
                f"node {node} pre-loads memory beyond the '{key}' overrides"
            )
        table = memory[key]
        if not isinstance(table, dict):
            raise ValueError(f"override weights for node {node} are not a dict")
        entry: Dict[int, int] = {}
        for neighbor in network.neighbors(node):
            weight = table.get(neighbor)
            if isinstance(weight, bool) or not isinstance(weight, int) or weight < 1:
                raise ValueError(
                    f"override weight for edge ({node}, {neighbor}) is not a "
                    f"positive integer: {weight!r}"
                )
            entry[neighbor] = weight
        overrides[node] = entry
    return overrides


def _column_weights(
    csr: CSRGraph,
    schema: MinPlusSchema,
    overrides: Optional[Dict[int, Dict[int, int]]],
) -> Tuple[List[Tuple[int, ...]], Sequence[int], List[int]]:
    """Weight palettes, each CSR entry's palette position, and each
    column's palette.

    CSR entry ``e`` of sender ``u`` points at receiver ``indices[e]``, whose
    override for ``u`` weighs the relaxation.  The layout -- the sorted
    distinct weights and each entry's position among them -- depends only
    on the topology, and so does each rounding level's palette (the
    distinct weights rounded under ``schema.column_rounding``); without
    overrides both are kept in ``csr.memo``, the palettes keyed by
    (hop bound, epsilon, level).  Levels whose palettes come out identical
    share one.
    """
    memo = csr.memo if overrides is None else {}
    layout = memo.get(_LAYOUT_KEY)
    if layout is None:
        base = csr.weights
        if overrides is not None:
            nodes, indptr, indices = csr.nodes, csr.indptr, csr.indices
            base = [
                overrides[nodes[receiver]][nodes[sender]]
                for sender in range(csr.num_nodes)
                for receiver in indices[indptr[sender] : indptr[sender + 1]]
            ]
        distinct = tuple(sorted(set(base)))
        slot = {weight: position for position, weight in enumerate(distinct)}
        layout = memo[_LAYOUT_KEY] = distinct, [slot[weight] for weight in base]
    distinct, positions = layout
    if schema.column_rounding is None:
        return [distinct], positions, [0] * schema.num_columns
    hop_bound, epsilon = schema.column_rounding
    index: Dict[Tuple[int, ...], int] = {}
    group_of: Dict[int, int] = {}
    for level in dict.fromkeys(schema.column_groups):
        key = f"symbolic:palette:{hop_bound!r}:{epsilon!r}:{level}"
        palette = memo.get(key)
        if palette is None:
            palette = memo[key] = tuple(
                rounded_weight(weight, hop_bound, epsilon, level) for weight in distinct
            )
        group_of[level] = index.setdefault(palette, len(index))
    return list(index), positions, [group_of[level] for level in schema.column_groups]


def _final_memory(
    network: Network,
    initial_memory: Optional[Dict[int, Dict[str, Any]]],
    schema: Optional[MinPlusSchema],
    dist: Optional[Sequence[Sequence[Any]]],
) -> Callable[[int], Dict[str, Any]]:
    """A node's halted memory, rebuilt on call exactly as the node program
    would leave it; the node order and pre-loaded memory are copied now."""
    nodes = list(network.nodes)
    preloaded = {
        node: dict(initial_memory.get(node, {})) for node in nodes
    } if initial_memory else {}
    row_of: Dict[int, int] = {}

    def memory(node: int) -> Dict[str, Any]:
        final = dict(preloaded.get(node, {}))
        if schema is not None:
            if not row_of:
                row_of.update((v, index) for index, v in enumerate(nodes))
            final.update(schema.finalize(node, dist[row_of[node]]))
        return final

    return memory


def _gated_arguments(
    network: Network,
    schema: Any,
    max_rounds: int,
    inputs: Tuple[_Seeds, Optional[Dict[int, Dict[int, int]]]],
) -> Tuple[Tuple[Any, ...], int, Optional[int]]:
    """The :meth:`~repro.kernels.backend.KernelBackend.gated_minplus`
    arguments of a gated run, its last round and its halting round.

    Entry ``d`` of column ``j`` broadcasts in round ``base_j + d`` while that
    round is at most the window close and before the halting round; its
    messages relax neighbors when they arrive inside the window
    (``base_j < round <= close_j``) and by the halting round.  The run halts
    in round ``max(round_budget, 1)`` (``None`` without a budget).
    ``inputs`` is the run's :func:`_minplus_inputs`.
    """
    seeds, overrides = inputs
    csr = CSRGraph.from_graph(network.graph)
    palettes, positions, groups = _column_weights(csr, schema, overrides)

    budget = schema.round_budget
    halt = None if budget is None else max(budget, 1)
    # Without a budget the limit can hold, the stepping engines run to
    # max_rounds and then fail; the rounds up to it still decide whether a
    # bandwidth violation comes first.
    last_round = halt if halt is not None and halt <= max_rounds else max_rounds
    windows = schema.column_windows
    columns = []
    for j in range(schema.num_columns):
        base, close = windows[j] if windows is not None else (0, last_round)
        columns.append(
            GatedColumn(
                group=groups[j],
                seeds=tuple(seeds[j]),
                offset=base + 1,
                relax_limit=min(last_round, close) - 1 - base,
                fire_limit=min(last_round - 1, close) - base,
                overhead=schema.payload_overhead_bits(j, network.word_bits),
            )
        )
    arguments = (csr, palettes, positions, columns, schema.value_cap, network.bandwidth_bits)
    return arguments, last_round, halt


def _minplus_closed_form(
    network: Network,
    name: str,
    schema: Any,
    max_rounds: int,
    inputs: Tuple[_Seeds, Optional[Dict[int, Dict[int, int]]]],
) -> Tuple[Sequence[Sequence[Any]], GatedTotals, int]:
    """Final rows, message totals and last round of a gated run (see
    :func:`_gated_arguments`); raises exactly where the stepping engines do
    (first strict-bandwidth violation, then the round limit)."""
    arguments, last_round, halt = _gated_arguments(network, schema, max_rounds, inputs)
    dist, totals = get_backend().gated_minplus(*arguments)
    if network.config.strict_bandwidth and totals.first_violation:
        raise ValueError(
            f"protocol '{name}' exceeded the bandwidth: {totals.first_violation} "
            f"bits on one edge in one round (B={network.bandwidth_bits})"
        )
    if last_round != halt:
        raise RoundLimitExceeded(f"protocol '{name}' exceeded {max_rounds} rounds")
    return dist, totals, last_round


register_engine(SymbolicEngine())
