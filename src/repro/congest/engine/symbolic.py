"""The symbolic engine: closed-form round accounting, no round stepping.

Where the dense engine executes every round as a vectorized scatter/reduce,
this engine never steps idle rounds at all -- it derives the complete
:class:`~repro.congest.engine.types.RoundReport` (per-round message counts,
bit totals, max message size, per-edge congestion charges and the first
strict-bandwidth violation) from the schedule the schema determines:

* :class:`TreeSchema` runs (the flood/echo tree primitives) delegate to the
  analytic planners of :mod:`repro.congest.engine.dense_tree`, which are
  pure Python -- the symbolic engine therefore registers without NumPy.
* :class:`BroadcastReplaySchema` runs (the overlay global-broadcast replay)
  read the report off the closed form in :func:`broadcast_replay_report`.
* :class:`MinPlusSchema` runs declared ``arrival_gated`` (the Algorithm 2/3
  time-of-arrival discipline) run on an event queue over the CSR adjacency:
  an entry's single broadcast round is computed from its value and its
  column's window start, deliveries relax neighbor state exactly as the node
  program would, and the idle stretches between deliveries -- the
  delay-staggered windows of Algorithm 3 spend most of their budget idle --
  are charged in O(1) instead of being stepped.  Announce-on-improvement
  floods (plain Bellman-Ford) re-broadcast on a data-dependent schedule with
  no useful closed form; those runs are not supported and fall back per the
  registry rules.

The engine is registered always (pure Python) but never auto-selected:
``REPRO_ENGINE=symbolic`` (or ``force_engine``/``engine=``) opts in, and any
run it cannot execute falls back to ``sparse`` exactly like the other
specialised engines.  Attaching an ``observer`` to a min-plus or
broadcast-replay run also falls back to ``sparse`` -- closed forms have no
message stream to report -- while tree runs keep ``dense_tree``'s native
exact materialization.

The contract is the library invariant: outputs, contexts and every
:class:`RoundReport` field are bit-identical to the sparse engine, enforced
by ``tests/congest/test_engine_differential.py``.  The event model rests on
the ``arrival_gated`` rule: every entry broadcasts at most once, in the
first round whose offset reaches its value, so an entry's broadcast round is
a pure function of its value.  Unlike dense there is no ``2**53`` exactness
bound: all arithmetic is on exact Python ints.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Dict, List, Optional, Tuple

from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.engine import dense_tree
from repro.congest.engine.base import ExecutionEngine, get_engine, register_engine
from repro.congest.engine.minplus import resolve_weight_overrides
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
from repro.kernels.csr import CSRGraph

__all__ = ["SymbolicEngine", "broadcast_replay_report", "minplus_round_trace"]


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
    return RoundReport(
        rounds=len(schema.announcements),
        congested_rounds=sum(
            schema.depth + 1 + count for count in schema.announcements
        ),
        total_messages=total * schema.fanout,
        total_bits=total * schema.fanout * record_bits,
        max_message_bits=record_bits,
        protocol=schema.label,
    )


class SymbolicEngine(ExecutionEngine):
    """Closed-form executor for schedule-determined schemas."""

    name = "symbolic"

    def supports(
        self,
        network: Network,
        algorithm: NodeAlgorithm,
        initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> bool:
        schema = algorithm.message_schema()
        if isinstance(schema, BroadcastReplaySchema):
            return True
        if isinstance(schema, TreeSchema):
            if schema.kind != "flood":
                return dense_tree.tree_supports(network, schema, initial_memory)
            # The min-id flood announces on improvement (no gate): dynamic
            # schedule, not symbolically executable.
            schema = schema.flood
        if not isinstance(schema, MinPlusSchema):
            return False
        return _minplus_supports(network, schema, initial_memory)

    def run(
        self,
        network: Network,
        algorithm: NodeAlgorithm,
        max_rounds: int,
        initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
        halt_on_quiescence: bool = False,
        observer: Optional[Any] = None,
    ) -> SimulationResult:
        schema = algorithm.message_schema()
        if isinstance(schema, TreeSchema) and schema.kind != "flood":
            return dense_tree.run_tree(
                network,
                algorithm,
                schema,
                max_rounds=max_rounds,
                initial_memory=initial_memory,
                halt_on_quiescence=halt_on_quiescence,
                observer=observer,
            )
        if observer is not None:
            # Closed forms never materialize a message stream; hand observer
            # runs to the engine that interprets the node program, so the
            # observed rounds are exactly the reference stream.
            return get_engine("sparse").run(
                network,
                algorithm,
                max_rounds,
                initial_memory=initial_memory,
                halt_on_quiescence=halt_on_quiescence,
                observer=observer,
            )
        if isinstance(schema, BroadcastReplaySchema):
            report = broadcast_replay_report(schema, network.word_bits)
            report.protocol = algorithm.name
            contexts = _final_contexts(network, initial_memory, None, None)
            outputs = {
                node: algorithm.output(contexts[node]) for node in network.nodes
            }
            return SimulationResult(
                outputs=outputs, report=report, contexts=contexts
            )
        if isinstance(schema, TreeSchema):
            schema = schema.flood
        if not isinstance(schema, MinPlusSchema) or not _minplus_supports(
            network, schema, initial_memory
        ):
            raise ValueError(
                f"symbolic engine cannot execute protocol '{algorithm.name}'"
            )
        dist, report = _minplus_closed_form(
            network,
            algorithm,
            schema,
            max_rounds,
            initial_memory,
            halt_on_quiescence,
        )
        contexts = _final_contexts(network, initial_memory, schema, dist)
        outputs = {
            node: algorithm.output(contexts[node]) for node in network.nodes
        }
        return SimulationResult(outputs=outputs, report=report, contexts=contexts)


def _minplus_supports(
    network: Network,
    schema: MinPlusSchema,
    initial_memory: Optional[Dict[int, Dict[str, Any]]],
) -> bool:
    """Whether the event-queue executor can run this min-plus schema.

    Arrival-gated schedules only: their broadcast rounds are the closed form.
    """
    if not schema.arrival_gated:
        return False
    if schema.send_initial not in ("finite", "none"):
        return False
    try:
        resolve_weight_overrides(network, schema, initial_memory)
    except ValueError:
        return False
    return True


def _final_contexts(
    network: Network,
    initial_memory: Optional[Dict[int, Dict[str, Any]]],
    schema: Optional[MinPlusSchema],
    dist: Optional[List[List[Any]]],
) -> Dict[int, NodeContext]:
    """Rebuild the halted per-node contexts exactly as the node program would."""
    contexts: Dict[int, NodeContext] = {}
    for index, node in enumerate(network.nodes):
        ctx = NodeContext(node=node, network=network)
        if initial_memory:
            ctx.memory.update(initial_memory.get(node, {}))
        if schema is not None:
            ctx.memory.update(schema.finalize(node, dist[index]))
        ctx._halted = True
        contexts[node] = ctx
    return contexts


def minplus_round_trace(
    network: Network,
    algorithm: NodeAlgorithm,
    max_rounds: int,
    initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
    halt_on_quiescence: bool = False,
) -> List[Tuple[int, int, int, int]]:
    """Per-round ``(round, messages, bits, edge_charge)`` trace of a run.

    Expands the closed form back into one entry per simulated round, idle
    rounds included -- the differential tests compare this against per-round
    totals collected from a sparse-engine observer, pinning not just the
    final report but the whole round-by-round trajectory.
    """
    schema = algorithm.message_schema()
    if isinstance(schema, TreeSchema) and schema.kind == "flood":
        schema = schema.flood
    if not isinstance(schema, MinPlusSchema) or not _minplus_supports(
        network, schema, initial_memory
    ):
        raise ValueError(
            f"symbolic engine cannot trace protocol '{algorithm.name}'"
        )
    trace: List[Tuple[int, int, int, int]] = []
    _minplus_closed_form(
        network,
        algorithm,
        schema,
        max_rounds,
        initial_memory,
        halt_on_quiescence,
        trace=trace,
    )
    return trace


def _minplus_closed_form(
    network: Network,
    algorithm: NodeAlgorithm,
    schema: MinPlusSchema,
    max_rounds: int,
    initial_memory: Optional[Dict[int, Dict[str, Any]]],
    halt_on_quiescence: bool,
    trace: Optional[List[Tuple[int, int, int, int]]] = None,
) -> Tuple[List[List[Any]], RoundReport]:
    """Run an arrival-gated min-plus schema on the event queue.

    Every entry broadcasts at most once, in the first round whose offset
    reaches its value -- computed directly when the value is set.  The
    queue holds ``(delivery_round, seq, sender, column, value, is_initial)``
    events; an event is stale (superseded or already announced) when popped
    unless the sender's column still holds exactly the scheduled value.
    Rounds with no delivery are charged in bulk, which is where the
    asymptotic win over the round-stepping engines comes from.
    """
    nodes = list(network.nodes)
    n = len(nodes)
    k = schema.num_columns
    bandwidth = network.bandwidth_bits
    strict = network.config.strict_bandwidth
    budget = schema.round_budget
    word_bits = network.word_bits
    name = algorithm.name
    add_edge_weight = schema.add_edge_weight
    value_cap = schema.value_cap
    column_weight = schema.column_weight

    overrides = resolve_weight_overrides(network, schema, initial_memory)

    csr = CSRGraph.from_graph(network.graph)
    indptr, indices = csr.indptr, csr.indices
    degrees = [indptr[i + 1] - indptr[i] for i in range(n)]

    if overrides is None:
        edge_weights = csr.weights
    else:
        # Relaxations read the *receiver's* override for the sending
        # neighbor; indexing the sender's CSR row, entry e points at
        # receiver indices[e], so the per-directed-edge weight is the
        # receiver's table entry for the sender.
        edge_weights = [0] * len(indices)
        for i in range(n):
            sender = nodes[i]
            for e in range(indptr[i], indptr[i + 1]):
                edge_weights[e] = overrides[nodes[indices[e]]][sender]

    window_first = window_last = None
    if schema.column_windows is not None:
        if len(schema.column_windows) != k:
            raise ValueError(
                f"schema declares {len(schema.column_windows)} column "
                f"windows for {k} columns"
            )
        window_first = [first for first, _ in schema.column_windows]
        window_last = [last for _, last in schema.column_windows]

    overhead = [schema.payload_overhead_bits(j, word_bits) for j in range(k)]

    # column_weight is deterministic, so each (column, base weight) pair is
    # evaluated through the exact scalar function once (dense's unique-weight
    # matrix, memoized lazily).
    column_weight_memo: Dict[Tuple[int, int], int] = {}

    dist: List[List[Any]] = []
    for node in nodes:
        row = list(schema.initial(node))
        if len(row) != k:
            raise ValueError(
                f"schema initial() returned {len(row)} values, expected {k}"
            )
        dist.append(row)

    announced = [[False] * k for _ in range(n)]
    heap: List[Tuple[int, int, int, int, Any, bool]] = []
    seq = 0

    def schedule(i: int, j: int, value: Any, first_eval: int) -> None:
        """Queue entry (i, j)'s announcement at its first gate round."""
        nonlocal seq
        base = window_first[j] if window_first is not None else 0
        hi = max_rounds if window_last is None else min(window_last[j], max_rounds)
        if budget is not None and budget - 1 < hi:
            hi = budget - 1
        # First round r >= first_eval whose offset r - base reaches value;
        # ceil keeps the round an int should a schema flood integral floats.
        fire = max(first_eval, 1, base, math.ceil(value) + base)
        if fire > hi:
            # The gate never fires while the entry may broadcast; the node
            # idles (still charged) exactly like the stepping engines.
            return
        seq += 1
        heapq.heappush(heap, (fire + 1, seq, i, j, value, False))

    if schema.send_initial == "finite":
        # Finite initial entries broadcast during initialize (delivered in
        # round 1) and count as the entry's one broadcast, exactly like the
        # node programs' initialize-time announcements.
        for i in range(n):
            if not degrees[i]:
                continue
            row = dist[i]
            flags = announced[i]
            for j in range(k):
                value = row[j]
                if not math.isinf(value):
                    flags[j] = True
                    seq += 1
                    heapq.heappush(heap, (1, seq, i, j, value, True))
    else:  # "none": finite initials wait for their gate like everyone else
        for i in range(n):
            if not degrees[i]:
                continue
            row = dist[i]
            for j in range(k):
                value = row[j]
                if not math.isinf(value):
                    schedule(i, j, value, 1)

    def stale(event: Tuple[int, int, int, int, Any, bool]) -> bool:
        _, _, i, j, value, is_initial = event
        if dist[i][j] != value:
            return True
        return announced[i][j] and not is_initial

    report = RoundReport(protocol=name)
    round_number = 0
    halted = False

    while not halted:
        round_number += 1
        if round_number > max_rounds:
            raise RoundLimitExceeded(
                f"protocol '{name}' exceeded {max_rounds} rounds"
            )

        deliveries: List[Tuple[int, int, Any]] = []
        while heap and heap[0][0] == round_number:
            event = heapq.heappop(heap)
            if stale(event):
                continue
            _, _, i, j, value, is_initial = event
            if not is_initial:
                announced[i][j] = True
            deliveries.append((i, j, value))

        # --- Accounting (analytic: one broadcast = degree copies) ---------- #
        max_edge_charge = 1
        round_messages = round_bits = 0
        if deliveries:
            per_sender: Dict[int, List[Tuple[int, Any]]] = {}
            for i, j, value in deliveries:
                per_sender.setdefault(i, []).append((j, value))
            # Node order: the first strict violation matches the sparse
            # engine's first violating edge (messages enqueue per sender in
            # node order, and a broadcast loads each of its edges with the
            # same per-column bit sum).
            for i in sorted(per_sender):
                entries = per_sender[i]
                degree = degrees[i]
                sender_bits = 0
                for j, value in entries:
                    vbits = max(1, int(value).bit_length() + 1)
                    message_bits = overhead[j] + vbits
                    sender_bits += message_bits
                    if message_bits > report.max_message_bits:
                        report.max_message_bits = message_bits
                round_messages += len(entries) * degree
                round_bits += sender_bits * degree
                if sender_bits > bandwidth:
                    if strict:
                        raise ValueError(
                            f"protocol '{name}' exceeded the "
                            f"bandwidth: {sender_bits} bits on one edge in "
                            f"one round (B={bandwidth})"
                        )
                    charge = -(-sender_bits // bandwidth)
                    if charge > max_edge_charge:
                        max_edge_charge = charge
            report.total_messages += round_messages
            report.total_bits += round_bits
        report.rounds += 1
        report.congested_rounds += max_edge_charge
        if trace is not None:
            trace.append((round_number, round_messages, round_bits, max_edge_charge))

        # --- Relax deliveries over the sender's CSR row -------------------- #
        for i, j, value in deliveries:
            if window_first is not None and not (
                window_first[j] < round_number <= window_last[j]
            ):
                # Charged above, dropped by every receiver: the column's
                # window is not open at delivery time.
                continue
            for e in range(indptr[i], indptr[i + 1]):
                receiver = indices[e]
                if add_edge_weight:
                    weight = edge_weights[e]
                    if column_weight is not None:
                        key = (j, weight)
                        mapped = column_weight_memo.get(key)
                        if mapped is None:
                            mapped = column_weight(j, int(weight))
                            column_weight_memo[key] = mapped
                        weight = mapped
                    candidate = value + weight
                else:
                    candidate = value
                if value_cap is not None and candidate > value_cap:
                    continue
                row = dist[receiver]
                if candidate < row[j]:
                    row[j] = candidate
                    if degrees[receiver] and not announced[receiver][j]:
                        schedule(receiver, j, candidate, round_number)

        # --- Halt / schedule, mirroring the stepping engines --------------- #
        if budget is not None and round_number >= budget:
            halted = True
            heap.clear()
            continue
        while heap and stale(heap[0]):
            heapq.heappop(heap)
        next_delivery = heap[0][0] if heap else None
        if next_delivery == round_number + 1:
            continue
        if halt_on_quiescence:
            # First round with nothing in flight afterwards: the stepping
            # engines halt here even when a gate could still fire later.
            halted = True
            continue
        if next_delivery is not None:
            # Idle stretch until the next scheduled delivery, charged in
            # O(1): one round and one congested round each.
            if next_delivery > max_rounds:
                raise RoundLimitExceeded(
                    f"protocol '{name}' exceeded {max_rounds} rounds"
                )
            gap = next_delivery - 1 - round_number
            report.rounds += gap
            report.congested_rounds += gap
            if trace is not None:
                for idle in range(round_number + 1, next_delivery):
                    trace.append((idle, 0, 0, 1))
            round_number = next_delivery - 1
            continue
        if budget is not None:
            # Nothing in flight and nothing will ever be: the nodes idle
            # (one charged round each) until the budget round halts them.
            if budget > max_rounds:
                raise RoundLimitExceeded(
                    f"protocol '{name}' exceeded {max_rounds} rounds"
                )
            gap = budget - round_number
            report.rounds += gap
            report.congested_rounds += gap
            if trace is not None:
                for idle in range(round_number + 1, budget + 1):
                    trace.append((idle, 0, 0, 1))
            halted = True
            continue
        # No budget and no quiescence halting: the protocol can never
        # terminate.  Fail exactly like the stepping engines.
        raise RoundLimitExceeded(
            f"protocol '{name}' exceeded {max_rounds} rounds"
        )

    return dist, report


register_engine(SymbolicEngine())
