"""The dense NumPy engine: whole rounds as vectorized scatter/reduce.

Eligible protocols declare an announce-on-improvement :class:`MinPlusSchema`
(:meth:`NodeAlgorithm.message_schema`): Bellman-Ford SSSP/APSP, BFS flooding
and the min-id flood.  For those the engine never creates a single
:class:`Message` object: it reports, and a run with an observer executes on
the ``sparse`` interpreter instead (see :meth:`Simulator.run`).  The state is
one ``n x k`` float64 table; the round's traffic is the *frontier*, the
sorted flat indices of the entries announced at the end of the previous
round.  Per round it

1. charges the frontier analytically -- each sender's per-edge bit load is
   the exact int64 sum of its entries' :func:`~repro.congest.message.encode_value`
   sizes (an integer's ``bit_length`` is its float64 exponent);
2. relaxes each announcement over its sender's row of the cached CSR
   adjacency, expanded with ``repeat`` and a ragged ``arange``, and applies
   the improving candidates with ``minimum.at``: the synchronous min-plus
   round at the cost of its messages, not of the whole table;
3. announces the strictly improved entries next (the node programs'
   "announce on improvement" rule), read off a mark array so the frontier
   stays sorted.

``arrival_gated`` schemas (Algorithms 1-3) and runs with pre-loaded node
memory are not eligible: the symbolic engine executes the former in closed
form, and both fall back to ``sparse`` when forced onto this engine.

Protocols declaring a :class:`TreeSchema` (the flood/echo tree primitives:
BFS-tree build, pipelined broadcast, convergecast, pipelined gather) are
dispatched to :mod:`repro.congest.engine.dense_tree`, which derives the
whole message schedule analytically; the family's ``flood`` member (min-id
leader election) unwraps to its :class:`MinPlusSchema` and runs through the
vectorized loop below.

The result -- outputs, contexts and the :class:`RoundReport` -- is
bit-identical to executing the node program on the sparse engine;
``tests/congest/test_engine_differential.py`` enforces this across random,
star/path and single-node networks.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Optional

import numpy as np

from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.engine import dense_tree
from repro.congest.engine.base import ExecutionEngine, PreparedRun, register_engine
from repro.congest.engine.schema import MinPlusSchema, TreeSchema
from repro.congest.engine.types import (
    RoundLimitExceeded,
    RoundReport,
    SimulationResult,
)
from repro.congest.network import Network
from repro.kernels.csr import CSRGraph
from repro.kernels.scipy_backend import exact_int_rows

__all__ = ["DenseEngine"]

#: Largest magnitude float64 carries exactly; values at or beyond this would
#: make the vectorized relaxation diverge from the exact-int engines.
_EXACT_FLOAT_LIMIT = 2**53


class DenseEngine(ExecutionEngine):
    """Vectorized executor for min-plus flooding protocols."""

    name = "dense"

    def prepare(
        self,
        network: Network,
        algorithm: NodeAlgorithm,
        initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> Optional[PreparedRun]:
        schema = algorithm.message_schema()
        if isinstance(schema, TreeSchema):
            if schema.kind != "flood":
                return dense_tree.prepare_tree(network, algorithm, schema, initial_memory)
            schema = schema.flood  # ordinary min-plus semantics, checked below
        if not isinstance(schema, MinPlusSchema):
            return None
        if schema.arrival_gated or initial_memory:
            # Gated schedules belong to the symbolic engine; pre-loaded
            # state stays on sparse (which runs the node program as-is).
            return None
        # Every state value must stay exactly representable in float64, or
        # the relaxation sums would silently diverge from the exact-int
        # engines.  Conservative bound for the bundled schemas (whose initial
        # values are 0 or node ids): the largest id magnitude plus the
        # longest possible relaxation chain.  Runs that could cross 2^53
        # fall back to the sparse engine; the run loop additionally guards
        # every scheduled payload, so a custom schema with larger initial
        # values fails loudly instead of drifting.
        bound = max((abs(node) for node in network.nodes), default=0)
        if schema.add_edge_weight and network.num_nodes > 1:
            bound += network.num_nodes * network.max_weight()
        if bound >= _EXACT_FLOAT_LIMIT:
            return None
        return functools.partial(_run_minplus, network, algorithm, schema)


def _run_minplus(
    network: Network,
    algorithm: NodeAlgorithm,
    schema: MinPlusSchema,
    max_rounds: int,
    halt_on_quiescence: bool,
) -> SimulationResult:
    """Execute a prepared announce-on-improvement run."""
    nodes = list(network.nodes)
    n = len(nodes)
    k = schema.num_columns
    bandwidth = network.bandwidth_bits
    strict = network.config.strict_bandwidth
    budget = schema.round_budget

    csr = CSRGraph.from_graph(network.graph)
    indptr, indices, weights = csr.numpy_arrays()
    degrees = np.diff(indptr)

    # Per-column constant part of one message's charged size: label,
    # optional key label(s), tuple overhead and tag.
    word_bits = network.word_bits
    overhead = np.array(
        [schema.payload_overhead_bits(j, word_bits) for j in range(k)],
        dtype=np.int64,
    )

    dist = np.empty((n, k), dtype=np.float64)
    for i, node in enumerate(nodes):
        row = schema.initial(node)
        if len(row) != k:
            raise ValueError(
                f"schema initial() returned {len(row)} values, expected {k}"
            )
        dist[i] = row
    flat = dist.reshape(-1)  # a view: entry (i, j) sits at i * k + j

    # ``frontier``: the sorted flat indices of the entries broadcast this
    # round (announced at the end of the previous one).
    if schema.send_initial == "all":
        frontier = np.arange(n * k)
    elif schema.send_initial == "finite":
        frontier = np.flatnonzero(np.isfinite(flat))
    elif schema.send_initial == "none":
        frontier = np.empty(0, dtype=np.int64)
    else:
        raise ValueError(f"unknown send_initial mode {schema.send_initial!r}")
    # Broadcasting over zero neighbors sends nothing.  Later frontiers
    # only hold entries improved by a delivery, whose node has a neighbor.
    frontier = frontier[degrees[frontier // k] > 0]
    marks = np.zeros(n * k, dtype=bool)

    report = RoundReport(protocol=algorithm.name)
    round_number = 0
    halted = False

    while not halted:
        round_number += 1
        if round_number > max_rounds:
            raise RoundLimitExceeded(
                f"protocol '{algorithm.name}' exceeded {max_rounds} rounds"
            )

        # --- Accounting (analytic: one broadcast = degree copies) ------ #
        max_edge_charge = 1
        improved = frontier  # empty when nothing is in flight
        if frontier.size:
            values = flat[frontier]
            if (
                not np.isfinite(values).all()
                or np.abs(values).max() >= _EXACT_FLOAT_LIMIT
            ):
                raise RuntimeError(
                    "dense engine scheduled a non-finite or non-exact "
                    "payload; the message schema must only flood finite "
                    f"integers of magnitude below 2**53 "
                    f"(protocol '{algorithm.name}')"
                )
            senders, columns = np.divmod(frontier, k)
            # encode_value charges an integer bit_length(|v|) + 1 (sign
            # bit), negative ids (min-id flood) included; the payloads
            # are exact float64 ints, whose frexp exponent is their
            # bit_length (0 for 0).
            msg_bits = overhead[columns] + np.frexp(np.abs(values))[1] + 1
            copies = degrees[senders]
            report.total_messages += int(copies.sum())
            report.total_bits += int((msg_bits * copies).sum())
            report.max_message_bits = max(
                report.max_message_bits, int(msg_bits.max())
            )
            # Each sender's per-edge load, in node order (the frontier
            # is sorted, so every sender's entries are contiguous).
            starts = np.flatnonzero(np.diff(senders, prepend=-1))
            per_sender_bits = np.add.reduceat(msg_bits, starts)
            over = per_sender_bits > bandwidth
            if over.any():
                if strict:
                    first = int(per_sender_bits[np.argmax(over)])
                    raise ValueError(
                        f"protocol '{algorithm.name}' exceeded the "
                        f"bandwidth: {first} bits on one edge in one "
                        f"round (B={bandwidth})"
                    )
                max_edge_charge = int(
                    np.ceil(per_sender_bits[over] / bandwidth).max()
                )

            # --- Deliver and relax: each announcement over its row --- #
            ends = np.cumsum(copies)
            edges = np.arange(ends[-1]) + np.repeat(
                indptr[senders] - (ends - copies), copies
            )
            targets = indices[edges] * k + np.repeat(columns, copies)
            candidates = np.repeat(values, copies)
            if schema.add_edge_weight:
                candidates += weights[edges]
            better = candidates < flat[targets]
            improved = targets[better]
            np.minimum.at(flat, improved, candidates[better])
        report.rounds += 1
        report.congested_rounds += max_edge_charge

        # --- Halt / schedule, mirroring the node program's receive ----- #
        if budget is not None and round_number >= budget:
            halted = True
            frontier = improved[:0]
        else:
            marks[improved] = True
            frontier = np.flatnonzero(marks)
            marks[frontier] = False

        if not halted and not frontier.size:
            if halt_on_quiescence:
                halted = True
            elif budget is not None:
                # Nothing in flight and nothing will ever be: the nodes
                # idle (one charged round each) until the budget round
                # halts them.
                if budget > max_rounds:
                    raise RoundLimitExceeded(
                        f"protocol '{algorithm.name}' exceeded "
                        f"{max_rounds} rounds"
                    )
                report.rounds += budget - round_number
                report.congested_rounds += budget - round_number
                halted = True
            else:
                # No budget and no quiescence halting: the protocol can
                # never terminate; fail like the other engines do.
                raise RoundLimitExceeded(
                    f"protocol '{algorithm.name}' exceeded {max_rounds} rounds"
                )

    contexts: Dict[int, NodeContext] = {}
    for node, row in zip(nodes, exact_int_rows(dist)):
        ctx = NodeContext(node=node, network=network)
        ctx.memory.update(schema.finalize(node, row))
        ctx._halted = True
        contexts[node] = ctx
    outputs = {node: algorithm.output(contexts[node]) for node in nodes}
    return SimulationResult(outputs=outputs, report=report, contexts=contexts)


register_engine(DenseEngine())
