"""The dense NumPy engine: whole rounds as vectorized scatter/reduce.

Eligible protocols declare a :class:`MinPlusSchema`
(:meth:`NodeAlgorithm.message_schema`); for those the engine never creates a
single :class:`Message` object (unless an observer needs them).  Per round it

1. charges the in-flight broadcasts analytically -- each sender's per-edge
   bit load is the sum of its improved entries' exact
   :func:`~repro.congest.message.encode_value` sizes, computed with a
   vectorized (and exact) ``int.bit_length``;
2. relaxes all deliveries at once with a masked gather over the network's
   CSR adjacency (the PR 1 kernel snapshot) and a ``minimum.reduceat`` per
   receiver -- the scatter/reduce formulation of the synchronous min-plus
   round -- applying the schema's value cap and per-column activity windows;
3. re-broadcasts either the strictly improved entries (the node programs'
   "announce on improvement" rule) or, for ``arrival_gated`` schemas, the
   masked scatter of not-yet-announced entries with ``dist <= offset``
   (Algorithm 2's time-of-arrival rule, at most once per entry).

Weight-override runs (Algorithm 1's rounded weights ``w_i`` pre-loaded via
``initial_memory``) and per-column weight transforms (Algorithm 3's level
columns) replace the CSR weight gather with per-receiver override /
per-column weight matrices built once up front.

Protocols declaring a :class:`TreeSchema` (the flood/echo tree primitives:
BFS-tree build, pipelined broadcast, convergecast, pipelined gather) are
dispatched to :mod:`repro.congest.engine.dense_tree`, which derives the
whole message schedule analytically; the family's ``flood`` member (min-id
leader election) unwraps to its :class:`MinPlusSchema` and runs through the
vectorized loop below.

The result -- outputs, contexts and the :class:`RoundReport` -- is
bit-identical to executing the node program on the sparse/legacy engines;
``tests/congest/test_engine_differential.py`` enforces this across random,
star/path and single-node networks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.engine import dense_tree
from repro.congest.engine.base import ExecutionEngine, register_engine
from repro.congest.engine.minplus import resolve_weight_overrides
from repro.congest.engine.schema import MinPlusSchema, TreeSchema
from repro.congest.engine.types import (
    RoundLimitExceeded,
    RoundReport,
    SimulationResult,
)
from repro.congest.message import Message
from repro.congest.network import Network
from repro.kernels.csr import CSRGraph

__all__ = ["DenseEngine"]

#: Largest magnitude float64 carries exactly; values at or beyond this would
#: make the vectorized relaxation diverge from the exact-int engines.
_EXACT_FLOAT_LIMIT = 2**53


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """Exact ``int.bit_length`` of a non-negative int64 array.

    ``floor(log2(v)) + 1`` can be off by one where float rounding crosses a
    power of two, so the estimate is corrected with exact integer shifts.
    """
    v = values
    with np.errstate(divide="ignore"):
        est = np.where(
            v > 0, np.floor(np.log2(np.maximum(v, 1))).astype(np.int64) + 1, 0
        )
    est = np.where((v >> np.minimum(est, 62)) > 0, est + 1, est)
    est = np.where((est > 1) & ((v >> np.maximum(est - 1, 0)) == 0), est - 1, est)
    return est


class DenseEngine(ExecutionEngine):
    """Vectorized executor for min-plus flooding protocols."""

    name = "dense"

    def supports(
        self,
        network: Network,
        algorithm: NodeAlgorithm,
        initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> bool:
        schema = algorithm.message_schema()
        if isinstance(schema, TreeSchema):
            if schema.kind != "flood":
                return dense_tree.tree_supports(network, schema, initial_memory)
            # The flood member carries ordinary min-plus semantics; fall
            # through to the MinPlusSchema eligibility checks below.
            schema = schema.flood
        if not isinstance(schema, MinPlusSchema):
            return False
        try:
            overrides = resolve_weight_overrides(network, schema, initial_memory)
        except ValueError:
            # Pre-loaded state the schema cannot express; such runs stay on
            # the sparse engine (which runs the node program as-is).
            return False
        # Every state value must stay exactly representable in float64, or
        # the relaxation sums would silently diverge from the exact-int
        # engines.  Conservative bound for the bundled schemas (whose initial
        # values are 0 or node ids): the largest id magnitude, the value cap
        # when the schema enforces one (plus one overshooting candidate),
        # otherwise the longest possible relaxation chain.  Runs that could
        # cross 2^53 fall back to the sparse engine; the run loop
        # additionally guards every scheduled payload, so a custom schema
        # with larger initial values fails loudly instead of drifting.
        bound = max((abs(node) for node in network.nodes), default=0)
        if schema.value_cap is not None:
            bound = max(bound, int(schema.value_cap))
        if schema.add_edge_weight and network.num_nodes > 1:
            max_weight = network.max_weight()
            if overrides is not None:
                max_weight = max(
                    (max(entry.values()) for entry in overrides.values() if entry),
                    default=1,
                )
            if schema.column_weight is not None:
                # column_weight is documented monotone, so the max base
                # weight bounds every transformed weight.
                max_weight = max(
                    schema.column_weight(column, max_weight)
                    for column in range(schema.num_columns)
                )
            if schema.value_cap is not None:
                bound += max_weight
            else:
                bound += network.num_nodes * max_weight
        return bound < _EXACT_FLOAT_LIMIT

    def run(
        self,
        network: Network,
        algorithm: NodeAlgorithm,
        max_rounds: int,
        initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
        halt_on_quiescence: bool = False,
        observer: Optional[Any] = None,
    ) -> SimulationResult:
        # Validate against the schema object actually executed (supports()
        # already ran in resolve_engine, but on its own schema fetch); the
        # in-run exactness guard below covers the 2^53 bound.
        schema = algorithm.message_schema()
        if isinstance(schema, TreeSchema):
            if schema.kind != "flood":
                return dense_tree.run_tree(
                    network,
                    algorithm,
                    schema,
                    max_rounds=max_rounds,
                    initial_memory=initial_memory,
                    halt_on_quiescence=halt_on_quiescence,
                    observer=observer,
                )
            schema = schema.flood  # min-plus semantics, executed below
        if not isinstance(schema, MinPlusSchema):
            raise ValueError(
                f"dense engine cannot execute protocol '{algorithm.name}'"
            )
        overrides = resolve_weight_overrides(network, schema, initial_memory)

        nodes = list(network.nodes)
        n = len(nodes)
        k = schema.num_columns
        bandwidth = network.bandwidth_bits
        strict = network.config.strict_bandwidth
        budget = schema.round_budget

        csr = CSRGraph.from_graph(network.graph)
        indptr, indices, weights = csr.numpy_arrays()
        degrees = np.diff(indptr)
        has_neighbors = (degrees > 0)[:, None]

        if overrides is not None:
            # Relaxations read the *receiver's* override for the sending
            # neighbor, so the per-directed-edge array is built from each
            # receiver's CSR slice (asymmetric overrides stay faithful).
            replaced = np.empty(len(indices), dtype=np.float64)
            for i, node in enumerate(nodes):
                table = overrides[node]
                for e in range(int(indptr[i]), int(indptr[i + 1])):
                    replaced[e] = table[nodes[int(indices[e])]]
            weights = replaced
        edge_weights = weights[:, None]
        if schema.column_weight is not None:
            edge_weights = self._column_weight_matrix(schema, weights, k)
        if (
            schema.add_edge_weight
            and edge_weights.size
            and (
                not np.isfinite(edge_weights).all()
                or np.abs(edge_weights).max() >= _EXACT_FLOAT_LIMIT
            )
        ):
            raise RuntimeError(
                "dense engine built a non-finite or non-exact edge weight; "
                "override and per-column weights must be integers of "
                f"magnitude below 2**53 (protocol '{algorithm.name}')"
            )

        window_first = window_last = None
        if schema.column_windows is not None:
            if len(schema.column_windows) != k:
                raise ValueError(
                    f"schema declares {len(schema.column_windows)} column "
                    f"windows for {k} columns"
                )
            window_first = np.array(
                [first for first, _ in schema.column_windows], dtype=np.int64
            )
            window_last = np.array(
                [last for _, last in schema.column_windows], dtype=np.int64
            )

        # Per-column constant part of one message's charged size: label,
        # optional key label(s), tuple overhead and tag.
        word_bits = network.word_bits
        overhead = np.array(
            [schema.payload_overhead_bits(j, word_bits) for j in range(k)],
            dtype=np.int64,
        ).reshape(1, k)

        dist = np.empty((n, k), dtype=np.float64)
        for i, node in enumerate(nodes):
            row = schema.initial(node)
            if len(row) != k:
                raise ValueError(
                    f"schema initial() returned {len(row)} values, expected {k}"
                )
            dist[i] = row

        if schema.send_initial == "all":
            sent = np.ones((n, k), dtype=bool)
        elif schema.send_initial == "finite":
            sent = np.isfinite(dist)
        elif schema.send_initial == "none":
            sent = np.zeros((n, k), dtype=bool)
        else:
            raise ValueError(f"unknown send_initial mode {schema.send_initial!r}")
        sent &= has_neighbors  # broadcasting over zero neighbors sends nothing
        announced = sent.copy() if schema.arrival_gated else None

        report = RoundReport(protocol=algorithm.name)
        round_number = 0
        halted = False

        while not halted:
            round_number += 1
            if round_number > max_rounds:
                raise RoundLimitExceeded(
                    f"protocol '{algorithm.name}' exceeded {max_rounds} rounds"
                )

            any_sent = bool(sent.any())

            # --- Accounting (analytic: one broadcast = degree copies) ------ #
            max_edge_charge = 1
            if any_sent:
                values = np.where(sent, dist, 0.0)
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
                ivalues = values.astype(np.int64)
                # encode_value charges an integer bit_length(|v|) + 1 (sign
                # bit), minimum 1 -- negative ids (min-id flood) included.
                magnitudes = np.abs(ivalues)
                vbits = np.where(magnitudes > 0, _bit_lengths(magnitudes) + 1, 1)
                msg_bits = np.where(sent, overhead + vbits, 0)
                per_sender_bits = msg_bits.sum(axis=1)
                per_sender_msgs = sent.sum(axis=1)
                report.total_messages += int((per_sender_msgs * degrees).sum())
                report.total_bits += int((per_sender_bits * degrees).sum())
                report.max_message_bits = max(
                    report.max_message_bits, int(msg_bits.max())
                )
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
            report.rounds += 1
            report.congested_rounds += max_edge_charge

            if observer is not None:
                observer(round_number, self._materialize(schema, nodes, csr, dist, sent))

            # --- Deliver and relax: masked gather + minimum.reduceat ------- #
            if any_sent:
                masked = np.where(sent, dist, np.inf)
                contributions = masked[indices]
                if schema.add_edge_weight:
                    contributions = contributions + edge_weights
                candidates = np.minimum.reduceat(contributions, indptr[:-1], axis=0)
                if schema.value_cap is not None:
                    candidates = np.where(
                        candidates <= schema.value_cap, candidates, np.inf
                    )
                if window_first is not None:
                    # A column relaxes only while its window is open at the
                    # receiver; a message sent in the window's last round was
                    # charged above but is discarded here, exactly as the
                    # node program drops announcements of a closed level.
                    relax_open = (round_number > window_first) & (
                        round_number <= window_last
                    )
                    candidates = np.where(relax_open[None, :], candidates, np.inf)
                new_dist = np.minimum(dist, candidates)
                improved = new_dist < dist
                dist = new_dist
            else:
                improved = np.zeros((n, k), dtype=bool)

            # --- Halt / schedule, mirroring the node program's receive ----- #
            if budget is not None and round_number >= budget:
                halted = True
                sent = np.zeros((n, k), dtype=bool)
            elif announced is None:
                sent = improved & has_neighbors
            else:
                # Gated announcements: the improvement mask is irrelevant --
                # an entry may broadcast rounds after it last improved -- so
                # the scatter mask is eligibility AND the arrival gate.
                allowed = ~announced
                if window_first is not None:
                    in_window = (round_number >= window_first) & (
                        round_number <= window_last
                    )
                    allowed = allowed & in_window[None, :]
                    offsets = round_number - window_first
                else:
                    offsets = round_number
                sent = allowed & (dist <= offsets) & has_neighbors
                announced |= sent

            if not halted and not sent.any():
                if halt_on_quiescence:
                    halted = True
                elif self._announcements_pending(
                    dist, announced, has_neighbors, window_last, round_number
                ):
                    # Nothing in flight, but the arrival gate can still
                    # fire in a later round (a delayed window opening, an
                    # entry waiting for the round offset to reach its value):
                    # keep stepping rounds one by one.
                    continue
                elif budget is not None:
                    # Nothing in flight and nothing will ever be: the nodes
                    # idle (one charged round each) until the budget round
                    # halts them.
                    while round_number < budget:
                        round_number += 1
                        if round_number > max_rounds:
                            raise RoundLimitExceeded(
                                f"protocol '{algorithm.name}' exceeded "
                                f"{max_rounds} rounds"
                            )
                        report.rounds += 1
                        report.congested_rounds += 1
                        if observer is not None:
                            observer(round_number, [])
                    halted = True
                else:
                    # No budget and no quiescence halting: the protocol can
                    # never terminate.  Replay the idle rounds for a
                    # round-counting observer, then fail like the other
                    # engines do.
                    if observer is not None:
                        while round_number < max_rounds:
                            round_number += 1
                            report.rounds += 1
                            report.congested_rounds += 1
                            observer(round_number, [])
                    raise RoundLimitExceeded(
                        f"protocol '{algorithm.name}' exceeded {max_rounds} rounds"
                    )

        contexts: Dict[int, NodeContext] = {}
        for i, node in enumerate(nodes):
            ctx = NodeContext(node=node, network=network)
            if initial_memory:
                ctx.memory.update(initial_memory.get(node, {}))
            ctx.memory.update(schema.finalize(node, dist[i]))
            ctx._halted = True
            contexts[node] = ctx
        outputs = {node: algorithm.output(contexts[node]) for node in nodes}
        return SimulationResult(outputs=outputs, report=report, contexts=contexts)

    @staticmethod
    def _column_weight_matrix(
        schema: MinPlusSchema, weights: np.ndarray, k: int
    ) -> np.ndarray:
        """The ``(E, k)`` per-column weight matrix, built once up front.

        ``column_weight`` is evaluated through the *scalar* Python function
        on each distinct base weight (Algorithm 3's levels reuse the exact
        ``rounded_weight`` the node program calls), so the matrix is
        bit-identical to the per-message weights of the sparse engines.
        """
        unique, inverse = np.unique(weights, return_inverse=True)
        matrix = np.empty((len(weights), k), dtype=np.float64)
        for column in range(k):
            mapped = np.array(
                [float(schema.column_weight(column, int(base))) for base in unique],
                dtype=np.float64,
            )
            matrix[:, column] = mapped[inverse]
        return matrix

    @staticmethod
    def _announcements_pending(
        dist: np.ndarray,
        announced: Optional[np.ndarray],
        has_neighbors: np.ndarray,
        window_last: Optional[np.ndarray],
        round_number: int,
    ) -> bool:
        """Whether a gated announcement could still fire after this round."""
        if announced is None:
            return False
        pending = np.isfinite(dist) & has_neighbors & ~announced
        if window_last is not None:
            pending = pending & (window_last > round_number)[None, :]
        return bool(pending.any())

    @staticmethod
    def _materialize(
        schema: MinPlusSchema,
        nodes: List[int],
        csr: CSRGraph,
        dist: np.ndarray,
        sent: np.ndarray,
    ) -> List[Message]:
        """Build the round's Message objects for an observer (slow path).

        Message *multiset* equals the sparse/legacy delivery; the within-round
        ordering is sender-major but may interleave keys differently.
        """
        delivered: List[Message] = []
        indptr, indices = csr.indptr, csr.indices
        for i in np.nonzero(sent.any(axis=1))[0]:
            sender = nodes[i]
            neighbor_labels = [
                nodes[indices[e]] for e in range(indptr[i], indptr[i + 1])
            ]
            for j in np.nonzero(sent[i])[0]:
                payload = schema.payload_for(int(j), float(dist[i, j]))
                for receiver in neighbor_labels:
                    delivered.append(
                        Message(
                            sender=sender,
                            receiver=receiver,
                            payload=payload,
                            tag=schema.tag,
                        )
                    )
        return delivered


register_engine(DenseEngine())
