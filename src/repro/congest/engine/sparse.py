"""The event-driven engine: the reference interpreter of node programs.

It runs any :class:`NodeAlgorithm` round by round, exactly as the CONGEST
model prescribes, and is the engine the schema-driven ``dense`` and
``symbolic`` engines are checked against (the differential tests enforce
bit-identical :class:`RoundReport` numbers).  It is also the only engine
that streams messages: the others derive reports, so
:meth:`~repro.congest.simulator.Simulator.run` executes every run with an
observer here.  Its hot path is mechanical:

* an *active list* of non-halted contexts replaces the full halted scan at
  the top of every round and restricts the receive loop to live nodes;
* per-node inbox lists are pooled and reused across rounds instead of
  rebuilding an ``n``-entry dict every round (only inboxes actually touched
  in a round are cleared) -- node programs must therefore not retain the
  inbox list they are handed beyond the ``receive`` call, which no protocol
  in the library does;
* message bit sizes are computed once at enqueue time (memoized on the
  :class:`Message` and additionally shared across the identical payloads a
  broadcast fans out) and carried alongside the message, so accounting never
  re-walks a payload;
* the per-round accounting -- totals, per-edge bit sums and the max edge
  charge -- runs in a single pass over the in-flight messages.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.engine.base import ExecutionEngine, PreparedRun, register_engine
from repro.congest.engine.types import (
    RoundLimitExceeded,
    RoundReport,
    SimulationResult,
)
from repro.congest.message import Message, make_message_sizer
from repro.congest.network import Network

__all__ = ["SparseEngine"]


class SparseEngine(ExecutionEngine):
    """Optimized synchronous executor for arbitrary node programs."""

    name = "sparse"

    def prepare(
        self,
        network: Network,
        algorithm: NodeAlgorithm,
        initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> PreparedRun:
        return lambda max_rounds, halt_on_quiescence: self.run(
            network, algorithm, max_rounds, initial_memory, halt_on_quiescence
        )

    def run(
        self,
        network: Network,
        algorithm: NodeAlgorithm,
        max_rounds: int,
        initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
        halt_on_quiescence: bool = False,
        observer: Optional[Any] = None,
    ) -> SimulationResult:
        bandwidth = network.bandwidth_bits
        word_bits = network.word_bits
        strict = network.config.strict_bandwidth

        contexts: Dict[int, NodeContext] = {
            node: NodeContext(node=node, network=network) for node in network.nodes
        }
        if initial_memory:
            for node, memory in initial_memory.items():
                contexts[node].memory.update(memory)

        report = RoundReport(protocol=algorithm.name)

        # Enqueue-time sizing through the shared broadcast-payload cache
        # (see make_message_sizer for the cache-admission type rule).
        sized = make_message_sizer(word_bits)

        for node in network.nodes:
            algorithm.initialize(contexts[node])

        # Messages queued during initialization (delivered in round 1),
        # sized once at enqueue.
        in_flight: List[Tuple[Message, int]] = []
        for node in network.nodes:
            for message in contexts[node]._drain_outbox():
                in_flight.append(sized(message))

        active: List[NodeContext] = [
            contexts[node] for node in network.nodes if not contexts[node].halted
        ]
        inboxes: Dict[int, List[Message]] = {node: [] for node in network.nodes}

        round_number = 0
        while active:
            round_number += 1
            if round_number > max_rounds:
                raise RoundLimitExceeded(
                    f"protocol '{algorithm.name}' exceeded {max_rounds} rounds"
                )

            # --- Accounting: one pass over the delivered messages ---------- #
            max_edge_charge = 1
            if in_flight:
                total_messages = report.total_messages
                total_bits = report.total_bits
                max_message_bits = report.max_message_bits
                edge_bits: Dict[Tuple[int, int], int] = {}
                for message, bits in in_flight:
                    total_messages += 1
                    total_bits += bits
                    if bits > max_message_bits:
                        max_message_bits = bits
                    key = (message.sender, message.receiver)
                    edge_bits[key] = edge_bits.get(key, 0) + bits
                report.total_messages = total_messages
                report.total_bits = total_bits
                report.max_message_bits = max_message_bits
                for bits in edge_bits.values():
                    if bits > bandwidth:
                        if strict:
                            raise ValueError(
                                f"protocol '{algorithm.name}' exceeded the "
                                f"bandwidth: {bits} bits on one edge in one "
                                f"round (B={bandwidth})"
                            )
                        charge = math.ceil(bits / bandwidth)
                        if charge > max_edge_charge:
                            max_edge_charge = charge
            report.rounds += 1
            report.congested_rounds += max_edge_charge

            if observer is not None:
                observer(round_number, [message for message, _ in in_flight])

            # --- Deliver into the pooled inboxes --------------------------- #
            touched: List[List[Message]] = []
            for message, _ in in_flight:
                box = inboxes[message.receiver]
                if not box:
                    touched.append(box)
                box.append(message)
            in_flight = []

            for ctx in active:
                algorithm.receive(ctx, round_number, inboxes[ctx.node])
            for ctx in active:
                if ctx._outbox:
                    for message in ctx._drain_outbox():
                        in_flight.append(sized(message))
            for box in touched:
                box.clear()

            if halt_on_quiescence and not in_flight:
                for ctx in contexts.values():
                    ctx.halt()
                break
            active = [ctx for ctx in active if not ctx.halted]

        outputs = {node: algorithm.output(contexts[node]) for node in network.nodes}
        return SimulationResult(outputs=outputs, report=report, contexts=contexts)


register_engine(SparseEngine())
