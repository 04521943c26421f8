"""The per-node program interface for the CONGEST simulator.

A distributed algorithm is written as a :class:`NodeAlgorithm` subclass.  The
simulator instantiates *one shared algorithm object* and calls it once per
node per round with that node's :class:`NodeContext`; all per-node state must
live in ``ctx.memory`` (a plain dict), never on the algorithm object.  This
mirrors how CONGEST algorithms are described in the literature -- a single
program text executed by every processor on its local state -- and keeps the
simulator honest: a node can only act on information that has reached it
through messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.congest.message import Message
from repro.congest.network import Network

__all__ = ["NodeContext", "NodeAlgorithm"]


@dataclass
class NodeContext:
    """Per-node execution context handed to the node program every round.

    Attributes
    ----------
    node:
        This node's identifier.
    network:
        The network (used only for *local* information: neighbors, incident
        edge weights, the global parameters ``n``, ``B`` and ``W`` which the
        model assumes are common knowledge).
    memory:
        The node's local memory; arbitrary per-node state.
    """

    node: int
    network: Network
    memory: Dict[str, Any] = field(default_factory=dict)
    _outbox: List[Message] = field(default_factory=list)
    _halted: bool = False

    # ------------------------------------------------------------------ #
    # Local knowledge
    # ------------------------------------------------------------------ #
    @property
    def neighbors(self) -> Tuple[int, ...]:
        """Identifiers of this node's neighbors."""
        return self.network.neighbors(self.node)

    @property
    def num_nodes(self) -> int:
        """The globally known network size ``n``."""
        return self.network.num_nodes

    def edge_weight(self, neighbor: int) -> int:
        """Weight of the edge to ``neighbor`` (locally known)."""
        return self.network.edge_weight(self.node, neighbor)

    @property
    def incident_weights(self) -> Dict[int, int]:
        """Mapping neighbor -> incident edge weight."""
        return self.network.incident_weights(self.node)

    # ------------------------------------------------------------------ #
    # Communication
    # ------------------------------------------------------------------ #
    def send(self, neighbor: int, payload: Any, tag: str = "") -> None:
        """Queue a message to ``neighbor`` for delivery next round."""
        if neighbor not in self.network.neighbors(self.node):
            raise ValueError(
                f"node {self.node} tried to send to non-neighbor {neighbor}"
            )
        self._outbox.append(
            Message(sender=self.node, receiver=neighbor, payload=payload, tag=tag)
        )

    def broadcast(self, payload: Any, tag: str = "") -> None:
        """Queue the same message to every neighbor."""
        for neighbor in self.neighbors:
            self.send(neighbor, payload, tag=tag)

    def halt(self) -> None:
        """Mark this node as finished; it will not be scheduled again."""
        self._halted = True

    @property
    def halted(self) -> bool:
        """Whether this node has halted."""
        return self._halted

    # Internal: the simulator drains the outbox each round.
    def _drain_outbox(self) -> List[Message]:
        outbox, self._outbox = self._outbox, []
        return outbox


class NodeAlgorithm:
    """Base class for CONGEST node programs.

    Subclasses override :meth:`initialize`, :meth:`receive` and
    :meth:`output`.  The simulator drives them as follows::

        for every node v:   initialize(ctx_v)            # before round 1
        for round r = 1, 2, ...:
            deliver messages queued in round r-1
            for every non-halted node v:  receive(ctx_v, r, inbox_v)
        until all nodes halted (or the round limit is hit)
        for every node v:   outputs[v] = output(ctx_v)
    """

    #: Human-readable protocol name used in round reports.
    name: str = "node-algorithm"

    def message_schema(self) -> Optional[Any]:
        """Declare a structured numeric message schema, if the protocol has one.

        Returning a :class:`repro.congest.engine.schema.MinPlusSchema`
        makes the protocol eligible for a schema-driven execution engine --
        the closed-form ``symbolic`` engine for arrival-gated schedules, the
        vectorized ``dense`` engine for announce-on-improvement floods --
        instead of interpreting ``receive`` per node.  The
        schema must describe the protocol *exactly* -- the engines are
        required to produce bit-identical round reports -- so only declare
        one when every message the protocol sends fits the schema's shape.
        The default ``None`` keeps the protocol on the general engines.
        """
        return None

    def initialize(self, ctx: NodeContext) -> None:
        """Set up local state; may queue messages for round 1."""

    def receive(
        self, ctx: NodeContext, round_number: int, messages: List[Message]
    ) -> None:
        """Process the messages delivered this round; may queue messages and halt.

        ``messages`` is only valid for the duration of the call: the engines
        may pool and reuse the inbox list across rounds, so a node program
        that wants to keep messages around must copy them
        (``list(messages)``), never store the list itself.
        """
        raise NotImplementedError

    def output(self, ctx: NodeContext) -> Optional[Any]:
        """Return this node's final output (``None`` by default)."""
        return None
