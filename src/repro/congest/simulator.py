"""The synchronous round scheduler with round / message / bandwidth accounting.

The simulator executes a :class:`~repro.congest.algorithm.NodeAlgorithm`
round by round, exactly as the CONGEST model prescribes (Section 2.2 of the
paper):

1. messages queued in round ``r - 1`` are delivered at the start of round
   ``r``;
2. every non-halted node runs its local computation and queues at most one
   message per incident edge;
3. the algorithm terminates when every node has halted.

Besides the plain round count, the simulator reports a *congestion-adjusted*
round count: in each round, each directed edge is charged
``ceil(message_bits / B)`` sub-rounds, and the round costs the maximum charge
over all edges.  A protocol that respects the ``O(log n)``-bit bandwidth has
identical plain and adjusted counts; a protocol that ships a larger payload in
one "round" is automatically charged the rounds it would need to pipeline that
payload.  All round-complexity numbers quoted in the benchmarks are the
congestion-adjusted counts.

Since the engine refactor, :class:`Simulator` is a thin facade: the actual
round loop lives in one of the pluggable execution engines under
:mod:`repro.congest.engine`.  By default the first eligible of three runs
it: the closed-form ``symbolic`` engine (schedule-determined schemas: tree
primitives, broadcast replays, arrival-gated min-plus runs), the vectorized
``dense`` engine (announce-on-improvement floods), then the event-driven
``sparse`` engine (any node program).  Every engine produces
bit-identical :class:`RoundReport` numbers and identical outputs, so which
engine runs is purely a performance decision -- overridable per call
(``engine=``), per process (:func:`repro.congest.engine.force_engine`) or
per environment (``REPRO_ENGINE``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.congest.algorithm import NodeAlgorithm
from repro.congest.engine import get_engine, resolve_engine
from repro.congest.engine.types import (
    RoundLimitExceeded,
    RoundReport,
    SimulationResult,
)
from repro.congest.network import Network

__all__ = ["RoundReport", "SimulationResult", "Simulator", "RoundLimitExceeded"]


class Simulator:
    """Synchronous executor for CONGEST node programs.

    Parameters
    ----------
    network:
        The communication topology and bandwidth configuration.
    max_rounds:
        Safety limit; exceeding it raises :class:`RoundLimitExceeded` so a
        buggy protocol cannot hang the benchmarks.  The default scales as
        ``50 * n^2 + 1000`` which comfortably covers every protocol here.
    """

    def __init__(self, network: Network, max_rounds: Optional[int] = None) -> None:
        self._network = network
        if max_rounds is None:
            max_rounds = 50 * network.num_nodes**2 + 1000
        self._max_rounds = max_rounds

    @property
    def network(self) -> Network:
        """The network being simulated."""
        return self._network

    def run(
        self,
        algorithm: NodeAlgorithm,
        initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
        halt_on_quiescence: bool = False,
        observer: Optional[Any] = None,
        engine: Optional[str] = None,
    ) -> SimulationResult:
        """Execute ``algorithm`` until every node halts.

        Parameters
        ----------
        algorithm:
            The node program (one shared instance; all state in contexts).
        initial_memory:
            Optional per-node pre-loaded memory, used to model information a
            node already holds when the protocol starts (e.g. results of a
            previous phase).  Keys are node ids, values are dicts merged into
            ``ctx.memory`` before ``initialize``.
        halt_on_quiescence:
            When ``True``, the execution also stops once no messages are in
            flight after a round (all remaining nodes are halted).  This is a
            simulator convenience for flooding-style protocols whose natural
            termination is "no further improvements"; the extra round it may
            save/charge never changes the asymptotics reported in the
            benchmarks.
        observer:
            Optional callable ``observer(round_number, delivered_messages)``
            invoked once per round with the list of messages delivered in
            that round.  Used by the Server-model reduction (Lemma 4.1) to
            count the communication that crosses the Alice/Bob/server
            ownership boundary; it never affects the execution itself.
            Only the ``sparse`` interpreter produces a message stream (the
            other engines derive reports, not messages), so an observed run
            executes there whatever engine is selected.  No selection runs
            for it, except that an explicitly named ``engine`` that cannot
            execute the run still raises as usual.
        engine:
            Optional explicit engine name (``"sparse"``, ``"dense"``,
            ``"symbolic"``).  Defaults to the forced /
            ``REPRO_ENGINE`` / ``auto`` selection; an explicitly named
            engine that cannot execute this run raises instead of falling
            back.

        Returns
        -------
        SimulationResult
            Node outputs, contexts and the round report.
        """
        if observer is not None:
            if engine is not None:
                resolve_engine(
                    engine, self._network, algorithm, initial_memory=initial_memory
                ).release()
            return get_engine("sparse").run(
                self._network,
                algorithm,
                max_rounds=self._max_rounds,
                initial_memory=initial_memory,
                halt_on_quiescence=halt_on_quiescence,
                observer=observer,
            )
        return resolve_engine(
            engine, self._network, algorithm, initial_memory=initial_memory
        ).run(
            self._network,
            algorithm,
            max_rounds=self._max_rounds,
            initial_memory=initial_memory,
            halt_on_quiescence=halt_on_quiescence,
        )
