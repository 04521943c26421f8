"""The quantum CONGEST model: round-cost accounting for distributed quantum search.

The quantum CONGEST model (Elkin-Klauck-Nanongkai-Pandurangan) is the
classical CONGEST model with ``O(log n)``-qubit channels.  The only quantum
capability the paper's algorithm uses is the *framework of distributed
quantum optimization* of Le Gall and Magniez, restated as Lemma 3.1:

    Given black-box procedures Initialization (``T0`` rounds), Setup and
    Evaluation (``T`` rounds each, reversible), and a promise that the good
    elements carry amplitude mass at least ``ρ``, the leader finds a good
    element with probability ``1 - δ`` in
    ``T0 + O(sqrt(log(1/δ)/ρ)) * T`` rounds.

This subpackage implements that statement as an executable cost model:

* :class:`~repro.quantum_congest.model.ProcedureCosts` packages the measured
  round costs of the three black boxes (measured on the classical CONGEST
  simulator -- the quantised versions have the same round cost up to
  constants, by the standard reversible-simulation argument the paper cites).
* :func:`~repro.quantum_congest.model.grover_invocation_count` is the
  ``O(sqrt(log(1/δ)/ρ))`` factor.
* :class:`~repro.quantum_congest.optimizer.DistributedQuantumOptimizer`
  carries out the search: on small domains it runs genuine state-vector
  Dürr-Høyer (so its success probability and query count are *measured*);
  on larger domains it uses a query-model emulation (the returned element
  is a good one with probability ``1 - δ``, and the charged rounds follow
  Lemma 3.1 with the measured ``T0``/``T``).
"""

from repro.quantum_congest.model import (
    ProcedureCosts,
    QuantumCongestCharge,
    grover_invocation_count,
    lemma31_round_cost,
)
from repro.quantum_congest.optimizer import (
    DistributedQuantumOptimizer,
    DistributedSearchOutcome,
    SearchMode,
)

__all__ = [
    "ProcedureCosts",
    "QuantumCongestCharge",
    "grover_invocation_count",
    "lemma31_round_cost",
    "DistributedQuantumOptimizer",
    "DistributedSearchOutcome",
    "SearchMode",
]
