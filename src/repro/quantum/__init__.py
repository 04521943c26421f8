"""Quantum substrate: Grover search and Dürr-Høyer extremum finding.

The paper's algorithmic contribution rests on one quantum primitive:
*distributed quantum optimization* (Lemma 3.1), which is amplitude
amplification / quantum maximum finding run by the leader node over a
distributed evaluation oracle.  This subpackage provides the sequential
quantum machinery behind that primitive:

* :mod:`repro.quantum.grover` -- Grover search / amplitude amplification over
  an arbitrary marking oracle, with oracle-query counting; the predicate is
  evaluated once per search, and the state is the exact two-class pair
  ``(a_marked, a_unmarked)``, so an iteration costs O(1).
* :mod:`repro.quantum.minmax` -- the Dürr-Høyer quantum minimum / maximum
  finding algorithm built on that search, with the ``log(1/δ)``
  success-amplification repetitions run one after another on forked streams.
* :mod:`repro.quantum.rng` -- the seedable measurement randomness every
  search draws from.

Each search has a ``*_reference`` twin that runs the same control flow on a
full ``2**q``-amplitude statevector in pure Python; the differential tests
compare the two.

The package is stdlib-only: ``import repro.quantum`` loads neither NumPy nor
any other ``repro`` subpackage.

The distributed layer (:mod:`repro.quantum_congest`) consumes only the query
counts and success probabilities exposed here, exactly as Lemma 3.1 consumes
only ``T0``, ``T`` and the good-amplitude mass ``ρ``.
"""

from repro.quantum.rng import QuantumRng, as_quantum_rng
from repro.quantum.grover import (
    GroverResult,
    grover_search,
    grover_search_unknown,
    grover_search_reference,
    grover_search_unknown_reference,
    grover_iterations,
    amplitude_amplification_success_probability,
    exhaustive_oracle,
)
from repro.quantum.minmax import (
    QuantumExtremumResult,
    quantum_maximum,
    quantum_minimum,
    quantum_extremum_reference,
    expected_minmax_queries,
)

__all__ = [
    "QuantumRng",
    "as_quantum_rng",
    "GroverResult",
    "grover_search",
    "grover_search_unknown",
    "grover_search_reference",
    "grover_search_unknown_reference",
    "grover_iterations",
    "amplitude_amplification_success_probability",
    "exhaustive_oracle",
    "QuantumExtremumResult",
    "quantum_maximum",
    "quantum_minimum",
    "quantum_extremum_reference",
    "expected_minmax_queries",
]
