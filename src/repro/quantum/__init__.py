"""Quantum substrate: a small state-vector simulator and quantum search.

The paper's algorithmic contribution rests on one quantum primitive:
*distributed quantum optimization* (Lemma 3.1), which is amplitude
amplification / quantum maximum finding run by the leader node over a
distributed evaluation oracle.  This subpackage provides the sequential
quantum machinery behind that primitive:

* :mod:`repro.quantum.backend` -- the statevector kernel registry (mirrors
  :mod:`repro.kernels.backend`): vectorized NumPy operations when NumPy is
  importable, a dependency-free pure-Python tier otherwise, selected by
  ``REPRO_BACKEND`` / :func:`force_backend` / explicit ``backend=``.
* :mod:`repro.quantum.statevector` -- a dense state-vector register with the
  standard gate set, measurement and sampling, executing on the registry.
* :mod:`repro.quantum.gates` -- gate matrices (dependency-free
  :class:`GateMatrix` values with NumPy interop).
* :mod:`repro.quantum.grover` -- Grover search / amplitude amplification over
  an arbitrary marking oracle, with oracle-query counting; the predicate is
  evaluated once per search, and the state is the exact two-class pair
  ``(a_marked, a_unmarked)``, so an iteration costs O(1).
* :mod:`repro.quantum.minmax` -- the Dürr-Høyer quantum minimum / maximum
  finding algorithm built on that search, with the ``log(1/δ)``
  success-amplification repetitions run one after another on forked streams.

Each search has a ``*_reference`` twin that runs the same control flow on a
full backend statevector; the differential tests compare the two.

Importing this package registers the available backends: the pure-Python
fallback always, the NumPy backend only when NumPy imports.  ``import
repro.quantum`` therefore works on a bare interpreter; the CI no-NumPy job
asserts exactly that.

The distributed layer (:mod:`repro.quantum_congest`) consumes only the query
counts and success probabilities exposed here, exactly as Lemma 3.1 consumes
only ``T0``, ``T`` and the good-amplitude mass ``ρ``.
"""

from repro.quantum.backend import (
    BACKEND_ENV_VAR,
    QuantumBackend,
    available_backends,
    force_backend,
    get_backend,
    register_backend,
)
from repro.quantum.rng import QuantumRng, as_quantum_rng

# Registration by import, mirroring repro.kernels: the pure-Python backend is
# unconditional; the NumPy backend registers itself only if NumPy imports.
import repro.quantum.python_backend  # noqa: F401  (registers "python")

try:
    import repro.quantum.numpy_backend  # noqa: F401  (registers "numpy")
except ImportError:  # pragma: no cover - exercised by the no-NumPy CI job
    pass

from repro.quantum.statevector import StateVector, measure_all, sample_counts
from repro.quantum.gates import (
    GateMatrix,
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    HADAMARD,
    phase_gate,
    rotation_y,
    controlled,
)
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
    "BACKEND_ENV_VAR",
    "QuantumBackend",
    "available_backends",
    "force_backend",
    "get_backend",
    "register_backend",
    "QuantumRng",
    "as_quantum_rng",
    "StateVector",
    "measure_all",
    "sample_counts",
    "GateMatrix",
    "IDENTITY",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "HADAMARD",
    "phase_gate",
    "rotation_y",
    "controlled",
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
