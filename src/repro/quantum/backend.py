"""Backend registry for the statevector kernels.

The quantum subsystem mirrors the CSR kernel layer
(:mod:`repro.kernels.backend`): amplitude storage and every operation on it
-- Hadamard walls, phase oracles from precomputed marked masks, Grover
diffusion, single-qubit gates, probability sampling -- live behind a small
registry with two implementations:

* ``"numpy"`` -- vectorized complex-array operations (registered only when
  NumPy is importable).
* ``"python"`` -- a dependency-free fallback on plain ``list`` buffers with
  the same semantics, so ``import repro.quantum`` works without NumPy.

Selection order (first match wins), identical to the kernel layer:

1. an explicit ``backend=`` argument on the call,
2. a :func:`force_backend` override (used by the differential tests),
3. the ``REPRO_BACKEND`` environment variable (shared with the kernels;
   ``scipy`` resolves to ``numpy`` here because SciPy adds nothing over NumPy
   for dense statevectors),
4. ``auto``: NumPy when available, otherwise pure Python.

Backends serve :class:`~repro.quantum.statevector.StateVector` and the
``*_reference`` twins of the searches.  The searches themselves
(:mod:`repro.quantum.grover`, :mod:`repro.quantum.minmax`) run on an exact
two-class amplitude state in shared code and need no backend at all.

Backends must be *observationally identical*: same oracle-query counts, same
iteration schedules, and -- because all measurement randomness flows through
the :class:`~repro.quantum.rng.QuantumRng` shim via single inverse-CDF draws
-- the same measured outcomes for the same seed.  Amplitudes may differ only
in floating-point summation order.  ``tests/quantum/test_backends.py``
enforces this end to end.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Iterator, List, Optional, Sequence

from repro.quantum.rng import QuantumRng

__all__ = [
    "QuantumBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "force_backend",
    "BACKEND_ENV_VAR",
]

#: Environment variable consulted when no explicit backend is requested
#: (shared with :mod:`repro.kernels.backend`).
BACKEND_ENV_VAR = "REPRO_BACKEND"

_REGISTRY: Dict[str, "QuantumBackend"] = {}
_FORCED: Optional[str] = None


class QuantumBackend:
    """Interface every statevector backend implements.

    A *state* is an opaque length-``dim`` amplitude buffer (1-D).  Masks are
    likewise backend-native -- create them through the backend and pass them
    back only to the same backend.  All mutating operations work in place and
    return the buffer for chaining.
    """

    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # State construction / inspection
    # ------------------------------------------------------------------ #
    def basis_state(self, dim: int, index: int = 0):
        """A fresh computational basis state ``|index>``."""
        raise NotImplementedError

    def uniform_state(self, dim: int, size: int):
        """The uniform superposition over the first ``size`` basis states."""
        raise NotImplementedError

    def state_from_amplitudes(self, amplitudes: Sequence[complex], dim: int):
        """A fresh state holding ``amplitudes`` verbatim (no normalisation)."""
        raise NotImplementedError

    def copy_state(self, state):
        """An independent copy of ``state``."""
        raise NotImplementedError

    def amplitude_list(self, state) -> List[complex]:
        """The amplitudes as a plain Python list of ``complex``."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Masks
    # ------------------------------------------------------------------ #
    def as_mask(self, flags: Sequence[bool], dim: int):
        """A backend-native marked mask from ``flags`` (padded with False)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Gates (in place)
    # ------------------------------------------------------------------ #
    def hadamard_all(self, state, num_qubits: int):
        """Apply a Hadamard to every qubit (little-endian butterflies)."""
        raise NotImplementedError

    def apply_single_qubit_gate(self, state, gate, qubit: int, num_qubits: int):
        """Apply a 2x2 unitary (nested-sequence rows) to one qubit."""
        raise NotImplementedError

    def apply_unitary(self, state, unitary):
        """Apply a full-register unitary (small registers / tests only)."""
        raise NotImplementedError

    def phase_flip(self, state, mask):
        """Negate the amplitude of every masked basis state (phase oracle)."""
        raise NotImplementedError

    def diffusion(self, state, size: int):
        """Grover diffusion ``2|s><s| - I`` over the first ``size`` states."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Readout
    # ------------------------------------------------------------------ #
    def probabilities(self, state):
        """Backend-native probability buffer ``|amplitude|^2``."""
        raise NotImplementedError

    def probability_list(self, state) -> List[float]:
        """The probabilities as a plain Python list."""
        raise NotImplementedError

    def basis_probability(self, state, index: int) -> float:
        """Probability of one basis state."""
        raise NotImplementedError

    def norm(self, state) -> float:
        """The 2-norm of the state."""
        raise NotImplementedError

    def masked_probability(self, state, mask) -> float:
        """Total probability mass on the masked basis states."""
        raise NotImplementedError

    def sample_index(self, probabilities, rng: QuantumRng) -> int:
        """One inverse-CDF draw from a probability buffer (one ``random()``).

        The draw is normalised by the buffer's total mass, so slightly
        unnormalised states (floating-point drift) sample correctly.
        """
        raise NotImplementedError


def register_backend(backend: QuantumBackend) -> None:
    """Register ``backend`` under ``backend.name`` (overwriting any previous)."""
    _REGISTRY[backend.name] = backend


def available_backends() -> List[str]:
    """Names of all registered backends (always includes ``"python"``)."""
    return sorted(_REGISTRY)


def _resolve_name(name: Optional[str]) -> str:
    if name is None:
        name = _FORCED
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR, "auto").strip().lower() or "auto"
    if name == "auto":
        return "numpy" if "numpy" in _REGISTRY else "python"
    if name == "scipy" and name not in _REGISTRY:
        # The shared REPRO_BACKEND variable may ask for the kernels' SciPy
        # backend; dense statevectors gain nothing from SciPy, so the NumPy
        # backend (or the fallback) serves those runs.
        return "numpy" if "numpy" in _REGISTRY else "python"
    return name


def get_backend(name: Optional[str] = None) -> QuantumBackend:
    """Return the backend selected by ``name`` / override / env / auto."""
    if isinstance(name, QuantumBackend):
        return name
    resolved = _resolve_name(name)
    try:
        return _REGISTRY[resolved]
    except KeyError:
        raise ValueError(
            f"unknown quantum backend {resolved!r}; available: {available_backends()}"
        ) from None


@contextlib.contextmanager
def force_backend(name: str) -> Iterator[QuantumBackend]:
    """Context manager pinning the process-wide backend (for tests/debugging)."""
    global _FORCED
    backend = get_backend(name)  # validate eagerly
    previous = _FORCED
    _FORCED = backend.name
    try:
        yield backend
    finally:
        _FORCED = previous
