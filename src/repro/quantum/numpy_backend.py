"""Vectorized statevector backend on NumPy complex arrays.

Registered only when NumPy imports.  Gate applications use the same butterfly
expressions as the pure-Python backend -- ``(a + b) * 2**-0.5`` on strided
views rather than ``2x2`` matmuls -- so amplitudes stay elementwise identical
to the fallback up to floating-point summation order, and measurements (one
inverse-CDF draw through the shared :class:`~repro.quantum.rng.QuantumRng`)
land on the same outcomes for the same seed.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.quantum.backend import QuantumBackend, register_backend
from repro.quantum.rng import QuantumRng


class NumpyQuantumBackend(QuantumBackend):
    """Vectorized implementation (preferred by ``auto``)."""

    name = "numpy"

    # ------------------------------------------------------------------ #
    def basis_state(self, dim: int, index: int = 0) -> np.ndarray:
        state = np.zeros(dim, dtype=complex)
        state[index] = 1.0
        return state

    def uniform_state(self, dim: int, size: int) -> np.ndarray:
        state = np.zeros(dim, dtype=complex)
        state[:size] = 1 / math.sqrt(size)
        return state

    def state_from_amplitudes(
        self, amplitudes: Sequence[complex], dim: int
    ) -> np.ndarray:
        return np.asarray(amplitudes, dtype=complex).copy().reshape(dim)

    def copy_state(self, state: np.ndarray) -> np.ndarray:
        return state.copy()

    def amplitude_list(self, state: np.ndarray) -> List[complex]:
        return state.tolist()

    # ------------------------------------------------------------------ #
    def as_mask(self, flags: Sequence[bool], dim: int) -> np.ndarray:
        mask = np.zeros(dim, dtype=bool)
        flags = np.asarray(flags, dtype=bool)
        mask[: flags.shape[0]] = flags
        return mask

    # ------------------------------------------------------------------ #
    def hadamard_all(self, state: np.ndarray, num_qubits: int) -> np.ndarray:
        inv = 1 / math.sqrt(2)
        for qubit in range(num_qubits):
            stride = 1 << qubit
            pairs = state.reshape(-1, 2, stride)
            a = pairs[:, 0, :].copy()
            b = pairs[:, 1, :]
            pairs[:, 0, :] = (a + b) * inv
            pairs[:, 1, :] = (a - b) * inv
        return state

    def apply_single_qubit_gate(
        self, state: np.ndarray, gate, qubit: int, num_qubits: int
    ) -> np.ndarray:
        g00, g01 = complex(gate[0][0]), complex(gate[0][1])
        g10, g11 = complex(gate[1][0]), complex(gate[1][1])
        stride = 1 << qubit
        pairs = state.reshape(-1, 2, stride)
        a = pairs[:, 0, :].copy()
        b = pairs[:, 1, :].copy()
        pairs[:, 0, :] = g00 * a + g01 * b
        pairs[:, 1, :] = g10 * a + g11 * b
        return state

    def apply_unitary(self, state: np.ndarray, unitary) -> np.ndarray:
        matrix = np.asarray(
            [[complex(value) for value in row] for row in unitary], dtype=complex
        )
        state[:] = matrix @ state
        return state

    def phase_flip(self, state: np.ndarray, mask: np.ndarray) -> np.ndarray:
        state[mask] = -state[mask]
        return state

    def diffusion(self, state: np.ndarray, size: int) -> np.ndarray:
        mean = state[:size].sum() / size
        state[:size] = 2 * mean - state[:size]
        state[size:] = -state[size:]
        return state

    # ------------------------------------------------------------------ #
    def probabilities(self, state: np.ndarray) -> np.ndarray:
        return state.real**2 + state.imag**2

    def probability_list(self, state: np.ndarray) -> List[float]:
        return self.probabilities(state).tolist()

    def basis_probability(self, state: np.ndarray, index: int) -> float:
        value = state[index]
        return float(value.real * value.real + value.imag * value.imag)

    def norm(self, state: np.ndarray) -> float:
        return float(np.sqrt(self.probabilities(state).sum()))

    def masked_probability(self, state: np.ndarray, mask: np.ndarray) -> float:
        return float(self.probabilities(state)[mask].sum())

    def sample_index(self, probabilities: np.ndarray, rng: QuantumRng) -> int:
        cumulative = np.cumsum(probabilities)
        draw = rng.random() * cumulative[-1]
        index = int(np.searchsorted(cumulative, draw, side="right"))
        return min(index, cumulative.shape[0] - 1)


register_backend(NumpyQuantumBackend())
