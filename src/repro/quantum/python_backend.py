"""Dependency-free statevector backend on plain ``list`` buffers.

States are Python lists of ``complex`` and masks are lists of ``bool``.
Arithmetic mirrors the NumPy backend operation for operation -- same
butterfly structure for gates, same sequential accumulation for sums, the
same single inverse-CDF draw per measurement -- so the two backends agree on
every observable and differ at most in the last floating-point bits of the
amplitudes.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.quantum.backend import QuantumBackend, register_backend
from repro.quantum.rng import QuantumRng


class PythonQuantumBackend(QuantumBackend):
    """Pure-Python reference implementation (always registered)."""

    name = "python"

    # ------------------------------------------------------------------ #
    def basis_state(self, dim: int, index: int = 0) -> List[complex]:
        state = [0j] * dim
        state[index] = 1 + 0j
        return state

    def uniform_state(self, dim: int, size: int) -> List[complex]:
        amplitude = complex(1 / math.sqrt(size))
        return [amplitude] * size + [0j] * (dim - size)

    def state_from_amplitudes(
        self, amplitudes: Sequence[complex], dim: int
    ) -> List[complex]:
        return [complex(value) for value in amplitudes]

    def copy_state(self, state: List[complex]) -> List[complex]:
        return list(state)

    def amplitude_list(self, state: List[complex]) -> List[complex]:
        return list(state)

    # ------------------------------------------------------------------ #
    def as_mask(self, flags: Sequence[bool], dim: int) -> List[bool]:
        mask = [bool(flag) for flag in flags]
        mask.extend([False] * (dim - len(mask)))
        return mask

    # ------------------------------------------------------------------ #
    def hadamard_all(self, state: List[complex], num_qubits: int) -> List[complex]:
        inv = 1 / math.sqrt(2)
        dim = len(state)
        for qubit in range(num_qubits):
            stride = 1 << qubit
            step = stride << 1
            for base in range(0, dim, step):
                for low in range(base, base + stride):
                    a = state[low]
                    b = state[low + stride]
                    state[low] = (a + b) * inv
                    state[low + stride] = (a - b) * inv
        return state

    def apply_single_qubit_gate(
        self, state: List[complex], gate, qubit: int, num_qubits: int
    ) -> List[complex]:
        (g00, g01), (g10, g11) = (
            (complex(gate[0][0]), complex(gate[0][1])),
            (complex(gate[1][0]), complex(gate[1][1])),
        )
        stride = 1 << qubit
        step = stride << 1
        for base in range(0, len(state), step):
            for low in range(base, base + stride):
                a = state[low]
                b = state[low + stride]
                state[low] = g00 * a + g01 * b
                state[low + stride] = g10 * a + g11 * b
        return state

    def apply_unitary(self, state: List[complex], unitary) -> List[complex]:
        rows = [[complex(value) for value in row] for row in unitary]
        result = [
            sum(row[j] * state[j] for j in range(len(state))) for row in rows
        ]
        state[:] = result
        return state

    def phase_flip(self, state: List[complex], mask: List[bool]) -> List[complex]:
        for index, marked in enumerate(mask):
            if marked:
                state[index] = -state[index]
        return state

    def diffusion(self, state: List[complex], size: int) -> List[complex]:
        mean = sum(state[:size], start=0j) / size
        twice = 2 * mean
        for index in range(size):
            state[index] = twice - state[index]
        for index in range(size, len(state)):
            state[index] = -state[index]
        return state

    # ------------------------------------------------------------------ #
    def probabilities(self, state: List[complex]) -> List[float]:
        return [value.real * value.real + value.imag * value.imag for value in state]

    def probability_list(self, state: List[complex]) -> List[float]:
        return self.probabilities(state)

    def basis_probability(self, state: List[complex], index: int) -> float:
        value = state[index]
        return value.real * value.real + value.imag * value.imag

    def norm(self, state: List[complex]) -> float:
        return math.sqrt(
            sum(value.real * value.real + value.imag * value.imag for value in state)
        )

    def masked_probability(self, state: List[complex], mask: List[bool]) -> float:
        return sum(
            value.real * value.real + value.imag * value.imag
            for value, marked in zip(state, mask)
            if marked
        )

    def sample_index(self, probabilities: List[float], rng: QuantumRng) -> int:
        total = 0.0
        for probability in probabilities:
            total += probability
        draw = rng.random() * total
        accumulated = 0.0
        for index, probability in enumerate(probabilities):
            accumulated += probability
            if draw < accumulated:
                return index
        return len(probabilities) - 1


register_backend(PythonQuantumBackend())
