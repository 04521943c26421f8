"""Grover search / amplitude amplification with oracle-query counting.

Lemma 3.1 of the paper (Le Gall-Magniez's distributed quantum optimization)
is, at its heart, amplitude amplification run by the leader over a black-box
Evaluation procedure: if the good elements carry amplitude mass ``ρ``, then
``O(sqrt(log(1/δ)/ρ))`` invocations of Setup/Evaluation suffice to find a good
element with probability ``1 - δ``.

This module provides the sequential version of that primitive on an explicit
search domain:

* :func:`grover_search` runs the textbook Grover iteration, counting oracle
  queries, and returns the measured element.
* :func:`grover_iterations` gives the optimal iteration count
  ``floor(pi/4 * sqrt(N/M))``.
* :func:`amplitude_amplification_success_probability` gives the exact success
  probability after ``t`` iterations, ``sin^2((2t+1) theta)`` with
  ``sin^2(theta) = M/N``, which the tests compare against the simulated state.

When the number of marked elements is unknown, :func:`grover_search_unknown`
uses the standard exponential-guessing schedule (Boyer-Brassard-Høyer-Tapp),
which is also what Dürr-Høyer minimum finding calls internally.

**Two-class state.**  Every search starts from the uniform superposition over
the first ``N`` basis states and applies a fixed marked set for the whole
round, so the phase flip and the diffusion apply the same float operations to
every marked amplitude, and the same ones to every unmarked amplitude.  The
state is therefore exactly two numbers, ``(a_marked, a_unmarked)`` (padding
states stay 0), and one Grover iteration costs O(1) instead of O(2^q).
:func:`_amplify_and_measure` steps that pair and measures it with the same
single inverse-CDF draw a statevector would use: it bisects over the prefix
counts of the marked set for the unmarked gap holding the outcome, and
within that gap, where the cumulative mass grows by ``p_unmarked`` per
index, estimates the index by one division and steps to the exact first
index whose mass exceeds the draw -- the same index a bisection finds.

The ``*_reference`` twins run the same control flow on a full ``2**q``
statevector of plain ``complex`` amplitudes (:func:`_reference_amplifier`:
phase flip, diffusion, then one inverse-CDF draw over every basis state);
the differential tests and benchmarks compare the two.  The marking
predicate is evaluated once per domain element per search;
``oracle_queries`` counts phase-oracle *applications* (the quantum query
complexity) plus one classical check per BBHT round.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.quantum.rng import QuantumRng, RandomSource, as_quantum_rng

__all__ = [
    "GroverResult",
    "grover_iterations",
    "amplitude_amplification_success_probability",
    "grover_search",
    "grover_search_unknown",
    "grover_search_reference",
    "grover_search_unknown_reference",
    "exhaustive_oracle",
]

#: ``amplify(size, marked, iterations, rng) -> (outcome, success_probability)``:
#: run ``iterations`` Grover iterations from the uniform state over ``size``
#: elements with the sorted index list ``marked`` as the oracle, then measure.
Amplifier = Callable[[int, Sequence[int], int, QuantumRng], Tuple[int, float]]

_BBHT_GROWTH = 6 / 5


@dataclass
class GroverResult:
    """Outcome of one Grover search run.

    Attributes
    ----------
    outcome:
        The measured basis state (an index into the search domain).
    is_marked:
        Whether the measured state satisfies the oracle.
    oracle_queries:
        Number of times the phase oracle was applied.
    iterations:
        Number of Grover iterations performed.
    success_probability:
        The probability (from the final state) of measuring a marked
        element, recorded before measurement.
    """

    outcome: int
    is_marked: bool
    oracle_queries: int
    iterations: int
    success_probability: float


def exhaustive_oracle(values: Sequence, predicate: Callable) -> Callable[[int], bool]:
    """Build a basis-state oracle from a value table and a predicate on values."""
    table = [bool(predicate(value)) for value in values]

    def oracle(index: int) -> bool:
        return index < len(table) and table[index]

    return oracle


def grover_iterations(domain_size: int, num_marked: int) -> int:
    """The optimal Grover iteration count ``floor(pi/4 sqrt(N/M))``.

    Returns 0 when every element is marked (measuring the uniform
    superposition already succeeds) and raises if nothing is marked.
    """
    if domain_size < 1:
        raise ValueError("domain_size must be positive")
    if num_marked < 1:
        raise ValueError("num_marked must be positive")
    if num_marked >= domain_size:
        return 0
    theta = math.asin(math.sqrt(num_marked / domain_size))
    return max(0, math.floor(math.pi / (4 * theta)))


def amplitude_amplification_success_probability(
    domain_size: int, num_marked: int, iterations: int
) -> float:
    """Exact success probability ``sin^2((2t + 1) * theta)`` after ``t`` iterations."""
    if num_marked == 0:
        return 0.0
    if num_marked >= domain_size:
        return 1.0
    theta = math.asin(math.sqrt(num_marked / domain_size))
    return math.sin((2 * iterations + 1) * theta) ** 2


def _num_qubits_for(domain_size: int) -> int:
    return max(1, math.ceil(math.log2(domain_size)))


def _is_marked(marked: Sequence[int], index: int) -> bool:
    position = bisect_right(marked, index)
    return position > 0 and marked[position - 1] == index


def _amplify_and_measure(
    size: int, marked: Sequence[int], iterations: int, rng: QuantumRng
) -> Tuple[int, float]:
    """Grover-iterate the two-class state ``iterations`` times, then measure.

    ``marked`` is the sorted list of marked indices; its length, never a
    caller's hint, is the marked count.  The measurement is one inverse-CDF
    draw over the ``2**q``-dimensional register: the smallest index whose
    cumulative probability exceeds the draw, clamped to the last (padding)
    state when the draw reaches the total mass.
    """
    num_marked = len(marked)
    num_unmarked = size - num_marked
    a_marked = a_unmarked = 1 / math.sqrt(size)
    for _ in range(iterations):
        mean = (num_marked * -a_marked + num_unmarked * a_unmarked) / size
        a_marked, a_unmarked = 2 * mean + a_marked, 2 * mean - a_unmarked
    p_marked, p_unmarked = a_marked * a_marked, a_unmarked * a_unmarked
    draw = rng.random() * (num_marked * p_marked + num_unmarked * p_unmarked)
    # The cumulative mass through index i is p_marked * c + p_unmarked *
    # (i + 1 - c), with c the marked count in [0, i].  Find the first marked
    # index whose cumulative mass exceeds the draw, then the first index of
    # the unmarked gap before it that already does (c is constant there).
    gap = bisect_right(
        range(num_marked),
        draw,
        key=lambda j: p_marked * (j + 1) + p_unmarked * (marked[j] - j),
    )
    low = marked[gap - 1] + 1 if gap else 0
    high = marked[gap] if gap < num_marked else size
    # In the gap the mass base + p_unmarked * (i + 1 - gap) never decreases
    # as i grows (float rounding is monotone): divide for an estimate, clamp
    # it to [low, high] (the quotient may be huge or infinite), then step to
    # the first index whose mass exceeds the draw -- the bisection's answer.
    base = p_marked * gap
    if p_unmarked == 0:
        outcome = low if base > draw else high
    else:
        outcome = int(min(max((draw - base) / p_unmarked + gap, low), high))
        while outcome > low and base + p_unmarked * (outcome - gap) > draw:
            outcome -= 1
        while outcome < high and base + p_unmarked * (outcome + 1 - gap) <= draw:
            outcome += 1
    if outcome == size:
        outcome = 2 ** _num_qubits_for(size) - 1
    return outcome, num_marked * p_marked


def _reference_amplifier() -> Amplifier:
    """The reference amplifier: the same round on a full ``2**q`` statevector.

    Amplitudes are a ``list`` of ``complex``; each iteration flips the phase
    of the marked entries and reflects the first ``size`` about their mean.
    The mask of the last marked list is kept, so a BBHT search (many rounds
    on one list) builds it once.
    """
    cached = [None, None]  # [marked list, its mask]

    def amplify(
        size: int, marked: Sequence[int], iterations: int, rng: QuantumRng
    ) -> Tuple[int, float]:
        dim = 2 ** _num_qubits_for(size)
        if cached[0] is not marked:
            flags = [False] * dim
            for index in marked:
                flags[index] = True
            cached[:] = [marked, flags]
        mask = cached[1]
        amplitude = complex(1 / math.sqrt(size))
        state = [amplitude] * size + [0j] * (dim - size)
        for _ in range(iterations):
            for index, flag in enumerate(mask):
                if flag:
                    state[index] = -state[index]
            twice = 2 * (sum(state[:size], start=0j) / size)
            for index in range(size):
                state[index] = twice - state[index]
            for index in range(size, dim):
                state[index] = -state[index]
        probabilities = [value.real * value.real + value.imag * value.imag for value in state]
        success_probability = float(
            sum(probability for probability, flag in zip(probabilities, mask) if flag)
        )
        total = 0.0
        for probability in probabilities:
            total += probability
        draw = rng.random() * total
        accumulated = 0.0
        for index, probability in enumerate(probabilities):
            accumulated += probability
            if draw < accumulated:
                return index, success_probability
        return dim - 1, success_probability

    return amplify


def _marked_indices(domain_size: int, oracle: Callable[[int], bool]) -> list:
    """Evaluate the predicate once per domain element, in index order."""
    return [state for state in range(domain_size) if oracle(state)]


def _grover_search(
    domain_size: int,
    oracle: Callable[[int], bool],
    num_marked: Optional[int],
    rng: Optional[RandomSource],
    amplify: Amplifier,
) -> GroverResult:
    if domain_size < 1:
        raise ValueError("domain_size must be positive")
    rng = as_quantum_rng(rng)
    marked = _marked_indices(domain_size, oracle)
    if num_marked is None:
        num_marked = len(marked)
    if num_marked == 0:
        # Nothing to find; measuring the uniform superposition gives an
        # unmarked element and zero queries are spent.
        outcome = rng.randrange(domain_size)
        return GroverResult(
            outcome=outcome,
            is_marked=False,
            oracle_queries=0,
            iterations=0,
            success_probability=0.0,
        )
    iterations = grover_iterations(domain_size, num_marked)
    outcome, success_probability = amplify(domain_size, marked, iterations, rng)
    return GroverResult(
        outcome=outcome,
        is_marked=_is_marked(marked, outcome),
        oracle_queries=iterations,
        iterations=iterations,
        success_probability=success_probability,
    )


def _bbht_search(
    domain_size: int,
    marked: Sequence[int],
    rng: QuantumRng,
    amplify: Amplifier,
    growth: float = _BBHT_GROWTH,
    max_rounds: Optional[int] = None,
) -> GroverResult:
    """The Boyer-Brassard-Høyer-Tapp schedule over a sorted marked list."""
    ceiling = 1.0
    total_queries = 0
    rounds = 0
    query_budget = math.ceil(9 * math.sqrt(domain_size)) + 10
    if max_rounds is None:
        max_rounds = 4 * math.ceil(math.log2(domain_size) + 1) + 10
    last_outcome = 0
    while rounds < max_rounds and total_queries <= query_budget:
        rounds += 1
        iterations = rng.randrange(int(ceiling)) if int(ceiling) >= 1 else 0
        outcome, success_probability = amplify(domain_size, marked, iterations, rng)
        total_queries += iterations
        if outcome >= domain_size:
            # Padding state measured (domain not a power of two); re-draw
            # uniformly from the domain as the classical check candidate.
            outcome = rng.randrange(domain_size)
        last_outcome = outcome
        total_queries += 1  # classical verification query
        if _is_marked(marked, outcome):
            return GroverResult(
                outcome=outcome,
                is_marked=True,
                oracle_queries=total_queries,
                iterations=rounds,
                success_probability=success_probability,
            )
        ceiling = min(growth * ceiling, math.sqrt(domain_size))
    return GroverResult(
        outcome=last_outcome,
        is_marked=_is_marked(marked, last_outcome),
        oracle_queries=total_queries,
        iterations=rounds,
        success_probability=0.0,
    )


def grover_search(
    domain_size: int,
    oracle: Callable[[int], bool],
    num_marked: Optional[int] = None,
    rng: Optional[RandomSource] = None,
) -> GroverResult:
    """Run Grover search over ``{0, ..., domain_size - 1}``.

    Parameters
    ----------
    domain_size:
        Size of the search domain (need not be a power of two).
    oracle:
        Predicate marking the good elements (evaluated once per domain
        element to precompute the marked set).
    num_marked:
        If known, the number of marked elements; the optimal iteration count
        is used.  If ``None`` the count is taken from the precomputed set
        (the tests use this mode); for the unknown-count quantum schedule use
        :func:`grover_search_unknown`.  The amplitudes always follow the
        actual marked set.
    rng:
        Measurement randomness (seed / ``random.Random`` / NumPy generator /
        :class:`~repro.quantum.rng.QuantumRng`).

    Returns
    -------
    GroverResult
    """
    return _grover_search(domain_size, oracle, num_marked, rng, _amplify_and_measure)


def grover_search_reference(
    domain_size: int,
    oracle: Callable[[int], bool],
    num_marked: Optional[int] = None,
    rng: Optional[RandomSource] = None,
) -> GroverResult:
    """:func:`grover_search` on a full statevector."""
    return _grover_search(domain_size, oracle, num_marked, rng, _reference_amplifier())


def grover_search_unknown(
    domain_size: int,
    oracle: Callable[[int], bool],
    rng: Optional[RandomSource] = None,
    growth: float = _BBHT_GROWTH,
    max_rounds: Optional[int] = None,
) -> GroverResult:
    """Grover search when the number of marked elements is unknown.

    Implements the Boyer-Brassard-Høyer-Tapp exponential schedule: repeatedly
    pick a random iteration count below a growing ceiling, run that many
    Grover iterations, and check the measured element classically.  The
    expected total number of oracle queries is ``O(sqrt(N/M))``; if no element
    is marked the search gives up after ``O(sqrt(N))`` total queries.

    The classical check of each candidate is counted as one additional oracle
    query, matching the usual query-complexity accounting.
    """
    if domain_size < 1:
        raise ValueError("domain_size must be positive")
    marked = _marked_indices(domain_size, oracle)
    return _bbht_search(
        domain_size, marked, as_quantum_rng(rng), _amplify_and_measure, growth, max_rounds
    )


def grover_search_unknown_reference(
    domain_size: int,
    oracle: Callable[[int], bool],
    rng: Optional[RandomSource] = None,
    growth: float = _BBHT_GROWTH,
    max_rounds: Optional[int] = None,
) -> GroverResult:
    """:func:`grover_search_unknown` on a full statevector."""
    if domain_size < 1:
        raise ValueError("domain_size must be positive")
    marked = _marked_indices(domain_size, oracle)
    return _bbht_search(
        domain_size,
        marked,
        as_quantum_rng(rng),
        _reference_amplifier(),
        growth,
        max_rounds,
    )
