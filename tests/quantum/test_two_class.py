"""The two-class Grover state against the full-statevector reference.

Every search in :mod:`repro.quantum.grover` and :mod:`repro.quantum.minmax`
steps the exact pair ``(a_marked, a_unmarked)`` instead of a ``2**q``
amplitude vector.  Each one has a ``*_reference`` twin running the same
control flow on a full statevector; these tests hold the two to identical
outcomes, query counts and schedules, hold both amplifiers to the closed-form
``sin^2((2k+1) theta)`` law at every iteration count, and pin exact
(float-free) marking of tables beyond ``2**53``.  The reference shares the
runs' control flow, so golden values recorded from the earlier
full-statevector implementation pin that flow itself.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.quantum import (
    amplitude_amplification_success_probability,
    grover_iterations,
    grover_search,
    grover_search_reference,
    grover_search_unknown,
    grover_search_unknown_reference,
    quantum_extremum_reference,
    quantum_maximum,
    quantum_minimum,
)
from repro.quantum.grover import _amplify_and_measure, _reference_amplifier
from repro.quantum.rng import QuantumRng

PROBABILITY_TOL = 1e-12
CLOSED_FORM_TOL = 1e-9

seeds = st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def value_tables(draw):
    size = draw(st.integers(min_value=1, max_value=100))
    bound = draw(st.sampled_from([1, 3, 10**6]))  # constant, duplicates, spread
    return draw(
        st.lists(st.integers(min_value=0, max_value=bound - 1), min_size=size, max_size=size)
    )


@st.composite
def marked_domains(draw):
    size = draw(st.integers(min_value=1, max_value=100))
    marked = draw(st.sets(st.integers(min_value=0, max_value=size - 1)))
    return size, marked


DIRECTIONS = pytest.mark.parametrize(
    "maximize, search",
    [(True, quantum_maximum), (False, quantum_minimum)],
    ids=["maximum", "minimum"],
)


def assert_same_extremum(fast, reference):
    assert fast.index == reference.index
    assert fast.value == reference.value
    assert fast.oracle_queries == reference.oracle_queries
    assert fast.threshold_updates == reference.threshold_updates
    assert fast.is_exact == reference.is_exact


def assert_same_grover(fast, reference):
    assert fast.outcome == reference.outcome
    assert fast.is_marked == reference.is_marked
    assert fast.oracle_queries == reference.oracle_queries
    assert fast.iterations == reference.iterations
    assert abs(fast.success_probability - reference.success_probability) <= PROBABILITY_TOL


@given(
    values=value_tables(),
    seed=seeds,
    repetitions=st.integers(min_value=1, max_value=5),
    query_budget=st.none() | st.integers(min_value=1, max_value=120),
)
@example(values=[9], seed=0, repetitions=1, query_budget=None)
@example(values=[4] * 37, seed=1, repetitions=5, query_budget=None)
@example(values=list(range(100)), seed=2, repetitions=3, query_budget=15)
@settings(max_examples=60, deadline=None)
@DIRECTIONS
def test_durr_hoyer_matches_statevector_reference(
    maximize, search, values, seed, repetitions, query_budget
):
    fast = search(values, rng=seed, repetitions=repetitions, query_budget=query_budget)
    reference = quantum_extremum_reference(
        values,
        maximize,
        rng=seed,
        repetitions=repetitions,
        query_budget=query_budget,
    )
    assert_same_extremum(fast, reference)


@given(domain=marked_domains(), seed=seeds)
@example(domain=(1, {0}), seed=0)
@example(domain=(1, set()), seed=0)
@example(domain=(37, {3, 36}), seed=5)
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("use_hint", [True, False], ids=["hinted", "counted"])
def test_grover_search_matches_statevector_reference(use_hint, domain, seed):
    size, marked = domain
    num_marked = len(marked) if use_hint else None
    fast = grover_search(size, marked.__contains__, num_marked=num_marked, rng=seed)
    reference = grover_search_reference(
        size, marked.__contains__, num_marked=num_marked, rng=seed
    )
    assert_same_grover(fast, reference)


@given(domain=marked_domains(), seed=seeds)
@example(domain=(1, {0}), seed=0)
@example(domain=(1, set()), seed=3)
@example(domain=(100, set()), seed=4)
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("max_rounds", [None, 3], ids=["default_rounds", "three_rounds"])
def test_bbht_matches_statevector_reference(max_rounds, domain, seed):
    size, marked = domain
    fast = grover_search_unknown(size, marked.__contains__, rng=seed, max_rounds=max_rounds)
    reference = grover_search_unknown_reference(
        size, marked.__contains__, rng=seed, max_rounds=max_rounds
    )
    assert_same_grover(fast, reference)


@st.composite
def amplification_rounds(draw):
    size = draw(
        st.sampled_from([2**q for q in range(8)]) | st.integers(min_value=1, max_value=200)
    )
    marked = draw(st.sets(st.integers(min_value=0, max_value=size - 1), min_size=1))
    return size, sorted(marked)


@given(domain=amplification_rounds(), seed=seeds)
@example(domain=(1, [0]), seed=0)
@example(domain=(128, [5]), seed=1)
@example(domain=(200, [0, 199]), seed=2)
@example(domain=(3, [0, 1, 2]), seed=3)
@settings(max_examples=60, deadline=None)
def test_amplifiers_follow_the_closed_form_at_every_iteration_count(domain, seed):
    """Both amplifiers give ``sin^2((2k+1) theta)`` for every ``k`` up to twice
    the optimum (past it the state rotates away again), and measure the same
    outcome from the same stream."""
    size, marked = domain
    reference = _reference_amplifier()
    for iterations in range(2 * grover_iterations(size, len(marked)) + 1):
        predicted = amplitude_amplification_success_probability(
            size, len(marked), iterations
        )
        fast_outcome, fast_probability = _amplify_and_measure(
            size, marked, iterations, QuantumRng(seed + iterations)
        )
        reference_outcome, reference_probability = reference(
            size, marked, iterations, QuantumRng(seed + iterations)
        )
        assert abs(fast_probability - predicted) <= CLOSED_FORM_TOL
        assert abs(reference_probability - predicted) <= CLOSED_FORM_TOL
        assert fast_outcome == reference_outcome


def _table(seed, size, bound):
    rng = random.Random(seed)
    return [rng.randrange(bound) for _ in range(size)]


class TestGoldenValues:
    """Results recorded from the batched statevector implementation."""

    SPREAD = _table(17, 500, 10**6)
    DUPLICATES = _table(18, 300, 5)

    @pytest.mark.parametrize(
        "search, table, kwargs, expected",
        [
            (quantum_maximum, "SPREAD", dict(rng=5, repetitions=3), (154, 997651, 900, 13)),
            (
                quantum_minimum,
                "SPREAD",
                dict(rng=6, repetitions=2, query_budget=40),
                (86, 5408, 104, 10),
            ),
            (quantum_maximum, "DUPLICATES", dict(rng=7, repetitions=4), (17, 4, 696, 7)),
            (quantum_minimum, "DUPLICATES", dict(rng=8, repetitions=1), (217, 0, 173, 2)),
        ],
    )
    def test_durr_hoyer(self, search, table, kwargs, expected):
        result = search(getattr(self, table), **kwargs)
        assert (
            result.index,
            result.value,
            result.oracle_queries,
            result.threshold_updates,
        ) == expected
        assert result.is_exact

    def test_grover_searches(self):
        bbht = grover_search_unknown(300, lambda x: x % 37 == 5, rng=9)
        assert (bbht.outcome, bbht.oracle_queries, bbht.iterations) == (42, 13, 9)
        assert bbht.success_probability == pytest.approx(0.831821703404, abs=1e-12)
        grover = grover_search(77, lambda x: x in (3, 50), rng=4)
        assert (grover.outcome, grover.oracle_queries, grover.iterations) == (3, 4, 4)
        assert grover.success_probability == pytest.approx(0.987068946225, abs=1e-12)


class TestBeyondFloatPrecision:
    """Entries past ``2**53`` are marked exactly as the classical check compares.

    ``2**53`` and ``2**53 + 1`` collapse to one float, so a float-cast oracle
    marks nothing and the search cannot move off its first threshold.  An
    exact oracle sees the same one-marked-in-1024 structure as ``[0]*1023 +
    [1]``, so every seed must give the same run on both tables.
    """

    BIG = [2**53] * 1023 + [2**53 + 1]
    SMALL = [0] * 1023 + [1]
    BIG_MINIMUM = [2**53 + 1] * 1023 + [2**53]

    def test_two_class_search_finds_the_maximum(self):
        for seed in range(40):
            big = quantum_maximum(self.BIG, rng=seed, repetitions=1)
            small = quantum_maximum(self.SMALL, rng=seed, repetitions=1)
            assert (big.index, big.oracle_queries, big.threshold_updates) == (
                small.index,
                small.oracle_queries,
                small.threshold_updates,
            )
            assert big.is_exact == small.is_exact
            assert big.value == 2**53 + 1

    def test_minimum_beyond_float_precision(self):
        for seed in range(10):
            assert quantum_minimum(self.BIG_MINIMUM, rng=seed, repetitions=1).value == 2**53

    @DIRECTIONS
    def test_reference_marks_exactly(self, maximize, search):
        table = self.BIG if maximize else self.BIG_MINIMUM
        for seed in range(3):
            reference = quantum_extremum_reference(table, maximize, rng=seed, repetitions=1)
            assert_same_extremum(search(table, rng=seed, repetitions=1), reference)
            assert reference.value == (2**53 + 1 if maximize else 2**53)
