"""Property-based tests for the quantum search substrate.

Amplitude amplification follows the exact ``sin^2((2t+1) theta)`` law at the
optimal iteration count, and Dürr-Høyer always reports an actual element
that never beats the true optimum.  Each property runs on the two-class
searches and on their full-statevector ``*_reference`` twins.  The law at
every iteration count is checked in ``test_two_class.py``.
"""

from __future__ import annotations

import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantum import (
    amplitude_amplification_success_probability,
    grover_search,
    grover_search_reference,
    quantum_extremum_reference,
    quantum_maximum,
    quantum_minimum,
)

GROVER_SEARCHES = pytest.mark.parametrize(
    "search", [grover_search, grover_search_reference], ids=["two_class", "reference"]
)
EXTREMUM_SEARCHES = pytest.mark.parametrize(
    "maximum, minimum",
    [
        (quantum_maximum, quantum_minimum),
        (
            partial(quantum_extremum_reference, maximize=True),
            partial(quantum_extremum_reference, maximize=False),
        ),
    ],
    ids=["two_class", "reference"],
)


@GROVER_SEARCHES
@given(st.integers(min_value=2, max_value=64), st.data())
@settings(max_examples=25, deadline=None)
def test_grover_success_probability_matches_formula(search, domain_size, data):
    """The simulated success probability equals sin^2((2t+1) theta) exactly."""
    num_marked = data.draw(st.integers(min_value=1, max_value=domain_size))
    marked = set(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=domain_size - 1),
                min_size=num_marked,
                max_size=num_marked,
                unique=True,
            )
        )
    )
    result = search(domain_size, lambda x: x in marked, num_marked=len(marked))
    predicted = amplitude_amplification_success_probability(
        domain_size, len(marked), result.iterations
    )
    assert abs(result.success_probability - predicted) < 1e-9
    assert result.success_probability >= 0.49  # optimal iteration count is good


@EXTREMUM_SEARCHES
@given(
    st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=60),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_quantum_extrema_bracket_true_extrema(maximum, minimum, values, seed):
    """The reported extremum is always an actual element and never better than
    the true optimum (it can only be equal or -- with small probability --
    strictly inside the range)."""
    largest = maximum(values, rng=seed)
    smallest = minimum(values, rng=seed)
    assert largest.value in values
    assert smallest.value in values
    assert largest.value <= max(values)
    assert smallest.value >= min(values)
    assert smallest.value <= largest.value
    assert largest.oracle_queries >= 1
    assert smallest.oracle_queries >= 1


@given(st.integers(min_value=1, max_value=256), st.integers(min_value=0, max_value=8))
@settings(max_examples=50, deadline=None)
def test_success_probability_formula_bounds(num_marked, iterations):
    domain = 256
    probability = amplitude_amplification_success_probability(
        domain, min(num_marked, domain), iterations
    )
    assert 0.0 <= probability <= 1.0
    # Zero iterations gives exactly the uniform-measurement baseline.
    baseline = amplitude_amplification_success_probability(domain, num_marked, 0)
    assert abs(baseline - num_marked / domain) < 1e-9


@GROVER_SEARCHES
@given(
    st.integers(min_value=2, max_value=48),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_sin_squared_law_single_marked(search, domain_size, seed):
    """For one marked element the state follows the sin^2 law at every step."""
    theta = math.asin(math.sqrt(1 / domain_size))
    marked = seed % domain_size
    result = search(domain_size, lambda x: x == marked, num_marked=1)
    expected = math.sin((2 * result.iterations + 1) * theta) ** 2
    assert abs(result.success_probability - expected) < 1e-9
