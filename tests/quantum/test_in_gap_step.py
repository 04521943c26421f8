"""The O(1) in-gap measurement step and backend-independent extremum searches.

``grover._amplify_and_measure`` finds the unmarked gap that holds the
outcome by bisection, then inside the gap estimates the index by one
division and steps to the first index whose cumulative mass exceeds the
draw.  :func:`_bisect_amplify` below keeps the earlier full bisection of
that gap; the step must return its outcome and success probability on every
state: all marked, none marked, ``p_unmarked == 0`` and domains that are not
powers of two included.

Dürr-Høyer's marked sets come from the kernel backend chosen at call time,
so ``quantum_maximum`` / ``quantum_minimum`` must return equal results
under ``REPRO_BACKEND=python`` and ``auto``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.quantum import quantum_maximum, quantum_minimum
from repro.quantum.grover import _amplify_and_measure, _num_qubits_for
from repro.quantum.rng import QuantumRng


def _bisect_amplify(size, marked, iterations, rng):
    """The two-class amplifier with the in-gap search as a bisection."""
    num_marked = len(marked)
    num_unmarked = size - num_marked
    a_marked = a_unmarked = 1 / math.sqrt(size)
    for _ in range(iterations):
        mean = (num_marked * -a_marked + num_unmarked * a_unmarked) / size
        a_marked, a_unmarked = 2 * mean + a_marked, 2 * mean - a_unmarked
    p_marked, p_unmarked = a_marked * a_marked, a_unmarked * a_unmarked
    draw = rng.random() * (num_marked * p_marked + num_unmarked * p_unmarked)
    gap = bisect_right(
        range(num_marked),
        draw,
        key=lambda j: p_marked * (j + 1) + p_unmarked * (marked[j] - j),
    )
    low = marked[gap - 1] + 1 if gap else 0
    high = marked[gap] if gap < num_marked else size
    outcome = low + bisect_right(
        range(low, high),
        draw,
        key=lambda index: p_marked * gap + p_unmarked * (index + 1 - gap),
    )
    if outcome == size:
        outcome = 2 ** _num_qubits_for(size) - 1
    return outcome, num_marked * p_marked


def _masses(size, num_marked, iterations):
    """``(p_marked, p_unmarked)`` after ``iterations``, as the amplifiers step them."""
    a_marked = a_unmarked = 1 / math.sqrt(size)
    for _ in range(iterations):
        mean = (num_marked * -a_marked + (size - num_marked) * a_unmarked) / size
        a_marked, a_unmarked = 2 * mean + a_marked, 2 * mean - a_unmarked
    return a_marked * a_marked, a_unmarked * a_unmarked


class _FixedDraw:
    """A stand-in rng whose one ``random()`` draw is given."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def _assert_same(size, marked, iterations, seed):
    step = _amplify_and_measure(size, marked, iterations, QuantumRng(seed))
    reference = _bisect_amplify(size, marked, iterations, QuantumRng(seed))
    assert step == reference


def _assert_same_draw(size, marked, iterations, value):
    step = _amplify_and_measure(size, marked, iterations, _FixedDraw(value))
    reference = _bisect_amplify(size, marked, iterations, _FixedDraw(value))
    assert step == reference


@st.composite
def states(draw):
    size = draw(st.integers(min_value=1, max_value=300))
    shape = draw(st.sampled_from(["subset", "all", "none", "few"]))
    if shape == "all":
        marked = list(range(size))
    elif shape == "none":
        marked = []
    elif shape == "few":
        marked = sorted(draw(st.sets(st.integers(0, size - 1), max_size=3)))
    else:
        marked = sorted(draw(st.sets(st.integers(0, size - 1))))
    iterations = draw(st.integers(min_value=0, max_value=40))
    return size, marked, iterations, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=150, deadline=None)
@given(states())
@example((4, [2], 1, 0))  # one of four marked: one iteration empties the rest
@example((1, [], 0, 5))
@example((1, [0], 3, 5))
@example((5, [0, 1, 2, 3, 4], 2, 9))
@example((3, [], 7, 11))
def test_in_gap_step_matches_the_bisection(state):
    _assert_same(*state)


@settings(max_examples=150, deadline=None)
@given(states(), st.integers(min_value=0))
def test_draws_at_gap_boundaries(state, pick):
    """Draws within a few ulps of an unmarked index's cumulative mass: where
    the division's rounding can land one index past (or before) the answer
    and the step has to walk back (or on)."""
    size, marked, iterations, _ = state
    num_marked = len(marked)
    p_marked, p_unmarked = _masses(size, num_marked, iterations)
    unmarked = sorted(set(range(size)) - set(marked))
    if not unmarked:
        return
    index = unmarked[pick % len(unmarked)]
    gap = bisect_right(marked, index)
    mass = p_marked * gap + p_unmarked * (index + 1 - gap)
    center = mass / (num_marked * p_marked + (size - num_marked) * p_unmarked)
    values = [center]
    for direction in (math.inf, -math.inf):
        value = center
        for _ in range(3):
            value = math.nextafter(value, direction)
            values.append(value)
    for value in values:
        if 0 <= value < 1:
            _assert_same_draw(size, marked, iterations, value)


#: Draws found by a boundary search where the estimate lands one index past
#: the answer (first four) or one before it (last four).
BOUNDARY_DRAWS = [
    (1000, [62, 184, 515], 14, 1.3233962927456188e-05),
    (3, [0, 2], 1, 0.9629629629629629),
    (100, [42, 62, 87], 15, 0.024709856282216995),
    (5, [2], 24, 0.9999999999999999),
    (1000, [103, 362, 573], 13, 0.6654463600035845),
    (100, [3], 6, 0.9622909228907327),
    (16384, [11659], 5, 0.8813663588605967),
    (33, [2, 3, 26], 2, 0.6660974887871958),
]


@pytest.mark.parametrize("size, marked, iterations, value", BOUNDARY_DRAWS)
def test_pinned_boundary_draws(size, marked, iterations, value):
    _assert_same_draw(size, marked, iterations, value)


def test_unmarked_mass_can_be_exactly_zero():
    """One marked item of four: after one iteration every unmarked amplitude
    is exactly 0, so the whole draw falls on the marked item, except a draw
    of exactly 0, which no index's mass exceeds before the marked one."""
    assert _masses(4, 1, 1)[1] == 0
    for marked in ([0], [1], [2], [3]):
        for seed in range(40):
            _assert_same(4, marked, 1, seed)
            assert _amplify_and_measure(4, marked, 1, QuantumRng(seed))[0] == marked[0]
        for value in (0.0, 0.5, 1 - 2**-53):
            _assert_same_draw(4, marked, 1, value)


@pytest.mark.parametrize("size", [2**14, 2**14 + 3, 1000, 2**10 - 1])
def test_large_domains_every_iteration_count(size):
    """Wide gaps, where the division does the work, on domains with and
    without padding states."""
    rng = random.Random(size)
    for _ in range(100):
        count = rng.choice([0, 1, 2, 7, 100, size - 1, size])
        marked = sorted(rng.sample(range(size), count))
        iterations = rng.randrange(0, 2 * math.isqrt(size) + 2)
        _assert_same(size, marked, iterations, rng.randrange(2**31))


def _table(seed, size, item):
    rng = random.Random(seed)
    return [item(rng) for _ in range(size)]


TABLES = {
    "ints": _table(1, 2**12, lambda rng: rng.randrange(2**40)),
    "floats": _table(2, 3000, lambda rng: rng.uniform(-1e6, 1e6)),
    "ties": _table(3, 500, lambda rng: rng.randrange(5)),
    "past int64": _table(4, 400, lambda rng: 2**63 + rng.randrange(100)),
    "bools": _table(5, 300, lambda rng: rng.random() < 0.3),
    "mixed": [1, 2.5, 2**53 + 1, float(2**53), -7, 0.0] * 50,
    "single": [42],
    "tuple": tuple(range(777, 0, -7)),
    "range": range(0, 10_000, 9),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_extremum_results_equal_under_python_and_auto(monkeypatch, name):
    values = TABLES[name]
    for search in (quantum_maximum, quantum_minimum):
        for seed in range(4):
            results = {}
            for backend in ("python", "auto"):
                monkeypatch.setenv("REPRO_BACKEND", backend)
                results[backend] = search(values, rng=seed)
            assert results["python"] == results["auto"]
