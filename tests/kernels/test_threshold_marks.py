"""Dürr-Høyer threshold marking: every backend against the reference.

``KernelBackend.threshold_marks`` returns one object per extremum search:
``start(t)`` marks the indices strictly better than ``t`` and ``narrow(t')``
keeps those of the last answer still strictly better than ``t'``, both as
sorted index lists.  The base class compares the original items in Python
and is the reference.  The SciPy backend compares an array copy when it is
exact (all items exactly ``int`` within int64, or all exactly ``float``)
and falls back to the reference otherwise.  Every registered
backend must give the reference's lists, as lists of ``int``, along whole
``start``/``narrow`` chains: on ints at and past ``2**53`` and ``2**63``,
``bool``s, floats with ``±inf`` and NaN, mixed int/float, strings, ties,
single items, and tuple and ``range`` tables.  ``optimum()`` must equal
exactly the items Python's ``max``/``min`` of the table equals, so the
search's ``is_exact`` flag is the same on every backend -- with a NaN
first, in the middle or last too, where the Python result depends on the
order.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernels import KernelBackend, available_backends, get_backend

pytestmark = pytest.mark.kernels

REFERENCE = KernelBackend()

#: Item strategies; each table draws all its items from one of them.
ITEMS = {
    "small int": st.integers(min_value=-5, max_value=5),
    "int64 edge": st.sampled_from(
        [-(2**63), -(2**53) - 1, 0, 2**53, 2**53 + 1, 2**62, 2**63 - 1]
    ),
    "past int64": st.integers(min_value=2**63 - 2, max_value=2**63 + 2),
    "bool": st.booleans(),
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "float ties": st.sampled_from([-math.inf, -1.5, 0.0, -0.0, 2.0**53, math.inf, math.nan]),
    "int and float": st.one_of(st.integers(-3, 3), st.sampled_from([2.0**53 + 2, 0.5, -1.0])),
    "int and bool": st.one_of(st.integers(-2, 2), st.booleans()),
    "text": st.text(alphabet="abc", max_size=2),
}


@st.composite
def chains(draw):
    """A table, a direction and the thresholds of one ``start`` and a few
    ``narrow`` calls, each threshold an item of the table."""
    kind = draw(st.sampled_from(sorted(ITEMS)))
    values = draw(st.lists(ITEMS[kind], min_size=1, max_size=40))
    container = draw(st.sampled_from([list, tuple]))
    picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=1, max_size=5))
    return container(values), draw(st.booleans()), [values[i] for i in picks]


def _answers(backend, values, maximize, thresholds):
    marks = backend.threshold_marks(values, maximize)
    answers = [marks.start(thresholds[0])]
    answers += [marks.narrow(threshold) for threshold in thresholds[1:]]
    return answers


def _check_chain(values, maximize, thresholds):
    expected = _answers(REFERENCE, values, maximize, thresholds)
    for name in available_backends():
        answers = _answers(get_backend(name), values, maximize, thresholds)
        assert answers == expected, name
        for answer in answers:
            assert type(answer) is list
            assert all(type(index) is int for index in answer)


@settings(max_examples=100, deadline=None)
@given(chains())
@example(([7], True, [7, 7]))  # size 1: nothing is strictly better
@example(([3, 3, 1, 3, 5, 5], False, [5, 3, 1]))  # ties
@example((tuple([2**63 - 1, -(2**63), 2**53 + 1, 2**53]), True, [-(2**63), 2**53]))
@example(([2**63, 1, 2**64], False, [2**64, 2**63]))
@example(([True, False, True, 2], True, [False, True]))
@example(([1, 2.5, 2**53 + 1, float(2**53)], True, [1, float(2**53)]))
@example(([math.nan, 1.0, -math.inf, math.inf, 0.0], True, [-math.inf, math.nan, 0.0]))
@example(([math.nan, 1.0, -math.inf, math.inf, -0.0], False, [math.inf, 0.0]))
def test_every_backend_marks_like_the_reference(chain):
    _check_chain(*chain)


def _check_optimum(values, maximize):
    """Every item equals each backend's optimum exactly when it equals
    Python's ``max``/``min`` of the table (the ``is_exact`` test)."""
    expected = max(values) if maximize else min(values)
    for name in available_backends():
        optimum = get_backend(name).threshold_marks(values, maximize).optimum()
        for item in values:
            assert bool(item == optimum) == bool(item == expected), (name, item)


@settings(max_examples=100, deadline=None)
@given(chains())
def test_every_backend_finds_the_reference_optimum(chain):
    values, maximize, _ = chain
    _check_optimum(values, maximize)


@pytest.mark.parametrize("maximize", [True, False])
@pytest.mark.parametrize(
    "values",
    [
        [math.nan, 1.0, -2.0, 3.0],
        [1.0, -2.0, math.nan, 3.0],
        [1.0, -2.0, 3.0, math.nan],
        (math.nan,),
        [math.nan, math.nan, 0.5],
    ],
    ids=["first", "middle", "last", "only", "leading-run"],
)
def test_nan_keeps_the_python_optimum(values, maximize):
    """Python's max/min keeps a leading NaN (nothing compares better) and
    skips a later one; NumPy's reductions would return NaN for all."""
    _check_optimum(values, maximize)
    optimum = get_backend().threshold_marks(values, maximize).optimum()
    if math.isnan(values[0]):
        assert math.isnan(optimum)
    else:
        assert optimum == (3.0 if maximize else -2.0)


@pytest.mark.parametrize("maximize", [True, False])
def test_range_tables(maximize):
    values = range(50, -50, -3)
    _check_chain(values, maximize, [values[10], values[5], values[20]])


@pytest.mark.parametrize("backend", available_backends())
def test_answers_stay_put_and_chains_restart(backend):
    """A search's repetitions each ``start`` afresh on one marks object, and
    the search keeps every earlier answer while it narrows."""
    marks = get_backend(backend).threshold_marks([5, 1, 8, 3, 8, 0, 6], maximize=False)
    first = marks.start(6)
    narrowed = marks.narrow(3)
    assert (first, narrowed) == ([0, 1, 3, 5], [1, 5])
    assert marks.start(8) == [0, 1, 3, 5, 6]
    assert marks.narrow(1) == [5]
    assert first == [0, 1, 3, 5] and narrowed == [1, 5]
    maximum = get_backend(backend).threshold_marks((4, 9, 1, 7, 9, 3), maximize=True)
    assert maximum.start(3) == [0, 1, 3, 4]
    assert maximum.narrow(7) == [1, 4]
    assert maximum.narrow(9) == []


def test_numpy_takes_the_array_path_only_on_exact_tables():
    np = pytest.importorskip("numpy")
    pytest.importorskip("scipy")
    from repro.kernels.scipy_backend import ScipyBackend, _ArrayMarks

    backend = ScipyBackend()
    array_path = [
        [3, -1, 2**63 - 1, -(2**63)],
        (2**53 + 1, 2**53),
        range(10),
        [1.5, -math.inf, math.nan, 0.0],
    ]
    reference_path = [
        [True, False],
        [1, True],
        [1, 2**63],
        [1, 2.0],
        ["a", "b"],
        [np.int64(3), np.int64(4)],
        [np.float64(1.0), 2.0],
    ]
    for values in array_path:
        assert type(backend.threshold_marks(values, True)) is _ArrayMarks, values
    for values in reference_path:
        assert type(backend.threshold_marks(values, True)) is not _ArrayMarks, values
        _check_chain(values, True, [values[0], values[1]])
