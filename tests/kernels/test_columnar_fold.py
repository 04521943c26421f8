"""Differential tests for the columnar path from Algorithm 3 to Lemma 3.3.

``KernelBackend.fold_scaled_columns`` (Algorithm 3's level fold) and
``KernelBackend.min_plus_rows`` (Lemma 3.3's combination) hold the
pure-Python references in the base class.  Every registered backend must
return exactly their floats -- on ``inf`` entries, zero columns, a single
source, sources that reach no one, and exact-int tables past ``2**53`` --
whichever backend built the matrix it reads.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import WeightedGraph
from repro.kernels import CSRGraph, KernelBackend, available_backends, get_backend
from repro.kernels.backend import GatedColumn

pytestmark = pytest.mark.kernels

REFERENCE = KernelBackend()
INF = math.inf
SCALES = [0.0, 1e-3, 0.25, 1 / 3, 0.5, 1.5, 7.0, 2.0**-30]


def _floats(matrix):
    """Rows of ``repr(float)`` strings: equal values, bit for bit."""
    return [[repr(float(value)) for value in row] for row in matrix]


@st.composite
def fold_inputs(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    num_sources = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=0, max_value=8))  # 0: zero levels
    huge = draw(st.booleans())
    low = 2**53 if huge else 0
    entry = st.one_of(
        st.just(INF), st.integers(min_value=low, max_value=low + 10**6)
    )
    rows = [[draw(entry) for _ in range(k)] for _ in range(n)]
    targets = [draw(st.integers(0, num_sources - 1)) for _ in range(k)]
    scales = [draw(st.sampled_from(SCALES)) for _ in range(k)]
    origin = st.none() if n == 0 else st.one_of(st.none(), st.integers(0, n - 1))
    origins = [draw(origin) for _ in range(num_sources)]
    return rows, targets, scales, origins


@settings(max_examples=80, deadline=None)
@given(fold_inputs())
def test_every_backend_folds_like_the_reference(inputs):
    rows, targets, scales, origins = inputs
    expected = REFERENCE.fold_scaled_columns(rows, targets, scales, origins)
    assert len(expected) == len(rows)
    for name in available_backends():
        matrix = get_backend(name).fold_scaled_columns(rows, targets, scales, origins)
        assert _floats(matrix) == _floats(expected), name


@st.composite
def combine_inputs(draw):
    m = draw(st.integers(min_value=0, max_value=5))
    finite = st.floats(min_value=0, max_value=1e6, allow_nan=False)
    value = st.one_of(st.just(INF), finite)
    if draw(st.booleans()):  # an exact-int overlay past float64's exact range
        offset = st.one_of(value, st.integers(min_value=2**53, max_value=2**60))
    else:
        offset = value
    offsets = [draw(offset) for _ in range(m)]
    n = draw(st.integers(min_value=0, max_value=9))
    matrix = [[draw(value) for _ in range(m)] for _ in range(n)]
    return offsets, matrix


@settings(max_examples=80, deadline=None)
@given(combine_inputs())
def test_every_backend_combines_like_the_reference(inputs):
    offsets, matrix = inputs
    expected = REFERENCE.min_plus_rows(offsets, matrix)
    assert all(type(value) is float for value in expected)
    for name in available_backends():
        got = get_backend(name).min_plus_rows(offsets, matrix)
        assert [repr(value) for value in got] == [repr(value) for value in expected], name
        assert all(type(value) is float for value in got), name


def test_min_plus_rows_minimum_over_skeleton():
    for name in available_backends():
        backend = get_backend(name)
        assert backend.min_plus_rows([1.0, 5.0], [[10.0, 2.0]]) == [7.0]
        assert backend.min_plus_rows([INF, 2.0], [[3.0, INF]]) == [INF]
        assert backend.min_plus_rows([], [[], []]) == [INF, INF]


@pytest.mark.parametrize("name", available_backends())
def test_single_source_that_reaches_no_one(name):
    """One source, two levels: the source row folds to 0.0, a row with only
    ``inf`` entries stays ``inf``, and a reached row takes the smaller
    rescaled level."""
    rows = [[0, 0], [INF, INF], [4, 3]]
    matrix = get_backend(name).fold_scaled_columns(rows, [0, 0], [0.25, 0.5], [0])
    assert _floats(matrix) == _floats([[0.0], [INF], [1.0]])


@pytest.mark.parametrize("producer", available_backends())
@pytest.mark.parametrize("consumer", available_backends())
def test_gated_tables_fold_and_combine_across_backends(producer, consumer):
    """A gated run's table -- the SciPy backend keeps it float64 until its
    rows are read -- folds and combines to the reference's floats, whichever
    backend reads it, without converting the rows."""
    graph = WeightedGraph(edges=[(0, 1, 2), (1, 2, 3), (2, 3, 1), (4, 5, 1)])
    csr = CSRGraph.from_graph(graph)
    columns = [
        GatedColumn(group=0, seeds=((0, 0),), offset=1, relax_limit=4, fire_limit=4, overhead=7),
        GatedColumn(group=0, seeds=((0, 0),), offset=1, relax_limit=9, fire_limit=9, overhead=7),
        GatedColumn(group=0, seeds=((4, 0),), offset=1, relax_limit=9, fire_limit=9, overhead=7),
    ]
    layout = range(csr.num_directed_edges)
    table, _ = get_backend(producer).gated_minplus(
        csr, [csr.weights], layout, columns, 8, 64
    )
    reference_rows, _ = REFERENCE.gated_minplus(
        csr, [csr.weights], layout, columns, 8, 64
    )
    arguments = ([0, 0, 1], [0.5, 0.25, 1.0], [0, 4])
    expected = REFERENCE.fold_scaled_columns(reference_rows, *arguments)
    matrix = get_backend(consumer).fold_scaled_columns(table, *arguments)
    if consumer != "python":  # an override reads the floats unconverted
        assert "_rows" not in getattr(table, "__dict__", {})
    assert _floats(matrix) == _floats(expected)
    assert _floats(expected) == _floats(
        [[0.0, INF], [0.5, INF], [1.25, INF], [1.5, INF], [INF, 0.0], [INF, 1.0]]
    )
    combined = get_backend(consumer).min_plus_rows([2.0, 0.5], matrix)
    assert combined == REFERENCE.min_plus_rows([2.0, 0.5], expected)
    assert list(table) == reference_rows  # the rows, converted on demand
