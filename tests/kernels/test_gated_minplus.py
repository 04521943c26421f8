"""The arrival-gated min-plus kernel: exact-int reference vs the SciPy backend.

``KernelBackend.gated_minplus`` returns each column's bounded Dijkstra
distances and the message totals of the broadcasts they imply.  The heap
implementation on exact ints is the reference; the SciPy backend batches
columns into ``csgraph`` calls (straight from the seeds when every column of
a batch has one zero seed, through virtual sources otherwise), extends every
column one step past its limit from the frontier only, and reduces the
fired entries to totals off one packed sort.  Both must agree exactly --
same row values *and* types, same totals -- and the totals must be the sums
of the per-round records that ``gated_trace.round_records`` rebuilds from
the rows, including multi-seed columns, one node seeding several columns of
a batch, cells holding several entries, runs where nothing fires, directed
weights laid out as palettes, limits that cut a column off before its cap,
caps that cut the extension, nodes without edges, strict-bandwidth
violations, messages too large to pack, and inputs past float64's exact
range.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import WeightedGraph, path_graph
from repro.kernels import CSRGraph, available_backends, get_backend
from repro.kernels.backend import GatedColumn, GatedTotals

from gated_trace import RoundRecords, round_records, totals_of

pytestmark = pytest.mark.kernels

INF = math.inf

needs_scipy = pytest.mark.skipif(
    "scipy" not in available_backends(), reason="SciPy backend not installed"
)


def _typed(rows):
    """Rows with each value's type, so ``5`` and ``5.0`` differ."""
    return [[(type(value), value) for value in row] for row in rows]


def _identity(csr):
    """The layout giving each CSR entry its own palette slot."""
    return range(csr.num_directed_edges)


def _both(csr, palettes, positions, columns, value_cap, bandwidth):
    """Both backends' rows and totals agree, and the totals are the sums of
    the rows' per-round records; returns the rows, the records and the
    totals."""
    rows, totals = get_backend("python").gated_minplus(
        csr, palettes, positions, columns, value_cap, bandwidth
    )
    scipy = get_backend("scipy").gated_minplus(
        csr, palettes, positions, columns, value_cap, bandwidth
    )
    assert _typed(scipy[0]) == _typed(rows)
    records = round_records(csr, rows, columns, bandwidth)
    assert scipy[1] == totals == totals_of(records)
    return rows, records, totals


def test_reference_on_a_weighted_path():
    """Path 0 -2- 1 -3- 2 from node 0: values 0, 2, 5 broadcast in rounds
    1, 3 and 6, each to every neighbor."""
    csr = CSRGraph.from_graph(WeightedGraph(edges=[(0, 1, 2), (1, 2, 3)]))
    column = GatedColumn(
        group=0, seeds=((0, 0),), offset=1, relax_limit=10, fire_limit=10, overhead=7
    )
    rows, totals = get_backend("python").gated_minplus(
        csr, [csr.weights], _identity(csr), [column], None, 64
    )
    assert rows == [[0], [2], [5]]
    records = round_records(csr, rows, [column], 64)
    assert records == RoundRecords(
        round=[1, 3, 6],
        messages=[1, 2, 1],
        bits=[8, 2 * 10, 11],
        max_message_bits=[8, 10, 11],
        edge_charge=[1, 1, 1],
        violation_bits=[0, 0, 0],
    )
    assert totals == totals_of(records) == GatedTotals(
        active_rounds=3,
        extra_charge=0,
        messages=4,
        bits=39,
        max_message_bits=11,
        first_violation=0,
    )


def test_reference_relaxes_boundary_entries_it_never_fires():
    """A limit below the cap: entries past it take their best candidate from
    an expanded neighbor, and entries past the fire limit stay silent."""
    csr = CSRGraph.from_graph(path_graph(4))  # unit weights: 0-1-2-3
    column = GatedColumn(
        group=0, seeds=((0, 0),), offset=1, relax_limit=1, fire_limit=1, overhead=0
    )
    rows, totals = get_backend("python").gated_minplus(
        csr, [(1,)], [0] * csr.num_directed_edges, [column], 5, 64
    )
    assert rows == [[0], [1], [2], [math.inf]]
    assert round_records(csr, rows, [column], 64).round == [1, 2]
    assert (totals.active_rounds, totals.messages) == (2, 3)


@needs_scipy
def test_first_violating_sender_in_node_order():
    """Two senders over budget in one round: the record keeps the first in
    node order, while the charge follows the largest."""
    graph = WeightedGraph(edges=[(0, 1, 1), (1, 2, 1)])
    csr = CSRGraph.from_graph(graph)
    columns = [
        GatedColumn(0, ((0, 0), (2, 0)), 1, 5, 5, 20),
        GatedColumn(0, ((2, 0),), 1, 5, 5, 40),
    ]
    _, records, totals = _both(csr, [csr.weights], _identity(csr), columns, None, 16)
    assert records.round[0] == 1
    assert records.violation_bits[0] == 21  # node 0: one 21-bit entry
    assert records.edge_charge[0] == math.ceil((21 + 41) / 16)  # node 2
    assert totals.first_violation == 21


@needs_scipy
def test_values_past_float64_stay_exact():
    """Weights past 2**53 send the SciPy backend to the exact-int reference."""
    huge = 2**53 + 1
    csr = CSRGraph.from_graph(WeightedGraph(edges=[(0, 1, huge), (1, 2, 1)]))
    column = GatedColumn(0, ((0, 0),), 1, 2**60, 2**60, 0)
    rows, records, _ = _both(csr, [csr.weights], _identity(csr), [column], None, 10**6)
    assert rows == [[0], [huge], [huge + 1]]
    assert records.round == [1, huge + 1, huge + 2]


@needs_scipy
def test_cap_cuts_the_extension_of_a_multi_column_batch():
    """Two columns share a batch (same palette, same limit).  Past the limit
    each extends one step from its frontier: column 0's candidate 5 at node
    2 is over the cap and dropped, column 1's candidate 4 is kept."""
    csr = CSRGraph.from_graph(WeightedGraph(edges=[(0, 1, 2), (1, 2, 3), (2, 3, 4)]))
    columns = [
        GatedColumn(0, ((0, 0),), 1, 3, 3, 0),
        GatedColumn(0, ((3, 0),), 1, 3, 3, 0),
    ]
    rows, _, _ = _both(csr, [csr.weights], _identity(csr), columns, 4, 64)
    assert rows == [[0, INF], [2, INF], [INF, 4], [INF, 0]]


@needs_scipy
def test_unreached_nodes_without_a_reached_neighbor_stay_unreached():
    """Only nodes next to the frontier can take a candidate: on a unit path
    with limit 1, node 2 extends to 2 and nodes 3.. stay ``inf``."""
    csr = CSRGraph.from_graph(path_graph(7))
    columns = [GatedColumn(0, ((0, 0),), 1, 1, 1, 0), GatedColumn(0, ((6, 1),), 1, 1, 1, 0)]
    rows, _, _ = _both(csr, [(1,)], [0] * csr.num_directed_edges, columns, None, 64)
    assert [row[0] for row in rows] == [0, 1, 2, INF, INF, INF, INF]
    assert [row[1] for row in rows] == [INF, INF, INF, INF, INF, 2, 1]


@needs_scipy
def test_node_without_edges():
    """An isolated node keeps its seed value, is never reached from
    elsewhere and never sends."""
    graph = WeightedGraph(nodes=range(4))
    graph.add_edge(0, 1, 2)
    graph.add_edge(1, 2, 1)
    csr = CSRGraph.from_graph(graph)
    columns = [
        GatedColumn(0, ((0, 0),), 1, 9, 9, 0),
        GatedColumn(0, ((3, 0), (2, 1)), 1, 0, 9, 0),
    ]
    rows, records, _ = _both(csr, [csr.weights], _identity(csr), columns, 8, 64)
    assert rows == [[0, INF], [2, INF], [3, 1], [INF, 0]]
    assert records.round == [1, 2, 3, 4]


@needs_scipy
def test_every_cell_over_bandwidth():
    """Every sender of every round is over the budget: each round records
    its first sender in node order, and the charge follows the largest."""
    csr = CSRGraph.from_graph(WeightedGraph(edges=[(0, 1, 1), (1, 2, 1), (2, 3, 1)]))
    columns = [
        GatedColumn(0, ((0, 0),), 1, 9, 9, 30),
        GatedColumn(0, ((3, 0),), 1, 9, 9, 50),
    ]
    _, records, totals = _both(csr, [(1,)], [0] * csr.num_directed_edges, columns, None, 20)
    assert records.round == [1, 2, 3, 4]
    # Round 2: node 1 sends 32 bits (column 0) and node 2 sends 52 (column
    # 1); round 3: node 1 sends 53 and node 2 sends 33.
    assert records.violation_bits == [31, 32, 53, 53]
    assert records.edge_charge == [3, 3, 3, 3]
    assert (totals.first_violation, totals.extra_charge) == (31, 8)


@needs_scipy
def test_cells_holding_several_entries():
    """Two columns with the same seed and offset: every (round, sender)
    cell holds two entries, whose bits add up before the bandwidth check
    and the round's charge."""
    csr = CSRGraph.from_graph(path_graph(3))  # unit weights: 0-1-2
    columns = [
        GatedColumn(0, ((0, 0),), 1, 5, 5, 10),
        GatedColumn(0, ((0, 0),), 1, 5, 5, 20),
    ]
    _, records, totals = _both(csr, [(1,)], [0] * csr.num_directed_edges, columns, None, 33)
    # Cells: 11 + 21 bits, 12 + 22 and 13 + 23.
    assert records == RoundRecords(
        round=[1, 2, 3],
        messages=[2, 4, 2],
        bits=[32, 2 * 34, 36],
        max_message_bits=[21, 22, 23],
        edge_charge=[1, 2, 2],
        violation_bits=[0, 34, 36],
    )
    assert totals == GatedTotals(
        active_rounds=3,
        extra_charge=2,
        messages=8,
        bits=136,
        max_message_bits=23,
        first_violation=34,
    )


@needs_scipy
def test_a_run_where_nothing_fires():
    """A fire limit below every value and a column without seeds: the rows
    are still computed, and nothing is sent."""
    csr = CSRGraph.from_graph(path_graph(3))
    columns = [GatedColumn(0, ((0, 2),), 1, 5, 1, 0), GatedColumn(0, (), 1, 5, 5, 0)]
    rows, records, totals = _both(csr, [(1,)], [0] * csr.num_directed_edges, columns, None, 8)
    assert rows == [[2, INF], [3, INF], [4, INF]]
    assert records == RoundRecords([], [], [], [], [], [])
    assert totals == GatedTotals(0, 0, 0, 0, 0, 0)


@needs_scipy
def test_zero_seeded_batch_with_one_node_seeding_two_columns():
    """Every column of the batch has one seed of value 0, so the batch runs
    from its seeds directly; node 1 seeds two of its columns."""
    csr = CSRGraph.from_graph(WeightedGraph(edges=[(0, 1, 2), (1, 2, 3), (2, 3, 1)]))
    columns = [
        GatedColumn(0, ((1, 0),), 1, 4, 4, 5),
        GatedColumn(0, ((1, 0),), 3, 4, 4, 9),
        GatedColumn(0, ((3, 0),), 1, 4, 4, 0),
    ]
    rows, records, _ = _both(csr, [csr.weights], _identity(csr), columns, None, 64)
    assert rows == [[2, 2, 6], [0, 0, 4], [3, 3, 1], [4, 4, 0]]
    assert records.round[:3] == [1, 2, 3]


@needs_scipy
def test_mixed_batches_of_zero_seeds_and_other_seeds():
    """One palette's batch is all zero seeds, the other's has a multi-seed
    and a nonzero-seed column; both must match the reference."""
    csr = CSRGraph.from_graph(path_graph(5))
    positions = [0] * csr.num_directed_edges
    columns = [
        GatedColumn(0, ((0, 0),), 1, 6, 6, 0),
        GatedColumn(0, ((4, 0),), 1, 6, 6, 0),
        GatedColumn(1, ((0, 0), (4, 0)), 1, 6, 6, 0),
        GatedColumn(1, ((2, 3),), 1, 6, 6, 0),
    ]
    rows, _, _ = _both(csr, [(1,), (2,)], positions, columns, None, 64)
    assert [row[0] for row in rows] == [0, 1, 2, 3, 4]
    assert [row[2] for row in rows] == [0, 2, 4, 2, 0]
    assert [row[3] for row in rows] == [7, 5, 3, 5, 7]


@needs_scipy
def test_huge_overheads_take_the_argsort_fallback():
    """Packing ``(round << S | sender) << B | bits`` needs the cell key below
    ``2**(63 - B)``, with ``2**S >= n`` and ``B`` the bit count of the
    largest message; overheads near ``2**40`` and rounds past ``2**23``
    break that, so the totals argsort the cell keys instead."""
    csr = CSRGraph.from_graph(path_graph(4))
    overhead = 2**40
    offset = 2**23
    columns = [
        GatedColumn(0, ((0, 0),), offset, 5, 5, overhead),
        GatedColumn(0, ((3, 0), (1, 0)), offset, 5, 5, overhead + 7),
    ]
    largest_key = (offset + 3) << (csr.num_nodes - 1).bit_length() | 3
    assert largest_key >= 2 ** (63 - (overhead + 7 + 3).bit_length())
    _, records, totals = _both(csr, [(1,)], [0] * csr.num_directed_edges, columns, None, 2**41)
    assert records.round == [offset, offset + 1, offset + 2, offset + 3]
    assert records.max_message_bits[0] == overhead + 7 + 1
    # Column 1's value-1 entries at nodes 0 and 2 are the largest messages.
    assert (totals.messages, totals.max_message_bits) == (12, overhead + 7 + 2)


@needs_scipy
def test_two_calls_on_one_snapshot_agree():
    """The index arrays are memoized on the snapshot; a second call with
    the same inputs returns the same rows and records."""
    graph = WeightedGraph(edges=[(0, 1, 3), (1, 2, 1), (2, 0, 5), (2, 3, 2)])
    csr = CSRGraph.from_graph(graph)
    distinct = sorted(set(csr.weights))
    positions = [distinct.index(weight) for weight in csr.weights]
    palettes = [tuple(distinct), tuple(2 * weight for weight in distinct)]
    columns = [
        GatedColumn(0, ((0, 0),), 1, 9, 9, 3),
        GatedColumn(1, ((3, 0),), 2, 9, 9, 3),
    ]
    scipy = get_backend("scipy")
    first = scipy.gated_minplus(csr, palettes, positions, columns, 12, 16)
    second = scipy.gated_minplus(csr, palettes, positions, columns, 12, 16)
    assert _typed(second[0]) == _typed(first[0])
    assert second[1] == first[1]
    _both(csr, palettes, positions, columns, 12, 16)


@st.composite
def gated_runs(draw):
    """A random graph, directed weights laid out as palettes, and gated
    columns."""
    n = draw(st.integers(min_value=1, max_value=8))
    graph = WeightedGraph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                graph.add_edge(u, v, draw(st.integers(min_value=1, max_value=9)))
    csr = CSRGraph.from_graph(graph)
    size = draw(st.integers(min_value=1, max_value=4))
    positions = draw(
        st.lists(
            st.integers(min_value=0, max_value=size - 1),
            min_size=csr.num_directed_edges,
            max_size=csr.num_directed_edges,
        )
    )
    palette = st.lists(
        st.integers(min_value=1, max_value=9), min_size=size, max_size=size
    ).map(tuple)
    palettes = draw(st.lists(palette, min_size=1, max_size=3))
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        nodes = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
        relax_limit = draw(st.integers(min_value=-1, max_value=30))
        columns.append(
            GatedColumn(
                group=draw(st.integers(0, len(palettes) - 1)),
                seeds=tuple(
                    (node, draw(st.integers(min_value=0, max_value=12)))
                    for node in nodes
                ),
                offset=draw(st.integers(min_value=1, max_value=6)),
                relax_limit=relax_limit,
                fire_limit=relax_limit + draw(st.integers(min_value=0, max_value=3)),
                overhead=draw(st.integers(min_value=0, max_value=40)),
            )
        )
    value_cap = draw(st.none() | st.integers(min_value=0, max_value=30))
    bandwidth = draw(st.integers(min_value=8, max_value=200))
    return csr, palettes, positions, columns, value_cap, bandwidth


@needs_scipy
@given(gated_runs())
@settings(max_examples=200, deadline=None)
def test_scipy_matches_reference(run):
    _both(*run)


@needs_scipy
@given(gated_runs())
@settings(max_examples=25, deadline=None)
def test_scipy_matches_reference_above_float64_range(run):
    """Shift every weight past 2**53: both backends must run exact ints."""
    csr, palettes, positions, columns, value_cap, bandwidth = run
    shifted = [[weight + 2**53 for weight in palette] for palette in palettes]
    columns = [
        column._replace(relax_limit=2**54, fire_limit=2**54) for column in columns
    ]
    _both(csr, shifted, positions, columns, None, bandwidth)


@needs_scipy
@given(gated_runs(), st.data())
@settings(max_examples=100, deadline=None)
def test_scipy_matches_reference_on_zero_seeded_columns(run, data):
    """Single zero-valued seeds everywhere (Algorithm 3's shape): every
    batch runs from its seeds directly, and nodes may seed several columns."""
    csr, palettes, positions, columns, value_cap, bandwidth = run
    n = csr.num_nodes
    columns = [
        column._replace(seeds=((data.draw(st.integers(0, n - 1)), 0),))
        for column in columns
    ]
    _both(csr, palettes, positions, columns, value_cap, bandwidth)
