"""SciPy kernel backend, the accelerated tier (registered only when SciPy is
importable).

SciPy's compiled Fibonacci-heap Dijkstra (``scipy.sparse.csgraph.dijkstra``)
runs the exact-distance kernels and the arrival-gated min-plus kernel; the
extremal eccentricity prunes with those rows.  Lemma 3.3's column fold and
min-plus rows, skeleton sampling and Dürr–Høyer threshold marking run as
NumPy array passes.  The hop-*bounded* kernel has no ``csgraph`` equivalent
and runs the base-class reference.

Exactness: all inputs are positive integers, and every finite value is an
integer sum below ``2**53``, where ``min``/``+`` on float64 are exact, so
results are bit-for-bit identical to the pure-Python backend; inputs that
could leave that range take the exact-int reference.

The sparse matrix mirror of a snapshot is cached in ``csr.memo`` so repeated
kernel calls on the same snapshot build it once; the gated kernel reuses its
index arrays, already in SciPy's own index dtype.
"""

from __future__ import annotations

import collections.abc
import functools
import itertools
import math
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.kernels.backend import (
    GatedColumn,
    GatedTotals,
    KernelBackend,
    ThresholdMarks,
    get_backend,
    register_backend,
)
from repro.kernels.csr import CSRGraph

__all__ = ["ScipyBackend"]

_MATRIX_KEY = "scipy:csr-matrix"
_EXACT_KEY = "scipy:float64-exact"

#: Every integer below this is exact in float64.
_EXACT_FLOAT = 2**53


class ScipyBackend(KernelBackend):
    """Compiled Dijkstra for the distance kernels, NumPy arrays for the rest."""

    name = "scipy"

    prune_batch = 4  # a Dijkstra costs per source: narrow batches waste fewest

    def _matrix(self, csr: CSRGraph) -> csr_matrix:
        matrix = csr.memo.get(_MATRIX_KEY)
        if matrix is None:
            indptr, indices, weights = csr.numpy_arrays()
            n = csr.num_nodes
            matrix = csr_matrix((weights, indices, indptr), shape=(n, n))
            csr.memo[_MATRIX_KEY] = matrix
        return matrix

    @staticmethod
    def _float64_exact(csr: CSRGraph) -> bool:
        """Whether every shortest-path length (at most ``(n - 1) * W``) is
        exact in float64; memoized per snapshot.  When not, the distance
        kernels return the exact-int reference's rows."""
        exact = csr.memo.get(_EXACT_KEY)
        if exact is None:
            bound = (csr.num_nodes - 1) * max(csr.weights, default=0)
            exact = csr.memo[_EXACT_KEY] = bound < _EXACT_FLOAT
        return exact

    def multi_source_sssp(
        self, csr: CSRGraph, sources: Sequence[int]
    ) -> List[np.ndarray]:
        source_list = list(sources)
        if not source_list:
            return []
        if not self._float64_exact(csr):
            return get_backend("python").multi_source_sssp(csr, source_list)
        # The CSR snapshot stores both directions of every undirected edge,
        # so the directed interpretation is already symmetric.
        distances = _csgraph_dijkstra(
            self._matrix(csr), directed=True, indices=source_list
        )
        return list(np.atleast_2d(distances))

    def sssp(self, csr: CSRGraph, source: int) -> np.ndarray:
        return self.multi_source_sssp(csr, [source])[0]

    def extremal_eccentricity(
        self, csr: CSRGraph, maximize: bool
    ) -> Tuple[float, List[int]]:
        # Bound pruning (Takes & Kosters, CIKM 2011): each exact row from v
        # bounds every e(w) by max(d, e(v) - d) <= e(w) <= e(v) + d; a node
        # whose bound excludes the best eccentricity found can neither attain
        # nor tie it.  Value and nodes come from exact rows; bounds stay < 2nW.
        n = csr.num_nodes
        if 2 * n * max(csr.weights, default=0) >= _EXACT_FLOAT:
            return get_backend("python").extremal_eccentricity(csr, maximize)
        lower, upper = np.zeros(n), np.full(n, np.inf)
        eccentricity, candidate = np.full(n, np.nan), np.ones(n, dtype=bool)
        batch = [int(np.argmax(np.diff(csr.numpy_arrays()[0])))]
        for turn in itertools.count():
            rows = np.asarray(self.multi_source_sssp(csr, batch))
            if turn == 0 and np.isinf(rows).any():
                return math.inf, list(range(n))
            ecc = rows.max(axis=1)[:, None]
            eccentricity[batch] = ecc[:, 0]
            candidate[batch] = False
            np.maximum(lower, np.maximum(rows, ecc - rows).max(axis=0), out=lower)
            np.minimum(upper, (ecc + rows).min(axis=0), out=upper)
            best = np.nanmax(eccentricity) if maximize else np.nanmin(eccentricity)
            candidate &= (upper >= best) if maximize else (lower <= best)
            left = np.flatnonzero(candidate)
            if not len(left):
                return best, np.flatnonzero(eccentricity == best).tolist()
            # Alternate between the likeliest extremal candidates and the
            # likeliest opposite ones, whose rows tighten the other bound.
            toward = (turn % 2 == 0) == maximize
            order = np.argsort(-upper[left] if toward else lower[left], kind="stable")
            batch = left[order[: self.prune_batch]].tolist()

    def gated_minplus(
        self,
        csr: CSRGraph,
        palettes: Sequence[Sequence[int]],
        positions: Sequence[int],
        columns: Sequence[GatedColumn],
        value_cap: Optional[int],
        bandwidth: int,
    ) -> Tuple[Sequence[List[Any]], GatedTotals]:
        """One ``csgraph`` Dijkstra per (palette, limit) batch of columns.

        Every palette is laid out over the CSR entries once per call.  A
        batch whose columns each have one seed of value 0 (all of Algorithm
        3's) runs from those seeds directly; any other batch gives each
        column a virtual source with an edge of weight ``value + 1`` to each
        of its seeds.  Entries within the limit are exact, so the one-step
        extension past it -- one pass over every column -- starts only from
        the frontier: settled entries whose heaviest edge reaches past their
        column's limit, each relaxing its own CSR entries.  The fired
        entries are taken off the table once and reduced to the report's
        totals by :func:`_gated_totals`.  Runs whose values could leave
        float64's exact range take the exact-int reference.  The rows stay
        float64 until read.
        """
        n = csr.num_nodes
        if not columns or not _exact_in_float64(n, palettes, columns, value_cap):
            return super().gated_minplus(
                csr, palettes, positions, columns, value_cap, bandwidth
            )
        cap = math.inf if value_cap is None else value_cap
        groups, seeds, offsets, relax_limits, fire_limits, overheads = zip(*columns)
        limits = [min(limit, cap) for limit in relax_limits]
        structure = self._matrix(csr)
        indptr, indices = structure.indptr, structure.indices
        degree = np.diff(indptr).astype(np.int64)
        has_edges = degree > 0
        layout = np.asarray(positions, np.intp)
        table = np.empty((len(palettes), layout.size))
        for group, palette in enumerate(palettes):
            table[group] = np.asarray(palette, np.float64)[layout]
        values = np.full((len(columns), n), np.inf)

        batches: Dict[Tuple[int, int], List[int]] = {}
        for j, key in enumerate(zip(groups, limits)):
            batches.setdefault(key, []).append(j)
        # One matrix on the snapshot's index arrays; each batch swaps in its
        # palette's weights.
        matrix = csr_matrix((table[0], indices, indptr), shape=(n, n))
        for (group, limit), batch in batches.items():
            if limit < 0:
                continue  # nothing relaxes; the seeds are set below
            batch_seeds = [seeds[j] for j in batch]
            if all(len(seed) == 1 and seed[0][1] == 0 for seed in batch_seeds):
                matrix.data = table[group]
                values[batch] = _csgraph_dijkstra(
                    matrix,
                    directed=True,
                    indices=[seed[0][0] for seed in batch_seeds],
                    limit=limit,
                )
                continue
            seed_nodes = [node for seed in batch_seeds for node, _ in seed]
            seed_values = [value for seed in batch_seeds for _, value in seed]
            counts = np.cumsum([len(seed) for seed in batch_seeds])
            size = n + len(batch)
            virtual = csr_matrix(
                (
                    np.concatenate([table[group], np.add(seed_values, 1.0)]),
                    np.concatenate([indices, seed_nodes]),
                    np.concatenate([indptr, len(indices) + counts]),
                ),
                shape=(size, size),
            )
            values[batch] = (
                _csgraph_dijkstra(
                    virtual, directed=True, indices=np.arange(n, size), limit=limit + 1
                )[:, :n]
                - 1
            )

        groups = np.asarray(groups, np.intp)
        heaviest = np.zeros((len(palettes), n))
        heaviest[:, has_edges] = np.maximum.reduceat(
            table, indptr[:-1][has_edges], axis=1
        )
        rows, senders = np.nonzero(
            np.isfinite(values) & (values + heaviest[groups] > np.asarray(limits)[:, None])
        )
        fan_out = degree[senders]
        entry = np.arange(fan_out.sum()) + np.repeat(
            indptr[senders] - np.cumsum(fan_out) + fan_out, fan_out
        )
        rows = np.repeat(rows, fan_out)
        candidate = values[rows, senders.repeat(fan_out)] + table[groups[rows], entry]
        keep = candidate <= cap
        np.minimum.at(values, (rows[keep], indices[entry][keep]), candidate[keep])

        seed_cols = [j for j, seed in enumerate(seeds) for _ in seed]
        seed_nodes = [node for seed in seeds for node, _ in seed]
        seed_values = [value for seed in seeds for _, value in seed]
        values[seed_cols, seed_nodes] = np.minimum(
            values[seed_cols, seed_nodes], seed_values
        )

        fire = (values <= np.asarray(fire_limits)[:, None]) & has_edges
        per_column = np.count_nonzero(fire, axis=1)
        fired = values[fire]
        rounds = np.repeat(np.asarray(offsets, np.int64), per_column) + fired.astype(np.int64)
        # bit_length(d) is frexp's exponent for integral d >= 0 (0 for d = 0).
        bits = np.repeat(np.asarray(overheads, np.int64), per_column) + np.frexp(fired)[1] + 1
        senders = np.broadcast_to(np.arange(n), values.shape)[fire]
        return _ExactRows(values), _gated_totals(rounds, senders, bits, degree, bandwidth)

    def fold_scaled_columns(
        self,
        rows: Sequence[Sequence[Any]],
        targets: Sequence[int],
        scales: Sequence[float],
        origins: Sequence[Optional[int]],
    ) -> Any:
        # Entries below 2**53 are exact in float64, so each product is the
        # reference's; fmin skips NaN the way the reference's ``<`` does.
        values = np.asarray(rows, dtype=np.float64)
        if values.ndim != 2 or not _exact(values):
            return super().fold_scaled_columns(rows, targets, scales, origins)
        best = np.full((len(values), len(origins)), np.inf)
        for target, origin in enumerate(origins):
            if origin is not None:
                best[origin, target] = 0.0
        if len(targets):
            scaled = np.full(values.shape, np.inf)
            finite = np.isfinite(values)
            np.multiply(values, np.asarray(scales, np.float64), out=scaled, where=finite)
            order = np.argsort(targets, kind="stable")
            grouped = np.asarray(targets)[order]
            starts = np.flatnonzero(np.diff(grouped, prepend=-1))
            hit = grouped[starts]
            folded = np.fmin.reduceat(scaled[:, order], starts, axis=1)
            best[:, hit] = np.fmin(best[:, hit], folded)
        return best

    def min_plus_rows(
        self, offsets: Sequence[float], matrix: Sequence[Sequence[float]]
    ) -> List[float]:
        shift = np.asarray(offsets, dtype=np.float64)
        values = np.asarray(matrix, dtype=np.float64)
        if values.ndim != 2 or not (_exact(shift) and _exact(values)):
            return super().min_plus_rows(offsets, matrix)
        return np.fmin.reduce(values + shift, axis=1, initial=np.inf).tolist()

    def skeleton_sets(
        self,
        nodes: Sequence[Any],
        probability: float,
        num_sets: int,
        rng: random.Random,
        ensure_nonempty: bool,
    ) -> List[List[Any]]:
        # ``rng``'s Mersenne Twister state runs on in a legacy RandomState:
        # its ``random_sample`` and CPython's ``random()`` both return
        # genrand_res53 doubles (two 32-bit words each), so one vector of
        # ``n`` draws is exactly the reference's ``n`` calls.  The state goes
        # back to ``rng`` around the rare ``randrange`` patch and at the end.
        n = len(nodes)
        stream = np.random.RandomState(0)
        _load_state(stream, rng)
        sets: List[List[Any]] = []
        for _ in range(num_sets):
            hits = np.flatnonzero(stream.random_sample(n) < probability)
            members = [nodes[index] for index in hits.tolist()]
            if not members and ensure_nonempty:
                _store_state(stream, rng)
                members = [nodes[rng.randrange(n)]]
                _load_state(stream, rng)
            sets.append(sorted(members))
        _store_state(stream, rng)
        return sets

    def threshold_marks(self, values: Sequence[Any], maximize: bool) -> ThresholdMarks:
        # Only a table NumPy holds exactly compares like the reference: all
        # items exactly ``int`` within int64, or all exactly ``float``.
        kinds = set(map(type, values))
        try:
            if kinds == {int}:
                return _ArrayMarks(np.array(values, dtype=np.int64), maximize)
            if kinds == {float}:
                return _ArrayMarks(np.array(values, dtype=np.float64), maximize)
        except OverflowError:  # an int at or beyond 2**63
            pass
        return super().threshold_marks(values, maximize)


class _ArrayMarks(ThresholdMarks):
    """:class:`ThresholdMarks` on an exact int64 or float64 copy of the
    table; the current answer is kept as an index array.  The answers are
    handed out as lists: the search bisects them, and indexing an array
    from Python costs a NumPy scalar per read."""

    def __init__(self, table: np.ndarray, maximize: bool) -> None:
        self._table = table
        self._better = np.greater if maximize else np.less
        self._reduce = np.max if maximize else np.min
        self._pick = max if maximize else min
        self._indices = np.empty(0, dtype=np.intp)

    def optimum(self) -> Any:
        best = self._reduce(self._table)
        # A NaN anywhere makes the reduction NaN, while Python's max/min
        # keeps the first item unless a later one compares better.
        return self._pick(self._table.tolist()) if best != best else best

    def start(self, threshold: Any) -> List[int]:
        self._indices = np.flatnonzero(self._better(self._table, threshold))
        return self._indices.tolist()

    def narrow(self, threshold: Any) -> List[int]:
        indices = self._indices
        self._indices = indices[self._better(self._table[indices], threshold)]
        return self._indices.tolist()


def exact_int_rows(values: np.ndarray) -> List[List[Any]]:
    """The rows of an integral float64 table as exact ints, with
    ``math.inf`` for each entry that is not finite (the callers' tables
    hold no ``-inf`` or NaN)."""
    finite = np.isfinite(values)
    if finite.all():
        return values.astype(np.int64).tolist()
    table = np.where(finite, values, 0).astype(np.int64).astype(object)
    table[~finite] = math.inf
    return table.tolist()


def _exact(values: np.ndarray) -> bool:
    """Whether float64 holds every integer the reference could hold here."""
    return not (np.abs(values[np.isfinite(values)]) >= _EXACT_FLOAT).any()


def _load_state(stream: np.random.RandomState, rng: random.Random) -> None:
    """Continue ``rng``'s MT19937 stream in ``stream``."""
    internal = rng.getstate()[1]
    stream.set_state(
        ("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1])
    )


def _store_state(stream: np.random.RandomState, rng: random.Random) -> None:
    """Hand ``stream``'s MT19937 position back to ``rng``."""
    version, _, gauss_next = rng.getstate()
    _, key, position = stream.get_state()[:3]
    rng.setstate((version, tuple(key.tolist()) + (position,), gauss_next))


class _ExactRows(collections.abc.Sequence):
    """The node rows of a float64 ``(columns, n)`` table as the reference's
    exact ints and ``math.inf``, converted on the first read of a row;
    ``np.asarray`` reads the floats unconverted."""

    def __init__(self, values: np.ndarray) -> None:
        self._values = values

    @functools.cached_property
    def _rows(self) -> List[List[Any]]:
        return exact_int_rows(self._values.T)

    def __array__(self, dtype: Any = None, copy: Any = None) -> np.ndarray:
        return np.asarray(self._values.T, dtype=dtype)

    def __len__(self) -> int:
        return self._values.shape[1]

    def __getitem__(self, index: Any) -> Any:
        return self._rows[index]


def _exact_in_float64(
    n: int,
    palettes: Sequence[Sequence[int]],
    columns: Sequence[GatedColumn],
    value_cap: Optional[int],
) -> bool:
    """Whether every value of the run stays below ``2**53``, and with it
    every (round, sender) key of :func:`_gated_totals` below ``2**54``."""
    heaviest = max((max(palette) for palette in palettes if palette), default=0)
    reach = max(column.relax_limit for column in columns)
    if value_cap is not None:
        reach = min(reach, value_cap)
    largest_seed = max(
        (value for column in columns for _, value in column.seeds), default=0
    )
    last_round = max(column.offset + column.fire_limit for column in columns)
    return (
        reach + 1 + heaviest < _EXACT_FLOAT
        and largest_seed < _EXACT_FLOAT
        and (last_round + 1) * n < _EXACT_FLOAT
    )


def _gated_totals(
    rounds: np.ndarray, senders: np.ndarray, bits: np.ndarray, degree: np.ndarray, bandwidth: int
) -> GatedTotals:
    """The :class:`GatedTotals` of the fired entries, given as each entry's
    delivery round, sender and message bits.

    Messages, bits and the largest message need no grouping.  The cells --
    one per (round, sender) -- come from one sort of the packed int64
    ``(round << S | sender) << B | bits``, with ``2**S >= n`` and ``B`` the
    bit count of the largest message; keys too large to pack are argsorted
    instead.  Within a cell the order does not matter: its entries only
    sum.  The round peaks are one ``maximum.reduceat`` over round starts.
    """
    if not bits.size:
        return GatedTotals(0, 0, 0, 0, 0, 0)
    fan_out = degree[senders]
    largest = int(bits.max())
    messages, total_bits = int(fan_out.sum()), int(np.dot(bits, fan_out))
    sender_shift = (len(degree) - 1).bit_length()
    cells = rounds << sender_shift | senders
    bit_shift = largest.bit_length()
    if int(cells.max()) < 1 << (63 - bit_shift):
        packed = np.sort(cells << bit_shift | bits)
        cells, bits = packed >> bit_shift, packed & ((1 << bit_shift) - 1)
    else:
        order = np.argsort(cells)
        cells, bits = cells[order], bits[order]
    # Few cells hold several entries: each later entry adds its bits to the
    # first of its cell and drops to 0, which no peak or check can pick.
    later = np.flatnonzero(cells[1:] == cells[:-1]) + 1
    if later.size:
        new_cell = np.diff(later, prepend=-2) != 1
        first = (later[new_cell] - 1)[np.cumsum(new_cell) - 1]
        np.add.at(bits, first, bits[later])
        bits[later] = 0
    rounds = cells >> sender_shift
    round_starts = np.flatnonzero(np.concatenate(([True], rounds[1:] != rounds[:-1])))
    peaks = np.maximum.reduceat(bits, round_starts)
    # Cells are sorted by (round, sender): the first over budget is the
    # first violation in (round, node) order.
    over = np.flatnonzero(bits > bandwidth)
    return GatedTotals(
        active_rounds=round_starts.size,
        extra_charge=int((-(-peaks // bandwidth)).sum()) - round_starts.size,
        messages=messages,
        bits=total_bits,
        max_message_bits=largest,
        first_violation=int(bits[over[0]]) if over.size else 0,
    )


register_backend(ScipyBackend())
