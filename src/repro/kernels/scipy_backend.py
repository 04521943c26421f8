"""SciPy ``csgraph`` kernel backend (registered only when SciPy is importable).

Exactly the kind of drop-in the backend registry exists for: SciPy's compiled
Fibonacci-heap Dijkstra (``scipy.sparse.csgraph.dijkstra``) is an order of
magnitude faster again than the vectorized relaxation, so when SciPy is
present it becomes the ``auto`` choice for the exact-distance kernels and
for the arrival-gated min-plus kernel.  The hop-*bounded* kernel has no
``csgraph`` equivalent and is inherited from the NumPy backend (SciPy implies
NumPy).

The sparse matrix mirror of a snapshot is cached in ``csr.memo`` so repeated
kernel calls on the same snapshot build it once; the gated kernel reuses its
index arrays, already in SciPy's own index dtype.
"""

from __future__ import annotations

import collections.abc
import functools
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.kernels.backend import GatedColumn, GatedRounds, get_backend, register_backend
from repro.kernels.csr import CSRGraph
from repro.kernels.numpy_backend import NumpyBackend, exact_int_rows

__all__ = ["ScipyBackend"]

_MATRIX_KEY = "scipy:csr-matrix"

#: Every integer below this is exact in float64.
_EXACT_FLOAT = 2**53


class ScipyBackend(NumpyBackend):
    """Compiled Dijkstra for the exact kernels, NumPy relaxation for the rest."""

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

    def gated_minplus(
        self,
        csr: CSRGraph,
        palettes: Sequence[Sequence[int]],
        positions: Sequence[int],
        columns: Sequence[GatedColumn],
        value_cap: Optional[int],
        bandwidth: int,
    ) -> Tuple[Sequence[List[Any]], GatedRounds]:
        """One ``csgraph`` Dijkstra per (palette, limit) batch of columns.

        Every palette is laid out over the CSR entries once per call.  A
        batch whose columns each have one seed of value 0 (all of Algorithm
        3's) runs from those seeds directly; any other batch gives each
        column a virtual source with an edge of weight ``value + 1`` to each
        of its seeds.  Entries within the limit are exact, so the one-step
        extension past it -- one pass over every column -- starts only from
        the frontier: settled entries whose heaviest edge reaches past their
        column's limit, each relaxing its own CSR entries.  The per-round
        histogram is vectorized.  Runs whose values could leave float64's
        exact range take the exact-int reference.  The rows stay float64
        until read.
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

        fired_cols, fired_nodes = np.nonzero(
            (values <= np.asarray(fire_limits)[:, None]) & has_edges
        )
        fired = values[fired_cols, fired_nodes]
        keys = (
            np.asarray(offsets, np.int64)[fired_cols] + fired.astype(np.int64)
        ) * n + fired_nodes
        # bit_length(d) is frexp's exponent for integral d >= 0 (0 for d = 0).
        bits = np.asarray(overheads, np.int64)[fired_cols] + np.frexp(fired)[1] + 1
        records = _round_records(keys, bits, n, degree, bandwidth)

        return _ExactRows(values), records


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
    """Whether every value and round key of the run stays below ``2**53``."""
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


def _round_records(
    keys: np.ndarray, bits: np.ndarray, n: int, degree: np.ndarray, bandwidth: int
) -> GatedRounds:
    """Histogram fired entries (key ``round * n + sender``) into round records.

    The entries are sorted as one packed int64, ``key << B | bits`` with
    ``B`` the bit count of the largest ``bits``; keys too large to pack are
    argsorted instead.  A cell is one (round, sender); cells only sum and
    take maxima, so the order of the entries within one does not matter.
    """
    if not keys.size:
        return GatedRounds([], [], [], [], [], [])
    shift = int(bits.max()).bit_length()
    if int(keys.max()) < 1 << (63 - shift):
        packed = np.sort(keys << shift | bits)
        keys, bits = packed >> shift, packed & ((1 << shift) - 1)
    else:
        order = np.argsort(keys)
        keys, bits = keys[order], bits[order]
    cell_starts = np.flatnonzero(np.diff(keys, prepend=-1))
    if cell_starts.size == keys.size:
        entries, sender_bits, largest = 1, bits, bits
    else:
        entries = np.diff(cell_starts, append=keys.size)
        sender_bits = np.add.reduceat(bits, cell_starts)
        largest = np.maximum.reduceat(bits, cell_starts)
    rounds, senders = np.divmod(keys[cell_starts], n)
    new_round = np.diff(rounds, prepend=-1) != 0
    first = np.flatnonzero(new_round)
    round_of = np.cumsum(new_round) - 1
    # Cells are sorted by (round, sender), so the first over-budget cell of a
    # round is its first violating sender in node order.
    violation = np.zeros(first.size, np.int64)
    over = np.flatnonzero(sender_bits > bandwidth)
    over_rounds = round_of[over]
    leads = np.diff(over_rounds, prepend=-1) != 0
    violation[over_rounds[leads]] = sender_bits[over[leads]]
    fan_out = degree[senders]
    charge = -(-np.maximum.reduceat(sender_bits, first) // bandwidth)
    return GatedRounds(
        rounds[first].tolist(),
        np.add.reduceat(entries * fan_out, first).tolist(),
        np.add.reduceat(sender_bits * fan_out, first).tolist(),
        np.maximum.reduceat(largest, first).tolist(),
        np.maximum(charge, 1).tolist(),
        violation.tolist(),
    )


register_backend(ScipyBackend())
