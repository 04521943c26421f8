"""SciPy ``csgraph`` kernel backend (registered only when SciPy is importable).

Exactly the kind of drop-in the backend registry exists for: SciPy's compiled
Fibonacci-heap Dijkstra (``scipy.sparse.csgraph.dijkstra``) is an order of
magnitude faster again than the vectorized relaxation, so when SciPy is
present it becomes the ``auto`` choice for the exact-distance kernels and
for the arrival-gated min-plus kernel.  The hop-*bounded* kernel has no
``csgraph`` equivalent and is inherited from the NumPy backend (SciPy implies
NumPy).

The sparse matrix mirror of a snapshot is cached in ``csr.memo`` so repeated
kernel calls on the same snapshot build it once.
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
from repro.kernels.numpy_backend import NumpyBackend

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

        Each column gets a virtual source with an edge of weight ``value + 1``
        to each of its seeds, so multi-seed columns need no special case.
        Entries within the limit are exact, so the one-step extension past
        it starts only from the frontier: settled entries whose heaviest
        edge reaches past the limit, each relaxing its own CSR entries.  The
        per-round histogram is vectorized.  Runs whose values could leave
        float64's exact range take the exact-int reference.  The rows stay
        float64 until read.
        """
        n = csr.num_nodes
        if not columns or not _exact_in_float64(n, palettes, columns, value_cap):
            return super().gated_minplus(
                csr, palettes, positions, columns, value_cap, bandwidth
            )
        indptr, indices, _ = csr.numpy_arrays()
        degree = np.diff(indptr)
        has_edges = degree > 0
        starts = indptr[:-1][has_edges]
        layout = np.asarray(positions, np.intp)
        cap = math.inf if value_cap is None else value_cap
        values = np.full((len(columns), n), np.inf)

        batches: Dict[Tuple[int, int], List[int]] = {}
        for j, column in enumerate(columns):
            batches.setdefault((column.group, min(column.relax_limit, cap)), []).append(j)
        for (group, limit), batch in batches.items():
            if limit < 0:
                continue  # nothing relaxes; the seeds are set below
            weight = np.asarray(palettes[group], np.float64)[layout]
            seed_nodes = [node for j in batch for node, _ in columns[j].seeds]
            seed_values = [value for j in batch for _, value in columns[j].seeds]
            counts = np.cumsum([len(columns[j].seeds) for j in batch])
            size = n + len(batch)
            matrix = csr_matrix(
                (
                    np.concatenate([weight, np.asarray(seed_values, np.float64) + 1]),
                    np.concatenate([indices, np.asarray(seed_nodes, np.int64)]),
                    np.concatenate([indptr, len(indices) + counts]),
                ),
                shape=(size, size),
            )
            dist = (
                _csgraph_dijkstra(
                    matrix, directed=True, indices=np.arange(n, size), limit=limit + 1
                )[:, :n]
                - 1
            )
            heaviest = np.zeros(n)
            heaviest[has_edges] = np.maximum.reduceat(weight, starts)
            rows, senders = np.nonzero(np.isfinite(dist) & (dist + heaviest > limit))
            fan_out = degree[senders]
            entry = np.arange(fan_out.sum()) + np.repeat(
                indptr[senders] - np.cumsum(fan_out) + fan_out, fan_out
            )
            candidate = np.repeat(dist[rows, senders], fan_out) + weight[entry]
            keep = candidate <= cap
            np.minimum.at(
                dist,
                (np.repeat(rows, fan_out)[keep], indices[entry][keep]),
                candidate[keep],
            )
            values[batch] = dist

        seed_cols = [j for j, column in enumerate(columns) for _ in column.seeds]
        seed_nodes = [node for column in columns for node, _ in column.seeds]
        seed_values = np.asarray(
            [value for column in columns for _, value in column.seeds], np.float64
        )
        values[seed_cols, seed_nodes] = np.minimum(
            values[seed_cols, seed_nodes], seed_values
        )

        fire_limit = np.asarray([column.fire_limit for column in columns])
        fired_cols, fired_nodes = np.nonzero(
            (values <= fire_limit[:, None]) & has_edges
        )
        fired = values[fired_cols, fired_nodes]
        offset = np.asarray([column.offset for column in columns], np.int64)
        overhead = np.asarray([column.overhead for column in columns], np.int64)
        keys = (offset[fired_cols] + fired.astype(np.int64)) * n + fired_nodes
        # bit_length(d) is frexp's exponent for integral d >= 0 (0 for d = 0).
        bits = overhead[fired_cols] + np.frexp(fired)[1] + 1
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
        finite = np.isfinite(self._values.T)
        table = np.where(finite, self._values.T, 0).astype(np.int64).astype(object)
        table[~finite] = math.inf
        return table.tolist()

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
    """Histogram fired entries (key ``round * n + sender``) into round records."""
    if not keys.size:
        return GatedRounds([], [], [], [], [], [])
    order = np.argsort(keys)
    keys, bits = keys[order], bits[order]
    cell_starts = np.flatnonzero(np.diff(keys, prepend=-1))
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
