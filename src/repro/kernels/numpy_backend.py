"""Vectorized kernel backend (registered only when NumPy is importable).

The workhorse is a *batched* Bellman-Ford relaxation: all sources in a chunk
are relaxed simultaneously against every CSR entry in one vectorized step per
hop.  Because the graph is undirected, node ``v``'s CSR slice lists exactly
its incoming edges, so a per-node minimum over gathered candidates performs
one full relaxation round for the whole source batch at once.  Two layout
tricks keep the kernel memory-friendly:

* **Degree bucketing** -- nodes are grouped by degree ``d`` so each group's
  candidates reshape to ``(count, d, k)`` and reduce with a plain
  ``min(axis=1)`` (much faster than ``np.minimum.reduceat`` over ragged
  segments).
* **Source chunking** -- sources are processed ``chunk`` at a time so the
  ``(M, chunk)`` candidate matrix stays cache-resident even for APSP on
  hundreds of nodes.

With positive weights the iteration converges after (weighted) hop-diameter
rounds, so exact APSP becomes a handful of dense array passes instead of one
dict-based Dijkstra per node.

Exactness: all inputs are positive integers, every finite distance is an
integer sum far below ``2**53``, and ``min``/``+`` on float64 are exact in
that range, so results are bit-for-bit identical to the pure-Python backend.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.backend import (
    KernelBackend,
    ThresholdMarks,
    get_backend,
    register_backend,
)
from repro.kernels.csr import CSRGraph

__all__ = ["NumpyBackend"]

#: Sources processed per relaxation block; 128 keeps the per-round candidate
#: matrix of a sparse 500-node graph within L2-cache reach.
_SOURCE_CHUNK = 128

_BUCKET_KEY = "numpy:degree-buckets"
_EXACT_KEY = "numpy:float64-exact"

#: Every integer below this is exact in float64.
_EXACT_FLOAT = 2**53


class NumpyBackend(KernelBackend):
    """Batched, degree-bucketed relaxation kernels on NumPy CSR mirrors."""

    name = "numpy"

    #: Sources per pruning batch, wide: a relaxation pass costs ~the same for 1 or 16.
    prune_batch = 16

    # ------------------------------------------------------------------ #
    def _buckets(
        self, csr: CSRGraph
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Group nodes by degree: ``(nodes_d, neighbor_idx, weight_column)``.

        ``neighbor_idx``/``weight_column`` are the concatenated CSR entries of
        all degree-``d`` nodes, so ``dist[neighbor_idx] + weight_column``
        reshapes to ``(len(nodes_d), d, k)`` for a vectorized per-node min.
        """
        buckets = csr.memo.get(_BUCKET_KEY)
        if buckets is None:
            indptr, indices, weights = csr.numpy_arrays()
            degrees = np.diff(indptr)
            buckets = []
            for degree in np.unique(degrees):
                if degree == 0:
                    continue
                nodes_d = np.where(degrees == degree)[0]
                gather = (
                    indptr[nodes_d][:, None] + np.arange(degree)[None, :]
                ).ravel()
                buckets.append(
                    (nodes_d, indices[gather], weights[gather][:, None])
                )
            csr.memo[_BUCKET_KEY] = buckets
        return buckets

    # ------------------------------------------------------------------ #
    def _relax_block(
        self, csr: CSRGraph, sources: np.ndarray, max_rounds: int
    ) -> np.ndarray:
        """Relax one source block to round ``max_rounds`` (or convergence).

        Works in transposed ``(n, k)`` layout so each bucket's gather reads
        whole contiguous rows.  Returns the block's ``(k, n)`` distances.
        """
        n = csr.num_nodes
        k = len(sources)
        dist = np.full((n, k), np.inf)
        dist[sources, np.arange(k)] = 0.0
        buckets = self._buckets(csr)
        for _ in range(max_rounds):
            if not buckets:
                break
            new_dist = dist.copy()
            for nodes_d, neighbor_idx, weight_column in buckets:
                candidates = dist[neighbor_idx] + weight_column
                candidates = candidates.reshape(len(nodes_d), -1, k).min(axis=1)
                new_dist[nodes_d] = np.minimum(new_dist[nodes_d], candidates)
            if np.array_equal(new_dist, dist):
                break
            dist = new_dist
        return dist.T

    def _relax(
        self, csr: CSRGraph, sources: Sequence[int], max_rounds: int
    ) -> np.ndarray:
        source_array = np.asarray(list(sources), dtype=np.int64)
        out = np.empty((len(source_array), csr.num_nodes))
        for start in range(0, len(source_array), _SOURCE_CHUNK):
            block = source_array[start : start + _SOURCE_CHUNK]
            out[start : start + len(block)] = self._relax_block(
                csr, block, max_rounds
            )
        return out

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

    # ------------------------------------------------------------------ #
    def sssp(self, csr: CSRGraph, source: int) -> np.ndarray:
        return self.multi_source_sssp(csr, [source])[0]

    def multi_source_sssp(
        self, csr: CSRGraph, sources: Sequence[int]
    ) -> List[np.ndarray]:
        if not self._float64_exact(csr):
            return get_backend("python").multi_source_sssp(csr, sources)
        # Positive weights: relaxation to fixpoint (at most n - 1 rounds)
        # equals Dijkstra exactly.
        return list(self._relax(csr, sources, max(csr.num_nodes - 1, 0)))

    def bounded_hop(
        self, csr: CSRGraph, sources: Sequence[int], max_hops: int
    ) -> List[np.ndarray]:
        if not self._float64_exact(csr):
            return get_backend("python").bounded_hop(csr, sources, max_hops)
        return list(self._relax(csr, sources, max_hops))

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

    # ------------------------------------------------------------------ #
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
        self._indices = np.empty(0, dtype=np.intp)

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


register_backend(NumpyBackend())
