"""Backend registry for the CSR kernels.

Two backends ship with the library:

* ``"scipy"`` -- SciPy's compiled ``csgraph`` Dijkstra for the exact and the
  arrival-gated kernels, NumPy array passes for the reductions, folds,
  sampling and marking (registered only when SciPy is importable).
* ``"python"`` -- :class:`KernelBackend` itself: heap Dijkstra and frontier
  relaxation over the flat CSR lists, dependency-free.  Its methods are the
  references the SciPy backend overrides; the hop-bounded kernel runs here
  on every backend.

Selection order (first match wins):

1. an explicit ``backend=`` argument on the kernel call,
2. a :func:`force_backend` pin of the current context (used by the
   differential tests and by :func:`repro.runtime.configure`),
3. the ``REPRO_BACKEND`` environment variable (``scipy``, ``python`` or
   ``auto``),
4. ``auto``: SciPy when available, otherwise pure Python.

Every backend is *exact* on the integer-weighted graphs the paper uses
(float64 arithmetic on integer sums below ``2**53``; larger inputs take the
exact-int reference), so switching backends never changes any oracle value
-- the differential tests in ``tests/kernels/`` enforce this end-to-end.
"""

from __future__ import annotations

import contextlib
import contextvars
import heapq
import math
import operator
import os
import random
from itertools import compress, repeat
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.kernels.csr import CSRGraph

__all__ = [
    "GatedColumn",
    "GatedTotals",
    "KernelBackend",
    "ThresholdMarks",
    "register_backend",
    "available_backends",
    "get_backend",
    "force_backend",
    "BACKEND_ENV_VAR",
]

#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_REGISTRY: Dict[str, "KernelBackend"] = {}
#: The :func:`force_backend` pin: context-local, so no other thread sees it.
_FORCED: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar("backend", default=None)


class GatedColumn(NamedTuple):
    """One column of an arrival-gated min-plus run (see :meth:`gated_minplus`).

    An entry of value ``d`` broadcasts once, delivered in round
    ``offset + d``; it relaxes its neighbors when ``d <= relax_limit`` and is
    charged when ``d <= fire_limit``.
    """

    #: Index of the column's weight palette.
    group: int
    #: ``(node index, value)`` of every initially finite entry; values are
    #: non-negative ints.
    seeds: Tuple[Tuple[int, int], ...]
    offset: int
    relax_limit: int
    fire_limit: int
    #: Charged bits of one message besides its value's encoding.
    overhead: int


class GatedTotals(NamedTuple):
    """What a gated run's :class:`~repro.congest.engine.types.RoundReport`
    reads of its delivered messages (see :meth:`KernelBackend.gated_minplus`).

    A *cell* is one (delivery round, sender): every entry the sender
    broadcasts that round, sent as one message per incident edge.
    """

    #: Delivery rounds with at least one message.
    active_rounds: int
    #: Sum over active rounds of ``ceil(max cell bits / B) - 1``: the
    #: congestion charge beyond one network round each.
    extra_charge: int
    messages: int
    bits: int
    max_message_bits: int
    #: Bits of the first cell over the bandwidth in (round, node) order, or 0.
    first_violation: int


class ThresholdMarks:
    """The marked sets of one Dürr-Høyer search over ``values`` (see
    :meth:`KernelBackend.threshold_marks`), as sorted index lists.

    :meth:`start` marks every index whose value is strictly better than the
    threshold (``>`` when maximizing, ``<`` otherwise); :meth:`narrow` keeps
    those of the last answer still strictly better than a new threshold;
    :meth:`optimum` is the table's best value.  This class compares the
    original items in Python, so any ordered values are marked exactly; it
    is the reference.
    """

    def __init__(self, values: Sequence[Any], maximize: bool) -> None:
        self._values = values
        self._better = operator.gt if maximize else operator.lt
        self._pick = max if maximize else min
        self._marked: List[int] = []

    def optimum(self) -> Any:
        """``max(values)`` when maximizing, else ``min(values)``."""
        return self._pick(self._values)

    def start(self, threshold: Any) -> List[int]:
        values, better = self._values, self._better
        self._marked = list(compress(range(len(values)), map(better, values, repeat(threshold))))
        return self._marked

    def narrow(self, threshold: Any) -> List[int]:
        still_better = map(
            self._better, map(self._values.__getitem__, self._marked), repeat(threshold)
        )
        self._marked = list(compress(self._marked, still_better))
        return self._marked


class KernelBackend:
    """The pure-Python backend, registered as ``"python"``, and the
    reference every other backend overrides.

    The shortest-path methods work in *index space*: sources are dense
    indices into ``csr.nodes`` and results are sequences of ``n`` floats per
    source, with ``math.inf`` (or ``numpy.inf``) marking unreachable nodes.
    The public wrappers in :mod:`repro.kernels.api` translate labels and
    normalise the output types.  :meth:`skeleton_sets` samples Theorem 1.1's
    skeleton sets for :func:`repro.nanongkai.sample_skeleton_sets`;
    :meth:`fold_scaled_columns` and :meth:`min_plus_rows` carry Algorithm
    3's table to Lemma 3.3's distances as matrices; :meth:`threshold_marks`
    marks the threshold searches of :mod:`repro.quantum.minmax`.
    """

    name: str = "python"

    def sssp(self, csr: CSRGraph, source: int) -> Sequence[float]:
        """Exact single-source distances from ``source`` (an index)."""
        indptr, indices, weights = csr.indptr, csr.indices, csr.weights
        heappush, heappop = heapq.heappush, heapq.heappop
        dist: List[float] = [math.inf] * csr.num_nodes
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue  # stale heap entry
            start, end = indptr[u], indptr[u + 1]
            for v, w in zip(indices[start:end], weights[start:end]):
                candidate = d + w
                if candidate < dist[v]:
                    dist[v] = candidate
                    heappush(heap, (candidate, v))
        return dist

    def multi_source_sssp(
        self, csr: CSRGraph, sources: Sequence[int]
    ) -> List[Sequence[float]]:
        """Exact distances from each of ``sources``; one row per source."""
        return [self.sssp(csr, source) for source in sources]

    def bounded_hop(
        self, csr: CSRGraph, sources: Sequence[int], max_hops: int
    ) -> List[Sequence[float]]:
        """``max_hops``-hop-bounded distances from each source (Section 3.1).

        Round ``h`` computes ``d_h(v) = min(d_{h-1}(v), min_u d_{h-1}(u) +
        w(u, v))`` from a frontier of nodes improved in round ``h - 1``; after
        ``max_hops`` rounds each entry is the least length over paths with at
        most ``max_hops`` edges.
        """
        indptr, indices, weights = csr.indptr, csr.indices, csr.weights
        n = csr.num_nodes
        rows: List[Sequence[float]] = []
        for source in sources:
            dist: List[float] = [math.inf] * n
            dist[source] = 0
            frontier = [source]
            for _ in range(max_hops):
                if not frontier:
                    break
                updates = {}
                for u in frontier:
                    base = dist[u]
                    for k in range(indptr[u], indptr[u + 1]):
                        v = indices[k]
                        candidate = base + weights[k]
                        if candidate < updates.get(v, dist[v]):
                            updates[v] = candidate
                frontier = []
                for v, value in updates.items():
                    if value < dist[v]:
                        dist[v] = value
                        frontier.append(v)
            rows.append(dist)
        return rows

    def all_pairs(self, csr: CSRGraph) -> List[Sequence[float]]:
        """Exact all-pairs distance rows, in CSR index order."""
        return self.multi_source_sssp(csr, range(csr.num_nodes))

    def extremal_eccentricity(
        self, csr: CSRGraph, maximize: bool
    ) -> Tuple[float, List[int]]:
        """The largest (``maximize``) or smallest eccentricity of a non-empty
        graph (``inf`` if disconnected) and the sorted indices of every node
        attaining it.  This reduction over :meth:`all_pairs` rows is the
        reference; an override must return the same value and indices."""
        eccentricities = [max(row) for row in self.all_pairs(csr)]
        value = max(eccentricities) if maximize else min(eccentricities)
        return value, [i for i, e in enumerate(eccentricities) if e == value]

    def gated_minplus(
        self,
        csr: CSRGraph,
        palettes: Sequence[Sequence[int]],
        positions: Sequence[int],
        columns: Sequence[GatedColumn],
        value_cap: Optional[int],
        bandwidth: int,
    ) -> Tuple[List[List[Any]], GatedTotals]:
        """Final rows and message totals of an arrival-gated run.

        Entry ``e`` of row ``u`` relaxes ``indices[e]`` from ``u`` with the
        positive integer ``palettes[g][positions[e]]`` in weight group ``g``
        (a palette holds a group's distinct weights).  Each column is a
        bounded Dijkstra from its seeds, expanding entries up to
        ``min(relax_limit, value_cap)`` and discarding candidates above
        ``value_cap``.  Every entry at a node with neighbors whose value is
        at most ``fire_limit`` sends one message per incident edge.  Returns
        ``n`` rows of ``len(columns)`` values (ints, ``math.inf`` when
        unreached) and the :class:`GatedTotals` of the delivered messages.
        An override may return the rows as a sequence that converts on its
        first read and that ``numpy.asarray`` reads as float64 unconverted.

        This heap implementation on exact ints is the reference; backends
        may override it when their arithmetic stays exact.
        """
        n = csr.num_nodes
        indptr, indices = csr.indptr, csr.indices
        heappush, heappop = heapq.heappush, heapq.heappop
        weights = [[palette[p] for p in positions] for palette in palettes]
        # (delivery round, sender) -> bits the sender sends per edge that round
        cells: Dict[Tuple[int, int], int] = {}
        messages = total_bits = largest = 0
        table: List[List[Any]] = []
        for column in columns:
            weight = weights[column.group]
            limit = column.relax_limit
            if value_cap is not None:
                limit = min(limit, value_cap)
            dist: List[Any] = [math.inf] * n
            heap = []
            for node, value in column.seeds:
                dist[node] = value
                heap.append((value, node))
            heapq.heapify(heap)
            while heap:
                d, u = heappop(heap)
                if d > limit:
                    break
                if d > dist[u]:
                    continue  # stale heap entry
                for e in range(indptr[u], indptr[u + 1]):
                    v = indices[e]
                    candidate = d + weight[e]
                    if candidate < dist[v] and (
                        value_cap is None or candidate <= value_cap
                    ):
                        dist[v] = candidate
                        heappush(heap, (candidate, v))
            for node, d in enumerate(dist):
                degree = indptr[node + 1] - indptr[node]
                if d <= column.fire_limit and degree:
                    bits = column.overhead + d.bit_length() + 1
                    messages += degree
                    total_bits += bits * degree
                    largest = max(largest, bits)
                    key = (column.offset + d, node)
                    cells[key] = cells.get(key, 0) + bits
            table.append(dist)

        peaks: Dict[int, int] = {}
        for (delivery, _), bits in cells.items():
            peaks[delivery] = max(peaks.get(delivery, 0), bits)
        over = [key for key, bits in cells.items() if bits > bandwidth]
        totals = GatedTotals(
            active_rounds=len(peaks),
            extra_charge=sum(-(-peak // bandwidth) - 1 for peak in peaks.values()),
            messages=messages,
            bits=total_bits,
            max_message_bits=largest,
            first_violation=cells[min(over)] if over else 0,
        )
        rows = [list(row) for row in zip(*table)] if table else [[] for _ in range(n)]
        return rows, totals

    def fold_scaled_columns(
        self,
        rows: Sequence[Sequence[Any]],
        targets: Sequence[int],
        scales: Sequence[float],
        origins: Sequence[Optional[int]],
    ) -> Any:
        """Algorithm 3's level fold over a :meth:`gated_minplus` table.

        Entry ``[i][t]`` of the ``n x len(origins)`` result starts at ``0.0``
        when ``origins[t] == i`` (``None``: at no node), else ``inf``, and
        drops to every smaller ``int(rows[i][j]) * scales[j]`` of a finite
        entry whose ``targets[j] == t``.  This loop is the reference (a list
        of float rows); an override may return a float array of the same
        values.
        """
        columns = list(zip(targets, scales))
        matrix = []
        for i, row in enumerate(rows):
            best = [0.0 if origin == i else math.inf for origin in origins]
            for value, (target, scale) in zip(row, columns):
                if not math.isinf(value) and int(value) * scale < best[target]:
                    best[target] = int(value) * scale
            matrix.append(best)
        return matrix

    def min_plus_rows(
        self, offsets: Sequence[float], matrix: Sequence[Sequence[float]]
    ) -> List[float]:
        """Lemma 3.3's ``min_u (offsets[u] + matrix[v][u])`` for every row
        ``v``, as floats.  This loop is the reference; an override must
        return the same floats for any backend's :meth:`fold_scaled_columns`
        matrix."""
        out = []
        for row in matrix:
            best = math.inf
            for offset, value in zip(offsets, row):
                if offset + value < best:
                    best = offset + value
            out.append(float(best))
        return out

    def skeleton_sets(
        self,
        nodes: Sequence[Any],
        probability: float,
        num_sets: int,
        rng: random.Random,
        ensure_nonempty: bool,
    ) -> List[List[Any]]:
        """``num_sets`` sorted subsets of ``nodes``, each node joining each
        set when its ``rng.random()`` draw is below ``probability``.

        Works on node labels, not indices.  Draws are taken node by node,
        set by set; an empty set is patched with
        ``nodes[rng.randrange(len(nodes))]`` when ``ensure_nonempty`` (the
        caller guarantees ``nodes`` is then non-empty).  ``rng`` is left
        after the last draw.

        This loop is the reference; an override must consume ``rng``'s
        stream identically and return the same sets.
        """
        sets: List[List[Any]] = []
        for _ in range(num_sets):
            members = [node for node in nodes if rng.random() < probability]
            if not members and ensure_nonempty:
                members = [nodes[rng.randrange(len(nodes))]]
            sets.append(sorted(members))
        return sets

    def threshold_marks(self, values: Sequence[Any], maximize: bool) -> ThresholdMarks:
        """The :class:`ThresholdMarks` of one extremum search over ``values``.

        The base class returns the reference; an override must return the
        same index lists for every :meth:`~ThresholdMarks.start` and
        :meth:`~ThresholdMarks.narrow` call, and may keep its own copy of
        ``values``, which the caller must not mutate during the search.
        """
        return ThresholdMarks(values, maximize)


def register_backend(backend: KernelBackend) -> None:
    """Register ``backend`` under ``backend.name`` (overwriting any previous)."""
    _REGISTRY[backend.name] = backend


def available_backends() -> List[str]:
    """Names of all registered backends (always includes ``"python"``)."""
    return sorted(_REGISTRY)


def _resolve_name(name: Optional[str]) -> str:
    if name is None:
        name = _FORCED.get()
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR, "auto").strip().lower() or "auto"
    if name == "auto":
        return "scipy" if "scipy" in _REGISTRY else "python"
    return name


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """Return the backend selected by ``name`` / override / env / auto."""
    resolved = _resolve_name(name)
    try:
        return _REGISTRY[resolved]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {resolved!r}; available: {available_backends()}"
        ) from None


@contextlib.contextmanager
def force_backend(name: str) -> Iterator[KernelBackend]:
    """Context manager pinning the backend of the current context.

    Like :func:`repro.congest.engine.force_engine`, the pin is a
    :class:`contextvars.ContextVar`, invisible to other threads.
    """
    backend = get_backend(name)  # validate eagerly
    token = _FORCED.set(backend.name)
    try:
        yield backend
    finally:
        _FORCED.reset(token)


register_backend(KernelBackend())
