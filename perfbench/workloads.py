"""The benchmark's workloads: seeded inputs, the timed operations and their checks.

Each workload builds its inputs in :meth:`setup` (which the runner repeats to
time set-up), then hands out *decks*: the list of operations one pass of the
closed loop runs.  Every operation returns ``(failed, correct, kind)`` from
its check: ``failed`` for a raised error or a broken hard guarantee,
``correct`` for the soft, probability-``δ`` part of the result, and
``kind`` to split latencies (``"hit"``/``"miss"`` on the service).

The library is always called through module attributes at call time, so the
tracer's wrappers are seen whenever it is installed.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.congest import engine as congest_engine
from repro.congest.network import Network
from repro.core import diameter_radius
from repro.graphs import generators
from repro.quantum import minmax
from repro.service import cache as service_cache
from repro.service import jobs as service_jobs
from repro.service import spec as service_spec

#: Absolute tolerance of the Theorem 1.1 bound checks.
_TOLERANCE = 1e-9


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Tuple[bool, bool, str]]


def _all_pairs(graph) -> List[List[float]]:
    """Exact weighted distances, computed by SciPy rather than the library."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    nodes = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    rows, cols, weights = [], [], []
    for u, v, w in graph.edges():
        rows += [index[u], index[v]]
        cols += [index[v], index[u]]
        weights += [w, w]
    matrix = csr_matrix((weights, (rows, cols)), shape=(len(nodes), len(nodes)))
    return dijkstra(matrix, directed=True).tolist()


class Workload:
    """Defaults for a workload: no engine forced, nothing to release."""

    #: The engine the workload forces, or ``None`` to leave it to the library.
    requested_engine: Optional[str] = None
    #: The runner's calibration loop that tracks this workload's speed.
    calibration = "compute"

    def context(self):
        """Context the set-up and the timed loop run in."""
        return contextlib.nullcontext()

    def close(self) -> None:
        """Release what the workload holds (threads) once the run is over."""


class Thm11(Workload):
    """Theorem 1.1 entry points, diameter and radius alternating.

    The graph (generator seed 0) and the deck of operation seeds are fixed,
    so every run times the same work: op costs differ several-fold between
    seeds, and a deck drawn per run would make the spread between runs
    mostly input variance.  Even seeds run the diameter, odd seeds the
    radius; the run seed rotates the deck.  The warm-up seed lies outside
    the deck and is the cheapest of seeds 0-15, to keep set-up short.
    """

    GRAPH_SEED = 0

    def __init__(
        self, num_nodes: int, engine: Optional[str], deck_seeds, warmup_seed: int, seed: int
    ) -> None:
        self.num_nodes = num_nodes
        self.requested_engine = engine
        self.warmup_seed = warmup_seed
        shift = seed % len(deck_seeds)
        self._seeds = list(deck_seeds[shift:]) + list(deck_seeds[:shift])
        self.network: Optional[Network] = None

    def context(self):
        if self.requested_engine is None:
            return super().context()
        return congest_engine.force_engine(self.requested_engine)

    def setup(self, span) -> None:
        with span("yao_spanner_graph", "graphs"):
            graph = generators.yao_spanner_graph(self.num_nodes, seed=self.GRAPH_SEED)
        self.network = Network(graph)
        self._op(self.warmup_seed).call()

    def prepare_checks(self) -> None:
        eccentricities = [max(row) for row in _all_pairs(self.network.graph)]
        self._exact = {"diameter": max(eccentricities), "radius": min(eccentricities)}

    def deck(self, cycle: int) -> List[Op]:
        return [self._op(op_seed) for op_seed in self._seeds]

    def _op(self, op_seed: int) -> Op:
        network = self.network
        problem = "diameter" if op_seed % 2 == 0 else "radius"

        def call():
            if problem == "diameter":
                return diameter_radius.quantum_weighted_diameter(network, seed=op_seed)
            return diameter_radius.quantum_weighted_radius(network, seed=op_seed)

        return Op(f"{problem}/{op_seed}", call, lambda result: self._check(problem, result))

    def _check(self, problem: str, result) -> Tuple[bool, bool, str]:
        exact = self._exact[problem]
        upper = (1 + result.parameters.epsilon) ** 2 * exact + _TOLERANCE
        lower = exact - _TOLERANCE
        value = result.value
        failed = (
            not math.isfinite(value)
            or result.total_rounds <= 0
            or abs(result.exact_value - exact) > _TOLERANCE
            # The deterministic side of the guarantee: a diameter estimate
            # never exceeds (1+eps)^2 D and a radius estimate never falls
            # below R.  The other side is the probability-delta search miss.
            or (problem == "diameter" and value > upper)
            or (problem == "radius" and value < lower)
        )
        correct = lower <= value <= upper
        if result.within_guarantee != correct:
            failed = True
        return failed, correct and not failed, "op"


class QuantumMinMax(Workload):
    """Dürr-Høyer maximum and minimum finding, alternating, on seeded tables."""

    DOMAIN = 2**14
    TABLES = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, span) -> None:
        rng = random.Random(f"quantum-minmax/{self.seed}")
        self.tables = [
            [rng.randrange(2**40) for _ in range(self.DOMAIN)] for _ in range(self.TABLES)
        ]
        # Warm each table up once, on a search seed the timed decks never use
        # (those are below 2**31).
        for index, table in enumerate(self.tables):
            minmax.quantum_maximum(table, rng=2**31 + index)

    def prepare_checks(self) -> None:
        self._best = [(max(table), min(table)) for table in self.tables]

    def deck(self, cycle: int) -> List[Op]:
        ops = []
        for i in range(2 * self.TABLES):
            table_index, maximize = i // 2, i % 2 == 0
            search_seed = random.Random(f"{self.seed}/{cycle}/{i}").randrange(2**31)
            ops.append(self._op(table_index, maximize, search_seed))
        return ops

    def _op(self, table_index: int, maximize: bool, search_seed: int) -> Op:
        table = self.tables[table_index]

        def call():
            search = minmax.quantum_maximum if maximize else minmax.quantum_minimum
            return search(table, rng=search_seed)

        def check(result) -> Tuple[bool, bool, str]:
            failed = not (0 <= result.index < len(table)) or table[result.index] != result.value
            best = self._best[table_index][0 if maximize else 1]
            return failed, result.value == best and not failed, "op"

        kind = "max" if maximize else "min"
        return Op(f"{kind}/{table_index}/{search_seed}", call, check)


class ServiceReplay(Workload):
    """A seeded request stream through the synchronous service API.

    Each deck holds ``SPECS`` weighted-APSP specs on fresh ``yao_spanner``
    graphs, each requested ``REPEATS`` times in shuffled order: the first
    request of a spec is a cache miss, the rest are hits.  Each deck gets a
    fresh service, cache and digest memo: the service keeps every job, result included,
    for ``poll``, so one long-lived service would grow by ~20 MB a deck and
    make peak memory depend on how many decks fit in the run.
    """

    NUM_NODES = 256
    SPECS = 2
    REPEATS = 4
    # Hits are result decoding and misses end in result encoding: both
    # allocation-bound, and slowed by host phases the arithmetic loop misses.
    calibration = "allocation"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.service: Optional[service_jobs.SimulationService] = None
        self._setups = 0

    def _spec(self, graph_seed: int) -> service_spec.RunSpec:
        return service_spec.RunSpec(
            protocol="weighted-apsp",
            graph=service_spec.GraphSpec(
                generator="yao_spanner",
                params={"num_nodes": self.NUM_NODES, "seed": graph_seed},
            ),
        )

    def _open(self) -> None:
        self.close()
        # The graph-digest memo is process-wide; empty it too, so a deck that
        # is run twice (the traced deck) repeats its misses' digest work.
        service_spec._DIGEST_MEMO.clear()
        self.service = service_jobs.SimulationService(
            max_workers=1, cache=service_cache.ResultCache(max_entries=self.SPECS)
        )

    def setup(self, span) -> None:
        self._open()
        # Warm up on graphs no deck requests (negative seeds), fresh ones per
        # set-up so every repetition builds its graphs: a miss, then a hit.
        for _ in range(self.SPECS):
            self._setups += 1
            spec = self._spec(-self._setups)
            self.service.run(spec)
            self.service.run(spec)

    def prepare_checks(self) -> None:
        self._first: Dict[str, Any] = {}

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def deck(self, cycle: int) -> List[Op]:
        self._open()
        self._first.clear()
        rng = random.Random(f"service-replay/{self.seed}/{cycle}")
        graph_seeds = [rng.randrange(2**31) for _ in range(self.SPECS)]
        order = [graph_seed for graph_seed in graph_seeds for _ in range(self.REPEATS)]
        rng.shuffle(order)
        return [self._op(self._spec(graph_seed)) for graph_seed in order]

    def _op(self, spec: service_spec.RunSpec) -> Op:
        service = self.service
        hits_before = {}

        def call():
            hits_before["hits"] = service.cache.stats.hits
            return service.run(spec)

        def check(result) -> Tuple[bool, bool, str]:
            hit = service.cache.stats.hits > hits_before["hits"]
            key = spec.canonical_json()
            document = result.to_json()
            if not hit:
                self._first[key] = document
                return not self._distances_exact(spec, result), True, "miss"
            equal = document == self._first.get(key)
            return not equal, equal, "hit"

        return Op(f"apsp/{spec.graph.params['seed']}", call, check)

    def _distances_exact(self, spec: service_spec.RunSpec, result) -> bool:
        # Built straight from the generator: GraphSpec.build is traced.
        graph = generators.yao_spanner_graph(self.NUM_NODES, seed=spec.graph.params["seed"])
        nodes = sorted(graph.nodes)
        table = _all_pairs(graph)
        for j, v in enumerate(nodes):
            row = result.outputs[v]
            for i, u in enumerate(nodes):
                if row[u] != table[i][j]:
                    return False
        return result.report.rounds > 0


#: Workload name -> factory taking the run seed.
WORKLOADS: Dict[str, Callable[[int], Any]] = {
    "thm11-symbolic": lambda seed: Thm11(1024, "symbolic", range(1, 5), 14, seed),
    "thm11-auto": lambda seed: Thm11(128, None, range(1, 5), 10, seed),
    "quantum-minmax": QuantumMinMax,
    "service-replay": ServiceReplay,
}
