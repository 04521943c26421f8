"""The protocol registry: named, parameterized simulation workloads.

A :class:`~repro.service.spec.RunSpec` names its workload by a registry key
instead of importing a Python callable, which is what makes requests
serializable, cacheable and CLI-drivable.  Each entry wraps one of the
library's run entry points behind a uniform signature::

    runner(network, params, options) -> SimulationResult

where ``options`` carries the spec-level execution options (``max_rounds``,
``halt_on_quiescence``) that apply to the underlying
:meth:`Simulator.run <repro.congest.simulator.Simulator.run>` call.

Every protocol's outputs and round report are bit-identical across
execution engines and kernel backends (the repository-wide differential
contract enforced by ``tests/congest/test_engine_differential.py``), so the
result cache serves one engine's result to a request naming any other (see
:class:`repro.service.cache.ResultCache`).  A protocol whose result depended
on the engine would break that contract and must not be registered.

Composite pipeline protocols (``classical-diameter``, ``classical-radius``,
``theorem11-pipeline``) run several phases internally and report the
sequentially merged :class:`RoundReport`; they reject the per-run overrides
(each internal phase has its own natural termination), and
``theorem11-pipeline`` is report-only (empty ``outputs``) because its
product *is* the round accounting of the paper's Theorem 1.1 pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.congest import Network, Simulator
from repro.congest.engine.types import RoundReport, SimulationResult

__all__ = [
    "ProtocolSpec",
    "RunOptions",
    "register_protocol",
    "available_protocols",
    "get_protocol",
]

_REGISTRY: Dict[str, "ProtocolSpec"] = {}


@dataclass(frozen=True)
class RunOptions:
    """Spec-level execution options threaded into a protocol runner.

    ``None`` means "the protocol's natural behavior": Bellman-Ford style
    floods naturally halt on quiescence, tree protocols naturally do not,
    and ``max_rounds`` defaults to the :class:`Simulator`'s safety limit.
    """

    max_rounds: Optional[int] = None
    halt_on_quiescence: Optional[bool] = None

    def any_set(self) -> bool:
        return self.max_rounds is not None or self.halt_on_quiescence is not None


@dataclass(frozen=True)
class ProtocolSpec:
    """One registered workload: a named runner plus its metadata."""

    name: str
    runner: Callable[[Network, Dict[str, Any], RunOptions], SimulationResult]
    description: str = ""
    #: Composite pipelines reject spec-level max_rounds/halt_on_quiescence
    #: overrides instead of silently ignoring them.
    supports_run_options: bool = True
    #: Human-readable parameter summary for error messages and the CLI.
    params_doc: str = ""

    def run(
        self,
        network: Network,
        params: Mapping[str, Any],
        options: Optional[RunOptions] = None,
    ) -> SimulationResult:
        options = options or RunOptions()
        if not self.supports_run_options and options.any_set():
            raise ValueError(
                f"protocol {self.name!r} is a composite pipeline and does not "
                f"accept max_rounds/halt_on_quiescence overrides"
            )
        return self.runner(network, dict(params), options)


def register_protocol(spec: ProtocolSpec) -> None:
    """Register ``spec`` under ``spec.name`` (overwriting any previous)."""
    _REGISTRY[spec.name] = spec


def available_protocols() -> List[str]:
    """Names of all registered protocols, sorted."""
    return sorted(_REGISTRY)


def get_protocol(name: str) -> ProtocolSpec:
    """Return the protocol registered under ``name``.

    Raises a :class:`ValueError` naming the registered protocols -- the
    service layer's validation errors must always say what *would* have
    worked.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; available: {available_protocols()}"
        ) from None


# --------------------------------------------------------------------------- #
# Parameter plumbing
# --------------------------------------------------------------------------- #


class _Params:
    """Typed, consumed-checked access to a protocol's parameter dict."""

    def __init__(self, protocol: str, params: Dict[str, Any]) -> None:
        self._protocol = protocol
        self._params = dict(params)

    def take(self, name: str, default: Any = None, required: bool = False) -> Any:
        if name in self._params:
            return self._params.pop(name)
        if required:
            raise ValueError(
                f"protocol {self._protocol!r} requires parameter {name!r}"
            )
        return default

    def take_int(
        self, name: str, default: Optional[int] = None, required: bool = False
    ) -> Optional[int]:
        value = self.take(name, default, required)
        if value is None:
            return None
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(
                f"protocol {self._protocol!r} parameter {name!r} must be an "
                f"int, got {value!r}"
            )
        return value

    def finish(self) -> None:
        if self._params:
            raise ValueError(
                f"protocol {self._protocol!r} got unknown parameters "
                f"{sorted(self._params)}"
            )


def _run_single(
    network: Network,
    algorithm,
    options: RunOptions,
    natural_quiescence: bool,
) -> SimulationResult:
    """One ``Simulator.run`` with the spec-level options applied."""
    simulator = Simulator(network, max_rounds=options.max_rounds)
    halt = (
        natural_quiescence
        if options.halt_on_quiescence is None
        else options.halt_on_quiescence
    )
    return simulator.run(algorithm, halt_on_quiescence=halt)


# --------------------------------------------------------------------------- #
# Bundled protocols
# --------------------------------------------------------------------------- #


def _run_bellman_ford(
    network: Network, raw: Dict[str, Any], options: RunOptions
) -> SimulationResult:
    from repro.congest.sssp import _BellmanFordAlgorithm

    params = _Params("bellman-ford-sssp", raw)
    source = params.take_int("source", required=True)
    max_hops = params.take_int("max_hops")
    params.finish()
    if source not in network.graph:
        raise ValueError(f"source {source} is not a node of the network")
    return _run_single(
        network,
        _BellmanFordAlgorithm([source], max_hops=max_hops),
        options,
        natural_quiescence=True,
    )


def _run_multi_source(
    network: Network, raw: Dict[str, Any], options: RunOptions
) -> SimulationResult:
    from repro.congest.sssp import _BellmanFordAlgorithm

    params = _Params("multi-source-sssp", raw)
    sources = params.take("sources", required=True)
    max_hops = params.take_int("max_hops")
    params.finish()
    if not isinstance(sources, (list, tuple)) or not sources:
        raise ValueError("parameter 'sources' must be a non-empty list of nodes")
    missing = [s for s in sources if s not in network.graph]
    if missing:
        raise ValueError(f"sources {missing} are not nodes of the network")
    return _run_single(
        network,
        _BellmanFordAlgorithm(list(sources), max_hops=max_hops),
        options,
        natural_quiescence=True,
    )


def _run_weighted_apsp(
    network: Network, raw: Dict[str, Any], options: RunOptions
) -> SimulationResult:
    from repro.congest.sssp import _BellmanFordAlgorithm

    _Params("weighted-apsp", raw).finish()
    result = _run_single(
        network,
        _BellmanFordAlgorithm(list(network.nodes)),
        options,
        natural_quiescence=True,
    )
    result.report.protocol = "weighted-apsp"
    return result


def _run_leader_election(
    network: Network, raw: Dict[str, Any], options: RunOptions
) -> SimulationResult:
    from repro.congest.primitives import _MinIdFloodAlgorithm

    params = _Params("leader-election", raw)
    budget = params.take_int("diameter_bound")
    params.finish()
    if budget is None:
        budget = max(1, network.num_nodes - 1)
    return _run_single(
        network, _MinIdFloodAlgorithm(budget), options, natural_quiescence=False
    )


def _run_bfs_tree(
    network: Network, raw: Dict[str, Any], options: RunOptions
) -> SimulationResult:
    from repro.congest.primitives import _BfsTreeAlgorithm

    params = _Params("bfs-tree", raw)
    root = params.take_int("root", required=True)
    params.finish()
    if root not in network.graph:
        raise ValueError(f"root {root} is not a node of the network")
    return _run_single(
        network, _BfsTreeAlgorithm(root), options, natural_quiescence=False
    )


def _scalar_result(
    network: Network, value: Any, report: RoundReport
) -> SimulationResult:
    """Wrap a composite protocol's globally-known scalar as a result.

    The composite diameter/radius protocols end with a broadcast, so every
    node knows the answer -- mapping each node to it is the honest per-node
    output view.
    """
    return SimulationResult(
        outputs={node: value for node in network.nodes}, report=report
    )


def _run_classical_diameter(
    network: Network, raw: Dict[str, Any], options: RunOptions
) -> SimulationResult:
    from repro.congest.apsp import classical_diameter_protocol

    params = _Params("classical-diameter", raw)
    weighted = bool(params.take("weighted", True))
    params.finish()
    value, report = classical_diameter_protocol(network, weighted=weighted)
    return _scalar_result(network, value, report)


def _run_classical_radius(
    network: Network, raw: Dict[str, Any], options: RunOptions
) -> SimulationResult:
    from repro.congest.apsp import classical_radius_protocol

    params = _Params("classical-radius", raw)
    weighted = bool(params.take("weighted", True))
    params.finish()
    value, report = classical_radius_protocol(network, weighted=weighted)
    return _scalar_result(network, value, report)


def _run_theorem11_pipeline(
    network: Network, raw: Dict[str, Any], options: RunOptions
) -> SimulationResult:
    from repro.nanongkai.skeleton import SkeletonApproximator

    params = _Params("theorem11-pipeline", raw)
    n = network.num_nodes
    nodes = network.nodes
    skeleton = params.take(
        "skeleton",
        sorted({nodes[0], nodes[n // 3], nodes[(2 * n) // 3], nodes[n - 1]}),
    )
    epsilon = params.take("epsilon", 0.5)
    hop_bound = params.take_int("hop_bound", 16)
    k = params.take_int("k", 4)
    seed = params.take_int("seed", 0)
    levels = params.take_int("levels")
    params.finish()
    approximator = SkeletonApproximator(
        network,
        list(skeleton),
        epsilon=float(epsilon),
        hop_bound=hop_bound,
        k=k,
        seed=seed,
        levels=levels,
    )
    report = RoundReport.sequential(
        [
            approximator.initialization_report,
            approximator.setup_report(),
            approximator.evaluation_report(),
        ]
    )
    return SimulationResult(outputs={}, report=report)


def _register_bundled() -> None:
    register_protocol(
        ProtocolSpec(
            name="bellman-ford-sssp",
            runner=_run_bellman_ford,
            description="Exact weighted SSSP (distributed Bellman-Ford)",
            params_doc="source (int, required), max_hops (int, optional)",
        )
    )
    register_protocol(
        ProtocolSpec(
            name="multi-source-sssp",
            runner=_run_multi_source,
            description="Weighted SSSP from several sources at once",
            params_doc="sources (list[int], required), max_hops (int, optional)",
        )
    )
    register_protocol(
        ProtocolSpec(
            name="weighted-apsp",
            runner=_run_weighted_apsp,
            description="Exact weighted all-pairs distances at every node",
            params_doc="(no parameters)",
        )
    )
    register_protocol(
        ProtocolSpec(
            name="leader-election",
            runner=_run_leader_election,
            description="Min-id flood leader election",
            params_doc="diameter_bound (int, optional)",
        )
    )
    register_protocol(
        ProtocolSpec(
            name="bfs-tree",
            runner=_run_bfs_tree,
            description="BFS tree build (parent/depth/children per node)",
            params_doc="root (int, required)",
        )
    )
    register_protocol(
        ProtocolSpec(
            name="classical-diameter",
            runner=_run_classical_diameter,
            description="Exact diameter via APSP + convergecast + broadcast",
            supports_run_options=False,
            params_doc="weighted (bool, default true)",
        )
    )
    register_protocol(
        ProtocolSpec(
            name="classical-radius",
            runner=_run_classical_radius,
            description="Exact radius via APSP + convergecast + broadcast",
            supports_run_options=False,
            params_doc="weighted (bool, default true)",
        )
    )
    register_protocol(
        ProtocolSpec(
            name="theorem11-pipeline",
            runner=_run_theorem11_pipeline,
            description=(
                "Theorem 1.1 classical pipeline round accounting "
                "(Algorithms 1-3 + overlay; report-only outputs)"
            ),
            supports_run_options=False,
            params_doc=(
                "skeleton (list[int], optional), epsilon (float, default 0.5), "
                "hop_bound (int, default 16), k (int, default 4), "
                "seed (int, default 0), levels (int, optional)"
            ),
        )
    )


_register_bundled()
