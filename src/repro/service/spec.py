"""The unified request API: one serializable description of one run.

Before the service layer, running a protocol meant picking one of five
differently-shaped ``run(...)`` entry points and several environment
variables.  A :class:`RunSpec` captures *everything* about a run in one
frozen value: the workload (a registered protocol name plus parameters),
the input graph (a seeded generator spec or an inline edge list), the
bandwidth configuration, the execution knobs (engine / backend -- applied
through :mod:`repro.runtime`) and the per-run options (``max_rounds``,
``halt_on_quiescence``).

Specs serialize canonically: :meth:`RunSpec.canonical_json` is byte-stable
under parameter reordering, which is what the content-addressed result
cache hashes.  :meth:`RunSpec.from_json` round-trips :meth:`RunSpec.to_json`
exactly, and validation errors always name the registered protocols /
engines / backends / generators, never a bare ``KeyError``.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.congest.network import CongestConfig, Network
from repro.graphs.weighted_graph import WeightedGraph
from repro.runtime import configure
from repro.service.protocols import RunOptions, get_protocol

__all__ = ["GraphSpec", "RunSpec", "available_generators"]


# --------------------------------------------------------------------------- #
# Graph specs
# --------------------------------------------------------------------------- #

def _generator_registry() -> Dict[str, Any]:
    from repro.graphs import generators as g

    return {
        "path": g.path_graph,
        "cycle": g.cycle_graph,
        "complete": g.complete_graph,
        "star": g.star_graph,
        "grid": g.grid_graph,
        "balanced_binary_tree": g.balanced_binary_tree,
        "random_tree": g.random_tree,
        "caterpillar": g.caterpillar_graph,
        "erdos_renyi": g.erdos_renyi_graph,
        "random_geometric": g.random_geometric_graph,
        "barbell": g.barbell_graph,
        "path_of_cliques": g.path_of_cliques,
        "low_diameter_expander": g.low_diameter_expander,
        "yao_spanner": g.yao_spanner_graph,
        "random_weighted": g.random_weighted_graph,
    }


def available_generators() -> List[str]:
    """Names of the graph generators a :class:`GraphSpec` may reference."""
    return sorted(_generator_registry())


#: Process-wide memo of graph content digests keyed on the canonical
#: GraphSpec JSON (sound because every spec builds deterministically).
_DIGEST_MEMO: "OrderedDict[str, str]" = OrderedDict()
_DIGEST_MEMO_MAX = 4096
_DIGEST_MEMO_LOCK = threading.Lock()


def _freeze_json(value: Any, path: str) -> Any:
    """Normalize a parameter value into canonical JSON-safe form.

    Tuples become lists, dict keys must be strings, and anything that is not
    plain JSON data is rejected eagerly with the offending path -- a spec
    must serialize, or it cannot be cached, batched or sent over a wire.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_freeze_json(x, f"{path}[{i}]") for i, x in enumerate(value)]
    if isinstance(value, dict):
        frozen = {}
        for key in value:
            if not isinstance(key, str):
                raise ValueError(
                    f"spec parameter keys must be strings, got {key!r} at {path}"
                )
            frozen[key] = _freeze_json(value[key], f"{path}.{key}")
        return frozen
    raise ValueError(
        f"spec parameter at {path} has unserializable type "
        f"{type(value).__name__}; use JSON-safe values"
    )


@dataclass(frozen=True)
class GraphSpec:
    """The input graph: a seeded generator call or an inline edge list.

    Exactly one of ``generator`` and ``edges`` must be set.  Generator specs
    are deterministic by construction (all bundled generators are seeded), so
    the same spec always builds a content-identical graph; inline edge lists
    carry ``(u, v, weight)`` triples (plus optional extra ``nodes`` for
    single-node graphs).
    """

    generator: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    edges: Optional[Tuple[Tuple[int, int, int], ...]] = None
    nodes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if (self.generator is None) == (self.edges is None):
            raise ValueError(
                "a GraphSpec needs exactly one of 'generator' or 'edges'"
            )
        object.__setattr__(
            self, "params", MappingProxyType(_freeze_json(dict(self.params), "$.graph.params"))
        )
        if self.edges is not None:
            object.__setattr__(
                self,
                "edges",
                tuple(tuple(int(x) for x in edge) for edge in self.edges),
            )
        if self.nodes is not None:
            object.__setattr__(self, "nodes", tuple(int(x) for x in self.nodes))

    def validate(self) -> "GraphSpec":
        if self.generator is not None:
            registry = _generator_registry()
            if self.generator not in registry:
                raise ValueError(
                    f"unknown graph generator {self.generator!r}; "
                    f"available: {available_generators()}"
                )
        else:
            for edge in self.edges or ():
                if len(edge) != 3:
                    raise ValueError(
                        f"inline edges must be (u, v, weight) triples, got {edge!r}"
                    )
        return self

    def build(self) -> WeightedGraph:
        """Materialize the graph this spec describes."""
        self.validate()
        if self.generator is not None:
            factory = _generator_registry()[self.generator]
            try:
                return factory(**dict(self.params))
            except TypeError as exc:
                raise ValueError(
                    f"graph generator {self.generator!r} rejected parameters "
                    f"{dict(self.params)}: {exc}"
                ) from exc
        graph = WeightedGraph(nodes=self.nodes)
        for u, v, w in self.edges or ():
            graph.add_edge(u, v, w)
        return graph

    def canonical_json(self) -> str:
        """Byte-stable canonical form (sorted keys, no whitespace)."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def digest_with_graph(self) -> Tuple[str, Optional[WeightedGraph]]:
        """The graph's content digest, plus the graph when one was built.

        Every bundled generator is deterministic (seeded), and an inline edge
        list trivially is, so the content digest is a pure function of the
        spec; it is memoized process-wide keyed on :meth:`canonical_json`.  A
        memo hit returns ``(digest, None)`` -- the service's warm path never
        pays for materializing a graph it will not run on.  A memo miss
        builds the graph once and hands it back so a cold path does not
        build twice.
        """
        key = self.canonical_json()
        with _DIGEST_MEMO_LOCK:
            digest = _DIGEST_MEMO.get(key)
            if digest is not None:
                _DIGEST_MEMO.move_to_end(key)
                return digest, None
        graph = self.build()
        digest = graph.content_digest()
        with _DIGEST_MEMO_LOCK:
            _DIGEST_MEMO[key] = digest
            _DIGEST_MEMO.move_to_end(key)
            while len(_DIGEST_MEMO) > _DIGEST_MEMO_MAX:
                _DIGEST_MEMO.popitem(last=False)
        return digest, graph

    def content_digest(self) -> str:
        """The content digest of the graph this spec describes (memoized)."""
        return self.digest_with_graph()[0]

    def to_json(self) -> Dict[str, Any]:
        if self.generator is not None:
            return {"generator": self.generator, "params": dict(self.params)}
        payload: Dict[str, Any] = {"edges": [list(e) for e in self.edges or ()]}
        if self.nodes is not None:
            payload["nodes"] = list(self.nodes)
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "GraphSpec":
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"graph spec must be an object, got {type(payload).__name__}"
            )
        if "generator" in payload:
            return cls(
                generator=payload["generator"], params=payload.get("params", {})
            )
        if "edges" in payload:
            nodes = payload.get("nodes")
            return cls(
                edges=tuple(tuple(e) for e in payload["edges"]),
                nodes=tuple(nodes) if nodes is not None else None,
            )
        raise ValueError("graph spec needs a 'generator' or an 'edges' field")


# --------------------------------------------------------------------------- #
# Run specs
# --------------------------------------------------------------------------- #


def _check_positive(name: str, value: Optional[int]) -> None:
    if value is None:
        return
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(
            f"invalid RunSpec {name} value {value!r}: expected a positive "
            f"integer or None"
        )


@dataclass(frozen=True)
class RunSpec:
    """One frozen, canonically-serializable simulation request.

    Attributes
    ----------
    protocol:
        A protocol registered in :mod:`repro.service.protocols`.
    graph:
        The input :class:`GraphSpec`.
    params:
        Protocol parameters (JSON-safe values only).
    engine / backend:
        Execution knobs, applied via :func:`repro.runtime.configure`;
        ``None`` leaves the process/environment selection untouched.
    max_rounds / halt_on_quiescence:
        Per-run simulator options; ``None`` means the protocol's natural
        behavior.
    bandwidth_words / word_bits / strict_bandwidth:
        The :class:`~repro.congest.network.CongestConfig` of the network.
    """

    protocol: str
    graph: GraphSpec
    params: Mapping[str, Any] = field(default_factory=dict)
    engine: Optional[str] = None
    backend: Optional[str] = None
    max_rounds: Optional[int] = None
    halt_on_quiescence: Optional[bool] = None
    bandwidth_words: int = 2
    word_bits: Optional[int] = None
    strict_bandwidth: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.protocol, str) or not self.protocol:
            raise ValueError(f"RunSpec protocol must be a non-empty string, got {self.protocol!r}")
        if not isinstance(self.graph, GraphSpec):
            raise ValueError("RunSpec graph must be a GraphSpec")
        object.__setattr__(
            self, "params", MappingProxyType(_freeze_json(dict(self.params), "$.params"))
        )
        _check_positive("max_rounds", self.max_rounds)
        _check_positive("bandwidth_words", self.bandwidth_words)

    # ------------------------------------------------------------------ #
    # Validation and execution plumbing
    # ------------------------------------------------------------------ #
    def validate(self) -> "RunSpec":
        """Check every field against the live registries.

        Raises :class:`ValueError` naming the registered protocols, engines,
        backends or generators on any unknown name, so a bad request fails
        with the menu of valid choices instead of a bare registry error.
        """
        get_protocol(self.protocol)
        self.graph.validate()
        configure(engine=self.engine, backend=self.backend)
        return self

    def run_options(self) -> RunOptions:
        """The per-run simulator options this spec asks for."""
        return RunOptions(
            max_rounds=self.max_rounds, halt_on_quiescence=self.halt_on_quiescence
        )

    def congest_config(self) -> CongestConfig:
        return CongestConfig(
            bandwidth_words=self.bandwidth_words,
            word_bits_override=self.word_bits,
            strict_bandwidth=self.strict_bandwidth,
        )

    def build_network(self) -> Network:
        """Materialize the network (graph + bandwidth config)."""
        return Network(self.graph.build(), self.congest_config())

    def with_engine(self, engine: Optional[str]) -> "RunSpec":
        """A copy of this spec requesting a different engine."""
        return replace(self, engine=engine)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_json(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "graph": self.graph.to_json(),
            "params": dict(self.params),
            "engine": self.engine,
            "backend": self.backend,
            "max_rounds": self.max_rounds,
            "halt_on_quiescence": self.halt_on_quiescence,
            "bandwidth_words": self.bandwidth_words,
            "word_bits": self.word_bits,
            "strict_bandwidth": self.strict_bandwidth,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "RunSpec":
        if not isinstance(payload, Mapping):
            raise ValueError(f"RunSpec payload must be an object, got {type(payload).__name__}")
        if "protocol" not in payload or "graph" not in payload:
            raise ValueError("RunSpec payload needs 'protocol' and 'graph' fields")
        known = {
            "protocol",
            "graph",
            "params",
            "engine",
            "backend",
            "max_rounds",
            "halt_on_quiescence",
            "bandwidth_words",
            "word_bits",
            "strict_bandwidth",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"RunSpec payload has unknown fields {unknown}")
        return cls(
            protocol=payload["protocol"],
            graph=GraphSpec.from_json(payload["graph"]),
            params=payload.get("params", {}),
            engine=payload.get("engine"),
            backend=payload.get("backend"),
            max_rounds=payload.get("max_rounds"),
            halt_on_quiescence=payload.get("halt_on_quiescence"),
            bandwidth_words=payload.get("bandwidth_words", 2),
            word_bits=payload.get("word_bits"),
            strict_bandwidth=payload.get("strict_bandwidth", False),
        )

    def canonical_json(self) -> str:
        """Byte-stable canonical serialization (sorted keys, no whitespace).

        Two specs constructed with parameters in different orders produce
        identical canonical JSON -- this string is what the result cache
        hashes, so key stability is part of the API contract.
        """
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def __hash__(self) -> int:
        return hash(self.canonical_json())
