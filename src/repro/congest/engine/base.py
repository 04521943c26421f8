"""Execution-engine registry for the CONGEST simulator.

Mirrors the kernel backend registry (:mod:`repro.kernels.backend`): engines
register themselves under a name, and :class:`~repro.congest.simulator.Simulator`
resolves one per run.  Three engines ship with the library:

* ``"sparse"`` -- the event-driven scheduler and reference interpreter: runs
  any node program, with an active-node set, pooled inboxes, enqueue-time
  message sizing and single-pass edge-charge accounting.
* ``"symbolic"`` -- the closed-form executor: derives the whole
  :class:`RoundReport` analytically for schedule-determined schemas (tree
  primitives, broadcast replays, arrival-gated min-plus runs) instead of
  stepping rounds.  Pure Python, needs no NumPy.
* ``"dense"`` -- a NumPy engine (registered only when NumPy is importable)
  that executes whole rounds as vectorized scatter/reduce over the network's
  CSR adjacency.  It runs the announce-on-improvement floods (Bellman-Ford,
  BFS flooding, the min-id flood) and the tree primitives; only algorithms
  that declare a structured numeric message schema
  (:meth:`NodeAlgorithm.message_schema`) are eligible.

:meth:`ExecutionEngine.prepare` validates one run and returns it as a
:data:`PreparedRun` closing over what validation derived, or ``None`` when
the engine cannot execute it faithfully; the work runs when the prepared run
is called.  Engines keep no per-run state.  :func:`resolve_engine` picks the
engine and prepares the run once, in this order (first match wins):

1. an explicit ``engine=`` argument on :meth:`Simulator.run`,
2. a :func:`force_engine` pin of the current context (or
   :func:`repro.runtime.configure`),
3. the ``REPRO_ENGINE`` environment variable (``sparse``, ``dense``,
   ``symbolic`` or ``auto``),
4. ``auto``: the first of ``symbolic``, ``dense`` and ``sparse`` that
   prepares the run.

A forced or environment-selected engine that cannot execute a particular run
(e.g. ``dense`` for an algorithm without a message schema) falls back to
``sparse``; only an *explicit* ``engine=`` argument raises instead, so tests
can assert eligibility.  Every engine must produce bit-identical
:class:`~repro.congest.engine.types.RoundReport` numbers and identical
outputs -- the paper's round-complexity claims depend on it.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

from repro.congest.algorithm import NodeAlgorithm
from repro.congest.engine.types import SimulationResult
from repro.congest.network import Network

__all__ = [
    "ExecutionEngine",
    "PreparedRun",
    "ResolvedRun",
    "register_engine",
    "available_engines",
    "get_engine",
    "resolve_engine",
    "force_engine",
    "ENGINE_ENV_VAR",
]

#: Environment variable consulted when no explicit engine is requested.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Engine every ineligible run falls back to (must support every run).
_FALLBACK = "sparse"

#: Bundled engines that may legitimately be absent (missing optional
#: dependency).  An *environment* preference (``REPRO_ENGINE``) for one of
#: these falls back to ``sparse`` instead of raising, so e.g. a blanket
#: ``REPRO_ENGINE=dense`` keeps working on a NumPy-free machine; a name
#: outside this set that is not registered is a typo and still raises.
#: Programmatic selection -- ``force_engine(...)`` or an explicit
#: ``engine=`` argument -- validates eagerly and raises for absent engines,
#: since code naming an engine should fail loudly, not silently degrade.
_OPTIONAL_ENGINES = frozenset({"dense"})

_REGISTRY: Dict[str, "ExecutionEngine"] = {}
#: The :func:`force_engine` pin: context-local, so no other thread sees it.
_FORCED: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar("engine", default=None)


#: A validated run, ready to execute: ``prepared(max_rounds,
#: halt_on_quiescence)`` returns its :class:`SimulationResult`.
PreparedRun = Callable[[int, bool], SimulationResult]


class ExecutionEngine:
    """Interface every CONGEST execution engine implements."""

    name: str = "abstract"

    def prepare(
        self,
        network: Network,
        algorithm: NodeAlgorithm,
        initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> Optional[PreparedRun]:
        """The run of ``algorithm`` on ``network``, validated for this
        engine, or ``None`` when this engine cannot execute it faithfully.
        Validation only: call the run before the topology changes."""
        raise NotImplementedError

    def run(
        self,
        network: Network,
        algorithm: NodeAlgorithm,
        max_rounds: int,
        initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
        halt_on_quiescence: bool = False,
    ) -> SimulationResult:
        """Prepare the run and execute it until every node halts.  Only
        ``sparse``'s ``run`` also takes an observer."""
        prepared = self.prepare(network, algorithm, initial_memory)
        if prepared is None:
            raise ValueError(
                f"{self.name} engine cannot execute protocol '{algorithm.name}'"
            )
        return prepared(max_rounds, halt_on_quiescence)


class ResolvedRun(NamedTuple):
    """The engine :func:`resolve_engine` chose for a run, and the run it prepared."""

    engine: ExecutionEngine
    run: PreparedRun

    @property
    def name(self) -> str:
        """The chosen engine's name."""
        return self.engine.name


def register_engine(engine: ExecutionEngine) -> None:
    """Register ``engine`` under ``engine.name`` (overwriting any previous)."""
    _REGISTRY[engine.name] = engine


def available_engines() -> List[str]:
    """Names of all registered engines (always includes ``"sparse"``)."""
    return sorted(_REGISTRY)


def get_engine(name: str) -> ExecutionEngine:
    """Return the engine registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown execution engine {name!r}; available: {available_engines()}"
        ) from None


def resolve_engine(
    name: Optional[str],
    network: Network,
    algorithm: NodeAlgorithm,
    initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
) -> ResolvedRun:
    """Select the engine for one run (explicit > forced > env > auto) and
    prepare the run on it, once.

    ``name=None`` consults the override/environment.  An explicitly named
    engine that cannot execute the run raises; a forced/environment
    preference silently falls back to the ``sparse`` engine, so a blanket
    ``REPRO_ENGINE=dense`` accelerates the eligible protocols without
    breaking the rest.
    """
    explicit = name is not None
    if name is None:
        name = _FORCED.get()
    if name is None:
        name = os.environ.get(ENGINE_ENV_VAR, "auto").strip().lower() or "auto"
    if name == "auto":
        candidates = [_REGISTRY.get(preferred) for preferred in ("symbolic", "dense")]
    elif not explicit and name in _OPTIONAL_ENGINES and name not in _REGISTRY:
        candidates = []
    else:
        candidates = [get_engine(name)]
    for engine in candidates:
        if engine is not None:
            prepared = engine.prepare(network, algorithm, initial_memory)
            if prepared is not None:
                return ResolvedRun(engine, prepared)
    if explicit and name != "auto":
        raise ValueError(
            f"engine {name!r} cannot execute protocol "
            f"'{algorithm.name}' (no structured message schema, or an "
            f"unsupported run configuration)"
        )
    fallback = _REGISTRY[_FALLBACK]
    return ResolvedRun(fallback, fallback.prepare(network, algorithm, initial_memory))


@contextlib.contextmanager
def force_engine(name: str) -> Iterator[ExecutionEngine]:
    """Context manager pinning the engine preference of the current context.

    The pin is a :class:`contextvars.ContextVar`: other threads, and jobs
    running in contexts copied before the pin, do not see it.  The pinned
    engine is still subject to per-run eligibility: runs it cannot execute
    fall back to ``sparse`` (see :func:`resolve_engine`).
    """
    engine = get_engine(name)  # validate eagerly
    token = _FORCED.set(engine.name)
    try:
        yield engine
    finally:
        _FORCED.reset(token)
