"""Outside-in span tracer: wraps public ``repro`` callables without editing them.

Every wrapped call records a span -- name, layer, start, end and parent --
in memory; counts are read off the returned values at the same boundaries.
Spans are written out only when the benchmark ends.  A layer's self time is
its spans' durations minus the part covered by their child spans.

The benchmark is a single client in a closed loop: at any moment exactly one
thread runs traced code (the service's worker thread runs while the client
thread blocks on the result), so one process-wide span stack gives every
span its causal parent, across that thread hand-off too.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Layers whose ``<layer>.self_s`` and ``<layer>.calls`` the benchmark emits.
LAYERS = (
    "graphs",
    "kernels",
    "nanongkai",
    "congest.sparse",
    "congest.dense",
    "congest.symbolic",
    "primitives",
    "quantum_congest",
    "quantum",
    "service",
    "core",
)


def no_span(name: str, layer: Optional[str]):
    """Stand-in for :meth:`Tracer.span` when the run is not traced."""
    return contextlib.nullcontext()


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "child_s")

    def __init__(self, name: str, layer: Optional[str], parent: Optional[int]) -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.child_s = 0.0
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return max(0.0, self.duration - self.child_s)


class Tracer:
    """Records spans and counts while installed; see :meth:`install`.

    ``requested_engine`` is the engine the workload forces (``None`` when it
    leaves the choice to the library); a run whose resolved engine differs
    from the requested one counts as a fallback.
    """

    def __init__(self, requested_engine: Optional[str] = None) -> None:
        self.requested_engine = requested_engine
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._stored: List[Any] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def open(self, name: str, layer: Optional[str]) -> Span:
        span = Span(name, layer, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    @contextlib.contextmanager
    def span(self, name: str, layer: Optional[str]) -> Iterator[Span]:
        span = self.open(name, layer)
        try:
            yield span
        finally:
            self.close(span)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stored.clear()

    def after_op(self) -> None:
        """Count what the op stored; called outside the op's timer, since
        serializing a result costs as much as the store itself."""
        for result in self._stored:
            self.counts["service.stored_bytes"] += len(json.dumps(result.to_json()))
        self._stored.clear()

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def _wrap(self, func: Callable, name: str, layer: Optional[str], on_result=None) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        return traced

    def _patch_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, func: Callable, name: str, layer: str, on_result=None) -> None:
        """Replace ``func`` in every ``repro`` module that binds it, so each
        call site looks the traced version up."""
        traced = self._wrap(func, name, layer, on_result)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patch_attr(module, attr, traced)

    def _patch_method(self, cls: type, attr: str, layer: Optional[str], on_result=None) -> None:
        func = cls.__dict__[attr]
        self._patch_attr(cls, attr, self._wrap(func, f"{cls.__name__}.{attr}", layer, on_result))

    def install(self) -> None:
        """Wrap the layer boundaries; :meth:`uninstall` restores them."""
        from repro.congest import simulator
        from repro.congest import primitives
        from repro.congest.engine import base as engine_base
        from repro.core import diameter_radius
        from repro.kernels import api as kernels_api
        from repro.nanongkai import skeleton
        from repro.quantum import minmax
        from repro.quantum_congest.optimizer import DistributedQuantumOptimizer
        from repro.service.cache import ResultCache
        from repro.service.jobs import SimulationService
        from repro.service.spec import GraphSpec

        self._patch_method(simulator.Simulator, "run", None, self._on_simulation)
        self._patch_function(
            engine_base.resolve_engine, "resolve_engine", None, self._on_resolve
        )
        engines = {type(engine_base.get_engine(n)) for n in engine_base.available_engines()}
        for cls in sorted(engines, key=lambda c: c.name):
            if "run" in cls.__dict__:
                self._patch_method(cls, "run", f"congest.{cls.name}")

        for func in (
            primitives.build_bfs_tree,
            primitives.broadcast_from,
            primitives.gather_values_to,
            primitives.convergecast_max,
        ):
            self._patch_function(func, func.__name__, "primitives")
        self._patch_function(
            kernels_api.eccentricities_csr, "eccentricities_csr", "kernels"
        )
        self._patch_function(
            skeleton.sample_skeleton_sets, "sample_skeleton_sets", "nanongkai"
        )
        for attr in ("__init__", "setup", "approx_eccentricity"):
            self._patch_method(skeleton.SkeletonApproximator, attr, "nanongkai")
        for attr in ("maximize", "minimize", "search_with_promise"):
            self._patch_method(DistributedQuantumOptimizer, attr, "quantum_congest")
        for func in (minmax.quantum_maximum, minmax.quantum_minimum):
            self._patch_function(func, func.__name__, "quantum", self._on_extremum)
        for func in (
            diameter_radius.quantum_weighted_diameter,
            diameter_radius.quantum_weighted_radius,
        ):
            self._patch_function(func, func.__name__, "core", self._on_theorem)

        self._patch_method(SimulationService, "run", "service")
        self._patch_method(ResultCache, "lookup", "service", self._on_lookup)
        self._patch_method(ResultCache, "store", "service", self._on_store)
        self._patch_method(GraphSpec, "digest_with_graph", "service")
        self._patch_method(GraphSpec, "build", "graphs")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Counts taken from returned values
    # ------------------------------------------------------------------ #
    def _on_resolve(self, span, args, kwargs, engine) -> None:
        span.layer = f"congest.{engine.name}"
        # resolve_engine is called from inside Simulator.run, whose span is
        # now the innermost open one: label it with the engine that ran.
        if self._stack:
            parent = self.spans[self._stack[-1]]
            if parent.name == "Simulator.run":
                parent.layer = span.layer
        requested = args[0] if args and args[0] is not None else self.requested_engine
        if requested not in (None, "auto") and engine.name != requested:
            self.counts["congest.fallback_runs"] += 1

    def _on_simulation(self, span, args, kwargs, result) -> None:
        self.counts["congest.runs"] += 1
        self.counts[f"{span.layer}.runs"] += 1
        self.counts["congest.rounds"] += result.report.rounds

    def _on_extremum(self, span, args, kwargs, result) -> None:
        self.counts["quantum.oracle_queries"] += result.oracle_queries
        self.counts["quantum.threshold_updates"] += result.threshold_updates

    def _on_theorem(self, span, args, kwargs, result) -> None:
        self.counts["core.charged_rounds"] += result.total_rounds

    def _on_lookup(self, span, args, kwargs, result) -> None:
        self.counts["service.hits" if result is not None else "service.misses"] += 1

    def _on_store(self, span, args, kwargs, key) -> None:
        self._stored.append(args[3] if len(args) > 3 else kwargs["result"])

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def layer_self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.layer] = totals.get(span.layer, 0.0) + span.self_s
        return totals

    def layer_calls(self) -> Counter:
        return Counter(span.layer for span in self.spans)

    def inclusive_seconds(self, *names: str) -> float:
        """Total duration of the named spans, nested repeats counted once."""
        total = 0.0
        for span in self.spans:
            if span.name in names and not self._has_ancestor(span, names):
                total += span.duration
        return total

    def _has_ancestor(self, span: Span, names) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False

    def root_seconds(self) -> float:
        return sum(span.duration for span in self.spans if span.parent is None)

    def dump(self) -> List[Dict[str, Any]]:
        origin = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": span.name,
                "layer": span.layer,
                "start": span.start - origin,
                "end": span.end - origin,
                "parent": span.parent,
            }
            for span in self.spans
        ]

