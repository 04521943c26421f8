"""Skeleton sampling and the approximate distances of Lemma 3.3 / Section 3.1.

A *skeleton set* ``S`` is obtained by letting every node join independently
with probability ``r/n``.  Given the Algorithm-3 output (``d̃^ℓ(u, v)`` for
``u ∈ S`` at every ``v``) and the Algorithm-4/5 overlay machinery, the
approximate distance of Lemma 3.3 is

    ``d̃_{G,w,S}(s, v) = min_{u ∈ S} { d̃^{4|S|/k}_{G''_S}(s, u) + d̃^ℓ(u, v) }``

for every skeleton node ``s`` and every node ``v``, and the approximate
eccentricity of Section 3.1 is ``ẽ(s) = max_v d̃_{G,w,S}(s, v)``.

:class:`SkeletonApproximator` wires the toolkit together for one skeleton set
and exposes exactly the three procedures Lemma 3.5 needs (Initialization /
Setup / Evaluation), each with its measured round report, so the quantum
layer can apply Lemma 3.1 with measured ``T0`` and ``T``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.congest.network import Network
from repro.congest.primitives import (
    broadcast_from,
    gather_values_to,
    zero_convergecast_report,
)
from repro.congest.simulator import RoundReport
from repro.graphs.shortest_paths import INFINITY
from repro.kernels import get_backend
from repro.nanongkai.multi_source import (
    MultiSourceDistances,
    multi_source_bounded_hop_protocol,
)
from repro.nanongkai.overlay import (
    OverlayEmbedding,
    embed_overlay_network,
    overlay_sssp_protocol,
)

__all__ = [
    "sample_skeleton_sets",
    "PipelineComposer",
    "SkeletonApproximator",
]


class PipelineComposer:
    """Chains per-phase :class:`RoundReport` objects into one pipeline report.

    The Theorem 1.1 pipeline is a fixed sequence of phases (Algorithm 3,
    Algorithm 4, gather/announce, Algorithm 5, convergecast), each of which
    produces its own round report -- measured by whichever engine ran it,
    including the closed-form ``symbolic`` engine.  The composer records the
    phases by name and flattens them with :meth:`RoundReport.sequential` in
    insertion order, exactly as the previous inline ``sequential([...])``
    call sites did, so composed totals are bit-identical to the stepped
    pipeline while the per-phase breakdown stays inspectable.
    """

    def __init__(self, protocol: str) -> None:
        self._protocol = protocol
        self._phases: List[Tuple[str, RoundReport]] = []

    def add(self, phase: str, report: RoundReport) -> RoundReport:
        """Record ``report`` as the next pipeline phase; returns it unchanged."""
        self._phases.append((phase, report))
        return report

    @property
    def phases(self) -> List[Tuple[str, RoundReport]]:
        """The recorded ``(phase name, report)`` pairs, in execution order."""
        return list(self._phases)

    def report(self) -> RoundReport:
        """Flatten the recorded phases into one sequential :class:`RoundReport`."""
        if not self._phases:
            raise ValueError("cannot compose an empty pipeline")
        flattened = RoundReport.sequential([report for _, report in self._phases])
        flattened.protocol = self._protocol
        return flattened


def sample_skeleton_sets(
    nodes: List[int],
    expected_size: float,
    num_sets: int,
    seed: int = 0,
    ensure_nonempty: bool = True,
) -> List[List[int]]:
    """Sample ``num_sets`` skeleton sets, each node joining with probability ``r/n``.

    Parameters
    ----------
    nodes:
        The node set ``V``.
    expected_size:
        The parameter ``r``: each node joins each set with probability
        ``r / n``.
    num_sets:
        How many sets to sample (the paper samples ``n`` of them).
    seed:
        Randomness seed.
    ensure_nonempty:
        When ``True`` (default), an empty sample is patched with one uniformly
        random node so downstream code never deals with empty skeletons; the
        event has negligible probability at the paper's parameter settings
        and the patch does not affect the approximation guarantee.

    The draws run through the kernel backend's
    :meth:`~repro.kernels.KernelBackend.skeleton_sets`; every backend
    returns the same sets for the same seed.  Raises ``ValueError`` for
    ``num_sets < 1``, a NaN or non-positive ``expected_size``, and an empty
    ``nodes`` with ``ensure_nonempty``.
    """
    if num_sets < 1:
        raise ValueError("num_sets must be at least 1")
    if math.isnan(expected_size):
        raise ValueError("expected_size must not be NaN")
    if expected_size <= 0:
        raise ValueError("expected_size must be positive")
    if not nodes and ensure_nonempty:
        raise ValueError("cannot patch an empty skeleton set from an empty node set")
    probability = min(1.0, expected_size / max(1, len(nodes)))
    return get_backend().skeleton_sets(
        nodes, probability, num_sets, random.Random(seed), ensure_nonempty
    )


@dataclass
class _SetupResult:
    """Cached result of one Setup invocation (Algorithm 5 for a source)."""

    overlay_distances: Dict[int, float]
    report: RoundReport


class SkeletonApproximator:
    """The Lemma 3.5 black boxes for one skeleton set ``S_i``.

    Parameters
    ----------
    network:
        The CONGEST network.
    skeleton:
        The skeleton set ``S_i``.
    epsilon:
        The accuracy parameter ``ε``.
    hop_bound:
        The hop bound ``ℓ``.
    k:
        The shortcut parameter ``k`` (the paper uses ``k = sqrt(D)``).
    seed:
        Randomness seed for the toolkit's random delays.

    Notes
    -----
    Construction runs the *Initialization* phase for real on the simulator:
    Algorithm 3 (multi-source bounded-hop SSSP from ``S_i``) and Algorithm 4
    (overlay embedding).  Setup and Evaluation are exposed as methods whose
    round reports are measured on demand and cached.
    """

    def __init__(
        self,
        network: Network,
        skeleton: List[int],
        epsilon: float,
        hop_bound: int,
        k: int,
        seed: int = 0,
        levels: Optional[int] = None,
    ) -> None:
        if not skeleton:
            raise ValueError("the skeleton set must be non-empty")
        self._network = network
        self._skeleton = sorted(skeleton)
        self._epsilon = epsilon
        self._hop_bound = hop_bound
        self._k = max(1, k)
        self._seed = seed

        # ---- Initialization (Lemma 3.5): Algorithm 3 + Algorithm 4 -------- #
        self._dtilde, multi_report = multi_source_bounded_hop_protocol(
            network,
            self._skeleton,
            hop_bound,
            epsilon,
            levels=levels,
            seed=seed,
        )
        self._embedding: OverlayEmbedding = embed_overlay_network(
            network, self._skeleton, self._dtilde, self._k
        )
        composer = PipelineComposer("skeleton-initialization")
        composer.add("multi-source-sssp", multi_report)
        composer.add("overlay-embedding", self._embedding.report)
        self._initialization_report = composer.report()

        self._setup_cache: Dict[int, _SetupResult] = {}
        self._gather_report: Optional[RoundReport] = None

    # ------------------------------------------------------------------ #
    @property
    def skeleton(self) -> List[int]:
        """The skeleton set ``S_i``."""
        return list(self._skeleton)

    @property
    def embedding(self) -> OverlayEmbedding:
        """The Algorithm-4 overlay embedding."""
        return self._embedding

    @property
    def dtilde(self) -> MultiSourceDistances:
        """``d̃^ℓ(u, v)`` for ``u ∈ S_i`` as known at every node ``v``."""
        return self._dtilde

    @property
    def initialization_report(self) -> RoundReport:
        """Measured round cost of Initialization (``T0`` of Lemma 3.5)."""
        return self._initialization_report

    # ------------------------------------------------------------------ #
    def setup(self, source: int) -> _SetupResult:
        """Run (or replay from cache) the Setup procedure for ``source ∈ S_i``.

        Setup = the leader collects ``S_i`` and broadcasts the superposed
        source (``O(D + |S_i|)`` rounds), then Algorithm 5 computes
        ``d̃^{4|S|/k}_{G''}(source, u)`` for every ``u ∈ S_i`` at every node.
        """
        if source not in self._skeleton:
            raise KeyError(f"source {source} is not in the skeleton set")
        if source in self._setup_cache:
            return self._setup_cache[source]

        composer = PipelineComposer("skeleton-setup")
        tree = self._embedding.tree
        # The leader collects S_i (pipelined gather of the membership bits)
        # and broadcasts the chosen source id.  The gather does not depend on
        # the source, so it is simulated once and charged to every Setup.
        if self._gather_report is None:
            skeleton = set(self._skeleton)
            membership = {
                node: ([node] if node in skeleton else [])
                for node in self._network.nodes
            }
            _, self._gather_report = gather_values_to(
                self._network, tree.root, membership, tree=tree
            )
        composer.add("gather-membership", self._gather_report)
        _, announce_report = broadcast_from(
            self._network, tree.root, source, tree=tree
        )
        composer.add("announce-source", announce_report)

        overlay_distances, overlay_report = overlay_sssp_protocol(
            self._network, self._embedding, source, self._epsilon
        )
        composer.add("overlay-sssp", overlay_report)

        report = composer.report()
        result = _SetupResult(overlay_distances=overlay_distances, report=report)
        self._setup_cache[source] = result
        return result

    # ------------------------------------------------------------------ #
    def approx_distance(self, source: int, target: int) -> float:
        """``d̃_{G,w,S_i}(source, target)`` of Lemma 3.3."""
        return self.approx_distances_from(source)[target]

    def _distances_from(self, source: int) -> List[float]:
        """Lemma 3.3 at every node, in node order, on Algorithm 3's matrix."""
        overlay = self.setup(source).overlay_distances
        return get_backend().min_plus_rows(
            [overlay.get(u, INFINITY) for u in self._dtilde.sources],
            self._dtilde.best,
        )

    def approx_distances_from(self, source: int) -> Dict[int, float]:
        """``d̃_{G,w,S_i}(source, v)`` for every node ``v``."""
        return dict(zip(self._dtilde, self._distances_from(source)))

    def approx_eccentricity(self, source: int) -> float:
        """``ẽ_{G,w,i}(source) = max_v d̃_{G,w,S_i}(source, v)`` (Section 3.1)."""
        return max(self._distances_from(source))

    # ------------------------------------------------------------------ #
    def setup_report(self, source: Optional[int] = None) -> RoundReport:
        """Measured round cost of one Setup invocation (part of ``T``).

        A representative source (the smallest skeleton node by default) is
        used; Lemma 3.5 charges the same ``T1`` for every branch of the
        superposition.
        """
        if source is None:
            source = self._skeleton[0]
        return self.setup(source).report

    def evaluation_report(self) -> RoundReport:
        """Measured round cost of one Evaluation invocation (``T2 = O(D)``).

        Evaluation is a purely local combination (each node already holds both
        tables) followed by a max-convergecast to the leader over its BFS
        tree.  The convergecast's cost depends on the tree alone, so it is
        measured on the simulator once per topology, root and engine
        (:func:`~repro.congest.primitives.zero_convergecast_report`).
        """
        report = zero_convergecast_report(self._network, self._embedding.tree)
        report.protocol = "skeleton-evaluation"
        return report
