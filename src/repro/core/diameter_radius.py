"""Theorem 1.1: quantum ``(1 + o(1))``-approximation of weighted diameter and radius.

The algorithm follows Section 3 of the paper exactly:

1. **Initialization** (free): sample ``n`` skeleton sets ``S_1, ..., S_n``,
   each node joining each set independently with probability ``r/n``.
2. **Outer search** (Lemma 3.1 over ``i ∈ [1, n]``): the function
   ``f(i) = max_{s ∈ S_i} ẽ_{G,w,i}(s)`` (min for the radius) is optimised
   with amplitude mass ``ρ = Θ(r)/n`` of good indices (Lemma 3.4), so
   ``O(sqrt(n/r))`` Evaluation invocations suffice.
3. **Outer Evaluation = inner search** (Lemma 3.5 over ``s ∈ S_i``): for one
   index ``i``, Nanongkai's toolkit (Algorithms 3-5) is run for the set
   ``S_i`` -- that is the inner Initialization, with measured cost ``T0`` --
   and ``ẽ_i(s)`` is maximised over ``s ∈ S_i`` with ``O(sqrt(|S_i|))``
   Setup+Evaluation invocations, each of measured cost ``T1 + T2``.

The returned value ``f(i)`` satisfies ``D ≤ f(i) ≤ (1+ε)² D`` (resp.
``R ≤ f(i) ≤ (1+ε)² R``) with high probability, and the charged round count
follows Lemma 3.1 with every ``T`` measured on the CONGEST simulator: the
quantum procedures are charged the measured cost of their classical
counterparts, which the reversible-simulation argument the paper cites
preserves up to constants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.congest.network import Network
from repro.congest.primitives import broadcast_from, build_bfs_tree
from repro.congest.simulator import RoundReport
from repro.core.parameters import AlgorithmParameters, ParameterProfile
from repro.kernels import extremal_eccentricity_csr
from repro.nanongkai.skeleton import (
    PipelineComposer,
    SkeletonApproximator,
    sample_skeleton_sets,
)
from repro.quantum.rng import as_quantum_rng
from repro.quantum_congest.model import ProcedureCosts, QuantumCongestCharge
from repro.quantum_congest.optimizer import (
    DistributedQuantumOptimizer,
    DistributedSearchOutcome,
    SearchMode,
)

__all__ = [
    "ApproximationResult",
    "quantum_weighted_diameter",
    "quantum_weighted_radius",
]


def _search_rng(seed):
    """Measurement randomness of the Theorem 1.1 search and of the naive
    baseline (:mod:`repro.core.naive`): NumPy's ``default_rng`` when
    available (the historical stream, so seeded results are unchanged), else
    a seeded ``random.Random`` so both entry points run on the no-NumPy
    tier."""
    try:
        import numpy as np
    except ImportError:
        return random.Random(seed)
    return np.random.default_rng(seed)


@dataclass
class ApproximationResult:
    """Outcome of one run of the Theorem 1.1 algorithm.

    Attributes
    ----------
    problem:
        ``"diameter"`` or ``"radius"``.
    value:
        The reported approximation (``f(i)`` for the chosen index ``i``).
    chosen_set_index:
        The skeleton-set index the outer search returned.
    chosen_skeleton:
        The corresponding skeleton set ``S_i``.
    chosen_source:
        The skeleton node the inner search returned.
    parameters:
        The Eq. (1) parameters the run used.
    inner_outcome:
        The inner (Lemma 3.5) search outcome, including its round charge.
    outer_charge:
        The outer (Theorem 1.1) round charge; its ``total_rounds`` is the
        algorithm's round complexity.
    report:
        The flattened :class:`RoundReport` of the whole run.
    exact_value:
        The true weighted diameter/radius when ``compute_exact`` was
        requested; ``None`` otherwise.
    within_guarantee:
        Whether ``exact ≤ value ≤ (1+ε)² · exact`` (``None`` when the exact
        value was not computed).
    """

    problem: str
    value: float
    chosen_set_index: int
    chosen_skeleton: List[int]
    chosen_source: int
    parameters: AlgorithmParameters
    inner_outcome: DistributedSearchOutcome
    outer_charge: QuantumCongestCharge
    report: RoundReport
    exact_value: Optional[float] = None
    within_guarantee: Optional[bool] = None

    @property
    def total_rounds(self) -> int:
        """Charged quantum CONGEST rounds of the whole run."""
        return self.outer_charge.total_rounds

    @property
    def approximation_ratio(self) -> Optional[float]:
        """``value / exact`` when the exact value is known."""
        if self.exact_value is None or self.exact_value == 0:
            return None
        return self.value / self.exact_value


def _extremal_nodes(network: Network, maximize: bool) -> Tuple[List[int], float]:
    """Nodes of maximum (diameter) or minimum (radius) eccentricity, and that value.

    Used only to identify the *structurally good* skeleton sets of Lemma 3.4
    for the query-model emulation of the outer search (which returns a good
    index with probability ``1 - δ``).  The computation is sequential ground
    truth and is never charged rounds.
    """
    target, nodes = extremal_eccentricity_csr(network.graph, maximize)
    return nodes, target


def _approximate(
    network: Network,
    maximize: bool,
    seed: int,
    parameters: Optional[AlgorithmParameters],
    profile: ParameterProfile,
    delta: float,
    compute_exact: bool,
    mode: SearchMode,
) -> ApproximationResult:
    """Shared implementation of the diameter and radius variants."""
    problem = "diameter" if maximize else "radius"
    if parameters is None:
        parameters = AlgorithmParameters.for_network(
            network, profile=profile, delta=delta
        )
    rng = as_quantum_rng(_search_rng(seed))
    sampler_seed = random.Random(seed).randrange(2**31)

    # ---- Initialization: sample the skeleton sets (free) ------------------ #
    skeleton_sets = sample_skeleton_sets(
        network.nodes,
        expected_size=parameters.skeleton_size,
        num_sets=parameters.num_sets,
        seed=sampler_seed,
    )

    # ---- Identify the structurally good outer indices (Lemma 3.4) --------- #
    extremal_nodes, exact_value = _extremal_nodes(network, maximize)
    extremal_set = set(extremal_nodes)
    good_indices = [
        index
        for index, members in enumerate(skeleton_sets)
        if extremal_set.intersection(members)
    ]
    if not good_indices:
        # The Good-Scale event failed (probability 1/poly(n)); patch one set
        # so the run can proceed, exactly as a re-sample would.
        patch_index = rng.randrange(len(skeleton_sets))
        skeleton_sets[patch_index] = sorted(
            set(skeleton_sets[patch_index]) | {extremal_nodes[0]}
        )
        good_indices = [patch_index]

    # ---- Outer search charge components ----------------------------------- #
    leader = min(network.nodes)
    tree, tree_report = build_bfs_tree(network, leader)
    _, outer_setup_report = broadcast_from(network, leader, 0, tree=tree)

    evaluation_cache: Dict[int, Tuple[DistributedSearchOutcome, SkeletonApproximator]] = {}

    def evaluate_outer(index: int) -> float:
        """One outer Evaluation: run the inner search of Lemma 3.5 on ``S_index``."""
        if index in evaluation_cache:
            return evaluation_cache[index][0].value
        skeleton = skeleton_sets[index]
        approximator = SkeletonApproximator(
            network,
            skeleton,
            epsilon=parameters.epsilon,
            hop_bound=parameters.hop_bound,
            k=parameters.shortcut_k,
            seed=seed + index,
            levels=parameters.levels,
        )
        inner_costs = ProcedureCosts(
            initialization=approximator.initialization_report,
            setup=approximator.setup_report(),
            evaluation=approximator.evaluation_report(),
            label=f"inner[{problem}]",
        )
        inner_optimizer = DistributedQuantumOptimizer(
            inner_costs, delta=parameters.delta, rng=rng, mode=mode
        )
        search = inner_optimizer.maximize if maximize else inner_optimizer.minimize
        outcome = search(
            skeleton,
            approximator.approx_eccentricity,
            rho=parameters.inner_rho(len(skeleton)),
        )
        evaluation_cache[index] = (outcome, approximator)
        return outcome.value

    # ---- Outer search (Lemma 3.1 with the Lemma 3.4 promise) -------------- #
    # The outer costs are only known after the evaluation because the
    # per-Evaluation cost is itself a measured quantity: one outer Evaluation
    # costs the inner T0 plus the inner invocations of (T1 + T2), i.e.
    # exactly the inner charge's total.  The optimizer therefore defers the
    # charge to this closure instead of being fed placeholder costs.
    def outer_costs_for(index: Hashable) -> ProcedureCosts:
        inner, _ = evaluation_cache[int(index)]
        return ProcedureCosts(
            initialization=tree_report,
            setup=outer_setup_report,
            evaluation=inner.charge.as_report(),
            label=f"outer[{problem}]",
        )

    outer_optimizer = DistributedQuantumOptimizer(
        None, delta=parameters.delta, rng=rng, mode=SearchMode.QUERY_MODEL
    )
    outer_outcome = outer_optimizer.search_with_promise(
        list(range(len(skeleton_sets))),
        good_indices,
        evaluate_outer,
        rho=parameters.outer_rho(),
        finalize_costs=outer_costs_for,
    )
    chosen_index = int(outer_outcome.element)
    inner_outcome, _approximator = evaluation_cache[chosen_index]
    outer_charge = outer_outcome.charge

    composer = PipelineComposer(f"quantum-weighted-{problem}")
    composer.add("outer-search", outer_charge.as_report())
    report = composer.report()

    within = None
    if compute_exact:
        tolerance = 1e-9
        upper = (1 + parameters.epsilon) ** 2 * exact_value + tolerance
        within = exact_value - tolerance <= outer_outcome.value <= upper
    return ApproximationResult(
        problem=problem,
        value=outer_outcome.value,
        chosen_set_index=chosen_index,
        chosen_skeleton=skeleton_sets[chosen_index],
        chosen_source=inner_outcome.element,
        parameters=parameters,
        inner_outcome=inner_outcome,
        outer_charge=outer_charge,
        report=report,
        exact_value=exact_value if compute_exact else None,
        within_guarantee=within,
    )


def quantum_weighted_diameter(
    network: Network,
    seed: int = 0,
    parameters: Optional[AlgorithmParameters] = None,
    profile: ParameterProfile = ParameterProfile.FAST,
    delta: float = 0.1,
    compute_exact: bool = True,
    mode: SearchMode = SearchMode.QUERY_MODEL,
) -> ApproximationResult:
    """Quantum ``(1+ε)²``-approximation of the weighted diameter (Theorem 1.1).

    Parameters
    ----------
    network:
        The CONGEST network carrying the weighted input graph.
    seed:
        Randomness seed (skeleton sampling, random delays, quantum search).
    parameters:
        Explicit Eq. (1) parameters; derived from the network by default.
    profile:
        Parameter profile used when ``parameters`` is not given; the ``FAST``
        profile (default) keeps the paper's scalings with a constant ``ε``.
    delta:
        Failure probability of each quantum search.
    compute_exact:
        Also compute the exact weighted diameter sequentially and fill in
        ``exact_value`` / ``within_guarantee``.
    mode:
        Quantum-search execution mode.  The default is the Lemma 3.1 query
        model so that charged invocation counts follow the paper's constants;
        pass :attr:`SearchMode.STATEVECTOR` to run genuine
        Dürr-Høyer searches instead.

    Returns
    -------
    ApproximationResult
    """
    return _approximate(
        network,
        maximize=True,
        seed=seed,
        parameters=parameters,
        profile=profile,
        delta=delta,
        compute_exact=compute_exact,
        mode=mode,
    )


def quantum_weighted_radius(
    network: Network,
    seed: int = 0,
    parameters: Optional[AlgorithmParameters] = None,
    profile: ParameterProfile = ParameterProfile.FAST,
    delta: float = 0.1,
    compute_exact: bool = True,
    mode: SearchMode = SearchMode.QUERY_MODEL,
) -> ApproximationResult:
    """Quantum ``(1+ε)²``-approximation of the weighted radius (Theorem 1.1).

    Identical to :func:`quantum_weighted_diameter` except that both search
    levels minimise: the outer search looks for a skeleton set containing a
    node of minimum eccentricity and the inner search returns the skeleton
    node of minimum approximate eccentricity.
    """
    return _approximate(
        network,
        maximize=False,
        seed=seed,
        parameters=parameters,
        profile=profile,
        delta=delta,
        compute_exact=compute_exact,
        mode=mode,
    )
