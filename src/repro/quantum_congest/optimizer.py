"""The distributed quantum optimizer (Lemma 3.1) as an executable object.

The optimizer searches a finite domain for an element whose value is (close
to) extremal, charging rounds according to Lemma 3.1.  Two execution modes
are provided: the quantum search is run for real, or cost-modelled (the
default, and what Theorem 1.1 and the naive baseline use).

* ``SearchMode.STATEVECTOR`` -- run genuine Dürr-Høyer min/max finding
  (:mod:`repro.quantum`, on the exact two-class amplitude state) over the
  (fully evaluated) value table; the number
  of Setup+Evaluation invocations charged is the *measured* oracle-query
  count.  Used in the unit tests, where it demonstrates that the quantum primitive really behaves as Lemma 3.1
  assumes.
* ``SearchMode.QUERY_MODEL`` -- charge exactly the invocation count of
  Lemma 3.1 (``ceil(sqrt(log(1/δ)/ρ))``) and return an element from the
  good set with probability ``1 - δ`` (and a uniformly random element
  otherwise).  This reproduces the externally observable behaviour of the
  quantum search -- which element comes out, with what probability, at what
  round cost -- without paying the exponential state-vector cost on large
  domains.

Both modes report the identical :class:`QuantumCongestCharge` structure so
the algorithms and benchmarks built on top never need to care which one ran.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.quantum.minmax import quantum_maximum, quantum_minimum
from repro.quantum.rng import RandomSource, as_quantum_rng
from repro.quantum_congest.model import (
    ProcedureCosts,
    QuantumCongestCharge,
    grover_invocation_count,
)

__all__ = ["SearchMode", "DistributedSearchOutcome", "DistributedQuantumOptimizer"]


class SearchMode(enum.Enum):
    """How the quantum search is executed."""

    #: Genuine state-vector Dürr-Høyer (small domains; measured query counts).
    STATEVECTOR = "statevector"
    #: Lemma 3.1 query/cost model (any domain size).
    QUERY_MODEL = "query-model"


@dataclass
class DistributedSearchOutcome:
    """Result of one distributed quantum search.

    Attributes
    ----------
    element:
        The domain element the leader ends up holding.
    value:
        Its ``f``-value.
    invocations:
        Number of Setup+Evaluation invocations charged.
    charge:
        The itemised quantum CONGEST round charge (Lemma 3.1).
    succeeded:
        Whether the returned element really belongs to the good set
        (``f(element)`` at least the target threshold).
    mode:
        Which execution mode produced the outcome.
    """

    element: Hashable
    value: float
    invocations: int
    charge: QuantumCongestCharge
    succeeded: bool
    mode: SearchMode

    @property
    def total_rounds(self) -> int:
        """Total congestion-adjusted rounds charged for this search."""
        return self.charge.total_rounds


class DistributedQuantumOptimizer:
    """Executable version of Lemma 3.1 (distributed quantum optimization).

    Parameters
    ----------
    costs:
        Measured round costs of Initialization / Setup / Evaluation.
    delta:
        Target failure probability of the search.
    rng:
        Randomness source (measurements / emulated failures): a seed, a
        :class:`random.Random`, a NumPy ``Generator`` or a
        :class:`~repro.quantum.rng.QuantumRng`.
    mode:
        Execution mode; ``QUERY_MODEL`` by default.
    """

    def __init__(
        self,
        costs: Optional[ProcedureCosts],
        delta: float = 0.1,
        rng: Optional[RandomSource] = None,
        mode: SearchMode = SearchMode.QUERY_MODEL,
    ) -> None:
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        self._costs = costs
        self._delta = delta
        self._rng = as_quantum_rng(rng)
        self._mode = mode

    # ------------------------------------------------------------------ #
    @property
    def costs(self) -> Optional[ProcedureCosts]:
        """The procedure costs used for charging rounds.

        ``None`` when the charge is deferred: the optimizer was constructed
        for :meth:`search_with_promise` with a ``finalize_costs`` callback
        that supplies the measured costs once the searched element is known.
        """
        return self._costs

    def _require_costs(self) -> ProcedureCosts:
        if self._costs is None:
            raise ValueError(
                "this optimizer was constructed without procedure costs; "
                "pass costs=ProcedureCosts(...) or use search_with_promise "
                "with a finalize_costs callback"
            )
        return self._costs

    @property
    def delta(self) -> float:
        """The search's failure probability."""
        return self._delta

    # ------------------------------------------------------------------ #
    def maximize(
        self,
        domain: Sequence[Hashable],
        evaluate: Callable[[Hashable], float],
        rho: Optional[float] = None,
    ) -> DistributedSearchOutcome:
        """Search for an element of (near-)maximum value.

        Parameters
        ----------
        domain:
            The finite search domain ``X``.
        evaluate:
            The reference evaluator for ``f``: outcomes are decided with
            this cheap sequential evaluator, and the *round cost* of a
            distributed evaluation enters through ``costs``.
        rho:
            Amplitude mass of the good elements.  ``None`` means "only the
            maximum itself is promised", i.e. ``rho = 1/|X|`` -- the setting
            of the inner search of Lemma 3.5.  A larger value encodes a
            structural promise such as Lemma 3.4's ``Θ(r)/n``.
        """
        return self._search(domain, evaluate, rho, maximize=True)

    def minimize(
        self,
        domain: Sequence[Hashable],
        evaluate: Callable[[Hashable], float],
        rho: Optional[float] = None,
    ) -> DistributedSearchOutcome:
        """Search for an element of (near-)minimum value (radius variant)."""
        return self._search(domain, evaluate, rho, maximize=False)

    def search_with_promise(
        self,
        domain: Sequence[Hashable],
        good_elements: Sequence[Hashable],
        evaluate: Callable[[Hashable], float],
        rho: Optional[float] = None,
        finalize_costs: Optional[Callable[[Hashable], ProcedureCosts]] = None,
    ) -> DistributedSearchOutcome:
        """Lemma 3.1 with an explicit structural promise and lazy evaluation.

        This is the form the outer search of Theorem 1.1 needs: the good set
        is known *structurally* (Lemma 3.4: every skeleton set containing a
        maximum-eccentricity node is good) and evaluating ``f`` is expensive
        (a full inner search), so only the element the search actually returns
        is evaluated.

        Parameters
        ----------
        domain:
            The search domain ``X``.
        good_elements:
            The elements promised to satisfy ``f(x) >= M`` (must be a
            non-empty subset of the domain).
        evaluate:
            Evaluator invoked exactly once, on the returned element.
        rho:
            Amplitude mass of the good set; defaults to
            ``len(good_elements) / len(domain)``.
        finalize_costs:
            When the per-Evaluation cost is itself a measured quantity (the
            outer search of Theorem 1.1 charges the *inner* search's rounds
            per outer Evaluation), the costs are only known after the
            element has been evaluated.  This callback receives the returned
            element and supplies the :class:`ProcedureCosts` used for the
            charge, superseding the constructor ``costs``.

        Returns
        -------
        DistributedSearchOutcome
            ``succeeded`` is ``True`` exactly when the returned element is in
            the promised good set.
        """
        domain = list(domain)
        if not domain:
            raise ValueError("cannot search an empty domain")
        domain_set = set(domain)
        good = [element for element in good_elements if element in domain_set]
        good_set = set(good)
        if not good:
            raise ValueError("the promised good set is empty")
        if rho is None:
            rho = len(good) / len(domain)
        if not 0 < rho <= 1:
            raise ValueError(f"rho must be in (0, 1], got {rho}")

        invocations = grover_invocation_count(rho, self._delta)
        if self._rng.random() < 1 - self._delta:
            element = good[self._rng.randrange(len(good))]
        else:
            element = domain[self._rng.randrange(len(domain))]
        value = float(evaluate(element))
        costs = (
            finalize_costs(element) if finalize_costs is not None
            else self._require_costs()
        )

        charge = QuantumCongestCharge(
            costs=costs,
            rho=rho,
            delta=self._delta,
            invocations=invocations,
        )
        return DistributedSearchOutcome(
            element=element,
            value=value,
            invocations=invocations,
            charge=charge,
            succeeded=element in good_set,
            mode=SearchMode.QUERY_MODEL,
        )

    # ------------------------------------------------------------------ #
    def _search(
        self,
        domain: Sequence[Hashable],
        evaluate: Callable[[Hashable], float],
        rho: Optional[float],
        maximize: bool,
    ) -> DistributedSearchOutcome:
        domain = list(domain)
        if not domain:
            raise ValueError("cannot search an empty domain")
        domain_size = len(domain)
        if rho is None:
            rho = 1.0 / domain_size
        if not 0 < rho <= 1:
            raise ValueError(f"rho must be in (0, 1], got {rho}")

        mode = self._mode
        costs = self._require_costs()
        values = {element: float(evaluate(element)) for element in domain}
        ordered = sorted(values.values(), reverse=maximize)
        good_count = max(1, math.ceil(rho * domain_size))
        threshold = ordered[good_count - 1]

        def is_good(value: float) -> bool:
            return value >= threshold if maximize else value <= threshold

        if mode is SearchMode.STATEVECTOR:
            element, value, invocations = self._statevector_search(
                domain, values, maximize
            )
        else:
            element, value, invocations = self._query_model_search(
                domain, values, rho, maximize, is_good
            )

        charge = QuantumCongestCharge(
            costs=costs,
            rho=rho,
            delta=self._delta,
            invocations=invocations,
        )
        return DistributedSearchOutcome(
            element=element,
            value=value,
            invocations=invocations,
            charge=charge,
            succeeded=is_good(value),
            mode=mode,
        )

    def _statevector_search(
        self,
        domain: List[Hashable],
        values: Dict[Hashable, float],
        maximize: bool,
    ) -> Tuple[Hashable, float, int]:
        table = [values[element] for element in domain]
        repetitions = max(1, math.ceil(math.log2(1 / self._delta)))
        search = quantum_maximum if maximize else quantum_minimum
        result = search(table, rng=self._rng, repetitions=repetitions)
        return domain[result.index], result.value, result.oracle_queries

    def _query_model_search(
        self,
        domain: List[Hashable],
        values: Dict[Hashable, float],
        rho: float,
        maximize: bool,
        is_good: Callable[[float], bool],
    ) -> Tuple[Hashable, float, int]:
        invocations = grover_invocation_count(rho, self._delta)
        good_elements = [element for element in domain if is_good(values[element])]
        if self._rng.random() < 1 - self._delta and good_elements:
            element = good_elements[self._rng.randrange(len(good_elements))]
        else:
            element = domain[self._rng.randrange(len(domain))]
        return element, values[element], invocations
