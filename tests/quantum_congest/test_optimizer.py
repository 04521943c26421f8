"""Tests for the distributed quantum optimizer (Lemma 3.1 as an object)."""

from __future__ import annotations

import pytest

from repro.congest import RoundReport
from repro.quantum_congest import (
    DistributedQuantumOptimizer,
    ProcedureCosts,
    SearchMode,
    grover_invocation_count,
)


def _costs(t0=20, t_setup=6, t_eval=4):
    return ProcedureCosts(
        initialization=RoundReport(rounds=t0, congested_rounds=t0),
        setup=RoundReport(rounds=t_setup, congested_rounds=t_setup),
        evaluation=RoundReport(rounds=t_eval, congested_rounds=t_eval),
        label="unit-test",
    )


def _optimizer(mode=SearchMode.STATEVECTOR, delta=0.1, seed=0, costs=None):
    return DistributedQuantumOptimizer(
        costs or _costs(),
        delta=delta,
        rng=seed,
        mode=mode,
    )


class TestStatevectorMode:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_maximize_finds_max(self, seed):
        optimizer = _optimizer(mode=SearchMode.STATEVECTOR, seed=seed)
        domain = list(range(30))
        values = {x: (x * 37) % 101 for x in domain}
        outcome = optimizer.maximize(domain, lambda x: values[x])
        assert outcome.value == max(values.values())
        assert outcome.mode is SearchMode.STATEVECTOR

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_minimize_finds_min(self, seed):
        optimizer = _optimizer(mode=SearchMode.STATEVECTOR, seed=seed)
        domain = list(range(25))
        values = {x: ((x + 3) * 17) % 83 for x in domain}
        outcome = optimizer.minimize(domain, lambda x: values[x])
        assert outcome.value == min(values.values())

    def test_charge_uses_measured_invocations(self):
        optimizer = _optimizer(mode=SearchMode.STATEVECTOR)
        outcome = optimizer.maximize(list(range(16)), lambda x: x)
        costs = _costs()
        expected = costs.t0_rounds + outcome.invocations * costs.t_rounds
        assert outcome.total_rounds == expected


class TestQueryModelMode:
    def test_invocations_follow_lemma31(self):
        optimizer = _optimizer(mode=SearchMode.QUERY_MODEL, delta=0.05)
        outcome = optimizer.maximize(list(range(100)), lambda x: x, rho=0.04)
        assert outcome.invocations == grover_invocation_count(0.04, 0.05)

    def test_success_probability_respected(self):
        successes = 0
        trials = 200
        for seed in range(trials):
            optimizer = _optimizer(mode=SearchMode.QUERY_MODEL, delta=0.2, seed=seed)
            outcome = optimizer.maximize(list(range(50)), lambda x: x, rho=0.02)
            successes += outcome.succeeded
        assert successes >= trials * 0.7

    def test_rho_defaults_to_single_optimum(self):
        optimizer = _optimizer(mode=SearchMode.QUERY_MODEL, delta=0.1)
        outcome = optimizer.maximize(list(range(64)), lambda x: x)
        assert outcome.invocations == grover_invocation_count(1 / 64, 0.1)

    def test_minimize_good_set_is_bottom(self):
        optimizer = _optimizer(mode=SearchMode.QUERY_MODEL, delta=0.1, seed=3)
        domain = list(range(40))
        outcome = optimizer.minimize(domain, lambda x: x, rho=0.25)
        if outcome.succeeded:
            assert outcome.value <= sorted(domain)[9]


class TestSearchWithPromise:
    def test_returns_good_element_with_high_probability(self):
        domain = list(range(100))
        good = list(range(90, 100))
        hits = 0
        for seed in range(100):
            optimizer = _optimizer(mode=SearchMode.QUERY_MODEL, delta=0.1, seed=seed)
            outcome = optimizer.search_with_promise(domain, good, lambda x: float(x))
            hits += outcome.element in good
        assert hits >= 80

    def test_rho_defaults_to_good_fraction(self):
        optimizer = _optimizer(delta=0.1)
        outcome = optimizer.search_with_promise(
            list(range(100)), list(range(25)), lambda x: float(x)
        )
        assert outcome.invocations == grover_invocation_count(0.25, 0.1)

    def test_lazy_evaluation_only_on_returned_element(self):
        evaluated = []

        def evaluate(x):
            evaluated.append(x)
            return float(x)

        optimizer = _optimizer(delta=0.1, seed=1)
        outcome = optimizer.search_with_promise(list(range(50)), [7, 8, 9], evaluate)
        assert evaluated == [outcome.element]

    def test_empty_good_set_rejected(self):
        optimizer = _optimizer()
        with pytest.raises(ValueError):
            optimizer.search_with_promise([1, 2, 3], [], lambda x: x)

    def test_empty_domain_rejected(self):
        optimizer = _optimizer()
        with pytest.raises(ValueError):
            optimizer.search_with_promise([], [1], lambda x: x)


class TestValidation:
    def test_bad_delta(self):
        with pytest.raises(ValueError):
            DistributedQuantumOptimizer(_costs(), delta=0)

    def test_bad_rho(self):
        optimizer = _optimizer()
        with pytest.raises(ValueError):
            optimizer.maximize([1, 2], lambda x: x, rho=2.0)

    def test_empty_domain(self):
        optimizer = _optimizer()
        with pytest.raises(ValueError):
            optimizer.maximize([], lambda x: x)


class TestDeferredCosts:
    """``search_with_promise`` with a ``finalize_costs`` callback.

    The Theorem 1.1 outer search only knows its per-Evaluation cost after
    the element has been evaluated (it is the measured inner charge), so
    the optimizer accepts ``costs=None`` and a callback that supplies the
    :class:`ProcedureCosts` for the returned element.
    """

    def test_finalize_costs_supplies_the_charge(self):
        optimizer = DistributedQuantumOptimizer(None, delta=0.1, rng=0)
        finalized = []

        def finalize(element):
            finalized.append(element)
            return _costs(t0=int(element) + 1)

        outcome = optimizer.search_with_promise(
            list(range(20)), [3, 4], lambda x: float(x), finalize_costs=finalize
        )
        assert finalized == [outcome.element]
        assert outcome.charge.costs.t0_rounds == int(outcome.element) + 1

    def test_finalize_costs_overrides_constructor_costs(self):
        optimizer = _optimizer(seed=2)
        override = _costs(t0=999)
        outcome = optimizer.search_with_promise(
            list(range(10)), [1, 2], lambda x: float(x),
            finalize_costs=lambda element: override,
        )
        assert outcome.charge.costs is override

    def test_outcome_identical_to_constructor_costs_path(self):
        """Deferred and eager charging must produce identical outcomes."""
        eager = _optimizer(seed=7).search_with_promise(
            list(range(30)), [5, 6, 7], lambda x: float(x)
        )
        deferred = DistributedQuantumOptimizer(
            None, delta=0.1, rng=7
        ).search_with_promise(
            list(range(30)), [5, 6, 7], lambda x: float(x),
            finalize_costs=lambda element: _costs(),
        )
        assert deferred.element == eager.element
        assert deferred.value == eager.value
        assert deferred.invocations == eager.invocations
        assert deferred.charge.total_rounds == eager.charge.total_rounds

    def test_missing_costs_rejected_without_finalizer(self):
        optimizer = DistributedQuantumOptimizer(None, delta=0.1, rng=0)
        with pytest.raises(ValueError, match="without procedure costs"):
            optimizer.search_with_promise(list(range(5)), [1], lambda x: float(x))

    def test_missing_costs_rejected_for_plain_search(self):
        optimizer = DistributedQuantumOptimizer(None, delta=0.1, rng=0)
        with pytest.raises(ValueError, match="without procedure costs"):
            optimizer.maximize([1, 2, 3], lambda x: float(x))
        assert optimizer.costs is None


class TestPromisedSearchScaling:
    def test_large_promised_search_is_fast(self):
        """A 5k-element promised search must stay sub-second.

        ``search_with_promise`` used to rebuild ``set(domain)`` for every
        element of the good set (and once more for the ``succeeded`` check),
        which made the filter quadratic in the domain size.  The sets are now
        hoisted out of the loops; this pins the linear behaviour.
        """
        import time

        domain = list(range(5000))
        good = list(range(0, 5000, 2))
        optimizer = DistributedQuantumOptimizer(
            _costs(), delta=0.1, rng=0, mode=SearchMode.QUERY_MODEL
        )
        start = time.perf_counter()
        outcome = optimizer.search_with_promise(domain, good, lambda x: float(x))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert outcome.element in set(domain)
        assert outcome.invocations >= 1
