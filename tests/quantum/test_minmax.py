"""Tests for Dürr-Høyer quantum minimum / maximum finding."""

from __future__ import annotations

import math
import random

import pytest

from repro.quantum import (
    expected_minmax_queries,
    quantum_extremum_reference,
    quantum_maximum,
    quantum_minimum,
)


def random_values(seed, size, bound=1000):
    rng = random.Random(seed)
    return [rng.randrange(bound) for _ in range(size)]


class TestQuantumMinimum:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_finds_true_minimum(self, seed):
        values = random_values(seed, 40)
        result = quantum_minimum(values, rng=seed)
        assert result.value == min(values)
        assert result.is_exact

    def test_single_element(self):
        result = quantum_minimum([7], rng=0)
        assert result.index == 0
        assert result.value == 7

    def test_duplicate_minimum(self):
        values = [5, 2, 9, 2, 7]
        result = quantum_minimum(values, rng=1)
        assert result.value == 2
        assert values[result.index] == 2

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            quantum_minimum([], rng=0)

    def test_query_count_reported(self):
        result = quantum_minimum(list(range(32)), rng=2)
        assert result.oracle_queries > 0


class TestQuantumMaximum:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_finds_true_maximum(self, seed):
        values = random_values(seed, 40)
        result = quantum_maximum(values, rng=seed)
        assert result.value == max(values)
        assert result.is_exact

    def test_constant_values(self):
        result = quantum_maximum([4, 4, 4, 4], rng=0)
        assert result.value == 4

    def test_threshold_updates_monotone_progress(self):
        values = list(range(64))
        result = quantum_maximum(values, rng=3)
        assert result.threshold_updates >= 1


class TestBatchedRepetitions:
    """The log(1/δ) repetitions run one after another, each on its own
    forked stream; adding repetitions only adds independent runs, and the
    full-statevector reference gives the same observables."""

    def test_batched_equals_sum_of_single_runs_queries(self):
        values = random_values(11, 60)
        batched = quantum_maximum(values, rng=5, repetitions=4)
        assert batched.oracle_queries > 0
        assert batched.threshold_updates >= 1
        # Repetitions only add queries, never change the best value found
        # by the winning run for the same outer seed.
        single = quantum_maximum(values, rng=5, repetitions=1)
        assert batched.oracle_queries > single.oracle_queries

    @pytest.mark.parametrize("repetitions", [1, 2, 5])
    def test_reference_agrees_for_any_batch_width(self, repetitions):
        values = random_values(13, 48)
        first = quantum_maximum(values, rng=7, repetitions=repetitions)
        other = quantum_extremum_reference(values, True, rng=7, repetitions=repetitions)
        assert other.index == first.index
        assert other.value == first.value
        assert other.oracle_queries == first.oracle_queries
        assert other.threshold_updates == first.threshold_updates


class TestQueryScaling:
    def test_expected_queries_formula(self):
        assert expected_minmax_queries(100) > expected_minmax_queries(25)
        ratio = expected_minmax_queries(400) / expected_minmax_queries(100)
        assert 1.5 < ratio < 2.5  # roughly sqrt(4) = 2

    def test_expected_queries_validation(self):
        with pytest.raises(ValueError):
            expected_minmax_queries(0)
        with pytest.raises(ValueError):
            expected_minmax_queries(16, confidence=1.5)

    def test_measured_queries_sublinear(self):
        """Measured query counts stay well below the domain size for large domains."""
        domain = 400
        values = random_values(4, domain, bound=10**6)
        result = quantum_maximum(values, rng=4, repetitions=1)
        assert result.oracle_queries < domain
        # The per-run budget is ~9*sqrt(N); one extra threshold search may be
        # in flight when the budget check triggers, hence the factor 2.
        assert result.oracle_queries < 2 * (9 * math.sqrt(domain) + 20) + 20

    def test_queries_grow_sublinearly_with_domain(self):
        """Quadrupling the domain should far less than quadruple the queries."""
        def measured(domain, seed):
            values = list(range(domain))
            random.Random(seed).shuffle(values)
            runs = [
                quantum_maximum(values, rng=s, repetitions=1) for s in range(5)
            ]
            return sum(run.oracle_queries for run in runs) / len(runs)

        small = measured(100, seed=7)
        large = measured(1600, seed=7)
        assert large < 8 * small  # linear scaling would give a factor of 16
