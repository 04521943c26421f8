"""Dürr-Høyer quantum minimum / maximum finding.

The paper's algorithm needs to find an element with the *maximum* value of a
function ``f`` (an approximate eccentricity) over a search domain, with only
``~ sqrt(|domain| / #good)`` evaluations of ``f``.  Lemma 3.1 packages this
as distributed quantum optimization; the underlying sequential primitive is
Dürr-Høyer's quantum minimum-finding algorithm:

1. pick a random threshold element ``y``;
2. Grover-search (with the unknown-count schedule) for an element strictly
   better than ``y``;
3. if found, update ``y`` and repeat; stop after a total query budget of
   ``O(sqrt(N))``.

With a budget of ``c * sqrt(N)`` queries (``c ≈ 22.5`` in the original
analysis, far smaller in practice) the result is the true optimum with
probability at least 1/2, and repeating ``O(log(1/δ))`` times boosts the
success probability to ``1 - δ``.

The ``log(1/δ)`` repetitions are independent runs, executed one after
another, each on its own forked RNG stream.  Each threshold search is the
BBHT schedule of :mod:`repro.quantum.grover` on the exact two-class amplitude
state, so a Grover iteration costs O(1).  The marked set is the sorted list
of entries strictly better than the threshold; since the threshold only
improves, each new marked set is filtered from the previous one.  The
marking comes from the kernel backend selected at call time
(:meth:`repro.kernels.backend.KernelBackend.threshold_marks`, so importing
this package never loads NumPy): the NumPy and SciPy backends compare an
array copy of the table when it holds it exactly -- every item exactly an
``int`` within int64, or every item exactly a ``float`` -- and every other
table, like the pure-Python backend, is compared item by item in Python, so
tables beyond ``2**63``, of ``bool`` or of mixed types are marked exactly
too.  :func:`quantum_extremum_reference` runs the same control flow on a full
``2**q``-amplitude statevector and is what the differential tests and
benchmarks compare against.

Every evaluation of ``f`` is counted; the distributed layer multiplies these
query counts by the measured round cost of one distributed evaluation, which
is exactly how Lemma 3.1's ``T0 + O(sqrt(log(1/δ)/ρ)) * T`` bound arises.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.quantum.grover import (
    Amplifier,
    _amplify_and_measure,
    _bbht_search,
    _reference_amplifier,
)
from repro.quantum.rng import QuantumRng, RandomSource, as_quantum_rng

if TYPE_CHECKING:  # the kernels load only when a search runs
    from repro.kernels.backend import ThresholdMarks

__all__ = [
    "QuantumExtremumResult",
    "quantum_minimum",
    "quantum_maximum",
    "quantum_extremum_reference",
    "expected_minmax_queries",
]


@dataclass
class QuantumExtremumResult:
    """Outcome of a quantum minimum/maximum finding run.

    Attributes
    ----------
    index:
        Index of the reported extremal element.
    value:
        Its value ``f(index)``.
    oracle_queries:
        Total number of oracle (``f``-comparison) queries spent, including
        the Grover iterations of the threshold searches.
    threshold_updates:
        How many times the running threshold improved.
    is_exact:
        Whether the reported value equals the table's true optimum (every
        search fills it in from the whole table; ``None`` only on a result
        built by hand).
    """

    index: int
    value: float
    oracle_queries: int
    threshold_updates: int
    is_exact: Optional[bool] = None


def expected_minmax_queries(domain_size: int, confidence: float = 0.9) -> float:
    """The theoretical query budget for Dürr-Høyer at the given confidence.

    One run of the basic algorithm uses ``O(sqrt(N))`` queries and succeeds
    with probability at least 1/2; ``ceil(log2(1/(1-confidence)))`` repetitions
    boost it to ``confidence``.  The constant follows Dürr-Høyer's analysis
    (22.5 sqrt(N) + 1.4 lg^2 N per run); the benchmarks compare *measured*
    query counts against this curve.
    """
    if domain_size < 1:
        raise ValueError("domain_size must be positive")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    repetitions = max(1, math.ceil(math.log2(1 / (1 - confidence))))
    single = 22.5 * math.sqrt(domain_size) + 1.4 * math.log2(max(2, domain_size)) ** 2
    return repetitions * single


@dataclass
class _Run:
    """The final state of one Dürr-Høyer repetition."""

    index: int
    value: float
    queries: int
    updates: int


def _extremum_run(
    values: Sequence,
    marks: ThresholdMarks,
    rng: QuantumRng,
    outer_budget: int,
    amplify: Amplifier,
) -> _Run:
    """One Dürr-Høyer repetition: BBHT threshold searches until a budget runs out.

    A threshold search that exhausts its BBHT budget without an improvement
    ends the run (with good probability the threshold is already optimal).
    """
    size = len(values)
    index = rng.randrange(size)
    threshold = values[index]
    marked = marks.start(threshold)
    queries = 1  # evaluating the initial threshold
    updates = 0
    while True:
        search = _bbht_search(size, marked, rng, amplify)
        queries += search.oracle_queries
        if not search.is_marked:
            break
        index, threshold = search.outcome, values[search.outcome]
        updates += 1
        if queries >= outer_budget:
            break
        # The threshold only improves, so the new marked set is a subset.
        marked = marks.narrow(threshold)
    return _Run(index, threshold, queries, updates)


def _quantum_extremum(
    values: Sequence[float],
    rng: Optional[RandomSource],
    repetitions: int,
    query_budget: Optional[int],
    maximize: bool,
    amplify: Amplifier,
) -> QuantumExtremumResult:
    size = len(values)
    if size == 0:
        raise ValueError("cannot search an empty domain")
    # Resolved per call, so importing this package never loads the kernels.
    from repro.kernels.backend import get_backend

    marks = get_backend().threshold_marks(values, maximize)
    better = operator.gt if maximize else operator.lt
    outer_budget = (
        math.ceil(9 * math.sqrt(size)) + 20 if query_budget is None else query_budget
    )
    runs = [
        _extremum_run(values, marks, child, outer_budget, amplify)
        for child in as_quantum_rng(rng).spawn(max(1, repetitions))
    ]
    best = runs[0]
    for run in runs[1:]:
        if better(run.value, best.value):
            best = run
    true_optimum = marks.optimum()
    return QuantumExtremumResult(
        index=best.index,
        value=best.value,
        oracle_queries=sum(run.queries for run in runs),
        threshold_updates=sum(run.updates for run in runs),
        is_exact=bool(best.value == true_optimum),
    )


def quantum_minimum(
    values: Sequence[float],
    rng: Optional[RandomSource] = None,
    repetitions: int = 3,
    query_budget: Optional[int] = None,
) -> QuantumExtremumResult:
    """Find (with high probability) the index of the minimum value.

    Parameters
    ----------
    values:
        The table of values ``f(0..N-1)``.  In the distributed setting each
        access to this table corresponds to one Evaluation invocation; the
        returned ``oracle_queries`` is what the round-cost model multiplies by
        the per-evaluation round cost.
    rng:
        Randomness source (seed / ``random.Random`` / NumPy generator /
        :class:`~repro.quantum.rng.QuantumRng`).
    repetitions:
        Number of independent runs, each on its own forked stream; the best
        result is kept (standard success amplification).
    query_budget:
        Optional per-run query cap (defaults to ``~9 sqrt(N)``).
    """
    return _quantum_extremum(
        values, rng, repetitions, query_budget, False, _amplify_and_measure
    )


def quantum_maximum(
    values: Sequence[float],
    rng: Optional[RandomSource] = None,
    repetitions: int = 3,
    query_budget: Optional[int] = None,
) -> QuantumExtremumResult:
    """Find (with high probability) the index of the maximum value.

    See :func:`quantum_minimum`; this is the variant the diameter algorithm
    uses (the radius algorithm uses the minimum variant at the outer level).
    """
    return _quantum_extremum(
        values, rng, repetitions, query_budget, True, _amplify_and_measure
    )


def quantum_extremum_reference(
    values: Sequence[float],
    maximize: bool,
    rng: Optional[RandomSource] = None,
    repetitions: int = 3,
    query_budget: Optional[int] = None,
) -> QuantumExtremumResult:
    """:func:`quantum_maximum` / :func:`quantum_minimum` on a full statevector.

    Same runs, draws and budgets, but every threshold search steps a
    ``2**q``-amplitude state.  Slow by design: it is the oracle the
    two-class path is tested and benchmarked against.
    """
    return _quantum_extremum(
        values, rng, repetitions, query_budget, maximize, _reference_amplifier()
    )
