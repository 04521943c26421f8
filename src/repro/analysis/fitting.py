"""Power-law fits for extracting scaling exponents from measured round counts.

The benchmarks produce measured values ``rounds(n, D)``; what the paper's
theorems predict is the *exponent* structure (``n^{9/10} D^{3/10}``,
``n^{2/3}``, ``sqrt(k)``, ...).  These helpers perform ordinary least squares
in log space:

* :func:`fit_power_law` fits ``y ≈ c · x^a`` and reports ``a``, ``c`` and the
  coefficient of determination.
* :func:`fit_two_parameter_power_law` fits ``y ≈ c · n^a · D^b``, which the
  Theorem 1.1 scaling experiment (``benchmarks/test_bench_theorem11_scaling.py``)
  uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

try:  # The no-NumPy tier falls back to the pure normal-equations solver.
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-NumPy CI job
    np = None

__all__ = ["PowerLawFit", "fit_power_law", "fit_two_parameter_power_law"]


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a log-log least-squares fit.

    Attributes
    ----------
    exponents:
        The fitted exponents (one per predictor).
    constant:
        The multiplicative constant ``c``.
    r_squared:
        Coefficient of determination in log space (1 means a perfect fit).
    """

    exponents: Tuple[float, ...]
    constant: float
    r_squared: float

    @property
    def exponent(self) -> float:
        """The single exponent (for one-predictor fits)."""
        return self.exponents[0]

    def predict(self, *predictors: float) -> float:
        """Evaluate the fitted law at the given predictor values."""
        if len(predictors) != len(self.exponents):
            raise ValueError(
                f"expected {len(self.exponents)} predictors, got {len(predictors)}"
            )
        value = self.constant
        for base, exponent in zip(predictors, self.exponents):
            value *= base**exponent
        return value


def _validate(xs: Sequence[float], ys: Sequence[float]) -> None:
    if len(xs) != len(ys):
        raise ValueError("predictor and response lengths differ")
    if len(xs) < 2:
        raise ValueError("need at least two data points to fit")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("power-law fits need strictly positive data")


def _solve_normal_equations(
    design: Sequence[Sequence[float]], response: Sequence[float]
) -> List[float]:
    """OLS via the normal equations, in pure Python.

    The fits here have 2-3 well-scaled unknowns (log-space power laws), so
    Gaussian elimination with partial pivoting on ``X^T X b = X^T y`` is
    numerically ample.  Only used when NumPy is unavailable.
    """
    num_coeffs = len(design[0])
    ata = [
        [
            sum(row[i] * row[j] for row in design)
            for j in range(num_coeffs)
        ]
        for i in range(num_coeffs)
    ]
    aty = [
        sum(row[i] * y for row, y in zip(design, response)) for i in range(num_coeffs)
    ]
    # Forward elimination with partial pivoting on the augmented system.
    for col in range(num_coeffs):
        pivot = max(range(col, num_coeffs), key=lambda r: abs(ata[r][col]))
        if abs(ata[pivot][col]) < 1e-12:
            raise ValueError("singular design matrix: predictors are collinear")
        if pivot != col:
            ata[col], ata[pivot] = ata[pivot], ata[col]
            aty[col], aty[pivot] = aty[pivot], aty[col]
        for row in range(col + 1, num_coeffs):
            factor = ata[row][col] / ata[col][col]
            for k in range(col, num_coeffs):
                ata[row][k] -= factor * ata[col][k]
            aty[row] -= factor * aty[col]
    solution = [0.0] * num_coeffs
    for row in range(num_coeffs - 1, -1, -1):
        acc = aty[row] - sum(
            ata[row][k] * solution[k] for k in range(row + 1, num_coeffs)
        )
        solution[row] = acc / ata[row][row]
    return solution


def _log_least_squares(
    predictor_columns: Sequence[Sequence[float]], ys: Sequence[float]
) -> Tuple[List[float], float]:
    """Fit ``log y = sum_i a_i log x_i + log c``; return coefficients + R².

    ``predictor_columns`` are the raw (not yet logged) predictors; the
    intercept column is appended here.  Uses ``numpy.linalg.lstsq`` when
    NumPy is importable (the historical code path, bit-identical results)
    and the pure normal-equations solver otherwise.
    """
    log_cols = [[math.log(x) for x in col] for col in predictor_columns]
    log_y = [math.log(y) for y in ys]
    design = [
        [col[row] for col in log_cols] + [1.0] for row in range(len(log_y))
    ]
    if np is not None:
        solution_arr, _, _, _ = np.linalg.lstsq(
            np.asarray(design, dtype=float), np.asarray(log_y, dtype=float), rcond=None
        )
        solution = [float(value) for value in solution_arr]
    else:
        solution = _solve_normal_equations(design, log_y)
    predicted = [
        sum(value * coeff for value, coeff in zip(row, solution)) for row in design
    ]
    mean_y = sum(log_y) / len(log_y)
    residual = sum((y - p) ** 2 for y, p in zip(log_y, predicted))
    total = sum((y - mean_y) ** 2 for y in log_y)
    r_squared = 1.0 if total < 1e-15 else 1.0 - residual / total
    return solution, r_squared


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``y ≈ c · x^a`` by least squares in log space."""
    _validate(xs, ys)
    solution, r_squared = _log_least_squares([xs], ys)
    return PowerLawFit(
        exponents=(solution[0],),
        constant=float(math.exp(solution[1])),
        r_squared=r_squared,
    )


def fit_two_parameter_power_law(
    ns: Sequence[float], ds: Sequence[float], ys: Sequence[float]
) -> PowerLawFit:
    """Fit ``y ≈ c · n^a · D^b`` by least squares in log space.

    Used by the Theorem 1.1 scaling experiment: the paper predicts
    ``a ≈ 9/10`` and ``b ≈ 3/10`` in the regime ``D = o(n^{1/3})``.
    """
    if not (len(ns) == len(ds) == len(ys)):
        raise ValueError("predictor and response lengths differ")
    _validate(ns, ys)
    _validate(ds, ys)
    solution, r_squared = _log_least_squares([ns, ds], ys)
    return PowerLawFit(
        exponents=(solution[0], solution[1]),
        constant=float(math.exp(solution[2])),
        r_squared=r_squared,
    )
