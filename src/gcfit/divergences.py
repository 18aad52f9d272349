"""Divergence measures between discrete distributions on a shared schema.

All three return extended reals: +inf is a first-class result (observed
mass on a cell the reference distribution assigns zero probability) and
propagates through downstream scores instead of raising.
"""

from __future__ import annotations

import numpy as np

from .errors import SchemaMismatch
from .tables import ProbTable


def _check_schemas(po: ProbTable, pe: ProbTable) -> None:
    if po.schema != pe.schema:
        raise SchemaMismatch(
            f"schemas differ: {po.schema.names} vs {pe.schema.names}"
        )


def kl_sum(p: np.ndarray, q: np.ndarray) -> float:
    """sum_x p(x) ln(p(x)/q(x)) over aligned cell arrays, unclamped.

    Convention: cells with p = 0 contribute 0; any cell with p > 0 and
    q = 0 makes the sum +inf.
    """
    support = p > 0
    if np.any(support & (q == 0)):
        return float("inf")
    ps, qs = p[support], q[support]
    return float(np.sum(ps * np.log(ps / qs)))


def kl_divergence(po: ProbTable, pe: ProbTable) -> float:
    """Kullback-Leibler divergence sum_x po(x) ln(po(x)/pe(x)), by `kl_sum`."""
    _check_schemas(po, pe)
    # Gibbs: the true value is >= 0; clamp away summation rounding error
    return max(kl_sum(po.flat(), pe.flat()), 0.0)


def pearson_divergence(po: ProbTable, pe: ProbTable) -> float:
    """Pearson chi-squared divergence sum_x po(x)^2/pe(x) - 1."""
    _check_schemas(po, pe)
    p = po.flat()
    q = pe.flat()
    if np.any((p > 0) & (q == 0)):
        return float("inf")
    support = q > 0
    # 0/0 cells contribute 0; clamp summation rounding error (true value >= 0)
    return max(float(np.sum(p[support] ** 2 / q[support]) - 1.0), 0.0)


def euclidean_distance_sq(po: ProbTable, pe: ProbTable) -> float:
    """Squared Euclidean distance sum_x (po(x) - pe(x))^2; symmetric."""
    _check_schemas(po, pe)
    diff = po.flat() - pe.flat()
    return float(np.sum(diff * diff))
