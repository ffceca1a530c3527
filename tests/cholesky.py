"""Cholesky with an outcome-typed failure, for the positive-definiteness
property tests.

The library takes its Cholesky verdicts from LAPACK (`np.linalg.cholesky`).
This pure-Python factorization reports the index of the first failing pivot
instead of raising, so a test can branch on it and check where it failed.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NotPositiveDefinite:
    """Cholesky outcome for a symmetric matrix that is not positive definite;
    pivot is the 0-based index of the first non-positive pivot."""

    pivot: int


def cholesky(m):
    """Lower-triangular L with L @ L.T = m, or NotPositiveDefinite.

    Failure is an outcome, not an exception: the positive-definiteness
    property tests branch on it.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    lower = np.zeros_like(m)
    for j in range(n):
        d = m[j, j] - lower[j, :j] @ lower[j, :j]
        if not (d > 0.0) or not np.isfinite(d):
            return NotPositiveDefinite(pivot=j)
        lower[j, j] = np.sqrt(d)
        if j + 1 < n:
            lower[j + 1 :, j] = (m[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower
