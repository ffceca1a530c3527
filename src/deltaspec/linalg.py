"""The linear-algebra conventions numpy leaves open; numpy is the only LAPACK
binding, and call sites use it directly.  Here: when a Gamma is too singular
to invert, and the error raised then.
"""

from __future__ import annotations

import numpy as np

# Gamma is singular when sigma_min <= SIGMA_FLOOR * max(1, max|Gamma|).
SIGMA_FLOOR = 1e-12

__all__ = [
    "SIGMA_FLOOR",
    "SingularMatrixError",
    "inverse",
]


class SingularMatrixError(RuntimeError):
    """Linear solve attempted on a numerically singular matrix."""


def inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of one matrix or of each matrix of a stack; SingularMatrixError
    if any sigma_min <= SIGMA_FLOOR * max(1, max|g|), the max over the stack.

    Partial pivoting keeps |l_ij| <= 1, so ||L||_2 <= N and every LU pivot is
    at least sigma_min / N: for N <= 100 a matrix that passes has
    sigma_min > SIGMA_FLOOR and no pivot below 1e-14 * max|g|.
    """
    scale = max(1.0, float(np.abs(g).max()))
    if np.linalg.svd(g, compute_uv=False)[..., -1].min() <= SIGMA_FLOOR * scale:
        raise SingularMatrixError("spectral parameter is at or near a pole of the resolvent")
    return np.linalg.inv(g)
