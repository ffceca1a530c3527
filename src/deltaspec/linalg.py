"""Dense linear algebra for the small matrices the rest of the package produces.

Thin wrappers over LAPACK (numpy/scipy) that pin down the tolerance and
error conventions callers rely on: a scaled pivot threshold for solves, an
explicit symmetry check for the eigensolver, and a Cholesky that reports the
failing pivot instead of raising.  All functions are pure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Pivot magnitudes below PIVOT_RTOL * max|M| count as singular in solve().
PIVOT_RTOL = 1e-14

# Largest tolerated relative asymmetry in sym_eigen input.
SYMMETRY_RTOL = 1e-12

__all__ = [
    "SingularMatrixError",
    "lu_det",
    "solve",
    "SymEigen",
    "sym_eigen",
    "NotPositiveDefinite",
    "cholesky",
    "min_singular_value",
    "null_space",
]


class SingularMatrixError(RuntimeError):
    """Linear solve attempted on a numerically singular matrix."""


def _lu_factor(m: np.ndarray):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        return scipy.linalg.lu_factor(m, check_finite=False)


def lu_det(m) -> complex:
    """Determinant by partial-pivoting LU.

    A singular input yields det ~ 0, not an error.  Each pivot index that
    differs from its row is one row swap, so their count gives the sign.
    """
    m = np.asarray(m, dtype=complex)
    lu, piv = _lu_factor(m)
    sign = -1 if np.count_nonzero(piv != np.arange(piv.shape[0])) % 2 else 1
    return complex(sign * np.prod(np.diag(lu)))


def solve(m, b) -> np.ndarray:
    """Solve m @ x = b (b may be a vector or a matrix of columns).

    Raises SingularMatrixError when any pivot falls below PIVOT_RTOL * max|m|.
    """
    m = np.asarray(m, dtype=complex)
    scale = float(np.abs(m).max()) if m.size else 0.0
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    lu, piv = _lu_factor(m)
    if np.abs(np.diag(lu)).min() < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"pivot below {PIVOT_RTOL:g} * max|M|; matrix is numerically singular"
        )
    return scipy.linalg.lu_solve((lu, piv), np.asarray(b, dtype=complex), check_finite=False)


@dataclass(frozen=True)
class SymEigen:
    """Eigendecomposition of a real symmetric matrix: values ascending,
    vectors orthonormal in the columns."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eigen(m) -> SymEigen:
    """Eigendecomposition of a real symmetric matrix.

    Rejects inputs whose asymmetry exceeds SYMMETRY_RTOL * max|m|.
    """
    m = np.asarray(m, dtype=float)
    scale = float(np.abs(m).max()) if m.size else 0.0
    if float(np.abs(m - m.T).max()) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh(m)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return SymEigen(values=vals, vectors=vecs)


@dataclass(frozen=True)
class NotPositiveDefinite:
    """Cholesky outcome for a symmetric matrix that is not positive definite;
    pivot is the 0-based index of the first non-positive pivot."""

    pivot: int


def cholesky(m):
    """Lower-triangular L with L @ L.T = m, or NotPositiveDefinite.

    Failure is an outcome, not an exception: the certificate and the
    positive-definiteness property tests branch on it.
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


def min_singular_value(m) -> float:
    """Smallest singular value; 0 for the zero matrix, never an error."""
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def null_space(m, tol: float) -> list[np.ndarray]:
    """Orthonormal basis of the near-kernel: directions whose singular value
    (or eigenvalue magnitude, for real symmetric input) is <= tol * ||m||_2.

    Real symmetric inputs go through the symmetric eigensolver and yield real
    vectors; everything else goes through the SVD.  Returns [] when the
    matrix is safely invertible at the given tolerance.
    """
    if tol <= 0.0:
        raise ValueError("null_space requires tol > 0")
    m = np.asarray(m)
    if not np.iscomplexobj(m):
        scale = float(np.abs(m).max()) if m.size else 0.0
        if float(np.abs(m - m.T).max()) <= SYMMETRY_RTOL * scale:
            eig = sym_eigen(m)
            top = float(np.abs(eig.values).max())
            keep = np.flatnonzero(np.abs(eig.values) <= tol * top)
            return [eig.vectors[:, int(k)].copy() for k in keep]
    _, s, vh = np.linalg.svd(np.asarray(m, dtype=complex))
    top = float(s[0]) if s.size else 0.0
    keep = np.flatnonzero(s <= tol * top)
    return [np.conj(vh[int(k)]) for k in keep]
