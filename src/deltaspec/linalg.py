"""The linear-algebra conventions numpy leaves open; numpy is the only LAPACK
binding, and call sites use it directly.  Here: the error raised for a
numerically singular Gamma, and a near-kernel basis that takes the symmetric
eigensolver only for input symmetric within SYMMETRY_RTOL.
"""

from __future__ import annotations

import numpy as np

# Largest tolerated relative asymmetry for null_space's symmetric path.
SYMMETRY_RTOL = 1e-12

__all__ = [
    "SingularMatrixError",
    "null_space",
]


class SingularMatrixError(RuntimeError):
    """Linear solve attempted on a numerically singular matrix."""


def null_space(m, tol: float) -> list[np.ndarray]:
    """Orthonormal basis of the near-kernel: directions whose singular value
    (or eigenvalue magnitude, for real symmetric input) is <= tol * ||m||_2.

    Real symmetric inputs go through the symmetric eigensolver and yield real
    vectors; everything else goes through the SVD.  Returns [] when the
    matrix is safely invertible at the given tolerance.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError("null_space requires a finite tol > 0")
    m = np.asarray(m)
    if not np.iscomplexobj(m):
        scale = float(np.abs(m).max()) if m.size else 0.0
        if float(np.abs(m - m.T).max()) <= SYMMETRY_RTOL * scale:
            values, vectors = np.linalg.eigh(m)
            top = float(np.abs(values).max())
            keep = np.flatnonzero(np.abs(values) <= tol * top)
            return [vectors[:, int(k)].copy() for k in keep]
    _, s, vh = np.linalg.svd(np.asarray(m, dtype=complex))
    top = float(s[0]) if s.size else 0.0
    keep = np.flatnonzero(s <= tol * top)
    return [np.conj(vh[int(k)]) for k in keep]
