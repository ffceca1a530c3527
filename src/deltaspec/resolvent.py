"""Krein-formula evaluation of the perturbed resolvent kernel, plus its
consistency check: the Helmholtz residual away from the centers.  Both are
one stacked evaluation through one inverse of Gamma(z)."""

from __future__ import annotations

import numpy as np

from .linalg import inverse
from .model import PointConfig, _distance, gamma_stack, green_kernel

__all__ = [
    "resolvent_kernel",
    "helmholtz_residual",
]


def _kernels(cfg: PointConfig, z: complex, xs, xp) -> np.ndarray:
    """The kernel at each point x of the stack xs, shape (..., 3):
    G_z(x - x') + sum_j G_z(x - y_j) w_j with w = Gamma^-1 G_z(y - x')
    computed once.  Each x takes an elementwise product and a sum over the
    centers, so a stack equals its one-point calls bit for bit."""
    if z.imag < 0.0:
        raise ValueError("the resolvent requires Im z >= 0")
    w = inverse(gamma_stack(cfg, z)) @ green_kernel(z, cfg.points, xp)
    xs = np.asarray(xs, dtype=float)
    gx = green_kernel(z, xs[..., None, :], cfg.points)
    return green_kernel(z, xs, xp) + (gx * w).sum(axis=-1)


def resolvent_kernel(cfg: PointConfig, z, x, xp) -> complex:
    """Kernel of the perturbed resolvent at energy z**2 (Im z >= 0):

        G_z(x - x') + sum_jk (Gamma^-1)_jk G_z^{y_j}(x) G_z^{y_k}(x')

    where G_z is the free Helmholtz kernel.  The correction is a rank-N
    update through one Gamma^-1, the stacked evaluation of helmholtz_residual
    at a single point.
    """
    return complex(_kernels(cfg, complex(z), x, xp))


def helmholtz_residual(cfg: PointConfig, z, x, xp, h: float | None = None) -> float:
    """|(-Delta_h - z**2) R(., x')|(x) with the 7-point second-order Laplacian.

    Requires dist(x, Y and x') > 10 h; the default step is 1e-2 times that
    distance, balancing truncation against rounding.  The center and its six
    neighbours x +- h e_i are one stacked evaluation through one Gamma^-1,
    each point's value that of resolvent_kernel bit for bit.
    """
    z = complex(z)
    x = np.asarray(x, dtype=float)
    clearance = float(_distance(np.vstack([cfg.points, xp]), x).min())
    if h is None:
        h = 1e-2 * clearance
    if not h > 0.0:
        raise ValueError("helmholtz_residual requires h > 0")
    if clearance <= 10.0 * h:
        raise ValueError("evaluation point is within 10 h of a singularity")
    # rows 0, e_1, -e_1, e_2, -e_2, e_3, -e_3
    stencil = np.vstack([np.zeros(3), np.kron(np.eye(3), [[1.0], [-1.0]])])
    center, *ring = _kernels(cfg, z, x + h * stencil, xp).tolist()
    lap = (sum(ring) - 6.0 * center) / (h * h)
    return abs(-lap - z * z * center)
