"""Krein-formula evaluation of the perturbed resolvent kernel, plus its
consistency check: the Helmholtz residual away from the centers, one stacked
evaluation of the kernel through one inverse of Gamma(z)."""

from __future__ import annotations

import numpy as np

from .linalg import inverse
from .model import PointConfig, _distance, gamma_stack, green_kernel

__all__ = [
    "resolvent_kernel",
    "helmholtz_residual",
]


def resolvent_kernel(cfg: PointConfig, z, x, xp):
    """Kernel of the perturbed resolvent at energy z**2 (Im z >= 0):

        G_z(x - x') + sum_jk (Gamma^-1)_jk G_z^{y_j}(x) G_z^{y_k}(x')

    where G_z is the free Helmholtz kernel.  The correction is a rank-N
    update through one Gamma^-1, with w = Gamma^-1 G_z(y - x') computed once.
    As for green_kernel, `x` is one point, giving a complex, or a stack of
    shape (..., 3), giving an array: each x takes an elementwise product and
    a sum over the centers, so a stack equals its one-point calls bit for bit.
    """
    z = complex(z)
    if z.imag < 0.0:
        raise ValueError("the resolvent requires Im z >= 0")
    w = inverse(gamma_stack(cfg, z)) @ green_kernel(z, cfg.points, xp)
    x = np.asarray(x, dtype=float)
    gx = green_kernel(z, x[..., None, :], cfg.points)
    value = green_kernel(z, x, xp) + (gx * w).sum(axis=-1)
    return value if value.ndim else complex(value)


def helmholtz_residual(cfg: PointConfig, z, x, xp, h: float | None = None) -> float:
    """|(-Delta_h - z**2) R(., x')|(x) with the 7-point second-order Laplacian.

    Requires dist(x, Y and x') > 10 h; the default step is 1e-2 times that
    distance, balancing truncation against rounding.  The center and its six
    neighbours x +- h e_i are one stacked resolvent_kernel call, each point's
    value that of its one-point call bit for bit.
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
    center, *ring = resolvent_kernel(cfg, z, x + h * stencil, xp).tolist()
    lap = (sum(ring) - 6.0 * center) / (h * h)
    return abs(-lap - z * z * center)
