"""Krein-formula evaluation of the perturbed resolvent kernel, plus its
consistency check: the Helmholtz residual away from the centers."""

from __future__ import annotations

import numpy as np

from .linalg import inverse
from .model import PointConfig, gamma_stack, green_kernel

__all__ = [
    "resolvent_kernel",
    "helmholtz_residual",
]


def _kernel(cfg: PointConfig, z: complex, ginv: np.ndarray, x, xp) -> complex:
    gx = green_kernel(z, cfg.points, x)
    gxp = green_kernel(z, cfg.points, xp)
    return complex(green_kernel(z, x, xp) + gx @ ginv @ gxp)


def resolvent_kernel(cfg: PointConfig, z, x, xp) -> complex:
    """Kernel of the perturbed resolvent at energy z**2 (Im z >= 0):

        G_z(x - x') + sum_jk (Gamma^-1)_jk G_z^{y_j}(x) G_z^{y_k}(x')

    where G_z is the free Helmholtz kernel.  The correction is a rank-N
    update through Gamma^-1.
    """
    z = complex(z)
    if z.imag < 0.0:
        raise ValueError("resolvent_kernel requires Im z >= 0")
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    return _kernel(cfg, z, inverse(gamma_stack(cfg, z)), x, xp)


def helmholtz_residual(cfg: PointConfig, z, x, xp, h: float | None = None) -> float:
    """|(-Delta_h - z**2) R(., x')|(x) with the 7-point second-order Laplacian.

    Requires dist(x, Y and x') > 10 h; the default step is 1e-2 times that
    distance, balancing truncation against rounding.  The seven stencil
    points share one Gamma^-1.
    """
    z = complex(z)
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    clearance = min(
        float(np.linalg.norm(cfg.points - x, axis=1).min()),
        float(np.linalg.norm(x - xp)),
    )
    if h is None:
        h = 1e-2 * clearance
    if not h > 0.0:
        raise ValueError("helmholtz_residual requires h > 0")
    if clearance <= 10.0 * h:
        raise ValueError("evaluation point is within 10 h of a singularity")
    if z.imag < 0.0:
        raise ValueError("helmholtz_residual requires Im z >= 0")
    ginv = inverse(gamma_stack(cfg, z))
    center = _kernel(cfg, z, ginv, x, xp)
    acc = 0.0 + 0.0j
    for e in np.eye(3):
        acc += _kernel(cfg, z, ginv, x + h * e, xp)
        acc += _kernel(cfg, z, ginv, x - h * e, xp)
    lap = (acc - 6.0 * center) / (h * h)
    return abs(-lap - z * z * center)
