"""Krein-formula evaluation of the perturbed resolvent kernel, plus its
consistency checks: the Helmholtz residual away from the centers and the
radial boundary condition at each center."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrixError
from .model import FOUR_PI, PointConfig, SingularityError, gamma_stack, green_kernel

# Gamma is at a pole when sigma_min <= SIGMA_FLOOR * max(1, max|Gamma|).
SIGMA_FLOOR = 1e-12

_AXIS_DIRECTIONS = np.vstack([np.eye(3), -np.eye(3)])

__all__ = [
    "GaussianTestFunction",
    "resolvent_kernel",
    "helmholtz_residual",
    "DomainFunction",
    "boundary_condition_residual",
    "radial_boundary_residual",
]


@dataclass(frozen=True)
class GaussianTestFunction:
    """Smooth square-integrable trial function A exp(-|x-x0|^2 / s^2).

    One concrete regular-part representative is all the domain checks need;
    any callable with the same (value, laplacian) surface can stand in.
    """

    center: np.ndarray
    width: float
    amplitude: float = 1.0

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).reshape(3)
        if not self.width > 0.0:
            raise ValueError("width must be positive")
        center.setflags(write=False)
        object.__setattr__(self, "center", center)

    def __call__(self, x) -> float:
        rho2 = float(np.sum((np.asarray(x, dtype=float) - self.center) ** 2))
        return self.amplitude * float(np.exp(-rho2 / self.width ** 2))

    def laplacian(self, x) -> float:
        rho2 = float(np.sum((np.asarray(x, dtype=float) - self.center) ** 2))
        s2 = self.width ** 2
        return (4.0 * rho2 / s2 ** 2 - 6.0 / s2) * self.amplitude * float(np.exp(-rho2 / s2))


def _gamma_inverse(cfg: PointConfig, z: complex) -> np.ndarray:
    """Gamma(z)^-1; SingularMatrixError if sigma_min <= SIGMA_FLOOR * max(1, max|Gamma|).

    Partial pivoting keeps |l_ij| <= 1, so ||L||_2 <= N and every LU pivot is
    at least sigma_min / N: for N <= 100 a Gamma that passes has
    sigma_min > SIGMA_FLOOR and no pivot below 1e-14 * max|Gamma|.
    """
    g = gamma_stack(cfg, z)
    scale = max(1.0, float(np.abs(g).max()))
    if np.linalg.svd(g, compute_uv=False)[-1] <= SIGMA_FLOOR * scale:
        raise SingularMatrixError("spectral parameter is at or near a pole of the resolvent")
    return np.linalg.inv(g)


def _green_vector(cfg: PointConfig, z: complex, x: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(cfg.points - x, axis=1)
    if np.any(r == 0.0):
        raise SingularityError("evaluation point coincides with an interaction center")
    return np.exp(1j * z * r) / (FOUR_PI * r)


def _kernel(cfg: PointConfig, z: complex, ginv: np.ndarray, x, xp) -> complex:
    gx = _green_vector(cfg, z, x)
    gxp = _green_vector(cfg, z, xp)
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
    return _kernel(cfg, z, _gamma_inverse(cfg, z), x, xp)


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
    ginv = _gamma_inverse(cfg, z)
    center = _kernel(cfg, z, ginv, x, xp)
    acc = 0.0 + 0.0j
    for e in np.eye(3):
        acc += _kernel(cfg, z, ginv, x + h * e, xp)
        acc += _kernel(cfg, z, ginv, x - h * e, xp)
    lap = (acc - 6.0 * center) / (h * h)
    return abs(-lap - z * z * center)


class DomainFunction:
    """Element u = F + sum_j q_j G_z^{y_j} of the operator domain induced by a
    trial function F at admissible z, with charges q = Gamma^-1 F(Y)."""

    def __init__(self, cfg: PointConfig, z, trial):
        z = complex(z)
        values = np.array([trial(y) for y in cfg.points], dtype=complex)
        self.cfg = cfg
        self.z = z
        self.trial = trial
        self.charges = _gamma_inverse(cfg, z) @ values

    def __call__(self, x) -> complex:
        x = np.asarray(x, dtype=float)
        g = _green_vector(self.cfg, self.z, x)
        return complex(self.trial(x) + self.charges @ g)


def radial_boundary_residual(u, center, alpha_j: float, r: float) -> float:
    """Modulus of the boundary-condition bracket

        d(rho u)/d rho - 4 pi alpha_j rho u   at rho = r,

    averaged over the six axis directions from `center` (the average cancels
    the direction-dependent part of the regular remainder); the radial
    derivative is a central difference with step r/10.  Vanishes linearly in
    r for admissible domain elements.
    """
    if not r > 0.0:
        raise ValueError("radial_boundary_residual requires r > 0")
    center = np.asarray(center, dtype=float)
    delta = 0.1 * r
    acc = 0.0 + 0.0j
    for v in _AXIS_DIRECTIONS:
        phi_plus = (r + delta) * u(center + (r + delta) * v)
        phi_minus = (r - delta) * u(center + (r - delta) * v)
        d_phi = (phi_plus - phi_minus) / (2.0 * delta)
        acc += d_phi - FOUR_PI * alpha_j * r * u(center + r * v)
    return abs(acc / 6.0)


def boundary_condition_residual(cfg: PointConfig, z, trial, j: int, r: float) -> float:
    """Boundary-condition residual at radius r around center j for the domain
    element induced by `trial`.  Requires r < d_min/4 (or width/4 when N=1)."""
    if not 0 <= j < cfg.n:
        raise ValueError(f"center index {j} out of range")
    limit = cfg.d_min / 4.0 if cfg.n > 1 else trial.width / 4.0
    if not 0.0 < r < limit:
        raise ValueError(f"radius must lie in (0, {limit:g})")
    u = DomainFunction(cfg, z, trial)
    return radial_boundary_residual(u, cfg.points[j], float(cfg.alpha[j]), r)
