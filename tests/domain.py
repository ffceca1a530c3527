"""Operator-domain checks behind the resolvent tests and criterion 8.

A trial function F induces the domain element u = F + sum_j q_j G_z^{y_j}
with charges q = Gamma(z)^-1 F(Y); near each center u must satisfy the
boundary condition d(rho u)/d rho = 4 pi alpha_j rho u.  `eigenfunction_eval`
evaluates a bound state from its coefficient vector.  No library path needs
these helpers.
"""

from dataclasses import dataclass

import numpy as np

from deltaspec.linalg import inverse
from deltaspec.model import FOUR_PI, PointConfig, SingularityError, gamma_stack, green_kernel

_AXIS_DIRECTIONS = np.vstack([np.eye(3), -np.eye(3)])


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


class DomainFunction:
    """Element u = F + sum_j q_j G_z^{y_j} of the operator domain induced by a
    trial function F at admissible z, with charges q = Gamma^-1 F(Y)."""

    def __init__(self, cfg: PointConfig, z, trial):
        z = complex(z)
        values = np.array([trial(y) for y in cfg.points], dtype=complex)
        self.cfg = cfg
        self.z = z
        self.trial = trial
        self.charges = inverse(gamma_stack(cfg, z)) @ values

    def __call__(self, x) -> complex:
        x = np.asarray(x, dtype=float)
        g = green_kernel(self.z, self.cfg.points, x)
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


def eigenfunction_eval(cfg: PointConfig, lam: float, c, x) -> float:
    """Value at x of sum_j c_j exp(-lam |x-y_j|) / (4 pi |x-y_j|)."""
    c = np.asarray(c, dtype=float)
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(cfg.points - x, axis=1)
    if np.any(r == 0.0):
        raise SingularityError("eigenfunction evaluated at an interaction center")
    return float(np.sum(c * np.exp(-lam * r) / (FOUR_PI * r)))
