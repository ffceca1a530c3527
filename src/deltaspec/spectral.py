"""Discrete spectrum, zero-energy threshold classification, and Laurent
coefficients of the inverse characteristic matrix at the origin.

The negative-eigenvalue solver walks the ordered eigenvalue curves of
Gamma(i*lam), which are strictly increasing in lam (their lam-derivative is
1/4pi times the Gram matrix of exp(-lam|x|), a positive definite function),
so every curve that starts negative crosses zero exactly once and bisection
is exhaustive.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import linalg
from .model import (
    FOUR_PI,
    PointConfig,
    SingularityError,
    gamma_imag_axis,
    gamma_stack,
    row_sum_bound,
)

REGULAR = "Regular"
ZERO_RESONANCE = "ZeroResonance"
ZERO_EIGENVALUE = "ZeroEigenvalue"
MIXED = "Mixed"

_BISECT_MAX_ITER = 200
_LAURENT_MAX_NODES = 1024
_LAURENT_STAB_ATOL = 1e-8
_LAURENT_SIGMA_CUT = 1e-13

logger = logging.getLogger(__name__)

__all__ = [
    "ConvergenceError",
    "EigenvalueRecord",
    "SpectralReport",
    "negative_eigenvalues",
    "eigenfunction_eval",
    "ZeroClassification",
    "classify_zero",
    "LaurentCoefficients",
    "laurent_at_zero",
    "REGULAR",
    "ZERO_RESONANCE",
    "ZERO_EIGENVALUE",
    "MIXED",
]


class ConvergenceError(RuntimeError):
    """A numerical iteration failed to converge within its budget."""


@dataclass(frozen=True)
class EigenvalueRecord:
    """One negative eigenvalue -lam**2 with its kernel coefficient vectors."""

    lam: float
    energy: float
    multiplicity: int
    coefficients: list[np.ndarray]


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: list[EigenvalueRecord]

    @property
    def total_multiplicity(self) -> int:
        return sum(rec.multiplicity for rec in self.eigenvalues)


def _ordered_eigenvalue(cfg: PointConfig, lam: float, k: int) -> float:
    return float(np.linalg.eigvalsh(gamma_imag_axis(cfg, lam))[k])


def negative_eigenvalues(cfg: PointConfig, tol: float = 1e-10) -> SpectralReport:
    """Locate all negative eigenvalues -lam**2 (lam > 0) with multiplicities.

    Each ordered eigenvalue curve of Gamma(i*lam) that is negative at lam=0
    is bisected to its unique zero crossing on [0, lam_hi], where lam_hi is
    the Gershgorin bound past which the matrix is positive definite.
    Bisection runs to near machine width; `tol` governs the merging of
    near-degenerate crossings (merge radius tol*(1+lam)) and the kernel
    extraction threshold.
    """
    if tol <= 0.0:
        raise ValueError("negative_eigenvalues requires tol > 0")
    lam_hi = row_sum_bound(cfg) + 1.0
    mu0 = np.linalg.eigvalsh(gamma_imag_axis(cfg, 0.0))
    mu_hi = np.linalg.eigvalsh(gamma_imag_axis(cfg, lam_hi))
    if mu_hi[0] <= 0.0:
        raise ConvergenceError("upper bisection bracket is not positive definite")

    crossings = []
    for k in np.flatnonzero(mu0 < 0.0):
        a, b = 0.0, lam_hi
        for _ in range(_BISECT_MAX_ITER):
            if b - a <= 5e-14 * (1.0 + b):
                break
            mid = 0.5 * (a + b)
            if _ordered_eigenvalue(cfg, mid, int(k)) < 0.0:
                a = mid
            else:
                b = mid
        else:
            raise ConvergenceError(f"bisection on curve {k} did not converge")
        crossings.append(0.5 * (a + b))

    # Crossings at lam <= tol belong to the threshold, not the spectrum.
    crossings = sorted(lam for lam in crossings if lam > tol)

    records = []
    i = 0
    while i < len(crossings):
        j = i + 1
        while j < len(crossings) and crossings[j] - crossings[i] <= tol * (1.0 + crossings[j]):
            j += 1
        group = crossings[i:j]
        lam_star = float(np.mean(group))
        mult = len(group)
        eig = linalg.sym_eigen(gamma_imag_axis(cfg, lam_star))
        order = np.argsort(np.abs(eig.values))
        coeffs = [eig.vectors[:, int(c)].copy() for c in order[:mult]]
        records.append(
            EigenvalueRecord(
                lam=lam_star,
                energy=-lam_star * lam_star,
                multiplicity=mult,
                coefficients=coeffs,
            )
        )
        i = j
    return SpectralReport(eigenvalues=records)


def eigenfunction_eval(cfg: PointConfig, lam: float, c, x) -> float:
    """Value at x of sum_j c_j exp(-lam |x-y_j|) / (4 pi |x-y_j|)."""
    c = np.asarray(c, dtype=float)
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(cfg.points - x, axis=1)
    if np.any(r == 0.0):
        raise SingularityError("eigenfunction evaluated at an interaction center")
    return float(np.sum(c * np.exp(-lam * r) / (FOUR_PI * r)))


@dataclass(frozen=True)
class ZeroClassification:
    """Threshold structure at z = 0.

    kernel_dim counts the near-kernel of Gamma(0); the kernel splits into
    zero-sum coefficient vectors (square-integrable candidate states,
    eigenvalue_multiplicity of them) plus at most one direction with nonzero
    coefficient sum (a non-normalizable resonant state).
    """

    kernel_dim: int
    eigenvalue_multiplicity: int
    resonance_present: bool
    label: str
    kernel: list[np.ndarray]


def classify_zero(cfg: PointConfig, tol: float = 1e-10) -> ZeroClassification:
    """Classify z = 0 as Regular / ZeroResonance / ZeroEigenvalue / Mixed.

    The coefficient-sum criterion: a kernel vector of Gamma(0) yields a
    square-integrable state exactly when its entries sum to zero (the 1/|x|
    tails of the constituent kernels then cancel).  Both the kernel structure
    and the label are reported, never conflated.
    """
    if tol <= 0.0:
        raise ValueError("classify_zero requires tol > 0")
    g0 = gamma_imag_axis(cfg, 0.0)
    kernel = linalg.null_space(g0, tol)
    kdim = len(kernel)
    if kdim == 0:
        return ZeroClassification(0, 0, False, REGULAR, [])
    ones = np.ones(cfg.n) / np.sqrt(cfg.n)
    overlap = float(np.sqrt(sum(float(v @ ones) ** 2 for v in kernel)))
    resonance = overlap > tol
    mult = kdim - 1 if resonance else kdim
    if mult == 0:
        label = ZERO_RESONANCE
    elif resonance:
        label = MIXED
    else:
        label = ZERO_EIGENVALUE
    return ZeroClassification(kdim, mult, resonance, label, kernel)


@dataclass(frozen=True)
class LaurentCoefficients:
    """Coefficients of z**-2 and z**-1 in the expansion of Gamma(z)**-1 at 0."""

    A_minus2: np.ndarray
    A_minus1: np.ndarray
    radius: float
    nodes: int
    stable: bool


def _circle_nodes(radius: float, nodes: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    return radius * np.exp(1j * theta)


def _circle_coefficients(cfg: PointConfig, zs: np.ndarray):
    g = gamma_stack(cfg, zs)
    sigma = np.linalg.svd(g, compute_uv=False)[..., -1]
    scale = max(1.0, float(np.abs(g).max()))
    if sigma.min() <= _LAURENT_SIGMA_CUT * scale:
        return None
    inv = np.linalg.inv(g)
    a2 = (inv * (zs * zs)[:, None, None]).mean(axis=0)
    a1 = (inv * zs[:, None, None]).mean(axis=0)
    return a2, a1


def laurent_at_zero(
    cfg: PointConfig, radius: float = 1e-2, nodes: int = 64
) -> LaurentCoefficients:
    """Laurent coefficients A_-2, A_-1 of Gamma(z)**-1 at z = 0 by trapezoidal
    contour quadrature on the circle |z| = radius.

    Trapezoid sums on a circle are spectrally accurate for the periodic
    integrand; nodes are doubled until both coefficients move by less than
    1e-8 absolute (error), and the radius is halved up to 6 times if the
    circle grazes a singularity of the inverse.  Each halving is logged at
    DEBUG on the `deltaspec.spectral` logger.
    """
    if radius <= 0.0:
        raise ValueError("laurent_at_zero requires radius > 0")
    if not 4 <= nodes <= _LAURENT_MAX_NODES // 2:
        raise ValueError(f"nodes must lie in [4, {_LAURENT_MAX_NODES // 2}]")
    r = float(radius)
    for _ in range(7):
        n = int(nodes)
        prev = None
        shrink = False
        while n <= _LAURENT_MAX_NODES:
            got = _circle_coefficients(cfg, _circle_nodes(r, n))
            if got is None:
                shrink = True
                break
            if prev is not None:
                d2 = float(np.abs(got[0] - prev[0]).max())
                d1 = float(np.abs(got[1] - prev[1]).max())
                if max(d2, d1) < _LAURENT_STAB_ATOL:
                    return LaurentCoefficients(
                        A_minus2=got[0], A_minus1=got[1], radius=r, nodes=n, stable=True
                    )
            prev = got
            n *= 2
        if shrink:
            logger.debug(
                "halving Laurent radius %r: Gamma is near-singular at a node of the "
                "%d-node circle", r, n,
            )
            r *= 0.5
            continue
        raise ConvergenceError(
            f"contour quadrature did not stabilize within {_LAURENT_MAX_NODES} nodes"
        )
    raise ConvergenceError("quadrature circle intersects a singularity at every radius tried")
