"""Discrete spectrum, zero-energy threshold classification, and Laurent
coefficients of the inverse characteristic matrix at the origin.

The ordered eigenvalue curves of Gamma(i*lam) are strictly increasing in
lam (their lam-derivative is 1/4pi times the Gram matrix of exp(-lam|x|), a
positive definite function), so every curve that starts negative crosses
zero exactly once and the inertia, the number of negative eigenvalues, falls
by one at each crossing.  The negative-eigenvalue solver bisects the inertia
with all brackets in one batch per level until each bracket holds one
crossing, then polishes those crossings by safeguarded Newton steps on their
curves, again all in one batch per step.  The k-th curve is negative at a
point exactly when the inertia there exceeds k, so counts and
multiplicities still come from the inertia; the crossings agree with a
per-curve bisection to within its final bracket width.

laurent_at_zero takes the singular part of Gamma(z)**-1 at 0 in closed form
from the kernel of Gamma(0), which classify_zero finds, and the Taylor
coefficients of Gamma at 0, by two Schur-complement reductions; no contour
runs, so no residue of another pole near 0 enters the result.  At a Regular
threshold both coefficients are exactly zero.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .model import FOUR_PI, PointConfig, gamma_imag_axis, row_sum_bound

REGULAR = "Regular"
ZERO_RESONANCE = "ZeroResonance"
ZERO_EIGENVALUE = "ZeroEigenvalue"
MIXED = "Mixed"

logger = logging.getLogger(__name__)

__all__ = [
    "ConvergenceError",
    "EigenvalueRecord",
    "SpectralReport",
    "negative_eigenvalues",
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


def _inertia_brackets(cfg: PointConfig, ts: np.ndarray, counts: np.ndarray):
    """Brackets (lo, hi, inertia at hi, inertia jump) of t >= 0 across which
    `counts`, the number of negative eigenvalues of Gamma(it) on the grid ts,
    changes (spectrum slicing; Barth, Martin & Wilkinson 1967).  Each level
    counts the inertia at every midpoint with one batched eigvalsh and keeps
    each half across which it changes.  A bracket leaves as soon as its jump
    is 1, one crossing for Newton to polish, or its width is at most
    5e-14 * (1 + hi), which adjacent floats always meet: a jump of 2 or more
    there is a multiple crossing.  Also returns the number of levels and of
    midpoint matrices factored."""
    k = np.flatnonzero(counts[1:] != counts[:-1])
    lo, hi, n_lo, n_hi = ts[k], ts[k + 1], counts[k], counts[k + 1]
    final, levels, matrices = [], 0, 0
    while True:
        jump = np.abs(n_hi - n_lo)
        stop = (jump == 1) | (hi - lo <= 5e-14 * (1.0 + hi))
        final.append((lo[stop], hi[stop], n_hi[stop], jump[stop]))
        lo, hi, n_lo, n_hi = lo[~stop], hi[~stop], n_lo[~stop], n_hi[~stop]
        if not lo.size:
            break
        mid = 0.5 * (lo + hi)
        n_mid = np.count_nonzero(np.linalg.eigvalsh(gamma_imag_axis(cfg, mid)) < 0.0, axis=-1)
        levels, matrices = levels + 1, matrices + mid.size
        left, right = n_mid != n_lo, n_mid != n_hi
        lo, hi = np.concatenate([lo[left], mid[right]]), np.concatenate([mid[left], hi[right]])
        n_lo = np.concatenate([n_lo[left], n_mid[right]])
        n_hi = np.concatenate([n_mid[left], n_hi[right]])
    return (*(np.concatenate(parts) for parts in zip(*final)), levels, matrices)


def _newton_crossings(cfg: PointConfig, lo: np.ndarray, hi: np.ndarray, k: np.ndarray):
    """The zero of the k-th ordered eigenvalue curve mu(t) of Gamma(it) in
    each bracket (lo, hi) holding one crossing, by safeguarded Newton steps
    (rtsafe; Press et al., Numerical Recipes, 9.4) from the midpoints.

    Each step takes one batched eigh at every point x still open.  mu(x)
    < 0 exactly when the inertia at x exceeds k, so x replaces lo or hi and
    the bracket keeps the crossing.  The slope is v^T G' v > 0, with v the
    eigenvector of mu(x) and G' = exp(-x d)/4pi the t-derivative of
    Gamma(it).  A step that leaves [lo, hi], is not finite, or is more than
    half the previous one (the bracket width, at first) is replaced by
    bisection.  A point stops when its step or its bracket is at most
    5e-14 * (1 + x).  Returns the crossings, the number of steps and of
    matrices factored."""
    x, prev = 0.5 * (lo + hi), hi - lo
    done, steps, matrices = [], 0, 0
    while x.size:
        values, vectors = np.linalg.eigh(gamma_imag_axis(cfg, x))
        steps, matrices = steps + 1, matrices + x.size
        rows = np.arange(x.size)
        mu, v = values[rows, k], vectors[rows, :, k]
        below = mu < 0.0
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        grad = np.exp(-x[:, None, None] * cfg.distances) / FOUR_PI
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - mu / np.einsum("bi,bij,bj->b", v, grad, v)
        newton = (lo <= new) & (new <= hi) & (np.abs(new - x) <= 0.5 * prev)
        new = np.where(newton, new, 0.5 * (lo + hi))
        step = np.abs(new - x)
        width = 5e-14 * (1.0 + new)
        stop = (step <= width) | (hi - lo <= width)
        done.append(new[stop])
        x, lo, hi, k, prev = new[~stop], lo[~stop], hi[~stop], k[~stop], step[~stop]
    return np.concatenate(done or [x]), steps, matrices


def negative_eigenvalues(cfg: PointConfig, tol: float = 1e-10) -> SpectralReport:
    """Locate all negative eigenvalues -lam**2 (lam > 0) with multiplicities.

    The number of negative eigenvalues of Gamma(i*lam) on [0, lam_hi], where
    lam_hi is the Gershgorin bound past which the matrix is positive
    definite, is bisected with all brackets in one batch per level until
    each bracket holds one crossing; safeguarded Newton steps on the
    crossing's eigenvalue curve, all brackets again in one batch, then take
    it to within 5e-14 * (1 + lam).  A bracket whose inertia jumps by m >= 2
    at width 5e-14 * (1 + lam) gives m crossings at its midpoint.  `tol`
    still governs the merging of near-degenerate crossings (merge radius
    tol*(1+lam); a merge of crossings from different brackets is logged at
    DEBUG, since a heuristic then sets the multiplicity) and the threshold
    below which a crossing belongs to z = 0.  A record of multiplicity m
    carries the m eigenvectors of one eigh of Gamma(i*lam) with the smallest
    |eigenvalue|.  One DEBUG line per call on `deltaspec.spectral` gives the
    bisection levels, the Newton steps, the matrices factored by both, the
    crossings and the records.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError("negative_eigenvalues requires a finite tol > 0")
    lam_hi = row_sum_bound(cfg) + 1.0
    ends = np.array([0.0, lam_hi])
    mu = np.linalg.eigvalsh(gamma_imag_axis(cfg, ends))
    if mu[1, 0] <= 0.0:
        raise ConvergenceError("upper bisection bracket is not positive definite")
    lo, hi, n_hi, jumps, levels, matrices = _inertia_brackets(
        cfg, ends, np.count_nonzero(mu < 0.0, axis=-1)
    )
    one = jumps == 1
    polished, steps, factored = _newton_crossings(cfg, lo[one], hi[one], n_hi[one])
    multiple = np.repeat(0.5 * (lo + hi)[~one], jumps[~one])

    # Crossings at lam <= tol belong to the threshold, not the spectrum.
    crossings = sorted(lam for lam in np.concatenate([polished, multiple]).tolist() if lam > tol)

    records = []
    i = 0
    while i < len(crossings):
        j = i + 1
        while j < len(crossings) and crossings[j] - crossings[i] <= tol * (1.0 + crossings[j]):
            j += 1
        group = crossings[i:j]
        lam_star = float(np.mean(group))
        mult = len(group)
        if group[0] != group[-1]:
            logger.debug(
                "merging %d crossings from %d brackets into lam %r: the merge radius "
                "tol*(1+lam), not an inertia jump, sets the multiplicity",
                mult, len(set(group)), lam_star,
            )
        values, vectors = np.linalg.eigh(gamma_imag_axis(cfg, lam_star))
        order = np.argsort(np.abs(values))
        coeffs = [vectors[:, int(c)].copy() for c in order[:mult]]
        records.append(
            EigenvalueRecord(
                lam=lam_star,
                energy=-lam_star * lam_star,
                multiplicity=mult,
                coefficients=coeffs,
            )
        )
        i = j
    logger.debug(
        "spectrum: %d bisection levels, %d Newton steps, %d matrices factored, "
        "%d crossings, %d records",
        levels, steps, ends.size + matrices + factored, len(crossings), len(records),
    )
    return SpectralReport(eigenvalues=records)


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
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError("classify_zero requires a finite tol > 0")
    # Gamma(0) is exactly symmetric, since cfg.distances is, so eigh, which
    # reads one triangle, sees all of it.
    values, vectors = np.linalg.eigh(gamma_imag_axis(cfg, 0.0))
    keep = np.flatnonzero(np.abs(values) <= tol * np.abs(values).max())
    kernel = [vectors[:, int(k)].copy() for k in keep]
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
    """Coefficients of z**-2 and z**-1 in the expansion of Gamma(z)**-1 at 0;
    A_minus2 is real."""

    A_minus2: np.ndarray
    A_minus1: np.ndarray


def laurent_at_zero(cfg: PointConfig) -> LaurentCoefficients:
    """Laurent coefficients A_-2, A_-1 of Gamma(z)**-1 at z = 0, in closed form
    from the kernel V of Gamma(0) that classify_zero takes at its default tol,
    so the two agree on the structure of the threshold.

    Gamma(z) = sum_n G_n z**n with G_1 = -(i/4pi) 1 1^T, G_2 = D/8pi and
    G_3 = i D**2/24pi (entrywise square), D = cfg.distances with its zero
    diagonal.  A Schur complement onto V, then one onto its zero-sum part U
    (the c = V^T 1 direction split off when a resonance is present, all of V
    otherwise), gives

        A_-2 = U (U^T G_2 U)**-1 U^T = 8pi U (U^T D U)**-1 U^T,
        A_-1 = (I - A_-2 G_2) Q (I - G_2 A_-2) - A_-2 G_3 A_-2,

    with Q = u u^T / (u^T G_1 u) = 4pi i u u^T / (1.u)**2 for the resonant
    direction u = V c, and Q = 0 without one (Jensen & Kato, Duke Math. J. 46
    (1979) 583-611; Avrachenkov, Filar & Howlett, Analytic Perturbation Theory
    and Its Applications, SIAM 2013, ch. 2).  Since 1^T U = 0, G_1 A_-2 = 0,
    so the pseudo-inverse of Gamma(0) drops out of A_-1.  U^T D U is negative
    definite for distinct centers (Schoenberg), so A_-2 is real and negative
    semidefinite, of rank eigenvalue_multiplicity.  At a Regular threshold V
    is empty and both coefficients are exactly zero.  Unlike a contour, the
    result holds no residue of another pole near 0.
    """
    n = cfg.n
    cls = classify_zero(cfg)
    v = np.reshape(cls.kernel, (-1, n)).T
    q = np.zeros((n, n), dtype=complex)
    if cls.resonance_present:
        c = v.sum(axis=0)
        u = v @ c
        q = FOUR_PI * 1j * np.outer(u, u) / u.sum() ** 2
        v = v @ np.linalg.qr(c[:, None], mode="complete")[0][:, 1:]
    d = cfg.distances
    a2 = 8.0 * np.pi * v @ np.linalg.solve(v.T @ d @ v, v.T)
    m = np.eye(n) - a2 @ d / (8.0 * np.pi)
    a1 = m @ q @ m.T - a2 @ (1j * d * d / (24.0 * np.pi)) @ a2
    return LaurentCoefficients(A_minus2=a2, A_minus1=a1)
