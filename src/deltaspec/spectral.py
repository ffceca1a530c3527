"""Discrete spectrum, zero-energy threshold classification, and Laurent
coefficients of the inverse characteristic matrix at the origin.

The ordered eigenvalue curves of Gamma(i*lam) are strictly increasing in
lam (their lam-derivative is 1/4pi times the Gram matrix of exp(-lam|x|), a
positive definite function), so every curve that starts negative crosses
zero exactly once and the inertia, the number of negative eigenvalues, falls
by one at each crossing.  The negative-eigenvalue solver bisects the inertia
with all brackets in one batch per level until each bracket holds one
crossing, then polishes those crossings by safeguarded Newton steps on their
curves, again all in one batch per step.  Newton starts at the regula falsi
point of the eigenvalues the bisection computed at the bracket's ends.  Each
of its points costs one LU factorization for the sign of the determinant,
which keeps the bracket, and one solve with one right-hand side (two at the
first point), an inverse iteration whose vector gives the step; no Newton
point needs all N eigenpairs.  A simple record takes its eigenvector from
Newton's last solve, so only a multiple record factors a matrix of its own.  The k-th curve is
negative at a point exactly when the inertia there exceeds k, so counts and
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

from .model import FOUR_PI, PointConfig, _frozen, dominance_start, gamma_imag_axis, row_sum_bound

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


@dataclass(frozen=True, eq=False)
class EigenvalueRecord:
    """One negative eigenvalue -lam**2 with its kernel coefficient vectors,
    each of unit length with its largest-|entry| component positive; where
    several entries are largest to within 1e-12 (relative), the first of
    them is positive."""

    lam: float
    energy: float
    multiplicity: int
    coefficients: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: tuple[EigenvalueRecord, ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(rec.multiplicity for rec in self.eigenvalues)


def _inertia_brackets(cfg: PointConfig, ts: np.ndarray, mu: np.ndarray):
    """Brackets (lo, hi, inertia at hi, inertia jump, f_lo, f_hi) of t >= 0
    across which the number of negative eigenvalues of Gamma(it) changes,
    given the ordered eigenvalues `mu` of Gamma(it) on the grid ts
    (spectrum slicing; Barth, Martin & Wilkinson 1967).  Each level
    computes the eigenvalues at every midpoint with one batched eigvalsh and
    keeps each half across which the inertia changes, with the eigenvalues
    at both of its ends.  A bracket leaves as soon as its jump is 1, one
    crossing for Newton to polish, or its width is at most 5e-14 * (1 + hi),
    which adjacent floats always meet: a jump of 2 or more there is a
    multiple crossing.  f_lo < 0 <= f_hi are the values at lo and hi of the
    curve k = inertia at hi, the one that crosses in a bracket of jump 1.
    Also returns the number of levels and of midpoint matrices factored."""
    counts = np.count_nonzero(mu < 0.0, axis=-1)
    k = np.flatnonzero(counts[1:] != counts[:-1])
    lo, hi, mu_lo, mu_hi = ts[k], ts[k + 1], mu[k], mu[k + 1]
    final, levels, matrices = [], 0, 0
    while True:
        n_lo, n_hi = (np.count_nonzero(m < 0.0, axis=-1) for m in (mu_lo, mu_hi))
        jump = np.abs(n_hi - n_lo)
        stop = (jump == 1) | (hi - lo <= 5e-14 * (1.0 + hi))
        rows, curve = np.flatnonzero(stop), n_hi[stop]
        final.append(
            (lo[stop], hi[stop], curve, jump[stop], mu_lo[rows, curve], mu_hi[rows, curve])
        )
        lo, hi, mu_lo, mu_hi = lo[~stop], hi[~stop], mu_lo[~stop], mu_hi[~stop]
        if not lo.size:
            break
        mid = 0.5 * (lo + hi)
        mu_mid = np.linalg.eigvalsh(gamma_imag_axis(cfg, mid))
        levels, matrices = levels + 1, matrices + mid.size
        n_mid = np.count_nonzero(mu_mid < 0.0, axis=-1)
        left, right = n_mid != n_lo[~stop], n_mid != n_hi[~stop]
        lo, hi = np.concatenate([lo[left], mid[right]]), np.concatenate([mid[left], hi[right]])
        mu_lo = np.concatenate([mu_lo[left], mu_mid[right]])
        mu_hi = np.concatenate([mu_mid[left], mu_hi[right]])
    return (*(np.concatenate(parts) for parts in zip(*final)), levels, matrices)


def _solve_scaled(g, b, live):
    """y = g**-1 b for the rows `live` of the batch, scaled to max|y| = 1, and
    the scale: near a crossing |y| can overflow.  The scale is NaN in the
    other rows and inf where y overflowed."""
    y = np.full_like(b, np.nan)
    y[live] = np.linalg.solve(g[live], b[live, :, None])[..., 0]
    scale = np.abs(y).max(axis=1)
    with np.errstate(invalid="ignore"):
        return y / scale[:, None], scale


def _newton_crossings(cfg: PointConfig, lo, hi, k, f_lo, f_hi):
    """The zero of the k-th ordered eigenvalue curve mu(t) of Gamma(it) in
    each bracket (lo, hi) holding one crossing, by safeguarded Newton steps
    (rtsafe; Press et al., Numerical Recipes, 9.4) from the regula falsi
    point lo - f_lo (hi - lo) / (f_hi - f_lo) of the curve's values f_lo < 0
    <= f_hi at the ends, or from the midpoint when that point is not
    strictly inside (lo, hi) (f_hi = 0 puts it at hi).

    Each step factors every point x still open by LU, once in a batched
    slogdet and once in a batched solve with one right-hand side b (twice
    at the first point).  The bracket holds one crossing, so the inertia at
    x is k + 1 below it and k at or above it, and the sign of det Gamma(ix)
    tells which: x replaces lo when it is (-1)**(k + 1), else hi, and the
    bracket keeps the crossing.  With y = Gamma(ix)**-1 b and G' =
    exp(-x d)/4pi the t-derivative of Gamma(it), the step x - (b.y)/(y^T G'
    y) is Newton's on 1/(b^T Gamma**-1 b), whose zero in the bracket is the
    crossing; it tends to mu/(v^T G' v) as b tends to the curve's
    eigenvector v.  b starts as one fixed pseudo-random unit vector (a
    vector of ones is orthogonal to every antisymmetric state) and is y/|y|
    after each solve, an inverse iteration on v; the first point solves
    twice, so its step already uses a vector iterated twice.  A step that
    leaves [lo, hi], is not finite, or is more than half the previous one
    (the bracket width, at first) is replaced by bisection.  A point stops
    when its step or its bracket is at most 5e-14 * (1 + x), with b as its
    vector.  A point whose det is exactly 0, or whose y overflows, is a
    crossing: it stops there and takes its vector from an eigh of that
    matrix alone.  Returns the crossings, the vectors of the last points
    factored (each within 5e-14 * (1 + x) of its crossing), the number of
    steps (slogdet calls) and of points factored."""
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    x = np.where((f_hi > 0.0) & (lo < x) & (x < hi), x, 0.5 * (lo + hi))
    prev = hi - lo
    b = np.random.default_rng(0).standard_normal(cfg.n)
    b = np.tile(b / np.linalg.norm(b), (x.size, 1))
    done, steps, matrices = [(x[:0], b[:0])], 0, 0
    while x.size:
        g = gamma_imag_axis(cfg, x)
        sign = np.linalg.slogdet(g)[0]
        steps, matrices = steps + 1, matrices + x.size
        y, scale = _solve_scaled(g, b, sign != 0.0)
        if steps == 1:
            b = y / np.linalg.norm(y, axis=1, keepdims=True)
            y, scale = _solve_scaled(g, b, np.isfinite(scale))
        exact = ~np.isfinite(scale)
        if exact.any():
            vectors = np.linalg.eigh(g[exact])[1]
            done.append((x[exact], vectors[np.arange(vectors.shape[0]), :, k[exact]]))
            g, sign, x, lo, hi, k, prev, b, y, scale = (
                a[~exact] for a in (g, sign, x, lo, hi, k, prev, b, y, scale)
            )
        below = sign == (-1.0) ** (k + 1)
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        # G' = I/4pi - Gamma(ix) * d entrywise, read off the matrix just built
        slope = np.einsum("bi,bi->b", y, y) / FOUR_PI - np.einsum(
            "bi,bij,bj->b", y, g * cfg.distances, y
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - np.einsum("bi,bi->b", b, y) / (scale * slope)
        newton = (lo <= new) & (new <= hi) & (np.abs(new - x) <= 0.5 * prev)
        new = np.where(newton, new, 0.5 * (lo + hi))
        step = np.abs(new - x)
        width = 5e-14 * (1.0 + new)
        stop = (step <= width) | (hi - lo <= width)
        b = y / np.linalg.norm(y, axis=1, keepdims=True)
        done.append((new[stop], b[stop]))
        x, lo, hi, k, prev, b = (a[~stop] for a in (new, lo, hi, k, step, b))
    crossings, vecs = (np.concatenate(parts) for parts in zip(*done))
    return crossings, vecs, steps, matrices


def _signed(v: np.ndarray) -> np.ndarray:
    """A read-only copy of v whose first component within 1e-12 (relative) of
    its largest |entry| is positive: entries equal up to rounding, as in a
    symmetric or antisymmetric state, do not leave the sign to rounding."""
    size = np.abs(v)
    return _frozen(v * np.sign(v[np.argmax(size >= (1.0 - 1e-12) * size.max())]))


def negative_eigenvalues(cfg: PointConfig, tol: float = 1e-10) -> SpectralReport:
    """Locate all negative eigenvalues -lam**2 (lam > 0) with multiplicities.

    The number of negative eigenvalues of Gamma(i*lam) on [0, lam_hi] is
    bisected with all brackets in one batch per level until
    each bracket holds one crossing; safeguarded Newton steps on the
    crossing's eigenvalue curve, from the regula falsi point of the curve's
    values at the bracket's ends, all brackets again in one batch, each
    point one batched slogdet and one batched solve (two at the first
    point), then take it to within 5e-14 * (1 + lam).  A bracket whose
    inertia jumps by m >= 2 at width 5e-14 * (1 + lam) gives m crossings at
    its midpoint.  `tol`
    still governs the merging of near-degenerate crossings (merge radius
    tol*(1+lam); a merge of crossings from different brackets is logged at
    DEBUG, since a heuristic then sets the multiplicity) and the threshold
    below which a crossing belongs to z = 0.  A simple record, one Newton
    crossing merged with no other, carries the inverse-iteration vector of
    the last point Newton factored, within 5e-14 * (1 + lam) of lam; a
    record of multiplicity m >= 2 carries the m eigenvectors of its own eigh
    of Gamma(i*lam) with the smallest |eigenvalue|.  Every vector has its
    largest-|entry| component positive (the first of them, where several
    are largest to within 1e-12).  One DEBUG line per call on
    `deltaspec.spectral` gives the bisection levels, the Newton steps
    (batched slogdet calls), the matrices factored (eigvalsh matrices of the
    bisection and LU points of Newton), the records that ran their own eigh,
    the crossings and the records.

    lam_hi = R + max(1, 64 N eps R), R = row_sum_bound(cfg): past R every row
    of Gamma(i*lam) is strictly dominant with a positive diagonal, so its least
    eigenvalue is at least (lam - R)/4pi (Gershgorin).  The margin covers the
    rounding, as 1 alone does not past R = 7e13/N: with L = lam_hi/4pi, the
    computed matrix is within about 8 eps L in 2-norm, R within 3 eps R, and
    eigvalsh exact within p(N) eps ||Gamma||_2 <= 2 p(N) eps L, p(N) of order
    N; the margin's 64 N eps L covers their sum for every p(N) <= 26 N.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError("negative_eigenvalues requires a finite tol > 0")
    lam_hi = row_sum_bound(cfg)
    lam_hi += max(1.0, 64 * cfg.n * np.finfo(float).eps * lam_hi)
    ends = np.array([0.0, lam_hi])
    mu = np.linalg.eigvalsh(gamma_imag_axis(cfg, ends))
    if mu[1, 0] <= 0.0:
        raise ConvergenceError("upper bisection bracket is not positive definite")
    lo, hi, n_hi, jumps, f_lo, f_hi, levels, matrices = _inertia_brackets(cfg, ends, mu)
    one = jumps == 1
    polished, vectors, steps, factored = _newton_crossings(
        cfg, lo[one], hi[one], n_hi[one], f_lo[one], f_hi[one]
    )
    lams = np.concatenate([polished, np.repeat(0.5 * (lo + hi)[~one], jumps[~one])])

    # Crossings at lam <= tol belong to the threshold, not the spectrum.
    order = np.argsort(lams)
    order = order[lams[order] > tol]
    crossings = lams[order].tolist()

    records, solved = [], 0
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
        if mult == 1:  # a jump of m >= 2 gives m equal crossings, so this one is Newton's
            coeffs = (_signed(vectors[order[i]]),)
        else:
            values, vecs = np.linalg.eigh(gamma_imag_axis(cfg, lam_star))
            coeffs = tuple(_signed(vecs[:, int(c)]) for c in np.argsort(np.abs(values))[:mult])
            solved += 1
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
        "%d eigh by records, %d crossings, %d records",
        levels, steps, ends.size + matrices + factored, solved, len(crossings), len(records),
    )
    return SpectralReport(eigenvalues=tuple(records))


@dataclass(frozen=True, eq=False)
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
    kernel: tuple[np.ndarray, ...]


def classify_zero(cfg: PointConfig, tol: float = 1e-10) -> ZeroClassification:
    """Classify z = 0 as Regular / ZeroResonance / ZeroEigenvalue / Mixed.

    The coefficient-sum criterion: a kernel vector of Gamma(0) yields a
    square-integrable state exactly when its entries sum to zero (the 1/|x|
    tails of the constituent kernels then cancel).  Both the kernel structure
    and the label are reported, never conflated.

    The kernel is the eigenvectors of Gamma(0) whose eigenvalues are within
    tol of its largest in modulus, each signed as negative_eigenvalues signs
    its coefficient vectors.  A Gamma(0) whose rows are all strictly
    diagonally dominant, dominance_start(cfg) == 0, is Regular at every tol
    without an eigh: by Varah's bound its smallest singular value is at least
    min_j (|alpha_j| - r_j) > 0, with the rounding argued in dominance_start,
    however small that is next to its largest eigenvalue.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError("classify_zero requires a finite tol > 0")
    if dominance_start(cfg) == 0.0:
        return ZeroClassification(0, 0, False, REGULAR, ())
    # Gamma(0) is exactly symmetric, since cfg.distances is, so eigh, which
    # reads one triangle, sees all of it.
    values, vectors = np.linalg.eigh(gamma_imag_axis(cfg, 0.0))
    keep = np.flatnonzero(np.abs(values) <= tol * np.abs(values).max())
    kernel = tuple(_signed(vectors[:, int(k)]) for k in keep)
    kdim = len(kernel)
    if kdim == 0:
        return ZeroClassification(0, 0, False, REGULAR, ())
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


@dataclass(frozen=True, eq=False)
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
    return LaurentCoefficients(A_minus2=_frozen(a2), A_minus1=_frozen(a1))
