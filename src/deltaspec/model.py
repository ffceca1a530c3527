"""Physical configuration and closed-form assembly of the characteristic matrix.

Units follow hbar = 2m = 1: the operator is the negative Laplacian with N
zero-range perturbations, the spectral parameter z carries momentum units,
and energies are z**2.  Every assembly routine below is entire in z (no
branch cuts) and pure: configurations are immutable values, safe to share
between callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FOUR_PI = 4.0 * np.pi

# Relative scale below which two centers count as coincident.
COINCIDENCE_RTOL = 1e-12
# The most matrix entries one batch of _gamma_batches holds: it takes
# max(1, this // N**2) matrices at a time.
_BATCH_ENTRIES = 2 ** 21

__all__ = [
    "FOUR_PI",
    "ConfigError",
    "SingularityError",
    "PointConfig",
    "green_kernel",
    "gamma_stack",
    "gamma_imag_axis",
    "row_sum_bound",
    "dominance_start",
]


class ConfigError(ValueError):
    """Invalid physical configuration.

    `pointer` is a JSON pointer into the config document locating the
    offending field ("" when the problem is not tied to a single field).
    """

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer


class SingularityError(ValueError):
    """Evaluation requested exactly on a kernel singularity (x == y)."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _distance(x, y) -> np.ndarray:
    """|x - y| over the last axis of broadcasting stacks of 3-vectors: the one
    rounding of a distance, so Gamma and the free kernel agree bit for bit; one
    that overflows is inf, without a warning, for its caller to reject."""
    with np.errstate(over="ignore"):
        d = np.subtract(x, y, dtype=float)
        return np.sqrt(np.einsum("...k,...k->...", d, d))


@dataclass(frozen=True, eq=False)
class PointConfig:
    """Strengths and centers of the point interactions.

    `alpha[j]` is the inverse-scattering-length parameter of the center at
    `points[j]`; all entries must be finite (a center with no interaction is
    expressed by deleting it, not by an infinite strength).  Centers must be
    pairwise distinct: coincident points are rejected at relative tolerance
    1e-12 of the configuration scale rather than merged.  Every pairwise
    distance must be finite: one that overflows is rejected, not computed with.
    `distances` holds the pairwise center distances, zero diagonal, and
    `d_min` the smallest of them, None for a single center.
    """

    alpha: np.ndarray
    points: np.ndarray
    distances: np.ndarray = field(init=False, repr=False)
    d_min: float | None = field(init=False, repr=False)

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        points = np.asarray(self.points, dtype=float)
        if alpha.ndim != 1 or alpha.size < 1:
            raise ConfigError("must be a flat list of at least one number", "/alpha")
        if points.ndim != 2 or points.shape[1] != 3:
            raise ConfigError("must be a list of 3-vectors", "/points")
        if points.shape[0] != alpha.shape[0]:
            raise ConfigError(
                f"length {points.shape[0]} does not match alpha length {alpha.shape[0]}",
                "/points",
            )
        bad = np.flatnonzero(~np.isfinite(alpha))
        if bad.size:
            raise ConfigError("must be finite", f"/alpha/{bad[0]}")
        bad_rows = np.flatnonzero(~np.isfinite(points).all(axis=1))
        if bad_rows.size:
            row = int(bad_rows[0])
            col = int(np.flatnonzero(~np.isfinite(points[row]))[0])
            raise ConfigError("must be finite", f"/points/{row}/{col}")

        dist = _distance(points[:, None, :], points[None, :, :])
        scale = max(1.0, float(np.abs(points).max()))
        n = alpha.shape[0]
        iu, ju = np.triu_indices(n, k=1)
        pair = dist[iu, ju]
        close = pair <= COINCIDENCE_RTOL * scale
        if close.any():
            k = int(np.flatnonzero(close)[0])
            raise ConfigError(
                f"coincides with point {iu[k]}", f"/points/{ju[k]}"
            )
        far = ~np.isfinite(pair)
        if far.any():
            k = int(np.flatnonzero(far)[0])
            raise ConfigError(f"distance between points {iu[k]} and {ju[k]} overflows", "/points")

        object.__setattr__(self, "alpha", _frozen(alpha))
        object.__setattr__(self, "points", _frozen(points))
        object.__setattr__(self, "distances", _frozen(dist))
        object.__setattr__(self, "d_min", float(pair.min()) if n > 1 else None)

    @property
    def n(self) -> int:
        return self.alpha.shape[0]


def green_kernel(z, x, y):
    """Free Helmholtz kernel exp(i z |x-y|) / (4 pi |x-y|).

    `x` and `y` broadcast as stacks of 3-vectors, shape (..., 3): a stack gives
    an array equal to its two-point calls bit for bit, two points a complex.
    Off the diagonal, green_kernel(z, y_j, y_k) is -Gamma_jk(z) exactly.
    Raises SingularityError when any x == y, and ValueError when any |x-y| is
    not finite.
    """
    r = _distance(x, y)
    if (r == 0.0).any():
        raise SingularityError("green_kernel evaluated at x == y")
    if not np.isfinite(r).all():
        raise ValueError("green_kernel: |x - y| is not finite")
    g = np.exp(1j * complex(z) * r) / (FOUR_PI * r)
    return g if g.ndim else complex(g)


def gamma_stack(cfg: PointConfig, zs) -> np.ndarray:
    """Entries of the characteristic matrix at a batch of spectral parameters.

    Complex symmetric (not Hermitian): diagonal alpha_j - i z / 4 pi,
    off-diagonal -exp(i z d_jk) / (4 pi d_jk).  `zs` may have any shape,
    a scalar included; the result has shape zs.shape + (N, N).  For real
    z > 0, `.real` and `-.imag` are the real symmetric A and B of
    Gamma(z) = A - iB.  The z-derivative is read off the result, with no
    second exp: Gamma'(z) is i d_jk Gamma_jk(z) off the diagonal and -i/4pi
    on it.
    """
    zs = np.asarray(zs, dtype=complex)
    d = cfg.distances
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.exp(1j * zs[..., None, None] * d)
        out /= FOUR_PI * d  # in place: no third full-size array
    idx = np.arange(cfg.n)
    out[..., idx, idx] = cfg.alpha - 1j * zs[..., None] / FOUR_PI
    return out


def _gamma_batches(cfg: PointConfig, zs: np.ndarray):
    """(slice, gamma_stack(cfg, zs[slice])) in order over the flat zs, at most
    max(1, _BATCH_ENTRIES // N**2) matrices a batch: the one route by which a
    stack of many z is assembled, so no batch outgrows the bound."""
    step = max(1, _BATCH_ENTRIES // cfg.n ** 2)
    for start in range(0, zs.size, step):
        sl = slice(start, start + step)
        yield sl, gamma_stack(cfg, zs[sl])


def gamma_imag_axis(cfg: PointConfig, ts) -> np.ndarray:
    """Gamma(i*t) at a batch of real t, assembled directly as real symmetric
    matrices: diagonal alpha_j + t/4pi, off-diagonal -exp(-t d)/(4 pi d).

    The formula holds for every real t; t > 0 is the bound-state semi-axis,
    t < 0 the part of the imaginary axis below the real one.  `ts` may have
    any shape, a scalar included; the result has shape ts.shape + (N, N).
    """
    ts = np.asarray(ts, dtype=float)
    d = cfg.distances
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -ts[..., None, None] * d
        np.exp(out, out=out)
        out /= -FOUR_PI * d  # in place: one full-size array per batch
    idx = np.arange(cfg.n)
    out[..., idx, idx] = cfg.alpha + ts[..., None] / FOUR_PI
    return out


def row_sum_bound(cfg: PointConfig) -> float:
    """4 pi max|alpha| + (N-1)/d_min; ValueError where that overflows.

    For real |z| above this value the diagonal -iz/4pi dominates every row of
    Gamma(z), so the matrix is invertible; the same bound caps the imaginary
    semi-axis region where eigenvalue poles can sit.
    """
    reach = 0.0 if cfg.n == 1 else (cfg.n - 1) / cfg.d_min
    bound = FOUR_PI * float(np.abs(cfg.alpha).max()) + reach  # Python floats: no overflow warning
    if not np.isfinite(bound):
        raise ValueError("the row-sum bound 4 pi max|alpha| + (N-1)/d_min overflows")
    return bound


def dominance_start(cfg: PointConfig) -> float:
    """Where strict diagonal dominance of every row of Gamma(k) starts on the
    real axis: every row is dominant at every real k >= the result.

    For real k the off-diagonal moduli 1/(4 pi d_jl) do not depend on k, so
    row j's sum r_j = sum_{l != j} 1/(4 pi d_jl) is fixed while its diagonal
    |alpha_j - ik/4pi| grows.  Row j counts as dominant at k when
    |alpha_j - ik/4pi| > r_j (1 + tau): at every k >= 0 when
    |alpha_j| > r_j (1 + tau), and otherwise at every
    k > s_j = 4 pi sqrt(r_j^2 (1 + tau)^2 - alpha_j^2), whose next float the
    row contributes.  The result is 0 exactly when Gamma(0) has every row
    dominant.  Where every row is, Gamma(k) is invertible (Gershgorin), and
    sigma_min(Gamma(k)) >= min_j (|alpha_j - ik/4pi| - r_j) by Varah's bound
    (J. M. Varah, Linear Algebra Appl. 11 (1975) 3-5) on ||Gamma^-1||_inf
    and, Gamma being symmetric, on ||Gamma^-1||_1.

    tau = 8 N eps covers the rounding.  Each computed 1/(4 pi d_jl) is within
    about 4 eps of exact (three rounded differences, their squares and sum, a
    square root, the rounded 4 pi and a reciprocal), so a computed r_j, a sum
    of N-1 positive terms, is within (N/2 + 4) eps.  The computed diagonal
    modulus, and s_j taken as 4 pi sqrt((t - |alpha_j|)(t + |alpha_j|)) with
    t = r_j (1 + tau), are within 4 eps.  As (1 + 8N eps)(1 - 4 eps) exceeds
    1 + (N/2 + 4) eps, a row dominant by this test is strictly dominant in
    the exact Gamma(k).

    The result is finite: PointConfig rejects distances at or below
    1e-12 max(1, max|point|), so r_j < N / (4 pi 1e-12) and
    s_j <= 4 pi r_j (1 + tau).
    """
    off = cfg.distances + np.diag(np.full(cfg.n, np.inf))  # 1/inf: no diagonal term
    t = (1.0 / (FOUR_PI * off)).sum(axis=1) * (1.0 + 8 * cfg.n * np.finfo(float).eps)
    a = np.abs(cfg.alpha)
    if (a > t).all():
        return 0.0
    s = np.nextafter(FOUR_PI * np.sqrt(np.maximum((t - a) * (t + a), 0.0)), np.inf)
    return float(np.where(a > t, 0.0, s).max())
