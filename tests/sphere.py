"""Sphere averages and exponential sums behind the sinc-Gram lemma.

The tests check the lemma's Gram matrix (tests/sinc.py) against its sphere
integral, v.S(z)v = mean over |p| = 1 of |sum_j v_j exp(i z y_j . p)|^2,
and the linear independence of the exponentials exp(i y_j . p) that makes
S(z) positive definite.  No library path needs these helpers.

`sphere_points` provides a seeded, randomly rotated Gauss-Legendre product
rule (spectrally accurate; the rotation makes the weighted average an
unbiased estimator of the spherical mean), plus equal-weight Fibonacci and
iid uniform samplers for cross-checks.
"""

import numpy as np


def _pairwise_min_distance(points: np.ndarray) -> float:
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    iu, ju = np.triu_indices(points.shape[0], k=1)
    return float(dist[iu, ju].min())


def has_distinct_projections(points, a, min_separation_factor: float = 1e-8) -> bool:
    """True when the projections a . y_j are pairwise separated by at least
    min_separation_factor * d_min of the point set."""
    points = np.asarray(points, dtype=float)
    if points.shape[0] < 2:
        return True
    proj = np.sort(points @ np.asarray(a, dtype=float))
    return bool(np.diff(proj).min() >= min_separation_factor * _pairwise_min_distance(points))


def distinct_direction(
    points,
    min_separation_factor: float = 1e-8,
    seed: int = 0,
    max_tries: int = 10_000,
) -> np.ndarray:
    """Unit vector whose projections of the given (pairwise distinct) points
    are pairwise distinct.

    Directions failing the separation test form a null set (finitely many
    hyperplane sections of the sphere), so seeded rejection sampling accepts
    almost surely; persistent rejection signals near-duplicate points.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be an M x d array, M >= 1")
    dim = points.shape[1]
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        a = rng.standard_normal(dim)
        norm = np.linalg.norm(a)
        if norm == 0.0:
            continue
        a /= norm
        if has_distinct_projections(points, a, min_separation_factor):
            return a
    raise RuntimeError(
        f"no separating direction after {max_tries} tries; points may be nearly duplicate"
    )


def exp_sum_on_sphere(points, v, p) -> complex:
    """sum_j v_j exp(i y_j . p) for a unit vector p (|p| = 1 within 1e-12)."""
    points = np.asarray(points, dtype=float)
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    if abs(float(np.linalg.norm(p)) - 1.0) > 1e-12:
        raise ValueError("p must be a unit vector within 1e-12")
    return complex(np.sum(v * np.exp(1j * points @ p)))


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def sphere_points(n: int, seed=None, method: str = "gauss"):
    """Points p_i and weights w_i (sum 1) for averaging over the unit sphere.

    method "gauss": product Gauss-Legendre x equispaced-azimuth rule on an
    isqrt(n) x (n // isqrt(n)) grid -- spectrally accurate for smooth
    integrands.  method "fibonacci": n equal-weight spiral points (a
    quasi-uniform sample, accurate to roughly 1e-6 * |x| per 1e4 points for
    plane waves).  method "uniform": n iid uniform samples (error ~ n**-0.5).
    A seed applies a uniform random rotation to the whole point set, making
    the weighted average an unbiased estimator of the spherical mean.
    """
    if n < 1:
        raise ValueError("sphere_points requires n >= 1")
    if method == "gauss":
        n_theta = max(1, int(np.sqrt(n)))
        n_phi = max(1, n // n_theta)
        x, w = np.polynomial.legendre.leggauss(n_theta)
        phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
        r = np.sqrt(np.maximum(0.0, 1.0 - x * x))
        pts = np.empty((n_theta, n_phi, 3))
        pts[..., 0] = r[:, None] * np.cos(phi)[None, :]
        pts[..., 1] = r[:, None] * np.sin(phi)[None, :]
        pts[..., 2] = x[:, None]
        weights = np.broadcast_to(w[:, None] / (2.0 * n_phi), (n_theta, n_phi))
        pts = pts.reshape(-1, 3)
        weights = np.asarray(weights).reshape(-1)
    elif method == "fibonacci":
        i = np.arange(n)
        golden = np.pi * (3.0 - np.sqrt(5.0))
        zc = 1.0 - (2.0 * i + 1.0) / n
        r = np.sqrt(np.maximum(0.0, 1.0 - zc * zc))
        theta = golden * i
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta), zc])
        weights = np.full(n, 1.0 / n)
    elif method == "uniform":
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        return pts, np.full(n, 1.0 / n)
    else:
        raise ValueError(f"unknown sphere sampling method {method!r}")
    if seed is not None:
        pts = pts @ _random_rotation(np.random.default_rng(seed)).T
    return pts, weights
