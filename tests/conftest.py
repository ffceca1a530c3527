import numpy as np

from deltaspec import PointConfig
from deltaspec.model import FOUR_PI


def random_config(rng, n, radius=5.0, min_dist=0.1, alpha_scale=5.0):
    """Seeded random configuration: centers in the ball of given radius with
    pairwise distance at least min_dist, strengths uniform in +-alpha_scale."""
    while True:
        directions = rng.standard_normal((n, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = radius * rng.uniform(0.0, 1.0, size=n) ** (1.0 / 3.0)
        pts = directions * radii[:, None]
        if n == 1:
            break
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=-1))
        iu, ju = np.triu_indices(n, k=1)
        if dist[iu, ju].min() >= min_dist:
            break
    alpha = rng.uniform(-alpha_scale, alpha_scale, size=n)
    return PointConfig(alpha=alpha, points=pts)


def two_center_config(a, d):
    """Symmetric two-center configuration with equal strengths a at distance d."""
    return PointConfig(alpha=[a, a], points=[[0.0, 0.0, 0.0], [d, 0.0, 0.0]])


def threshold_pole_on_node_config(eps=0.0):
    """Two centers 2 apart with det Gamma(0) = 0 (alpha_A alpha_B = 1/(8pi)^2,
    a zero resonance) and det Gamma(-0.01i) = 0, a second pole of Gamma^-1 near
    0, on node 48 of a 64-node circle of radius 0.01.  Gamma(-it) is real
    symmetric, so eps added to both strengths shifts its eigenvalues by eps:
    the smallest is then |eps| at that node and at z = 0."""
    d, c = 2.0, 0.01 / FOUR_PI
    k = 1.0 / (FOUR_PI * d) ** 2
    s = (k * (1.0 - np.exp(0.02 * d)) + c * c) / c  # alpha_A + alpha_B
    root = np.sqrt(s * s - 4.0 * k)
    alpha = [0.5 * (s + root) + eps, 0.5 * (s - root) + eps]
    return PointConfig(alpha=alpha, points=[[0.0, 0.0, 0.0], [d, 0.0, 0.0]])
