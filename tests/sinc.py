"""The sinc Gram matrix of the paper's lemma, for the property tests.

On the positive real axis Gamma(z) = A - iB with B = (z/4pi) S and
S_jk = sinc(z d_jk) positive definite, so Gamma(z) is invertible.  The
library proves that from Gamma alone (`certify_real_axis`); the tests check
the lemma itself against these helpers.
"""

import numpy as np

from deltaspec.model import PointConfig

# |x| below which sinc switches to its Taylor polynomial.
SINC_TAYLOR_CUT = 1e-4


def sinc(x):
    """sin(x)/x with sinc(0) = 1.

    Below |x| = 1e-4 the three-term Taylor polynomial 1 - x^2/6 + x^4/120 is
    used to avoid cancellation; its truncation error there is below 1e-25
    relative.  Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < SINC_TAYLOR_CUT
    safe = np.where(small, 1.0, x)
    out = np.sin(safe, out=np.empty_like(safe))  # an array even for a scalar x
    out /= safe
    xs = x[small]  # the polynomial only where it is used
    out[small] = 1.0 - xs * xs / 6.0 + xs ** 4 / 120.0
    return float(out) if out.ndim == 0 else out


def sinc_gram(cfg: PointConfig, zs) -> np.ndarray:
    """Gram matrices S_jk = sinc(z d_jk) at a batch of z > 0; the imaginary
    part of Gamma on the positive real axis is (z/4pi) S.  Unit diagonal,
    entries in [-1, 1]; the result has shape zs.shape + (N, N)."""
    zs = np.asarray(zs, dtype=float)
    if not np.all(zs > 0.0):
        raise ValueError("sinc_gram requires z > 0")
    return sinc(zs[..., None, None] * cfg.distances)
