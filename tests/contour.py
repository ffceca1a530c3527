"""Contour oracle for the Laurent coefficients of Gamma(z)**-1 at z = 0.

The trapezoid rule on the circle |z| = radius, spectrally accurate for this
periodic integrand, gives the coefficients of z**-2 and z**-1 of the Laurent
series of the annulus the circle lies in.  They are those at 0 only when the
circle encloses no other pole of Gamma(z)**-1; otherwise the sum of every
enclosed residue comes out.  `contour_laurent` therefore refuses a circle on
which det Gamma winds more often than the order of its zero at 0,
kernel_dim + eigenvalue_multiplicity (a Schur complement onto the kernel of
Gamma(0) vanishes like z**kernel_dim, one onto its zero-sum part like
z**eigenvalue_multiplicity).
"""

import numpy as np

from deltaspec.model import gamma_stack
from deltaspec.spectral import classify_zero


def contour_laurent(cfg, radius, nodes=512):
    """(A_-2, A_-1) of Gamma(z)**-1 at 0 from `nodes` trapezoid nodes on
    |z| = radius, after checking that the circle encloses no other pole."""
    zs = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    g = gamma_stack(cfg, zs)
    det = np.linalg.det(g)
    winding = np.angle(np.roll(det, -1) / det).sum() / (2.0 * np.pi)
    cls = classify_zero(cfg)
    order = cls.kernel_dim + cls.eigenvalue_multiplicity
    assert abs(winding - order) < 1e-6, f"circle winds {winding:.6g} times, not {order}"
    inv = np.linalg.inv(g)
    return (inv * (zs * zs)[:, None, None]).mean(axis=0), (inv * zs[:, None, None]).mean(axis=0)
