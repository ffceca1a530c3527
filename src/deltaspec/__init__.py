"""deltaspec: spectral analysis of the 3D Laplacian with N point interactions.

Everything is driven by the explicit N x N characteristic matrix Gamma(z):
its kernel on the positive imaginary axis gives the negative eigenvalues,
its kernel at 0 classifies the threshold, its complex zeros are the
resonances, and its non-singularity on the real axis is proved by diagonal
dominance where every row is dominant, a Lipschitz bound on its smallest
singular value below that, and an analytic large-momentum bound.
"""

__version__ = "0.1.0"

from .model import (
    ConfigError,
    PointConfig,
    SingularityError,
    gamma_stack,
    green_kernel,
)
from .linalg import SingularMatrixError
from .spectral import (
    LaurentCoefficients,
    SpectralReport,
    ZeroClassification,
    classify_zero,
    laurent_at_zero,
    negative_eigenvalues,
)
from .resonance import (
    Box,
    Certificate,
    ResonanceSet,
    certify_real_axis,
    count_zeros_in_box,
    find_resonances,
)
from .resolvent import helmholtz_residual, resolvent_kernel

__all__ = [
    "__version__",
    "ConfigError",
    "SingularityError",
    "PointConfig",
    "green_kernel",
    "gamma_stack",
    "SingularMatrixError",
    "SpectralReport",
    "ZeroClassification",
    "LaurentCoefficients",
    "negative_eigenvalues",
    "classify_zero",
    "laurent_at_zero",
    "Box",
    "ResonanceSet",
    "Certificate",
    "count_zeros_in_box",
    "find_resonances",
    "certify_real_axis",
    "resolvent_kernel",
    "helmholtz_residual",
]
