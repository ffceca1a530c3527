import numpy as np
import pytest

from conftest import random_config, two_center_config
from deltaspec import (
    PointConfig,
    SingularityError,
    SingularMatrixError,
    green_kernel,
    helmholtz_residual,
    resolvent_kernel,
)
from deltaspec.linalg import SIGMA_FLOOR
from deltaspec.model import FOUR_PI, gamma_stack
import deltaspec.resolvent as resolvent
from domain import (
    DomainFunction,
    GaussianTestFunction,
    boundary_condition_residual,
    radial_boundary_residual,
)

ORIGIN = [0.0, 0.0, 0.0]


def free_kernel_fd_residual(z, x, xp, h):
    """7-point Helmholtz residual of the free kernel alone (no centers)."""
    x = np.asarray(x, dtype=float)
    center = green_kernel(z, x, xp)
    acc = 0.0 + 0.0j
    for e in np.eye(3):
        acc += green_kernel(z, x + h * e, xp)
        acc += green_kernel(z, x - h * e, xp)
    lap = (acc - 6.0 * center) / (h * h)
    return abs(-lap - z * z * center)


# ---------------------------------------------------------------- kernel


def test_kernel_reduces_to_free_kernel_for_huge_alpha():
    # alpha -> infinity turns the interaction off: the correction scales as
    # 1/alpha and the kernel approaches the free one
    cfg = PointConfig(alpha=[1e12], points=[ORIGIN])
    x, xp = [1.0, 0.0, 0.0], [0.0, 1.5, 0.5]
    val = resolvent_kernel(cfg, 1.0 + 0.5j, x, xp)
    free = green_kernel(1.0 + 0.5j, x, xp)
    assert abs(val - free) < 1e-12 * abs(free)


def test_kernel_is_symmetric_in_arguments():
    rng = np.random.default_rng(81)
    cfg = random_config(rng, 3, radius=1.0, min_dist=0.4)
    z = 0.8 + 1.1j
    for _ in range(5):
        x = rng.uniform(-2, 2, 3)
        xp = rng.uniform(-2, 2, 3)
        a = resolvent_kernel(cfg, z, x, xp)
        b = resolvent_kernel(cfg, z, xp, x)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_kernel_single_center_hand_formula():
    alpha = 1.0
    cfg = PointConfig(alpha=[alpha], points=[ORIGIN])
    z = 1j
    x = np.array([0.7, 0.1, -0.3])
    xp = np.array([-0.4, 0.8, 0.6])
    gamma_val = alpha - 1j * z / FOUR_PI  # = 1 + 1/4pi
    expect = green_kernel(z, x, xp) + (
        green_kernel(z, x, ORIGIN) * green_kernel(z, xp, ORIGIN) / gamma_val
    )
    assert resolvent_kernel(cfg, z, x, xp) == pytest.approx(expect, rel=1e-13)


def test_kernel_rejects_pole_and_coincidence():
    cfg = PointConfig(alpha=[-1.0], points=[ORIGIN])
    with pytest.raises(SingularMatrixError):
        resolvent_kernel(cfg, 4j * np.pi, [1, 0, 0], [0, 1, 0])  # eigenvalue pole
    with pytest.raises(SingularityError):
        resolvent_kernel(cfg, 1j, [1, 0, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        resolvent_kernel(cfg, 1.0 - 0.5j, [1, 0, 0], [0, 1, 0])  # lower half-plane


def test_kernel_rejects_overflowing_distance():
    # the distance from x to a center overflows: computed with, it gives NaN
    cfg = two_center_config(1.0, 1.0)
    far = np.array([1e200, 1e200, 0.0])
    with pytest.raises(ValueError, match="not finite"):
        green_kernel(1.0 + 0j, cfg.points, far)
    with pytest.raises(ValueError, match="not finite"):
        resolvent_kernel(cfg, 1.0, far, [0.0, 0.0, 1.0])


def test_kernel_rejects_scaled_near_pole():
    # Gamma(z) = diag(~1.2e-12, 150): sigma_min is above 1e-12 but not above
    # linalg.SIGMA_FLOOR * max|Gamma|, and the smallest LU pivot is below
    # 1e-14 * max|Gamma|; the floor scales with Gamma, so z counts as a pole
    cfg = PointConfig(alpha=[-100.0, 50.0], points=[ORIGIN, [1.0, 0.0, 0.0]])
    z = 1j * (400.0 * np.pi + 1.5e-11)
    g = gamma_stack(cfg, z)
    sigma_min = np.linalg.svd(g, compute_uv=False)[-1]
    assert 1e-12 < sigma_min <= SIGMA_FLOOR * np.abs(g).max()
    with pytest.raises(SingularMatrixError):
        resolvent_kernel(cfg, z, [0.5, 1.0, 0.0], [0.0, -1.0, 0.5])


def test_kernel_holomorphic_in_z():
    # Cauchy-Riemann via central differences: d/dRe == -i d/dIm to O(h^2)
    rng = np.random.default_rng(82)
    cfg = random_config(rng, 2, radius=1.0, min_dist=0.5)
    x, xp = np.array([1.5, 0.2, 0.0]), np.array([-0.8, 1.0, 0.4])
    z = 0.9 + 0.8j
    h = 1e-4

    def f(w):
        return resolvent_kernel(cfg, w, x, xp)

    d_re = (f(z + h) - f(z - h)) / (2 * h)
    d_im = (f(z + 1j * h) - f(z - 1j * h)) / (2j * h)
    assert abs(d_re - d_im) < 1e-6 * max(1.0, abs(d_re))


def test_kernel_continuous_up_to_real_axis():
    rng = np.random.default_rng(83)
    cfg = random_config(rng, 2, radius=1.0, min_dist=0.5)
    x, xp = np.array([2.0, 0.1, 0.0]), np.array([-1.0, 1.2, 0.3])
    for t in (0.7, 1.9, 3.3):
        vals = [resolvent_kernel(cfg, t + 1j * eps, x, xp) for eps in (0.1, 0.05, 0.025, 0.0125)]
        gaps = [abs(a - b) for a, b in zip(vals, vals[1:])]
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]


# ---------------------------------------------------------------- helmholtz


def test_helmholtz_residual_second_order():
    rng = np.random.default_rng(84)
    cfg = random_config(rng, 2, radius=1.0, min_dist=0.5)
    z = 1.3 + 0.4j
    x = np.array([2.5, 0.3, -0.2])
    xp = np.array([-1.5, 1.0, 0.8])
    r_coarse = helmholtz_residual(cfg, z, x, xp, h=1e-2)
    r_fine = helmholtz_residual(cfg, z, x, xp, h=5e-3)
    assert 3.5 < r_coarse / r_fine < 4.5


def test_helmholtz_residual_inverts_gamma_once(monkeypatch):
    # the seven stencil points share one Gamma^-1, and the residual is the
    # one the kernel gives point by point
    rng = np.random.default_rng(85)
    cfg = random_config(rng, 3, radius=1.0, min_dist=0.5)
    z, x, xp, h = 1.3 + 0.4j, np.array([2.5, 0.3, -0.2]), np.array([-1.5, 1.0, 0.8]), 1e-2
    center = resolvent_kernel(cfg, z, x, xp)
    acc = 0.0 + 0.0j
    for e in np.eye(3):
        acc += resolvent_kernel(cfg, z, x + h * e, xp)
        acc += resolvent_kernel(cfg, z, x - h * e, xp)
    expected = abs(-(acc - 6.0 * center) / (h * h) - z * z * center)
    calls = []
    original = resolvent.inverse
    monkeypatch.setattr(resolvent, "inverse", lambda *a: calls.append(a) or original(*a))
    assert helmholtz_residual(cfg, z, x, xp, h=h) == expected
    assert len(calls) == 1


def test_helmholtz_free_kernel_same_order():
    z = 0.9 + 0.2j
    x, xp = [1.0, 0.4, 0.0], [-1.2, 0.0, 0.3]
    r_coarse = free_kernel_fd_residual(z, x, xp, 1e-2)
    r_fine = free_kernel_fd_residual(z, x, xp, 5e-3)
    assert 3.5 < r_coarse / r_fine < 4.5


def test_helmholtz_negative_control_wrong_energy():
    # replacing z^2 by z^2 + 1 must leave an O(|R|) residual
    cfg = two_center_config(0.5, 1.0)
    z = 1.1 + 0.3j
    x = np.array([2.2, 0.5, 0.1])
    xp = np.array([-1.4, 0.9, 0.6])
    h = 1e-2
    center = resolvent_kernel(cfg, z, x, xp)
    acc = sum(
        resolvent_kernel(cfg, z, x + s * h * e, xp)
        for e in np.eye(3)
        for s in (+1.0, -1.0)
    )
    lap = (acc - 6.0 * center) / (h * h)
    good = abs(-lap - z * z * center)
    bad = abs(-lap - (z * z + 1.0) * center)
    assert bad > 0.5 * abs(center)
    assert bad > 100 * good


def test_helmholtz_rejects_proximity():
    cfg = two_center_config(0.5, 1.0)
    with pytest.raises(ValueError):
        helmholtz_residual(cfg, 1j, [0.05, 0.0, 0.0], [3.0, 0.0, 0.0], h=1e-2)


# ---------------------------------------------------------------- domain


def test_domain_function_with_negligible_trace_values():
    # trial function essentially zero at the centers: zero charges, u == F
    cfg = two_center_config(0.7, 1.0)
    trial = GaussianTestFunction(center=[50.0, 0.0, 0.0], width=1.0)
    u = DomainFunction(cfg, 1j, trial)
    assert np.abs(u.charges).max() < 1e-30
    for x in ([49.0, 0.0, 0.0], [50.5, 0.2, 0.0]):
        assert u(x) == pytest.approx(trial(x), rel=1e-12)


def test_domain_function_single_center_charge():
    alpha = 0.8
    cfg = PointConfig(alpha=[alpha], points=[ORIGIN])
    z = 0.5 + 1.2j
    trial = GaussianTestFunction(center=[0.3, 0.0, 0.0], width=2.0)
    u = DomainFunction(cfg, z, trial)
    expect = trial(ORIGIN) / (alpha - 1j * z / FOUR_PI)
    assert u.charges[0] == pytest.approx(expect, rel=1e-13)


def test_domain_function_linearity():
    cfg = two_center_config(-0.4, 1.3)
    z = 1j
    f1 = GaussianTestFunction(center=[0.5, 0.0, 0.0], width=1.0, amplitude=1.0)
    f2 = GaussianTestFunction(center=[0.0, 0.7, 0.0], width=1.5, amplitude=-0.6)

    def f_sum(x):
        return f1(x) + f2(x)

    x = np.array([0.4, 0.4, 0.4])
    combined = DomainFunction(cfg, z, f_sum)(x)
    separate = DomainFunction(cfg, z, f1)(x) + DomainFunction(cfg, z, f2)(x)
    assert combined == pytest.approx(separate, rel=1e-13)


def test_domain_function_rejects_center_coincidence():
    cfg = two_center_config(0.5, 1.0)
    trial = GaussianTestFunction(center=[0.3, 0.0, 0.0], width=1.0)
    with pytest.raises(SingularityError):
        DomainFunction(cfg, 1j, trial)(ORIGIN)


def test_gaussian_laplacian_closed_form():
    trial = GaussianTestFunction(center=[0.2, -0.1, 0.5], width=1.7, amplitude=2.0)
    x = np.array([1.0, 0.3, -0.4])
    h = 1e-4
    acc = sum(trial(x + s * h * e) for e in np.eye(3) for s in (+1.0, -1.0))
    fd = (acc - 6.0 * trial(x)) / (h * h)
    assert trial.laplacian(x) == pytest.approx(fd, abs=1e-6)


# ---------------------------------------------------------------- boundary


def test_boundary_residual_vanishes_linearly():
    cfg = two_center_config(0.6, 1.0)
    trial = GaussianTestFunction(center=[0.3, 0.2, 0.0], width=1.5)
    z = 0.7 + 0.9j
    for j in range(cfg.n):
        res = [
            boundary_condition_residual(cfg, z, trial, j, r)
            for r in (1e-2, 1e-3, 1e-4)
        ]
        assert res[0] / res[1] > 5.0
        assert res[1] / res[2] > 5.0


def test_boundary_residual_plain_function_vanishing_at_center():
    # a smooth function that vanishes at the center satisfies the condition
    cfg = PointConfig(alpha=[0.9], points=[ORIGIN])
    far = GaussianTestFunction(center=[40.0, 0.0, 0.0], width=1.0)
    res = radial_boundary_residual(far, ORIGIN, 0.9, 1e-3)
    assert res < 1e-30


def test_boundary_residual_negative_control():
    # plain smooth F with F(y_j) = 1 violates the condition: residual -> 1
    cfg = PointConfig(alpha=[0.9], points=[ORIGIN])
    bump = GaussianTestFunction(center=ORIGIN, width=2.0, amplitude=1.0)
    res = radial_boundary_residual(bump, ORIGIN, 0.9, 1e-4)
    assert res == pytest.approx(1.0, abs=1e-2)


def test_boundary_residual_radius_validation():
    cfg = two_center_config(0.6, 1.0)
    trial = GaussianTestFunction(center=[0.3, 0.2, 0.0], width=1.5)
    with pytest.raises(ValueError):
        boundary_condition_residual(cfg, 1j, trial, 0, 0.5)  # >= d_min/4
    with pytest.raises(ValueError):
        boundary_condition_residual(cfg, 1j, trial, 5, 1e-3)  # bad index


def test_boundary_residual_every_center_random_config():
    rng = np.random.default_rng(85)
    cfg = random_config(rng, 3, radius=1.0, min_dist=0.6, alpha_scale=2.0)
    trial = GaussianTestFunction(center=[0.1, 0.1, 0.1], width=2.0)
    z = 1.3 + 0.7j
    scale = cfg.d_min
    for j in range(cfg.n):
        res = [
            boundary_condition_residual(cfg, z, trial, j, f * scale)
            for f in (1e-2, 1e-3, 1e-4)
        ]
        assert res[0] > res[1] > res[2]
