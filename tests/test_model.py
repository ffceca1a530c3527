import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import logdet_central_difference, random_config, two_center_config
from deltaspec import (
    ConfigError,
    PointConfig,
    SingularityError,
    gamma_stack,
    green_kernel,
)
from deltaspec.model import FOUR_PI, dominance_start, gamma_imag_axis, row_sum_bound
from deltaspec.resonance import _trace_logdet
from sinc import sinc, sinc_gram
from sphere import sphere_points

ORIGIN = [0.0, 0.0, 0.0]


# ---------------------------------------------------------------- config


def test_config_basic_fields():
    cfg = two_center_config(-1.0, 2.0)
    assert cfg.n == 2
    assert cfg.d_min == pytest.approx(2.0)
    assert cfg.distances[0, 1] == pytest.approx(2.0)


def test_config_keeps_d_min_from_the_coincidence_check(monkeypatch):
    cfg = random_config(np.random.default_rng(3), 6)
    expect = min(
        np.linalg.norm(p - q) for i, p in enumerate(cfg.points) for q in cfg.points[i + 1:]
    )
    monkeypatch.setattr(np, "triu_indices", None)  # d_min reads a stored value
    assert cfg.d_min == pytest.approx(expect, rel=1e-15)
    assert isinstance(cfg.d_min, float)


def test_config_single_center_has_no_dmin():
    cfg = PointConfig(alpha=[1.0], points=[ORIGIN])
    assert cfg.n == 1
    assert cfg.d_min is None


def test_config_rejects_duplicate_points():
    with pytest.raises(ConfigError) as err:
        PointConfig(alpha=[1.0, 2.0], points=[ORIGIN, ORIGIN])
    assert "/points/1" in str(err.value)


def test_config_rejects_near_duplicates_relative_to_scale():
    with pytest.raises(ConfigError):
        PointConfig(alpha=[1.0, 2.0], points=[[1e6, 0, 0], [1e6 + 1e-8, 0, 0]])


def test_config_rejects_nonfinite_alpha():
    with pytest.raises(ConfigError) as err:
        PointConfig(alpha=[1.0, np.inf], points=[ORIGIN, [1, 0, 0]])
    assert err.value.pointer == "/alpha/1"


def test_config_rejects_length_mismatch():
    with pytest.raises(ConfigError):
        PointConfig(alpha=[1.0, 2.0], points=[ORIGIN, [1, 0, 0], [2, 0, 0]])


def test_config_rejects_overflowing_distance():
    # both points are finite, but their distance overflows to inf
    with pytest.raises(ConfigError) as err:
        PointConfig(alpha=[1.0, -1.0], points=[ORIGIN, [1e200, 1e200, 0]])
    assert err.value.pointer == "/points"


def test_config_is_immutable():
    cfg = two_center_config(1.0, 1.0)
    with pytest.raises(ValueError):
        cfg.alpha[0] = 5.0


# ---------------------------------------------------------------- green kernel


def test_green_kernel_at_zero_momentum():
    assert green_kernel(0.0, ORIGIN, [1, 0, 0]) == pytest.approx(1.0 / FOUR_PI)
    assert 1.0 / FOUR_PI == pytest.approx(0.0795774715, abs=1e-10)


def test_green_kernel_at_pi():
    assert green_kernel(np.pi, ORIGIN, [0, 1, 0]) == pytest.approx(-1.0 / FOUR_PI)


def test_green_kernel_imaginary_momentum():
    val = green_kernel(1j, ORIGIN, [0, 0, 2.0])
    assert val == pytest.approx(np.exp(-2.0) / (8 * np.pi))


def test_green_kernel_singular_at_coincidence():
    with pytest.raises(SingularityError):
        green_kernel(1.0, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_green_kernel_rejects_overflowing_distance():
    with pytest.raises(ValueError, match="not finite"):
        green_kernel(1.0, ORIGIN, [1e200, 1e200, 0])


def test_green_kernel_stack_matches_two_point_calls():
    # a pair and a stack take their distances from one routine: bit for bit
    rng = np.random.default_rng(5)
    xs, y = rng.uniform(-2.0, 2.0, (40, 3)), rng.uniform(-2.0, 2.0, 3)
    z = 1.3 - 0.4j
    stacked = green_kernel(z, xs, y)
    assert stacked.shape == (40,)
    singles = [green_kernel(z, x, y) for x in xs]
    assert np.array_equal(stacked, singles)
    assert np.array_equal(green_kernel(z, y, xs), stacked)
    assert isinstance(green_kernel(z, xs[0], y), complex)
    with pytest.raises(SingularityError):
        green_kernel(z, np.vstack([xs[:4], y]), y)
    with pytest.raises(ValueError, match="not finite"):
        green_kernel(z, np.vstack([xs[:4], [1e200, 1e200, 0]]), y)


@pytest.mark.parametrize("seed", range(4))
def test_green_kernel_is_minus_gamma_off_the_diagonal(seed):
    # Gamma_jk = -G_z(|y_j - y_k|) with the same rounding of the distance, for
    # two centers and for one center against a stack of the others
    rng = np.random.default_rng(300 + seed)
    cfg = random_config(rng, 8, radius=2.0, min_dist=0.2)
    zs = [1.3 - 0.4j, 0.2 + 2.5j, 4.0]
    for z, g in zip(zs, gamma_stack(cfg, zs)):
        for j in range(cfg.n):
            others = np.delete(np.arange(cfg.n), j)
            assert np.array_equal(green_kernel(z, cfg.points[others], cfg.points[j]), -g[j, others])
            assert all(green_kernel(z, cfg.points[j], cfg.points[k]) == -g[j, k] for k in others)


# ---------------------------------------------------------------- gamma assembly


def test_gamma_one_center_imaginary_z():
    cfg = PointConfig(alpha=[2.0], points=[ORIGIN])
    g = gamma_stack(cfg, 4j * np.pi)
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(3.0)


def test_gamma_two_centers_at_zero():
    cfg = PointConfig(alpha=[0.3, -0.7], points=[ORIGIN, [1, 0, 0]])
    g = gamma_stack(cfg, 0.0)
    expect = np.array([[0.3, -1 / FOUR_PI], [-1 / FOUR_PI, -0.7]])
    np.testing.assert_allclose(g, expect, rtol=0, atol=1e-15)


def test_gamma_conjugation_symmetry_on_real_axis():
    rng = np.random.default_rng(3)
    cfg = random_config(rng, 4)
    for z in (0.37, 2.0, 11.5):
        gp = gamma_stack(cfg, z)
        gm = gamma_stack(cfg, -z)
        np.testing.assert_array_equal(gm, np.conj(gp))


def test_gamma_complex_symmetry_exact():
    rng = np.random.default_rng(4)
    cfg = random_config(rng, 5)
    g = gamma_stack(cfg, 1.3 - 0.8j)
    np.testing.assert_array_equal(g, g.T)


def test_gamma_reflection_identity():
    # Gamma(-conj z) = conj Gamma(z): the zero set is mirror-symmetric.
    rng = np.random.default_rng(5)
    cfg = random_config(rng, 3)
    z = 0.9 - 1.7j
    np.testing.assert_allclose(
        gamma_stack(cfg, -np.conj(z)), np.conj(gamma_stack(cfg, z)), rtol=0, atol=0
    )


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(min_value=0.1, max_value=10.0),
    re=st.floats(min_value=-5.0, max_value=5.0),
    im=st.floats(min_value=-5.0, max_value=5.0),
)
def test_gamma_scaling_property(lam, re, im):
    cfg = two_center_config(-0.8, 1.6)
    z = complex(re, im)
    scaled = PointConfig(alpha=cfg.alpha / lam, points=lam * cfg.points)
    lhs = gamma_stack(cfg, lam * z)
    rhs = lam * gamma_stack(scaled, z)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


def test_gamma_imag_axis_matches_complex_assembly():
    rng = np.random.default_rng(6)
    cfg = random_config(rng, 4)
    lams = (0.0, 0.5, 7.0, -0.05, -0.5)
    for lam in lams:
        direct = gamma_imag_axis(cfg, lam)
        via_complex = gamma_stack(cfg, 1j * lam)
        np.testing.assert_allclose(direct, via_complex.real, rtol=0, atol=1e-14)
        np.testing.assert_allclose(via_complex.imag, 0.0, rtol=0, atol=1e-16)
    batch = gamma_imag_axis(cfg, np.array(lams))
    assert batch.shape == (len(lams), 4, 4)
    for row, lam in zip(batch, lams):
        assert np.array_equal(row, gamma_imag_axis(cfg, lam))


# ---------------------------------------------------------------- derivative


# resonance._trace_logdet reads Gamma' off Gamma: the log-derivative it gives
# is checked against closed forms and against differences of log det Gamma.


def test_trace_logdet_one_center_closed_form():
    cfg = PointConfig(alpha=[0.4], points=[ORIGIN])
    zs = np.array([2.3 + 1j, 0.0, -1.5 - 4j])
    exact = (-1j / FOUR_PI) / (0.4 - 1j * zs / FOUR_PI)
    np.testing.assert_allclose(_trace_logdet(cfg, zs), exact, rtol=1e-14, atol=0)


def test_trace_logdet_two_centers_at_zero():
    # Gamma'(0) = -i/4pi on every entry, so the trace is -i/4pi sum(Gamma(0)^-1)
    cfg = two_center_config(0.9, 1.7)
    exact = -1j / FOUR_PI * np.linalg.inv(gamma_stack(cfg, 0.0)).sum()
    assert abs(_trace_logdet(cfg, 0.0) - exact) <= 1e-15 * abs(exact)


@pytest.mark.parametrize("z", [0.7 + 0.3j, 0.7 - 4j])
def test_trace_logdet_matches_central_differences_second_order(z):
    # at Im z = -4 the phases exp(i z d) grow like exp(4 d)
    cfg = PointConfig(
        alpha=[0.5, -1.2, 2.0],
        points=[ORIGIN, [2.0, 0, 0], [0, 2.5, 0]],
    )
    exact = _trace_logdet(cfg, z)
    # log det Gamma is rounded to ~eps |log det|, so its differences reach
    # rounding near h = 1e-5; the steps stay above that
    err = {h: abs(logdet_central_difference(cfg, z, h) - exact) for h in (1e-2, 1e-3)}
    assert err[1e-2] < 1e-5
    ratio = err[1e-2] / err[1e-3]
    assert 30.0 < ratio < 300.0  # O(h^2): ratio ~ 100


# ---------------------------------------------------------------- real split
# Gamma(z) = A - iB at real z > 0: A is the real part, B minus the imaginary part.


def test_real_split_one_center():
    cfg = PointConfig(alpha=[3.0], points=[ORIGIN])
    g = gamma_stack(cfg, 1.0)
    np.testing.assert_allclose(g.real, [[3.0]])
    np.testing.assert_allclose(-g.imag, [[1.0 / FOUR_PI]])


def test_real_split_sinc_zero_at_pi():
    cfg = two_center_config(0.0, 1.0)
    b = -gamma_stack(cfg, np.pi).imag
    np.testing.assert_allclose(b, (np.pi / FOUR_PI) * np.eye(2), rtol=0, atol=1e-16)


# ---------------------------------------------------------------- sinc and gram


def test_sinc_values():
    assert sinc(0.0) == 1.0
    assert sinc(np.pi) == pytest.approx(0.0, abs=1e-16)
    assert sinc(1e-6) == pytest.approx(1.0 - 1e-12 / 6.0, abs=1e-17)
    xs = np.array([1e-9, 1e-5, 1e-3, 0.1, 2.0])
    np.testing.assert_allclose(sinc(xs), np.sinc(xs / np.pi), rtol=1e-15)


def test_sinc_continuous_across_taylor_cut():
    below, above = 1e-4 * (1 - 1e-12), 1e-4 * (1 + 1e-12)
    assert abs(sinc(below) - sinc(above)) < 1e-15


def _where_sinc(x):
    # the formula before the Taylor polynomial was restricted to small |x|
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 - x * x / 6.0 + x ** 4 / 120.0, np.sin(safe) / safe)
    return float(out) if out.ndim == 0 else out


def test_sinc_bit_identical_to_where_formula():
    cut = 1e-4
    edge = [0.0, -0.0, cut, -cut, np.nextafter(cut, 0), -np.nextafter(cut, 0),
            np.nextafter(cut, 1), -np.nextafter(cut, 1), 3e-5, -7e-5, 2e-4, -5e-3]
    rng = np.random.default_rng(213)
    arrays = [np.array(edge), rng.standard_normal((7, 5, 5)) * 10.0,
              rng.standard_normal(1000) * 1e-4, np.zeros((3, 0))]
    for x in arrays:
        got, want = sinc(x), _where_sinc(x)
        assert got.shape == want.shape and np.array_equal(got, want)
    for x in [*edge, 1, 2.5, -1e-300, np.array(0.0), np.array(-3.0)]:
        got = sinc(x)
        assert type(got) is float and got == _where_sinc(x)


def test_sinc_gram_single_center():
    cfg = PointConfig(alpha=[1.0], points=[ORIGIN])
    np.testing.assert_array_equal(sinc_gram(cfg, 1.0), [[1.0]])


def test_sinc_gram_half_pi():
    cfg = two_center_config(1.0, 1.0)
    s = sinc_gram(cfg, np.pi / 2)
    assert s[0, 1] == pytest.approx(2.0 / np.pi)
    assert s[0, 1] == pytest.approx(0.63662, abs=1e-5)


def test_sinc_gram_equilateral_at_pi():
    d = 1.3
    pts = [[0, 0, 0], [d, 0, 0], [d / 2, d * np.sqrt(3) / 2, 0]]
    cfg = PointConfig(alpha=[0.0, 0.0, 0.0], points=pts)
    s = sinc_gram(cfg, np.pi / d)
    np.testing.assert_allclose(s, np.eye(3), rtol=0, atol=1e-14)


def test_sinc_gram_entries_bounded():
    rng = np.random.default_rng(8)
    cfg = random_config(rng, 6)
    s = sinc_gram(cfg, 3.7)
    assert np.all(np.diag(s) == 1.0)
    assert np.abs(s).max() <= 1.0


def test_sinc_gram_rejects_nonpositive_z():
    cfg = two_center_config(1.0, 1.0)
    with pytest.raises(ValueError):
        sinc_gram(cfg, 0.0)
    with pytest.raises(ValueError):
        sinc_gram(cfg, [1.0, 0.0])


# ---------------------------------------------------------------- sphere identity


def test_sinc_equals_plane_wave_sphere_average():
    # mean over the unit sphere of exp(i x . p) equals sinc(|x|)
    rng = np.random.default_rng(9)
    pts, w = sphere_points(10_000, seed=11, method="gauss")
    for _ in range(5):
        x = rng.uniform(-3, 3, size=3)
        est = np.sum(w * np.exp(1j * pts @ x))
        assert abs(est - sinc(np.linalg.norm(x))) < 1e-9


def test_sinc_sphere_average_fibonacci_and_uniform():
    x = np.array([0.8, -0.5, 1.1])
    exact = sinc(np.linalg.norm(x))
    pts, w = sphere_points(10_000, seed=3, method="fibonacci")
    assert abs(np.sum(w * np.exp(1j * pts @ x)) - exact) < 1e-4
    pts, w = sphere_points(200_000, seed=3, method="uniform")
    assert abs(np.sum(w * np.exp(1j * pts @ x)) - exact) < 1e-2


# ---------------------------------------------------------------- large-z bound


def test_row_sum_bound_value():
    cfg = two_center_config(1.0, 1.0)
    assert row_sum_bound(cfg) == pytest.approx(FOUR_PI + 1.0)


def off_diagonal_sums(cfg) -> np.ndarray:
    """r_j = sum over l != j of 1/(4pi |y_j - y_l|), from the points alone."""
    return np.array([
        sum(1.0 / (FOUR_PI * np.linalg.norm(p - q)) for q in np.delete(cfg.points, j, 0))
        for j, p in enumerate(cfg.points)
    ])


def test_varah_bound_holds_wherever_every_row_is_dominant():
    # random configs, most strengths at or near +-r_j: at 500 random k each,
    # wherever dominance_start says every row is dominant, every row is in
    # exact terms, and an independent SVD is at least Varah's
    # min_j (|Gamma_jj(k)| - r_j), less the SVD's own rounding
    rng = np.random.default_rng(2602)
    eps = np.finfo(float).eps
    starts = []
    for _ in range(40):
        n = int(rng.integers(1, 9))
        cfg = random_config(rng, n, radius=2.0, min_dist=0.3)
        r = off_diagonal_sums(cfg)
        near = r * rng.choice([-1.0, 1.0], size=n)
        near *= 1.0 + rng.choice([0.0, 1e-12, -1e-12, 1e-3, -1e-3, -0.5], size=n)
        alpha = np.where(rng.uniform(size=n) < 0.7, near, cfg.alpha) if n > 1 else cfg.alpha
        cfg = PointConfig(alpha=alpha, points=cfg.points)
        start = dominance_start(cfg)
        starts.append(start)
        ks = np.append(rng.uniform(0.0, 2.0 * start + 1.0, size=499), start)
        ks = ks[ks >= start]
        diag = np.abs(cfg.alpha - 1j * ks[:, None] / FOUR_PI)
        assert np.all(diag > r)
        g = gamma_stack(cfg, ks)
        sigma = np.linalg.svd(g, compute_uv=False)[:, -1]
        rounding = 8 * n * eps * np.abs(g).sum(axis=2).max(axis=1)
        assert np.all(sigma >= (diag - r).min(axis=1) - rounding)
        if start > 0.0:
            # and the start is sharp: at half of it some row is not dominant
            # with the margin 8 N eps
            diag = np.abs(cfg.alpha - 0.5j * start / FOUR_PI)
            assert np.any(diag <= r * (1.0 + 8 * n * eps))
    starts = np.array(starts)
    assert (starts == 0.0).sum() >= 5 and ((starts > 0.0) & (starts < 1e-4)).sum() >= 5

