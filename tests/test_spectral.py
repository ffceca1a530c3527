import functools
import logging
import re

import numpy as np
import pytest

from cholesky import NotPositiveDefinite, cholesky
from conftest import random_config, threshold_pole_on_node_config, two_center_config
from contour import contour_laurent
from deltaspec import (
    PointConfig,
    SingularityError,
    classify_zero,
    laurent_at_zero,
    negative_eigenvalues,
)
from deltaspec.model import FOUR_PI, gamma_imag_axis, row_sum_bound
from deltaspec.spectral import MIXED, REGULAR, ZERO_EIGENVALUE, ZERO_RESONANCE
import deltaspec.spectral as spectral
from domain import eigenfunction_eval
from sphere import sphere_points

ORIGIN = [0.0, 0.0, 0.0]


def scalar_bisect(f, lo, hi, iters=200):
    """Plain bisection oracle for a function increasing through zero."""
    assert f(lo) < 0.0 < f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def two_center_branch_roots(a, d):
    """Roots of a + lam/4pi = +-exp(-lam d)/(4 pi d): the closed-form
    symmetric/antisymmetric eigenvalue conditions for two equal centers."""
    hi = FOUR_PI * abs(a) + 1.0 / d + 1.0
    roots = [scalar_bisect(lambda t: a + t / FOUR_PI - np.exp(-t * d) / (FOUR_PI * d), 0.0, hi)]
    if a + 1.0 / (FOUR_PI * d) < 0.0:  # the minus branch only crosses when negative at 0
        roots.append(
            scalar_bisect(lambda t: a + t / FOUR_PI + np.exp(-t * d) / (FOUR_PI * d), 0.0, hi)
        )
    return sorted(roots)


# ---------------------------------------------------------------- spectrum


def test_single_center_negative_alpha():
    cfg = PointConfig(alpha=[-1.0], points=[ORIGIN])
    records = negative_eigenvalues(cfg)
    assert len(records) == 1
    rec = records[0]
    assert rec.lam == pytest.approx(FOUR_PI, abs=1e-10)
    assert rec.energy == pytest.approx(-((FOUR_PI) ** 2), abs=1e-9)
    assert rec.multiplicity == 1
    assert len(rec.coefficients) == 1
    np.testing.assert_allclose(np.abs(rec.coefficients[0]), [1.0])


@pytest.mark.parametrize("alpha", [-1e15, -1e16, -1e17])
def test_single_center_huge_negative_alpha(alpha):
    # past lam = 4 pi 1e15 one ulp is 2: an absolute margin of 1 over the
    # row-sum bound is lost and the upper bracket is not positive definite
    [rec] = negative_eigenvalues(PointConfig(alpha=[alpha], points=[ORIGIN]))
    assert (rec.lam, rec.multiplicity) == (-FOUR_PI * alpha, 1)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.7, 3.0])
def test_single_center_nonnegative_alpha_empty(alpha):
    cfg = PointConfig(alpha=[alpha], points=[ORIGIN])
    assert negative_eigenvalues(cfg) == ()


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
def test_two_centers_match_branch_oracle(d):
    for a in (-2.0, -1.0, -1.0 / (FOUR_PI * d) - 0.1):
        records = negative_eigenvalues(two_center_config(a, d))
        # expand by multiplicity: branches closer than the merge radius are
        # reported as one entry of multiplicity 2
        got = sorted(rec.lam for rec in records for _ in range(rec.multiplicity))
        expect = two_center_branch_roots(a, d)
        assert len(got) == len(expect)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-9)


def test_reported_kernel_vectors_have_small_residual():
    rng = np.random.default_rng(41)
    for _ in range(10):
        cfg = random_config(rng, int(rng.integers(1, 6)), alpha_scale=3.0)
        records = negative_eigenvalues(cfg)
        assert sum(rec.multiplicity for rec in records) <= cfg.n
        for rec in records:
            g = gamma_imag_axis(cfg, rec.lam)
            for c in rec.coefficients:
                assert np.linalg.norm(g @ c) <= 1e-8


def test_count_matches_negative_inertia_near_zero():
    rng = np.random.default_rng(42)
    for _ in range(15):
        cfg = random_config(rng, int(rng.integers(1, 7)), alpha_scale=3.0)
        if classify_zero(cfg).label != REGULAR:
            continue
        records = negative_eigenvalues(cfg)
        inertia = int(np.sum(np.linalg.eigvalsh(gamma_imag_axis(cfg, 1e-6)) < 0.0))
        assert sum(rec.multiplicity for rec in records) == inertia


def test_ordered_eigenvalue_curves_increase():
    rng = np.random.default_rng(43)
    for _ in range(10):
        cfg = random_config(rng, int(rng.integers(2, 7)))
        lam1, lam2 = sorted(rng.uniform(0.01, 20.0, size=2))
        if lam2 - lam1 < 1e-3:
            continue
        mu1 = np.linalg.eigvalsh(gamma_imag_axis(cfg, lam1))
        mu2 = np.linalg.eigvalsh(gamma_imag_axis(cfg, lam2))
        assert np.all(mu2 > mu1)


def test_curve_derivative_gram_matrix_is_positive_definite():
    # d Gamma(i lam)/d lam = K/4pi with K_jk = exp(-lam d_jk): the Gram matrix
    # of a positive definite function, hence SPD -- the fact the monotone
    # bisection relies on.  Checked here over 1000 random configurations.
    rng = np.random.default_rng(44)
    for _ in range(1000):
        cfg = random_config(rng, int(rng.integers(2, 7)))
        lam = rng.uniform(0.0, 10.0)
        k = np.exp(-lam * cfg.distances)
        assert not isinstance(cholesky(k), NotPositiveDefinite)


def test_degenerate_crossings_merge():
    # equilateral triangle with equal strengths: symmetry forces a double
    # eigenvalue, reported as one record of multiplicity 2 (the strength is
    # kept small so the crossings stay separated by more than the merge radius)
    d = 1.0
    pts = [[0, 0, 0], [d, 0, 0], [d / 2, d * np.sqrt(3) / 2, 0]]
    cfg = PointConfig(alpha=[-0.3, -0.3, -0.3], points=pts)
    records = negative_eigenvalues(cfg)
    assert sum(rec.multiplicity for rec in records) == 3
    mults = sorted(rec.multiplicity for rec in records)
    assert mults == [1, 2]
    for rec in records:
        assert len(rec.coefficients) == rec.multiplicity


# ---------------------------------------------------------------- inertia bisection


def per_curve_reference(cfg, tol=1e-10):
    """The per-curve bisection the inertia bisection replaced: each ordered
    eigenvalue curve negative at 0 is bisected on its own, one eigvalsh per
    step, then crossings are merged and kernels extracted as in the library.
    Returns (lam, energy, multiplicity, coefficients) per record."""
    lam_hi = row_sum_bound(cfg) + 1.0
    mu0 = np.linalg.eigvalsh(gamma_imag_axis(cfg, 0.0))
    assert np.linalg.eigvalsh(gamma_imag_axis(cfg, lam_hi))[0] > 0.0
    crossings = []
    for k in np.flatnonzero(mu0 < 0.0):
        a, b = 0.0, lam_hi
        while b - a > 5e-14 * (1.0 + b):
            mid = 0.5 * (a + b)
            if float(np.linalg.eigvalsh(gamma_imag_axis(cfg, mid))[k]) < 0.0:
                a = mid
            else:
                b = mid
        crossings.append(0.5 * (a + b))
    crossings = sorted(lam for lam in crossings if lam > tol)
    records = []
    i = 0
    while i < len(crossings):
        j = i + 1
        while j < len(crossings) and crossings[j] - crossings[i] <= tol * (1.0 + crossings[j]):
            j += 1
        lam_star = float(np.mean(crossings[i:j]))
        values, vectors = np.linalg.eigh(gamma_imag_axis(cfg, lam_star))
        order = np.argsort(np.abs(values))
        coeffs = [vectors[:, int(c)].copy() for c in order[: j - i]]
        records.append((lam_star, -lam_star * lam_star, j - i, coeffs))
        i = j
    return records


def clustered_config(seed, n):
    """n centers in n // 8 tight clusters, with strengths shifted together so
    that Gamma(0) has exactly 3n/4 negative eigenvalues."""
    rng = np.random.default_rng(seed)
    hubs = random_config(rng, n // 8, radius=6.0, min_dist=2.5).points
    pts = np.vstack([h + random_config(rng, 8, radius=0.8, min_dist=0.2).points for h in hubs])
    alpha = rng.uniform(-2.0, 2.0, size=n)
    mu = np.linalg.eigvalsh(gamma_imag_axis(PointConfig(alpha=alpha, points=pts), 0.0))
    k = 3 * n // 4
    return PointConfig(alpha=alpha - 0.5 * (mu[k - 1] + mu[k]), points=pts)


def equilateral_config():
    d = 1.0
    pts = [[0, 0, 0], [d, 0, 0], [d / 2, d * np.sqrt(3) / 2, 0]]
    return PointConfig(alpha=[-0.3, -0.3, -0.3], points=pts)


def reference_configs():
    configs = []
    rng = np.random.default_rng(41)
    configs += [random_config(rng, int(rng.integers(1, 6)), alpha_scale=3.0) for _ in range(10)]
    rng = np.random.default_rng(42)
    configs += [random_config(rng, int(rng.integers(1, 7)), alpha_scale=3.0) for _ in range(15)]
    configs.append(equilateral_config())
    for d in (0.5, 1.0, 2.0):
        configs += [two_center_config(a, d) for a in (-2.0, -1.0, -1.0 / (FOUR_PI * d) - 0.1)]
    configs.append(clustered_config(48, 48))
    return configs


@functools.cache
def reference_case(index):
    cfg = reference_configs()[index]
    return per_curve_reference(cfg), negative_eigenvalues(cfg)


@pytest.mark.parametrize("index", range(len(reference_configs())))
def test_inertia_bisection_matches_per_curve_reference_exactly(index):
    # the inertia alone sets the counts and multiplicities, so they agree
    # exactly with the per-curve bisection's
    expect, got = reference_case(index)
    assert len(got) == len(expect)
    for rec, (lam, energy, mult, coeffs) in zip(got, expect):
        assert rec.multiplicity == mult
        assert len(rec.coefficients) == len(coeffs)


@pytest.mark.parametrize("index", range(len(reference_configs())))
def test_newton_crossings_match_per_curve_reference_within_its_bracket_width(index):
    # the per-curve bisection stops at width 5e-14 * (1 + lam); Newton's
    # crossings lie within that of its midpoints, and a simple record's
    # eigenvector is the reference's up to sign
    expect, got = reference_case(index)
    assert len(got) == len(expect)
    for rec, (lam, energy, mult, coeffs) in zip(got, expect):
        assert abs(rec.lam - lam) <= 5e-14 * (1.0 + lam)
        assert rec.energy == -rec.lam * rec.lam
        if mult == 1:
            assert abs(rec.coefficients[0] @ coeffs[0]) >= 1.0 - 1e-10


def test_clustered_reference_config_has_three_quarters_bound_states():
    cfg = reference_configs()[-1]
    assert cfg.n == 48
    assert sum(rec.multiplicity for rec in negative_eigenvalues(cfg)) == 36


_SUMMARY = re.compile(
    r"spectrum: (\d+) bisection levels, (\d+) Newton steps, (\d+) matrices factored, "
    r"(\d+) eigh by records, (\d+) crossings, (\d+) records"
)


def counted_spectrum(monkeypatch, caplog, cfg):
    """negative_eigenvalues(cfg) with the batch shapes of every eigvalsh,
    eigh, slogdet and solve call it made, and the numbers of its DEBUG
    summary line."""
    calls = {"eigvalsh": [], "eigh": [], "slogdet": [], "solve": []}
    for name, shapes in calls.items():
        def counted(a, *args, _solver=getattr(np.linalg, name), _shapes=shapes, **kwargs):
            _shapes.append(np.shape(a)[:-2])
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    with caplog.at_level(logging.DEBUG, logger="deltaspec.spectral"):
        records = negative_eigenvalues(cfg)
    summary = tuple(map(int, _SUMMARY.fullmatch(caplog.messages[-1]).groups()))
    return records, calls, summary


def spied_points(monkeypatch):
    """The list of the points, one list per call, at which the spectrum
    assembles Gamma(it) from now on."""
    points = []
    assemble = spectral.gamma_imag_axis

    def spy(cfg, ts):
        points.append(np.asarray(ts).tolist())
        return assemble(cfg, ts)

    monkeypatch.setattr(spectral, "gamma_imag_axis", spy)
    return points


def test_one_spectrum_takes_one_eigvalsh_call_per_level(monkeypatch, caplog):
    records, calls, summary = counted_spectrum(monkeypatch, caplog, clustered_config(32, 32))
    levels, steps, matrices, solved, crossings, n_records = summary
    assert sum(rec.multiplicity for rec in records) == 24
    # the per-curve bisection made about 24 * 45 calls, one matrix each
    assert len(calls["eigvalsh"]) <= 64
    # one eigvalsh for the two ends and one per bisection level; one slogdet
    # and one solve per Newton step, all its points in each, a second solve
    # at the first step, and no eigh
    assert len(calls["eigvalsh"]) == levels + 1
    assert len(calls["slogdet"]) == steps
    first, *rest = calls["slogdet"]
    assert calls["solve"] == [first, first, *rest]
    assert calls["eigh"] == []
    assert matrices == sum(int(np.prod(shape)) for shape in calls["eigvalsh"] + calls["slogdet"])
    assert (crossings, n_records) == (24, len(records))


def test_clustered_spectrum_factors_at_most_80_matrices(monkeypatch, caplog):
    # bisecting the inertia to full width took 1,023 matrices here: 999
    # eigvalsh and 24 eigh for the records; Newton by eigh took 126 from
    # the midpoints and 80 from the regula falsi points.
    # Every matrix factored counts once: the eigvalsh and eigh matrices, and
    # each Newton point, which one slogdet factors (its solves factor the
    # same matrix again, one each, two at the first step, so the LU
    # factorizations are fixed by the points: 2 * 44 + 24 = 112 here)
    records, calls, summary = counted_spectrum(monkeypatch, caplog, clustered_config(32, 32))
    assert sum(rec.multiplicity for rec in records) == 24
    factored = calls["eigvalsh"] + calls["eigh"] + calls["slogdet"]
    assert summary[2] == sum(int(np.prod(shape)) for shape in factored) <= 80
    first, *rest = calls["slogdet"]
    assert calls["solve"] == [first, first, *rest]


def test_simple_records_take_their_vectors_from_newton(monkeypatch, caplog):
    # no eigh runs at all: a record of multiplicity 1 takes its vector from
    # the last solve of Newton's inverse iteration, at a point within
    # 5e-14 * (1 + lam) of lam, and it is annihilated by Gamma(i lam) to
    # rounding, with its largest-|entry| component positive (no two entries
    # are within 1e-12 of each other here)
    cfg = clustered_config(32, 32)
    records, calls, summary = counted_spectrum(monkeypatch, caplog, cfg)
    levels, steps, matrices, solved, crossings, n_records = summary
    assert [rec.multiplicity for rec in records] == [1] * 24
    assert (solved, calls["eigh"]) == (0, [])
    assert len(calls["slogdet"]) == steps
    for rec in records:
        g = gamma_imag_axis(cfg, rec.lam)
        (v,) = rec.coefficients
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
        assert np.linalg.norm(g @ v) <= 1e-14 * np.linalg.norm(g, 2)
        assert v[np.argmax(np.abs(v))] > 0.0


def test_antisymmetric_state_gets_its_own_vector(monkeypatch, caplog):
    # two equal centers: the lower crossing is the antisymmetric state
    # (1, -1)/sqrt 2, orthogonal to a vector of ones.  Newton's start vector
    # is not, so its inverse iteration finds that state in a few steps; from
    # a vector of ones only rounding feeds the state in, and the safeguard
    # bisects for four times as many steps.  Its two entries are equally
    # large, so the sign rule makes the first positive
    cfg = two_center_config(-0.3, 0.5)
    records, calls, summary = counted_spectrum(monkeypatch, caplog, cfg)
    assert [rec.multiplicity for rec in records] == [1, 1]
    assert summary == (4, 3, 12, 0, 2, 2)
    (v,) = records[0].coefficients
    assert np.linalg.norm(v - np.array([1.0, -1.0]) / np.sqrt(2.0)) <= 1e-14
    g = gamma_imag_axis(cfg, records[0].lam)
    assert np.linalg.norm(g @ v) <= 1e-14 * np.linalg.norm(g, 2)


def test_exactly_singular_newton_point_takes_its_vector_from_one_eigh(monkeypatch, caplog):
    # one center with alpha = -1: the regula falsi point of the ends 0 and
    # lam_hi rounds to 4pi, where Gamma(4pi i) = [-1 + 4pi/4pi] is exactly 0.
    # slogdet's sign 0 ends the crossing there, with no matrix solved, and
    # one eigh of that matrix alone gives the vector
    cfg = PointConfig(alpha=[-1.0], points=[ORIGIN])
    assert gamma_imag_axis(cfg, FOUR_PI).tolist() == [[0.0]]
    records, calls, summary = counted_spectrum(monkeypatch, caplog, cfg)
    (rec,) = records
    assert rec.lam == FOUR_PI
    assert (calls["slogdet"], calls["eigh"]) == ([(1,)], [(1,)])
    assert sum(int(np.prod(shape)) for shape in calls["solve"]) == 0
    assert summary == (0, 1, 3, 0, 1, 1)
    np.testing.assert_array_equal(rec.coefficients, [[1.0]])


def test_newton_point_whose_solve_overflows_takes_its_vector_from_one_eigh(monkeypatch):
    # centers with alpha = -1 and -2, 28.85 apart: at t = 4pi the first's
    # diagonal entry -1 + t/4pi is exactly 0 and the coupling e =
    # exp(-t d)/4pi d is about 1e-160, so Gamma(4pi i) = [[0, -e], [-e, -1]]
    # has det -e**2, not 0, but its inverse has an entry 1/e**2, past the
    # largest double.  Curve 1 crosses at 4pi; Newton's first point there
    # ends the crossing through one eigh of that matrix alone, with a finite
    # vector, not the NaN of y/inf
    cfg = PointConfig(alpha=[-1.0, -2.0], points=[ORIGIN, [28.85, 0.0, 0.0]])
    g = gamma_imag_axis(cfg, FOUR_PI)
    assert g[0, 0] == 0.0 and 1e-161 < -g[0, 1] < 1e-159 and np.linalg.slogdet(g)[0] != 0.0
    assert np.isinf(np.linalg.solve(g, [1.0, 0.0])).any()
    lo, hi = np.array([0.5 * FOUR_PI]), np.array([1.5 * FOUR_PI])
    f_lo, f_hi = np.array([-0.5]), np.array([0.5])  # curve 1 is -1 + t/4pi
    assert (lo - f_lo * (hi - lo) / (f_hi - f_lo)).tolist() == [FOUR_PI]
    eigh, batches = np.linalg.eigh, []

    def spy(a):
        batches.append(np.shape(a)[:-2])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    crossings, vectors, steps, matrices = spectral._newton_crossings(
        cfg, lo, hi, np.array([1]), f_lo, f_hi
    )
    assert crossings.tolist() == [FOUR_PI] and (steps, matrices) == (1, 1)
    assert batches == [(1,)]
    (v,) = vectors
    assert np.isfinite(v).all() and abs(v[0]) == 1.0
    assert np.linalg.norm(g @ v) <= 1e-14 * np.linalg.norm(g, 2)
    monkeypatch.undo()
    for rec in negative_eigenvalues(cfg):
        assert np.isfinite(rec.coefficients).all()


def test_sign_rule_makes_the_first_of_equally_large_entries_positive():
    # an antisymmetric state whose second entry rounds one ulp larger: the
    # sign follows the first entry, not the rounding
    v = np.array([np.sqrt(0.5), -np.nextafter(np.sqrt(0.5), 1.0)])
    assert abs(v[1]) > abs(v[0])
    np.testing.assert_array_equal(spectral._signed(v), v)
    np.testing.assert_array_equal(spectral._signed(-v), v)
    w = np.array([0.6, -0.8])  # a clear largest entry sets the sign
    np.testing.assert_array_equal(spectral._signed(w), -w)


def test_newton_starts_at_the_regula_falsi_point(monkeypatch):
    # one center with alpha = -1: its curve -1 + t/4pi crosses at 4pi
    cfg = PointConfig(alpha=[-1.0], points=[ORIGIN])
    points = spied_points(monkeypatch)
    lo, hi, k = np.array([1.0, 0.0]), np.array([20.0, FOUR_PI]), np.array([0, 0])
    f_lo, f_hi = -1.0 + lo / FOUR_PI, -1.0 + hi / FOUR_PI
    assert f_hi.tolist()[1] == 0.0  # the crossing is the second bracket's hi
    crossings, vectors, steps, matrices = spectral._newton_crossings(cfg, lo, hi, k, f_lo, f_hi)
    # the first bracket starts at its regula falsi point, the second, whose
    # regula falsi point is hi itself, at its midpoint
    falsi = (lo - f_lo * (hi - lo) / (f_hi - f_lo)).tolist()[0]
    assert points[0] == [falsi, FOUR_PI / 2.0]
    np.testing.assert_allclose(crossings, [FOUR_PI, FOUR_PI], rtol=5e-14)
    np.testing.assert_array_equal(np.abs(vectors), [[1.0], [1.0]])
    assert (steps, matrices) == (len(points), sum(map(len, points)))


def test_newton_step_that_leaves_its_bracket_is_bisected(monkeypatch, caplog):
    # a pair of centers 0.05 apart and one center 10 away with alpha = -1/4pi,
    # whose curve -1/4pi + t/4pi crosses zero at t = 1.  The pair's
    # antisymmetric curve, nearly flat there (slope (1 - exp(-0.05 t))/4pi),
    # is set to -0.01 at t = 1, so the two curves cross just before it.  The
    # top ordered curve follows the flat one, then the steep one, and its
    # regula falsi point lies on the flat part.  The step from there leaves
    # the bracket and is bisected; at that midpoint the step leaves the
    # bracket again, and the safeguard bisects again; later a step inside
    # the bracket but longer than half the step before is bisected too
    d = 0.05
    a = -0.01 - 1.0 / FOUR_PI - np.exp(-d) / (FOUR_PI * d)
    cfg = PointConfig(alpha=[a, a, -1.0 / FOUR_PI], points=[ORIGIN, [d, 0, 0], [10.0, 0, 0]])
    points = spied_points(monkeypatch)
    solve, rhs = np.linalg.solve, []

    def spy(a, b):
        rhs.append(b[..., 0].copy())
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    with caplog.at_level(logging.DEBUG, logger="deltaspec.spectral"):
        records = negative_eigenvalues(cfg)
    lam_hi = row_sum_bound(cfg) + 1.0
    assert points[0] == [0.0, lam_hi]  # the ends; the inertia drops by 3
    # five levels leave (lam_hi/4, lam_hi/2), (h, 2h) and (0, h), h = lam_hi/32,
    # of one crossing each; the last holds the top curve's, k = 2
    h = lam_hi / 32.0
    assert points[1:6] == [[lam_hi / 2.0 ** j] for j in range(1, 6)]
    mu0, muh = (float(np.linalg.eigvalsh(gamma_imag_axis(cfg, t))[2]) for t in (0.0, h))
    x = 0.0 - mu0 * (h - 0.0) / (muh - mu0)
    assert 0.0 < x < h and points[6][1] == x

    def newton(t, b):
        """The det sign at t, the step t - (b.y)/(y^T G' y) and y = Gamma(it)**-1 b."""
        g = gamma_imag_axis(cfg, t)
        y = solve(g, b)
        slope = y @ np.exp(-t * cfg.distances) @ y / FOUR_PI
        return np.linalg.slogdet(g)[0], t - (b @ y) / slope, y

    # the first point solves twice: b is then y/|y| for y = Gamma(ix)**-1 b0,
    # b0 the start vector.  At x the det sign is (-1)**3, so x is below the
    # crossing and the new lo; its step passes h and is bisected
    y0 = solve(gamma_imag_axis(cfg, x), rhs[0][1])
    np.testing.assert_allclose(rhs[1][1], y0 / np.linalg.norm(y0), rtol=0, atol=1e-15)
    sign, new, y = newton(x, rhs[1][1])
    assert sign == -1.0 and new > h
    x1 = 0.5 * (x + h)
    assert points[7][1] == x1
    # b is now y/|y|; at x1, the new hi, the step passes x1 and is bisected
    np.testing.assert_allclose(rhs[2][1], y / np.linalg.norm(y), rtol=0, atol=1e-15)
    sign, new, _ = newton(x1, rhs[2][1])
    assert sign == 1.0 and new > x1
    assert points[8][1] == 0.5 * (x + x1)
    # the top curve's points from x on: at the sixth, the new hi, the step
    # stays in the bracket but is more than half the step before, and the
    # safeguard bisects once more
    top = [t for batch in points[6:] for t in batch if t < h]
    x4, x5 = top[4:6]
    assert points[11] == [x5]
    sign, new, _ = newton(x5, rhs[6][0])
    assert sign == 1.0 and x4 < new < x5 and x5 - new > 0.5 * (x5 - x4)
    assert top[6] == 0.5 * (x4 + x5)
    assert caplog.messages == [
        "spectrum: 5 bisection levels, 10 Newton steps, 26 matrices factored, "
        "0 eigh by records, 3 crossings, 3 records"
    ]
    got = [rec.lam for rec in records]
    expect = [lam for lam, *_ in per_curve_reference(cfg)]
    assert len(got) == 3
    assert all(abs(g - e) <= 5e-14 * (1.0 + e) for g, e in zip(got, expect))
    assert abs(got[0] - 1.0) <= 1e-11


def test_inertia_bisection_stops_at_adjacent_floats():
    # near t = 2**45 neighbouring doubles are 2**-7 apart, still within the
    # stopping width 5e-14 * (1 + t): a bracket that cannot be halved is
    # returned as it is instead of being bisected forever.  The eigenvalues
    # given at the ends stand for an inertia of 2 and 0; curve 0 crosses
    cfg = two_center_config(-1.0, 1.0)
    t = 2.0 ** 45
    ts = np.array([t, np.nextafter(t, np.inf)])
    lo, hi, n_hi, jumps, f_lo, f_hi, levels, matrices = spectral._inertia_brackets(
        cfg, ts, np.array([[-2.0, -1.0], [1.0, 2.0]])
    )
    assert (lo.tolist(), hi.tolist(), n_hi.tolist(), jumps.tolist()) == ([ts[0]], [ts[1]], [0], [2])
    assert (f_lo.tolist(), f_hi.tolist()) == ([-2.0], [1.0])
    assert (levels, matrices) == (0, 0)


def test_spectrum_logs_merges_across_brackets(caplog):
    # two equal centers 2 apart: the symmetric and antisymmetric crossings
    # differ by about 1e-11, more than a final bracket is wide and less than
    # the merge radius, so the tol merge sets the multiplicity
    with caplog.at_level(logging.DEBUG, logger="deltaspec.spectral"):
        records = negative_eigenvalues(two_center_config(-1.0, 2.0))
    assert [rec.multiplicity for rec in records] == [2]
    lam = records[0].lam
    assert caplog.messages == [
        f"merging 2 crossings from 2 brackets into lam {lam!r}: the merge radius "
        "tol*(1+lam), not an inertia jump, sets the multiplicity",
        # the crossings share a bracket for 38 levels and part at the 39th;
        # one Newton step from the regula falsi point then polishes each, and
        # the merged record runs its own eigh
        "spectrum: 39 bisection levels, 1 Newton steps, 43 matrices factored, "
        "1 eigh by records, 2 crossings, 1 records",
    ]


def test_spectrum_multiplicity_from_one_inertia_jump_is_not_logged_as_merge(caplog):
    # 10 apart the two crossings agree to rounding and share one final
    # bracket: the inertia jumps by 2 there, and no merge is logged
    with caplog.at_level(logging.DEBUG, logger="deltaspec.spectral"):
        records = negative_eigenvalues(two_center_config(-1.0, 10.0))
    assert [rec.multiplicity for rec in records] == [2]
    assert len(caplog.messages) == 1
    assert caplog.messages[0].endswith(", 2 crossings, 1 records")


# ---------------------------------------------------------------- eigenfunction


def test_eigenfunction_single_center_value():
    cfg = PointConfig(alpha=[-1.0], points=[ORIGIN])
    lam = FOUR_PI
    val = eigenfunction_eval(cfg, lam, [1.0], [1.0, 0.0, 0.0])
    assert val == pytest.approx(np.exp(-lam) / FOUR_PI)


def test_eigenfunction_antisymmetric_vanishes_at_midpoint():
    cfg = two_center_config(-1.0, 2.0)
    val = eigenfunction_eval(cfg, 0.7, [1.0, -1.0], [1.0, 0.0, 0.0])
    assert val == pytest.approx(0.0, abs=1e-16)


def test_eigenfunction_decay_rate():
    # u(x) * |x| * exp(lam |x|) tends to a constant along a ray
    cfg = two_center_config(-1.0, 1.0)
    lam = 0.9
    c = [0.3, 0.7]
    direction = np.array([0.0, 1.0, 0.0])
    vals = []
    for radius in (40.0, 80.0, 160.0):
        x = radius * direction
        vals.append(eigenfunction_eval(cfg, lam, c, x) * radius * np.exp(lam * radius))
    assert vals[2] == pytest.approx(vals[1], rel=5e-3)
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])


def test_eigenfunction_rejects_center():
    cfg = two_center_config(-1.0, 1.0)
    with pytest.raises(SingularityError):
        eigenfunction_eval(cfg, 1.0, [1.0, 0.0], ORIGIN)


# ---------------------------------------------------------------- threshold


def zero_eigenvalue_config(d=1.0):
    return two_center_config(-1.0 / (FOUR_PI * d), d)


def test_classify_zero_single_center_resonance():
    cls = classify_zero(PointConfig(alpha=[0.0], points=[ORIGIN]))
    assert cls.label == ZERO_RESONANCE
    assert cls.kernel_dim == 1
    assert cls.eigenvalue_multiplicity == 0
    assert cls.resonance_present


def test_classify_zero_single_center_regular():
    cls = classify_zero(PointConfig(alpha=[1.0], points=[ORIGIN]))
    assert cls.label == REGULAR
    assert cls.kernel_dim == 0
    assert not cls.resonance_present


def test_classify_zero_two_center_eigenvalue():
    cls = classify_zero(zero_eigenvalue_config())
    assert cls.label == ZERO_EIGENVALUE
    assert cls.kernel_dim == 1
    assert cls.eigenvalue_multiplicity == 1
    assert not cls.resonance_present
    v = cls.kernel[0]
    # kernel vector proportional to (1, -1)
    assert abs(abs(v[0]) - 1 / np.sqrt(2)) < 1e-8
    assert abs(v[0] + v[1]) < 1e-8


@pytest.mark.parametrize("d", [0.5, 0.8, 1.3, 2.0])
def test_classify_zero_signs_the_pair_kernel(d):
    # alpha = -1/(4pi d): the kernel is (1, -1)/sqrt(2), signed as
    # negative_eigenvalues signs its coefficients, not as LAPACK returns it
    (v,) = classify_zero(two_center_config(-1.0 / (FOUR_PI * d), d)).kernel
    np.testing.assert_allclose(v, np.array([1.0, -1.0]) / np.sqrt(2), rtol=1e-12)
    assert np.array_equal(v, spectral._signed(v))


def test_classify_zero_two_center_resonance():
    # Gamma(0) = [[1, -1], [-1, 1]] / 4pi: one kernel vector, proportional to
    # (1, 1), whose nonzero coefficient sum marks a resonance
    cls = classify_zero(two_center_config(1.0 / FOUR_PI, 1.0))
    assert cls.label == ZERO_RESONANCE
    assert cls.kernel_dim == 1
    assert cls.eigenvalue_multiplicity == 0
    v = cls.kernel[0]
    np.testing.assert_allclose(np.abs(v), np.full(2, 1 / np.sqrt(2)), rtol=1e-12)
    assert v[0] * v[1] > 0


def test_classify_zero_sees_an_exactly_symmetric_gamma():
    # classify_zero takes the kernel from eigh, which reads one triangle only
    rng = np.random.default_rng(47)
    for _ in range(20):
        g0 = gamma_imag_axis(random_config(rng, int(rng.integers(1, 9))), 0.0)
        np.testing.assert_array_equal(g0, g0.T)


def test_classify_zero_rejects_bad_tol():
    cfg = PointConfig(alpha=[1.0], points=[ORIGIN])
    for tol in (0.0, -1e-10, np.nan, np.inf):
        with pytest.raises(ValueError):
            classify_zero(cfg, tol=tol)


def mixed_threshold_config():
    """Isosceles triangle (sides 1, 2, 2) with strengths tuned so that
    Gamma(0) kills both (1,-1,0) (zero sum: an eigenvalue direction) and
    (1,1,-4) (nonzero sum: a resonant direction)."""
    g = 1.0 / FOUR_PI
    h = 1.0 / (8.0 * np.pi)
    pts = [[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(4 - 0.25), 0]]
    return PointConfig(alpha=[-g, -g, -h / 2], points=pts)


def asymmetric_mixed_config():
    """Three centers with no symmetry whose Gamma(0) kills the zero-sum vector
    a = (1, t, -1 - t) and a resonant one.  With alpha = K a / a, K = -Gamma(0)
    at alpha = 0, a is a kernel vector for every t; t is bisected to a zero of
    the product of the other two eigenvalues, the sum of the 2x2 principal
    minors.  Unlike in mixed_threshold_config, whose mirror symmetry makes
    U^T D u vanish for the zero-sum kernel U and the resonant direction u, the
    factors I - A_-2 G_2 of A_-1 matter here."""
    pts = random_config(np.random.default_rng(5), 3, radius=1.0, min_dist=0.3).points
    k = -gamma_imag_axis(PointConfig(alpha=np.zeros(3), points=pts), 0.0)

    def gamma0(t):
        a = np.array([1.0, t, -1.0 - t])
        return np.diag(k @ a / a) - k

    def minors(t):
        g = gamma0(t)
        return sum(np.linalg.det(np.delete(np.delete(g, j, 0), j, 1)) for j in range(3))

    t = scalar_bisect(lambda t: -minors(t), -0.5, -0.3)
    cfg = PointConfig(alpha=np.diag(gamma0(t)), points=pts)
    assert classify_zero(cfg).label == MIXED
    return cfg


def test_classify_zero_mixed_case():
    cls = classify_zero(mixed_threshold_config())
    assert cls.label == MIXED
    assert cls.kernel_dim == 2
    assert cls.eigenvalue_multiplicity == 1
    assert cls.resonance_present


def test_classify_zero_invariant_relation():
    rng = np.random.default_rng(45)
    for _ in range(10):
        cfg = random_config(rng, int(rng.integers(1, 6)))
        cls = classify_zero(cfg)
        assert cls.kernel_dim == cls.eigenvalue_multiplicity + int(cls.resonance_present)
        assert (cls.label == REGULAR) == (cls.kernel_dim == 0)
        if cls.label == MIXED:
            assert cls.eigenvalue_multiplicity > 0 and cls.resonance_present


def shell_integral(cfg, c, radius, pts, w):
    """Integral of |u|^2 over the sphere of given radius (radial density)."""
    total = 0.0
    for p in pts:
        val = eigenfunction_eval(cfg, 0.0, c, radius * p)
        total += val * val
    return FOUR_PI * radius * radius * total / len(pts)


def test_zero_sum_kernel_vector_is_square_integrable():
    # radial quadrature oracle: the (1,-1) combination has |u|^2 shell
    # integrals decaying like 1/r^2 (integrable tail), while (1,1) gives
    # shell integrals approaching a positive constant (divergent tail)
    cfg = zero_eigenvalue_config()
    pts, w = sphere_points(400, seed=5, method="gauss")
    anti = [shell_integral(cfg, [1.0, -1.0], r, pts, w) for r in (20.0, 40.0, 80.0)]
    sym = [shell_integral(cfg, [1.0, 1.0], r, pts, w) for r in (20.0, 40.0, 80.0)]
    assert anti[1] < anti[0] / 3.0 and anti[2] < anti[1] / 3.0
    assert sym[2] > 0.9 * sym[1] > 0.8 * sym[0]


# ---------------------------------------------------------------- laurent


def zero_resonance_config(rng, n):
    """A random configuration with its strengths shifted by one eigenvalue of
    Gamma(0), whose eigenvector (of nonzero sum) becomes the kernel."""
    cfg = random_config(rng, n)
    mu = np.linalg.eigvalsh(gamma_imag_axis(cfg, 0.0))
    shifted = PointConfig(alpha=cfg.alpha - mu[int(rng.integers(n))], points=cfg.points)
    assert classify_zero(shifted).label == ZERO_RESONANCE
    return shifted


def test_laurent_single_center_resonant():
    cfg = PointConfig(alpha=[0.0], points=[ORIGIN])
    coeffs = laurent_at_zero(cfg)
    np.testing.assert_allclose(coeffs.A_minus1, [[FOUR_PI * 1j]], atol=1e-8)
    assert np.abs(coeffs.A_minus2).max() < 1e-8


def test_laurent_regular_config_has_no_singular_part():
    cfg = PointConfig(alpha=[1.0], points=[ORIGIN])
    coeffs = laurent_at_zero(cfg)
    assert np.abs(coeffs.A_minus1).max() < 1e-8
    assert np.abs(coeffs.A_minus2).max() < 1e-8


@pytest.mark.parametrize(
    "alpha",
    [1e-3 / FOUR_PI, 5e-3 / FOUR_PI, -5e-3 / FOUR_PI]
    + [0.01 / FOUR_PI + eps for eps in (2e-12, 1e-6, -1e-7)],
)
def test_laurent_regular_is_exactly_zero_with_a_pole_near_zero(alpha):
    # det Gamma = alpha - iz/4pi vanishes at -4pi i alpha, inside a circle of
    # radius 1e-2 or within about 4pi |eps| of it: a contour there would
    # report that pole's residue as A_-1, or fail to converge
    coeffs = laurent_at_zero(PointConfig(alpha=[alpha], points=[ORIGIN]))
    zero = np.zeros((1, 1), dtype=complex)
    np.testing.assert_array_equal(coeffs.A_minus2, zero)
    np.testing.assert_array_equal(coeffs.A_minus1, zero)


def test_laurent_zero_eigenvalue_config_has_double_pole():
    # Gamma(0) v = 0 with v = (1, -1)/sqrt2, Gamma'(0) v = 0 and
    # v^T Gamma''(0) v / 2 = -1/8pi, so A_-2 = v v^T / (-1/8pi)
    v = np.array([1.0, -1.0]) / np.sqrt(2.0)
    coeffs = laurent_at_zero(zero_eigenvalue_config())
    np.testing.assert_allclose(coeffs.A_minus2, -8.0 * np.pi * np.outer(v, v), atol=1e-8)


@pytest.mark.parametrize("d", [0.3, 1.0, 1.7])
def test_laurent_two_center_threshold_oracle(d):
    # the antisymmetric eigenvalue of Gamma is -d z^2/8pi - i d^2 z^3/24pi + ...,
    # so A_-2 = -(4pi/d) M and A_-1 = (4pi/3) i M with M = [[1, -1], [-1, 1]];
    # d = 0.3 is where a radius-3e-3 contour does not converge
    m = np.array([[1.0, -1.0], [-1.0, 1.0]])
    coeffs = laurent_at_zero(zero_eigenvalue_config(d))
    np.testing.assert_allclose(coeffs.A_minus2, -(FOUR_PI / d) * m, rtol=0, atol=1e-12 * FOUR_PI / d)
    np.testing.assert_allclose(coeffs.A_minus1, (FOUR_PI / 3.0) * 1j * m, rtol=0, atol=1e-12 * FOUR_PI / 3.0)


def test_laurent_mixed_config_has_double_pole():
    coeffs = laurent_at_zero(mixed_threshold_config())
    assert np.abs(coeffs.A_minus2).max() > 1e-6


def test_laurent_matches_contour_oracle():
    # on circles that enclose no pole but the one at 0 (the oracle checks
    # it).  The first config is a zero resonance of two centers 1e4 apart
    # (alpha_A alpha_B = 1/(4pi d)^2) whose Gamma^-1 has a second pole at
    # -1e-3 i: a circle of radius 1e-2 returns the sum of both residues,
    # max |A_-1| 6.78 instead of 10.39
    a, d = 1e-3 / FOUR_PI, 1e4
    far = PointConfig(alpha=[1.0 / (FOUR_PI * d) ** 2 / a, a], points=[ORIGIN, [d, 0.0, 0.0]])
    rng = np.random.default_rng(47)
    cases = [
        (far, 1e-5, 1e-12),
        (mixed_threshold_config(), 1e-2, 1e-9),
        (asymmetric_mixed_config(), 1e-2, 1e-9),
        (zero_eigenvalue_config(), 1e-2, 1e-9),
        (threshold_pole_on_node_config(), 1e-3, 1e-9),
    ] + [(zero_resonance_config(rng, n), 1e-3, 1e-9) for n in (3, 5, 8, 16)]
    for cfg, radius, rtol in cases:
        coeffs = laurent_at_zero(cfg)
        a2, a1 = contour_laurent(cfg, radius)
        scale = max(np.abs(a2).max(), np.abs(a1).max())
        np.testing.assert_allclose(coeffs.A_minus2, a2, rtol=0, atol=rtol * scale)
        np.testing.assert_allclose(coeffs.A_minus1, a1, rtol=0, atol=rtol * scale)


def test_laurent_consistency_with_classification():
    # rank A_-2 is the zero-eigenvalue multiplicity and A_-1 vanishes exactly
    # on the Regular label, over random configs, random zero resonances and
    # the threshold fixtures.  At a singular threshold both coefficients are
    # complex symmetric, A_-2 is real and negative semidefinite, and the
    # z**-2 and z**-1 orders of Gamma(z) Gamma(z)**-1 = I vanish:
    # G_0 A_-2 = 0 and G_0 A_-1 + G_1 A_-2 = 0
    rng = np.random.default_rng(46)
    configs = [random_config(rng, int(rng.integers(1, 5))) for _ in range(6)] + [
        PointConfig(alpha=[0.0], points=[ORIGIN]),
        two_center_config(1.0 / FOUR_PI, 1.0),
        zero_eigenvalue_config(),
        mixed_threshold_config(),
        asymmetric_mixed_config(),
        threshold_pole_on_node_config(),
    ] + [zero_resonance_config(rng, n) for n in (3, 4, 6, 9, 12, 16)]
    labels = set()
    for cfg in configs:
        cls = classify_zero(cfg)
        coeffs = laurent_at_zero(cfg)
        a2, a1 = coeffs.A_minus2, coeffs.A_minus1
        labels.add(cls.label)
        scale = max(1.0, float(np.abs(a1).max()))
        sv = np.linalg.svd(a2, compute_uv=False)
        assert np.count_nonzero(sv > 1e-6 * scale) == cls.eigenvalue_multiplicity
        assert a1.any() == (cls.label != REGULAR)
        if cls.label == REGULAR:
            continue
        assert np.abs(a1).max() > 1e-3
        assert np.isrealobj(a2)
        big = max(scale, float(np.abs(a2).max()))
        np.testing.assert_allclose(a2, a2.T, rtol=0, atol=1e-13 * big)
        np.testing.assert_allclose(a1, a1.T, rtol=0, atol=1e-13 * big)
        assert np.linalg.eigvalsh(a2).max() <= 1e-13 * big
        g0 = gamma_imag_axis(cfg, 0.0)
        g1 = np.full((cfg.n, cfg.n), -1j / FOUR_PI)
        rounding = 1e-12 * cfg.n * max(1.0, float(np.abs(g0).max())) * big
        assert np.abs(g0 @ a2).max() <= rounding
        assert np.abs(g0 @ a1 + g1 @ a2).max() <= rounding
    assert labels == {REGULAR, ZERO_RESONANCE, ZERO_EIGENVALUE, MIXED}


def test_laurent_pole_on_node_fixture_is_a_simple_pole():
    # a zero resonance whose Gamma has a zero at -0.01i, or sigma_min = 5e-13
    # from it: A_-1 is the simple pole 4pi i v v^T / (1.v)^2 of the kernel v,
    # and the other pole does not enter
    for eps in (0.0, 5e-13):
        cfg = threshold_pole_on_node_config(eps)
        cls = classify_zero(cfg)
        assert cls.label == ZERO_RESONANCE
        coeffs = laurent_at_zero(cfg)
        v = cls.kernel[0]
        residue = FOUR_PI * 1j * np.outer(v, v) / v.sum() ** 2
        np.testing.assert_allclose(coeffs.A_minus1, residue, rtol=1e-12)
        np.testing.assert_array_equal(coeffs.A_minus2, np.zeros((2, 2)))
