"""Acceptance suite: one criterion per test, each printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from contextlib import contextmanager

import numpy as np

from conftest import logdet_central_difference, random_config, two_center_config
from deltaspec import (
    Box,
    PointConfig,
    certify_real_axis,
    classify_zero,
    count_zeros_in_box,
    find_resonances,
    gamma_stack,
    helmholtz_residual,
    laurent_at_zero,
    negative_eigenvalues,
    resolvent_kernel,
)
from deltaspec.model import FOUR_PI
from deltaspec.resonance import _trace_logdet
from deltaspec.spectral import REGULAR, ZERO_EIGENVALUE, ZERO_RESONANCE
from domain import GaussianTestFunction, boundary_condition_residual
from sinc import sinc, sinc_gram
from sphere import sphere_points
from test_spectral import two_center_branch_roots

ORIGIN = [0.0, 0.0, 0.0]


@contextmanager
def criterion(num, text, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num} [{text}]: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num} [{text}]: PASS ({elapsed:.2f}s)", flush=True)
    assert elapsed < budget_seconds


def test_criterion_1_single_center_spectrum():
    with criterion(1, "N=1 spectrum", budget_seconds=1.0):
        report = negative_eigenvalues(PointConfig(alpha=[-1.0], points=[ORIGIN]))
        assert len(report.eigenvalues) == 1
        rec = report.eigenvalues[0]
        assert abs(rec.lam - FOUR_PI) < 1e-9
        assert abs(rec.energy - (-16 * np.pi ** 2)) < 1e-9
        assert rec.multiplicity == 1
        for alpha in (0.0, 0.5, 3.0):
            empty = negative_eigenvalues(PointConfig(alpha=[alpha], points=[ORIGIN]))
            assert empty.eigenvalues == ()


def test_criterion_2_two_center_oracle():
    with criterion(2, "N=2 closed-form branch oracle", budget_seconds=1.0):
        for d in (0.5, 1.0, 2.0):
            for a in (-2.0, -1.0, -1.0 / (FOUR_PI * d) - 0.1):
                report = negative_eigenvalues(two_center_config(a, d))
                got = sorted(
                    rec.lam for rec in report.eigenvalues for _ in range(rec.multiplicity)
                )
                expect = two_center_branch_roots(a, d)
                assert len(got) == len(expect)
                assert max(abs(g - e) for g, e in zip(got, expect)) < 1e-9


def test_criterion_3_real_axis_certificate():
    with criterion(3, "real-axis certificate, 100 random configs", budget_seconds=120.0):
        rng = np.random.default_rng(20250809)
        for _ in range(100):
            cfg = random_config(
                rng, int(rng.integers(1, 9)), radius=5.0, min_dist=0.1, alpha_scale=5.0
            )
            cert = certify_real_axis(cfg)
            assert cert.verdict and cert.k0 == 0.0
            assert np.all(cert.sigma_min > 1e-10)
            assert cert.z_grid[-1] >= cert.z_star
            # the paper's lemma: the sinc Gram matrix is SPD on the fixed grid
            # of step 1e-2 * min(1, d_min) up to z_star (in pieces, to keep
            # the Gram stacks small)
            h = 1e-2 * min(1.0, cfg.d_min) if cfg.n > 1 else 1e-2
            grid = h * np.arange(1, int(np.ceil(cert.z_star / h)) + 1)
            for zs in np.array_split(grid, grid.size // 4096 + 1):
                np.linalg.cholesky(sinc_gram(cfg, zs))


def test_criterion_4_symmetric_minus_i_spd_invertible():
    with criterion(4, "A - iB non-singularity, 1000 pairs", budget_seconds=30.0):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            a = rng.standard_normal((n, n))
            a = a + a.T
            r = rng.standard_normal((n, n))
            b = r @ r.T + 1e-6 * np.eye(n)
            assert np.linalg.svd(a - 1j * b, compute_uv=False)[-1] > 0.0


def test_criterion_5_zero_classification():
    with criterion(5, "threshold classification", budget_seconds=1.0):
        assert classify_zero(PointConfig(alpha=[0.0], points=[ORIGIN])).label == ZERO_RESONANCE
        assert classify_zero(PointConfig(alpha=[1.0], points=[ORIGIN])).label == REGULAR
        d = 1.0
        cls = classify_zero(two_center_config(-1.0 / (FOUR_PI * d), d))
        assert cls.label == ZERO_EIGENVALUE
        assert cls.eigenvalue_multiplicity == 1
        v = cls.kernel[0]
        assert abs(abs(v[0]) - 1.0 / np.sqrt(2)) < 1e-8
        assert abs(v[0] + v[1]) < 1e-8


def test_criterion_6_laurent_quadrature():
    with criterion(6, "Laurent coefficients at zero", budget_seconds=5.0):
        resonant = laurent_at_zero(PointConfig(alpha=[0.0], points=[ORIGIN]))
        assert np.abs(resonant.A_minus1 - np.array([[4j * np.pi]])).max() < 1e-8
        assert np.abs(resonant.A_minus2).max() < 1e-8
        for cfg in (
            PointConfig(alpha=[1.0], points=[ORIGIN]),
            two_center_config(0.8, 1.3),
        ):
            regular = laurent_at_zero(cfg)
            assert np.abs(regular.A_minus1).max() < 1e-8
            assert np.abs(regular.A_minus2).max() < 1e-8
        threshold = laurent_at_zero(two_center_config(-1.0 / FOUR_PI, 1.0))
        assert np.abs(threshold.A_minus2).max() > 1e-3


def test_criterion_7_resonance_finder():
    with criterion(7, "resonance finder and reflection symmetry", budget_seconds=60.0):
        box = Box(-1.0, 1.0, -20.0, -1.0)
        cfg1 = PointConfig(alpha=[1.0], points=[ORIGIN])
        assert count_zeros_in_box(cfg1, box) == 1
        found = find_resonances(cfg1, box)
        assert abs(found.roots[0].z - (-4j * np.pi)) < 1e-8
        assert found.roots[0].multiplicity == 1

        rng = np.random.default_rng(777)
        mirrored_checked = 0
        for _ in range(20):
            n = int(rng.integers(2, 4))
            cfg = random_config(rng, n, radius=1.2, min_dist=0.5, alpha_scale=2.0)
            search = Box(-5.0, 5.0, -5.0, -0.2)
            found = find_resonances(cfg, search)
            assert sum(r.multiplicity for r in found.roots) == found.total_count
            for root in found.roots:
                if abs(root.z.real) < 1e-6:
                    continue
                mirrored = -np.conj(root.z)
                if not found.searched.contains(mirrored):
                    continue
                assert min(abs(mirrored - other.z) for other in found.roots) < 1e-8
                mirrored_checked += 1
        assert mirrored_checked > 10

        rng = np.random.default_rng(778)
        for _ in range(5):
            cfg = random_config(rng, int(rng.integers(1, 4)), radius=1.5, min_dist=0.3)
            thin = Box(0.5, 8.0, -1e-3, 1e-3)
            assert count_zeros_in_box(cfg, thin) == 0


def test_criterion_8_resolvent_validation():
    with criterion(8, "resolvent kernel validation", budget_seconds=30.0):
        rng = np.random.default_rng(4242)
        for n in (1, 2, 4):
            cfg = random_config(rng, n, radius=1.0, min_dist=0.5, alpha_scale=2.0)
            z = 1.2 + 0.4j
            checked = 0
            while checked < 10:
                x = rng.uniform(-4, 4, 3)
                xp = rng.uniform(-4, 4, 3)
                clearance = min(
                    np.linalg.norm(cfg.points - x, axis=1).min(),
                    np.linalg.norm(cfg.points - xp, axis=1).min(),
                    np.linalg.norm(x - xp),
                )
                if clearance < 1.0:
                    continue
                coarse = helmholtz_residual(cfg, z, x, xp, h=1e-2)
                fine = helmholtz_residual(cfg, z, x, xp, h=5e-3)
                assert 3.5 < coarse / fine < 4.5
                a = resolvent_kernel(cfg, z, x, xp)
                b = resolvent_kernel(cfg, z, xp, x)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
                checked += 1

            trial = GaussianTestFunction(center=[0.2, 0.1, -0.1], width=2.0)
            scale = cfg.d_min if cfg.n > 1 else 1.0
            for j in range(cfg.n):
                res = [
                    boundary_condition_residual(cfg, z, trial, j, f * scale)
                    for f in (1e-2, 1e-3, 1e-4)
                ]
                assert res[0] / res[1] >= 5.0
                assert res[1] / res[2] >= 5.0


def test_criterion_9_identity_suite():
    with criterion(9, "matrix identities and sphere quadrature", budget_seconds=30.0):
        rng = np.random.default_rng(31337)
        cfg = random_config(rng, 4, radius=2.0, min_dist=0.5, alpha_scale=3.0)

        # scaling: Gamma_{alpha,Y}(lam z) = lam * Gamma_{alpha/lam, lam Y}(z)
        for _ in range(25):
            lam = float(rng.uniform(0.1, 10.0))
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            scaled = PointConfig(alpha=cfg.alpha / lam, points=lam * cfg.points)
            lhs = gamma_stack(cfg, lam * z)
            rhs = lam * gamma_stack(scaled, z)
            assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()

        # conjugation symmetry on the real axis, exact to rounding
        for z in (0.31, 1.7, 9.2):
            np.testing.assert_array_equal(
                gamma_stack(cfg, -z), np.conj(gamma_stack(cfg, z))
            )

        # log-derivative with Gamma' read off Gamma vs central differences of
        # log det Gamma: O(h^2) error decay
        zd = 0.7 + 0.3j
        exact = _trace_logdet(cfg, zd)
        errs = {h: abs(logdet_central_difference(cfg, zd, h) - exact) for h in (1e-2, 1e-3)}
        assert 30.0 < errs[1e-2] / errs[1e-3] < 300.0

        # sinc sphere quadrature: 1e4 seeded sample points, 1e-6 agreement
        pts, w = sphere_points(10_000, seed=2718, method="gauss")
        for _ in range(10):
            x = rng.uniform(-3.0, 3.0, 3)
            est = np.sum(w * np.exp(1j * pts @ x))
            assert abs(est - sinc(np.linalg.norm(x))) < 1e-6
