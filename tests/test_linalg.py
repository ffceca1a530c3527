"""Oracle checks of the LAPACK conventions the library relies on, through
numpy, its only binding: det by LU (root records and scan-det), solves (the
edge quadrature), the symmetric eigensolver and the smallest singular
value.  Also the outcome-typed test Cholesky and the singular-Gamma floor of
linalg.inverse, which the resolvent uses."""

import numpy as np
import pytest

from cholesky import NotPositiveDefinite, cholesky
from conftest import random_config
from deltaspec import PointConfig, SingularMatrixError, resolvent_kernel
from deltaspec.linalg import SIGMA_FLOOR, inverse
from deltaspec.model import FOUR_PI
from sinc import sinc_gram


def min_singular_value(m) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def cofactor_det(m):
    """Brute-force determinant by cofactor expansion along the first row."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * cofactor_det(minor)
    return total


def charpoly_smallest_root(h, hi, scan=400):
    """Smallest root of det(h - t I) on [0, hi] for Hermitian PSD h.

    det(h - tI) = prod(lam_i - t) is positive below the smallest eigenvalue
    and flips sign there (simple eigenvalues); a coarse scan brackets the
    first sign change and bisection refines it.
    """
    n = h.shape[0]

    def p(t):
        return cofactor_det(h - t * np.eye(n)).real

    lo = -1e-12 * max(1.0, hi)
    sign_lo = np.sign(p(lo))
    assert sign_lo > 0
    ts = np.linspace(lo, hi, scan)
    t0 = t1 = None
    for left, right in zip(ts, ts[1:]):
        if np.sign(p(right)) != sign_lo:
            t0, t1 = left, right
            break
    assert t0 is not None, "no sign change found; increase scan resolution"
    for _ in range(200):
        mid = 0.5 * (t0 + t1)
        if np.sign(p(mid)) == sign_lo:
            t0 = mid
        else:
            t1 = mid
    return 0.5 * (t0 + t1)


# ---------------------------------------------------------------- lu / det


def test_lu_det_identity():
    det = np.linalg.det(np.eye(4))
    assert det == pytest.approx(1.0)


def test_lu_det_diagonal_complex():
    det = np.linalg.det(np.diag([2.0, 3.0j]))
    assert det == pytest.approx(6.0j)


def test_lu_det_against_cofactor_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        det = np.linalg.det(m)
        oracle = cofactor_det(m)
        assert abs(det - oracle) <= 1e-10 * abs(oracle)


def test_lu_reconstruction_and_sign():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        det = np.linalg.det(m)
        # a wrong permutation parity flips the sign and fails this check;
        # the eigenvalue product is an independent path to the determinant
        assert abs(det - np.prod(np.linalg.eigvals(m))) <= 1e-10 * max(1.0, abs(det))


def test_lu_det_singular_is_zero_not_error():
    m = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    det = np.linalg.det(m)
    assert abs(det) < 1e-14


# ---------------------------------------------------------------- solve


def test_solve_identity():
    b = np.array([1.0, -2.0, 3.0], dtype=complex)
    np.testing.assert_allclose(np.linalg.solve(np.eye(3), b), b)


def test_solve_one_by_one_gamma_entry():
    alpha, z = 0.7, 1.3 + 0.4j
    entry = alpha - 1j * z / (4 * np.pi)
    x = np.linalg.solve(np.array([[entry]]), np.array([1.0]))
    assert x[0] == pytest.approx(1.0 / entry)


def test_solve_roundtrip_residual():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x = np.linalg.solve(m, b)
        assert np.linalg.norm(m @ x - b) <= 1e-10 * np.abs(m).max() * np.linalg.norm(x)


def test_solve_matrix_rhs():
    rng = np.random.default_rng(24)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    inv = np.linalg.solve(m, np.eye(4))
    np.testing.assert_allclose(m @ inv, np.eye(4), atol=1e-12)


def test_solve_rejects_singular():
    # Gamma(0) = -[[1, 1], [1, 1]] / 4pi and Gamma(0) = [[0]]: the resolvent
    # raises the library's error instead of solving with a singular Gamma
    x, xp = [0.3, 2.0, 0.0], [-1.0, 0.5, 1.5]
    rank_one = PointConfig(alpha=[-1.0 / FOUR_PI] * 2, points=[[0, 0, 0], [1, 0, 0]])
    with pytest.raises(SingularMatrixError):
        resolvent_kernel(rank_one, 0.0, x, xp)
    with pytest.raises(SingularMatrixError):
        resolvent_kernel(PointConfig(alpha=[0.0], points=[[0, 0, 0]]), 0.0, x, xp)


# ---------------------------------------------------------------- sym_eigen


def test_sym_eigen_diagonal():
    values, _ = np.linalg.eigh(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(values, [1.0, 3.0])


def test_sym_eigen_closed_form_2x2():
    a, b = 1.7, -0.6
    values, _ = np.linalg.eigh(np.array([[a, b], [b, a]]))
    np.testing.assert_allclose(values, sorted([a - abs(b), a + abs(b)]))


def test_sym_eigen_trace_and_orthogonality():
    rng = np.random.default_rng(25)
    for _ in range(50):
        a = rng.standard_normal((6, 6))
        m = a + a.T
        values, vectors = np.linalg.eigh(m)
        assert values.sum() == pytest.approx(np.trace(m), rel=1e-10, abs=1e-10)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(6), atol=1e-10)
        for k in range(6):
            res = m @ vectors[:, k] - values[k] * vectors[:, k]
            assert np.linalg.norm(res) <= 1e-10 * max(1.0, np.abs(m).max())


def test_sym_eigen_against_charpoly_oracle():
    rng = np.random.default_rng(26)
    a = rng.standard_normal((5, 5))
    m = a @ a.T  # PSD so the smallest eigenvalue lives in [0, trace]
    values, _ = np.linalg.eigh(m)
    oracle = charpoly_smallest_root(m.astype(complex), float(np.trace(m)))
    assert values[0] == pytest.approx(oracle, abs=1e-9 * max(1.0, np.trace(m)))


# ---------------------------------------------------------------- cholesky


def test_cholesky_identity():
    np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))


def test_cholesky_reports_failing_pivot():
    out = cholesky(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert isinstance(out, NotPositiveDefinite)
    assert out.pivot == 1  # second pivot fails


def test_cholesky_of_sinc_gram_succeeds():
    rng = np.random.default_rng(27)
    cfg = random_config(rng, 5)
    out = cholesky(sinc_gram(cfg, 1.0))
    assert not isinstance(out, NotPositiveDefinite)
    np.testing.assert_allclose(out @ out.T, sinc_gram(cfg, 1.0), atol=1e-12)


def test_cholesky_agrees_with_eigenvalue_sign():
    rng = np.random.default_rng(28)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n))
        m = a + a.T + rng.uniform(-2, 2) * np.eye(n)
        vals = np.linalg.eigvalsh(m)
        band = 1e-10 * np.abs(m).max()
        if np.abs(vals).min() <= band:
            continue  # borderline: excluded from the equivalence
        ok = not isinstance(cholesky(m), NotPositiveDefinite)
        assert ok == bool(vals.min() > 0.0)
        checked += 1
    assert checked > 900


def test_cholesky_reconstructs():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((7, 7))
    m = a @ a.T + 0.5 * np.eye(7)
    lower = cholesky(m)
    np.testing.assert_allclose(lower @ lower.T, m, atol=1e-12 * np.abs(m).max())


# ---------------------------------------------------------------- singular values


def test_min_singular_value_identity_and_defect():
    assert min_singular_value(np.eye(5)) == pytest.approx(1.0)
    assert min_singular_value(np.diag([2.0, 0.0])) == pytest.approx(0.0, abs=1e-16)


def test_min_singular_value_against_charpoly_oracle():
    rng = np.random.default_rng(30)
    for _ in range(5):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = np.conj(m.T) @ m
        oracle = np.sqrt(charpoly_smallest_root(h, float(np.trace(h).real)))
        assert min_singular_value(m) == pytest.approx(oracle, abs=1e-8)


def test_min_singular_value_via_real_embedding():
    # the 2N x 2N real embedding [[Re,-Im],[Im,Re]] of M*M carries each
    # eigenvalue twice; the doubled spectrum reproduces the singular values
    rng = np.random.default_rng(31)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = np.conj(m.T) @ m
    emb = np.block([[h.real, -h.imag], [h.imag, h.real]])
    vals = np.linalg.eigvalsh(emb)
    paired = vals.reshape(-1, 2)
    np.testing.assert_allclose(paired[:, 0], paired[:, 1], rtol=1e-8)
    assert min_singular_value(m) == pytest.approx(np.sqrt(max(vals[0], 0.0)), abs=1e-10)


# ---------------------------------------------------------------- inverse


def test_inverse_rejects_a_stack_with_one_singular_matrix():
    # the floor scales with max|g| over the whole stack: the third matrix, with
    # sigma_min 1e-11, passes alone but not next to a matrix of size 100
    assert SIGMA_FLOOR < 1e-11 <= SIGMA_FLOOR * 100.0
    g = np.stack([np.eye(2), 100.0 * np.eye(2), np.diag([1.0, 1e-11])]).astype(complex)
    np.testing.assert_array_equal(inverse(g[:2]), np.linalg.inv(g[:2]))
    np.testing.assert_array_equal(inverse(g[2]), np.linalg.inv(g[2]))
    with pytest.raises(SingularMatrixError, match="at or near a pole of the resolvent"):
        inverse(g)
    with pytest.raises(SingularMatrixError):
        inverse(np.stack([np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]])]))


# ---------------------------------------------------------------- A - iB invertibility


def test_symmetric_minus_i_spd_is_nonsingular():
    # real symmetric A, SPD B: A - iB is always invertible
    rng = np.random.default_rng(32)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        a = rng.standard_normal((n, n))
        a = a + a.T
        r = rng.standard_normal((n, n))
        b = r @ r.T + 1e-6 * np.eye(n)
        assert min_singular_value(a - 1j * b) > 0.0
