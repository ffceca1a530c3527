"""Seeded job lists for the three workloads, and the checks on their outputs.

A workload is a list of groups.  A group is one or more CLI calls plus a check
that reads their JSON outputs and returns the problems it found.  Checks use
closed forms and a characteristic matrix assembled here with numpy, never the
package's own routines, so a wrong answer from the package cannot pass its
own check.

The configurations follow `tests/conftest.py::random_config` (centers in a
ball with a minimum pairwise distance, strengths uniform in +-alpha_scale).
The parameters that set the amount of work -- the number of centers, the
center spacing, the number of bound states -- run over a fixed ladder, and
the seed draws everything else.  Different seeds then give different inputs
but nearly the same amount of work, so one pass is comparable across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

FOUR_PI = 4.0 * np.pi

# Criterion-7 search box and the box around the N=1 oracle root -4 pi i alpha.
RESONANCE_BOX = (-5.0, 5.0, -5.0, -0.2)
ORACLE_BOX = (-1.0, 1.0, -20.0, -1.0)
RESOLVENT_Z = complex(1.2, 0.4)
HELMHOLTZ_H = 1e-2


@dataclass(frozen=True)
class Group:
    jobs: list[list[str]]  # CLI arguments, without --out
    check: Callable[[list[dict]], list[str]]  # outputs -> problems found


@dataclass(frozen=True)
class Workload:
    configs: dict[str, dict]  # file name -> {"alpha": [...], "points": [...]}
    groups: list[Group]


# ------------------------------------------------------------ independent math


def gamma(cfg: dict, z: complex) -> np.ndarray:
    """Characteristic matrix: alpha_j - iz/4pi on the diagonal,
    -exp(iz d_jk)/(4 pi d_jk) off it."""
    alpha = np.asarray(cfg["alpha"], dtype=float)
    pts = np.asarray(cfg["points"], dtype=float)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    np.fill_diagonal(d, 1.0)
    out = -np.exp(1j * z * d) / (FOUR_PI * d)
    np.fill_diagonal(out, alpha - 1j * z / FOUR_PI)
    return out


def _gamma_real(cfg: dict, lam: float) -> np.ndarray:
    """Gamma(i lam), which is real symmetric."""
    return gamma(cfg, 1j * lam).real


def _sigma_min(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def _pair_distances(pts: np.ndarray) -> np.ndarray:
    iu, ju = np.triu_indices(len(pts), k=1)
    return np.linalg.norm(pts[iu] - pts[ju], axis=1)


def _two_center_roots(a: float, d: float) -> list[float]:
    """Roots lam of a + lam/4pi = +-exp(-lam d)/(4 pi d)."""
    hi = FOUR_PI * abs(a) + 1.0 / d + 1.0
    roots = []
    for sign in (1.0, -1.0):
        f = lambda t, s=sign: a + t / FOUR_PI - s * np.exp(-t * d) / (FOUR_PI * d)
        if f(0.0) < 0.0:
            roots.append(brentq(f, 0.0, hi, xtol=1e-15, rtol=1e-15))
    return sorted(roots)


def _c(v: dict) -> complex:
    return complex(v["re"], v["im"])


def _matrix(v: dict) -> np.ndarray:
    return np.asarray(v["re"]) + 1j * np.asarray(v["im"])


def _expect(ok: bool, problem: str, problems: list[str]) -> None:
    if not ok:
        problems.append(problem)


# ------------------------------------------------------------- configurations


def _random_points(rng, n, radius, min_dist):
    """Centers uniform in the ball, pairwise at least min_dist apart."""
    while True:
        directions = rng.standard_normal((n, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        pts = directions * (radius * rng.uniform(0.0, 1.0, size=n) ** (1.0 / 3.0))[:, None]
        if n == 1 or _pair_distances(pts).min() >= min_dist:
            return pts


def _strata(rng, count, lo, hi):
    """One uniform draw from each of `count` equal bins of [lo, hi), shuffled."""
    return lo + (hi - lo) * (rng.permutation(count) + rng.uniform(size=count)) / count


def _config(alpha, points) -> dict:
    return {
        "alpha": [float(a) for a in alpha],
        "points": [[float(c) for c in p] for p in np.reshape(points, (-1, 3))],
    }


def _with_close_pair(rng, n, radius, d):
    """n centers in the ball whose closest pair is exactly d apart."""
    while True:
        pts = _random_points(rng, n - 1, radius, d)
        v = rng.standard_normal(3)
        extra = pts[rng.integers(n - 1)] + d * v / np.linalg.norm(v)
        others = np.linalg.norm(pts - extra, axis=1)
        if np.linalg.norm(extra) <= radius and (n == 2 or np.sort(others)[1] >= d):
            return np.vstack([pts, extra])


def _clustered(rng, n, clusters):
    """n centers in tight clusters: strong coupling, many bound states."""
    centers = _random_points(rng, clusters, 6.0, 2.5)
    per = n // clusters
    return np.vstack([c + _random_points(rng, per, 0.8, 0.2) for c in centers])


# ----------------------------------------------------------------- resonances


def _check_resonances(cfg, box):
    def check(outputs):
        (out,) = outputs
        problems = []
        roots = out["roots"]
        _expect(
            sum(r["multiplicity"] for r in roots) == out["total_count"],
            "multiplicities do not sum to total_count",
            problems,
        )
        searched = out["box"]
        zs = [_c(r["z"]) for r in roots]
        for z in zs:
            g = gamma(cfg, z)
            _expect(
                _sigma_min(g) <= 1e-6 * max(1.0, np.linalg.norm(g, 2)),
                f"Gamma({z:.6g}) is not singular",
                problems,
            )
            mirror = -z.conjugate()
            inside = (
                searched["re_min"] <= mirror.real <= searched["re_max"]
                and searched["im_min"] <= mirror.imag <= searched["im_max"]
            )
            if abs(z.real) >= 1e-6 and inside:
                _expect(
                    min(abs(mirror - w) for w in zs) < 1e-8,
                    f"mirror of {z:.6g} missing",
                    problems,
                )
        _expect(
            all(box[0] <= z.real <= box[1] and box[2] <= z.imag <= box[3] for z in zs),
            "root outside the search box",
            problems,
        )
        return problems

    return check


def _check_single_center_root(alpha):
    def check(outputs):
        (out,) = outputs
        problems = []
        expect = -1j * FOUR_PI * alpha
        roots = out["roots"]
        _expect(out["total_count"] == 1 and len(roots) == 1, "N=1 oracle: not one root", problems)
        if roots:
            _expect(abs(_c(roots[0]["z"]) - expect) < 1e-8, "N=1 oracle: wrong root", problems)
            _expect(roots[0]["multiplicity"] == 1, "N=1 oracle: wrong multiplicity", problems)
        return problems

    return check


def resonances(rng) -> Workload:
    """Criterion-7 configurations (radius 1.2, spacing >= 0.5, alpha +-2) for
    N = 2 and 3, ten of each, with the longest pair distance stratified over
    [0.6, 1.4] (it sets how many zeros the box holds); plus the N=1 oracle."""
    configs, groups = {}, []
    alpha1 = float(rng.uniform(0.3, 1.5))
    configs["r00.json"] = _config([alpha1], [0.0, 0.0, 0.0])
    groups.append(
        Group(
            [["resonances", "r00.json", "--box", *map(str, ORACLE_BOX)]],
            _check_single_center_root(alpha1),
        )
    )
    for n in (2, 3):
        reach = _strata(rng, 10, 0.6, 1.4)
        alphas = np.column_stack([_strata(rng, 10, -2.0, 2.0) for _ in range(n)])
        for target, alpha in zip(reach, alphas):
            while True:
                pts = _random_points(rng, n, 1.2, 0.5)
                dist = _pair_distances(pts)
                pts *= target / dist.max()
                if dist.min() * target / dist.max() >= 0.5:
                    break
            name = f"r{len(configs):02d}.json"
            configs[name] = _config(alpha, pts)
            groups.append(
                Group(
                    [["resonances", name, "--box", *map(str, RESONANCE_BOX)]],
                    _check_resonances(configs[name], RESONANCE_BOX),
                )
            )
    return Workload(configs, groups)


# -------------------------------------------------------------------- certify


def _check_certificate(cfg):
    def check(outputs):
        (out,) = outputs
        problems = []
        _expect(out["verdict"] is True, "verdict is not true", problems)
        _expect(out["grid_covers_bound"] is True, "grid does not cover the bound", problems)
        zs, sig = out["z_grid"], out["sigma_min"]
        _expect(len(zs) == len(sig) == out["num_grid_points"], "grid lengths differ", problems)
        pts = np.asarray(cfg["points"])
        n = len(pts)
        bound = FOUR_PI * np.abs(cfg["alpha"]).max()
        if n > 1:
            bound += (n - 1) / _pair_distances(pts).min()
        _expect(out["z_star"] >= bound, "z_star below the row-sum bound", problems)
        for i in {0, len(zs) // 2, len(zs) - 1} if zs else ():
            expect = _sigma_min(gamma(cfg, zs[i]))
            _expect(
                abs(sig[i] - expect) <= 1e-9 * max(1.0, expect),
                f"sigma_min at z={zs[i]:.6g} is {sig[i]:.6g}, expected {expect:.6g}",
                problems,
            )
        return problems

    return check


def certify(rng) -> Workload:
    """Criterion-3 configurations (radius 5, alpha +-5) for N = 2..8 at
    closest-pair distance 0.4 * 2**k (k = 0..2, +-5%), plus four N=1
    configurations.  The spacing sets the default grid step; the largest
    strength, which sets how far the grid reaches, is held in 4.5..5."""
    configs, groups = {}, []
    shapes = [(1, None)] * 4
    shapes += [
        (n, 0.4 * 2.0 ** k * rng.uniform(0.95, 1.05)) for n in range(2, 9) for k in range(3)
    ]
    for n, d in shapes:
        alpha = rng.uniform(-5.0, 5.0, size=n)
        top = np.argmax(np.abs(alpha))
        alpha[top] = np.sign(alpha[top]) * rng.uniform(4.5, 5.0)
        pts = np.zeros((1, 3)) if n == 1 else _with_close_pair(rng, n, 5.0, d)
        name = f"c{len(configs):02d}.json"
        configs[name] = _config(alpha, pts)
        groups.append(Group([["certify", name]], _check_certificate(configs[name])))
    return Workload(configs, groups)


# --------------------------------------------------------------- bound states


def _check_spectrum(cfg, expect_lams=None):
    def check(outputs):
        (out,) = outputs
        problems = []
        eigs = out["eigenvalues"]
        inertia = int(np.sum(np.linalg.eigvalsh(_gamma_real(cfg, 0.0)) < 0.0))
        total = sum(e["multiplicity"] for e in eigs)
        _expect(
            total == inertia, f"{total} bound states, inertia of Gamma(0) is {inertia}", problems
        )
        for e in eigs:
            lam = e["lambda"]
            mu = np.linalg.eigvalsh(_gamma_real(cfg, lam))
            _expect(
                np.sort(np.abs(mu))[e["multiplicity"] - 1] <= 1e-9 * max(1.0, np.abs(mu).max()),
                f"Gamma(i {lam:.6g}) is not singular",
                problems,
            )
            _expect(
                abs(e["energy"] + lam * lam) <= 1e-12 * lam * lam, "energy != -lambda^2", problems
            )
        if expect_lams is not None:
            got = sorted(e["lambda"] for e in eigs for _ in range(e["multiplicity"]))
            _expect(
                len(got) == len(expect_lams)
                and all(abs(g - x) < 1e-9 for g, x in zip(got, expect_lams)),
                f"oracle: lambdas {got}, expected {expect_lams}",
                problems,
            )
        return problems

    return check


def _check_classification(label, kernel_vector=None):
    def check(outputs):
        (out,) = outputs
        problems = []
        _expect(out["label"] == label, f"label {out['label']}, expected {label}", problems)
        if kernel_vector is not None:
            kernel = out["kernel"]
            _expect(
                out["eigenvalue_multiplicity"] == 1 and len(kernel) == 1,
                "expected a one-dimensional kernel",
                problems,
            )
            if kernel:
                v = np.asarray(kernel[0])
                _expect(
                    abs(abs(v @ kernel_vector) - 1.0) < 1e-8,
                    "kernel vector is not the antisymmetric pair",
                    problems,
                )
        return problems

    return check


def _check_laurent(a2, a1, scale=1.0, tol=1e-8):
    def check(outputs):
        (out,) = outputs
        problems = []
        for key, want in (("A_minus2", a2), ("A_minus1", a1)):
            err = float(np.abs(_matrix(out[key]) - want).max())
            _expect(err <= tol * scale, f"{key} off by {err:.3g}", problems)
        return problems

    return check


def _check_resolvent(cfg, x, xp):
    def check(outputs):
        coarse, fine, swapped = outputs
        problems = []
        pts = np.asarray(cfg["points"])
        z = RESOLVENT_Z

        def green(a, b):
            r = np.linalg.norm(np.asarray(a) - np.asarray(b), axis=-1)
            return np.exp(1j * z * r) / (FOUR_PI * r)

        expect = green(x, xp) + green(pts, x) @ np.linalg.solve(gamma(cfg, z), green(pts, xp))
        value = _c(coarse["value"])
        _expect(
            abs(value - expect) <= 1e-9 * max(1.0, abs(expect)),
            f"kernel {value:.12g}, Krein formula gives {expect:.12g}",
            problems,
        )
        _expect(value == _c(fine["value"]), "same kernel value differs between calls", problems)
        _expect(
            abs(value - _c(swapped["value"])) <= 1e-12 * max(1.0, abs(value)),
            "kernel is not symmetric",
            problems,
        )
        ratio = coarse["helmholtz_residual"] / fine["helmholtz_residual"]
        _expect(3.5 < ratio < 4.5, f"Helmholtz ratio {ratio:.3f} is not about 4", problems)
        return problems

    return check


def _outside_point(rng, pts, gap):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v) * (np.linalg.norm(pts, axis=1).max() + gap)


def bound_states(rng) -> Workload:
    """Clustered N = 16, 32, 48, 64 configurations whose strengths are shifted
    together so that Gamma(0) has exactly 3N/4 negative eigenvalues, each run
    through spectrum, classify-zero, laurent and three resolvent calls; plus
    the closed-form oracles of criteria 1, 2, 5 and 6."""
    configs, groups = {}, []

    def add(cfg, jobs, check):
        name = f"b{len(configs):02d}.json"
        configs[name] = cfg
        groups.append(Group([[job[0], name, *job[1:]] for job in jobs], check))

    for n in (16, 32, 48, 64):
        pts = _clustered(rng, n, n // 8)
        alpha = rng.uniform(-2.0, 2.0, size=n)
        mu = np.linalg.eigvalsh(_gamma_real(_config(alpha, pts), 0.0))
        k = 3 * n // 4
        cfg = _config(alpha - 0.5 * (mu[k - 1] + mu[k]), pts)
        add(cfg, [["spectrum"]], _check_spectrum(cfg))
        add(cfg, [["classify-zero"]], _check_classification("Regular"))
        scale = max(1.0, float(np.abs(np.linalg.inv(_gamma_real(cfg, 0.0))).max()))
        add(cfg, [["laurent"]], _check_laurent(0.0, 0.0, scale))
        x = _outside_point(rng, pts, rng.uniform(2.0, 3.0))
        xp = _outside_point(rng, pts, rng.uniform(2.0, 3.0))
        while np.linalg.norm(x - xp) < 2.0:
            xp = _outside_point(rng, pts, rng.uniform(2.0, 3.0))
        # "=" keeps argparse from reading a negative coordinate as an option.
        z = f"--z={RESOLVENT_Z.real},{RESOLVENT_Z.imag}"
        xs, xps = (",".join(repr(float(c)) for c in p) for p in (x, xp))
        there, back = [f"--x={xs}", f"--xp={xps}"], [f"--x={xps}", f"--xp={xs}"]
        add(
            cfg,
            [
                ["resolvent", z, *there, f"--check-helmholtz={HELMHOLTZ_H}"],
                ["resolvent", z, *there, f"--check-helmholtz={HELMHOLTZ_H / 2}"],
                ["resolvent", z, *back],
            ],
            _check_resolvent(cfg, x, xp),
        )

    origin = [0.0, 0.0, 0.0]

    def pair(a, d):
        return _config([a, a], [origin, [d, 0.0, 0.0]])

    # Criterion 1: N=1 has the bound state lam = -4 pi alpha exactly when alpha < 0.
    # Criterion 1: N=1 has the bound state lam = -4 pi alpha exactly when alpha < 0.
    negative, positive = float(rng.uniform(-3.0, -0.1)), float(rng.uniform(0.1, 3.0))
    for a, lams in ((negative, [-FOUR_PI * negative]), (positive, [])):
        cfg = _config([a], origin)
        add(cfg, [["spectrum"]], _check_spectrum(cfg, lams))
    # Criterion 2: two equal centers, both branches (strength below -1.2/4pi d)
    # and the plus branch alone (|strength| below 0.8/4pi d).
    for both in (True, False):
        d = float(rng.uniform(0.5, 2.0))
        if both:
            a = float(rng.uniform(-2.0, -1.2 / (FOUR_PI * d)))
        else:
            a = float(rng.uniform(-0.8, 0.8) / (FOUR_PI * d))
        add(pair(a, d), [["spectrum"]], _check_spectrum(pair(a, d), _two_center_roots(a, d)))
    # Criterion 5: threshold labels.
    add(_config([0.0], origin), [["classify-zero"]], _check_classification("ZeroResonance"))
    cfg = _config([float(rng.uniform(0.2, 3.0))], origin)
    add(cfg, [["classify-zero"]], _check_classification("Regular"))
    d = float(rng.uniform(0.5, 2.0))
    antisymmetric = np.array([1.0, -1.0]) / np.sqrt(2.0)
    add(
        pair(-1.0 / (FOUR_PI * d), d),
        [["classify-zero"]],
        _check_classification("ZeroEigenvalue", antisymmetric),
    )
    # Criterion 6: Laurent coefficients.  At the two-center threshold the
    # antisymmetric eigenvalue of Gamma is -d z^2/8pi - i d^2 z^3/24pi + ...,
    # so A_-2 = -(4pi/d) M and A_-1 = (4pi/3) i M with M = [[1, -1], [-1, 1]].
    add(_config([0.0], origin), [["laurent"]], _check_laurent(0.0, FOUR_PI * 1j))
    add(_config([float(rng.uniform(0.5, 3.0))], origin), [["laurent"]], _check_laurent(0.0, 0.0))
    d = float(rng.uniform(0.7, 1.9))
    m = np.array([[1.0, -1.0], [-1.0, 1.0]])
    add(
        pair(-1.0 / (FOUR_PI * d), d),
        [["laurent"]],
        _check_laurent(-(FOUR_PI / d) * m, (FOUR_PI / 3.0) * 1j * m, FOUR_PI / d, 1e-6),
    )
    return Workload(configs, groups)


WORKLOADS = {"resonances": resonances, "certify": certify, "bound-states": bound_states}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](np.random.default_rng(seed))
