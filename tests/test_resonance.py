import concurrent.futures
import logging
import re
import sys
import threading

import numpy as np
import pytest

from conftest import random_config, two_center_config
from deltaspec import (
    Box,
    PointConfig,
    certify_real_axis,
    count_zeros_in_box,
    find_resonances,
    sinc_gram,
)
from deltaspec.model import FOUR_PI, gamma_stack
from deltaspec.resonance import (
    _GL_W,
    _GL_X,
    _EDGE_TOL,
    _MAX_EDGE_DEPTH,
    EIGENVALUE_POLE,
    RESONANCE,
    SubdivisionError,
    _SearchMemo,
    _edge_integrals,
    _edges,
    _panel_integrals,
    _trace_logdet,
    _windings,
)
import deltaspec.resonance as resonance
from sphere import (
    distinct_direction,
    exp_sum_on_sphere,
    has_distinct_projections,
    sphere_points,
)

ORIGIN = [0.0, 0.0, 0.0]


def one_center(alpha):
    return PointConfig(alpha=[alpha], points=[ORIGIN])


# ---------------------------------------------------------------- counting


def test_count_antibound_zero_of_single_center():
    # alpha - iz/4pi vanishes at z = -4*pi*i*alpha: lower half-plane for alpha > 0
    box = Box(-1.0, 1.0, -20.0, -1.0)
    assert count_zeros_in_box(one_center(1.0), box) == 1


def test_count_excludes_upper_half_pole():
    # for alpha < 0 the zero sits at +4pi i: an eigenvalue pole, outside the box
    box = Box(-1.0, 1.0, -20.0, -1.0)
    assert count_zeros_in_box(one_center(-1.0), box) == 0


def test_count_open_first_quadrant_is_empty():
    rng = np.random.default_rng(61)
    for _ in range(3):
        cfg = random_config(rng, int(rng.integers(1, 5)))
        assert count_zeros_in_box(cfg, Box(0.3, 4.0, 0.3, 4.0)) == 0


def test_count_is_additive_under_quadrisection():
    rng = np.random.default_rng(62)
    cfg = random_config(rng, 2, radius=1.0, min_dist=0.5)
    box = Box(-5.0, 5.0, -5.0, -0.1)
    total = count_zeros_in_box(cfg, box)
    parts = sum(count_zeros_in_box(cfg, child) for child in box.split(0.5, 0.5))
    assert parts == total


def test_count_thin_box_on_positive_real_axis_is_zero():
    # no real positive resonances: a sliver around the real axis is empty
    rng = np.random.default_rng(63)
    for _ in range(3):
        cfg = random_config(rng, int(rng.integers(1, 5)))
        box = Box(0.5, 6.0, -1e-3, 1e-3)
        assert count_zeros_in_box(cfg, box) == 0


# ---------------------------------------------------------------- root finding


def test_find_single_antibound_root():
    found = find_resonances(one_center(1.0), Box(-1.0, 1.0, -20.0, -1.0))
    assert found.total_count == 1
    assert len(found.roots) == 1
    root = found.roots[0]
    assert abs(root.z - (-4j * np.pi)) < 1e-8
    assert root.multiplicity == 1
    assert root.kind == RESONANCE
    assert root.abs_det < 1e-10
    assert root.sigma_min < 1e-10


def test_find_zero_resonance_excluded_from_lower_box():
    # alpha = 0: det Gamma vanishes only at z = 0, which sits on the box
    # boundary; the inward jitter keeps the threshold out of the search
    found = find_resonances(one_center(0.0), Box(-1.0, 1.0, -20.0, 0.0))
    assert found.total_count == 0
    assert found.roots == []


def test_eigenvalue_pole_is_cross_labeled():
    # alpha = -1: zero of det at +4pi i is an eigenvalue pole, not a resonance
    found = find_resonances(one_center(-1.0), Box(-1.0, 1.0, 1.0, 20.0))
    assert found.total_count == 1
    assert found.roots[0].kind == EIGENVALUE_POLE
    assert abs(found.roots[0].z - 4j * np.pi) < 1e-8
    assert found.resonances == []


def test_multiplicity_sum_matches_total_count():
    rng = np.random.default_rng(64)
    cfg = random_config(rng, 2, radius=1.0, min_dist=0.5)
    found = find_resonances(cfg, Box(-5.0, 5.0, -5.0, -0.1))
    assert sum(r.multiplicity for r in found.roots) == found.total_count
    assert all(found.searched.contains(r.z, pad=1e-6) for r in found.roots)


def test_roots_come_in_mirror_pairs():
    # Gamma(-conj z) = conj Gamma(z), so the zero set is symmetric under
    # reflection across the imaginary axis
    rng = np.random.default_rng(65)
    for n in (2, 3):
        cfg = random_config(rng, n, radius=1.0, min_dist=0.5, alpha_scale=2.0)
        box = Box(-5.0, 5.0, -5.0, -0.1)
        found = find_resonances(cfg, box)
        assert found.total_count > 0
        for root in found.roots:
            if abs(root.z.real) < 1e-6:
                continue
            mirrored = -np.conj(root.z)
            if not found.searched.contains(mirrored):
                continue
            partner = min(abs(mirrored - other.z) for other in found.roots)
            assert partner < 1e-8


def test_double_zero_at_origin_counted_with_order():
    # the threshold configuration has det Gamma ~ c z^2 at the origin:
    # an order-2 zero, counted as 2 and located with multiplicity 2.  No
    # eigenvalue of the real symmetric Gamma(it) changes sign there (a
    # tangency); the power sums of the box see one double zero.
    cfg = two_center_config(-1.0 / FOUR_PI, 1.0)
    box = Box(-0.1, 0.1, -0.1, 0.1)
    assert count_zeros_in_box(cfg, box) == 2
    found = find_resonances(cfg, box)
    assert found.total_count == 2
    [root] = found.roots
    assert root.multiplicity == 2
    assert abs(root.z) <= 1e-12
    assert root.kind == "threshold"


def test_find_residuals_are_recorded():
    three = random_config(np.random.default_rng(102), 3, radius=1.2, min_dist=0.5, alpha_scale=2.0)
    for cfg, box in (
        (one_center(2.0), Box(-1.0, 1.0, -40.0, -1.0)),
        (three, Box(-3.0, 3.0, -3.0, -0.2)),
    ):
        found = find_resonances(cfg, box)
        assert found.roots
        for root in found.roots:
            g = gamma_stack(cfg, root.z)
            assert root.sigma_min == pytest.approx(np.linalg.svd(g, compute_uv=False)[-1])
            # the same |det| as scan-det
            assert root.abs_det == abs(np.linalg.det(g))


# ---------------------------------------------------------------- edge quadrature


def edge_quad_reference(cfg, za, zb, tol, depth, depths):
    """The depth-first adaptive rule, one panel per solve: the reference the
    batched quadrature must reproduce bit for bit.  Records every depth it
    reaches in `depths`."""
    depths.append(depth)

    def panel(a, b):
        zm = 0.5 * (a + b) + 0.5 * (b - a) * _GL_X
        try:
            vals = _trace_logdet(cfg, zm)
        except np.linalg.LinAlgError:
            raise SubdivisionError("quadrature node hit a singular matrix")
        if not np.all(np.isfinite(vals)):
            raise SubdivisionError("quadrature node hit a singular matrix")
        return 0.5 * (b - a) * np.sum(_GL_W * vals)

    mid = 0.5 * (za + zb)
    whole = panel(za, zb)
    parts = panel(za, mid) + panel(mid, zb)
    if abs(whole - parts) < tol:
        return parts
    if depth >= _MAX_EDGE_DEPTH:
        raise SubdivisionError("edge quadrature exceeded maximum depth")
    return edge_quad_reference(cfg, za, mid, 0.5 * tol, depth + 1, depths) + (
        edge_quad_reference(cfg, mid, zb, 0.5 * tol, depth + 1, depths)
    )


def same_bits(x, y) -> bool:
    return np.complex128(x).tobytes() == np.complex128(y).tobytes()


def test_batched_edge_quadrature_is_bit_identical_on_search_box():
    # every edge of the criterion-7 search box, integrated one edge at a time,
    # one box at a time and with all boxes in one batch
    rng = np.random.default_rng(777)
    box = Box(-5.0, 5.0, -5.0, -0.2)
    cfgs = [random_config(rng, int(rng.integers(2, 4)), radius=1.2, min_dist=0.5,
                          alpha_scale=2.0) for _ in range(2)]
    for cfg in cfgs:
        edges = _edges(box)
        expected = [edge_quad_reference(cfg, za, zb, _EDGE_TOL, 0, []) for za, zb in edges]
        [together] = _edge_integrals(cfg, [edges], _SearchMemo())
        singly = [_edge_integrals(cfg, [[edge]], _SearchMemo())[0][0] for edge in edges]
        for want, got_together, got_singly in zip(expected, together, singly):
            assert same_bits(want, got_together)
            assert same_bits(want, got_singly)
        batched = _edge_integrals(cfg, [edges, edges[::-1]], _SearchMemo())
        assert all(same_bits(w, g) for w, g in zip(expected, batched[0]))
        assert all(same_bits(w, g) for w, g in zip(expected[::-1], batched[1]))


def test_batched_edge_quadrature_is_bit_identical_near_a_zero():
    # an edge passing 1e-5 below the zero -4 pi i refines deep; batch it with
    # the edges of a clean box so the panel levels mix shallow and deep panels
    cfg = one_center(1.0)
    y = -4.0 * np.pi - 1e-5
    edge = (complex(-1.0, y), complex(1.0, y))
    depths = []
    expected = edge_quad_reference(cfg, *edge, _EDGE_TOL, 0, depths)
    assert max(depths) >= 12
    clean_edges = _edges(Box(2.0, 3.0, -5.0, -1.0))
    got, clean = _edge_integrals(cfg, [[edge], clean_edges], _SearchMemo())
    assert same_bits(expected, got[0])
    assert clean is not None
    # an oblique edge, whose panel half-lengths have two non-zero parts
    oblique = (complex(-1.0, -4.0 * np.pi + 0.5), complex(1.5, -4.0 * np.pi - 0.25))
    expected = edge_quad_reference(cfg, *oblique, _EDGE_TOL, 0, [])
    assert same_bits(expected, _edge_integrals(cfg, [[oblique]], _SearchMemo())[0][0])


def test_failed_box_does_not_fail_its_batch():
    # the bottom edge of the grazing box runs through the zero -4 pi i, so its
    # winding integral fails; the clean box counted in the same batch keeps
    # its count, and the public count of the grazing box is the jittered one
    cfg = one_center(1.0)
    grazing = Box(-1.0, 1.0, -4.0 * np.pi, -1.0)
    clean = Box(-1.0, 1.0, -20.0, -1.0)
    assert _windings(cfg, [grazing, clean], _SearchMemo()) == [None, 1]
    assert _windings(cfg, [clean, grazing], _SearchMemo()) == [1, None]
    assert count_zeros_in_box(cfg, grazing) == 0
    assert count_zeros_in_box(cfg, clean) == 1


def test_singular_node_fails_only_its_panel():
    # choose alpha so that Gamma vanishes exactly at a Gauss node of the
    # panel -20i -> -i; the batched solve raises and the per-panel fallback
    # fails that panel alone
    a, b = complex(0.0, -20.0), complex(0.0, -1.0)
    node = (0.5 * (a + b) + 0.5 * (b - a) * _GL_X)[3]
    cfg = one_center(float((1j * node / FOUR_PI).real))
    with pytest.raises(np.linalg.LinAlgError):
        _trace_logdet(cfg, np.array([node]))
    ca, cb = complex(2.0, -20.0), complex(2.0, -1.0)
    sums, bad = _panel_integrals(cfg, np.array([a, ca]), np.array([b, cb]), _SearchMemo())
    assert bad.tolist() == [True, False]
    alone, _ = _panel_integrals(cfg, np.array([ca]), np.array([cb]), _SearchMemo())
    assert same_bits(sums[1], alone[0])
    # the box whose right edge holds the node fails, the clean one counts
    singular = Box(-1.0, 0.0, -20.0, -1.0)
    assert _edges(singular)[1] == (a, b)
    assert _windings(cfg, [singular, Box(-1.0, 1.0, -20.0, -1.0)], _SearchMemo()) == [None, 1]
    assert count_zeros_in_box(cfg, singular) == 0


def search_config(seed=777):
    rng = np.random.default_rng(seed)
    return random_config(rng, 3, radius=1.2, min_dist=0.5, alpha_scale=2.0)


def crowded_config():
    # the N=8 golden corpus config: its search box holds 19 zeros, too many
    # for the moment step of one box
    rng = np.random.default_rng(1)
    return random_config(rng, 8, radius=1.2, min_dist=0.5, alpha_scale=2.0)


def test_search_evaluates_each_panel_once(monkeypatch, caplog):
    # record the node set of every panel that reaches the solve; a panel and
    # its reverse have the same nodes, so a repeat in either orientation shows.
    # The crowded box is quadrisected, so children reuse their parents' panels.
    seen, repeats = set(), []
    original = resonance._trace_logdet

    def recording(cfg, zs):
        if np.ndim(zs) == 2:
            for row in zs:
                key = frozenset(row.tolist())
                if key in seen:
                    repeats.append(key)
                seen.add(key)
        return original(cfg, zs)

    monkeypatch.setattr(resonance, "_trace_logdet", recording)
    box = Box(-5.0, 5.0, -5.0, -0.2)
    with caplog.at_level(logging.DEBUG, logger="deltaspec.resonance"):
        found = find_resonances(crowded_config(), box)
    assert found.total_count > 0
    assert repeats == []
    [summary] = [m for m in caplog.messages if m.startswith("search of")]
    evaluated, reused = map(int, re.findall(r"\d+", summary.rsplit(": ", 1)[1]))
    assert evaluated == len(seen)
    assert reused > evaluated // 2


def test_shared_inner_edges_match_the_reference_in_both_orientations():
    # the children of a split, counted together after their parent, take
    # their outer edges from the parent's panels and each inner edge from a
    # sibling's, reversed; every edge still matches the recursive rule.  The
    # vertical split line of this box is Re z = 0, and for this config no
    # zero sits on it (counts 0, 0, 3, 3).
    cfg = search_config(seed=3)
    box = Box(-5.0, 5.0, -5.0, -0.2)
    children = box.split(0.5, 0.5)
    assert children[0].re_max == 0.0
    memo = _SearchMemo()
    _edge_integrals(cfg, [_edges(box)], memo)
    together = _edge_integrals(cfg, [_edges(child) for child in children], memo)
    assert memo.reused > 0
    assert _windings(cfg, children, _SearchMemo()) == [0, 0, 3, 3]
    for child, got in zip(children, together):
        for (za, zb), value in zip(_edges(child), got):
            assert same_bits(edge_quad_reference(cfg, za, zb, _EDGE_TOL, 0, []), value)
    # the right edge of the lower-left child is the left edge of the
    # lower-right child, reversed
    assert _edges(children[0])[1] == _edges(children[1])[3][::-1]


def test_zero_on_a_split_line_is_found_by_the_quadrature():
    # Gamma vanishes at a point of the lower half of the vertical split line,
    # sample 32 of 64 equispaced points on it: the edge quadrature alone
    # rejects the two lower children, and the nudged split and the search
    # still find the zero
    box = Box(-1.0, 1.0, -20.0, -1.0)
    children = box.split(0.5, 0.5)
    za, zb = _edges(children[0])[1]
    zero = (za + np.linspace(0.0, 1.0, 64) * (zb - za))[32]
    cfg = one_center(float((1j * zero / FOUR_PI).real))
    assert _windings(cfg, children, _SearchMemo()) == [None, None, 0, 0]
    split = resonance._split_counted(cfg, box, 1, _SearchMemo())
    assert sum(k for _, k in split) == 1
    [root] = find_resonances(cfg, box).roots
    assert abs(root.z - zero) <= 1e-12
    assert root.multiplicity == 1


def test_fallbacks_are_logged(caplog):
    cfg = one_center(1.0)
    grazing = Box(-1.0, 1.0, -4.0 * np.pi, -1.0)
    with caplog.at_level(logging.DEBUG, logger="deltaspec.resonance"):
        count_zeros_in_box(cfg, grazing)
    assert f"shrinking {grazing}: failed winding" in caplog.messages
    caplog.clear()
    # the midpoint split line y = -4 pi of this box runs through the zero:
    # the split is nudged
    y = -4.0 * np.pi
    box = Box(-1.0, 1.5, y - 5.0, y + 5.0)
    with caplog.at_level(logging.DEBUG, logger="deltaspec.resonance"):
        children = resonance._split_counted(cfg, box, 1, _SearchMemo())
    assert sum(k for _, k in children) == 1
    assert f"nudging split of {box} at (0.5, 0.5): failed winding" in caplog.messages


# ---------------------------------------------------------------- moment step


def summary_line(messages) -> str:
    [summary] = [m for m in messages if m.startswith("search of")]
    return summary


@pytest.mark.parametrize("seed", [777, 3, 20, 22])
def test_mirror_path_pairs_roots_exactly(seed, caplog):
    # Gamma(-conj z) = conj Gamma(z): on a box symmetric about Re z = 0 each
    # root's mirror -conj z is a root of the same multiplicity and kind,
    # found by the one search of the whole box without a quadrisection
    box = Box(-5.0, 5.0, -5.0, -0.2)
    with caplog.at_level(logging.DEBUG, logger="deltaspec.resonance"):
        found = find_resonances(search_config(seed), box)
    assert ": 1 boxes resolved by moments, 0 quadrisected: " in summary_line(caplog.messages)
    assert found.total_count > 0
    assert sum(r.multiplicity for r in found.roots) == found.total_count
    for r in found.roots:
        mirror = -r.z.conjugate()
        partner = min(found.roots, key=lambda other: abs(other.z - mirror))
        assert abs(partner.z - mirror) <= 1e-12 * (1.0 + abs(r.z))
        assert partner.multiplicity == r.multiplicity and partner.kind == r.kind


def test_mirror_path_finds_axis_roots():
    # 3 mirror pairs and 2 zeros on the imaginary axis for this config; at
    # each axis zero one eigenvalue of the real symmetric Gamma(it) vanishes
    cfg = search_config(20)
    found = find_resonances(cfg, Box(-5.0, 5.0, -5.0, -0.2))
    axis = [r for r in found.roots if abs(r.z.real) <= 1e-12]
    assert len(axis) == 2 and len(found.roots) == 8
    for r in axis:
        assert r.sigma_min < 1e-10
        assert np.abs(np.linalg.eigvalsh(gamma_stack(cfg, r.z).real)).min() < 1e-10


@pytest.mark.parametrize("alpha", [1.0, 0.7])
def test_mirror_path_single_center_oracle(alpha, caplog):
    # the box's midpoint split line runs through the zero, but the moment
    # step resolves the box without splitting it
    with caplog.at_level(logging.DEBUG, logger="deltaspec.resonance"):
        found = find_resonances(one_center(alpha), Box(-1.0, 1.0, -20.0, -1.0))
    assert ": 1 boxes resolved by moments, 0 quadrisected: " in summary_line(caplog.messages)
    [root] = found.roots
    assert abs(root.z - (-4j * np.pi * alpha)) < 1e-12
    assert root.multiplicity == 1 and root.kind == RESONANCE
    assert not any(m.startswith(("quadrisecting", "nudging split")) for m in caplog.messages)


def test_crowded_box_falls_back_to_quadrisection(caplog):
    box = Box(-5.0, 5.0, -5.0, -0.2)
    with caplog.at_level(logging.DEBUG, logger="deltaspec.resonance"):
        found = find_resonances(crowded_config(), box)
    assert found.total_count == 19
    assert sum(r.multiplicity for r in found.roots) == found.total_count
    assert any(m.startswith(f"quadrisecting {box}, count 19: rank: ") for m in caplog.messages)
    resolved, split = map(int, re.search(
        r": (\d+) boxes resolved by moments, (\d+) quadrisected: ", summary_line(caplog.messages)
    ).groups())
    assert split >= 1 and resolved >= 4
    assert all(found.searched.contains(r.z) for r in found.roots)


def test_tangent_zero_on_the_axis_falls_back(monkeypatch, caplog):
    # det Gamma ~ c z^2 at the origin and no eigenvalue of Gamma(it) changes
    # sign there.  With the moment step of the full box refused, the box is
    # quadrisected about the zero and its children still give one double zero.
    cfg = two_center_config(-1.0 / FOUR_PI, 1.0)
    box = Box(-0.1, 0.1, -0.1, 0.1)
    original = resonance._moment_roots

    def refuse_full_box(cfg, searched, count, tol, memo):
        if searched == box:
            return None, "rank: refused"
        return original(cfg, searched, count, tol, memo)

    monkeypatch.setattr(resonance, "_moment_roots", refuse_full_box)
    with caplog.at_level(logging.DEBUG, logger="deltaspec.resonance"):
        found = find_resonances(cfg, box)
    assert f"quadrisecting {box}, count 2: rank: refused" in caplog.messages
    assert ", 1 quadrisected: " in summary_line(caplog.messages)
    assert found.total_count == 2
    [root] = found.roots
    assert root.multiplicity == 2
    # the child box is not centred on the zero; Newton stops at the search tol
    assert abs(root.z) <= 1e-10
    assert root.kind == "threshold"


# ---------------------------------------------------------------- certificate


def test_certificate_two_center_example():
    cfg = two_center_config(1.0, 1.0)
    cert = certify_real_axis(cfg, grid_step=0.05)
    assert cert.z_star == pytest.approx(FOUR_PI + 2.0)
    assert cert.verdict
    assert cert.grid_covers_bound
    assert np.all(cert.sigma_min > cert.threshold)
    np.linalg.cholesky(sinc_gram(cfg, cert.z_grid))  # the Gram matrix is SPD on the grid


def test_certificate_single_center_closed_form():
    alpha = -0.7
    cfg = one_center(alpha)
    cert = certify_real_axis(cfg, grid_step=0.1)
    assert cert.verdict
    expect = np.sqrt(alpha ** 2 + cert.z_grid ** 2 / (16 * np.pi ** 2))
    np.testing.assert_allclose(cert.sigma_min, expect, rtol=1e-12)


def test_certificate_weyl_lower_bound():
    # sigma_min(Gamma(z)) >= z/4pi - ||Lambda||_2 where Lambda collects alpha
    # and the couplings; spot-check the perturbation bound along the grid
    rng = np.random.default_rng(66)
    cfg = random_config(rng, 4, radius=2.0, min_dist=0.5, alpha_scale=2.0)
    cert = certify_real_axis(cfg, grid_step=0.25)
    for z, sigma in zip(cert.z_grid[::40], cert.sigma_min[::40]):
        g = gamma_stack(cfg, float(z))
        lam = g + 1j * float(z) / FOUR_PI * np.eye(cfg.n)
        bound = float(z) / FOUR_PI - np.linalg.norm(lam, ord=2)
        assert sigma >= bound - 1e-12


def test_certificate_random_configs_all_pass():
    rng = np.random.default_rng(67)
    for _ in range(5):
        cfg = random_config(rng, int(rng.integers(1, 9)))
        cert = certify_real_axis(cfg, grid_step=0.1)
        assert cert.verdict


def test_certificate_gram_spd_implies_invertible():
    # wherever the sinc Gram matrix is SPD, A - iB is non-singular
    rng = np.random.default_rng(68)
    cfg = random_config(rng, 5)
    cert = certify_real_axis(cfg, grid_step=0.2)
    np.linalg.cholesky(sinc_gram(cfg, cert.z_grid))
    assert np.all(cert.sigma_min > 0.0)


def test_certificate_short_grid_fails_coverage():
    cfg = one_center(1.0)
    cert = certify_real_axis(cfg, grid_step=0.1, z_max=1.0)
    assert not cert.grid_covers_bound
    assert not cert.verdict


def test_certificate_large_n_gram_precision_exhaustion():
    # for many centers the sinc Gram matrix is numerically indefinite at the
    # smallest grid points (its exact smallest eigenvalue scales like a high
    # power of z), but Gamma itself stays far from singular: the verdict rests
    # on sigma_min alone and is true on a grid that reaches z_star
    rng = np.random.default_rng(5150)
    cfg = random_config(rng, 40, radius=5.0, min_dist=0.4, alpha_scale=3.0)
    cert = certify_real_axis(cfg, grid_step=0.05)
    assert cert.grid_covers_bound
    assert cert.sigma_min.min() > 1e-3
    assert cert.verdict


def _single_chunk(monkeypatch, cfg, **grid):
    with monkeypatch.context() as m:
        m.setattr(resonance, "_WORKERS", 1)
        m.setattr(resonance, "_CHUNK_POINTS", 10**9)
        return certify_real_axis(cfg, **grid)


@pytest.mark.parametrize("workers, chunk", [(None, None), (8, 37)])
def test_certificate_does_not_depend_on_chunking(monkeypatch, workers, chunk):
    # one chunk on one thread against the default pool, and against a pool of
    # more threads than cores switching often, whose lost writes would show:
    # an N=40 config on a fine grid near z = 0, and an N=8 default grid of
    # many chunks
    rng = np.random.default_rng(5163)
    n40b = random_config(rng, 40, radius=5.0, min_dist=0.4, alpha_scale=3.0)
    rng = np.random.default_rng(8)
    n8 = random_config(rng, 8, radius=2.0, min_dist=0.3, alpha_scale=5.0)
    cases = [(n40b, dict(grid_step=0.0005, z_max=0.2)), (n8, {})]
    if workers is not None:
        monkeypatch.setattr(resonance, "_WORKERS", workers)
        monkeypatch.setattr(resonance, "_CHUNK_POINTS", chunk)
    for cfg, grid in cases:
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5 if workers else interval)
        try:
            pooled = certify_real_axis(cfg, **grid)
        finally:
            sys.setswitchinterval(interval)
        single = _single_chunk(monkeypatch, cfg, **grid)
        for name in ("z_grid", "sigma_min"):
            assert np.array_equal(getattr(pooled, name), getattr(single, name)), name
        assert pooled.verdict == single.verdict
    assert pooled.z_grid.size > 4 * resonance._CHUNK_POINTS  # N=8: over four chunks
    assert pooled.verdict


def test_certificate_pool_joins_its_threads():
    rng = np.random.default_rng(8)
    cfg = random_config(rng, 8, radius=5.0, min_dist=0.4, alpha_scale=5.0)
    before = threading.active_count()
    cert = certify_real_axis(cfg, grid_step=0.002)
    assert cert.z_grid.size > 2 * resonance._CHUNK_POINTS
    assert threading.active_count() == before


def test_certificate_chunk_errors_propagate(monkeypatch):
    calls = []

    def broken(cfg, zs):
        calls.append(zs.size)
        raise FloatingPointError("chunk failed")

    monkeypatch.setattr(resonance, "_WORKERS", 2)
    monkeypatch.setattr(resonance.model, "gamma_stack", broken)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="chunk failed"):
        certify_real_axis(two_center_config(0.5, 1.3), grid_step=1e-4)
    assert calls and threading.active_count() == before


def test_certificate_rejects_bad_step_before_any_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("thread pool started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    for step in (0.0, -0.1):
        with pytest.raises(ValueError, match="grid_step > 0"):
            certify_real_axis(two_center_config(0.5, 1.3), grid_step=step)


def test_certificate_grid_spans_interval():
    cfg = two_center_config(0.5, 1.3)
    cert = certify_real_axis(cfg, grid_step=0.07)
    assert cert.z_grid[0] == pytest.approx(0.07)
    assert cert.z_grid[-1] >= cert.z_star
    steps = np.diff(cert.z_grid)
    np.testing.assert_allclose(steps, 0.07, rtol=1e-9)


# ---------------------------------------------------------------- quadratic form


def test_sinc_gram_quadratic_form_matches_sphere_integral():
    # v.Bv = (z/16pi^2) * integral over S^2 of |sum_j v_j e^{iz y_j.p}|^2
    rng = np.random.default_rng(69)
    cfg = random_config(rng, 4, radius=1.5, min_dist=0.3)
    z = 1.7
    b = -gamma_stack(cfg, z).imag
    pts, w = sphere_points(4_000, seed=7, method="gauss")
    for _ in range(3):
        v = rng.standard_normal(4)
        direct = float(v @ b @ v)
        assert direct >= 0.0
        phases = np.exp(1j * z * (pts @ cfg.points.T))  # (nodes, N)
        integrand = np.abs(phases @ v) ** 2
        integral = FOUR_PI * np.sum(w * integrand)
        assert direct == pytest.approx(z / (16 * np.pi ** 2) * integral, rel=1e-9)


def test_exp_sum_trivial_cases():
    pts = np.array([[0.5, -0.2, 1.0]])
    p = np.array([0.0, 0.0, 1.0])
    assert exp_sum_on_sphere(pts, [0.0], p) == 0.0
    val = exp_sum_on_sphere(pts, [1.0], p)
    assert abs(val) == pytest.approx(1.0)
    assert val == pytest.approx(np.exp(1j * 1.0))


def test_exp_sum_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        exp_sum_on_sphere(np.eye(3), [1.0, 1.0, 1.0], [1.0, 1.0, 0.0])


def test_exponential_sums_are_independent():
    # no nonzero coefficient vector kills the plane-wave sum on the sphere;
    # equivalently v.Sv > 0 for the sinc Gram matrix
    rng = np.random.default_rng(70)
    pts_sample, _ = sphere_points(1_000, seed=8, method="fibonacci")
    for n in (2, 4, 6):
        cfg = random_config(rng, n, radius=2.0, min_dist=0.3)
        v = rng.standard_normal(n)
        best = max(
            abs(exp_sum_on_sphere(cfg.points, v, p / np.linalg.norm(p)))
            for p in pts_sample[::10]
        )
        assert best > 1e-6
        s = sinc_gram(cfg, 1.0)
        assert v @ s @ v > 0.0


# ---------------------------------------------------------------- directions


def test_distinct_direction_collinear_points():
    pts = np.array([[float(k), 0.0, 0.0] for k in range(5)])
    assert has_distinct_projections(pts, np.array([1.0, 0.0, 0.0]))
    a = distinct_direction(pts)
    assert np.linalg.norm(a) == pytest.approx(1.0)
    assert has_distinct_projections(pts, a)


def test_distinct_direction_two_points():
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    a = distinct_direction(pts)
    assert abs(a @ (pts[0] - pts[1])) > 0.0


def test_distinct_direction_random_cloud():
    rng = np.random.default_rng(71)
    pts = rng.uniform(-1, 1, size=(10, 3))
    a = distinct_direction(pts)
    proj = np.sort(pts @ a)
    assert np.diff(proj).min() > 0.0
    assert len(np.unique(np.round(proj, 12))) == 10


def test_distinct_direction_deterministic():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(distinct_direction(pts), distinct_direction(pts))


# ---------------------------------------------------------------- box type


def test_box_validation():
    with pytest.raises(ValueError):
        Box(1.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Box(-1.0, 1.0, 2.0, 1.0)
    # a non-finite bound, and finite bounds whose extent overflows
    for bounds in [(-1.0, np.inf, -20.0, -1.0), (-1.0, 1.0, -np.inf, -1.0),
                   (-1e308, 1e308, -5.0, -0.2)]:
        with pytest.raises(ValueError, match="finite"):
            Box(*bounds)


def test_sphere_points_weights_normalized():
    for method in ("gauss", "fibonacci", "uniform"):
        pts, w = sphere_points(500, seed=1, method=method)
        assert w.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-12)
