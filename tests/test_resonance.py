import hashlib
import logging
import re
from collections import Counter

import numpy as np
import pytest

from conftest import random_config, two_center_config
from deltaspec import (
    Box,
    PointConfig,
    certify_real_axis,
    count_zeros_in_box,
    find_resonances,
)
from deltaspec import model, spectral
from deltaspec.model import FOUR_PI, gamma_stack
from deltaspec.resonance import (
    _GL_W,
    _GL_X,
    _EDGE_TOL,
    _MAX_EDGE_DEPTH,
    EIGENVALUE_POLE,
    RESONANCE,
    BoundaryError,
    SubdivisionError,
    _SearchMemo,
    _accept_panels,
    _edges,
    _newton_polish,
    _panel_integrals,
    _trace_logdet,
    _windings,
)
import deltaspec.resonance as resonance
from sinc import sinc_gram
from test_golden_cli import _configs as golden_configs
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
    assert found.roots == ()


def test_eigenvalue_pole_is_cross_labeled():
    # alpha = -1: zero of det at +4pi i is an eigenvalue pole, not a resonance
    found = find_resonances(one_center(-1.0), Box(-1.0, 1.0, 1.0, 20.0))
    assert found.total_count == 1
    assert found.roots[0].kind == EIGENVALUE_POLE
    assert abs(found.roots[0].z - 4j * np.pi) < 1e-8
    assert found.resonances == ()


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


def edge_quad_reference(cfg, za, zb, tol, depth, depths, halves):
    """The depth-first adaptive rule, one panel per solve: the reference whose
    panels the batched quadrature must accept.  Records every depth it
    reaches in `depths` and every half it accepts, as (start, end), in
    `halves`."""
    depths.append(depth)

    def panel(a, b):
        zm = 0.5 * (a + b) + 0.5 * (b - a) * _GL_X
        vals = _trace_logdet(cfg, zm)
        if not np.all(np.isfinite(vals)):
            raise SubdivisionError("quadrature node hit a singular matrix")
        return 0.5 * (b - a) * np.sum(_GL_W * vals)

    mid = 0.5 * (za + zb)
    whole = panel(za, zb)
    parts = panel(za, mid) + panel(mid, zb)
    if abs(whole - parts) < tol:
        halves.extend([(za, mid), (mid, zb)])
        return parts
    if depth >= _MAX_EDGE_DEPTH:
        raise SubdivisionError("edge quadrature exceeded maximum depth")
    return edge_quad_reference(cfg, za, mid, 0.5 * tol, depth + 1, depths, halves) + (
        edge_quad_reference(cfg, mid, zb, 0.5 * tol, depth + 1, depths, halves)
    )


def reference_halves(cfg, edges, depths=None) -> Counter:
    """The halves the recursive rule accepts on the edges, by exact endpoints."""
    halves = []
    for za, zb in edges:
        edge_quad_reference(cfg, za, zb, _EDGE_TOL, 0, [] if depths is None else depths, halves)
    return Counter(halves)


def accepted_halves(memo, edges) -> Counter:
    lo, hi = memo.accepted[tuple(edges)]
    return Counter(zip(lo.tolist(), hi.tolist()))


def same_bits(x, y) -> bool:
    return np.complex128(x).tobytes() == np.complex128(y).tobytes()


def test_batched_edge_quadrature_accepts_the_reference_panels_on_search_box():
    # every edge of the criterion-7 search box, refined one edge at a time,
    # one box at a time and with the box batched with its reverse
    rng = np.random.default_rng(777)
    box = Box(-5.0, 5.0, -5.0, -0.2)
    cfgs = [random_config(rng, int(rng.integers(2, 4)), radius=1.2, min_dist=0.5,
                          alpha_scale=2.0) for _ in range(2)]
    for cfg in cfgs:
        edges = _edges(box)
        for edge in edges:
            memo = _SearchMemo()
            assert _accept_panels(cfg, [[edge]], memo) == [True]
            assert accepted_halves(memo, [edge]) == reference_halves(cfg, [edge])
        expected = reference_halves(cfg, edges)
        memo = _SearchMemo()
        assert _accept_panels(cfg, [edges], memo) == [True]
        assert accepted_halves(memo, edges) == expected
        memo = _SearchMemo()
        assert _accept_panels(cfg, [edges, edges[::-1]], memo) == [True, True]
        assert accepted_halves(memo, edges) == expected
        assert accepted_halves(memo, edges[::-1]) == expected


def test_batched_edge_quadrature_accepts_the_reference_panels_near_a_zero():
    # an edge passing 1e-5 below the zero -4 pi i refines deep; batch it with
    # the edges of a clean box so the panel levels mix shallow and deep panels
    cfg = one_center(1.0)
    y = -4.0 * np.pi - 1e-5
    edge = (complex(-1.0, y), complex(1.0, y))
    depths = []
    expected = reference_halves(cfg, [edge], depths)
    assert max(depths) >= 12
    clean_edges = _edges(Box(2.0, 3.0, -5.0, -1.0))
    memo = _SearchMemo()
    assert _accept_panels(cfg, [[edge], clean_edges], memo) == [True, True]
    assert accepted_halves(memo, [edge]) == expected
    assert accepted_halves(memo, clean_edges) == reference_halves(cfg, clean_edges)
    # an oblique edge, whose panel half-lengths have two non-zero parts
    oblique = (complex(-1.0, -4.0 * np.pi + 0.5), complex(1.5, -4.0 * np.pi - 0.25))
    memo = _SearchMemo()
    assert _accept_panels(cfg, [[oblique]], memo) == [True]
    assert accepted_halves(memo, [oblique]) == reference_halves(cfg, [oblique])


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


def singular_node_config():
    """One center whose Gamma vanishes exactly at a Gauss node of the panel
    -20i -> -i: the panel's ends, the node and the config."""
    a, b = complex(0.0, -20.0), complex(0.0, -1.0)
    node = (0.5 * (a + b) + 0.5 * (b - a) * _GL_X)[3]
    return a, b, node, one_center(float((1j * node / FOUR_PI).real))


def test_singular_node_fails_only_its_panel():
    # the batched solve meets the singular node, which reads NaN and fails
    # its panel alone
    a, b, node, cfg = singular_node_config()
    assert np.isnan(_trace_logdet(cfg, np.array([node]))).all()
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


def test_box_whose_every_jitter_keeps_the_singular_node_raises():
    # the right edge holds the singular node, and the box is too narrow for
    # even one inward jitter of 1e-6 * diameter
    *_, cfg = singular_node_config()
    with pytest.raises(BoundaryError):
        count_zeros_in_box(cfg, Box(-1e-7, 0.0, -20.0, -1.0))


def test_newton_polish_stops_on_an_exact_zero_and_outside_its_box():
    *_, node, cfg = singular_node_config()
    box = Box(-1.0, 1.0, -20.0, -1.0)
    assert same_bits(_newton_polish(cfg, node, 1, 1e-10, box), node)
    # one step from 1.5 - 0.5i lands on the zero -4 pi i, outside the padded box
    assert _newton_polish(one_center(1.0), 1.5 - 0.5j, 1, 1e-10, Box(1.0, 2.0, -1.0, 0.0)) is None


@pytest.mark.xfail(strict=True, reason="a zero within 1e-6 diameter of an edge is "
                   "dropped: the first quadrature misses it and the jitter moves past it")
def test_zero_just_inside_an_edge_is_counted():
    y = -4.0 * np.pi
    for box in (Box(-1.0, 1.0, y - 1.0, y + 1e-6), Box(-0.7, 1.3, y - 1.0, y + 1e-8)):
        assert count_zeros_in_box(one_center(1.0), box) == 1
    rng = np.random.default_rng(5)
    points = rng.uniform(-1.0, 1.0, (3, 3))
    cfg = PointConfig(alpha=rng.uniform(-1.0, 1.0, 3), points=points)
    z = -4.645890627918926 - 1.405621974565393j
    found = find_resonances(cfg, Box(z.real - 1.37, z.real + 2.11, z.imag - 1.5, z.imag + 1e-7))
    assert [abs(r.z - z) < 1e-9 for r in found.roots] == [True]


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


def test_shared_inner_edges_accept_the_reference_panels_in_both_orientations():
    # the children of a split, counted together after their parent, take
    # their outer edges from the parent's panels and each inner edge from a
    # sibling's, reversed; every child still accepts the panels of the
    # recursive rule.  The vertical split line of this box is Re z = 0, and
    # for this config no zero sits on it (counts 0, 0, 3, 3).
    cfg = search_config(seed=3)
    box = Box(-5.0, 5.0, -5.0, -0.2)
    children = box.split(0.5, 0.5)
    assert children[0].re_max == 0.0
    memo = _SearchMemo()
    _accept_panels(cfg, [_edges(box)], memo)
    assert _accept_panels(cfg, [_edges(child) for child in children], memo) == [True] * 4
    assert memo.reused > 0
    assert _windings(cfg, children, _SearchMemo()) == [0, 0, 3, 3]
    for child in children:
        edges = _edges(child)
        assert accepted_halves(memo, edges) == reference_halves(cfg, edges)
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
def test_moment_step_finds_mirror_pairs_without_quadrisection(seed, caplog):
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


def test_moment_step_finds_imaginary_axis_roots():
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
def test_moment_step_single_center_oracle(alpha, caplog):
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


def rounding_term(cfg, cert) -> float:
    """rho of certify_real_axis: 8 N eps times the largest row sum of |Gamma|
    at the top node."""
    row_sum = np.abs(gamma_stack(cfg, cert.z_grid[-1])).sum(axis=1).max()
    return 8 * cfg.n * np.finfo(float).eps * row_sum


# alpha = 0.02 at distance 1: Gamma(0) is Regular, but no row is dominant
# below k = 4pi sqrt(r^2 - alpha^2) ~ 0.968, r = 1/4pi, so the Lipschitz
# bisection proves [0, 0.968) and dominance the rest
def lipschitz_config():
    return two_center_config(0.02, 1.0)


def test_certificate_two_center_example():
    # every row dominant at every k >= 0: the two end nodes and nothing else
    cfg = two_center_config(1.0, 1.0)
    cert = certify_real_axis(cfg)
    assert cert.z_star == pytest.approx(FOUR_PI + 2.0)
    assert cert.verdict and cert.k0 == 0.0 and cert.uncovered == ()
    assert cert.z_grid[-1] >= cert.z_star
    assert cert.dominance_start == 0.0 and cert.min_margin is None
    np.testing.assert_array_equal(cert.z_grid, [0.0, cert.z_star])
    cfg = lipschitz_config()
    cert = certify_real_axis(cfg)
    assert cert.z_star == pytest.approx(0.02 * FOUR_PI + 2.0)
    assert cert.verdict and cert.k0 == 0.0 and cert.uncovered == ()
    assert cert.dominance_start == pytest.approx(4 * np.pi * np.sqrt(1 / FOUR_PI ** 2 - 0.02 ** 2))
    assert cert.min_margin > 1.0
    # the Gram matrix is SPD at the nodes
    np.linalg.cholesky(sinc_gram(cfg, cert.z_grid[cert.z_grid > 0.0]))


def test_certificate_single_center_closed_form():
    alpha = -0.7
    cfg = one_center(alpha)
    cert = certify_real_axis(cfg)
    assert cert.verdict
    expect = np.sqrt(alpha ** 2 + cert.z_grid ** 2 / (16 * np.pi ** 2))
    np.testing.assert_allclose(cert.sigma_min, expect, rtol=1e-12)


def test_certificate_weyl_lower_bound():
    # sigma_min(Gamma(k)) is (N/4pi)-Lipschitz (Weyl): at random k between
    # neighbouring nodes an independent SVD is at least the bound from either
    # node, less the rounding term; at the nodes it is also at least
    # k/4pi - ||Lambda||_2, Lambda collecting alpha and the couplings
    rng = np.random.default_rng(66)
    for _ in range(8):
        cfg = random_config(rng, int(rng.integers(2, 9)), radius=2.0, min_dist=0.3,
                            alpha_scale=2.0)
        cert = certify_real_axis(cfg)
        assert cert.verdict
        lip, rho = cfg.n / FOUR_PI, rounding_term(cfg, cert)
        ks, sig = cert.z_grid, cert.sigma_min
        i = rng.integers(0, ks.size - 1, size=500)
        k = ks[i] + rng.uniform(0.0, 1.0, size=500) * (ks[i + 1] - ks[i])
        got = np.linalg.svd(gamma_stack(cfg, k), compute_uv=False)[:, -1]
        bound = np.maximum(sig[i] - lip * (k - ks[i]), sig[i + 1] - lip * (ks[i + 1] - k))
        assert np.all(got >= bound - rho)
        lam = gamma_stack(cfg, ks) + 1j * ks[:, None, None] / FOUR_PI * np.eye(cfg.n)
        assert np.all(sig >= ks / FOUR_PI - np.linalg.norm(lam, ord=2, axis=(1, 2)) - 1e-12)


def test_certificate_random_configs_all_pass():
    rng = np.random.default_rng(67)
    for _ in range(5):
        cfg = random_config(rng, int(rng.integers(1, 9)))
        cert = certify_real_axis(cfg)
        assert cert.verdict and cert.k0 == 0.0


def test_certificate_gram_spd_implies_invertible():
    # wherever the sinc Gram matrix is SPD, A - iB is non-singular
    rng = np.random.default_rng(68)
    cfg = random_config(rng, 5)
    cert = certify_real_axis(cfg)
    np.linalg.cholesky(sinc_gram(cfg, cert.z_grid[cert.z_grid > 0.0]))
    assert np.all(cert.sigma_min > 0.0)


def test_certificate_short_grid_fails_coverage():
    cfg = one_center(1.0)
    cert = certify_real_axis(cfg, z_max=1.0)
    # [0, 1] is proved by dominance
    np.testing.assert_array_equal(cert.z_grid, [0.0, 1.0])
    assert cert.dominance_start == 0.0 and cert.min_margin is None
    assert cert.z_grid[-1] < cert.z_star
    assert not cert.verdict
    cert = certify_real_axis(lipschitz_config(), z_max=0.5)
    assert cert.z_grid[-1] == 0.5 and cert.min_margin > 1.0  # [0, 0.5] is proved
    assert cert.dominance_start > 0.5 and cert.uncovered == ()
    assert cert.z_grid[-1] < cert.z_star
    assert not cert.verdict
    for z_max in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="z_max > 0"):
            certify_real_axis(cfg, z_max=z_max)


def test_certificate_large_n_gram_precision_exhaustion():
    # for many centers the sinc Gram matrix is numerically indefinite at
    # small z (its exact smallest eigenvalue scales like a high power of z),
    # but Gamma itself stays far from singular: the proof rests on
    # sigma_min(Gamma) alone
    rng = np.random.default_rng(5150)
    cfg = random_config(rng, 40, radius=5.0, min_dist=0.4, alpha_scale=3.0)
    cert = certify_real_axis(cfg)
    assert cert.z_grid[-1] >= cert.z_star
    assert cert.sigma_min.min() > 1e-3
    assert cert.verdict


def test_certificate_grid_spans_interval():
    # the nodes run from k0 to z_star; the margins recomputed from them prove
    # every interval between neighbours that starts below dominance_start, and
    # Varah's bound is positive on the rest
    cfg = two_center_config(0.5, 1.3)
    cert = certify_real_axis(cfg)
    np.testing.assert_array_equal(cert.z_grid, [0.0, cert.z_star])
    assert cert.dominance_start == 0.0 and cert.min_margin is None
    cfg = lipschitz_config()
    cert = certify_real_axis(cfg)
    assert cert.z_grid[0] == cert.k0 == 0.0
    assert cert.z_grid[-1] == cert.z_star
    steps = np.diff(cert.z_grid)
    assert np.all(steps > 0.0)
    rho = rounding_term(cfg, cert)
    margin = (cert.sigma_min[:-1] + cert.sigma_min[1:] - 2 * rho) / (cfg.n / FOUR_PI * steps)
    below = cert.z_grid[:-1] < cert.dominance_start
    assert 0 < below.sum() < below.size
    assert margin[below].min() == cert.min_margin > 1.0
    ks = cert.z_grid[:-1][~below]
    assert np.all(np.hypot(0.02, ks / FOUR_PI) > 1 / FOUR_PI)


def test_certificate_zero_resonance_starts_at_k0(caplog):
    # alpha = 0: sigma_min(Gamma(k)) = k/4pi vanishes at 0, so (0, k0) is left out
    with caplog.at_level(logging.DEBUG, logger="deltaspec.resonance"):
        cert = certify_real_axis(one_center(0.0))
    assert cert.k0 == cert.z_grid[0] == 1e-2
    assert cert.verdict
    [line] = [m for m in caplog.messages if m.startswith("certificate from k0 = 0.01 ")]
    assert f"{cert.z_grid.size} evaluations" in line and line.endswith("uncovered []")


@pytest.mark.parametrize("d", [1.0, 0.3])
def test_certificate_zero_eigenvalue_starts_at_k0(d):
    # alpha = -1/(4pi d): Gamma(0) has the kernel (1, -1), a zero eigenvalue,
    # and sigma_min grows like k^2 from 0.  |alpha| = r, so no row is dominant
    # at 0, and every row is from k ~ 4pi r sqrt(2 tau) ~ 1e-7 / d on:
    # dominance proves [k0, z_star] from its two ends
    cfg = two_center_config(-1.0 / (FOUR_PI * d), d)
    assert spectral.classify_zero(cfg).label == spectral.ZERO_EIGENVALUE
    cert = certify_real_axis(cfg)
    assert cert.k0 == cert.z_grid[0] == 1e-2 * min(1.0, d)
    assert 0.0 < cert.dominance_start < 1e-6 / d
    assert cert.verdict and cert.min_margin is None
    np.testing.assert_array_equal(cert.z_grid, [cert.k0, cert.z_star])


@pytest.mark.parametrize("d, most", [(1.0, 600), (0.3, 6000)])
def test_certificate_zero_eigenvalue_below_dominance(d, most):
    # an equilateral triangle of side d with alpha = -1/(4pi d): Gamma(0) is
    # alpha I - (J - I)/(4pi d), zero on the zero-sum vectors, and no row is
    # dominant below k = sqrt(3)/d, so the bisection crawls up from k0
    third = np.array([0.5, np.sqrt(3.0) / 2.0, 0.0]) * d
    cfg = PointConfig(alpha=[-1.0 / (FOUR_PI * d)] * 3,
                      points=[ORIGIN, [d, 0.0, 0.0], third])
    assert spectral.classify_zero(cfg).label == spectral.ZERO_EIGENVALUE
    cert = certify_real_axis(cfg)
    assert cert.k0 == cert.z_grid[0] == 1e-2 * min(1.0, cfg.d_min)
    assert cert.dominance_start == pytest.approx(np.sqrt(3.0) / d)
    assert cert.verdict and cert.min_margin > 1.0
    assert cert.z_grid.size <= most


def test_certificate_reports_an_interval_it_cannot_prove(monkeypatch, caplog):
    # a sigma_min that vanishes at c, below dominance_start: the intervals
    # near c, where it falls below the rounding term, halve until their
    # midpoint rounds onto an end, and are reported uncovered; the margins of
    # the intervals the Lipschitz bound proved all exceed 1
    c, true_sigma = 2.0 / 3.0, resonance._sigma_min

    def dented(cfg, ks):
        return np.minimum(true_sigma(cfg, ks), 0.5 * cfg.n / FOUR_PI * np.abs(ks - c))

    monkeypatch.setattr(resonance, "_sigma_min", dented)
    with caplog.at_level(logging.DEBUG, logger="deltaspec.resonance"):
        cert = certify_real_axis(lipschitz_config())
    assert cert.dominance_start > c
    lo, hi = np.array(cert.uncovered).T
    assert lo.size and np.all(hi == np.nextafter(lo, np.inf))
    assert np.all(np.abs(lo - c) < 1e-12) and np.any((lo <= c) & (c <= hi))
    assert not cert.verdict and cert.z_grid[-1] >= cert.z_star
    assert cert.min_margin > 1.0
    assert any(m.endswith(f"uncovered {list(cert.uncovered)}") for m in caplog.messages)
    # where every row is dominant, the proof reads sigma_min at the ends only
    cert = certify_real_axis(two_center_config(1.0, 1.0))
    assert cert.verdict and cert.z_grid.size == 2 and cert.uncovered == ()


def test_certificate_batches_hold_at_most_the_entry_bound(monkeypatch):
    # the triangle's bisection levels hold hundreds of midpoints, and the
    # levels of the N=8 golden search hundreds of panels; with room for 16
    # matrices a batch, every Gamma batch stays within the bound and the
    # certificate and the roots are those of unbounded batches, bit for bit
    d = 0.3
    third = np.array([0.5, np.sqrt(3.0) / 2.0, 0.0]) * d
    cfg = PointConfig(alpha=[-1.0 / (FOUR_PI * d)] * 3,
                      points=[ORIGIN, [d, 0.0, 0.0], third])
    crowded = random_config(np.random.default_rng(1), 8, radius=1.2, min_dist=0.5,
                            alpha_scale=2.0)
    box = Box(-5.0, 5.0, -5.0, -0.2)
    whole, found = certify_real_axis(cfg), find_resonances(crowded, box)
    sizes, original = [], model.gamma_stack

    def counted(cfg, zs):
        out = original(cfg, zs)
        sizes.append(out.size // cfg.n ** 2)
        return out

    monkeypatch.setattr(model, "gamma_stack", counted)
    monkeypatch.setattr(model, "_BATCH_ENTRIES", 16 * 9)
    cert = certify_real_axis(cfg)
    assert max(sizes) == 16 and len(sizes) > whole.z_grid.size / 16
    for name in ("z_grid", "sigma_min"):
        assert np.array_equal(getattr(cert, name), getattr(whole, name))
    for name in ("z_star", "verdict", "k0", "dominance_start", "min_margin", "uncovered"):
        assert getattr(cert, name) == getattr(whole, name)
    sizes.clear()
    monkeypatch.setattr(model, "_BATCH_ENTRIES", 16 * 64)
    bounded = find_resonances(crowded, box)
    assert max(sizes) == 16 and len(sizes) > 100
    assert (bounded.searched, bounded.total_count) == (found.searched, found.total_count)
    assert bounded.roots == found.roots and len(found.roots) > 16


# The graded configs of a zero-sum threshold plus one strength of 1e12..1e15:
# rho = 8 N eps max row sum of |Gamma| exceeds sigma_min on an interval
# below dominance_start that no level can prove.
GRADED = [(1e15, 0.01, 0.02), (1e12, 1e15, 0.0, 0.01), (1e13, 0.01, 0.02)]


@pytest.mark.parametrize("alpha", GRADED)
def test_certificate_stops_at_the_evaluation_budget(alpha, caplog):
    points = [[0.7 * i, 0.4 * (i % 2), 0.0] for i in range(len(alpha))]
    cfg = PointConfig(alpha=alpha, points=points)
    with caplog.at_level(logging.DEBUG, logger="deltaspec.resonance"):
        cert = certify_real_axis(cfg)
    assert not cert.verdict and cert.z_grid[-1] >= cert.z_star
    assert cert.z_grid.size <= resonance.CERTIFY_BUDGET
    [line] = [m for m in caplog.messages if m.startswith("certificate from")]
    left = int(re.search(r", (\d+) intervals left open at the budget of 65536 ", line)[1])
    assert 0 < left <= len(cert.uncovered)
    # every interval left open starts below dominance_start
    assert max(a for a, _ in cert.uncovered) < cert.dominance_start


def test_certificate_of_a_dominant_graded_config_takes_two_evaluations():
    # rho exceeds sigma_min near 0 here too, but every row is dominant at 0
    cfg = PointConfig(alpha=[1e15, -1.0], points=[ORIGIN, [1.0, 0.0, 0.0]])
    cert = certify_real_axis(cfg)
    assert cert.verdict and cert.k0 == 0.0 and cert.dominance_start == 0.0
    np.testing.assert_array_equal(cert.z_grid, [0.0, cert.z_star])


def certificate_digest(cert) -> str:
    h = hashlib.sha256(cert.z_grid.tobytes() + cert.sigma_min.tobytes())
    # the uncovered intervals as a list: the digests predate the tuple field
    h.update(repr((cert.verdict, cert.k0, cert.min_margin, list(cert.uncovered))).encode())
    return h.hexdigest()[:16]


def subset_configs() -> dict:
    """Name -> (config, z_max): the golden CLI corpus at its certify z_max,
    and 20 random configs, some with strengths small enough to bisect."""
    cases = {name.removesuffix(".json"): (cfg, 1.0 if name.startswith("n40") else None)
             for name, cfg in golden_configs().items()}
    rng = np.random.default_rng(2026)
    for i in range(20):
        n = int(rng.integers(1, 9))
        scale = float(rng.choice([0.05, 0.5, 5.0]))
        cases[f"r{i:02d}"] = (
            random_config(rng, n, radius=2.0, min_dist=0.3, alpha_scale=scale), None
        )
    return cases


# certificate_digest of the Lipschitz bisection alone, which certified the
# whole of [k0, top] before dominance was used
BISECTION_DIGESTS = {
    "n2": "8534f23825a03065", "n3": "26db203f38e45289", "n5": "24b1bd5b4c3b0ec3",
    "n40": "3cebec5f22754b9b", "n40b": "03cb36f8fe21f7bd", "r00": "b73b8be9714fda9d",
    "r01": "fb54fd6d055364e7", "r02": "dac08abe79ccaac6", "r03": "9e088b486e22f833",
    "r04": "fb4c2106c97f757c", "r05": "08baa7216974f964", "r06": "f2208a14dccd823a",
    "r07": "21ac73fbc01fc5c3", "r08": "d092db7554edbb5d", "r09": "7ef067928c8c8470",
    "r10": "4ab431c6932c750d", "r11": "b1cf7618caf75f62", "r12": "4d8ea469109a755d",
    "r13": "30eaaafbb4ce1e25", "r14": "7efb6031c849705b", "r15": "7ff8d7cde179caa9",
    "r16": "62987603ecd6d2f1", "r17": "ce37fe5d4f59de49", "r18": "d8f949cb749e81d5",
    "r19": "3b031000320ad14a",
}


def test_dominance_only_drops_bisection_nodes(monkeypatch):
    # with no dominance the certificate is the plain bisection's, bit for bit;
    # with it the nodes are a subset of those, with the same values and verdict
    cases = subset_configs()
    assert sorted(cases) == sorted(BISECTION_DIGESTS)
    full = {name: certify_real_axis(cfg, z_max=z_max) for name, (cfg, z_max) in cases.items()}
    with monkeypatch.context() as m:
        for module in (model, spectral):
            m.setattr(module, "dominance_start", lambda cfg: np.inf)
        bisected = {name: certify_real_axis(cfg, z_max=z_max)
                    for name, (cfg, z_max) in cases.items()}
    fewer = 0
    for name, cert in full.items():
        ref = bisected[name]
        assert certificate_digest(ref) == BISECTION_DIGESTS[name], name
        assert ref.dominance_start == np.inf
        keep = np.isin(ref.z_grid, cert.z_grid)
        assert keep.sum() == cert.z_grid.size, name
        np.testing.assert_array_equal(ref.sigma_min[keep], cert.sigma_min)
        assert (cert.verdict, cert.k0) == (ref.verdict, ref.k0), name
        fewer += cert.z_grid.size < ref.z_grid.size
    assert fewer >= 15


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
