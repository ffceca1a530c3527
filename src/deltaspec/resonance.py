"""Complex resonance location and the real-axis non-singularity certificate.

Zeros of det Gamma are counted by the argument principle: the winding
integral of tr(Gamma^-1 Gamma') over a rectangle boundary is the enclosed
zero count.  The trace form is used throughout because det Gamma is an
exponential polynomial that overflows at large |Im z| while the logarithmic
derivative stays tame.  The adaptive edge quadrature refines the edges of
all boxes counted together breadth-first, one batched solve per refinement
level, and accepts the same panels as the recursive rule applied one edge at
a time.  Within one search each Gauss panel is evaluated once: a child's
outer edge reuses the panels of its parent's edge, and the inner edge that
two siblings share in opposite orientation reuses them reversed.  The
quadrature alone decides whether a boundary is usable: a singular node, a
panel still open at the depth limit or a count not within 0.25 of an integer
rejects the box.

Weighted by powers of z, the node values of the accepted panels give the
power sums s_p of the zeros in a box: s_0 is the count, and a Hankel
eigenproblem turns the rest into the zeros (Delves & Lyness 1967), polished
by Newton steps.  Unresolved boxes are quadrisected.

The certificate proves Gamma(k) invertible on the positive real axis: where
every row of Gamma(k) is strictly diagonally dominant by Gershgorin's
theorem, below that by bisection on a Lipschitz bound of sigma_min(Gamma(k)),
and beyond the analytic large-momentum bound by the row-sum estimate itself.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import model, spectral
from .model import FOUR_PI, PointConfig

_JITTER = 1e-6
_JITTER_RETRIES = 5
# Refinement stops at depth 26, halves 2**-27 of their edge.  Depth does not
# resolve every zero near an edge: the halves test can accept panels whose
# nodes miss the zero's spike, and the box is jittered inward past it (README).
_MAX_EDGE_DEPTH = 26
_EDGE_TOL = 2.0 * np.pi * 2.5e-4
# Newton's last step and the least distance between the roots of one box
_TOL = 1e-10
_NEWTON_MAX_STEPS = 50
# Moment step: Hankel singular values (relative) below _RANK_GAP[0] are noise,
# above _RANK_GAP[1] distinct zeros; multiplicities within _MULT_TOL of integers.
_RANK_GAP = (1e-11, 1e-7)
_MULT_TOL = 1e-3
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
# Certificate: z_star = row-sum bound + margin; the bisection stops, leaving
# its open intervals uncovered, before it would pass this many evaluations.
CERTIFY_MARGIN = 1.0
CERTIFY_BUDGET = 2 ** 16

logger = logging.getLogger(__name__)

RESONANCE = "resonance"
EIGENVALUE_POLE = "eigenvalue_pole"
THRESHOLD = "threshold"

__all__ = [
    "Box",
    "BoundaryError",
    "SubdivisionError",
    "RootRecord",
    "ResonanceSet",
    "Certificate",
    "count_zeros_in_box",
    "find_resonances",
    "certify_real_axis",
    "RESONANCE",
    "EIGENVALUE_POLE",
    "THRESHOLD",
]


class BoundaryError(RuntimeError):
    """Box boundary could not be moved off the zero set of det Gamma."""


class SubdivisionError(RuntimeError):
    """Winding integral failed to settle on an integer within the depth budget."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned search rectangle in the complex z-plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("box must satisfy re_min < re_max and im_min < im_max")
        if not np.isfinite(self.diameter):
            raise ValueError("box must have finite bounds and a finite diameter")

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.width, self.height))

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max))

    def corners(self) -> list[complex]:
        return [
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        ]

    def shrunk(self, delta: float) -> "Box":
        return Box(
            self.re_min + delta, self.re_max - delta,
            self.im_min + delta, self.im_max - delta,
        )

    def contains(self, z: complex, pad: float = 0.0) -> bool:
        return (
            self.re_min - pad <= z.real <= self.re_max + pad
            and self.im_min - pad <= z.imag <= self.im_max + pad
        )

    def split(self, fx: float, fy: float) -> list["Box"]:
        xs = self.re_min + fx * self.width
        ys = self.im_min + fy * self.height
        return [
            Box(self.re_min, xs, self.im_min, ys),
            Box(xs, self.re_max, self.im_min, ys),
            Box(self.re_min, xs, ys, self.im_max),
            Box(xs, self.re_max, ys, self.im_max),
        ]


@dataclass(frozen=True)
class RootRecord:
    """A located zero of det Gamma; multiplicity is the order of the zero,
    fitted to the power sums of the box it was found in."""

    z: complex
    multiplicity: int
    abs_det: float
    sigma_min: float
    kind: str


@dataclass(frozen=True)
class ResonanceSet:
    roots: tuple[RootRecord, ...]
    searched: Box
    total_count: int


def _trace_logdet(cfg: PointConfig, zs) -> np.ndarray:
    """tr(Gamma(z)^-1 Gamma'(z)) for an array of z of any shape, Gamma' read off
    Gamma; NaN where Gamma(z) is exactly singular.  A batch whose solve meets
    one is solved again a matrix at a time, each as a batch of one: the same
    numpy calls as the batch, so every other matrix gives the batch's bits."""
    zs = np.asarray(zs, dtype=complex)
    out = np.empty(zs.size, dtype=complex)
    idx = np.arange(cfg.n)
    for sl, g in model._gamma_batches(cfg, zs.ravel()):
        dg = 1j * cfg.distances * g
        dg[..., idx, idx] = -1j / FOUR_PI
        try:
            x = np.linalg.solve(g, dg)
        except np.linalg.LinAlgError:
            x = np.full_like(dg, np.nan)
            for i in range(len(g)):
                try:
                    x[i:i + 1] = np.linalg.solve(g[i:i + 1], dg[i:i + 1])
                except np.linalg.LinAlgError:
                    pass  # left NaN: Gamma(z) is exactly singular
        out[sl] = np.trace(x, axis1=-2, axis2=-1)
    return out.reshape(zs.shape)


class _SearchMemo:
    """Work shared by the boxes of one search: node values of every Gauss
    panel, keyed on its exact endpoints (a, b), with (b, a) holding the same
    values reversed; the accepted panels of each contour; and work counts."""

    def __init__(self):
        self.panels: dict[tuple[complex, complex], np.ndarray] = {}
        self.accepted: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self.evaluated = 0
        self.reused = 0
        self.resolved = 0
        self.split = 0


def _panel_integrals(cfg: PointConfig, a: np.ndarray, b: np.ndarray, memo: _SearchMemo):
    """16-node Gauss-Legendre integrals of tr(Gamma^-1 Gamma') over the panels
    a[i] -> b[i], and a mask of the panels with a non-finite node value (NaN
    where Gamma is exactly singular).  Only panels the memo has not seen, in
    either orientation, are evaluated, in one _trace_logdet call.  The nodes
    of b -> a are those of a -> b in reverse order, bit for bit (the Gauss
    rule is symmetric and mid and half flip exactly), so the memo keeps the
    reversed values under (b, a): their weighted sum is a fresh evaluation's."""
    panels = memo.panels
    keys = list(zip(a.tolist(), b.tolist()))
    new = {}  # panels to evaluate, one orientation each
    for key in keys:
        if key not in panels and key[::-1] not in new:
            new[key] = None
    if new:
        za, zb = np.array(list(new)).T
        nodes = (0.5 * (za + zb))[:, None] + (0.5 * (zb - za))[:, None] * _GL_X
        for (p, q), v in zip(new, _trace_logdet(cfg, nodes)):
            panels[p, q] = v
            panels[q, p] = v[::-1]
    memo.evaluated += len(new)
    memo.reused += len(keys) - len(new)
    vals = np.array([panels[key] for key in keys])
    half = 0.5 * (b - a)
    s = np.sum(_GL_W * vals, axis=1)
    # half * s written out, like np.hypot in _accept_panels: numpy's SIMD
    # complex kernels may round differently by platform, and the accepted
    # panels, and so the golden roots, should not follow them.
    out = np.empty_like(s)
    out.real = half.real * s.real - half.imag * s.imag
    out.imag = half.real * s.imag + half.imag * s.real
    return out, ~np.isfinite(vals).all(axis=1)


def _pairs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[0], y[0], x[1], y[1], ..."""
    # This panel order is the power sums' summation order: it sets the roots' last bits.
    return np.stack([x, y], axis=1).ravel()


def _accept_panels(cfg: PointConfig, contours, memo: _SearchMemo) -> list[bool]:
    """Refine the edges (za, zb) of each contour into accepted Gauss panels;
    one flag per contour, False where its quadrature failed.

    The adaptive rule accepts a panel when the sum of its two halves agrees
    with the whole panel to within tol, and otherwise refines both halves with
    tol / 2, down to depth _MAX_EDGE_DEPTH.  Panels are refined breadth-first:
    each level evaluates the halves of every open panel of every contour in
    one batch, and a half becomes its child's whole panel.  A singular node or
    a panel still open at the depth limit fails only its own contour.  The
    memo supplies every panel it has seen and keeps each contour's accepted halves.
    """
    owner = np.array([c for c, edges in enumerate(contours) for _ in edges], dtype=int)
    a = np.array([za for edges in contours for za, _ in edges], dtype=complex)
    b = np.array([zb for edges in contours for _, zb in edges], dtype=complex)
    tol = np.full(a.size, _EDGE_TOL)
    failed = np.zeros(len(contours), dtype=bool)
    whole = None
    accepted = []  # per level: owner, start, midpoint and end of each accepted panel
    for depth in range(_MAX_EDGE_DEPTH + 1):
        mid = 0.5 * (a + b)
        lo, hi = np.concatenate([a, mid]), np.concatenate([mid, b])
        if whole is None:
            lo, hi = np.concatenate([a, lo]), np.concatenate([b, hi])
        sums, bad = _panel_integrals(cfg, lo, hi, memo)
        sums, bad = sums.reshape(-1, a.size), bad.reshape(-1, a.size)
        failed[owner[bad.any(axis=0)]] = True
        if whole is None:
            whole = sums[0]
        left, right = sums[-2], sums[-1]
        diff = whole - (left + right)
        # np.hypot, not the vectorised complex abs: see _panel_integrals
        open_ = ~(np.hypot(diff.real, diff.imag) < tol)
        if depth == _MAX_EDGE_DEPTH:
            failed[owner[open_]] = True
        refine = open_ & ~failed[owner]
        idx, done = np.flatnonzero(refine), ~refine
        accepted.append((owner[done], a[done], mid[done], b[done]))
        if idx.size == 0:
            break
        a, b = _pairs(a[idx], mid[idx]), _pairs(mid[idx], b[idx])
        whole = _pairs(left[idx], right[idx])
        tol = np.repeat(0.5 * tol[idx], 2)
        owner = np.repeat(owner[idx], 2)
    own, a, mid, b = (np.concatenate(parts) for parts in zip(*accepted))
    own, lo, hi = np.tile(own, 2), np.concatenate([a, mid]), np.concatenate([mid, b])
    for c, edges in enumerate(contours):
        if not failed[c]:
            memo.accepted[tuple(edges)] = (lo[own == c], hi[own == c])
    return (~failed).tolist()


def _edges(box: Box) -> list[tuple[complex, complex]]:
    cs = box.corners()
    return [(cs[k], cs[(k + 1) % 4]) for k in range(4)]


def _power_sums(box: Box, count: int, memo: _SearchMemo) -> np.ndarray:
    """Power sums s_p = sum_j w_j^p, p < count, of the zeros w_j in a box whose
    panels the memo accepted, w = (z - center) / (diameter / 2): the integrals
    of w^p tr(Gamma^-1 Gamma') / 2 pi i over those panels.  s_0 is the count."""
    a, b = memo.accepted[tuple(_edges(box))]
    vals = np.array([memo.panels[key] for key in zip(a.tolist(), b.tolist())])
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * _GL_X
    powers = ((nodes.ravel() - box.center) / (0.5 * box.diameter))[:, None] ** np.arange(count)
    return (half[:, None] * _GL_W * vals).ravel() @ powers / (2j * np.pi)


def _windings(cfg: PointConfig, boxes, memo: _SearchMemo) -> list[int | None]:
    """Zero counts s_0 of the boxes; None where the edge quadrature failed or
    s_0 is not within 0.25 of an integer."""
    oks = _accept_panels(cfg, [_edges(box) for box in boxes], memo)
    raws = [_power_sums(box, 1, memo)[0].real if ok else None for box, ok in zip(boxes, oks)]
    return [None if raw is None or abs(raw - round(raw)) > 0.25 else round(raw) for raw in raws]


def _counted_box(cfg: PointConfig, box: Box, memo: _SearchMemo) -> tuple[Box, int]:
    """Winding count of the box, or of the first shrunk box whose count settles.

    The box shrinks inward by growing multiples of 1e-6 * diameter whenever
    its edge quadrature fails (a node on a zero of det Gamma, or a grazing
    zero the panels do not resolve) or its winding is not near an integer.
    Shrinking (rather than expanding) never pulls new zeros into the search
    region, and it keeps boundary zeros -- notably z = 0, which belongs to the
    threshold classification -- outside the reported count.
    """
    for k in range(_JITTER_RETRIES + 1):
        if k == 0:
            candidate = box
        else:
            try:
                candidate = box.shrunk(k * _JITTER * box.diameter)
            except ValueError:
                break
        [count] = _windings(cfg, [candidate], memo)
        if count is not None:
            return candidate, count
        logger.debug("shrinking %s: failed winding", candidate)
    raise BoundaryError("could not move the box boundary off the zero set")


def count_zeros_in_box(cfg: PointConfig, box: Box) -> int:
    """Number of zeros of det Gamma inside the box, counted with order.

    The boundary is moved inward by up to 5 tiny jitters when it grazes a
    zero; the count refers to the jittered rectangle.
    """
    return _counted_box(cfg, box, _SearchMemo())[1]


_SPLIT_FRACTIONS = [
    (0.5, 0.5),
    (0.5 + 1.7e-3, 0.5 - 1.3e-3),
    (0.5 - 2.9e-3, 0.5 + 2.3e-3),
    (0.47, 0.53),
    (0.53, 0.47),
]


def _split_counted(cfg: PointConfig, box: Box, count: int, memo: _SearchMemo):
    """Partition the box into 4 counted children whose counts sum to count.

    Split lines are nudged off the midpoint when they graze a zero or when a
    zero sitting exactly on a line makes the child counts disagree.
    """
    for fx, fy in _SPLIT_FRACTIONS:
        children = box.split(fx, fy)
        counts = _windings(cfg, children, memo)
        if None in counts:
            reason = "failed winding"
        elif sum(counts) == count:
            return list(zip(children, counts))
        else:
            reason = f"count mismatch {counts} != {count}"
        logger.debug("nudging split of %s at (%g, %g): %s", box, fx, fy, reason)
    raise SubdivisionError("no admissible quadrisection found")


def _newton_polish(cfg: PointConfig, z: complex, mult: int, box: Box):
    """Newton on log det from z with steps mult/tr(Gamma^-1 Gamma'); None when an
    iterate leaves the box padded by twice its diameter or no step falls below _TOL."""
    for _ in range(_NEWTON_MAX_STEPS):
        f = complex(_trace_logdet(cfg, np.array([z]))[0])
        if not np.isfinite(f.real) or not np.isfinite(f.imag):
            return z  # NaN where Gamma is exactly singular: z is on the zero set
        if f == 0:
            return None
        step = mult / f
        z = z - step
        if not box.contains(z, pad=2.0 * box.diameter):
            return None
        if abs(step) < _TOL:
            return z
    return None


def _moment_roots(cfg: PointConfig, box: Box, count: int, memo: _SearchMemo):
    """(roots, None) for a counted box, or (None, reason) when unresolved.
    The rank of H0 = [s_(i+j)], of the power sums s_p, p < 2 count, is the
    number of distinct zeros, the pencil ([s_(i+j+1)], H0) reduced to it gives
    them, a Vandermonde fit their multiplicities; Newton polishes each, and the
    roots must stay in the box and apart."""
    s = _power_sums(box, 2 * count, memo)
    center, scale = box.center, 0.5 * box.diameter
    ij = np.add.outer(np.arange(count), np.arange(count))
    u, sigma, vh = np.linalg.svd(s[ij])
    rank = np.count_nonzero(sigma > _RANK_GAP[1] * sigma[0])
    if np.count_nonzero(sigma > _RANK_GAP[0] * sigma[0]) != rank:
        return None, f"rank: no gap, sigma_{rank} / sigma_0 = {sigma[rank] / sigma[0]:.1e}"
    pencil = (u[:, :rank].conj().T @ s[ij + 1] @ vh[:rank].conj().T) / sigma[:rank, None]
    w = np.linalg.eigvals(pencil)
    fit = np.linalg.lstsq(w ** np.arange(2 * count)[:, None], s, rcond=None)[0]
    mults = np.rint(fit.real).astype(int)
    if np.any(np.abs(fit - mults) > _MULT_TOL) or np.any(mults < 1) or mults.sum() != count:
        return None, f"multiplicity: fitted {np.round(fit, 4).tolist()}"
    roots = []
    for wj, mult in zip(w.tolist(), mults.tolist()):
        z = _newton_polish(cfg, center + scale * wj, mult, box)
        if z is None or not box.contains(z) or any(abs(z - r) <= _TOL for r, _ in roots):
            return None, f"polish: the estimate {center + scale * wj} of multiplicity {mult}"
        roots.append((z, mult))
    return roots, None


def _locate(cfg: PointConfig, box: Box, count: int, memo: _SearchMemo):
    """Zeros of a counted box by its moment step, else by quadrisection down
    to boxes narrower than 1e-9, each reported as its center."""
    if count == 0:
        return []
    roots, reason = _moment_roots(cfg, box, count, memo)
    if roots is not None:
        memo.resolved += 1
        return roots
    if box.diameter < 1e-9:
        return [(box.center, count)]
    memo.split += 1
    logger.debug("quadrisecting %s, count %d: %s", box, count, reason)
    found = []
    for child, k in _split_counted(cfg, box, count, memo):
        found.extend(_locate(cfg, child, k, memo))
    return found


def _classify_root(z: complex) -> str:
    if abs(z) <= 1e-8:
        return THRESHOLD
    if z.imag > 0.0 and abs(z.real) <= 1e-8 * (1.0 + abs(z.imag)):
        return EIGENVALUE_POLE
    return RESONANCE


def find_resonances(cfg: PointConfig, box: Box) -> ResonanceSet:
    """Locate all zeros of det Gamma inside the box: count it, find its zeros
    from the power sums of its contour and polish them by Newton steps; a box
    whose zeros these do not resolve is quadrisected (logged at DEBUG with its
    count and the reason: rank, multiplicity or polish) and its children are
    searched the same way.  The sum of reported multiplicities equals the
    winding count of the searched box.  Zeros on the positive imaginary axis
    are cross-labeled as eigenvalue poles; a zero at the origin is labeled
    "threshold" and belongs to classify_zero.  One DEBUG line per call gives
    the boxes resolved and quadrisected and the work done.
    """
    memo = _SearchMemo()
    searched, total = _counted_box(cfg, box, memo)
    located = _locate(cfg, searched, total, memo)
    dets, sigmas = _det_and_sigma_min(cfg, np.array([z for z, _ in located], dtype=complex))
    # float(abs(d)) on each det scalar, not the vectorised complex abs: see _panel_integrals
    roots = sorted(
        (RootRecord(z, mult, float(abs(d)), float(s), _classify_root(z))
         for (z, mult), d, s in zip(located, dets, sigmas)),
        key=lambda r: (r.z.real, r.z.imag),
    )
    logger.debug(
        "search of %s: %d boxes resolved by moments, %d quadrisected: "
        "%d panels evaluated, %d reused",
        searched, memo.resolved, memo.split, memo.evaluated, memo.reused,
    )
    return ResonanceSet(roots=tuple(roots), searched=searched, total_count=total)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Proof that Gamma(k) is invertible for every real k >= k0: sigma_min at
    the ascending nodes z_grid of a bisection of [k0, z_star], each interval
    between neighbours proved by diagonal dominance when it starts at or
    above dominance_start, else by the Lipschitz bound of certify_real_axis,
    and the row-sum bound above z_star.  The verdict is true when every
    interval is proved: none is `uncovered` (left unproved when its midpoint
    rounded onto an end, or open when the bisection reached CERTIFY_BUDGET
    evaluations).  (0, k0) is never proved.  `min_margin` is the smallest
    margin of the intervals the Lipschitz bound proved, None without one;
    `dominance_start` is model.dominance_start."""

    z_grid: np.ndarray
    sigma_min: np.ndarray
    z_star: float
    verdict: bool
    k0: float
    dominance_start: float
    min_margin: float | None
    uncovered: tuple[tuple[float, float], ...]


def _sigma_min(cfg: PointConfig, zs: np.ndarray) -> np.ndarray:
    """sigma_min(Gamma(z)) over the flat zs."""
    sigmas = np.empty(zs.size)
    for sl, g in model._gamma_batches(cfg, zs):
        sigmas[sl] = np.linalg.svd(g, compute_uv=False)[:, -1]
    return sigmas


def _det_and_sigma_min(cfg: PointConfig, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det Gamma(z) and sigma_min(Gamma(z)) over the flat zs."""
    dets, sigmas = np.empty(zs.size, dtype=complex), np.empty(zs.size)
    for sl, g in model._gamma_batches(cfg, zs):
        dets[sl] = np.linalg.det(g)
        sigmas[sl] = np.linalg.svd(g, compute_uv=False)[:, -1]
    return dets, sigmas


def certify_real_axis(cfg: PointConfig) -> Certificate:
    """Prove Gamma(k) invertible for every real k >= k0: by diagonal dominance
    from model.dominance_start on, by bisection on [k0, z_star] below it, and
    by the row-sum bound above z_star.  The verdict is true when every
    interval between nodes is proved.

    z_star = 4 pi max|alpha| + (N-1)/d_min + CERTIFY_MARGIN: above it the
    diagonal -ik/4pi dominates every row.  An interval [a, b] between nodes is
    proved when a >= dominance_start: every row of Gamma(k) is then strictly
    dominant on [a, b], with a margin tau = 8 N eps that covers the rounding
    of the test, so Gamma(k) is invertible by Gershgorin's theorem and
    sigma_min(Gamma(k)) >= min_j (|alpha_j - ik/4pi| - r_j) > 0 by Varah's
    bound (both argued in model.dominance_start).  When all of [k0, z_star] is
    dominant, its two end nodes are evaluated and nothing else.

    Below dominance_start every entry of Gamma'(k) has modulus 1/4pi, so
    ||Gamma'(k)||_2 <= ||Gamma'(k)||_F = N/4pi = L, and by Weyl's inequality
    sigma_min(Gamma(k)) is L-Lipschitz.  An interval between nodes k_i < k_j
    is proved when its margin (sigma_i + sigma_j - 2 rho) / (L (k_j - k_i))
    exceeds 1, rho bounding the rounding of each computed sigma_min.  Each
    level evaluates the midpoints of all intervals not yet proved with one
    batched SVD; an interval whose midpoint rounds onto an end is uncovered,
    and so is every interval still open when the next level would take the
    evaluations past CERTIFY_BUDGET.  The work grows like the integral of
    L / sigma_min over [k0, min(z_star, dominance_start)].

    k0 = 0 when classify_zero says Regular.  Otherwise sigma_min vanishes at
    0 (like c k for a zero resonance, c k^2 for a zero eigenvalue) and k0 is
    1e-2 * min(1, d_min).

    rho = 8 N eps R, R the largest row sum of |Gamma(z_star)|: R bounds
    ||Gamma(k)||_2 for k <= z_star, |Gamma| being symmetric with only its
    diagonal growing in k.  Assembly errs by a few ulps per entry plus
    eps k/8pi <= eps |Gamma_jj| / 2 through the phase k d, at most
    (3 + N/2) eps R in 2-norm for the exactly symmetric matrix; LAPACK's SVD
    is exact for a matrix within p(N) eps R, p(N) of order N.  One DEBUG line
    per call gives k0, z_star, dominance_start, the levels, evaluations,
    smallest margin, the intervals uncovered by rounding and any left open at
    the budget.
    """
    z_star = model.row_sum_bound(cfg) + CERTIFY_MARGIN
    k0 = 0.0
    if spectral.classify_zero(cfg).label != spectral.REGULAR:
        k0 = 1e-2 * min(1.0, cfg.d_min) if cfg.n > 1 else 1e-2
    dominant = model.dominance_start(cfg)

    ks = np.array([k0, z_star])
    sigma = _sigma_min(cfg, ks)
    nodes, values = [ks], [sigma]
    margins, stuck_at, left_open = [np.empty(0)], [], []
    if k0 < dominant:
        lip = cfg.n / FOUR_PI
        row_sum = float(np.abs(model.gamma_stack(cfg, z_star)).sum(axis=1).max())
        rho = 8 * cfg.n * np.finfo(float).eps * row_sum
        a, b, sa, sb = ks[:-1], ks[1:], sigma[:-1], sigma[1:]
        while a.size:
            margin = (sa + sb - 2.0 * rho) / (lip * (b - a))
            mid = 0.5 * (a + b)
            below = a < dominant
            lipschitz = below & (margin > 1.0)
            open_ = below & ~(margin > 1.0)
            stuck = open_ & ((mid <= a) | (mid >= b))
            margins.append(margin[lipschitz])
            stuck_at += zip(a[stuck].tolist(), b[stuck].tolist())
            idx = np.flatnonzero(open_ & ~stuck)
            if idx.size == 0:
                break
            if sum(k.size for k in nodes) + idx.size > CERTIFY_BUDGET:
                left_open = list(zip(a[idx].tolist(), b[idx].tolist()))
                break
            mid = mid[idx]
            sm = _sigma_min(cfg, mid)
            nodes.append(mid)
            values.append(sm)
            a, b = _pairs(a[idx], mid), _pairs(mid, b[idx])
            sa, sb = _pairs(sa[idx], sm), _pairs(sm, sb[idx])

    order = np.argsort(np.concatenate(nodes))
    ks, sigma = np.concatenate(nodes)[order], np.concatenate(values)[order]
    margins = np.concatenate(margins)
    min_margin = float(margins.min()) if margins.size else None
    logger.debug(
        "certificate from k0 = %g to %g, dominant from %g: %d levels, %d evaluations, "
        "min margin %s, uncovered %s%s",
        k0, z_star, dominant, len(nodes) - 1, ks.size, min_margin, stuck_at,
        f", {len(left_open)} intervals left open at the budget of {CERTIFY_BUDGET} "
        "evaluations" if left_open else "",
    )
    uncovered = tuple(stuck_at + left_open)
    return Certificate(
        z_grid=model._frozen(ks),
        sigma_min=model._frozen(sigma),
        z_star=z_star,
        verdict=not uncovered,
        k0=k0,
        dominance_start=dominant,
        min_margin=min_margin,
        uncovered=uncovered,
    )
