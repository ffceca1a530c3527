"""Complex resonance location and the real-axis non-singularity certificate.

Zeros of det Gamma are counted by the argument principle: the winding
integral of tr(Gamma^-1 Gamma') over a rectangle boundary is the enclosed
zero count.  The trace form is used throughout because det Gamma is an
exponential polynomial that overflows at large |Im z| while the logarithmic
derivative stays tame.  The adaptive edge quadrature refines the edges of
all boxes counted together breadth-first, one batched solve per refinement
level; it builds the same panel tree and gives the same results, bit for
bit, as the recursive rule applied one edge at a time.  Within one search
each Gauss panel is evaluated once: a child's outer edge reuses the panels
of its parent's edge, and the inner edge that two siblings share in opposite
orientation reuses them reversed.  The quadrature alone decides whether a
boundary is usable: a singular node, a panel still open at the depth limit
or a winding not within 0.25 of an integer rejects the box.

Weighted by powers of z, the node values give the power sums of the zeros
in a counted box; a Hankel eigenproblem turns them into the zeros (Delves &
Lyness 1967), polished by Newton steps.  Unresolved boxes are quadrisected.

The certificate scans the positive real axis up to the analytic
large-momentum bound, recording the smallest singular value of Gamma(z) at
every grid point; beyond the bound the row-sum estimate itself certifies
invertibility.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

from . import model
from .model import PointConfig

_JITTER = 1e-6
_JITTER_RETRIES = 5
# Deep enough to resolve a pole at the minimum jitter distance 1e-6*diameter
# from a contour edge (the Gauss rule needs panels comparable to the pole
# clearance before it converges).
_MAX_EDGE_DEPTH = 26
_EDGE_TOL = 2.0 * np.pi * 2.5e-4
_NEWTON_MAX_STEPS = 50
# Moment step: Hankel singular values (relative) below _RANK_GAP[0] are noise,
# above _RANK_GAP[1] distinct zeros; multiplicities within _MULT_TOL of integers.
_RANK_GAP = (1e-11, 1e-7)
_MULT_TOL = 1e-3
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
# Certificate: z_star = row-sum bound + margin; passing sigma_min > threshold.
CERTIFY_MARGIN = 1.0
CERTIFY_SIGMA_THRESHOLD = 1e-10
# Grid scans run in chunks of at most _CHUNK_POINTS points on _WORKERS threads.
_CHUNK_POINTS = 2048
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:
    _WORKERS = os.cpu_count() or 1

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
    roots: list[RootRecord]
    searched: Box
    total_count: int

    @property
    def resonances(self) -> list[RootRecord]:
        return [r for r in self.roots if r.kind == RESONANCE]


def _trace_logdet(cfg: PointConfig, zs) -> np.ndarray:
    """tr(Gamma(z)^-1 Gamma'(z)) for a batch of z values."""
    g, dg = model.gamma_pair_stack(cfg, zs)
    return np.trace(np.linalg.solve(g, dg), axis1=-2, axis2=-1)


def _node_values(cfg: PointConfig, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(Gamma^-1 Gamma') at the 16 Gauss-Legendre nodes of each panel
    a[i] -> b[i]; a row holding a singular node is non-finite.

    All panels share one solve.  When it hits an exactly singular matrix the
    panels are evaluated one by one, so only the panel holding that node fails.
    """
    nodes = (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _GL_X
    try:
        return _trace_logdet(cfg, nodes)
    except np.linalg.LinAlgError:
        vals = np.full(nodes.shape, np.nan, dtype=complex)
        for i, zm in enumerate(nodes):
            try:
                vals[i] = _trace_logdet(cfg, zm)
            except np.linalg.LinAlgError:
                pass  # left non-finite: the panel fails
        return vals


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

    def node_values(self, cfg: PointConfig, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        panels = self.panels
        keys = list(zip(a.tolist(), b.tolist()))
        new = {}  # panels to evaluate, one orientation each
        for key in keys:
            if key not in panels and key[::-1] not in new:
                new[key] = None
        if new:
            za, zb = np.array(list(new)).T
            for (p, q), v in zip(new, _node_values(cfg, za, zb)):
                panels[p, q] = v
                panels[q, p] = v[::-1]
        self.evaluated += len(new)
        self.reused += len(keys) - len(new)
        return np.array([panels[key] for key in keys])


def _panel_integrals(cfg: PointConfig, a: np.ndarray, b: np.ndarray, memo: _SearchMemo):
    """16-node Gauss-Legendre integrals of tr(Gamma^-1 Gamma') over the panels
    a[i] -> b[i], and a mask of the panels with a singular or non-finite node.

    The node values come from the memo: only panels it has not seen, in
    either orientation, are evaluated, each once per batch.  The nodes of
    b -> a are those of a -> b in reverse order, bit for bit (the Gauss rule
    is symmetric and mid and half flip exactly), so the weighted sum of the
    reversed values is the one a fresh evaluation gives.
    """
    vals = memo.node_values(cfg, a, b)
    half = 0.5 * (b - a)
    s = np.sum(_GL_W * vals, axis=1)
    # half * s written out: numpy's vectorised complex multiply may fuse
    # multiply-adds, and the values must match the scalar product exactly.
    out = np.empty_like(s)
    out.real = half.real * s.real - half.imag * s.imag
    out.imag = half.real * s.imag + half.imag * s.real
    return out, ~np.isfinite(vals).all(axis=1)


def _pairs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[0], y[0], x[1], y[1], ..."""
    return np.stack([x, y], axis=1).ravel()


def _edge_integrals(cfg: PointConfig, contours, memo: _SearchMemo) -> list[np.ndarray | None]:
    """Integrals of tr(Gamma^-1 Gamma') along every edge (za, zb) of each
    contour; None for a contour whose quadrature failed.

    The adaptive rule accepts a panel when the sum of its two halves agrees
    with the whole panel to within tol, and otherwise refines both halves with
    tol / 2, down to depth _MAX_EDGE_DEPTH.  Panels are refined breadth-first:
    each level evaluates the halves of every open panel of every contour in
    one batch, and a half becomes its child's whole panel.  Accepted values
    are summed back up the panel tree in depth-first order, so each integral
    is bit for bit the one the recursive rule gives.  A singular node or a
    panel still open at the depth limit fails only its own contour.  The
    memo supplies every panel it has seen and keeps each contour's accepted halves.
    """
    owner = np.array([c for c, edges in enumerate(contours) for _ in edges], dtype=int)
    a = np.array([za for edges in contours for za, _ in edges], dtype=complex)
    b = np.array([zb for edges in contours for _, zb in edges], dtype=complex)
    tol = np.full(a.size, _EDGE_TOL)
    failed = np.zeros(len(contours), dtype=bool)
    whole = None
    levels = []  # per level: value of each panel, indices of the refined ones
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
        parts = left + right
        diff = whole - parts
        # np.hypot is the scalar abs(); numpy's vectorised complex abs can
        # differ from it in the last bit.
        open_ =~(np.hypot(diff.real, diff.imag) < tol)
        if depth == _MAX_EDGE_DEPTH:
            failed[owner[open_]] = True
        idx = np.flatnonzero(open_ & ~failed[owner])
        levels.append((parts, idx))
        done = np.isin(np.arange(a.size), idx, invert=True)
        accepted.append((owner[done], a[done], mid[done], b[done]))
        if idx.size == 0:
            break
        a, b = _pairs(a[idx], mid[idx]), _pairs(mid[idx], b[idx])
        whole = _pairs(left[idx], right[idx])
        tol = np.repeat(0.5 * tol[idx], 2)
        owner = np.repeat(owner[idx], 2)
    vals = levels[-1][0]
    for parts, idx in reversed(levels[:-1]):
        parts[idx] = vals[0::2] + vals[1::2]
        vals = parts
    own, a, mid, b = (np.concatenate(parts) for parts in zip(*accepted))
    own, lo, hi = np.tile(own, 2), np.concatenate([a, mid]), np.concatenate([mid, b])
    out, start = [], 0
    for c, edges in enumerate(contours):
        stop = start + len(edges)
        out.append(None if failed[c] else vals[start:stop])
        if not failed[c]:
            memo.accepted[tuple(edges)] = (lo[own == c], hi[own == c])
        start = stop
    return out


def _edges(box: Box) -> list[tuple[complex, complex]]:
    cs = box.corners()
    return [(cs[k], cs[(k + 1) % 4]) for k in range(4)]


def _windings(cfg: PointConfig, boxes, memo: _SearchMemo) -> list[int | None]:
    """Winding counts of the boxes; None where the edge quadrature failed or
    the winding integral is not near an integer."""
    counts = []
    for edge_vals in _edge_integrals(cfg, [_edges(box) for box in boxes], memo):
        if edge_vals is None:
            counts.append(None)
            continue
        total = 0.0 + 0.0j
        for v in edge_vals:
            total += v
        raw = (total / (2j * np.pi)).real
        nearest = round(raw)
        counts.append(None if abs(raw - nearest) > 0.25 else int(nearest))
    return counts


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


def _newton_polish(cfg: PointConfig, z: complex, mult: int, tol: float, box: Box):
    """Newton on log det from z with steps mult/tr(Gamma^-1 Gamma'); None when an
    iterate leaves the box padded by twice its diameter or no step falls below tol."""
    for _ in range(_NEWTON_MAX_STEPS):
        try:
            f = complex(_trace_logdet(cfg, np.array([z]))[0])
        except np.linalg.LinAlgError:
            return z  # the iterate landed exactly on the zero set
        if not np.isfinite(f.real) or not np.isfinite(f.imag):
            return z
        if f == 0:
            return None
        step = mult / f
        z = z - step
        if not box.contains(z, pad=2.0 * box.diameter):
            return None
        if abs(step) < tol:
            return z
    return None


def _moment_roots(cfg: PointConfig, box: Box, count: int, tol: float, memo: _SearchMemo):
    """(roots, None) for a counted box, or (None, reason) when unresolved.
    The power sums s_p = sum_j w_j^p, p < 2 count, w = (z - center) /
    (diameter / 2), are winding integrals of w^p tr(Gamma^-1 Gamma') over the
    panels the count accepted.  The rank of H0 = [s_(i+j)] is the number of
    distinct zeros, the pencil ([s_(i+j+1)], H0) reduced to it gives them, a
    Vandermonde fit their multiplicities; Newton polishes each, and the roots
    must stay in the box and apart."""
    a, b = memo.accepted[tuple(_edges(box))]
    vals = np.array([memo.panels[key] for key in zip(a.tolist(), b.tolist())])
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * _GL_X
    center, scale = box.center, 0.5 * box.diameter
    powers = ((nodes.ravel() - center) / scale)[:, None] ** np.arange(2 * count)
    s = (half[:, None] * _GL_W * vals).ravel() @ powers / (2j * np.pi)
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
        z = _newton_polish(cfg, center + scale * wj, mult, tol, box)
        if z is None or not box.contains(z) or any(abs(z - r) <= tol for r, _ in roots):
            return None, f"polish: the estimate {center + scale * wj} of multiplicity {mult}"
        roots.append((z, mult))
    return roots, None


def _locate(cfg: PointConfig, box: Box, count: int, tol: float, memo: _SearchMemo):
    """Zeros of a counted box by its moment step, else by quadrisection down
    to boxes narrower than max(10 tol, 1e-12), each reported as its center."""
    if count == 0:
        return []
    roots, reason = _moment_roots(cfg, box, count, tol, memo)
    if roots is not None:
        memo.resolved += 1
        return roots
    if box.diameter < max(10.0 * tol, 1e-12):
        return [(box.center, count)]
    memo.split += 1
    logger.debug("quadrisecting %s, count %d: %s", box, count, reason)
    found = []
    for child, k in _split_counted(cfg, box, count, memo):
        found.extend(_locate(cfg, child, k, tol, memo))
    return found


def _classify_root(z: complex, tol: float) -> str:
    if abs(z) <= max(100.0 * tol, 1e-8):
        return THRESHOLD
    if z.imag > 0.0 and abs(z.real) <= 1e-8 * (1.0 + abs(z.imag)):
        return EIGENVALUE_POLE
    return RESONANCE


def find_resonances(cfg: PointConfig, box: Box, tol: float = 1e-10) -> ResonanceSet:
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
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError("find_resonances requires a finite tol > 0")
    memo = _SearchMemo()
    searched, total = _counted_box(cfg, box, memo)
    roots = []
    for z, mult in _locate(cfg, searched, total, tol, memo):
        g = model.gamma_stack(cfg, z)
        roots.append(
            RootRecord(
                z=z,
                multiplicity=mult,
                abs_det=float(abs(np.linalg.det(g))),
                sigma_min=float(np.linalg.svd(g, compute_uv=False)[-1]),
                kind=_classify_root(z, tol),
            )
        )
    logger.debug(
        "search of %s: %d boxes resolved by moments, %d quadrisected: "
        "%d panels evaluated, %d reused",
        searched, memo.resolved, memo.split, memo.evaluated, memo.reused,
    )
    roots.sort(key=lambda r: (r.z.real, r.z.imag))
    return ResonanceSet(roots=roots, searched=searched, total_count=total)


@dataclass(frozen=True)
class Certificate:
    """Real-axis non-singularity evidence (absence of positive resonances):
    grid scan of sigma_min(Gamma(z)) up to z_star, with the analytic row-sum
    bound covering z > z_star.

    The verdict is true when the grid reaches z_star and sigma_min exceeds
    the threshold at every grid point.  A true verdict on the finite grid is
    evidence, not proof, for z between grid points; a false verdict would be
    loud news and is reported as-is.
    """

    z_grid: np.ndarray
    sigma_min: np.ndarray
    z_star: float
    verdict: bool
    threshold: float
    grid_step: float

    @property
    def grid_covers_bound(self) -> bool:
        return self.z_grid.size > 0 and float(self.z_grid[-1]) >= self.z_star


def _map_chunks(fn, n: int) -> list:
    """[fn(slice) for each chunk of range(n)], the chunks run on a thread pool.

    range(n) is cut into the fewest chunks of at most _CHUNK_POINTS points
    whose count is a multiple of _WORKERS (at most n chunks), of sizes that
    differ by at most one.  numpy's ufuncs and batched linalg release the GIL,
    so the chunks run in parallel.  Results come back in chunk order; an
    exception in any chunk cancels the chunks not yet started and propagates.
    """
    count = -(-n // _CHUNK_POINTS)
    count = min(n, -(-count // _WORKERS) * _WORKERS)
    slices = [slice(i * n // count, (i + 1) * n // count) for i in range(count)]
    if len(slices) <= 1:
        return [fn(sl) for sl in slices]
    # Imported here: at module level it adds about 5 % to the CLI's start-up.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=min(_WORKERS, len(slices)))
    try:
        return list(pool.map(fn, slices))
    finally:
        pool.shutdown(cancel_futures=True)


def certify_real_axis(
    cfg: PointConfig,
    grid_step: float | None = None,
    z_max: float | None = None,
) -> Certificate:
    """Scan z in (0, z_star] and certify that Gamma(z) stays non-singular.

    z_star = 4 pi max|alpha| + (N-1)/d_min + CERTIFY_MARGIN; above it the
    diagonal -iz/4pi dominates (sigma_min >= z/4pi - row-sum bound > 0), so
    only the grid below needs scanning.  Default grid step 1e-2 * min(1, d_min)
    resolves the oscillation scale of exp(iz d_min); override for speed.

    The grid runs in chunks of at most 2,048 points, one per task on a pool of
    as many threads as the process may use CPUs, so at most that many chunks'
    Gamma stacks (2,048 N x N complex matrices each) are held at once next to
    the two result arrays.  Each point's sigma_min is one LAPACK SVD of its own
    Gamma, so the certificate does not depend on the chunking or the number of
    threads, bit for bit.
    """
    z_star = model.row_sum_bound(cfg) + CERTIFY_MARGIN
    if grid_step is None:
        grid_step = 1e-2 * min(1.0, cfg.d_min) if cfg.n > 1 else 1e-2
    if not (np.isfinite(grid_step) and grid_step > 0.0):
        raise ValueError("certify_real_axis requires a finite grid_step > 0")
    if z_max is not None and not (np.isfinite(z_max) and z_max > 0.0):
        raise ValueError("certify_real_axis requires a finite z_max > 0")
    top = z_max if z_max is not None else z_star
    count = int(np.ceil(top / grid_step))
    grid = grid_step * np.arange(1, count + 1)

    sigma = np.empty(grid.size)

    def scan(sl):
        sigma[sl] = np.linalg.svd(model.gamma_stack(cfg, grid[sl]), compute_uv=False)[:, -1]

    _map_chunks(scan, grid.size)
    covers = grid.size > 0 and float(grid[-1]) >= z_star
    verdict = bool(covers and np.all(sigma > CERTIFY_SIGMA_THRESHOLD))
    grid.setflags(write=False)
    sigma.setflags(write=False)
    return Certificate(
        z_grid=grid,
        sigma_min=sigma,
        z_star=z_star,
        verdict=verdict,
        threshold=CERTIFY_SIGMA_THRESHOLD,
        grid_step=float(grid_step),
    )
