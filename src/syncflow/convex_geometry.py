"""Closed bounded convex sets with exact nearest-point projection.

Two representations are supported: an axis-aligned box ``[lo, hi]``, which
is also every point (``lo == hi``) and every interval (m = 1), and the convex
hull of a finite vertex set, which in 2-D keeps its extreme points in
counter-clockwise order.  Every body projects one point ``(m,)`` or a stack
``(..., m)`` in one call.  A box clamps, and a 2-D hull returns a row inside
every edge as it is.  Other hull rows go through one batched active-set solve
over the simplex of vertex weights, certified per row by the projector's
variational inequality at every vertex, so no result depends on the solver path.

The module also builds the hull of the union of a potential catalog's zero
sets and provides sampled verifiers for the projection inequalities the
synchronization analysis relies on.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, RepresentationError
from .report import CheckReport

__all__ = [
    "ConvexBody",
    "Box",
    "Hull",
    "box_distance",
    "intersect",
    "zero_set_hull",
    "check_drift_alignment",
    "check_distance_comparison",
]


def _vector(x, dim: int | None = None, what: str = "x") -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise InputError(f"{what} must be a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise InputError(f"{what} has length {v.shape[0]}, expected {dim}")
    return v


def _points(x, dim: int, what: str = "x") -> np.ndarray:
    """One point (dim,) or a stack (..., dim) of finite floats; a bare number is a 1-D point."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.shape[-1] != dim:
        raise InputError(f"{what} has length {v.shape[-1]}, expected {dim}")
    finite = np.isfinite(v).all(axis=-1)
    if not finite.all():
        if v.ndim == 1:
            raise InputError(f"{what} must be finite, got {v.tolist()}")
        row = np.unravel_index(np.argmin(finite), finite.shape)
        where = row[0] if len(row) == 1 else tuple(int(i) for i in row)
        raise InputError(f"{what} row {where} is not finite: {v[row].tolist()}")
    return v


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis; 1x1 matmuls, so one point gets the bits of ``a @ b``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class ConvexBody:
    """A nonempty closed bounded convex subset of R^m."""

    @property
    def dimension(self) -> int:
        raise NotImplementedError

    def project(self, x) -> np.ndarray:
        """Nearest point of the body to ``x``: one point (m,) or a stack (..., m), same shape."""
        raise NotImplementedError

    def distance(self, points) -> np.ndarray:
        """Euclidean distances of one point or a stack to the body, shape (..., m) -> (...)."""
        pts = _points(points, self.dimension, "points")
        return np.linalg.norm(pts - self.project(pts), axis=-1)

    def center(self) -> np.ndarray:
        """A deterministic interior representative (centroid of the description)."""
        raise NotImplementedError

    def extreme_points(self) -> np.ndarray:
        """Vertex set spanning the body, shape (k, m)."""
        raise NotImplementedError

    def as_dict(self) -> dict:
        raise NotImplementedError


def box_distance(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Distances of points (..., m) to the boxes [lo, hi] they broadcast against, shape (...).

    In one dimension this is ``|gap|``, which a norm's square would underflow
    below ~1e-154 and overflow above ~1e154.
    """
    gap = points - np.clip(points, lo, hi)
    if gap.shape[-1] == 1:
        return np.abs(gap[..., 0])
    return np.linalg.norm(gap, axis=-1)


@dataclass(frozen=True, eq=False)
class Box(ConvexBody):
    """The axis-aligned box [lo, hi]; ``lo == hi`` is a point, and m = 1 an interval."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _vector(self.lo, what="lo")
        hi = _vector(self.hi, dim=lo.shape[0], what="hi")
        # array methods, not np.all/np.any: boxes are built per node, and those cost twice as much
        if not (np.isfinite(lo) & np.isfinite(hi)).all():
            raise InputError(f"box corners must be finite, got lo={lo.tolist()}, hi={hi.tolist()}")
        if (lo > hi).any():
            raise InputError(f"box requires lo <= hi componentwise, got {lo.tolist()}, {hi.tolist()}")
        object.__setattr__(self, "lo", _frozen(lo))
        object.__setattr__(self, "hi", _frozen(hi))

    @property
    def dimension(self) -> int:
        return self.lo.shape[0]

    def project(self, x) -> np.ndarray:
        return np.clip(_points(x, self.dimension), self.lo, self.hi)

    def distance(self, points) -> np.ndarray:
        return box_distance(_points(points, self.dimension, "points"), self.lo, self.hi)

    def center(self) -> np.ndarray:
        return 0.5 * self.lo + 0.5 * self.hi  # no overflow near the largest floats

    def extreme_points(self) -> np.ndarray:
        """The distinct corners in lexicographic order: a product over {lo_k} or {lo_k, hi_k}."""
        axes = [(a,) if a == b else (a, b) for a, b in zip(self.lo.tolist(), self.hi.tolist())]
        if sum(len(ax) == 2 for ax in axes) > 12:
            raise RepresentationError(f"box corner enumeration infeasible for m={self.dimension}")
        return np.array(list(itertools.product(*axes)))

    def as_dict(self) -> dict:
        if np.array_equal(self.lo, self.hi):
            return {"type": "point", "p": self.lo.tolist()}
        if self.dimension == 1:
            return {"type": "interval", "lo": float(self.lo[0]), "hi": float(self.hi[0])}
        return {"type": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}


@dataclass(frozen=True, eq=False)
class Hull(ConvexBody):
    vertices: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if v.ndim != 2 or v.shape[0] < 1:
            raise InputError("hull needs at least one vertex of shape (k, m)")
        if not np.all(np.isfinite(v)):
            raise InputError("hull vertices must be finite")
        if v.shape[1] == 2:
            v = _convex_polygon(v)
        object.__setattr__(self, "vertices", _frozen(v))

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    def project(self, x) -> np.ndarray:
        x = _points(x, self.dimension)
        rows = x.reshape(-1, self.dimension)
        v = self.vertices
        out, todo = rows.copy(), np.arange(rows.shape[0])
        if self.dimension == 2 and v.shape[0] >= 3:
            # a counter-clockwise polygon: a row surely left of every edge is its own projection;
            # one that rounding could put on or past an edge (a thin polygon's edges reach far
            # along their lines) goes to the solver
            edge, d = np.roll(v, -1, axis=0) - v, rows[:, None, :] - v
            left, right = edge[:, 0] * d[..., 1], edge[:, 1] * d[..., 0]
            inside = (left - right > _orient_error(np.abs(left) + np.abs(right))).all(axis=1)
            todo = np.flatnonzero(~inside)
        step = max(1, _HULL_CHUNK_ENTRIES // v.size)
        for i in range(0, todo.size, step):
            out[todo[i : i + step]] = _project_hull(v, rows[todo[i : i + step]])
        return out.reshape(x.shape)

    def center(self) -> np.ndarray:
        """The mean of the vertices; in 2-D, of the extreme points."""
        return self.vertices.mean(axis=0)

    def extreme_points(self) -> np.ndarray:
        return self.vertices.copy()

    def as_dict(self) -> dict:
        return {"type": "hull", "vertices": self.vertices.tolist()}


# -- hull projection -------------------------------------------------------

def _orient_error(magnitude):
    """Shewchuk's bound on the error of the float (a - o) x (b - o) = left - right, given
    |left| + |right|, plus 1e-290 for underflow; an inf or nan determinant never clears it."""
    return 3.3306690738754716e-16 * magnitude + 1e-290


def _orient(o: list, a: list, b: list):
    """Signed like (a - o) x (b - o), > 0 for a left turn; exact where rounding could flip it."""
    left, right = (a[0] - o[0]) * (b[1] - o[1]), (a[1] - o[1]) * (b[0] - o[0])
    if abs(left - right) > _orient_error(abs(left) + abs(right)):
        return left - right
    from fractions import Fraction  # rare; at module level it would slow every import by ~3 ms
    o, a, b = ([Fraction(c) for c in p] for p in (o, a, b))
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_polygon(points: np.ndarray) -> np.ndarray:
    """Extreme points of a 2-D set counter-clockwise from the lexicographic minimum (Andrew's
    monotone chain); points on an edge are dropped, so a collinear set leaves its two ends."""
    pts = sorted(set(map(tuple, points.tolist())))  # np.unique(axis=0) costs 10x more here
    h: list = []
    for seq in (pts, pts[::-1]):  # the lower chain, then the upper
        base = len(h)
        for p in seq:
            while len(h) >= base + 2 and _orient(h[-2], h[-1], p) <= 0.0:
                h.pop()
            h.append(p)
        h.pop()  # each chain ends where the other starts
    return np.array(h or pts)  # one point leaves both chains empty


# (rows, k, m) entries one solve may hold in a temporary; on a 20-vertex hull,
# larger chunks raised the peak memory of 2420 rows by 2 MiB and saved no time
_HULL_CHUNK_ENTRIES = 1 << 14


def _affine_weight_minimizer(vertices: np.ndarray, support: list[int], x: np.ndarray):
    """Weights minimizing |x - sum(lam_k v_k)| subject to sum(lam)=1 (sign-unconstrained)."""
    k = len(support)
    if k == 1:
        return np.array([1.0])
    V = vertices[support].T  # (m, k)
    # lam = e_1 + B nu parametrizes the affine constraint sum(lam) = 1
    B = np.vstack([-np.ones((1, k - 1)), np.eye(k - 1)])
    nu, *_ = np.linalg.lstsq(V @ B, x - V[:, 0], rcond=None)
    lam = np.zeros(k)
    lam[0] = 1.0
    return lam + B @ nu


def _affine_weights(vertices: np.ndarray, x: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Affine-minimizer weights of every row over its support, dense (rows, k).

    Rows are grouped by support size and each group solves its least-squares
    problems by one stacked QR; a row whose support is affinely degenerate
    goes to the ``lstsq`` minimizer alone.
    """
    lam = np.zeros(support.shape)
    sizes = support.sum(axis=1)
    for s in np.unique(sizes):
        rows = np.flatnonzero(sizes == s)
        idx = np.nonzero(support[rows])[1].reshape(rows.size, s)
        if s == 1:  # a restore step can drop all but one vertex
            lam[rows, idx[:, 0]] = 1.0
            continue
        V = vertices[idx]  # (rows, s, m)
        # min |E nu - b| over edges E from the first support vertex
        E = (V[:, 1:] - V[:, :1]).transpose(0, 2, 1)
        b = x[rows] - V[:, 0]
        degenerate = np.ones(rows.size, dtype=bool)
        if s - 1 <= vertices.shape[1]:
            q, r = np.linalg.qr(E)
            pivots = np.abs(np.diagonal(r, axis1=1, axis2=2))
            degenerate = pivots.min(axis=1) <= 1e-10 * pivots.max(axis=1)
            ok = ~degenerate
            # b as (..., M, 1): numpy 1.x and 2.x broadcast a (..., M) right side differently
            nu = np.linalg.solve(r[ok], q[ok].transpose(0, 2, 1) @ b[ok, :, None])[:, :, 0]
            first = 1.0 - nu.sum(axis=1, keepdims=True)
            lam[rows[ok, None], idx[ok]] = np.concatenate([first, nu], axis=1)
        for i in np.flatnonzero(degenerate):
            lam[rows[i], idx[i]] = _affine_weight_minimizer(vertices, list(idx[i]), x[rows[i]])
    return lam


def _project_hull(vertices: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Nearest points in conv(vertices) to the rows of x via a Wolfe-style active-set solve.

    Every row walks its own path, and all rows advance together: a row in the
    certify phase checks the variational inequality <p - x, v - p> >= 0 at
    every vertex and either leaves (certified) or adds its most violating
    vertex to its support; a row in the restore phase moves its weights toward
    the support's affine minimizer, dropping vertices whose weight hits zero.
    Optimality is certified per row, so the result does not depend on the
    solver path; a row that stalls or exhausts its budget raises with its
    residual so a silent bad projection cannot escape.
    """
    n, nverts = x.shape[0], vertices.shape[0]
    floor = float(np.sqrt(np.finfo(float).tiny))  # relative down to where scale^2 underflows
    scale = np.maximum(max(floor, float(np.max(np.abs(vertices)))), np.max(np.abs(x), axis=1))
    cert_tol = 5e-13 * scale * scale
    member_tol = 1e-11 * scale
    max_outer = 16 * (nverts + 2) * (nverts + 2)

    out = np.empty_like(x)
    lam = np.zeros((n, nverts))
    lam[np.arange(n), np.argmin(np.linalg.norm(vertices - x[:, None, :], axis=2), axis=1)] = 1.0
    support = lam > 0.0
    active = np.ones(n, dtype=bool)
    outer = np.zeros(n, dtype=int)  # certificates evaluated
    inner = np.full(n, -1)  # restore steps since the last certificate; -1: certify next
    while active.any():
        rows = np.flatnonzero(active & (inner < 0))
        if rows.size:
            p = (lam[rows, None, :] @ vertices)[:, 0, :]
            gap = p - x[rows]
            slack = ((vertices - p[:, None, :]) @ gap[:, :, None])[:, :, 0]
            j = np.argmin(slack, axis=1)
            worst = slack[np.arange(rows.size), j]
            outer[rows] += 1
            done = worst >= -cert_tol[rows]
            member = np.linalg.norm(gap, axis=1) <= member_tol[rows]
            out[rows[done]] = np.where(member[done, None], x[rows[done]], p[done])
            active[rows[done]] = False
            # a worst vertex already in the support means the solve has stalled
            failed = ~done & (support[rows, j] | (outer[rows] >= max_outer))
            if failed.any():
                i = int(np.argmax(failed))
                raise NumericalError(
                    f"hull projection failed to certify optimality: worst vertex slack "
                    f"{worst[i]:.3e} (tolerance {-cert_tol[rows[i]]:.3e})"
                )
            grow = rows[~done]
            support[grow, j[~done]] = True
            inner[grow] = 0

        rows = np.flatnonzero(active & (inner >= 0))
        if not rows.size:
            continue
        lam_hat = _affine_weights(vertices, x[rows], support[rows])
        # feasible affine minimizer: take it and certify next
        fit = lam_hat.min(axis=1) >= -1e-13
        w = np.clip(lam_hat[fit], 0.0, None)
        lam[rows[fit]] = w / w.sum(axis=1, keepdims=True)
        inner[rows[fit]] = -1
        # otherwise step toward it until a weight hits zero, and drop that vertex
        rows, lam_hat = rows[~fit], lam_hat[~fit]
        w, S = lam[rows], support[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(S & (lam_hat < w), w / (w - lam_hat), np.inf)
        alpha = np.minimum(1.0, ratios.min(axis=1))[:, None]
        w = (1.0 - alpha) * w + alpha * lam_hat
        keep = S & (w > 1e-13)
        # a step that zeroes no weight still drops the smallest one
        full = np.flatnonzero((keep == S).all(axis=1))
        keep[full, np.argmin(np.where(S[full], w[full], np.inf), axis=1)] = False
        w = np.where(keep, w, 0.0)
        lam[rows] = w / w.sum(axis=1, keepdims=True)
        support[rows] = keep
        inner[rows] += 1
        inner[rows[inner[rows] >= nverts + 2]] = -1
    return out


# -- zero-set geometry ------------------------------------------------------


def intersect(bodies: list[ConvexBody], tol: float = 1e-9) -> Box | None:
    """Intersection of boxes, or ``None`` when empty; a width within ``tol`` collapses to a point.

    Hulls are not supported: every catalog zero set is a box, and boxes are
    closed under intersection.
    """
    if not bodies:
        raise InputError("intersect requires at least one body")
    for b in bodies:
        if b.dimension != bodies[0].dimension:
            raise InputError("bodies must share one dimension")
        if not isinstance(b, Box):
            raise RepresentationError(f"intersection unsupported for {type(b).__name__}")
    lo = np.maximum.reduce([b.lo for b in bodies])
    hi = np.minimum.reduce([b.hi for b in bodies])
    if (lo > hi + tol).any():
        return None
    hi = np.maximum(lo, hi)  # collapse sub-tolerance inversions
    if (hi - lo <= tol).all():
        lo = hi = 0.5 * lo + 0.5 * hi
    return Box(lo, hi)


def zero_set_hull(potentials) -> ConvexBody:
    """Convex hull of the union of all nodes' zero sets.

    In one dimension this is the interval spanning every zero set; in higher
    dimensions it is the hull of all corners of the zero-set boxes.
    """
    if not potentials:
        raise InputError("zero_set_hull requires at least one potential")
    zsets = [p.zero_set() for p in potentials]
    dim = zsets[0].dimension
    if any(z.dimension != dim for z in zsets):
        raise InputError("zero sets must share one dimension")
    if dim == 1:
        return Box(min(z.lo[0] for z in zsets), max(z.hi[0] for z in zsets))
    pts = np.vstack([z.extreme_points() for z in zsets])
    hull = Hull(pts if dim == 2 else np.unique(pts, axis=0))  # a 2-D hull sorts and dedups itself
    v = hull.vertices
    return Box(v[0], v[0]) if v.shape[0] == 1 else hull


def check_drift_alignment(potentials, samples, tol: float = 1e-10) -> CheckReport:
    """Sampled verification of the projection inner-product inequality.

    For every node self-dynamics f_i and every sample x it evaluates
    ``<x - P(x), f_i(x)>`` against the hull of the union of zero sets and
    passes iff no value exceeds ``tol``.  A sampled pass is evidence, not a
    proof; the report records the checked sample count.
    """
    from .potentials import NetworkPotential  # potentials imports this module

    body = zero_set_hull(potentials)
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    if pts.shape[0] == 0:
        raise InputError("drift alignment needs at least one sample")
    gaps = pts - body.project(pts)
    # every node's drift at every sample: (samples, nodes, m)
    drift = -NetworkPotential(potentials).gradient(
        np.broadcast_to(pts[:, None, :], (pts.shape[0], len(potentials), pts.shape[1]))
    )
    # (samples, nodes); the first maximum in sample-major order is the location
    vals = row_dot(gaps[:, None, :], drift)
    si, ni = np.unravel_index(np.argmax(vals), vals.shape)
    worst = float(vals[si, ni])
    where = {"node": int(ni), "sample_index": int(si), "sample": pts[si].tolist()}
    return CheckReport(
        check="drift_alignment",
        passed=worst <= tol,
        worst_value=worst,
        location=where,
        params={"tol": tol, "samples": int(pts.shape[0]), "body": body.as_dict()},
    )


def check_distance_comparison(body: ConvexBody, pairs, tol: float = 1e-10) -> CheckReport:
    """Verify both distance-comparison inequalities on the given point pairs.

    Part (i) is checked on every pair; part (ii) only on pairs where the
    first point is strictly farther from the body than the second.
    """
    pairs = list(pairs)
    if not pairs:
        raise InputError("distance comparison needs at least one point pair")
    m = body.dimension
    xa = np.array([_vector(a, m, "x_a") for a, _ in pairs]).reshape(-1, m)
    xb = np.array([_vector(b, m, "x_b") for _, b in pairs]).reshape(-1, m)
    gap_a, gap_b = xa - body.project(xa), xb - body.project(xb)
    da, db = np.sqrt(row_dot(gap_a, gap_a)), np.sqrt(row_dot(gap_b, gap_b))
    lhs = row_dot(gap_a, xb - xa)
    farther = da > db
    # (pair, part) rows in pair order, so the first maximum is the first violation
    viol_ii = np.where(farther, lhs + da * (da - db), -np.inf)
    viol = np.stack([lhs - da * np.abs(da - db), viol_ii], axis=1)
    k = int(np.argmax(viol))
    worst = float(viol.flat[k])
    return CheckReport(
        check="distance_comparison",
        passed=worst <= tol,
        worst_value=worst,
        location={"pair": k // 2, "part": ("i", "ii")[k % 2]},
        params={"tol": tol, "pairs": len(pairs), "pairs_part_ii": int(farther.sum())},
    )
