"""Closed bounded convex sets with exact nearest-point projection.

Two representations are supported: an axis-aligned box ``[lo, hi]``, which
is also every point (``lo == hi``) and every interval (m = 1), and the convex
hull of a finite vertex set, which in 2-D keeps its extreme points in
counter-clockwise order.  Every body projects one point ``(m,)`` or a stack
``(..., m)`` in one call.  A box clamps, and a 2-D hull returns a row inside
every edge as it is.  Other hull rows go through one batched active-set solve
over the simplex of vertex weights, certified per row by the projector's
variational inequality at every vertex, so no result depends on the solver path.
Its affine least squares is one stacked pseudoinverse per support size, and it
is exact under power-of-two scaling: each row is scaled by one first, so no row
depends on the others in its batch.

The module also builds the hull of the union of a potential catalog's zero
sets and provides a sampled verifier for the drift-alignment inequality the
synchronization analysis relies on.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .report import CheckReport

__all__ = [
    "Box",
    "Hull",
    "box_distance",
    "intersect",
    "zero_set_hull",
    "check_drift_alignment",
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
class Box:
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
        """Nearest point of the box to ``x``: one point (m,) or a stack (..., m), same shape."""
        return np.clip(_points(x, self.dimension), self.lo, self.hi)

    def distance(self, points) -> np.ndarray:
        """Euclidean distances of one point or a stack to the box, shape (..., m) -> (...)."""
        return box_distance(_points(points, self.dimension, "points"), self.lo, self.hi)

    def center(self) -> np.ndarray:
        return 0.5 * self.lo + 0.5 * self.hi  # no overflow near the largest floats

    def extreme_points(self) -> np.ndarray:
        """The distinct corners in lexicographic order: a product over {lo_k} or {lo_k, hi_k}."""
        axes = [(a,) if a == b else (a, b) for a, b in zip(self.lo.tolist(), self.hi.tolist())]
        if sum(len(ax) == 2 for ax in axes) > 12:
            raise InputError(f"box corner enumeration infeasible for m={self.dimension}")
        return np.array(list(itertools.product(*axes)))

    def as_dict(self) -> dict:
        if np.array_equal(self.lo, self.hi):
            return {"type": "point", "p": self.lo.tolist()}
        if self.dimension == 1:
            return {"type": "interval", "lo": float(self.lo[0]), "hi": float(self.hi[0])}
        return {"type": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}


@dataclass(frozen=True, eq=False)
class Hull:
    """The convex hull of a finite vertex set; in 2-D, its extreme points counter-clockwise."""

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
        """Nearest point of the hull to ``x``: one point (m,) or a stack (..., m), same shape."""
        x = _points(x, self.dimension)
        rows = x.reshape(-1, self.dimension)
        v = self.vertices
        out, todo = rows.copy(), np.arange(rows.shape[0])
        if self.dimension == 2 and v.shape[0] >= 3:
            # a counter-clockwise polygon: a row surely left of every edge is its own projection;
            # one that rounding could put on or past an edge (a thin polygon's edges reach far
            # along their lines) goes to the solver; all on one power of two that puts every
            # coordinate below 1, so no cross product overflows
            e = np.frexp(max(np.abs(v).max(), np.abs(rows).max(initial=0.0)))[1]
            vs = np.ldexp(v, -e)
            edge, d = np.roll(vs, -1, axis=0) - vs, np.ldexp(rows, -e)[:, None, :] - vs
            left, right = edge[:, 0] * d[..., 1], edge[:, 1] * d[..., 0]
            inside = (left - right > _orient_error(np.abs(left) + np.abs(right))).all(axis=1)
            todo = np.flatnonzero(~inside)
        step = max(1, _CHUNK_ENTRIES // v.size)
        for i in range(0, todo.size, step):
            out[todo[i : i + step]] = _project_hull(v, rows[todo[i : i + step]])
        return out.reshape(x.shape)

    def distance(self, points) -> np.ndarray:
        """Euclidean distances of one point or a stack to the hull, shape (..., m) -> (...)."""
        pts = _points(points, self.dimension, "points")
        return np.linalg.norm(pts - self.project(pts), axis=-1)

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


# entries one batch may hold in a temporary: (rows, k, m) for a hull solve, (rows, N, m)
# for drift alignment; on a 20-vertex hull, larger chunks raised the peak memory of
# 2420 rows by 2 MiB and saved no time
_CHUNK_ENTRIES = 1 << 14


def _affine_weights(vertices: np.ndarray, x: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Affine-minimizer weights of every row over its support in its own vertices (rows, k, m),
    dense (rows, k).

    Rows are grouped by support size, and each group takes one stacked
    pseudoinverse of its edges from the first support vertex: the minimum-norm
    least-squares solution, for degenerate supports too.  A support of one
    vertex has no edges and gets weight 1.
    """
    lam = np.zeros(support.shape)
    sizes = support.sum(axis=1)
    for s in np.unique(sizes):
        rows = np.flatnonzero(sizes == s)
        idx = np.nonzero(support[rows])[1].reshape(rows.size, s)
        V = vertices[rows[:, None], idx]  # (rows, s, m)
        E = (V[:, 1:] - V[:, :1]).transpose(0, 2, 1)  # (rows, m, s - 1)
        nu = (np.linalg.pinv(E) @ (x[rows] - V[:, 0])[:, :, None])[:, :, 0]
        lam[rows[:, None], idx] = np.concatenate([1.0 - nu.sum(axis=1, keepdims=True), nu], axis=1)
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
    # a power of two per row puts scale, the larger of max |vertices| and max |row|, in [0.5, 1),
    # on the row's own copy of the vertices (rows, k, m), so a row's solve is the same at every
    # size and in every batch, and its tolerances neither underflow nor overflow; it is exact but
    # for subnormal bits a shrink shifts out, so a member row is returned from the caller's copy
    n, nverts = x.shape[0], vertices.shape[0]
    scale, e = np.frexp(np.maximum(np.abs(vertices).max(), np.abs(x).max(axis=1)))
    given, x = x, np.ldexp(x, -e[:, None])
    vertices = np.ldexp(vertices, -e[:, None, None])
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
            V = vertices[rows]
            p = (lam[rows, None, :] @ V)[:, 0, :]
            gap = p - x[rows]
            slack = ((V - p[:, None, :]) @ gap[:, :, None])[:, :, 0]
            j = np.argmin(slack, axis=1)
            worst = slack[np.arange(rows.size), j]
            outer[rows] += 1
            done = worst >= -cert_tol[rows]
            member = np.linalg.norm(gap, axis=1) <= member_tol[rows]
            out[rows[done]] = np.where(member[done, None], given[rows[done]],
                                       np.ldexp(p[done], e[rows[done], None]))
            active[rows[done]] = False
            # a worst vertex already in the support means the solve has stalled
            failed = ~done & (support[rows, j] | (outer[rows] >= max_outer))
            if failed.any():
                i = int(np.argmax(failed))
                # in the caller's units
                slack_i, tol_i = np.ldexp([worst[i], -cert_tol[rows[i]]], 2 * e[rows[i]])
                raise NumericalError(
                    f"hull projection failed to certify optimality: worst vertex slack "
                    f"{slack_i:.3e} (tolerance {tol_i:.3e})"
                )
            grow = rows[~done]
            support[grow, j[~done]] = True
            inner[grow] = 0

        rows = np.flatnonzero(active & (inner >= 0))
        if not rows.size:
            continue
        lam_hat = _affine_weights(vertices[rows], x[rows], support[rows])
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


def intersect(bodies: list[Box], tol: float = 1e-9) -> Box | None:
    """Intersection of boxes, or ``None`` when empty; a width within ``tol`` collapses to a point.

    Every catalog zero set is a box, and boxes are closed under intersection.
    """
    if not bodies:
        raise InputError("intersect requires at least one body")
    for b in bodies:
        if b.dimension != bodies[0].dimension:
            raise InputError("bodies must share one dimension")
    lo = np.maximum.reduce([b.lo for b in bodies])
    hi = np.minimum.reduce([b.hi for b in bodies])
    if (lo > hi + tol).any():
        return None
    hi = np.maximum(lo, hi)  # collapse sub-tolerance inversions
    if (hi - lo <= tol).all():
        lo = hi = 0.5 * lo + 0.5 * hi
    return Box(lo, hi)


def zero_set_hull(potentials) -> Box | Hull:
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
    passes iff no value exceeds ``tol``.  Samples are a point (m,) or a stack
    (..., m), whose flattened rows ``sample_index`` counts.  A sample that is
    its own projection has gap 0 and value 0 for every node, so the drifts are
    evaluated only at the other samples, a bounded chunk at a time.  A sampled
    pass is evidence, not a proof; the report records the checked sample count.
    """
    from .potentials import NetworkPotential  # potentials imports this module

    body = zero_set_hull(potentials)
    pts = _points(samples, body.dimension, "samples").reshape(-1, body.dimension)
    if pts.shape[0] == 0:
        raise InputError("drift alignment needs at least one sample")
    gaps = pts - body.project(pts)
    net = NetworkPotential(potentials)
    n, m = net.node_count, net.dimension
    vals = np.zeros((pts.shape[0], n))  # (samples, nodes)
    outside = np.flatnonzero(gaps.any(axis=1))
    step = max(1, _CHUNK_ENTRIES // (n * m))
    for i in range(0, outside.size, step):
        rows = outside[i : i + step]
        gap = gaps[rows][:, None, :]
        drift = -net.gradient(np.broadcast_to(pts[rows, None, :], (rows.size, n, m)))
        with np.errstate(over="ignore", invalid="ignore"):
            v = row_dot(gap, drift)
            # redo each overflowed product on its rows, each scaled by its own power of two
            lost = ~np.isfinite(v)
            g, d = np.broadcast_to(gap, drift.shape)[lost], drift[lost]
            eg, ed = (np.frexp(np.abs(a).max(axis=1, initial=0.0))[1][:, None] for a in (g, d))
            v[lost] = np.ldexp(row_dot(np.ldexp(g, -eg), np.ldexp(d, -ed)), (eg + ed)[:, 0])
        vals[rows] = v
    # the first maximum in sample-major order is the location
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
