"""Closed bounded convex sets with exact nearest-point projection.

Four representations are supported: a single point, a closed interval on the
line, an axis-aligned box, and the convex hull of a finite vertex set.  Every
body projects one point ``(m,)`` or a stack ``(..., m)`` in one call.  The
first three project by clamping; hull projection runs one batched
nearest-point active-set solve over the simplex of vertex weights for all
rows and certifies each result through the projector's variational
inequality at every vertex, so its correctness does not depend on the solver
path.

The module also builds the hull of the union of a potential catalog's zero
sets and provides sampled verifiers for the projection inequalities the
synchronization analysis relies on.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolationError,
    InputError,
    NumericalError,
    RepresentationError,
)
from .report import CheckReport

__all__ = [
    "ConvexBody",
    "Point",
    "Interval1D",
    "Box",
    "Hull",
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

    def distance(self, x) -> float:
        """Euclidean distance from the point ``x`` to the body; zero iff ``x`` is a member."""
        x = _vector(x, self.dimension)
        return float(np.linalg.norm(x - self.project(x)))

    def distance_many(self, points) -> np.ndarray:
        """Distances for a stack of points, shape (..., m) -> (...)."""
        pts = _points(points, self.dimension, "points")
        return np.linalg.norm(pts - self.project(pts), axis=-1)

    def contains(self, x, tol: float = 1e-10) -> bool:
        return self.distance(x) <= tol

    def center(self) -> np.ndarray:
        """A deterministic interior representative (centroid of the description)."""
        raise NotImplementedError

    def extreme_points(self) -> np.ndarray:
        """Vertex set spanning the body, shape (k, m)."""
        raise NotImplementedError

    def as_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Point(ConvexBody):
    p: np.ndarray

    def __post_init__(self):
        p = _vector(self.p, what="p")
        if not np.all(np.isfinite(p)):
            raise InputError(f"point must be finite, got {p.tolist()}")
        object.__setattr__(self, "p", _frozen(p))

    @property
    def dimension(self) -> int:
        return self.p.shape[0]

    def project(self, x) -> np.ndarray:
        x = _points(x, self.dimension)
        return np.broadcast_to(self.p, x.shape).copy()

    def distance_many(self, points) -> np.ndarray:
        pts = _points(points, self.dimension, "points")
        return np.linalg.norm(pts - self.p, axis=-1)

    def center(self) -> np.ndarray:
        return self.p.copy()

    def extreme_points(self) -> np.ndarray:
        return self.p.reshape(1, -1).copy()

    def as_dict(self) -> dict:
        return {"type": "point", "p": self.p.tolist()}


@dataclass(frozen=True, eq=False)
class Interval1D(ConvexBody):
    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise InputError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise InputError(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def dimension(self) -> int:
        return 1

    def project(self, x) -> np.ndarray:
        x = _points(x, 1)
        return np.clip(x, self.lo, self.hi)

    def distance_many(self, points) -> np.ndarray:
        pts = _points(points, 1, "points")[..., 0]
        return np.abs(pts - np.clip(pts, self.lo, self.hi))

    def center(self) -> np.ndarray:
        return np.array([0.5 * (self.lo + self.hi)])

    def extreme_points(self) -> np.ndarray:
        if self.lo == self.hi:
            return np.array([[self.lo]])
        return np.array([[self.lo], [self.hi]])

    def as_dict(self) -> dict:
        return {"type": "interval", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True, eq=False)
class Box(ConvexBody):
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _vector(self.lo, what="lo")
        hi = _vector(self.hi, dim=lo.shape[0], what="hi")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InputError("box corners must be finite")
        if np.any(lo > hi):
            raise InputError("box requires lo <= hi componentwise")
        object.__setattr__(self, "lo", _frozen(lo))
        object.__setattr__(self, "hi", _frozen(hi))

    @property
    def dimension(self) -> int:
        return self.lo.shape[0]

    def project(self, x) -> np.ndarray:
        x = _points(x, self.dimension)
        return np.clip(x, self.lo, self.hi)

    def distance_many(self, points) -> np.ndarray:
        pts = _points(points, self.dimension, "points")
        return np.linalg.norm(pts - np.clip(pts, self.lo, self.hi), axis=-1)

    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def extreme_points(self) -> np.ndarray:
        m = self.dimension
        if m > 12:
            raise RepresentationError(f"box corner enumeration infeasible for m={m}")
        corners = np.array(
            [
                [self.hi[k] if bit else self.lo[k] for k, bit in enumerate(bits)]
                for bits in itertools.product([0, 1], repeat=m)
            ]
        )
        return np.unique(corners, axis=0)

    def as_dict(self) -> dict:
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
        object.__setattr__(self, "vertices", _frozen(v))

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    def project(self, x) -> np.ndarray:
        x = _points(x, self.dimension)
        rows = x.reshape(-1, self.dimension)
        out = np.empty_like(rows)
        step = max(1, _HULL_CHUNK_ENTRIES // self.vertices.size)
        for i in range(0, rows.shape[0], step):
            out[i : i + step] = _project_hull(self.vertices, rows[i : i + step])
        return out.reshape(x.shape)

    def center(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def extreme_points(self) -> np.ndarray:
        return self.vertices.copy()

    def as_dict(self) -> dict:
        return {"type": "hull", "vertices": self.vertices.tolist()}


# -- hull projection -------------------------------------------------------

# (rows, k, m) entries one solve may hold in a temporary; larger chunks raised
# the peak memory of a 2420-row, 20-vertex call by 2 MiB and saved no time
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
    scale = np.maximum(max(1.0, float(np.max(np.abs(vertices)))), np.max(np.abs(x), axis=1))
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


def _corners(body: ConvexBody) -> np.ndarray:
    pts = body.extreme_points()
    if not np.all(np.isfinite(pts)):
        raise AssumptionViolationError("zero set is unbounded; the hull of zero sets must be bounded")
    return pts


def intersect(bodies: list[ConvexBody], tol: float = 1e-9) -> ConvexBody | None:
    """Intersection of point/interval/box bodies, or ``None`` when empty.

    Hulls are not supported: every catalog zero set is a point, interval, or
    box, and those are closed under intersection.
    """
    if not bodies:
        raise InputError("intersect requires at least one body")
    dim = bodies[0].dimension
    lo = np.full(dim, -np.inf)
    hi = np.full(dim, np.inf)
    for b in bodies:
        if b.dimension != dim:
            raise InputError("bodies must share one dimension")
        if isinstance(b, Point):
            blo = bhi = b.p
        elif isinstance(b, Interval1D):
            blo, bhi = np.array([b.lo]), np.array([b.hi])
        elif isinstance(b, Box):
            blo, bhi = b.lo, b.hi
        else:
            raise RepresentationError(f"intersection unsupported for {type(b).__name__}")
        lo = np.maximum(lo, blo)
        hi = np.minimum(hi, bhi)
    if np.any(lo > hi + tol):
        return None
    hi = np.maximum(lo, hi)  # collapse sub-tolerance inversions
    if np.all(hi - lo <= tol):
        return Point(0.5 * (lo + hi))
    if dim == 1:
        return Interval1D(lo[0], hi[0])
    return Box(lo, hi)


def zero_set_hull(potentials) -> ConvexBody:
    """Convex hull of the union of all nodes' zero sets.

    In one dimension this is an interval spanning every zero set; in higher
    dimensions it is the hull of all corner vertices of the (point or box)
    zero sets.
    """
    if not potentials:
        raise InputError("zero_set_hull requires at least one potential")
    zsets = [p.zero_set() for p in potentials]
    dim = zsets[0].dimension
    if any(z.dimension != dim for z in zsets):
        raise InputError("zero sets must share one dimension")
    if dim == 1:
        lo = min(z.extreme_points().min() for z in zsets)
        hi = max(z.extreme_points().max() for z in zsets)
        for z in zsets:
            _corners(z)  # boundedness
        if lo == hi:
            return Point(np.array([lo]))
        return Interval1D(lo, hi)
    pts = np.vstack([_corners(z) for z in zsets])
    pts = np.unique(pts, axis=0)
    if pts.shape[0] == 1:
        return Point(pts[0])
    return Hull(pts)


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
    worst, where = -np.inf, None
    if pairs:
        k = int(np.argmax(viol))
        worst, where = float(viol.flat[k]), {"pair": k // 2, "part": ("i", "ii")[k % 2]}
    n_ii = int(farther.sum())
    return CheckReport(
        check="distance_comparison",
        passed=worst <= tol,
        worst_value=worst,
        location=where,
        params={"tol": tol, "pairs": len(pairs), "pairs_part_ii": n_ii},
    )
