"""Shared helpers for the test suite: standard topologies, catalogs and reference solvers."""

import math
from fractions import Fraction

import numpy as np

from syncflow import (
    CheckReport,
    FlatBottom1D,
    InputError,
    NumericalError,
    PreconditionError,
    Quadratic,
    QuarticWell,
    RepresentationError,
    SumPotential,
    WeightedDigraph,
)
from syncflow.convex_geometry import row_dot
from syncflow.simulator import compile_network


def undirected(n, pairs, weight=1.0):
    arcs = []
    for i, j in pairs:
        arcs.append((i, j, weight))
        arcs.append((j, i, weight))
    return WeightedDigraph(n, tuple(arcs))


def path_graph(n, weight=1.0):
    return undirected(n, [(i, i + 1) for i in range(n - 1)], weight)


def ring_graph(n, weight=1.0):
    return undirected(n, [(i, (i + 1) % n) for i in range(n)], weight)


def star_graph(n, weight=1.0):
    return undirected(n, [(0, i) for i in range(1, n)], weight)


def complete_graph(n, weight=1.0):
    return undirected(n, [(i, j) for i in range(n) for j in range(i + 1, n)], weight)


def random_tree(n, seed=0, weight=1.0):
    rng = np.random.default_rng(seed)
    return undirected(n, [(int(rng.integers(0, i)), i) for i in range(1, n)], weight)


def five_topologies(n=5):
    return {
        "path": path_graph(n),
        "ring": ring_graph(n),
        "star": star_graph(n),
        "complete": complete_graph(n),
        "tree": random_tree(n, seed=11),
    }


def _affine_weight_minimizer(vertices, support, x):
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


def hull_projection_oracle(vertices, x):
    """Nearest point in conv(vertices) to one point x: the scalar Wolfe-style solve.

    This is the one-point-at-a-time active-set solver the batched
    ``Hull.project`` replaced, kept as its reference.
    """
    vertices = np.asarray(vertices, dtype=float)
    x = np.asarray(x, dtype=float)
    nverts = vertices.shape[0]
    # the same floor as the solver: relative down to the square root of the smallest normal
    scale = max(float(np.sqrt(np.finfo(float).tiny)), float(np.max(np.abs(vertices))),
                float(np.max(np.abs(x))))
    cert_tol = 5e-13 * scale * scale
    member_tol = 1e-11 * scale

    dists = np.linalg.norm(vertices - x, axis=1)
    support = [int(np.argmin(dists))]
    lam = np.array([1.0])

    max_outer = 16 * (nverts + 2) * (nverts + 2)
    worst = np.inf
    for _ in range(max_outer):
        p = lam @ vertices[support]
        # variational inequality <p - x, v - p> >= 0 for all vertices v
        slack = (vertices - p) @ (p - x)
        j = int(np.argmin(slack))
        worst = float(slack[j])
        if worst >= -cert_tol:
            if np.linalg.norm(p - x) <= member_tol:
                return np.array(x, dtype=float)  # x is (numerically) a member
            return p
        if j in support:
            break  # stalled: affine solve already optimal over support
        support.append(j)
        lam = np.append(lam, 0.0)
        # restore feasibility: pull lam toward the affine minimizer, dropping
        # vertices whose weight hits zero
        for _ in range(nverts + 2):
            lam_hat = _affine_weight_minimizer(vertices, support, x)
            if lam_hat.min() >= -1e-13:
                lam = np.clip(lam_hat, 0.0, None)
                lam = lam / lam.sum()
                break
            shrink = lam_hat < lam
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(shrink, lam / (lam - lam_hat), np.inf)
            alpha = min(1.0, float(np.min(ratios)))
            lam = (1.0 - alpha) * lam + alpha * lam_hat
            keep = lam > 1e-13
            if keep.all():
                keep[int(np.argmin(lam))] = False
            support = [s for s, k in zip(support, keep) if k]
            lam = lam[keep]
            lam = lam / lam.sum()
    raise NumericalError(
        f"hull projection failed to certify optimality: worst vertex slack "
        f"{worst:.3e} (tolerance {-cert_tol:.3e})"
    )


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _rational(points) -> list:
    """Rows of a float array (k, 2) or one point (2,) as exact tuples of Fractions."""
    rows = np.atleast_2d(np.asarray(points, dtype=float)).tolist()
    return [tuple(map(Fraction, p)) for p in rows]


def extreme_points_oracle(points) -> np.ndarray:
    """Extreme points of a 2-D set, counter-clockwise from the lexicographic minimum.

    Andrew's monotone chain on exact rational coordinates, so no rounding can
    keep a point on an edge or drop a corner.  Fewer than 3 distinct points
    come back sorted.
    """
    pts = sorted(set(_rational(points)))

    def chain(seq):
        h = []
        for p in seq:
            while len(h) >= 2 and _cross(h[-2], h[-1], p) <= 0:
                h.pop()
            h.append(p)
        return h

    if len(pts) >= 3:
        pts = chain(pts)[:-1] + chain(pts[::-1])[:-1]
    return np.array([[float(c) for c in p] for p in pts])


def polygon_depth_oracle(vertices, x) -> Fraction:
    """Exact signed squared distance of x to the nearest edge line of a counter-clockwise
    convex polygon: positive strictly inside, zero on an edge line, negative outside."""
    v, (x,) = _rational(vertices), _rational(x)
    signed = []
    for a, b in zip(v, v[1:] + v[:1]):
        c = _cross(a, b, x)
        signed.append(c * abs(c) / ((b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2))
    return min(signed)


def squared_polygon_distance_oracle(vertices, x) -> Fraction:
    """Exact squared distance of the point x to a counter-clockwise convex polygon:
    zero inside or on it, else the least squared distance to an edge segment."""
    if polygon_depth_oracle(vertices, x) >= 0:
        return Fraction(0)
    v, (x,) = _rational(vertices), _rational(x)
    dists = []
    for a, b in zip(v, v[1:] + v[:1]):
        e, d = (b[0] - a[0], b[1] - a[1]), (x[0] - a[0], x[1] - a[1])
        t = (d[0] * e[0] + d[1] * e[1]) / (e[0] ** 2 + e[1] ** 2)
        t = min(max(t, Fraction(0)), Fraction(1))
        dists.append((d[0] - t * e[0]) ** 2 + (d[1] - t * e[1]) ** 2)
    return min(dists)


# -- potentials: closed forms one kind at a time, the kernels' reference ------


def _point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x.reshape(1) if x.ndim == 0 else x


def oracle_gradient(spec, x) -> np.ndarray:
    """grad F(x) for a point (m,), a stack (..., m) or a bare number, by each kind's
    closed form; a sum adds its terms with ``sum()``, nesting kept."""
    x = _point(x)
    if isinstance(spec, Quadratic):
        return spec.weight * (x - spec.center)
    if isinstance(spec, QuarticWell):
        d = x - spec.center  # two multiplies, as the kernel; pow is the reference of its own test
        return d * d * d
    if isinstance(spec, FlatBottom1D):
        return x - np.minimum(np.maximum(x, spec.left), spec.right)
    if isinstance(spec, SumPotential):
        return sum(oracle_gradient(t, x) for t in spec.terms)
    raise TypeError(f"no oracle for {type(spec).__name__}")


def oracle_curvature(spec, x) -> np.ndarray:
    """The diagonal of F's Hessian at x, shaped as ``oracle_gradient``'s result, by each kind's
    second derivative (a flat bottom's is 0 strictly inside (left, right) and 1 elsewhere, its
    edges included); sums likewise."""
    x = _point(x)
    if isinstance(spec, Quadratic):
        return np.full(x.shape, spec.weight)
    if isinstance(spec, QuarticWell):
        d = x - spec.center
        return 3.0 * d * d
    if isinstance(spec, FlatBottom1D):
        return np.where((x <= spec.left) | (x >= spec.right), 1.0, 0.0)
    if isinstance(spec, SumPotential):
        return sum(oracle_curvature(t, x) for t in spec.terms)
    raise TypeError(f"no oracle for {type(spec).__name__}")


def oracle_value(spec, x):
    """F(x) by each kind's closed form, shape ``x.shape[:-1]``; sums as in ``oracle_gradient``."""
    x = _point(x)
    if isinstance(spec, Quadratic):
        d = x - spec.center
        return 0.5 * spec.weight * row_dot(d, d)
    if isinstance(spec, QuarticWell):
        return 0.25 * np.sum((x - spec.center) ** 4, axis=-1)
    if isinstance(spec, FlatBottom1D):
        # libm pow, as Python's float ``**``
        return 0.5 * np.float_power(oracle_gradient(spec, x)[..., 0], 2)
    if isinstance(spec, SumPotential):
        return sum(oracle_value(t, x) for t in spec.terms)
    raise TypeError(f"no oracle for {type(spec).__name__}")


def potential_to_dict(spec) -> dict:
    """The scenario-schema dict of a catalog potential; ``cli.potential_from_dict`` reads it."""
    if isinstance(spec, Quadratic):
        return {"kind": "quadratic", "center": spec.center.tolist(), "weight": spec.weight}
    if isinstance(spec, QuarticWell):
        return {"kind": "quartic", "center": spec.center.tolist()}
    if isinstance(spec, FlatBottom1D):
        return {"kind": "flat_bottom", "left": spec.left, "right": spec.right}
    if isinstance(spec, SumPotential):
        return {"kind": "sum", "terms": [potential_to_dict(t) for t in spec.terms]}
    raise InputError(f"cannot serialize {type(spec).__name__}")


def gradient_consistency_check(spec, samples, h: float, tol: float) -> CheckReport:
    """Central finite differences of the value against the analytic gradient.

    For every sample the difference quotient of F must match grad F within
    ``tol`` componentwise; the report carries the worst deviation.
    """
    if h <= 0 or tol <= 0:
        raise InputError("h and tol must be positive")
    worst = 0.0
    where = None
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    for si, x in enumerate(pts):
        grad = spec.gradient(x)
        for k in range(spec.dimension):
            e = np.zeros(spec.dimension)
            e[k] = h
            fd = (spec.value(x + e) - spec.value(x - e)) / (2.0 * h)
            dev = abs(fd - grad[k])
            if dev > worst:
                worst = dev
                where = {"sample_index": si, "component": k, "sample": x.tolist()}
    return CheckReport(
        check="gradient_consistency",
        passed=worst <= tol,
        worst_value=worst,
        location=where,
        params={"h": h, "tol": tol, "samples": int(pts.shape[0])},
    )


# -- the all-quadratic equilibrium: a linear solve, independent of the integrator


def equilibrium_oracle_quadratic(potentials, g: WeightedDigraph, K: float) -> np.ndarray:
    """Unique equilibrium of the all-quadratic network on a fixed graph, as (N, m) blocks.

    Solves (W + K (P kron I_m)) x = W m_stack with W = diag(w_i kron I_m);
    this linear system is independent of the integrator and serves as an
    oracle for acceptance tests.
    """
    if any(not isinstance(p, Quadratic) for p in potentials):
        raise PreconditionError("equilibrium oracle requires all-quadratic potentials")
    eye = np.eye(compile_network(potentials, g.node_count).dimension)
    w_diag = np.kron(np.diag([p.weight for p in potentials]), eye)
    lap = np.kron(np.array(g.laplacian_matrix), eye)
    b = np.concatenate([p.weight * p.center for p in potentials])
    try:
        return np.linalg.solve(w_diag + K * lap, b).reshape(g.node_count, -1)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"equilibrium system is singular: {e}") from None


# -- the argmin bisection as it ran before its early exit: all 200 halvings ----


def component_zero_interval_oracle(terms, k: int) -> tuple[float, float]:
    """Zero interval of the k-th gradient component of the flattened sum ``terms``, by
    200 halvings per edge with no early exit; overflow to inf is silent, as in ``src/``."""

    def deriv(s: float) -> float:
        total = 0.0
        for t in terms:
            if isinstance(t, Quadratic):
                total += t.weight * (s - t.center[k])
            elif isinstance(t, QuarticWell):
                total += (s - t.center[k]) ** 3
            elif isinstance(t, FlatBottom1D):
                if s > t.right:
                    total += s - t.right
                elif s < t.left:
                    total += s - t.left
        return total

    zsets = [t.zero_set() for t in terms]
    lo = min(float(z.lo[k]) for z in zsets)
    hi = max(float(z.hi[k]) for z in zsets)
    a, b = lo - max(1.0, 2.0**-50 * abs(lo)), hi + max(1.0, 2.0**-50 * abs(hi))

    def bisect(predicate) -> tuple[float, float]:
        lo_, hi_ = a, b
        for _ in range(200):
            mid = 0.5 * lo_ + 0.5 * hi_
            if predicate(mid):
                hi_ = mid
            else:
                lo_ = mid
        return lo_, hi_

    with np.errstate(over="ignore", invalid="ignore"):
        if not (math.isfinite(a) and math.isfinite(b) and deriv(a) < 0.0 < deriv(b)):
            raise RepresentationError("failed to bracket the argmin of a sum potential")
        _, left_edge = bisect(lambda s: deriv(s) >= 0.0)
        right_edge, _ = bisect(lambda s: deriv(s) > 0.0)
    if right_edge < left_edge:
        mid = 0.5 * left_edge + 0.5 * right_edge
        return mid, mid
    return left_edge, right_edge


def sum_zero_set_oracle(terms) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of a sum's argmin box when its terms share no minimizer and are not all
    quadratic: one oracle interval per component, a box thinner than 1e-9 of its
    scale collapsed to its midpoint."""
    m = terms[0].dimension
    lo, hi = (np.array(e) for e in zip(*(component_zero_interval_oracle(terms, k)
                                         for k in range(m))))
    scale = max(1.0, float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
    if np.all(hi - lo <= 1e-9 * scale):
        lo = hi = 0.5 * lo + 0.5 * hi
    return lo, hi
