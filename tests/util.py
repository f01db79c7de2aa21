"""Shared helpers for the test suite: standard topologies, catalogs and reference solvers."""

import bisect
import collections
import itertools
import math
import struct
from fractions import Fraction

import numpy as np

from syncflow import (
    CheckReport,
    FlatBottom1D,
    InputError,
    NumericalError,
    Quadratic,
    QuarticWell,
    SumPotential,
    WeightedDigraph,
)
from syncflow.convex_geometry import row_dot
from syncflow.graphs import _TIME_TOL as TIME_TOL
from syncflow.potentials import NetworkPotential


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
    given = np.asarray(x, dtype=float)
    nverts = vertices.shape[0]
    # as the solver does for each row: one power of two puts scale, the larger of max |vertices|
    # and max |x|, in [0.5, 1), so the tolerances are relative at every size
    scale, e = np.frexp(max(np.max(np.abs(vertices)), np.max(np.abs(given))))
    vertices, x = np.ldexp(vertices, -e), np.ldexp(given, -e)
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
                return given.copy()  # x is (numerically) a member
            return np.ldexp(p, e)
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
    worst, tol = np.ldexp([worst, -cert_tol], 2 * e)  # in the caller's units
    raise NumericalError(
        f"hull projection failed to certify optimality: worst vertex slack "
        f"{worst:.3e} (tolerance {tol:.3e})"
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


def same_bits(a, b) -> bool:
    """Equal values and equal zero signs."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x.reshape(1) if x.ndim == 0 else x


def oracle_gradient(spec, x) -> np.ndarray:
    """grad F(x) for a point (m,), a stack (..., m) or a bare number, by each kind's
    closed form; a sum adds its terms, which are flat, with ``sum()``."""
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


def aggregate_value_oracle(potentials, g: WeightedDigraph, K: float, x) -> float:
    """sum_i F_i(x_i) + (K/2) sum_{edges} a_ij |x_j - x_i|^2 on an undirected g, x as (N, m)
    blocks, with F by ``oracle_value``; its gradient is the negated network drift."""
    X = np.asarray(x, dtype=float).reshape(g.node_count, -1)
    val = sum(float(oracle_value(p, X[i])) for i, p in enumerate(potentials))
    # for symmetric weights, x'(L kron I)x equals the unordered-edge sum
    return val + 0.5 * K * float(np.sum(X * (g.laplacian_matrix @ X)))


def gradient_consistency_check(spec, samples, h: float, tol: float) -> CheckReport:
    """Central finite differences of ``oracle_value`` against the package's gradient.

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
            fd = (oracle_value(spec, x + e) - oracle_value(spec, x - e)) / (2.0 * h)
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


# -- switching signals: time lookups by a walk over the segment table -------


def graph_id_at(signal, t: float, snap: float = TIME_TOL) -> str:
    """The graph from ``t`` on: the segment holding t + snap, by a linear scan.

    A switch up to ``snap`` after t thus already holds at t, as ``integrate`` merges
    a switch into an event up to its merge tolerance before it."""
    ends = list(itertools.accumulate(d for _, d in signal.segments))
    tau = (t + snap) % ends[-1]
    return next(gid for (gid, _), end in zip(signal.segments, ends) if tau < end)


def joint_graph(signal, t1: float, t2: float) -> frozenset:
    """The ``(j, i)`` arcs of every graph active in [t1, t2), weights ignored, by a walk
    over the segments from t1: ``certify_ujsc``'s brute-force reference.

    Time resolves to TIME_TOL, half of it at each end: a switch up to TIME_TOL / 2 after
    t1 already holds at t1, and a graph that starts less than TIME_TOL / 2 before t2 is
    not seen.  A window thus gives up TIME_TOL in all, the margin by which
    ``certify_ujsc`` needs T to exceed T_min."""
    if not t1 < t2:
        raise InputError(f"window requires t1 < t2, got [{t1}, {t2})")
    half = 0.5 * TIME_TOL
    segs = signal.segments
    ends = list(itertools.accumulate(d for _, d in segs))
    k, tau = divmod(t1 + half, ends[-1])
    j = bisect.bisect_right(ends, tau)  # the segment holding t1 + half
    ids, every = set(), {g for g, _ in segs}
    while True:
        k, j = k + j // len(segs), j % len(segs)
        ids.add(segs[j][0])
        # the next segment starts at the end of this one, as in ``switch_times``
        if ids == every or k * ends[-1] + ends[j] >= t2 - half:
            return frozenset().union(*(signal.library[g].arc_set for g in ids))
        j += 1


# -- the network drift in node order


def negated_drift(net, A, Xb) -> np.ndarray:
    """grad F(X) + K L X, the negated network drift, in a new array: the evaluator of
    ``net.drift_into`` on states Xb (..., N, m) in block order, with A from ``net.coupling``."""
    return net.drift_into(np.empty(np.shape(Xb)))(A, Xb)


def network_drift(potentials, lap, K, X) -> np.ndarray:
    """The network drift -grad F(X) - K L X on node states X (..., N, m), in node order:
    ``negated_drift`` with the states permuted into block order and back."""
    net = NetworkPotential(potentials)
    Xb = np.asarray(X, dtype=float).take(net.order, axis=-2)
    return -negated_drift(net, net.coupling(lap, K), Xb).take(net.inverse, axis=-2)


def counted_drifts(monkeypatch) -> collections.Counter:
    """From here on, counts of ``NetworkPotential.drift_into`` builds ("built") and of calls
    of the evaluators they return ("calls")."""
    counts = collections.Counter()
    drift_into = NetworkPotential.drift_into

    def counted(net, out):
        counts["built"] += 1
        f = drift_into(net, out)

        def counted_f(A, Xb):
            counts["calls"] += 1
            return f(A, Xb)
        return counted_f
    monkeypatch.setattr(NetworkPotential, "drift_into", counted)
    return counts


# -- the integrator's reference: RK4 in node order, one oracle call per node and stage


def node_order_rk4(pots, signal, K, x0, dt, times) -> np.ndarray:
    """States (S, N, m) at the sample ``times`` of a run, by RK4 in node order on the dense
    Laplacian with ``oracle_gradient`` per node; each span between samples takes the graph
    active at its midpoint in equal steps of at most ``dt``, as ``integrate`` does."""
    n = len(pots)

    def field(lap, x):
        X = x.reshape(n, -1)
        drift = np.array([-oracle_gradient(p, xi) for p, xi in zip(pots, X)])
        return (drift - K * (lap @ X)).ravel()

    x = np.asarray(x0, dtype=float).ravel()
    states = [x]
    for t0, t1 in zip(times, times[1:]):
        lap = signal.library[graph_id_at(signal, 0.5 * t0 + 0.5 * t1)].laplacian_matrix
        nsteps = max(1, math.ceil((t1 - t0) / dt - 1e-9))
        h = (t1 - t0) / nsteps
        for _ in range(nsteps):
            k1 = field(lap, x)
            k2 = field(lap, x + 0.5 * h * k1)
            k3 = field(lap, x + 0.5 * h * k2)
            k4 = field(lap, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return np.array(states).reshape(len(times), n, -1)


# -- the all-quadratic equilibrium: a linear solve, independent of the integrator


def equilibrium_oracle_quadratic(potentials, g: WeightedDigraph, K: float) -> np.ndarray:
    """Unique equilibrium of the all-quadratic network on a fixed graph, as (N, m) blocks.

    Solves (W + K (P kron I_m)) x = W m_stack with W = diag(w_i kron I_m);
    this linear system is independent of the integrator and serves as an
    oracle for acceptance tests.
    """
    if any(not isinstance(p, Quadratic) for p in potentials):
        raise InputError("equilibrium oracle requires all-quadratic potentials")
    eye = np.eye(potentials[0].dimension)
    w_diag = np.kron(np.diag([p.weight for p in potentials]), eye)
    lap = np.kron(np.array(g.laplacian_matrix), eye)
    b = np.concatenate([p.weight * p.center for p in potentials])
    try:
        return np.linalg.solve(w_diag + K * lap, b).reshape(g.node_count, -1)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"equilibrium system is singular: {e}") from None


# -- the exact argmin of a sum's component: Fraction signs under a bisection of the floats


def float_place(x: float) -> int:
    """x's index in the order of the floats, both zeros at 0: adjacent floats differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", abs(x)))[0]
    return bits if x > 0 else -bits


def float_at_place(i: int) -> float:
    return math.copysign(struct.unpack("<d", struct.pack("<q", abs(i)))[0], i)


def exact_derivative(terms, k: int, absolute: bool = False):
    """The k-th gradient component of the flat sum ``terms`` as an exact function of a float;
    with ``absolute``, the sum of its terms' absolute values."""
    # (kind, argmin lo, argmin hi, weight) per term, as Fractions
    coef = [(type(t), *map(Fraction, (t.center[k], t.center[k], t.weight)))
            if isinstance(t, Quadratic)
            else (type(t), *map(Fraction, (t.center[k], t.center[k], 1.0)))
            if isinstance(t, QuarticWell)
            else (type(t), *map(Fraction, (t.left, t.right, 1.0))) for t in terms]

    def derivative(s: float) -> Fraction:
        x, total = Fraction(s), 0
        for kind, left, right, w in coef:
            if kind is QuarticWell:
                g = (x - left) ** 3
            elif x > right:
                g = w * (x - right)
            elif x < left:
                g = w * (x - left)
            else:
                continue
            total += abs(g) if absolute else g
        return total

    return derivative


def exact_argmin_bracket(terms, k: int, guess: float | None = None) -> tuple[float, float]:
    """(l, h), the floats nearest the argmin of the k-th component of ``terms`` from below and
    from above (l == h where it is a float), for terms that share no minimizer: then the
    argmin is one point, and the exact derivative is < 0 below it and > 0 above it.  The
    bisection on the floats' places starts from the 4th float either side of ``guess`` where
    those two bracket the argmin, and from all floats otherwise."""
    derivative = exact_derivative(terms, k)
    lo, hi = float_place(-math.inf), float_place(math.inf)  # ends no search evaluates
    if guess is not None:
        a, b = float_place(guess) - 4, float_place(guess) + 4
        if lo < a and b < hi and derivative(float_at_place(a)) <= 0 < derivative(float_at_place(b)):
            lo, hi = a, b
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if derivative(float_at_place(mid)) > 0:
            hi = mid
        else:
            lo = mid
    below = float_at_place(lo)
    return (below, below) if derivative(below) == 0 else (below, float_at_place(hi))
