"""Catalog of convex node potentials with exact gradients and argmin sets.

Each potential F is C1, convex, and coercive with a bounded argmin set, and
exposes its gradient; the node self-dynamics are f = -grad(F).  No path
evaluates F itself: ``tests/util.py`` holds its closed form per kind.  The
catalog is closed (four kinds) so that zero sets, convexity, and the
hypotheses of the synchronization analysis stay machine-checkable:

* ``Quadratic``      F(x) = (w/2)|x - c|^2
* ``QuarticWell``    F(x) = sum_k (x_k - c_k)^4 / 4, so f(x) = -(x - c)^3
* ``FlatBottom1D``   zero on [left, right], quadratic halves outside (1-D)
* ``SumPotential``   pointwise sum of catalog terms sharing one dimension, kept flat

A zero set is computed where it is first read, never when a potential is built, so a sum
whose argmin cannot be found (see ``_component_zero_interval``) is refused there.

``NetworkPotential`` compiles a network's potentials into one kernel per run of like
terms in a block order of the nodes, so one call evaluates every node; its ``coupling``
(K·L) and ``negated_drift`` (grad F + K L X) are the one evaluator of the coupled network.
Each kind's kernel, a static method of its class, is the only formula for its gradient
and curvature (``Potential.gradient`` evaluates a one-node network; ``tests/util.py``
holds the per-kind oracle), but for the argmin search's scalar derivative (see
``_component_zero_interval``).

The quartic well is deliberately non-Lipschitz and evaluated in double precision
with no clamping; boundedness along trajectories is the simulator's (divergence
guard).  Its gradient is d * d * d with d = x - c: on the RK4 field's hot path two
multiplies take a fifth of libm pow's time, and they stay within 1 ulp of pow where
the cube is normal, with pow's inf, NaN, signed zero and overflow.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import convex_geometry as cg
from .errors import InputError, NumericalError

__all__ = [
    "Potential",
    "Quadratic",
    "QuarticWell",
    "FlatBottom1D",
    "SumPotential",
    "NetworkPotential",
    "common_zero_set",
]


class Potential:
    """Immutable, pure base class.  ``gradient`` takes a point (m,), a stack (..., m) or,
    in 1-D, a bare number, and returns shape ``x.shape``."""

    @property
    def dimension(self) -> int:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        """grad F(x), from the kernels as a one-node network; the node drift is its negative."""
        return self._network.gradient(self._check(x)[..., None, :])[..., 0, :]

    def zero_set(self) -> cg.Box:
        """Exact argmin set {z : grad F(z) = 0} as a box, computed on the first call."""
        return self._zero_set

    @cached_property
    def _zero_set(self) -> cg.Box:
        return self._argmin_set()

    @cached_property
    def _network(self) -> "NetworkPotential":
        return NetworkPotential([self])

    def _argmin_set(self) -> cg.Box:
        raise NotImplementedError

    def _check(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=float)
        if v.ndim == 0:
            v = v.reshape(1)
        if v.shape[-1] != self.dimension:
            raise InputError(
                f"state has shape {v.shape}, expected (..., {self.dimension}) for {type(self).__name__}"
            )
        return v


def _center(value, kind: str) -> np.ndarray:
    c = np.atleast_1d(np.asarray(value, dtype=float))
    if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
        raise InputError(f"{kind} center must be a nonempty finite vector")
    c.setflags(write=False)
    return c


@dataclass(frozen=True, eq=False)
class Quadratic(Potential):
    center: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", _center(self.center, "quadratic"))
        object.__setattr__(self, "weight", float(self.weight))
        if not (self.weight > 0 and np.isfinite(self.weight)):
            raise InputError(f"quadratic weight must be positive, got {self.weight}")

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    @staticmethod
    def _kernel(terms):
        """(gradient, curvature) of stacked quadratics on node blocks (..., n, m)."""
        c = np.array([t.center for t in terms])
        w = np.array([[t.weight] for t in terms])
        return (lambda x: w * (x - c)), (lambda x: np.broadcast_to(w, x.shape))

    def _argmin_set(self) -> cg.Box:
        return cg.Box(self.center, self.center)


@dataclass(frozen=True, eq=False)
class QuarticWell(Potential):
    center: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", _center(self.center, "quartic"))

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    @staticmethod
    def _kernel(terms):
        """(gradient, curvature) of stacked quartic wells on node blocks (..., n, m)."""
        c = np.array([t.center for t in terms])

        def gradient(x):
            d = x - c  # two multiplies, not libm pow: see the module docstring
            return d * d * d
        return gradient, (lambda x: 3.0 * (x - c) * (x - c))

    def _argmin_set(self) -> cg.Box:
        return cg.Box(self.center, self.center)


@dataclass(frozen=True, eq=False)
class FlatBottom1D(Potential):
    """Zero on [left, right]; (x-right)^2/2 above and (left-x)^2/2 below.

    The quadratic halves are the simplest C1 completion keeping the argmin
    bounded, and the argmin set is exactly the interval [left, right].
    """

    left: float
    right: float

    def __post_init__(self):
        object.__setattr__(self, "left", float(self.left))
        object.__setattr__(self, "right", float(self.right))
        if not (np.isfinite(self.left) and np.isfinite(self.right)):
            raise InputError("flat-bottom endpoints must be finite")
        if self.left > self.right:
            raise InputError(f"flat bottom requires left <= right, got [{self.left}, {self.right}]")

    @property
    def dimension(self) -> int:
        return 1

    @staticmethod
    def _kernel(terms):
        """(gradient, curvature) of stacked flat bottoms on node blocks (..., n, 1)."""
        left = np.array([[t.left] for t in terms])
        right = np.array([[t.right] for t in terms])
        # curvature 1 on the edges, so a Newton step cannot throw a node resting there far out
        # by a tiny pull
        return ((lambda x: x - np.minimum(np.maximum(x, left), right)),
                (lambda x: ((x <= left) | (x >= right)).astype(float)))

    def _argmin_set(self) -> cg.Box:
        return cg.Box(self.left, self.right)


@dataclass(frozen=True, eq=False)
class SumPotential(Potential):
    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise InputError("sum potential needs at least one term")
        if any(not isinstance(t, (Quadratic, QuarticWell, FlatBottom1D, SumPotential)) for t in terms):
            raise InputError("sum terms must be catalog potentials")
        dims = {t.dimension for t in terms}
        if len(dims) != 1:
            raise InputError(f"sum terms must share one dimension, got {sorted(dims)}")
        # a nested sum's terms are already flat, so one level of splicing keeps the sum flat
        object.__setattr__(self, "terms", tuple(
            leaf for t in terms for leaf in (t.terms if isinstance(t, SumPotential) else (t,))))

    @property
    def dimension(self) -> int:
        return self.terms[0].dimension

    def _argmin_set(self) -> cg.Box:
        terms = self.terms
        # shared minimizer: the argmin of the sum is exactly the intersection
        common = cg.intersect([t.zero_set() for t in terms], tol=0.0)
        if common is not None:
            return common
        if all(isinstance(t, Quadratic) for t in terms):
            # a convex combination of the centers: no partial sum passes the largest |center|
            v = np.array([t.weight for t in terms]) / max(t.weight for t in terms)
            c = (v / v.sum()) @ np.array([t.center for t in terms])
            return cg.Box(c, c)
        # catalog gradients are componentwise separable, so the argmin box
        # follows from m independent one-dimensional interval halvings
        lo, hi = np.array([_component_zero_interval(terms, k) for k in range(self.dimension)]).T
        scale = max(1.0, float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
        if np.all(hi - lo <= 1e-9 * scale):
            lo = hi = 0.5 * lo + 0.5 * hi  # no overflow near the largest floats
        return cg.Box(lo, hi)


def _component_zero_interval(terms, k: int, e: int = 0) -> tuple[float, float]:
    """Zero interval of the k-th gradient component of a separable sum.

    The component derivative is non-decreasing, so {deriv = 0} is an interval bracketed by
    the union of the terms' per-component argmin ranges.  Its left edge is where deriv >= 0
    starts to hold and its right edge where deriv > 0 does: the two halvings share one path
    until a midpoint has deriv exactly 0, and split there, each with its remaining budget.
    An InputError refuses a bracket that overflows, and a midpoint whose deriv is NaN (a
    term's +inf meets another's -inf), where the side of the argmin is unknown.

    ``deriv`` repeats each kind's gradient component in scalar arithmetic on coefficients
    read once as Python floats, the one copy outside the kernels: a bench sum's component
    takes ~45 us, against ~200 us on np.float64 scalars with two halvings (2 vCPUs, Python
    3.11).  Its cube is pow like numpy's scalar ``**`` (``np.power`` is not, on AVX-512),
    within 1 ulp of the kernel's d * d * d, so deriv's sign can differ only near 0.
    A NaN midpoint where a weight is 2 or more reruns the halvings on terms times 2^-e, e >= 1
    that weight's exponent less one (exact unless one underflows), so heavy pulls cancel; as a
    term may overflow before its scale, the rerun also refuses inf, with the first message.
    """
    # (kind, argmin lo, argmin hi, weight or 1, times 2^-e) per term, in the terms' order
    coef = [(0, float(t.center[k]), float(t.center[k]), t.weight * 2.0**-e) if isinstance(t, Quadratic)
            else (1, float(t.center[k]), float(t.center[k]), 2.0**-e) if isinstance(t, QuarticWell)
            else (2, t.left, t.right, 2.0**-e) for t in terms]  # SumPotential admits no other kind

    def deriv(s: float) -> float:
        total = 0.0
        for kind, left, right, w in coef:
            if kind == 0:
                total += w * (s - left)
            elif kind == 1:
                try:
                    total += (s - left) ** 3 * w
                except OverflowError:  # where numpy's pow gives +-inf, Python's raises
                    total += math.copysign(math.inf, s - left)
            elif s > right:
                total += (s - right) * w
            elif s < left:
                total += (s - left) * w
        return total if not e or math.isfinite(total) else math.nan

    def halve(lo_, hi_, steps: int, zero_up) -> tuple[float, float]:
        # (hi_, lo_) of deriv >= 0 (zero_up True) or deriv > 0 (False), False at lo_ and True
        # at hi_ (None: both, until deriv is 0); once mid is an endpoint no step moves one
        for i in range(steps):
            mid = 0.5 * lo_ + 0.5 * hi_  # 0.5 * (lo_ + hi_) overflows past ~9e307
            fixed = mid == lo_ or mid == hi_
            d = deriv(mid)
            if d == 0.0 and zero_up is None:
                rest = 0 if fixed else steps - i - 1
                return halve(lo_, mid, rest, True)[0], halve(mid, hi_, rest, False)[1]
            if d > 0.0 or (d == 0.0 and zero_up):
                hi_ = mid
            elif d <= 0.0:
                lo_ = mid
            else:  # NaN
                raise InputError(f"the derivative of a sum potential overflows at {mid}")
            if fixed:  # after the assignment, which may still flip the sign of a zero
                break
        return hi_, lo_

    lo, hi = min(c[1] for c in coef), max(c[2] for c in coef)
    # each edge widens by 1, or by 2^-50 of it beyond 2^50, where its ulp would swallow 1
    a, b = lo - max(1.0, 2.0**-50 * abs(lo)), hi + max(1.0, 2.0**-50 * abs(hi))
    # far-apart centers overflow deriv to +-inf, which compares, or NaN, which fails here
    if not (math.isfinite(a) and math.isfinite(b) and deriv(a) < 0.0 < deriv(b)):
        raise InputError("failed to bracket the argmin of a sum potential")
    try:
        left_edge, right_edge = halve(a, b, 200, None)
    except InputError as err:  # a NaN midpoint
        heavy = max([0] + [math.frexp(t.weight)[1] - 1 for t in terms if isinstance(t, Quadratic)])
        if e or not heavy:
            raise
        try:
            return _component_zero_interval(terms, k, heavy)
        except InputError:
            raise err from None
    if right_edge < left_edge:
        mid = 0.5 * left_edge + 0.5 * right_edge
        return mid, mid
    return left_edge, right_edge


# -- the network's potentials compiled into arrays ---------------------------


class NetworkPotential:
    """The node potentials F_1..F_N of a network, compiled into slots of kernels.

    ``order`` sorts the nodes by the kinds of their terms, each kind ranked by
    its first appearance (``inverse`` undoes it), so the k-th terms of one kind form runs
    of this block order: one slot each, a kernel over stacked centers, weights or bounds,
    term k's slots after term k - 1's.  ``negated_drift`` and ``curvature`` take states
    in block order; ``gradient`` gathers node states (..., N, m) in once and out once.
    A sum's terms are flat, so a node adds them left to right: the bits of ``sum()``."""

    def __init__(self, potentials):
        potentials = list(potentials)
        if not potentials:
            raise InputError("a network needs at least one potential")
        dims = {p.dimension for p in potentials}
        if len(dims) != 1:
            raise InputError(f"potentials must share one dimension, got {sorted(dims)}")
        self.node_count = len(potentials)
        self.dimension = dims.pop()
        # a sum starts from 0 as ``sum()`` does, which turns a first -0.0
        # into +0.0; a single term keeps its sign (-0.0 + g is g)
        start = np.array([[0.0 if isinstance(p, SumPotential) else -0.0] for p in potentials])
        flat = [p.terms if isinstance(p, SumPotential) else (p,) for p in potentials]
        kinds = list(dict.fromkeys(type(t) for terms in flat for t in terms))  # first seen first
        signature = [tuple(kinds.index(type(t)) for t in terms) for terms in flat]
        self.order = np.array(sorted(range(self.node_count), key=signature.__getitem__))
        self.inverse = np.empty_like(self.order)  # np.argsort would page in its sort code
        self.inverse[self.order] = np.arange(self.node_count)
        self._start = start[self.order]
        self._slots = []  # (run, gradient, curvature)
        for k in range(max(map(len, flat))):
            b = 0  # the k-th terms in block order, None where a node has fewer
            kth = [flat[i][k] if k < len(flat[i]) else None for i in self.order]
            for kind, run in itertools.groupby(kth, type):
                run = list(run)
                if run[0] is not None:
                    if "_kernel" not in vars(kind):  # a subclass may change the formula
                        raise InputError(f"cannot compile a {kind.__name__} term")
                    self._slots.append((slice(b, b + len(run)), *kind._kernel(run)))
                b += len(run)

    def _check(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[-2:] != (self.node_count, self.dimension):
            raise InputError(f"node states have shape {X.shape}, "
                             f"expected (..., {self.node_count}, {self.dimension})")
        return X

    def coupling(self, lap, K: float) -> np.ndarray:
        """K·L in block order for ``negated_drift``, from the N x N Laplacian ``lap``: the one
        place a gain meets a Laplacian.  Raises InputError unless K >= 0, and NumericalError
        when the product overflows."""
        if K < 0:
            raise InputError(f"K must be nonnegative, got {K}")
        if np.shape(lap) != (self.node_count, self.node_count):
            raise InputError(f"{self.node_count} potentials for {len(lap)} graph nodes")
        with np.errstate(over="ignore"):
            KL = K * lap[np.ix_(self.order, self.order)]
        if not np.isfinite(KL).all():
            raise NumericalError(
                f"K·L overflows: K = {K:g} times the largest |L| entry {np.abs(lap).max():g} "
                "is not a finite float"
            )
        return KL

    def negated_drift(self, KL: np.ndarray, Xb: np.ndarray) -> np.ndarray:
        """grad F(X) + K L X, the negated network drift, with K·L from ``coupling``, states
        Xb (..., N, m) and the result in block order: on an undirected graph, the gradient
        of the aggregate potential sum F_i + (K/2) x^T (L kron I) x."""
        S = KL @ Xb
        self._add_gradient(S, Xb)
        return S

    def _add_gradient(self, G: np.ndarray, Xb: np.ndarray) -> None:
        """G += grad F_i(x_i) in place, for G and states Xb (..., N, m) both in block order."""
        for run, grad, _ in self._slots:
            g = G[..., run, :]  # += on the view adds in place; on G[...] it copies back
            g += grad(Xb[..., run, :])

    def gradient(self, X) -> np.ndarray:
        """grad F_i(x_i) for every node, shape ``X.shape``, in node order."""
        X = self._check(X).take(self.order, axis=-2)
        G = np.empty(X.shape)
        G[...] = self._start
        self._add_gradient(G, X)
        return G.take(self.inverse, axis=-2)

    def curvature(self, Xb) -> np.ndarray:
        """d^2 F_i / dx_ik^2 for states Xb (..., N, m), both in block order; separable, so each
        node's Hessian is diagonal."""
        Xb = self._check(Xb)
        H = np.zeros(Xb.shape)
        for run, _, curv in self._slots:
            H[..., run, :] += curv(Xb[..., run, :])
        return H


# -- catalog operations -----------------------------------------------------


def common_zero_set(potentials) -> cg.Box | None:
    """Intersection of all nodes' zero sets, or ``None`` when empty."""
    return cg.intersect([p.zero_set() for p in potentials])
