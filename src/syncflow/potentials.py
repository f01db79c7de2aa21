"""Catalog of convex node potentials with exact gradients and argmin sets.

Each potential F is C1, convex, and coercive with a bounded argmin set, and
exposes its value and gradient; the node self-dynamics are f = -grad(F).  The
catalog is closed (four kinds) so that zero sets, convexity, and the
hypotheses of the synchronization analysis stay machine-checkable:

* ``Quadratic``      F(x) = (w/2)|x - c|^2
* ``QuarticWell``    F(x) = sum_k (x_k - c_k)^4 / 4, so f(x) = -(x - c)^3
* ``FlatBottom1D``   zero on [left, right], quadratic halves outside (1-D)
* ``SumPotential``   pointwise sum of catalog terms sharing one dimension

``NetworkPotential`` compiles a network's potentials into arrays, so one call
evaluates every node.  Each kind's kernel, a static method of its class, is the
only formula for its value, gradient and curvature (``Potential.value``/``gradient``
evaluate a one-node network; ``tests/util.py`` holds the per-kind oracle), but for
the argmin bisection's scalar derivative (see ``_component_zero_interval``).

The quartic well is deliberately non-Lipschitz and evaluated in double precision
with no clamping; boundedness along trajectories is the simulator's (divergence
guard).  Its gradient is d * d * d with d = x - c: on the RK4 field's hot path two
multiplies take a fifth of libm pow's time, and they stay within 1 ulp of pow where
the cube is normal, with pow's inf, NaN, signed zero and overflow.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import convex_geometry as cg
from .errors import InputError, RepresentationError

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
    """Immutable, pure base class.  ``value`` and ``gradient`` take a point (m,), a stack
    (..., m) or, in 1-D, a bare number, and return shapes ``x.shape[:-1]`` and ``x.shape``."""

    @property
    def dimension(self) -> int:
        raise NotImplementedError

    def value(self, x):
        """F(x), from the kernels as a one-node network."""
        # [()] turns the 0-d result for one point into a scalar
        return self._as_network().value(self._check(x)[..., None, :])[..., 0][()]

    def gradient(self, x) -> np.ndarray:
        """grad F(x), from the kernels as a one-node network; the node drift is its negative."""
        return self._as_network().gradient(self._check(x)[..., None, :])[..., 0, :]

    def zero_set(self) -> cg.Box:
        """Exact argmin set {z : grad F(z) = 0} as a box, computed on the first call."""
        return self._cached("_zero_set", self._argmin_set)

    def _as_network(self) -> "NetworkPotential":
        return self._cached("_network", lambda: NetworkPotential([self]))

    def _cached(self, name: str, build):
        got = self.__dict__.get(name)
        if got is None:
            got = build()
            object.__setattr__(self, name, got)  # potentials are immutable
        return got

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
        """(gradient, value, curvature) of stacked quadratics on node blocks (..., n, m)."""
        c = np.array([t.center for t in terms])
        w = np.array([[t.weight] for t in terms])
        half_w = 0.5 * w[:, 0]
        return ((lambda x: w * (x - c)), (lambda x: half_w * cg.row_dot(x - c, x - c)),
                (lambda x: np.broadcast_to(w, x.shape)))

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
        """(gradient, value, curvature) of stacked quartic wells on node blocks (..., n, m)."""
        c = np.array([t.center for t in terms])

        def gradient(x):
            d = x - c  # two multiplies, not libm pow: see the module docstring
            return d * d * d
        return (gradient, (lambda x: 0.25 * np.sum((x - c) ** 4, axis=-1)),
                (lambda x: 3.0 * (x - c) * (x - c)))

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
        """(gradient, value, curvature) of stacked flat bottoms on node blocks (..., n, 1)."""
        left = np.array([[t.left] for t in terms])
        right = np.array([[t.right] for t in terms])

        def gradient(x):
            return x - np.minimum(np.maximum(x, left), right)

        # value: libm pow, as Python's ``**`` (a multiply can differ in the last bit); curvature: 1
        # on the edges, so a Newton step cannot throw a node resting there far out by a tiny pull
        return (gradient, (lambda x: 0.5 * np.float_power(gradient(x)[..., 0], 2)),
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
        if any(not isinstance(t, Potential) for t in terms):
            raise InputError("sum terms must be catalog potentials")
        dims = {t.dimension for t in terms}
        if len(dims) != 1:
            raise InputError(f"sum terms must share one dimension, got {sorted(dims)}")
        object.__setattr__(self, "terms", terms)

    @property
    def dimension(self) -> int:
        return self.terms[0].dimension

    def _argmin_set(self) -> cg.Box:
        flat = _flatten_terms(self)
        # shared minimizer: the argmin of the sum is exactly the intersection
        common = cg.intersect([t.zero_set() for t in flat], tol=0.0)
        if common is not None:
            return common
        if all(isinstance(t, Quadratic) for t in flat):
            wsum = sum(t.weight for t in flat)
            c = sum(t.weight * t.center for t in flat) / wsum
            return cg.Box(c, c)
        # catalog gradients are componentwise separable, so the argmin box
        # follows from m independent one-dimensional bisections
        lo = np.empty(self.dimension)
        hi = np.empty(self.dimension)
        for k in range(self.dimension):
            lo[k], hi[k] = _component_zero_interval(flat, k)
        scale = max(1.0, float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
        if np.all(hi - lo <= 1e-9 * scale):
            lo = hi = 0.5 * lo + 0.5 * hi  # no overflow near the largest floats
        return cg.Box(lo, hi)


def _flatten_terms(spec: Potential) -> list[Potential]:
    if isinstance(spec, SumPotential):
        out: list[Potential] = []
        for t in spec.terms:
            out.extend(_flatten_terms(t))
        return out
    return [spec]


def _component_zero_interval(terms: list[Potential], k: int) -> tuple[float, float]:
    """Zero interval of the k-th gradient component of a separable sum.

    The component derivative is non-decreasing, so {deriv = 0} is an interval
    bracketed by the union of the terms' per-component argmin ranges.

    ``deriv`` repeats each kind's gradient component in scalar arithmetic, the one
    copy outside the kernels: over its ~55 calls per edge to the float fixed point,
    a numpy call per point measured 8x slower (zero sets take 1.5-2.7 ms of a bench
    run; 2 vCPUs, Python 3.11, numpy 2.4).  Its cube is pow, up to 1 ulp from the
    kernel's d * d * d, which can flip deriv's sign (all the bisection reads) only near 0.
    """

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
            else:
                raise RepresentationError(
                    f"zero set not representable for sum containing {type(t).__name__}"
                )
        return total

    def bisect(predicate) -> tuple[float, float]:
        # predicate flips once from False to True on [a, b]; it stays False at
        # lo_ and True at hi_, so once mid is an endpoint no later step moves one
        lo_, hi_ = a, b
        for _ in range(200):
            mid = 0.5 * lo_ + 0.5 * hi_  # 0.5 * (lo_ + hi_) overflows past ~9e307
            fixed = mid == lo_ or mid == hi_
            if predicate(mid):
                hi_ = mid
            else:
                lo_ = mid
            if fixed:  # after the assignment, which may still flip the sign of a zero
                break
        return lo_, hi_

    zsets = [t.zero_set() for t in terms]
    lo = min(float(z.lo[k]) for z in zsets)
    hi = max(float(z.hi[k]) for z in zsets)
    # each edge widens by 1, or by 2^-50 of it beyond 2^50, where its ulp would swallow 1
    a, b = lo - max(1.0, 2.0**-50 * abs(lo)), hi + max(1.0, 2.0**-50 * abs(hi))
    # far-apart centers overflow deriv to +-inf (NaN once both meet); both are only compared
    with np.errstate(over="ignore", invalid="ignore"):
        if not (math.isfinite(a) and math.isfinite(b) and deriv(a) < 0.0 < deriv(b)):
            raise RepresentationError("failed to bracket the argmin of a sum potential")
        _, left_edge = bisect(lambda s: deriv(s) >= 0.0)
        right_edge, _ = bisect(lambda s: deriv(s) > 0.0)
    if right_edge < left_edge:
        mid = 0.5 * left_edge + 0.5 * right_edge
        return mid, mid
    return left_edge, right_edge


# -- the network's potentials compiled into arrays ---------------------------


class NetworkPotential:
    """The node potentials F_1..F_N of a network, compiled into signature blocks.

    A node's signature is the kinds of its flattened terms; the nodes are
    ordered once so that each signature is one contiguous block, with a kernel
    per term slot over the stacked centers, weights or flat-bottom bounds.  ``gradient``,
    ``value`` and ``curvature`` gather node states (..., N, m) into block order once,
    add each block's slots in term order on slices and put them back once.
    A sum thus adds its flattened terms left to right: the bits of ``sum()``
    over the terms for flat and left-nested sums, while a right-nested sum
    associates its additions differently from the nesting."""

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
        flat = [_flatten_terms(p) for p in potentials]
        blocks: dict = {}  # signature -> its nodes, in node order
        for i, terms in enumerate(flat):
            blocks.setdefault(tuple(type(t) for t in terms), []).append(i)
        self._order = np.concatenate(list(blocks.values()))
        self._inverse = np.empty_like(self._order)  # np.argsort would page in its sort code
        self._inverse[self._order] = np.arange(self.node_count)
        self._start = start[self._order]
        self._slots = []  # (block slice, gradient, value, curvature), each block's in term order
        for kinds, nodes in blocks.items():
            block = slice(self._inverse[nodes[0]], self._inverse[nodes[0]] + len(nodes))
            for k, kind in enumerate(kinds):
                if "_kernel" not in vars(kind):  # a subclass may change the formula
                    raise RepresentationError(f"cannot compile a {kind.__name__} term")
                self._slots.append((block, *kind._kernel([flat[i][k] for i in nodes])))

    def _check(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[-2:] != (self.node_count, self.dimension):
            raise InputError(
                f"node states have shape {X.shape}, "
                f"expected (..., {self.node_count}, {self.dimension})"
            )
        return X

    def gradient(self, X) -> np.ndarray:
        """grad F_i(x_i) for every node, shape ``X.shape``."""
        X = self._check(X).take(self._order, axis=-2)
        G = np.empty(X.shape)
        G[...] = self._start
        for block, grad, _, _ in self._slots:
            g = G[..., block, :]  # += on the view adds in place; on G[...] it copies back
            g += grad(X[..., block, :])
        return G.take(self._inverse, axis=-2)

    def value(self, X) -> np.ndarray:
        """F_i(x_i) for every node, shape ``X.shape[:-1]``."""
        X = self._check(X).take(self._order, axis=-2)
        V = np.empty(X.shape[:-1])
        V[...] = self._start[:, 0]
        for block, _, value, _ in self._slots:
            V[..., block] += value(X[..., block, :])
        return V.take(self._inverse, axis=-1)

    def curvature(self, X) -> np.ndarray:
        """d^2 F_i / dx_ik^2, shape ``X.shape``; separable, so each node's Hessian is diagonal."""
        X = self._check(X).take(self._order, axis=-2)
        H = np.zeros(X.shape)
        for block, _, _, curv in self._slots:
            H[..., block, :] += curv(X[..., block, :])
        return H.take(self._inverse, axis=-2)


# -- catalog operations -----------------------------------------------------


def common_zero_set(potentials) -> cg.Box | None:
    """Intersection of all nodes' zero sets, or ``None`` when empty."""
    return cg.intersect([p.zero_set() for p in potentials])
