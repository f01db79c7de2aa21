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
whose argmin cannot be resolved or evaluated (see ``_component_argmin``) is refused there.

``NetworkPotential``, the tuple of a network's potentials, compiles them once into one
kernel per run of like terms in a block order of the nodes, so one call evaluates every
node; its ``coupling`` and ``drift_into`` are the one evaluator of the coupled network.
The block order sorts the nodes by the kinds of their non-quadratic terms, then by the
kinds of all their terms.  A quadratic's gradient w x - w c is affine, so ``coupling``
folds every quadratic term into the linear map, A = K·L + diag(a) with a each node's
summed weights, and ``drift_into(out)`` builds, with its views of ``out`` bound once, the
evaluator that writes A X - b (b each node's summed w c) into ``out`` and adds the drift's
table in place, one slot per run of the k-th non-quadratic terms of one kind: a quartic is
one kernel call whether a node holds it alone or beside a quadratic.  Each kind's kernel, a
static method of its class, is the only formula for its gradient and curvature (the
quadratic's gives its coefficients w and w c instead of a curvature; ``Potential.gradient``
evaluates a one-node network; ``tests/util.py`` holds the per-kind oracle), but for the
argmin search's scalar derivative (see ``_component_argmin``).

The quartic well is deliberately non-Lipschitz and evaluated in double precision
with no clamping; boundedness along trajectories is the simulator's (divergence
guard).  Its gradient is d * d * d with d = x - c: on the RK4 field's hot path two
multiplies take a fifth of libm pow's time, and they stay within 1 ulp of pow where
the cube is normal, with pow's inf, NaN, signed zero and overflow.
"""

import itertools
import math
import struct
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
    in 1-D, a bare number, and returns shape ``x.shape``.  A kind with a ``center``
    (quadratic, quartic well) has its dimension from it and its argmin at it."""

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def gradient(self, x) -> np.ndarray:
        """grad F(x), from the kernels as a one-node network; the node drift is its negative."""
        return self._network.gradient(self._check(x)[..., None, :])[..., 0, :]

    def zero_set(self) -> cg.Box:
        """Argmin set {z : grad F(z) = 0} as a box, computed on the first call; exact but for
        a sum whose terms share no minimizer, whose argmin point is found to adjacent floats."""
        return self._zero_set

    @cached_property
    def _zero_set(self) -> cg.Box:
        return self._argmin_set()

    @cached_property
    def _network(self) -> "NetworkPotential":
        return NetworkPotential([self])

    def _argmin_set(self) -> cg.Box:
        return cg.Box(self.center, self.center)

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

    @staticmethod
    def _kernel(terms):
        """(gradient, pull) of stacked quadratics on node blocks (..., n, m); the gradient is
        affine, w x - w c, and ``pull()`` gives its coefficients (w (n, 1), w c)."""
        c = np.array([t.center for t in terms])
        w = np.array([[t.weight] for t in terms])
        return (lambda x: w * (x - c)), (lambda: (w, w * c))


@dataclass(frozen=True, eq=False)
class QuarticWell(Potential):
    center: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", _center(self.center, "quartic"))

    @staticmethod
    def _kernel(terms):
        """(gradient, curvature) of stacked quartic wells on node blocks (..., n, m)."""
        c = np.array([t.center for t in terms])

        def gradient(x):
            d = x - c  # two multiplies, not libm pow: see the module docstring
            return d * d * d
        return gradient, (lambda x: 3.0 * (x - c) * (x - c))


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
        else:
            # catalog gradients are separable: one search per component
            c = np.array([_component_argmin(terms, k) for k in range(self.dimension)])
        total = 0.0  # the node's kernel adds its terms' gradients in this order
        with np.errstate(over="ignore", invalid="ignore"):
            for i, t in enumerate(terms):
                total = total + type(t)._kernel([t])[0](c)
                if not np.all(np.isfinite(total)):  # no run can settle at this argmin
                    raise InputError(f"the gradient of a sum potential overflows at its argmin "
                                     f"{c.tolist()}, from term {i}, a {type(t).__name__}")
        return cg.Box(c, c)


_F64, _I64, _F64_PAIR, _I64_PAIR = (struct.Struct(f) for f in ("<d", "<q", "<2d", "<2q"))
_SIGN = 1 << 63


def _component_argmin(terms, k: int) -> float:
    """Argmin of the k-th gradient component of a separable sum whose terms share no minimizer.

    The derivative is non-decreasing and its zero set one point: a convex sum constant on an
    interval has every term affine there, and only a flat bottom is affine anywhere.  Each step
    halves the count of floats between the ends, so the search reaches adjacent floats in about
    64 steps.  Its edges p, where deriv >= 0 starts to hold, and q, the last float where
    deriv <= 0 does, share one path until deriv is exactly 0; the argmin is their midpoint.
    InputError refuses a bracket that overflows, and a zero interval [p, q] wider than
    1e-9 * max(1, |p|, |q|), where rounding hides the argmin (s - c absorbs into -c where s is
    below c's ulp).  ``deriv`` repeats each kind's gradient on Python floats, the one copy
    outside the kernels (~35 us a bench component on 2 vCPUs, Python 3.11; np.float64 scalars
    cost several times more), its cube pow within 1 ulp of the kernel's d * d * d.  Where a
    term or the sum overflows, each term is a ``math.frexp`` mantissa and exponent, summed by
    ``math.fsum`` at the largest exponent: it cannot overflow, so no step meets a NaN.
    """
    # (argmin lo, argmin hi, weight or 1, cubed) per term, in the terms' order
    coef = [(t.left, t.right, 1.0, False) if isinstance(t, FlatBottom1D)
            else (*[float(t.center[k])] * 2, getattr(t, "weight", 1.0), isinstance(t, QuarticWell))
            for t in terms]

    def deriv(s: float) -> float:
        total = 0.0
        try:
            for left, right, w, cubed in coef:
                d = s - (left if s < left else right if s > right else s)
                total += d ** 3 if cubed else w * d
        except OverflowError:  # where numpy's pow gives +-inf, Python's raises
            total = math.inf
        return total if math.isfinite(total) else rescaled(s)

    def rescaled(s: float) -> float:
        parts = []  # (mantissa, exponent) per term, of s - c = 2 (s/2 - c/2), which is finite
        for left, right, w, cubed in coef:
            m, e = math.frexp(0.5 * s - 0.5 * (left if s < left else right if s > right else s))
            wm, we = math.frexp(w)
            parts.append((m * m * m, 3 * e + 3) if cubed else (m * wm, e + 1 + we))
        top = max(e for m, e in parts if m)
        return math.fsum(math.ldexp(m, e - top) for m, e in parts)

    def halve(lo_, hi_, zero_up) -> tuple[float, float]:
        # (hi_, lo_): adjacent floats where deriv >= 0 (zero_up True) or deriv > 0 (False)
        # starts to hold, False at lo_ and True at hi_ (None: both, until deriv is 0)
        while True:
            if 0.0 < lo_ and hi_ < 2.0 * lo_ or hi_ < 0.0 and 2.0 * hi_ < lo_:
                # floats within a factor 2 are evenly spaced but for one change of binade
                mid = 0.5 * lo_ + 0.5 * hi_  # 0.5 * (lo_ + hi_) overflows past ~9e307
            else:  # the midpoint of the places: bit patterns as int64s, negatives mirrored
                i, j = _I64_PAIR.unpack(_F64_PAIR.pack(lo_, hi_))
                i = ((i if i >= 0 else -_SIGN - i) + (j if j >= 0 else -_SIGN - j)) // 2
                mid = _F64.unpack(_I64.pack(i if i >= 0 else -_SIGN - i))[0]
            if mid == lo_ or mid == hi_:
                return hi_, lo_
            d = deriv(mid)
            if d == 0.0 and zero_up is None:
                return halve(lo_, mid, True)[0], halve(mid, hi_, False)[1]
            if d > 0.0 or (d == 0.0 and zero_up):
                hi_ = mid
            else:
                lo_ = mid

    lo, hi = min(c[0] for c in coef), max(c[1] for c in coef)
    # each edge widens by max(1, 2^-50 |edge|), past its ulp: every term's deriv is <= -1 at a
    a, b = lo - max(1.0, 2.0**-50 * abs(lo)), hi + max(1.0, 2.0**-50 * abs(hi))
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InputError("failed to bracket the argmin of a sum potential")
    p, q = halve(a, b, None)
    if q - p > 1e-9 * max(1.0, abs(p), abs(q)):
        raise InputError("double precision cannot resolve the argmin of a sum potential: "
                         f"its derivative rounds to 0 on [{p}, {q}]")
    return 0.5 * p + 0.5 * q  # no overflow near the largest floats


# -- the network's potentials compiled into arrays ---------------------------


def _slots(rows) -> list:
    """(run, kernel outputs...) per run of like k-th terms in ``rows``, each node's terms in
    block order: one kernel over the run's stacked centers, weights or bounds, sliced by
    ``run``, with term k's slots after term k - 1's."""
    slots = []
    for k in range(max(map(len, rows))):
        b = 0  # the k-th terms in block order, None where a node has fewer
        for kind, run in itertools.groupby([r[k] if k < len(r) else None for r in rows], type):
            run = list(run)
            if run[0] is not None:
                slots.append((slice(b, b + len(run)), *kind._kernel(run)))
            b += len(run)
    return slots


class NetworkPotential(tuple):
    """The tuple of a network's node potentials F_1..F_N, compiled into slots of kernels.

    ``NetworkPotential(net)`` is ``net``, as ``tuple(t) is t``, so a scenario's network and
    its tables are built once.  ``order`` sorts the nodes by the kinds of their non-quadratic
    terms, then by the kinds of all their terms, each kind ranked by its first appearance
    (``inverse`` undoes it), so the k-th non-quadratic terms of one kind form runs of this
    block order, one slot each, and so do the k-th quadratics.  The drift's table holds only
    the non-quadratic slots: ``coupling`` folds the quadratic ones into the linear map.
    ``drift_into`` and ``hessian`` take states in block order; ``gradient`` gathers node
    states (..., N, m) in once and out once and adds every term in term order, the bits of
    ``sum()``, from a table of all the terms.  Each table is compiled on its first read, so
    ``integrate`` builds only what ``drift_into`` and ``hessian`` read."""

    def __new__(cls, potentials):  # no __init__: it would run again on a network returned as is
        if type(potentials) is cls:
            return potentials
        self = super().__new__(cls, potentials)
        if not self:
            raise InputError("a network needs at least one potential")
        dims = {p.dimension for p in self}
        if len(dims) != 1:
            raise InputError(f"all node potentials must share one dimension, got {sorted(dims)}")
        self.node_count = len(self)
        self.dimension = dims.pop()
        flat = [p.terms if isinstance(p, SumPotential) else (p,) for p in self]
        kinds = list(dict.fromkeys(type(t) for terms in flat for t in terms))  # first seen first
        for kind in kinds:
            if "_kernel" not in vars(kind):  # a subclass may change the formula
                raise InputError(f"cannot compile a {kind.__name__} term")
        rank = {kind: i for i, kind in enumerate(kinds)}
        signature = [tuple(map(rank.__getitem__, map(type, terms))) for terms in flat]
        # the block order's key, (the kinds of the non-quadratic terms, the kinds of all
        # terms), is ranked once per signature and the nodes sorted by that rank
        q = rank.get(Quadratic)
        keys = sorted(set(signature), key=lambda s: ([r for r in s if r != q], s))
        place = {s: i for i, s in enumerate(keys)}
        self.order = np.array(sorted(range(self.node_count),
                                     key=[place[s] for s in signature].__getitem__))
        self.inverse = np.empty_like(self.order)  # np.argsort would page in its sort code
        self.inverse[self.order] = np.arange(self.node_count)
        self._rows = [flat[i] for i in self.order]  # in block order, each in term order
        return self

    def _check(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[-2:] != (self.node_count, self.dimension):
            raise InputError(f"node states have shape {X.shape}, "
                             f"expected (..., {self.node_count}, {self.dimension})")
        return X

    @cached_property
    def _drift(self) -> list:
        """(run, gradient, curvature) per run of like k-th non-quadratic terms: the slots
        ``drift_into`` and ``hessian`` add, each node's in term order."""
        return _slots([[t for t in r if type(t) is not Quadratic] for r in self._rows])

    @cached_property
    def _affine(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, b) in block order: each node's quadratic weights (N,) and weights times centers
        (N, m), summed in term order, on first use: a network that never couples pays nothing.
        ``coupling`` refuses an overflow."""
        a, b = np.zeros(self.node_count), np.zeros((self.node_count, self.dimension))
        quadratics = [[t for t in r if type(t) is Quadratic] for r in self._rows]
        with np.errstate(over="ignore", invalid="ignore"):
            for run, _, pull in _slots(quadratics):
                w, wc = pull()
                a[run] += w[:, 0]
                b[run] += wc
        return a, b

    def coupling(self, lap, K: float) -> np.ndarray:
        """A = K·L + diag(a) in block order for ``drift_into``, from the N x N Laplacian
        ``lap``, with a each node's summed quadratic weights: the one place a gain meets a
        Laplacian.  Raises InputError unless K >= 0, and NumericalError when K·L overflows or
        a node's quadratic pulls (A's diagonal, or their weights times centers) do."""
        if K < 0:
            raise InputError(f"K must be nonnegative, got {K}")
        if np.shape(lap) != (self.node_count, self.node_count):
            raise InputError(f"{self.node_count} potentials for {len(lap)} graph nodes")
        a, b = self._affine
        with np.errstate(over="ignore", invalid="ignore"):
            A = lap[np.ix_(self.order, self.order)]  # a copy, scaled in place
            A *= K
            if not np.isfinite(A).all():
                raise NumericalError(
                    f"K·L overflows: K = {K:g} times the largest |L| entry {np.abs(lap).max():g} "
                    "is not a finite float"
                )
            np.fill_diagonal(A, A.diagonal() + a)
        bad = ~(np.isfinite(A.diagonal()) & np.isfinite(b).all(axis=-1))
        if bad.any():
            j = int(np.argmax(bad))
            raise NumericalError(
                f"node {self.order[j]}'s quadratic pulls overflow: K·L's diagonal plus their "
                f"weights is {A[j, j]:g} and their weights times centers sum to {b[j].tolist()}, "
                "which must be finite floats")
        return A

    def drift_into(self, out: np.ndarray):
        """The one drift evaluator: f(A, Xb) writes grad F(X) + K L X, the negated drift, at
        states Xb (..., N, m) into ``out`` and returns it: A Xb - b (``np.dot`` for a state,
        which keeps 0·(-0) = -0 on 1 x 1; ``matmul`` for a stack) plus each non-quadratic slot
        added in place, A from ``coupling``, all in block order, ``out``'s views bound once.
        On an undirected graph it is the gradient of sum F_i + (K/2) x^T (L kron I) x."""
        b, product = self._affine[1], np.dot if out.ndim == 2 else np.matmul
        views = [(out[..., run, :], run, gradient) for run, gradient, _ in self._drift]

        def f(A, Xb):
            product(A, Xb, out)
            np.subtract(out, b, out)
            for o, run, gradient in views:
                o += gradient(Xb[..., run, :])
            return out
        return f

    @staticmethod
    def _add(out: np.ndarray, Xb: np.ndarray, slots, k: int) -> None:
        """out += each slot's gradient (k = 1) or curvature (k = 2) in place, for ``out`` and
        states Xb (..., N, m) both in block order."""
        for slot in slots:
            o = out[..., slot[0], :]  # += on the view adds in place; on out[...] it copies back
            o += slot[k](Xb[..., slot[0], :])

    @cached_property
    def _terms(self) -> tuple[np.ndarray, list]:
        """(start, slots) for ``gradient``: a sum starts from 0 as ``sum()`` does, which turns
        a first -0.0 into +0.0, and a single term keeps its sign (-0.0 + g is g); the slots
        run over every term, so a node adds its terms in term order."""
        start = np.array([[0.0 if isinstance(self[i], SumPotential) else -0.0]
                          for i in self.order])
        return start, _slots(self._rows)

    def gradient(self, X) -> np.ndarray:
        """grad F_i(x_i) for every node, shape ``X.shape``, in node order."""
        X = self._check(X).take(self.order, axis=-2)
        start, slots = self._terms
        G = np.empty(X.shape)
        G[...] = start
        self._add(G, X, slots, 1)
        return G.take(self.inverse, axis=-2)

    def hessian(self, A: np.ndarray, Xb: np.ndarray) -> np.ndarray:
        """The Hessian of the aggregate potential at states Xb (N, m) in block order, one N x N
        block per component (m, N, N): A from ``coupling``, which holds the quadratic weights,
        plus the non-quadratic slots' curvature on the diagonal, so K·L + diag(F_i'')."""
        C = np.zeros(self._check(Xb).shape)
        self._add(C, Xb, self._drift, 2)
        H = np.repeat(A[None], self.dimension, axis=0)
        i = np.arange(self.node_count)
        H[:, i, i] += C.T
        return H


# -- catalog operations -----------------------------------------------------


def common_zero_set(potentials) -> cg.Box | None:
    """Intersection of all nodes' zero sets, or ``None`` when empty."""
    return cg.intersect([p.zero_set() for p in potentials])
