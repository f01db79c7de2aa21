"""Catalog of convex node potentials with exact gradients and argmin sets.

Each potential F is C1, convex, and coercive with a bounded argmin set, and
exposes both its value and the node self-dynamics f = -grad(F).  The catalog
is closed (four kinds) so that zero sets, convexity, and the hypotheses of
the synchronization analysis stay machine-checkable:

* ``Quadratic``      F(x) = (w/2)|x - c|^2
* ``QuarticWell``    F(x) = sum_k (x_k - c_k)^4 / 4, so f(x) = -(x - c)^3
* ``FlatBottom1D``   zero on [left, right], quadratic halves outside (1-D)
* ``SumPotential``   pointwise sum of catalog terms sharing one dimension

``NetworkPotential`` compiles the potentials of a whole network into arrays,
so one call evaluates every node; the classes above stay its specification.

The quartic well is deliberately non-Lipschitz; it is evaluated in double
precision with no clamping, and boundedness along trajectories is the
simulator's responsibility (divergence guard), not the potential's.
"""

from dataclasses import dataclass

import numpy as np

from . import convex_geometry as cg
from .errors import InputError, RepresentationError
from .report import CheckReport

__all__ = [
    "Potential",
    "Quadratic",
    "QuarticWell",
    "FlatBottom1D",
    "SumPotential",
    "NetworkPotential",
    "gradient_consistency_check",
    "common_zero_set",
    "potential_from_dict",
    "potential_to_dict",
]


class Potential:
    """Immutable, pure base class.  Methods take a point (m,), a stack (..., m) or, in 1-D, a
    bare number; ``value`` returns shape ``x.shape[:-1]``, the others ``x.shape``."""

    @property
    def dimension(self) -> int:
        raise NotImplementedError

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def self_dynamics(self, x) -> np.ndarray:
        """Node drift f(x) = -grad F(x)."""
        return -self.gradient(x)

    def zero_set(self) -> cg.ConvexBody:
        """Exact argmin set {z : f(z) = 0} as a convex body, computed on the first call."""
        body = self.__dict__.get("_zero_set")
        if body is None:
            body = self._argmin_set()
            object.__setattr__(self, "_zero_set", body)  # potentials are immutable
        return body

    def _argmin_set(self) -> cg.ConvexBody:
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

    def value(self, x):
        d = self._check(x) - self.center
        return 0.5 * self.weight * cg.row_dot(d, d)

    def gradient(self, x) -> np.ndarray:
        return self.weight * (self._check(x) - self.center)

    def _argmin_set(self) -> cg.ConvexBody:
        return cg.Point(self.center)


@dataclass(frozen=True, eq=False)
class QuarticWell(Potential):
    center: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", _center(self.center, "quartic"))

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def value(self, x):
        d = self._check(x) - self.center
        return 0.25 * np.sum(d**4, axis=-1)

    def gradient(self, x) -> np.ndarray:
        d = self._check(x) - self.center
        return d**3

    def _argmin_set(self) -> cg.ConvexBody:
        return cg.Point(self.center)


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

    def value(self, x):
        # libm pow, as Python's float ``**``; a multiply can differ in the last bit
        return 0.5 * np.float_power(self.gradient(x)[..., 0], 2)

    def gradient(self, x) -> np.ndarray:
        x = self._check(x)
        return x - np.minimum(np.maximum(x, self.left), self.right)

    def _argmin_set(self) -> cg.ConvexBody:
        if self.left == self.right:
            return cg.Point(np.array([self.left]))
        return cg.Interval1D(self.left, self.right)


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

    def value(self, x):
        x = self._check(x)
        return sum(t.value(x) for t in self.terms)

    def gradient(self, x) -> np.ndarray:
        x = self._check(x)
        return sum(t.gradient(x) for t in self.terms)

    def _argmin_set(self) -> cg.ConvexBody:
        flat = _flatten_terms(self)
        # shared minimizer: the argmin of the sum is exactly the intersection
        common = cg.intersect([t.zero_set() for t in flat], tol=0.0)
        if common is not None:
            return common
        if all(isinstance(t, Quadratic) for t in flat):
            wsum = sum(t.weight for t in flat)
            c = sum(t.weight * t.center for t in flat) / wsum
            return cg.Point(c)
        # catalog gradients are componentwise separable, so the argmin box
        # follows from m independent one-dimensional bisections
        lo = np.empty(self.dimension)
        hi = np.empty(self.dimension)
        for k in range(self.dimension):
            lo[k], hi[k] = _component_zero_interval(flat, k)
        scale = max(1.0, float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
        if np.all(hi - lo <= 1e-9 * scale):
            return cg.Point(0.5 * (lo + hi))
        if self.dimension == 1:
            return cg.Interval1D(lo[0], hi[0])
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

    los, his = [], []
    for t in terms:
        ext = t.zero_set().extreme_points()[:, 0 if t.dimension == 1 else k]
        los.append(float(np.min(ext)))
        his.append(float(np.max(ext)))
    a, b = min(los) - 1.0, max(his) + 1.0
    if not (deriv(a) < 0.0 < deriv(b)):
        raise RepresentationError("failed to bracket the argmin of a sum potential")

    def bisect(predicate) -> tuple[float, float]:
        # predicate flips once from False to True on [a, b]
        lo_, hi_ = a, b
        for _ in range(200):
            mid = 0.5 * (lo_ + hi_)
            if predicate(mid):
                hi_ = mid
            else:
                lo_ = mid
        return lo_, hi_

    _, left_edge = bisect(lambda s: deriv(s) >= 0.0)
    right_edge, _ = bisect(lambda s: deriv(s) > 0.0)
    if right_edge < left_edge:
        mid = 0.5 * (left_edge + right_edge)
        return mid, mid
    return left_edge, right_edge


# -- the network's potentials compiled into arrays ---------------------------


def _quadratic_terms(terms):
    c = np.array([t.center for t in terms])
    w = np.array([[t.weight] for t in terms])
    half_w = 0.5 * w[:, 0]
    return (lambda x: w * (x - c)), (lambda x: half_w * cg.row_dot(x - c, x - c))


def _quartic_terms(terms):
    c = np.array([t.center for t in terms])
    return (lambda x: (x - c) ** 3), (lambda x: 0.25 * np.sum((x - c) ** 4, axis=-1))


def _flat_bottom_terms(terms):
    left = np.array([[t.left] for t in terms])
    right = np.array([[t.right] for t in terms])

    def gradient(x):
        return x - np.minimum(np.maximum(x, left), right)

    return gradient, (lambda x: 0.5 * np.float_power(gradient(x)[..., 0], 2))


_TERM_KERNELS = {
    Quadratic: _quadratic_terms,
    QuarticWell: _quartic_terms,
    FlatBottom1D: _flat_bottom_terms,
}


class NetworkPotential:
    """The node potentials F_1..F_N of a network, compiled into per-kind arrays.

    Every ``SumPotential`` is flattened into its terms.  Slot k holds the k-th
    term of every node that has one, split into one group per kind: the node
    indices plus the stacked centers, weights or flat-bottom bounds.  So the
    network gradient is a few numpy calls per group, not one Python call per
    node.  ``gradient`` and ``value`` take node states (..., N, m) and add the
    slots in term order, which gives the bits of the per-node methods for
    single terms and flat or left-nested sums; a right-nested sum associates
    its additions differently.  The per-node classes stay the specification.
    """

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
        self._start = np.array([[0.0 if isinstance(p, SumPotential) else -0.0] for p in potentials])
        flat = [_flatten_terms(p) for p in potentials]
        self._groups = []  # (node indices, gradient, value) in slot order
        for slot in range(max(len(terms) for terms in flat)):
            by_kind: dict = {}
            for i, terms in enumerate(flat):
                if slot < len(terms):
                    by_kind.setdefault(type(terms[slot]), []).append(i)
            for kind, nodes in by_kind.items():
                if kind not in _TERM_KERNELS:
                    raise RepresentationError(f"cannot compile a {kind.__name__} term")
                grad, value = _TERM_KERNELS[kind]([flat[i][slot] for i in nodes])
                self._groups.append((np.array(nodes), grad, value))

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
        X = self._check(X)
        G = np.empty(X.shape)
        G[...] = self._start
        for nodes, grad, _ in self._groups:
            G[..., nodes, :] += grad(X[..., nodes, :])
        return G

    def value(self, X) -> np.ndarray:
        """F_i(x_i) for every node, shape ``X.shape[:-1]``."""
        X = self._check(X)
        V = np.empty(X.shape[:-1])
        V[...] = self._start[:, 0]
        for nodes, _, value in self._groups:
            V[..., nodes] += value(X[..., nodes, :])
        return V


# -- catalog operations -----------------------------------------------------


def common_zero_set(potentials) -> cg.ConvexBody | None:
    """Intersection of all nodes' zero sets, or ``None`` when empty."""
    return cg.intersect([p.zero_set() for p in potentials])


def gradient_consistency_check(
    spec: Potential, samples, h: float, tol: float
) -> CheckReport:
    """Central finite differences of the value against the analytic drift.

    For every sample the difference quotient of F must match -f within
    ``tol`` componentwise; the report carries the worst deviation.
    """
    if h <= 0 or tol <= 0:
        raise InputError("h and tol must be positive")
    worst = 0.0
    where = None
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    for si, x in enumerate(pts):
        f = spec.self_dynamics(x)
        for k in range(spec.dimension):
            e = np.zeros(spec.dimension)
            e[k] = h
            fd = (spec.value(x + e) - spec.value(x - e)) / (2.0 * h)
            dev = abs(fd + f[k])
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


# -- serialization ----------------------------------------------------------

_KINDS = {"quadratic", "quartic", "flat_bottom", "sum"}


def potential_from_dict(d: dict) -> Potential:
    """Parse the scenario-file representation of a potential."""
    if not isinstance(d, dict) or "kind" not in d:
        raise InputError(f"potential entry must be an object with a 'kind' field, got {d!r}")
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InputError(f"unknown potential kind {kind!r}; expected one of {sorted(_KINDS)}")
    try:
        if kind == "quadratic":
            return Quadratic(center=d["center"], weight=d.get("weight", 1.0))
        if kind == "quartic":
            return QuarticWell(center=d["center"])
        if kind == "flat_bottom":
            return FlatBottom1D(left=d["left"], right=d["right"])
        return SumPotential(tuple(potential_from_dict(t) for t in d["terms"]))
    except KeyError as e:
        raise InputError(f"potential kind {kind!r} is missing field {e.args[0]!r}") from None
    except (TypeError, ValueError) as e:
        raise InputError(f"potential kind {kind!r} has a malformed field: {e}") from None


def potential_to_dict(spec: Potential) -> dict:
    if isinstance(spec, Quadratic):
        return {"kind": "quadratic", "center": spec.center.tolist(), "weight": spec.weight}
    if isinstance(spec, QuarticWell):
        return {"kind": "quartic", "center": spec.center.tolist()}
    if isinstance(spec, FlatBottom1D):
        return {"kind": "flat_bottom", "left": spec.left, "right": spec.right}
    if isinstance(spec, SumPotential):
        return {"kind": "sum", "terms": [potential_to_dict(t) for t in spec.terms]}
    raise InputError(f"cannot serialize {type(spec).__name__}")
