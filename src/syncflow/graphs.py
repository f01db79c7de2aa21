"""Directed weighted graph snapshots, switching signals, and spectra.

A ``WeightedDigraph`` is one communication snapshot: arc (j, i, w) means node
j is a neighbor of node i, so information flows j -> i and the adjacency
entry A[i, j] = w.  A ``SwitchingSignal`` maps time to snapshots as a
piecewise-constant, right-continuous cycle of ``(graph_id, duration)``
segments repeated over [0, inf); a one-segment cycle is a fixed graph.
Cycles keep the uniform joint connectivity certificate exhaustive (the
joint graph over a sliding window is piecewise constant in the window start,
with breakpoints at switch times shifted by the period).

The algebraic side provides the graph Laplacian D - A, strong connectivity
via double reachability sweeps, and the second-smallest Laplacian eigenvalue
of symmetric graphs (``numpy.linalg.eigvalsh``).
"""

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, PreconditionError
from .report import CheckReport

__all__ = [
    "WeightedDigraph",
    "SwitchingSignal",
    "JointGraph",
    "UJSCCertificate",
    "is_strongly_connected",
    "joint_graph",
    "certify_ujsc",
    "check_ujsc",
    "lambda2",
    "require_undirected",
]

_TIME_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class WeightedDigraph:
    """Immutable graph snapshot with positive arc weights and no self-loops."""

    node_count: int
    arcs: tuple = ()

    def __post_init__(self):
        n = int(self.node_count)
        if n < 1:
            raise InputError(f"node_count must be >= 1, got {self.node_count}")
        object.__setattr__(self, "node_count", n)
        seen = set()
        norm = []
        for arc in self.arcs:
            try:
                j, i, w = arc
            except (TypeError, ValueError):
                raise InputError(f"arc must be (source, target, weight), got {arc!r}") from None
            j, i, w = int(j), int(i), float(w)
            if not (0 <= j < n and 0 <= i < n):
                raise InputError(f"arc ({j}, {i}) references a node outside 0..{n - 1}")
            if j == i:
                raise InputError(f"self-loop on node {i} is not allowed")
            if not (w > 0 and np.isfinite(w)):
                raise InputError(f"arc ({j}, {i}) weight must be positive, got {w}")
            if (j, i) in seen:
                raise InputError(f"duplicate arc ({j}, {i})")
            seen.add((j, i))
            norm.append((j, i, w))
        object.__setattr__(self, "arcs", tuple(norm))

    @cached_property
    def laplacian_matrix(self) -> np.ndarray:
        """D - A with A[i, j] the weight of arc j -> i and D the diagonal of the
        row sums of A (read-only)."""
        a = np.zeros((self.node_count, self.node_count))
        for j, i, w in self.arcs:
            a[i, j] = w
        lap = np.diag(a.sum(axis=1)) - a
        lap.setflags(write=False)
        return lap

    @cached_property
    def arc_set(self) -> frozenset:
        return frozenset((j, i) for j, i, _ in self.arcs)

    def is_symmetric(self) -> bool:
        """True iff arcs come in (j, i) / (i, j) pairs with equal weights."""
        weights = {(j, i): w for j, i, w in self.arcs}
        return all(weights.get((i, j)) == w for (j, i), w in weights.items())


def _reach_all(n: int, out_adj: list[list[int]], start: int) -> bool:
    seen = [False] * n
    seen[start] = True
    stack = [start]
    count = 1
    while stack:
        u = stack.pop()
        for v in out_adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def _strongly_connected(n: int, arc_pairs) -> bool:
    fwd: list[list[int]] = [[] for _ in range(n)]
    bwd: list[list[int]] = [[] for _ in range(n)]
    for j, i in arc_pairs:
        fwd[j].append(i)
        bwd[i].append(j)
    return _reach_all(n, fwd, 0) and _reach_all(n, bwd, 0)


def is_strongly_connected(g: WeightedDigraph) -> bool:
    """Every ordered node pair is joined by a directed path.

    Double reachability sweep from node 0: forward reach plus reverse reach
    covering all nodes is equivalent to strong connectivity.
    """
    return _strongly_connected(g.node_count, g.arc_set)


# -- switching signals --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SwitchingSignal:
    """Piecewise-constant, right-continuous graph signal sigma(t).

    ``segments = ((graph_id, duration), ...)`` repeats over [0, inf); one
    segment is a fixed graph.  Immutable after construction; all queries are
    pure.  The dwell floor is the guaranteed minimum time between
    consecutive switches, and no segment may be shorter.
    """

    library: dict
    segments: tuple
    dwell_floor: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "library", dict(self.library))
        object.__setattr__(self, "dwell_floor", float(self.dwell_floor))
        segs = tuple((str(g), float(d)) for g, d in self.segments)
        object.__setattr__(self, "segments", segs)
        if not self.library:
            raise InputError("signal library must contain at least one graph")
        if self.dwell_floor <= 0:
            raise InputError(f"dwell floor must be positive, got {self.dwell_floor}")
        counts = {g.node_count for g in self.library.values()}
        if len(counts) != 1:
            raise InputError(f"library graphs must share one node count, got {sorted(counts)}")
        if not segs:
            raise InputError("signal needs at least one segment")
        if any(d <= 0 for _, d in segs):
            raise InputError("segment durations must be positive")
        bad = [d for _, d in segs if d < self.dwell_floor - 1e-12]
        if bad:
            raise InputError(f"segment duration {min(bad)} is below the dwell floor {self.dwell_floor}")
        missing = [g for g, _ in segs if g not in self.library]
        if missing:
            raise InputError(f"signal references unknown graph ids {missing}")

    @property
    def node_count(self) -> int:
        return next(iter(self.library.values())).node_count

    @cached_property
    def _ends(self) -> tuple:
        """End time of each segment within the period."""
        return tuple(itertools.accumulate(d for _, d in self.segments))

    @cached_property
    def _marks(self) -> tuple:
        # a time within _TIME_TOL of a segment's end already belongs to the next segment
        return tuple(end - _TIME_TOL for end in self._ends)

    @property
    def period(self) -> float:
        return self._ends[-1]

    def graph_id_at(self, t: float) -> str:
        if t < 0:
            raise InputError(f"time must be nonnegative, got {t}")
        tau = t - math.floor(t / self.period) * self.period
        # past the last mark, tau wraps to the first segment
        return self.segments[bisect.bisect_right(self._marks, tau) % len(self.segments)][0]

    def graph_at(self, t: float) -> WeightedDigraph:
        return self.library[self.graph_id_at(t)]

    def switch_times(self, t0: float, t1: float) -> list[float]:
        """Instants in (t0, t1] where the active graph actually changes."""
        ids = [g for g, _ in self.segments]
        # a segment end is a switch only if the ids differ across it
        changing = [end for end, g, nxt in zip(self._ends, ids, ids[1:] + ids[:1]) if g != nxt]
        if not changing or t1 <= t0:
            return []
        period = self.period
        out = []
        k = max(0, math.floor(t0 / period) - 1)
        while True:
            base = k * period
            if base > t1 + _TIME_TOL:
                break
            for c in changing:
                t = base + c
                if t0 + _TIME_TOL < t <= t1 + _TIME_TOL:
                    out.append(min(t, t1))
            k += 1
        return out

    def has_switches(self) -> bool:
        """True when the segments name more than one distinct graph."""
        return len({g for g, _ in self.segments}) > 1


@dataclass(frozen=True, eq=False)
class JointGraph:
    """Union of all arcs active anywhere in a time window (weights ignored)."""

    window: tuple
    node_count: int
    union_arcs: frozenset

    def is_strongly_connected(self) -> bool:
        return _strongly_connected(self.node_count, self.union_arcs)


def joint_graph(signal: SwitchingSignal, t1: float, t2: float) -> JointGraph:
    """Arc union of every graph active in [t1, t2)."""
    if not t1 < t2:
        raise InputError(f"window requires t1 < t2, got [{t1}, {t2})")
    if t2 - t1 >= signal.period - _TIME_TOL:
        ids = {g for g, _ in signal.segments}
    else:
        starts = [t1] + [t for t in signal.switch_times(t1, t2) if t < t2 - _TIME_TOL]
        ids = {signal.graph_id_at(t) for t in starts}
    arcs = frozenset().union(*(signal.library[g].arc_set for g in ids))
    return JointGraph((t1, t2), signal.node_count, arcs)


@dataclass(frozen=True)
class UJSCCertificate:
    ok: bool
    window: tuple | None
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def validate_window(T):
    """Raises InputError unless the UJSC window length ``T`` is positive."""
    if not T > 0:
        raise InputError(f"window length T must be positive, got {T}")


def certify_ujsc(signal: SwitchingSignal, T: float, horizon: float) -> UJSCCertificate:
    """Certify that every window [t, t+T) has a strongly connected joint graph.

    For a switching signal the joint graph over [t, t+T) is piecewise
    constant in t with breakpoints at segment boundaries and at boundaries
    shifted left by T (mod period), so checking each breakpoint plus the
    midpoints between consecutive breakpoints within one period is
    exhaustive.  The first failing window, if any, is reported as a witness.
    """
    validate_window(T)
    if not signal.has_switches():
        ok = is_strongly_connected(signal.graph_at(0.0))
        return UJSCCertificate(
            ok, None if ok else (0.0, T), "fixed graph" if ok else "fixed graph not strongly connected"
        )
    period = signal.period
    if horizon < period + T - _TIME_TOL:
        raise PreconditionError(
            f"horizon {horizon} must cover one signal period plus T ({period + T})"
        )
    breakpoints = {0.0}
    for end in signal._ends:
        breakpoints.add(end % period)
        breakpoints.add((end - T) % period)
    pts = sorted(breakpoints)
    starts = list(pts)
    for a, b in zip(pts, pts[1:] + [pts[0] + period]):
        starts.append(0.5 * (a + b))
    for t in sorted(starts):
        jg = joint_graph(signal, t, t + T)
        if not jg.is_strongly_connected():
            return UJSCCertificate(
                False,
                (t, t + T),
                f"joint graph over [{t:.6g}, {t + T:.6g}) is not strongly connected",
            )
    return UJSCCertificate(True, None, f"checked {len(starts)} window starts over one period")


def check_ujsc(signal: SwitchingSignal, T: float) -> CheckReport:
    """Report form of ``certify_ujsc`` over one period plus T; a failing window is the location."""
    cert = certify_ujsc(signal, T, horizon=signal.period + T)
    return CheckReport(
        check="ujsc",
        passed=cert.ok,
        location=None if cert.window is None else list(cert.window),
        params={"T": T, "detail": cert.detail},
    )


# -- spectra -----------------------------------------------------------------


def require_undirected(g: WeightedDigraph, what: str, connected: bool = True):
    """Raises PreconditionError naming ``what`` unless g is symmetric (paired
    equal-weight arcs) and, when ``connected``, connected."""
    if not g.is_symmetric():
        raise PreconditionError(f"{what} requires a symmetric graph")
    if connected and not is_strongly_connected(g):
        raise PreconditionError(f"{what} requires a connected graph")


def lambda2(g: WeightedDigraph) -> float:
    """Second-smallest eigenvalue of the Laplacian of a symmetric connected graph."""
    if g.node_count < 2:
        raise PreconditionError("lambda2 needs at least two nodes")
    require_undirected(g, "lambda2")
    # eigvalsh reads one triangle only; the symmetry check above keeps that exact
    return float(np.linalg.eigvalsh(g.laplacian_matrix)[1])
