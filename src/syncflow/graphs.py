"""Directed weighted graph snapshots, switching signals, and spectra.

A ``WeightedDigraph`` is one communication snapshot: arc (j, i, w) means node
j is a neighbor of node i, so information flows j -> i and the adjacency
entry A[i, j] = w.  A ``SwitchingSignal`` maps time to snapshots as a
piecewise-constant, right-continuous cycle of ``(graph_id, duration)``
segments repeated over [0, inf); a one-segment cycle is a fixed graph.  The
segment table is the one map from time to graph: the first segment's graph
holds from 0, ``switch_times`` pairs each later switch with the next segment's
graph, and the uniform joint connectivity certificate reads the segments from
each start of one period.

The algebraic side provides the graph Laplacian D - A, strong connectivity
via double reachability sweeps, and the second-smallest Laplacian eigenvalue
of symmetric graphs (``numpy.linalg.eigvalsh``).
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .report import CheckReport

__all__ = [
    "WeightedDigraph",
    "SwitchingSignal",
    "is_strongly_connected",
    "certify_ujsc",
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
        with np.errstate(over="ignore"):  # NetworkPotential.coupling refuses an infinite K·L
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
        if not 0 < self.dwell_floor < math.inf:
            raise InputError(f"dwell floor must be positive and finite, got {self.dwell_floor}")
        counts = {g.node_count for g in self.library.values()}
        if len(counts) != 1:
            raise InputError(f"library graphs must share one node count, got {sorted(counts)}")
        if not segs:
            raise InputError("signal needs at least one segment")
        bad = [d for _, d in segs if not 0 < d < math.inf]
        if bad:
            raise InputError(f"segment durations must be positive and finite, got {bad[0]}")
        bad = [d for _, d in segs if d < self.dwell_floor - 1e-12]
        if bad:
            raise InputError(f"segment duration {min(bad)} is below the dwell floor {self.dwell_floor}")
        missing = [g for g, _ in segs if g not in self.library]
        if missing:
            raise InputError(f"signal references unknown graph ids {missing}")
        if self.has_switches() and self.period <= _TIME_TOL:
            raise InputError(f"switching period {self.period:g} must exceed {_TIME_TOL:g}")

    @property
    def node_count(self) -> int:
        return next(iter(self.library.values())).node_count

    @cached_property
    def _ends(self) -> tuple:
        """End time of each segment within the period."""
        return tuple(itertools.accumulate(d for _, d in self.segments))

    @property
    def period(self) -> float:
        return self._ends[-1]

    def switch_times(self, t_end: float) -> list[tuple[float, str]]:
        """``(instant, graph_id)`` per switch in (0, t_end]: graph_id holds from the instant on."""
        ids = [g for g, _ in self.segments]
        # a segment end is a switch only if the ids differ across it
        changing = [(e, nxt) for e, g, nxt in zip(self._ends, ids, ids[1:] + ids[:1]) if g != nxt]
        out = []
        k = 0
        while changing and k * self.period <= t_end + _TIME_TOL:
            for c, g in changing:
                t = k * self.period + c
                if t <= t_end + _TIME_TOL:
                    out.append((min(t, t_end), g))
            k += 1
        return out

    def has_switches(self) -> bool:
        """True when the segments name more than one distinct graph."""
        return len({g for g, _ in self.segments}) > 1


def validate_window(T):
    """Raises InputError unless the UJSC window length ``T`` is positive."""
    if not T > 0:
        raise InputError(f"window length T must be positive, got {T}")


def certify_ujsc(signal: SwitchingSignal, T: float) -> CheckReport:
    """Certify that every window [t, t+T) has a strongly connected joint graph.

    Within one segment a window only gains graphs as its start moves, so the
    segment starts of one period are exhaustive.  From each start the next
    segments join one at a time; the start's T_min is the offset at which the
    union becomes strongly connected (inf if one period's never does).  The
    check passes iff T > max T_min + _TIME_TOL; the location is the window
    from the first failing start.
    """
    validate_window(T)
    segs, t_min, window = signal.segments, 0.0, None
    for k, start in enumerate((0.0,) + signal._ends[:-1]):
        arcs, offset, need = set(), 0.0, math.inf
        for g, d in segs[k:] + segs[:k]:
            arcs |= signal.library[g].arc_set
            if _strongly_connected(signal.node_count, arcs):
                need = offset
                break
            offset += d
        t_min = max(t_min, need)
        if window is None and not T > need + _TIME_TOL:
            window = [start, start + T]
    detail = "every window's joint graph is strongly connected"
    if window is not None:
        detail = f"joint graph over [{window[0]:.6g}, {window[1]:.6g}) is not strongly connected"
    params = {"T": T, "T_min": t_min, "detail": detail}
    return CheckReport(check="ujsc", passed=window is None, location=window, params=params)


# -- spectra -----------------------------------------------------------------


def require_undirected(g: WeightedDigraph, what: str, connected: bool = True):
    """Raises InputError naming ``what`` unless g is symmetric (paired
    equal-weight arcs) and, when ``connected``, connected."""
    if not g.is_symmetric():
        raise InputError(f"{what} requires a symmetric graph")
    if connected and not is_strongly_connected(g):
        raise InputError(f"{what} requires a connected graph")


def lambda2(g: WeightedDigraph) -> float:
    """Second-smallest eigenvalue of the Laplacian of a symmetric connected graph."""
    if g.node_count < 2:
        raise InputError("lambda2 needs at least two nodes")
    require_undirected(g, "lambda2")
    # eigvalsh reads one triangle only; the symmetry check above keeps that exact
    return float(np.linalg.eigvalsh(g.laplacian_matrix)[1])
