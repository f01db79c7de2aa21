"""Coupled network integrator for gradient self-dynamics with diffusive coupling.

Node i holds x_i in R^m, and the network state is the (N, m) array of node
blocks; every node evolves as

    dx_i/dt = f_i(x_i) + K * sum_{j in N_i(sigma(t))} a_ij (x_j - x_i)

with f_i = -grad(F_i) from the potential catalog and sigma(t) a switching
signal.  Between switches the right-hand side is autonomous, so integration
runs classical fixed-step RK4 segment by segment with steps shortened to land
exactly on every switch instant and sample instant; that keeps fourth-order
accuracy piecewise and makes runs bit-reproducible.  The graphs come from the
segment table alone: the event at 0 carries the first segment's graph and each
switch event the next one's, so no time is ever looked up.

A run keeps its states in the compiled potentials' block order.  Once per graph,
``NetworkPotential.coupling`` permutes K·L into it and folds in every quadratic term,
whose gradient w x - w c is affine: A = K·L + diag(a), with a each node's summed
weights.  A run builds one ``NetworkPotential.drift_into`` evaluator per row of one stage
stack (4, N·m), so each RK4 stage writes in place one ``np.dot`` A X, one subtraction of
the summed w c and one kernel add per run of like non-quadratic terms (a quartic alone
and one beside a quadratic share a run); one dot with (h/6)(1, 2, 2, 1) combines them.

The exact flow stays in the box spanned by x0 and the zero sets (gradients
nondecreasing per component, diffusive coupling), so a state past 1e8 times that
box's sup norm (at least 1) is fixed-step RK4 leaving its stability region: the run
aborts with an explicit error instead of overflowing.  The zero sets are read only once
a state passes the bound from x0 alone, never larger, so a run within it reads none, or
when a quadratic pull overflows the operator: a sum that no run can settle (see
``potentials``) is then refused, exit 2, before the overflow, exit 3.

A run is recorded once, as the ``DiagnosticsSeries`` every check reads: the (S, N, m)
states at every event it integrates to (the multiples of ``sample_every``, the switch
instants and t_end), their times and the potentials.  ``integrate`` only integrates; the
diameter and the series that read the zero sets are each computed on their first read.
"""

import math
from functools import cached_property

import numpy as np

from . import convex_geometry as cg
from .errors import FiniteEscapeError, InputError, NumericalError
from .graphs import SwitchingSignal, WeightedDigraph
from .potentials import NetworkPotential, common_zero_set

__all__ = ["DiagnosticsSeries", "diameter_series", "fixed_signal", "integrate"]

# sample instants plus switch instants one integration may hold in memory
MAX_EVENTS = 1_000_000
# RK4 steps one integration may take
MAX_STEPS = 10_000_000
MERGE_TOL = 1e-9  # events closer than MERGE_TOL * max(1, t_end) merge into one


class DiagnosticsSeries:
    """One run as the trajectory checks read it, from ``integrate``.

    ``times``, ``states`` (n_samples, N, m) and ``potentials`` come with it; ``diameter``,
    ``theta``, ``argmin_dist`` and ``v_nodes``/``v`` are each computed on their first read
    and kept.  ``v_nodes``/``v`` are None unless the zero sets share a point; ``theta`` needs
    only bounded zero sets.
    """

    def __init__(self, times: np.ndarray, states: np.ndarray, potentials):
        self.times, self.states, self.potentials = times, states, list(potentials)

    @property
    def node_count(self) -> int:
        return self.states.shape[1]

    @cached_property
    def diameter(self) -> np.ndarray:
        """Per sample, the largest distance between two nodes; see ``diameter_series``."""
        return diameter_series(self.states)

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # huge states give inf or nan series, no warnings
    def theta(self) -> np.ndarray:
        """Per sample, the largest squared node distance to the hull of the union of zero sets."""
        return (cg.zero_set_hull(self.potentials).distance(self.states) ** 2).max(axis=1)

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def argmin_dist(self) -> np.ndarray:
        """(n_samples, N) node distances to their own zero sets: one clip against the boxes."""
        corners = np.array([(z.lo, z.hi) for z in (p.zero_set() for p in self.potentials)])
        return cg.box_distance(self.states, corners[:, 0], corners[:, 1])

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def v_nodes(self) -> np.ndarray | None:
        """(n_samples, N) squared node distances to the center of the zero sets' intersection."""
        common = common_zero_set(self.potentials)
        return None if common is None else np.linalg.norm(self.states - common.center(), axis=2) ** 2

    @cached_property
    def v(self) -> np.ndarray | None:
        """Per sample, the largest of ``v_nodes``: the max-type Lyapunov series V."""
        return None if self.v_nodes is None else self.v_nodes.max(axis=1)


@np.errstate(over="ignore", invalid="ignore")  # huge states give inf or nan, no warnings
def diameter_series(states: np.ndarray) -> np.ndarray:
    """max_{i,j} |x_i - x_j| per sample of (S, N, m) states.  For m = 1 it is max - min, exact
    as rounding is monotone: no square underflows below |d| ~ 1.5e-154 or overflows above
    ~ 1.3e154."""
    X = states
    if X.shape[2] == 1:
        return np.ptp(X[:, :, 0], axis=1)
    diam = np.zeros(X.shape[0])
    for i in range(X.shape[1] - 1):
        diam = np.maximum(diam, np.linalg.norm(X[:, i + 1 :] - X[:, i : i + 1], axis=2).max(axis=1))
    return diam


def fixed_signal(g: WeightedDigraph) -> SwitchingSignal:
    """Wrap a single graph as a constant switching signal: one segment of dwell floor 1."""
    return SwitchingSignal({"g": g}, (("g", 1.0),), 1.0)


def _rk4_step(drifts, stages, A, X, h, weights):
    """One RK4 step of X' = -S(X), S the negated drift, on states X in block order: the four
    ``drifts`` write S1..S4, each as an (N, m) view of one row of the (4, N·m) ``stages``,
    and one dot with ``weights`` = (h/6)(1, 2, 2, 1) combines them."""
    S = drifts[0](A, X)
    S = drifts[1](A, X - (0.5 * h) * S)
    S = drifts[2](A, X - (0.5 * h) * S)
    drifts[3](A, X - h * S)
    return X - np.dot(weights, stages).reshape(X.shape)


def default_sample_every(dt: float) -> float:
    """The sampling interval when none is given: one sample every ten steps."""
    return 10.0 * dt


def validate_grid(signal: SwitchingSignal, dt: float, t_end: float, sample_every: float):
    """Raises InputError, naming the field at fault, unless the run grid is usable: dt, t_end
    and sample_every positive, and t_end past the merge tolerance MERGE_TOL * max(1, t_end);
    dt <= dwell_floor/4 on a switching signal, so every dwell segment gets at least four
    steps; at most MAX_EVENTS sample and switch instants and MAX_STEPS RK4 steps, both
    counted from the arguments before any event is built; and sample_every past the merge
    tolerance.  Every run then records at least two times, 0 and t_end.
    """
    for name, value in (("dt", dt), ("t_end", t_end), ("sample_every", sample_every)):
        if not value > 0:
            raise InputError(f"{name} must be positive, got {value}")
    tol = MERGE_TOL * max(1.0, t_end)
    if t_end <= tol:  # the end would merge into the event at 0
        raise InputError(f"t_end={t_end} must exceed the event-merge tolerance {tol:g}")
    if signal.has_switches() and dt > signal.dwell_floor / 4.0 + 1e-12:
        raise InputError(
            f"dt={dt} exceeds dwell_floor/4 = {signal.dwell_floor / 4.0}; "
            "a switching run needs at least four steps per dwell segment"
        )
    samples = t_end / sample_every + 2.0  # the multiples of sample_every, and t_end
    # every segment lasts at least the dwell floor, which bounds the switches
    switches = t_end / signal.dwell_floor if signal.has_switches() else 0.0
    if samples + switches > MAX_EVENTS:
        raise InputError(
            f"t_end={t_end} with sample_every={sample_every} gives about {samples:.3g} samples "
            f"and up to {switches:.3g} switches; at most {MAX_EVENTS} events are allowed"
        )
    # t_end/dt full steps plus at most one shortened step per event
    steps = t_end / dt + samples + switches
    if steps > MAX_STEPS:
        raise InputError(
            f"t_end={t_end} with dt={dt} and {samples + switches:.3g} events needs about "
            f"{steps:.3g} RK4 steps; at most {MAX_STEPS} are allowed"
        )
    if sample_every <= tol:  # its samples would merge into one another
        raise InputError(f"sample_every={sample_every} must exceed the event-merge tolerance {tol:g}")


def _event_grid(signal: SwitchingSignal, t_end: float, sample_every: float):
    """Merged, deduplicated events ``[time, graph_id]``, each one a recorded sample: the
    multiples of ``sample_every``, the switch instants and t_end.  graph_id is the graph from
    the event on, None if unchanged.  The event at 0 carries the first segment's graph; a
    switch merged into an event overrides it, so a switch up to the merge tolerance after a
    sample takes effect at that sample."""
    n_samples = int(math.floor(t_end / sample_every + 1e-9))
    events = [(k * sample_every, None) for k in range(n_samples + 1)]
    events[0] = (0.0, signal.segments[0][0])
    events += signal.switch_times(t_end)
    events.append((t_end, None))
    events.sort(key=lambda e: e[0])
    tol = MERGE_TOL * max(1.0, t_end)
    merged: list[list] = []
    for t, g in events:
        if merged and t - merged[-1][0] <= tol:
            if g is not None:
                merged[-1][1] = g
        else:
            merged.append([t, g])
    merged[-1][0] = t_end  # a sample within the tolerance before t_end does not end the run early
    return merged


def sample_times(signal: SwitchingSignal, t_end: float, sample_every: float) -> np.ndarray:
    """The times ``integrate`` records: the event grid's, switch instants and t_end included."""
    return np.array([t for t, _ in _event_grid(signal, t_end, sample_every)])


def integrate(
    potentials,
    signal: SwitchingSignal,
    K: float,
    x0,
    dt: float,
    t_end: float,
    sample_every: float | None = None,
) -> DiagnosticsSeries:
    """Integrate the network from ``x0``, any array of N*m numbers, over [0, t_end].

    Fixed-step RK4 whose steps never straddle a switching instant: the step
    is shortened to land exactly on each switch time and each sample time,
    then resumes.  Samples are recorded at every multiple of ``sample_every``
    (by default every ten steps), at every switch instant and at t_end; events
    closer than 1e-9 * max(1, t_end) merge, and the run ends at t_end exactly.  Each
    span runs on the graph of the last event that carries one; the first event,
    at 0, carries the graph that holds from 0.  The samples come back as the
    run record the checks read, a ``DiagnosticsSeries``.
    """
    sample_every = default_sample_every(dt) if sample_every is None else sample_every
    validate_grid(signal, dt, t_end, sample_every)
    net = NetworkPotential(potentials)
    events = _event_grid(signal, t_end, sample_every)
    # K·L + diag(a) in block order, built once for each graph the run visits
    visited = {gid for _, gid in events} - {None}
    try:
        ops = {g: net.coupling(signal.library[g].laplacian_matrix, K) for g in visited}
    except NumericalError:
        for p in potentials:  # an unsettleable sum is the cause to name, as on a guard trip
            p.zero_set()
        raise
    X = np.asarray(x0, dtype=float)
    if X.size != net.node_count * net.dimension:
        raise InputError(f"x0 length {X.size} != node_count*dim = {net.node_count * net.dimension}")
    X = X.reshape(net.node_count, net.dimension)
    if not np.all(np.isfinite(X)):
        raise InputError("x0 entries must be finite")
    def bound(*parts):  # 1e8 times their sup norm (at least 1), capped so that inf trips it
        sup = max(1.0, *(float(np.abs(p).max()) for p in parts))
        return min(1e8 * sup, float(np.finfo(float).max))
    x0, guard, boxed = X, bound(X), False  # from x0 alone until a state passes it
    X = X.take(net.order, axis=0)  # the run keeps its states in block order
    states = [X]  # RK4 steps build new arrays, so recorded states need no copies
    stages = np.empty((4, X.size))  # the stage drifts S1..S4, one flat row each
    drifts = [net.drift_into(row.reshape(X.shape)) for row in stages]
    A = ops[events[0][1]]
    t_prev = 0.0
    # overflow on the way out is reported by the divergence guard, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # merged events lie more than the merge tolerance apart, so every span is positive
        for t_next, graph_id in events[1:]:
            nsteps = max(1, math.ceil((t_next - t_prev) / dt - 1e-9))
            h = (t_next - t_prev) / nsteps
            weights = (h / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
            for k in range(nsteps):
                X = _rk4_step(drifts, stages, A, X, h, weights)
                sup = float(np.abs(X).max())  # NaN if any entry is NaN
                if not sup <= guard and not boxed:  # the zero sets join the box
                    zs = [p.zero_set() for p in potentials]
                    guard, boxed = bound(x0, *(z.lo for z in zs), *(z.hi for z in zs)), True
                if not sup <= guard:
                    sup = math.inf if math.isnan(sup) else sup
                    raise FiniteEscapeError(t_prev + (k + 1) * h, sup, guard, h)
            t_prev = t_next
            states.append(X)
            if graph_id is not None:
                A = ops[graph_id]
    return DiagnosticsSeries(np.array([t for t, _ in events]),
                             np.array(states).take(net.inverse, axis=1), potentials)
