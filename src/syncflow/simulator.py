"""Coupled network integrator for gradient self-dynamics with diffusive coupling.

Node i holds x_i in R^m, and the network state is the (N, m) array of node
blocks; every node evolves as

    dx_i/dt = f_i(x_i) + K * sum_{j in N_i(sigma(t))} a_ij (x_j - x_i)

with f_i = -grad(F_i) from the potential catalog and sigma(t) a switching
signal.  Between switches the right-hand side is autonomous, so integration
runs classical fixed-step RK4 segment by segment with steps shortened to land
exactly on every switch instant and sample instant; that keeps fourth-order
accuracy piecewise and makes runs bit-reproducible.

The exact flow stays in the box spanned by x0 and the zero sets (gradients
nondecreasing per component, diffusive coupling), so a state past 1e8 times that
box's sup norm (at least 1) is fixed-step RK4 leaving its stability region: the
run aborts with an explicit error instead of overflowing, and a smaller step cures it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, FiniteEscapeError, InputError
from .graphs import SwitchingSignal, WeightedDigraph
from .potentials import NetworkPotential

__all__ = [
    "Trajectory",
    "fixed_signal",
    "compile_network",
    "network_field",
    "integrate",
]

# sample instants plus switch instants one integration may hold in memory
MAX_EVENTS = 1_000_000
# RK4 steps one integration may take
MAX_STEPS = 10_000_000


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-sampled run: uniform sample grid plus every switching instant."""

    times: np.ndarray
    states: np.ndarray  # (n_samples, N, m) node blocks
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or s.ndim != 3 or s.shape[0] != t.shape[0]:
            raise InputError(f"times {t.shape} and states {s.shape} must be (S,) and (S, N, m)")
        if np.any(np.diff(t) <= 0):
            raise InputError("sample times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def node_count(self) -> int:
        return self.states.shape[1]

    @property
    def dim(self) -> int:
        return self.states.shape[2]


def fixed_signal(g: WeightedDigraph, dwell_floor: float = 1.0) -> SwitchingSignal:
    """Wrap a single graph as a constant switching signal: one segment of ``dwell_floor``."""
    return SwitchingSignal({"g": g}, (("g", dwell_floor),), dwell_floor)


def validate_dt(signal: SwitchingSignal, dt: float):
    """A switching run needs dt <= dwell_floor/4: at least four steps per dwell segment."""
    if signal.has_switches() and dt > signal.dwell_floor / 4.0 + 1e-12:
        raise ConfigurationError(
            f"dt={dt} exceeds dwell_floor/4 = {signal.dwell_floor / 4.0}; "
            "a switching run needs at least four steps per dwell segment"
        )


def compile_network(potentials, node_count: int) -> NetworkPotential:
    """The potentials of a graph's ``node_count`` nodes, compiled once for many field calls."""
    net = NetworkPotential(potentials)
    if net.node_count != node_count:
        raise InputError(f"{net.node_count} potentials for {node_count} graph nodes")
    return net


def network_field(net: NetworkPotential, lap: np.ndarray, K: float, X: np.ndarray) -> np.ndarray:
    """The network drift -grad F(X) - K L X on node states X of shape (..., N, m)."""
    dX = net.gradient(X)
    np.negative(dX, out=dX)  # dX and LX are fresh arrays: in place, the same bits
    if K != 0.0:
        LX = lap @ X
        LX *= K
        dX -= LX
    return dX


def _rk4_step(net, lap, K, X, h):
    k1 = network_field(net, lap, K, X)
    k2 = network_field(net, lap, K, X + (0.5 * h) * k1)
    k3 = network_field(net, lap, K, X + (0.5 * h) * k2)
    k4 = network_field(net, lap, K, X + h * k3)
    return X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def default_sample_every(dt: float) -> float:
    """The sampling interval when none is given: one sample every ten steps."""
    return 10.0 * dt


def validate_event_count(signal: SwitchingSignal, t_end: float, sample_every: float, dt: float):
    """At most MAX_EVENTS sample and switch instants and MAX_STEPS RK4 steps.

    Both are counted from the arguments, before any event is built or any step taken.
    """
    samples = t_end / sample_every + 1.0
    # every segment lasts at least the dwell floor, which bounds the switches
    switches = t_end / signal.dwell_floor if signal.has_switches() else 0.0
    if samples + switches > MAX_EVENTS:
        raise ConfigurationError(
            f"t_end={t_end} with sample_every={sample_every} gives about {samples:.3g} samples "
            f"and up to {switches:.3g} switches; at most {MAX_EVENTS} events are allowed"
        )
    # t_end/dt full steps plus at most one shortened step per event
    steps = t_end / dt + samples + switches
    if steps > MAX_STEPS:
        raise ConfigurationError(
            f"t_end={t_end} with dt={dt} and {samples + switches:.3g} events needs about "
            f"{steps:.3g} RK4 steps; at most {MAX_STEPS} are allowed"
        )


def _event_grid(signal: SwitchingSignal, t_end: float, sample_every: float):
    """Merged, deduplicated events ``[time, record, graph_id]``: graph_id is the graph from
    the event on, None if unchanged, taken from a switch merged into the event, so a switch
    up to the merge tolerance after a sample takes effect at that sample."""
    n_samples = int(math.floor(t_end / sample_every + 1e-9))
    events = [(k * sample_every, True, None) for k in range(n_samples + 1)]
    events += [(t, True, g) for t, g in signal.switch_times(0.0, t_end)]
    events.append((t_end, False, None))
    events.sort(key=lambda e: e[0])
    tol = 1e-9 * max(1.0, t_end)
    merged: list[list] = []
    for t, rec, g in events:
        if merged and t - merged[-1][0] <= tol:
            merged[-1][1] = merged[-1][1] or rec
            if g is not None:
                merged[-1][2] = g
        else:
            merged.append([t, rec, g])
    merged[-1][0] = t_end  # a sample within the tolerance before t_end does not end the run early
    return merged


def integrate(
    potentials,
    signal: SwitchingSignal,
    K: float,
    x0,
    dt: float,
    t_end: float,
    sample_every: float | None = None,
    scenario_id: str | None = None,
) -> Trajectory:
    """Integrate the network from ``x0``, any array of N*m numbers, over [0, t_end].

    Fixed-step RK4 whose steps never straddle a switching instant: the step
    is shortened to land exactly on each switch time and each sample time,
    then resumes.  Samples are recorded at every multiple of ``sample_every``
    and at every switch instant (by default every ten steps); events closer
    than 1e-9 * max(1, t_end) merge, and the run ends at t_end exactly.  Each
    span runs on the graph its event carries: the last switch's, or the graph at 0.
    """
    if K < 0:
        raise InputError(f"coupling gain K must be nonnegative, got {K}")
    sample_every = default_sample_every(dt) if sample_every is None else sample_every
    if dt <= 0 or t_end <= 0 or sample_every <= 0:
        raise InputError("dt, t_end and sample_every must be positive")
    validate_dt(signal, dt)
    net = compile_network(potentials, signal.node_count)
    X = np.asarray(x0, dtype=float)
    if X.size != net.node_count * net.dimension:
        raise InputError(f"x0 length {X.size} != node_count*dim = {net.node_count * net.dimension}")
    X = X.reshape(net.node_count, net.dimension)
    if not np.all(np.isfinite(X)):
        raise InputError("x0 entries must be finite")
    zs = [p.zero_set() for p in potentials]
    box = np.concatenate([X.ravel(), *(z.lo for z in zs), *(z.hi for z in zs)])
    # 1e8 times the invariant box's sup norm, capped at the largest float so that an
    # overflowed (inf) state still trips it
    guard = min(1e8 * max(1.0, float(np.abs(box).max())), float(np.finfo(float).max))

    validate_event_count(signal, t_end, sample_every, dt)
    events = _event_grid(signal, t_end, sample_every)
    times = [0.0]
    states = [X]  # RK4 steps build new arrays, so recorded states need no copies
    lap = signal.graph_at(0.0).laplacian_matrix
    t_prev = 0.0
    # overflow on the way out is reported by the divergence guard, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for t_next, record, graph_id in events:
            span = t_next - t_prev
            if span > 0:
                nsteps = max(1, math.ceil(span / dt - 1e-9))
                h = span / nsteps
                for k in range(nsteps):
                    X = _rk4_step(net, lap, K, X, h)
                    sup = float(np.abs(X).max())  # NaN if any entry is NaN
                    if not sup <= guard:
                        sup = math.inf if math.isnan(sup) else sup
                        raise FiniteEscapeError(t_prev + (k + 1) * h, sup, guard, h)
                t_prev = t_next
                if record:
                    times.append(t_next)
                    states.append(X)
            if graph_id is not None:
                lap = signal.library[graph_id].laplacian_matrix
    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        meta={
            "K": float(K),
            "dt": float(dt),
            "sample_every": float(sample_every),
            "t_end": float(t_end),
            "scenario": scenario_id,
        },
    )

