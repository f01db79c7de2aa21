"""Coupled network integrator for gradient self-dynamics with diffusive coupling.

The stacked state x in R^(m*N) evolves as

    dx_i/dt = f_i(x_i) + K * sum_{j in N_i(sigma(t))} a_ij (x_j - x_i)

with f_i = -grad(F_i) from the potential catalog and sigma(t) a switching
signal.  Between switches the right-hand side is autonomous, so integration
runs classical fixed-step RK4 segment by segment with steps shortened to land
exactly on every switch instant and sample instant; that keeps fourth-order
accuracy piecewise and makes runs bit-reproducible.

A divergence guard aborts with an explicit finite-escape error instead of
overflowing silently: convexity of the potentials alone does not exclude
finite-time escape.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, FiniteEscapeError, InputError, NumericalError, PreconditionError
from .graphs import FixedSchedule, SwitchingSignal, WeightedDigraph
from .potentials import NetworkPotential, Quadratic

__all__ = [
    "NetworkState",
    "Trajectory",
    "fixed_signal",
    "rhs",
    "compile_network",
    "network_field",
    "integrate",
    "equilibrium_oracle_quadratic",
]

DEFAULT_GUARD = 1e8

# sample instants plus switch instants one integration may hold in memory
MAX_EVENTS = 1_000_000


@dataclass(frozen=True, eq=False)
class NetworkState:
    """Stacked node states at one instant; node i occupies block i."""

    t: float
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1:
            raise InputError(f"state must be a flat vector, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise InputError("state entries must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", float(self.t))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-sampled run: uniform sample grid plus every switching instant."""

    times: np.ndarray
    states: np.ndarray  # (n_samples, m*N)
    node_count: int
    dim: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or s.ndim != 2 or s.shape[0] != t.shape[0]:
            raise InputError("times and states must be aligned 1-D/2-D arrays")
        if np.any(np.diff(t) <= 0):
            raise InputError("sample times must be strictly increasing")
        if s.shape[1] != self.node_count * self.dim:
            raise InputError("state width must equal node_count * dim")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    def __len__(self) -> int:
        return self.times.shape[0]

    def node_states(self, i: int) -> np.ndarray:
        """All samples of node i, shape (n_samples, m)."""
        if not 0 <= i < self.node_count:
            raise InputError(f"node index {i} out of range")
        return self.states[:, i * self.dim : (i + 1) * self.dim]

    def blocks(self) -> np.ndarray:
        """States reshaped to (n_samples, N, m)."""
        return self.states.reshape(len(self), self.node_count, self.dim)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def state(self, k: int) -> NetworkState:
        return NetworkState(float(self.times[k]), self.states[k].copy())


def fixed_signal(g: WeightedDigraph, dwell_floor: float = 1.0) -> SwitchingSignal:
    """Wrap a single graph as a constant switching signal."""
    return SwitchingSignal(library={"g": g}, schedule=FixedSchedule("g"), dwell_floor=dwell_floor)


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


def network_field(net: NetworkPotential, lap: np.ndarray, K: float, x: np.ndarray) -> np.ndarray:
    """The network drift -grad F(X) - K L X on (N, m) blocks of the flat state ``x``."""
    X = x.reshape(net.node_count, net.dimension)
    dX = -net.gradient(X)
    if K != 0.0:
        dX -= K * (lap @ X)
    return dX.ravel()


def rhs(potentials, signal: SwitchingSignal, K: float, s: NetworkState) -> np.ndarray:
    """Right-hand side of the coupled dynamics at state ``s``.

    The active graph is resolved right-continuously: at a switch instant the
    post-switch snapshot applies.
    """
    if K < 0:
        raise InputError(f"coupling gain K must be nonnegative, got {K}")
    net = compile_network(potentials, signal.node_count)
    if s.x.shape[0] != net.dimension * net.node_count:
        raise InputError(
            f"state length {s.x.shape[0]} != node_count*dim = {net.dimension * net.node_count}"
        )
    g = signal.graph_at(s.t)
    return network_field(net, g.laplacian_matrix, K, s.x)


def _rk4_step(net, lap, K, x, h):
    k1 = network_field(net, lap, K, x)
    k2 = network_field(net, lap, K, x + (0.5 * h) * k1)
    k3 = network_field(net, lap, K, x + (0.5 * h) * k2)
    k4 = network_field(net, lap, K, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def default_sample_every(dt: float) -> float:
    """The sampling interval when none is given: one sample every ten steps."""
    return 10.0 * dt


def validate_event_count(signal: SwitchingSignal, t_end: float, sample_every: float):
    """At most MAX_EVENTS sample and switch instants, counted before any is built."""
    samples = t_end / sample_every + 1.0
    # every segment lasts at least the dwell floor, which bounds the switches
    switches = t_end / signal.dwell_floor if signal.has_switches() else 0.0
    if samples + switches > MAX_EVENTS:
        raise ConfigurationError(
            f"t_end={t_end} with sample_every={sample_every} gives about {samples:.3g} samples "
            f"and up to {switches:.3g} switches; at most {MAX_EVENTS} events are allowed"
        )


def _event_grid(signal: SwitchingSignal, t_end: float, sample_every: float):
    """Merged, deduplicated event times with a record flag per event."""
    validate_event_count(signal, t_end, sample_every)
    n_samples = int(math.floor(t_end / sample_every + 1e-9))
    events = [(k * sample_every, True) for k in range(n_samples + 1)]
    events += [(t, True) for t in signal.switch_times(0.0, t_end)]
    events.append((t_end, False))
    events.sort(key=lambda e: e[0])
    tol = 1e-9 * max(1.0, t_end)
    merged: list[list] = []
    for t, rec in events:
        if merged and t - merged[-1][0] <= tol:
            merged[-1][1] = merged[-1][1] or rec
        else:
            merged.append([t, rec])
    return merged


def integrate(
    potentials,
    signal: SwitchingSignal,
    K: float,
    x0,
    dt: float,
    t_end: float,
    sample_every: float | None = None,
    divergence_guard: float = DEFAULT_GUARD,
    scenario_id: str | None = None,
) -> Trajectory:
    """Integrate the network from ``x0`` over [0, t_end].

    Fixed-step RK4 whose steps never straddle a switching instant: the step
    is shortened to land exactly on each switch time and each sample time,
    then resumes.  Samples are recorded at every multiple of ``sample_every``
    and at every switch instant (by default every ten steps).
    """
    if K < 0:
        raise InputError(f"coupling gain K must be nonnegative, got {K}")
    sample_every = default_sample_every(dt) if sample_every is None else sample_every
    if dt <= 0 or t_end <= 0 or sample_every <= 0:
        raise InputError("dt, t_end and sample_every must be positive")
    validate_dt(signal, dt)
    net = compile_network(potentials, signal.node_count)
    m = net.dimension
    x = np.asarray(x0, dtype=float).ravel().copy()
    if x.shape[0] != m * signal.node_count:
        raise InputError(
            f"x0 length {x.shape[0]} != node_count*dim = {m * signal.node_count}"
        )
    if not np.all(np.isfinite(x)):
        raise InputError("x0 entries must be finite")
    if np.max(np.abs(x)) > divergence_guard:
        raise FiniteEscapeError(0.0, float(np.max(np.abs(x))), divergence_guard)

    events = _event_grid(signal, t_end, sample_every)
    times = [0.0]
    states = [x.copy()]
    t_prev = events[0][0]
    # overflow on the way out is reported by the divergence guard, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for t_next, record in events[1:]:
            span = t_next - t_prev
            if span <= 0:
                continue
            # the graph of the span's interior: a switch merged into a sample
            # up to the merge tolerance earlier still takes effect at that sample
            lap = signal.graph_at(0.5 * (t_prev + t_next)).laplacian_matrix
            nsteps = max(1, math.ceil(span / dt - 1e-9))
            h = span / nsteps
            for k in range(nsteps):
                x = _rk4_step(net, lap, K, x, h)
                sup = float(np.max(np.abs(x))) if np.all(np.isfinite(x)) else math.inf
                if sup > divergence_guard:
                    raise FiniteEscapeError(t_prev + (k + 1) * h, sup, divergence_guard)
            t_prev = t_next
            if record:
                times.append(t_next)
                states.append(x.copy())
    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        node_count=signal.node_count,
        dim=m,
        meta={
            "K": float(K),
            "dt": float(dt),
            "sample_every": float(sample_every),
            "t_end": float(t_end),
            "scenario": scenario_id,
        },
    )


def equilibrium_oracle_quadratic(potentials, g: WeightedDigraph, K: float) -> np.ndarray:
    """Unique equilibrium of the all-quadratic network on a fixed graph.

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
        return np.linalg.solve(w_diag + K * lap, b)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"equilibrium system is singular: {e}") from None
