import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import syncflow.simulator as simulator
from syncflow import (
    ConfigurationError,
    FiniteEscapeError,
    FlatBottom1D,
    InputError,
    PreconditionError,
    Quadratic,
    QuarticWell,
    SumPotential,
    SwitchingSignal,
    Trajectory,
    WeightedDigraph,
    fixed_signal,
    integrate,
)
from syncflow.simulator import compile_network, network_field
from util import equilibrium_oracle_quadratic, oracle_gradient, ring_graph, undirected


def two_node_graph():
    return undirected(2, [(0, 1)])


def rhs_at(pots, sig, K, t, X):
    """The right-hand side, the network drift, at time ``t`` on the graph active then."""
    X = np.asarray(X, dtype=float)
    return network_field(compile_network(pots, len(pots)), sig.graph_at(t).laplacian_matrix, K, X)


def test_rhs_two_node_quadratic():
    pots = [Quadratic(center=[0.0]), Quadratic(center=[0.0])]
    sig = fixed_signal(two_node_graph())
    out = rhs_at(pots, sig, 1.0, 0.0, [[1.0], [0.0]])
    np.testing.assert_allclose(out, [[-2.0], [1.0]])


def test_rhs_uncoupled_limit():
    pots = [Quadratic(center=[2.0]), QuarticWell(center=[-1.0])]
    sig = fixed_signal(two_node_graph())
    out = rhs_at(pots, sig, 0.0, 0.0, [[0.5], [0.5]])
    np.testing.assert_allclose(out, [-pots[0].gradient([0.5]), -pots[1].gradient([0.5])])


def test_rhs_zero_on_consensus_at_common_zero():
    pots = [Quadratic(center=[1.0]), QuarticWell(center=[1.0])]
    sig = fixed_signal(two_node_graph())
    out = rhs_at(pots, sig, 3.0, 0.0, [[1.0], [1.0]])
    np.testing.assert_array_equal(out, [[0.0], [0.0]])


def test_rhs_uses_post_switch_graph_at_switch_instant():
    ga = WeightedDigraph(2, ((0, 1, 1.0),))
    gb = WeightedDigraph(2, ((1, 0, 1.0),))
    sig = SwitchingSignal({"a": ga, "b": gb}, (("a", 1.0), ("b", 1.0)), 1.0)
    pots = [Quadratic(center=[0.0], weight=1e-9), Quadratic(center=[0.0], weight=1e-9)]
    x = [[1.0], [0.0]]
    before = rhs_at(pots, sig, 1.0, 0.5, x)[:, 0]
    at_switch = rhs_at(pots, sig, 1.0, 1.0, x)[:, 0]
    # pre-switch only node 1 is driven; right-continuity flips it to node 0
    assert abs(before[1]) > 0.5 and abs(before[0]) < 1e-6
    assert abs(at_switch[0]) > 0.5 and abs(at_switch[1]) < 1e-6


def catalog_terms(m):
    """Single catalog terms of dimension ``m``; the flat bottom exists only in 1-D."""
    center = st.lists(st.floats(-2, 2), min_size=m, max_size=m)
    kinds = [st.builds(Quadratic, center, st.floats(0.1, 3.0)), st.builds(QuarticWell, center)]
    if m == 1:
        kinds.append(st.tuples(st.floats(-2, 0), st.floats(0, 2)).map(lambda b: FlatBottom1D(*b)))
    return st.one_of(kinds)


@st.composite
def lane_stacks(draw):
    """A network of catalog terms and sums of them, and a stack (B, N, m) of its states."""
    m, n, lanes = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    term = catalog_terms(m)
    sums = st.lists(term, min_size=1, max_size=3).map(lambda t: SumPotential(tuple(t)))
    pots = draw(st.lists(st.one_of(term, sums), min_size=n, max_size=n))
    arcs = draw(st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                st.floats(0.1, 2.0), max_size=3 * n))
    g = WeightedDigraph(n, tuple((j, i, w) for (j, i), w in arcs.items() if j != i))
    K = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    return pots, g, K, draw(arrays(np.float64, (lanes, n, m), elements=st.floats(-3, 3)))


@settings(max_examples=150, deadline=None)
@given(lane_stacks())
def test_network_field_on_a_lane_stack_equals_one_call_per_lane(case):
    pots, g, K, X = case
    net, lap = compile_network(pots, g.node_count), g.laplacian_matrix
    stacked = network_field(net, lap, K, X)
    assert stacked.shape == X.shape
    for lane in range(X.shape[0]):
        np.testing.assert_array_equal(stacked[lane], network_field(net, lap, K, X[lane]))


@settings(max_examples=100, deadline=None)
@given(lane_stacks())
def test_network_field_neither_writes_nor_aliases_its_input(case):
    pots, g, K, stack = case
    net, lap = compile_network(pots, g.node_count), g.laplacian_matrix
    for X in (stack[0].copy(), stack):  # one state (N, m) and a lane stack (B, N, m)
        before = X.tobytes()
        first = network_field(net, lap, K, X)
        second = network_field(net, lap, K, X)
        assert X.tobytes() == before
        assert not np.shares_memory(first, X) and not np.shares_memory(second, X)
        assert not np.shares_memory(second, first)


@pytest.mark.parametrize(
    "states",
    [np.zeros((3, 4)), np.zeros((3, 2, 2, 1)), np.zeros((2, 2, 1))],
    ids=["flat_rows", "four_axes", "one_sample_short"],
)
def test_trajectory_needs_one_node_block_per_sample_time(states):
    with pytest.raises(InputError, match=r"must be \(S,\) and \(S, N, m\)"):
        Trajectory(np.arange(3.0), states)


def test_scalar_quadratic_closed_form():
    # dx/dt = -(x - 3), x(0) = 0  =>  x(t) = 3(1 - e^{-t})
    sig = fixed_signal(WeightedDigraph(1))
    traj = integrate([Quadratic(center=[3.0])], sig, 0.0, [0.0], dt=0.01, t_end=5.0, sample_every=0.5)
    for t, x in zip(traj.times, traj.states[:, 0, 0]):
        assert abs(x - 3.0 * (1.0 - math.exp(-t))) < 1e-6
    assert traj.states[-1, 0, 0] == pytest.approx(3.0 * (1.0 - math.exp(-5.0)), abs=1e-6)


def test_two_node_disagreement_closed_form():
    # d(t) = D/(1+2K) + (d0 - D/(1+2K)) e^{-(1+2K)t}, D = m1 - m2
    m1, m2, K = 2.0, -1.0, 1.5
    pots = [Quadratic(center=[m1]), Quadratic(center=[m2])]
    sig = fixed_signal(two_node_graph())
    x0 = np.array([1.0, 0.5])
    traj = integrate(pots, sig, K, x0, dt=0.005, t_end=8.0, sample_every=0.25)
    rate = 1.0 + 2.0 * K
    d_inf = (m1 - m2) / rate
    d0 = x0[0] - x0[1]
    for t, row in zip(traj.times, traj.states[:, :, 0]):
        expected = d_inf + (d0 - d_inf) * math.exp(-rate * t)
        assert abs((row[0] - row[1]) - expected) < 1e-6


def test_constant_on_consensus_manifold():
    pots = [Quadratic(center=[0.5]), QuarticWell(center=[0.5]), Quadratic(center=[0.5], weight=2.0)]
    sig = fixed_signal(ring_graph(3))
    traj = integrate(pots, sig, 2.0, [0.5, 0.5, 0.5], dt=0.05, t_end=10.0, sample_every=0.5)
    assert np.max(np.abs(traj.states - 0.5)) <= 1e-10


def test_integrator_fourth_order_convergence():
    sig = fixed_signal(WeightedDigraph(1))
    pots = [Quadratic(center=[3.0])]
    exact = 3.0 * (1.0 - math.exp(-2.0))
    errs = []
    for dt in (0.2, 0.1, 0.05, 0.025):
        traj = integrate(pots, sig, 0.0, [0.0], dt=dt, t_end=2.0, sample_every=2.0)
        errs.append(abs(traj.states[-1, 0, 0] - exact))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    for p in orders:
        assert 3.8 <= p <= 4.2


def test_sampling_grid_and_switch_instants():
    ga = WeightedDigraph(2, ((0, 1, 1.0),))
    gb = WeightedDigraph(2, ((1, 0, 1.0),))
    sig = SwitchingSignal({"a": ga, "b": gb}, (("a", 0.7), ("b", 0.7)), 0.7)
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0])]
    traj = integrate(pots, sig, 1.0, [2.0, -2.0], dt=0.1, t_end=3.0, sample_every=1.0)
    expected = sorted({0.0, 1.0, 2.0, 3.0} | {0.7, 1.4, 2.1, 2.8})
    np.testing.assert_allclose(traj.times, expected, atol=1e-9)
    # continuity across switches: with dt-spaced samples no state jumps appear
    dense = integrate(pots, sig, 1.0, [2.0, -2.0], dt=0.05, t_end=3.0, sample_every=0.05)
    steps = np.abs(np.diff(dense.states, axis=0)).max(axis=(1, 2))
    assert steps.max() < 0.5


def test_first_sample_is_x0():
    sig = fixed_signal(two_node_graph())
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0])]
    x0 = np.array([0.25, -0.75])
    traj = integrate(pots, sig, 1.0, x0, dt=0.01, t_end=1.0, sample_every=0.1)
    assert traj.times[0] == 0.0
    np.testing.assert_array_equal(traj.states[0], x0.reshape(2, 1))


def test_dt_must_resolve_dwell():
    ga = WeightedDigraph(2, ((0, 1, 1.0),))
    gb = WeightedDigraph(2, ((1, 0, 1.0),))
    sig = SwitchingSignal({"a": ga, "b": gb}, (("a", 1.0), ("b", 1.0)), 1.0)
    pots = [Quadratic(center=[0.0]), Quadratic(center=[0.0])]
    with pytest.raises(ConfigurationError):
        integrate(pots, sig, 1.0, [1.0, 0.0], dt=0.5, t_end=5.0, sample_every=1.0)


def test_divergence_guard_names_time():
    sig = fixed_signal(WeightedDigraph(1))
    with pytest.raises(FiniteEscapeError, match="RK4 step h=0.05 became unstable at t=0.05"):
        integrate([QuarticWell(center=[0.0])], sig, 0.0, [50.0], dt=0.05, t_end=5.0, sample_every=0.5)


def test_guard_reports_a_nan_state_as_an_infinite_sup_norm():
    # the wells' cubes overflow to +-inf within the first step, and inf - inf is NaN
    pots = [QuarticWell(center=[1e100]), QuarticWell(center=[-1e100])]
    g = two_node_graph()
    with np.errstate(over="ignore", invalid="ignore"):
        X = simulator._rk4_step(compile_network(pots, 2), g.laplacian_matrix, 1.0,
                                np.zeros((2, 1)), 0.01)
    assert np.isnan(X).any()
    with pytest.raises(FiniteEscapeError) as caught:
        integrate(pots, fixed_signal(g), 1.0, [0.0, 0.0], dt=0.01, t_end=1.0)
    assert caught.value.time == 0.01
    assert caught.value.sup_norm == math.inf


def test_input_validation():
    sig = fixed_signal(two_node_graph())
    pots = [Quadratic(center=[0.0]), Quadratic(center=[0.0])]
    with pytest.raises(InputError):
        integrate(pots, sig, 1.0, [1.0], dt=0.01, t_end=1.0, sample_every=0.1)  # wrong length
    with pytest.raises(InputError):
        integrate(pots, sig, -1.0, [1.0, 0.0], dt=0.01, t_end=1.0, sample_every=0.1)
    with pytest.raises(InputError):
        integrate(pots[:1], sig, 1.0, [1.0, 0.0], dt=0.01, t_end=1.0, sample_every=0.1)


def test_equilibrium_oracle_two_node():
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0])]
    g = two_node_graph()
    x_star = equilibrium_oracle_quadratic(pots, g, 1.0)
    np.testing.assert_allclose(x_star, [[1.0 / 3.0], [2.0 / 3.0]], atol=1e-12)
    out = rhs_at(pots, fixed_signal(g), 1.0, 0.0, x_star)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_equilibrium_oracle_decoupled():
    pots = [Quadratic(center=[-1.0], weight=2.0), Quadratic(center=[4.0])]
    x_star = equilibrium_oracle_quadratic(pots, two_node_graph(), 0.0)
    np.testing.assert_allclose(x_star, [[-1.0], [4.0]])


def test_equilibrium_oracle_common_center_fixed_point():
    pots = [Quadratic(center=[0.8]), Quadratic(center=[0.8], weight=3.0)]
    for K in (0.0, 1.0, 10.0):
        np.testing.assert_allclose(
            equilibrium_oracle_quadratic(pots, two_node_graph(), K), [[0.8], [0.8]], atol=1e-12
        )


def test_equilibrium_oracle_rejects_non_quadratic():
    with pytest.raises(PreconditionError):
        equilibrium_oracle_quadratic(
            [Quadratic(center=[0.0]), QuarticWell(center=[0.0])], two_node_graph(), 1.0
        )


def test_convergence_to_equilibrium_monotone_in_horizon():
    pots = [Quadratic(center=[0.0]), Quadratic(center=[2.0], weight=0.5)]
    g = two_node_graph()
    x_star = equilibrium_oracle_quadratic(pots, g, 2.0)
    sig = fixed_signal(g)
    devs = []
    for t_end in (2.0, 5.0, 10.0):
        traj = integrate(pots, sig, 2.0, [5.0, -5.0], dt=0.01, t_end=t_end, sample_every=1.0)
        devs.append(np.abs(traj.states[-1] - x_star).max())
    assert devs[0] > devs[1] > devs[2]


def test_multidim_blocks():
    pots = [Quadratic(center=[0.0, 1.0]), Quadratic(center=[2.0, -1.0])]
    g = two_node_graph()
    sig = fixed_signal(g)
    traj = integrate(pots, sig, 1.0, [0.0, 0.0, 0.0, 0.0], dt=0.01, t_end=25.0, sample_every=1.0)
    x_star = equilibrium_oracle_quadratic(pots, g, 1.0)
    np.testing.assert_allclose(traj.states[-1], x_star, atol=1e-9)
    assert traj.states[:, 1].shape == (len(traj), 2)


def test_trajectory_meta():
    sig = fixed_signal(WeightedDigraph(1))
    traj = integrate(
        [Quadratic(center=[0.0])], sig, 0.5, [1.0], dt=0.02, t_end=1.0, sample_every=0.5,
        scenario_id="meta-check",
    )
    assert traj.meta["K"] == 0.5
    assert traj.meta["dt"] == 0.02
    assert traj.meta["scenario"] == "meta-check"


def test_sample_every_defaults_to_ten_steps():
    pots = [Quadratic(center=[0.0]), QuarticWell(center=[1.0])]
    dt = 0.03
    traj = integrate(pots, fixed_signal(two_node_graph()), 1.0, [2.0, -1.0], dt=dt, t_end=1.5)
    np.testing.assert_array_equal(traj.times, np.arange(6) * (10 * dt))
    assert traj.meta["sample_every"] == 10 * dt


def per_node_rk4(pots, signal, K, x0, dt, times):
    """RK4 over the recorded sample times, one oracle gradient call per node and stage."""

    def field(lap, x):
        X = x.reshape(len(pots), -1)
        drift = np.array([-oracle_gradient(p, xi) for p, xi in zip(pots, X)])
        return (drift - K * (lap @ X)).ravel()

    x = np.asarray(x0, dtype=float)
    states = [x]
    for t0, t1 in zip(times, times[1:]):
        lap = signal.graph_at(t0).laplacian_matrix
        nsteps = max(1, math.ceil((t1 - t0) / dt - 1e-9))
        h = (t1 - t0) / nsteps
        for _ in range(nsteps):
            k1 = field(lap, x)
            k2 = field(lap, x + 0.5 * h * k1)
            k3 = field(lap, x + 0.5 * h * k2)
            k4 = field(lap, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return np.array(states)


def test_integrate_matches_per_node_reference_on_switching_mixed_network():
    n = 6
    fwd = WeightedDigraph(n, tuple((i, (i + 1) % n, 1.0 + 0.1 * i) for i in range(n)))
    rev = WeightedDigraph(n, tuple(((i + 1) % n, i, 1.5) for i in range(n)))
    sig = SwitchingSignal({"f": fwd, "r": rev}, (("f", 0.3), ("r", 0.5)), 0.3)
    quad, quartic, flat = Quadratic, QuarticWell, FlatBottom1D
    pots = [
        quad(center=[0.5], weight=2.0),
        quartic(center=[-0.5]),
        flat(-0.25, 0.75),
        SumPotential((quad(center=[1.0]), quartic(center=[0.0]), flat(0.0, 0.5))),
        SumPotential((flat(-1.0, 0.0), SumPotential((quad(center=[0.2]), quartic(center=[0.3]))))),
        SumPotential((SumPotential((quartic(center=[1.0]), quad(center=[-1.0], weight=0.5))),)),
    ]
    x0 = np.linspace(-2.0, 2.0, n)
    traj = integrate(pots, sig, 1.5, x0, dt=0.05, t_end=4.0, sample_every=0.25)
    ref = per_node_rk4(pots, sig, 1.5, x0, 0.05, traj.times)
    ref = ref.reshape(traj.states.shape)
    np.testing.assert_allclose(traj.states, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def test_event_count_is_capped_before_the_grid_is_built():
    # two million sample instants, twice the cap: small enough to survive a broken cap
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0])]
    with pytest.raises(ConfigurationError, match="events"):
        integrate(pots, fixed_signal(two_node_graph()), 1.0, [0.0, 1.0], dt=0.1, t_end=2e3,
                  sample_every=1e-3)


@st.composite
def switching_runs(draw):
    """A two-graph periodic schedule, a horizon and a sampling interval.

    Durations and sampling intervals are free floats (non-commensurate) or
    round numbers (commensurate); some intervals put a sample a hair before
    the first switch, inside the event-merge tolerance.
    """
    duration = st.one_of(st.floats(0.25, 1.5), st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    segments = draw(
        st.lists(st.tuples(st.sampled_from("ab"), duration), min_size=2, max_size=4)
    )
    t_end = draw(st.floats(1.0, 5.0))
    sample_every = draw(
        st.one_of(
            st.floats(0.05, 2.0),
            st.sampled_from([0.1, 0.25, 0.5, 1.0]),
            st.floats(0.0, 1e-9 * t_end).map(lambda d: segments[0][1] - d),
        )
    )
    return segments, t_end, sample_every, draw(st.integers(4, 8))


@settings(max_examples=150, deadline=None)
@given(switching_runs())
# the last sample lies within the merge tolerance before t_end: the run still ends at t_end
@example(([("a", 1.0), ("a", 0.25)], 1.0, 0.999999999, 6))
# a span of 2e-9 or 1.5e-9 ends at the switch at 0.5: it runs on the graph before the switch
@example(([("a", 0.25), ("b", 0.25)], 1.0, 0.249999999, 4))
@example(([("a", 0.25), ("b", 0.25)], 1.0, 0.24999999925, 4))
def test_no_rk4_step_straddles_a_switch_and_every_switch_is_sampled(run):
    segments, t_end, sample_every, steps_per_dwell = run
    library = {
        "a": WeightedDigraph(2, ((0, 1, 1.0),)),
        "b": WeightedDigraph(2, ((1, 0, 2.0),)),
    }
    dwell = min(d for _, d in segments)
    sig = SwitchingSignal(library, tuple(segments), dwell)
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0])]
    steps = []
    rk4_step = simulator._rk4_step

    def recorded(net, lap, K, x, h):
        steps.append((lap, h))
        return rk4_step(net, lap, K, x, h)

    with mock.patch.object(simulator, "_rk4_step", recorded):
        traj = integrate(pots, sig, 1.0, [1.0, -1.0], dwell / steps_per_dwell, t_end, sample_every)

    # events closer than the merge tolerance are one event; step starts
    # rebuilt by summing steps get a second tolerance of slack
    tol = 1e-9 * max(1.0, t_end)
    switches = sig.switch_times(0.0, t_end)
    for s, _ in switches:
        assert np.min(np.abs(traj.times - s)) <= tol
    # each switch takes effect at the sample that records it, the recorded time nearest it
    takes_effect = [(traj.times[np.argmin(np.abs(traj.times - s))], g) for s, g in switches]
    t0 = 0.0
    for lap, h in steps:
        assert not any(t0 + 2 * tol < s < t0 + h - 2 * tol for s, _ in switches)
        # the step runs on the graph of the last switch to take effect before its midpoint
        gid = sig.graph_id_at(0.0)
        for e, g in takes_effect:
            if e < t0 + 0.5 * h:
                gid = g
        np.testing.assert_array_equal(lap, library[gid].laplacian_matrix)
        t0 += h
    assert t0 == pytest.approx(t_end, abs=tol)
