import collections
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import syncflow.simulator as simulator
from syncflow import (
    FiniteEscapeError,
    FlatBottom1D,
    InputError,
    Quadratic,
    QuarticWell,
    SumPotential,
    SwitchingSignal,
    WeightedDigraph,
    fixed_signal,
    integrate,
)
from syncflow.cli import load_scenario
from syncflow.potentials import NetworkPotential
from syncflow.simulator import sample_times
from util import (
    counted_drifts,
    equilibrium_oracle_quadratic,
    graph_id_at,
    negated_drift,
    network_drift,
    node_order_rk4,
    oracle_gradient,
    ring_graph,
    same_bits,
    undirected,
)


def two_node_graph():
    return undirected(2, [(0, 1)])


def rhs_at(pots, sig, K, t, X):
    """The right-hand side, the network drift, at time ``t`` on the graph active then."""
    return network_drift(pots, sig.library[graph_id_at(sig, t)].laplacian_matrix, K, X)


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


def catalog_kinds(m, reach=2.0):
    """One strategy per catalog kind of dimension ``m``, zero sets in [-reach, reach]; the
    flat bottom exists only in 1-D."""
    center = st.lists(st.floats(-reach, reach), min_size=m, max_size=m)
    kinds = [st.builds(Quadratic, center, st.floats(0.1, 3.0)), st.builds(QuarticWell, center)]
    if m == 1:
        bounds = st.tuples(st.floats(-reach, 0), st.floats(0, reach))
        kinds.append(bounds.map(lambda b: FlatBottom1D(*b)))
    return kinds


def catalog_terms(m):
    """Single catalog terms of dimension ``m``."""
    return st.one_of(catalog_kinds(m))


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
def test_negated_drift_on_a_lane_stack_equals_one_call_per_lane(case):
    pots, g, K, X = case
    net = NetworkPotential(pots)
    KL = net.coupling(g.laplacian_matrix, K)
    stacked = negated_drift(net, KL, X)
    assert stacked.shape == X.shape
    for lane in range(X.shape[0]):
        np.testing.assert_array_equal(stacked[lane], negated_drift(net, KL, X[lane]))


@st.composite
def folded_networks(draw):
    """A network whose nodes hold several quadratics, in flat and nested sums, and a state
    (N, m) or lane stack (B, N, m), with signed zeros among the coordinates."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    coord = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3, 3))
    quadratic = st.builds(Quadratic, st.lists(coord, min_size=m, max_size=m), st.floats(0.1, 3.0))
    term = st.one_of(quadratic, *catalog_kinds(m))
    flat = st.lists(term, min_size=1, max_size=3).map(lambda t: SumPotential(tuple(t)))
    pulls = st.lists(quadratic, min_size=2, max_size=3).map(lambda t: SumPotential(tuple(t)))
    nested = st.lists(st.one_of(term, flat, pulls), min_size=2, max_size=3).map(
        lambda t: SumPotential(tuple(t)))
    pots = draw(st.lists(st.one_of(term, flat, pulls, nested), min_size=n, max_size=n))
    arcs = draw(st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                st.floats(0.1, 2.0), max_size=3 * n))
    g = WeightedDigraph(n, tuple((j, i, w) for (j, i), w in arcs.items() if j != i))
    K = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 5.0)))
    lead = draw(st.sampled_from([(), (1,), (3,)]))
    return pots, g, K, draw(arrays(np.float64, (*lead, n, m), elements=coord))


@settings(max_examples=200, deadline=None)
@given(folded_networks())
# subnormal results, where each side rounds to 2^-1074 and the two differ by one ulp in node 1
@example(([Quadratic([0.0], 1.0), Quadratic([0.0], 0.5)], WeightedDigraph(2, ((0, 1, 0.25),)), 1.0,
          np.full((2, 1), 2.2250738585e-313)))
@example(([Quadratic([0.0], 1.0), Quadratic([0.0], 0.5)], WeightedDigraph(2, ((0, 1, 0.625),)), 2.0,
          np.full((2, 1), 2.2250738585e-313)))
@example(([Quadratic([0.0]), Quadratic([0.0])], WeightedDigraph(2, ((0, 1, 0.75),)), 2.0,
          np.array([[2.2250738585e-313], [0.0]])))
def test_negated_drift_equals_a_node_order_reference(case):
    # K (L X) + sum_i grad F_i(x_i), one oracle call per node, against the folded operator
    # A X - b plus the other kinds' slots, in block order and back
    pots, g, K, X = case
    lap, n, net = g.laplacian_matrix, len(pots), NetworkPotential(pots)
    A, Xb = net.coupling(lap, K), X.take(net.order, axis=-2)
    got = negated_drift(net, A, Xb).take(net.inverse, axis=-2)
    want = K * (lap @ X) + np.stack([oracle_gradient(p, X[..., i, :]) for i, p in enumerate(pots)],
                                    axis=-2)
    # each side sums at most n + 9 products (n coupling terms, up to 9 leaf terms a node), each
    # of magnitude at most K |L| |X| or a term's |w| (|x| + |c|) or |grad|, each rounded once,
    # with an error of at most eps times its magnitude or, where it is subnormal, 2^-1074
    scale = K * (np.abs(lap) @ np.abs(X))
    for i, p in enumerate(pots):
        x = X[..., i, :]
        for t in (p.terms if isinstance(p, SumPotential) else (p,)):
            scale[..., i, :] += (t.weight * (np.abs(x) + np.abs(t.center)) if isinstance(t, Quadratic)
                                 else np.abs(oracle_gradient(t, x)))
    assert got.shape == X.shape
    bound = 2 * (n + 9) * (np.finfo(float).eps * scale + math.ulp(0.0))
    assert np.all(np.abs(got - want) <= bound)


@settings(max_examples=200, deadline=None)
@given(folded_networks())
@example(([SumPotential((QuarticWell([0.5]), Quadratic([1.0], 2.0))), QuarticWell([-1.0])],
          undirected(2, [(0, 1)]), 1.5, np.array([[0.25], [-0.0]])))
@example(([SumPotential((FlatBottom1D(-1.0, 0.0), Quadratic([0.5], 1.5), FlatBottom1D(0.0, 1.0))),
           SumPotential((SumPotential((Quadratic([-0.0], 0.5), QuarticWell([2.0]))),
                         Quadratic([1.0], 3.0))),
           FlatBottom1D(-2.0, -1.0)],
          undirected(3, [(0, 1), (1, 2)]), 0.0, np.linspace(-2.0, 2.0, 9).reshape(3, 3, 1)))
@example(([SumPotential((QuarticWell([0.0, 1.0]), Quadratic([1.0, -1.0], 2.0),
                         QuarticWell([-1.0, 0.0]))), Quadratic([0.5, 0.5])],
          undirected(2, [(0, 1)]), 2.0, np.array([[[0.5, -0.0], [1.5, 2.0]]])))
# one node at -0: np.dot keeps 0·(-0) = -0 on a 1 x 1 operator, where matmul gives +0
@example(([QuarticWell([0.0])], WeightedDigraph(1), 0.0, np.array([[-0.0]])))
def test_negated_drift_is_the_folded_operator_plus_the_other_terms_in_term_order(case):
    # bit for bit: A Xb - b, with A Xb the evaluator's product (np.dot on a state, matmul on a
    # stack) and b each node's w c summed over its quadratics in term order, plus each node's
    # other terms' gradients added in term order, in block order
    pots, g, K, X = case
    net = NetworkPotential(pots)
    A, Xb = net.coupling(g.laplacian_matrix, K), X.take(net.order, axis=-2)
    rows = [pots[i].terms if isinstance(pots[i], SumPotential) else (pots[i],) for i in net.order]
    b = np.zeros((len(pots), X.shape[-1]))
    for j, terms in enumerate(rows):
        for t in terms:
            if isinstance(t, Quadratic):
                b[j] += t.weight * t.center
    want = (np.dot if Xb.ndim == 2 else np.matmul)(A, Xb) - b
    for j, terms in enumerate(rows):
        for t in terms:
            if not isinstance(t, Quadratic):
                want[..., j, :] += oracle_gradient(t, Xb[..., j, :])
    assert same_bits(negated_drift(net, A, Xb), want)


def test_negated_drift_calls_one_kernel_per_kind_of_non_quadratic_term(monkeypatch):
    # the smoke-size ring_switch_1d catalog: quadratic, quartic and flat-bottom nodes and sums
    # of a quadratic and a quartic; the quartics of both kinds of node share one kernel call,
    # wherever a sum lists its quartic, and the quadratics are in the operator
    calls = collections.Counter()
    for kind in (Quadratic, QuarticWell, FlatBottom1D):
        def counted(terms, kind=kind, kernel=kind._kernel):
            gradient, *rest = kernel(terms)

            def counted_gradient(x):
                calls[kind.__name__] += 1
                return gradient(x)
            return (counted_gradient, *rest)
        monkeypatch.setattr(kind, "_kernel", staticmethod(counted))
    sc = load_scenario(Path(__file__).parent / "golden" / "ring_switch_1d_7" / "scenario.json")
    pots, n = sc.potentials, sc.node_count
    quartic_first = [SumPotential(p.terms[::-1]) if isinstance(p, SumPotential) else p
                     for p in pots]
    assert any(isinstance(p, QuarticWell) for p in pots)
    assert any(isinstance(p, SumPotential) and isinstance(p.terms[0], Quadratic) for p in pots)
    pulls = [SumPotential((Quadratic([0.0]), Quadratic([2.0], 0.5))) if i % 2 else Quadratic([1.0])
             for i in range(n)]
    lap = sc.signal.library["even"].laplacian_matrix
    for catalog, want in ((pots, {"QuarticWell": 1, "FlatBottom1D": 1}),
                          (quartic_first, {"QuarticWell": 1, "FlatBottom1D": 1}), (pulls, {})):
        net = NetworkPotential(catalog)
        A = net.coupling(lap, sc.K)
        calls.clear()
        negated_drift(net, A, sc.x0.take(net.order, axis=0))
        assert calls == want


@settings(max_examples=100, deadline=None)
@given(lane_stacks())
def test_negated_drift_neither_writes_nor_aliases_its_input(case):
    pots, g, K, stack = case
    net = NetworkPotential(pots)
    KL = net.coupling(g.laplacian_matrix, K)
    for X in (stack[0].copy(), stack):  # one state (N, m) and a lane stack (B, N, m)
        before = X.tobytes()
        first = negated_drift(net, KL, X)
        second = negated_drift(net, KL, X)
        assert X.tobytes() == before
        assert not np.shares_memory(first, X) and not np.shares_memory(second, X)
        assert not np.shares_memory(second, first)
        # drift_into's evaluator writes the same drift into its ``out``, here the middle row
        # of a buffer, and nothing else: not X, nor the rows beside ``out``
        buffer = np.full((3, *X.shape), -7.0)
        out = buffer[1]
        assert net.drift_into(out)(KL, X) is out
        assert X.tobytes() == before and same_bits(out, first)
        assert np.all(buffer[[0, 2]] == -7.0)


def rk4_step(net, A, X, h):
    """``simulator._rk4_step`` from X, with the stage stack, its drifts and the weights built
    as ``integrate`` builds them: the next state and the stage drifts (4, N, m)."""
    stages = np.empty((4, X.size))
    drifts = [net.drift_into(row.reshape(X.shape)) for row in stages]
    weights = (h / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
    return simulator._rk4_step(drifts, stages, A, X, h, weights), stages.reshape(4, *X.shape)


@settings(max_examples=200, deadline=None)
@given(folded_networks(), st.floats(1e-3, 0.1))
def test_the_stage_drifts_are_negated_drift_and_the_step_its_rk4_combination(case, h):
    # on a state (N, m), each stage row holds negated_drift's bits at that stage's input; one
    # dot combines the rows, which rounds otherwise than the reference's in-place
    # S1 + 2 (S2 + S3) + S4 times h/6: within eps (|X| + 6 M) + 8 * 2^-1074, with
    # M = (h/6) (|S1| + 2 |S2| + 2 |S3| + |S4|) (CHANGES.md derives it)
    pots, g, K, X = case
    net = NetworkPotential(pots)
    A, Xb = net.coupling(g.laplacian_matrix, K), X.reshape(-1, *X.shape[-2:])[0]
    got, rows = rk4_step(net, A, Xb, h)
    S1 = negated_drift(net, A, Xb)
    S2 = negated_drift(net, A, Xb - (0.5 * h) * S1)
    S3 = negated_drift(net, A, Xb - (0.5 * h) * S2)
    S4 = negated_drift(net, A, Xb - h * S3)
    assert all(same_bits(row, S) for row, S in zip(rows, (S1, S2, S3, S4)))
    total = S2 + S3
    total *= 2.0
    total += S1
    total += S4
    total *= h / 6.0
    M = (h / 6.0) * (np.abs(S1) + 2.0 * np.abs(S2) + 2.0 * np.abs(S3) + np.abs(S4))
    bound = np.finfo(float).eps * (np.abs(Xb) + 6.0 * M) + 8 * math.ulp(0.0)
    assert np.all(np.abs(got - (Xb - total)) <= bound)


def test_integrate_builds_four_stage_drifts_whatever_its_step_count(monkeypatch):
    # one stage stack and its four evaluators per run, on every graph it visits; the step loop
    # calls them four times a step
    ga, gb = ring_graph(3), WeightedDigraph(3, ((0, 1, 1.0),))
    sig = SwitchingSignal({"a": ga, "b": gb}, (("a", 0.5), ("b", 0.5)), 0.5)
    pots = [Quadratic(center=[0.0]), QuarticWell(center=[1.0]),
            SumPotential((Quadratic(center=[0.5]), FlatBottom1D(-1.0, 0.0)))]
    counts = counted_drifts(monkeypatch)
    for dt, steps in ((0.125, 8), (0.01, 100)):
        counts.clear()
        integrate(pots, sig, 1.0, [1.0, -1.0, 0.5], dt=dt, t_end=1.0, sample_every=1.0)
        assert counts == {"built": 4, "calls": 4 * steps}


@pytest.mark.parametrize("t_end", [1e-10, 1e-9, 2e-9])
def test_a_horizon_within_the_merge_tolerance_is_refused_and_one_past_it_runs(t_end):
    # at t_end <= 1e-9 the end would merge into the event at 0, and the run would take no step
    pots, sig = [Quadratic([0.0]), Quadratic([1.0])], fixed_signal(two_node_graph())
    run = lambda: integrate(pots, sig, 1.0, [0.5, 0.2], dt=1e-11, t_end=t_end, sample_every=2e-9)
    if t_end <= simulator.MERGE_TOL:
        with pytest.raises(InputError, match=f"t_end={t_end} must exceed the event-merge"):
            run()
    else:
        traj = run()
        assert traj.times.tolist() == [0.0, t_end] and traj.states.shape == (2, 2, 1)


def test_a_run_records_its_end_off_the_sample_grid():
    # 100 steps to t_end 1.0, sampled every 0.3: the state at t_end is recorded too
    pots, sig = [Quadratic([0.0]), Quadratic([1.0])], fixed_signal(two_node_graph())
    traj = integrate(pots, sig, 1.0, [0.5, 0.2], dt=0.01, t_end=1.0, sample_every=0.3)
    assert traj.times.tolist() == [0.0, 0.3, 0.6, 3 * 0.3, 1.0] and traj.states.shape == (5, 2, 1)


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
    with pytest.raises(InputError, match="dwell_floor/4"):
        integrate(pots, sig, 1.0, [1.0, 0.0], dt=0.5, t_end=5.0, sample_every=1.0)


def test_divergence_guard_names_time():
    sig = fixed_signal(WeightedDigraph(1))
    with pytest.raises(FiniteEscapeError, match="RK4 step h=0.05 became unstable at t=0.05"):
        integrate([QuarticWell(center=[0.0])], sig, 0.0, [50.0], dt=0.05, t_end=5.0, sample_every=0.5)


def test_guard_reports_a_nan_state_as_an_infinite_sup_norm():
    # the wells' cubes overflow to +-inf within the first step, and inf - inf is NaN
    pots = [QuarticWell(center=[1e100]), QuarticWell(center=[-1e100])]
    g = two_node_graph()
    net = NetworkPotential(pots)
    KL = 1.0 * g.laplacian_matrix[np.ix_(net.order, net.order)]
    with np.errstate(over="ignore", invalid="ignore"):
        X, _ = rk4_step(net, KL, np.zeros((2, 1)), 0.01)
    assert np.isnan(X).any()
    with pytest.raises(FiniteEscapeError) as caught:
        integrate(pots, fixed_signal(g), 1.0, [0.0, 0.0], dt=0.01, t_end=1.0)
    assert caught.value.time == 0.01
    assert caught.value.sup_norm == math.inf


def test_a_state_past_the_x0_bound_runs_on_under_the_bound_of_the_zero_sets():
    # x0 = 0 bounds states by 1e8 until the centers at +-1e9 join the box: 1e17
    pots = [Quadratic(center=[1e9]), Quadratic(center=[-1e9])]
    traj = integrate(pots, fixed_signal(two_node_graph()), 1.0, [0.0, 0.0], dt=0.05, t_end=5.0)
    assert np.abs(traj.states).max() > 1e8


def test_a_trip_reports_the_bound_of_the_box_with_the_zero_sets():
    sig = fixed_signal(WeightedDigraph(1))
    with pytest.raises(FiniteEscapeError) as caught:
        integrate([QuarticWell(center=[1e3])], sig, 0.0, [0.0], dt=0.05, t_end=5.0)
    assert caught.value.bound == 1e11  # 1e8 times the center, not 1e8 from x0 = 0
    assert caught.value.time == 0.05


def test_input_validation():
    sig = fixed_signal(two_node_graph())
    pots = [Quadratic(center=[0.0]), Quadratic(center=[0.0])]
    with pytest.raises(InputError):
        integrate(pots, sig, 1.0, [1.0], dt=0.01, t_end=1.0, sample_every=0.1)  # wrong length
    with pytest.raises(InputError, match="K must be nonnegative, got -1.0"):
        integrate(pots, sig, -1.0, [1.0, 0.0], dt=0.01, t_end=1.0, sample_every=0.1)
    with pytest.raises(InputError, match="sample_every must be positive, got 0.0"):
        integrate(pots, sig, 1.0, [1.0, 0.0], dt=0.01, t_end=1.0, sample_every=0.0)
    with pytest.raises(InputError):
        integrate(pots[:1], sig, 1.0, [1.0, 0.0], dt=0.01, t_end=1.0, sample_every=0.1)


def test_integrate_names_both_counts_when_a_node_has_no_potential():
    sig = fixed_signal(two_node_graph())
    with pytest.raises(InputError, match=r"^1 potentials for 2 graph nodes$"):
        integrate([Quadratic(center=[0.0])], sig, 1.0, [1.0, 0.0], dt=0.01, t_end=1.0)


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
    with pytest.raises(InputError, match="all-quadratic"):
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
    assert traj.states[:, 1].shape == (len(traj.times), 2)


def test_sample_every_defaults_to_ten_steps():
    pots = [Quadratic(center=[0.0]), QuarticWell(center=[1.0])]
    dt = 0.03
    traj = integrate(pots, fixed_signal(two_node_graph()), 1.0, [2.0, -1.0], dt=dt, t_end=1.5)
    np.testing.assert_array_equal(traj.times, np.arange(6) * (10 * dt))


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
    ref = node_order_rk4(pots, sig, 1.5, x0, 0.05, traj.times)
    np.testing.assert_allclose(traj.states, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def interleaved(pots) -> bool:
    """Whether the network's block order moves a node: its kinds are interleaved."""
    return not np.array_equal(NetworkPotential(pots).order, np.arange(len(pots)))


@st.composite
def block_order_runs(draw):
    """A network of catalog terms and sums whose block order is not the node order, on a
    fixed graph or a two-graph switching signal, with a start in its stable range."""
    m, n = draw(st.sampled_from([1, 2])), draw(st.integers(2, 6))
    kinds = catalog_kinds(m, reach=1.0)  # three quartics curve at most 36 on [-1, 1]
    term = st.one_of(kinds)
    sums = st.lists(term, min_size=1, max_size=3).map(lambda t: SumPotential(tuple(t)))
    # a sum led by one kind, ahead of a lone term of that kind, whose signature sorts first
    kind = draw(st.sampled_from(kinds))
    pots = [SumPotential((draw(kind), draw(term))),
            *draw(st.lists(st.one_of(term, sums), min_size=n - 2, max_size=n - 2)), draw(kind)]
    arcs = st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           st.floats(0.1, 1.5), max_size=2 * n)
    a, b = (WeightedDigraph(n, tuple((j, i, w) for (j, i), w in draw(arcs).items() if j != i))
            for _ in range(2))
    durations = st.sampled_from([0.25, 0.5, 0.75])
    segments = draw(st.one_of(st.just(()), st.lists(st.tuples(st.sampled_from("ab"), durations),
                                                    min_size=2, max_size=4)))
    if segments:
        dwell = min(d for _, d in segments)
        sig = SwitchingSignal({"a": a, "b": b}, tuple(segments), dwell)
        dt = dwell / draw(st.integers(13, 20))
    else:
        sig, dt = fixed_signal(a), draw(st.sampled_from([0.01, 0.02]))
    K = draw(st.floats(0.0, 2.0))
    x0 = draw(arrays(np.float64, (n * m,), elements=st.floats(-1.0, 1.0)))
    return pots, sig, K, x0, dt, draw(st.sampled_from([0.1, 0.25, 0.3]))


@settings(max_examples=100, deadline=None)
@given(block_order_runs())
# subnormal states: the two orders of summation differ by one ulp, 2^-1074
@example(([SumPotential((Quadratic([0.0]), Quadratic([0.0]))), Quadratic([2.2250738585e-313], 0.5)],
          fixed_signal(WeightedDigraph(2)), 0.0, np.zeros(2), 0.02, 0.1))
def test_integrate_in_block_order_matches_the_node_order_reference(run):
    pots, sig, K, x0, dt, sample_every = run
    assert interleaved(pots)
    traj = integrate(pots, sig, K, x0, dt, 1.0, sample_every)
    ref = node_order_rk4(pots, sig, K, x0, dt, traj.times)
    # at most 1/dt + one step per span of the event grid, each of 4 drifts of at most
    # 2 (n + 9) rounded operations an entry (see the drift reference above) and 12 more for
    # the stages and their sum; a subnormal result rounds with an error of up to 2^-1074
    n = len(pots)
    ops = (math.ceil(1.0 / dt) + len(traj.times) + 1) * (8 * (n + 9) + 12)
    assert np.max(np.abs(traj.states - ref)) <= 1e-12 * np.max(np.abs(ref)) + ops * math.ulp(0.0)


def test_first_sample_is_x0_bit_for_bit_with_interleaved_kinds():
    pots = [SumPotential((Quadratic(center=[0.0]), QuarticWell(center=[1.0]))),
            QuarticWell(center=[0.5]), Quadratic(center=[0.2]), FlatBottom1D(-1.0, 1.0),
            Quadratic(center=[1.0])]
    assert interleaved(pots)
    x0 = np.array([0.1, -0.0, 5e-324, -0.3, 2.5])
    traj = integrate(pots, fixed_signal(ring_graph(5)), 1.0, x0, dt=0.01, t_end=0.1)
    assert traj.states[0].tobytes() == x0.reshape(5, 1).tobytes()


def test_event_count_is_capped_before_the_grid_is_built():
    # two million sample instants, twice the cap: small enough to survive a broken cap
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0])]
    with pytest.raises(InputError, match="events"):
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
    net = NetworkPotential(pots)
    steps = []
    step = simulator._rk4_step

    def recorded(drifts, stages, A, x, h, weights):
        steps.append((A, h))
        return step(drifts, stages, A, x, h, weights)

    with mock.patch.object(simulator, "_rk4_step", recorded):
        traj = integrate(pots, sig, 1.0, [1.0, -1.0], dwell / steps_per_dwell, t_end, sample_every)

    # events closer than the merge tolerance are one event; step starts
    # rebuilt by summing steps get a second tolerance of slack
    tol = 1e-9 * max(1.0, t_end)
    switches = sig.switch_times(t_end)
    for s, _ in switches:
        assert np.min(np.abs(traj.times - s)) <= tol
    # each switch takes effect at the sample that records it, the recorded time nearest it
    takes_effect = [(traj.times[np.argmin(np.abs(traj.times - s))], g) for s, g in switches]
    t0 = 0.0
    for A, h in steps:
        assert not any(t0 + 2 * tol < s < t0 + h - 2 * tol for s, _ in switches)
        # the step runs on the graph of the last switch to take effect before its midpoint,
        # as that graph's operator K·L + diag(weights) in the network's block order
        gid = graph_id_at(sig, 0.0)
        for e, g in takes_effect:
            if e < t0 + 0.5 * h:
                gid = g
        np.testing.assert_array_equal(A, net.coupling(library[gid].laplacian_matrix, 1.0))
        t0 += h
    assert t0 == pytest.approx(t_end, abs=tol)


@st.composite
def segment_tables(draw):
    """A segment table over three graphs whose period exceeds 1e-9, its first segments
    often shorter than that, a horizon and a sampling interval."""
    n = draw(st.integers(1, 5))
    ids = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    tiny = st.floats(1e-10, 3e-9) | st.sampled_from([5e-10, 1e-9, 2e-9])
    durs = draw(st.lists(tiny | st.floats(0.05, 2.0), min_size=n, max_size=n))
    period = sum(durs)
    assume(period > 1e-9)
    # at most about 1000 periods, so the grid stays small
    if period < 0.05:
        t_end = draw(st.floats(10.0, 1000.0)) * period
    else:
        t_end = draw(st.floats(0.1, 30.0))
    sample_every = t_end / draw(st.floats(1.0, 300.0) | st.sampled_from([1.0, 4.0, 10.0]))
    return tuple(zip(ids, durs)), t_end, sample_every


@settings(max_examples=300, deadline=None)
@given(segment_tables())
def test_every_span_of_the_event_grid_runs_on_the_graph_at_its_start(case):
    segments, t_end, sample_every = case
    library = {g: WeightedDigraph(2, ((0, 1, w),)) for g, w in zip("abc", (1.0, 2.0, 3.0))}
    sig = SwitchingSignal(library, segments, min(d for _, d in segments))
    events = simulator._event_grid(sig, t_end, sample_every)
    assert events[0][0] == 0.0 and events[0][1] is not None
    # every event is a recorded time; they lie more than the merge tolerance apart, so
    # every span of the run is positive, and the last is t_end
    tol = 1e-9 * max(1.0, t_end)
    times = sample_times(sig, t_end, sample_every)
    assert times.tolist() == [t for t, _ in events] and times[-1] == t_end
    assert np.all(np.diff(times) > tol)
    dt = sig.dwell_floor / 4.0
    if t_end / dt <= 2000 and sample_every > tol:  # a grid cheap to run records these times
        traj = integrate([Quadratic([0.0]), Quadratic([1.0])], sig, 1.0, [1.0, -1.0], dt, t_end,
                         sample_every)
        assert traj.times.tobytes() == times.tobytes()
    # a switch up to the merge tolerance after an event takes effect at that event; one
    # the tolerance away, up to rounding, may fall on either side of it
    gid = None
    for t, g in events[:-1]:
        gid = gid if g is None else g
        early, late = (graph_id_at(sig, t, snap=tol * f) for f in (1 - 1e-6, 1 + 1e-6))
        assert gid in {early, late} and (early != late or gid == graph_id_at(sig, t, snap=tol))


@pytest.mark.parametrize("segments, t_end, sample_every", [
    ([("a", 0.5)], 12.0, 0.3),  # a fixed graph, t_end no multiple of sample_every
    ([("a", 0.25), ("b", 0.25)], 1.0, 0.249999999),  # switches within the merge tolerance
    ([("a", 0.7), ("b", 0.45)], 5.0, 0.4),  # switches between samples
])
def test_sample_times_are_the_times_integrate_records(segments, t_end, sample_every):
    library = {gid: ring_graph(3) for gid, _ in segments}
    signal = SwitchingSignal(library, segments, min(d for _, d in segments))
    traj = integrate([Quadratic(center=[0.0])] * 3, signal, 1.0, [1.0, 0.0, -1.0], dt=0.05,
                     t_end=t_end, sample_every=sample_every)
    assert sample_times(signal, t_end, sample_every).tobytes() == traj.times.tobytes()
    assert traj.states.shape == (len(traj.times), 3, 1)
