import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from syncflow import (
    FlatBottom1D,
    InputError,
    NumericalError,
    Quadratic,
    QuarticWell,
    SumPotential,
    SwitchingSignal,
    WeightedDigraph,
    check_common_limit,
    check_feasibility,
    check_monotone,
    check_node_optimum,
    check_spectral_bound,
    check_sync_iff,
    fixed_signal,
    integrate,
    minimize_aggregate,
    sweep_K,
)
from syncflow.analysis import check_no_sync, check_sync, cube_containment
from syncflow.convex_geometry import zero_set_hull
from syncflow.potentials import NetworkPotential
from syncflow.simulator import diameter_series
from util import (
    aggregate_value_oracle,
    counted_drifts,
    equilibrium_oracle_quadratic,
    extreme_points_oracle,
    hull_projection_oracle,
    network_drift,
    path_graph,
    ring_graph,
    squared_polygon_distance_oracle,
    undirected,
)


def two_node():
    return undirected(2, [(0, 1)])


def alternating_chain_signal(n=3, seg=0.5):
    fwd = WeightedDigraph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))
    rev = WeightedDigraph(n, tuple((i + 1, i, 1.0) for i in range(n - 1)))
    return SwitchingSignal(
        {"fwd": fwd, "rev": rev}, (("fwd", seg), ("rev", seg)), seg
    )


# -- diagnostics --------------------------------------------------------------


def test_diagnostics_constant_consensus():
    pots = [Quadratic(center=[1.0]), QuarticWell(center=[1.0])]
    traj = integrate(pots, fixed_signal(two_node()), 1.0, [1.0, 1.0], dt=0.05, t_end=2.0, sample_every=0.2)
    assert np.all(traj.diameter == 0.0)
    assert np.all(traj.v == 0.0)
    assert np.all(traj.theta == 0.0)


def test_diagnostics_single_node_V_closed_form():
    # V(t) = (x0 - m)^2 e^{-2t} for a lone quadratic node
    pots = [Quadratic(center=[2.0])]
    traj = integrate(pots, fixed_signal(WeightedDigraph(1)), 0.0, [5.0], dt=0.005, t_end=4.0, sample_every=0.2)
    for t, v in zip(traj.times, traj.v):
        assert abs(v - 9.0 * math.exp(-2.0 * t)) < 1e-6


def test_diagnostics_v_nonincreasing_two_node():
    pots = [Quadratic(center=[0.5]), Quadratic(center=[0.5], weight=2.0)]
    traj = integrate(pots, fixed_signal(two_node()), 1.0, [4.0, -3.0], dt=0.01, t_end=10.0, sample_every=0.1)
    assert check_monotone(traj.v, label="V").passed


@st.composite
def trajectories(draw):
    """(S, N, m) states of a run."""
    m = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, 8))
    samples = draw(st.integers(1, 5))
    return draw(arrays(np.float64, (samples, n, m), elements=st.floats(-1e3, 1e3)))


@settings(max_examples=200, deadline=None)
@given(trajectories())
@example(np.array([[[3.236e-195], [0.0]]]))  # the norm's square is 0
def test_diameter_series_equals_pairwise_brute_force(X):
    # m = 1 is exact: |x_i - x_j| has no square to underflow or overflow,
    # so its oracle is the pair max of |x_i - x_j| and not of the norm
    samples, n, m = X.shape
    pair = (lambda d: np.abs(d[:, 0])) if m == 1 else (lambda d: np.linalg.norm(d, axis=1))
    expected = np.zeros(samples)
    for i in range(n):
        for j in range(i + 1, n):
            expected = np.maximum(expected, pair(X[:, i, :] - X[:, j, :]))
    got = diameter_series(X)
    np.testing.assert_array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()  # bit for bit, zero signs included


def test_diagnostics_auto_zstar_requires_intersection():
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0])]
    traj = integrate(pots, fixed_signal(two_node()), 1.0, [1.0, 0.0], dt=0.05, t_end=1.0, sample_every=0.2)
    assert traj.v is None and traj.theta is not None


def test_check_sync_fields():
    pots = [Quadratic(center=[1.0]), Quadratic(center=[1.0], weight=0.5)]
    traj = integrate(pots, fixed_signal(two_node()), 1.0, [3.0, -1.0], dt=0.02, t_end=30.0, sample_every=0.5)
    rep = check_sync(traj, tol=1e-6)
    assert rep.passed and rep.worst_value < 1e-6
    np.testing.assert_allclose(rep.params["limit_point"], [1.0], atol=1e-6)
    # the estimate is the tail-sup of the diameter over the last tail_fraction of the horizon
    tail = traj.times >= 30.0 * 0.7 - 1e-12
    loose = check_sync(traj, tol=1.0, tail_fraction=0.3)
    assert loose.worst_value == float(diameter_series(traj.states)[tail].max())


def test_sync_and_no_sync_reports():
    def run(pots):
        return integrate(pots, fixed_signal(two_node()), 1.0, [3.0, -1.0], 0.02, 30.0, 0.5)

    same = [Quadratic(center=[1.0]), Quadratic(center=[1.0], weight=0.5)]
    traj = run(same)
    rep = check_sync(traj, tol=1e-6)
    assert (rep.check, rep.passed) == ("sync", True)
    assert rep.worst_value == float(diameter_series(traj.states)[traj.times >= 24.0 - 1e-12].max())
    assert rep.params == {"tol": 1e-6, "limit_point": traj.states[-1].mean(axis=0).tolist()}
    # two-node disagreement law: unit weights, centers 0 and 1, K = 1 settle 1/3 apart
    apart = [Quadratic(center=[0.0]), Quadratic(center=[1.0])]
    traj = run(apart)
    rep = check_sync(traj, tol=1e-6)
    assert not rep.passed and rep.params["limit_point"] is None
    rep = check_no_sync(traj, floor=0.3)
    assert (rep.check, rep.passed) == ("no_sync", True)
    assert rep.worst_value == rep.params["observed_floor"] == pytest.approx(1 / 3, abs=1e-6)
    assert not check_no_sync(traj, floor=0.34).passed
    # the observed floor is the minimum over the tail window, here the whole run
    assert check_no_sync(traj, tail_fraction=1.0).worst_value == traj.diameter.min() < 0.3


def test_diagnostics_theta_is_max_squared_oracle_distance():
    # 2-D zero sets spanning a hull; the nodes start outside it and enter it
    centers = [[0.0, 0.0], [3.0, 0.5], [1.0, 2.5], [2.0, 1.0]]
    pots = [Quadratic(center=c, weight=1.0 + 0.5 * i) for i, c in enumerate(centers)]
    x0 = [6.0, -2.0, -4.0, 5.0, 1.5, 7.0, -3.0, -3.0]
    traj = integrate(pots, fixed_signal(ring_graph(4)), 0.7, x0, dt=0.02, t_end=6.0, sample_every=0.1)
    verts = zero_set_hull(pots).vertices
    ref = np.array(
        [max(float(np.sum((x - hull_projection_oracle(verts, x)) ** 2)) for x in blocks)
         for blocks in traj.states]
    )
    assert ref[0] > 10.0 and ref[-1] == 0.0
    np.testing.assert_allclose(traj.theta, ref, rtol=1e-12, atol=0.0)


def test_theta_of_nodes_leaving_the_hull_is_the_exact_polygon_distance():
    # the bench's hull_2d shape cut to 8 nodes: quadratics on the corners of a
    # square of radius 4 turned 22.5 degrees, a sum whose quartic center lies
    # beyond the fourth corner, and three inner nodes, on a directed ring that
    # switches direction; the sum's drift carries nodes out of the hull and back
    corners = [[4.0 * math.cos(a), 4.0 * math.sin(a)]
               for a in (math.radians(22.5) + math.pi / 4 + k * math.pi / 2 for k in range(4))]
    pots = [Quadratic(center=c, weight=w) for c, w in zip(corners, (0.804, 1.883, 1.882, 1.429))]
    pots += [
        SumPotential((Quadratic(center=corners[3]),
                      QuarticWell(center=[corners[3][0] + 4.0, corners[3][1] - 1.0]))),
        SumPotential((Quadratic(center=[1.012, 1.779], weight=1.039),
                      QuarticWell(center=[1.857, 1.788]))),
        Quadratic(center=[-0.421, 1.811], weight=1.738),
        SumPotential((Quadratic(center=[1.624, -1.750], weight=0.516),
                      QuarticWell(center=[1.536, -0.777]))),
    ]
    fwd = (1.961, 0.678, 0.898, 1.131, 1.449, 0.562, 1.560, 1.078)
    rev = (1.898, 1.077, 0.955, 1.124, 1.812, 1.857, 0.826, 0.628)
    graphs = {"fwd": WeightedDigraph(8, tuple((i, (i + 1) % 8, w) for i, w in enumerate(fwd))),
              "rev": WeightedDigraph(8, tuple(((i + 1) % 8, i, w) for i, w in enumerate(rev)))}
    sig = SwitchingSignal(graphs, (("fwd", 0.4), ("rev", 0.4)), 0.4)
    x0 = [0.028, -0.44, 0.938, -1.241, -1.114, 0.141, 0.009, 1.174,
          1.379, 0.829, 1.185, 0.549, 0.949, -0.95, -0.176, -0.918]
    traj = integrate(pots, sig, 1.0, x0, dt=0.02, t_end=6.0, sample_every=0.05)
    polygon = extreme_points_oracle(np.vstack([p.zero_set().extreme_points() for p in pots]))
    ref = np.array([float(max(squared_polygon_distance_oracle(polygon, x) for x in blocks))
                    for blocks in traj.states])
    assert 0 < np.count_nonzero(ref) < ref.size - 50
    np.testing.assert_allclose(traj.theta, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("m", [1, 2])
def test_diagnostics_argmin_dist_equals_each_zero_set_distance(m):
    # points, intervals and boxes of several kinds, each node against its own zero set
    rng = np.random.default_rng(8 + m)
    pots = []
    for i in range(6):
        c = rng.uniform(-2, 2, m)
        pots.append([
            Quadratic(center=c, weight=1.5),
            QuarticWell(center=c),
            SumPotential((Quadratic(center=c), QuarticWell(center=-c))),
            FlatBottom1D(-1.0, 0.5) if m == 1
            else SumPotential((Quadratic(center=c), Quadratic(center=-c))),
        ][i % 4])
    traj = integrate(pots, fixed_signal(ring_graph(6)), 0.3, rng.uniform(-4, 4, 6 * m),
                     dt=0.05, t_end=3.0, sample_every=0.1)
    per_node = np.stack(
        [p.zero_set().distance(traj.states[:, i]) for i, p in enumerate(pots)], axis=1
    )
    assert traj.argmin_dist.shape == per_node.shape
    assert traj.argmin_dist.tobytes() == per_node.tobytes()
    assert traj.argmin_dist[0].max() > 0.0


# -- monotonicity -------------------------------------------------------------


def test_check_monotone_flags_synthetic_rise():
    rep = check_monotone([0.0, 1.0, 2.0], rise_tol=1e-8)
    assert not rep.passed
    assert rep.location["index"] == 0


def test_check_monotone_accepts_within_tolerance():
    assert check_monotone([1.0, 1.0 + 1e-12, 0.5]).passed


def test_theta_monotone_under_arbitrary_switching():
    # theta needs no connectivity at all, only the projection inequality
    pots = [Quadratic(center=[-1.0]), QuarticWell(center=[0.5]), FlatBottom1D(0.0, 1.0)]
    sig = alternating_chain_signal()
    traj = integrate(pots, sig, 1.0, [4.0, -4.0, 2.5], dt=0.01, t_end=8.0, sample_every=0.05)
    assert check_monotone(traj.theta, label="theta").passed


# -- common limit and node optimum --------------------------------------------


def test_common_limit_ujsc_run():
    pots = [Quadratic(center=[1.0], weight=w) for w in (0.5, 1.0, 2.0)]
    sig = alternating_chain_signal()
    traj = integrate(pots, sig, 1.0, [4.0, -3.0, 0.5], dt=0.05, t_end=60.0, sample_every=0.5)
    rep = check_common_limit(traj, tol=1e-6)
    assert rep.passed
    # exact sync to the common center means d* = |limit - z*| = 0
    assert rep.params["d_star_estimate"] < 1e-4


def test_common_limit_fails_with_isolated_node():
    ga = WeightedDigraph(3, ((0, 1, 1.0),))
    gb = WeightedDigraph(3, ((1, 0, 1.0),))
    sig = SwitchingSignal({"a": ga, "b": gb}, (("a", 0.5), ("b", 0.5)), 0.5)
    pots = [FlatBottom1D(0.0, 2.0), FlatBottom1D(0.0, 2.0), FlatBottom1D(1.9, 2.0)]
    traj = integrate(pots, sig, 1.0, [0.2, 0.4, 5.0], dt=0.05, t_end=40.0, sample_every=0.5)
    rep = check_common_limit(traj, tol=1e-3)
    assert not rep.passed


def test_common_limit_needs_tail_samples():
    pots = [Quadratic(center=[0.0])]
    traj = integrate(pots, fixed_signal(WeightedDigraph(1)), 0.0, [1.0], dt=0.05, t_end=1.0, sample_every=0.5)
    with pytest.raises(InputError, match="need >= 10"):
        check_common_limit(traj, tail_fraction=0.2, tol=1e-6)


def test_node_optimum_ujsc_and_decoupled():
    pots = [Quadratic(center=[1.0]), QuarticWell(center=[1.0]), Quadratic(center=[1.0], weight=2.0)]
    sig = alternating_chain_signal()
    traj = integrate(pots, sig, 1.0, [3.0, -2.0, 0.0], dt=0.05, t_end=80.0, sample_every=0.5)
    assert check_node_optimum(traj, tol=1e-4).passed
    # K = 0: every node descends its own potential
    pots_d = [Quadratic(center=[-1.0]), Quadratic(center=[2.0]), Quadratic(center=[0.0])]
    traj_d = integrate(pots_d, fixed_signal(ring_graph(3)), 0.0, [4.0, -4.0, 1.0], dt=0.02, t_end=30.0, sample_every=0.5)
    assert check_node_optimum(traj_d, tol=1e-6).passed


def test_node_optimum_fails_off_argmin_equilibrium():
    # empty intersection: the coupled equilibrium sits off every argmin
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0])]
    g = two_node()
    traj = integrate(pots, fixed_signal(g), 1.0, [0.5, 0.5], dt=0.02, t_end=30.0, sample_every=0.5)
    rep = check_node_optimum(traj, tol=1e-3)
    assert not rep.passed
    x_star = equilibrium_oracle_quadratic(pots, g, 1.0)
    assert abs(x_star[0] - 0.0) > 1e-2 and abs(x_star[1] - 1.0) > 1e-2


# -- aggregate potential -------------------------------------------------------


def test_gradient_identity_against_rhs():
    # independent edge-loop assembly of grad F_G must equal minus the drift to 1e-12
    rng = np.random.default_rng(42)
    pots = [
        Quadratic(center=[0.3], weight=1.5),
        QuarticWell(center=[-0.4]),
        SumPotential((Quadratic(center=[1.0]), QuarticWell(center=[0.0]))),
        FlatBottom1D(-1.0, 0.5),
    ]
    pairs = [(0, 1, 1.3), (1, 2, 0.7), (2, 3, 2.0), (0, 3, 1.1)]
    arcs = tuple((i, j, w) for i, j, w in pairs) + tuple((j, i, w) for i, j, w in pairs)
    g = WeightedDigraph(4, arcs)
    K = 1.7
    for _ in range(100):
        x = rng.uniform(-5, 5, 4)
        grad = np.zeros(4)
        for i, p in enumerate(pots):
            grad[i] = p.gradient([x[i]])[0]
        for i, j, w in pairs:
            grad[i] += K * w * (x[i] - x[j])
            grad[j] += K * w * (x[j] - x[i])
        from_field = -network_drift(pots, g.laplacian_matrix, K, x.reshape(4, 1))
        assert np.abs(grad - from_field[:, 0]).max() <= 1e-12


def test_aggregate_potential_finite_difference():
    pots = [Quadratic(center=[0.0]), QuarticWell(center=[1.0]), Quadratic(center=[-1.0], weight=2.0)]
    g = ring_graph(3)
    K = 0.8
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(-2, 2, 3)
        grad = -network_drift(pots, g.laplacian_matrix, K, x.reshape(3, 1))[:, 0]
        h = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (aggregate_value_oracle(pots, g, K, x + e)
                  - aggregate_value_oracle(pots, g, K, x - e)) / (2 * h)
            assert abs(fd - grad[k]) < 1e-5


def test_minimize_aggregate_matches_linear_oracle():
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0]), Quadratic(center=[-2.0], weight=2.0)]
    g = path_graph(3)
    for K in (0.5, 2.0):
        p = minimize_aggregate(pots, g, K, [0.0, 0.0, 0.0], tol=1e-11)
        oracle = equilibrium_oracle_quadratic(pots, g, K)
        np.testing.assert_allclose(p, oracle, atol=1e-6)


def test_minimize_aggregate_common_zero_returns_consensus():
    c = 0.7
    pots = [
        Quadratic(center=[c]),
        SumPotential((Quadratic(center=[c]), QuarticWell(center=[c]))),
        Quadratic(center=[c], weight=2.0),
    ]
    p = minimize_aggregate(pots, ring_graph(3), 1.0, [2.0, -1.0, 0.4], tol=1e-10)
    np.testing.assert_allclose(p, c, atol=1e-4)


def test_minimize_aggregate_K_zero_separable():
    pots = [Quadratic(center=[-1.0]), Quadratic(center=[3.0], weight=0.5)]
    p = minimize_aggregate(pots, two_node(), 0.0, [0.0, 0.0], tol=1e-10)
    np.testing.assert_allclose(p, [[-1.0], [3.0]], atol=1e-8)


def test_minimize_aggregate_requires_symmetric_graph():
    with pytest.raises(InputError, match="symmetric"):
        minimize_aggregate([Quadratic(center=[0.0])] * 2, WeightedDigraph(2, ((0, 1, 1.0),)), 1.0, [0.0, 0.0])


@st.composite
def aggregate_problems(draw):
    """A catalog network on a connected symmetric graph, a gain K in (0, 30] and a start.

    A node is any catalog term or a sum of two or three, so a quartic or a flat
    bottom may stand alone: a quartic centered inside every flat bottom around
    it leaves the aggregate with no curvature at its minimizer.  Quadratic
    weights keep the condition number in the thousands.
    """
    m, n = draw(st.integers(1, 3)), draw(st.integers(2, 12))
    center = st.lists(st.floats(-5, 5), min_size=m, max_size=m)
    kinds = [st.builds(Quadratic, center, st.floats(0.5, 3.0)), st.builds(QuarticWell, center)]
    if m == 1:
        kinds.append(st.tuples(st.floats(-5, 0), st.floats(0, 5)).map(lambda b: FlatBottom1D(*b)))
    term = st.one_of(kinds)
    summed = st.lists(term, min_size=2, max_size=3).map(lambda ts: SumPotential(tuple(ts)))
    pots = draw(st.lists(term | summed, min_size=n, max_size=n))
    # a random spanning tree keeps the graph connected; chords are optional
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    arcs = []
    for i, j in sorted(edges):
        w = draw(st.floats(0.1, 2.0))
        arcs += [(i, j, w), (j, i, w)]
    K = draw(st.floats(0.0, 30.0, exclude_min=True))
    x0 = draw(arrays(np.float64, (n, m), elements=st.floats(-100.0, 100.0)))
    return pots, WeightedDigraph(n, tuple(arcs)), K, x0


@settings(max_examples=100, deadline=None)
@given(aggregate_problems())
# centers at 1e20, whose ulp is 16384: only the exact minimizer meets the tolerance
@example(([Quadratic(center=[1e20])] * 2, two_node(), 1.0, np.zeros((2, 1))))
# a subnormal K leaves the blocks of components 0 and 1 all zero: only the ridge's floor is left
@example(([QuarticWell(center=[0.0, 0.0, 0.0]), QuarticWell(center=[0.0, 0.0, 1.0])],
          undirected(2, [(0, 1)], 0.5), 5e-324, np.zeros((2, 3))))
def test_minimize_aggregate_reaches_the_gradient_tolerance(case):
    pots, g, K, x0 = case
    p = minimize_aggregate(pots, g, K, x0, tol=1e-10)
    grad = network_drift(pots, g.laplacian_matrix, K, p)
    assert np.linalg.norm(grad) <= 1e-10
    if all(isinstance(q, Quadratic) for q in pots):
        np.testing.assert_allclose(p, equilibrium_oracle_quadratic(pots, g, K), rtol=0, atol=1e-8)


@st.composite
def quadratic_networks(draw):
    """An all-quadratic network of at most 4 nodes, some sums of two quadratics, on an
    undirected graph, and a start (N, m)."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    quadratic = st.builds(Quadratic, st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m),
                          st.floats(1.0, 2.0))
    summed = st.tuples(quadratic, quadratic).map(SumPotential)
    pots = draw(st.lists(quadratic | summed, min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    arcs = []
    for i, j in sorted(set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n))) if pairs else ()):
        w = draw(st.floats(0.1, 1.0))
        arcs += [(i, j, w), (j, i, w)]
    K = draw(st.floats(0.0, 1.0))
    x0 = draw(arrays(np.float64, (n, m), elements=st.floats(-3.0, 3.0)))
    return pots, WeightedDigraph(n, tuple(arcs)), K, x0


@settings(max_examples=200, deadline=None)
@given(quadratic_networks())
def test_one_newton_step_lands_on_the_all_quadratic_equilibrium(case):
    # the aggregate is quadratic with Hessian H = K·L + diag(summed weights) per component, so
    # one Newton step reaches its minimizer x* but for the ridge r = 1e-14 trace(H) / N <= 7e-14:
    # it lands r (H + r)^-1 (x0 - x*) away, at most 7e-14 * 2 * 6 = 8.4e-13 with H >= 1 and
    # |x0 - x*|_2 <= 2 * 6.  A weight counted twice would step elsewhere
    pots, g, K, x0 = case
    assume(np.linalg.norm(network_drift(pots, g.laplacian_matrix, K, x0)) > 1e-10)  # a step is due
    # a sum of quadratics is one quadratic: weight sum w_t, center sum w_t c_t / sum w_t
    single = [Quadratic(sum(t.weight * t.center for t in p.terms) / sum(t.weight for t in p.terms),
                        sum(t.weight for t in p.terms)) if isinstance(p, SumPotential) else p
              for p in pots]
    p = minimize_aggregate(pots, g, K, x0, tol=1e-10, max_iter=1)
    np.testing.assert_allclose(p, equilibrium_oracle_quadratic(single, g, K), rtol=0, atol=1e-12)


def test_minimize_aggregate_settles_a_node_pulled_across_a_flat_bottom_edge():
    # the flat-bottom node ends on its edge at -1, pulled outward by K * 1 ~ 2e-18; with
    # curvature 0 there, that pull over the ridge alone is a step 2.5e-4 past the edge, and
    # the halvings that undo it leave the quartic node all but still
    pots = [Quadratic(center=[-2.0]), QuarticWell(center=[0.0]), Quadratic(center=[0.0]),
            FlatBottom1D(-1.0, 0.0)]
    g, K = undirected(4, [(0, 1), (0, 2), (0, 3)]), 1.8939431562421724e-18
    p = minimize_aggregate(pots, g, K, np.full((4, 1), -1e4), tol=1e-10)
    assert np.linalg.norm(network_drift(pots, g.laplacian_matrix, K, p)) <= 1e-10


def test_minimize_aggregate_names_a_stall(monkeypatch):
    # the 6-node ring of the CLI's warm-start test; no float state has a gradient norm of 1e-300,
    # so once Newton has converged no halving of its step lowers the norm
    n = 6
    pots = [Quadratic(center=[2.0]) if i % 2 == 0 else
            SumPotential((Quadratic(center=[0.1 * i]), QuarticWell(center=[-0.1 * i])))
            for i in range(n)]
    counts = counted_drifts(monkeypatch)
    with pytest.raises(NumericalError, match="stalled"):
        minimize_aggregate(pots, ring_graph(n), 8.0, [float(i % 5) - 2.0 for i in range(n)],
                           tol=1e-300)
    assert 0 < counts["calls"] <= 500


def test_minimize_aggregate_builds_the_coupling_once(monkeypatch):
    # K·L is permuted into block order, and the drift evaluator built, once per call, not
    # once per gradient or Newton step
    pots = [Quadratic(center=[0.0]), QuarticWell(center=[1.0]), Quadratic(center=[-1.0]),
            SumPotential((Quadratic(center=[0.5]), QuarticWell(center=[0.0])))]
    calls = []
    coupling = NetworkPotential.coupling
    monkeypatch.setattr(NetworkPotential, "coupling", lambda *a: calls.append(1) or coupling(*a))
    drifts = counted_drifts(monkeypatch)
    for x0 in ([0.0] * 4, [5.0, -3.0, 2.0, 1.0]):
        calls.clear()
        drifts.clear()
        p = minimize_aggregate(pots, ring_graph(4), 1.3, x0, tol=1e-10)
        assert len(calls) == 1
        assert drifts["built"] == 1 and drifts["calls"] > 2
        assert np.linalg.norm(network_drift(pots, ring_graph(4).laplacian_matrix, 1.3, p)) <= 1e-10


def test_aggregate_evaluators_name_both_counts_when_a_node_has_no_potential():
    pots, g = [Quadratic(center=[0.0])] * 2, ring_graph(3)
    message = r"^2 potentials for 3 graph nodes$"
    with pytest.raises(InputError, match=message):
        minimize_aggregate(pots, g, 1.0, [0.0, 0.0])
    # the count is checked before the start is reshaped, so a short one is no numpy ValueError
    with pytest.raises(InputError, match=message) as caught:
        check_spectral_bound(pots, g, 1.0, [0.0, 0.0])
    assert not isinstance(caught.value, ValueError)


def test_minimize_aggregate_names_an_exhausted_budget():
    # Newton shrinks a quartic's offset by a third per step: 1e3 is still far after two
    pots = [QuarticWell(center=[0.0])] * 2
    with pytest.raises(NumericalError, match="exhausted 2 iterations"):
        minimize_aggregate(pots, two_node(), 1.0, [1e3, 1e3], tol=1e-10, max_iter=2)


def test_warm_started_minimizer_ignores_the_last_bits_of_its_start():
    # Newton lands where its last step from the flow's last sample puts it, to ~1 ulp;
    # a method that stops anywhere within the gradient tolerance moved lhs by 9e-14
    n, K = 6, 8.0
    pots = [Quadratic(center=[(-1.0) ** i * 2.0]) if i % 2 == 0 else
            SumPotential((Quadratic(center=[0.1 * i]), QuarticWell(center=[-0.1 * i])))
            for i in range(n)]
    g = ring_graph(n)
    x0 = [float(i % 5) - 2.0 for i in range(n)]
    last = integrate(pots, fixed_signal(g), K, x0, 0.01, 6.0).states[-1]
    lhs = []
    for scale in (1.0, 1 + 1e-15, 1 - 1e-15, 1 + 2e-15, 1 - 2e-15, 1 + 4e-15, 1 - 4e-15):
        lhs.append(check_spectral_bound(pots, g, K, last * scale).params["lhs"])
    assert max(abs(v - lhs[0]) for v in lhs) <= 1e-14 * lhs[0]


# -- spectral bound ------------------------------------------------------------


def test_spectral_bound_hand_instance_equality():
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0])]
    g = two_node()
    rep = check_spectral_bound(pots, g, 1.0, [0.3, 0.4], grad_tol=1e-12)
    assert rep.passed
    assert rep.params["lhs"] == pytest.approx(1.0 / 18.0, abs=1e-9)
    assert rep.params["bound"] == pytest.approx(1.0 / 18.0, abs=1e-9)


def test_spectral_bound_common_zero_lhs_zero():
    pots = [Quadratic(center=[1.0]), Quadratic(center=[1.0], weight=2.0)]
    g = two_node()
    rep = check_spectral_bound(pots, g, 1.0, [0.0, 0.0], grad_tol=1e-12)
    assert rep.passed and rep.params["lhs"] < 1e-20


def test_spectral_bound_lhs_shrinks_quadratically_in_K():
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0])]
    g = two_node()
    lhs = {}
    for K in (1.0, 2.0):
        lhs[K] = check_spectral_bound(pots, g, K, [0.3, 0.4], grad_tol=1e-12).params["lhs"]
    # disagreement d* = 1/(1+2K): K=1 -> 1/18, K=2 -> 1/50
    assert lhs[1.0] == pytest.approx(1.0 / 18.0, abs=1e-9)
    assert lhs[2.0] == pytest.approx(1.0 / 50.0, abs=1e-9)
    assert lhs[1.0] / lhs[2.0] == pytest.approx((25.0 / 9.0), rel=1e-6)


def test_spectral_bound_refuses_a_gain_that_is_not_positive():
    # the scenario loader's precondition calls the same rule (tests/test_cli.py)
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0])]
    with pytest.raises(InputError, match=r"^spectral bound needs K > 0, got 0\.0$"):
        check_spectral_bound(pots, two_node(), 0.0, [0.5, 0.5])


# -- exact-sync iff-check ------------------------------------------------------


def test_sync_iff_sufficiency_and_necessity():
    g = ring_graph(4)

    def run_diag(pots, x0):  # one run of the check, read by the library's own sync checks
        return integrate(pots, fixed_signal(g), 1.0, x0, 0.02, 40.0)

    common = [Quadratic(center=[0.3], weight=w) for w in (0.5, 1.0, 1.5, 2.0)]
    x0s = [np.array([2.0, -1.0, 0.0, 3.0]), np.zeros(4)]
    rep = check_sync_iff(common, g, 1.0, x0s, horizon=40.0, tol=1e-5, dt=0.02)
    assert rep.passed and rep.params["intersection_nonempty"]
    for run, x0 in zip(rep.params["runs"], x0s):
        assert run["tail_diameter"] == check_sync(run_diag(common, x0), tol=1e-5).worst_value

    disjoint = [QuarticWell(center=[c]) for c in (-1.5, -0.5, 0.5, 1.5)]
    x0 = np.array([2.0, -2.0, 1.0, -1.0])
    rep2 = check_sync_iff(disjoint, g, 1.0, [x0], horizon=40.0, tol=1e-5, dt=0.02, min_floor=1e-3)
    assert rep2.passed and not rep2.params["intersection_nonempty"]
    assert rep2.params["runs"][0]["observed_floor"] > 1e-3
    assert rep2.params["runs"][0]["observed_floor"] == check_no_sync(run_diag(disjoint, x0)).worst_value


def test_sync_iff_single_node_trivially_synced():
    g1 = WeightedDigraph(1)
    rep = check_sync_iff([Quadratic(center=[1.0])], g1, 0.0, [np.array([4.0])], horizon=30.0, tol=1e-5)
    assert rep.passed
    # no initial state is no evidence: an empty set is refused, not passed
    with pytest.raises(InputError, match="at least one initial state"):
        check_sync_iff([Quadratic(center=[1.0])], g1, 0.0, [], horizon=30.0, tol=1e-5)


# -- sweep ---------------------------------------------------------------------


def test_sweep_two_node_closed_form():
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0])]
    sig = fixed_signal(two_node())
    rep = sweep_K(pots, sig, [1.0, 0.0], [0.5, 1.0, 5.0, 10.0], epsilon=0.05, dt=0.01, t_end=20.0)
    assert (rep.check, rep.passed) == ("sweep_K", True)
    assert rep.params["params"] == {"dt": 0.01, "t_end": 20.0, "tail_fraction": 0.2}
    assert (rep.params["epsilon"], rep.params["pass"]) == (0.05, True)
    for row in rep.params["rows"]:
        assert row["error"] is None
        assert row["epsilon_estimate"] == pytest.approx(1.0 / (1.0 + 2.0 * row["K"]), abs=1e-4)


def test_sweep_common_zero_all_tiny():
    pots = [Quadratic(center=[1.0]), Quadratic(center=[1.0], weight=2.0)]
    sig = fixed_signal(two_node())
    rep = sweep_K(pots, sig, [4.0, -4.0], [1.0, 2.0], epsilon=1e-6, dt=0.01, t_end=30.0)
    assert rep.passed
    assert all(row["epsilon_estimate"] < 1e-8 for row in rep.params["rows"])


def test_sweep_validates_K_list():
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0])]
    sig = fixed_signal(two_node())
    with pytest.raises(InputError):
        sweep_K(pots, sig, [0.0, 0.0], [2.0, 1.0], epsilon=0.1, dt=0.01, t_end=1.0)


def test_sweep_ring_of_five_monotone_decreasing():
    rng = np.random.default_rng(17)
    pots = [Quadratic(center=[float(c)]) for c in rng.uniform(-1, 1, 5)]
    sig = fixed_signal(ring_graph(5))
    rep = sweep_K(pots, sig, rng.uniform(-2, 2, 5), [1.0, 2.0, 4.0, 8.0], epsilon=0.5, dt=0.01, t_end=25.0)
    assert rep.passed
    eps = [row["epsilon_estimate"] for row in rep.params["rows"]]
    assert all(b < a for a, b in zip(eps, eps[1:]))


def test_sweep_over_switching_schedule_small_period():
    # semi-global flavor: under a fast UJSC schedule, larger gains shrink the
    # tail disagreement below a requested epsilon for this initial state
    pots = [Quadratic(center=[-0.5]), Quadratic(center=[0.0]), Quadratic(center=[0.5])]
    sig = alternating_chain_signal(3, seg=0.5)
    rep = sweep_K(
        pots, sig, [2.0, -2.0, 1.0], [1.0, 2.0, 4.0, 8.0, 16.0], epsilon=0.1, dt=0.03, t_end=40.0
    )
    assert rep.passed
    eps = [row["epsilon_estimate"] for row in rep.params["rows"]]
    assert eps[-1] < 0.1 and all(b < a * 1.05 for a, b in zip(eps, eps[1:]))


def test_sweep_rows_equal_direct_runs():
    pots = [Quadratic(center=[-0.5]), QuarticWell(center=[0.0]), FlatBottom1D(0.3, 0.8)]
    sig = alternating_chain_signal(3, seg=0.5)
    x0, K_list = [2.0, -1.0, 0.5], [0.5, 1.0, 4.0]
    rep = sweep_K(pots, sig, x0, K_list, epsilon=0.5, dt=0.05, t_end=6.0, sample_every=0.25,
                  tail_fraction=0.3)

    def estimate(k):
        diag = integrate(pots, sig, k, x0, 0.05, 6.0, 0.25)
        return check_sync(diag, tail_fraction=0.3).worst_value

    assert rep.params["rows"] == [{"K": k, "epsilon_estimate": estimate(k), "error": None} for k in K_list]


def test_sweep_records_divergence_as_error_row():
    pots = [QuarticWell(center=[0.0]), QuarticWell(center=[0.0])]
    sig = fixed_signal(two_node())
    rep = sweep_K(pots, sig, [60.0, -60.0], [1.0, 2.0], epsilon=0.1, dt=0.05, t_end=5.0)
    assert not rep.passed and not rep.params["pass"]
    rows = rep.params["rows"]
    assert any(row["error"] is not None and row["epsilon_estimate"] is None for row in rows)


# -- feasibility and invariant cube ---------------------------------------------


def test_feasibility_1d_certified():
    rep = check_feasibility([Quadratic(center=[0.0]), FlatBottom1D(0.0, 1.0)])
    assert rep.passed
    assert "certified" in rep.params["drift_alignment"]
    assert "certified" in rep.params["minimizer_boundedness"]


def test_feasibility_multidim_sampled():
    rep = check_feasibility([Quadratic(center=[0.0, 0.0]), Quadratic(center=[1.0, 1.0])])
    assert rep.passed
    assert rep.params["drift_alignment"].startswith("sampled")


def test_invariant_cube_corner_starts():
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0]), Quadratic(center=[2.0])]
    g = ring_graph(3)
    eta = 0.5
    for x0 in ([-0.5, 2.5, -0.5], [2.5, 2.5, 2.5], [-0.5, -0.5, 2.5]):
        traj = integrate(pots, fixed_signal(g), 1.0, x0, dt=0.02, t_end=15.0)
        rep = cube_containment(traj, eta)
        assert rep.passed, rep.as_dict()


def test_invariant_cube_center_starts():
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0]), Quadratic(center=[2.0])]
    traj = integrate(pots, fixed_signal(ring_graph(3)), 2.0, [0.0, 1.0, 2.0], dt=0.02, t_end=10.0)
    rep = cube_containment(traj, 0.5)
    assert rep.passed


def test_invariant_cube_precondition_unmet():
    pots = [Quadratic(center=[0.0]), Quadratic(center=[1.0]), Quadratic(center=[2.0])]
    traj = integrate(pots, fixed_signal(ring_graph(3)), 1.0, [5.0, 0.0, 0.0], dt=0.02, t_end=5.0)
    rep = cube_containment(traj, 0.5)
    assert not rep.passed
    assert rep.params["precondition_met"] is False


def test_cube_containment_requires_1d():
    pots = [Quadratic(center=[0.0, 0.0])]
    traj = integrate(pots, fixed_signal(WeightedDigraph(1)), 0.0, [0.1, 0.1], dt=0.05, t_end=1.0, sample_every=0.2)
    with pytest.raises(InputError):
        cube_containment(traj, 0.5)


# -- randomized Lyapunov battery (small here; the acceptance suite runs 50) ----


def test_randomized_monotonicity_small_battery():
    rng = np.random.default_rng(123)
    for trial in range(8):
        n = int(rng.integers(3, 6))
        z = float(rng.uniform(-2, 2))
        pots = []
        for _ in range(n):
            kind = rng.integers(0, 3)
            if kind == 0:
                pots.append(Quadratic(center=[z], weight=float(rng.uniform(0.5, 2.0))))
            elif kind == 1:
                pots.append(QuarticWell(center=[z]))
            else:
                pots.append(FlatBottom1D(z - rng.uniform(0.1, 1.0), z + rng.uniform(0.1, 1.0)))
        libs = {}
        for name in ("a", "b"):
            arcs = tuple(
                (j, i, float(rng.uniform(0.5, 1.5)))
                for j in range(n)
                for i in range(n)
                if i != j and rng.random() < 0.35
            )
            libs[name] = WeightedDigraph(n, arcs)
        sig = SwitchingSignal(
            {**libs},
            (("a", float(rng.uniform(0.5, 1.0))), ("b", float(rng.uniform(0.5, 1.0)))),
            0.5,
        )
        x0 = rng.uniform(-5, 5, n)
        traj = integrate(pots, sig, float(rng.uniform(0.5, 2.0)), x0, dt=0.01, t_end=6.0, sample_every=0.06)
        scale_v = 1e-8 * max(1.0, traj.v[0])
        scale_t = 1e-8 * max(1.0, traj.theta[0])
        assert check_monotone(traj.v, rise_tol=scale_v, label="V").passed
        assert check_monotone(traj.theta, rise_tol=scale_t, label="theta").passed
