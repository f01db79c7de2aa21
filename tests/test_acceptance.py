"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and matches the package contracts.
"""

import math
import time

import numpy as np

from syncflow import (
    Box,
    FlatBottom1D,
    Hull,
    Quadratic,
    QuarticWell,
    SumPotential,
    SwitchingSignal,
    WeightedDigraph,
    certify_ujsc,
    check_monotone,
    check_spectral_bound,
    check_sync_iff,
    common_zero_set,
    diagnostics,
    fixed_signal,
    integrate,
    minimize_aggregate,
)
from syncflow.analysis import cube_containment, diameter_series
from syncflow.simulator import compile_network, network_field
from util import complete_graph, five_topologies, path_graph, ring_graph


def _criterion(num: int, desc: str, ok: bool, extra: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc}" + (f" ({extra})" if extra else ""))
    assert ok, f"criterion {num} failed: {desc} {extra}"


def _alternating_chains(n, seg, isolate_last=False):
    last = n - 1 if isolate_last else n
    fwd = WeightedDigraph(n, tuple((i, i + 1, 1.0) for i in range(last - 1)))
    rev = WeightedDigraph(n, tuple((i + 1, i, 1.0) for i in range(last - 1)))
    return SwitchingSignal(
        {"fwd": fwd, "rev": rev}, (("fwd", seg), ("rev", seg)), seg
    )


def test_criterion_1_two_node_disagreement_law():
    pots = [Quadratic(center=[1.0]), Quadratic(center=[0.0])]  # gap 1
    sig = fixed_signal(WeightedDigraph(2, ((0, 1, 1.0), (1, 0, 1.0))))
    worst = 0.0
    slowest = 0.0
    for K in (0.5, 1.0, 5.0, 10.0):
        t0 = time.perf_counter()
        traj = integrate(pots, sig, K, [2.0, -1.0], dt=0.01, t_end=15.0, sample_every=0.25)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        diam = diameter_series(traj)
        tail = diam[traj.times >= 12.0].max()
        worst = max(worst, abs(tail - 1.0 / (1.0 + 2.0 * K)))
    _criterion(
        1,
        "two-node disagreement settles to |gap|/(1+2K) within 1e-4 for K in {0.5,1,5,10}",
        worst < 1e-4 and slowest < 1.0,
        f"worst dev {worst:.2e}, slowest run {slowest:.2f}s",
    )


def test_criterion_2_sync_iff():
    c = 0.7
    common = [
        Quadratic(center=[c], weight=0.5),
        SumPotential((Quadratic(center=[c]), QuarticWell(center=[c]))),
        Quadratic(center=[c], weight=2.0),
        SumPotential((Quadratic(center=[c], weight=1.5), QuarticWell(center=[c]))),
        Quadratic(center=[c]),
    ]
    rng = np.random.default_rng(2024)
    ok = True
    details = []
    floors = []
    for name, g in five_topologies(5).items():
        x0 = rng.uniform(-2.0, 3.0, 5)
        traj = integrate(common, fixed_signal(g), 1.0, x0, dt=0.02, t_end=50.0, sample_every=0.5)
        diam_end = diameter_series(traj)[-1]
        final_dev = np.abs(traj.states[-1] - c).max()
        ok &= diam_end < 1e-6 and final_dev < 1e-5
        details.append(f"{name}: diam {diam_end:.1e}")

        disjoint = [QuarticWell(center=[m]) for m in np.linspace(-1.0, 1.0, 5)]
        rep = check_sync_iff(
            disjoint, g, 1.0, [rng.uniform(-2.0, 2.0, 5)], horizon=50.0, tol=1e-6,
            dt=0.02, min_floor=1e-3,
        )
        floor = rep.params["runs"][0]["observed_floor"]
        floors.append(floor)
        ok &= rep.passed
    _criterion(
        2,
        "exact sync iff zero sets intersect, across path/ring/star/complete/tree",
        ok,
        "; ".join(details) + f"; necessity floors {min(floors):.3f}..{max(floors):.3f}",
    )


def test_criterion_3_spectral_bound_matrix():
    rng = np.random.default_rng(7)
    ok = True
    worst_excess = -math.inf
    for build in (path_graph, ring_graph, complete_graph):
        for n in (3, 5):
            for K in (0.5, 2.0):
                pots = [
                    Quadratic(center=[float(rng.uniform(-2, 2))], weight=float(rng.uniform(0.5, 2)))
                    for _ in range(n)
                ]
                x_init = np.array([p.center[0] for p in pots])
                p = minimize_aggregate(pots, build(n), K, x_init, tol=1e-10)
                rep = check_spectral_bound(p, pots, build(n), K, tol=1e-8)
                ok &= rep.passed
                worst_excess = max(worst_excess, rep.worst_value)
    # hand-derived two-node instance: equality at 1/18
    pots2 = [Quadratic(center=[0.0]), Quadratic(center=[1.0])]
    g2 = WeightedDigraph(2, ((0, 1, 1.0), (1, 0, 1.0)))
    p2 = minimize_aggregate(pots2, g2, 1.0, [0.3, 0.4], tol=1e-12)
    rep2 = check_spectral_bound(p2, pots2, g2, 1.0)
    eq_dev = max(abs(rep2.params["lhs"] - 1.0 / 18.0), abs(rep2.params["bound"] - 1.0 / 18.0))
    ok &= eq_dev < 1e-9
    _criterion(
        3,
        "minimizers satisfy the spectral disagreement bound (tol 1e-8); two-node equality to 1e-9",
        ok,
        f"max excess over bound {worst_excess:.2e}, equality dev {eq_dev:.2e}",
    )


def _random_scenario(rng, trial):
    multi = trial % 10 == 9  # every tenth scenario runs two-dimensional states
    n = int(rng.integers(3, 7))
    if multi:
        z = rng.uniform(-1.5, 1.5, 2)
        pots = []
        for _ in range(n):
            if rng.random() < 0.5:
                pots.append(Quadratic(center=z, weight=float(rng.uniform(0.5, 2.0))))
            else:
                pots.append(QuarticWell(center=z))
    else:
        z = float(rng.uniform(-2.0, 2.0))
        pots = []
        for _ in range(n):
            kind = int(rng.integers(0, 4))
            if kind == 0:
                pots.append(Quadratic(center=[z], weight=float(rng.uniform(0.5, 2.0))))
            elif kind == 1:
                pots.append(QuarticWell(center=[z]))
            elif kind == 2:
                pots.append(FlatBottom1D(z - float(rng.uniform(0.1, 1.0)), z + float(rng.uniform(0.1, 1.0))))
            else:
                pots.append(SumPotential((Quadratic(center=[z]), QuarticWell(center=[z]))))
    libs = {}
    for name in ("a", "b"):
        arcs = tuple(
            (j, i, float(rng.uniform(0.5, 1.5)))
            for j in range(n)
            for i in range(n)
            if i != j and rng.random() < 0.35
        )
        libs[name] = WeightedDigraph(n, arcs)
    durs = (float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.5, 1.0)))
    sig = SwitchingSignal(libs, (("a", durs[0]), ("b", durs[1])), 0.5)
    m = 2 if multi else 1
    x0 = rng.uniform(-5.0, 5.0, n * m)
    K = float(rng.uniform(0.5, 2.0))
    return pots, sig, x0, K


def test_criterion_4_lyapunov_monotonicity_battery():
    rng = np.random.default_rng(99)
    failures = 0
    worst_excursion = 0.0
    for trial in range(50):
        pots, sig, x0, K = _random_scenario(rng, trial)
        traj = integrate(pots, sig, K, x0, dt=0.01, t_end=6.0, sample_every=0.06)
        diag = diagnostics(traj, pots)
        ok_v = check_monotone(diag.v, rise_tol=1e-8 * max(1.0, diag.v[0]), label="V").passed
        ok_t = check_monotone(
            diag.theta, rise_tol=1e-8 * max(1.0, diag.theta[0]), label="theta"
        ).passed
        # the box spanned by x0 and the zero sets is forward invariant (max principle)
        zero_sets = [p.zero_set() for p in pots]
        corners = np.vstack([traj.states[0], *[(z.lo, z.hi) for z in zero_sets]])
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        excursion = float(np.maximum(traj.states - hi, lo - traj.states).max())
        worst_excursion = max(worst_excursion, excursion)
        # the slack absorbs a BLAS that orders the coupling sums differently
        in_box = excursion <= 1e-12 * max(1.0, float(np.abs(corners).max()))
        if not (ok_v and ok_t and in_box):
            failures += 1
    _criterion(
        4,
        "V and theta non-increasing (rise_tol 1e-8*scale) and every sample inside the box "
        "spanned by x0 and the zero sets (slack 1e-12*scale) on 50 randomized switching scenarios",
        failures == 0,
        f"{failures} failures, worst excursion {worst_excursion:.2e}",
    )


def test_criterion_5_ujsc_switching_sync_and_control():
    pots = [Quadratic(center=[1.0], weight=w) for w in (0.5, 1.0, 2.0)]
    sig = _alternating_chains(3, seg=0.5)
    assert certify_ujsc(sig, T=sig.period).passed
    traj = integrate(pots, sig, 1.0, [4.0, -3.0, 0.5], dt=0.1, t_end=100.0, sample_every=1.0)
    diam = diameter_series(traj)
    tail = diam[traj.times >= 80.0].max()

    pots_c = [Quadratic(center=[1.0]), Quadratic(center=[1.0]), Quadratic(center=[2.0])]
    sig_c = _alternating_chains(3, seg=0.5, isolate_last=True)
    traj_c = integrate(pots_c, sig_c, 1.0, [4.0, -3.0, 0.5], dt=0.1, t_end=100.0, sample_every=1.0)
    floor_c = diameter_series(traj_c)[traj_c.times >= 80.0].min()
    _criterion(
        5,
        "UJSC alternating chains sync below 1e-5 by t=100; isolated-node control stays above 1e-2",
        tail < 1e-5 and floor_c > 1e-2,
        f"tail diameter {tail:.1e}, control floor {floor_c:.3f}",
    )


def test_criterion_6_point_convergence_flat_bottoms():
    pots = [FlatBottom1D(0.0, 0.6), FlatBottom1D(0.4, 1.0), FlatBottom1D(0.2, 0.8)]
    inter = common_zero_set(pots)
    np.testing.assert_allclose(sorted(inter.extreme_points().ravel()), [0.4, 0.6])
    sig = _alternating_chains(3, seg=0.5)
    assert certify_ujsc(sig, T=sig.period).passed
    traj = integrate(pots, sig, 1.0, [-2.0, 3.0, 0.15], dt=0.1, t_end=100.0, sample_every=0.5)
    X = traj.states[:, :, 0]
    tail = traj.times >= 80.0
    osc = float((X[tail].max(axis=0) - X[tail].min(axis=0)).max())
    limit = float(X[-1].mean())
    inside = 0.4 - 1e-9 <= limit <= 0.6 + 1e-9
    _criterion(
        6,
        "overlapping flat bottoms converge to one point inside [0.4, 0.6] (tail osc < 1e-6)",
        osc < 1e-6 and inside,
        f"oscillation {osc:.1e}, limit {limit:.6f}",
    )


def test_criterion_7_minimizer_structure_and_gradient_identity():
    c = -0.3
    pots = [
        Quadratic(center=[c]),
        SumPotential((Quadratic(center=[c]), QuarticWell(center=[c]))),
        Quadratic(center=[c], weight=1.5),
        QuarticWell(center=[c]),
    ]
    ok = True
    spread_worst = 0.0
    for g in (ring_graph(4), path_graph(4)):
        p = minimize_aggregate(pots, g, 1.0, [1.5, -2.0, 0.25, 3.0], tol=1e-10)[:, 0]
        spread = p.max() - p.min()
        dev = max(abs(v - c) for v in p)
        spread_worst = max(spread_worst, spread, dev)
        ok &= spread < 1e-4 and dev < 1e-4
    # flat-bottom overlap: minimizer must sit on the consensus manifold inside [0.4, 0.6]
    potsf = [FlatBottom1D(0.0, 0.6), FlatBottom1D(0.4, 1.0), FlatBottom1D(0.2, 0.8)]
    pf = minimize_aggregate(potsf, ring_graph(3), 1.0, [-2.0, 3.0, 0.1], tol=1e-10)
    iv = Box(0.4, 0.6)
    ok &= (pf.max() - pf.min()) < 1e-4 and iv.distance(pf).max() < 1e-4

    # gradient of the aggregate potential == negated vector field, to 1e-12
    rng = np.random.default_rng(11)
    g = ring_graph(4)
    net = compile_network(pots, 4)
    pairs = [(i, (i + 1) % 4, 1.0) for i in range(4)]
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-5, 5, 4)
        grad = np.array([p.gradient([x[i]])[0] for i, p in enumerate(pots)])
        for i, j, w in pairs:
            grad[i] += 1.0 * w * (x[i] - x[j])
            grad[j] += 1.0 * w * (x[j] - x[i])
        field = network_field(net, g.laplacian_matrix, 1.0, x.reshape(4, 1))[:, 0]
        worst = max(worst, np.abs(grad + field).max())
    ok &= worst <= 1e-12
    _criterion(
        7,
        "common-zero minimizers lie on the consensus manifold inside the intersection; "
        "grad == -network_field",
        ok,
        f"worst spread/dev {spread_worst:.1e}, worst gradient dev {worst:.1e}",
    )


def test_criterion_8_invariant_cube_corner_runs():
    rng = np.random.default_rng(31)
    centers = [0.0, 0.5, 1.0, 1.5, 2.0]
    pots = [Quadratic(center=[m], weight=float(rng.uniform(0.5, 2.0))) for m in centers]
    eta = 0.5
    lo, hi = 0.0 - eta, 2.0 + eta
    ring = ring_graph(5)
    sig_switch = _alternating_chains(5, seg=0.5)
    ok = True
    for run in range(20):
        corner = np.where(rng.random(5) < 0.5, lo, hi)
        signal = fixed_signal(ring) if run < 10 else sig_switch
        traj = integrate(pots, signal, 1.0, corner, dt=0.05, t_end=10.0)
        rep = cube_containment(traj, pots, eta, slack=1e-8)
        ok &= rep.passed
    _criterion(8, "20 corner-started 1-D runs stay inside the eta-cube (slack 1e-8)", ok)


def test_criterion_9_integrator_order():
    sig = fixed_signal(WeightedDigraph(1))
    pots = [Quadratic(center=[3.0])]
    exact = 3.0 * (1.0 - math.exp(-2.0))
    errs = []
    for dt in (0.2, 0.1, 0.05, 0.025):
        traj = integrate(pots, sig, 0.0, [0.0], dt=dt, t_end=2.0, sample_every=2.0)
        errs.append(abs(traj.states[-1, 0, 0] - exact))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    ok = all(3.8 <= p <= 4.2 for p in orders)
    _criterion(
        9,
        "observed RK4 convergence order in [3.8, 4.2] across three dt halvings",
        ok,
        "orders " + ", ".join(f"{p:.3f}" for p in orders),
    )


def test_criterion_10_projection_suite():
    rng = np.random.default_rng(1234)
    tol = 1e-10
    failures = 0
    for kind in ("point", "interval", "box", "hull"):
        for _ in range(1000):
            m = 1 if kind == "interval" else int(rng.integers(1, 4))
            if kind == "point":
                p = rng.uniform(-10, 10, m)
                body = Box(p, p)
            elif kind == "interval":
                a, b = sorted(rng.uniform(-10, 10, 2))
                body = Box(a, b)
            elif kind == "box":
                lo = rng.uniform(-10, 0, m)
                body = Box(lo, lo + rng.uniform(0, 10, m))
            else:
                body = Hull(rng.uniform(-10, 10, (int(rng.integers(1, 7)), m)))
            x = rng.uniform(-15, 15, m)
            y = rng.uniform(-15, 15, m)
            px, py = body.project(x), body.project(y)
            verts = body.extreme_points()
            w = rng.uniform(0, 1, verts.shape[0])
            member = (w / w.sum()) @ verts
            da, db = body.distance(x), body.distance(y)
            lhs = float((x - px) @ (y - x))
            ok = (
                np.linalg.norm(px - py) <= np.linalg.norm(x - y) + tol
                and float((px - x) @ (px - member)) <= tol
                and lhs <= da * abs(da - db) + tol
                and (da <= db or lhs <= -da * (da - db) + tol)
                and np.array_equal(body.project(px), px)
            )
            failures += not ok
    _criterion(
        10,
        "projection suite (nonexpansive, variational, distance comparisons, idempotent) x 1000 per kind",
        failures == 0,
        f"{failures} failures",
    )
