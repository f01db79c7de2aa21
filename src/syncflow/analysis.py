"""Trajectory diagnostics and executable synchronization checks.

This module turns the synchronization theory into runtime verdicts on
simulated trajectories:

* diagnostics: pairwise diameter, the max-type Lyapunov series V (squared
  distance to a common zero point) and theta (squared distance to the hull of
  the union of zero sets), and per-node distance to each argmin set;
* monotonicity, common-limit, and node-optimum checks on those series;
* the aggregate potential over a fixed undirected graph, its minimizer via
  Newton's method (the gradient is exactly the negated coupled vector
  field, which doubles as a cross-module identity), and the spectral
  disagreement bound at a minimizer;
* exact-synchronization iff-checks, coupling-gain sweeps, assumption
  feasibility certification, and the one-dimensional invariant-cube test.

Finite-horizon proxies: a "tail" quantity is taken over the last
``tail_fraction`` of the horizon (default the last 20%).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import convex_geometry as cg
from .errors import InputError, NumericalError, PreconditionError
from .graphs import SwitchingSignal, WeightedDigraph, lambda2, require_undirected
from .potentials import common_zero_set
from .report import CheckReport
from .simulator import Trajectory, compile_network, fixed_signal, integrate, network_field

__all__ = [
    "DiagnosticsSeries",
    "diagnostics",
    "diameter_series",
    "check_sync",
    "check_no_sync",
    "check_monotone",
    "check_common_limit",
    "check_node_optimum",
    "aggregate_potential",
    "minimize_aggregate",
    "check_spectral_bound",
    "check_sync_iff",
    "sweep_K",
    "check_feasibility",
    "cube_containment",
]

DEFAULT_TAIL_FRACTION = 0.2


@dataclass(frozen=True, eq=False)
class DiagnosticsSeries:
    """Per-sample diagnostic series aligned with a trajectory.

    ``v_nodes``/``v`` are present only when a reference common zero point is
    available; ``theta`` needs only bounded zero sets and is always computed.
    """

    times: np.ndarray
    diameter: np.ndarray
    theta: np.ndarray
    argmin_dist: np.ndarray  # (n_samples, N)
    v_nodes: np.ndarray | None = None  # (n_samples, N)
    v: np.ndarray | None = None
    z_star: np.ndarray | None = None


def validate_tail_fraction(tail_fraction) -> float:
    """The tail window as a float; raises InputError unless it lies in (0, 1]."""
    tf = float(tail_fraction)
    if not 0 < tf <= 1:
        raise InputError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    return tf


def validate_rise_tol(rise_tol):
    """Raises InputError unless the monotonicity slack ``rise_tol`` is nonnegative."""
    if not rise_tol >= 0:
        raise InputError(f"rise_tol must be nonnegative, got {rise_tol}")


def validate_eta(eta):
    """Raises InputError unless the invariant-cube margin ``eta`` is positive."""
    if not eta > 0:
        raise InputError(f"eta must be positive, got {eta}")


def validate_grad_tol(grad_tol):
    """Raises InputError unless a gradient-norm tolerance is positive."""
    if not grad_tol > 0:
        raise InputError(f"grad_tol must be positive, got {grad_tol}")


def _tail_indices(times: np.ndarray, tail_fraction: float) -> np.ndarray:
    validate_tail_fraction(tail_fraction)
    horizon = times[-1]
    idx = np.nonzero(times >= horizon * (1.0 - tail_fraction) - 1e-12)[0]
    return idx


@np.errstate(over="ignore", invalid="ignore")  # huge states give inf or nan, no warnings
def diameter_series(traj: Trajectory) -> np.ndarray:
    """max_{i,j} |x_i - x_j| per sample.  For m = 1 it is max - min, exact as rounding is
    monotone: no square underflows below |d| ~ 1.5e-154 or overflows above ~ 1.3e154."""
    X = traj.states
    if traj.dim == 1:
        return np.ptp(X[:, :, 0], axis=1)
    diam = np.zeros(len(traj))
    for i in range(traj.node_count - 1):
        diam = np.maximum(diam, np.linalg.norm(X[:, i + 1 :] - X[:, i : i + 1], axis=2).max(axis=1))
    return diam


@np.errstate(over="ignore", invalid="ignore")  # huge states give inf or nan series, no warnings
def diagnostics(traj: Trajectory, potentials, z_star="auto") -> DiagnosticsSeries:
    """Compute all diagnostic series for a completed trajectory.

    ``z_star`` may be an explicit reference point, ``"auto"`` to use the
    centroid of the intersection of zero sets (an error if that intersection
    is empty), or ``None`` to skip the V series.
    """
    X = traj.states
    diam = diameter_series(traj)

    # every node at every sample in one projection: (samples, N) distances
    theta = (cg.zero_set_hull(potentials).distance(X) ** 2).max(axis=1)

    # every zero set is a box: one clip of all nodes against their stacked corners
    zsets = [p.zero_set() for p in potentials]
    lo, hi = np.array([z.lo for z in zsets]), np.array([z.hi for z in zsets])
    argmin_dist = cg.box_distance(X, lo, hi)

    v_nodes = v = z = None
    if z_star is not None:
        if isinstance(z_star, str) and z_star == "auto":
            body = common_zero_set(potentials)
            if body is None:
                raise PreconditionError(
                    "auto z_star requires a nonempty intersection of zero sets; "
                    "supply z_star explicitly or pass z_star=None to skip the V series"
                )
            z = body.center()
        else:
            z = np.atleast_1d(np.asarray(z_star, dtype=float))
            if z.shape != (traj.dim,):
                raise InputError(f"z_star has shape {z.shape}, expected ({traj.dim},)")
        v_nodes = np.linalg.norm(X - z, axis=2) ** 2
        v = v_nodes.max(axis=1)

    return DiagnosticsSeries(
        times=traj.times,
        diameter=diam,
        theta=theta,
        argmin_dist=argmin_dist,
        v_nodes=v_nodes,
        v=v,
        z_star=z,
    )


def check_sync(
    traj: Trajectory,
    tol: float = 1e-6,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
    diameter: np.ndarray | None = None,
) -> CheckReport:
    """Exact synchronization: the tail-sup of the diameter, the disagreement
    estimate and ``worst_value``, is below ``tol``.  A pass records the final
    block average as the limit point.

    ``diameter`` is the trajectory's ``diameter_series`` when the caller
    already holds it (``diagnostics`` computes one); otherwise it is computed.
    """
    diam = diameter_series(traj) if diameter is None else diameter
    eps = float(diam[_tail_indices(traj.times, tail_fraction)].max())
    limit = traj.states[-1].mean(axis=0).tolist() if eps < tol else None
    return CheckReport(
        check="sync", passed=eps < tol, worst_value=eps, params={"tol": tol, "limit_point": limit}
    )


def check_no_sync(
    diag: DiagnosticsSeries, floor: float = 1e-3, tail_fraction: float = DEFAULT_TAIL_FRACTION
) -> CheckReport:
    """Disagreement persists: the tail minimum of the diameter stays at or above ``floor``."""
    observed = float(diag.diameter[_tail_indices(diag.times, tail_fraction)].min())
    return CheckReport(
        check="no_sync",
        passed=observed >= floor,
        worst_value=observed,
        params={"floor": floor, "observed_floor": observed},
    )


@np.errstate(over="ignore", invalid="ignore")  # an inf - inf rise is nan, with no warning
def check_monotone(series, rise_tol: float | None = None, label: str = "series") -> CheckReport:
    """Pass iff series[k+1] <= series[k] + rise_tol for every k.

    The default tolerance 1e-8 * max(1, series[0]) absorbs integrator error;
    the report carries the worst rise and where it happened.
    """
    s = np.asarray(series, dtype=float)
    if s.ndim != 1 or s.shape[0] < 2:
        raise InputError("monotonicity check needs a 1-D series with >= 2 samples")
    if rise_tol is None:
        rise_tol = 1e-8 * max(1.0, float(s[0]))
    validate_rise_tol(rise_tol)
    rises = np.diff(s)
    k = int(np.argmax(rises))
    worst = float(rises[k])
    return CheckReport(
        check=f"monotone_{label}",
        passed=worst <= rise_tol,
        worst_value=worst,
        location={"index": k},
        params={"rise_tol": rise_tol, "length": int(s.shape[0])},
    )


def check_common_limit(
    diag: DiagnosticsSeries,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
    tol: float = 1e-6,
) -> CheckReport:
    """All V_i settle to one common limit.

    Over the tail window the spread max_i V_i - min_i V_i and every node's
    oscillation must stay within ``tol``.  The common limit estimate is the
    tail mean of V.
    """
    if diag.v_nodes is None:
        raise PreconditionError("check_common_limit needs the V series (a reference z_star)")
    tail = _tail_indices(diag.times, tail_fraction)
    if tail.shape[0] < 10:
        raise PreconditionError(
            f"tail window holds {tail.shape[0]} samples; need >= 10 for a limit estimate"
        )
    vt = diag.v_nodes[tail]
    spread = float((vt.max(axis=1) - vt.min(axis=1)).max())
    osc = vt.max(axis=0) - vt.min(axis=0)
    worst = max(spread, float(osc.max()))
    d_star_sq = float(diag.v[tail].mean())
    return CheckReport(
        check="common_limit",
        passed=worst <= tol,
        worst_value=worst,
        location={"worst_node_oscillation": int(np.argmax(osc))},
        params={
            "tol": tol,
            "tail_fraction": tail_fraction,
            "spread": spread,
            "d_star_estimate": math.sqrt(max(d_star_sq, 0.0)),
        },
    )


def check_node_optimum(
    diag: DiagnosticsSeries,
    potentials,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
    tol: float = 1e-6,
) -> CheckReport:
    """Tail-sup of every node's distance to its own argmin set is below ``tol``."""
    if diag.argmin_dist.shape[1] != len(potentials):
        raise InputError("diagnostics and potentials disagree on node count")
    tail = _tail_indices(diag.times, tail_fraction)
    sup_per_node = diag.argmin_dist[tail].max(axis=0)
    worst_node = int(np.argmax(sup_per_node))
    worst = float(sup_per_node[worst_node])
    return CheckReport(
        check="node_optimum",
        passed=worst <= tol,
        worst_value=worst,
        location={"node": worst_node},
        params={"tol": tol, "tail_fraction": tail_fraction},
    )


# -- aggregate potential over a fixed undirected graph ----------------------


def aggregate_potential(potentials, g: WeightedDigraph, K: float, x) -> float:
    """sum_i F_i(x_i) + (K/2) sum_{edges} a_ij |x_j - x_i|^2 (undirected g), x as (N, m) blocks."""
    require_undirected(g, "aggregate_potential", connected=False)
    net = compile_network(potentials, g.node_count)
    X = np.asarray(x, dtype=float).reshape(net.node_count, net.dimension)
    val = sum(net.value(X))  # one node after another; np.sum would add pairwise
    # for symmetric weights, x'(L kron I)x equals the unordered-edge sum
    return val + 0.5 * K * float(np.sum(X * (g.laplacian_matrix @ X)))


def minimize_aggregate(
    potentials,
    g: WeightedDigraph,
    K: float,
    x_init,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> np.ndarray:
    """Minimize the aggregate potential by Newton's method; returns (N, m) blocks.

    The gradient is the negated coupled vector field (exactly the gradient of
    the aggregate potential on an undirected graph), so agreement between this
    routine and the simulator is a structural identity, not a coincidence.

    The catalog is separable by component, so the Hessian is one N x N block
    per component, H_k = diag(F_i''(x_ik)) + K L, and one stacked solve gives
    the Newton step of every component.  A ridge of 1e-14 * trace(H_k) / N, at
    least the smallest normal float, keeps each block regular where the
    aggregate has no curvature, as at a quartic's center inside flat bottoms.
    The full step is taken when it lowers the gradient norm and is otherwise
    halved until it does; no function values are used.  The loop returns once
    the gradient norm is at most ``tol``, raises NumericalError naming a stall
    when 60 halvings find no smaller gradient norm, and raises NumericalError
    naming the budget when ``max_iter`` steps run out.
    """
    require_undirected(g, "minimize_aggregate", connected=False)
    if K < 0:
        raise InputError(f"K must be nonnegative, got {K}")
    validate_grad_tol(tol)
    net = compile_network(potentials, g.node_count)
    lap = g.laplacian_matrix
    n, m = net.node_count, net.dimension
    diag, tiny = np.arange(n), np.finfo(float).tiny

    def grad_at(y: np.ndarray) -> np.ndarray:
        # an overflowed iterate stops here instead of spending the budget on NaNs
        if not np.all(np.isfinite(y)):
            raise InputError("state entries must be finite")
        return -network_field(net, lap, K, y)

    x = np.array(x_init, dtype=float).reshape(n, m)
    grad = grad_at(x)
    gnorm = float(np.linalg.norm(grad))
    for _ in range(max_iter):
        if gnorm <= tol:
            return x
        H = np.repeat((K * lap)[None], m, axis=0)  # (m, N, N), one block per component
        H[:, diag, diag] += net.curvature(x).T
        H[:, diag, diag] += np.maximum(1e-14 / n * np.trace(H, axis1=1, axis2=2), tiny)[:, None]
        # the right side as (m, N, 1), which numpy 1 and 2 both read as m vectors
        step = -np.linalg.solve(H, grad.T[:, :, None])[:, :, 0].T
        for _ in range(60):
            x_next = x + step
            grad_next = grad_at(x_next)
            gnorm_next = float(np.linalg.norm(grad_next))
            if gnorm_next < gnorm:
                break
            step *= 0.5
        else:
            raise NumericalError(
                f"minimize_aggregate stalled: 60 halvings of the Newton step found no smaller "
                f"gradient norm than {gnorm:.3e} (target {tol:.1e})"
            )
        x, grad, gnorm = x_next, grad_next, gnorm_next
    if gnorm <= tol:
        return x
    raise NumericalError(
        f"minimize_aggregate exhausted {max_iter} iterations; final gradient norm "
        f"{gnorm:.3e} (target {tol:.1e})"
    )


def check_spectral_bound(
    p,
    potentials,
    g: WeightedDigraph,
    K: float,
    tol: float = 1e-8,
    grad_tol: float = 1e-6,
) -> CheckReport:
    """Disagreement of a minimizer against the spectral-gap bound.

    With p a minimizer of the aggregate potential, the blockwise deviation
    from the block average must satisfy
    sum_i |p_i - p_ave|^2 <= (drift_norm / (K * lambda2))^2, where drift_norm
    is the norm of the stacked self-gradients at p and lambda2 the
    second-smallest Laplacian eigenvalue of the (symmetric, connected) graph.
    """
    if K <= 0:
        raise PreconditionError("spectral bound needs K > 0")
    require_undirected(g, "check_spectral_bound")
    net = compile_network(potentials, g.node_count)
    lap = g.laplacian_matrix
    P = np.asarray(p, dtype=float).reshape(g.node_count, net.dimension)
    grad = -network_field(net, lap, K, P)
    gnorm = float(np.linalg.norm(grad))
    if gnorm > grad_tol:
        raise PreconditionError(
            f"p is not a minimizer: |grad F_G(p)| = {gnorm:.3e} > {grad_tol:.1e}"
        )
    p_ave = P.mean(axis=0)
    lhs = float(np.sum((P - p_ave) ** 2))
    l0 = float(np.linalg.norm(network_field(net, lap, 0.0, P)))
    lam2 = lambda2(g)
    bound = (l0 / (K * lam2)) ** 2
    return CheckReport(
        check="spectral_bound",
        passed=lhs <= bound + tol,
        worst_value=lhs - bound,
        location=None,
        params={"lhs": lhs, "bound": bound, "drift_norm": l0, "lambda2": lam2, "K": K, "tol": tol},
    )


# -- scenario-level orchestration --------------------------------------------


def check_sync_iff(
    potentials,
    g: WeightedDigraph,
    K: float,
    x0_set,
    horizon: float,
    tol: float,
    dt: float = 0.01,
    sample_every: float | None = None,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
    min_floor: float = 1e-9,
) -> CheckReport:
    """Exact synchronization iff the zero sets intersect, on a fixed graph.

    With a nonempty intersection every run must reach tail diameter <= tol
    and end within tol of the intersection; with an empty intersection every
    run's tail diameter must stay at or above ``min_floor`` (the observed
    floor is reported, never assumed).
    """
    x0_set = list(x0_set)
    if not x0_set:
        raise InputError("sync iff-check needs at least one initial state")
    require_undirected(g, "check_sync_iff")
    body = common_zero_set(potentials)
    sig = fixed_signal(g)
    runs = []
    all_pass = True
    worst = -math.inf
    for ridx, x0 in enumerate(x0_set):
        traj = integrate(potentials, sig, K, x0, dt, horizon, sample_every)
        diam = diameter_series(traj)
        tail = _tail_indices(traj.times, tail_fraction)
        entry: dict = {"run": ridx}
        if body is not None:
            tail_sup = float(diam[tail].max())
            final_dev = float(body.distance(traj.states[-1]).max())
            ok = tail_sup <= tol and final_dev <= tol
            entry.update({"tail_diameter": tail_sup, "final_deviation": final_dev, "pass": ok})
            worst = max(worst, tail_sup, final_dev)
        else:
            floor = float(diam[tail].min())
            ok = floor >= min_floor
            entry.update({"observed_floor": floor, "pass": ok})
            worst = max(worst, -floor)
        all_pass = all_pass and ok
        runs.append(entry)
    return CheckReport(
        check="sync_iff_common_zero",
        passed=all_pass,
        worst_value=None if worst == -math.inf else worst,
        location=None,
        params={
            "intersection_nonempty": body is not None,
            "tol": tol,
            "min_floor": min_floor,
            "runs": runs,
        },
    )


def validate_K_list(K_list) -> list[float]:
    """The gains as floats; raises InputError unless positive and strictly increasing."""
    ks = [float(k) for k in K_list]
    if not ks or any(not 0 < k < math.inf for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
        raise InputError(f"K_list must be positive and strictly increasing, got {ks}")
    return ks


def sweep_K(
    potentials,
    signal: SwitchingSignal,
    x0,
    K_list,
    epsilon: float,
    dt: float,
    t_end: float,
    sample_every: float | None = None,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
) -> CheckReport:
    """Run the scenario once per gain and table the disagreement estimates.

    Each row of ``params["rows"]`` is ``{"K", "epsilon_estimate", "error"}``,
    the estimate being ``check_sync``'s tail-sup diameter.  Passes iff the
    estimates are non-increasing in K (5% slack) and the largest gain achieves
    an estimate below ``epsilon``.  Gains run one after another; a gain whose
    run fails numerically (an RK4 step that is unstable at that gain, say)
    becomes an error row.
    """
    K_list = validate_K_list(K_list)
    rows = []
    for k in K_list:
        row = {"K": k, "epsilon_estimate": None, "error": None}
        try:
            traj = integrate(potentials, signal, k, x0, dt, t_end, sample_every)
            row["epsilon_estimate"] = check_sync(traj, tail_fraction=tail_fraction).worst_value
        except NumericalError as e:
            row["error"] = str(e)
        rows.append(row)

    estimates = [r["epsilon_estimate"] for r in rows if r["error"] is None]
    ok = (
        len(estimates) == len(rows)
        and not any(b > a * 1.05 + 1e-12 for a, b in zip(estimates, estimates[1:]))
        and estimates[-1] < epsilon
    )
    params = {"dt": dt, "t_end": t_end, "tail_fraction": tail_fraction}
    return CheckReport(
        check="sweep_K",
        passed=ok,
        params={"rows": rows, "epsilon": epsilon, "pass": ok, "params": params},
    )


def check_feasibility(potentials) -> CheckReport:
    """Certify which structural assumptions hold for this catalog.

    Every catalog potential is coercive with a bounded argmin set, which
    certifies the minimizer-boundedness assumption outright.  The projection
    inequality is certified structurally in one dimension; in higher
    dimensions it is only sample-checked on a deterministic cloud around the
    hull of the zero sets, and the report records that distinction.
    """
    m = potentials[0].dimension
    params: dict = {"dimension": m, "minimizer_boundedness": "certified: catalog potentials are coercive"}
    if m == 1:
        params["drift_alignment"] = "certified: one-dimensional state space with bounded zero sets"
        passed = True
    else:
        body = cg.zero_set_hull(potentials)
        pts = body.extreme_points()
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        half = 0.5 * (hi - lo)
        center = 0.5 * (hi + lo)
        rng = np.random.default_rng(0)
        cloud = center + rng.uniform(-1.0, 1.0, size=(256, m)) * (3.0 * half + 1.0)
        sub = cg.check_drift_alignment(potentials, np.vstack([cloud, pts]))
        params["drift_alignment"] = f"sampled on {cloud.shape[0] + pts.shape[0]} points: " + (
            "pass" if sub.passed else "FAIL"
        )
        params["drift_alignment_worst"] = sub.worst_value
        passed = sub.passed
    return CheckReport(
        check="assumption_feasibility",
        passed=passed,
        worst_value=params.get("drift_alignment_worst"),
        location=None,
        params=params,
    )


def cube_containment(
    traj: Trajectory, potentials, eta: float, slack: float = 1e-8
) -> CheckReport:
    """A 1-D trajectory stays in the cube spanned by argmin representatives.

    The cube is [y_lo - eta, y_hi + eta] per node, where y_lo/y_hi are the
    extremes of each node's argmin midpoint.  If the first sample starts
    outside the cube the claim does not apply and the report marks the
    precondition unmet instead of failing the invariance itself.
    """
    if traj.dim != 1:
        raise InputError("invariant cube applies to one-dimensional node states only")
    validate_eta(eta)
    reps = [float(p.zero_set().center()[0]) for p in potentials]
    lo = min(reps) - eta
    hi = max(reps) + eta
    x0 = traj.states[0]
    if np.any(x0 < lo - 1e-12) or np.any(x0 > hi + 1e-12):
        return CheckReport(
            check="invariant_cube",
            passed=False,
            worst_value=None,
            location="precondition",
            params={
                "precondition_met": False,
                "cube": [lo, hi],
                "detail": "initial state outside the cube; the invariance claim does not apply",
            },
        )
    overflow = np.maximum(traj.states - hi, lo - traj.states)
    k = int(np.argmax(overflow.max(axis=(1, 2))))
    worst = float(overflow.max())
    return CheckReport(
        check="invariant_cube",
        passed=worst <= slack,
        worst_value=worst,
        location={"time": float(traj.times[k])},
        params={"precondition_met": True, "cube": [lo, hi], "eta": eta, "slack": slack},
    )

