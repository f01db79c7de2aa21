"""Executable synchronization checks.

This module turns the synchronization theory into runtime verdicts on
simulated trajectories.  Every trajectory check reads the run record that
``simulator.integrate`` returns, a ``DiagnosticsSeries``, whose series (the
pairwise diameter, the max-type Lyapunov series V, theta and the per-node
argmin distances) are computed on first read:

* synchronization, monotonicity, common-limit, and node-optimum checks on
  those series;
* the minimizer of the aggregate potential over a fixed undirected graph via
  Newton's method (its gradient is exactly the negated coupled vector
  field, which doubles as a cross-module identity), and the spectral
  disagreement bound at the minimizer it finds;
* exact-synchronization iff-checks, coupling-gain sweeps, assumption
  feasibility certification, and the one-dimensional invariant-cube test.

Finite-horizon proxies: a "tail" quantity is taken over the last
``tail_fraction`` of the horizon (default the last 20%).
"""

import math

import numpy as np

from . import convex_geometry as cg
from .errors import InputError, NumericalError
from .graphs import SwitchingSignal, WeightedDigraph, lambda2, require_undirected
from .potentials import NetworkPotential, common_zero_set
from .report import CheckReport
from .simulator import DiagnosticsSeries, fixed_signal, integrate

__all__ = [
    "check_sync",
    "check_no_sync",
    "check_monotone",
    "check_common_limit",
    "check_node_optimum",
    "minimize_aggregate",
    "check_spectral_bound",
    "check_sync_iff",
    "sweep_K",
    "check_feasibility",
    "cube_containment",
]

DEFAULT_TAIL_FRACTION = 0.2


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


def validate_spectral_gain(K):
    """Raises InputError unless K > 0: the spectral bound divides by K."""
    if not K > 0:
        raise InputError(f"spectral bound needs K > 0, got {K}")


def _tail_indices(times: np.ndarray, tail_fraction: float) -> np.ndarray:
    validate_tail_fraction(tail_fraction)
    return np.nonzero(times >= times[-1] * (1.0 - tail_fraction) - 1e-12)[0]


def limit_tail(times: np.ndarray, tail_fraction: float) -> np.ndarray:
    """The tail window's indices for a limit estimate; InputError unless it holds >= 10.  The
    times follow from the run grid (``simulator.sample_times``), so the loader checks it too."""
    tail = _tail_indices(times, tail_fraction)
    if tail.shape[0] < 10:
        raise InputError(f"tail window holds {len(tail)} samples; need >= 10 for a limit estimate")
    return tail


def check_sync(
    diag: DiagnosticsSeries, tol: float = 1e-6, tail_fraction: float = DEFAULT_TAIL_FRACTION
) -> CheckReport:
    """Exact synchronization: the tail-sup of the diameter, the disagreement
    estimate and ``worst_value``, is below ``tol``.  A pass records the final
    block average as the limit point.
    """
    eps = float(diag.diameter[_tail_indices(diag.times, tail_fraction)].max())
    limit = diag.states[-1].mean(axis=0).tolist() if eps < tol else None
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
    diag: DiagnosticsSeries, tail_fraction: float = DEFAULT_TAIL_FRACTION, tol: float = 1e-6
) -> CheckReport:
    """All V_i settle to one common limit.

    Over the tail window the spread max_i V_i - min_i V_i and every node's
    oscillation must stay within ``tol``.  The common limit estimate is the
    tail mean of V.
    """
    if diag.v_nodes is None:
        raise InputError("check_common_limit needs the V series (zero sets sharing a point)")
    tail = limit_tail(diag.times, tail_fraction)
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
    diag: DiagnosticsSeries, tail_fraction: float = DEFAULT_TAIL_FRACTION, tol: float = 1e-6
) -> CheckReport:
    """Tail-sup of every node's distance to its own argmin set is below ``tol``."""
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


def minimize_aggregate(
    potentials,
    g: WeightedDigraph,
    K: float,
    x_init,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> np.ndarray:
    """Minimize the aggregate potential by Newton's method; returns (N, m) blocks.

    The gradient is the integrator's drift evaluator, ``NetworkPotential.drift_into``, built
    once on the operator A = K·L + diag(quadratic weights), in the block order the iterates
    live in, so agreement between this routine and the simulator is a structural identity,
    not a coincidence.

    The catalog is separable by component, so the Hessian is one N x N block
    per component, H_k = diag(F_i''(x_ik)) + K L: ``NetworkPotential.hessian`` adds the
    curvature of the terms that are not quadratic to A, whose weights it counts once.
    One stacked solve gives the Newton step of every component.  A ridge of
    1e-14 * trace(H_k) / N, at least the smallest normal float, keeps each block regular
    where the aggregate has no curvature, as at a quartic's center inside flat bottoms.
    The full step is taken when it lowers the gradient norm and is otherwise
    halved until it does; no function values are used.  The loop returns once
    the gradient norm is at most ``tol``, raises NumericalError naming a stall
    when 60 halvings find no smaller gradient norm, and raises NumericalError
    naming the budget when ``max_iter`` steps run out.
    """
    require_undirected(g, "minimize_aggregate", connected=False)
    validate_grad_tol(tol)
    net = NetworkPotential(potentials)
    A = net.coupling(g.laplacian_matrix, K)
    n, m = net.node_count, net.dimension
    diag, tiny = np.arange(n), np.finfo(float).tiny
    # one buffer: each gradient is read (its norm, its Newton step) before the next overwrites it
    drift = net.drift_into(np.empty((n, m)))

    def grad_at(y: np.ndarray) -> np.ndarray:
        # an overflowed iterate stops here instead of spending the budget on NaNs
        if not np.all(np.isfinite(y)):
            raise InputError("state entries must be finite")
        return drift(A, y)

    x = np.array(x_init, dtype=float).reshape(n, m).take(net.order, axis=0)
    grad = grad_at(x)
    gnorm = float(np.linalg.norm(grad))
    for _ in range(max_iter):
        if gnorm <= tol:
            return x.take(net.inverse, axis=0)
        H = net.hessian(A, x)  # (m, N, N), one block per component
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
        return x.take(net.inverse, axis=0)
    raise NumericalError(
        f"minimize_aggregate exhausted {max_iter} iterations; final gradient norm "
        f"{gnorm:.3e} (target {tol:.1e})"
    )


def check_spectral_bound(
    potentials,
    g: WeightedDigraph,
    K: float,
    x_init,
    grad_tol: float = 1e-10,
    tol: float = 1e-8,
) -> CheckReport:
    """Disagreement of the aggregate potential's minimizer against the spectral-gap bound.

    The minimizer p is ``minimize_aggregate``'s, from ``x_init`` down to a gradient norm of
    at most ``grad_tol``.  Its blockwise deviation from the block average must satisfy
    sum_i |p_i - p_ave|^2 <= (drift_norm / (K * lambda2))^2 within ``tol``, where drift_norm
    is the norm of the stacked self-gradients at p and lambda2 the second-smallest Laplacian
    eigenvalue of the graph, whose gate refuses a graph that is not symmetric and connected.
    """
    validate_spectral_gain(K)
    lam2 = lambda2(g)
    P = minimize_aggregate(potentials, g, K, x_init, tol=grad_tol)
    p_ave = P.mean(axis=0)
    lhs = float(np.sum((P - p_ave) ** 2))
    l0 = float(np.linalg.norm(NetworkPotential(potentials).gradient(P)))
    bound = (l0 / (K * lam2)) ** 2
    return CheckReport(
        check="spectral_bound",
        passed=lhs <= bound + tol,
        worst_value=lhs - bound,
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
        diag = integrate(potentials, sig, K, x0, dt, horizon, sample_every)
        entry: dict = {"run": ridx}
        if body is not None:
            tail_sup = check_sync(diag, tol, tail_fraction).worst_value
            final_dev = float(body.distance(diag.states[-1]).max())
            ok = tail_sup <= tol and final_dev <= tol
            entry.update({"tail_diameter": tail_sup, "final_deviation": final_dev, "pass": ok})
            worst = max(worst, tail_sup, final_dev)
        else:
            rep = check_no_sync(diag, min_floor, tail_fraction)
            ok = rep.passed
            entry.update({"observed_floor": rep.worst_value, "pass": ok})
            worst = max(worst, -rep.worst_value)
        all_pass = all_pass and ok
        runs.append(entry)
    return CheckReport(
        check="sync_iff_common_zero",
        passed=all_pass,
        worst_value=None if worst == -math.inf else worst,
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
            diag = integrate(potentials, signal, k, x0, dt, t_end, sample_every)
            row["epsilon_estimate"] = check_sync(diag, tail_fraction=tail_fraction).worst_value
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
        params=params,
    )


def cube_containment(diag: DiagnosticsSeries, eta: float = 0.5, slack: float = 1e-8) -> CheckReport:
    """A 1-D trajectory stays in the cube spanned by argmin representatives.

    The cube is [y_lo - eta, y_hi + eta] per node, where y_lo/y_hi are the
    extremes of each node's argmin midpoint.  If the first sample starts
    outside the cube the claim does not apply and the report marks the
    precondition unmet instead of failing the invariance itself.
    """
    if diag.states.shape[2] != 1:
        raise InputError("invariant cube applies to one-dimensional node states only")
    validate_eta(eta)
    reps = [float(p.zero_set().center()[0]) for p in diag.potentials]
    lo = min(reps) - eta
    hi = max(reps) + eta
    x0 = diag.states[0]
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
    overflow = np.maximum(diag.states - hi, lo - diag.states)
    k = int(np.argmax(overflow.max(axis=(1, 2))))
    worst = float(overflow.max())
    return CheckReport(
        check="invariant_cube",
        passed=worst <= slack,
        worst_value=worst,
        location={"time": float(diag.times[k])},
        params={"precondition_met": True, "cube": [lo, hi], "eta": eta, "slack": slack},
    )

