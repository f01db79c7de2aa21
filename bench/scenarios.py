"""Seeded scenario generator for the three benchmark workloads.

Each workload is a function of (seed, size) that returns a scenario dict in
the syncflow JSON schema, plus the command that runs it and the per-check
verdicts the theory predicts.  The program under test sees only the written
JSON file.

Workloads
---------
ring_switch_1d  ``simulate``: N nodes on a bidirectional ring whose even and
                odd arc halves alternate.  Every zero set holds 1.0, so the
                network synchronizes; the integrator, the potentials and the
                CSV writer carry the cost, and 1-D hulls are intervals, so no
                hull projection runs.
hull_2d         ``verify``: a 2-D network on a forward/reverse directed ring.
                Quartic terms break drift alignment on the feasibility cloud,
                so ``assumption_feasibility`` is a control that must FAIL;
                hull projection carries the cost.
gain_sweep      ``verify`` on a ``K_list`` scenario over a fixed symmetric ring
                with chords: the thread-pool gain sweep, the aggregate
                minimizer and ``lambda2`` carry the cost.
"""

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("ring_switch_1d", "hull_2d", "gain_sweep")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "verify"
    scenario: dict
    expected: dict  # check name -> expected pass flag; None: no prediction
    expected_exit: int

    @property
    def node_count(self) -> int:
        return len(self.scenario["nodes"])

    @property
    def lanes(self) -> int:
        """Trajectories one command integrates: the primary run plus sweep lanes."""
        return 1 + len(self.scenario.get("K_list", []))


# Full sizes run by the benchmark; smoke sizes keep every verdict but run in
# well under a second each.  ring_switch_1d needs t_end 20: its diameter
# halves about every 2 time units, and the sync check reads the last 20% of
# the horizon against tol 1e-2.
SIZES = {
    "full": {
        "ring_switch_1d": {"n": 200, "t_end": 20.0},
        "hull_2d": {"n": 20, "t_end": 6.0},
        "gain_sweep": {"n": 60, "t_end": 4.0},
    },
    "smoke": {
        "ring_switch_1d": {"n": 16, "t_end": 20.0},
        "hull_2d": {"n": 8, "t_end": 1.6},
        "gain_sweep": {"n": 10, "t_end": 1.0},
    },
}


def _round(v: float) -> float:
    # 12 significant digits keep the JSON short and exactly reproducible
    return float(f"{v:.12g}")


def ring_switch_1d(rng: np.random.Generator, n: int, t_end: float) -> Workload:
    if n < 4 or n % 2:
        raise ValueError("ring_switch_1d needs an even node count >= 4")
    nodes = []
    for i in range(n):
        kind = i % 4  # cyclic, so every node is at most 3 hops from a quadratic
        if kind == 0:
            nodes.append({"kind": "quadratic", "center": [1.0],
                          "weight": _round(rng.uniform(0.5, 2.0))})
        elif kind == 1:
            nodes.append({"kind": "quartic", "center": [1.0]})
        elif kind == 2:
            nodes.append({"kind": "flat_bottom", "left": _round(1.0 - rng.uniform(0.0, 0.5)),
                          "right": _round(1.0 + rng.uniform(0.0, 0.5))})
        else:
            nodes.append({"kind": "sum", "terms": [
                {"kind": "quadratic", "center": [1.0], "weight": _round(rng.uniform(0.5, 2.0))},
                {"kind": "quartic", "center": [1.0]},
            ]})
    even, odd = [], []
    for i in range(n):
        j = (i + 1) % n
        w = _round(rng.uniform(1.0, 2.0))
        (even if i % 2 == 0 else odd).extend([[i, j, w], [j, i, w]])
    scenario = {
        "version": 1,
        "name": "ring_switch_1d",
        "nodes": nodes,
        "weight_bounds": [0.5, 2.0],
        "graphs": {"even": even, "odd": odd},
        "signal": {"type": "periodic", "segments": [["even", 0.5], ["odd", 0.5]],
                   "dwell_floor": 0.5},
        "K": 2.0,
        "x0": f"random:{int(rng.integers(1 << 30))}",
        "x0_range": [0.5, 1.5],
        "dt": 0.05,
        "t_end": t_end,
        "sample_every": 0.1,
        "checks": [
            {"name": "ujsc", "T": 1.0},
            {"name": "monotone_V"},
            {"name": "monotone_theta"},
            {"name": "invariant_cube", "eta": 2.5},
            {"name": "sync", "tol": 1e-2},
        ],
    }
    expected = {"ujsc": True, "monotone_V": True, "monotone_theta": True,
                "invariant_cube": True, "sync": True}
    return Workload("ring_switch_1d", "simulate", scenario, expected, 0)


def _distinct_centers(rng: np.random.Generator, n: int, half: float) -> np.ndarray:
    # rejection keeps every pair at least half/n apart, so no two nodes share
    # a zero set and exact synchronization is impossible
    gap = half / n
    pts: list = []
    while len(pts) < n:
        c = rng.uniform(-half, half)
        if all(abs(c - p) >= gap for p in pts):
            pts.append(c)
    return np.array(pts)


def hull_2d(rng: np.random.Generator, n: int, t_end: float) -> Workload:
    if n < 6:
        raise ValueError("hull_2d needs at least 6 nodes")
    # Fixed geometry, so the feasibility control fails on every seed: four
    # quadratic nodes on the corners of a square of radius 4 turned 22.5
    # degrees, and one sum node whose quartic center lies 4 units beyond a
    # corner.  Its componentwise cubic drift points away from the hull on
    # 14 points of the feasibility cloud (worst inner product ~143).  The
    # remaining nodes have both centers in [-1.9, 1.9]^2, inside the frame,
    # so they never move the hull or the cloud; the start box
    # [-1.5, 1.5]^2 lies inside the hull as well.
    th = math.radians(22.5)
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    corners = [rot @ (4.0 * np.array([math.cos(a), math.sin(a)]))
               for a in (math.pi / 4 + k * math.pi / 2 for k in range(4))]

    def quadratic(c, w):
        return {"kind": "quadratic", "center": [_round(v) for v in c], "weight": w}

    def quad_plus_quartic(c, w, c2):
        return {"kind": "sum", "terms": [quadratic(c, w),
                                         {"kind": "quartic", "center": [_round(v) for v in c2]}]}

    nodes = [quadratic(c, _round(rng.uniform(0.5, 2.0))) for c in corners]
    nodes.append(quad_plus_quartic(corners[3], 1.0, corners[3] + np.array([4.0, -1.0])))
    for i in range(len(nodes), n):
        c, w = rng.uniform(-1.9, 1.9, size=2), _round(rng.uniform(0.5, 2.0))
        if i % 2:
            nodes.append(quad_plus_quartic(c, w, rng.uniform(-1.9, 1.9, size=2)))
        else:
            nodes.append(quadratic(c, w))
    fwd = [[i, (i + 1) % n, _round(rng.uniform(0.5, 2.0))] for i in range(n)]
    rev = [[(i + 1) % n, i, _round(rng.uniform(0.5, 2.0))] for i in range(n)]
    scenario = {
        "version": 1,
        "name": "hull_2d",
        "nodes": nodes,
        "weight_bounds": [0.5, 2.0],
        "graphs": {"fwd": fwd, "rev": rev},
        "signal": {"type": "periodic", "segments": [["fwd", 0.4], ["rev", 0.4]],
                   "dwell_floor": 0.4},
        "K": 1.0,
        "x0": f"random:{int(rng.integers(1 << 30))}",
        "x0_range": [-1.5, 1.5],
        "dt": 0.02,
        "t_end": t_end,
        "sample_every": 0.05,
        "checks": [
            {"name": "ujsc", "T": 0.8},
            {"name": "monotone_theta"},
            {"name": "drift_alignment"},
            {"name": "feasibility"},
            {"name": "no_sync", "floor": 1e-3},
        ],
    }
    # Without drift alignment the theory predicts nothing for theta
    # monotonicity or for alignment along the trajectory (both depend on the
    # seed), so those two are checked for reproducibility only.
    expected = {"ujsc": True, "monotone_theta": None, "drift_alignment": None,
                "assumption_feasibility": False, "no_sync": True}
    return Workload("hull_2d", "verify", scenario, expected, 1)


def gain_sweep(rng: np.random.Generator, n: int, t_end: float) -> Workload:
    centers = _distinct_centers(rng, 2 * n, 2.0)
    nodes = []
    for i in range(n):
        c = _round(centers[2 * i])
        if i % 2 == 0:
            nodes.append({"kind": "quadratic", "center": [c],
                          "weight": _round(rng.uniform(0.5, 2.0))})
        else:
            nodes.append({"kind": "sum", "terms": [
                {"kind": "quadratic", "center": [c], "weight": _round(rng.uniform(0.5, 2.0))},
                {"kind": "quartic", "center": [_round(centers[2 * i + 1])]},
            ]})
    # Weights in [0.5, 1] and centers and starts in [-2, 2] keep K * lambda_max
    # and the quartic stiffness 3|x - c|^2 inside RK4's stability interval at
    # K = 8 and dt 0.025; wider ranges let some seeds escape at t ~ 0.05.
    pairs = {(i, (i + 1) % n) for i in range(n)}
    chord = max(2, n // 4)
    pairs |= {(i, (i + chord) % n) for i in range(0, n, 3)}
    arcs = []
    for a, b in sorted(pairs):
        w = _round(rng.uniform(0.5, 1.0))
        arcs += [[a, b, w], [b, a, w]]
    scenario = {
        "version": 1,
        "name": "gain_sweep",
        "nodes": nodes,
        "weight_bounds": [0.5, 2.0],
        "graphs": {"g": arcs},
        "signal": {"type": "fixed", "graph": "g"},
        "K_list": [1.0, 2.0, 4.0, 8.0],
        "epsilon": 10.0,
        "x0": f"random:{int(rng.integers(1 << 30))}",
        "x0_range": [-2.0, 2.0],
        "dt": 0.025,
        "t_end": t_end,
        "sample_every": 0.1,
        "checks": [
            {"name": "spectral_bound"},
            {"name": "feasibility"},
            {"name": "no_sync", "floor": 1e-4},
        ],
    }
    expected = {"spectral_bound": True, "assumption_feasibility": True, "no_sync": True,
                "sweep_K": True}
    return Workload("gain_sweep", "verify", scenario, expected, 0)


_GENERATORS = {"ring_switch_1d": ring_switch_1d, "hull_2d": hull_2d, "gain_sweep": gain_sweep}


def make(name: str, seed: int, size: str = "full") -> Workload:
    """The workload ``name`` generated from ``seed``; same seed, same scenario."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _GENERATORS[name](rng, **SIZES[size][name])


def _switch_times(scenario: dict, t_end: float) -> list:
    sig = scenario["signal"]
    if sig["type"] == "fixed":
        return []
    segs = sig["segments"]
    period = sum(d for _, d in segs)
    changing, acc = [], 0.0
    for idx, (gid, dur) in enumerate(segs):
        acc += dur
        if gid != segs[(idx + 1) % len(segs)][0]:
            changing.append(acc)
    out, k, tol = [], 0, 1e-12
    while k * period <= t_end + tol:
        out += [min(k * period + c, t_end) for c in changing if tol < k * period + c <= t_end + tol]
        k += 1
    return out


def event_grid(scenario: dict):
    """(time, record) events of one integration, from the scenario alone.

    Samples fall on multiples of ``sample_every`` and on every switch; events
    closer than 1e-9 * max(1, t_end) merge.  This is the schedule the
    integrator documents, rebuilt here so the benchmark counts RK4 steps
    without reading any program counter.
    """
    t_end = float(scenario["t_end"])
    every = float(scenario["sample_every"])
    n_samples = int(math.floor(t_end / every + 1e-9))
    events = [(k * every, True) for k in range(n_samples + 1)]
    events += [(t, True) for t in _switch_times(scenario, t_end)]
    events.append((t_end, False))
    events.sort(key=lambda e: e[0])
    tol = 1e-9 * max(1.0, t_end)
    merged: list = []
    for t, rec in events:
        if merged and t - merged[-1][0] <= tol:
            merged[-1][1] = merged[-1][1] or rec
        else:
            merged.append([t, rec])
    return merged


def rk4_steps(scenario: dict) -> int:
    """RK4 steps of one integration: each event span split into ceil(span/dt) steps."""
    dt = float(scenario["dt"])
    grid = event_grid(scenario)
    return sum(
        max(1, math.ceil((b - a) / dt - 1e-9))
        for (a, _), (b, _) in zip(grid, grid[1:])
        if b - a > 0
    )


def sample_times(scenario: dict) -> list:
    """Times a trajectory records: t=0 plus every recording event."""
    grid = event_grid(scenario)
    return [0.0] + [t for t, rec in grid[1:] if rec]
