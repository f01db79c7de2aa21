"""Scenario-driven command-line front end.

Commands
--------
``syncflow simulate <scenario.json> [--out DIR]``
    Run the scenario, write ``trajectory.csv``, ``report.json``, ``plot.gp``
    (and ``sweep.csv`` when the scenario carries a K_list).
``syncflow verify <scenario.json>``
    Run the checks only and print one line per check; no files.
``syncflow sweep <scenario.json> --k 1,2,4,8 [--out DIR]``
    Coupling-gain sweep; writes ``sweep.csv``.

Exit codes: 0 all checks pass, 1 check failure, 2 input error, 3 numerical
error.  Identical scenarios (and seeds) produce byte-identical CSV output:
floats are written with 17 significant digits so round-trips are lossless.
"""

import argparse
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, graphs
from .convex_geometry import check_drift_alignment
from .errors import FiniteEscapeError, InputError, NumericalError, PreconditionError, SyncflowError
from .graphs import SwitchingSignal, WeightedDigraph
from .potentials import FlatBottom1D, Potential, Quadratic, QuarticWell, SumPotential
from .potentials import common_zero_set
from .report import CheckReport, jsonable
from .simulator import default_sample_every, integrate, validate_dt, validate_event_count

SCHEMA_VERSION = 1
# every top-level scenario field; load_scenario refuses any other
FIELDS = tuple("version name nodes weight_bounds graphs signal K K_list epsilon x0 x0_range dt "
               "t_end sample_every tail_fraction checks".split())

@dataclass
class Scenario:
    """Fully validated run description loaded from a JSON scenario file."""

    name: str
    potentials: list
    signal: SwitchingSignal
    x0: np.ndarray  # (N, m) node blocks
    dt: float
    t_end: float
    sample_every: float
    K: float | None = None
    K_list: list | None = None
    checks: list = field(default_factory=list)  # (name, params) pairs, see CHECKS
    epsilon: float = 0.05
    tail_fraction: float = analysis.DEFAULT_TAIL_FRACTION

    @property
    def node_count(self) -> int:
        return len(self.potentials)

    @property
    def dim(self) -> int:
        return self.potentials[0].dimension

    @property
    def primary_K(self) -> float:
        # a sweep scenario's primary trajectory uses its largest gain
        return self.K if self.K is not None else self.K_list[-1]


def _fail(msg: str):
    raise InputError(msg)


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        _fail(f"{where}: missing required field {key!r}")
    return obj[key]


def _number(value, key: str, positive: bool = False) -> float:
    """Every number in a scenario is read here: a finite float, positive if asked."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"field {key!r} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer literal beyond the float range
        v = math.inf
    if not math.isfinite(v) or (positive and v <= 0):
        what = "positive finite" if positive else "finite"
        _fail(f"field {key!r} must be a {what} number, got {value!r}")
    return v


def _numbers(value, key: str, length: int | None = None) -> list[float]:
    if not isinstance(value, list):
        _fail(f"field {key!r} must be a list of numbers, got {value!r}")
    if length is not None and len(value) != length:
        _fail(f"field {key!r} must hold {length} numbers, got {len(value)}")
    return [_number(v, key) for v in value]


def _integer(value, key: str) -> int:
    v = _number(value, key)
    if not v.is_integer():
        _fail(f"field {key!r} must be an integer, got {value!r}")
    return int(v)


_KINDS = {"quadratic", "quartic", "flat_bottom", "sum"}
MAX_SUM_DEPTH = 32  # "sum" potentials nested inside one another


def potential_from_dict(d: dict, depth: int = 0) -> Potential:
    """Parse the scenario-file potential ``d``, nested in ``depth`` sums; see ``_number``."""
    if not isinstance(d, dict) or "kind" not in d:
        _fail(f"potential entry must be an object with a 'kind' field, got {d!r}")
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        _fail(f"unknown potential kind {kind!r}; expected one of {sorted(_KINDS)}")
    try:
        if kind == "quadratic":
            weight = _number(d.get("weight", 1.0), "weight")
            return Quadratic(_numbers(d["center"], "center"), weight)
        if kind == "quartic":
            return QuarticWell(_numbers(d["center"], "center"))
        if kind == "flat_bottom":
            return FlatBottom1D(_number(d["left"], "left"), _number(d["right"], "right"))
        terms = d["terms"]
    except KeyError as e:
        raise InputError(f"potential kind {kind!r} is missing field {e.args[0]!r}") from None
    if not isinstance(terms, list):
        _fail(f"field 'terms' must be a list of potential objects, got {terms!r}")
    if depth >= MAX_SUM_DEPTH:
        _fail(f"'sum' potentials nest deeper than {MAX_SUM_DEPTH} levels")
    return SumPotential(tuple(potential_from_dict(t, depth + 1) for t in terms))


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file; every invariant is checked here."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise InputError(f"cannot read scenario file {p}: {e}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(
            f"parse error in {p} at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    except RecursionError:
        raise InputError(f"{p} nests deeper than the JSON decoder allows") from None
    if not isinstance(raw, dict):
        _fail("scenario file must contain a JSON object")
    if isinstance(raw.get("version"), bool) or raw.get("version") != SCHEMA_VERSION:
        _fail(f"unsupported scenario version {raw.get('version')!r}; expected {SCHEMA_VERSION}")
    unknown = ", ".join(repr(key) for key in raw if key not in FIELDS)
    if unknown:
        _fail(f"unknown scenario field(s) {unknown}; the accepted fields are: {', '.join(FIELDS)}")

    nodes_raw = _require(raw, "nodes", "scenario")
    if not isinstance(nodes_raw, list) or not nodes_raw:
        _fail("field 'nodes' must be a nonempty list of potential objects")
    potentials = [potential_from_dict(d) for d in nodes_raw]
    dims = {pot.dimension for pot in potentials}
    if len(dims) != 1:
        _fail(f"all node potentials must share one dimension, got {sorted(dims)}")
    n = len(potentials)
    m = dims.pop()

    a_lo, a_hi = _numbers(raw.get("weight_bounds", [1e-6, 1e6]), "weight_bounds", 2)
    if not (0 < a_lo <= a_hi):
        _fail(f"weight bounds require 0 < a_lo <= a_hi, got [{a_lo}, {a_hi}]")

    graphs_raw = _require(raw, "graphs", "scenario")
    if not isinstance(graphs_raw, dict) or not graphs_raw:
        _fail("field 'graphs' must map graph ids to edge-triple lists")
    library = {}
    for gid, edges in graphs_raw.items():
        if not isinstance(edges, list):
            _fail(f"graph {gid!r} must be a list of edge triples, got {edges!r}")
        arcs = []
        for e in edges:
            if not (isinstance(e, list) and len(e) == 3):
                _fail(f"graph {gid!r}: edge must be [source, target, weight], got {e!r}")
            j, i = _integer(e[0], "edge source"), _integer(e[1], "edge target")
            w = _number(e[2], "edge weight")
            if not (a_lo - 1e-15 <= w <= a_hi + 1e-15):
                _fail(
                    f"graph {gid!r}: weight {w} of arc ({j}, {i}) is outside "
                    f"the declared bounds [{a_lo}, {a_hi}]"
                    + (" (weight below a_lo)" if w < a_lo else "")
                )
            arcs.append((j, i, w))
        library[str(gid)] = WeightedDigraph(node_count=n, arcs=tuple(arcs))

    sig_raw = _require(raw, "signal", "scenario")
    if not isinstance(sig_raw, dict):
        _fail(f"field 'signal' must be an object, got {sig_raw!r}")
    stype = _require(sig_raw, "type", "signal")
    if stype == "fixed":
        gid = str(_require(sig_raw, "graph", "fixed signal"))
        if gid not in library:
            _fail(f"signal references unknown graph id {gid!r}")
        dwell = _number(sig_raw.get("dwell_floor", 1.0), "dwell_floor", positive=True)
        segs = [(gid, dwell)]  # a fixed graph is a one-segment cycle
    elif stype == "periodic":
        segs_raw = _require(sig_raw, "segments", "periodic signal")
        if not isinstance(segs_raw, list) or not segs_raw:
            _fail("periodic signal needs a nonempty 'segments' list of [graph_id, duration]")
        segs = []
        for s in segs_raw:
            if not (isinstance(s, list) and len(s) == 2):
                _fail(f"segment must be [graph_id, duration], got {s!r}")
            gid = str(s[0])
            if gid not in library:
                _fail(f"segment references unknown graph id {gid!r}")
            segs.append((gid, _number(s[1], "segment duration", positive=True)))
        dwell = _number(
            _require(sig_raw, "dwell_floor", "periodic signal"), "dwell_floor", positive=True
        )
    else:
        _fail(f"signal type must be 'fixed' or 'periodic', got {stype!r}")
    signal = SwitchingSignal(library, segs, dwell)

    has_k = "K" in raw
    has_list = "K_list" in raw
    if has_k == has_list:
        _fail("scenario must set exactly one of 'K' or 'K_list'")
    K = K_list = None
    if has_k:
        K = _number(raw["K"], "K")
        if K < 0:
            _fail(f"K must be nonnegative, got {K}")
    else:
        K_list = analysis.validate_K_list(_numbers(raw["K_list"], "K_list"))

    dt = _number(raw["dt"], "dt", positive=True) if "dt" in raw else signal.dwell_floor / 10.0
    t_end = _number(_require(raw, "t_end", "scenario"), "t_end", positive=True)
    sample_every = (
        _number(raw["sample_every"], "sample_every", positive=True)
        if "sample_every" in raw
        else default_sample_every(dt)
    )
    validate_dt(signal, dt)
    validate_event_count(signal, t_end, sample_every, dt)

    x0 = _parse_x0(raw, n, m)

    tail_fraction = analysis.validate_tail_fraction(
        _number(raw.get("tail_fraction", analysis.DEFAULT_TAIL_FRACTION), "tail_fraction")
    )
    checks_raw = raw.get("checks", [])
    if not isinstance(checks_raw, list):
        _fail(f"field 'checks' must be a list of check objects, got {checks_raw!r}")
    checks = [_load_check(c, tail_fraction) for c in checks_raw]

    scenario = Scenario(
        name=str(raw.get("name", p.stem)),
        potentials=potentials,
        signal=signal,
        x0=x0,
        dt=dt,
        t_end=t_end,
        sample_every=sample_every,
        K=K,
        K_list=K_list,
        checks=checks,
        epsilon=_number(raw.get("epsilon", 0.05), "epsilon"),
        tail_fraction=tail_fraction,
    )
    for name, _ in checks:
        CHECKS[name].precondition(scenario)
    return scenario


def _parse_x0(raw: dict, n: int, m: int) -> np.ndarray:
    spec = _require(raw, "x0", "scenario")
    lo, hi = _numbers(raw.get("x0_range", [-5.0, 5.0]), "x0_range", 2)
    if not (lo <= hi and math.isfinite(hi - lo)):
        _fail(f"x0_range [{lo}, {hi}] must have lo <= hi and a finite width hi - lo")
    if isinstance(spec, list):
        return np.reshape(_numbers(spec, "x0", n * m), (n, m))
    if spec == "grid":
        return np.linspace(lo, hi, n * m).reshape(n, m)
    if isinstance(spec, str) and spec.startswith("random:"):
        try:  # int() refuses a non-integer seed, default_rng a negative one
            rng = np.random.default_rng(int(spec.split(":", 1)[1]))
        except ValueError:
            _fail(f"x0 generator {spec!r} needs a nonnegative integer seed, e.g. 'random:42'")
        return rng.uniform(lo, hi, size=(n, m))
    _fail(f"x0 must be a list of numbers, 'grid', or 'random:<seed>', got {spec!r}")


# -- checks -------------------------------------------------------------------

TAIL = object()  # a parameter default read from the scenario's tail_fraction


@dataclass(frozen=True)
class Required:
    """A check parameter without a default; ``what`` describes it in the load error."""

    what: str


@dataclass(frozen=True)
class Check:
    """A scenario check: its parameters with their defaults, a load-time
    precondition ``(scenario)`` that raises InputError, and its run
    ``(scenario, traj, diag, params) -> CheckReport``, which calls the library
    through its modules so that a function patched there is the one that runs.
    """

    params: dict
    run: Callable
    precondition: Callable = lambda scenario: None


def _fixed_symmetric_connected(sc: Scenario):
    if sc.signal.has_switches():
        _fail("check 'spectral_bound' requires a fixed signal")
    try:
        graphs.require_undirected(sc.signal.graph_at(0.0), "check 'spectral_bound'")
    except PreconditionError as e:
        _fail(str(e))
    if sc.primary_K <= 0:
        _fail("check 'spectral_bound' requires K > 0")


def _one_dimensional(sc: Scenario):
    if sc.dim != 1:
        _fail("check 'invariant_cube' requires one-dimensional node states")


def _common_zero(sc: Scenario):
    if common_zero_set(sc.potentials) is None:
        _fail("checks 'monotone_V'/'common_limit' need a nonempty intersection of zero sets")


def _spectral_bound(sc: Scenario, traj, diag, p):
    g = sc.signal.graph_at(0.0)
    # on a fixed symmetric graph the primary run is the gradient flow of this
    # aggregate at this K, so its last sample is already near the minimizer
    x = analysis.minimize_aggregate(
        sc.potentials, g, sc.primary_K, traj.states[-1], tol=p["grad_tol"]
    )
    return analysis.check_spectral_bound(x, sc.potentials, g, sc.primary_K, tol=p["tol"])


def _drift_alignment(sc: Scenario, traj, diag, p):
    samples = traj.states.reshape(-1, sc.dim)
    if samples.shape[0] > 512:
        samples = samples[:: samples.shape[0] // 512 + 1]
    return check_drift_alignment(sc.potentials, samples, **p)


CHECKS = {
    "sync": Check(
        {"tol": 1e-6, "tail_fraction": TAIL},
        lambda sc, traj, diag, p: analysis.check_sync(traj, diameter=diag.diameter, **p),
    ),
    "no_sync": Check(
        {"floor": 1e-3, "tail_fraction": TAIL},
        lambda sc, traj, diag, p: analysis.check_no_sync(diag, **p),
    ),
    "monotone_V": Check(
        {"rise_tol": None},
        lambda sc, traj, diag, p: analysis.check_monotone(diag.v, label="V", **p),
        _common_zero,
    ),
    "monotone_theta": Check(
        {"rise_tol": None},
        lambda sc, traj, diag, p: analysis.check_monotone(diag.theta, label="theta", **p),
    ),
    "common_limit": Check(
        {"tol": 1e-6, "tail_fraction": TAIL},
        lambda sc, traj, diag, p: analysis.check_common_limit(diag, **p),
        _common_zero,
    ),
    "node_optimum": Check(
        {"tol": 1e-6, "tail_fraction": TAIL},
        lambda sc, traj, diag, p: analysis.check_node_optimum(diag, sc.potentials, **p),
    ),
    "invariant_cube": Check(
        {"eta": 0.5, "slack": 1e-8},
        lambda sc, traj, diag, p: analysis.cube_containment(traj, sc.potentials, **p),
        _one_dimensional,
    ),
    "drift_alignment": Check({"tol": 1e-10}, _drift_alignment),
    "feasibility": Check({}, lambda sc, traj, diag, p: analysis.check_feasibility(sc.potentials)),
    "spectral_bound": Check(
        {"grad_tol": 1e-10, "tol": 1e-8}, _spectral_bound, _fixed_symmetric_connected
    ),
    "ujsc": Check(
        {"T": Required("a window length")},
        lambda sc, traj, diag, p: graphs.certify_ujsc(sc.signal, **p),
    ),
}


# the library's owner of each parameter's range, run at load on a value the check sets
RANGES = {
    "tail_fraction": analysis.validate_tail_fraction,
    "rise_tol": analysis.validate_rise_tol,
    "eta": analysis.validate_eta,
    "grad_tol": analysis.validate_grad_tol,
    "T": graphs.validate_window,
}


def _load_check(c, tail_fraction: float) -> tuple[str, dict]:
    """A check object as ``(name, params)``, every parameter read or defaulted."""
    if not isinstance(c, dict) or "name" not in c:
        _fail(f"each check must be an object with a 'name', got {c!r}")
    name = c["name"]
    if not isinstance(name, str) or name not in CHECKS:
        _fail(f"unknown check {name!r}; expected one of {sorted(CHECKS)}")
    spec = CHECKS[name].params
    for key in c:
        if key != "name" and key not in spec:
            accepted = ", ".join(spec) or "none"
            _fail(f"check {name!r} has no parameter {key!r}; it accepts: {accepted}")
    params = {}
    for key, default in spec.items():
        if key in c:
            params[key] = _number(c[key], f"{name}.{key}")
            if key in RANGES:
                RANGES[key](params[key])
        elif isinstance(default, Required):
            _fail(f"check {name!r} needs {default.what} {key!r}")
        else:
            params[key] = tail_fraction if default is TAIL else default
    return name, params


# -- execution ----------------------------------------------------------------


def _write_trajectory_csv(path: Path, sc: Scenario, traj, diag):
    series = {"diameter": diag.diameter, "V": diag.v, "theta": diag.theta}
    series = {name: v for name, v in series.items() if v is not None}
    cols = ["t"] + [f"x_{i}_{k}" for i in range(sc.node_count) for k in range(sc.dim)]
    cols += list(series)
    table = np.column_stack([traj.times, traj.states.reshape(len(traj), -1), *series.values()])
    row = ",".join(["%.17g"] * len(cols)) + "\n"  # 17 digits round-trip; one format call per row
    with path.open("w") as f:  # row by row: neither the text nor the floats are held whole
        f.write(",".join(cols) + "\n")
        f.writelines(row % tuple(r.tolist()) for r in table)


def _write_plot_script(path: Path, sc: Scenario, csv_name: str = "trajectory.csv"):
    ncols = 1 + sc.node_count * sc.dim
    path.write_text(
        "# gnuplot script: node trajectories and disagreement diameter\n"
        'set datafile separator ","\n'
        "set key outside\n"
        'set xlabel "t"\n'
        f'plot for [col=2:{ncols}] "{csv_name}" using 1:col with lines title columnheader(col), \\\n'
        f'     "{csv_name}" using 1:{ncols + 1} with lines lw 2 title "diameter"\n'
    )


def _write_sweep_csv(path: Path, sweep: CheckReport):
    rows = [
        "%.17g,%.17g" % (r["K"], r["epsilon_estimate"] if r["error"] is None else math.nan)
        for r in sweep.params["rows"]
    ]
    path.write_text("\n".join(["K,epsilon_estimate", *rows]) + "\n")


def _execute(sc: Scenario):
    """Simulate the primary trajectory, run checks, optionally sweep."""
    traj = integrate(
        sc.potentials,
        sc.signal,
        sc.primary_K,
        sc.x0,
        sc.dt,
        sc.t_end,
        sc.sample_every,
        scenario_id=sc.name,
    )
    z_star = "auto" if common_zero_set(sc.potentials) is not None else None
    diag = analysis.diagnostics(traj, sc.potentials, z_star=z_star)
    reports = [CHECKS[name].run(sc, traj, diag, params) for name, params in sc.checks]
    sweep = None
    if sc.K_list is not None:
        sweep = _sweep(sc, sc.K_list)
        reports.append(sweep)
    return traj, diag, reports, sweep


def _sweep(sc: Scenario, K_list) -> CheckReport:
    return analysis.sweep_K(
        sc.potentials,
        sc.signal,
        sc.x0,
        K_list,
        epsilon=sc.epsilon,
        dt=sc.dt,
        t_end=sc.t_end,
        sample_every=sc.sample_every,
        tail_fraction=sc.tail_fraction,
    )


def _report_json(sc: Scenario, reports, error=None) -> str:
    payload = {
        "scenario": sc.name,
        "pass": error is None and all(r.passed for r in reports),
        "error": jsonable(error),
        "checks": [r.as_dict() for r in reports],
    }
    return json.dumps(payload, indent=2)


def run(scenario: Scenario, out_dir) -> int:
    """Simulate, check, and write artifacts; returns the process exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        traj, diag, reports, sweep = _execute(scenario)
    except NumericalError as e:
        error = {"type": type(e).__name__, "message": str(e)}
        if isinstance(e, FiniteEscapeError):
            error.update(time=e.time, sup_norm=e.sup_norm, bound=e.bound, step=e.step)
        (out / "report.json").write_text(_report_json(scenario, [], error=error))
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    _write_trajectory_csv(out / "trajectory.csv", scenario, traj, diag)
    _write_plot_script(out / "plot.gp", scenario)
    if sweep is not None:
        _write_sweep_csv(out / "sweep.csv", sweep)
    (out / "report.json").write_text(_report_json(scenario, reports))
    for r in reports:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.check}")
    return 0 if all(r.passed for r in reports) else 1


def verify(scenario: Scenario) -> int:
    """Run checks only (no files); prints one line per check."""
    _, _, reports, _ = _execute(scenario)
    for r in reports:
        worst = "" if r.worst_value is None else f" (worst={r.worst_value:.3e})"
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.check}{worst}")
    return 0 if all(r.passed for r in reports) else 1


def sweep_command(scenario: Scenario, k_arg: str | None, out_dir) -> int:
    if k_arg:
        try:
            k_list = [float(s) for s in k_arg.split(",") if s.strip()]
        except ValueError:
            raise InputError(f"--k expects comma-separated numbers, got {k_arg!r}") from None
    elif scenario.K_list is not None:
        k_list = scenario.K_list
    else:
        raise InputError("sweep needs --k or a scenario K_list")
    sweep = _sweep(scenario, k_list)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_sweep_csv(out / "sweep.csv", sweep)
    for r in sweep.params["rows"]:
        eps, err = r["epsilon_estimate"], r["error"]
        print(f"K={r['K']:g}: " + (f"epsilon_estimate={eps:.6g}" if err is None else f"error: {err}"))
    print(f"[{'PASS' if sweep.passed else 'FAIL'}] sweep (epsilon={scenario.epsilon:g})")
    return 0 if sweep.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="syncflow",
        description="Simulate and verify synchronization of diffusively coupled convex-gradient networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser("simulate", help="run a scenario and write CSV/JSON artifacts")
    p_sim.add_argument("scenario")
    p_sim.add_argument("--out", default="out", help="output directory (default: ./out)")
    p_ver = sub.add_parser("verify", help="run the scenario checks only (exit-code contract)")
    p_ver.add_argument("scenario")
    p_swp = sub.add_parser("sweep", help="sweep the coupling gain")
    p_swp.add_argument("scenario")
    p_swp.add_argument("--k", default=None, help="comma-separated gains, e.g. 1,2,4,8")
    p_swp.add_argument("--out", default="out", help="output directory (default: ./out)")
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
        if args.command == "simulate":
            return run(scenario, args.out)
        if args.command == "verify":
            return verify(scenario)
        return sweep_command(scenario, args.k, args.out)
    except (InputError, PreconditionError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except SyncflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
