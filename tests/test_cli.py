import contextlib
import copy
import io
import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncflow import (
    ConfigurationError,
    InputError,
    NumericalError,
    WeightedDigraph,
    analysis,
    cli,
    fixed_signal,
    simulator,
)
from syncflow.cli import MAX_SUM_DEPTH, load_scenario, main, run, verify
from syncflow.simulator import validate_event_count

BASE = {
    "version": 1,
    "name": "base",
    "nodes": [
        {"kind": "quadratic", "center": [0.0], "weight": 1.0},
        {"kind": "quadratic", "center": [0.0], "weight": 2.0},
    ],
    "weight_bounds": [0.5, 2.0],
    "graphs": {"g0": [[0, 1, 1.0], [1, 0, 1.0]]},
    "signal": {"type": "fixed", "graph": "g0"},
    "K": 1.0,
    "x0": [3.0, -2.0],
    "dt": 0.02,
    "t_end": 12.0,
    "sample_every": 0.3,
    "checks": [{"name": "sync", "tol": 1e-4}],
}


def write(tmp_path, obj, name="scen.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


def test_load_minimal_two_node(tmp_path):
    sc = load_scenario(write(tmp_path, BASE))
    assert sc.node_count == 2
    assert sc.dim == 1
    assert sc.signal.graph_at(0.0).node_count == 2


def test_parse_error_reports_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "version": 1,\n  "nodes": [\n')
    with pytest.raises(InputError, match="line"):
        load_scenario(p)


def test_weight_below_bound_rejected(tmp_path):
    bad = dict(BASE, graphs={"g0": [[0, 1, 0.0], [1, 0, 1.0]]})
    with pytest.raises(InputError, match="below a_lo"):
        load_scenario(write(tmp_path, bad))


def test_segment_below_dwell_floor_rejected(tmp_path):
    bad = dict(
        BASE,
        graphs={"ga": [[0, 1, 1.0]], "gb": [[1, 0, 1.0]]},
        signal={"type": "periodic", "segments": [["ga", 0.2], ["gb", 1.0]], "dwell_floor": 0.5},
    )
    with pytest.raises(InputError, match="dwell"):
        load_scenario(write(tmp_path, bad))


def test_unknown_graph_id_rejected(tmp_path):
    bad = dict(BASE, signal={"type": "fixed", "graph": "nope"})
    with pytest.raises(InputError, match="unknown graph id"):
        load_scenario(write(tmp_path, bad))


def test_unknown_check_rejected(tmp_path):
    bad = dict(BASE, checks=[{"name": "frobnicate"}])
    with pytest.raises(InputError, match="unknown check"):
        load_scenario(write(tmp_path, bad))


def test_monotone_V_requires_common_zero(tmp_path):
    bad = dict(
        BASE,
        nodes=[
            {"kind": "quadratic", "center": [0.0]},
            {"kind": "quadratic", "center": [1.0]},
        ],
        checks=[{"name": "monotone_V"}],
    )
    with pytest.raises(InputError, match="intersection"):
        load_scenario(write(tmp_path, bad))


PERIODIC = {
    "graphs": {"ga": [[0, 1, 1.0]], "gb": [[1, 0, 1.0]]},
    "signal": {"type": "periodic", "segments": [["ga", 0.5], ["gb", 0.5]], "dwell_floor": 0.5},
}
PLANAR = {
    "nodes": [{"kind": "quadratic", "center": [0.0, 0.0]}] * 2,
    "x0": [1.0, 0.0, -1.0, 0.0],
}
APART = {"nodes": [{"kind": "quadratic", "center": [0.0]}, {"kind": "quadratic", "center": [1.0]}]}

# one case per load-time check precondition or parameter range: (scenario overrides, check, message)
PRECONDITIONS = {
    "spectral_periodic": (PERIODIC, {"name": "spectral_bound"},
                          "check 'spectral_bound' requires a fixed signal"),
    "spectral_asymmetric": ({"graphs": {"g0": [[0, 1, 1.0]]}}, {"name": "spectral_bound"},
                            "check 'spectral_bound' requires a symmetric graph"),
    "spectral_disconnected": ({"graphs": {"g0": []}}, {"name": "spectral_bound"},
                              "check 'spectral_bound' requires a connected graph"),
    "spectral_K_zero": ({"K": 0.0}, {"name": "spectral_bound"},
                        "check 'spectral_bound' requires K > 0"),
    "cube_planar": (PLANAR, {"name": "invariant_cube"},
                    "check 'invariant_cube' requires one-dimensional node states"),
    "common_limit_apart": (
        APART, {"name": "common_limit"},
        "checks 'monotone_V'/'common_limit' need a nonempty intersection of zero sets",
    ),
    "ujsc_without_T": ({}, {"name": "ujsc"}, "check 'ujsc' needs a window length 'T'"),
    "cube_eta_zero": ({}, {"name": "invariant_cube", "eta": 0}, "eta must be positive, got 0.0"),
    "ujsc_T_negative": ({}, {"name": "ujsc", "T": -1},
                        "window length T must be positive, got -1.0"),
    "monotone_rise_tol_negative": ({}, {"name": "monotone_theta", "rise_tol": -1e-9},
                                   "rise_tol must be nonnegative, got -1e-09"),
    "spectral_grad_tol_negative": ({}, {"name": "spectral_bound", "grad_tol": -1},
                                   "grad_tol must be positive, got -1.0"),
}


@pytest.mark.parametrize("case", PRECONDITIONS.values(), ids=PRECONDITIONS.keys())
def test_check_precondition_fails_at_load(tmp_path, capsys, case):
    overrides, check, message = case
    p, out = write(tmp_path, dict(BASE, **overrides, checks=[check])), tmp_path / "out"
    with pytest.raises(InputError) as err:
        load_scenario(p)
    assert str(err.value) == message
    assert main(["simulate", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


UNUSED_PARAMETERS = {
    "sync_tolerance": ({"name": "sync", "tolerance": 10},
                       "check 'sync' has no parameter 'tolerance'; it accepts: tol, tail_fraction"),
    "feasibility_eta": ({"name": "feasibility", "eta": 3},
                        "check 'feasibility' has no parameter 'eta'; it accepts: none"),
}


@pytest.mark.parametrize("case", UNUSED_PARAMETERS.values(), ids=UNUSED_PARAMETERS.keys())
def test_unknown_check_parameter_fails_at_load(tmp_path, capsys, case):
    check, message = case
    p, out = write(tmp_path, dict(BASE, checks=[check])), tmp_path / "out"
    assert main(["simulate", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


def test_check_parameters_default_from_the_table_and_the_scenario(tmp_path):
    checks = [{"name": "node_optimum"}, {"name": "common_limit", "tail_fraction": 0.25, "tol": 1e-3}]
    out = tmp_path / "out"
    run(load_scenario(write(tmp_path, dict(BASE, tail_fraction=0.5, checks=checks))), out)
    reports = json.loads((out / "report.json").read_text())["checks"]
    assert [(r["params"]["tol"], r["params"]["tail_fraction"]) for r in reports] == [
        (1e-6, 0.5), (1e-3, 0.25)
    ]


def test_K_and_K_list_mutually_exclusive(tmp_path):
    bad = dict(BASE)
    bad["K_list"] = [1.0, 2.0]
    with pytest.raises(InputError, match="exactly one"):
        load_scenario(write(tmp_path, bad))


def test_x0_generators(tmp_path):
    grid = dict(BASE, x0="grid", x0_range=[-1.0, 1.0])
    sc = load_scenario(write(tmp_path, grid))
    np.testing.assert_allclose(sc.x0, [[-1.0], [1.0]])
    rand = dict(BASE, x0="random:9")
    sc1 = load_scenario(write(tmp_path, rand, "a.json"))
    sc2 = load_scenario(write(tmp_path, rand, "b.json"))
    np.testing.assert_array_equal(sc1.x0, sc2.x0)
    assert np.all(np.abs(sc1.x0) <= 5.0)
    with pytest.raises(InputError, match="'random:-3' needs a nonnegative integer seed"):
        load_scenario(write(tmp_path, dict(BASE, x0="random:-3"), "c.json"))


def test_defaults_from_dwell_floor(tmp_path):
    obj = {k: v for k, v in BASE.items() if k not in ("dt", "sample_every")}
    obj["signal"] = {"type": "fixed", "graph": "g0", "dwell_floor": 2.0}
    sc = load_scenario(write(tmp_path, obj))
    assert sc.dt == pytest.approx(0.2)
    assert sc.sample_every == pytest.approx(2.0)


def test_run_writes_artifacts_and_passes(tmp_path):
    sc = load_scenario(write(tmp_path, BASE))
    out = tmp_path / "out"
    assert run(sc, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert report["checks"][0]["check"] == "sync"
    assert (out / "plot.gp").exists()
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x_0_0,x_1_0,diameter,V,theta"


def test_sync_check_reuses_the_diagnostics_diameter(tmp_path, monkeypatch):
    calls = []
    series = analysis.diameter_series

    def counted(traj):
        calls.append(traj)
        return series(traj)

    monkeypatch.setattr(analysis, "diameter_series", counted)
    assert run(load_scenario(write(tmp_path, BASE)), tmp_path / "out") == 0
    assert len(calls) == 1


def test_csv_row_count_invariant(tmp_path):
    obj = dict(
        BASE,
        graphs={"ga": [[0, 1, 1.0]], "gb": [[1, 0, 1.0]]},
        signal={"type": "periodic", "segments": [["ga", 0.7], ["gb", 0.7]], "dwell_floor": 0.7},
        dt=0.1,
        t_end=3.0,
        sample_every=1.0,
        checks=[],
    )
    sc = load_scenario(write(tmp_path, obj))
    out = tmp_path / "out"
    run(sc, out)
    rows = (out / "trajectory.csv").read_text().splitlines()
    n_grid = math.floor(3.0 / 1.0) + 1
    switches_off_grid = [0.7, 1.4, 2.1, 2.8]
    assert len(rows) - 1 == n_grid + len(switches_off_grid)


def test_csv_deterministic(tmp_path):
    obj = dict(BASE, x0="random:5")
    sc1 = load_scenario(write(tmp_path, obj, "s1.json"))
    sc2 = load_scenario(write(tmp_path, obj, "s2.json"))
    run(sc1, tmp_path / "o1")
    run(sc2, tmp_path / "o2")
    assert (tmp_path / "o1" / "trajectory.csv").read_bytes() == (
        tmp_path / "o2" / "trajectory.csv"
    ).read_bytes()


def test_csv_roundtrip_lossless(tmp_path):
    sc = load_scenario(write(tmp_path, BASE))
    out = tmp_path / "out"
    run(sc, out)
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    first = dict(zip(header, (float(v) for v in lines[1].split(","))))
    assert first["t"] == 0.0
    assert first["x_0_0"] == 3.0 and first["x_1_0"] == -2.0


def test_v_column_omitted_without_common_zero(tmp_path):
    obj = dict(
        BASE,
        nodes=[{"kind": "quadratic", "center": [0.0]}, {"kind": "quadratic", "center": [1.0]}],
        checks=[],
    )
    sc = load_scenario(write(tmp_path, obj))
    out = tmp_path / "out"
    run(sc, out)
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x_0_0,x_1_0,diameter,theta"


def test_exit_code_check_failure(tmp_path):
    obj = dict(
        BASE,
        nodes=[{"kind": "quartic", "center": [-1.0]}, {"kind": "quartic", "center": [1.0]}],
        checks=[{"name": "sync", "tol": 1e-6}],
        x0=[2.0, -2.0],
        dt=0.01,
    )
    sc = load_scenario(write(tmp_path, obj))
    assert verify(sc) == 1
    assert run(sc, tmp_path / "out") == 1


def test_exit_code_finite_escape(tmp_path, capsys):
    obj = dict(
        BASE,
        nodes=[{"kind": "quartic", "center": [0.0]}, {"kind": "quartic", "center": [0.0]}],
        x0=[60.0, -60.0],
        dt=0.05,
        checks=[],
    )
    sc = load_scenario(write(tmp_path, obj))
    out = tmp_path / "out"
    assert run(sc, out) == 3
    report = json.loads((out / "report.json").read_text())
    error = report["error"]
    assert error["type"] == "FiniteEscapeError"
    assert error["time"] == pytest.approx(0.05)
    assert error["step"] == pytest.approx(0.05)  # the sample span 0.3 in six steps
    # the invariant box spans x0 and the zero sets: its sup norm is 60
    assert error["sup_norm"] > error["bound"] == 1e8 * 60.0
    assert "RK4 step h=0.05 became unstable at t=0.05" in error["message"]


# one RK4 step from 5e7 overflows the quartic drift to inf
OVERFLOWING = dict(
    BASE,
    nodes=[{"kind": "quartic", "center": [0.0]}, {"kind": "quartic", "center": [0.0]}],
    x0=[5e7, -5e7],
    dt=0.05,
    checks=[],
)


def test_escape_to_overflow_keeps_report_strict_json(tmp_path):
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(load_scenario(write(tmp_path, OVERFLOWING)), out) == 3

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["error"]["type"] == "FiniteEscapeError"
    assert report["error"]["sup_norm"] == "inf"


def test_escape_prints_no_overflow_warning(tmp_path, capfd):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would escape as an exception
        assert main(["simulate", str(write(tmp_path, OVERFLOWING)), "--out", str(out)]) == 3
    assert json.loads((out / "report.json").read_text())["error"]["type"] == "FiniteEscapeError"
    err = capfd.readouterr().err
    assert "numerical error: RK4 step h=0.05 became unstable" in err and "RuntimeWarning" not in err


def test_huge_states_print_no_warning_from_diagnostics_or_checks(tmp_path, capfd):
    # x0 near the float maximum, under a guard at 1e8 times it: the theta square
    # and the V norm overflow, and the monotone check's inf - inf rise is nan
    huge = dict(BASE, x0=[1e300, -1e300], t_end=1.0, checks=[{"name": "monotone_theta"}])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would escape as an exception
        assert main(["verify", str(write(tmp_path, huge))]) == 1
    captured = capfd.readouterr()
    assert captured.out == "[FAIL] monotone_theta (worst=nan)\n"
    assert "RuntimeWarning" not in captured.err


def test_huge_2d_states_print_no_warning_from_the_sweep(tmp_path, capfd):
    # each sweep lane's verdict takes the m = 2 diameter, whose norms overflow
    huge = dict(BASE, nodes=[{"kind": "quadratic", "center": [0.0, 0.0]}] * 2,
                x0=[1e300, 1e300, -1e300, -1e300], t_end=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would escape as an exception
        code = main(["sweep", str(write(tmp_path, huge)), "--k", "1,2",
                     "--out", str(tmp_path / "out")])
    assert code == 1
    captured = capfd.readouterr()
    assert captured.out == (
        "K=1: epsilon_estimate=inf\nK=2: epsilon_estimate=inf\n[FAIL] sweep (epsilon=0.05)\n"
    )
    assert captured.err == ""


def test_a_network_far_from_the_origin_runs(tmp_path, capfd):
    # zero sets at 1e9 put the guard at 1e17; a fixed guard of 1e8 stopped this at t = 0
    obj = dict(BASE, nodes=[{"kind": "quartic", "center": [1e9]}] * 2,
               x0=[1e9 + 0.5, 1e9 - 0.5], dt=0.05, t_end=20.0, sample_every=0.5,
               checks=[{"name": "sync", "tol": 1e-4}])
    assert main(["verify", str(write(tmp_path, obj))]) == 0
    assert capfd.readouterr().out.startswith("[PASS] sync")


def test_a_step_that_overflows_trips_a_guard_at_the_largest_float(tmp_path):
    # 1e8 times the box's sup norm 1e301 is beyond the float range, so the guard is
    # capped at the largest float, which the first step's inf state still passes
    obj = dict(BASE, nodes=[{"kind": "quartic", "center": [1e301]},
                            {"kind": "quartic", "center": [-1e301]}],
               x0=[0.0, 0.0], dt=0.05, checks=[])
    out = tmp_path / "out"
    assert main(["simulate", str(write(tmp_path, obj)), "--out", str(out)]) == 3
    error = json.loads((out / "report.json").read_text())["error"]
    assert error["sup_norm"] == "inf"
    assert error["bound"] == np.finfo(float).max
    assert error["time"] == pytest.approx(0.05)


def test_unknown_top_level_field_is_named_with_the_accepted_ones(tmp_path, capsys):
    obj = dict(BASE, sample_evry=0.3, divergence_guard=1e8)
    assert main(["verify", str(write(tmp_path, obj))]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario field(s) 'sample_evry', 'divergence_guard'" in err
    assert "the accepted fields are: " + ", ".join(cli.FIELDS) in err


def nested_sum_scenario(depth: int) -> str:
    """BASE with a first node of ``depth`` nested sums, as text: too deep for ``json.dumps``."""
    node = '{"kind": "sum", "terms": [' * depth + json.dumps(BASE["nodes"][0]) + "]}" * depth
    return json.dumps(dict(BASE, nodes=["NODE", BASE["nodes"][1]])).replace('"NODE"', node)


@pytest.mark.parametrize("depth", [MAX_SUM_DEPTH + 1, 5000])  # over the limit; past the decoder
@pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
def test_deeply_nested_sums_exit_2(tmp_path, capsys, command, depth):
    scen = tmp_path / "deep.json"
    scen.write_text(nested_sum_scenario(depth))
    out = tmp_path / "out"
    argv = [command, str(scen)] + ([] if command == "verify" else ["--out", str(out)])
    tracemalloc.start()
    try:
        code = main(argv + (["--k", "1,2"] if command == "sweep" else []))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "nest" in err and "Traceback" not in err
    assert peak < 16 * 2**20 and not out.exists()


def test_sum_nesting_up_to_the_limit_loads(tmp_path):
    scen = tmp_path / "deep.json"
    scen.write_text(nested_sum_scenario(MAX_SUM_DEPTH))
    assert load_scenario(scen).node_count == 2


def test_report_names_a_plain_numerical_error(tmp_path, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise NumericalError("minimizer did not converge")

    monkeypatch.setattr(analysis, "minimize_aggregate", no_convergence)
    p = write(tmp_path, dict(BASE, checks=[{"name": "spectral_bound"}]))
    out = tmp_path / "out"
    assert run(load_scenario(p), out) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["error"] == {"type": "NumericalError", "message": "minimizer did not converge"}
    assert main(["verify", str(p)]) == 3
    assert "numerical error: minimizer did not converge" in capsys.readouterr().err


def test_far_apart_sum_zero_set_prints_no_warning(tmp_path, capfd):
    # the zero set of node 0 is the point c, found by a bisection whose cubes
    # overflow (and, past ~9e307, whose midpoints did); it does not meet node 1's,
    # so monotone_V fails at load
    for c in (1e200, 1e308, -1e308):
        far = dict(BASE, nodes=[{"kind": "sum", "terms": [{"kind": "quadratic", "center": [0.0]},
                                                           {"kind": "quartic", "center": [c]}]},
                                BASE["nodes"][1]],
                   checks=[{"name": "monotone_V"}])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would escape as an exception
            assert main(["verify", str(write(tmp_path, far))]) == 2
        err = capfd.readouterr().err
        assert "nonempty intersection of zero sets" in err and "RuntimeWarning" not in err


def test_spectral_bound_minimizer_starts_from_the_last_sample(tmp_path, monkeypatch):
    n = 6
    ring = [[i, (i + 1) % n, 1.0] for i in range(n)] + [[(i + 1) % n, i, 1.0] for i in range(n)]
    nodes = [{"kind": "quadratic", "center": [(-1.0) ** i * 2.0]} if i % 2 == 0 else
             {"kind": "sum", "terms": [{"kind": "quadratic", "center": [0.1 * i]},
                                       {"kind": "quartic", "center": [-0.1 * i]}]}
             for i in range(n)]
    obj = dict(BASE, nodes=nodes, graphs={"g0": ring}, K=8.0, t_end=6.0,
               x0=[float(i % 5) - 2.0 for i in range(n)], checks=[{"name": "spectral_bound"}])
    sc = load_scenario(write(tmp_path, obj))
    trajs, starts = [], []
    integrate, minimize = cli.integrate, analysis.minimize_aggregate

    def recorded_integrate(*args, **kwargs):
        trajs.append(integrate(*args, **kwargs))
        return trajs[-1]

    def recorded_minimize(pots, g, K, x_init, **kwargs):
        starts.append(np.array(x_init))
        return minimize(pots, g, K, x_init, **kwargs)

    monkeypatch.setattr(cli, "integrate", recorded_integrate)
    monkeypatch.setattr(analysis, "minimize_aggregate", recorded_minimize)
    out = tmp_path / "out"
    assert run(sc, out) == 0
    (got,) = json.loads((out / "report.json").read_text())["checks"]
    (traj,), (start,) = trajs, starts
    assert start.tobytes() == traj.states[-1].tobytes()  # the warm start is the last sample
    g = sc.signal.graph_at(0.0)
    x = minimize(sc.potentials, g, sc.primary_K, sc.x0, tol=1e-10)
    want = analysis.check_spectral_bound(x, sc.potentials, g, sc.primary_K, tol=1e-8)
    assert got["params"]["lhs"] == pytest.approx(want.params["lhs"], rel=1e-8)
    assert got["params"]["bound"] == pytest.approx(want.params["bound"], rel=1e-8)
    assert got["pass"]


def test_spectral_bound_passes_where_the_aggregate_has_no_curvature(tmp_path, capsys):
    # a quartic centered inside both flat bottoms around it: the minimizer is a consensus
    # with no curvature along it, where a gradient method spent its whole budget
    nodes = [{"kind": "flat_bottom", "left": -1.612, "right": 4.860},
             {"kind": "quartic", "center": [1.532]},
             {"kind": "flat_bottom", "left": 0.909, "right": 1.590}]
    path = [[0, 1, 3.59], [1, 0, 3.59], [1, 2, 3.34], [2, 1, 3.34]]
    obj = {k: v for k, v in BASE.items() if k != "sample_every"}
    obj.update(nodes=nodes, weight_bounds=[0.5, 4.0], graphs={"g0": path}, K=10.53,
               x0=[3.0, -2.0, 4.0], dt=0.01, t_end=5.0, checks=[{"name": "spectral_bound"}])
    assert main(["verify", str(write(tmp_path, obj))]) == 0
    assert "[PASS] spectral_bound" in capsys.readouterr().out


def test_main_exit_codes(tmp_path, capsys):
    good = write(tmp_path, BASE, "good.json")
    assert main(["verify", str(good)]) == 0
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    bad = write(tmp_path, dict(BASE, graphs={"g0": [[0, 1, 9.0]]}), "bad.json")
    assert main(["verify", str(bad)]) == 2


def test_dt_above_quarter_dwell_fails_at_load(tmp_path, capsys):
    bad = dict(
        BASE,
        graphs={"ga": [[0, 1, 1.0]], "gb": [[1, 0, 1.0]]},
        signal={"type": "periodic", "segments": [["ga", 0.4], ["gb", 0.4]], "dwell_floor": 0.4},
        dt=0.2,
    )
    out = tmp_path / "out"
    assert main(["simulate", str(write(tmp_path, bad)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "dwell_floor/4" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", [0, 1.5])
@pytest.mark.parametrize("where", ["scenario", "check"])
def test_tail_fraction_outside_unit_interval_fails_at_load(tmp_path, capsys, where, value):
    bad = copy.deepcopy(BASE)
    (bad if where == "scenario" else bad["checks"][0])["tail_fraction"] = value
    out = tmp_path / "out"
    assert main(["simulate", str(write(tmp_path, bad)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "tail_fraction must be in (0, 1]" in err and "Traceback" not in err
    assert not out.exists()


def test_event_count_cap_fails_at_load(tmp_path, capsys):
    start = time.perf_counter()
    out = tmp_path / "out"
    huge = dict(BASE, sample_every=1e-9, t_end=1e6)
    assert main(["simulate", str(write(tmp_path, huge)), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 5.0
    assert "events are allowed" in capsys.readouterr().err
    assert not out.exists()


def test_rk4_step_cap_fails_at_load(tmp_path):
    # few events, but 1e13 steps: the cap refuses it before anything runs
    huge = dict(BASE, t_end=1e12, dt=0.1, sample_every=1e11)
    with pytest.raises(ConfigurationError, match=r"about 1e\+13 RK4 steps; at most 10000000"):
        load_scenario(write(tmp_path, huge))


def test_step_cap_counts_full_and_shortened_steps():
    sig = fixed_signal(WeightedDigraph(1))
    # t_end/dt full steps plus one shortened step per sample and switch instant
    validate_event_count(sig, t_end=9_990_000.0, sample_every=1000.0, dt=1.0)  # 9,999,991
    with pytest.raises(ConfigurationError, match="RK4 steps"):
        validate_event_count(sig, t_end=9_990_000.0, sample_every=100.0, dt=1.0)  # 10,089,901
    with pytest.raises(ConfigurationError, match="RK4 steps"):
        validate_event_count(sig, t_end=1e7, sample_every=1e7, dt=1.0)  # 10,000,002
    assert simulator.MAX_STEPS == 10_000_000


@pytest.mark.parametrize("k_list", [[], [2.0, 1.0], [0.0, 1.0]])
def test_bad_K_list_exits_2(tmp_path, capsys, k_list):
    bad = {k: v for k, v in BASE.items() if k != "K"}
    bad["K_list"] = k_list
    assert main(["verify", str(write(tmp_path, bad))]) == 2
    err = capsys.readouterr().err
    assert "K_list must be positive and strictly increasing" in err and "Traceback" not in err


def test_sweep_k_not_increasing_exits_2(tmp_path, capsys):
    out = tmp_path / "sw"
    assert main(["sweep", str(write(tmp_path, BASE)), "--k", "2,1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "K_list must be positive and strictly increasing" in err and "Traceback" not in err
    assert not out.exists()


def test_sweep_command_writes_csv(tmp_path):
    obj = dict(BASE)
    del obj["K"]
    obj["K_list"] = [0.5, 1.0, 5.0, 10.0]
    obj["epsilon"] = 0.05
    obj["nodes"] = [
        {"kind": "quadratic", "center": [0.0]},
        {"kind": "quadratic", "center": [1.0]},
    ]
    obj["checks"] = []
    obj["t_end"] = 20.0
    p = write(tmp_path, obj)
    assert main(["sweep", str(p), "--out", str(tmp_path / "sw")]) == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "K,epsilon_estimate"
    got = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    for k, eps in got:
        assert eps == pytest.approx(1.0 / (1.0 + 2.0 * k), abs=1e-4)


def test_sweep_lane_obeys_the_divergence_guard(tmp_path, capsys):
    # the field's stiffest rate is 2K + 1.5, so at dt 0.02 the K=200 lane has
    # h * 401.5 = 8.0 against RK4's real-axis limit of 2.785 and trips the
    # guard, while the K=0.5 lane runs; at dt 0.005 (h * 401.5 = 2.0) both run
    obj = {k: v for k, v in BASE.items() if k != "K"}
    obj.update(
        nodes=[{"kind": "quadratic", "center": [0.0]},
               {"kind": "quadratic", "center": [10.0], "weight": 2.0}],
        K_list=[0.5, 200.0], epsilon=1.0, x0=[0.0, 0.0], checks=[],
    )
    out = tmp_path / "sw"
    assert main(["sweep", str(write(tmp_path, obj)), "--out", str(out)]) == 1
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("0.5,") and lines[2] == "200,nan"
    assert float(lines[1].split(",")[1]) == pytest.approx(5.7143, abs=1e-4)
    printed = capsys.readouterr().out
    assert "K=0.5: epsilon_estimate=5.7143" in printed
    assert "K=200: error: RK4 step h=0.02 became unstable" in printed
    obj["dt"] = 0.005
    assert main(["sweep", str(write(tmp_path, obj)), "--out", str(out)]) == 0


def test_simulate_with_k_list_writes_sweep_too(tmp_path):
    obj = dict(BASE)
    del obj["K"]
    obj["K_list"] = [1.0, 2.0]
    obj["epsilon"] = 0.5
    obj["nodes"] = [
        {"kind": "quadratic", "center": [0.0]},
        {"kind": "quadratic", "center": [1.0]},
    ]
    obj["checks"] = []
    p = write(tmp_path, obj)
    sc = load_scenario(p)
    out = tmp_path / "out"
    assert run(sc, out) == 0
    assert (out / "sweep.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["checks"][-1]["check"] == "sweep_K"


def test_ujsc_check_through_cli(tmp_path):
    obj = dict(
        BASE,
        nodes=[
            {"kind": "quadratic", "center": [1.0], "weight": 0.5},
            {"kind": "quadratic", "center": [1.0]},
            {"kind": "quadratic", "center": [1.0], "weight": 2.0},
        ],
        graphs={"ga": [[0, 1, 1.0], [1, 2, 1.0]], "gb": [[2, 1, 1.0], [1, 0, 1.0]]},
        signal={"type": "periodic", "segments": [["ga", 0.5], ["gb", 0.5]], "dwell_floor": 0.5},
        x0=[4.0, -3.0, 0.5],
        dt=0.1,
        t_end=40.0,
        sample_every=0.5,
        checks=[
            {"name": "ujsc", "T": 1.0},
            {"name": "sync", "tol": 1e-5},
            {"name": "monotone_V"},
            {"name": "monotone_theta"},
            {"name": "common_limit", "tol": 1e-5},
            {"name": "node_optimum", "tol": 1e-4},
            {"name": "invariant_cube", "eta": 4.5},
            {"name": "drift_alignment"},
            {"name": "feasibility"},
        ],
    )
    sc = load_scenario(write(tmp_path, obj))
    assert verify(sc) == 0


def _set(path, value):
    """A mutation of BASE that sets the leaf at ``path`` to ``value``."""

    def mutate(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value

    return mutate


MALFORMED = {
    "K_string": _set(["K"], "abc"),
    "dt_null": _set(["dt"], None),
    "x0_range_3": _set(["x0_range"], [-1.0, 0.0, 1.0]),
    "x0_range_reversed_random": lambda obj: obj.update(x0="random:1", x0_range=[5.0, -5.0]),
    "x0_range_width_overflows_random": lambda obj: obj.update(x0="random:1",
                                                              x0_range=[-1e308, 1e308]),
    "x0_range_width_overflows_grid": lambda obj: obj.update(x0="grid", x0_range=[-1e308, 1e308]),
    "center_string": _set(["nodes", 0, "center"], "x"),
    "edge_source_string": _set(["graphs", "g0", 0, 0], "a"),
    "edge_weight_string": _set(["graphs", "g0", 0, 2], "w"),
    "epsilon_string": _set(["epsilon"], "x"),
    "check_tol_string": _set(["checks", 0, "tol"], "x"),
    "divergence_guard_string": _set(["divergence_guard"], "x"),
    "sample_evry": _set(["sample_evry"], 0.3),
    "K_nan": _set(["K"], math.nan),
    "t_end_beyond_float_range": _set(["t_end"], 10**400),
    "x0_negative_seed": _set(["x0"], "random:-3"),
    "weight_numeric_string": _set(["nodes", 0, "weight"], "2"),
    "flat_bottom_left_bool": _set(
        ["nodes", 0], {"kind": "flat_bottom", "left": True, "right": 1.0}
    ),
    "center_bool": _set(["nodes", 0, "center"], [True]),
    "center_numeric_string": _set(["nodes", 0, "center"], "1"),
    "version_bool": _set(["version"], True),
}


@pytest.mark.parametrize("mutate", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_number_exits_2(tmp_path, capsys, mutate):
    obj = copy.deepcopy(BASE)
    mutate(obj)
    assert main(["verify", str(write(tmp_path, obj))]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err


def _scalar_leaves(obj, path=()):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [list(path)]
    return [leaf for key, value in items for leaf in _scalar_leaves(value, path + (key,))]


# a shorter run of BASE keeps each example cheap
MUTATION_BASE = dict(BASE, t_end=3.0)
NON_NUMBERS = st.one_of(
    st.text(max_size=3),
    st.booleans(),
    st.sampled_from(["1", "0.5", "-2", "1e3", "nan"]),
    st.none(),
    st.just(math.nan),
    st.lists(st.floats(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.floats(-2, 2), max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_scalar_leaves(MUTATION_BASE)), NON_NUMBERS)
def test_mutated_scalar_leaf_never_escapes(tmp_path_factory, path, value):
    obj = copy.deepcopy(MUTATION_BASE)
    leaf = obj
    for key in path:
        leaf = leaf[key]
    _set(path, value)(obj)
    scen = write(tmp_path_factory.mktemp("mut"), obj)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", str(scen)])
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()
    if isinstance(leaf, (int, float)):  # every scenario number is read as a finite JSON number
        assert code == 2, f"{path}: {value!r} was accepted"


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.sampled_from(sorted(MUTATION_BASE)).map(lambda key: ("delete", key)),
    st.text(min_size=1, max_size=6).filter(lambda key: key not in cli.FIELDS)
    .map(lambda key: ("add", key)),
))
def test_deleted_or_unknown_top_level_field_never_escapes(tmp_path_factory, mutation):
    action, key = mutation
    obj = copy.deepcopy(MUTATION_BASE)
    if action == "delete":
        del obj[key]
    else:
        obj[key] = 1.0
    scen = write(tmp_path_factory.mktemp("mut"), obj)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", str(scen)])
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()
    if action == "add":
        assert code == 2, f"unknown field {key!r} was accepted"
