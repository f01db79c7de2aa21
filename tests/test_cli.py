import contextlib
import copy
import importlib.util
import inspect
import io
import itertools
import json
import math
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncflow import (
    InputError,
    NumericalError,
    WeightedDigraph,
    analysis,
    cli,
    convex_geometry,
    fixed_signal,
    graphs,
    potentials,
    simulator,
)
from syncflow.cli import MAX_SUM_DEPTH, load_scenario, main, run, verify
from syncflow.simulator import validate_grid
from util import graph_id_at

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
    assert sc.signal.library[graph_id_at(sc.signal, 0.0)].node_count == 2


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
                        "spectral bound needs K > 0, got 0.0"),
    "cube_planar": (PLANAR, {"name": "invariant_cube"},
                    "check 'invariant_cube' requires one-dimensional node states"),
    "common_limit_apart": (
        APART, {"name": "common_limit"},
        "checks 'monotone_V'/'common_limit' need a nonempty intersection of zero sets",
    ),
    # t_end 12 sampled every 0.3: the last 1% of the horizon holds one sample
    "common_limit_short_tail": ({"tail_fraction": 0.01}, {"name": "common_limit"},
                                "tail window holds 1 samples; need >= 10 for a limit estimate"),
    "common_limit_own_short_tail": ({}, {"name": "common_limit", "tail_fraction": 0.01},
                                    "tail window holds 1 samples; need >= 10 for a limit estimate"),
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
def test_check_precondition_fails_at_load(tmp_path, capsys, case, monkeypatch):
    monkeypatch.setattr(cli, "integrate", lambda *args, **kwargs: pytest.fail("the run started"))
    overrides, check, message = case
    p, out = write(tmp_path, dict(BASE, **overrides, checks=[check])), tmp_path / "out"
    with pytest.raises(InputError) as err:
        load_scenario(p)
    assert str(err.value) == message
    assert main(["simulate", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("check", ["monotone_V", "monotone_theta"])
def test_a_horizon_short_of_one_sample_interval_records_0_and_t_end(tmp_path, capsys, check):
    # t_end 0.1 sampled every 0.3: the run records its end too, so a monotone check has the
    # two samples it compares and the CSV ends at t_end
    obj = dict(BASE, dt=0.01, t_end=0.1, sample_every=0.3, checks=[{"name": check}])
    out = tmp_path / "out"
    assert main(["simulate", str(write(tmp_path, obj)), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"[PASS] {check}\n"
    report = json.loads((out / "report.json").read_text())["checks"][0]
    assert report["params"]["length"] == 2
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.1]


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


@pytest.mark.parametrize("command, checks, computed", [
    ("simulate", [{"name": "sync", "tol": 1e-4}], 1),  # the sync check and the CSV share one
    ("verify", [{"name": "ujsc", "T": 1.0}, {"name": "feasibility"}], 0),  # no check reads it
], ids=["simulate", "verify"])
def test_sync_check_reuses_the_diagnostics_diameter(tmp_path, monkeypatch, command, checks, computed):
    calls = []
    series = simulator.diameter_series

    def counted(states):
        calls.append(states)
        return series(states)

    monkeypatch.setattr(simulator, "diameter_series", counted)
    sc = load_scenario(write(tmp_path, dict(BASE, checks=checks)))
    assert (run(sc, tmp_path / "out") if command == "simulate" else verify(sc)) == 0
    assert len(calls) == computed


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


# K·L = 1e308 * 2 is beyond the float range
OVERFLOWING_GAIN = dict(BASE, graphs={"g0": [[0, 1, 2.0], [1, 0, 2.0]]}, K=1e308, checks=[])
GAIN_OVERFLOW = "K·L overflows: K = 1e+308 times the largest |L| entry 2 is not a finite float"


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_an_overflowing_gain_names_its_cause_and_prints_no_warning(tmp_path, capfd, command):
    out = tmp_path / "out"
    args = [command, str(write(tmp_path, OVERFLOWING_GAIN))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would escape as an exception
        assert main(args + (["--out", str(out)] if command == "simulate" else [])) == 3
    assert capfd.readouterr().err == f"numerical error: {GAIN_OVERFLOW}\n"
    if command == "simulate":
        error = json.loads((out / "report.json").read_text())["error"]
        assert error == {"type": "NumericalError", "message": GAIN_OVERFLOW}


def smoke_scenario(workload: str) -> dict:
    """bench/scenarios.py's ``workload`` at smoke size and seed 7, as a scenario object."""
    spec = importlib.util.spec_from_file_location(
        "bench_scenarios", Path(__file__).resolve().parents[1] / "bench" / "scenarios.py"
    )
    scenarios = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scenarios)
    return scenarios.make(workload, 7, "smoke").scenario


def test_a_gain_no_step_can_stabilize_names_the_step_and_time(tmp_path, capsys):
    # ring_switch_1d with K = 1e307: K·L stays finite, but a stable RK4 step would be
    # ~1e-307, far below what MAX_STEPS allows
    obj = dict(smoke_scenario("ring_switch_1d"), K=1e307)
    assert main(["verify", str(write(tmp_path, obj))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: RK4 step h=0.05 became unstable at t=0.05: ")
    assert err.endswith("the exact flow stays in the box\n") and "dt" not in err


def test_a_laplacian_whose_row_sum_overflows_names_its_cause_and_prints_no_warning(tmp_path, capfd):
    # node 2's two in-arcs of 1e308 sum to inf on the Laplacian's diagonal
    arcs = [[0, 2, 1e308], [1, 2, 1e308], [0, 1, 1.0], [1, 0, 1.0], [2, 0, 1.0]]
    obj = dict(BASE, nodes=[BASE["nodes"][0]] * 3, weight_bounds=[0.5, 1.7e308],
               graphs={"g0": arcs}, x0=[1.0, 0.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would escape as an exception
        assert main(["verify", str(write(tmp_path, obj))]) == 3
    assert capfd.readouterr().err == (
        "numerical error: K·L overflows: K = 1 times the largest |L| entry inf is not a finite float\n"
    )


# node 0, a sum that block order puts second, with quadratic pulls past the float range: its
# weights sum to 2e308, or its weight 1e300 times its center 1e10 is 1e310
HEAVY_PULLS = {
    "summed_weights": ([{"kind": "quadratic", "center": [0.0], "weight": 1e308}] * 2,
                       "K·L's diagonal plus their weights is inf and their weights times centers "
                       "sum to [0.0]"),
    "weight_times_center": ([{"kind": "quadratic", "center": [1e10], "weight": 1e300},
                             {"kind": "quadratic", "center": [1e10]}],
                            "K·L's diagonal plus their weights is 1e+300 and their weights times "
                            "centers sum to [inf]"),
}


@pytest.mark.parametrize("terms, cause", HEAVY_PULLS.values(), ids=HEAVY_PULLS.keys())
def test_a_quadratic_pull_that_overflows_exits_3_naming_the_node(tmp_path, terms, cause):
    obj = dict(BASE, nodes=[{"kind": "sum", "terms": terms}, {"kind": "quartic", "center": [0.0]},
                            BASE["nodes"][0]],
               graphs={"g0": [[0, 1, 1.0], [1, 2, 1.0], [2, 0, 1.0]]}, x0=[1.0, 0.0, -1.0])
    code, err, caught = _main_quietly(["verify", str(write(tmp_path, obj))])
    assert code == 3 and not caught
    assert err == f"numerical error: node 0's quadratic pulls overflow: {cause}, which must be finite floats\n"


def test_a_sweep_lane_whose_gain_overflows_is_an_error_row(tmp_path, capfd):
    out = tmp_path / "sw"
    args = ["sweep", str(write(tmp_path, dict(OVERFLOWING_GAIN, K=1.0))), "--k", "1,1e308"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + ["--out", str(out)]) == 1
    captured = capfd.readouterr()
    assert f"K=1e+308: error: {GAIN_OVERFLOW}\n" in captured.out and captured.err == ""
    last = (out / "sweep.csv").read_text().splitlines()[-1].split(",")
    assert float(last[0]) == 1e308 and last[1] == "nan"


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


def test_quadratics_near_1e200_align_with_their_hull_in_2d(tmp_path, capfd):
    # the inside test's cross products and the alignment products <x - P(x), f_i(x)>
    # reach ~1e401; for quadratics the inequality holds, so both checks pass
    far = dict(BASE, nodes=[{"kind": "quadratic", "center": c}
                            for c in ([1e200, 1e200], [-1e200, 1e200], [0.0, -1e200])],
               graphs={"g0": [[0, 1, 1.0], [1, 2, 1.0], [2, 0, 1.0]]},
               x0=[1.05e200, 0.95e200, -0.9e200, 1.1e200, 0.05e200, -0.92e200],
               dt=0.1, t_end=1.0, sample_every=0.5,
               checks=[{"name": "drift_alignment"}, {"name": "feasibility"}])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would escape as an exception
        assert main(["verify", str(write(tmp_path, far))]) == 0
    captured = capfd.readouterr()
    assert captured.out == ("[PASS] drift_alignment (worst=0.000e+00)\n"
                            "[PASS] assumption_feasibility (worst=0.000e+00)\n")
    assert captured.err == ""


def test_drift_alignment_checks_every_node(tmp_path):
    # 201 samples of 4 nodes: a stride of 2 over the 804 rows sees nodes 0 and 2 only, which
    # rest at their own centers; nodes 1 and 3 pass outside the hull's long edge near the sum
    # node's zero set (2.62, 0), where that node's drift points away from the hull
    obj = dict(BASE, nodes=[
        {"kind": "quadratic", "center": [0.0, 0.0]},
        {"kind": "quadratic", "center": [1.0, 0.0]},
        {"kind": "quadratic", "center": [0.0, 1.0]},
        {"kind": "sum", "terms": [{"kind": "quadratic", "center": [0.0, 0.0]},
                                  {"kind": "quartic", "center": [4.0, 0.0]}]},
    ], K=0.0, x0=[0.0, 0.0, 2.5, 0.1, 0.0, 1.0, 0.5, 0.25], t_end=20.0, sample_every=0.1,
        checks=[{"name": "drift_alignment"}])
    out = tmp_path / "out"
    assert main(["simulate", str(write(tmp_path, obj)), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())["checks"][0]
    assert report["pass"] is False and report["worst_value"] > 1e-3
    assert report["params"]["samples"] == 201 * 4
    assert report["location"]["node"] == 3 and report["location"]["sample_index"] % 2 == 1


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


UNKNOWN_OBJECT_FIELDS = {
    "quadratic_typo": ({"nodes": [{"kind": "quadratic", "center": [1.0], "wieght": 5.0},
                                  BASE["nodes"][1]]},
                       "potential kind 'quadratic' has no field 'wieght'; "
                       "it accepts: kind, center, weight"),
    "quartic_weight": ({"nodes": [{"kind": "quartic", "center": [0.0], "weight": 2.0},
                                  BASE["nodes"][1]]},
                       "potential kind 'quartic' has no field 'weight'; it accepts: kind, center"),
    "flat_bottom_center": ({"nodes": [{"kind": "flat_bottom", "left": 0.0, "right": 1.0,
                                       "center": [0.5]}, BASE["nodes"][1]]},
                           "potential kind 'flat_bottom' has no field 'center'; "
                           "it accepts: kind, left, right"),
    "nested_sum_term": ({"nodes": [{"kind": "sum", "terms": [
                             {"kind": "sum", "terms": [{"kind": "quartic", "centre": [0.0]}]}]},
                         BASE["nodes"][1]]},
                        "potential kind 'quartic' has no field 'centre'; it accepts: kind, center"),
    "sum_weight": ({"nodes": [{"kind": "sum", "terms": [BASE["nodes"][0]], "weight": 2.0},
                              BASE["nodes"][1]]},
                   "potential kind 'sum' has no field 'weight'; it accepts: kind, terms"),
    "fixed_segments": ({"signal": {"type": "fixed", "graph": "g0", "segmnets": [["g0", 1.0]]}},
                       "fixed signal has no field 'segmnets'; it accepts: type, graph, dwell_floor"),
    "periodic_graph": ({"signal": {"type": "periodic", "segments": [["g0", 1.0]],
                                   "dwell_floor": 1.0, "graph": "g0"}},
                       "periodic signal has no field 'graph'; "
                       "it accepts: type, segments, dwell_floor"),
}


@pytest.mark.parametrize("case", UNKNOWN_OBJECT_FIELDS.values(), ids=UNKNOWN_OBJECT_FIELDS.keys())
def test_unknown_potential_or_signal_field_is_named_with_the_accepted_ones(tmp_path, capsys, case):
    overrides, message = case
    assert main(["verify", str(write(tmp_path, dict(BASE, **overrides)))]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


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


# gain_sweep's shape at four nodes: quadratics and quadratic-plus-quartic sums with distinct
# centers on a symmetric ring, a K_list, and checks that read no zero set
RING4 = [[i, (i + 1) % 4, 1.0] for i in range(4)] + [[(i + 1) % 4, i, 1.0] for i in range(4)]
SUM_RING = dict(
    BASE,
    nodes=[{"kind": "quadratic", "center": [-1.0]},
           {"kind": "sum", "terms": [{"kind": "quadratic", "center": [0.5]},
                                     {"kind": "quartic", "center": [1.5]}]},
           {"kind": "quadratic", "center": [1.0]},
           {"kind": "sum", "terms": [{"kind": "quadratic", "center": [-0.5]},
                                     {"kind": "quartic", "center": [-1.5]}]}],
    graphs={"g0": RING4}, K_list=[1.0, 2.0], epsilon=10.0, x0=[1.0, -1.0, 0.5, -0.5],
    dt=0.025, t_end=2.0, sample_every=0.1,
    checks=[{"name": "spectral_bound"}, {"name": "feasibility"}, {"name": "no_sync", "floor": 1e-4}],
)
del SUM_RING["K"]


def test_zero_sets_are_bisected_only_where_a_result_reads_them(tmp_path, monkeypatch, capsys):
    calls = []
    search = potentials._component_argmin
    monkeypatch.setattr(
        potentials, "_component_argmin", lambda terms, k: calls.append(k) or search(terms, k)
    )
    p = write(tmp_path, SUM_RING)
    assert main(["verify", str(p)]) == 0
    assert calls == []  # no check reads a zero set, and no state passes the guard
    assert main(["simulate", str(p), "--out", str(tmp_path / "out")]) == 0
    assert calls == [0, 0]  # the CSV's theta reads both sums' zero sets


UNBRACKETABLE = dict(SUM_RING, nodes=[*SUM_RING["nodes"][:3], {"kind": "sum", "terms": [
    {"kind": "quadratic", "center": [0.0]}, {"kind": "quartic", "center": [1.7976931348623157e308]}]}])


@pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
def test_a_sum_whose_argmin_cannot_be_bracketed_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, str(write(tmp_path, UNBRACKETABLE))]
    assert main(argv + ([] if command == "verify" else ["--out", str(out)])) == 2
    assert capsys.readouterr().err == "input error: failed to bracket the argmin of a sum potential\n"
    assert not out.exists()


# both cubes overflow at the argmin 5e103 of this sum, one to +inf and the other to -inf
FAR_QUARTICS = [{"kind": "quartic", "center": [0.0]}, {"kind": "quartic", "center": [1e104]}]
OVERFLOWING_DERIVATIVE = ("input error: the gradient of a sum potential overflows at its argmin "
                          "[5e+103], from term 0, a QuarticWell\n")


@pytest.mark.parametrize("reader", ["guard", "precondition"])
def test_a_sum_whose_derivative_overflows_exits_2_where_its_zero_set_is_read(tmp_path, capsys,
                                                                             reader):
    if reader == "guard":
        # node 0's state overflows in the first step, so the guard reads the zero sets; a
        # wrong argmin of 9.4e103 made the guard 9.4e111 and the run a numerical error
        obj = dict(BASE, nodes=[{"kind": "sum", "terms": FAR_QUARTICS}, BASE["nodes"][1]],
                   x0=[0.0, 1.0])
    else:
        # monotone_V's precondition reads every zero set; a wrong argmin made it report
        # that they do not intersect
        obj = smoke_scenario("ring_switch_1d")
        obj["nodes"][-1]["terms"] = FAR_QUARTICS
    assert main(["verify", str(write(tmp_path, obj))]) == 2
    assert capsys.readouterr().err == OVERFLOWING_DERIVATIVE


def test_a_sum_whose_derivative_rounds_to_0_around_its_argmin_exits_2(tmp_path, capsys):
    # s + 1e20 rounds to 1e20 wherever |s| <= 8192, so node 0's float derivative is 0 on
    # [-8192, 8192]; taken for its zero set, that interval met node 1's {100} and monotone_V
    # passed, though the true zero sets {0} and {100} are disjoint
    obj = dict(BASE, nodes=[{"kind": "sum", "terms": [{"kind": "quartic", "center": [-1e20]},
                                                      {"kind": "quartic", "center": [1e20]}]},
                            {"kind": "quadratic", "center": [100.0]}],
               x0=[0.0, 100.0], dt=0.01, t_end=1.0, checks=[{"name": "monotone_V"}])
    assert main(["verify", str(write(tmp_path, obj))]) == 2
    assert capsys.readouterr() == ("", "input error: double precision cannot resolve the argmin "
                                       "of a sum potential: its derivative rounds to 0 on "
                                       "[-8192.0, 8192.0]\n")


def test_a_sum_whose_gradient_overflows_at_its_argmin_exits_2_naming_the_term(tmp_path, capsys):
    # the pulls of weight 1e308 at 0 and 10 cancel at the argmin 5, but node 0's kernel adds
    # 5e308 = inf and -inf there: the first RK4 step went NaN, and the guard's exit 3 blamed it
    obj = dict(BASE, nodes=[{"kind": "sum", "terms": [
        {"kind": "quadratic", "center": [0.0], "weight": 1e308},
        {"kind": "quadratic", "center": [10.0], "weight": 1e308},
        {"kind": "quartic", "center": [5.0]}]}, {"kind": "quadratic", "center": [5.0]}],
        x0=[5.0, 4.0], dt=0.01, t_end=1.0, checks=[])
    assert main(["verify", str(write(tmp_path, obj))]) == 2
    assert capsys.readouterr() == ("", "input error: the gradient of a sum potential overflows at "
                                       "its argmin [5.0], from term 0, a Quadratic\n")


# a magnitude from 1e-300 to 1e308, either sign, or 0
EXTREME = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]),
                    st.floats(-300.0, 308.0)) | st.just(0.0)
EXTREME_TERM = st.one_of(
    st.builds(lambda c, e: {"kind": "quadratic", "center": [c], "weight": 10.0**e},
              EXTREME, st.floats(-300.0, 308.0)),
    st.builds(lambda c: {"kind": "quartic", "center": [c]}, EXTREME),
    st.builds(lambda a, b: {"kind": "flat_bottom", "left": min(a, b), "right": max(a, b)},
              EXTREME, EXTREME),
)


@settings(max_examples=200, deadline=2000)
@given(st.lists(EXTREME_TERM, min_size=2, max_size=4), st.sampled_from(["monotone_V", "node_optimum"]))
def test_a_sum_of_extreme_terms_never_escapes_verify(tmp_path_factory, terms, check):
    # monotone_V reads the zero sets at load, node_optimum after the run; a run that passes the
    # guard from x0 reads them there
    obj = dict(BASE, nodes=[{"kind": "sum", "terms": terms}, BASE["nodes"][1]], x0=[0.0, 0.0],
               dt=0.01, t_end=0.1, sample_every=0.05, checks=[{"name": check}])
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["verify", str(write(tmp_path_factory.mktemp("extreme"), obj))])
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue() and "RuntimeWarning" not in err.getvalue()


def test_spectral_bound_tests_its_minimizer_against_the_scenario_s_grad_tol(tmp_path, capsys):
    # the minimizer stops at |grad F_G| = 6.6e-06, inside the scenario's 1e-3
    obj = dict(SUM_RING, checks=[{"name": "spectral_bound", "grad_tol": 1e-3}])
    assert main(["verify", str(write(tmp_path, obj))]) == 0
    assert capsys.readouterr().out.startswith("[PASS] spectral_bound")


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
    g = sc.signal.library[graph_id_at(sc.signal, 0.0)]
    want = analysis.check_spectral_bound(sc.potentials, g, sc.primary_K, sc.x0)
    assert got["params"]["lhs"] == pytest.approx(want.params["lhs"], rel=1e-8)
    assert got["params"]["bound"] == pytest.approx(want.params["bound"], rel=1e-8)
    assert got["pass"]


def test_the_spectral_bound_check_builds_the_coupling_once(tmp_path, monkeypatch):
    # the check's minimizer builds K·L; the bound itself reads no second copy
    sc = load_scenario(write(tmp_path, dict(SUM_RING, checks=[{"name": "spectral_bound"}])))
    traj = cli.integrate(sc.potentials, sc.signal, sc.primary_K, sc.x0, sc.dt, sc.t_end,
                         sc.sample_every)
    calls = []
    coupling = potentials.NetworkPotential.coupling
    monkeypatch.setattr(potentials.NetworkPotential, "coupling",
                        lambda *a: calls.append(1) or coupling(*a))
    ((name, params),) = sc.checks
    assert cli.CHECKS[name].run(sc, traj, params).passed
    assert len(calls) == 1


# the library function each scenario check calls
CHECK_FUNCTIONS = {
    "sync": analysis.check_sync,
    "no_sync": analysis.check_no_sync,
    "monotone_V": analysis.check_monotone,
    "monotone_theta": analysis.check_monotone,
    "common_limit": analysis.check_common_limit,
    "node_optimum": analysis.check_node_optimum,
    "invariant_cube": analysis.cube_containment,
    "drift_alignment": convex_geometry.check_drift_alignment,
    "feasibility": analysis.check_feasibility,
    "spectral_bound": analysis.check_spectral_bound,
    "ujsc": graphs.certify_ujsc,
}


@pytest.mark.parametrize("name", cli.CHECKS)
def test_each_check_parameter_defaults_as_its_library_function_does(name):
    fn = CHECK_FUNCTIONS[name]
    assert fn.__name__ in cli.CHECKS[name].run.__code__.co_names  # the table names the call
    library = inspect.signature(fn).parameters
    for key, default in cli.CHECKS[name].params.items():
        want = library[key].default
        if default is cli.TAIL:
            assert want == analysis.DEFAULT_TAIL_FRACTION, key
        elif isinstance(default, cli.Required):
            assert want is inspect.Parameter.empty, key
        else:
            assert want == default, key


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


def test_a_switching_period_within_the_time_tolerance_exits_2(tmp_path, capsys):
    bad = dict(
        BASE,
        graphs={"a": [[0, 1, 1.0]], "b": [[1, 0, 1.0]]},
        signal={"type": "periodic", "segments": [["a", 4e-10], ["b", 4e-10]],
                "dwell_floor": 4e-10},
    )
    assert main(["verify", str(write(tmp_path, bad))]) == 2
    assert capsys.readouterr().err == "input error: switching period 8e-10 must exceed 1e-09\n"


@pytest.mark.parametrize("command", [["simulate"], ["verify"], ["sweep", "--k", "1,2"]],
                         ids=["simulate", "verify", "sweep"])
def test_a_horizon_within_the_event_merge_tolerance_exits_2_and_writes_no_files(tmp_path, command):
    # the run's end would merge into its event at 0, and the run would take no step
    obj = dict(smoke_scenario("ring_switch_1d"), signal={"type": "fixed", "graph": "even"},
               dt=1e-11, t_end=5e-10, sample_every=1e-10, checks=[{"name": "sync", "tol": 1e-2}])
    out = tmp_path / "out"
    options = command[1:] + ([] if command[0] == "verify" else ["--out", str(out)])
    code, err, caught = _main_quietly([command[0], str(write(tmp_path, obj)), *options])
    assert (code, err) == (2, "input error: t_end=5e-10 must exceed the event-merge tolerance 1e-09\n")
    assert not out.exists() and not caught


@pytest.mark.parametrize("command", [["simulate"], ["verify"], ["sweep", "--k", "1,2"]],
                         ids=["simulate", "verify", "sweep"])
def test_a_sample_interval_within_the_event_merge_tolerance_exits_2_and_writes_no_files(
        tmp_path, command):
    # 101 samples asked for 1e-10 apart would merge into about 10, 1e-9 apart
    obj = dict(smoke_scenario("ring_switch_1d"), signal={"type": "fixed", "graph": "even"},
               dt=1e-11, t_end=1e-8, sample_every=1e-10, checks=[{"name": "sync", "tol": 1e-2}])
    out = tmp_path / "out"
    options = command[1:] + ([] if command[0] == "verify" else ["--out", str(out)])
    code, err, caught = _main_quietly([command[0], str(write(tmp_path, obj)), *options])
    assert (code, err) == (
        2, "input error: sample_every=1e-10 must exceed the event-merge tolerance 1e-09\n")
    assert not out.exists() and not caught


@pytest.mark.parametrize("workload, command", [("ring_switch_1d", "simulate"), ("hull_2d", "verify"),
                                               ("gain_sweep", "verify"), ("gain_sweep", "sweep")])
def test_each_command_compiles_its_network_once(tmp_path, monkeypatch, workload, command):
    # the loader compiles the scenario's network; the run, the sweep lanes, the minimizer, the
    # spectral bound's drift norm and drift alignment each get that network back as it is
    builds = []
    new = potentials.NetworkPotential.__new__

    def counted(cls, nodes):
        net = new(cls, nodes)
        if net is not nodes:
            builds.append(net)
        return net
    monkeypatch.setattr(potentials.NetworkPotential, "__new__", counted)
    options = [] if command == "verify" else ["--out", str(tmp_path / "out")]
    code, _, _ = _main_quietly([command, str(write(tmp_path, smoke_scenario(workload))), *options])
    assert code == (1 if workload == "hull_2d" else 0)  # hull_2d's feasibility control fails
    assert len(builds) == 1


def test_a_scenario_s_network_is_immutable(tmp_path):
    # a tuple: no caller can swap a node under the tables compiled from it
    sc = load_scenario(write(tmp_path, BASE))
    assert isinstance(sc.potentials, potentials.NetworkPotential)
    assert isinstance(sc.potentials, tuple) and sc.node_count == len(sc.potentials) == 2
    with pytest.raises(TypeError):
        sc.potentials[0] = sc.potentials[1]
    assert not hasattr(sc.potentials, "append")
    assert potentials.NetworkPotential(sc.potentials) is sc.potentials


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


def test_a_negative_gain_exits_2_and_writes_no_files(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", str(write(tmp_path, dict(BASE, K=-1.0))), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "input error: K must be nonnegative, got -1.0\n"
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
    with pytest.raises(InputError, match=r"about 1e\+13 RK4 steps; at most 10000000"):
        load_scenario(write(tmp_path, huge))


def test_step_cap_counts_full_and_shortened_steps():
    sig = fixed_signal(WeightedDigraph(1))
    # t_end/dt full steps plus one shortened step per sample and switch instant
    validate_grid(sig, dt=1.0, t_end=9_990_000.0, sample_every=1000.0)  # 9,999,991
    with pytest.raises(InputError, match="RK4 steps"):
        validate_grid(sig, dt=1.0, t_end=9_990_000.0, sample_every=100.0)  # 10,089,901
    with pytest.raises(InputError, match="RK4 steps"):
        validate_grid(sig, dt=1.0, t_end=1e7, sample_every=1e7)  # 10,000,002
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
    # each rule's owner refuses a well-typed value outside its range
    "K_negative": _set(["K"], -1.0),
    "dt_zero": _set(["dt"], 0.0),
    "t_end_negative": _set(["t_end"], -1.0),
    "sample_every_zero": _set(["sample_every"], 0.0),
    "segment_negative": _set(["signal"], {"type": "periodic", "segments": [["g0", -0.5]],
                                          "dwell_floor": 0.5}),
    "dwell_floor_zero": _set(["signal", "dwell_floor"], 0.0),
    "fixed_unknown_graph": _set(["signal", "graph"], "nope"),
    "periodic_unknown_graph": _set(["signal"], {"type": "periodic", "dwell_floor": 1.0,
                                                "segments": [["g0", 1.0], ["nope", 1.0]]}),
    "dt_above_quarter_dwell": lambda obj: obj.update(
        graphs={"ga": [[0, 1, 1.0]], "gb": [[1, 0, 1.0]]}, dt=0.2,
        signal={"type": "periodic", "segments": [["ga", 0.4], ["gb", 0.4]], "dwell_floor": 0.4},
    ),
    "events_beyond_max": lambda obj: obj.update(t_end=1e6, sample_every=1e-3),
}


@pytest.mark.parametrize("mutate", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_number_exits_2(tmp_path, capsys, mutate):
    obj = copy.deepcopy(BASE)
    mutate(obj)
    assert main(["verify", str(write(tmp_path, obj))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err


# one case per loader or sweep refusal: (mutation of BASE, the command and its options,
# the message after "input error: ")
REFUSALS = {
    "edge_source_not_integer": (_set(["graphs", "g0", 0, 0], 1.5), ["verify"],
                                "field 'edge source' must be an integer, got 1.5"),
    "node_without_kind": (_set(["nodes", 0], {"center": [0.0]}), ["verify"],
                          "potential entry must be an object with a 'kind' field, "
                          "got {'center': [0.0]}"),
    "sum_terms_not_list": (_set(["nodes", 0], {"kind": "sum", "terms": {}}), ["verify"],
                           "field 'terms' must be a list of potential objects, got {}"),
    "scenario_not_object": (lambda obj: [obj], ["verify"],
                            "scenario file must contain a JSON object"),
    "nodes_empty": (_set(["nodes"], []), ["verify"],
                    "field 'nodes' must be a nonempty list of potential objects"),
    "mixed_dimensions": (_set(["nodes", 1, "center"], [0.0, 0.0]), ["verify"],
                         "all node potentials must share one dimension, got [1, 2]"),
    "weight_bounds_reversed": (_set(["weight_bounds"], [2.0, 1.0]), ["verify"],
                               "weight bounds require 0 < a_lo <= a_hi, got [2.0, 1.0]"),
    "graphs_not_object": (_set(["graphs"], []), ["verify"],
                          "field 'graphs' must map graph ids to edge-triple lists"),
    "graph_not_list": (_set(["graphs", "g0"], 1), ["verify"],
                       "graph 'g0' must be a list of edge triples, got 1"),
    "edge_pair": (_set(["graphs", "g0", 0], [0, 1]), ["verify"],
                  "graph 'g0': edge must be [source, target, weight], got [0, 1]"),
    "signal_not_object": (_set(["signal"], "fixed"), ["verify"],
                          "field 'signal' must be an object, got 'fixed'"),
    "segments_empty": (_set(["signal"], {"type": "periodic", "segments": [], "dwell_floor": 1.0}),
                       ["verify"],
                       "periodic signal needs a nonempty 'segments' list of [graph_id, duration]"),
    "segment_without_duration": (_set(["signal"], {"type": "periodic", "segments": [["g0"]],
                                                   "dwell_floor": 1.0}),
                                 ["verify"], "segment must be [graph_id, duration], got ['g0']"),
    "checks_not_list": (_set(["checks"], {}), ["verify"],
                        "field 'checks' must be a list of check objects, got {}"),
    "x0_unknown_generator": (_set(["x0"], "zeros"), ["verify"],
                             "x0 must be a list of numbers, 'grid', or 'random:<seed>', "
                             "got 'zeros'"),
    "check_not_object": (_set(["checks", 0], "sync"), ["verify"],
                         "each check must be an object with a 'name', got 'sync'"),
    "sweep_k_not_numbers": (lambda obj: None, ["sweep", "--k", "1,x"],
                            "--k expects comma-separated numbers, got '1,x'"),
    "sweep_without_gains": (lambda obj: None, ["sweep"], "sweep needs --k or a scenario K_list"),
}


@pytest.mark.parametrize("case", REFUSALS.values(), ids=REFUSALS.keys())
def test_each_loader_and_sweep_refusal_exits_2_with_its_message(tmp_path, capsys, case):
    mutate, (command, *options), message = case
    obj = copy.deepcopy(BASE)
    obj = mutate(obj) or obj
    scen, out = str(write(tmp_path, obj)), tmp_path / "out"
    if command == "sweep":
        options += ["--out", str(out)]
    assert main([command, scen, *options]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


def _main_quietly(argv):
    """``main(argv)``'s exit code and stderr, with every warning the command raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), caught


# a scenario file that cannot be decoded, and output paths that cannot be made: (the file's
# bytes, the command and its options with {file} for an existing file, the path it names)
UNREADABLE_OR_UNWRITABLE = {
    "scenario_not_utf8": (b'{"version": 1, "name": "\xff\xfe"}', ["verify"], "scen.json"),
    "simulate_out_is_a_file": (None, ["simulate", "--out", "{file}"], "a_file"),
    "sweep_out_under_a_file": (None, ["sweep", "--k", "1,2", "--out", "{file}/sub"], "a_file/sub"),
}


@pytest.mark.parametrize("case", UNREADABLE_OR_UNWRITABLE.values(),
                         ids=UNREADABLE_OR_UNWRITABLE.keys())
def test_an_undecodable_scenario_or_an_unwritable_out_exits_2(tmp_path, case):
    data, (command, *options), named = case
    scen = tmp_path / "scen.json"
    scen.write_bytes(json.dumps(BASE).encode() if data is None else data)
    (tmp_path / "a_file").write_text("not a directory")
    options = [o.format(file=tmp_path / "a_file") for o in options]
    code, err, caught = _main_quietly([command, str(scen), *options])
    assert code == 2 and err.startswith("input error: ") and str(tmp_path / named) in err
    assert "Traceback" not in err and not caught


def _at(*path):
    """Sets the scenario leaf at ``path`` to the value given."""
    return lambda obj, value: _set(list(path), value)(obj)


# a 2-node switching scenario with a sum node, and a check for each check parameter below
EXTREME_BASE = {
    "version": 1,
    "name": "extreme",
    "nodes": [
        {"kind": "sum", "terms": [{"kind": "quadratic", "center": [0.5], "weight": 1.0},
                                  {"kind": "flat_bottom", "left": 0.0, "right": 1.0}]},
        {"kind": "quartic", "center": [0.25]},
    ],
    "weight_bounds": [0.5, 2.0],
    "graphs": {"ga": [[0, 1, 1.0]], "gb": [[1, 0, 1.0]]},
    "signal": {"type": "periodic", "segments": [["ga", 0.5], ["gb", 0.5]], "dwell_floor": 0.5},
    "K": 1.0, "epsilon": 0.05, "x0": "grid", "x0_range": [-1.0, 2.0],
    "dt": 0.05, "t_end": 2.0, "sample_every": 0.25, "tail_fraction": 0.5,
    "checks": [{"name": "sync", "tol": 1e-4}, {"name": "invariant_cube", "eta": 0.5},
               {"name": "monotone_theta", "rise_tol": 1e-8}, {"name": "ujsc", "T": 1.5}],
}
# each field the grid sets, one at a time, to each extreme but well-typed number
EXTREME_FIELDS = {
    "K": _at("K"),
    "K_list": lambda obj, value: obj.update(K_list=[value]) or obj.pop("K"),
    "dt": _at("dt"),
    "t_end": _at("t_end"),
    "sample_every": _at("sample_every"),
    "tail_fraction": _at("tail_fraction"),
    "epsilon": _at("epsilon"),
    "x0": lambda obj, value: obj.update(x0=[value, 0.5]),
    "x0_range": _at("x0_range", 0),
    "weight_bounds": _at("weight_bounds", 0),
    "dwell_floor": _at("signal", "dwell_floor"),
    "center": _at("nodes", 0, "terms", 0, "center", 0),
    "weight": _at("nodes", 0, "terms", 0, "weight"),
    "flat_bottom_edge": _at("nodes", 0, "terms", 1, "left"),
    "tol": _at("checks", 0, "tol"),
    "eta": _at("checks", 1, "eta"),
    "rise_tol": _at("checks", 2, "rise_tol"),
    "T": _at("checks", 3, "T"),
}
EXTREMES = (0.0, -0.0, -1.0, 1e308, -1e308, 5e-324, 1e-300, 1e-12)


@pytest.mark.parametrize("command", [["simulate"], ["verify"], ["sweep", "--k", "1,2"]],
                         ids=["simulate", "verify", "sweep"])
def test_an_extreme_number_in_any_field_never_escapes_a_command(tmp_path, command):
    if command[0] != "verify":
        command = [*command, "--out", str(tmp_path / "out")]
    for (field, mutate), value in itertools.product(EXTREME_FIELDS.items(), EXTREMES):
        obj = copy.deepcopy(EXTREME_BASE)
        mutate(obj, value)
        code, err, caught = _main_quietly([command[0], str(write(tmp_path, obj)), *command[1:]])
        assert code in {0, 1, 2, 3}, (field, value)
        assert "Traceback" not in err and not caught, (field, value, err, caught)


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


def _fields(obj, path=()):
    """The path of every field of every object in ``obj``, at any depth."""
    if isinstance(obj, dict):
        return [path + (k,) for k in obj] + [
            p for k, v in obj.items() for p in _fields(v, path + (k,))]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _fields(v, path + (i,))]
    return []


SMOKE = {w: smoke_scenario(w) for w in ("ring_switch_1d", "hull_2d", "gain_sweep")}
# small numbers keep a run that still loads as short as the smoke run it replaces
SWAPS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([-1, 0, 0.5, 3]),
    st.text(max_size=3),
    st.lists(st.sampled_from([-1, 0.5, 3]), max_size=3),
    st.dictionaries(st.text(max_size=2), st.sampled_from([0, 0.5]), max_size=2),
)


@settings(max_examples=800, deadline=None)
@given(st.sampled_from([(w, p) for w, obj in SMOKE.items() for p in _fields(obj)]), SWAPS)
def test_any_field_of_a_smoke_scenario_swapped_for_another_type_never_escapes(
        tmp_path_factory, field, value):
    workload, path = field
    obj = copy.deepcopy(SMOKE[workload])
    _set(list(path), value)(obj)
    scen = write(tmp_path_factory.mktemp("swap"), obj)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["verify", str(scen)])
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()
