"""Golden outputs: the smoke-size benchmark workloads at seeds 7 and 59, rerun through
``cli.main`` in-process and compared with the committed reference in ``golden/``.

Each case directory ``golden/<workload>_<seed>/`` holds the scenario (``scenario.json``)
and, per command, its exit code, stdout and stderr (``<command>.json``) and the files it
wrote (``<command>/``).  Exit codes, stdout, stderr, CSV headers, row counts and every
non-CSV file but ``report.json`` must match exactly.  A CSV value may differ from the
reference by ``RTOL`` times its column's sup norm, and a float of ``report.json`` by
``RTOL`` relative (with ``RTOL`` absolute near 0); every other field of it matches exactly.
The tolerance admits another summation order (an older numpy, another BLAS), not a change
of method.

After a deliberate change of outputs, rewrite the reference from the committed scenarios
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from syncflow.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (7, 59)
COMMANDS = {"ring_switch_1d": ("simulate",), "hull_2d": ("verify",),
            "gain_sweep": ("verify", "sweep")}
CASES = [(w, seed, command) for w in COMMANDS for seed in SEEDS for command in COMMANDS[w]]
RTOL = 1e-9


def run_case(workload: str, seed: int, command: str, out: Path) -> dict:
    """Runs one command on the committed scenario, writing its files under ``out``."""
    argv = [command, str(GOLDEN / f"{workload}_{seed}" / "scenario.json")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv if command == "verify" else argv + ["--out", str(out)])
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


@pytest.mark.parametrize("workload, seed, command", CASES)
def test_outputs_match_the_golden_reference(workload, seed, command, tmp_path):
    case = GOLDEN / f"{workload}_{seed}"
    got = run_case(workload, seed, command, tmp_path / "out")
    assert got == json.loads((case / f"{command}.json").read_text())
    ref = case / command
    written = sorted(p.name for p in (tmp_path / "out").glob("*"))
    assert written == sorted(p.name for p in ref.glob("*"))
    for name in written:
        want, have = (ref / name).read_text(), (tmp_path / "out" / name).read_text()
        if name.endswith(".csv"):
            assert_csv_close(have, want)
        elif name == "report.json":
            assert_json_close(json.loads(have), json.loads(want))
        else:
            assert have == want, name


def assert_csv_close(have: str, want: str):
    h_lines, w_lines = have.splitlines(), want.splitlines()
    assert h_lines[0] == w_lines[0] and len(h_lines) == len(w_lines)
    h, w = (np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
            for lines in (h_lines, w_lines))
    assert np.array_equal(np.isnan(h), np.isnan(w))
    h, w = np.nan_to_num(h), np.nan_to_num(w)
    sup = np.abs(w).max(axis=0)
    worst = (np.abs(h - w) - RTOL * sup).max(axis=0)
    assert np.all(worst <= 0), f"columns {np.nonzero(worst > 0)[0].tolist()} differ"


def assert_json_close(have, want, path="report"):
    assert type(have) is type(want), path
    if isinstance(want, dict):
        assert list(have) == list(want), path
        for key in want:
            assert_json_close(have[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(have) == len(want), path
        for i, (a, b) in enumerate(zip(have, want)):
            assert_json_close(a, b, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(have, want, rel_tol=RTOL, abs_tol=RTOL), (path, have, want)
    else:
        assert have == want, path


def regenerate():
    """Rewrites every case's outputs from its committed scenario."""
    for workload, seed, command in CASES:
        case = GOLDEN / f"{workload}_{seed}"
        for old in (case / command).glob("*"):
            old.unlink()
        result = run_case(workload, seed, command, case / command)
        (case / f"{command}.json").write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
