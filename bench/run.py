"""syncflow benchmark: seeded scenario workloads run through ``syncflow.cli``.

Usage (from the repository root)::

    python3 bench/run.py --workload ring_switch_1d --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke                  # the harness's own check
    python3 bench/run.py --compare A.json B.json  # two result files

One run generates the workload's scenario file from ``--seed``, then runs the
command in this process in a closed loop (one client; the next command starts
when the previous one returns) for ``--seconds``.  Every command is checked:
exit code and per-check verdicts against the theory's prediction, and
byte-identical outputs across repeats.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates traced
and untraced commands and prints the per-module metrics (see tracing.py) and
the tracing overhead.  Times are rescaled by a speed probe run between
commands (see "speed scaling" below).  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A result
file with the environment stamp, raw samples and the spans of the last
traced command goes to ``.bench_work/results/``.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import scenarios  # noqa: E402

# fresh interpreter: import the package and load the scenario, then report
# the monotonic clock, which the parent compares with its spawn time
SETUP_CHILD = (
    "import sys, time\n"
    "import syncflow\n"
    "from syncflow.cli import load_scenario\n"
    "load_scenario(sys.argv[1])\n"
    "print(time.monotonic())\n"
)

END_TO_END_UNITS = {"wall_s": "s", "node_steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
VERDICT_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+)")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_syncflow():
    if not (SRC / "syncflow" / "__init__.py").is_file():
        raise SystemExit(f"bench: no syncflow sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import syncflow
    import syncflow.cli

    return syncflow


# -- environment stamp ---------------------------------------------------------


def _git_commit() -> str:
    # read .git directly: the checkout may not be a repository, and asking
    # git would search the directories above it
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def env_stamp() -> dict:
    """What must match before two result files may be compared."""
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    threads = os.environ.get("SYNCFLOW_THREADS")
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "sweep_pool": int(threads) if threads else (os.cpu_count() or 1),
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
        "machine": platform.machine(),
    }


# fields that describe the code under test; the rest describe the machine
CODE_FIELDS = ("git_commit", "src_sha256", "src_lines")


# -- one command -----------------------------------------------------------------


class Runner:
    """Runs one workload's command in-process and checks every outcome."""

    def __init__(self, syncflow, wl: scenarios.Workload, workdir: Path):
        self.cli = syncflow.cli
        self.wl = wl
        self.scenario_path = workdir / f"{wl.name}.json"
        self.scenario_path.write_text(json.dumps(wl.scenario, indent=1))
        self.out = workdir / "out"
        self.argv = [wl.command, str(self.scenario_path)]
        if wl.command == "simulate":
            self.argv += ["--out", str(self.out)]
        self.expected_times = scenarios.sample_times(wl.scenario)
        self.node_steps = wl.node_count * wl.lanes * scenarios.rk4_steps(wl.scenario)
        self.first_digest = None
        self.attempted = 0
        self.failures: list = []

    def run(self, tracer=None):
        """One command; returns (wall seconds, traced metrics or None, passed)."""
        if self.out.exists():
            shutil.rmtree(self.out)
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        self.attempted += 1
        problems = []
        code = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(self.argv)
                else:
                    with tracer:
                        code = self.cli.main(self.argv)
            except Exception:
                problems.append("uncaught exception:\n" + traceback.format_exc())
            wall = time.perf_counter() - t0
        problems += self._check(code, stdout.getvalue(), stderr.getvalue())
        traced = None
        if tracer is not None and not problems:
            traced = tracer.metrics()
            for times in tracer.integrate_grids():
                if not _same_times(times, self.expected_times):
                    problems.append("an integrate call recorded another sample grid than "
                                    "the harness's event-grid model; node_steps_per_s is off")
                    break
            csv = sum(p.stat().st_size for p in self.out.glob("*.csv")) if self.out.exists() else 0
            traced["cli.csv_bytes"] = (csv, "bytes")
        if problems:
            self.failures.append(problems)
        return wall, traced, not problems

    def _check(self, code, out: str, err: str) -> list:
        wl = self.wl
        problems = []
        if code != wl.expected_exit:
            problems.append(f"exit code {code}, expected {wl.expected_exit}; stderr: {err.strip()!r}")
        if wl.command == "simulate":
            try:
                report = json.loads((self.out / "report.json").read_text())
                verdicts = {c["check"]: c["pass"] for c in report["checks"]}
            except (OSError, ValueError, KeyError, TypeError) as e:
                return problems + [f"unreadable report.json: {e}"]
        else:
            verdicts = {m.group(2): m.group(1) == "PASS"
                        for m in map(VERDICT_LINE.match, out.splitlines()) if m}
        if set(verdicts) != set(wl.expected):
            problems.append(f"checks {sorted(verdicts)}, expected {sorted(wl.expected)}")
        for name, want in wl.expected.items():
            if want is not None and name in verdicts and verdicts[name] != want:
                problems.append(f"check {name}: {'PASS' if verdicts[name] else 'FAIL'}, "
                                f"expected {'PASS' if want else 'FAIL'}")
        digest = hashlib.sha256(out.encode() + b"\0" + err.encode())
        if wl.command == "simulate":
            for name in ("trajectory.csv", "report.json", "plot.gp"):
                path = self.out / name
                if not path.is_file():
                    problems.append(f"simulate wrote no {name}")
                    continue
                digest.update(name.encode() + b"\0" + path.read_bytes())
        digest = digest.hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
            if wl.command == "simulate" and not problems:
                problems += self._check_csv_grid()
        elif digest != self.first_digest:
            problems.append("outputs differ from the first run of the same scenario")
        return problems

    def _check_csv_grid(self) -> list:
        lines = (self.out / "trajectory.csv").read_text().splitlines()
        times = [float(line.split(",", 1)[0]) for line in lines[1:]]
        if not _same_times(times, self.expected_times):
            return ["trajectory.csv sample times differ from the harness's event-grid model"]
        return []


def _same_times(a, b) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= 1e-9 * max(1.0, abs(y)) for x, y in zip(a, b))


def setup_times(scenario_path: Path, reps: int) -> tuple:
    """Seconds from spawning a fresh interpreter to scenario loaded, ``reps`` times.

    Returns the times and the speed probes run after each child.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-c", SETUP_CHILD, str(scenario_path)]
    out, probes = [], []
    for i in range(reps + 1):  # the first one compiles bytecode and is not timed
        t0 = time.monotonic()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
        if i:
            out.append(float(proc.stdout.split()[0]) - t0)
            probes += [probe() for _ in range(PROBE_REPEATS)]
    return out, probes


# -- speed scaling -----------------------------------------------------------------
#
# The host's speed swings by up to 2x within seconds and drifts over minutes
# (shared cores; CPU time tracks wall time, so nothing is waiting), and no
# number of repeats averages that away.  So short probes run after every
# timed command and every set-up child: a fixed loop of interpreter calls on
# one-element numpy arrays, the same kind of work as the program's per-node
# loops, sharing no code with it.  Times are rescaled to the speed at which
# the probe takes PROBE_REF_S, using the mean of the probes of their phase:
#     reported = measured * PROBE_REF_S / mean(probe times)
# Command times (per-module times too) use the command phase's probes and
# setup_s uses the set-up phase's own, since the speed moves between the two.
# The mean, not the median, because the probe times are bimodal at this
# scale.  Raw times and probe times are kept in the result file.

PROBE_REF_S = 0.02
# probes after each command or set-up child: host speed is bimodal at this
# time scale, so a single probe leaves the mean probe time noisy
PROBE_REPEATS = 3
_PROBE_CENTER = np.array([0.5])


def _probe_drift(x):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (1,):
        raise ValueError("probe state must hold one number")
    return -1.5 * (v - _PROBE_CENTER)


def probe() -> float:
    """Seconds for 8192 small-array drift evaluations (about 20 ms on a 2-vCPU cloud VM)."""
    x = np.linspace(-1.0, 1.0, 64).reshape(-1, 1)
    out = np.empty_like(x)
    t0 = time.perf_counter()
    for _ in range(128):
        for i in range(64):
            out[i] = _probe_drift(x[i])
        x = x + 0.01 * out
    return time.perf_counter() - t0


# -- summaries -------------------------------------------------------------------


def tail_percentile(values):
    """(p, value) for the highest of p99/p95/p90/p75/p50 with >= 10 samples above it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None, None


def measure(syncflow, wl, seconds: float, trace: bool, setup_reps: int, tag: str) -> dict:
    workdir = WORK / tag
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    runner = Runner(syncflow, wl, workdir)
    setups, setup_probes = setup_times(runner.scenario_path, setup_reps)

    from tracing import Tracer

    runner.run()  # warm-up: caches and lazy imports, checked but not timed
    walls, traced_walls, probes, layers, last_tracer = [], [], [], [], None
    deadline = time.monotonic() + seconds
    i = 0
    while time.monotonic() < deadline or i < (2 if trace else 1):
        tracer = Tracer() if trace and i % 2 else None
        wall, metrics, ok = runner.run(tracer)
        probes += [probe() for _ in range(PROBE_REPEATS)]
        if ok and tracer is not None:
            traced_walls.append(wall)
            layers.append(metrics)
            last_tracer = tracer
        elif ok:
            walls.append(wall)
        i += 1
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = PROBE_REF_S / statistics.mean(probes)

    summary = {
        "workload": wl.name,
        "command": " ".join(["syncflow", wl.command, runner.scenario_path.name]),
        "size": {"nodes": wl.node_count, "dim": _dim(wl.scenario), "lanes": wl.lanes,
                 "rk4_steps_per_lane": scenarios.rk4_steps(wl.scenario),
                 "t_end": wl.scenario["t_end"], "dt": wl.scenario["dt"]},
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:5],
        "speed_scale": scale,
        "wall_samples_raw": walls,
        "setup_samples_raw": setups,
        "setup_probe_samples": setup_probes,
        "probe_samples": probes,
        "end_to_end": {},
        "per_layer": {},
    }
    if walls:
        p, tail = tail_percentile(walls)
        wall_s = statistics.median(walls) * scale
        summary["wall_tail"] = {"percentile": p, "value": tail and tail * scale,
                                "samples": len(walls)}
        summary["end_to_end"] = {
            "wall_s": wall_s,
            "node_steps_per_s": runner.node_steps / wall_s,
            "setup_s": statistics.median(setups) * PROBE_REF_S / statistics.mean(setup_probes),
            "peak_rss_mb": peak_rss,
        }
        summary["raw"] = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups)}
    if layers:
        units = {name: unit for name, (_, unit) in layers[0].items()}
        per_layer = {name: statistics.median(m[name][0] for m in layers)
                     * (scale if units[name] in ("s", "us") else 1.0) for name in units}
        if walls:
            per_layer["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                                 / statistics.median(walls))
            units["trace.overhead_ratio"] = "ratio"
        summary["per_layer"] = per_layer
        summary["per_layer_units"] = units
        summary["traced_samples_raw"] = traced_walls
        summary["spans"] = last_tracer.span_records()
    return summary


def _dim(scenario) -> int:
    node = scenario["nodes"][0]
    while node["kind"] == "sum":
        node = node["terms"][0]
    return 1 if node["kind"] == "flat_bottom" else len(node["center"])


def print_summary(s: dict, trace: bool):
    size = s["size"]
    print(f"workload {s['workload']}: {s['command']}  N={size['nodes']} m={size['dim']} "
          f"lanes={size['lanes']} steps/lane={size['rk4_steps_per_lane']}  "
          f"(closed loop, 1 client)")
    rate = s["failed"] / s["attempted"]
    e2e = s["end_to_end"]
    if e2e:
        tail = s["wall_tail"]
        tail_txt = (f"p{tail['percentile']} {tail['value']:.6g} s" if tail["percentile"]
                    else "no percentile above the median has 10 samples")
        raw = s["raw"]
        print(f"  wall_s            {e2e['wall_s']:.6g} s   median of {tail['samples']}; {tail_txt}"
              f"  (raw median {raw['wall_s']:.6g} s)")
        print(f"  node_steps_per_s  {e2e['node_steps_per_s']:.6g} 1/s")
        print(f"  setup_s           {e2e['setup_s']:.6g} s   median of "
              f"{len(s['setup_samples_raw'])} fresh interpreters  (raw median {raw['setup_s']:.6g} s)")
        print(f"  (times are rescaled by speed probes; commands x{s['speed_scale']:.4g})")
        print(f"  peak_rss_mb       {e2e['peak_rss_mb']:.6g} MiB")
    print(f"  error_rate        {rate:.6g} ratio   {s['failed']} of {s['attempted']} runs failed")
    for problems in s["failures"]:
        print("  FAILED: " + "; ".join(problems), file=sys.stderr)
    if trace and s["per_layer"]:
        units = s["per_layer_units"]
        for name, value in s["per_layer"].items():
            print(f"  {name:<40} {value:.6g} {units[name]}")


def bypass_violations(name: str, layers: dict) -> list:
    """Layers a workload must not use, by construction of its scenario."""
    out = []
    if name == "ring_switch_1d" and layers["convex_geometry.hull_project_calls"] != 0:
        out.append("convex_geometry.hull_project_calls must be 0 on ring_switch_1d")
    if (layers["cli.csv_bytes"] > 0) != (name == "ring_switch_1d"):
        out.append("cli.csv_bytes must be > 0 on ring_switch_1d only")
    if name != "gain_sweep" and layers["analysis.sweep_s"] != 0:
        out.append("analysis.sweep_s must be 0 outside gain_sweep")
    return out


def write_result(summary: dict, stamp: dict, tag: str) -> Path:
    path = WORK / "results" / f"{tag}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"stamp": stamp, **summary}, indent=1))
    return path


# -- modes -----------------------------------------------------------------------


def bench(args) -> int:
    syncflow = _import_syncflow()
    stamp = env_stamp()
    wl = scenarios.make(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    s = measure(syncflow, wl, args.seconds, bool(args.trace), setup_reps=9, tag=tag)
    print(f"stamp: commit {stamp['git_commit'][:12]}  src {stamp['src_lines']} lines  "
          f"python {stamp['python']}  numpy {stamp['numpy']}  nproc {stamp['nproc']}  "
          f"sweep pool {stamp['sweep_pool']}  blas {stamp['blas_threads']}")
    print_summary(s, bool(args.trace))
    if args.trace and s["per_layer"]:
        for v in bypass_violations(args.workload, s["per_layer"]):
            print(f"  bypass check VIOLATED: {v}")
    path = write_result(s, stamp, tag)
    print(f"result file: {path.relative_to(ROOT)}")
    if args.trace:
        metrics = {k: {"value": v, "unit": s["per_layer_units"][k]}
                   for k, v in s["per_layer"].items()}
    else:
        metrics = {k: {"value": s["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END_UNITS.items() if k in s["end_to_end"]}
    print(json.dumps({"correct": s["failed"] == 0 and bool(metrics), "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


def smoke() -> int:
    """Tiny sizes, one repeat: every metric printed with its unit, no failures."""
    syncflow = _import_syncflow()
    errors = []
    for name in scenarios.WORKLOADS:
        wl = scenarios.make(name, 1, "smoke")
        s = measure(syncflow, wl, 0.0, True, setup_reps=1, tag=f"smoke-{name}")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            print_summary(s, True)
        text = buf.getvalue()
        print(text, end="")
        wanted = dict(END_TO_END_UNITS, error_rate="ratio", **s["per_layer_units"])
        for metric, unit in wanted.items():
            if not re.search(rf"^\s+{re.escape(metric)}\s+\S+ {re.escape(unit)}\b", text, re.M):
                errors.append(f"{name}: {metric} not printed with unit {unit}")
        if s["failed"]:
            errors.append(f"{name}: error_rate {s['failed']}/{s['attempted']}: {s['failures']}")
        if s["per_layer"]:
            errors += [f"{name}: {v}" for v in bypass_violations(name, s["per_layer"])]
            steps = s["per_layer"]["simulator.rk4_steps"]
            model = s["size"]["rk4_steps_per_lane"] * wl.lanes
            if steps != model:
                errors.append(f"{name}: traced rk4_steps {steps} != event-grid model {model}")
    for e in errors:
        print("smoke FAILED: " + e, file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problems")
    return 1 if errors else 0


def compare(path_a: str, path_b: str) -> int:
    """Side-by-side medians of two result files; refuses if the machines differ."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    differ = {k for k in set(a["stamp"]) | set(b["stamp"]) if a["stamp"].get(k) != b["stamp"].get(k)}
    for k in sorted(differ):
        kind = "code" if k in CODE_FIELDS else "ENVIRONMENT"
        print(f"stamp differs ({kind}): {k}: {a['stamp'].get(k)} -> {b['stamp'].get(k)}")
    if a["workload"] != b["workload"]:
        print(f"refusing: workloads differ ({a['workload']} vs {b['workload']})")
        return 1
    if differ - set(CODE_FIELDS):
        print("refusing: the runs come from different environments")
        return 1
    for section in ("end_to_end", "per_layer"):
        for k in sorted(set(a[section]) & set(b[section])):
            va, vb = a[section][k], b[section][k]
            ratio = f"{vb / va:.3f}x" if va else "n/a"
            print(f"{k:<42} {va:>12.6g} {vb:>12.6g}  {ratio}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=scenarios.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run the harness's own check")
    ap.add_argument("--compare", nargs=2, metavar="RESULT", help="compare two result files")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
