"""Per-module tracing of one syncflow command, from outside the package.

Nothing in ``src/`` is changed.  While a ``Tracer`` is installed it replaces
public functions by timing wrappers at every name that binds them: after
``from .simulator import integrate``, the names ``simulator.integrate``,
``analysis.integrate`` and ``cli.integrate`` are three bindings, and patching
only the first would miss the sweep lanes and the minimizer's gradient.
Methods are patched on their classes, which every call goes through.

Two kinds of wrapper:

* a *span* (coarse boundaries: integrate, diagnostics, checks, sweep, load)
  keeps ``(id, name, start, end, parent)`` in memory.  A span opened on a
  worker thread with nothing open on that thread takes the innermost span
  open on the installing thread as its parent, so sweep lanes hang under
  ``analysis.sweep_K``.
* a *leaf* (hot methods called up to ~10^5 times per command, such as
  ``self_dynamics`` and ``Hull.project``) only adds to per-thread call
  counts and busy time, keyed by the innermost open span, so that span's
  self time can exclude it.  Nested calls of a leaf inside a leaf count as
  calls but add no time.

Self time of a span is its duration minus the part of it covered by child
spans (as a union, since lanes overlap) and by top-level leaf calls under it.
"""

import functools
import inspect
import itertools
import math
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (origin module, function) pairs wrapped as spans, under "<module>.<name>"
SPAN_FUNCTIONS = {
    "simulator": ("integrate", "rhs"),
    "graphs": ("lambda2", "certify_ujsc"),
    "convex_geometry": ("check_drift_alignment",),
    "analysis": (
        "diagnostics", "diameter_series", "sweep_K", "minimize_aggregate", "sync_verdict",
        "check_monotone", "check_common_limit", "check_node_optimum", "check_spectral_bound",
        "check_feasibility", "cube_containment",
    ),
    "cli": ("load_scenario", "run"),
}

# (module, class or "*" for every class of the module, method, label) wrapped
# as leaves, under "<module>.<label>"
LEAF_METHODS = (
    ("potentials", "*", "self_dynamics", "self_dynamics"),
    ("potentials", "*", "zero_set", "zero_set"),
    ("convex_geometry", "Hull", "project", "hull_project"),
    ("graphs", "SwitchingSignal", "graph_at", "graph_at"),
)

ANALYSIS_CHECKS = frozenset(
    f"analysis.{n}" for n in SPAN_FUNCTIONS["analysis"]
    if n.startswith("check_") or n in ("sync_verdict", "cube_containment")
)


class Tracer:
    """Installs timing wrappers into the loaded ``syncflow`` modules.

    Use as a context manager around exactly one command; ``spans`` and the
    leaf tables then describe that command and ``metrics()`` reduces them.
    """

    def __init__(self):
        self.spans: list = []  # (id, name, start, end, parent, extra)
        self._ids = itertools.count()
        self._local = threading.local()
        self._tables: list = []  # one (calls, busy) pair per thread
        self._tables_lock = threading.Lock()
        self._home = None
        self._undo: list = []

    # -- per-thread state --------------------------------------------------

    def _state(self):
        st = self._local.__dict__
        if "stack" not in st:
            st["stack"] = []
            st["leaf_depth"] = 0
            st["calls"] = defaultdict(int)
            st["busy"] = defaultdict(float)
            with self._tables_lock:
                self._tables.append((st["calls"], st["busy"]))
        return st

    def _parent(self, st):
        if st["stack"]:
            return st["stack"][-1]
        home = self._home
        if home is not None and home is not st["stack"] and home:
            return home[-1]
        return None

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        sig = inspect.signature(fn) if name == "simulator.integrate" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            parent = self._parent(st)
            sid = next(self._ids)
            st["stack"].append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st["stack"].pop()
            extra = _integrate_info(sig, args, kwargs, result) if sig else None
            self.spans.append((sid, name, t0, t1, parent, extra))
            return result

        return wrapper

    def _leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            key = (name, self._parent(st))
            st["calls"][key] += 1
            if st["leaf_depth"]:
                return fn(*args, **kwargs)
            st["leaf_depth"] = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                st["busy"][key] += perf_counter() - t0
                st["leaf_depth"] = 0

        return wrapper

    # -- install / remove --------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "syncflow" and not modname.startswith("syncflow."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def __enter__(self):
        import syncflow  # noqa: F401  (makes every submodule importable below)

        mods = {m: sys.modules[f"syncflow.{m}"] for m in
                ("simulator", "graphs", "convex_geometry", "analysis", "cli", "potentials")}
        for modname, names in SPAN_FUNCTIONS.items():
            for fname in names:
                original = getattr(mods[modname], fname, None)
                if callable(original):
                    self._replace_everywhere(original, self._span(f"{modname}.{fname}", original))
        for modname, cls_name, meth, label in LEAF_METHODS:
            mod = mods[modname]
            classes = ([c for c in vars(mod).values()
                        if isinstance(c, type) and c.__module__ == mod.__name__]
                       if cls_name == "*" else [getattr(mod, cls_name, None)])
            for cls in classes:
                if cls is not None and meth in vars(cls):
                    original = vars(cls)[meth]
                    setattr(cls, meth, self._leaf(f"{modname}.{label}", original))
                    self._undo.append((cls, meth, original))
        self._home = self._state()["stack"]
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._home = None
        return False

    # -- reduction ---------------------------------------------------------

    def leaf_table(self):
        """{(leaf name, parent span id): [calls, busy seconds]} summed over threads."""
        out: dict = defaultdict(lambda: [0, 0.0])
        for calls, busy in self._tables:
            for key, n in calls.items():
                out[key][0] += n
            for key, s in busy.items():
                out[key][1] += s
        return out

    def self_times(self) -> dict:
        """Span id -> duration minus the union of child spans and leaf time under it."""
        children = defaultdict(list)
        for sid, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        leaf_busy = defaultdict(float)
        for (_, parent), (_, busy) in self.leaf_table().items():
            if parent is not None:
                leaf_busy[parent] += busy
        out = {}
        for sid, _, t0, t1, _, _ in self.spans:
            covered = _union_length(children.get(sid, ()), t0, t1)
            out[sid] = max(0.0, (t1 - t0) - covered - leaf_busy[sid])
        return out

    def metrics(self) -> dict:
        """Per-module numbers for the one traced command."""
        by_id = {s[0]: s for s in self.spans}
        names = {sid: s[1] for sid, s in by_id.items()}

        def total(name):
            return sum(t1 - t0 for _, n, t0, t1, _, _ in self.spans if n == name)

        def count(name):
            return sum(1 for s in self.spans if s[1] == name)

        def under(sid, ancestor):
            while sid is not None:
                if names.get(sid) == ancestor:
                    return True
                sid = by_id[sid][4] if sid in by_id else None
            return False

        leaves = self.leaf_table()

        def leaf(name):
            calls = busy = 0
            for (lname, _), (n, s) in leaves.items():
                if lname == name:
                    calls += n
                    busy += s
            return calls, busy

        integ = [s for s in self.spans if s[1] == "simulator.integrate"]
        steps = sum(s[5]["steps"] for s in integ)
        node_steps = sum(s[5]["steps"] * s[5]["nodes"] for s in integ)
        integrate_s = sum(s[3] - s[2] for s in integ)
        self_t = self.self_times()
        sd_calls, sd_busy = leaf("potentials.self_dynamics")
        hp_calls, hp_busy = leaf("convex_geometry.hull_project")
        # checks the command runs itself: not nested in another check, and
        # not the per-lane verdicts inside a sweep
        top_checks = [s for s in self.spans
                      if s[1] in ANALYSIS_CHECKS and not any(
                          under(s[4], c) for c in ANALYSIS_CHECKS | {"analysis.sweep_K"})]
        return {
            "potentials.self_dynamics_calls": (sd_calls, "count"),
            "potentials.self_dynamics_s": (sd_busy, "s"),
            "potentials.zero_set_calls": (leaf("potentials.zero_set")[0], "count"),
            "simulator.integrate_calls": (len(integ), "count"),
            "simulator.integrate_s": (integrate_s, "s"),
            "simulator.rk4_steps": (steps, "count"),
            "simulator.us_per_node_step": (
                1e6 * integrate_s / node_steps if node_steps else 0.0, "us"),
            "graphs.graph_at_calls": (leaf("graphs.graph_at")[0], "count"),
            "graphs.lambda2_s": (total("graphs.lambda2"), "s"),
            "graphs.certify_ujsc_s": (total("graphs.certify_ujsc"), "s"),
            "convex_geometry.hull_project_calls": (hp_calls, "count"),
            "convex_geometry.hull_project_s": (hp_busy, "s"),
            "convex_geometry.drift_alignment_s": (total("convex_geometry.check_drift_alignment"), "s"),
            "analysis.diagnostics_s": (
                sum(self_t[s[0]] for s in self.spans if s[1] == "analysis.diagnostics"), "s"),
            "analysis.diameter_calls": (count("analysis.diameter_series"), "count"),
            "analysis.diameter_s": (total("analysis.diameter_series"), "s"),
            "analysis.sweep_s": (total("analysis.sweep_K"), "s"),
            "analysis.sweep_lane_integrate_s": (
                sum(s[3] - s[2] for s in integ if under(s[4], "analysis.sweep_K")), "s"),
            "analysis.minimize_aggregate_s": (total("analysis.minimize_aggregate"), "s"),
            "analysis.minimize_rhs_calls": (
                sum(1 for s in self.spans if s[1] == "simulator.rhs"
                    and under(s[4], "analysis.minimize_aggregate")), "count"),
            "analysis.checks_s": (sum(s[3] - s[2] for s in top_checks), "s"),
            "cli.load_s": (total("cli.load_scenario"), "s"),
            # what ``cli.run`` does besides its traced children: format and
            # write trajectory.csv, report.json and plot.gp
            "cli.write_s": (sum(self_t[s[0]] for s in self.spans if s[1] == "cli.run"), "s"),
        }

    def integrate_grids(self):
        """Recorded sample times of every traced integration."""
        return [s[5]["times"] for s in self.spans if s[1] == "simulator.integrate"]

    def span_records(self) -> list:
        """Spans as JSON-ready dicts, start times relative to the first span."""
        if not self.spans:
            return []
        origin = min(s[2] for s in self.spans)
        return [
            {"id": sid, "name": name, "start": t0 - origin, "end": t1 - origin, "parent": parent}
            for sid, name, t0, t1, parent, _ in sorted(self.spans, key=lambda s: s[2])
        ]


def _integrate_info(sig, args, kwargs, traj) -> dict:
    """RK4 steps of one integrate call, from its arguments and sample grid.

    Every event of the integrator's grid is recorded except a final t_end
    off the sample grid, so the grid is the recorded times plus t_end; each
    event span takes ceil(span / dt) equal steps.
    """
    bound = sig.bind(*args, **kwargs)
    dt = float(bound.arguments["dt"])
    t_end = float(bound.arguments["t_end"])
    times = [float(t) for t in traj.times]
    grid = times if abs(times[-1] - t_end) <= 1e-9 * max(1.0, t_end) else times + [t_end]
    steps = sum(max(1, math.ceil((b - a) / dt - 1e-9)) for a, b in zip(grid, grid[1:]))
    return {"steps": steps, "nodes": traj.node_count, "times": times}


def _union_length(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
