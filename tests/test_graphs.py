import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncflow import (
    InputError,
    SwitchingSignal,
    WeightedDigraph,
    certify_ujsc,
    is_strongly_connected,
    lambda2,
)
from syncflow import graphs
from util import complete_graph, graph_id_at, joint_graph, path_graph, ring_graph, undirected


def chain(n, reverse=False):
    if reverse:
        return WeightedDigraph(n, tuple((i + 1, i, 1.0) for i in range(n - 1)))
    return WeightedDigraph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def alternating_chains(n=3, seg=1.0, dwell=None):
    return SwitchingSignal(
        {"fwd": chain(n), "rev": chain(n, reverse=True)},
        (("fwd", seg), ("rev", seg)),
        dwell_floor=dwell or seg,
    )


def connected(n, arcs):
    """Strong connectivity of the ``(j, i)`` arc set ``arcs`` on n nodes."""
    return is_strongly_connected(WeightedDigraph(n, tuple((j, i, 1.0) for j, i in arcs)))


def switched_graph(sig, t):
    """The graph from t on as the segment table gives it: the first segment's, then that
    of each switch up to t."""
    return [sig.segments[0][0], *(g for _, g in sig.switch_times(t))][-1]


def test_laplacian_undirected_pair():
    g = undirected(2, [(0, 1)])
    np.testing.assert_array_equal(g.laplacian_matrix, [[1, -1], [-1, 1]])


def test_laplacian_empty():
    np.testing.assert_array_equal(WeightedDigraph(3).laplacian_matrix, np.zeros((3, 3)))


def test_laplacian_directed_single_arc():
    g = WeightedDigraph(2, ((0, 1, 3.0),))
    np.testing.assert_array_equal(g.laplacian_matrix, [[0, 0], [-3, 3]])


def test_laplacian_row_sums_vanish():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        arcs = tuple(
            (j, i, float(rng.uniform(0.1, 5.0)))
            for j in range(n)
            for i in range(n)
            if i != j and rng.random() < 0.4
        )
        g = WeightedDigraph(n, arcs)
        np.testing.assert_allclose(g.laplacian_matrix @ np.ones(n), 0.0, atol=1e-13)
    # integer weights stay exactly zero
    g = undirected(4, [(0, 1), (1, 2), (2, 3)], weight=2.0)
    assert np.all(g.laplacian_matrix @ np.ones(4) == 0.0)


def test_strong_connectivity():
    cycle = WeightedDigraph(3, ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)))
    assert is_strongly_connected(cycle)
    assert not is_strongly_connected(chain(3))
    assert is_strongly_connected(WeightedDigraph(1))


def test_graph_validation():
    with pytest.raises(InputError):
        WeightedDigraph(2, ((0, 0, 1.0),))  # self loop
    with pytest.raises(InputError):
        WeightedDigraph(2, ((0, 1, -1.0),))  # nonpositive weight
    with pytest.raises(InputError):
        WeightedDigraph(2, ((0, 3, 1.0),))  # out of range
    with pytest.raises(InputError):
        WeightedDigraph(2, ((0, 1, 1.0), (0, 1, 2.0)))  # duplicate arc


def test_signal_right_continuity_and_graph_at():
    sig = alternating_chains()
    assert switched_graph(sig, 0.0) == graph_id_at(sig, 0.0) == "fwd"
    # post-switch graph at the instant
    assert switched_graph(sig, 1.0) == graph_id_at(sig, 1.0) == "rev"
    assert switched_graph(sig, 2.0) == graph_id_at(sig, 2.0) == "fwd"
    assert switched_graph(sig, 0.999999) == graph_id_at(sig, 0.999999) == "fwd"
    assert sig.period == 2.0


def test_switch_times_skip_noop_boundaries():
    g = chain(3)
    sig = SwitchingSignal({"a": g}, (("a", 1.0), ("a", 1.0)), 1.0)
    assert sig.switch_times(5.0) == []
    assert not sig.has_switches()
    sig2 = alternating_chains()
    assert sig2.switch_times(4.0) == [(1.0, "rev"), (2.0, "fwd"), (3.0, "rev"), (4.0, "fwd")]


def test_switching_period_must_exceed_the_time_tolerance():
    lib = {"a": chain(2), "b": chain(2, reverse=True)}
    with pytest.raises(InputError, match="switching period 8e-10 must exceed 1e-09"):
        SwitchingSignal(lib, (("a", 4e-10), ("b", 4e-10)), 4e-10)
    # a fixed graph has no switch to resolve, however short its one segment
    assert not SwitchingSignal(lib, (("a", 4e-10),), 4e-10).has_switches()
    assert not SwitchingSignal(lib, (("a", 4e-10), ("a", 4e-10)), 4e-10).has_switches()


def test_dwell_floor_enforced():
    with pytest.raises(InputError):
        SwitchingSignal(
            {"a": chain(2), "b": chain(2, reverse=True)},
            (("a", 0.2), ("b", 1.0)),
            dwell_floor=0.5,
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_signal_rejects_non_finite_durations(bad):
    with pytest.raises(InputError, match="segment durations must be positive and finite"):
        SwitchingSignal({"a": chain(2)}, (("a", bad),), 1.0)
    with pytest.raises(InputError, match="segment durations must be positive and finite"):
        alternating_chains(seg=bad, dwell=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_signal_rejects_a_non_finite_dwell_floor(bad):
    with pytest.raises(InputError, match="dwell floor must be positive and finite"):
        SwitchingSignal({"a": chain(2)}, (("a", 1.0),), bad)
    with pytest.raises(InputError, match="dwell floor must be positive and finite"):
        alternating_chains(dwell=bad)


def test_joint_graph_fixed():
    sig = SwitchingSignal({"a": chain(3)}, (("a", 1.0),), 1.0)
    assert joint_graph(sig, 0.0, 10.0) == chain(3).arc_set


def test_joint_graph_union_over_two_segments():
    sig = alternating_chains()
    arcs = joint_graph(sig, 0.0, 2.0)
    assert arcs == chain(3).arc_set | chain(3, reverse=True).arc_set
    assert connected(3, arcs)


def test_joint_graph_first_segment_only():
    sig = alternating_chains()
    assert joint_graph(sig, 0.0, 0.5) == chain(3).arc_set


def test_joint_graph_window_additivity():
    sig = alternating_chains(seg=0.7)
    for t1, t2, t3 in [(0.0, 0.9, 2.3), (0.3, 1.4, 1.9), (1.0, 2.1, 4.0)]:
        whole = joint_graph(sig, t1, t3)
        split = joint_graph(sig, t1, t2) | joint_graph(sig, t2, t3)
        assert whole == split


def test_joint_graph_bad_window():
    with pytest.raises(InputError):
        joint_graph(alternating_chains(), 1.0, 1.0)


def test_certify_ujsc_fixed_graph():
    sig = SwitchingSignal({"a": ring_graph(4)}, (("a", 1.0),), 1.0)
    for T in (0.1, 1.0, 10.0):
        assert certify_ujsc(sig, T).passed


def test_certify_ujsc_alternating_chains():
    # union over any window of one full period is the bidirectional chain
    sig = alternating_chains(seg=1.0)
    assert certify_ujsc(sig, 2.0).passed
    # half-period windows see only one chain: certification must fail with a witness
    rep = certify_ujsc(sig, 0.5)
    assert not rep.passed
    assert rep.location is not None
    t, t2 = rep.location
    assert not connected(3, joint_graph(sig, t, t2))


def test_certify_ujsc_monotone_in_T():
    sig = alternating_chains(seg=1.0)
    results = [certify_ujsc(sig, T).passed for T in (0.5, 1.0, 2.0, 3.0, 5.0)]
    # once certification holds it must keep holding for larger windows
    assert results == sorted(results)
    assert results[-1]


def test_certify_ujsc_isolated_node_fails():
    ga = WeightedDigraph(3, ((0, 1, 1.0),))
    gb = WeightedDigraph(3, ((1, 0, 1.0),))
    sig = SwitchingSignal({"a": ga, "b": gb}, (("a", 1.0), ("b", 1.0)), 1.0)
    rep = certify_ujsc(sig, 2.0)
    assert not rep.passed and rep.location is not None


def test_certify_ujsc_reports_the_first_failing_window():
    sig = alternating_chains(seg=1.0)
    ok = certify_ujsc(sig, 2.0)
    assert (ok.check, ok.passed, ok.location) == ("ujsc", True, None)
    assert ok.params == {
        "T": 2.0, "T_min": 1.0, "detail": "every window's joint graph is strongly connected"
    }
    bad = certify_ujsc(sig, 0.5)
    assert (bad.check, bad.passed, bad.location) == ("ujsc", False, [0.0, 0.5])
    assert bad.params == {
        "T": 0.5, "T_min": 1.0, "detail": "joint graph over [0, 0.5) is not strongly connected"
    }
    fixed = certify_ujsc(SwitchingSignal({"a": chain(3)}, (("a", 1.0),), 1.0), 0.5)
    assert (fixed.passed, fixed.location) == (False, [0.0, 0.5])
    assert fixed.params == {
        "T": 0.5, "T_min": math.inf, "detail": "joint graph over [0, 0.5) is not strongly connected"
    }


def test_lambda2_two_node():
    assert lambda2(undirected(2, [(0, 1)])) == pytest.approx(2.0, abs=1e-10)


def test_lambda2_complete_graph():
    # complete-graph Laplacian spectrum is {0, N, ..., N}
    g = complete_graph(4)
    assert lambda2(g) == pytest.approx(4.0, abs=1e-9)
    np.testing.assert_allclose(np.linalg.eigvalsh(g.laplacian_matrix), [0.0, 4.0, 4.0, 4.0], atol=1e-9)


def test_lambda2_path_graph():
    # path 0-1-2 spectrum is {0, 1, 3}
    assert lambda2(path_graph(3)) == pytest.approx(1.0, abs=1e-9)


def test_lambda2_preconditions():
    with pytest.raises(InputError, match="symmetric"):
        lambda2(chain(3))  # asymmetric
    with pytest.raises(InputError, match="connected"):
        lambda2(undirected(4, [(0, 1), (2, 3)]))  # disconnected


def test_require_undirected_names_the_rule_a_graph_breaks():
    split = undirected(4, [(0, 1), (2, 3)])
    with pytest.raises(InputError) as err:
        graphs.require_undirected(chain(3), "op")
    assert str(err.value) == "op requires a symmetric graph"
    with pytest.raises(InputError) as err:
        graphs.require_undirected(split, "op")
    assert str(err.value) == "op requires a connected graph"
    graphs.require_undirected(split, "op", connected=False)


def test_lambda2_positive_iff_connected():
    connected = ring_graph(5)
    assert lambda2(connected) > 0
    eig = np.linalg.eigvalsh(undirected(4, [(0, 1), (2, 3)]).laplacian_matrix)
    assert eig[1] == pytest.approx(0.0, abs=1e-10)


CLOSED_FORM_LAMBDA2 = {
    # path P_n: 2 - 2 cos(pi / n)
    **{f"path{n}": (path_graph(n), 2.0 - 2.0 * math.cos(math.pi / n)) for n in (2, 5, 60)},
    # ring C_n: 2 - 2 cos(2 pi / n)
    **{f"ring{n}": (ring_graph(n), 2.0 - 2.0 * math.cos(2.0 * math.pi / n)) for n in (3, 60, 120)},
    # complete K_n: n
    **{f"complete{n}": (complete_graph(n), float(n)) for n in (2, 7, 30)},
}


@pytest.mark.parametrize("name", CLOSED_FORM_LAMBDA2)
def test_lambda2_closed_form_spectra(name):
    graph, expected = CLOSED_FORM_LAMBDA2[name]
    assert lambda2(graph) == pytest.approx(expected, rel=1e-12, abs=1e-13)


@st.composite
def undirected_weighted_graphs(draw):
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    arcs = []
    for i, j in edges:
        w = draw(st.floats(0.1, 10.0))
        arcs += [(i, j, w), (j, i, w)]
    return WeightedDigraph(n, tuple(arcs))


@settings(max_examples=200, deadline=None)
@given(undirected_weighted_graphs())
def test_laplacian_spectrum_psd_and_lambda2_positive_iff_connected(g):
    eig = np.linalg.eigvalsh(g.laplacian_matrix)
    assert eig.min() >= -1e-10
    connected = is_strongly_connected(g)
    assert (eig[1] > 1e-10) == connected
    if connected:
        assert lambda2(g) == eig[1]
    else:
        with pytest.raises(InputError, match="connected"):
            lambda2(g)


def test_lambda2_rejects_unequal_pair_weights():
    # strongly connected, but eigvalsh would read only one triangle of L
    with pytest.raises(InputError, match="symmetric"):
        lambda2(WeightedDigraph(2, ((0, 1, 1.0), (1, 0, 2.0))))


def test_laplacian_is_read_only():
    g = undirected(3, [(0, 1), (1, 2)])
    lap = g.laplacian_matrix
    with pytest.raises(ValueError):
        lap[0, 0] = 99.0


# -- signals are segment cycles: the former scan and walk code as the oracle --

_TOL = 1e-9


def former_ends(segs):
    out, acc = [], 0.0
    for _, dur in segs:
        acc += dur
        out.append(acc)
    return out


def former_switch_times(segs, t0, t1):
    ids = [g for g, _ in segs]
    ends = former_ends(segs)
    changing = [end for idx, end in enumerate(ends) if ids[idx] != ids[(idx + 1) % len(ids)]]
    if t1 <= t0 or not changing:
        return []
    period = sum(d for _, d in segs)
    out = []
    k = max(0, math.floor(t0 / period) - 1)
    while k * period <= t1 + _TOL:
        for c in changing:
            t = k * period + c
            if t0 + _TOL < t <= t1 + _TOL:
                out.append(min(t, t1))
        k += 1
    return out


def former_joint_ids(sig, t1, t2):
    segs = sig.segments
    period = sum(d for _, d in segs)
    if t2 - t1 >= period - _TOL:
        return {g for g, _ in segs}
    ids, t = set(), t1
    while t < t2 - _TOL:
        ids.add(graph_id_at(sig, t))
        tau = t - math.floor(t / period) * period
        t = t - tau + next((end for end in former_ends(segs) if end > tau + _TOL), period)
    return ids


# one distinct arc per graph id, so a joint graph's arcs name the ids it saw
CYCLE_LIBRARY = {g: WeightedDigraph(4, ((k, (k + 1) % 4, 1.0),)) for k, g in enumerate("abcd")}


@st.composite
def cycles_and_times(draw):
    n = draw(st.integers(1, 4))
    ids = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    duration = st.sampled_from([0.5, 0.7, 1.0, 1.3]) | st.floats(0.5, 2.0)
    durs = draw(st.lists(duration, min_size=n, max_size=n))
    segs = tuple(zip(ids, durs))
    period = sum(durs)
    # exact segment boundaries over three periods, as the signal computes them, and free times
    bounds = [0.0] + [k * period + e for k in range(3) for e in former_ends(segs)]
    time = st.sampled_from(bounds) | st.floats(0.0, 3.0 * period)
    return segs, sorted(draw(st.lists(time, min_size=2, max_size=2)))


@settings(max_examples=400, deadline=None)
@given(cycles_and_times())
def test_segment_cycle_matches_the_former_scan_and_walk(case):
    segs, (t1, t2) = case
    sig = SwitchingSignal(CYCLE_LIBRARY, segs, dwell_floor=0.5)
    for t in (t1, t2):
        assert switched_graph(sig, t) == graph_id_at(sig, t)
    switches = [(t, g) for t, g in sig.switch_times(t2) if t > t1 + _TOL]
    assert [t for t, _ in switches] == former_switch_times(segs, t1, t2)
    # each switch names the graph from its instant on
    assert all(g == graph_id_at(sig, t) for t, g in switches)
    period = sum(d for _, d in segs)
    assert sig.has_switches() == bool(former_switch_times(segs, 0.0, 2.0 * period))
    if t2 - t1 > _TOL:
        arcs = {a for g in former_joint_ids(sig, t1, t2) for a in CYCLE_LIBRARY[g].arc_set}
        assert joint_graph(sig, t1, t2) == arcs
    elif t1 < t2:  # the former walk saw no graph in a window within the time tolerance
        assert joint_graph(sig, t1, t2) == CYCLE_LIBRARY[graph_id_at(sig, t1)].arc_set


@given(st.sampled_from("abc"), st.floats(0.5, 2.0), st.floats(0.0, 50.0), st.floats(0.0, 50.0))
def test_one_segment_cycle_is_the_former_fixed_graph(gid, dwell, t1, t2):
    sig = SwitchingSignal(CYCLE_LIBRARY, ((gid, dwell),), dwell)
    assert switched_graph(sig, t1) == graph_id_at(sig, t1) == gid
    assert sig.switch_times(t2) == [] and not sig.has_switches()
    if t1 < t2:
        assert joint_graph(sig, t1, t2) == CYCLE_LIBRARY[gid].arc_set


def test_joint_graph_agrees_with_certify_ujsc_just_past_T_min():
    # the four graphs of a directed 4-ring, 1 s each: T_min = 3
    sig = SwitchingSignal(CYCLE_LIBRARY, tuple((g, 1.0) for g in "abcd"), 1.0)
    T = 3.0 + 1.5 * _TOL
    assert certify_ujsc(sig, T).passed
    assert connected(4, joint_graph(sig, 1.0 - 0.5 * _TOL, 4.0 + _TOL))
    # every start up to the time tolerance before a segment start sees all four graphs
    starts = [s - f * _TOL for s in (1.0, 2.0, 3.0, 4.0) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(connected(4, joint_graph(sig, t, t + T)) for t in starts)
    assert not certify_ujsc(sig, 3.0).passed
    assert not all(connected(4, joint_graph(sig, t, t + 3.0)) for t in starts)


@st.composite
def cycles_and_window_lengths(draw):
    """A cycle that names each of the four CYCLE_LIBRARY graphs, which are jointly a directed
    4-ring, and a window length T.  T is often a sum of consecutive durations, so that window
    ends hit switches; shorter windows miss a graph and fail, longer ones see all four."""
    extra = draw(st.lists(st.sampled_from("abcd"), max_size=3))
    ids = draw(st.permutations(list("abcd") + extra))
    n = len(ids)
    duration = st.sampled_from([0.5, 0.7, 1.0, 1.3]) | st.floats(0.5, 2.0)
    durs = draw(st.lists(duration, min_size=n, max_size=n))
    # durations of 1 to n - 1 consecutive segments, wrapping around the cycle
    sums = [sum((durs + durs)[i : i + length]) for i in range(n) for length in range(1, n)]
    T = draw(st.sampled_from(sums) | st.floats(0.05, 1.5 * sum(durs)))
    return tuple(zip(ids, durs)), T


@settings(max_examples=200, deadline=None)
@given(cycles_and_window_lengths())
def test_certify_ujsc_agrees_with_a_brute_force_scan(case):
    segs, T = case
    sig = SwitchingSignal(CYCLE_LIBRARY, segs, dwell_floor=0.5)
    ends = former_ends(segs)
    period = ends[-1]
    # every breakpoint of the window start, and a dense grid over one period
    starts = {0.0} | {e % period for e in ends} | {(e - T) % period for e in ends}
    starts = sorted(starts | {period * k / 200 for k in range(200)})
    fails = [not connected(4, joint_graph(sig, t, t + T)) for t in starts]
    rep = certify_ujsc(sig, T)
    assert (rep.check, rep.params["T"]) == ("ujsc", T)
    assert rep.passed == (not any(fails))
    if not rep.passed:
        t, t_end = rep.location
        assert t_end == t + T and not connected(4, joint_graph(sig, t, t_end))
        # the witness lies in the first run of failing starts: none passes between it and
        # the earliest failing start of the scan
        first = starts[fails.index(True)]
        lo, hi = min(t, first), max(t, first)
        assert all(f for s, f in zip(starts, fails) if lo <= s <= hi)


@settings(max_examples=200, deadline=None)
@given(cycles_and_window_lengths(), st.sampled_from("abcd"))
def test_certify_ujsc_fails_at_T_min_and_passes_just_beyond_it(case, dropped):
    segs, T = case
    sig = SwitchingSignal(CYCLE_LIBRARY, segs, dwell_floor=0.5)
    t_min = certify_ujsc(sig, T).params["T_min"]
    # no graph of the library is strongly connected alone, and one period sees all four
    assert 0 < t_min < sig.period
    assert not certify_ujsc(sig, t_min).passed
    assert certify_ujsc(sig, t_min + 2 * graphs._TIME_TOL).passed
    # without one of the four graphs no window's joint graph is strongly connected
    rest = SwitchingSignal(CYCLE_LIBRARY, tuple(s for s in segs if s[0] != dropped), 0.5)
    for window in (T, t_min + 2 * graphs._TIME_TOL, sig.period, 10.0 * sig.period):
        rep = certify_ujsc(rest, window)
        assert rep.params["T_min"] == math.inf and not rep.passed


@settings(max_examples=200, deadline=None)
@given(cycles_and_window_lengths(), st.floats(0.0, 1.0))
def test_joint_graph_just_before_segment_starts_agrees_with_certify_ujsc(case, frac):
    segs, _ = case
    sig = SwitchingSignal(CYCLE_LIBRARY, segs, dwell_floor=0.5)
    t_min = certify_ujsc(sig, 1.0).params["T_min"]
    # each segment start (the period's end for the first) and a start up to _TOL before it
    ends = former_ends(segs)
    starts = ends + [e - frac * _TOL for e in ends]
    for T, passes in ((t_min, False), (t_min + 1.5 * _TOL, True)):
        assert certify_ujsc(sig, T).passed == passes
        assert all(connected(4, joint_graph(sig, t, t + T)) for t in starts) == passes
