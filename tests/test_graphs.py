import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncflow import (
    FixedSchedule,
    InputError,
    PeriodicSchedule,
    PreconditionError,
    SwitchingSignal,
    WeightedDigraph,
    certify_ujsc,
    is_strongly_connected,
    joint_graph,
    lambda2,
)
from syncflow import graphs
from util import complete_graph, path_graph, ring_graph, undirected


def chain(n, reverse=False):
    if reverse:
        return WeightedDigraph(n, tuple((i + 1, i, 1.0) for i in range(n - 1)))
    return WeightedDigraph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def alternating_chains(n=3, seg=1.0, dwell=None):
    return SwitchingSignal(
        {"fwd": chain(n), "rev": chain(n, reverse=True)},
        PeriodicSchedule((("fwd", seg), ("rev", seg))),
        dwell_floor=dwell or seg,
    )


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
    assert sig.graph_id_at(0.0) == "fwd"
    assert sig.graph_id_at(1.0) == "rev"  # post-switch graph at the instant
    assert sig.graph_id_at(2.0) == "fwd"
    assert sig.graph_id_at(0.999999) == "fwd"
    assert sig.period == 2.0


def test_switch_times_skip_noop_boundaries():
    g = chain(3)
    sig = SwitchingSignal({"a": g}, PeriodicSchedule((("a", 1.0), ("a", 1.0))), 1.0)
    assert sig.switch_times(0.0, 5.0) == []
    assert not sig.has_switches()
    sig2 = alternating_chains()
    assert sig2.switch_times(0.0, 4.0) == [1.0, 2.0, 3.0, 4.0]


def test_dwell_floor_enforced():
    with pytest.raises(InputError):
        SwitchingSignal(
            {"a": chain(2), "b": chain(2, reverse=True)},
            PeriodicSchedule((("a", 0.2), ("b", 1.0))),
            dwell_floor=0.5,
        )


def test_joint_graph_fixed():
    sig = SwitchingSignal({"a": chain(3)}, FixedSchedule("a"), 1.0)
    jg = joint_graph(sig, 0.0, 10.0)
    assert jg.union_arcs == chain(3).arc_set


def test_joint_graph_union_over_two_segments():
    sig = alternating_chains()
    jg = joint_graph(sig, 0.0, 2.0)
    assert jg.union_arcs == chain(3).arc_set | chain(3, reverse=True).arc_set
    assert jg.is_strongly_connected()


def test_joint_graph_first_segment_only():
    sig = alternating_chains()
    jg = joint_graph(sig, 0.0, 0.5)
    assert jg.union_arcs == chain(3).arc_set


def test_joint_graph_window_additivity():
    sig = alternating_chains(seg=0.7)
    for t1, t2, t3 in [(0.0, 0.9, 2.3), (0.3, 1.4, 1.9), (1.0, 2.1, 4.0)]:
        whole = joint_graph(sig, t1, t3).union_arcs
        split = joint_graph(sig, t1, t2).union_arcs | joint_graph(sig, t2, t3).union_arcs
        assert whole == split


def test_joint_graph_bad_window():
    with pytest.raises(InputError):
        joint_graph(alternating_chains(), 1.0, 1.0)


def test_certify_ujsc_fixed_graph():
    sig = SwitchingSignal({"a": ring_graph(4)}, FixedSchedule("a"), 1.0)
    for T in (0.1, 1.0, 10.0):
        assert certify_ujsc(sig, T, horizon=T + 1.0).ok


def test_certify_ujsc_alternating_chains():
    # union over any window of one full period is the bidirectional chain
    sig = alternating_chains(seg=1.0)
    cert = certify_ujsc(sig, 2.0, horizon=4.0)
    assert cert.ok
    # half-period windows see only one chain: certification must fail with a witness
    cert2 = certify_ujsc(sig, 0.5, horizon=4.0)
    assert not cert2.ok
    assert cert2.window is not None
    t, t2 = cert2.window
    assert not joint_graph(sig, t, t2).is_strongly_connected()


def test_certify_ujsc_monotone_in_T():
    sig = alternating_chains(seg=1.0)
    results = [certify_ujsc(sig, T, horizon=2.0 + T).ok for T in (0.5, 1.0, 2.0, 3.0, 5.0)]
    # once certification holds it must keep holding for larger windows
    assert results == sorted(results)
    assert results[-1]


def test_certify_ujsc_isolated_node_fails():
    ga = WeightedDigraph(3, ((0, 1, 1.0),))
    gb = WeightedDigraph(3, ((1, 0, 1.0),))
    sig = SwitchingSignal({"a": ga, "b": gb}, PeriodicSchedule((("a", 1.0), ("b", 1.0))), 1.0)
    cert = certify_ujsc(sig, 2.0, horizon=4.0)
    assert not cert.ok and cert.window is not None


def test_check_ujsc_reports_the_certificate_over_one_period_plus_T():
    sig = alternating_chains(seg=1.0)
    ok = graphs.check_ujsc(sig, 2.0)
    assert (ok.check, ok.passed, ok.location) == ("ujsc", True, None)
    assert ok.params == {"T": 2.0, "detail": certify_ujsc(sig, 2.0, horizon=4.0).detail}
    bad = graphs.check_ujsc(sig, 0.5)
    assert not bad.passed
    assert bad.location == list(certify_ujsc(sig, 0.5, horizon=2.5).window)


def test_certify_ujsc_horizon_precondition():
    with pytest.raises(PreconditionError):
        certify_ujsc(alternating_chains(), 2.0, horizon=1.0)


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
    with pytest.raises(PreconditionError):
        lambda2(chain(3))  # asymmetric
    with pytest.raises(PreconditionError):
        lambda2(undirected(4, [(0, 1), (2, 3)]))  # disconnected


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
        with pytest.raises(PreconditionError):
            lambda2(g)


def test_lambda2_rejects_unequal_pair_weights():
    # strongly connected, but eigvalsh would read only one triangle of L
    with pytest.raises(PreconditionError, match="symmetric"):
        lambda2(WeightedDigraph(2, ((0, 1, 1.0), (1, 0, 2.0))))


def test_laplacian_is_read_only():
    g = undirected(3, [(0, 1), (1, 2)])
    lap = g.laplacian_matrix
    with pytest.raises(ValueError):
        lap[0, 0] = 99.0
