import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import syncflow.convex_geometry as cg
from syncflow import (
    Box,
    FlatBottom1D,
    Hull,
    InputError,
    NumericalError,
    Quadratic,
    QuarticWell,
    SumPotential,
    check_drift_alignment,
    intersect,
    zero_set_hull,
)
from util import (
    _affine_weight_minimizer,
    extreme_points_oracle,
    hull_projection_oracle,
    polygon_depth_oracle,
)


def random_bodies(rng, kind, m):
    if kind == "point":
        p = rng.uniform(-10, 10, m)
        return Box(p, p)
    if kind == "interval":
        a, b = sorted(rng.uniform(-10, 10, 2))
        return Box(a, b)
    if kind == "box":
        lo = rng.uniform(-10, 0, m)
        return Box(lo, lo + rng.uniform(0, 10, m))
    k = int(rng.integers(1, 7))
    return Hull(rng.uniform(-10, 10, (k, m)))


def random_member(rng, body):
    verts = body.extreme_points()
    w = rng.uniform(0, 1, verts.shape[0])
    w /= w.sum()
    return w @ verts


def test_interval_clamp():
    assert Box(0, 1).project([2.0])[0] == 1.0
    assert Box(0, 1).distance([3.0]) == 2.0


def test_point_inside_body_is_fixed():
    body = Box([0.0, 0.0], [2.0, 2.0])
    x = np.array([1.0, 0.5])
    np.testing.assert_array_equal(body.project(x), x)
    assert body.distance(x) == 0.0


def test_hull_triangle_projection():
    tri = Hull([[0, 0], [1, 0], [0, 1]])
    np.testing.assert_allclose(tri.project([1.0, 1.0]), [0.5, 0.5], atol=1e-12)
    assert tri.distance([1.0, 1.0]) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)


def test_hull_single_vertex():
    h = Hull([[1.0, 2.0]])
    np.testing.assert_allclose(h.project([5.0, 5.0]), [1.0, 2.0])


def test_projection_dimension_mismatch():
    with pytest.raises(InputError):
        Box([0.0, 0.0], [1.0, 1.0]).project([1.0])


@pytest.mark.parametrize("kind", ["point", "interval", "box", "hull"])
def test_projection_suite_randomized(kind):
    # nonexpansiveness, variational inequality, idempotence per body kind
    rng = np.random.default_rng(hash(kind) % 2**32)
    for _ in range(200):
        m = 1 if kind == "interval" else int(rng.integers(1, 4))
        body = random_bodies(rng, kind, m)
        x = rng.uniform(-15, 15, m)
        y = rng.uniform(-15, 15, m)
        px, py = body.project(x), body.project(y)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-10
        member = random_member(rng, body)
        assert float((px - x) @ (px - member)) <= 1e-10
        np.testing.assert_array_equal(body.project(px), px)


def test_distance_squared_gradient_matches_projection_residual():
    # grad |x|_K^2 = 2 (x - P(x)) via central differences
    rng = np.random.default_rng(5)
    bodies = [
        Box(-1.0, 2.0),
        Box([-1.0, 0.0], [1.0, 1.0]),
        Hull(rng.uniform(-2, 2, (5, 2))),
    ]
    h = 1e-6
    for body in bodies:
        m = body.dimension
        for _ in range(20):
            x = rng.uniform(-4, 4, m)
            expected = 2.0 * (x - body.project(x))
            fd = np.empty(m)
            for k in range(m):
                e = np.zeros(m)
                e[k] = h
                fd[k] = (body.distance(x + e) ** 2 - body.distance(x - e) ** 2) / (2 * h)
            np.testing.assert_allclose(fd, expected, atol=1e-5)


def test_zero_set_hull_1d():
    body = zero_set_hull([Quadratic(center=[1.0]), Quadratic(center=[3.0])])
    assert isinstance(body, Box) and body.dimension == 1  # an interval
    assert (body.lo.tolist(), body.hi.tolist()) == ([1.0], [3.0])

    body = zero_set_hull([FlatBottom1D(0.0, 1.0), FlatBottom1D(2.0, 5.0)])
    assert (body.lo.tolist(), body.hi.tolist()) == ([0.0], [5.0])

    body = zero_set_hull([Quadratic(center=[2.0]), QuarticWell(center=[2.0])])
    assert isinstance(body, Box) and np.array_equal(body.lo, body.hi)  # a point
    np.testing.assert_array_equal(body.lo, [2.0])


def test_zero_set_hull_multidim_hull_of_corners():
    body = zero_set_hull([Quadratic(center=[0.0, 0.0]), Quadratic(center=[1.0, 2.0])])
    assert isinstance(body, Hull)
    assert body.vertices.shape == (2, 2)


def test_check_drift_alignment_1d_catalog_passes():
    pots = [
        Quadratic(center=[-1.0], weight=2.0),
        QuarticWell(center=[1.5]),
        FlatBottom1D(0.0, 1.0),
    ]
    grid = [[x] for x in np.linspace(-10, 10, 101)]
    assert check_drift_alignment(pots, grid).passed


def test_check_drift_alignment_shared_center_any_dimension():
    pots = [Quadratic(center=[0.5, -0.5], weight=w) for w in (1.0, 3.0)]
    rng = np.random.default_rng(2)
    assert check_drift_alignment(pots, rng.uniform(-5, 5, (64, 2))).passed


def test_check_drift_alignment_sample_inside_hull_contributes_zero():
    pots = [Quadratic(center=[0.0]), Quadratic(center=[2.0])]
    rep = check_drift_alignment(pots, [[1.0]])
    assert rep.passed and rep.worst_value == 0.0


def distance_comparison_reference(body, pairs):
    """(worst, location, part-(ii) count) of the distance-comparison lemma's two inequalities
    over point pairs, by the pair-by-pair scan, first maximum kept.

    Part (i) is checked on every pair; part (ii) only on pairs where the first
    point is strictly farther from the body than the second.
    """
    worst, where, n_ii = -np.inf, None, 0
    for idx, (xa, xb) in enumerate(pairs):
        xa, xb = np.atleast_1d(np.asarray(xa, float)), np.atleast_1d(np.asarray(xb, float))
        pa, pb = body.project(xa), body.project(xb)
        da, db = float(np.linalg.norm(xa - pa)), float(np.linalg.norm(xb - pb))
        lhs = float(np.dot(xa - pa, xb - xa))
        if lhs - da * abs(da - db) > worst:
            worst, where = lhs - da * abs(da - db), {"pair": idx, "part": "i"}
        if da > db:
            n_ii += 1
            if lhs + da * (da - db) > worst:
                worst, where = lhs + da * (da - db), {"pair": idx, "part": "ii"}
    return worst, where, n_ii


def test_check_distance_comparison_hand_case():
    # interval [0,1], x_a=2, x_b=0.5: lhs=-1.5, (i) bound 1, (ii) bound -1
    body = Box(0.0, 1.0)
    pa = body.project([2.0])
    lhs = float((np.array([2.0]) - pa) @ (np.array([0.5]) - np.array([2.0])))
    assert lhs == pytest.approx(-1.5)
    # the worst of lhs - 1 and lhs + 1 is part (ii)'s, -0.5
    assert distance_comparison_reference(body, [([2.0], [0.5])]) == (-0.5, {"pair": 0, "part": "ii"}, 1)


def test_check_distance_comparison_member_pair_trivial():
    body = Box(0.0, 1.0)
    assert distance_comparison_reference(body, [([0.5], [0.9])])[0] <= 1e-10


def test_check_distance_comparison_randomized_hull():
    rng = np.random.default_rng(7)
    tri = Hull([[0, 0], [1, 0], [0, 1]])
    pairs = [(rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)) for _ in range(1000)]
    assert distance_comparison_reference(tri, pairs)[0] <= 1e-10


@pytest.mark.parametrize(
    "kind,m",
    [(kind, m) for kind in ("point", "interval", "box", "hull") for m in (1, 2, 3)
     if kind != "interval" or m == 1],
)
def test_distance_comparison_holds_on_every_body_kind(kind, m):
    rng = np.random.default_rng(100 * m + len(kind))
    for _ in range(20):
        body = random_bodies(rng, kind, m)
        # members, points outside, and a few pairs that repeat a point
        pairs = [(rng.uniform(-12, 12, m), rng.uniform(-12, 12, m)) for _ in range(40)]
        pairs += [(random_member(rng, body), rng.uniform(-12, 12, m)), (pairs[0][1], pairs[0][1])]
        assert distance_comparison_reference(body, pairs)[0] <= 1e-10


def test_non_finite_point_is_an_input_error():
    with pytest.raises(InputError, match="box corners must be finite"):
        Box([np.nan], [np.nan])
    with pytest.raises(InputError, match="box corners must be finite"):
        Box([0.0, np.inf], [0.0, np.inf])


def test_intersect():
    assert intersect([Box(0, 1), Box(2, 5)]) is None
    got = intersect([Box(0, 2), Box(1, 5)])
    assert isinstance(got, Box) and (got.lo.tolist(), got.hi.tolist()) == ([1.0], [2.0])
    pt = intersect([Box([1.0], [1.0]), Box(0, 2)])
    assert isinstance(pt, Box) and (pt.lo.tolist(), pt.hi.tolist()) == ([1.0], [1.0])  # a point
    box = intersect([Box([0, 0], [2, 2]), Box([1, -1], [3, 1])])
    np.testing.assert_array_equal(box.lo, [1, 0])
    np.testing.assert_array_equal(box.hi, [2, 1])


@pytest.mark.parametrize("big", [1.7e308, -1.7e308])
def test_midpoints_near_the_largest_floats_stay_finite(big):
    # half of each end, then the sum: adding the ends first overflows
    assert Box([big], [big]).center().tolist() == [big]
    assert Box(*sorted([[0.5 * big], [big]])).center().tolist() == [0.75 * big]
    got = intersect([Box([big], [big]), Box([min(0.0, big)], [max(0.0, big)])])
    assert (got.lo.tolist(), got.hi.tolist()) == ([big], [big])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    st.lists(st.floats(-5, 5), min_size=2, max_size=2),
)
def test_hull_projection_beats_all_vertices(x, y):
    # the projection is at least as close as every vertex and every midpoint
    verts = np.array([x, y, [0.0, 0.0]])
    h = Hull(verts)
    q = np.array([7.0, -3.0])
    d = h.distance(q)
    for v in verts:
        assert d <= np.linalg.norm(q - v) + 1e-9
    for a in (0.25, 0.5, 0.75):
        assert d <= np.linalg.norm(q - (a * verts[0] + (1 - a) * verts[1])) + 1e-9


def test_invalid_bodies():
    with pytest.raises(InputError):
        Box(2.0, 1.0)
    with pytest.raises(InputError):
        Box([0.0, 2.0], [1.0, 1.0])
    with pytest.raises(InputError):
        Hull(np.zeros((0, 2)))


def test_report_json_schema():
    rep = check_drift_alignment([Quadratic(center=[0.0]), Quadratic(center=[1.0])], [[2.0]])
    d = rep.as_dict()
    assert set(d) == {"check", "pass", "worst_value", "location", "params"}
    assert json.loads(json.dumps(d)) == d


def drift_alignment_reference(potentials, samples):
    """(worst, location) by the sample x node scan, first maximum kept."""
    body = zero_set_hull(potentials)
    worst, where = -np.inf, None
    for si, x in enumerate(samples):
        gap = x - body.project(x)
        for ni, p in enumerate(potentials):
            val = float(np.dot(gap, -p.gradient(x)))
            if val > worst:
                worst, where = val, {"node": ni, "sample_index": si, "sample": x.tolist()}
    return worst, where


def random_catalog(rng, m, n):
    out = []
    for _ in range(n):
        kind = int(rng.integers(0, 4 if m == 1 else 3))
        c = rng.uniform(-3, 3, m)
        if kind == 0:
            out.append(Quadratic(center=c, weight=float(rng.uniform(0.5, 3))))
        elif kind == 1:
            out.append(QuarticWell(center=c))
        elif kind == 2:
            out.append(SumPotential((Quadratic(center=c), QuarticWell(center=-c))))
        else:
            out.append(FlatBottom1D(*sorted(rng.uniform(-3, 3, 2))))
    return out


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_check_drift_alignment_matches_sample_node_scan(m, seed):
    rng = np.random.default_rng([seed, m])
    pots = random_catalog(rng, m, int(rng.integers(2, 7)))
    body = zero_set_hull(pots)
    inside = [random_member(rng, body) for _ in range(5)]
    samples = np.vstack([rng.uniform(-6, 6, (40, m)), inside])
    rep = check_drift_alignment(pots, samples)
    worst, where = drift_alignment_reference(pots, samples)
    assert rep.location == where
    if m == 1:
        assert rep.worst_value == worst
    else:
        assert rep.worst_value == pytest.approx(worst, rel=1e-12, abs=0.0)


def test_check_drift_alignment_reports_first_maximum_in_sample_major_order():
    # mirror-image nodes and samples tie the maximum -4 at (sample 0, node 1)
    # and (sample 1, node 0); the scan over samples meets the first one first
    pots = [Quadratic(center=[-1.0]), Quadratic(center=[1.0])]
    rep = check_drift_alignment(pots, [[3.0], [-3.0]])
    assert rep.worst_value == -4.0
    assert rep.location == {"node": 1, "sample_index": 0, "sample": [3.0]}


# -- stacked projection ------------------------------------------------------

LEADING_AXES = [(), (1,), (5,), (2, 3)]


@st.composite
def hull_and_queries(draw):
    """A hull on a small integer grid plus a stack of query rows.

    Grid vertices make duplicate and collinear vertices common.  Each row is a
    free point, a vertex, a point on the segment between two vertices, or a
    convex combination of all vertices; all but free points are members.
    """
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 8))
    coord = st.integers(-3, 3).map(float)
    verts = np.array(draw(st.lists(st.lists(coord, min_size=m, max_size=m), min_size=k, max_size=k)))
    lead = draw(st.sampled_from(LEADING_AXES))
    unit = st.floats(0.0, 1.0)
    rows, members = [], []
    for _ in range(int(np.prod(lead, dtype=int))):
        kind = draw(st.sampled_from(["free", "vertex", "edge", "interior"]))
        if kind == "free":
            rows.append(draw(st.lists(st.floats(-6.0, 6.0), min_size=m, max_size=m)))
        elif kind == "vertex":
            rows.append(verts[draw(st.integers(0, k - 1))])
        elif kind == "edge":
            a, b, t = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1)), draw(unit)
            rows.append((1.0 - t) * verts[a] + t * verts[b])
        else:
            w = np.array(draw(st.lists(unit, min_size=k, max_size=k))) + 1e-3
            rows.append(w / w.sum() @ verts)
        members.append(kind != "free")
    x = np.array(rows, dtype=float).reshape(lead + (m,))
    return verts, x, np.array(members).reshape(lead)


@settings(max_examples=300, deadline=None)
@given(hull_and_queries())
# a subnormal member row: shrinking it by the batch's power of two shifted its last bit out
@example((np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.0, 5e-324]), np.array(True)))
# a tiny row scaled with its batch's largest row got an absolute member tolerance and came
# back unchanged; alone it was scaled on its own and certified to the vertex
@example((np.array([[0.0]]), np.array([[0.0], [0.0], [0.0], [1.0], [1.068e-209]]),
          np.array([False] * 5)))
@example((np.array([[0.0]]), np.array([[0.0], [0.0], [0.0], [1.0], [2.087e-263]]),
          np.array([False] * 5)))
def test_stacked_hull_projection_rows_are_certified_oracle_solutions(case):
    verts, x, members = case
    hull = Hull(verts)
    got = hull.project(x)
    assert got.shape == x.shape
    for idx in np.ndindex(x.shape[:-1]):
        row, p = x[idx], got[idx]
        # in units of the row's power of two, which puts scale in [0.5, 1) as the solver does,
        # so neither check underflows for a tiny row
        scale, e = np.frexp(max(np.max(np.abs(verts)), np.max(np.abs(row))))
        v, r, q = (np.ldexp(a, -e) for a in (verts, row, p))
        # the variational inequality at every vertex, with the solver's own tolerance
        assert np.all((v - q) @ (q - r) >= -5e-13 * scale * scale)
        oracle = np.ldexp(hull_projection_oracle(verts, row), -e)
        assert np.linalg.norm(q - oracle) <= 1e-12 * scale
        if members[idx]:
            assert np.array_equal(p, row)
        assert np.array_equal(hull.project(row), p)


@st.composite
def plane_clouds(draw):
    """A 2-D cloud whose float hull is easy to get wrong, plus query rows.

    Grid points give duplicates, points at quarter steps along the line of
    two cloud points give collinear runs, and 1-ulp nudges make points that
    are almost, but not exactly, on an edge.  A power-of-two scale keeps all
    of it exact.  Rows are free points, cloud points, points between two cloud
    points and convex combinations of the whole cloud.
    """
    coord = st.integers(-4, 4).map(float)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=9))
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        t = draw(st.sampled_from([-0.5, 0.25, 0.5, 0.75, 1.5]))
        pts.append(((1.0 - t) * a[0] + t * b[0], (1.0 - t) * a[1] + t * b[1]))
    for _ in range(draw(st.integers(0, 4))):
        p = list(draw(st.sampled_from(pts)))
        k = draw(st.integers(0, 1))
        p[k] = float(np.nextafter(p[k], draw(st.sampled_from([-np.inf, np.inf]))))
        pts.append(tuple(p))
    pts = np.array(pts) * 2.0 ** draw(st.integers(-30, 30))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["free", "point", "between", "interior"]))
        if kind == "free":
            scale = float(np.max(np.abs(pts))) + 1.0
            rows.append([draw(st.floats(-2.0, 2.0)) * scale for _ in range(2)])
        elif kind == "point":
            rows.append(pts[draw(st.integers(0, len(pts) - 1))])
        elif kind == "between":
            i, j = draw(st.integers(0, len(pts) - 1)), draw(st.integers(0, len(pts) - 1))
            t = draw(st.floats(0.0, 1.0))
            rows.append((1.0 - t) * pts[i] + t * pts[j])
        else:
            unit = st.floats(0.0, 1.0)
            w = np.array(draw(st.lists(unit, min_size=len(pts), max_size=len(pts)))) + 1e-3
            rows.append(w / w.sum() @ pts)
    return pts, np.array(rows, dtype=float)


@settings(max_examples=300, deadline=None)
@given(plane_clouds())
@example((np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0]]),
          np.array([[1.0, 1.0], [3.0, 0.0]])))
@example((np.array([[0.0, 0.0], [np.nextafter(0.5, 1.0), 0.5], [1.0, 1.0], [1.0, 0.0]]),
          np.array([[0.5, 0.5], [0.75, 0.25], [0.0, 1.0]])))
# the float determinant calls (12, 12) a right turn; exactly it is a left turn, a corner
@example((np.array([[0.5 + 41 * 2.0**-53, 0.5 + 48 * 2.0**-53], [12.0, 12.0], [24.0, 24.0]]),
          np.array([[12.0, 12.0], [6.0, 6.0]])))
# a triangle 1 ulp thick: no row is inside it by more than the rounding, and a
# tolerance floored at an absolute 1 certified a vertex 1e-8 from the first row
@example((np.array([[-2.0**-17, 0.0], [-2.0**-17 - 2.0**-69, 0.0], [2.0**-17, 2.0**-17]]),
          np.array([[-7.61928268e-06, 5.05592746e-09], [0.0, 0.0]])))
# a segment 7.5e-7 long: that floor returned an endpoint, 3.8e-7 from the projection
@example((np.array([[2.0**-22, -2.0**-21], [-2.0**-21, -2.0**-22]]), np.array([[0.0, 0.0]])))
# a triangle 1 ulp wide at one end: the origin, sqrt(2) away on the line of its long
# edges, rounds onto both of them, and an edge test without an error bound kept it
@example((np.array([[-1.0, 1.0], [-4.0, 4.0], [np.nextafter(-4.0, -5.0), 4.0]]),
          np.array([[0.0, 0.0]])))
def test_planar_hull_keeps_exactly_its_extreme_points(case):
    pts, x = case
    hull = Hull(pts)
    # the extreme points, counter-clockwise from the lexicographic minimum
    assert np.array_equal(hull.vertices, extreme_points_oracle(pts))
    got = hull.project(x)
    polygon = hull.vertices.shape[0] >= 3
    for row, p in zip(x, got):
        scale = max(float(np.max(np.abs(pts))), float(np.max(np.abs(row))))
        # a certified projection onto conv(pts), whatever vertices were dropped; each of
        # two certified points lies within sqrt(5e-13) * scale of the true projection
        assert np.all((pts - p) @ (p - row) >= -5e-13 * scale * scale)
        assert np.linalg.norm(p - hull_projection_oracle(pts, row)) <= 2 * np.sqrt(5e-13) * scale
        # inside by more than the edge test's rounding: the row itself, bit for bit
        if polygon and polygon_depth_oracle(hull.vertices, row) > (1e-12 * scale) ** 2:
            assert np.array_equal(p, row)


def test_a_body_below_the_scale_floor_still_certifies():
    # at 1e-160 the certificate's products are subnormal: with scale floored at the
    # smallest normal float, cert_tol underflowed to 0 and a -5e-324 slack raised here,
    # and with it floored at sqrt(smallest normal) the first row went to a vertex
    verts = np.array([[1.222, 0.601, 1.001], [0.175, -0.247, -0.022], [1.057, 0.146, -1.537],
                      [0.509, -1.166, -2.276], [-0.092, 1.754, 0.877]])
    rows = np.array([[0.14, 0.42, -1.907], [-2.17, -0.85, -1.57]])
    got = Hull(verts * 1e-160).project(rows * 1e-160)
    assert np.all((verts.min(axis=0) * 1e-160 <= got) & (got <= verts.max(axis=0) * 1e-160))
    # the solve is relative at every size: the same projections as at size 1
    ref = Hull(verts).project(rows) * 1e-160
    assert np.all(np.linalg.norm(got - ref, axis=1) <= 1e-13 * np.linalg.norm(ref, axis=1))


@st.composite
def hulls_scaled_by_powers_of_two(draw):
    """A random hull in 2-D or 3-D, free and interior rows, and a power of two 2^k.

    Beyond k ~ 511 the 2-D inside test's cross products overflow, so k stops at 500.
    """
    m, k = draw(st.integers(2, 3)), draw(st.integers(-1000, 500))
    coord = st.floats(-8.0, 8.0)
    verts = np.array(draw(st.lists(st.lists(coord, min_size=m, max_size=m), min_size=1, max_size=8)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            rows.append(draw(st.lists(st.floats(-12.0, 12.0), min_size=m, max_size=m)))
        else:
            w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(verts), max_size=len(verts))))
            rows.append((w + 1e-3) / (w + 1e-3).sum() @ verts)
    return verts, np.array(rows, dtype=float), k


@settings(max_examples=200, deadline=None)
@given(hulls_scaled_by_powers_of_two())
def test_projection_commutes_with_powers_of_two(case):
    verts, x, k = case
    big_verts, big_x = np.ldexp(verts, k), np.ldexp(x, k)
    # 2^k times the inputs is exact unless a coordinate leaves the normal floats
    assume(np.array_equal(np.ldexp(big_verts, -k), verts) and np.array_equal(np.ldexp(big_x, -k), x))
    got = Hull(big_verts).project(big_x)
    assert got.tobytes() == np.ldexp(Hull(verts).project(x), k).tobytes()


def test_one_uncertifiable_row_raises(monkeypatch):
    # segment [0,4] x {0}: rows at a vertex certify at once, (1, 3) needs the solver
    hull = Hull([[0.0, 0.0], [4.0, 0.0]])
    x = np.vstack([np.zeros((20, 2)), [[1.0, 3.0]], np.zeros((20, 2))])
    np.testing.assert_array_equal(hull.project(x)[20], [1.0, 0.0])

    def support_centroid(vertices, rows, support):
        return support / support.sum(axis=1, keepdims=True)

    # a solver stuck at the segment midpoint (2, 0) stalls that one row
    monkeypatch.setattr(cg, "_affine_weights", support_centroid)
    with pytest.raises(NumericalError, match="worst vertex slack -2.000e\\+00"):
        hull.project(x)
    np.testing.assert_array_equal(hull.project(x[:20]), x[:20])


def test_degenerate_supports_use_the_least_squares_minimizer():
    # collinear and duplicate supports make singular systems; the pseudoinverse's
    # minimum-norm solution is the lstsq oracle's
    verts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [0.0, 3.0]])
    support = np.zeros((4, 5), dtype=bool)
    support[0, [0, 1, 2]] = True  # collinear
    support[1, [2, 3]] = True  # a duplicated vertex
    support[2, [0, 1, 4]] = True  # a proper triangle
    support[3, [1, 4]] = True  # a proper edge
    x = np.array([[3.0, 1.0]] * 4)
    lam = cg._affine_weights(np.broadcast_to(verts, (4, *verts.shape)), x, support)
    for i, s in enumerate(support):
        ref = _affine_weight_minimizer(verts, list(np.flatnonzero(s)), x[i])
        np.testing.assert_allclose(lam[i, s], ref, rtol=0.0, atol=1e-14)
        assert np.all(lam[i, ~s] == 0.0)


@st.composite
def supports_and_rows(draw):
    """Vertices on a small integer grid with duplicates and collinear points added, and
    rows with supports of any size, so many are degenerate or larger than m + 1."""
    m = draw(st.integers(2, 4))
    coord = st.integers(-3, 3).map(float)
    verts = draw(st.lists(st.lists(coord, min_size=m, max_size=m), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 4))):
        a, b = np.array(draw(st.sampled_from(verts))), np.array(draw(st.sampled_from(verts)))
        t = draw(st.sampled_from([0.0, -0.5, 0.25, 0.5, 1.5]))  # 0: a duplicate
        verts.append(list((1.0 - t) * a + t * b))
    verts, k = np.array(verts), len(verts)
    n = draw(st.integers(1, 6))
    support = np.array(draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k),
                                     min_size=n, max_size=n)))
    support[np.arange(n), draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))] = True
    x = np.array(draw(st.lists(st.lists(st.floats(-6.0, 6.0), min_size=m, max_size=m),
                               min_size=n, max_size=n)))
    return verts, x, support


@settings(max_examples=300, deadline=None)
@given(supports_and_rows())
def test_affine_weights_fit_as_the_least_squares_oracle(case):
    verts, x, support = case
    lam = cg._affine_weights(np.broadcast_to(verts, (len(x), *verts.shape)), x, support)
    scale = max(float(np.max(np.abs(verts))), float(np.max(np.abs(x))))
    for i, s in enumerate(support):
        ref = _affine_weight_minimizer(verts, list(np.flatnonzero(s)), x[i])
        # a degenerate support has many minimizing weights but one fitted point
        assert np.max(np.abs(lam[i] @ verts - ref @ verts[s])) <= 1e-12 * scale
        # the sum rounds like the weights it adds: on this grid they reach ~660
        assert abs(lam[i].sum() - 1.0) <= 1e-14 * max(1.0, np.abs(lam[i]).sum())
        assert np.all(lam[i, ~s] == 0.0)


def test_single_vertex_support_gets_unit_weight():
    # a restore step may drop all but one vertex; its minimizer is that vertex
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    support = np.array([[False, True, False], [True, True, False]])
    lam = cg._affine_weights(np.broadcast_to(verts, (2, 3, 2)), np.array([[5.0, 5.0], [0.5, 2.0]]),
                             support)
    np.testing.assert_array_equal(lam, [[0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])


# one body of each shape: a point box, an interval, a box and a hull
BODIES = [
    pytest.param(Box([0.5, -1.0], [0.5, -1.0]), id="Point"),
    pytest.param(Box(-1.0, 2.0), id="Interval1D"),
    pytest.param(Box([-1.0, 0.0], [1.0, 2.0]), id="Box"),
    pytest.param(Hull([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]), id="Hull"),
]


@pytest.mark.parametrize("body", BODIES)
def test_every_body_projects_stacks_row_by_row(body):
    rng = np.random.default_rng(11)
    x = rng.uniform(-3.0, 3.0, (2, 3, body.dimension))
    got = body.project(x)
    assert got.shape == x.shape
    dist = body.distance(x)
    assert dist.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        np.testing.assert_array_equal(got[idx], body.project(x[idx]))
        assert dist[idx] == pytest.approx(body.distance(x[idx]), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("body", BODIES)
def test_non_finite_query_is_an_input_error_naming_the_row(body):
    m = body.dimension
    point = np.full(m, np.nan)
    stack = np.zeros((4, m))
    stack[2, -1] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (body.project, body.distance):
            with pytest.raises(InputError, match="must be finite"):
                call(point)
        for call in (body.project, body.distance):
            with pytest.raises(InputError, match="row 2 is not finite"):
                call(stack)
        with pytest.raises(InputError, match="row \\(1, 0\\) is not finite"):
            body.project(stack.reshape(2, 2, m))


def test_hull_nan_query_names_the_cause():
    with pytest.raises(InputError, match=r"x must be finite, got \[nan, 0.5\]"):
        Hull([[0, 0], [1, 0], [0, 1]]).project([np.nan, 0.5])


# -- one box for points, intervals and boxes ---------------------------------


def former_project(kind, lo, hi, x):
    """Projection as the separate point, interval and box classes computed it."""
    if kind == "point":
        return np.broadcast_to(lo, x.shape).copy()
    if kind == "interval":
        return np.clip(x, float(lo[0]), float(hi[0]))
    return np.clip(x, lo, hi)


def former_distance(kind, lo, hi, x):
    """Distance as the separate point, interval and box classes computed it."""
    if kind == "point":
        return np.linalg.norm(x - lo, axis=-1)
    if kind == "interval":
        return np.abs(x[..., 0] - np.clip(x[..., 0], float(lo[0]), float(hi[0])))
    return np.linalg.norm(x - np.clip(x, lo, hi), axis=-1)


@st.composite
def boxes_and_queries(draw):
    kind = draw(st.sampled_from(["point", "interval", "box"]))
    m = 1 if kind == "interval" else draw(st.integers(1, 3))
    coord = st.floats(-1e3, 1e3)
    a = np.array(draw(st.lists(coord, min_size=m, max_size=m)))
    b = a if kind == "point" else np.array(draw(st.lists(coord, min_size=m, max_size=m)))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    shape = draw(st.sampled_from([(m,), (3, m), (2, 2, m)]))
    x = np.array(draw(st.lists(coord, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))))
    return kind, lo, hi, x.reshape(shape)


@settings(max_examples=300, deadline=None)
@given(boxes_and_queries())
@example(("point", np.array([0.0]), np.array([0.0]), np.array([[1e-160], [-2.0], [0.0]])))
@example(("interval", np.array([0.0]), np.array([0.0]), np.array([-0.0])))
def test_box_matches_the_former_point_interval_and_box_formulas(case):
    kind, lo, hi, x = case
    body = Box(lo, hi)
    expected = former_project(kind, lo, hi, x)
    got = body.project(x)
    # + 0.0 turns -0.0 into 0.0: np.clip may sign a zero differently for float and array bounds
    assert got.shape == expected.shape and (got + 0.0).tobytes() == (expected + 0.0).tobytes()
    expected, got = former_distance(kind, lo, hi, x), body.distance(x)
    assert np.shape(got) == np.shape(expected)
    gap = np.abs(x[..., 0] - np.clip(x[..., 0], lo[0], hi[0]))
    if lo.shape[0] == 1 and kind != "interval":
        # a 1-D norm squares the gap, which underflows below ~1e-154; |gap| keeps its bits
        tiny = (gap > 0) & (gap < 1e-150)
        assert np.asarray(got)[tiny].tobytes() == gap[tiny].tobytes()
        got, expected = np.asarray(got)[~tiny], np.asarray(expected)[~tiny]
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def test_box_corners_are_the_distinct_sorted_corners():
    rng = np.random.default_rng(3)
    for m in (1, 2, 3):
        for _ in range(50):
            lo = rng.integers(-2, 2, m).astype(float)
            hi = lo + rng.integers(0, 2, m)
            corners = np.array(
                [[hi[k] if bit else lo[k] for k, bit in enumerate(bits)]
                 for bits in itertools.product([0, 1], repeat=m)]
            )
            np.testing.assert_array_equal(Box(lo, hi).extreme_points(), np.unique(corners, axis=0))


def test_box_json_keeps_the_point_interval_and_box_forms():
    assert Box([1.0, 2.0], [1.0, 2.0]).as_dict() == {"type": "point", "p": [1.0, 2.0]}
    assert Box([0.5], [0.5]).as_dict() == {"type": "point", "p": [0.5]}
    assert Box(0.0, 1.0).as_dict() == {"type": "interval", "lo": 0.0, "hi": 1.0}
    box = {"type": "box", "lo": [0.0, 1.0], "hi": [0.0, 2.0]}
    assert Box([0.0, 1.0], [0.0, 2.0]).as_dict() == box
