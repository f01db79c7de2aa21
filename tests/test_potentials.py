import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from syncflow import (
    Box,
    FlatBottom1D,
    InputError,
    Quadratic,
    QuarticWell,
    RepresentationError,
    SumPotential,
    common_zero_set,
    potentials,
)
from syncflow import convex_geometry as cg
from syncflow.cli import potential_from_dict
from syncflow.potentials import NetworkPotential
from util import (
    gradient_consistency_check,
    oracle_curvature,
    oracle_gradient,
    oracle_value,
    potential_to_dict,
    sum_zero_set_oracle,
)

CATALOG_1D = [
    Quadratic(center=[0.0], weight=1.0),
    Quadratic(center=[-1.5], weight=2.5),
    QuarticWell(center=[0.7]),
    FlatBottom1D(-0.5, 1.0),
    SumPotential((Quadratic(center=[1.0]), QuarticWell(center=[-1.0]))),
    SumPotential((FlatBottom1D(0.0, 2.0), Quadratic(center=[3.0], weight=0.5))),
]


def central_diff(spec, x, h=1e-6):
    x = np.atleast_1d(np.asarray(x, float))
    out = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        out[k] = (spec.value(x + e) - spec.value(x - e)) / (2 * h)
    return out


def test_quadratic_value():
    assert Quadratic(center=[2.0], weight=1.0).value([5.0]) == pytest.approx(4.5)


def test_quartic_value_at_center():
    assert QuarticWell(center=[0.0]).value([0.0]) == 0.0


def test_flat_bottom_value_inside():
    assert FlatBottom1D(0.0, 1.0).value([0.5]) == 0.0


def test_quartic_self_dynamics_is_negative_cube():
    # f(x) = -grad F(x) = -(x - c)^3 componentwise
    spec = QuarticWell(center=[0.3, -0.2])
    x = np.array([1.3, 0.8])
    np.testing.assert_allclose(-spec.gradient(x), -(x - spec.center) ** 3)
    assert -QuarticWell(center=[0.0]).gradient([1.0])[0] == pytest.approx(-1.0)


def _pow_cube_and_kernel(c, x):
    """(x - c) ** 3 by libm pow, the quartic kernel's independent reference, and the kernel's."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (x - c) ** 3, QuarticWell(center=c).gradient(x)


def _assert_within_one_ulp_of_pow(c, x) -> int:
    """The kernel is within 1 ulp of pow wherever pow's cube is normal, and equal to it where
    the cube overflows; returns how many results were normal."""
    want, got = _pow_cube_and_kernel(c, x)
    normal = np.isfinite(want) & (np.abs(want) >= np.finfo(float).tiny)
    w, g = want[normal], got[normal]
    assert np.all((g == w) | (g == np.nextafter(w, np.inf)) | (g == np.nextafter(w, -np.inf)))
    np.testing.assert_array_equal(got[np.isinf(want)], want[np.isinf(want)])
    return int(normal.sum())


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, 3, elements=st.floats(allow_nan=False, allow_infinity=False)),
       arrays(np.float64, (4, 3), elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_quartic_gradient_is_within_one_ulp_of_pow(c, x):
    _assert_within_one_ulp_of_pow(c, x)


def test_quartic_gradient_is_within_one_ulp_of_pow_on_random_bit_patterns():
    bits = np.random.default_rng(14).integers(0, 2**64, size=(50_000, 2), dtype=np.uint64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x).all(axis=1)]
    for c in (0.0, 1.0, -3.5e-7):
        # a third of all exponents cube to a normal number
        assert _assert_within_one_ulp_of_pow(np.array([c, -c]), x) > 0.3 * x.size


@pytest.mark.parametrize(
    "x, c",
    [(0.0, 0.0), (-0.0, 0.0), (2.5, 2.5), (np.inf, 0.0), (-np.inf, 1.0), (np.nan, 0.0),
     (1e103, 0.0), (-1e103, 0.0), (1e155, 0.0), (-1e155, 0.0), (1.7e308, -1.7e308)],
)
def test_quartic_gradient_equals_pow_on_zeros_infinities_nan_and_overflow(x, c):
    want, got = _pow_cube_and_kernel(np.array([c]), np.array([x]))
    np.testing.assert_array_equal(got, want)
    if not np.isnan(want[0]):
        assert np.signbit(got[0]) == np.signbit(want[0])


def test_quadratic_self_dynamics():
    assert -Quadratic(center=[2.0], weight=1.0).gradient([5.0])[0] == pytest.approx(-3.0)


@pytest.mark.parametrize("spec", CATALOG_1D)
def test_self_dynamics_vanishes_on_zero_set(spec):
    # closed-form argmin sets vanish exactly; bisection-derived ones (sums
    # without a shared minimizer) can only vanish to root-finding precision
    body = spec.zero_set()
    exact = not (
        isinstance(spec, SumPotential)
        and common_zero_set(list(spec.terms)) is None
        and any(not isinstance(t, Quadratic) for t in spec.terms)
    )
    for pt in [*body.extreme_points(), body.center()]:
        f = -spec.gradient(np.atleast_1d(pt))
        if exact:
            assert np.all(f == 0.0)
        else:
            np.testing.assert_allclose(f, 0.0, atol=1e-12)


def test_zero_sets():
    assert Quadratic(center=[2.0]).zero_set().as_dict() == {"type": "point", "p": [2.0]}
    fb = FlatBottom1D(0.0, 1.0).zero_set()
    assert fb.as_dict() == {"type": "interval", "lo": 0.0, "hi": 1.0}


def test_zero_set_intersection_of_distinct_singletons_is_empty():
    assert common_zero_set([Quadratic(center=[1.0]), Quadratic(center=[2.0])]) is None


def test_common_zero_set_overlapping_intervals():
    body = common_zero_set([FlatBottom1D(0.0, 0.6), FlatBottom1D(0.4, 1.0)])
    assert body is not None
    np.testing.assert_allclose(body.extreme_points().ravel(), [0.4, 0.6])


def test_sum_zero_set_quadratics_weighted_mean():
    s = SumPotential((Quadratic(center=[0.0], weight=1.0), Quadratic(center=[3.0], weight=2.0)))
    np.testing.assert_allclose(s.zero_set().center(), [2.0])


def test_sum_zero_set_mixed_exact_point():
    # x + (x-2)^3 = 0 has the exact root x = 1
    s = SumPotential((Quadratic(center=[0.0]), QuarticWell(center=[2.0])))
    body = s.zero_set()
    assert isinstance(body, Box) and np.array_equal(body.lo, body.hi)  # a point
    np.testing.assert_allclose(body.center(), [1.0], atol=1e-9)
    assert abs(s.gradient(body.center())[0]) < 1e-9


def test_sum_zero_set_common_minimizer_is_intersection():
    s = SumPotential((FlatBottom1D(0.0, 2.0), FlatBottom1D(1.0, 3.0)))
    body = s.zero_set()
    np.testing.assert_allclose(sorted(body.extreme_points().ravel()), [1.0, 2.0])


def test_zero_set_is_computed_once(monkeypatch):
    calls = []
    bisect = potentials._component_zero_interval
    monkeypatch.setattr(
        potentials, "_component_zero_interval", lambda terms, k: calls.append(k) or bisect(terms, k)
    )
    s = SumPotential((Quadratic(center=[0.0, 1.0]), QuarticWell(center=[2.0, -1.0])))
    body = s.zero_set()
    assert s.zero_set() is body
    assert calls == [0, 1]


def test_sum_zero_set_multidim_box():
    s = SumPotential((Quadratic(center=[0.0, 1.0]), QuarticWell(center=[2.0, 1.0])))
    body = s.zero_set()
    # component 0: x + (x-2)^3 = 0 -> 1; component 1: shared minimizer 1
    np.testing.assert_allclose(body.center(), [1.0, 1.0], atol=1e-9)


def test_far_apart_sum_zero_set_prints_no_overflow_warning():
    # the bisection's cube of s - 1e200 overflows on the way; the quadratic's
    # pull of 1e200 moves the root by ~1e66, below the ulp of 1e200
    s = SumPotential((Quadratic(center=[0.0]), QuarticWell(center=[1e200])))
    body = s.zero_set()  # a RuntimeWarning fails the test
    assert body.lo.tolist() == body.hi.tolist() == [1e200]


@st.composite
def far_apart_sum(draw):
    """2-4 catalog terms whose centers span 1e-300 to 1e150 in magnitude, flat bottoms in 1-D."""
    m = draw(st.integers(1, 3))
    magnitude = st.builds(lambda sign, e: sign * 10.0**e,
                          st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 150.0))
    point = st.lists(magnitude, min_size=m, max_size=m)
    terms = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["quadratic", "quartic"] + (["flat_bottom"] if m == 1 else [])))
        if kind == "quadratic":
            terms.append(Quadratic(center=draw(point), weight=draw(st.floats(0.1, 5.0))))
        elif kind == "quartic":
            terms.append(QuarticWell(center=draw(point)))
        else:
            terms.append(FlatBottom1D(*sorted(draw(st.lists(magnitude, min_size=2, max_size=2)))))
    return terms


@settings(max_examples=300, deadline=None)
@given(far_apart_sum())
# 200 halvings of a bracket ~2 wide stop short of the ulp of 1e-300: no early exit
@example([Quadratic(center=[1e-300]), QuarticWell(center=[-1e-300])])
# reaches its float fixed point after ~60 halvings
@example([Quadratic(center=[0.0, 3.0]), QuarticWell(center=[1e100, -2.0])])
# a bracket widened by a fixed 1.0 was lost in the ulp of -1e16
@example([Quadratic(center=[-1.0, -1e16]), QuarticWell(center=[-10.0, -1e16])])
# midpoints of brackets past ~9e307 overflowed when their ends were added first
@example([Quadratic(center=[1.0]), QuarticWell(center=[1e308])])
@example([Quadratic(center=[1.0]), QuarticWell(center=[-1e308])])
def test_sum_zero_set_equals_the_full_200_step_bisection(terms):
    # only the bisection branch: no shared minimizer and not all quadratics
    assume(cg.intersect([t.zero_set() for t in terms], tol=0.0) is None)
    assume(not all(isinstance(t, Quadratic) for t in terms))
    try:
        lo, hi = sum_zero_set_oracle(terms)
    except RepresentationError:  # a bracket edge that overflows to +-inf
        with pytest.raises(RepresentationError, match="failed to bracket"):
            SumPotential(tuple(terms)).zero_set()
        return
    body = SumPotential(tuple(terms)).zero_set()
    # bit for bit, the sign of a zero included
    assert body.lo.tobytes() == lo.tobytes() and body.hi.tobytes() == hi.tobytes()


@pytest.mark.parametrize("c", [1e308, -1e308])
def test_sum_zero_set_near_the_largest_floats_is_finite(c):
    body = SumPotential((Quadratic(center=[1.0]), QuarticWell(center=[c]))).zero_set()
    assert np.all(np.isfinite(body.lo)) and np.all(np.isfinite(body.hi))
    assert body.lo[0] == body.hi[0] == pytest.approx(c, rel=1e-15)


def test_sum_zero_set_brackets_a_component_beyond_2_to_the_53():
    # the ulp of -1e16 is 2.0, so a bracket widened by a fixed 1.0 did not move
    terms = (Quadratic(center=[-1.0, -1e16]), QuarticWell(center=[-10.0, -1e16]))
    body = SumPotential(terms).zero_set()
    assert body.lo[1] == body.hi[1] == -1e16


def test_sum_zero_set_bracket_edge_that_overflows_fails_to_bracket():
    far = np.finfo(float).max  # widened by 2^-50 of itself, the edge is inf
    with pytest.raises(RepresentationError, match="failed to bracket"):
        SumPotential((Quadratic(center=[0.0]), QuarticWell(center=[far]))).zero_set()


def test_gradient_consistency_quadratic_tight():
    rep = gradient_consistency_check(
        Quadratic(center=[0.0], weight=1.0), [[-1.0], [0.0], [1.0]], h=1e-5, tol=1e-6
    )
    assert rep.passed


def test_gradient_consistency_quartic():
    samples = [[x] for x in np.linspace(-2, 2, 9)]
    rep = gradient_consistency_check(QuarticWell(center=[0.0]), samples, h=1e-5, tol=1e-5)
    assert rep.passed


def test_gradient_consistency_detects_corruption():
    class Corrupted(QuarticWell):
        @staticmethod
        def _kernel(terms):
            gradient, value, curvature = QuarticWell._kernel(terms)
            return (lambda x: gradient(x) + 0.1), value, curvature

    rep = gradient_consistency_check(Corrupted(center=[0.0]), [[0.5]], h=1e-5, tol=1e-5)
    assert not rep.passed
    assert rep.worst_value == pytest.approx(0.1, rel=1e-3)


@pytest.mark.parametrize("spec", CATALOG_1D)
def test_gradient_matches_central_differences(spec):
    for x in np.linspace(-2, 2, 7):
        fd = central_diff(spec, [x])
        np.testing.assert_allclose(fd, spec.gradient([x]), atol=1e-5)


def test_quartic_gradient_relative_outside_lipschitz_range():
    # cubic growth: compare with relative tolerance far from the center
    spec = QuarticWell(center=[0.0])
    for x in (5.0, 12.0, -20.0):
        fd = central_diff(spec, [x], h=1e-5)[0]
        assert abs(fd - x**3) <= 1e-6 * abs(x) ** 3


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(CATALOG_1D),
    st.floats(-8, 8),
    st.floats(-8, 8),
)
def test_midpoint_convexity(spec, a, b):
    x, y = np.array([a]), np.array([b])
    mid = spec.value(0.5 * (x + y))
    assert mid <= 0.5 * (spec.value(x) + spec.value(y)) + 1e-12


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(CATALOG_1D),
    st.floats(-8, 8),
    st.floats(-8, 8),
)
def test_first_order_convexity(spec, a, b):
    # F(x) >= F(y) - <x - y, f(y)> up to rounding
    x, y = np.array([a]), np.array([b])
    lower = spec.value(y) - float((x - y) @ -spec.gradient(y))
    assert spec.value(x) >= lower - 1e-10


def test_convexity_multidim_random_pairs():
    rng = np.random.default_rng(8)
    specs = [
        Quadratic(center=[0.5, -1.0], weight=1.5),
        QuarticWell(center=[-0.3, 0.2]),
        SumPotential((Quadratic(center=[1.0, 1.0]), QuarticWell(center=[0.0, 0.0]))),
    ]
    for spec in specs:
        for _ in range(100):
            x = rng.uniform(-6, 6, 2)
            y = rng.uniform(-6, 6, 2)
            mid = spec.value(0.5 * (x + y))
            assert mid <= 0.5 * (spec.value(x) + spec.value(y)) + 1e-12
            lower = spec.value(y) - float((x - y) @ -spec.gradient(y))
            assert spec.value(x) >= lower - 1e-10


def test_dimension_mismatch_raises():
    with pytest.raises(InputError):
        Quadratic(center=[0.0, 0.0]).value([1.0])
    with pytest.raises(InputError):
        QuarticWell(center=[0.0]).gradient([1.0, 2.0])


def test_invalid_constructions():
    with pytest.raises(InputError):
        Quadratic(center=[0.0], weight=0.0)
    with pytest.raises(InputError):
        FlatBottom1D(1.0, 0.0)
    with pytest.raises(InputError):
        SumPotential(())
    with pytest.raises(InputError):
        SumPotential((Quadratic(center=[0.0]), Quadratic(center=[0.0, 1.0])))


def test_serialization_roundtrip():
    for spec in CATALOG_1D:
        clone = potential_from_dict(potential_to_dict(spec))
        for x in np.linspace(-3, 3, 5):
            assert clone.value([x]) == spec.value([x])
            assert clone.gradient([x])[0] == spec.gradient([x])[0]


@pytest.mark.parametrize("kind", ["quadratic", "quartic"])
def test_empty_center_is_rejected_naming_the_center(kind):
    with pytest.raises(InputError, match=f"{kind} center must be a nonempty finite vector"):
        potential_from_dict({"kind": kind, "center": []})


def test_from_dict_errors():
    with pytest.raises(InputError):
        potential_from_dict({"kind": "pentagon"})
    with pytest.raises(InputError):
        potential_from_dict({"kind": "quadratic"})


# -- one shape rule: a point (m,) or a stack (..., m) ------------------------

coords = st.floats(-10, 10, allow_nan=False)


@st.composite
def potential_and_stack(draw):
    kind = draw(st.sampled_from(["quadratic", "quartic", "flat_bottom", "sum"]))
    m = 1 if kind == "flat_bottom" else draw(st.integers(1, 3))
    center = st.lists(coords, min_size=m, max_size=m)
    if kind == "quadratic":
        spec = Quadratic(center=draw(center), weight=draw(st.floats(0.1, 5)))
    elif kind == "quartic":
        spec = QuarticWell(center=draw(center))
    elif kind == "flat_bottom":
        spec = FlatBottom1D(*sorted(draw(st.lists(coords, min_size=2, max_size=2))))
    else:
        spec = SumPotential((Quadratic(center=draw(center)), QuarticWell(center=draw(center))))
    rows = draw(st.integers(1, 8))
    stack = np.array(draw(st.lists(st.lists(coords, min_size=m, max_size=m),
                                   min_size=rows, max_size=rows)))
    return spec, stack


@settings(max_examples=200, deadline=None)
@given(potential_and_stack())
def test_stack_rows_equal_single_point_results(case):
    spec, stack = case
    values, grads = spec.value(stack), spec.gradient(stack)
    assert values.shape == stack.shape[:-1] and grads.shape == stack.shape
    for j, x in enumerate(stack):
        assert np.array_equal(values[j], spec.value(x))
        assert np.array_equal(grads[j], spec.gradient(x))
        assert np.array_equal(-spec.gradient(stack)[j], -spec.gradient(x))


def test_stack_of_stacks_keeps_leading_axes():
    spec = Quadratic(center=[1.0, -1.0], weight=2.0)
    pts = np.arange(24.0).reshape(3, 4, 2)
    assert spec.value(pts).shape == (3, 4)
    assert spec.gradient(pts).shape == (3, 4, 2)
    assert spec.value(pts)[2, 1] == spec.value(pts[2, 1])


def test_bare_number_is_a_one_dimensional_point():
    spec = FlatBottom1D(0.0, 1.0)
    np.testing.assert_array_equal(spec.gradient(3.0), [2.0])
    assert spec.value(3.0) == 2.0
    with pytest.raises(InputError):
        Quadratic(center=[0.0, 0.0]).gradient(1.0)


def flat_bottom_reference(left, right, s):
    """(value, derivative) of the flat bottom, branch by branch."""
    if s > right:
        return 0.5 * (s - right) ** 2, s - right
    if s < left:
        return 0.5 * (left - s) ** 2, s - left
    return 0.0, 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(coords, min_size=2, max_size=2), st.lists(coords, min_size=1, max_size=8),
       st.booleans())
def test_flat_bottom_equals_piecewise_reference(ends, pts, degenerate):
    left, right = sorted(ends)
    if degenerate:
        right = left
    spec = FlatBottom1D(left, right)
    xs = np.array(pts + [left, right, 0.5 * (left + right)])
    values, grads = spec.value(xs[:, None]), spec.gradient(xs[:, None])
    for j, s in enumerate(xs):
        ref_value, ref_grad = flat_bottom_reference(left, right, float(s))
        assert np.array_equal(values[j], ref_value)
        assert np.array_equal(grads[j], [ref_grad])
        assert np.array_equal(spec.value([s]), ref_value)


def same_bits(a, b) -> bool:
    """Equal values and equal zero signs."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@st.composite
def network_case(draw):
    """Random catalog networks, their nesting (flat, left or right) and a state stack."""
    m = draw(st.integers(1, 3))
    point = st.lists(st.one_of(st.sampled_from([0.0, -0.0]), coords), min_size=m, max_size=m)

    def term():
        kinds = ["quadratic", "quartic"] + (["flat_bottom"] if m == 1 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "quadratic":
            return Quadratic(center=draw(point), weight=draw(st.floats(0.1, 5)))
        if kind == "quartic":
            return QuarticWell(center=draw(point))
        return FlatBottom1D(*sorted(draw(st.lists(coords, min_size=2, max_size=2))))

    nesting = draw(st.sampled_from(["flat", "left", "right"]))
    nodes = []
    for _ in range(draw(st.integers(1, 12))):
        size = draw(st.integers(1, 3))
        terms = [term() for _ in range(size)]
        if size == 1:
            nodes.append(terms[0])
        elif nesting == "flat" or size == 2:
            nodes.append(SumPotential(tuple(terms)))
        elif nesting == "left":
            nodes.append(SumPotential((SumPotential(tuple(terms[:2])), terms[2])))
        else:
            nodes.append(SumPotential((terms[0], SumPotential(tuple(terms[1:])))))
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    X = np.array(draw(st.lists(point, min_size=len(nodes) * int(np.prod(lead)),
                               max_size=len(nodes) * int(np.prod(lead)))))
    return nodes, nesting, X.reshape(*lead, len(nodes), m)


@settings(max_examples=300, deadline=None)
@given(network_case())
def test_network_potential_equals_per_node_methods(case):
    nodes, nesting, X = case
    net = NetworkPotential(nodes)
    grads, values = net.gradient(X), net.value(X)
    assert grads.shape == X.shape and values.shape == X.shape[:-1]
    for i, spec in enumerate(nodes):
        x = X[..., i, :]
        terms = potentials._flatten_terms(spec)
        if nesting == "right" and len(terms) == 3:
            # (g1 + (g2 + g3)) against ((g1 + g2) + g3): a few ulps of the terms' size
            g_scale = sum(np.abs(oracle_gradient(t, x)) for t in terms)
            v_scale = sum(np.abs(oracle_value(t, x)) for t in terms)
            assert np.all(np.abs(grads[..., i, :] - oracle_gradient(spec, x)) <= 1e-15 * g_scale)
            assert np.all(np.abs(values[..., i] - oracle_value(spec, x)) <= 1e-15 * v_scale)
        else:
            assert same_bits(grads[..., i, :], oracle_gradient(spec, x))
            assert same_bits(values[..., i], oracle_value(spec, x))


@settings(max_examples=300, deadline=None)
@given(network_case(), st.data())
def test_single_potential_equals_oracle(case, data):
    # one node's potential on its own: a point (m,), a stack (..., m) or a bare number
    nodes, _, X = case
    i = data.draw(st.integers(0, len(nodes) - 1))
    spec, x = nodes[i], X[..., i, :]
    if x.shape == (1,) and data.draw(st.booleans()):
        x = float(x[0])
    # the kernels add a sum's flattened terms left to right, whatever the nesting
    flat = SumPotential(tuple(potentials._flatten_terms(spec)))
    reference = flat if isinstance(spec, SumPotential) else spec
    grads, values = spec.gradient(x), spec.value(x)
    shape = np.shape(x) or (1,)
    assert grads.shape == shape and np.shape(values) == shape[:-1]
    assert same_bits(grads, oracle_gradient(reference, x))
    assert same_bits(values, oracle_value(reference, x))


def test_kind_without_a_kernel_of_its_own_is_rejected():
    class Shifted(Quadratic):
        pass

    with pytest.raises(RepresentationError, match="cannot compile a Shifted term"):
        NetworkPotential([Quadratic(center=[0.0]), Shifted(center=[1.0])])
    with pytest.raises(RepresentationError):
        Shifted(center=[1.0]).value([0.0])


@settings(max_examples=200, deadline=None)
@given(network_case(), st.data())
def test_network_potential_commutes_with_node_permutations(case, data):
    nodes, _, X = case
    perm = data.draw(st.permutations(range(len(nodes))))
    net, permuted = NetworkPotential(nodes), NetworkPotential([nodes[i] for i in perm])
    assert same_bits(permuted.gradient(X[..., perm, :]), net.gradient(X)[..., perm, :])
    assert same_bits(permuted.value(X[..., perm, :]), net.value(X)[..., perm])


def test_network_potential_rejects_mismatched_states():
    net = NetworkPotential([Quadratic(center=[0.0, 0.0]), QuarticWell(center=[1.0, 1.0])])
    with pytest.raises(InputError):
        net.gradient(np.zeros((3, 2)))
    with pytest.raises(InputError):
        net.value(np.zeros((2, 1)))
    with pytest.raises(InputError):
        NetworkPotential([Quadratic(center=[0.0]), Quadratic(center=[0.0, 1.0])])


@settings(max_examples=150, deadline=None)
@given(network_case())
@example(([FlatBottom1D(-1.0, 2.0)], "flat", np.array([[[-1.0]], [[2.0]]])))  # on both edges
def test_network_curvature_equals_the_oracle(case):
    nodes, _, X = case
    H = NetworkPotential(nodes).curvature(X)
    assert H.shape == X.shape
    for i, spec in enumerate(nodes):
        # the kernels add a sum's flattened terms left to right, whatever the nesting
        flat = SumPotential(tuple(potentials._flatten_terms(spec)))
        reference = flat if isinstance(spec, SumPotential) else spec
        assert same_bits(H[..., i, :], oracle_curvature(reference, X[..., i, :]))


@settings(max_examples=100, deadline=None)
@given(network_case())
def test_curvature_matches_central_differences_of_the_gradient(case):
    # the catalog is separable, so one shift of every entry differences the Hessian's diagonal
    nodes, _, X = case
    net, h = NetworkPotential(nodes), 1e-5
    fd = (net.gradient(X + h) - net.gradient(X - h)) / (2 * h)
    H = net.curvature(X)
    for i, spec in enumerate(nodes):
        x = X[..., i, :]
        # a flat bottom's curvature jumps at its edges: keep the stencil off them
        off_edges = np.ones(x.shape, dtype=bool)
        for t in potentials._flatten_terms(spec):
            if isinstance(t, FlatBottom1D):
                off_edges &= (np.abs(x - t.left) > 2 * h) & (np.abs(x - t.right) > 2 * h)
        np.testing.assert_allclose(fd[..., i, :][off_edges], H[..., i, :][off_edges],
                                   rtol=1e-6, atol=1e-6)
