import re
from fractions import Fraction

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
    SumPotential,
    common_zero_set,
    potentials,
)
from syncflow import convex_geometry as cg
from syncflow.cli import potential_from_dict
from syncflow.potentials import NetworkPotential
from util import (
    exact_argmin_bracket,
    exact_derivative,
    float_at_place,
    float_place,
    gradient_consistency_check,
    oracle_curvature,
    oracle_gradient,
    oracle_value,
    potential_to_dict,
    same_bits,
)

CATALOG_1D = [
    Quadratic(center=[0.0], weight=1.0),
    Quadratic(center=[-1.5], weight=2.5),
    QuarticWell(center=[0.7]),
    FlatBottom1D(-0.5, 1.0),
    SumPotential((Quadratic(center=[1.0]), QuarticWell(center=[-1.0]))),
    SumPotential((FlatBottom1D(0.0, 2.0), Quadratic(center=[3.0], weight=0.5))),
]
# the coordinates of drawn centers, bounds and states
coords = st.floats(-10, 10, allow_nan=False)


def draw_term(draw, m: int, point):
    """One catalog term of dimension m with centers drawn from ``point``; flat bottoms in 1-D."""
    kind = draw(st.sampled_from(["quadratic", "quartic"] + (["flat_bottom"] if m == 1 else [])))
    if kind == "quadratic":
        return Quadratic(center=draw(point), weight=draw(st.floats(0.1, 5)))
    if kind == "quartic":
        return QuarticWell(center=draw(point))
    return FlatBottom1D(*sorted(draw(st.lists(coords, min_size=2, max_size=2))))


def central_diff(spec, x, h=1e-6):
    """Central differences of F, by ``oracle_value``."""
    x = np.atleast_1d(np.asarray(x, float))
    out = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        out[k] = (oracle_value(spec, x + e) - oracle_value(spec, x - e)) / (2 * h)
    return out


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


def test_a_nested_sum_stores_its_leaf_terms():
    q1, w2, q3 = Quadratic(center=[1.0]), QuarticWell(center=[2.0]), Quadratic(center=[3.0])
    for s in (SumPotential((q1, SumPotential((w2, q3)))),
              SumPotential((SumPotential((q1, w2)), q3)),
              SumPotential((SumPotential((SumPotential((q1,)), w2)), SumPotential((q3,))))):
        assert len(s.terms) == 3 and all(a is b for a, b in zip(s.terms, (q1, w2, q3)))


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
    search = potentials._component_argmin
    monkeypatch.setattr(
        potentials, "_component_argmin", lambda terms, k: calls.append(k) or search(terms, k)
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
# a bracket ~2 wide around an argmin near 1e-300
@example([Quadratic(center=[1e-300]), QuarticWell(center=[-1e-300])])
@example([Quadratic(center=[0.0, 3.0]), QuarticWell(center=[1e100, -2.0])])
# a bracket widened by a fixed 1.0 was lost in the ulp of -1e16
@example([Quadratic(center=[-1.0, -1e16]), QuarticWell(center=[-10.0, -1e16])])
# midpoints of brackets past ~9e307 overflowed when their ends were added first
@example([Quadratic(center=[1.0]), QuarticWell(center=[1e308])])
@example([Quadratic(center=[1.0]), QuarticWell(center=[-1e308])])
# a midpoint has deriv -1 + 1 = 0 exactly, so the two edges split
@example([Quadratic(center=[1.0]), QuarticWell(center=[-1.0])])
# the cubes +-1e9 cancel at 0 beside a pull of weight 2^-1000
@example([Quadratic(center=[0.0], weight=2.0**-1000), QuarticWell(center=[-1e3]),
          QuarticWell(center=[1e3])])
# 200 arithmetic halvings stopped at 3.11e39, for an argmin near 2.154e33
@example([QuarticWell(center=[0.0]), Quadratic(center=[1e100])])
# the derivative rounds to 0 on [-8192, 8192]: refused, as no float resolves the argmin 0
@example([QuarticWell(center=[-1e20]), QuarticWell(center=[1e20])])
# cubes of size 1 cancel at the argmin -1.66e-4: their rounding hides the derivative's sign
# within ~1e-17 of it, hundreds of floats (the search's point is 138 floats off)
@example([QuarticWell(center=[-1.0]), QuarticWell(center=[-0.1]), QuarticWell(center=[1.0])])
# terms that overflow on the way to the argmin, with opposite signs, and whose kernel
# gradient is not finite there: refused
@example([Quadratic(center=[0.0], weight=1e308), Quadratic(center=[10.0], weight=1e308),
          QuarticWell(center=[5.0])])
@example([Quadratic(center=[0.0], weight=1e308), QuarticWell(center=[1e103])])
@example([Quadratic(center=[1.5e308], weight=1e308), Quadratic(center=[-1.7e308], weight=2.0),
          FlatBottom1D(-1.0, 1.0)])
def test_sum_zero_set_is_within_4_ulps_of_the_exact_argmin(terms):
    assume(takes_the_search(terms))
    assert_sum_zero_set_is_near_the_exact_argmin(terms)


def takes_the_search(terms) -> bool:
    """No shared minimizer and not all quadratics: the sum's zero set is searched for."""
    shared = cg.intersect([t.zero_set() for t in terms], tol=0.0) is not None
    return not shared and not all(isinstance(t, Quadratic) for t in terms)


UNDERFLOW = 1.7e-108  # about the cube root of the smallest subnormal: a cube below it is 0


def assert_sum_zero_set_is_near_the_exact_argmin(terms, strict: bool = False):
    """The zero set of a sum whose terms share no minimizer is a point, each component within
    4 floats of the exact argmin; or within UNDERFLOW of it, where a quartic's cube underflows
    there; or, unless ``strict``, where the exact derivative 4 floats either side of it is
    within what rounding hides from the float derivative.  Or the sum is refused, for a cause
    that the exact argmin confirms."""
    try:
        body = SumPotential(tuple(terms)).zero_set()
    except InputError as e:
        assert_the_exact_argmin_confirms(terms, str(e))
        return
    assert body.lo.tobytes() == body.hi.tobytes()
    for k, z in enumerate(body.lo.tolist()):
        below, above = exact_argmin_bracket(terms, k, guess=z)
        if float_place(below) - 4 <= float_place(z) <= float_place(above) + 4:
            continue
        underflow = below - UNDERFLOW <= z <= above + UNDERFLOW and any(
            isinstance(t, QuarticWell) and abs(z - t.center[k]) < UNDERFLOW for t in terms)
        assert underflow or not strict and rounding_hides_the_sign(terms, k, z), (k, z, below, above)


def rounding_hides_the_sign(terms, k: int, z: float) -> bool:
    """Whether the exact derivative 4 floats below z is at most, and 4 floats above z at
    least, the bound on the float derivative's rounding error: (n + 4) 2^-52 of the terms'
    absolute sum plus n of the smallest subnormal, for n terms.  Where the terms cancel near
    the argmin, as cubes of size 1 at an argmin near 1e-4, the float derivative's sign is
    noise across many floats."""
    n, derivative, size = len(terms), exact_derivative(terms, k), exact_derivative(terms, k, True)
    below, above = (float_at_place(float_place(z) + i) for i in (-4, 4))
    slack = [Fraction(n + 4, 2**52) * size(s) + Fraction(n, 2**1074) for s in (below, above)]
    return derivative(below) <= slack[0] and derivative(above) >= -slack[1]


def assert_the_exact_argmin_confirms(terms, message: str):
    flat = re.fullmatch(r"double precision cannot resolve the argmin of a sum potential: "
                        r"its derivative rounds to 0 on \[(.+), (.+)\]", message)
    heavy = re.fullmatch(r"the gradient of a sum potential overflows at its argmin \[.+\], "
                         r"from term (\d+), a (\w+)", message)
    if flat:  # a flat float interval, wider than 1e-9 of its scale, around the exact argmin
        p, q = float(flat[1]), float(flat[2])
        assert q - p > 1e-9 * max(1.0, abs(p), abs(q))
        assert any(p <= exact_argmin_bracket(terms, k)[0] <= q for k in range(terms[0].dimension))
    elif heavy:  # the sum of the terms up to the named one is past the floats at the argmin
        i = int(heavy[1])
        assert type(terms[i]).__name__ == heavy[2]
        assert any(abs(exact_derivative(terms[: i + 1], k)(v)) > 2.0**1023
                   for k in range(terms[0].dimension) for v in exact_argmin_bracket(terms, k))
    else:
        assert message == "failed to bracket the argmin of a sum potential"
        edges = [float(c) for t in terms for c in (*t.zero_set().lo, *t.zero_set().hi)]
        assert max(map(abs, edges)) > 2.0**1023


def test_2000_seeded_sums_lie_within_4_ulps_of_the_exact_argmin():
    # far_apart_sum's distribution, drawn without hypothesis: 2-4 terms, centers from
    # 1e-300 to 1e150 in magnitude, flat bottoms in 1-D.  1742 sums take the search: 398 are
    # refused as their gradient overflows at the argmin, and in 71 of the 2502 components of
    # the rest a quartic's cube underflows at the argmin.  200 arithmetic halvings left 1225
    # of their components further than 4 floats from the exact argmin.
    rng = np.random.default_rng(20141223)

    def point(m):
        return rng.choice([-1.0, 1.0], size=m) * 10.0 ** rng.uniform(-300.0, 150.0, size=m)

    for _ in range(2000):
        m = int(rng.integers(1, 4))
        terms = []
        for _ in range(int(rng.integers(2, 5))):
            kind = rng.choice(["quadratic", "quartic"] + (["flat_bottom"] if m == 1 else []))
            if kind == "quadratic":
                terms.append(Quadratic(center=point(m), weight=rng.uniform(0.1, 5.0)))
            elif kind == "quartic":
                terms.append(QuarticWell(center=point(m)))
            else:
                terms.append(FlatBottom1D(*sorted(point(2))))
        if takes_the_search(terms):
            assert_sum_zero_set_is_near_the_exact_argmin(terms, strict=True)


def test_the_oracle_s_places_step_through_adjacent_floats():
    for x in (-np.inf, -1e308, -1.0, -5e-324, 0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e308):
        assert float_at_place(float_place(x) + 1) == np.nextafter(x, np.inf)
    assert float_place(-0.0) == float_place(0.0) == 0


def test_a_sum_whose_argmin_200_halvings_missed_reaches_adjacent_floats():
    # x^3 + x = 1e100 has the root cbrt(1e100) - 1/(3 cbrt(1e100)); 200 arithmetic halvings of
    # the bracket [-1, 1e100 + 1] ended at 3.11e39
    terms = (QuarticWell(center=[0.0]), Quadratic(center=[1e100]))
    z = SumPotential(terms).zero_set().lo[0]
    below, above = exact_argmin_bracket(terms, 0)
    assert below <= z <= above and z == pytest.approx(2.154434690031884e33, rel=1e-15)


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
    s = SumPotential((Quadratic(center=[0.0]), QuarticWell(center=[far])))  # built: no zero set read
    with pytest.raises(InputError, match="failed to bracket"):
        s.zero_set()
    # a term that far out whose zero set needs no bracket is kept
    assert SumPotential((Quadratic(center=[far]), QuarticWell(center=[far]))).zero_set().lo[0] == far


@pytest.mark.parametrize("terms", [
    # by symmetry the argmin is 5e103 (and 5e149), where both cubes overflow, to +inf and -inf
    (QuarticWell(center=[0.0]), QuarticWell(center=[1e104])),
    (QuarticWell(center=[0.0]), QuarticWell(center=[1e150])),
])
def test_a_sum_whose_derivative_overflows_is_refused(terms):
    s = SumPotential(terms)
    with pytest.raises(InputError, match=r"^the gradient of a sum potential overflows at its "
                                         r"argmin \[5e\+1(03|49)\], from term 0, a QuarticWell$"):
        s.zero_set()


@pytest.mark.parametrize("terms, argmin, term", [
    # pulls of 5e308 and -5e308 at 5 overflow before they cancel: the kernel is NaN there
    ((Quadratic(center=[0.0], weight=1e308), Quadratic(center=[10.0], weight=1e308),
      QuarticWell(center=[5.0])), 5.0, "term 0, a Quadratic"),
    # so is the weighted mean of the two pulls alone
    ((Quadratic(center=[0.0], weight=1e308), Quadratic(center=[10.0], weight=1e308)),
     5.0, "term 0, a Quadratic"),
    # the argmin solves 1e308 s = (1e103 - s)^3, where the pull is 1e309
    ((Quadratic(center=[0.0], weight=1e308), QuarticWell(center=[1e103])), 10.0,
     "term 0, a Quadratic"),
    # the light pull at -1.7e308 is 2 * 3.2e308 at the argmin 1.5e308 of the heavy one
    ((Quadratic(center=[1.5e308], weight=1e308), Quadratic(center=[-1.7e308], weight=2.0),
      FlatBottom1D(-1.0, 1.0)), 1.5e308, "term 1, a Quadratic"),
])
def test_a_sum_whose_gradient_overflows_at_its_argmin_is_refused_naming_the_term(terms, argmin,
                                                                                   term):
    message = f"the gradient of a sum potential overflows at its argmin [{argmin!r}], from {term}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        SumPotential(terms).zero_set()


def test_a_sum_whose_derivative_rounds_to_0_around_its_argmin_is_refused():
    # s + 1e20 rounds to 1e20 wherever |s| <= 8192, so the cubes cancel exactly there; the
    # argmin is 0, but no float search can tell it from any other point of that interval
    s = SumPotential((QuarticWell(center=[-1e20]), QuarticWell(center=[1e20])))
    message = ("double precision cannot resolve the argmin of a sum potential: its derivative "
               "rounds to 0 on [-8192.0, 8192.0]")
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        s.zero_set()


def test_quadratics_whose_weighted_products_overflow_have_a_finite_mean():
    # 100 * 1e307 is not a finite float, but the mean is a convex combination of the centers
    s = SumPotential((Quadratic(center=[1e307], weight=100.0), Quadratic(center=[1.0000001e307])))
    body = s.zero_set()
    assert body.lo[0] == body.hi[0] == pytest.approx(1.00000000099009901e307, rel=1e-15)


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
            gradient, curvature = QuarticWell._kernel(terms)
            return (lambda x: gradient(x) + 0.1), curvature

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
        assert abs(fd - spec.gradient([x])[0]) <= 1e-6 * abs(x) ** 3


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(CATALOG_1D),
    st.floats(-8, 8),
    st.floats(-8, 8),
)
def test_midpoint_convexity(spec, a, b):
    x, y = np.array([a]), np.array([b])
    mid = oracle_value(spec, 0.5 * (x + y))
    assert mid <= 0.5 * (oracle_value(spec, x) + oracle_value(spec, y)) + 1e-12


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(CATALOG_1D),
    st.floats(-8, 8),
    st.floats(-8, 8),
)
def test_first_order_convexity(spec, a, b):
    # F(x) >= F(y) - <x - y, f(y)> up to rounding
    x, y = np.array([a]), np.array([b])
    lower = oracle_value(spec, y) - float((x - y) @ -spec.gradient(y))
    assert oracle_value(spec, x) >= lower - 1e-10


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
            mid = oracle_value(spec, 0.5 * (x + y))
            assert mid <= 0.5 * (oracle_value(spec, x) + oracle_value(spec, y)) + 1e-12
            lower = oracle_value(spec, y) - float((x - y) @ -spec.gradient(y))
            assert oracle_value(spec, x) >= lower - 1e-10


@st.composite
def catalog_potential(draw):
    """A catalog potential in 1-D or 2-D, one term or a sum of two or three, and its dimension."""
    m = draw(st.integers(1, 2))
    terms = [draw_term(draw, m, st.lists(coords, min_size=m, max_size=m))
             for _ in range(draw(st.integers(1, 3)))]
    return (terms[0] if len(terms) == 1 else SumPotential(tuple(terms))), m


@settings(max_examples=300, deadline=None)
@given(catalog_potential(), st.data())
def test_gradient_is_monotone(case, data):
    # F is convex iff its gradient is monotone: <grad F(x) - grad F(y), x - y> >= 0.  Each
    # kind's gradient is nondecreasing per component and rounding is monotone, so every
    # component's product, and with them the inner product, is >= 0 in floats too: the
    # rounding needs no slack
    spec, m = case
    point = st.lists(coords, min_size=m, max_size=m)
    x, y = np.array(data.draw(point)), np.array(data.draw(point))
    assert np.all((spec.gradient(x) - spec.gradient(y)) * (x - y) >= 0.0)


def test_dimension_mismatch_raises():
    with pytest.raises(InputError):
        Quadratic(center=[0.0, 0.0]).gradient([1.0])
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
        assert potential_to_dict(clone) == potential_to_dict(spec)
        for x in np.linspace(-3, 3, 5):
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
    grads = spec.gradient(stack)
    assert grads.shape == stack.shape
    for j, x in enumerate(stack):
        assert np.array_equal(grads[j], spec.gradient(x))
        assert np.array_equal(-spec.gradient(stack)[j], -spec.gradient(x))


def test_stack_of_stacks_keeps_leading_axes():
    spec = Quadratic(center=[1.0, -1.0], weight=2.0)
    pts = np.arange(24.0).reshape(3, 4, 2)
    assert spec.gradient(pts).shape == (3, 4, 2)
    assert np.array_equal(spec.gradient(pts)[2, 1], spec.gradient(pts[2, 1]))


def test_bare_number_is_a_one_dimensional_point():
    spec = FlatBottom1D(0.0, 1.0)
    np.testing.assert_array_equal(spec.gradient(3.0), [2.0])
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
    # F by the oracle, which the convexity and finite-difference tests read
    values, grads = oracle_value(spec, xs[:, None]), spec.gradient(xs[:, None])
    for j, s in enumerate(xs):
        ref_value, ref_grad = flat_bottom_reference(left, right, float(s))
        assert np.array_equal(values[j], ref_value)
        assert np.array_equal(grads[j], [ref_grad])
        assert np.array_equal(spec.gradient([s]), [ref_grad])


@st.composite
def network_case(draw):
    """Random catalog networks, their sums built flat, left- or right-nested, and a state stack."""
    m = draw(st.integers(1, 3))
    point = st.lists(st.one_of(st.sampled_from([0.0, -0.0]), coords), min_size=m, max_size=m)
    nesting = draw(st.sampled_from(["flat", "left", "right"]))
    nodes = []
    for _ in range(draw(st.integers(1, 12))):
        size = draw(st.integers(1, 3))
        terms = [draw_term(draw, m, point) for _ in range(size)]
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
    return nodes, X.reshape(*lead, len(nodes), m)


@settings(max_examples=300, deadline=None)
@given(network_case())
def test_network_potential_equals_per_node_methods(case):
    nodes, X = case
    net = NetworkPotential(nodes)
    grads = net.gradient(X)
    assert grads.shape == X.shape
    for i, spec in enumerate(nodes):
        # a sum holds its leaf terms, whatever its nesting, and both add them left to right
        assert same_bits(grads[..., i, :], oracle_gradient(spec, X[..., i, :]))


@settings(max_examples=300, deadline=None)
@given(network_case(), st.data())
def test_single_potential_equals_oracle(case, data):
    # one node's potential on its own: a point (m,), a stack (..., m) or a bare number
    nodes, X = case
    i = data.draw(st.integers(0, len(nodes) - 1))
    spec, x = nodes[i], X[..., i, :]
    if x.shape == (1,) and data.draw(st.booleans()):
        x = float(x[0])
    grads = spec.gradient(x)
    assert grads.shape == (np.shape(x) or (1,))
    assert same_bits(grads, oracle_gradient(spec, x))


def hessian_diagonal(net, X):
    """(A's diagonal (N,), the Hessian's diagonal (..., N, m)), both in node order, for node
    states X (..., N, m): ``net.hessian`` at K = 0, where A = diag(a) holds each node's summed
    quadratic weights, one sample (N, m) of X at a time, in block order and back."""
    A = net.coupling(np.zeros((net.node_count, net.node_count)), 0.0)
    Xb, H = X.take(net.order, axis=-2), np.empty(X.shape)
    for lane in np.ndindex(X.shape[:-2]):
        H[lane] = np.diagonal(net.hessian(A, Xb[lane]), axis1=1, axis2=2).T
    return A.diagonal()[net.inverse], H.take(net.inverse, axis=-2)


def test_a_network_is_the_tuple_of_its_potentials_and_compiles_once():
    nodes = [SumPotential((Quadratic(center=[1.0]), QuarticWell(center=[0.0]))),
             Quadratic(center=[0.0]), FlatBottom1D(-1.0, 1.0)]
    net = NetworkPotential(nodes)
    assert isinstance(net, tuple) and list(net) == nodes and net[1] is nodes[1]
    assert net.node_count == len(net) == 3 and net.dimension == 1
    X = np.array([[0.5], [-2.0], [3.0]])
    grads = net.gradient(X)
    # a network given to the constructor is returned as is, its compiled tables with it
    assert NetworkPotential(net) is net and net._terms is NetworkPotential(net)._terms
    # a list or any other iterable of potentials compiles a new network
    for again in (NetworkPotential(nodes), NetworkPotential(iter(nodes))):
        assert again is not net and again == net
        assert np.array_equal(again.order, net.order) and same_bits(again.gradient(X), grads)


def test_kind_without_a_kernel_of_its_own_is_rejected():
    class Shifted(Quadratic):
        pass

    with pytest.raises(InputError, match="cannot compile a Shifted term"):
        NetworkPotential([Quadratic(center=[0.0]), Shifted(center=[1.0])])
    with pytest.raises(InputError, match="cannot compile a Shifted term"):
        Shifted(center=[1.0]).gradient([0.0])


@settings(max_examples=200, deadline=None)
@given(network_case(), st.data())
def test_network_potential_commutes_with_node_permutations(case, data):
    nodes, X = case
    perm = data.draw(st.permutations(range(len(nodes))))
    net, permuted = NetworkPotential(nodes), NetworkPotential([nodes[i] for i in perm])
    assert same_bits(permuted.gradient(X[..., perm, :]), net.gradient(X)[..., perm, :])
    assert same_bits(hessian_diagonal(permuted, X[..., perm, :])[1],
                     hessian_diagonal(net, X)[1][..., perm, :])


def test_network_potential_rejects_mismatched_states():
    net = NetworkPotential([Quadratic(center=[0.0, 0.0]), QuarticWell(center=[1.0, 1.0])])
    with pytest.raises(InputError):
        net.gradient(np.zeros((3, 2)))
    with pytest.raises(InputError):
        net.hessian(net.coupling(np.zeros((2, 2)), 0.0), np.zeros((2, 1)))
    with pytest.raises(InputError):
        NetworkPotential([Quadratic(center=[0.0]), Quadratic(center=[0.0, 1.0])])


@settings(max_examples=150, deadline=None)
@given(network_case())
@example(([FlatBottom1D(-1.0, 2.0)], np.array([[[-1.0]], [[2.0]]])))  # on both edges
def test_network_curvature_equals_the_oracle(case):
    # A's diagonal holds each node's quadratic weights, summed in term order, and the Hessian
    # adds the other terms' curvature, summed in term order, to it
    nodes, X = case
    a, H = hessian_diagonal(NetworkPotential(nodes), X)
    assert H.shape == X.shape
    for i, spec in enumerate(nodes):
        terms = spec.terms if isinstance(spec, SumPotential) else (spec,)
        assert a[i] == sum(t.weight for t in terms if isinstance(t, Quadratic))
        x = X[..., i, :]
        other = sum((oracle_curvature(t, x) for t in terms if not isinstance(t, Quadratic)),
                    np.zeros(x.shape))
        assert same_bits(H[..., i, :], a[i] + other)


@settings(max_examples=100, deadline=None)
@given(network_case())
def test_curvature_matches_central_differences_of_the_gradient(case):
    # the catalog is separable, so one shift of every entry differences the Hessian's diagonal
    nodes, X = case
    net, h = NetworkPotential(nodes), 1e-5
    fd = (net.gradient(X + h) - net.gradient(X - h)) / (2 * h)
    H = hessian_diagonal(net, X)[1]
    for i, spec in enumerate(nodes):
        x = X[..., i, :]
        # a flat bottom's curvature jumps at its edges: keep the stencil off them
        off_edges = np.ones(x.shape, dtype=bool)
        for t in (spec.terms if isinstance(spec, SumPotential) else (spec,)):
            if isinstance(t, FlatBottom1D):
                off_edges &= (np.abs(x - t.left) > 2 * h) & (np.abs(x - t.right) > 2 * h)
        np.testing.assert_allclose(fd[..., i, :][off_edges], H[..., i, :][off_edges],
                                   rtol=1e-6, atol=1e-6)
