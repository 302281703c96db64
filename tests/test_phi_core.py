import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orliczkit import (
    AsymptotePair,
    ConstructionError,
    Domain,
    DomainError,
    PhiCurve,
    PhiFunction,
    PowerTerm,
    WeightFunction,
    from_curve,
    glue_small_values,
    make_family,
    power_curve,
    rebuild_with_ainc,
    region_from_dict,
    small_value_threshold,
)
from orliczkit.phi_core import _last_t_where

INF = math.inf


# ---------------------------------------------------------------------------
# PowerTerm / PhiCurve structure


def test_power_term_validation():
    with pytest.raises(ConstructionError):
        PowerTerm(-1.0, 2.0)
    with pytest.raises(ConstructionError):
        PowerTerm(1.0, -0.5)
    with pytest.raises(ConstructionError):
        PowerTerm(1.0, 2.0, shift=-1.0)


def test_curve_validation_rejects_bad_shapes():
    with pytest.raises(ConstructionError):  # breakpoints must start at 0
        PhiCurve((1.0,), ((PowerTerm(1.0, 2.0),),))
    with pytest.raises(ConstructionError):  # constant first piece
        PhiCurve((0.0,), ((PowerTerm(1.0, 0.0),),))
    with pytest.raises(ConstructionError):  # downward jump at the seam
        PhiCurve((0.0, 1.0),
                 ((PowerTerm(1.0, 1.0),), (PowerTerm(0.1, 1.0),)))
    with pytest.raises(ConstructionError):  # bounded curve, no escape
        PhiCurve((0.0, 1.0),
                 ((PowerTerm(1.0, 1.0),), (PowerTerm(1.0, 0.0),)))


def test_curve_value_and_left_limit():
    c = PhiCurve((0.0, 1.0),
                 ((PowerTerm(1.0, 1.0),),
                  (PowerTerm(1.0, 2.0), PowerTerm(1.0, 1.0))))
    assert c.value(0.0) == 0.0
    assert c.value(0.5) == 0.5
    assert c.value(2.0) == 6.0
    assert c.value_left(1.0) == 1.0  # left branch at the seam
    assert c.value(1.0) == 2.0
    np.testing.assert_allclose(c.value(np.array([0.25, 2.0])), [0.25, 6.0])


def test_infinite_tail():
    c = PhiCurve((0.0,), ((PowerTerm(1.0, 1.0),),), infinite_tail=1.0)
    assert c.value(1.0) == 1.0
    assert c.value(1.5) == INF
    assert c.inverse(5.0) == 1.0  # the jump supplies all large values


# ---------------------------------------------------------------------------
# Inverse


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_inverse_power_closed_form(p):
    c = power_curve(p)
    for tau in np.geomspace(1e-3, 1e3, 25):
        assert abs(c.inverse(tau) - tau ** (1.0 / p)) <= 1e-10 * tau ** (1.0 / p)


def test_inverse_piecewise(families):
    phi = families["example_3_4"]
    # at the origin the seam is 1/2; phi(t) = t^2 + t above it
    assert abs(phi.inverse((0.0, 0.0), 6.0) - 2.0) < 1e-10
    assert abs(phi.inverse((0.0, 0.0), 0.25) - 0.25) < 1e-10
    assert phi.inverse((0.0, 0.0), 0.0) == 0.0


def test_inverse_is_generalized_inf():
    # flat piece: inverse returns the left edge of the level set
    c = PhiCurve((0.0, 1.0, 2.0),
                 ((PowerTerm(1.0, 1.0),),
                  (PowerTerm(1.0, 0.0, shift=1.0),),
                  (PowerTerm(1.0, 0.0, shift=2.0), PowerTerm(1.0, 1.0, shift=2.0))))
    assert c.value(1.5) == 1.0
    assert abs(c.inverse(1.0) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# Conjugate


def test_conjugate_square():
    c = power_curve(2.0)
    for t in np.geomspace(1e-2, 1e2, 17):
        assert abs(c.conjugate(t) - t * t / 4.0) <= 1e-8 * max(t * t / 4.0, 1.0)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_conjugate_power_closed_form(p):
    c = power_curve(p)
    q = p / (p - 1.0)
    for t in np.geomspace(1e-1, 1e1, 9):
        exact = (p - 1.0) * (t / p) ** q
        assert abs(c.conjugate(t) - exact) <= 1e-8 * max(exact, 1.0)


def test_conjugate_linear():
    c = power_curve(1.0)
    assert c.conjugate(0.5) == 0.0
    assert c.conjugate(1.0) == 0.0
    assert c.conjugate(1.5) == INF


def test_conjugate_capped_linear():
    # sup_{s <= 1} (s t - s) = max(t - 1, 0)
    c = PhiCurve((0.0,), ((PowerTerm(1.0, 1.0),),), infinite_tail=1.0)
    assert abs(c.conjugate(3.0) - 2.0) < 1e-8
    assert c.conjugate(0.5) == 0.0


# ---------------------------------------------------------------------------
# Domain / Region


def test_domain_membership():
    d = Domain(1, (-2.0,), (2.0,))
    assert d.contains((0.0,)) and not d.contains((2.5,))
    lo, hi = d.sampling_box(16.0)
    assert lo[0] >= -2.0 and hi[0] <= 2.0


def test_region_inv_square_strip():
    G = region_from_dict({"region": "inv_square_strip"})
    assert G.contains((2.0, 0.1)) and G.contains((1.0, 1.0))
    assert not G.contains((0.5, 0.0)) and not G.contains((2.0, 0.5))
    assert G.measure == 2.0


def test_domain_error_outside(families):
    # point and batch paths both refuse a point outside a bounded domain
    phi = families["example_4_6"]
    for call in (lambda: phi.eval((3.0,), 2.0), lambda: phi.curve_at((3.0,)),
                 lambda: phi.inverse((3.0,), 2.0),
                 lambda: phi.eval_many(np.array([[0.0], [3.0]]), np.array([2.0, 2.0])),
                 lambda: phi.eval_grid(np.array([[3.0]]), np.array([2.0])),
                 lambda: phi.conjugate_value(np.array([[3.0]]), np.array([2.0]))):
        with pytest.raises(DomainError):
            call()
    assert phi.eval_many(np.array([[2.0]]), np.array([2.0]))[0] == 2.0  # closed box
    # an unbounded domain takes rows of any width
    square = from_curve(power_curve(2.0), dim=1)
    np.testing.assert_array_equal(
        square.eval_many(np.zeros((3, 2)), np.array([1.0, 2.0, 3.0])), [1.0, 4.0, 9.0])


# ---------------------------------------------------------------------------
# Families


def test_variable_exponent_formula():
    phi = make_family("variable_exponent",
                      {"p": {"field": "const", "value": 3.0}}, None)
    assert abs(phi.eval((0.0,), 2.0) - 8.0) < 1e-12


def test_double_phase_formula():
    phi = make_family("double_phase",
                      {"p": 1.5, "q": 3.0,
                       "a": {"field": "const", "value": 2.0}}, None)
    t = 1.7
    assert abs(phi.eval((0.0,), t) - (t ** 1.5 + 2.0 * t ** 3)) < 1e-12
    with pytest.raises(ConstructionError):
        make_family("double_phase", {"p": 3.0, "q": 2.0}, None)


def test_vdp_formula():
    phi = make_family("vdp", {"p": {"field": "const", "value": 1.5},
                              "q": {"field": "const", "value": 2.5},
                              "a": {"field": "const", "value": 0.5}}, None)
    t = 0.9
    assert abs(phi.eval((1.0,), t) - (t ** 1.5 + 0.5 * t ** 2.5)) < 1e-12


_PARAMS = {
    "orlicz": {"p": 2.5, "dim": 2},
    "curve": {"dim": 2, "curve": PhiCurve(
        (0.0, 1.0), ((PowerTerm(1.0, 1.5),),
                     (PowerTerm(1.0, 0.0, shift=1.0),
                      PowerTerm(2.0, 2.0, shift=1.0)))).to_dict()},
    "variable_exponent": {"dim": 2, "p": {"field": "pw_linear",
                                          "points": [[0.0, 2.0], [6.0, 1.2]]}},
    "double_phase": {"p": 1.5, "q": 2.5, "dim": 2,
                     "a": {"field": "indicator",
                           "of": {"region": "ball", "center": [0.0, 0.0],
                                  "radius": 5.0}}},
    "vdp": {"dim": 2, "p": {"field": "pw_linear", "points": [[0.0, 2.0], [6.0, 1.5]]},
            "q": {"field": "const", "value": 2.5},
            "a": {"field": "abs_power", "coef": 1.0, "offset": 1.0, "power": -1.0}},
}


def _sample_family(name, families):
    if name in families:
        return families[name]
    if name in _PARAMS:
        return make_family(name, _PARAMS[name], None)
    strip = region_from_dict({"region": "inv_square_strip"})
    if name == "glued":
        return glue_small_values(families["example_3_2"], strip, 1.5)
    phi = families["example_3_5"]
    pair = AsymptotePair(power_curve(2.0),
                         WeightFunction.recip_power(4.0, 2), beta=1.0)
    return rebuild_with_ainc(phi, pair, small_value_threshold(phi, pair.phi_inf))


@pytest.mark.parametrize("name", ["example_3_2", "example_3_4", "example_3_5",
                                  "example_4_6", "orlicz", "curve",
                                  "variable_exponent", "double_phase", "vdp",
                                  "glued", "rebuilt"])
def test_vectorized_eval_matches_curves(name, families):
    # batch and per-point evaluation share one kernel, so they agree
    # exactly, also at every breakpoint where two pieces meet
    phi = _sample_family(name, families)
    rng = np.random.default_rng(7)
    lo, hi = phi.domain.sampling_box(8.0)
    X = np.column_stack([rng.uniform(l, h, 40) for l, h in zip(lo, hi)])
    X = np.vstack([np.zeros((1, phi.domain.dim)), X,
                   [[2.0, 0.0], [4.0, 0.01]] if phi.domain.dim == 2 else [[1.5], [-2.0]]])
    T = rng.uniform(1e-3, 10.0, len(X))
    curves = [phi.curve_at(tuple(x)) for x in X]
    for c in curves:
        assert c == PhiCurve.from_dict(c.to_dict())  # a valid curve
    # conjugates likewise, at t = 0 and past the slope of a linear tail
    # (example_4_6 is t at x = -2)
    Tc = np.where(np.arange(len(X)) % 5 == 0, 0.0, T)
    Tc[-1] = 3.0
    conj = phi.conjugate_value(X, Tc)
    np.testing.assert_array_equal(conj, [c.conjugate(t) for c, t in zip(curves, Tc)])
    assert np.all(conj[Tc == 0.0] == 0.0)
    assert np.isinf(conj[-1]) == (name == "example_4_6")
    X = np.vstack([X] + [np.repeat(x[None], len(c.breakpoints), 0)
                         for x, c in zip(X, curves)])
    T = np.concatenate([T] + [c.breakpoints for c in curves])
    direct = np.array([phi.curve_at(tuple(x)).value(t) for x, t in zip(X, T)])
    np.testing.assert_array_equal(phi.eval_many(X, T), direct)
    np.testing.assert_array_equal(
        [phi.eval(tuple(x), t) for x, t in zip(X, T)], direct)


def test_eval_many_validates_like_curve_at():
    phi = make_family("variable_exponent", {"p": {"field": "const", "value": 0.5}})
    with pytest.raises(ConstructionError):
        phi.eval((0.0,), 4.0)
    with pytest.raises(ConstructionError):
        phi.eval_many(np.array([[0.0]]), np.array([4.0]))
    # glueing needs single powers below t = 1; no lattice sample lies in
    # the small ball, so only evaluation there can tell
    sum_below_one = from_curve(PhiCurve(
        (0.0,), ((PowerTerm(0.5, 1.0), PowerTerm(0.5, 2.0)),)), dim=2)
    ball = region_from_dict({"region": "ball", "center": [0.5, 0.5],
                             "radius": 0.1})
    psi = glue_small_values(sum_below_one, ball, 2.0)
    with pytest.raises(ConstructionError):
        psi.curve_at((0.5, 0.5))
    with pytest.raises(ConstructionError):
        psi.eval_many(np.array([[0.5, 0.5]]), np.array([0.5]))
    assert psi.eval_many(np.array([[3.0, 3.0]]), np.array([0.5]))[0] == 0.375


def test_one_point_membership_and_glued_eval():
    strip = region_from_dict({"region": "inv_square_strip"})
    for region, point in ((strip, [2.0, 0.0]),
                          (region_from_dict({"region": "ball", "center": [0.0, 0.0],
                                             "radius": 1.0}), [0.5, 0.0]),
                          (region_from_dict({"region": "halfplane",
                                             "normal": [1.0, 0.0]}), [1.0, 0.0])):
        inside = region.contains_many(np.array([point]))
        assert inside.dtype == bool and inside.shape == (1,) and inside[0]
    psi = glue_small_values(make_family("example_3_2"), strip, 1.5)
    assert psi.eval_many(np.array([[2.0, 0.0]]), np.array([0.5]))[0] == pytest.approx(
        0.5 ** 1.5, rel=1e-14)
    # above t = 1 the strip keeps phi = t^2
    assert psi.eval((2.0, 0.0), 3.0) == 9.0


def test_example_formulas(families):
    # on the strip: linear below 1; off it: square
    phi = families["example_3_2"]
    assert phi.eval((2.0, 0.1), 0.5) == 0.5
    assert phi.eval((0.0, 0.0), 0.5) == 0.25
    assert phi.eval((2.0, 0.1), 2.0) == 4.0
    # seam at 1/(|x|+2)
    phi = families["example_3_4"]
    assert phi.eval((0.0, 0.0), 0.25) == 0.25
    # pieces are half-open: the seam 1/2 at x = 0 belongs to t^2 + t
    assert phi.eval((0.0, 0.0), 0.5) == 0.75
    assert phi.eval_many(np.zeros((1, 2)), np.array([0.5]))[0] == 0.75
    assert phi.eval((0.0, 0.0), 0.75) == 0.75 ** 2 + 0.75
    # damped linear branch below (|x|+1)^-2
    phi = families["example_3_5"]
    x = (3.0, 4.0)  # |x| = 5, weight 36
    assert abs(phi.eval(x, 1e-3) - 1e-3 / 36.0) < 1e-15
    assert phi.eval(x, 0.5) == 0.25
    # exponent profile min(2, 3 - |x|)
    phi = families["example_4_6"]
    assert abs(phi.eval((1.5,), 2.0) - 2.0 ** 1.5) < 1e-12
    assert abs(phi.eval((0.5,), 2.0) - 4.0) < 1e-12


# ---------------------------------------------------------------------------
# Serialization


@pytest.mark.parametrize("name", ["example_3_2", "example_3_4",
                                  "example_3_5", "example_4_6"])
def test_serialization_roundtrip(name, families):
    phi = families[name]
    rt = PhiFunction.from_json(phi.to_json())
    lo, hi = phi.domain.sampling_box(4.0)
    x = tuple(0.5 * (l + h) for l, h in zip(lo, hi))
    for t in (1e-3, 0.5, 2.0, 50.0):
        assert rt.eval(x, t) == phi.eval(x, t)
    assert rt.to_json() == phi.to_json()  # canonical form is stable


def test_curve_roundtrip():
    c = PhiCurve((0.0, 1.0),
                 ((PowerTerm(2.0, 1.5),),
                  (PowerTerm(2.0, 1.5), PowerTerm(1.0, 3.0, shift=1.0))),
                 infinite_tail=9.0)
    rt = PhiCurve.from_dict(json.loads(json.dumps(c.to_dict())))
    assert rt == c


# ---------------------------------------------------------------------------
# Properties


@given(st.floats(1.0, 4.0), st.floats(-30.0, 3.0), st.floats(1e-3, 1e3),
       st.sampled_from(["power", "two_powers", "linear_tail"]))
def test_inverse_identity_property(p, log_tau, t, name):
    c = {"power": power_curve(p),
         "two_powers": PhiCurve((0.0,), ((PowerTerm(1.0, 1.5), PowerTerm(1.0, 3.0)),)),
         **_multi_piece_curves(p)}[name]
    tau = 10.0 ** log_tau
    # phi(phi^{-1}(tau)) = tau and phi^{-1}(phi(t)) = t for strictly
    # increasing continuous curves, at every scale: the multi-term pieces
    # are inverted by a search whose tolerance is relative
    assert abs(c.value(c.inverse(tau)) - tau) <= 1e-9 * tau
    assert abs(c.inverse(c.value(t)) - t) <= 1e-9 * t


def test_level_search_brackets_at_every_scale():
    # fits(lo) holds and fits(hi) fails, with hi - lo <= tol * lo, from
    # 1e-200 to 1e200
    roots = np.array([1e-200, 1e-30, 0.3, 1.0, 7e5, 1e200])
    lo, hi = _last_t_where(lambda t: t < roots, len(roots), 1e-12)
    assert np.all(lo < roots) and np.all(hi >= roots) and np.all(hi - lo <= 1e-12 * lo)
    # 0 below 1e-300 (hi still fails) and where fits(0) fails; inf past 1e300
    lo, hi = _last_t_where(lambda t: t < np.array([1e-305, 1e301, 0.0]), 3, 1e-12)
    assert lo.tolist() == [0.0, INF, 0.0] and 1e-305 <= hi[0] <= 2e-300 and hi[2] == 0.0

    def above_floor(t):  # a floor is a cut-off: nothing below it is asked
        assert np.all(t >= 2.0 ** -40)
        return t < 1e-20

    lo, hi = _last_t_where(above_floor, 1, 1e-12, floor=2.0 ** -40)
    assert (lo[0], hi[0]) == (0.0, 2.0 ** -40)


def _multi_piece_curves(p: float) -> dict:
    """Curves with seams: t then t^p from 1, an example_3_5 row (t/9 then
    t^2 from 1/9), three single powers with exponents >= p, and 4t^2 + t
    then a linear tail of slope 8 from 1."""
    rng = np.random.default_rng(int(p * 1000))
    bps, pieces = [0.0], [(PowerTerm(rng.uniform(0.5, 2.0), p),)]
    for b in np.sort(rng.uniform(0.2, 4.0, 2)):
        prev = pieces[-1][0]
        e = p + rng.uniform(0.0, 1.5)
        # the next piece starts at or above the left value: no downward jump
        c = prev.coef * b ** (prev.exponent - e) * rng.uniform(1.0, 2.0)
        bps.append(float(b))
        pieces.append((PowerTerm(c, e),))
    return {"seam": PhiCurve((0.0, 1.0), ((PowerTerm(1.0, 1.0),), (PowerTerm(1.0, p),))),
            "example_3_5": make_family("example_3_5").curve_at((2.0, 0.0)),
            "random_powers": PhiCurve(tuple(bps), tuple(pieces)),
            "linear_tail": PhiCurve((0.0, 1.0), (
                (PowerTerm(4.0, 2.0), PowerTerm(1.0, 1.0)),
                (PowerTerm(5.0, 0.0, shift=1.0), PowerTerm(8.0, 1.0, shift=1.0))))}


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_conjugate_matches_brute_force_sup(p):
    # a dense sweep of s*t - phi(s) never beats the conjugate, which is
    # within 1e-3 of it; a stationary point outside its piece would
    # overshoot (t -> t^2 from 1 once gave t^2/4 at t = 0.5, not 0), and a
    # sweep starting past the seam would miss the top of 4s^2 + s (at
    # t = 7 the gain peaks at s = 3/4, and the slope-8 tail never doubles)
    for name, c in _multi_piece_curves(p).items():
        seams = np.array(c.breakpoints[1:])
        for t in (0.05, 0.5, 1.0, 2.0, 7.0):
            top = 1.0
            while c.value(top) < 2.0 * t * top and top < 1e6:
                top *= 2.0
            s = np.concatenate([np.geomspace(1e-6, top, 200_001), seams,
                                seams * (1.0 - 1e-12)])
            brute = max(float(np.max(s * t - c.value(s))), 0.0)
            conj = c.conjugate(t)
            assert conj >= brute, (name, t)
            assert conj <= brute + 1e-3 * max(brute, 1e-12), (name, t, conj, brute)


@given(st.floats(1.1, 4.0), st.floats(0.05, 20.0),
       st.sampled_from(["power", "seam", "example_3_5", "random_powers",
                        "linear_tail"]))
def test_conjugate_young_inequality(p, t, name):
    c = power_curve(p) if name == "power" else _multi_piece_curves(p)[name]
    conj = c.conjugate(t)
    for s in np.concatenate([np.geomspace(1e-3, 1e3, 20), c.breakpoints]):
        assert s * t <= c.value(s) + conj + 1e-8 * max(1.0, s * t)
