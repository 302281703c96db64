import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from orliczkit import (
    AsymptotePair,
    ConstructionError,
    Domain,
    DomainError,
    GridFunction,
    PhiCurve,
    PhiFunction,
    PowerTerm,
    SpecError,
    WeightFunction,
    conjugate_function,
    from_curve,
    glue_small_values,
    make_family,
    modular,
    power_curve,
    rebuild_with_ainc,
    region_from_dict,
    small_value_threshold,
)
from orliczkit.conditions import default_x_samples
from orliczkit.phi_core import PowerTable, _last_t_where

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


def test_conjugate_finds_a_maximiser_below_the_sweep():
    # t^1.05 as two half terms has no stationary candidate, and its
    # maximiser (t / 1.05)^20 (14.4 at t = 1.2) lies below the six decades
    # the first sweep covers: that sweep peaks at its lowest point and is
    # redone down to 1e-12
    split = PhiCurve((0.0,), ((PowerTerm(0.5, 1.05), PowerTerm(0.5, 1.05)),))
    for t in (1.2, 1.5, 2.0):
        assert split.conjugate(t) == pytest.approx(power_curve(1.05).conjugate(t), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_conjugate_power_extreme_levels(p):
    # the sweep's bracket grows past 2^200 (t^2 at 1e100 peaks at s = 5e99)
    # and a supremum past the largest float is +inf, never nan
    c = power_curve(p)
    for t in (1e50, 1e100, 1e200, 1e300, INF):
        with np.errstate(over="ignore"):
            exact = (p - 1.0) * (np.float64(t) / p) ** (p / (p - 1.0))
        conj = c.conjugate(t)
        assert conj == exact == INF or abs(conj - exact) <= 1e-8 * exact, (t, conj, exact)


def test_conjugate_computes_each_distinct_row_once(conjugate_rows):
    # rows and levels repeat, some one ulp apart: each distinct (row bits,
    # level) reaches the supremum once, and every row gets its own curve's
    # conjugate bit for bit
    from orliczkit.phi_core import PowerTable

    p2, b05, t07 = (float(np.nextafter(v, INF)) for v in (2.0, 0.5, 0.7))
    kinds = np.array([(2.0, 1.0, 1.0, 3.0, INF), (p2, 1.0, 1.0, 3.0, INF),
                      (1.5, 0.5, 2.0, 2.5, INF), (1.5, b05, 2.0, 2.5, INF),
                      (1.5, 0.5, 2.0, 2.5, 4.0), (1.0, 1.0, 0.5, 1.0, INF)])
    rng = np.random.default_rng(3)
    rows = kinds[rng.integers(0, len(kinds), 80)]
    T = rng.choice([0.0, 0.7, t07, 3.0, INF], 80)
    p, b, c, q, tail = rows.T
    table = PowerTable.build(80, [0.0, b], [[(1.0, p, 0.0)], [(1.0, p, 0.0), (c, q, b)]], tail)
    conj = table.conjugate(T)
    assert conjugate_rows == [len({(r.tobytes(), t) for r, t, v in zip(rows, T, conj)
                                   if t > 0 and v < INF})]
    np.testing.assert_array_equal(conj, [table.curve(i).conjugate(t) for i, t in enumerate(T)])
    assert np.all(conj[T == INF] == INF) and np.all(conj[T == 0.0] == 0.0)


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


def test_points_of_another_width_lie_outside():
    """A row of another width than the domain's dimension lies outside it,
    bounded or not: a 1D function once evaluated a 3-coordinate point by
    its norm (3.03) and measured a 2D grid (3.25)."""
    phi = make_family("variable_exponent", {"p": {"field": "const", "value": 1.6}})
    with pytest.raises(DomainError):
        phi.eval_many(np.array([[0.0, 0.2, 0.3]]), np.array([2.0]))
    with pytest.raises(DomainError):
        modular(phi, GridFunction(((-1.0, 1.0),) * 2, np.full((4, 4), 1.5)))
    for dom in (Domain(1), Domain(2), Domain(1, (-2.0,), (2.0,))):
        X = np.zeros((2, 3 - dom.dim))
        assert not dom.contains_many(X).any()
        assert dom.contains_many(np.zeros((2, dom.dim))).all()


# ---------------------------------------------------------------------------
# Families


def test_variable_exponent_formula():
    phi = make_family("variable_exponent",
                      {"p": {"field": "const", "value": 3.0}}, None)
    assert abs(phi.eval((0.0,), 2.0) - 8.0) < 1e-12
    # p(x) = 1 + |x|^2 / 4
    phi = make_family("variable_exponent",
                      {"p": {"field": "poly_abs", "coeffs": [1, 0, 0.25]}}, None)
    for x, t in ((0.0, 3.0), (1.0, 2.0), (-2.0, 3.0), (3.0, 0.5)):
        assert phi.eval((x,), t) == pytest.approx(t ** (1 + x * x / 4), rel=1e-12)
    with pytest.raises(SpecError) as err:
        make_family("variable_exponent",
                    {"p": {"field": "poly_abs", "coeffs": [2, "x"]}}, None)
    assert err.value.pointer == "/p/coeffs/1"


def test_double_phase_formula():
    phi = make_family("double_phase",
                      {"p": 1.5, "q": 3.0,
                       "a": {"field": "const", "value": 2.0}}, None)
    t = 1.7
    assert abs(phi.eval((0.0,), t) - (t ** 1.5 + 2.0 * t ** 3)) < 1e-12
    with pytest.raises(ConstructionError):
        make_family("double_phase", {"p": 3.0, "q": 2.0}, None)


def test_ball_weight_far_out_is_quiet():
    """A ball-indicator weight measures distance without squaring
    overflow: at (1e300, 1e300) it reads 0 with no RuntimeWarning (an
    error under the test suite's warning filter)."""
    ball = {"region": "ball", "center": [0.0, 0.0], "radius": 1.0}
    phi = make_family("double_phase", {"dim": 2, "p": 2, "q": 3,
                                       "a": {"field": "indicator",
                                             "of": ball}})
    assert phi.eval((1e300, 1e300), 2.0) == 4.0
    assert phi.eval((0.5, 0.0), 2.0) == 12.0


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


_SAMPLE_NAMES = ["example_3_2", "example_3_4", "example_3_5", "example_4_6",
                 "orlicz", "curve", "variable_exponent", "double_phase", "vdp",
                 "glued", "rebuilt"]


def _repeated_row_table(name, families):
    """A table whose rows repeat: a family's table at its default samples
    (every row alike for an x-independent one, two kinds of row for
    example_3_2) with every other point again; or per-row exponents 1, 2
    and 0.5 in turn; or coefficients 0.0 and -0.0 in turn; or a second
    piece, t^3 from 1 on, in every other row only."""
    if name == "exponents":
        return PowerTable.build(7, [0.0], [[(1.5, np.resize([1.0, 2.0, 0.5], 7), 0.0)]])
    if name == "signed_zero":
        return PowerTable.build(4, [0.0], [[(np.array([0.0, -0.0, 0.0, -0.0]), 1.0, 0.0)]])
    if name == "ragged":
        return PowerTable.build(4, [0.0, np.array([1.0, INF] * 2)], [
            [(1.0, 2.0, 0.0)], [(np.array([1.0, 0.0] * 2), 3.0, np.array([0.0, INF] * 2))]])
    phi = _sample_family(name, families)
    X = default_x_samples(phi.domain)
    return phi.table(np.vstack([X, X[::2]]))


@given(name=st.sampled_from(_SAMPLE_NAMES + ["exponents", "signed_zero", "ragged"]),
       levels=st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, INF]),
                                 st.floats(0.0, 1e300)), min_size=1, max_size=6))
@example(name="signed_zero", levels=[0.0, 3.0])
@example(name="double_phase", levels=[1.0, INF])
@example(name="ragged", levels=[2.0, INF])
@example(name="exponents", levels=[0.25, 1.0, 4.0])
@example(name="glued", levels=[0.5, 1.0, 2.0])
@example(name="rebuilt", levels=[1e-3, 0.5, 2.0])
def test_shared_levels_evaluate_each_row_as_alone(families, name, levels):
    """At one shared row of levels, each distinct table row is evaluated
    once and its values gathered to its repeats: every row is bit for bit
    the row evaluated alone, at +inf too, as it is given the levels as its
    own row, and 0.0 and -0.0 coefficients stay apart."""
    if name == "signed_zero":  # 0 * inf is nan, with a warning, alone too
        levels = [t for t in levels if t < INF] or [0.0]
    table = _repeated_row_table(name, families)
    T = np.array([levels])
    together = table.value(T)
    alone = np.vstack([table.rows([i]).value(T) for i in range(len(table.tail))])
    np.testing.assert_array_equal(together.view(np.int64), alone.view(np.int64))
    per_row = table.value(np.repeat(T, len(alone), axis=0))  # one level row each
    np.testing.assert_array_equal(per_row.view(np.int64), alone.view(np.int64))


def test_distinct_rows_are_found_by_their_bits(families):
    """The plan of distinct rows: one row for an x-independent family, one
    per side of example_3_2's strip, none when every row differs."""
    orlicz = make_family("orlicz", {"p": 2.0, "dim": 2})
    X = default_x_samples(orlicz.domain)
    assert len(orlicz.table(X)._distinct[0].tail) == 1
    strip = families["example_3_2"].table(np.array([[0.0, 0.0], [5.0, 0.01], [5.0, 3.0]]))
    assert len(strip._distinct[0].tail) == 2
    # radial: the lattice's mirror points repeat rows, random points do not
    radial = make_family("example_3_4")
    assert len(radial.table(X)._distinct[0].tail) < len(X)
    rng = np.random.default_rng(0)
    assert radial.table(rng.uniform(-4.0, 4.0, (20, 2)))._distinct is None
    signed = _repeated_row_table("signed_zero", families)
    assert signed._distinct[1].tolist() in ([0, 1, 0, 1], [1, 0, 1, 0])
    assert np.signbit(signed.value(np.array([[3.0]]))[:, 0]).tolist() == [False, True] * 2


@pytest.mark.parametrize("name", _SAMPLE_NAMES)
def test_phi_and_conjugate_vanish_at_zero(name, families):
    """phi(x, 0) and phi*(x, 0) are exactly +0.0 at every point, so a
    modular may skip the cells where f = 0."""
    phi = _sample_family(name, families)
    rng = np.random.default_rng(3)
    lo, hi = phi.domain.sampling_box(8.0)
    X = np.column_stack([rng.uniform(l, h, 200) for l, h in zip(lo, hi)])
    for values in (phi.eval_many(X, np.zeros(len(X))),
                   conjugate_function(phi).eval_many(X, np.zeros(len(X)))):
        assert np.all(values == 0.0) and not np.any(np.signbit(values))


@pytest.mark.parametrize("name", _SAMPLE_NAMES)
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
    # at(lo) <= 1 < at(hi), with hi - lo <= tol * lo, from 1e-200 to
    # 1e200; the search's first evaluation, at 1, comes back with them
    roots = np.array([1e-200, 1e-30, 0.3, 1.0, 7e5, 1e200])
    lo, hi, first = _last_t_where(lambda t: t / roots, len(roots), 1e-12)
    assert np.all(lo <= roots) and np.all(hi > roots) and np.all(hi - lo <= 1e-12 * lo)
    np.testing.assert_array_equal(first, 1.0 / roots)
    # (0, floor) below the floor 1e-300 and where at(0) > 1: no caller
    # asks below the floor; (>= 1e300, inf) past 1e300
    lo, hi, _ = _last_t_where(lambda t: t / np.array([1e-305, 1e301, 1.0]) + [0, 0, 2],
                              3, 1e-12)
    assert lo[[0, 2]].tolist() == [0.0, 0.0] and hi[[0, 2]].tolist() == [1e-300, 1e-300]
    assert lo[1] >= 1e300 and hi[1] == INF

    def above_floor(t):  # a floor is a cut-off: nothing below it is asked
        assert np.all(t >= 2.0 ** -40)
        return t / 1e-20

    lo, hi, _ = _last_t_where(above_floor, 1, 1e-12, floor=2.0 ** -40)
    assert (lo[0], hi[0]) == (0.0, 2.0 ** -40)


@pytest.fixture
def piece_calls(monkeypatch):
    """The number of ``PowerTable._piece`` calls, reset by the test."""
    calls, piece = [0], PowerTable._piece

    def counted(self, *args):
        calls[0] += 1
        return piece(self, *args)

    monkeypatch.setattr(PowerTable, "_piece", counted)
    return calls


@pytest.mark.parametrize("name,params,x", [
    ("double_phase", {"p": 2, "q": 3, "a": {"field": "abs_power", "coef": 1, "power": 1}},
     [0.5]),
    ("example_3_4", {}, [0.5, 0.0])])
def test_level_search_cost(piece_calls, name, params, x):
    """A two-term piece is inverted at every level from 1e-30 to 1e30 in
    at most 20 piece evaluations, to 1e-9 relative; the small-value
    threshold of the double phase takes at most 20 too."""
    table = make_family(name, params).table(np.array([x]))
    for tau in 10.0 ** np.arange(-30.0, 31.0):
        piece_calls[0] = 0
        s = table.inverse(tau)[0]
        assert piece_calls[0] <= 20, tau
        assert abs(table.value(np.array([[s]]))[0, 0] - tau) <= 1e-9 * tau
    if name == "double_phase":
        piece_calls[0] = 0
        small_value_threshold(make_family(name, params), power_curve(2.0))
        assert piece_calls[0] <= 20


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
