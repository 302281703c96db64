import json
import math

import numpy as np
import pytest

from orliczkit import (
    AsymptotePair,
    ConstructionError,
    PhiFunction,
    SampleSpec,
    WeightFunction,
    cap_curve,
    check_a0,
    check_ainc,
    check_weak_equivalence,
    default_x_samples,
    from_curve,
    glue_small_values,
    make_family,
    power_curve,
    rebuild_with_ainc,
    region_from_dict,
    repair_asymptote,
    small_value_threshold,
    tail_asymptotes,
)

INF = math.inf


# ---------------------------------------------------------------------------
# Glueing small values


def test_glue_flattens_the_region(families):
    phi = families["example_3_2"]
    G = region_from_dict({"region": "inv_square_strip"})
    psi2 = glue_small_values(phi, G, 2.0)
    for x in ((2.0, 0.0), (0.0, 0.0), (5.0, 0.001)):
        for t in (0.3, 1.0, 3.0):
            assert abs(psi2.eval(x, t) - t * t) < 1e-12
    assert psi2.eval((2.0, 0.0), 1.0) == 1.0  # 1^p = 1


def test_glue_empty_region_is_identity():
    psi1 = from_curve(power_curve(1.0), dim=2)
    empty = region_from_dict({"region": "empty", "dim": 2})
    psi2 = glue_small_values(psi1, empty, 2.0)
    assert psi2.eval((1.0, 1.0), 0.5) == psi1.eval((1.0, 1.0), 0.5)


def test_glue_output_properties(families):
    phi = families["example_3_2"]
    G = region_from_dict({"region": "inv_square_strip"})
    psi2 = glue_small_values(phi, G, 2.0)
    # weakly equivalent to the input with L = 1, h = chi_G
    rep = check_weak_equivalence(phi, psi2, 1.0, WeightFunction.indicator(G))
    assert rep.holds
    assert check_a0(psi2).constants["beta"] == 1.0
    # p-power growth below 1 on region samples
    gx = np.linspace(1.0, 8.0, 10)
    A = np.column_stack([gx, np.zeros_like(gx)])
    assert check_ainc(psi2, 2.0, A=A, T=(0.0, 1.0)).holds


def test_glue_requires_normalization():
    psi1 = from_curve(power_curve(1.0, coef=2.0), dim=2)  # psi1(1) = 2 != 1
    G = region_from_dict({"region": "inv_square_strip"})
    with pytest.raises(ConstructionError):
        glue_small_values(psi1, G, 2.0)


def test_glue_serialization_roundtrip(families):
    G = region_from_dict({"region": "inv_square_strip"})
    psi2 = glue_small_values(families["example_3_2"], G, 2.0)
    rt = PhiFunction.from_dict(json.loads(psi2.to_json()))
    assert rt.eval((2.0, 0.0), 0.4) == psi2.eval((2.0, 0.0), 0.4)


# ---------------------------------------------------------------------------
# Threshold


def test_threshold_values(families):
    assert abs(small_value_threshold(families["example_3_2"],
                                     power_curve(2.0)) - 0.5) < 1e-7
    lin = from_curve(power_curve(1.0))
    assert abs(small_value_threshold(lin, power_curve(1.0)) - 0.5) < 1e-7
    got = small_value_threshold(families["example_3_4"], power_curve(1.0))
    assert abs(got - (math.sqrt(5.0) - 1.0) / 4.0) < 1e-7


# ---------------------------------------------------------------------------
# Capping


def test_cap_curve():
    capped = cap_curve(power_curve(1.0), 1.0)
    assert capped.value(0.5) == 0.5  # unchanged below the cap
    assert capped.value(1.0) == 1.0
    assert capped.value(2.0) == INF
    assert capped.inverse(7.0) == 1.0
    with pytest.raises(ConstructionError):
        cap_curve(power_curve(1.0), 0.0)


# ---------------------------------------------------------------------------
# Asymptote repair


def test_repair_values_and_seam():
    rep = repair_asymptote(power_curve(1.0), 1.0, 2.0)
    assert rep.value(2.0) == 2.0  # 1 + (2-1)^2
    assert rep.value(1.0) == 1.0  # continuous at the seam
    assert rep.value_left(1.0) == 1.0
    for t in np.linspace(0.0, 1.0, 11):
        assert rep.value(t) == t  # identical below the seam


def test_repair_preserves_power_growth_when_input_has_it():
    # a quadratic asymptote stays 2-power-increasing after repair
    rep = repair_asymptote(power_curve(2.0), 0.5, 2.0)
    assert check_ainc(rep, 2.0).holds


def test_repair_linear_input_fails_ainc_honestly():
    # with a linear input the small-t branch keeps ratio t/t^2 = 1/t, so
    # no finite constant works; the checker must say so
    rep = repair_asymptote(power_curve(1.0), 0.5, 2.0)
    out = check_ainc(rep, 2.0)
    assert not out.holds and "diverges_at_zero" in out.flags


# ---------------------------------------------------------------------------
# Rebuild around the asymptote


@pytest.fixture()
def rebuilt(families):
    phi = families["example_3_5"]
    pair = AsymptotePair(power_curve(2.0),
                         WeightFunction.recip_power(4.0, 2), beta=1.0)
    t1 = small_value_threshold(phi, pair.phi_inf)
    return phi, pair, t1, rebuild_with_ainc(phi, pair, t1)


def test_rebuild_regimes(rebuilt):
    phi, pair, t1, psi = rebuilt
    assert abs(t1 - 0.5) < 1e-7
    x_far = (30.0, 0.0)
    # below t1: the scaled asymptote, independent of x
    assert psi.eval(x_far, 0.3) == psi.eval((0.0, 0.0), 0.3) == 0.09
    # flat bridge where phi is still below the asymptote level
    level = pair.phi_inf.value(pair.beta * t1)
    assert psi.eval(x_far, t1) == level
    # large t: phi itself
    assert psi.eval(x_far, 10.0) == phi.eval(x_far, 10.0)


def test_rebuild_passes_required_checks(rebuilt):
    phi, pair, t1, psi = rebuilt
    rep = check_ainc(psi, 2.0)
    assert rep.holds and rep.constants["a"] <= 100.0
    assert check_weak_equivalence(phi, psi, L=1.0 / pair.beta ** 2,
                                  h=pair.h).holds


def test_rebuild_serialization_roundtrip(rebuilt):
    _, _, _, psi = rebuilt
    rt = PhiFunction.from_dict(json.loads(psi.to_json()))
    for x, t in (((0.0, 0.0), 0.3), ((5.0, 5.0), 2.0)):
        assert rt.eval(x, t) == psi.eval(x, t)


@pytest.mark.parametrize("kind", ["glued_small_values", "ainc_rebuild"])
def test_transformed_document_replays(families, kind):
    # the Example 3.2 strip glued, or rebuilt at its own threshold t1
    phi = families["example_3_2"]
    G = region_from_dict({"region": "inv_square_strip"})
    if kind == "glued_small_values":
        psi = glue_small_values(phi, G, 2.0)
    else:
        pair = AsymptotePair(power_curve(2.0), WeightFunction.indicator(G),
                             beta=1.0)
        psi = rebuild_with_ainc(phi, pair,
                                small_value_threshold(phi, pair.phi_inf))
    assert psi.kind == kind
    replayed = PhiFunction.from_json(psi.to_json())
    assert replayed.to_json() == psi.to_json()
    X, t = default_x_samples(psi.domain), SampleSpec().t_grid()
    assert (replayed.eval_grid(X, t).tobytes()
            == psi.eval_grid(X, t).tobytes())


def test_asymptote_pair_validation():
    h = WeightFunction.recip_power(4.0, 2)
    with pytest.raises(ConstructionError):
        AsymptotePair(power_curve(2.0), h, beta=1.5)
    with pytest.raises(ConstructionError):
        AsymptotePair(power_curve(2.0), h, beta=0.5, s=0.0)
    unbounded = WeightFunction("bad", lambda X: np.ones(len(X)), None, None)
    with pytest.raises(ConstructionError):
        AsymptotePair(power_curve(2.0), unbounded, beta=0.5)


# ---------------------------------------------------------------------------
# Tail asymptotes


def test_tails_of_families(families):
    est = tail_asymptotes(families["example_3_4"])
    assert est.converged
    t = 2.0
    assert abs(est.upper.value(t) - (t * t + t)) < 1e-12
    assert abs(est.lower.value(t) - (t * t + t)) < 1e-12
    est = tail_asymptotes(families["example_3_5"])
    assert est.converged
    assert abs(est.upper.value(3.0) - 9.0) < 1e-12


def test_tails_x_independent_identity():
    phi = from_curve(power_curve(2.0), dim=2)
    est = tail_asymptotes(phi)
    assert est.converged and est.upper is est.lower
    assert est.upper.value(2.0) == 4.0


def test_tails_split_envelopes(families):
    # the strip keeps its linear branch out to infinity along the axis
    est = tail_asymptotes(families["example_3_2"])
    assert est.converged
    assert est.upper.value(0.5) == 0.5
    assert est.lower.value(0.5) == 0.25


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tails_with_equal_infinite_envelopes_converge():
    """Past the cap both shells read +inf: equal envelopes agree, with no
    inf - inf in the comparison (an error under this warning filter)."""
    strip = region_from_dict({"region": "inv_square_strip"})
    capped = from_curve(cap_curve(power_curve(2.0), 3.0), dim=2)
    est = tail_asymptotes(glue_small_values(capped, strip, 2.0))
    assert est.converged and "inconclusive" not in est.flags
    assert est.upper.value(4.0) == INF
