import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orliczkit import (
    Domain,
    PhiCurve,
    PhiFunction,
    PowerTerm,
    SampleSpec,
    WeightFunction,
    cap_curve,
    check_a0,
    check_a1,
    check_a2,
    check_adec,
    check_ainc,
    check_equivalence,
    check_weak_equivalence,
    default_x_samples,
    doubling_scale,
    enlarge_ainc_constant,
    exponent_from_doubling,
    from_curve,
    glue_small_values,
    make_family,
    power_curve,
    region_from_dict,
    reports_table,
    weight_from_dict,
)
from orliczkit import conditions
from orliczkit.conditions import BETA_FLOOR, CHECK_TOL, N_BALLS, X_RADIUS, _ball_pairs, \
    _holds, _sampled_sup, _within
from orliczkit.phi_core import UNIT_BALL_VOLUME, _ball_volume, _first_of_each, \
    _last_t_where

INF = math.inf


# ---------------------------------------------------------------------------
# Almost-monotone growth


def test_ainc_power_curves():
    c = power_curve(2.0)
    rep = check_ainc(c, 2.0)
    assert rep.holds and abs(rep.constants["a"] - 1.0) < 1e-9
    rep = check_ainc(c, 1.5)
    assert rep.holds
    rep = check_ainc(c, 3.0)
    assert not rep.holds and "diverges_at_infinity" in rep.flags
    assert rep.constants["a"] == INF


def test_adec_power_curves():
    c = power_curve(2.0)
    assert check_adec(c, 2.0).holds
    assert check_adec(c, 3.0).holds
    rep = check_adec(c, 1.5)
    assert not rep.holds and "diverges_at_infinity" in rep.flags


def test_ainc_restricted_range(families):
    phi = families["example_3_4"]
    rep = check_ainc(phi, 2.0, T=(1.0, INF))
    # the claimed constant on [1, inf) is exactly 2
    assert rep.holds and rep.constants["sampled_sup"] <= 2.0 + 1e-9
    assert rep.constants["sampled_sup"] >= 1.9
    rep = check_ainc(phi, 1.5, T=(0.0, 1.0))
    assert not rep.holds and "diverges_at_zero" in rep.flags


def test_ainc_reported_constant_recheckable():
    phi = families_phi = make_family(
        "double_phase", {"p": 1.5, "q": 2.5,
                         "a": {"field": "const", "value": 1.0}}, None)
    rep = check_ainc(families_phi, 1.5)
    assert rep.holds
    a = rep.constants["a"]
    spec = SampleSpec()
    grid = spec.t_grid()
    vals = phi.eval_grid(np.array([[0.0]]), grid)[0]
    r = vals / grid ** 1.5
    for i in range(0, len(grid) - 1, 7):
        assert r[i] <= a * np.min(r[i + 1:]) * (1 + 1e-9)


def test_ainc_fails_on_example_3_2_strip(families):
    # Example 3.2: phi = t for t < 1 on the strip x1 >= 1, |x2| <= x1^-2,
    # so aInc_p fails for every p > 1; the strip's default samples lie
    # off the diagonal of the sample lattice
    rep = check_ainc(families["example_3_2"], 1.1)
    assert not rep.holds and "diverges_at_zero" in rep.flags
    assert rep.constants["a"] == INF
    # the witness alone reproduces the verdict
    again = check_ainc(families["example_3_2"], 1.1,
                       A=[rep.worst_witness["x"]])
    assert not again.holds and again.flags == rep.flags


def test_ainc_witness_and_interval_validation():
    rep = check_ainc(families_ex34(), 2.0, T=(1.0, INF))
    w = rep.worst_witness
    assert w is not None and w["t"] < w["s"]
    with pytest.raises(ValueError):
        check_ainc(power_curve(2.0), 2.0, T=(3.0, 1.0))


def families_ex34():
    return make_family("example_3_4", {}, None)


@given(st.floats(1.0, 4.0), st.floats(0.0, 1.0))
def test_ainc_of_pure_power_property(e, frac):
    # t^e is aInc_p exactly when p <= e, with constant 1
    p = 1.0 + frac * (e - 1.0)
    rep = check_ainc(power_curve(e), p)
    assert rep.holds and rep.constants["a"] <= 1.0 + 1e-9
    if e + 0.05 < 4.0:
        assert not check_ainc(power_curve(e), e + 0.05).holds


class _Table:
    """A stand-in for phi's table whose values are given outright; rows of
    equal bits are one distinct row, as a PowerTable plans its rows."""

    def __init__(self, vals):
        self.vals = vals
        self.tail = np.full(len(vals), INF)

    @property
    def _distinct(self):
        first, back = _first_of_each(self.vals)
        return None if len(first) == len(self.vals) else (_Table(self.vals[first]), back)

    def value(self, T):
        return self.vals.copy()


def _brute_sup(vals, grid, increasing):
    """The largest r(t)/r(s) over t < s (r(s)/r(t) if not increasing),
    nan ratios and nan samples skipped, with ties to the first row, then
    the first t, then the least r(s) at the first s."""
    best, witness = -INF, None
    n = len(grid)
    for ix, row in enumerate(vals):
        order = list(range(n)) if increasing else list(range(n))[::-1]
        for a in range(n - 1):
            rest = [order[b] for b in range(a + 1, n)
                    if not np.isnan(row[order[b]])]
            if not rest:
                continue
            b = min(rest, key=lambda c: row[c])
            with np.errstate(divide="ignore", invalid="ignore"):
                q = row[order[a]] / row[b]
            if q > best:
                best = float(q)
                t, s = (order[a], b) if increasing else (b, order[a])
                witness = {"x": [float(ix)], "t": float(grid[t]),
                           "s": float(grid[s]), "ratio": best}
    return best, witness


def test_sampled_sup_matches_brute_force():
    rng = np.random.default_rng(11)
    # few values: many ties; nan is a sample whose phi and t^p both
    # overflow (or both fall to 0)
    cells = np.array([0.0, 0.5, 1.0, 2.0, INF, np.nan])
    for _ in range(300):
        n_x, n_t = rng.integers(1, 5), rng.integers(1, 7)
        vals = rng.choice(cells, size=(n_x, n_t))
        grid = np.arange(1.0, n_t + 1.0)
        X = np.arange(float(n_x)).reshape(-1, 1)
        for increasing in (True, False):
            got = _sampled_sup(_Table(vals), X, grid, 0.0, increasing)
            assert got == _brute_sup(vals, grid, increasing)


@pytest.mark.parametrize("lo,hi", [(1e-4, 1e4), (0.5, 2.0), (1.0, 1.0 + 1e-9),
                                   (1e-150, 1e150), (1e-300, 1e8)])
def test_t_grid_of_ordinary_ranges_is_unchanged(lo, hi):
    """Where hi / lo is finite the grid keeps its point count, 64 a
    decade and at least 8, bit for bit."""
    n = max(int(64 * math.log10(hi / lo)) + 1, 8)
    assert SampleSpec().t_grid(lo, hi).tobytes() == np.geomspace(lo, hi, n).tobytes()


@pytest.mark.parametrize("p,T", [(3.0, (1e5, INF)), (1.0, (0.0, 1e-6))])
def test_ainc_samples_inside_a_range_past_the_default_span(p, T):
    """phi is t below 5e4 and t^3 / 2.5e9 above, so t^1 on (0, 1e-6) and
    t^3 on [1e5, inf) are aInc with constant 1.  A range beyond the
    default [1e-4, 1e4] is sampled over the default span from its finite
    end: it once sampled [1e4, 1e5] and [1e-6, 1e-4], outside T, and
    [1e4, 1e5] gave constant 25 with witness t = 1e4."""
    phi = PhiCurve((0.0, 5e4), ((PowerTerm(1.0, 1.0),),
                                (PowerTerm(1.0 / 2.5e9, 3.0),)))
    for check in (check_ainc, check_adec):
        rep = check(phi, p, T=T)
        assert T[0] <= rep.worst_witness["t"] <= rep.worst_witness["s"] <= T[1]
        assert rep.constants["sampled_sup"] <= 1.0 + 1e-12
    grid = SampleSpec().t_grid(*T)
    assert grid[-1] / grid[0] == pytest.approx(1e8)


def test_sample_span_must_be_nonempty():
    for t_min, t_max in ((1.0, 1.0), (1e5, 1e4)):
        with pytest.raises(ValueError, match="t_max must exceed t_min"):
            SampleSpec(t_min, t_max)


def test_ainc_over_a_range_past_the_largest_float():
    """On [1e-300, 1e300], hi / lo is inf and the grid counts its 600
    decades from the logs.  t^2 and phi = t^2 both overflow at the top and
    both fall to 0 at the bottom, so those samples' ratios are nan and say
    nothing; the rest give aInc_2 with constant 1."""
    assert len(SampleSpec().t_grid(1e-300, 1e300)) == 64 * 600 + 1
    rep = check_ainc(from_curve(power_curve(2.0)), 2.0, T=(1e-300, 1e300))
    assert rep.holds and rep.constants["a"] == 1.0


# ---------------------------------------------------------------------------
# Normalization at level 1


def test_a0_families(families):
    assert check_a0(families["example_4_6"]).constants["beta"] == 1.0
    assert check_a0(families["example_3_5"]).constants["beta"] == 1.0
    beta34 = check_a0(families["example_3_4"]).constants["beta"]
    assert 0.5 <= beta34 <= (math.sqrt(5.0) - 1.0) / 2.0 + 1e-6


def test_a0_failing_witness_reproduces_the_failure():
    # phi(x, t) = (|x|^5 + 1e-3) t: at x = 0, phi(0, 2^40) is about 1.1e-3,
    # so beta = 2^-40 fails there, while at the first sample x = -16 it
    # works (phi(-16, 2^40) is about 1.2e18)
    phi = make_family("variable_exponent", {
        "p": {"field": "const", "value": 1.0},
        "a": {"field": "abs_power", "coef": 1.0, "offset": 1e-3,
              "power": 5.0}})
    rep = check_a0(phi)
    assert not rep.holds and rep.constants["beta"] == 0.0
    x = tuple(rep.worst_witness["x"])
    assert x == (0.0,)
    assert not _holds((phi.eval(x, 2.0 ** -40), 1.0),
                      (1.0, phi.eval(x, 2.0 ** 40)))


def test_a0_needs_shrinking_beta():
    # phi(t) = t^2/4 reaches 1 only at t = 2, so beta = 1/2
    phi = from_curve(power_curve(2.0, coef=0.25))
    rep = check_a0(phi)
    assert rep.holds and abs(rep.constants["beta"] - 0.5) < 1e-6


@pytest.mark.parametrize("name", ["example_3_4", "example_4_6"])
def test_a0_judges_by_the_one_rule(families, name):
    """A0's beta passes phi(x, beta) <= 1 <= phi(x, 1/beta) by the
    checkers' rule at every sample and, found to CHECK_TOL relative, is
    the cap 1 or no further than that from a beta that fails."""
    phi = families[name]
    X = default_x_samples(phi.domain)
    beta = check_a0(phi).constants["beta"]

    def passes(b):
        return _holds((phi.eval_many(X, np.full(len(X), b)), 1.0),
                      (1.0, phi.eval_many(X, np.full(len(X), 1.0 / b))))

    assert passes(beta)
    assert beta == 1.0 or not passes(beta * (1.0 + 2.0 * CHECK_TOL))


def test_within_is_the_rule_elementwise():
    rhs = np.array([0.0, 1.0, -1.0, 1e308, INF, INF])
    slack = CHECK_TOL * (1.0 + np.abs(rhs[:4]))
    lhs = np.concatenate([rhs[:4] + 0.5 * slack, [INF, -INF]])
    assert np.all(_within(lhs, rhs))
    assert not np.any(_within(rhs[:4] + 2.0 * slack, rhs[:4]))
    assert _within(1.0 + 1.5 * CHECK_TOL, 1.0) == _holds((1.0 + 1.5 * CHECK_TOL,
                                                          1.0))


def test_only_ainc_and_adec_take_a_range():
    """Every other checker samples SampleSpec()'s lattice and reports it."""
    for check in (check_a0, check_a1, check_a2, check_equivalence,
                  check_weak_equivalence):
        assert "spec" not in inspect.signature(check).parameters
    phi = from_curve(power_curve(2.0), dim=1)
    for rep in (check_a2(phi, power_curve(2.0), WeightFunction.zero(), 1.0),
                check_equivalence(phi, phi, 1.0),
                check_weak_equivalence(phi, phi, 1.0, WeightFunction.zero())):
        assert rep.sample_spec == {**SampleSpec().describe(), "n_x": 9}


# ---------------------------------------------------------------------------
# Local comparability


def test_a1_x_independent_is_exact():
    rep = check_a1(from_curve(power_curve(2.0), dim=1))
    assert rep.holds and rep.constants["beta"] == 1.0


def test_a1_vacuous_run_does_not_hold():
    # t^2 capped at 1/2 stays below 1 and then jumps to inf: no level has
    # phi(y, t) in [1, 1/|B|], so no pair is kept
    rep = check_a1(from_curve(cap_curve(power_curve(2.0), 0.5), dim=1))
    assert not rep.holds and rep.flags == ("vacuous",)
    assert rep.sample_spec["n_samples"] == 0


def test_a1_takes_only_its_seed():
    """check_a1(phi, 3) is the report that check_a1(phi,
    SampleSpec(seed=3)) gave when SampleSpec carried the seed; the other
    checkers, which draw nothing, report seed 0."""
    phi = make_family("variable_exponent", {"p": {
        "field": "pw_linear", "points": [[0.0, 1.5], [2.0, 2.5]]}})
    assert check_a1(phi, 3).to_json() == (
        '{"condition": "A1prime", "constants": {"beta": 0.9674269103438962}, '
        '"flags": [], "holds": true, "sample_spec": {"n_samples": 2400, '
        '"points_per_decade": 64, "refinement_rounds": 1, "seed": 3, '
        '"t_max": 10000.0, "t_min": 0.0001, "x_per_axis": 9, '
        '"x_radius": 16.0}, "worst_witness": {"phi_y_t": 8.465050169715257, '
        '"t": 3.591004472718098, "x": [0.43036624371835325], '
        '"y": [0.3415089857267217]}}')
    assert check_a1(phi).sample_spec["seed"] == 0
    assert check_a0(phi).sample_spec == {**SampleSpec().describe(), "n_x": 9}
    assert check_ainc(phi, 1.5, spec=SampleSpec(1e-3, 1e3)).sample_spec[
        "seed"] == 0


def test_a1_families(families):
    for name in ("example_3_2", "example_3_4", "example_3_5"):
        rep = check_a1(families[name])
        assert rep.holds and rep.constants["beta"] == 1.0, name


def _one_draw_at_a_time(domain: Domain, rng) -> tuple:
    """The ball pairs of ``conditions._ball_pairs`` drawn one candidate at
    a time, and the number of balls whose 200 tries ran out."""
    dim = domain.dim
    lower, upper = (np.asarray(b) for b in domain.sampling_box(X_RADIUS))
    r_max = (1.0 / UNIT_BALL_VOLUME[dim]) ** (1.0 / dim)
    xs, ys, vols, ran_out = [], [], [], 0
    for _ in range(N_BALLS):
        center = lower + rng.random(dim) * (upper - lower)
        radius = float(np.exp(rng.uniform(np.log(0.02), np.log(r_max))))
        pts, tries = [], 0
        while len(pts) < 12 and tries < 200:
            cand = center + rng.uniform(-radius, radius, dim)
            tries += 1
            if np.linalg.norm(cand - center) <= radius and domain.contains(tuple(cand)):
                pts.append(cand)
        ran_out += len(pts) < 12
        xs += pts[0:len(pts) - 1:2]
        ys += pts[1::2]
        vols += [_ball_volume(dim, radius)] * (len(pts) // 2)
    return (np.reshape(xs, (-1, dim)), np.reshape(ys, (-1, dim)),
            np.asarray(vols), ran_out)


@pytest.mark.parametrize("domain", [
    Domain(1), Domain(2), Domain(1, (-2.0,), (2.0,)),
    Domain(2, (0.0, -1.0), (3.0, 1.0)),
    # thinner than most balls: their 200 tries run out
    Domain(2, (0.0, 0.0), (1.0, 1e-3))],
    ids=["R1", "R2", "box1", "box2", "thin-box2"])
def test_ball_pairs_are_the_one_draw_at_a_time_pairs(domain):
    """The block draws keep the points, in order, that drawing one
    candidate at a time keeps, and leave the stream where it leaves it."""
    for seed in range(4):
        block, single = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = _ball_pairs(domain, block), _one_draw_at_a_time(domain, single)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
        assert block.random() == single.random()
        if domain.upper == (1.0, 1e-3):
            assert want[3] > 0


def _plain_largest_beta(table, ok) -> float:
    """The level search of ``_largest_beta`` testing every sample at every
    probe."""
    every = np.arange(len(table.tail))

    def fits(beta: float) -> bool:
        return bool(np.all(ok(table, every, beta)))

    if fits(1.0):
        return 1.0
    return float(_last_t_where(lambda b: np.array([0.0 if fits(float(b[0])) else INF]),
                               1, CHECK_TOL, floor=BETA_FLOOR)[0][0])


@st.composite
def _catalog_family(draw):
    """A catalog family with drawn parameters, in 1D or 2D."""
    dim = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["orlicz", "variable_exponent", "double_phase",
                                 "vdp", "example_3_2", "example_3_4",
                                 "example_4_6", "glued"]))
    p = draw(st.floats(1.0, 3.0))
    q = p + draw(st.floats(0.0, 2.0))
    c = draw(st.floats(0.05, 20.0))
    if kind == "orlicz":
        return make_family(kind, {"p": p, "coef": c, "dim": dim})
    if kind in ("example_3_2", "example_3_4", "example_4_6"):
        return make_family(kind)
    field = {"field": "abs_power", "coef": c, "offset": 0.1, "power": 1.0}
    if kind == "variable_exponent":
        return make_family(kind, {"dim": dim, "a": field, "p": {
            "field": "pw_linear", "points": [[0.0, p], [draw(st.floats(1.0, 8.0)), q]]}})
    if kind == "double_phase":
        return make_family(kind, {"p": p, "q": q, "a": field, "dim": dim})
    if kind == "vdp":
        return make_family(kind, {"dim": dim, "p": {"field": "const", "value": p},
                                  "q": {"field": "const", "value": q}, "a": field})
    return glue_small_values(make_family("example_3_2"),
                             region_from_dict({"region": "inv_square_strip"}), 1.0 + c)


def test_active_samples_give_the_plain_search_beta(monkeypatch):
    """_largest_beta, which tests only the samples that failed every
    earlier probe, returns bit for bit the beta of the search that tests
    every sample, for A0 and A1' on drawn families and seeds."""
    betas = []
    active = conditions._largest_beta

    def both(table, ok):
        betas.append((active(table, ok), _plain_largest_beta(table, ok)))
        return betas[-1][0]

    monkeypatch.setattr(conditions, "_largest_beta", both)

    @settings(max_examples=25)
    @given(phi=_catalog_family(), seed=st.integers(0, 2 ** 32 - 1))
    def check(phi, seed):
        check_a0(phi)
        check_a1(phi, seed)
        for got, want in betas:
            assert got.hex() == want.hex()

    check()
    # many searches went below beta = 1 and found a positive beta
    assert sum(0.0 < got < 1.0 for got, _ in betas) >= 10


def test_largest_beta_probes_one_once(monkeypatch):
    """The cap's probe at beta = 1 also answers the level search's first
    probe: one evaluation at beta = 1 per search, for A0 and A1', where
    both searches go below 1."""
    probes = []
    largest = conditions._largest_beta

    def counted(table, ok):
        probes.append([])

        def counting(rows, i, beta):
            probes[-1].append(beta)
            return ok(rows, i, beta)

        return largest(table, counting)

    monkeypatch.setattr(conditions, "_largest_beta", counted)
    a0 = check_a0(from_curve(power_curve(2.0, coef=0.25)))  # beta 1/2
    a1 = check_a1(make_family("example_4_6"))  # beta about 0.89
    assert a0.constants["beta"] == pytest.approx(0.5) and a1.constants["beta"] < 1.0
    assert [b.count(1.0) for b in probes] == [1, 1]
    assert all(len(b) > 1 for b in probes)


# ---------------------------------------------------------------------------
# Comparability to an asymptote


def test_a2_families(families):
    G = region_from_dict({"region": "inv_square_strip"})
    assert check_a2(families["example_3_2"], power_curve(2.0),
                    WeightFunction.indicator(G), beta=1.0).holds
    assert check_a2(families["example_3_4"], power_curve(1.0),
                    WeightFunction.zero(), beta=0.5).holds
    assert check_a2(families["example_3_5"], power_curve(2.0),
                    WeightFunction.recip_power(4.0, 2), beta=1.0).holds


def test_a2_tolerance_is_relative_to_each_value():
    # (0.7 t)^4 and 0.7^4 t^4 differ by rounding only, 0.5 near 2.4e15:
    # a tolerance that does not grow with the values calls that a failure
    beta = 0.7
    assert check_a2(make_family("orlicz", {"p": 4}), power_curve(4.0, coef=beta ** 4),
                    WeightFunction.zero(), beta=beta, s=1e30).holds


def test_a2_against_infinite_tails():
    # past both tails phi and the asymptote are +inf: those samples lie
    # outside both level sets and must not make inf - inf
    capped = cap_curve(power_curve(2.0), 3.0)
    assert check_a2(from_curve(capped), capped, WeightFunction.zero(),
                    beta=1.0, s=100.0).holds


def test_a2_detects_failure(families):
    # h = 0 and beta = 1 cannot absorb the quadratic branch against t
    rep = check_a2(families["example_3_4"], power_curve(1.0),
                   WeightFunction.zero(), beta=1.0)
    assert not rep.holds
    with pytest.raises(ValueError):
        check_a2(families["example_3_4"], power_curve(1.0),
                 WeightFunction.zero(), beta=2.0)


# ---------------------------------------------------------------------------
# Equivalence


def test_equivalence_least_constant():
    rep = check_equivalence(power_curve(2.0), power_curve(2.0, coef=4.0),
                            L=2.0)
    assert rep.holds and abs(rep.constants["least_L"] - 2.0) < 1e-12
    rep = check_equivalence(power_curve(2.0), power_curve(2.0, coef=4.0),
                            L=1.5)
    assert not rep.holds


def test_weak_equivalence(families):
    G = region_from_dict({"region": "inv_square_strip"})
    h = WeightFunction.indicator(G)
    t2 = from_curve(power_curve(2.0), dim=2)
    assert check_weak_equivalence(families["example_3_2"], t2, 1.0, h).holds
    # without the additive term the same pair fails at L = 1
    assert not check_weak_equivalence(families["example_3_2"], t2, 1.0,
                                      WeightFunction.zero()).holds
    # a bare curve is lifted to the function's dimension, whose 2D samples
    # lie outside a 1D domain
    for check, args in ((check_equivalence, (1.0,)),
                        (check_weak_equivalence, (1.0, h))):
        assert check(t2, power_curve(2.0), *args).to_dict() == \
            check(t2, t2, *args).to_dict()


def test_equivalence_judges_every_sample_against_itself():
    # psi = t^2 + 1e-6 t^0.5 is 2 phi at t = 1e-4, far outside any
    # tolerance there, while its largest excess (at t = 1e4) is small next
    # to phi: each sample must be held to its own right-hand side
    phi = power_curve(2.0)
    psi = PhiCurve((0.0,), ((PowerTerm(1.0, 2.0), PowerTerm(1e-6, 0.5)),))
    rep = check_equivalence(phi, psi, 1.0)
    assert not rep.holds and rep.constants["least_L"] == 2.0
    assert not check_weak_equivalence(phi, psi, 1.0,
                                      WeightFunction.zero()).holds


def test_failing_equivalence_reports_a_failing_witness():
    """The witness of a failed check reproduces the failure: it is the
    sample of largest excess over the rule's slack, not of largest lhs -
    rhs (for this pair that sample, t = 1e4, passes)."""
    phi = power_curve(2.0)
    psi = PhiCurve((0.0,), ((PowerTerm(1.0, 2.0), PowerTerm(1e-6, 0.5)),))
    for rep in (check_equivalence(phi, psi, 1.0),
                check_weak_equivalence(phi, psi, 1.0,
                                       WeightFunction.zero())):
        t = np.array([rep.worst_witness["t"]])
        pv, qv = phi.value(t), psi.value(t)
        assert not rep.holds and not _holds((qv, pv), (pv, qv))
        assert rep.worst_witness["margin"] == float(np.max(qv - pv))


def test_equivalence_with_infinite_tails():
    # past the cap both sides are +inf: the same infinity compares equal
    capped = cap_curve(power_curve(2.0), 10.0)
    rep = check_equivalence(capped, capped, 1.0)
    assert rep.holds and rep.constants["least_L"] == 1.0
    assert rep.worst_witness["margin"] == 0.0
    assert check_weak_equivalence(capped, capped, 1.0,
                                  WeightFunction.zero()).holds


# ---------------------------------------------------------------------------
# Every sampled inequality, rechecked sample by sample


_LADDER = [2.0 ** (k / 4.0) for k in range(161)]


@st.composite
def _curves(draw):
    terms = [PowerTerm(draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])),
                       draw(st.floats(1.0, 3.0)))]
    eps = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
    if eps:
        terms.append(PowerTerm(eps, draw(st.floats(0.25, 4.0))))
    curve = PhiCurve((0.0,), (tuple(terms),))
    cap = draw(st.sampled_from([None, 1.0, 10.0]))
    return curve if cap is None else cap_curve(curve, cap)


def _violations(pairs, masks=None):
    """The samples, one at a time, where lhs <= rhs + tol (1 + |rhs|)
    fails; a masked-out sample is not compared."""
    masks = masks or [np.ones(np.shape(lhs), bool) for lhs, _ in pairs]
    return [(a, b) for (lhs, rhs), mask in zip(pairs, masks)
            for a, b, m in zip(np.ravel(lhs).tolist(), np.ravel(rhs).tolist(),
                               np.ravel(mask).tolist())
            if m and not a <= b + CHECK_TOL * (1.0 + abs(b))]


@given(phi=_curves(), psi=_curves(),
       L=st.sampled_from([1.0, 2.0 ** 0.25, 2.0, 8.0]),
       beta=st.sampled_from([1.0, 0.5]), s=st.sampled_from([1.0, 100.0]),
       h=st.sampled_from([WeightFunction.zero(),
                          WeightFunction.recip_power(2.0, 1)]))
def test_sampled_inequalities_recheck_sample_by_sample(phi, psi, L, beta, s, h):
    X = default_x_samples(from_curve(phi).domain)
    t = SampleSpec().t_grid()[None, :]
    hv = h.many(X)[:, None]
    ones = np.ones((len(X), 1))

    def at(curve, tt):
        return ones * curve.value(tt)

    rep = check_a2(from_curve(phi), psi, h, beta=beta, s=s)
    bad = _violations([(at(phi, beta * t), at(psi, t) + hv),
                       (at(psi, beta * t), at(phi, t) + hv)],
                      [at(psi, t) <= s + CHECK_TOL, at(phi, t) <= s + CHECK_TOL])
    assert rep.holds == (not bad)

    rep = check_weak_equivalence(phi, psi, L, h)
    bad = _violations([(at(psi, t), at(phi, L * t) + hv),
                       (at(phi, t), at(psi, L * t) + hv)])
    assert rep.holds == (not bad)

    def equivalence_violations(Lv):
        return _violations([(at(psi, t / Lv), at(phi, t)),
                            (at(phi, t), at(psi, Lv * t))])

    rep = check_equivalence(phi, psi, L)
    assert rep.holds == (not equivalence_violations(L))
    least = rep.constants["least_L"]
    if least == INF:
        assert equivalence_violations(_LADDER[-1])
    else:
        # the checks pass for every L past the least: psi is non-decreasing
        k = _LADDER.index(least)
        assert not equivalence_violations(least)
        assert k == 0 or equivalence_violations(_LADDER[k - 1])


def test_a2_with_empty_level_sets_is_vacuous():
    # t^2 <= 1e-12 needs t <= 1e-6, below the lattice's t >= 1e-4: neither
    # direction has a sample, so no evidence supports the condition
    rep = check_a2(from_curve(power_curve(2.0)), power_curve(2.0),
                   WeightFunction.zero(), beta=1.0, s=1e-12)
    assert not rep.holds and rep.flags == ("vacuous",)
    assert rep.worst_witness is None
    assert check_a2(from_curve(power_curve(2.0)), power_curve(2.0),
                    WeightFunction.zero(), beta=1.0, s=1e-6).flags == ()


# ---------------------------------------------------------------------------
# Each checker builds phi's table of its sample set once


_DP = {"p": 2.0, "q": 3.0, "a": {"field": "abs_power", "power": 1.0}}
_PHI = make_family("double_phase", _DP)
_PSI = make_family("double_phase", {**_DP, "a": {**_DP["a"], "coef": 2.0}})


@pytest.mark.parametrize("run, builds", [
    (lambda: check_a0(_PHI), 1),
    (lambda: check_equivalence(_PHI, _PSI, 2.0), 2),
    (lambda: check_weak_equivalence(_PHI, _PSI, 2.0, WeightFunction.zero()), 2),
    (lambda: check_a1(_PHI), 2),
    # the sample set, then the refinement round's witness
    (lambda: check_ainc(_PHI, 2.0), 2),
    (lambda: check_adec(_PHI, 3.0), 2),
    (lambda: check_a2(_PHI, power_curve(2.0), WeightFunction.zero(), 1.0), 1),
], ids=["a0", "equivalence", "weak_equivalence", "a1", "ainc", "adec", "a2"])
def test_checker_builds_each_table_once(monkeypatch, run, builds):
    calls = []
    table = PhiFunction.table

    def counted(self, X):
        calls.append(len(X))
        return table(self, X)

    monkeypatch.setattr(PhiFunction, "table", counted)
    run()
    assert len(calls) == builds


# ---------------------------------------------------------------------------
# Constant algebra


def test_doubling_scale_round_trip():
    for a, p in ((1.0, 2.0), (2.0, 1.5), (3.0, 3.0)):
        c = doubling_scale(a, p)
        assert c == (2.0 * a) ** (1.0 / (p - 1.0))
        if a == 1.0:
            assert abs(exponent_from_doubling(c) - p) < 1e-12
    with pytest.raises(ValueError):
        doubling_scale(0.5, 2.0)
    with pytest.raises(ValueError):
        exponent_from_doubling(1.0)


def test_enlarge_ainc_constant():
    assert enlarge_ainc_constant(2.0, 2.0, 0.25, 1.0) == 16.0
    assert enlarge_ainc_constant(1.0, 2.0, 1.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        enlarge_ainc_constant(1.0, 2.0, 2.0, 1.0)


# ---------------------------------------------------------------------------
# Weights, reports, plumbing


def test_weight_norms():
    h = WeightFunction.recip_power(4.0, 2)
    assert abs(h.l1_norm - 2.0 * math.pi / (3.0 * 2.0)) < 1e-12
    assert h.linf_norm == 1.0
    assert abs(h((1.0, 0.0)) - 2.0 ** -4) < 1e-15
    h1 = WeightFunction.recip_power(2.0, 1)
    assert abs(h1.l1_norm - 2.0) < 1e-12
    assert WeightFunction.zero().l1_norm == 0.0
    with pytest.raises(ValueError, match="c = 1e-300"):  # c^(-4) overflows
        WeightFunction.recip_power(4.0, 2, 1e-300)


def test_weight_roundtrip():
    for h in (WeightFunction.zero(),
              WeightFunction.recip_power(3.0, 1),
              WeightFunction.indicator(
                  region_from_dict({"region": "inv_square_strip"}))):
        rt = weight_from_dict(json.loads(json.dumps(h.to_dict())))
        X = np.array([[0.5, 0.0], [2.0, 0.1]]) if h.name != "recip_power" \
            else np.array([[1.0], [3.0]])
        np.testing.assert_allclose(rt.many(X), h.many(X))


def test_report_json_deterministic():
    rep1 = check_ainc(power_curve(2.0), 2.0)
    rep2 = check_ainc(power_curve(2.0), 2.0)
    assert rep1.to_json() == rep2.to_json()
    assert '"condition"' in rep1.to_json()
    table = reports_table([rep1, check_a0(from_curve(power_curve(2.0)))])
    assert "aInc_2" in table and "A0" in table and "PASS" in table


def test_infinite_constant_serializes_as_string():
    rep = check_ainc(power_curve(2.0), 3.0)
    assert json.loads(rep.to_json())["constants"]["a"] == "inf"


def test_negative_infinity_keeps_its_sign():
    # t^2 capped at 10 is inf on all of [20, inf): no ratio is finite, so
    # the sampled supremum is -inf
    capped = PhiCurve.from_dict({**power_curve(2.0).to_dict(),
                                 "infinite_tail": 10.0})
    rep = check_ainc(capped, 2.0, T=(20.0, INF))
    assert rep.constants["a"] == rep.constants["sampled_sup"] == -INF
    constants = json.loads(rep.to_json())["constants"]
    assert constants["a"] == constants["sampled_sup"] == "-inf"
    assert "-inf" in rep.table_row()
