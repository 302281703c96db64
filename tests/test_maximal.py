import importlib
import itertools
import json
import math
import time

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from orliczkit import (
    GridFunction,
    MaximalConfig,
    default_config,
    from_curve,
    luxemburg_norm,
    make_family,
    maximal,
    modular_growth,
    operator_norm_estimate,
    power_curve,
    run_example,
    run_pipeline,
)
from orliczkit.cli import main
from orliczkit.gallery import _ball_maxima
from orliczkit.norms import EPS_LUX

# the package binds the name ``maximal`` to the function, so reach the
# module (its kernels) through the import system
_mx = importlib.import_module("orliczkit.maximal")


@pytest.fixture(scope="module")
def interval_indicator():
    # chi_(-1,1) on [-60, 60] at cell size 0.05
    return GridFunction.indicator_ball([0.0], 1.0, ((-60.0, 60.0),), 2400)


def test_config_validation():
    with pytest.raises(ValueError):
        MaximalConfig(())
    with pytest.raises(ValueError):
        MaximalConfig((1.0, 0.5))
    with pytest.raises(ValueError):
        MaximalConfig((1.0,), center_stride=0)
    for bad in (2.0, 1.5):
        with pytest.raises(ValueError):
            MaximalConfig((1.0,), center_stride=bad)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            MaximalConfig((1.0, bad))


def test_default_config_covers_cell_to_diameter():
    f = GridFunction(((0.0, 8.0),), np.ones(64))
    cfg = default_config(f)
    assert cfg.radius_set[0] <= f.cell_sizes[0] + 1e-12
    assert cfg.radius_set[-1] >= 8.0


def test_1d_closed_form(interval_indicator):
    # non-centered maximal of chi_(-1,1): Mf(x) = 2/(x+1) for x > 1
    Mf = maximal(interval_indicator)
    xs = Mf.points()[:, 0]
    sel = (xs >= 2.0) & (xs <= 50.0)
    exact = 2.0 / (xs[sel] + 1.0)
    rel = np.abs(Mf.values[sel] - exact) / exact
    assert rel.max() < 0.05
    # the specific value quoted at x = 3
    at3 = Mf.values[np.argmin(np.abs(xs - 3.0))]
    assert at3 == pytest.approx(0.5, rel=0.05)


def test_constant_fixed_point():
    f = GridFunction(((0.0, 4.0), (0.0, 4.0)), 3.0 * np.ones((32, 32)))
    Mf = maximal(f)
    # every ball sum is an exact multiple of 3
    np.testing.assert_array_equal(Mf.values, 3.0)


def test_pointwise_bound_and_scaling(interval_indicator):
    f = interval_indicator
    cfg = default_config(f)
    Mf = maximal(f, cfg)
    assert np.all(Mf.values >= f.values)
    M2 = maximal(f.scaled(2.0), cfg)
    np.testing.assert_allclose(M2.values, 2.0 * Mf.values, rtol=1e-12)


def test_sublinearity(interval_indicator):
    f = interval_indicator
    g = GridFunction.indicator_ball([2.0], 0.5, f.box, f.resolution[0])
    cfg = default_config(f)
    s = GridFunction(f.box, f.values + g.values)
    Ms = maximal(s, cfg).values
    bound = maximal(f, cfg).values + maximal(g, cfg).values
    assert np.all(Ms <= bound + 1e-12)


def test_monotone_in_config(interval_indicator):
    f = interval_indicator
    small = MaximalConfig((0.5, 2.0), center_stride=2)
    more_radii = MaximalConfig((0.5, 1.0, 2.0, 8.0), center_stride=2)
    finer = MaximalConfig((0.5, 2.0), center_stride=1)
    base = maximal(f, small).values
    assert np.all(maximal(f, more_radii).values >= base - 1e-12)
    assert np.all(maximal(f, finer).values >= base - 1e-12)


def test_2d_decay_bracket():
    R = 16.0
    f = GridFunction.indicator_ball([0.0, 0.0], 1.0, ((-R, R), (-R, R)), 128)
    Mf = maximal(f)
    pts = f.points()
    rad = np.linalg.norm(pts, axis=1)
    sel = (rad >= 2.0) & (rad <= R / 2.0)
    prod = Mf.values.ravel()[sel] * (rad[sel] + 1.0) ** 2
    assert prod.min() >= 1.0 / 8.0 and prod.max() <= 8.0


def test_operator_norm_bounded_case():
    phi = from_curve(power_curve(2.0), dim=2)
    radii = [4.0, 8.0, 16.0, 32.0]
    fam = [GridFunction.indicator_ball([0.0, 0.0], 1.0,
                                       ((-R, R), (-R, R)), int(4 * R))
           for R in radii]
    rep = operator_norm_estimate(phi, fam, radii=radii)
    assert not rep["unbounded_evidence"]
    assert rep["max_ratio"] < 5.0


def test_operator_norm_divergent_case(families):
    phi = families["example_3_4"]
    radii = [4.0, 8.0, 16.0, 32.0]
    fam = [GridFunction.indicator_ball([0.0, 0.0], 1.0,
                                       ((-R, R), (-R, R)), int(4 * R))
           for R in radii]
    rep = operator_norm_estimate(phi, fam, radii=radii)
    assert rep["unbounded_evidence"]
    growth = modular_growth(phi, fam, radii=radii)
    assert growth["slope_vs_log_radius"] > 0
    assert growth["r_squared"] >= 0.98


def test_operator_norm_skips_zero_functions():
    phi = from_curve(power_curve(2.0), dim=1)
    zero = GridFunction(((0.0, 1.0),), np.zeros(16))
    ball = GridFunction.indicator_ball([0.5], 0.2, ((0.0, 1.0),), 64)
    rep = operator_norm_estimate(phi, [zero, ball])
    assert rep["indices"] == [1]


@pytest.mark.parametrize("p", [1.1, 1.2, 1.5])
def test_bounded_powers_show_no_unbounded_evidence(p):
    """M is bounded on L^p for every p > 1: on chi_(-1, 1) with R = 8 ...
    128 at 8 cells per unit, the ratios of t^1.1 (3.29 to 6.35), t^1.2
    (2.85 to 4.75) and t^1.5 (2.09 to 2.67) grow by shrinking increments,
    so none is flagged."""
    radii = [8.0, 16.0, 32.0, 64.0, 128.0]
    fam = [GridFunction.indicator_ball([0.0], 1.0, ((-R, R),), int(16 * R)) for R in radii]
    rep = operator_norm_estimate(from_curve(power_curve(p), dim=1), fam, radii=radii)
    assert not rep["unbounded_evidence"]


@pytest.mark.parametrize("p,unbounded", [
    (1.0, True), (1.05, False), (1.1, False), (1.2, False), (1.5, False)])
def test_growth_rule_on_the_closed_form_ratios(p, unbounded):
    """The rule on the exact 1D ratios ||M chi|| / ||chi|| under t^p,
    chi = chi_(-1, 1) on (-R, R): M chi = min(1, 2 / (|x| + 1)), so
    ||M chi||_p^p = 2 + 2^(p+1) (2^(1-p) - (R+1)^(1-p)) / (p - 1), and
    2 + 4 log((R+1) / 2) at p = 1.  Their increments grow for t (M is
    unbounded on L^1) and shrink for every p > 1, even at t^1.05, whose
    first increment ratio is 0.998."""
    radii = [8.0, 16.0, 32.0, 64.0, 128.0]
    if p == 1.0:
        mods = [2.0 + 4.0 * math.log((R + 1.0) / 2.0) for R in radii]
    else:
        mods = [2.0 + 2.0 ** (p + 1) * (2.0 ** (1 - p) - (R + 1.0) ** (1 - p)) / (p - 1)
                for R in radii]
    ratios = [(m / 2.0) ** (1.0 / p) for m in mods]
    assert _mx._unbounded_evidence(radii, ratios) is unbounded


@pytest.mark.parametrize("dim", [1, 2])
def test_huge_radius_reaches_the_whole_grid(dim):
    """r / h past the largest float is clipped at the grid's cell count,
    without a warning: a radius of 1e308 reaches as far as one of 1e3."""
    f = GridFunction(((-2.0, 2.0),) * dim,
                     np.random.default_rng(5).random((16,) * dim))
    huge, large = (maximal(f, MaximalConfig((0.5, r), dim)) for r in (1e308, 1e3))
    np.testing.assert_array_equal(huge.values, large.values)


@pytest.mark.parametrize("shape", [(256,), (1024,), (64, 64)])
def test_stride_past_the_grid_costs_no_more_than_the_grid(shape):
    """A stride past the largest axis samples only center 0 on each axis,
    as a stride equal to that axis does, and each call takes under 1 s:
    no step loops over the stride's residues.
    Its output is checked against the lattice of the stride itself by
    ``test_1d_matches_brute_force`` and ``test_2d_matches_brute_force``."""
    f = GridFunction(((-4.0, 4.0),) * len(shape),
                     np.random.default_rng(3).random(shape))
    radii = default_config(f).radius_set
    for stride in (max(shape), 10 ** 6):
        start = time.perf_counter()
        maximal(f, MaximalConfig(radii, stride))
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# the sharp 1D constant: every discrete ball is an interval holding the
# cell, so the discrete Mf is at most the uncentred operator on the line,
# whose norm on L^p is C_p, and for t^p the Luxemburg norm of a grid
# function is its L^p norm (found to EPS_LUX from above)


def _sharp_1d_constant(p):
    """The positive root of (p - 1) x^p - p x^(p - 1) - 1 (Grafakos &
    Montgomery-Smith, 1997), by bisection: the left side is -2 at x = 1
    and increases for x > 1."""
    def side(x):
        return (p - 1.0) * x ** p - p * x ** (p - 1.0) - 1.0

    lo, hi = 1.0, 2.0
    while side(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if side(mid) <= 0.0 else (lo, mid)
    return hi


def test_sharp_1d_constant_closed_forms():
    assert _sharp_1d_constant(1.5) == pytest.approx(4.0, rel=1e-14)
    assert _sharp_1d_constant(2.0) == pytest.approx(1.0 + math.sqrt(2.0),
                                                    rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(p=st.floats(1.0, 4.0, exclude_min=True), n=st.integers(2, 300),
       stride=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_1d_ratios_stay_below_the_sharp_constant(p, n, stride, seed):
    """Heavy-tailed, sparse and singular members on random 1D grids, at
    every stride: no norm ratio exceeds C_p (1 + EPS_LUX)."""
    rng = np.random.default_rng(seed)
    box = ((-rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)),)
    x = (np.arange(n) + 0.5) / n
    a = rng.uniform(0.5, 0.999)
    family = [GridFunction(box, v) for v in (
        rng.lognormal(0.0, 3.0, n),
        rng.lognormal(0.0, 1.0, n) * (rng.random(n) < 0.1),
        np.abs(x - rng.random()) ** (-a / p))]
    cfg = MaximalConfig(default_config(family[0]).radius_set, stride)
    phi = from_curve(power_curve(p), dim=1)
    ratios = _mx._norm_ratios(phi, family,
                              _mx._maximal_family(family, cfg))[0]["ratios"]
    assert max(ratios) <= _sharp_1d_constant(p) * (1.0 + EPS_LUX)


@pytest.mark.parametrize("p,floor", [(1.5, 0.65), (2.0, 0.76), (3.0, 0.84)])
def test_1d_ratio_nears_the_sharp_constant(p, floor):
    """f = x^(-a/p) on (0, 1), 0 on (-1, 0], on 4096 cells nearly attains
    C_p as a -> 1: the largest ratio over a = 0.9, 0.99, 0.999 reads
    0.664, 0.771 and 0.846 of C_p at p = 1.5, 2 and 3, so the bound above
    is not met by under-estimating everything."""
    box = ((-1.0, 1.0),)
    x = GridFunction(box, np.zeros(4096)).points()[:, 0]
    family = [GridFunction(box, np.where(x > 0.0, np.abs(x) ** (-a / p),
                                         0.0))
              for a in (0.9, 0.99, 0.999)]
    rep = operator_norm_estimate(from_curve(power_curve(p), dim=1), family)
    c_p = _sharp_1d_constant(p)
    assert floor * c_p <= rep["max_ratio"] <= c_p * (1.0 + EPS_LUX)


def _operator_norm_1d(p, R):
    spec = {"phi": {"kind": "orlicz", "params": {"p": p}},
            "experiments": [{"experiment": "operator-norm",
                             "truncation_radius": R}]}
    return run_pipeline(spec)["experiments"][0]["report"]


def test_operator_norm_runs_in_phis_dimension(capsys):
    """The experiment's ten balls lie in phi's dimension: on a 1D phi at
    their centers' first coordinates, every one measured."""
    spec = {"phi": {"kind": "orlicz", "params": {"p": 2}},
            "experiments": [{"experiment": "operator-norm"}]}
    assert main(["pipeline", json.dumps(spec)]) == 0
    rep = json.loads(capsys.readouterr().out)["experiments"][0]["report"]
    assert rep["indices"] == list(range(10))
    # t^2 at resolution 8: under C_2 = 1 + sqrt(2) at every truncation
    assert [round(_operator_norm_1d(2, R)["max_ratio"], 3)
            for R in (8, 16, 32)] == [1.559, 1.608, 1.642]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_1d_operator_norm_stays_below_the_sharp_constant(p):
    for R in (8, 16):
        rep = _operator_norm_1d(p, R)
        assert rep["max_ratio"] <= _sharp_1d_constant(p) * (1.0 + EPS_LUX)


# ---------------------------------------------------------------------------
# the kernel against the exact uncentred operator on 1D step functions


def _exact_1d_maximal(f):
    """The uncentred M of the step function ``f`` at its cell centers: the
    largest average over intervals inside the box that hold the center.
    On a cell the average is monotone in each end, so each end is a cell
    boundary or the center itself.  Intervals of whole cells j..k hold
    center i when j <= i <= k: a cumulative max over left ends j, then a
    suffix max over right ends k, read at (i, i).  The half-open intervals
    from a boundary to the center, or back, are one matrix each.  Each row
    of integrals is summed from its own left end, so every average of
    nonnegative values is accurate relative to itself.  O(n^2)."""
    ((lo, hi),), v = f.box, f.values
    n = len(v)
    h = (hi - lo) / n
    ix = np.arange(n)
    span = (ix[None, :] - ix[:, None]).astype(float)  # k - j
    outside = span < 0.0
    sums = np.triu(np.broadcast_to(v * h, (n, n)))
    np.cumsum(sums, axis=1, out=sums)  # over cells j..k
    with np.errstate(invalid="ignore"):
        whole = np.where(outside, -np.inf, sums / ((span + 1.0) * h))
        np.maximum.accumulate(whole, axis=0, out=whole)
        whole = np.maximum.accumulate(whole[:, ::-1], axis=1)[:, ::-1]
        to_center = np.where(outside, -np.inf, (sums - 0.5 * h * v[None, :])
                             / ((span + 0.5) * h))  # B_j .. center k
        from_center = np.where(outside, -np.inf, (sums - 0.5 * h * v[:, None])
                               / ((span + 0.5) * h))  # center j .. B_(k+1)
    return np.maximum(np.diagonal(whole), np.maximum(to_center.max(axis=0),
                                                     from_center.max(axis=1)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 120), stride=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16))
def test_1d_kernel_stays_below_the_exact_operator(n, stride, seed):
    """Heavy-tailed and sparse members on random 1D grids, default ladder:
    the discrete M under-estimates the operator at every cell."""
    rng = np.random.default_rng(seed)
    box = ((-rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)),)
    for values in (rng.lognormal(0.0, 3.0, n),
                   rng.lognormal(0.0, 1.0, n) * (rng.random(n) < 0.2)):
        f = GridFunction(box, values)
        got = maximal(f, MaximalConfig(default_config(f).radius_set, stride))
        assert np.all(got.values <= _exact_1d_maximal(f) * (1.0 + 1e-12))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_exact_1d_ratio_stays_below_the_sharp_constant(p):
    """f = x^(-0.99/p) on (0, 1), 0 on (-1, 0], on 2048 cells: the
    Luxemburg norm of t^p is the L^p norm, so the exact operator's ratio
    is at most C_p, and it is at least the kernel's (0.670 and 0.642 of
    C_p at p = 1.5, 0.785 and 0.757 at p = 2)."""
    box = ((-1.0, 1.0),)
    x = GridFunction(box, np.zeros(2048)).points()[:, 0]
    f = GridFunction(box, np.where(x > 0.0, np.abs(x) ** (-0.99 / p), 0.0))
    phi = from_curve(power_curve(p), dim=1)
    exact, discrete = (luxemburg_norm(phi, GridFunction(box, m))
                       / luxemburg_norm(phi, f) / _sharp_1d_constant(p)
                       for m in (_exact_1d_maximal(f), maximal(f).values))
    assert discrete <= exact <= 1.0 + EPS_LUX


# ---------------------------------------------------------------------------
# the 2D kernel against the exact uncentred operator on disc indicators


def _lens(r1, r2, c):
    """The area where discs of radii r1 and r2 overlap, their centers c > 0
    apart.  Clipping the cosines and the root's radicand makes the one
    form hold also when the discs are disjoint or one holds the other."""
    a1 = np.arccos(np.clip((c * c + r1 * r1 - r2 * r2) / (2 * c * r1), -1, 1))
    a2 = np.arccos(np.clip((c * c + r2 * r2 - r1 * r1) / (2 * c * r2), -1, 1))
    k = (-c + r1 + r2) * (c + r1 - r2) * (c - r1 + r2) * (c + r1 + r2)
    return r1 * r1 * a1 + r2 * r2 * a2 - 0.5 * np.sqrt(np.maximum(k, 0.0))


def _exact_disc_maximal(a, d):
    """The uncentred M of the indicator of B(0, a) in R^2 at the distances
    d from 0.  Inside the disc it is 1.  At d > a, of the balls of radius
    rho that hold x, the one centered on the segment from x toward 0 lies
    closest to 0, at |d - rho|, and overlaps B most; it reaches B once rho
    >= (d - a) / 2, and holds it from rho = (d + a) / 2 on, past which the
    average only falls.  So M is the max over that rho interval of
    lens(rho, a, |d - rho|) / (pi rho^2), found on a grid of 513 radii
    refined twice about its best point."""
    d = np.asarray(d, float)
    out = np.ones_like(d)
    far = d > a
    x = d[far][:, None]
    lo, hi = (x - a) / 2, (x + a) / 2
    for _ in range(3):
        rho = lo + (hi - lo) * np.linspace(0.0, 1.0, 513)
        avg = _lens(rho, a, np.abs(x - rho)) / (np.pi * rho * rho)
        best = np.take_along_axis(rho, avg.argmax(axis=1)[:, None], axis=1)
        step = (hi - lo) / 512
        lo, hi = np.maximum(best - step, lo), np.minimum(best + step, hi)
    out[far] = avg.max(axis=1)
    return out


def test_exact_disc_maximal_decays_as_the_enclosing_ball():
    """The ball of diameter d + 1 through x holds the unit disc, so
    M(x)(d + 1)^2 >= 4; on 2 <= d <= 16 the product stays below 4.23."""
    d = np.linspace(2.0, 16.0, 141)
    prod = _exact_disc_maximal(1.0, d) * (d + 1.0) ** 2
    assert prod.min() >= 4.0 and prod.max() <= 4.23
    assert np.all(_exact_disc_maximal(1.0, [0.0, 0.5, 1.0]) == 1.0)


@pytest.mark.parametrize("resolution", [4.0, 8.0])
def test_2d_kernel_lies_between_the_exact_operators_of_two_discs(resolution):
    """The unit disc's pixel set (cells of size h whose centers lie in it)
    lies between the discs of radius 1 - h/sqrt(2) and 1 + h/sqrt(2), and
    M is monotone in f.  So on 2 <= |x| <= 16 the kernel is at most the
    outer disc's exact M, and at least 2^(-1/2) times the inner one's:
    ratio^(-2) for the 2D ladder ratio 2^(1/4) (each distinct |x| is
    evaluated once)."""
    fam, maxes = _ball_maxima(2, [32.0], resolution, [((0.0, 0.0), 1.0)])
    f, Mf = fam[0], maxes[0]
    h = f.cell_sizes[0]
    d = np.linalg.norm(f.points(), axis=1)
    cells = (d >= 2.0) & (d <= 16.0)
    dist, at = np.unique(d[cells], return_inverse=True)
    got = Mf.values.ravel()[cells]
    outer, inner = (_exact_disc_maximal(a, dist)[at] for a in
                    (1.0 + h / math.sqrt(2.0), 1.0 - h / math.sqrt(2.0)))
    assert np.all(got <= outer)
    assert np.all(got >= 2.0 ** -0.5 * inner)


# ---------------------------------------------------------------------------
# the kernel against a brute-force enumeration of lattice centers and balls

_ORACLE_GRIDS_1D = [((13,), ((0.0, 2.0),)), ((20,), ((-1.0, 1.5),))]
_ORACLE_GRIDS = [((8, 8), ((-1.0, 1.0), (-1.0, 1.0))),
                 ((9, 6), ((0.0, 2.0), (0.0, 3.0))),
                 # as thin as grids get: every half-width crops to 0 or 1
                 ((1, 40), ((0.0, 0.1), (0.0, 4.0))),
                 ((2, 40), ((0.0, 0.2), (0.0, 4.0))),
                 ((33, 40), ((0.0, 3.3), (0.0, 4.0)))]


def _oracle_radii(f):
    # a generic ratio keeps every cell-center distance off the radii, so
    # the strict ball |x - c| < r is unambiguous
    h = min(f.cell_sizes)
    diam = math.hypot(*(hi - lo for lo, hi in f.box))
    radii = [0.7 * h]
    while radii[-1] < 1.3 * diam:
        radii.append(radii[-1] * 1.37)
    return radii


def _oracle_balls(f, r, stride):
    """(lattice center, boolean ball-in-grid mask) pairs."""
    idx = np.indices(f.values.shape)
    h = np.reshape(f.cell_sizes, (-1,) + (1,) * f.dim)
    for c in itertools.product(*(range(0, n, stride)
                                 for n in f.values.shape)):
        dist2 = np.sum(((idx - np.reshape(c, h.shape)) * h) ** 2, axis=0)
        assert np.all(np.abs(np.sqrt(dist2) - r) > 1e-6 * r)
        yield c, dist2 < r * r


def _brute_force(f, radii, stride):
    """Max over the radii and lattice centers of the ball averages, cell by
    cell, checking each ball's cell count against the kernel's closed
    form."""
    values = f.values
    lattice = tuple(-(-n // stride) for n in values.shape)
    g = values.reshape(values.shape[0], -1).shape  # a 1D grid is a column
    expected = values.copy()
    for r in radii:
        count = _mx._Plan((r,), f.cell_sizes, g, stride).counts(0).T.reshape(
            lattice)
        for c, ball in _oracle_balls(f, r, stride):
            assert count[tuple(np.array(c) // stride)] == ball.sum()
            expected[ball] = np.maximum(expected[ball], values[ball].mean())
    return expected


def _check_brute_force(shape, box, stride):
    """Random input to 1e-12 relative; integer-valued input, whose ball
    sums are exact, bit for bit."""
    rng = np.random.default_rng(7)
    for values, exact in ((rng.random(shape), False),
                          (rng.integers(0, 5, shape).astype(float), True)):
        f = GridFunction(box, values)
        radii = _oracle_radii(f)
        expected = _brute_force(f, radii, stride)
        got = maximal(f, MaximalConfig(tuple(radii), center_stride=stride))
        if exact:
            np.testing.assert_array_equal(got.values, expected)
        else:
            np.testing.assert_allclose(got.values, expected, rtol=1e-12,
                                       atol=0)


# 50 passes every grid's largest axis: the kernel runs at that axis,
# the oracle at the lattice of 50 itself
@pytest.mark.parametrize("stride", [1, 2, 3, 50])
@pytest.mark.parametrize("shape,box", _ORACLE_GRIDS_1D)
def test_1d_matches_brute_force(shape, box, stride):
    _check_brute_force(shape, box, stride)


@pytest.mark.parametrize("stride", [1, 2, 3, 50])
@pytest.mark.parametrize("shape,box", _ORACLE_GRIDS)
def test_2d_matches_brute_force(shape, box, stride):
    _check_brute_force(shape, box, stride)


@pytest.mark.parametrize("stride", [1, 2])
def test_ball_sums_beside_a_spike(stride):
    """Each ball sum rounds relative to that ball: beside a cell 1e15
    times the rest, every average matches the oracle to 1e-13 relative
    (differences of plain prefix sums round relative to the spike and are
    off by up to 1.7e-2 here).  Integer input up to 2**40, coarse enough
    that the exact split keeps a low part, stays bit for bit."""
    box = ((0.0, 64.0), (0.0, 64.0))
    cfg = MaximalConfig((1.5, 2.5), center_stride=stride)
    spike = np.full((64, 64), 1e-3)
    spike[20, 33] = 1e12
    f = GridFunction(box, spike)
    np.testing.assert_allclose(maximal(f, cfg).values,
                               _brute_force(f, cfg.radius_set, stride),
                               rtol=1e-13, atol=0)
    big = np.random.default_rng(11).integers(0, 2 ** 40, (64, 64))
    f = GridFunction(box, big.astype(float))
    np.testing.assert_array_equal(maximal(f, cfg).values,
                                  _brute_force(f, cfg.radius_set, stride))


def test_repeated_footprints_are_skipped(monkeypatch):
    """A radius whose cropped ball equals the previous one's cannot change
    the max: 95 of the 146 radii of the 1D default ladder on 512 cells
    reach the dilation, and the result is the max over single radii."""
    calls = []
    dilate = _mx._dilate
    monkeypatch.setattr(_mx, "_dilate",
                        lambda *args: calls.append(1) or dilate(*args))
    v = np.random.default_rng(5).random(512)
    f = GridFunction(((-4.0, 4.0),), v)
    cfg = default_config(f)
    got = _mx._staircase_maximal(v, f.cell_sizes, cfg)
    assert (len(cfg.radius_set), len(calls)) == (146, 95)
    each = [_mx._staircase_maximal(v, f.cell_sizes, MaximalConfig((r,)))
            for r in cfg.radius_set]
    np.testing.assert_array_equal(got, np.max(each, axis=0))


def _reference_runs(r, cell_sizes, shape):
    """One radius's cropped ball, plainly: the x half-count of each row
    |dy| whose cells lie within r, each the largest k < n with k h < r
    (to 1e-9 of a cell), grouped into runs of equal half-count."""
    nx, ny = shape

    def half(t, h, n):
        return max(math.ceil(min(t, n * h) / h - 1e-9) - 1, 0)

    if len(cell_sizes) == 1:
        widths = [half(r, cell_sizes[0], nx)]
    else:
        hx, hy = cell_sizes
        widths = [half(math.sqrt(max(r * r - (d * hy) * (d * hy), 0.0)), hx, nx)
                  for d in range(half(r, hy, ny) + 1)]
    runs = []
    for w, group in itertools.groupby(enumerate(widths), key=lambda item: item[1]):
        rows = [d for d, _ in group]
        runs.append((w, rows[0], rows[-1]))
    return runs


def _reference_counts(runs, shape, s):
    """Cells of the ball inside the grid at every lattice center, lattice
    columns first, by enumerating the cells."""
    nx, ny = shape
    reach = np.full(ny, -1)
    for w, d_lo, d_hi in runs:
        reach[d_lo: d_hi + 1] = w
    i, j = np.indices(shape)
    return np.array([[np.sum(np.abs(i - a) <= reach[np.abs(j - b)])
                      for a in range(0, nx, s)] for b in range(0, ny, s)])


@settings(max_examples=60, deadline=None)
@given(shape=st.one_of(st.tuples(st.integers(1, 40), st.just(1)),
                       st.tuples(st.integers(1, 12), st.integers(1, 12))),
       sizes=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
       stride=st.integers(1, 4),
       radii=st.lists(st.one_of(st.floats(1e-3, 40.0), st.floats(1e3, 1e308)),
                      min_size=1, max_size=12, unique=True).map(sorted))
def test_plan_matches_per_radius_reference(shape, sizes, stride, radii):
    """The plan of all radii at once keeps one footprint per run of
    radii with equal cropped balls, each with the runs and cell counts of
    a plain per-radius reference, and the fewest cells at any center.
    Radii near the largest float neither overflow nor warn."""
    cell_sizes = sizes[:1] if shape[1] == 1 else sizes
    scale = min(cell_sizes)
    radii = [r * scale if r <= 40.0 else r for r in radii]
    radii = sorted(set(radii))
    plan = _mx._Plan(radii, cell_sizes, shape, stride)
    expected = [runs for runs, _ in itertools.groupby(
        _reference_runs(r, cell_sizes, shape) for r in radii)]
    assert plan.footprints == expected
    for i, runs in enumerate(expected):
        counts = _reference_counts(runs, shape, stride)
        np.testing.assert_array_equal(plan.counts(i), counts)
        assert plan.fewest[i] == counts.min()


@st.composite
def _pruning_families(draw):
    """A box and a stack of members on it: all zero, random, small
    integers, a 1e12 spike on a faint background, and supports in
    opposite corners, so that one batch mixes members whose averages
    live in different places."""
    dim = draw(st.integers(1, 2))
    shape = tuple(draw(st.integers(2, 40 if dim == 1 else 12))
                  for _ in range(dim))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    kinds = draw(st.lists(st.sampled_from(
        ["zero", "random", "integer", "spike", "low", "high"]),
        min_size=1, max_size=4))
    members = []
    for kind in kinds:
        v = np.zeros(shape)
        if kind == "random":
            v = rng.random(shape)
        elif kind == "integer":
            v = rng.integers(0, 5, shape).astype(float)
        elif kind == "spike":
            v = rng.integers(0, 2, shape) * 1e-3
            v[tuple(rng.integers(0, n) for n in shape)] = 1e12
        elif kind in ("low", "high"):
            corner = tuple(slice(0, max(1, n // 4)) if kind == "low" else
                           slice(n - max(1, n // 4), n) for n in shape)
            v[corner] = rng.integers(1, 9, v[corner].shape)
        members.append(v)
    box = tuple((0.0, n / 4.0) for n in shape)
    return box, np.array(members)


@settings(max_examples=40, deadline=None)
@given(family=_pruning_families(), stride=st.integers(1, 3),
       one_per_chunk=st.booleans())
def test_skipped_work_leaves_the_max_unchanged(family, stride,
                                               one_per_chunk):
    """Footprints dropped before their ball sums and lattice centers left
    out of a dilation cannot move a bit: over a family the kernel equals
    the max over single-radius runs, with footprints batched as usual or
    one ball sum at a time (so that each is tested against the freshest
    output); on integer input it equals the brute-force oracle."""
    box, vs = family
    f = GridFunction(box, vs[0])
    cfg = MaximalConfig(default_config(f).radius_set, stride)
    with pytest.MonkeyPatch.context() as mp:
        if one_per_chunk:
            mp.setattr(_mx, "_BATCH_CELLS", 1)
        got = _mx._staircase_maximal(vs, f.cell_sizes, cfg)
    each = [_mx._staircase_maximal(vs, f.cell_sizes, MaximalConfig((r,),
                                                                   stride))
            for r in cfg.radius_set]
    assert got.tobytes() == np.max(each, axis=0).tobytes()
    ints = [GridFunction(box, v) for v in np.floor(4.0 * vs)]
    radii = tuple(_oracle_radii(ints[0]))
    for f, Mf in zip(ints, _mx._maximal_family(
            ints, MaximalConfig(radii, stride))):
        np.testing.assert_array_equal(Mf.values,
                                      _brute_force(f, radii, stride))


def test_dead_footprints_are_skipped(monkeypatch):
    """On the 256² grid of ``ex3_4`` at resolution 4 (the indicator
    of the unit disc in a box of half-width 64), 7 of the 32 footprints
    cannot raise any cell of Mf: 5 are dropped before their ball sums,
    so only 27 sums reach the division by their cell counts, and 2 more
    after them, so 25 reach the dilation."""
    calls = []
    dilate, counts = _mx._dilate, _mx._Plan.counts
    monkeypatch.setattr(_mx, "_dilate",
                        lambda *args: calls.append("dilate") or dilate(*args))
    monkeypatch.setattr(_mx._Plan, "counts",
                        lambda *args: calls.append("sums") or counts(*args))
    f = GridFunction.indicator_ball([0.0, 0.0], 1.0, ((-64.0, 64.0),) * 2,
                                    256)
    cfg = default_config(f)
    footprints = _mx._Plan(cfg.radius_set, f.cell_sizes, (256, 256),
                           cfg.center_stride).footprints
    _mx._staircase_maximal(f.values, f.cell_sizes, cfg)
    assert (len(footprints), calls.count("sums"),
            calls.count("dilate")) == (32, 27, 25)


# ---------------------------------------------------------------------------
# one kernel evaluation per grid, and no state kept between calls


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of members of each kernel call."""
    calls = []
    kernel = _mx._staircase_maximal

    def counted(v, *args):
        calls.append(len(v))
        return kernel(v, *args)

    monkeypatch.setattr(_mx, "_staircase_maximal", counted)
    return calls


def test_repeated_calls_agree_in_separate_arrays(kernel_calls):
    box = ((0.0, 2.0), (0.0, 2.0))
    f = GridFunction(box, np.random.default_rng(3).random((12, 12)))
    first, again = maximal(f), maximal(f)
    assert kernel_calls == [1, 1]
    np.testing.assert_array_equal(again.values, first.values)
    assert not np.shares_memory(again.values, first.values)


def test_divergence_experiment_runs_the_kernel_once_per_grid(kernel_calls,
                                                             table_builds):
    """Both reports of the experiment read one maximal function per
    truncation radius, and bind phi twice per grid: once for the member's
    norm and once for its maximal function's norm, whose search starts
    from the modular that the growth report takes."""
    spec = {"phi": {"kind": "example_3_4", "params": {}},
            "experiments": [{"experiment": "maximal-divergence",
                             "radii": [2, 4, 8]}]}
    exp = run_pipeline(spec, resolution=2.0)["experiments"][0]
    assert kernel_calls == [1, 1, 1]
    assert len(table_builds) == 6
    assert len(exp["modular_growth"]["modulars"]) == 3
    assert exp["operator_norm"]["indices"] == [0, 1, 2]


@pytest.mark.parametrize("name,sizes", [("ex3_2", [10, 10, 10]),
                                        ("ex3_4", [1, 1, 1, 1])])
def test_bundles_run_one_kernel_call_per_family_grid(kernel_calls, name,
                                                     sizes):
    """At resolution 4, ex3_2's three ten-ball families each fit one
    call, and ex3_4 runs one call on each of its four grids."""
    run_example(name, resolution=4)
    assert kernel_calls == sizes


# ---------------------------------------------------------------------------
# families: one batched kernel call per grid, bit for bit the lone member's


@settings(max_examples=40, deadline=None)
@given(shape=st.one_of(st.tuples(st.integers(3, 24)),
                       st.tuples(st.integers(3, 9), st.integers(3, 9))),
       stride=st.integers(1, 3), members=st.integers(1, 7),
       per_batch=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_family_batches_match_lone_members(shape, stride, members,
                                           per_batch, seed):
    """A family through ``_maximal_family`` equals each member run alone,
    bit for bit, with the batch cap lowered so that families of more than
    ``per_batch`` members span several kernel calls; a repeated member
    takes a batch slot of its own."""
    rng = np.random.default_rng(seed)
    box = tuple((0.0, n / 4.0) for n in shape)
    # random and integer-valued members, and one repeated
    vals = [rng.random(shape) if i % 2 else
            rng.integers(0, 4, shape).astype(float) for i in range(members)]
    family = [GridFunction(box, v) for v in vals + vals[:1]]
    cfg = MaximalConfig(default_config(family[0]).radius_set, stride)
    calls = []
    kernel = _mx._staircase_maximal

    def counted(v, *args):
        calls.append(len(v))
        return kernel(v, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_mx, "_BATCH_CELLS", per_batch * math.prod(shape))
        mp.setattr(_mx, "_staircase_maximal", counted)
        got = _mx._maximal_family(family, cfg)
    assert calls == [min(per_batch, members + 1 - i)
                     for i in range(0, members + 1, per_batch)]
    for f, Mf in zip(family, got):
        alone = np.maximum(kernel(f.values, f.cell_sizes, cfg), f.values)
        assert Mf.box == f.box
        assert Mf.values.tobytes() == alone.tobytes()


# ---------------------------------------------------------------------------
# 2D properties on drawn grids

_grids_2d = st.tuples(st.integers(3, 10), st.integers(3, 10)).flatmap(
    lambda shape: st.tuples(
        st.just(((0.0, shape[0] / 4.0), (0.0, shape[1] / 3.0))),
        hnp.arrays(float, shape, elements=st.floats(0.0, 100.0)),
        hnp.arrays(float, shape, elements=st.floats(0.0, 100.0))))


@given(_grids_2d, st.floats(0.01, 100.0))
def test_2d_homogeneity_sublinearity_and_bounds(grids, c):
    box, a, b = grids
    f, g = GridFunction(box, a), GridFunction(box, b)
    cfg = default_config(f)
    Mf, Mg = maximal(f, cfg).values, maximal(g, cfg).values
    scale = max(a.max(), b.max(), 1.0)
    # prefix sums round relative to the running total, not to each ball's
    # sum: hence tolerances relative to the largest value
    np.testing.assert_allclose(maximal(f.scaled(c), cfg).values, c * Mf,
                               rtol=1e-12, atol=1e-12 * c * scale)
    Ms = maximal(GridFunction(box, a + b), cfg).values
    assert np.all(Ms <= Mf + Mg + 1e-12 * scale)
    assert np.all(Mf >= a)
    assert np.all(Mf <= a.max() + 1e-12 * scale)
