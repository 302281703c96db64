import importlib
import itertools
import math

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
    make_family,
    maximal,
    modular_growth,
    operator_norm_estimate,
    power_curve,
    run_pipeline,
)
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
                              _mx._maximal_family(family, cfg))["ratios"]
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
        count = _mx._ball_counts(_mx._runs(r, f.cell_sizes, g), g,
                                 stride).reshape(lattice)
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


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("shape,box", _ORACLE_GRIDS_1D)
def test_1d_matches_brute_force(shape, box, stride):
    _check_brute_force(shape, box, stride)


@pytest.mark.parametrize("stride", [1, 2, 3])
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
    """On the 256² grid of ``ex3_4`` at 4 cells per unit (the indicator
    of the unit disc in a box of half-width 64), 7 of the 32 footprints
    cannot raise any cell of Mf: 5 are dropped before their ball sums,
    so only 27 sums reach the division by their cell counts, and 2 more
    after them, so 25 reach the dilation."""
    calls = []
    dilate, counts = _mx._dilate, _mx._ball_counts

    def counted(*args, corners=False):
        if not corners:
            calls.append("sums")
        return counts(*args, corners=corners)

    monkeypatch.setattr(_mx, "_dilate",
                        lambda *args: calls.append("dilate") or dilate(*args))
    monkeypatch.setattr(_mx, "_ball_counts", counted)
    f = GridFunction.indicator_ball([0.0, 0.0], 1.0, ((-64.0, 64.0),) * 2,
                                    256)
    cfg = default_config(f)
    footprints = {tuple(_mx._runs(r, f.cell_sizes, (256, 256)))
                  for r in cfg.radius_set}
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


def test_divergence_experiment_runs_the_kernel_once_per_grid(kernel_calls):
    """Both reports of the experiment read one maximal function per
    truncation radius."""
    spec = {"phi": {"kind": "example_3_4", "params": {}},
            "experiments": [{"experiment": "maximal-divergence",
                             "radii": [2, 4, 8]}]}
    exp = run_pipeline(spec, resolution=2.0)["experiments"][0]
    assert kernel_calls == [1, 1, 1]
    assert len(exp["modular_growth"]["modulars"]) == 3
    assert exp["operator_norm"]["indices"] == [0, 1, 2]


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
