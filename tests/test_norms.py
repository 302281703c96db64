import functools
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import orliczkit.norms as norms_module
from orliczkit import (
    AsymptotePair,
    Domain,
    GridFunction,
    WeightFunction,
    annulus_test_function,
    ball_norm_check,
    cap_curve,
    check_adec,
    conjugate_function,
    duality_lower_bound,
    from_curve,
    glue_small_values,
    luxemburg_norm,
    make_family,
    modular,
    pairing,
    power_curve,
    rebuild_with_ainc,
    region_from_dict,
    small_value_threshold,
)
from orliczkit.gallery import _BALLS, _ball_maxima
from orliczkit.maximal import _norm_ratios
from orliczkit.norms import EPS_LUX, LAMBDA_CAP, MAX_CELLS, _domain_mask, \
    _luxemburg_norms, _modular_at, _truncation_grid
from orliczkit.phi_core import _norms

INF = math.inf


def square(dim=1):
    return from_curve(power_curve(2.0), dim=dim)


# ---------------------------------------------------------------------------
# GridFunction structure and IO


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(((0.0, 1.0),), -np.ones(4))
    with pytest.raises(ValueError):
        GridFunction(((0.0, 1.0),), np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        GridFunction(((1.0, 0.0),), np.ones(4))
    g = GridFunction(((0.0, 2.0), (0.0, 1.0)), np.ones((8, 4)))
    assert g.cell_volume == pytest.approx(0.0625)
    assert g.points().shape == (32, 2)


def test_indicator_ball_matches_the_distance_of_every_cell_center():
    """The broadcast squared offsets give bit for bit the indicator of
    ``_norms`` over the cell centers, also on a box about 1e200 wide, where
    the squares overflow and those cells take the rescaled distance."""
    cases = [((0.0,), 1.0, ((-8.0, 8.0),), 64),
             ((1.0, -2.0), 0.5, ((-3.0, 7.0), (-2.0, 5.0)), (13, 17)),
             ((1e199, 0.0), 5e199, ((-1e200, 1e200),) * 2, 16)]
    for center, radius, box, res in cases:
        got = GridFunction.indicator_ball(center, radius, box, res)
        c = np.asarray(center)
        want = GridFunction.from_callable(
            lambda X: (_norms(X - c) < radius).astype(float), box, res)
        assert got.box == want.box
        assert got.values.tobytes() == want.values.tobytes()
        assert 0 < got.values.sum() < got.values.size


def test_binary_roundtrip(tmp_path):
    g = GridFunction(((-1.0, 3.0), (0.0, 2.0)),
                     np.arange(12.0).reshape(3, 4))
    path = tmp_path / "g.bin"
    g.to_binary(path)
    rt = GridFunction.from_binary(path)
    assert rt.box == g.box and rt.resolution == g.resolution
    np.testing.assert_array_equal(rt.values, g.values)
    # header layout: dim, box floats, resolution, then payload
    blob = g.to_binary()
    assert blob[:4] == (2).to_bytes(4, "little")
    assert len(blob) == 4 + 32 + 8 + 12 * 8


def test_csv_roundtrip(tmp_path):
    g = GridFunction(((0.0, 1.0),), np.linspace(0.0, 1.0, 16))
    path = tmp_path / "g.csv"
    g.to_csv(path)
    rt = GridFunction.from_csv(path, g.box, 16)
    np.testing.assert_array_equal(rt.values, g.values)
    text = g.to_csv()
    assert text.splitlines()[0] == "index,x0,value"


# ---------------------------------------------------------------------------
# Modular


def test_modular_closed_forms():
    f = GridFunction(((0.0, 1.0),), np.ones(64))
    assert modular(square(), f) == pytest.approx(1.0)
    f2 = GridFunction(((0.0, 1.0), (0.0, 1.0)), 2.0 * np.ones((32, 32)))
    assert modular(square(2), f2) == pytest.approx(4.0)


def test_modular_infinite():
    capped = from_curve(cap_curve(power_curve(1.0), 1.0))
    f = GridFunction(((0.0, 1.0),), np.full(8, 3.0))
    assert modular(capped, f) == INF
    # finite cells (1e308 each) whose sum overflows: inf, and no warning
    assert modular(square(), GridFunction(((0.0, 64.0),), np.full(64, 1e154))) == INF


def test_modular_respects_domain():
    phi = make_family("example_4_6", {}, None)  # lives on (-2, 2)
    f = GridFunction(((-4.0, 4.0),), np.ones(64))
    # phi(x, 1) = 1 on the domain, and cells outside contribute nothing
    assert modular(phi, f) == pytest.approx(4.0, rel=1e-12)


def test_modular_grid_refinement():
    phi = square(1)

    def smooth(X):
        return 1.0 + np.sin(X[:, 0])

    coarse = modular(phi, GridFunction.from_callable(smooth, ((0.0, 3.0),), 256))
    fine = modular(phi, GridFunction.from_callable(smooth, ((0.0, 3.0),), 512))
    assert abs(fine - coarse) < 0.01 * abs(fine)


def test_modular_binds_phi_once_per_call(table_builds):
    """A whole bisection builds phi's table once, of the grid's cells in
    its domain where f > 0; every modular or norm call builds its own."""
    phi = make_family("example_4_6", {}, None)  # lives on (-2, 2)
    f = GridFunction(((-4.0, 4.0),), np.linspace(0.0, 3.0, 64))
    norm = luxemburg_norm(phi, f)
    assert table_builds == [32]  # the cells inside the domain
    assert luxemburg_norm(phi, f.scaled(2.0)) == pytest.approx(2 * norm)
    assert table_builds == [32, 32]
    direct = phi.eval_many(f.points()[16:48], f.values[16:48])
    assert modular(phi, f) == float(np.sum(direct) * f.cell_volume)
    assert table_builds == [32, 32, 32, 32]
    modular(phi, GridFunction(f.box, np.ones(32)))
    modular(phi, GridFunction(((-4.0, 4.5),), f.values))
    assert table_builds == [32, 32, 32, 32, 16, 30]
    # cells where f = 0 are not bound: phi(x, 0) = 0 adds exact zeros
    odd = GridFunction(f.box, np.where(np.arange(64) % 2, f.values, 0.0))
    assert modular(phi, odd) == float(np.sum(direct[1::2]) * f.cell_volume)
    assert table_builds[-1] == 16


def test_conjugate_modular_binds_once(table_builds):
    conj = conjugate_function(square(1))
    g = GridFunction(((-1.0, 1.0),), np.linspace(0.0, 1.0, 16))
    # (t^2)* = t^2 / 4: the norm of g under it is half that under t^2
    assert luxemburg_norm(conj, g) == pytest.approx(
        0.5 * luxemburg_norm(square(1), g), rel=2e-6)
    assert table_builds == [15, 15]  # g(-15/16) = 0 is left out


def test_norm_ratios_bind_phi_twice_per_grid(table_builds):
    """The ten members of a ball family share a grid: one table for their
    norms and one for those of their maximal functions, not 20, and the
    ratios are bit for bit those of one norm at a time.  The modulars of
    the maximal functions come from that second search, bit for bit."""
    phi = make_family("example_3_2", {}, None)
    fam, maxes = _ball_maxima(2, [6.0], 4.0, _BALLS)
    table_builds.clear()
    rep, growth = _norm_ratios(phi, fam, maxes)
    assert len(table_builds) == 2
    assert table_builds[1] == fam[0].values.size  # Mf > 0 everywhere
    one = [luxemburg_norm(phi, Mf) / luxemburg_norm(phi, f)
           for f, Mf in zip(fam, maxes)]
    assert rep["indices"] == list(range(10)) and rep["ratios"] == one
    np.testing.assert_array_equal(_bits(growth["modulars"]),
                                  _bits([modular(phi, Mf) for Mf in maxes]))
    table_builds.clear()
    two = fam + [GridFunction.indicator_ball([0.0, 0.0], 1.0, ((-2.0, 2.0),) * 2, 8)]
    _luxemburg_norms(phi, two)
    assert len(table_builds) == 2  # one per grid


# The modular as it was before batching, kept as the reference: phi
# bound to every cell in its domain and one member at a time.


def _reference_modular_at(phi, f):
    pts = f.points()
    mask = _domain_mask(phi, pts)
    evaluate = phi.evaluator(pts[mask])
    values = f.values.ravel()[mask]

    def at(u):
        out = evaluate(u * values)
        if np.any(np.isinf(out)):
            return INF
        return float(np.sum(out) * f.cell_volume)

    return at


def _bits(xs):
    return np.array(xs, dtype=float).view(np.uint64)


_BATCH_PHIS = {
    "square": square,
    "capped": lambda dim: from_curve(cap_curve(power_curve(1.0), 1.0), dim=dim),
    "example_3_4": lambda dim: make_family("example_3_4", {"dim": dim}),
    # a bounded domain: the grid's outer cells lie outside it
    "bounded": lambda dim: make_family(
        "double_phase", {"p": 1.5, "q": 3.0, "dim": dim,
                         "a": {"field": "abs_power", "power": 1.0}},
        Domain(dim, (-2.0,) * dim, (1.5,) * dim)),
    "conjugate": lambda dim: conjugate_function(square(dim)),
}


@st.composite
def _family(draw, dim):
    """A family on one grid: dense, sparse, all-zero and huge members (the
    last outside the space under the capped phi)."""
    n = draw(st.integers(3, 10 if dim == 2 else 40))
    box = ((-3.0, 3.0),) * dim
    fam = []
    for kind in draw(st.lists(st.sampled_from(["dense", "sparse", "zero", "huge"]),
                              min_size=1, max_size=3)):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        v = rng.random((n,) * dim) * draw(st.sampled_from([0.01, 1.0, 50.0]))
        if kind == "sparse":
            v = np.where(rng.random(v.shape) < 0.1, v, 0.0)
        fam.append(GridFunction(box, {"zero": 0.0 * v, "huge": np.full(v.shape, 1e14)}
                                .get(kind, v)))
    return fam


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", sorted(_BATCH_PHIS))
@settings(max_examples=8)
@given(data=st.data())
def test_batched_norms_match_one_member_reference(name, dim, data):
    phi = _BATCH_PHIS[name](dim)
    fam = data.draw(_family(dim))
    (norms, found), mods = _luxemburg_norms(phi, fam), _modular_at(phi, fam)(np.ones(len(fam)))
    np.testing.assert_array_equal(_bits(norms), _bits([luxemburg_norm(phi, f) for f in fam]))
    reference = _bits([_reference_modular_at(phi, f)(1.0) for f in fam])
    np.testing.assert_array_equal(_bits(mods), reference)
    # the modulars the norm search starts from, zero members included
    np.testing.assert_array_equal(_bits(found), reference)


def _blocked(phi, fam, budget):
    """The modulars at u = 1 and at u = 1, 2, ..., and the norms and
    modulars of the search, with the cell budget at ``budget``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms_module, "CELL_BUDGET", budget)
        at = _modular_at(phi, fam)
        return (at(np.ones(len(fam))), at(np.arange(1.0, len(fam) + 1.0)),
                *_luxemburg_norms(phi, fam))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", sorted(_BATCH_PHIS))
@settings(max_examples=8)
@given(data=st.data())
def test_blocked_evaluation_keeps_every_bit(name, dim, data):
    """With the cell budget cut to a few cells, phi is bound and evaluated
    in blocks of one to a few support cells: every modular and norm is bit
    for bit the one of a single block (the default on these grids)."""
    phi = _BATCH_PHIS[name](dim)
    fam = data.draw(_family(dim))
    budget = data.draw(st.integers(1, 7))
    for a, b in zip(_blocked(phi, fam, budget),
                    _blocked(phi, fam, norms_module.CELL_BUDGET)):
        np.testing.assert_array_equal(_bits(a), _bits(b))


def test_blocked_evaluation_on_sparse_support_and_inf():
    """Blocks of a sparse support (four ball indicators on a 24² grid, a
    gather and a scatter per block) keep every bit under a spatial phi,
    the conjugate of t^2 and a capped phi under which one member's
    modular is inf."""
    fam = [GridFunction.indicator_ball(c, r, ((-6.0, 6.0),) * 2, 24)
           for c, r in _BALLS[:4]]
    capped = from_curve(cap_curve(power_curve(1.0), 1.0), dim=2)
    cases = [(make_family("example_3_2", {}, None), fam),
             (conjugate_function(square(2)), fam),
             (capped, fam + [fam[1].scaled(3.0)])]
    for phi, members in cases:
        for budget in (1, 5, 3 * len(members)):
            for a, b in zip(_blocked(phi, members, budget),
                            _blocked(phi, members, norms_module.CELL_BUDGET)):
                np.testing.assert_array_equal(_bits(a), _bits(b))
    assert _blocked(capped, cases[2][1], 5)[0][-1] == INF


def test_norm_search_memory_stays_within_the_cell_budget():
    """The norm search over the maximal functions of the ten-ball family
    on the 128² grid of R = 32 holds at most 5 MiB at its peak
    (tracemalloc): phi is evaluated in blocks of the cell budget, where
    one block of all cells held 6.9 MiB."""
    phi = make_family("example_3_2", {}, None)
    maxima = _ball_maxima(2, [32.0], 4.0, _BALLS)[1]
    tracemalloc.start()
    try:
        _luxemburg_norms(phi, maxima)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2 ** 20


# The norm search against a plain bisection, written here, of the
# predicate at(u) <= 1 over the same binding of phi.


@functools.cache
def _search_phi(name, dim):
    if name == "glued":
        return glue_small_values(make_family("example_3_2", {}, None),
                                 region_from_dict({"region": "inv_square_strip"}), 1.5)
    if name == "rebuilt":
        phi = make_family("example_3_5", {"dim": dim}, None)
        pair = AsymptotePair(power_curve(2.0), WeightFunction.recip_power(4.0, dim), beta=1.0)
        return rebuild_with_ainc(phi, pair, small_value_threshold(phi, pair.phi_inf))
    if name == "variable_exponent":
        return make_family("variable_exponent", {"dim": dim, "p": {
            "field": "pw_linear", "points": [[0.0, 2.0], [4.0, 1.2]]}})
    return _BATCH_PHIS[name](dim)


def _plain_brackets(phi, fs):
    """Per member, a bracket (lo, hi) of u = 1/lam by plain bisection of
    log u, each row on its own, until hi - lo <= EPS_LUX * lo: (0, floor)
    where the floor 1/LAMBDA_CAP fails, (inf, inf) where u = 1e300 fits,
    and (0, 0) for a member with no positive value."""
    idx = [i for i, f in enumerate(fs) if np.any(f.values > 0)]
    lo, hi = np.zeros(len(fs)), np.zeros(len(fs))
    if idx:
        at = _modular_at(phi, [fs[i] for i in idx])
        a, b = np.full(len(idx), 1.0 / LAMBDA_CAP), np.full(len(idx), 1e300)
        with np.errstate(over="ignore"):  # u f past the largest float: modular inf
            low, top = at(a) > 1.0, at(b) <= 1.0
        todo = ~low & ~top
        while np.any(todo := todo & (b - a > EPS_LUX * a)):
            mid = np.sqrt(a) * np.sqrt(b)
            fit = at(np.where(todo, mid, 1.0)) <= 1.0
            a, b = np.where(todo & fit, mid, a), np.where(todo & ~fit, mid, b)
        lo[idx] = np.where(low, 0.0, np.where(top, INF, a))
        hi[idx] = np.where(low, a, np.where(top, INF, b))
    return lo, hi


@st.composite
def _scaled_family(draw, dim):
    """A family on one grid: all-zero, dense and sparse members, and
    members at the scale 1e-300 or 1e14; families are small."""
    n = draw(st.integers(3, 6 if dim == 2 else 24))
    box = ((-3.0, 3.0),) * dim
    fam = []
    for kind in draw(st.lists(st.sampled_from(["zero", "dense", "sparse", "tiny", "huge"]),
                              min_size=1, max_size=2)):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        v = rng.random((n,) * dim) * {"zero": 0.0, "tiny": 1e-300, "huge": 1e14}.get(
            kind, draw(st.sampled_from([0.01, 1.0, 50.0])))
        if kind == "sparse":
            v = np.where(rng.random(v.shape) < 0.1, v, 0.0)
        fam.append(GridFunction(box, v))
    return fam


@pytest.mark.parametrize("name,dim", [
    (name, dim) for name in ("square", "example_3_4", "rebuilt", "capped",
                             "variable_exponent", "conjugate") for dim in (1, 2)]
    + [("glued", 2)])
def test_seeded_norm_search_is_the_plain_search(name, dim):
    """Each norm is from above and within EPS_LUX of the plain
    bisection's: above 1/hi, where the bisection's modular fails, and
    within EPS_LUX of its 1/lo, since both brackets hold the norm's u and
    are EPS_LUX narrow.  Both read inf where the floor 1/LAMBDA_CAP fails,
    and 0 where u = 1e300 fits or the member has no positive value.  A
    conjugate modular costs milliseconds, so it gets fewer drawn examples;
    every case also runs one family with a member at each extreme scale."""
    phi = _search_phi(name, dim)
    box, ramp = ((-3.0, 3.0),) * dim, np.linspace(0.0, 1.0, 4 ** dim).reshape((4,) * dim)

    @settings(max_examples=3 if name == "conjugate" else 8)
    @example([GridFunction(box, c * ramp) for c in (1e-300, 1e14)])
    @given(fam=_scaled_family(dim))
    def check(fam):
        norms = np.array(_luxemburg_norms(phi, fam)[0])
        lo, hi = _plain_brackets(phi, fam)
        np.testing.assert_array_equal(norms[hi == 0.0], 0.0)
        np.testing.assert_array_equal(norms[(lo == 0.0) & (hi > 0.0)], INF)
        np.testing.assert_array_equal(norms[lo == INF], 0.0)
        rest = (lo > 0.0) & (lo < INF)
        assert np.all(norms[rest] > 1.0 / hi[rest])
        np.testing.assert_allclose(norms[rest], 1.0 / lo[rest], rtol=EPS_LUX, atol=0.0)

    check()


@pytest.fixture
def modular_calls(monkeypatch):
    """The levels of every evaluation of a ``_modular_at`` closure."""
    calls = []
    bind = norms_module._modular_at

    def counted(phi, fs):
        at = bind(phi, fs)

        def counting(u):
            calls.append(u)
            return at(u)

        return counting

    monkeypatch.setattr(norms_module, "_modular_at", counted)
    return calls


def test_seeded_norm_search_evaluates_few_modulars(modular_calls):
    """Under t^2, log m is linear in log u: the first secant step lands on
    the norm and one more closes the bracket.  The plain search evaluates
    23 modulars."""
    f = GridFunction.indicator_ball([0.0], 0.3, ((-1.0, 1.0),), 64)
    norm = luxemburg_norm(square(), f)
    assert norm == pytest.approx(math.sqrt(np.sum(f.values) * f.cell_volume), rel=2e-6)
    assert len(modular_calls) <= 8


_RAMP = np.linspace(0.1, 1.0, 8)


@pytest.mark.parametrize("name,c,most", [
    (name, c, 20) for name in ("square", "conjugate") for c in (1e-300, 1e-200, 1e300)]
    + [("capped", c, 40) for c in (1e-200, 1e-150, 1e14)])
def test_seeded_norm_search_at_extreme_scales(modular_calls, name, c, most):
    """A member whose modular underflows to 0 or overflows to inf at u = 1,
    or lies past a capped phi's tail, is searched like any other: its
    steps double log u to a bracket instead of doubling u about a thousand
    times."""
    # ||c ramp|| is c |ramp|_2 under t^2, half that under (t^2)* = t^2 / 4,
    # and c under t capped at 1 (the modular is below 1 up to the cap);
    # a norm below 1e-300 reads 0 and one past LAMBDA_CAP inf
    l2 = c * math.sqrt(np.mean(_RAMP ** 2))
    norm = {"square": l2, "conjugate": 0.5 * l2, "capped": c}[name]
    norm = 0.0 if norm < 1e-300 else INF if norm > LAMBDA_CAP else norm
    f = GridFunction(((0.0, 1.0),), c * _RAMP)
    assert luxemburg_norm(_BATCH_PHIS[name](1), f) == pytest.approx(norm, rel=2e-6, abs=0.0)
    assert len(modular_calls) <= most


@pytest.mark.parametrize("name,half", [("square", 1.0), ("conjugate", 0.5)])
def test_norms_match_closed_forms(name, half):
    """||f|| under t^2 is sqrt(h sum f^2) on the grid, and half that under
    (t^2)* = t^2 / 4.  log m is linear in log u, so a secant step lands
    on the norm: it is found far closer than EPS_LUX, at every scale."""
    phi = _BATCH_PHIS[name](1)
    fs = [GridFunction(((0.0, 1.0),), c * _RAMP) for c in (1e-200, 1e-3, 1.0)]
    fs.append(GridFunction.indicator_ball([0.1], 0.3, ((-1.0, 1.0),), 64))
    for f in fs:
        c = f.values.max()  # squares of f / c do not underflow
        l2 = c * math.sqrt(np.sum((f.values / c) ** 2) * f.cell_volume)
        assert luxemburg_norm(phi, f) == pytest.approx(half * l2, rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------------
# Luxemburg norm


def test_norm_trivial_cases():
    f = GridFunction(((0.0, 1.0),), np.zeros(8))
    assert luxemburg_norm(square(), f) == 0.0
    f = GridFunction(((0.0, 1.0),), 2.0 * np.ones(64))
    assert luxemburg_norm(square(), f) == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("measure", [0.25, 1.0, 4.0])
def test_norm_indicator_closed_form(p, measure):
    # ||c chi_E|| = c |E|^(1/p) for t^p
    phi = from_curve(power_curve(p))
    for c in (1.0, 0.3, 7.0):
        f = GridFunction(((0.0, measure),), c * np.ones(128))
        assert luxemburg_norm(phi, f) == pytest.approx(
            c * measure ** (1.0 / p), rel=2e-6)


def test_norm_not_in_space():
    capped = from_curve(cap_curve(power_curve(1.0), 1.0))
    f = GridFunction(((0.0, 1.0),), np.full(8, 1e14))
    assert luxemburg_norm(capped, f) == INF


def test_unit_ball_property():
    phi = square(1)
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = GridFunction(((0.0, 2.0),), rng.random(64))
        n = luxemburg_norm(phi, f)
        if n > 0:
            assert modular(phi, f.scaled(1.0 / n)) <= 1.0 + 1e-4


@given(st.sampled_from([0.5, 2.0, 10.0]), st.floats(1.1, 3.0))
def test_norm_homogeneity(c, p):
    phi = from_curve(power_curve(p))
    f = GridFunction(((0.0, 1.5),), np.linspace(0.1, 1.0, 32))
    assert luxemburg_norm(phi, f.scaled(c)) == pytest.approx(
        c * luxemburg_norm(phi, f), rel=3e-6)


def test_adec_modular_norm_coherence(families):
    # for doubling-type growth, finite modular and finite norm coincide
    phi = families["example_3_4"]
    assert check_adec(phi, 2.0).holds
    f = GridFunction.indicator_ball([0.0, 0.0], 1.0,
                                    ((-4.0, 4.0), (-4.0, 4.0)), 64)
    assert math.isfinite(modular(phi, f))
    assert math.isfinite(luxemburg_norm(phi, f))
    zero = GridFunction(f.box, np.zeros_like(f.values))
    assert luxemburg_norm(phi, zero) == 0.0


# ---------------------------------------------------------------------------
# Ball norms and duality


def test_ball_norm_power_closed_form():
    rep = ball_norm_check(square(1), [0.0], 0.125)  # |B| = 1/4
    assert rep["norm"] == pytest.approx(0.5, rel=5e-3)
    assert 0.95 <= rep["ratio_min"] <= rep["ratio_max"] <= 1.05


def test_ball_norm_measure_one_linear():
    rep = ball_norm_check(from_curve(power_curve(1.0)), [0.0], 0.5)
    assert rep["norm"] == pytest.approx(1.0, rel=5e-3)
    assert rep["estimates"][0] == pytest.approx(1.0, rel=1e-9)


def test_ball_norm_estimates_read_one_table(table_builds):
    """The five points of a 2D ball check are inverted through one table,
    bit for bit as one point at a time; example_3_4's pieces have two
    terms, so its inverse searches."""
    phi = make_family("example_3_4", {}, None)
    rep = ball_norm_check(phi, [0.5, -0.25], 0.25, resolution=16)
    assert table_builds[1:] == [5]  # the norm's binding, then the estimates
    y = [(0.5, -0.25), (0.375, -0.25), (0.625, -0.25), (0.5, -0.375), (0.5, -0.125)]
    np.testing.assert_array_equal(
        _bits(rep["estimates"]), _bits([1.0 / phi.inverse(p, 1.0 / rep["ball_volume"])
                                        for p in y]))


def test_ball_norm_rejects_large_balls():
    with pytest.raises(ValueError):
        ball_norm_check(square(1), [0.0], 2.0)


def test_conjugate_function_square():
    conj = conjugate_function(square(1))
    assert conj.eval((0.0,), 2.0) == pytest.approx(1.0, abs=1e-8)
    # (phi*)^{-1}(tau) = 2 sqrt(tau) for phi = t^2, at every scale
    for tau in (1.0, 1e-20, 1e-30):
        assert conj.inverse((0.0,), tau) == pytest.approx(2.0 * math.sqrt(tau), rel=1e-9, abs=0.0)
    # reached at t = 0, without a search; (t)* is inf past 1, so it
    # reaches tau = inf there
    assert [conj.inverse((0.0,), tau) for tau in (-1.0, 0.0)] == [0.0, 0.0]
    assert conjugate_function(from_curve(power_curve(1.0))).inverse(
        (0.0,), INF) == pytest.approx(1.0, rel=1e-9)
    # (c t^p)* (s) = (p-1) p^(-p/(p-1)) c^(-1/(p-1)) s^(p/(p-1))
    for p, c in ((2.0, 3.0), (1.5, 0.5), (3.0, 2.0)):
        conj = conjugate_function(from_curve(power_curve(p, coef=c)))
        q = p / (p - 1.0)  # so that -1/(p-1) = 1 - q
        for s in (0.1, 1.0, 4.0):
            exact = (p - 1.0) * p ** -q * c ** (1.0 - q) * s ** q
            assert conj.eval((0.0,), s) == pytest.approx(exact, rel=1e-8)


def _bisect(f, lo: float, hi: float) -> float:
    """The root of an increasing f on [lo, hi], to the last bit."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
    return lo


def test_conjugate_at_extreme_levels():
    # phi = t^2 + 0.7 t^2.6: phi*(t) = st - phi(s) at the s where
    # 2s + 1.82 s^1.6 = t, which lies past s = 2^200 from t = 1e100 on
    p, q, a = 2.0, 2.6, 0.7
    conj = conjugate_function(make_family(
        "double_phase", {"p": p, "q": q, "a": {"field": "const", "value": a}}))

    def exact(t):
        x = _bisect(lambda x: p * math.exp((p - 1) * x) + a * q * math.exp((q - 1) * x) - t,
                    0.0, 300.0)
        s = math.exp(x)
        return s * t - s ** p - a * s ** q

    for t in (1e100, 1e120):
        assert conj.eval((0.0,), t) == pytest.approx(exact(t), rel=1e-8, abs=0.0)
    tau = 1e200
    t = math.exp(_bisect(lambda y: math.log(exact(math.exp(y)) / tau), 200.0, 400.0))
    assert conj.inverse((0.0,), tau) == pytest.approx(t, rel=1e-8, abs=0.0)


def test_conjugate_modular_is_one_call_for_every_member(conjugate_rows):
    # members at distinct levels share phi's table: one supremum call
    f = GridFunction(((-1.0, 1.0),), np.linspace(0.1, 1.0, 8))
    at = _modular_at(conjugate_function(square(1)), [f, f.scaled(2.0), f.scaled(3.0)])
    np.testing.assert_allclose(at(np.ones(3)), np.array([1.0, 4.0, 9.0])
                               * np.sum(f.values ** 2) * f.cell_volume / 4, rtol=1e-9)
    assert len(conjugate_rows) == 1


def test_duality_hands_one_conjugate_row_per_call(conjugate_rows):
    # phi does not depend on x and g is a ball indicator, so every cell of
    # g's support has the same (row, level): one supremum per evaluation
    f = GridFunction(((-1.0, 1.0),), np.ones(64))
    g = GridFunction.indicator_ball([0.1], 0.4, ((-1.0, 1.0),), 64)
    assert duality_lower_bound(square(1), f, g)["holds"]
    assert conjugate_rows and set(conjugate_rows) == {1}


def test_duality_lower_bound():
    phi = square(1)
    f = GridFunction(((0.0, 1.0),), np.ones(64))
    rep = duality_lower_bound(phi, f, f)  # ||f||_{phi*} = 1/2 <= 1
    assert rep["holds"]
    assert rep["pairing"] == pytest.approx(1.0)
    assert rep["norm_f"] == pytest.approx(1.0, rel=1e-5)
    zero = GridFunction(f.box, np.zeros(64))
    assert duality_lower_bound(phi, zero, f)["pairing"] == 0.0
    with pytest.raises(ValueError):
        duality_lower_bound(phi, f, f.scaled(10.0))


def test_duality_holder_case():
    # phi(t) = t^p / p: the classical pairing inequality within quadrature
    p = 2.0
    phi = from_curve(power_curve(p, coef=1.0 / p))
    f = GridFunction.from_callable(lambda X: X[:, 0], ((0.0, 1.0),), 256)
    g = GridFunction.from_callable(lambda X: 0.5 * np.ones(len(X)),
                                   ((0.0, 1.0),), 256)
    rep = duality_lower_bound(phi, f, g)
    assert rep["holds"]


def test_pairing_requires_matching_grids():
    f = GridFunction(((0.0, 1.0),), np.ones(8))
    g = GridFunction(((0.0, 1.0),), np.ones(16))
    with pytest.raises(ValueError):
        pairing(f, g)


def test_annulus_test_function():
    g = annulus_test_function(square(1), 1.0, 0.5, 1.0, ((-1.0, 1.0),), 64)
    vals = g.values
    assert vals.max() == pytest.approx(2.0, rel=1e-9)
    centers = g.axis_centers()[0]
    inside = (np.abs(centers) > 0.5) & (np.abs(centers) < 1.0)
    assert np.all(vals[~inside] == 0.0)
    assert np.all(vals[inside] > 0.0)


@settings(max_examples=100)
@given(resolution=st.floats(1e-3, 1e3), R=st.floats(1e-3, 1e3),
       dim=st.sampled_from([1, 2]))
@example(resolution=1e308, R=16.0, dim=2)
@example(resolution=8.0, R=1e308, dim=1)
def test_truncation_grid_keeps_the_cell_counts(resolution, R, dim):
    """The bundles' int(resolution * R) cells on (-R, R), at resolution / 2
    cells per unit length, and the CLI's max(int(resolution * 2R), 8),
    unchanged up to MAX_CELLS cells in all; a count past the largest float,
    of no cell or of more than MAX_CELLS cells raises."""
    if not math.isfinite(resolution * R * 2.0):
        with pytest.raises(ValueError, match="finite count"):
            _truncation_grid(dim, R, resolution, least=8)
        return
    for per_unit, least, n in ((resolution, 8, max(int(resolution * 2 * R), 8)),
                               (resolution / 2, 0, int(resolution * R))):
        if n < 1:
            with pytest.raises(ValueError, match="at least one cell"):
                _truncation_grid(dim, R, per_unit, least)
        elif n ** dim > MAX_CELLS:
            with pytest.raises(ValueError, match="at most"):
                _truncation_grid(dim, R, per_unit, least)
        else:
            assert _truncation_grid(dim, R, per_unit, least) == (((-R, R),) * dim, n)


def test_truncation_grid_cap_passes_the_gallery_grids():
    """The largest gallery grid at resolution 16, 1024^2 cells (R = 64),
    lies under the cap; one cell per axis more than the cap allows does
    not."""
    assert _truncation_grid(2, 64.0, 8.0) == (((-64.0, 64.0),) * 2, 1024)
    side = math.isqrt(MAX_CELLS)
    assert _truncation_grid(2, side / 2, 1.0)[1] == side
    with pytest.raises(ValueError, match="at most"):
        _truncation_grid(2, (side + 1) / 2, 1.0)
