import importlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orliczkit import (
    GridFunction,
    PhiFunction,
    annulus_test_function,
    ball_norm_check,
    cap_curve,
    check_adec,
    conjugate_function,
    duality_lower_bound,
    from_curve,
    luxemburg_norm,
    make_family,
    modular,
    pairing,
    power_curve,
)

# the module itself, for its bound grid
_norms = importlib.import_module("orliczkit.norms")

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


@pytest.fixture
def table_builds(monkeypatch):
    """Each PhiFunction.table call, with no grid bound yet."""
    calls = []
    table = PhiFunction.table

    def counted(self, X):
        calls.append(len(X))
        return table(self, X)

    monkeypatch.setattr(PhiFunction, "table", counted)
    monkeypatch.setattr(_norms, "_BOUND", None)
    return calls


def test_modular_binds_phi_once_per_grid(table_builds):
    """A whole bisection, and f and 2f on one grid, build phi's table of
    the grid's cells once; another phi object or grid builds it again."""
    phi = make_family("example_4_6", {}, None)  # lives on (-2, 2)
    f = GridFunction(((-4.0, 4.0),), np.linspace(0.0, 3.0, 64))
    norm = luxemburg_norm(phi, f)
    assert luxemburg_norm(phi, f.scaled(2.0)) == pytest.approx(2 * norm)
    assert table_builds == [32]  # the cells inside the domain
    direct = phi.eval_many(f.points()[16:48], f.values[16:48])
    assert table_builds == [32, 32]
    assert modular(phi, f) == float(np.sum(direct) * f.cell_volume)
    assert len(table_builds) == 2
    modular(make_family("example_4_6", {}, None), f)
    modular(phi, GridFunction(f.box, np.ones(32)))
    modular(phi, GridFunction(((-4.0, 4.5),), f.values))
    assert table_builds == [32, 32, 32, 16, 30]


def test_conjugate_modular_binds_once(table_builds):
    conj = conjugate_function(square(1))
    g = GridFunction(((-1.0, 1.0),), np.linspace(0.0, 1.0, 16))
    # (t^2)* = t^2 / 4: the norm of g under it is half that under t^2
    assert luxemburg_norm(conj, g) == pytest.approx(
        0.5 * luxemburg_norm(square(1), g), rel=2e-6)
    assert table_builds == [16, 16]


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


def test_ball_norm_rejects_large_balls():
    with pytest.raises(ValueError):
        ball_norm_check(square(1), [0.0], 2.0)


def test_conjugate_function_square():
    conj = conjugate_function(square(1))
    assert conj.eval((0.0,), 2.0) == pytest.approx(1.0, abs=1e-8)
    # (phi*)^{-1}(tau) = 2 sqrt(tau) for phi = t^2, at every scale
    for tau in (1.0, 1e-20, 1e-30):
        assert conj.inverse((0.0,), tau) == pytest.approx(2.0 * math.sqrt(tau), rel=1e-9, abs=0.0)
    # (c t^p)* (s) = (p-1) p^(-p/(p-1)) c^(-1/(p-1)) s^(p/(p-1))
    for p, c in ((2.0, 3.0), (1.5, 0.5), (3.0, 2.0)):
        conj = conjugate_function(from_curve(power_curve(p, coef=c)))
        q = p / (p - 1.0)  # so that -1/(p-1) = 1 - q
        for s in (0.1, 1.0, 4.0):
            exact = (p - 1.0) * p ** -q * c ** (1.0 - q) * s ** q
            assert conj.eval((0.0,), s) == pytest.approx(exact, rel=1e-8)


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
