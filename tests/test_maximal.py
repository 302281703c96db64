import math

import numpy as np
import pytest

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
)


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
    np.testing.assert_allclose(Mf.values, 3.0, rtol=1e-9)


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
