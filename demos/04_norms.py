"""Modulars and Luxemburg norms on sampled functions.

A GridFunction is a nonnegative function sampled on a regular grid over a
box.  The modular integrates phi(x, |f(x)|) by the midpoint rule; the
Luxemburg norm is the smallest lambda with modular(f / lambda) <= 1, found
from above by a bracket-and-bisect search to a relative tolerance of 1e-6.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from orliczkit import (
    GridFunction,
    annulus_test_function,
    ball_norm_check,
    conjugate_function,
    duality_lower_bound,
    from_curve,
    luxemburg_norm,
    make_family,
    modular,
    pairing,
    power_curve,
)

phi2 = from_curve(power_curve(2.0))

# Indicator of a set of measure m has L^p-style norm m^(1/p).
f = GridFunction(((0.0, 4.0),), np.ones(512))
print("norm of chi_[0,4] under t^2:", luxemburg_norm(phi2, f),
      "(closed form 2)")
print("modular at norm-normalized f:",
      modular(phi2, f.scaled(1.0 / luxemburg_norm(phi2, f))))

# Functions growing too fast for the space get norm = inf.
from orliczkit import cap_curve

tight = from_curve(cap_curve(power_curve(2.0), beta0=0.5))
g = GridFunction(((0.0, 1.0),), np.full(64, 10.0))
print("norm under a capped profile:", luxemburg_norm(tight, g))

# Norms of ball indicators vs the closed-form estimate 1 / phi^{-1}(1/|B|).
phi2d = from_curve(power_curve(2.0), dim=2)
chk = ball_norm_check(phi2d, center=(0.0, 0.0), radius=0.5)
print("ball norm:", round(chk["norm"], 6),
      "ratio to pointwise estimates:",
      round(chk["ratio_min"], 4), "-", round(chk["ratio_max"], 4))

# Duality: the pairing integral is controlled by 2 ||f|| once the
# conjugate norm of g is at most 1.
conj = conjugate_function(phi2)
fb = GridFunction.indicator_ball((0.0,), 1.0, ((-2.0, 2.0),), 256)
gb = annulus_test_function(phi2, level=0.25, r_in=0.0, r_out=1.0,
                           box=((-2.0, 2.0),), resolution=256)
res = duality_lower_bound(phi2, fb, gb)
print("pairing:", round(res["pairing"], 6), "bound holds:", res["holds"])

# Grid functions round-trip through CSV and a compact binary format.
with tempfile.TemporaryDirectory() as d:
    p = Path(d)
    fb.to_csv(p / "f.csv")
    fb.to_binary(p / "f.bin")
    again = GridFunction.from_binary(p / "f.bin")
    print("binary round-trip exact:",
          np.array_equal(again.values, fb.values) and again.box == fb.box)
    print("csv header:", (p / "f.csv").read_text().splitlines()[0])
