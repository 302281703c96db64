"""The (non-centered) Hardy-Littlewood maximal operator on grids.

Mf(x) is the supremum of averages of |f| over balls containing x, here
discretized over a geometric ladder of radii and strided centers.  The
discretization only under-approximates, so boundedness claims stay
heuristic.  So does the evidence of unboundedness: it is flagged when,
across at least three doublings of the truncation radius, the norm ratio
grows by a positive increment at every doubling and no increment is
smaller than the one before; a bounded operator's increments shrink.
"""

import numpy as np

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

# 1D sanity: M(chi_[-1,1])(x) = 2/(|x|+1) away from the bump.
f = GridFunction.indicator_ball((0.0,), 1.0, ((-8.0, 8.0),), 1024)
Mf = maximal(f)
x = f.axis_centers()[0]
i = int(np.argmin(np.abs(x - 3.0)))
print("Mf(3) =", round(float(Mf.values[i]), 4), "(closed form 0.5)")

# The default configuration ladders radii from one cell to the box diameter.
cfg = default_config(f)
print("default 1D ladder:", len(cfg.radius_set), "radii from",
      round(cfg.radius_set[0], 4), "to", round(cfg.radius_set[-1], 2))

# Operator-norm probe: ||Mf|| / ||f|| over a family of test functions.
phi2 = from_curve(power_curve(2.0), dim=2)
R = 16.0
fam = [GridFunction.indicator_ball((c, 0.0), r, ((-R, R), (-R, R)), 128)
       for c in (0.0, 4.0) for r in (0.5, 1.0)]
rep = operator_norm_estimate(phi2, fam)
print("t^2 (bounded case): max ratio", round(rep["max_ratio"], 3),
      "unbounded evidence:", rep["unbounded_evidence"])

# Divergent case: a profile that is linear for small values.  The modular
# of M(chi_ball) over a truncation of radius R grows like log R.
phi = make_family("example_3_4", {}, None)
radii = [8.0, 16.0, 32.0]
fam = [GridFunction.indicator_ball((0.0, 0.0), 1.0, ((-r, r), (-r, r)),
                                   int(4 * r)) for r in radii]
growth = modular_growth(phi, fam, radii=radii)
print("divergent case: modular slope vs log R =",
      round(growth["slope_vs_log_radius"], 3),
      "R^2 =", round(growth["r_squared"], 4))
norms = operator_norm_estimate(phi, fam, radii=radii)
print("norm ratios grow:", norms["ratios"],
      "-> unbounded evidence:", norms["unbounded_evidence"])
