"""Discretized non-centered Hardy-Littlewood maximal operator.

M f(x) is the supremum over balls containing x of the average of f over
the ball intersected with the domain.  The supremum is discretized over a
finite radius ladder and grid-aligned centers, which *under*-estimates M:
boundedness conclusions are evidence only, while growth (unboundedness)
flags are robust.

One kernel serves 1D and 2D grids (a 1D grid is one column whose ball is
one row), with no FFT.  Per radius the ball is cropped to the grid, whose
far rows and widths reach no further cell, and split into runs of rows
of equal x half-width.  Ball sums at the stride-lattice centers come from
summed-area tables: x prefix sums, taken once, give each run's x-window
sums, whose y prefix sums give the sum over its rows.  Prefix sums of
non-negative values never decrease, so no ball sum is negative, and on
integer-valued input every one is exact.  Dividing by the closed-form
count of cells inside the grid gives each ball its true intersected
measure; the max over admissible centers is a grayscale dilation by the
same runs that reads only the lattice centers.  A radius whose cropped
ball equals the previous one's is skipped.  The last few results are
memoized by input content, so a bundle that asks for the same maximal
function twice evaluates it once.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .norms import GridFunction, luxemburg_norm, modular

INF = math.inf


@dataclass(frozen=True)
class MaximalConfig:
    """Discretization of the ball supremum.

    ``radius_set`` are the ball radii; centers live on the cell-center
    grid thinned by ``center_stride``.  Balls leaving the domain average
    over the intersected measure only.
    """

    radius_set: tuple
    center_stride: int = 1

    def __post_init__(self):
        rs = tuple(float(r) for r in self.radius_set)
        object.__setattr__(self, "radius_set", rs)
        if not rs:
            raise ValueError("radius_set must be nonempty")
        if not all(0 < a < b <= INF for a, b in zip(rs, rs[1:] + (INF,))):
            raise ValueError("radius_set must be increasing, positive "
                             "and finite")
        if self.center_stride < 1:
            raise ValueError("center_stride must be at least 1")


def default_config(f: GridFunction) -> MaximalConfig:
    """Radius ladder from one cell to the box diameter.

    1D uses a dense ladder (ratio 2**(1/16), stride 1) so interval
    averages track the continuum operator to a few percent; 2D uses ratio
    2**(1/4) with stride 2 to keep the cost at desk scale.
    """
    h = min(f.cell_sizes)
    diam = math.hypot(*(hi - lo for lo, hi in f.box))
    if f.dim == 1:
        ratio, stride = 2.0 ** (1.0 / 16.0), 1
    else:
        ratio, stride = 2.0 ** (1.0 / 4.0), 2
    radii = [h]
    while radii[-1] < diam:
        radii.append(radii[-1] * ratio)
    return MaximalConfig(tuple(radii), center_stride=stride)


def _half_count(r, h):
    """Largest k >= 0 with k h < r (cells strictly within r), elementwise."""
    return np.maximum(np.ceil(np.asarray(r) / h - 1e-9).astype(int) - 1, 0)


def _runs(r: float, cell_sizes: tuple, shape: tuple) -> list:
    """The cell-center ball |x - c| < r cropped to a grid of ``shape``, as
    runs ``(w, d_lo, d_hi)``: the rows d_lo <= |dy| <= d_hi, all of x
    half-count w.  Rows with |dy| >= ny, and half-counts beyond nx - 1,
    reach no further cell from any center.  A 1D ball is the single row
    of a one-column grid."""
    nx, ny = shape
    if len(cell_sizes) == 1:
        half = np.atleast_1d(_half_count(r, cell_sizes[0]))
    else:
        hx, hy = cell_sizes
        dy = np.arange(min(int(_half_count(r, hy)), ny - 1) + 1) * hy
        half = _half_count(np.sqrt(np.maximum(r * r - dy * dy, 0.0)), hx)
    # half-counts never grow with |dy|, so equal ones are contiguous
    half = np.minimum(half, nx - 1)
    start = np.flatnonzero(np.diff(half, prepend=-1))
    end = np.append(start[1:], len(half)) - 1
    return [(int(half[a]), int(a), int(b)) for a, b in zip(start, end)]


def _bands(d_lo: int, d_hi: int) -> list:
    """The dy ranges [lo, hi] that make up the rows d_lo <= |dy| <= d_hi."""
    return [(-d_hi, d_hi)] if d_lo == 0 else [(d_lo, d_hi), (-d_hi, -d_lo)]


def _ball_counts(runs: list, shape: tuple, s: int) -> np.ndarray:
    """Number of ball cells inside the grid at every lattice center: per
    run, the clamped x-count times the count of its rows in the grid (of
    |dy| <= d_hi less those of |dy| < d_lo)."""
    nx, ny = shape
    w, d_lo, d_hi = (np.array(c)[:, None] for c in zip(*runs))
    i, k = np.arange(0, nx, s), np.arange(0, ny, s)

    def inside(lo, hi, c, n):
        # how many of c + lo .. c + hi - 1 (a range holding c) lie in [0, n)
        return np.minimum(c + hi, n) - np.maximum(c + lo, 0)

    cx = inside(-w, w + 1, i, nx)
    cy = (inside(-d_hi, d_hi + 1, k, ny)
          - (d_lo > 0) * inside(1 - d_lo, d_lo, k, ny))
    # integer-valued products and sums far below 2**53: exact in float64
    return cx.T.astype(float) @ cy.astype(float)


def _dilate(out: np.ndarray, a: np.ndarray, runs: list, s: int) -> None:
    """Max of lattice values over the footprint ``runs``, into ``out``.

    ``a`` holds the lattice columns 0, s, 2s, ... of the grid, -inf off
    the lattice rows.  Each run is one 1D maximum filter along x, which
    each of its rows maxes into the every-s-th output columns it reaches."""
    ny, ncols = out.shape[1], a.shape[1]
    for w, d_lo, d_hi in runs:
        src = ndimage.maximum_filter1d(
            a, size=2 * w + 1, axis=0, mode="constant", cval=-INF)
        for lo, hi in _bands(d_lo, d_hi):
            for dy in range(lo, hi + 1):
                # column m * s lands on m * s + dy; keep those in the grid
                m0 = max(0, -(dy // s))
                m1 = min(ncols, -((dy - ny) // s))
                if m1 > m0:
                    dst = out[:, m0 * s + dy:: s][:, : m1 - m0]
                    np.maximum(dst, src[:, m0:m1], out=dst)


def _staircase_maximal(v: np.ndarray, cell_sizes: tuple,
                       cfg: MaximalConfig) -> np.ndarray:
    """Maximal function of v >= 0 on a 1D or 2D grid (module docstring)."""
    g = v.reshape(len(v), -1)  # a 1D grid is one column
    nx, ny = g.shape
    s = cfg.center_stride
    lattice = (-(-nx // s), -(-ny // s))
    # px[nx + j] is the sum of g[:j] along x, for j clamped to [0, nx], so
    # that every clamped window edge is a strided slice
    px = np.zeros((3 * nx, ny))
    np.cumsum(g, axis=0, out=px[nx + 1: 2 * nx + 1])
    px[2 * nx + 1:] = px[2 * nx]
    # py[:, ny + j] likewise sums one run's x-window sums over y < j
    py = np.zeros((lattice[0], 3 * ny))
    out = np.full_like(g, -INF)
    avg = np.full((nx, lattice[1]), -INF)
    # max is idempotent: a radius repeating the last cropped ball adds nothing
    for runs, _ in itertools.groupby(_runs(r, cell_sizes, g.shape)
                                     for r in cfg.radius_set):
        num = np.zeros(lattice)
        for w, d_lo, d_hi in runs:
            np.cumsum(px[nx + w + 1: 2 * nx + w + 1: s]
                      - px[nx - w: 2 * nx - w: s],
                      axis=1, out=py[:, ny + 1: 2 * ny + 1])
            # clamp j > ny as far as the run's rows reach
            py[:, 2 * ny + 1: 2 * ny + d_hi + 1] = py[:, 2 * ny, None]
            for lo, hi in _bands(d_lo, d_hi):
                num += (py[:, ny + hi + 1: 2 * ny + hi + 1: s]
                        - py[:, ny + lo: 2 * ny + lo: s])
        avg[::s] = num / _ball_counts(runs, g.shape, s)
        _dilate(out, avg, runs, s)
    return out.reshape(v.shape)


#: Most recent maximal functions, keyed by input content and config.
_MEMO: OrderedDict = OrderedDict()
#: Enough for a divergence family of up to 8 radii evaluated twice (by
#: ``modular_growth`` and ``operator_norm_estimate``); an entry on a 512²
#: grid holds 4 MB.
_MEMO_SIZE = 8


def maximal(f: GridFunction, cfg: MaximalConfig | None = None) -> GridFunction:
    """Discretized maximal function of |f| on f's grid.

    The last few results are kept: a repeated input (same box, values and
    config) is evaluated once, and every call gets its own array."""
    cfg = cfg or default_config(f)
    v = np.abs(f.values)
    key = (f.box, v.shape, v.tobytes(), cfg)
    out = _MEMO.get(key)
    if out is None:
        out = _staircase_maximal(v, f.cell_sizes, cfg)
        # every cell sits in the smallest ball around its own center, so
        # the pointwise bound Mf >= f survives striding
        out = np.maximum(out, v)
        _MEMO[key] = out
        if len(_MEMO) > _MEMO_SIZE:
            _MEMO.popitem(last=False)
    else:
        _MEMO.move_to_end(key)
    return GridFunction(f.box, out.copy())


def operator_norm_estimate(phi, family, cfg=None, radii=None) -> dict:
    """Worst norm ratio ||Mf|| / ||f|| over a family of grid functions.

    When ``radii`` gives the truncation radius of each family member, the
    report also flags "unbounded evidence": ratios growing monotonically
    across at least three doublings, with a least-squares slope of ratio
    against log radius.
    """
    ratios = []
    kept = []
    for i, f in enumerate(family):
        if not np.any(f.values > 0):
            continue
        nf = luxemburg_norm(phi, f)
        nmf = luxemburg_norm(phi, maximal(f, cfg))
        if nf == 0.0 or math.isinf(nf):
            continue
        ratios.append(nmf / nf)
        kept.append(i)
    report = {
        "ratios": ratios,
        "indices": kept,
        "max_ratio": max(ratios) if ratios else None,
        "argmax_index": kept[int(np.argmax(ratios))] if ratios else None,
        "unbounded_evidence": False,
    }
    if radii is not None:
        rs = [float(radii[i]) for i in kept]
        doublings = sum(1 for a, b in zip(rs, rs[1:]) if b >= 2.0 * a - 1e-9)
        # require real growth per step, not the few-percent creep a
        # refined discretization gives even for bounded operators
        growing = all(b > 1.05 * a for a, b in zip(ratios, ratios[1:]))
        report["truncation_radii"] = rs
        if len(ratios) >= 4 and doublings >= 3 and growing:
            report["unbounded_evidence"] = True
        if len(ratios) >= 2:
            slope = np.polyfit(np.log(rs), ratios, 1)[0]
            report["growth_slope_vs_log_radius"] = float(slope)
    return report


def modular_growth(phi, family, cfg=None, radii=None) -> dict:
    """Modular of Mf for each family member, with a log-radius fit: the
    divergence experiments check growth in the truncation radius, never a
    literal infinity."""
    mods = []
    for f in family:
        mods.append(modular(phi, maximal(f, cfg)))
    report = {"modulars": mods}
    if radii is not None and len(mods) >= 2 and all(map(math.isfinite, mods)):
        logr = np.log(np.asarray(radii, float))
        slope, intercept = np.polyfit(logr, mods, 1)
        fit = slope * logr + intercept
        ss_res = float(np.sum((np.asarray(mods) - fit) ** 2))
        ss_tot = float(np.sum((np.asarray(mods) - np.mean(mods)) ** 2))
        report["slope_vs_log_radius"] = float(slope)
        report["intercept"] = float(intercept)
        report["r_squared"] = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return report
