"""Discretized non-centered Hardy-Littlewood maximal operator.

M f(x) is the supremum over balls containing x of the average of f over
the ball intersected with the domain.  The supremum is discretized over a
finite radius ladder and grid-aligned centers, which *under*-estimates M:
boundedness conclusions are evidence only, while growth (unboundedness)
flags are robust.

Per radius, ball averages are computed by convolution with the ball
footprint (count-normalized, so the boundary sees the true intersected
measure) and the max over admissible centers is a grayscale dilation by
the same footprint.  In 2D only work that can change the result is done,
so each output equals the plain formulation's bit for bit: the count of
footprint cells inside the grid is a closed-form integer product, not a
second convolution; the dilation reads only the centers on the stride
lattice (every other average is -inf); and it crops the footprint to the
grid, whose far rows and widths reach no further cell.  The last few
results are memoized by input content, so a bundle that asks for the
same maximal function twice evaluates it once.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, signal

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
        if any(r <= 0 for r in rs) or any(b <= a for a, b in zip(rs, rs[1:])):
            raise ValueError("radius_set must be increasing and positive")
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


def _maximal_1d(v: np.ndarray, h: float, cfg: MaximalConfig) -> np.ndarray:
    ones = np.ones_like(v)
    out = np.full_like(v, -INF)
    stride_mask = np.zeros(len(v), dtype=bool)
    stride_mask[:: cfg.center_stride] = True
    for r in cfg.radius_set:
        m = int(math.ceil(r / h - 1e-9)) - 1  # offsets with |k| h < r
        m = max(m, 0)
        k = 2 * m + 1
        kern = np.ones(k)
        num = ndimage.correlate1d(v, kern, mode="constant", cval=0.0)
        cnt = ndimage.correlate1d(ones, kern, mode="constant", cval=0.0)
        avg = num / cnt
        avg = np.where(stride_mask, avg, -INF)
        out = np.maximum(
            out, ndimage.maximum_filter1d(avg, size=k, mode="constant",
                                          cval=-INF))
    return out


def _disk_halfwidths(r: float, hx: float, hy: float) -> np.ndarray:
    """Per-row x half-count of the cell-center disk |dx| hx, |dy| hy < r."""
    my = int(math.ceil(r / hy - 1e-9)) - 1
    my = max(my, 0)
    dy = np.arange(-my, my + 1) * hy
    rem = np.sqrt(np.maximum(r * r - dy * dy, 0.0))
    return np.maximum(np.ceil(rem / hx - 1e-9).astype(int) - 1, 0)


def _disk_convolve(v: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Sum of v over the disk footprint at every cell, via FFT."""
    my = (len(half) - 1) // 2
    mx = int(half.max())
    kern = np.zeros((2 * mx + 1, 2 * my + 1))
    for j, w in enumerate(half):
        kern[mx - w: mx + w + 1, j] = 1.0
    out = signal.fftconvolve(v, kern, mode="same")
    return out


def _crop_to_grid(half: np.ndarray, shape: tuple) -> np.ndarray:
    """The footprint rows that reach the grid, with their x half-counts
    clamped: rows with |dy| >= ny, and half-counts beyond nx - 1, reach no
    further cell of a grid of ``shape`` from any center."""
    nx, ny = shape
    my = (len(half) - 1) // 2
    ky = min(my, ny - 1)
    return np.minimum(half[my - ky: my + ky + 1], nx - 1)


def _disk_count(half: np.ndarray, shape: tuple, s: int) -> np.ndarray:
    """Number of footprint cells inside the grid at every lattice center
    (every s-th cell along both axes): per footprint row, the clamped
    x-count times the indicator that the row's y lies in the grid."""
    nx, ny = shape
    my = (len(half) - 1) // 2
    i = np.arange(0, nx, s)
    w = half[:, None]
    cx = np.minimum(i + w, nx - 1) - np.maximum(i - w, 0) + 1
    k = np.arange(0, ny, s) + np.arange(-my, my + 1)[:, None]
    iy = (k >= 0) & (k < ny)
    # integer-valued products and sums far below 2**53: exact in float64
    return cx.T.astype(float) @ iy.astype(float)


def _disk_dilate(out: np.ndarray, a: np.ndarray, half: np.ndarray,
                 s: int) -> None:
    """Max of lattice values over the disk footprint, into ``out``.

    ``a`` holds the lattice columns 0, s, 2s, ... of the grid, -inf off
    the lattice rows.  Each disk row is a 1D maximum filter along x,
    shared by the rows +dy and -dy (and by neighbours of equal width),
    and is maxed into the every-s-th output columns it reaches."""
    ny = out.shape[1]
    ncols = a.shape[1]
    my = (len(half) - 1) // 2
    last = None
    for d in range(my + 1):
        w = int(half[my + d])
        if w != last:
            src = ndimage.maximum_filter1d(
                a, size=2 * w + 1, axis=0, mode="constant", cval=-INF)
            last = w
        for dy in {d, -d}:
            # lattice column m * s lands on column m * s + dy; keep those
            # inside the grid
            lo = max(0, -(dy // s))
            hi = min(ncols, -((dy - ny) // s))
            if hi > lo:
                dst = out[:, lo * s + dy:: s][:, : hi - lo]
                np.maximum(dst, src[:, lo:hi], out=dst)


def _maximal_2d(v: np.ndarray, hx: float, hy: float,
                cfg: MaximalConfig) -> np.ndarray:
    s = cfg.center_stride
    out = np.full_like(v, -INF)
    avg = np.full((v.shape[0], -(-v.shape[1] // s)), -INF)
    for r in cfg.radius_set:
        half = _disk_halfwidths(r, hx, hy)
        # the full footprint fixes the FFT size, and with it the rounding
        num = _disk_convolve(v, half)[::s, ::s]
        half = _crop_to_grid(half, v.shape)
        avg[::s] = np.maximum(num, 0.0) / _disk_count(half, v.shape, s)
        _disk_dilate(out, avg, half, s)
    return out


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
        if f.dim == 1:
            out = _maximal_1d(v, f.cell_sizes[0], cfg)
        else:
            out = _maximal_2d(v, *f.cell_sizes, cfg)
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
