"""Discretized non-centered Hardy-Littlewood maximal operator.

M f(x) is the supremum over balls containing x of the average of f over
the ball intersected with the domain.  The supremum is discretized over a
finite radius ladder and grid-aligned centers, which *under*-estimates M:
boundedness conclusions are evidence only, while growth (unboundedness)
flags are robust.

Per radius, ball averages are computed by convolution with the ball
footprint (count-normalized, so the boundary sees the true intersected
measure) and the max over admissible centers is a grayscale dilation by
the same footprint.
"""

from __future__ import annotations

import math
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


def _disk_dilate(a: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Max of a over the disk footprint; rows of the disk are handled as
    1D maximum filters so the cost is O(cells * rows)."""
    my = (len(half) - 1) // 2
    out = np.full_like(a, -INF)
    rowmax = {}
    for j, w in enumerate(half):
        if w not in rowmax:
            rowmax[w] = ndimage.maximum_filter1d(
                a, size=2 * int(w) + 1, axis=0, mode="constant", cval=-INF)
        dy = j - my
        src = rowmax[w]
        if dy == 0:
            out = np.maximum(out, src)
        elif dy > 0:
            out[:, dy:] = np.maximum(out[:, dy:], src[:, :-dy])
        else:
            out[:, :dy] = np.maximum(out[:, :dy], src[:, -dy:])
    return out


def _maximal_2d(v: np.ndarray, hx: float, hy: float,
                cfg: MaximalConfig) -> np.ndarray:
    ones = np.ones_like(v)
    out = np.full_like(v, -INF)
    stride_mask = np.zeros(v.shape, dtype=bool)
    stride_mask[:: cfg.center_stride, :: cfg.center_stride] = True
    for r in cfg.radius_set:
        half = _disk_halfwidths(r, hx, hy)
        num = _disk_convolve(v, half)
        cnt = np.rint(_disk_convolve(ones, half))
        cnt = np.maximum(cnt, 1.0)
        avg = np.maximum(num, 0.0) / cnt
        avg = np.where(stride_mask, avg, -INF)
        out = np.maximum(out, _disk_dilate(avg, half))
    return out


def maximal(f: GridFunction, cfg: MaximalConfig | None = None) -> GridFunction:
    """Discretized maximal function of |f| on f's grid."""
    cfg = cfg or default_config(f)
    v = np.abs(f.values)
    if f.dim == 1:
        out = _maximal_1d(v, f.cell_sizes[0], cfg)
    else:
        out = _maximal_2d(v, *f.cell_sizes, cfg)
    # every cell sits in the smallest ball around its own center, so the
    # pointwise bound Mf >= f survives striding
    out = np.maximum(out, v)
    return GridFunction(f.box, out)


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
