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
same runs that reads only the lattice centers.  Its x-windows come from
one doubling table per radius (Urbach & Wilkinson, IEEE TIP 2008): level
k holds the max over 2**k rows, and a window is the max of two rows of
one level.  A radius whose cropped ball equals the previous one's is
skipped.

The members of a family that share a grid and a config run through the
kernel together, stacked on a first axis, up to ``_BATCH_CELLS`` cells a
call; every step is elementwise per member, so each result is bit for
bit the member's alone.  The last few results are memoized by input
content, so a bundle that asks for the same maximal function twice
evaluates it once.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

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


def _clamped(p: np.ndarray, start: int, s: int, count: int,
             axis: int) -> np.ndarray:
    """``p[clip(start + m * s, 0, n)]`` along ``axis`` for m < count, where
    p holds n + 1 prefix sums: an index past either end reads the end."""
    idx = np.arange(start, start + s * count, s)
    return np.take(p, idx, axis=axis, mode="clip")


def _dilate(out: np.ndarray, tab: np.ndarray, runs: list, s: int) -> None:
    """Max of lattice values over the footprint ``runs``, into ``out``.

    Per member (first axis), the last nx rows of ``tab`` hold the lattice
    columns 0, s, 2s, ... of the grid, -inf off the lattice rows and in the
    rows before them.  It becomes a doubling table in place: at level k,
    row i holds the max of rows i .. i + 2**k - 1 (-inf past the end), so
    the x-window [i - w, i + w] of a run is the max of two
    level-floor(log2(2w + 1)) rows.  Runs are visited narrowest first, so
    only one level is alive; each row of a run maxes its window maxima
    into the every-s-th output columns it reaches."""
    nx, ny = out.shape[1:]
    ncols, pad = tab.shape[2], tab.shape[1] - nx
    first = pad - runs[0][0]  # the widest run reads furthest left
    level = 0
    for w, d_lo, d_hi in reversed(runs):
        k = (2 * w + 1).bit_length() - 1
        while level < k:
            h = 1 << level
            np.maximum(tab[:, first: -h], tab[:, first + h:],
                       out=tab[:, first: -h])
            level += 1
        right = pad + w + 1 - (1 << k)
        src = np.maximum(tab[:, pad - w: pad - w + nx],
                         tab[:, right: right + nx])
        for lo, hi in _bands(d_lo, d_hi):
            for dy in range(lo, hi + 1):
                # column m * s lands on m * s + dy; keep those in the grid
                m0 = max(0, -(dy // s))
                m1 = min(ncols, -((dy - ny) // s))
                if m1 > m0:
                    dst = out[..., m0 * s + dy:: s][..., : m1 - m0]
                    np.maximum(dst, src[..., m0:m1], out=dst)


def _staircase_maximal(v: np.ndarray, cell_sizes: tuple,
                       cfg: MaximalConfig) -> np.ndarray:
    """Maximal function of v >= 0 on a 1D or 2D grid (module docstring).

    v may also stack the grids of a family's members along a first axis;
    every step is elementwise per member, so each comes out as if alone."""
    dim = len(cell_sizes)
    # a 1D grid is one column
    g = v.reshape((-1,) + v.shape[v.ndim - dim:] + (1,) * (2 - dim))
    members, nx, ny = g.shape
    s = cfg.center_stride
    lattice = (-(-nx // s), -(-ny // s))
    footprints = [runs for runs, _ in itertools.groupby(
        # max is idempotent: a radius repeating the last cropped ball adds
        # nothing
        _runs(r, cell_sizes, (nx, ny)) for r in cfg.radius_set)]
    # px[:, j] is the sum of g[:, :j] along x; a window edge past either
    # end of the grid reads the end
    px = np.zeros((members, nx + 1, ny))
    np.cumsum(g, axis=1, out=px[:, 1:])
    # py[..., j] likewise sums one run's x-window sums over y < j
    py = np.zeros((members, lattice[0], ny + 1))
    out = np.full_like(g, -INF)
    # the doubling table, with room left of the grid for the widest window
    pad = max(runs[0][0] for runs in footprints)
    tab = np.empty((members, pad + nx, lattice[1]))
    for runs in footprints:
        num = np.zeros((members,) + lattice)
        for w, d_lo, d_hi in runs:
            sums = _clamped(px, w + 1, s, lattice[0], 1)
            sums -= _clamped(px, -w, s, lattice[0], 1)
            np.cumsum(sums, axis=2, out=py[..., 1:])
            for lo, hi in _bands(d_lo, d_hi):
                sums = _clamped(py, hi + 1, s, lattice[1], 2)
                sums -= _clamped(py, lo, s, lattice[1], 2)
                num += sums
        tab.fill(-INF)
        tab[:, pad:: s] = num / _ball_counts(runs, (nx, ny), s)
        _dilate(out, tab, runs, s)
    return out.reshape(v.shape)


#: Most recent maximal functions, keyed by input content and config.
_MEMO: OrderedDict = OrderedDict()
#: Enough for a divergence family of up to 8 radii evaluated twice (by
#: ``modular_growth`` and ``operator_norm_estimate``); an entry on a 512²
#: grid holds 4 MB.
_MEMO_SIZE = 8
#: Most grid cells, summed over members, that one kernel call evaluates.
#: The kernel holds about eight arrays of that many floats at once, 16 MB
#: at this cap: the 10-member ball family on a 128² grid runs as one
#: batch, and on a 256² grid four members at a time.
_BATCH_CELLS = 2 ** 18


def _maximal_family(family, cfg: MaximalConfig | None = None) -> list:
    """Discretized maximal functions of |f| for every f of ``family``.

    Inputs seen lately (same box, values and config) are read from the
    memo.  The others run through the kernel in batches of members that
    share a grid and a config, each batch at most ``_BATCH_CELLS`` cells,
    and are memoized; every result gets its own array."""
    family = list(family)
    keys = []
    for f in family:
        v = np.abs(f.values)
        keys.append((f.box, v.shape, v.tobytes(), cfg or default_config(f)))
    done, todo = {}, {}
    for f, key in zip(family, keys):
        if key in _MEMO:
            _MEMO.move_to_end(key)
            done[key] = _MEMO[key]
        else:  # members on one grid under one config share a batch
            todo.setdefault(key[:2] + key[3:], {})[key] = f
    for (_, shape, c), members in todo.items():
        items = list(members.items())
        size = max(1, _BATCH_CELLS // math.prod(shape))
        for batch in (items[i: i + size] for i in range(0, len(items), size)):
            vs = np.abs([f.values for _, f in batch])
            out = _staircase_maximal(vs, batch[0][1].cell_sizes, c)
            for (key, _), o, v in zip(batch, out, vs):
                # every cell sits in the smallest ball around its own
                # center, so the pointwise bound Mf >= f survives striding
                done[key] = _MEMO[key] = np.maximum(o, v)
                if len(_MEMO) > _MEMO_SIZE:
                    _MEMO.popitem(last=False)
    return [GridFunction(key[0], done[key].copy()) for key in keys]


def maximal(f: GridFunction, cfg: MaximalConfig | None = None) -> GridFunction:
    """Discretized maximal function of |f| on f's grid.

    The last few results are kept: a repeated input (same box, values and
    config) is evaluated once, and every call gets its own array."""
    return _maximal_family([f], cfg)[0]


def operator_norm_estimate(phi, family, cfg=None, radii=None) -> dict:
    """Worst norm ratio ||Mf|| / ||f|| over a family of grid functions.

    When ``radii`` gives the truncation radius of each family member, the
    report also flags "unbounded evidence": ratios growing monotonically
    across at least three doublings, with a least-squares slope of ratio
    against log radius.
    """
    ratios = []
    kept = []
    family = list(family)
    nonzero = [i for i, f in enumerate(family) if np.any(f.values > 0)]
    maxes = _maximal_family([family[i] for i in nonzero], cfg)
    for i, Mf in zip(nonzero, maxes):
        nf = luxemburg_norm(phi, family[i])
        nmf = luxemburg_norm(phi, Mf)
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
    mods = [modular(phi, Mf) for Mf in _maximal_family(family, cfg)]
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
