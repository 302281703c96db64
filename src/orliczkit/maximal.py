"""Discretized non-centered Hardy-Littlewood maximal operator.

M f(x) is the supremum over balls containing x of the average of f over
the ball intersected with the domain.  The supremum is discretized over a
finite radius ladder and grid-aligned centers, which *under*-estimates M:
boundedness conclusions are evidence only.  So are growth flags:
:func:`operator_norm_estimate` flags unboundedness when, across at least
three doublings of the truncation radius, every norm ratio is more than
1.05 times the one before, and bounded operators near p = 1 meet that
rule too (t^1.1 and t^1.2 on a 1D ball indicator).

One kernel serves 1D and 2D grids (a 1D grid is one column whose ball is
one row), with no FFT.  Per radius the ball is cropped to the grid, whose
far rows and widths reach no further cell, and split into runs of rows
of equal x half-width w.  A radius whose cropped ball equals the previous
one's is skipped.

Ball sums at the stride-lattice centers come from summed-area tables
(Crow, SIGGRAPH 1984).  The input is first split exactly into hi + lo:
hi is rounded to a grain of 2**-50 to 2**-49 times the grid's sum, fine
enough that every sum and difference of its prefix sums is exact, and
lo, the rest (at most half a grain a cell), is all zero on integer or
dyadic input and is then skipped.  Each part gets one table, x prefix
sums and then y prefix sums.  A run's x-strip (the table at x + w + 1
less the table at x - w) depends on w alone, so it is built once per
distinct half-width and serves every footprint of a chunk whose
accumulators fit ``_BATCH_CELLS`` cells; each band of rows then adds two
y-corner reads of it.  So hi's ball sums are exact and lo's round
relative to lo's own sums: each ball sum is accurate relative to that
ball, not to the running prefix totals.  Measured against a
brute-force oracle: within 1.6e-15 relative beside a cell 1e15 times the
background (prefix-sum differences alone over-estimated there by 1.7e-2),
within 6e-16 on random grids whose values span six decades, and bit for
bit on integer input.  A sum of lo's rounded terms may dip below 0, so
sums are clipped at 0.

Dividing by the closed-form count of cells inside the grid gives each
ball its true intersected measure; the max over admissible centers is a
grayscale dilation by the same runs that reads only the lattice centers.
Its x-windows come from one doubling table per radius (Urbach &
Wilkinson, IEEE TIP 2008): level k holds the max over 2**k rows, and a
window is the max of two entries of one level.  Each run then maxes its
window maxima into the output along each of its rows.  Every array keeps
y first, so a shift along y moves one contiguous block: the tables store
y by residue mod the stride, and the output is built as that many
polyphase parts, interleaved once at the end.  Plain y order (no residue
blocks, no polyphase parts) took 15-22% more kernel time on the seven
gallery families at resolution 4: slower in 25 and in 29 of 30 pairs.

The output is a running max, and max is idempotent, so an average no
larger than a member's least output so far, its floor, moves no bit
wherever it lands.  Three exact shortcuts follow.  The outputs start at
0, below every average (sums are clipped at 0, and the caller maxes the
result with |f| >= 0).  On a 2D grid, a radius's dilation reads only the
box of lattice centers whose averages exceed their member's floor, and
builds its doubling levels and window maxima only over the x range the
box's windows reach; a radius with no such center is not dilated.  And
before a chunk's ball sums, a radius is dropped when, for every member,
the total over the fewest cells any of its balls holds (a corner
center's), with a relative slack for rounding, is at most the floor.
Chunks of a 2D grid hold few runs so that this floor is fresh; dropping
no footprint took 16% more kernel time, slower in 30 of 30 pairs.  On one
row (1D) a radius costs less than these tests, which are left off: there
they took a 512-cell call from 8.85 to 14.41 ms, slower in 40 of 40 pairs
(each variant alternated with this kernel in one process, 2-core host).

The members of a family that share a grid and a config run through the
kernel together, stacked on a first axis, up to ``_BATCH_CELLS`` cells a
call; every step is elementwise per member, so each result is bit for
bit the member's alone.  Nothing is cached between calls: a bundle that
needs one family's maximal functions in two reports computes them once
and passes them to both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .norms import GridFunction, _luxemburg_norms, modular

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
        if not isinstance(self.center_stride, int) or self.center_stride < 1:
            raise ValueError("center_stride must be an integer >= 1")


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


def _half_count(r, h, n: int):
    """Largest k >= 0 with k h < r (cells strictly within r), elementwise,
    and at most n - 1: no cell of an axis of n cells lies further off.  r
    is clipped at n h first, so r / h stays near n at most, finite for the
    cast to int."""
    return np.maximum(np.ceil(np.minimum(r, n * h) / h - 1e-9).astype(int) - 1, 0)


def _runs(r: float, cell_sizes: tuple, shape: tuple) -> list:
    """The cell-center ball |x - c| < r cropped to a grid of ``shape``, as
    runs ``(w, d_lo, d_hi)``: the rows d_lo <= |dy| <= d_hi, all of x
    half-count w.  Rows with |dy| >= ny, and half-counts beyond nx - 1,
    reach no further cell from any center.  A 1D ball is the single row
    of a one-column grid."""
    nx, ny = shape
    if len(cell_sizes) == 1:
        return [(int(_half_count(r, cell_sizes[0], nx)), 0, 0)]
    hx, hy = cell_sizes
    dy = np.arange(int(_half_count(r, hy, ny)) + 1) * hy
    # half-counts never grow with |dy|, so equal ones are contiguous
    half = _half_count(np.sqrt(np.maximum(r * r - dy * dy, 0.0)), hx, nx)
    start = np.flatnonzero(np.diff(half, prepend=-1))
    end = np.append(start[1:], len(half)) - 1
    return [(int(half[a]), int(a), int(b)) for a, b in zip(start, end)]


def _bands(d_lo: int, d_hi: int) -> list:
    """The dy ranges [lo, hi] that make up the rows d_lo <= |dy| <= d_hi."""
    return [(-d_hi, d_hi)] if d_lo == 0 else [(d_lo, d_hi), (-d_hi, -d_lo)]


def _ball_counts(runs: list, shape: tuple, s: int,
                 corners: bool = False) -> np.ndarray:
    """Number of ball cells inside the grid at every lattice center: per
    run, the clamped x-count times the count of its rows in the grid (of
    |dy| <= d_hi less those of |dy| < d_lo).

    With ``corners``, only at the four corner centers, which hold the
    fewest: along x the count is concave (each run's clamped x-count is),
    and along y it rises and then falls (a window of the grid's rows over
    weights that never grow with |dy|)."""
    nx, ny = shape
    w, d_lo, d_hi = (np.array(c)[:, None] for c in zip(*runs))
    i, k = np.arange(0, nx, s), np.arange(0, ny, s)
    if corners:
        i, k = i[[0, -1]], k[[0, -1]]

    def inside(lo, hi, c, n):
        # how many of c + lo .. c + hi - 1 (a range holding c) lie in [0, n)
        return np.minimum(c + hi, n) - np.maximum(c + lo, 0)

    cx = inside(-w, w + 1, i, nx)
    cy = (inside(-d_hi, d_hi + 1, k, ny)
          - (d_lo > 0) * inside(1 - d_lo, d_lo, k, ny))
    # integer-valued products and sums far below 2**53: exact in float64
    return cx.T.astype(float) @ cy.astype(float)


def _split(g: np.ndarray) -> np.ndarray:
    """``g = hi + lo`` per member (first axis), stacked as ``[hi, lo]``,
    or ``hi`` alone where lo is all zero.  hi is g rounded to a multiple
    of 2**e, e = exponent(sum of the member) - 50: every prefix sum of hi,
    and every sum or difference of two, is a multiple of 2**e below
    2**(e + 53), so exact.  The subtraction giving lo is exact too, and lo
    is zero wherever g is already such a multiple (integer or dyadic
    input)."""
    total = g.reshape(len(g), -1).sum(axis=1)
    # subnormal steps are as fine as floats go
    e = np.maximum(np.frexp(total)[1] - 50, -1074)[:, None, None]
    parts = np.empty((2 * len(g),) + g.shape[1:])
    hi, lo = parts[:len(g)], parts[len(g):]
    np.ldexp(g, -e, out=hi)
    np.rint(hi, out=hi)
    np.ldexp(hi, e, out=hi)
    np.subtract(g, hi, out=lo)
    return parts if lo.any() else hi


def _blocks(n: int, s: int) -> list:
    """(start, length) of each residue's block when the n values of an
    axis are stored by residue mod s: j = r, r + s, ... for each r in
    turn."""
    lengths = [len(range(r, n, s)) for r in range(s)]
    return [(sum(lengths[:r]), lengths[r]) for r in range(s)]


def _table(part: np.ndarray, s: int) -> np.ndarray:
    """Summed-area table of the (members, nx, ny) grids ``part``, y first:
    ``[j, m, i]`` is the sum of ``part[m, :i, :j]``, with j stored by
    residue mod s.  The x and then the y prefix sums are taken in ``part``
    itself."""
    members, nx, ny = part.shape
    np.cumsum(part, axis=1, out=part)
    np.cumsum(part, axis=2, out=part)
    sat = np.zeros((ny + 1, members, nx + 1))
    for r, (start, length) in enumerate(_blocks(ny + 1, s)):
        # j = 0 is zero, and j > 0 sums part's y prefix j - 1
        skip = r == 0
        sat[start + skip: start + length, :, 1:] = (
            part[..., r - 1 + skip * s:: s].transpose(2, 0, 1))
    return sat


def _strip(out: np.ndarray, sat: np.ndarray, w: int, s: int) -> None:
    """The x-strip of half-width w into ``out``: ``out[..., a]`` is the
    table at x = a s + w + 1 less the table at x = a s - w, an x past
    either end of the grid reading the end, which makes it the y prefix
    sums of the x-window [a s - w, a s + w] of lattice row a."""
    nx, rows = sat.shape[2] - 1, out.shape[2]
    n = min(rows, max(0, (nx - w - 1) // s + 1))
    out[..., :n] = sat[..., w + 1:: s][..., :n]
    out[..., n:] = sat[..., nx: nx + 1]
    a = min(rows, -(-w // s))  # the rows before a less x = 0, all zero
    np.subtract(out[..., a:], sat[..., a * s - w:: s][..., : rows - a],
                out=out[..., a:])


def _add_corner(acc: np.ndarray, strip: np.ndarray, c: int, op,
                blocks: list) -> None:
    """``op`` (add or subtract) into ``acc`` the strip's prefix sums at
    y = b s + c for the lattice columns b (first axis).  A y before the
    grid reads 0 and one past it the strip's total, at y = ny, which ends
    its residue block; the rest are one contiguous slice of c's block."""
    s, ncols = len(blocks), len(acc)
    start, length = blocks[c % s]
    q = c // s
    b0 = max(0, -q)
    b1 = max(b0, min(ncols, length - q))
    op(acc[b0:b1], strip[start + q + b0: start + q + b1], out=acc[b0:b1])
    if b1 < ncols:
        start, length = blocks[(len(strip) - 1) % s]
        op(acc[b1:], strip[start + length - 1], out=acc[b1:])


def _row_spans(lengths: list, ncols: int, d_lo: int, d_hi: int) -> list:
    """The rows d_lo <= |dy| <= d_hi as (residue, shift, m0, m1): lattice
    column m lands on grid column m s + dy, which is column m + shift of
    the polyphase output of residue dy % s (``lengths`` columns long), for
    the m0 <= m < m1 that land inside the grid."""
    s, spans = len(lengths), []
    for lo, hi in _bands(d_lo, d_hi):
        for dy in range(lo, hi + 1):
            r, q = dy % s, dy // s
            m0, m1 = max(0, -q), min(ncols, lengths[r] - q)
            if m1 > m0:
                spans.append((r, q, m0, m1))
    return spans


def _dilate(outs: list, tab: np.ndarray, spare: np.ndarray,
            src: np.ndarray, runs: list, avg: np.ndarray,
            box: tuple) -> None:
    """Max of the lattice averages ``avg`` over the footprint ``runs``,
    into the polyphase outputs: ``outs[r][q]`` holds the grid column q s +
    r.  Only the lattice columns b0 <= b < b1 and rows a0 <= a <= a1 of
    ``box = (b0, b1, a0, a1)`` are read; the rest must not exceed any
    output.

    For every lattice column and member (the first two axes), the last nx
    entries of ``tab`` take the lattice rows 0, s, 2s, ... of the grid,
    -inf off the lattice rows and in the entries before them.  It becomes
    a doubling table over the x range that the box's windows reach, each
    level written into the other array (numpy would copy an input that
    overlaps its output): at level k, entry i holds the max of entries i ..
    i + 2**k - 1 (-inf past the range), so the x-window [i - w, i + w] of a
    run is the max of two level-floor(log2(2w + 1)) entries, taken into
    ``src`` for the rows i within w of the box.  Runs are visited
    narrowest first, so only one level is alive.  Each run maxes its
    window maxima into the outputs along its rows."""
    ncols, members, nx = src.shape
    s, pad = len(outs), tab.shape[2] - nx
    lengths = [len(out) for out in outs]
    b0, b1, a0, a1 = box
    tab, spare, src = tab[b0:b1], spare[b0:b1], src[b0:b1]
    widest = runs[0][0]
    # the widest run's windows read furthest
    first = pad + max(0, a0 * s - widest) - widest
    end = pad + min(nx, a1 * s + 2 * widest + 1)
    tab[..., first: end] = -INF
    tab[..., pad + a0 * s: pad + a1 * s + 1: s] = avg[b0:b1, :, a0: a1 + 1]
    level = 0
    for w, d_lo, d_hi in reversed(runs):
        k = (2 * w + 1).bit_length() - 1
        while level < k:
            h = 1 << level
            np.maximum(tab[..., first: end - h], tab[..., first + h: end],
                       out=spare[..., first: end - h])
            spare[..., end - h: end] = tab[..., end - h: end]
            tab, spare = spare, tab
            level += 1
        x0, x1 = max(0, a0 * s - w), min(nx, a1 * s + w + 1)
        right = pad + w + 1 - (1 << k)
        np.maximum(tab[..., pad - w + x0: pad - w + x1],
                   tab[..., right + x0: right + x1], out=src[..., x0:x1])
        for r, q, m0, m1 in _row_spans(lengths, ncols, d_lo, d_hi):
            m0, m1 = max(m0, b0), min(m1, b1)
            if m1 > m0:
                dst = outs[r][m0 + q: m1 + q, :, x0:x1]
                np.maximum(dst, src[m0 - b0: m1 - b0, :, x0:x1], out=dst)


def _staircase_maximal(v: np.ndarray, cell_sizes: tuple,
                       cfg: MaximalConfig) -> np.ndarray:
    """Maximal function of v >= 0 on a 1D or 2D grid (module docstring).

    v may also stack the grids of a family's members along a first axis;
    every step is elementwise per member, so each comes out as if alone."""
    dim = len(cell_sizes)
    # a 1D grid is one column
    g = v.reshape((-1,) + v.shape[v.ndim - dim:] + (1,) * (2 - dim))
    s = cfg.center_stride
    outs = _polyphase_maximal(g, cell_sizes, cfg)
    out = np.empty_like(g)
    for r, part in enumerate(outs):
        out[..., r:: s] = part.transpose(1, 2, 0)
    return out.reshape(v.shape)


def _polyphase_maximal(g: np.ndarray, cell_sizes: tuple,
                       cfg: MaximalConfig) -> list:
    """The maximal function of the (members, nx, ny) grids g as s
    polyphase parts, y first: part r holds the grid columns r, r + s, ...
    Every array here keeps y first, so that a shift along y moves whole
    contiguous blocks; all of them are freed before the parts are
    interleaved.

    The outputs start at 0, below no ball average.  On a 2D grid, work
    that cannot raise a member's output above its least value so far,
    ``floor``, is skipped (module docstring): footprints whose averages
    are all at most the floor before their ball sums, and the lattice
    centers outside the box of those above it before their dilation."""
    members, nx, ny = g.shape
    s = cfg.center_stride
    lattice = (-(-nx // s), -(-ny // s))
    footprints = [runs for runs, _ in itertools.groupby(
        # max is idempotent: a radius repeating the last cropped ball adds
        # nothing
        _runs(r, cell_sizes, (nx, ny)) for r in cfg.radius_set)]
    # on one row a footprint costs less than the tests that would skip it
    prune = ny > 1
    # no ball average of a member exceeds its total over the fewest cells
    # any ball holds, up to the rounding that _BOUND_SLACK covers
    total = g.reshape(members, -1).sum(axis=1) * (1.0 + _BOUND_SLACK)
    pending = [(runs, total / _ball_counts(runs, (nx, ny), s,
                                           corners=True).min())
               for runs in footprints] if prune else [
                   (runs, None) for runs in footprints]
    sat = _table(_split(g), s)
    depth = sat.shape[1]  # the members, twice over if lo is kept
    blocks = _blocks(ny + 1, s)
    strip = np.empty((ny + 1, depth, lattice[0]))
    outs = [np.zeros((len(range(r, ny, s)), members, nx)) for r in range(s)]

    def floor():
        return np.min([out.min(axis=(0, 2)) for out in outs if len(out)],
                      axis=0)

    # the doubling table, with room left of the grid for the widest window
    pad = max(runs[0][0] for runs in footprints)
    tab = np.empty((lattice[1], members, pad + nx))
    spare = np.empty_like(tab)
    src = np.empty((lattice[1], members, nx))
    whole = (0, lattice[1], 0, lattice[0] - 1)
    # footprints in chunks whose ball sums fit the batch budget
    chunk = max(1, _BATCH_CELLS // (depth * math.prod(lattice)))
    sums = np.empty((min(chunk, len(footprints)), lattice[1], depth,
                     lattice[0]))
    while pending:
        size = chunk
        if prune:
            least = floor()
            pending = [(runs, top) for runs, top in pending
                       if np.any(top > least)]
            # a chunk of few runs leaves the floor fresh for the next
            size = max(1, sum(n <= _CHUNK_RUNS for n in itertools.accumulate(
                len(runs) for runs, _ in pending[:chunk])))
        chunk_runs = [runs for runs, _ in pending[:size]]
        pending = pending[size:]
        nums = sums[:len(chunk_runs)]
        nums.fill(0.0)
        uses = {}
        for num, runs in zip(nums, chunk_runs):
            for w, d_lo, d_hi in runs:
                uses.setdefault(w, []).append((num, d_lo, d_hi))
        # one x-strip per half-width serves every footprint of the chunk;
        # widest first, so each footprint adds its runs in one order
        # whatever the chunking
        for w in sorted(uses, reverse=True):
            _strip(strip, sat, w, s)
            for num, d_lo, d_hi in uses[w]:
                for lo, hi in _bands(d_lo, d_hi):
                    _add_corner(num, strip, hi + 1, np.add, blocks)
                    _add_corner(num, strip, lo, np.subtract, blocks)
        num = nums[:, :, :members]
        if depth > members:
            # lo's sums round, so a sum of zeros may come out below 0
            num += nums[:, :, members:]
            np.maximum(num, 0.0, out=num)
        for runs, avg in zip(chunk_runs, num):
            np.divide(avg, _ball_counts(runs, (nx, ny), s).T[:, None],
                      out=avg)
            box = whole
            if prune:
                above = np.any(avg > floor()[:, None], axis=1)
                cols = np.flatnonzero(np.any(above, axis=1))
                if not len(cols):
                    continue
                rows = np.flatnonzero(np.any(above, axis=0))
                box = (cols[0], cols[-1] + 1, rows[0], rows[-1])
            _dilate(outs, tab, spare, src, runs, avg, box)
    return outs


#: Most grid cells, summed over members, that one kernel call evaluates,
#: and most cells of ball-sum accumulators that it holds at once.  The
#: kernel holds about seven arrays of that many floats, nine when the
#: exact split keeps a low part: 8.8 MB at its peak for the 10-member
#: ball family on a 128² grid, which runs as one batch (a 256² grid runs
#: four members at a time).
_BATCH_CELLS = 2 ** 18

#: Most runs whose ball sums one chunk of a 2D grid's footprints takes
#: before their dilations raise the floor that drops dead footprints.
#: Fewer would rebuild more x-strips; on one ``ex3_4`` + ``ex3_2`` pass at
#: resolution 4, 256 drops 18 of the 39 footprints that reach no
#: dilation before their sums, against 4 with chunks capped by cells
#: alone, and takes about 10% off the kernel's time.
_CHUNK_RUNS = 256

#: Relative slack of the bound on a footprint's ball averages.  The bound
#: and the averages round at a few dozen ulps in all (pairwise sums, the
#: low part's prefix sums, one division), far below 2**-30.
_BOUND_SLACK = 2.0 ** -30


def _maximal_family(family, cfg: MaximalConfig | None = None) -> list:
    """Discretized maximal functions of |f| for every f of ``family``.

    Members that share a grid and a config run through the kernel
    together, in batches of at most ``_BATCH_CELLS`` cells."""
    family = list(family)
    groups = {}
    for i, f in enumerate(family):
        key = (f.box, f.resolution, cfg or default_config(f))
        groups.setdefault(key, []).append(i)
    out = [None] * len(family)
    for (box, shape, c), members in groups.items():
        size = max(1, _BATCH_CELLS // math.prod(shape))
        for batch in (members[i: i + size]
                      for i in range(0, len(members), size)):
            vs = np.abs([family[i].values for i in batch])
            Ms = _staircase_maximal(vs, family[batch[0]].cell_sizes, c)
            for i, M, v in zip(batch, Ms, vs):
                # every cell sits in the smallest ball around its own
                # center, so the pointwise bound Mf >= f survives striding
                out[i] = GridFunction(box, np.maximum(M, v))
    return out


def maximal(f: GridFunction, cfg: MaximalConfig | None = None) -> GridFunction:
    """Discretized maximal function of |f| on f's grid."""
    return _maximal_family([f], cfg)[0]


def operator_norm_estimate(phi, family, radii=None) -> dict:
    """Worst norm ratio ||Mf|| / ||f|| over a family of grid functions.

    When ``radii`` gives the truncation radius of each family member, the
    report also flags "unbounded evidence" by a plain rule: across at
    least three doublings of the radius, every ratio is more than 1.05
    times the one before.  It adds a least-squares slope of ratio against
    log radius.  The rule reads slow saturation as growth: bounded
    operators near p = 1 meet it too (in 1D, on the indicator of (-1, 1)
    with R = 8 ... 128, t^1.1 and t^1.2 are flagged and t^1.5 is not).
    """
    family = list(family)
    return _norm_ratios(phi, family, _maximal_family(family), radii)[0]


def _norm_ratios(phi, family, maxes, radii=None) -> tuple:
    """``operator_norm_estimate`` given the maximal functions ``maxes`` of
    the ``family``, with members of norm 0 or inf left out, and the
    ``modular_growth`` report of every maximal function.  The norms of the
    members and of their maximal functions are two batched searches, each
    binding phi once per grid, and the second one's first evaluation
    gives the modulars."""
    norms = _luxemburg_norms(phi, family)[0]
    norms_max, mods = _luxemburg_norms(phi, maxes)
    kept = [i for i, nf in enumerate(norms) if nf != 0.0 and not math.isinf(nf)]
    ratios = [norms_max[i] / norms[i] for i in kept]
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
        report["unbounded_evidence"] = doublings >= 3 and growing
        if len(ratios) >= 2:
            report["growth_slope_vs_log_radius"] = _log_fit(rs, ratios)[0]
    return report, _growth(mods, radii)


def _log_fit(radii, ys):
    """Least-squares line of ``ys`` against log R: slope, intercept, r^2."""
    logr = np.log(np.asarray(radii, float))
    slope, intercept = np.polyfit(logr, ys, 1)
    ss_res = float(np.sum((np.asarray(ys) - (slope * logr + intercept)) ** 2))
    ss_tot = float(np.sum((np.asarray(ys) - np.mean(ys)) ** 2))
    return (float(slope), float(intercept),
            1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0)


def modular_growth(phi, family, radii=None) -> dict:
    """Modular of Mf for each family member, with a log-radius fit: the
    divergence experiments check growth in the truncation radius, never a
    literal infinity."""
    return _growth([modular(phi, Mf) for Mf in _maximal_family(family)], radii)


def _growth(mods, radii=None) -> dict:
    """``modular_growth`` given the modulars ``mods`` of the maximal
    functions."""
    report = {"modulars": mods}
    if radii is not None and len(mods) >= 2 and all(map(math.isfinite, mods)):
        report.update(zip(("slope_vs_log_radius", "intercept", "r_squared"),
                          _log_fit(radii, mods)))
    return report
