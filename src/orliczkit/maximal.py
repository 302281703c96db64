"""Discretized non-centered Hardy-Littlewood maximal operator.

M f(x) is the supremum over balls containing x of the average of f over
the ball intersected with the domain.  The supremum is discretized over a
finite radius ladder and grid-aligned centers, which *under*-estimates M:
boundedness conclusions are evidence only.  So are growth flags:
:func:`operator_norm_estimate` flags unboundedness when, across at least
three doublings of the truncation radius, the norm ratio grows by a
positive increment at every doubling and no increment is smaller than
the one before.  Bounded operators saturate, so their increments shrink:
on a 1D ball indicator they do at every step for t^p, p > 1, and grow
for t.

One kernel serves 1D and 2D grids (a 1D grid is one column whose ball is
one row), with no FFT.  Each call plans all of its radii at once, from
one (radii x rows) array of x half-counts: each ball is cropped to the
grid, whose far rows and widths reach no further cell, and split into
runs of rows of equal x half-width w, and a radius whose cropped ball
equals the previous one's is skipped.  Cell counts come from two small
tables, one per axis, joined by one matrix product per footprint.

Ball sums at the stride-lattice centers come from summed-area tables
(Crow, SIGGRAPH 1984).  The input is first split exactly into hi + lo:
hi is rounded to a grain of 2**-50 to 2**-49 times the grid's sum, fine
enough that every sum and difference of its prefix sums is exact, and
lo, the rest (at most half a grain a cell), is all zero on integer or
dyadic input and is then skipped.  Each part gets one table, x prefix
sums and then y prefix sums gathered at once into a layout that stores
both axes by residue mod the stride, with x padded on both sides by the
widest half-width, rounded up to a multiple of the stride: a read before
the grid gives 0 and one past it the total.  A run's x-strip (the table
at x + w + 1 less the table at x - w) depends on w alone, so it is built
once per distinct half-width and serves every footprint of a chunk whose
accumulators fit ``_BATCH_CELLS`` cells; it is one subtraction of two
unit-stride slices of residue blocks, and each band of rows then adds
two y-corner reads of it.  So hi's ball sums are exact and lo's round
relative to lo's own sums: each ball sum is accurate relative to that
ball, not to the running prefix totals.  Measured against a brute-force
oracle: within 1.6e-15 relative beside a cell 1e15 times the background
(prefix-sum differences alone over-estimated there by 1.7e-2), within
6e-16 on random grids whose values span six decades, and bit for bit on
integer input.  A sum of lo's rounded terms may dip below 0, so sums are
clipped at 0.

Dividing by the count of cells inside the grid gives each ball its true
intersected measure; the max over admissible centers is a grayscale
dilation by the same runs that reads only the lattice centers.  Its
x-windows come from one doubling table per radius (Urbach & Wilkinson,
IEEE TIP 2008): level k holds the max over 2**k rows, and a window is
the max of two entries of one level.  The levels are built by 1D ops
over the flattened rows, each padded with -inf so that no window that is
read reaches a neighbour's values.  Each run then maxes its window
maxima into the output along each of its rows, whole rows at a time.
Every array keeps y first, so a shift along y moves one contiguous
block: the tables and the output store y by residue mod the stride, one
block per residue, and the output is put back in y order once at the
end.  No step loops over the residues, so a stride as wide as the grid
costs no more than stride 1.  Plain y order (no residue blocks) took
15-22% more kernel time on the seven gallery families at resolution 4:
slower in 25 and in 29 of 30 pairs.  Contiguous blocks pay because numpy
runs a ufunc over a view it cannot coalesce 3-4 times slower per
element: ``np.maximum`` takes 41 us on a 128 x 255 slice of a 128 x 256
array and 12 us on the whole array (numpy 2.4, 2-core host).  Whole
rows, flat levels, x stored by residue and planning each call once took
11-12% off the median ``ex3_4`` / ``ex3_2`` bundle at resolution 4 and
14-17% off each at resolution 16, in paired runs (``BENCH_27.json``).

The output is a running max, and max is idempotent, so an average no
larger than a member's least output so far, its floor, moves no bit
wherever it lands.  Three exact shortcuts follow.  The outputs start at
0, below every average (sums are clipped at 0, and the caller maxes the
result with |f| >= 0).  On a 2D grid, a radius's dilation reads only the
box of lattice centers whose averages exceed their member's floor, and
builds its doubling levels and window maxima only over the box's lattice
columns; a radius with no such center is not dilated.  And
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

import math
from dataclasses import dataclass

import numpy as np

from .norms import GridFunction, _luxemburg_norms, modular
from .phi_core import INF


@dataclass(frozen=True)
class MaximalConfig:
    """Discretization of the ball supremum.

    ``radius_set`` are the ball radii; centers live on the cell-center
    grid thinned by ``center_stride``.  A stride past the grid's largest
    axis samples the one center per axis, the first cell's, as a stride
    equal to that axis does.  Balls leaving the domain average over the
    intersected measure only.
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


class _Plan:
    """The cell-center balls |x - c| < r of all radii, cropped to a grid of
    ``shape`` and planned at once.

    ``footprints`` holds one list of runs ``(w, d_lo, d_hi)`` per distinct
    cropped ball, in radius order, a radius repeating the previous ball
    dropped: the rows d_lo <= |dy| <= d_hi, all of x half-count w, widest
    first.  Rows with |dy| >= ny, and half-counts beyond nx - 1, reach no
    further cell from any center, so r is clipped at nx hx + ny hy before
    it is squared.  A 1D ball is the single row of a one-column grid.

    Cell counts come from two tables: the cells within w of each lattice
    row, for the half-counts in use, and within d of each lattice column.
    ``fewest`` is each footprint's count at the four corner centers, which
    hold the fewest: along x the count is concave (each run's clamped
    x-count is), and along y it rises and then falls (a window of the
    grid's rows over weights that never grow with |dy|)."""

    def __init__(self, radii, cell_sizes: tuple, shape: tuple, s: int):
        nx, ny = shape
        r = np.asarray(radii, float)[:, None]
        if len(cell_sizes) == 1:
            half = _half_count(r, cell_sizes[0], nx)
        else:
            hx, hy = cell_sizes
            dy = np.arange(ny) * hy
            r = np.minimum(r, nx * hx + ny * hy)
            half = _half_count(np.sqrt(np.maximum(r * r - dy * dy, 0.0)),
                               hx, nx)
            half[np.arange(ny) > _half_count(r, hy, ny)] = -1
        # max is idempotent: a radius repeating the last cropped ball adds
        # nothing
        half = half[np.append(True, np.any(half[1:] != half[:-1], axis=1))]
        # half-counts never grow with |dy|, so equal ones are contiguous
        edges = np.diff(np.pad(half, ((0, 0), (1, 1)),
                               constant_values=-1)) != 0
        k, d_lo = np.nonzero(edges[:, :-1] & (half >= 0))
        d_hi = np.nonzero(edges[:, 1:] & (half >= 0))[1]
        w = half[k, d_lo]
        self.bounds = np.searchsorted(k, np.arange(len(half) + 1))
        runs = list(zip(w.tolist(), d_lo.tolist(), d_hi.tolist()))
        ends = self.bounds.tolist()
        self.footprints = [runs[a:b] for a, b in zip(ends, ends[1:])]

        def inside(c, d, n):
            # how many of c - d .. c + d lie in [0, n), as floats: the counts
            # and their products and sums are integers far below 2**53, so
            # exact in float64
            return (np.minimum(c + d + 1, n)
                    - np.maximum(c - d, 0)).astype(float)

        widths, self.widx = np.unique(w, return_inverse=True)
        self.xtab = inside(np.arange(0, nx, s), widths[:, None], nx)
        # row d + 1 holds d, and row 0 no rows
        self.ytab = inside(np.arange(0, ny, s), np.arange(-1, ny)[:, None], ny)
        self.ytab[0] = 0.0
        self.d_lo, self.d_hi = d_lo, d_hi
        y, x = self.ytab[:, [0, -1]], self.xtab[:, [0, -1]]
        corners = ((y[d_hi + 1] - y[d_lo])[:, :, None]
                   * x[self.widx][:, None, :])
        self.fewest = np.add.reduceat(corners, ends[:-1]).min(axis=(1, 2))

    def counts(self, i: int) -> np.ndarray:
        """Cells of footprint i inside the grid at every lattice center,
        lattice columns first."""
        a, b = self.bounds[i], self.bounds[i + 1]
        cy = self.ytab[self.d_hi[a:b] + 1] - self.ytab[self.d_lo[a:b]]
        return cy.T @ self.xtab[self.widx[a:b]]


def _bands(d_lo: int, d_hi: int) -> list:
    """The dy ranges [lo, hi] that make up the rows d_lo <= |dy| <= d_hi."""
    return [(-d_hi, d_hi)] if d_lo == 0 else [(d_lo, d_hi), (-d_hi, -d_lo)]


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
    lengths = (n - 1 - np.arange(s)) // s + 1
    return list(zip((np.cumsum(lengths) - lengths).tolist(), lengths.tolist()))


def _by_residue(n: int, s: int) -> np.ndarray:
    """0 .. n - 1 in the order that ``_blocks`` stores them."""
    j = np.arange(-(-n // s) * s).reshape(-1, s).T.ravel()
    return j[j < n]


def _table(part: np.ndarray, s: int, pad: int) -> np.ndarray:
    """Summed-area table of the (members, nx, ny) grids ``part``, y first:
    ``[j, m, i]`` is the sum of ``part[m, :i, :j]``, with j = 0 .. ny
    stored by residue mod s, and i stored by residue mod s from -pad to
    past nx + pad in s blocks of one length (pad is a multiple of s): an i
    before the grid reads 0 and one past it the total.  The x and then the
    y prefix sums are taken in ``part`` itself, and the table is one
    gather from them."""
    members, nx, ny = part.shape
    np.cumsum(part, axis=1, out=part)
    np.cumsum(part, axis=2, out=part)
    i = _by_residue(-(-(nx + 1) // s) * s + 2 * pad, s) - pad
    j = _by_residue(ny + 1, s)
    # i (j) sums the prefix at i - 1 (j - 1); rows of part are (m, i - 1)
    rows = np.arange(members)[:, None] * nx + np.clip(i - 1, 0, nx - 1)
    sat = part.reshape(-1, ny)[rows, np.maximum(j - 1, 0)[:, None, None]]
    sat[0] = 0.0  # j = 0
    sat[..., i <= 0] = 0.0
    return sat


def _strip(out: np.ndarray, sat: np.ndarray, w: int, s: int,
           pad: int) -> None:
    """The x-strip of half-width w into ``out``: ``out[..., a]`` is the
    table at x = a s + w + 1 less the table at x = a s - w, which makes it
    the y prefix sums of the x-window [a s - w, a s + w] of lattice row a,
    clipped to the grid.  Each read is one slice of a residue's block of
    the padded table (``_table``)."""
    size, rows = sat.shape[2] // s, out.shape[2]

    def at(x):  # the table at x, x + s, ... for every lattice row
        start = x % s * size + (x + pad) // s
        return sat[..., start: start + rows]

    np.subtract(at(w + 1), at(-w), out=out)


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


def _dilate(out: np.ndarray, blocks: list, tab: np.ndarray,
            spare: np.ndarray, src: np.ndarray, runs: list,
            avg: np.ndarray, box: tuple) -> None:
    """Max of the lattice averages ``avg`` over the footprint ``runs``,
    into ``out``, whose grid columns are stored by residue mod s in the
    ``blocks`` of ``_blocks(ny, s)``.  Only the lattice columns b0 <= b <
    b1 and rows a0 <= a <= a1 of ``box = (b0, b1, a0, a1)`` are read; the
    rest must not exceed any output.

    ``tab`` and ``spare`` have one row more than there are lattice
    columns.  For every lattice column b0 <= b < b1 and member (the first
    two axes), the last nx entries of ``tab`` take the box's lattice
    rows, -inf elsewhere and in the pad before them, and the row b1 after
    them is -inf in both arrays.  Those rows, flattened, become a
    doubling table, each level written into the other array (numpy would
    copy an input that overlaps its output): at level k, entry i holds
    the max of entries i .. i + 2**k - 1.  A row's windows spill at most
    pad entries into the next row's pad, -inf at level 0, so each entry
    read is its clipped window's max: the x-window [i - w, i + w] of a
    run is the max of two level-floor(log2(2w + 1)) entries, taken into
    ``src`` over whole rows.  Runs are visited narrowest first, so only
    one level is alive.  Each run maxes its window maxima into ``out``
    along its rows, whole rows at a time, -inf beyond the box's
    reach: lattice column m lands on grid column m s + dy, which is entry
    m + dy // s of the block of residue dy % s, for the m inside the box
    that land inside the grid."""
    nx = src.shape[2]
    s, pad = len(blocks), tab.shape[2] - nx
    b0, b1, a0, a1 = box
    tab, spare = tab[b0: b1 + 1], spare[b0: b1 + 1]
    tab.fill(-INF)
    spare[-1] = -INF
    tab[:-1, :, pad + a0 * s: pad + a1 * s + 1: s] = avg[b0:b1, :, a0: a1 + 1]
    size = tab[:-1].size
    level = 0
    for w, d_lo, d_hi in reversed(runs):
        k = (2 * w + 1).bit_length() - 1
        while level < k:
            h = 1 << level
            flat = tab.reshape(-1)
            np.maximum(flat[:size], flat[h: size + h],
                       out=spare.reshape(-1)[:size])
            tab, spare = spare, tab
            level += 1
        right = pad + w + 1 - (1 << k)
        np.maximum(tab[:-1, :, pad - w: pad - w + nx],
                   tab[:-1, :, right: right + nx], out=src[b0:b1])
        for lo, hi in _bands(d_lo, d_hi):
            for dy in range(lo, hi + 1):
                start, length = blocks[dy % s]
                q = dy // s
                m0, m1 = max(b0, -q), min(b1, length - q)
                if m1 > m0:
                    dst = out[start + q + m0: start + q + m1]
                    np.maximum(dst, src[m0: m1], out=dst)


def _staircase_maximal(v: np.ndarray, cell_sizes: tuple,
                       cfg: MaximalConfig) -> np.ndarray:
    """Maximal function of v >= 0 on a 1D or 2D grid (module docstring).

    v may also stack the grids of a family's members along a first axis;
    every step is elementwise per member, so each comes out as if alone.

    A member whose sum passes the largest float runs scaled by 2**-k, the
    least k that makes its sum finite, and its result is scaled back by
    2**k.  Scaling by a power of 2 is exact unless it takes a cell below
    2**(k - 1022), into the subnormals; a member with a finite sum keeps
    k = 0 and every bit."""
    dim = len(cell_sizes)
    # a 1D grid is one column
    g = v.reshape((-1,) + v.shape[v.ndim - dim:] + (1,) * (2 - dim))
    k, scaled = np.zeros((len(g), 1, 1), int), g
    with np.errstate(over="ignore"):
        while (big := ~np.isfinite(
                scaled.reshape(len(g), -1).sum(axis=1))).any():
            k[big] += 1
            scaled = np.ldexp(g, -k)
    g = scaled
    # a stride of at least the largest axis samples only center 0 on each
    # axis, so a larger one gives the same bits and only costs more (s
    # residue blocks per axis)
    s = min(cfg.center_stride, max(g.shape[1:]))
    out = np.empty_like(g)
    out[..., _by_residue(g.shape[2], s)] = _residue_maximal(
        g, cell_sizes, cfg.radius_set, s).transpose(1, 2, 0)
    return np.ldexp(out, k, out=out).reshape(v.shape)


def _residue_maximal(g: np.ndarray, cell_sizes: tuple, radii: tuple,
                     s: int) -> np.ndarray:
    """The maximal function of the (members, nx, ny) grids g, over the
    balls of ``radii`` at the centers of stride s, y first and stored by
    residue mod s (``_blocks``).  Every array here keeps y first, so that
    a shift along y moves whole contiguous blocks; all of them but the
    result are freed before y is put back in order.

    The outputs start at 0, below no ball average.  On a 2D grid, work
    that cannot raise a member's output above its least value so far,
    ``floor``, is skipped (module docstring): footprints whose averages
    are all at most the floor before their ball sums, and the lattice
    centers outside the box of those above it before their dilation."""
    members, nx, ny = g.shape
    lattice = (-(-nx // s), -(-ny // s))
    plan = _Plan(radii, cell_sizes, (nx, ny), s)
    footprints = plan.footprints
    nruns = np.diff(plan.bounds)
    # on one row a footprint costs less than the tests that would skip it
    prune = ny > 1
    # no ball average of a member exceeds its total over the fewest cells
    # any ball holds, up to the rounding that _BOUND_SLACK covers
    total = g.reshape(members, -1).sum(axis=1) * (1.0 + _BOUND_SLACK)
    tops = total / plan.fewest[:, None]
    # the widest half-width, rounded up to a multiple of s: the room each
    # table leaves beside the grid
    pad = -(-max(runs[0][0] for runs in footprints) // s) * s
    sat = _table(_split(g), s, pad)
    depth = sat.shape[1]  # the members, twice over if lo is kept
    blocks, outblocks = _blocks(ny + 1, s), _blocks(ny, s)
    strip = np.empty((ny + 1, depth, lattice[0]))
    out = np.zeros((ny, members, nx))
    # the doubling table, with room left of the grid for the widest window
    # and one row more than the lattice columns
    tab = np.empty((lattice[1] + 1, members, pad + nx))
    spare = np.empty_like(tab)
    src = np.empty((lattice[1], members, nx))
    whole = (0, lattice[1], 0, lattice[0] - 1)
    # footprints in chunks whose ball sums fit the batch budget
    chunk = max(1, _BATCH_CELLS // (depth * math.prod(lattice)))
    sums = np.empty((min(chunk, len(footprints)), lattice[1], depth,
                     lattice[0]))
    pending = np.arange(len(footprints))
    while len(pending):
        size = chunk
        if prune:
            floor = out.min(axis=(0, 2))
            pending = pending[np.any(tops[pending] > floor, axis=1)]
            # a chunk of few runs leaves the floor fresh for the next
            size = max(1, np.count_nonzero(
                np.cumsum(nruns[pending[:chunk]]) <= _CHUNK_RUNS))
        ids, pending = pending[:size], pending[size:]
        nums = sums[:len(ids)]
        nums.fill(0.0)
        uses = {}
        for num, i in zip(nums, ids):
            for w, d_lo, d_hi in footprints[i]:
                uses.setdefault(w, []).append((num, d_lo, d_hi))
        # one x-strip per half-width serves every footprint of the chunk;
        # widest first, so each footprint adds its runs in one order
        # whatever the chunking
        for w in sorted(uses, reverse=True):
            _strip(strip, sat, w, s, pad)
            for num, d_lo, d_hi in uses[w]:
                for lo, hi in _bands(d_lo, d_hi):
                    _add_corner(num, strip, hi + 1, np.add, blocks)
                    _add_corner(num, strip, lo, np.subtract, blocks)
        num = nums[:, :, :members]
        if depth > members:
            # lo's sums round, so a sum of zeros may come out below 0
            num += nums[:, :, members:]
            np.maximum(num, 0.0, out=num)
        for i, avg in zip(ids, num):
            np.divide(avg, plan.counts(i)[:, None], out=avg)
            box = whole
            if prune:
                above = np.any(avg > out.min(axis=(0, 2))[:, None], axis=1)
                cols = np.flatnonzero(np.any(above, axis=1))
                if not len(cols):
                    continue
                rows = np.flatnonzero(np.any(above, axis=0))
                box = (cols[0], cols[-1] + 1, rows[0], rows[-1])
            _dilate(out, outblocks, tab, spare, src, footprints[i], avg, box)
    return out


#: Most grid cells, summed over members, that one kernel call evaluates,
#: and most cells of ball-sum accumulators that it holds at once.  The
#: kernel holds about ten arrays of that many floats, fourteen when the
#: exact split keeps a low part (its padded table is up to three grids
#: wide): 12.9 MB at its peak for the 10-member ball family on a 128²
#: grid, which runs as one batch (a 256² grid runs four members at a
#: time).
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
    report also flags "unbounded evidence" (:func:`_unbounded_evidence`):
    across at least three doublings of the radius, every increment of the
    ratios is positive and no increment is smaller than the one before.
    Size alone cannot tell divergence from slow saturation (in 1D, on the
    indicator of (-1, 1), t^1.05 has ratio 7.7 at R = 128 and tends to
    34), but the shape can: a bounded operator's increments shrink.
    It adds a least-squares slope of ratio against log radius.
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
        report["truncation_radii"] = rs
        report["unbounded_evidence"] = _unbounded_evidence(rs, ratios)
        if len(ratios) >= 2:
            report["growth_slope_vs_log_radius"] = _log_fit(rs, ratios)[0]
    return report, _growth(mods, radii)


def _unbounded_evidence(radii, ratios) -> bool:
    """At least three doublings among ``radii``, and the ``ratios`` at them
    grow by positive increments, none smaller than the one before."""
    doublings = sum(1 for a, b in zip(radii, radii[1:]) if b >= 2.0 * a - 1e-9)
    steps = np.diff(ratios)
    return doublings >= 3 and bool(np.all(steps > 0) and np.all(np.diff(steps) >= 0))


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
