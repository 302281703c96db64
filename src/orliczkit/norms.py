"""Modular integrals and Luxemburg norms on gridded functions.

A :class:`GridFunction` samples a nonnegative function at cell centers of
a uniform grid on an axis-aligned box (1D or 2D).  The modular is the
midpoint-rule integral of phi(x, f(x)); the Luxemburg norm is the least
scaling bringing the modular to 1, found by the package's one level
search (``phi_core._last_t_where``) on log modular against log 1/lam:
secant steps, with geometric bisection where a secant step is not
possible.  Functions that share a grid are measured together: phi is
bound once to the cells in its domain where some of them is positive
(phi(x, 0) = 0 elsewhere), in blocks of at most ``CELL_BUDGET`` cells
over all of them, and one search brackets every norm, each exactly as if
searched alone; :func:`modular` and :func:`luxemburg_norm`
are the one-function case.
Ball-norm and duality reports record empirical comparability constants
rather than asserting fixed ones.
"""

from __future__ import annotations

import csv
import io
import math
import struct
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .phi_core import EPS_INV_BISECT, INF, DomainError, PhiFunction, \
    _T_RANGE, _as_point, _ball_volume, _last_t_where, _lattice, _norms
from .conditions import _holds

#: Relative tolerance of the Luxemburg norm: it is found to within this
#: factor of itself, from above.
EPS_LUX = 1e-6

#: The largest scaling lam probed before declaring a function outside the
#: space.
LAMBDA_CAP = 1e12

#: The most cells a truncation grid may have in all: four times the largest
#: gallery grid at resolution 16 (1024^2 cells), 32 MiB per float array.
MAX_CELLS = 2 ** 22

#: The most cells, summed over the functions evaluated together, that one
#: working array of the modular or of the maximal kernel holds: 512 KiB of
#: float64, so that the few arrays a step reads and writes fit a 2 MiB L2
#: cache.  The modular evaluates phi in blocks of support cells of this
#: size, and the maximal kernel takes at most this many grid cells of a
#: family's members per call.
CELL_BUDGET = 2 ** 16


@dataclass(frozen=True)
class GridFunction:
    """Nonnegative cell-center samples on a uniform grid.

    ``box`` is ``((lo, hi),)`` in 1D or ``((lo_x, hi_x), (lo_y, hi_y))`` in
    2D; ``values`` has one axis per box axis, row-major.
    """

    box: tuple
    values: np.ndarray

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "values", vals)
        if len(box) not in (1, 2) or vals.ndim != len(box) or not vals.size:
            raise ValueError("box and values must be 1D or 2D and nonempty")
        # n cells on a side: (n - 0.5) * (hi - lo) must be finite for the
        # cell centers; this also rejects nan and infinite bounds
        if not all(lo < hi and math.isfinite(n * (hi - lo))
                   for (lo, hi), n in zip(box, vals.shape)):
            raise ValueError("box sides must have positive length, finite "
                             "times the number of cells")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("values must be finite and nonnegative")

    @property
    def dim(self) -> int:
        return len(self.box)

    @property
    def resolution(self) -> tuple:
        return self.values.shape

    @property
    def cell_sizes(self) -> tuple:
        return tuple((hi - lo) / n for (lo, hi), n in zip(self.box, self.resolution))

    @property
    def cell_volume(self) -> float:
        return math.prod(self.cell_sizes)  # inf, not a warning, on overflow

    def axis_centers(self) -> list:
        return [lo + (np.arange(n) + 0.5) * (hi - lo) / n
                for (lo, hi), n in zip(self.box, self.resolution)]

    def points(self) -> np.ndarray:
        """All cell centers, shape (N, dim), row-major order."""
        return _lattice(self.axis_centers())

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(self.box, c * self.values)

    # -- constructors

    @staticmethod
    def _zeros(box, resolution) -> "GridFunction":
        """The zero function on ``resolution`` cells per axis (one count
        for every axis, or one per axis) of ``box``."""
        box = tuple(box)
        res = (resolution,) * len(box) if np.isscalar(resolution) else tuple(resolution)
        return GridFunction(box, np.zeros(res))

    @staticmethod
    def from_callable(func, box, resolution) -> "GridFunction":
        grid = GridFunction._zeros(box, resolution)
        return GridFunction(grid.box, np.asarray(func(grid.points()), float)
                            .reshape(grid.resolution))

    @staticmethod
    def indicator_ball(center, radius: float, box, resolution) -> "GridFunction":
        """1 at the cell centers x with |x - center| < radius, else 0.
        The squared offsets along each axis are summed over the grid by
        broadcasting; cells where that sum overflows take ``_norms``'s
        rescaled distance, so the result is bit for bit that of ``_norms``
        over every cell center."""
        grid = GridFunction._zeros(box, resolution)
        center = np.broadcast_to(np.asarray(center, float), (grid.dim,))
        with np.errstate(over="ignore"):
            # the offsets along axis i vary along axis i only
            offsets = [np.reshape(a - c, [-1 if j == i else 1 for j in range(grid.dim)])
                       for i, (a, c) in enumerate(zip(grid.axis_centers(), center))]
            squares = np.square(offsets[0])
            for d in offsets[1:]:
                squares = squares + np.square(d)
        dist = np.sqrt(squares)
        big = np.isinf(dist)
        if big.any():
            dist[big] = _norms(grid.points()[big.ravel()] - center)
        return GridFunction(grid.box, (dist < radius).astype(float))

    # -- CSV form: header then one row per cell (flat index, coords, value)

    def to_csv(self, path=None) -> str | None:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["index"] + [f"x{i}" for i in range(self.dim)] + ["value"])
        cols = (*self.points().T, self.values.ravel())
        w.writerows(zip(range(self.values.size), *(map(repr, c.tolist()) for c in cols)))
        text = buf.getvalue()
        if path is None:
            return text
        with open(path, "w") as fh:
            fh.write(text)
        return None

    @staticmethod
    def from_csv(source, box, resolution) -> "GridFunction":
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source) as fh:
                text = fh.read()
        box = tuple(box)
        res = (resolution,) * len(box) if np.isscalar(resolution) else tuple(resolution)
        count = int(np.prod(res))
        try:
            with warnings.catch_warnings():
                # an empty body is reported below, not as a stray warning
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"CSV: {exc}") from None
        if not len(data):
            raise ValueError("CSV has no data rows")
        if data.shape[1] != len(box) + 2:
            raise ValueError(f"CSV rows have {data.shape[1]} fields, expected {len(box) + 2}")
        idx = data[:, 0]
        bad = (idx != np.floor(idx)) | (idx < 0) | (idx >= count)
        if np.any(bad):
            raise ValueError(f"CSV data row {np.argmax(bad) + 1}: index "
                             f"{idx[np.argmax(bad)]} is not one of 0..{count - 1}")
        hits = np.bincount(idx.astype(int), minlength=count)
        if np.any(hits != 1):
            raise ValueError(f"CSV index {np.argmax(hits != 1)} appears "
                             f"{hits[np.argmax(hits != 1)]} times, expected once")
        vals = np.empty(count)
        vals[idx.astype(int)] = data[:, -1]
        return GridFunction(box, vals.reshape(res))

    # -- compact binary form:
    #    uint32 n | float64 lo,hi per axis | uint32 points per axis |
    #    float64 values row-major; all little-endian

    def to_binary(self, path=None) -> bytes | None:
        n = self.dim
        head = struct.pack("<I", n)
        for lo, hi in self.box:
            head += struct.pack("<dd", lo, hi)
        head += struct.pack(f"<{n}I", *self.resolution)
        payload = self.values.astype("<f8").tobytes(order="C")
        blob = head + payload
        if path is None:
            return blob
        with open(path, "wb") as fh:
            fh.write(blob)
        return None

    @staticmethod
    def from_binary(source) -> "GridFunction":
        if isinstance(source, (bytes, bytearray)):
            blob = bytes(source)
        else:
            with open(source, "rb") as fh:
                blob = fh.read()
        n = struct.unpack_from("<I", blob)[0] if len(blob) >= 4 else 0
        off = 4 + 20 * n
        if n not in (1, 2) or len(blob) < off:
            raise ValueError(f"binary grid header: {len(blob)} bytes and {n} axes, "
                             "expected 1 or 2 axes and 4 + 20 bytes per axis")
        box = [struct.unpack_from("<dd", blob, 4 + 16 * k) for k in range(n)]
        res = struct.unpack_from(f"<{n}I", blob, 4 + 16 * n)
        count = int(np.prod(res))
        if len(blob) != off + 8 * count:
            raise ValueError(f"binary grid payload: {len(blob) - off} bytes, header "
                             f"says {count} values ({8 * count} bytes)")
        vals = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
        return GridFunction(tuple(box), vals.reshape(res).copy())


def _truncation_grid(dim: int, R: float, per_unit: float,
                    least: int = 0) -> tuple:
    """The box (-R, R)^dim and max(int(per_unit * 2R), least) cells per
    axis on it, for ``per_unit`` cells per unit length.  A count that is
    not finite, below one cell per axis or past ``MAX_CELLS`` cells in all
    raises ValueError, before anything is allocated."""
    cells = per_unit * 2.0 * R
    if not math.isfinite(cells) or max(int(cells), least) < 1:
        raise ValueError(f"expected a finite count of at least one cell per "
                         f"axis, got {per_unit:g} cells per unit length on "
                         f"(-{R:g}, {R:g})")
    n = max(int(cells), least)
    if n ** dim > MAX_CELLS:
        raise ValueError(f"expected at most {MAX_CELLS} cells in all, got "
                         f"{n:.4g} per axis ({per_unit:g} cells per unit "
                         f"length on (-{R:g}, {R:g})^{dim})")
    return ((-R, R),) * dim, n


def _domain_mask(phi, pts: np.ndarray) -> np.ndarray:
    """The cells whose centers lie inside phi's domain, a box taken open;
    a grid of another dimension raises DomainError."""
    dom = phi.domain
    if pts.shape[1] != dom.dim:
        raise DomainError(f"a grid with {pts.shape[1]} axes lies outside "
                          f"phi's {dom.dim}-dimensional domain")
    if dom.unbounded:
        return np.ones(len(pts), dtype=bool)
    return np.all((pts > np.asarray(dom.lower)) & (pts < np.asarray(dom.upper)), axis=1)


def _modular_at(phi, fs: list):
    """``u -> modulars of u[i] * fs[i]``, an (m,) array, for m functions on
    one grid.

    phi is bound once, to the cell centers in its domain where some
    member is positive: elsewhere every member is 0 and phi(x, 0) = 0, so
    those cells add exact zeros.  The binding is one evaluator per block
    of support cells, at most ``CELL_BUDGET`` cells over all members, so
    the temporaries of each evaluation stay block-sized.  Every member is
    evaluated at every call, each block scattered into zero rows over all
    cells in the domain, and each row is summed whole (a C-contiguous
    row, numpy's pairwise summation); phi's value at a cell does not
    depend on the other cells evaluated with it, so member i's modular is
    bit for bit the one it has alone on the full grid."""
    pts = fs[0].points()
    mask = _domain_mask(phi, pts)
    values = np.stack([f.values.ravel()[mask] for f in fs])
    positive = np.any(values > 0, axis=0)
    support = np.flatnonzero(positive)
    step = max(1, CELL_BUDGET // len(fs))
    if positive.all():  # every cell: plain slices, no gather or scatter
        blocks = [slice(a, a + step) for a in range(0, len(support), step)]
    else:
        blocks = [support[a: a + step] for a in range(0, len(support), step)]
    cells = pts[mask]
    parts = [(block, values[:, block], phi.evaluator(cells[block]))
             for block in blocks]
    volume = fs[0].cell_volume

    def at(u: np.ndarray) -> np.ndarray:
        out = np.zeros(values.shape)
        for block, levels, evaluate in parts:
            # the evaluator takes (cells, members): a transposed view
            out[:, block] = evaluate((levels * u[:, None]).T).T
        with np.errstate(over="ignore"):  # an overflowing modular is inf
            sums = np.sum(out, axis=1)
            scaled = sums * volume
        # a member with an inf cell has modular inf; only a row whose sum
        # is inf (an inf cell, or finite cells overflowing) can hold one
        hit = np.isinf(sums)
        hit[hit] = np.any(np.isinf(out[hit]), axis=1)
        return np.where(hit, INF, scaled)

    return at


def _luxemburg_norms(phi, fs: list) -> tuple:
    """:func:`luxemburg_norm` and :func:`modular` of each of fs, as two
    lists: one binding of phi per grid and one level search
    (``phi_core._last_t_where``, to EPS_LUX from the floor 1/LAMBDA_CAP)
    for all of that grid's members, each row bracketed as if searched
    alone; its first evaluation, at u = 1, is each member's modular, bit
    for bit."""
    groups = {}  # by grid; a function without a positive value has norm 0
    for i, f in enumerate(fs):
        if np.any(f.values > 0):
            groups.setdefault((f.box, f.resolution), []).append(i)
    norms, mods = [0.0] * len(fs), [0.0] * len(fs)
    for idx in groups.values():
        u, _, first = _last_t_where(_modular_at(phi, [fs[i] for i in idx]), len(idx),
                                    EPS_LUX, floor=1.0 / LAMBDA_CAP)
        for i, ui, m in zip(idx, u, first):
            norms[i] = INF if ui == 0.0 else 0.0 if ui >= _T_RANGE else float(1.0 / ui)
            mods[i] = float(m)
    return norms, mods


def modular(phi, f: GridFunction) -> float:
    """Midpoint-rule integral of phi(x, f(x)) over the grid cells that lie
    in phi's domain; +inf as soon as any cell evaluates to +inf."""
    return float(_modular_at(phi, [f])(np.ones(1))[0])


def luxemburg_norm(phi, f: GridFunction) -> float:
    """inf{lam > 0 : modular(f / lam) <= 1}, approximated from above to
    EPS_LUX relative: the level search (``phi_core._last_t_where``)
    brackets the largest u = 1/lam with modular(u f) <= 1 by secant,
    midpoint or doubling steps on log modular against log u, and the norm
    is 1/lo of its final bracket.  Where log modular is linear in log u,
    as under t^p, a secant step lands on the norm and it is found far
    closer than EPS_LUX.  Returns ``math.inf`` when no lam up to LAMBDA_CAP works (the
    function is outside the space at this truncation), and 0.0 for a norm
    of at most 1e-300, where the search's range ends."""
    return _luxemburg_norms(phi, [f])[0][0]


def ball_norm_check(phi: PhiFunction, center, radius: float,
                    resolution: int = 256) -> dict:
    """Compare the norm of a ball indicator against 1/phi^{-1}(y, 1/|B|)
    at y the center and half a radius off it along each axis, all read
    off one table of phi; reports the empirical ratio range."""
    center = np.atleast_1d(np.asarray(center, float))
    dim = len(center)
    vol = _ball_volume(dim, radius)
    if vol > 1.0 + 1e-12:
        raise ValueError("ball must have measure at most 1")
    box = tuple((c - 1.5 * radius, c + 1.5 * radius) for c in center)
    chi = GridFunction.indicator_ball(center, radius, box, resolution)
    norm = luxemburg_norm(phi, chi)
    y_samples = center + 0.5 * radius * np.vstack(
        [np.zeros(dim), np.kron(np.eye(dim), [[-1.0], [1.0]])])
    estimates = (1.0 / phi.table(y_samples).inverse(1.0 / vol)).tolist()
    ratios = [norm / e for e in estimates]
    return {
        "norm": norm,
        "ball_volume": vol,
        "estimates": estimates,
        "ratio_min": min(ratios),
        "ratio_max": max(ratios),
    }


class ConjugateFunction:
    """Pointwise convex conjugate of a PhiFunction, evaluable like one.

    Supports the subset of the PhiFunction protocol that the modular and
    norm routines use (``eval_many``, ``evaluator``, ``inverse``,
    ``domain``).
    """

    def __init__(self, phi: PhiFunction):
        self.phi = phi
        self.domain = phi.domain

    def eval(self, x, t: float) -> float:
        return float(self.eval_many(np.array([_as_point(x, self.domain.dim)]), [t])[0])

    def eval_many(self, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        return self.evaluator(X)(T)

    def evaluator(self, X: np.ndarray):
        """``T -> eval_many(X, T)`` with phi's table of X built once; T may
        add trailing axes, as for :meth:`PhiFunction.evaluator`.  The
        conjugate takes one level per row, so row i of the table is
        repeated once per level of point i and all levels go to one
        :meth:`PowerTable.conjugate` call, which computes each distinct
        (row, level) once."""
        table = self.phi.table(X)

        def value(T):
            T = np.asarray(T, dtype=float)
            rows = np.repeat(np.arange(len(table.tail)), T.size // len(table.tail))
            return table.rows(rows).conjugate(T.ravel()).reshape(T.shape)

        return value

    def inverse(self, x, tau: float) -> float:
        """inf{t : conjugate(x, t) >= tau}."""
        return float(_conjugate_inverse(self.phi, [_as_point(x, self.domain.dim)], tau)[0])


def _conjugate_inverse(phi: PhiFunction, X, tau: float) -> np.ndarray:
    """Per point of X, inf{t : phi*(x, t) >= tau}, all points in step."""
    table = phi.table(X)
    if tau <= 0.0:  # reached at t = 0, where phi* is 0
        return np.zeros(len(table.tail))
    top = min(tau, sys.float_info.max)  # tau = inf: every finite phi* fits
    return _last_t_where(lambda t: table.conjugate(t) / top, len(table.tail),
                         EPS_INV_BISECT)[0]


def conjugate_function(phi: PhiFunction) -> ConjugateFunction:
    return ConjugateFunction(phi)


def pairing(f: GridFunction, g: GridFunction) -> float:
    """Integral of f * g over the common grid."""
    if f.box != g.box or f.resolution != g.resolution:
        raise ValueError("f and g must live on the same grid")
    return float(np.sum(f.values * g.values) * f.cell_volume)


def duality_lower_bound(phi: PhiFunction, f: GridFunction,
                        g: GridFunction) -> dict:
    """Check the pairing integral against 2 ||f||, the Hölder bound for
    the Luxemburg norms; g must lie in the unit ball of the conjugate
    norm."""
    conj = conjugate_function(phi)
    g_norm = luxemburg_norm(conj, g)
    if g_norm > 1.0 + EPS_LUX:
        raise ValueError(f"conjugate norm of g is {g_norm} > 1; rescale g")
    pair = pairing(f, g)
    f_norm = luxemburg_norm(phi, f)
    observed = pair / f_norm if f_norm > 0 else 0.0
    return {
        "pairing": pair,
        "norm_f": f_norm,
        "conj_norm_g": g_norm,
        "bound_constant": 2.0,
        "observed_constant": observed,
        "holds": _holds((pair, 2.0 * f_norm)),
    }


def annulus_test_function(phi: PhiFunction, level: float, r_in: float,
                          r_out: float, box, resolution) -> GridFunction:
    """g(x) = (phi*)^{-1}(x, level) on the annulus r_in < |x| < r_out,
    zero elsewhere: the standard test function for norm lower bounds."""
    def func(X):
        rad = _norms(X)
        on = (r_in < rad) & (rad < r_out)
        out = np.zeros(len(X))
        out[on] = _conjugate_inverse(phi, X[on], level)
        return out

    return GridFunction.from_callable(func, box, resolution)
