"""Modular integrals and Luxemburg norms on gridded functions.

A :class:`GridFunction` samples a nonnegative function at cell centers of
a uniform grid on an axis-aligned box (1D or 2D).  The modular is the
midpoint-rule integral of phi(x, f(x)); the Luxemburg norm is the least
scaling bringing the modular to 1, found by bisection.  Ball-norm and
duality reports record empirical comparability constants rather than
asserting fixed ones.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .phi_core import UNIT_BALL_VOLUME, PhiFunction

INF = math.inf

#: Relative bisection tolerance for the Luxemburg norm.
EPS_LUX = 1e-6

#: Scalings probed before declaring a function outside the space.
LAMBDA_CAP = 1e12


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
        if len(box) not in (1, 2) or vals.ndim != len(box):
            raise ValueError("box and values must both be 1D or 2D")
        if any(hi <= lo for lo, hi in box):
            raise ValueError("box sides must have positive length")
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
        return float(np.prod(self.cell_sizes))

    def axis_centers(self) -> list:
        return [lo + (np.arange(n) + 0.5) * (hi - lo) / n
                for (lo, hi), n in zip(self.box, self.resolution)]

    def points(self) -> np.ndarray:
        """All cell centers, shape (N, dim), row-major order."""
        axes = self.axis_centers()
        if self.dim == 1:
            return axes[0].reshape(-1, 1)
        gx, gy = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(self.box, c * self.values)

    # -- constructors

    @staticmethod
    def from_callable(func, box, resolution) -> "GridFunction":
        box = tuple(box)
        res = (resolution,) * len(box) if np.isscalar(resolution) else tuple(resolution)
        axes = [lo + (np.arange(n) + 0.5) * (hi - lo) / n
                for (lo, hi), n in zip(box, res)]
        if len(box) == 1:
            vals = np.asarray(func(axes[0].reshape(-1, 1)), float).reshape(res)
        else:
            gx, gy = np.meshgrid(*axes, indexing="ij")
            pts = np.column_stack([gx.ravel(), gy.ravel()])
            vals = np.asarray(func(pts), float).reshape(res)
        return GridFunction(box, vals)

    @staticmethod
    def indicator_ball(center, radius: float, box, resolution) -> "GridFunction":
        center = np.atleast_1d(np.asarray(center, float))

        def ind(X):
            return (np.linalg.norm(X - center[None, :], axis=1) < radius).astype(float)

        return GridFunction.from_callable(ind, box, resolution)

    # -- CSV form: header then one row per cell (flat index, coords, value)

    def to_csv(self, path=None) -> str | None:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["index"] + [f"x{i}" for i in range(self.dim)] + ["value"])
        pts = self.points()
        flat = self.values.ravel()
        for i in range(len(flat)):
            w.writerow([i] + [repr(float(c)) for c in pts[i]] + [repr(float(flat[i]))])
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
        rows = list(csv.reader(io.StringIO(text)))
        box = tuple(box)
        res = (resolution,) * len(box) if np.isscalar(resolution) else tuple(resolution)
        vals = np.zeros(int(np.prod(res)))
        for row in rows[1:]:
            if not row:
                continue
            vals[int(row[0])] = float(row[-1])
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
        (n,) = struct.unpack_from("<I", blob, 0)
        off = 4
        box = []
        for _ in range(n):
            lo, hi = struct.unpack_from("<dd", blob, off)
            box.append((lo, hi))
            off += 16
        res = struct.unpack_from(f"<{n}I", blob, off)
        off += 4 * n
        count = int(np.prod(res))
        vals = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
        return GridFunction(tuple(box), vals.reshape(res).copy())


def _domain_mask(phi, pts: np.ndarray) -> np.ndarray:
    dom = getattr(phi, "domain", None)
    if dom is None or (dom.lower is None and dom.upper is None):
        return np.ones(len(pts), dtype=bool)
    mask = np.ones(len(pts), dtype=bool)
    if dom.lower is not None:
        mask &= np.all(pts > np.asarray(dom.lower)[None, :], axis=1)
    if dom.upper is not None:
        mask &= np.all(pts < np.asarray(dom.upper)[None, :], axis=1)
    return mask


def modular(phi, f: GridFunction) -> float:
    """Midpoint-rule integral of phi(x, f(x)) over the grid cells that lie
    in phi's domain; +inf as soon as any cell evaluates to +inf."""
    pts = f.points()
    vals = f.values.ravel()
    mask = _domain_mask(phi, pts)
    out = phi.eval_many(pts[mask], vals[mask])
    if np.any(np.isinf(out)):
        return INF
    return float(np.sum(out) * f.cell_volume)  # numpy pairwise summation


def luxemburg_norm(phi, f: GridFunction) -> float:
    """inf{lam > 0 : modular(f / lam) <= 1}, approximated from above by
    bisection; returns ``math.inf`` when no lam up to 1e12 works (the
    function is outside the space at this truncation)."""
    if not np.any(f.values > 0):
        return 0.0

    def m(lam: float) -> float:
        return modular(phi, f.scaled(1.0 / lam))

    hi = 1.0
    while m(hi) > 1.0:
        hi *= 2.0
        if hi > LAMBDA_CAP:
            return INF
    lo = hi
    while m(lo) <= 1.0 and lo > 1e-300:
        hi = lo
        lo *= 0.5
    if lo <= 1e-300:
        return 0.0
    while hi - lo > EPS_LUX * hi:
        mid = 0.5 * (lo + hi)
        if m(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def ball_norm_check(phi: PhiFunction, center, radius: float,
                    resolution: int = 256, y_samples=None,
                    box=None) -> dict:
    """Compare the norm of a ball indicator against 1/phi^{-1}(y, 1/|B|)
    at sampled y in B; reports the empirical ratio range."""
    center = np.atleast_1d(np.asarray(center, float))
    dim = len(center)
    vol = UNIT_BALL_VOLUME[dim] * radius ** dim
    if vol > 1.0 + 1e-12:
        raise ValueError("ball must have measure at most 1")
    if box is None:
        box = tuple((c - 1.5 * radius, c + 1.5 * radius) for c in center)
    chi = GridFunction.indicator_ball(center, radius, box, resolution)
    norm = luxemburg_norm(phi, chi)
    if y_samples is None:
        offs = [np.zeros(dim)]
        for ax in range(dim):
            for sgn in (-1.0, 1.0):
                e = np.zeros(dim)
                e[ax] = sgn * 0.5 * radius
                offs.append(e)
        y_samples = [center + e for e in offs]
    estimates = [1.0 / phi.inverse(tuple(y), 1.0 / vol) for y in y_samples]
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
    norm routines use (``eval_many``, ``inverse``, ``domain``).
    """

    def __init__(self, phi: PhiFunction):
        self.phi = phi
        self.domain = phi.domain

    def eval(self, x, t: float) -> float:
        return self.phi.conjugate_value(x, t)

    def eval_many(self, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, float))
        T = np.asarray(T, float).ravel()
        # phi*(x, 0) = 0 at every x, so only levels t != 0 need a curve
        out = np.zeros(len(T))
        for i in np.flatnonzero(T):
            out[i] = self.phi.conjugate_value(tuple(X[i]), float(T[i]))
        return out

    def inverse(self, x, tau: float) -> float:
        """inf{t : conjugate(x, t) >= tau} by doubling plus bisection."""
        if tau <= 0:
            return 0.0
        hi = 1.0
        while self.eval(x, hi) < tau:
            hi *= 2.0
            if hi > 1e300:
                return INF
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.eval(x, mid) >= tau:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-12 * max(1.0, hi):
                break
        return hi


def conjugate_function(phi: PhiFunction) -> ConjugateFunction:
    return ConjugateFunction(phi)


def pairing(f: GridFunction, g: GridFunction) -> float:
    """Integral of f * g over the common grid."""
    if f.box != g.box or f.resolution != g.resolution:
        raise ValueError("f and g must live on the same grid")
    return float(np.sum(f.values * g.values) * f.cell_volume)


def duality_lower_bound(phi: PhiFunction, f: GridFunction,
                        g: GridFunction, C: float = 2.0) -> dict:
    """Check the pairing integral against C * ||f||; g must lie in the
    unit ball of the conjugate norm."""
    conj = conjugate_function(phi)
    g_norm = luxemburg_norm(conj, g)
    if g_norm > 1.0 + 1e-6:
        raise ValueError(f"conjugate norm of g is {g_norm} > 1; rescale g")
    pair = pairing(f, g)
    f_norm = luxemburg_norm(phi, f)
    observed = pair / f_norm if f_norm > 0 else 0.0
    return {
        "pairing": pair,
        "norm_f": f_norm,
        "conj_norm_g": g_norm,
        "bound_constant": C,
        "observed_constant": observed,
        "holds": pair <= C * f_norm + 1e-9,
    }


def annulus_test_function(phi: PhiFunction, level: float, r_in: float,
                          r_out: float, box, resolution) -> GridFunction:
    """g(x) = (phi*)^{-1}(x, level) on the annulus r_in < |x| < r_out,
    zero elsewhere: the standard test function for norm lower bounds."""
    conj = conjugate_function(phi)

    def func(X):
        rad = np.linalg.norm(X, axis=1)
        out = np.zeros(len(X))
        for i, (x, r) in enumerate(zip(X, rad)):
            if r_in < r < r_out:
                out[i] = conj.inverse(tuple(x), level)
        return out

    return GridFunction.from_callable(func, box, resolution)
