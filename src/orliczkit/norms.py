"""Modular integrals and Luxemburg norms on gridded functions.

A :class:`GridFunction` samples a nonnegative function at cell centers of
a uniform grid on an axis-aligned box (1D or 2D).  The modular is the
midpoint-rule integral of phi(x, f(x)); the Luxemburg norm is the least
scaling bringing the modular to 1, found by the package's one level
search.  Ball-norm and
duality reports record empirical comparability constants rather than
asserting fixed ones.
"""

from __future__ import annotations

import csv
import io
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .phi_core import EPS_INV_BISECT, UNIT_BALL_VOLUME, PhiFunction, \
    _as_point, _last_t_where

INF = math.inf

#: Relative tolerance of the Luxemburg norm: it is found to within this
#: factor of itself, from above.
EPS_LUX = 1e-6

#: The largest scaling lam probed before declaring a function outside the
#: space.
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
        pts = GridFunction(box, np.zeros(res)).points()
        return GridFunction(box, np.asarray(func(pts), float).reshape(res))

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


def _domain_mask(phi, pts: np.ndarray) -> np.ndarray:
    """The cells whose centers lie inside phi's domain, a box taken open."""
    dom = phi.domain
    if dom.unbounded:
        return np.ones(len(pts), dtype=bool)
    return np.all((pts > np.asarray(dom.lower)) & (pts < np.asarray(dom.upper)), axis=1)


#: The last grid ``modular`` bound phi to: (phi, box, shape, domain mask,
#: evaluator of phi at the masked cell centers).  Holding phi keeps the
#: ``is`` test sound.
_BOUND = None


def modular(phi, f: GridFunction) -> float:
    """Midpoint-rule integral of phi(x, f(x)) over the grid cells that lie
    in phi's domain; +inf as soon as any cell evaluates to +inf.

    phi is bound to the cell centers once per grid, so the steps of a
    Luxemburg norm search, or f and Mf on one grid, share one table."""
    global _BOUND
    bound = _BOUND
    if bound is None or bound[0] is not phi \
            or bound[1:3] != (f.box, f.resolution):
        pts = f.points()
        mask = _domain_mask(phi, pts)
        bound = _BOUND = (phi, f.box, f.resolution, mask,
                          phi.evaluator(pts[mask]))
    mask, evaluate = bound[3:]
    out = evaluate(f.values.ravel()[mask])
    if np.any(np.isinf(out)):
        return INF
    return float(np.sum(out) * f.cell_volume)  # numpy pairwise summation


def luxemburg_norm(phi, f: GridFunction) -> float:
    """inf{lam > 0 : modular(f / lam) <= 1}, approximated from above to
    EPS_LUX relative: the one level search finds the largest u = 1/lam
    with modular(u f) <= 1 and the norm is 1/lo of its final bracket.
    Returns ``math.inf`` when no lam up to LAMBDA_CAP works (the function
    is outside the space at this truncation)."""
    if not np.any(f.values > 0):
        return 0.0
    u = _last_t_where(lambda u: np.array([modular(phi, f.scaled(u[0])) <= 1.0]),
                      1, EPS_LUX, floor=1.0 / LAMBDA_CAP)[0][0]
    return INF if u == 0.0 else float(1.0 / u)


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
    if y_samples is None:  # the center, and half a radius off it along each axis
        y_samples = center + 0.5 * radius * np.vstack(
            [np.zeros(dim), np.kron(np.eye(dim), [[-1.0], [1.0]])])
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
        """``T -> eval_many(X, T)`` with phi's table of X built once."""
        table = self.phi.table(X)

        def value(T):
            T = np.asarray(T, dtype=float)
            return table.conjugate(T.reshape(-1)).reshape(T.shape)

        return value

    def inverse(self, x, tau: float) -> float:
        """inf{t : conjugate(x, t) >= tau}."""
        return float(_conjugate_inverse(self.phi, [_as_point(x, self.domain.dim)], tau)[0])


def _conjugate_inverse(phi: PhiFunction, X, tau: float) -> np.ndarray:
    """Per point of X, inf{t : phi*(x, t) >= tau}, all points in step."""
    table = phi.table(X)
    return _last_t_where(lambda t: table.conjugate(t) < tau, len(table.tail),
                         EPS_INV_BISECT)[0]


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
    def func(X):
        rad = np.linalg.norm(X, axis=1)
        on = (r_in < rad) & (rad < r_out)
        out = np.zeros(len(X))
        out[on] = _conjugate_inverse(phi, X[on], level)
        return out

    return GridFunction.from_callable(func, box, resolution)
