"""Piecewise power-law growth functions.

A growth function is represented pointwise in space by a :class:`PhiCurve`,
an ordered list of half-open pieces, each a sum of power terms
``coef * (t - shift)^exponent``.  A spatially varying family is a
:class:`PhiFunction`, stated once as a batched form: for an array of points
it returns a :class:`PowerTable` of per-row breakpoint, coefficient,
exponent, shift and infinite-tail arrays.  Curves, batch and grid
evaluation, inverses and convex conjugates are all read off such tables;
a curve is the one-row case.  The restriction to power-term pieces keeps
evaluation exact, gives closed-form inverses for single-term pieces, and
makes joint measurability automatic for every family in the catalog.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

INF = math.inf

# Relative tolerance of the searches inverting multi-term pieces and
# conjugates: the final bracket is no wider than this times its lower end,
# at every scale.  Closed forms are exact up to rounding.
EPS_INV_BISECT = 1e-12


class ConstructionError(ValueError):
    """Raised when requested parameters violate curve invariants."""


class DomainError(ValueError):
    """Raised when a spatial point lies outside the function's domain."""


# ---------------------------------------------------------------------------
# Curves and their batched power tables


@dataclass(frozen=True)
class PowerTerm:
    """One term ``coef * max(t - shift, 0)**exponent``.

    ``coef >= 0`` and ``exponent >= 0`` keep every term non-decreasing on
    ``[0, inf)``.  ``shift`` supports pieces glued at a positive seam.
    """

    coef: float
    exponent: float
    shift: float = 0.0

    def __post_init__(self):
        if self.coef < 0:
            raise ConstructionError(f"negative coefficient {self.coef}")
        if self.exponent < 0:
            raise ConstructionError(f"negative exponent {self.exponent}")
        if self.shift < 0:
            raise ConstructionError(f"negative shift {self.shift}")


#: An unused term slot of a :class:`PowerTable`; it is 0 at every t.
PAD = (0.0, 0.0, INF)


def _pow(u: np.ndarray, e) -> np.ndarray:
    """``u ** e`` for a float or per-row exponent e, with numpy's scalar
    fast paths (exact squares and square roots) applied per element, so a
    value does not depend on how its row was batched."""
    if isinstance(e, float):
        return u if e == 1.0 else u ** e
    out = np.power(u, e)
    for k, exact in ((2.0, np.square), (0.5, np.sqrt)):
        if np.any(e == k):
            out = np.where(e == k, exact(u), out)
    return out


@dataclass(frozen=True, eq=False)
class PowerTable:
    """N piecewise power curves as padded arrays, one curve per row.

    Row i has pieces on ``[bps[i, k], bps[i, k + 1])``, the last one
    unbounded.  Piece k is the sum over slots j of ``coef * max(t - shift,
    0)**expo``, or ``coef * (t >= shift)`` where ``expo`` is 0.  A piece
    whose next breakpoint equals its own is empty, and trailing unused
    pieces have breakpoint ``inf``: rows with fewer pieces, or pieces that
    only some rows need, are written that way.  Unused slots hold
    :data:`PAD`.  ``tail[i]`` is the infinite tail of row i (``inf`` for
    none): the value is ``+inf`` for ``t > tail``.

    Shapes: ``bps`` (N, K); ``coef``, ``expo``, ``shift`` (N, K, J);
    ``tail`` (N,).
    """

    bps: np.ndarray
    coef: np.ndarray
    expo: np.ndarray
    shift: np.ndarray
    tail: np.ndarray

    @staticmethod
    def build(n: int, bps, pieces, tail=None) -> "PowerTable":
        """Stack K breakpoints and K pieces, each a list of ``(coef,
        exponent, shift)`` terms, into an n-row table; every number is a
        scalar or an (n,) array."""
        width = max([1] + [len(p) for p in pieces])
        terms = [t for p in pieces for t in list(p) + [PAD] * (width - len(p))]

        def stack(values):  # an array of scalars only is one row, broadcast
            if all(np.ndim(v) == 0 for v in values):
                return np.broadcast_to(np.array(values, float), (n, len(values)))
            return np.stack([np.broadcast_to(np.asarray(v, float), (n,)) for v in values], 1)

        return PowerTable(stack(list(bps)),
                          *(stack([t[i] for t in terms]).reshape(n, len(pieces), width)
                            for i in range(3)),
                          np.broadcast_to(np.asarray(INF if tail is None else tail, float), (n,)))

    def _map(self, f) -> "PowerTable":
        return PowerTable(f(self.bps), f(self.coef), f(self.expo),
                          f(self.shift), f(self.tail))

    def rows(self, idx) -> "PowerTable":
        """The sub-table of rows ``idx``."""
        return self._map(lambda a: a[idx])

    def join(self, other: "PowerTable", at) -> "PowerTable":
        """Row i as self below ``at[i]`` and as other from there on, with
        other's tail; ``at[i] = inf`` keeps self alone."""
        n, width = len(other.bps), max(self.coef.shape[2], other.coef.shape[2])
        at = np.broadcast_to(at, (n,))[:, None]

        def cat(a, b, pad):
            return np.concatenate([np.pad(np.broadcast_to(m, (n,) + m.shape[1:]),
                                          ((0, 0), (0, 0), (0, width - m.shape[2])),
                                          constant_values=pad) for m in (a, b)], 1)

        return PowerTable(np.concatenate([np.minimum(self.bps, at), np.maximum(other.bps, at)], 1),
                          cat(self.coef, other.coef, 0.0), cat(self.expo, other.expo, 0.0),
                          cat(self.shift, other.shift, INF), other.tail)

    def repeat(self, n: int) -> "PowerTable":
        """A one-row table broadcast to n rows."""
        return self._map(lambda a: np.broadcast_to(a, (n,) + a.shape[1:]))

    @cached_property
    def _plan(self) -> tuple:
        """``(tail, pieces)`` with each piece as its breakpoint and used term
        slots ``(coef, exponent, shift)``.  Numbers of an array whose rows
        are one broadcast row, or of a one-row table, are floats, so
        numpy's scalar fast paths apply; others are (N, 1) columns.  Slots
        unused in every row are left out."""
        def num(a, idx=()):
            if len(a) and (len(a) == 1 or a.strides[0] == 0):
                return float(a[(0,) + idx])
            return a[(slice(None),) + idx][:, None]

        pieces = []
        for k in range(self.bps.shape[1]):
            terms = [tuple(num(a, (k, j)) for a in (self.coef, self.expo, self.shift))
                     for j in range(self.coef.shape[2])]
            pieces.append((num(self.bps, (k,)),
                           [t for t in terms if not (isinstance(t[2], float) and t[2] == INF)]))
        return num(self.tail), pieces

    def _piece(self, k: int, T: np.ndarray) -> np.ndarray:
        """Piece k of every row at levels T (N, M), tail ignored."""
        out = None
        for c, e, s in self._plan[1][k][1]:
            u = T if isinstance(s, float) and s == 0.0 else np.maximum(T - s, 0.0)
            g = _pow(u, e)
            zero = e == 0.0
            if zero if isinstance(zero, bool) else zero.any():
                g = np.where(zero, T >= s, g)
            g = g if isinstance(c, float) and c == 1.0 else c * g
            out = g if out is None else out + g
        return np.zeros(T.shape) if out is None else out

    def _untailed(self, T: np.ndarray, left: bool = False) -> np.ndarray:
        """Each row at levels T (N, M): the last piece starting at or below
        t, or strictly below t for the left limit."""
        out = self._piece(0, T)
        for k in range(1, self.bps.shape[1]):
            b = self._plan[1][k][0]
            if isinstance(b, float) and b == INF:
                break  # no row uses this piece or any after it
            out = np.where(T > b if left else T >= b, self._piece(k, T), out)
        return out

    def _value(self, T: np.ndarray, left: bool = False) -> np.ndarray:
        """:meth:`value` without its checks, or its left limit."""
        tail, out = self._plan[0], self._untailed(T, left)
        return out if isinstance(tail, float) and tail == INF else np.where(T > tail, INF, out)

    def _next_bps(self) -> np.ndarray:
        return np.concatenate([self.bps[:, 1:], np.full((len(self.bps), 1), INF)], 1)

    def live(self) -> np.ndarray:
        """(N, K) mask of the pieces that are neither empty nor unused."""
        return np.isfinite(self.bps) & (self.bps < self._next_bps())

    def value(self, T) -> np.ndarray:
        """Row i at levels ``T[i, m]``; T broadcasts to (N, M).  Returns
        +inf past the tail."""
        T = np.asarray(T, dtype=float)
        if (T < 0).any():
            raise ValueError("t must be nonnegative")
        if len(T) != len(self.bps):
            T = np.broadcast_to(T, (len(self.bps), T.shape[1]))
        return self._value(T)

    def end_exponents(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the least exponent of the live unshifted terms at t = 0
        and the largest live exponent of the last piece; nan where there is
        none (no such term, or an infinite tail)."""
        r = np.arange(len(self.tail))
        first = np.sum(self.bps <= 0.0, axis=1) - 1
        last = np.sum(np.isfinite(self.bps), axis=1) - 1
        small = (self.coef[r, first] > 0) & (self.shift[r, first] == 0.0)
        e0 = np.min(np.where(small, self.expo[r, first], INF), axis=1)
        e1 = np.max(np.where(self.coef[r, last] > 0, self.expo[r, last], -INF), axis=1)
        return np.where(np.isinf(e0), np.nan, e0), np.where(np.isinf(self.tail), e1, np.nan)

    def validate(self) -> None:
        """Raise ConstructionError unless every row is a growth curve:
        breakpoints from 0 up, a first piece vanishing at 0, no downward
        jump at a seam, and escape to infinity."""
        b = self.bps
        if np.any(b[:, 0] != 0.0) or np.any(b[:, 1:] < b[:, :-1]):
            raise ConstructionError("breakpoints must start at 0 and increase")
        if np.any(self.tail <= 0):
            raise ConstructionError("infinite_tail must be positive")
        e0, e1 = self.end_exponents()
        if np.any(e0 == 0.0):
            raise ConstructionError("first piece must vanish at t = 0")
        real = (b[:, :-1] < b[:, 1:]) & np.isfinite(b[:, 1:])
        seam = np.where(real, b[:, 1:], 0.0)
        left, right = self._untailed(seam, left=True), self._untailed(seam)
        bad = real & (right < left * (1 - 1e-12) - 1e-300)
        if np.any(bad):
            k, i = np.argwhere(bad.T)[0]
            raise ConstructionError(f"downward jump at breakpoint {seam[i, k]}: "
                                    f"{left[i, k]} -> {right[i, k]}")
        if np.any(~(e1 > 0) & np.isinf(self.tail)):
            raise ConstructionError("curve does not tend to infinity")

    # -- generalized inverse

    def inverse(self, tau) -> np.ndarray:
        """Per row, ``inf{s >= 0 : value(s) >= tau}``; tau is a scalar or
        an (N,) array."""
        tau = np.broadcast_to(np.asarray(tau, dtype=float), self.tail.shape)
        if np.any(tau < 0):
            raise ValueError("tau must be nonnegative")
        out = np.where(tau == 0.0, 0.0, np.nan)
        hi = np.minimum(self._next_bps(), self.tail[:, None])
        for k in range(self.bps.shape[1]):
            i = np.flatnonzero(np.isnan(out) & (self.bps[:, k] < hi[:, k]))
            if len(i):
                out[i] = self.rows(i)._invert_piece(k, tau[i], self.bps[i, k], hi[i, k])
        # finite values never reach tau; the jump to +inf at the tail does
        return np.where(np.isnan(out), self.tail, out)

    def _invert_piece(self, k: int, tau, lo, hi) -> np.ndarray:
        """Least s in [lo, hi] where piece k reaches tau; nan for rows whose
        piece stays below tau on [lo, hi)."""
        def at(t):
            return self._piece(k, t[:, None])[:, 0]

        c, e, s = self.coef[:, k], self.expo[:, k], self.shift[:, k]
        live = c > 0
        open_hi = np.isinf(hi)  # a last piece without a tail grows to infinity
        top = np.where(open_hi, INF, at(np.where(open_hi, lo, hi)))
        out = np.where(at(lo) >= tau, lo, np.nan)
        reach = np.isnan(out) & (top >= tau)
        single = reach & (np.sum(live, axis=1) == 1)
        r, j = np.arange(len(tau)), np.argmax(live, axis=1)
        cj, ej, sj = c[r, j], e[r, j], s[r, j]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            root = sj + (tau / cj) ** (1.0 / ej)
        closed = np.where(ej == 0.0, np.maximum(lo, sj),
                          np.minimum(np.maximum(root, lo), np.where(open_hi, root, hi)))
        out[single] = closed[single]
        i = np.flatnonzero(reach & ~single)
        if len(i):  # search the offset from lo; the bracket's upper end keeps value >= tau
            sub, a, goal = self.rows(i), lo[i], tau[i]
            d = _last_t_where(lambda d: sub._piece(k, (a + d)[:, None])[:, 0] < goal,
                              len(i), EPS_INV_BISECT)[1]
            out[i] = np.minimum(a + d, hi[i])
        return out

    # -- convex conjugate

    def conjugate(self, T) -> np.ndarray:
        """Per row, ``sup_{s >= 0} (s*T[i] - value_i(s))``; T is a scalar or
        an (N,) array.

        0 at t = 0, and +inf where a last piece without a tail grows at
        most linearly with slope below t.  Elsewhere the largest of these
        candidates: both one-sided values at every breakpoint and at the
        tail, the stationary point of every single-term piece with exponent
        > 1 clipped to its piece, and a 256-point log sweep up to a bracket
        past which ``s*t - value(s)`` does not grow, refined 6 times on 33
        points."""
        n = len(self.tail)
        T = np.broadcast_to(np.asarray(T, dtype=float), (n,))
        if np.any(T < 0):
            raise ValueError("t must be nonnegative")
        r = np.arange(n)
        last = np.sum(np.isfinite(self.bps), axis=1) - 1
        c, e = self.coef[r, last], self.expo[r, last]
        slope = np.sum(np.where((c > 0) & (e == 1.0), c, 0.0), axis=1)
        e1 = self.end_exponents()[1]  # nan on tailed rows
        diverges = (e1 < 1.0) | ((e1 == 1.0) & (T > slope))
        out = np.where(T == 0.0, 0.0, np.where(diverges, INF, np.nan))
        i = np.flatnonzero(np.isnan(out))
        if len(i):
            out[i] = self.rows(i)._conjugate_sup(T[i], e1[i] == 1.0)
        return out

    def _conjugate_sup(self, T: np.ndarray, linear: np.ndarray) -> np.ndarray:
        """The candidates of :meth:`conjugate` on rows where it is finite
        and t > 0, all rows in step; ``linear`` marks the rows whose last
        piece has no tail and grows linearly."""
        r, best = np.arange(len(T)), np.zeros(len(T))
        seams = np.concatenate([self.bps[:, 1:], self.tail[:, None]], 1)
        seams = np.where(np.isfinite(seams), seams, 0.0)
        for left in (True, False):
            gain = seams * T[:, None] - self._value(seams, left)
            best = np.maximum(best, np.max(gain, axis=1))
        hi = np.minimum(self._next_bps(), self.tail[:, None])
        live = self.coef > 0
        for k in range(self.bps.shape[1]):
            j = np.argmax(live[:, k], axis=1)
            c, e, s = self.coef[r, k, j], self.expo[r, k, j], self.shift[r, k, j]
            ok = (np.sum(live[:, k], axis=1) == 1) & (e > 1.0) & (self.bps[:, k] < hi[:, k])
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                s = s + (T / (c * e)) ** (1.0 / (e - 1.0))
            ok &= s < INF
            s = np.where(ok, np.minimum(np.maximum(s, self.bps[:, k]), hi[:, k]), 0.0)
            gain = s * T - self._piece(k, s[:, None])[:, 0]
            best = np.maximum(best, np.where(ok, gain, 0.0))
        # the sweep ends at the tail.  On a linear last piece (slope >= t
        # here) the gain stops growing once every term has started, so it
        # ends at the last breakpoint or shift; otherwise at the first
        # s = 2^k with value(s) >= 2ts, where the gain is at most -ts.
        starts = np.concatenate([self.bps, self.shift.reshape(len(T), -1)], 1)
        last = np.max(np.where(np.isfinite(starts), starts, 0.0), axis=1)
        grow = np.isinf(self.tail) & ~linear
        top = np.where(linear, np.maximum(last, 1.0), np.where(grow, 1.0, self.tail))
        for _ in range(200):
            grow &= self._value(top[:, None])[:, 0] < 2.0 * T * top
            if not np.any(grow):
                break
            top = np.where(grow, 2.0 * top, top)
        grid = np.geomspace(np.maximum(1e-12, 1e-6 * top), top, 256, axis=1)
        for _ in range(7):
            gain = grid * T[:, None] - self._value(grid)
            k = np.argmax(gain, axis=1)
            best = np.maximum(best, gain[r, k])
            end = grid.shape[1] - 1
            grid = np.linspace(grid[r, np.maximum(k - 1, 0)],
                               grid[r, np.minimum(k + 1, end)], 33, axis=1)
        return best

    def curve(self, i: int) -> "PhiCurve":
        """Row i as a PhiCurve, without its empty pieces and unused slots."""
        keep = np.flatnonzero(self.live()[i])
        coef, expo, shift = (a[i, keep].tolist() for a in (self.coef, self.expo, self.shift))
        tail = float(self.tail[i])
        return PhiCurve(tuple(self.bps[i, keep].tolist()),
                        tuple(tuple(PowerTerm(*t) for t in zip(*piece) if t[2] != INF)
                              for piece in zip(coef, expo, shift)),
                        None if math.isinf(tail) else tail)


def _one_row(table: PowerTable, t):
    """Evaluate a one-row table at scalar or array t, keeping t's shape."""
    t = np.asarray(t, dtype=float)
    out = table.value(t.reshape(1, -1))
    return float(out[0, 0]) if t.ndim == 0 else out.reshape(t.shape)


def _last_t_where(fits: Callable[[np.ndarray], np.ndarray], n: int,
                  tol: float, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Per row i of n, the final bracket ``(lo, hi)`` of ``sup{t >= 0 :
    fits(t)[i]}`` for a predicate on (n,) levels that holds on an initial
    interval of [0, inf): fits(lo) holds, fits(hi) fails and ``hi - lo <=
    tol * lo``, all rows in step.

    The search is scale-free: it doubles or halves from t = 1 to a bracket,
    then bisects.  It asks fits at no level below ``floor`` (in [0, 1)),
    the cut-off below which the answer counts as 0.  Rows where
    fits(floor) fails get ``(0, floor)``; rows whose sup lies below
    1e-300 get ``(0, hi)``; rows where fits still holds past 1e300 get
    ``(inf, inf)``.  fits is always given all n rows; rows the search is
    not asking about get the level 1."""
    def holds(t, rows):
        return rows & fits(np.where(rows, t, 1.0)) if rows.any() else rows

    up = fits(np.ones(n))
    lo, hi = np.where(up, 1.0, float(floor)), np.where(up, 2.0, 1.0)
    far, grow, shrink = np.zeros(n, dtype=bool), up, ~up
    while np.any(grow):
        grow = holds(hi, grow)
        lo, hi = np.where(grow, hi, lo), np.where(grow, 2.0 * hi, hi)
        far |= grow & (hi > 1e300)
        grow &= ~far
    while np.any(shrink):
        shrink &= 0.5 * hi > max(floor, 1e-300)
        ok = holds(0.5 * hi, shrink)
        lo, hi = np.where(ok, 0.5 * hi, lo), np.where(shrink & ~ok, 0.5 * hi, hi)
        shrink &= ~ok
    low = ~up & (lo == floor)  # halved down to the floor: fits(floor) decides
    fail = low & ~holds(np.full(n, float(floor)), low)
    lo, hi = np.where(fail, 0.0, lo), np.where(fail, float(floor), hi)
    todo = (lo > 0) & ~far
    while True:
        todo &= hi - lo > tol * lo
        if not np.any(todo):
            break
        mid = 0.5 * (lo + hi)
        ok = holds(mid, todo)
        lo, hi = np.where(ok, mid, lo), np.where(todo & ~ok, mid, hi)
    return np.where(far, INF, lo), np.where(far, INF, hi)


@dataclass(frozen=True)
class PhiCurve:
    """A one-variable growth curve ``t -> value(t)``.

    ``pieces[i]`` applies on ``[breakpoints[i], breakpoints[i+1])`` with the
    final right endpoint ``inf``.  If ``infinite_tail`` is set, the value is
    ``+inf`` for ``t > infinite_tail``.  ``table`` is the curve as a
    one-row :class:`PowerTable`, which evaluates and inverts it.
    """

    breakpoints: tuple
    pieces: tuple
    infinite_tail: float | None = None
    table: PowerTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(
            self, "pieces", tuple(tuple(p) for p in self.pieces)
        )
        if len(bps) != len(self.pieces) or not bps or bps[0] != 0.0:
            raise ConstructionError("breakpoints must start at 0 and match pieces")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ConstructionError("breakpoints must be strictly increasing")
        table = PowerTable.build(
            1, bps, [[(tm.coef, tm.exponent, tm.shift) for tm in p] for p in self.pieces],
            self.infinite_tail)
        table.validate()
        object.__setattr__(self, "table", table)

    # -- evaluation

    def value(self, t):
        """Evaluate the curve; vectorized, returns +inf past the tail."""
        return _one_row(self.table, t)

    def __call__(self, t):
        return self.value(t)

    def value_left(self, t: float) -> float:
        """Left limit at ``t`` (the containing piece evaluated from below)."""
        if t <= 0:
            return 0.0
        return float(self.table._value(np.array([[t]], dtype=float), left=True)[0, 0])

    def inverse(self, tau: float) -> float:
        """Generalized inverse ``inf{s >= 0 : value(s) >= tau}``."""
        return float(self.table.inverse(tau)[0])

    def conjugate(self, t: float) -> float:
        """Convex conjugate ``sup_{s>0} (s*t - value(s))``; see
        :meth:`PowerTable.conjugate`."""
        return float(self.table.conjugate(t)[0])

    # -- serialization

    def to_dict(self) -> dict:
        return {
            "breakpoints": [b for b in self.breakpoints],
            "pieces": [
                [{"coef": tm.coef, "exponent": tm.exponent, "shift": tm.shift}
                 for tm in piece]
                for piece in self.pieces
            ],
            "infinite_tail": self.infinite_tail,
        }

    @staticmethod
    def from_dict(d: dict) -> "PhiCurve":
        if not isinstance(d, dict):
            raise TypeError(f"expected a curve object, got {d!r}")
        tail = d.get("infinite_tail")
        if tail == "inf":
            tail = None
        return PhiCurve(
            breakpoints=tuple(d["breakpoints"]),
            pieces=tuple(
                tuple(PowerTerm(tm["coef"], tm["exponent"], tm.get("shift", 0.0))
                      for tm in piece)
                for piece in d["pieces"]
            ),
            infinite_tail=tail,
        )


def power_curve(p: float, coef: float = 1.0) -> PhiCurve:
    """The curve ``coef * t**p``."""
    return PhiCurve((0.0,), ((PowerTerm(coef, p),),))


# ---------------------------------------------------------------------------
# Spatial domains and regions


@dataclass(frozen=True)
class Domain:
    """A box in R^n, or all of R^n when lower/upper are None."""

    dim: int
    lower: tuple | None = None
    upper: tuple | None = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConstructionError("only dimensions 1 and 2 are supported")
        if (self.lower is None) != (self.upper is None):
            raise ConstructionError("lower and upper must be given together")
        if self.lower is not None:
            object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
            object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))

    @property
    def unbounded(self) -> bool:
        return self.lower is None

    def contains(self, x) -> bool:
        x = _as_point(x, self.dim)
        if self.unbounded:
            return True
        return all(lo <= xi <= hi for xi, lo, hi in zip(x, self.lower, self.upper))

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        """Membership of the rows of X (N, width) in the closed box, or in
        R^n, which takes rows of any width; a box takes none of another."""
        if self.unbounded or X.shape[1] != self.dim:
            return np.full(len(X), self.unbounded)
        return np.all((np.asarray(self.lower) <= X) & (X <= np.asarray(self.upper)), axis=1)

    def sampling_box(self, radius: float = 16.0) -> tuple[tuple, tuple]:
        if self.unbounded:
            return tuple([-radius] * self.dim), tuple([radius] * self.dim)
        return self.lower, self.upper

    def to_dict(self) -> dict:
        if self.unbounded:
            return {"dim": self.dim, "all": True}
        return {"dim": self.dim, "lower": list(self.lower), "upper": list(self.upper)}

    @staticmethod
    def from_dict(d: dict) -> "Domain":
        dim = d["dim"]  # first, so that a non-object is a TypeError
        if d.get("all"):
            return Domain(dim)
        return Domain(dim, tuple(d["lower"]), tuple(d["upper"]))


def _as_point(x, dim: int) -> tuple:
    if np.ndim(x) == 0:
        x = (float(x),)
    else:
        x = tuple(float(v) for v in x)
    if len(x) != dim:
        raise DomainError(f"point {x} has wrong dimension, expected {dim}")
    return x


#: Lebesgue measure of the unit ball in dimensions 1 and 2.
UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi}


@dataclass(frozen=True)
class Region:
    """A named semialgebraic subset of R^n with a membership test.

    ``indicator`` maps points of shape (..., dim) to a bool array of the
    leading shape.  ``measure`` is the Lebesgue measure when known in
    closed form.
    """

    name: str
    dim: int
    indicator: Callable = field(compare=False)
    measure: float | None = None
    params: dict = field(default_factory=dict)

    def contains(self, x) -> bool:
        return bool(self.indicator(np.asarray(_as_point(x, self.dim))))

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        return self.indicator(np.asarray(X, dtype=float))

    def to_dict(self) -> dict:
        return {"region": self.name, **self.params}


def region_from_dict(d: dict) -> Region:
    name = d["region"]
    if name == "empty":
        dim = int(d.get("dim", 2))
        return Region("empty", dim, lambda X: np.zeros(X.shape[:-1], bool),
                      measure=0.0, params={"dim": dim})
    if name == "inv_square_strip":
        # {(x, y) : x >= 1, |y| <= 1/x^2}; measure 2
        def ind(X):
            return (X[..., 0] >= 1.0) & (np.abs(X[..., 1]) <= 1.0 / np.maximum(X[..., 0], 1.0) ** 2)
        return Region("inv_square_strip", 2, ind, measure=2.0)
    if name == "ball":
        center = np.asarray(d["center"], dtype=float)
        radius = float(d["radius"])
        dim = len(center)

        def ind(X):
            return np.linalg.norm(X - center, axis=-1) <= radius
        meas = UNIT_BALL_VOLUME[dim] * radius ** dim
        return Region("ball", dim, ind, measure=meas,
                      params={"center": list(center), "radius": radius})
    if name == "halfplane":
        normal = np.asarray(d["normal"], dtype=float)
        offset = float(d.get("offset", 0.0))

        def ind(X):
            return X @ normal >= offset
        return Region("halfplane", len(normal), ind,
                      params={"normal": list(normal), "offset": offset})
    raise ConstructionError(f"unknown region {name!r}")


# ---------------------------------------------------------------------------
# Spatial parameter fields


def field_from_dict(d: dict) -> Callable:
    """Build a closed-form scalar field of ``|x|`` or a region indicator.

    The field evaluates on an array of points with shape (..., dim) or on a
    single point; it returns an array of the leading shape.
    """
    kind = d["field"]
    if kind == "const":
        v = float(d["value"])
        return lambda X: np.full(_lead_shape(X), v)
    if kind == "abs_power":
        c = float(d.get("coef", 1.0))
        k = float(d["power"])
        a = float(d.get("offset", 0.0))
        return lambda X: c * (_norms(X) + a) ** k
    if kind == "poly_abs":
        coeffs = [float(c) for c in d["coeffs"]]
        return lambda X: sum(c * _norms(X) ** i for i, c in enumerate(coeffs))
    if kind == "pw_linear":
        pts = sorted((float(u), float(v)) for u, v in d["points"])
        us = np.array([u for u, _ in pts])
        vs = np.array([v for _, v in pts])
        return lambda X: np.interp(_norms(X), us, vs)
    if kind == "indicator":
        region = region_from_dict(d["of"])
        return lambda X: region.contains_many(X).astype(float).reshape(_lead_shape(X))
    raise ConstructionError(f"unknown field {kind!r}")


def _norms(X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    with np.errstate(over="ignore"):
        out = np.linalg.norm(X, axis=-1)
        big = np.isinf(out) & np.all(np.isfinite(X), axis=-1)
        if np.any(big):  # the squares overflowed: scale by the largest coordinate
            top = np.max(np.abs(X[big]), axis=-1)
            out[big] = top * np.linalg.norm(X[big] / top[:, None], axis=-1)
    return out


def _lead_shape(X):
    X = np.asarray(X, dtype=float)
    return X.shape[:-1] if X.ndim > 1 else (1,)


# ---------------------------------------------------------------------------
# Spatial families


class PhiFunction:
    """A family ``x -> PhiCurve`` over a spatial domain.

    ``form`` states phi once: it maps an (N, dim) array of points to the
    :class:`PowerTable` of their curves, raising ConstructionError at
    points where the parameters give no growth curve.  Single curves,
    point and batch evaluation, level grids, inverses and conjugates are
    all read off that table, so they agree exactly.  Instances are
    immutable and safe to evaluate concurrently.
    """

    def __init__(self, kind: str, params: dict, domain: Domain,
                 form: Callable[[np.ndarray], PowerTable],
                 x_independent: bool = False,
                 provenance: dict | None = None):
        self.kind = kind
        self.params = params
        self.domain = domain
        self._form = form
        self.x_independent = x_independent
        self.provenance = provenance

    # -- evaluation

    def table(self, X) -> PowerTable:
        """The power table of phi at the points X (N, dim), one row each.

        Raises DomainError if a row lies outside the domain."""
        X = np.asarray(X, dtype=float)
        X = X.reshape(-1, X.shape[-1] if X.ndim > 1 else self.domain.dim)
        out = ~self.domain.contains_many(X)
        if np.any(out):
            raise DomainError(f"{tuple(X[np.argmax(out)])} outside domain")
        return self._form(X)

    def _point(self, x) -> np.ndarray:
        return np.array([_as_point(x, self.domain.dim)])

    def curve_at(self, x) -> PhiCurve:
        return self.table(self._point(x)).curve(0)

    def eval(self, x, t):
        """phi(x, t); exact piecewise power evaluation, +inf past a tail."""
        return _one_row(self.table(self._point(x)), t)

    def eval_many(self, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        """Vectorized phi(X[i], T[i]) for matching leading shapes."""
        return self.evaluator(X)(T)

    def evaluator(self, X: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """``T -> eval_many(X, T)`` with the table of X built once, for
        callers that evaluate the same points at many levels."""
        table = self.table(X)

        def value(T):
            T = np.asarray(T, dtype=float)
            return table.value(T.reshape(-1, 1)).reshape(T.shape)

        return value

    def eval_grid(self, X: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """phi on the product of points X (N, dim) and levels ts (M,) -> (N, M).

        Each call builds the table of X; a caller that evaluates one set of
        points at many levels builds it once with :meth:`table` (or
        :meth:`evaluator`) and reads every level off it."""
        return self.table(X).value(np.asarray(ts, dtype=float).reshape(1, -1))

    def inverse(self, x, tau: float) -> float:
        return float(self.table(self._point(x)).inverse(tau)[0])

    def conjugate_value(self, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        """Vectorized convex conjugate ``sup_s (s*T[i] - phi(X[i], s))`` for
        matching leading shapes, as :meth:`eval_many`."""
        T = np.asarray(T, dtype=float)
        return self.table(X).conjugate(T.reshape(-1)).reshape(T.shape)

    # -- serialization

    def to_dict(self) -> dict:
        d = {"schema": "orliczkit-phi/1", "kind": self.kind,
             "params": self.params, "domain": self.domain.to_dict()}
        if self.provenance:
            d["provenance"] = self.provenance
        return d

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)

    @staticmethod
    def from_dict(d: dict) -> "PhiFunction":
        from . import transforms  # deferred: transforms builds on this module
        kind = d["kind"]
        domain = Domain.from_dict(d["domain"]) if "domain" in d else None
        if kind in _FAMILIES:
            return make_family(kind, d.get("params", {}), domain=domain)
        if kind == "glued_small_values":
            base = PhiFunction.from_dict(d["params"]["base"])
            region = region_from_dict(d["params"]["region"])
            return transforms.glue_small_values(base, region, d["params"]["p"])
        if kind == "ainc_rebuild":
            base = PhiFunction.from_dict(d["params"]["base"])
            pair = transforms.AsymptotePair.from_dict(d["params"]["pair"])
            return transforms.rebuild_with_ainc(base, pair, d["params"]["t1"])
        raise ConstructionError(f"unknown kind {kind!r}")

    @staticmethod
    def from_json(s: str) -> "PhiFunction":
        return PhiFunction.from_dict(json.loads(s))


def _fixed(curve: PhiCurve) -> Callable:
    """The form of the x-independent family ``x -> curve``."""
    return lambda X: curve.table.repeat(len(X))


def from_curve(curve: PhiCurve, dim: int = 1, domain: Domain | None = None,
               kind: str = "curve", provenance: dict | None = None) -> PhiFunction:
    """Wrap a single curve as an x-independent family."""
    return PhiFunction(kind, {"curve": curve.to_dict()}, domain or Domain(dim),
                       _fixed(curve), x_independent=True, provenance=provenance)


# ---------------------------------------------------------------------------
# Catalog families: each states phi(x, t) once, as its batched form


def _make_orlicz(params, domain):
    if "curve" in params:
        curve = PhiCurve.from_dict(params["curve"])
    else:
        curve = power_curve(float(params["p"]), float(params.get("coef", 1.0)))
    dom = domain or Domain(int(params.get("dim", 1)))
    return PhiFunction("orlicz", params, dom, _fixed(curve), x_independent=True)


def _optional(on, coef, exponent):
    """The term ``coef * t**exponent`` on rows where ``on``, unused elsewhere."""
    return np.where(on, coef, 0.0), exponent, np.where(on, 0.0, INF)


def _make_variable_exponent(params, domain):
    pf = field_from_dict(params["p"])
    af = field_from_dict(params.get("a", {"field": "const", "value": 1.0}))
    dom = domain or Domain(int(params.get("dim", 1)))

    def form(X):
        p, a = pf(X), af(X)
        if np.any(p < 1) or np.any(a <= 0):
            raise ConstructionError("variable exponent needs p >= 1, a > 0")
        return PowerTable.build(len(X), [0.0], [[(a, p, 0.0)]])

    return PhiFunction("variable_exponent", params, dom, form)


def _make_double_phase(params, domain):
    p = float(params["p"])
    q = float(params["q"])
    if p < 1 or q < p:
        raise ConstructionError("double phase needs 1 <= p <= q")
    af = field_from_dict(params.get("a", {"field": "const", "value": 0.0}))
    dom = domain or Domain(int(params.get("dim", 1)))

    def form(X):
        a = af(X)
        if np.any(a < 0):
            raise ConstructionError("weight a must be nonnegative")
        return PowerTable.build(len(X), [0.0], [[(1.0, p, 0.0), _optional(a > 0, a, q)]])

    return PhiFunction("double_phase", params, dom, form)


def _make_vdp(params, domain):
    pf = field_from_dict(params["p"])
    qf = field_from_dict(params["q"])
    af = field_from_dict(params.get("a", {"field": "const", "value": 0.0}))
    dom = domain or Domain(int(params.get("dim", 1)))

    def form(X):
        p, q, a = pf(X), qf(X), af(X)
        if np.any(p < 1) or np.any(q < p) or np.any(a < 0):
            raise ConstructionError("needs 1 <= p(x) <= q(x), a >= 0")
        return PowerTable.build(len(X), [0.0], [[(1.0, p, 0.0), _optional(a > 0, a, q)]])

    return PhiFunction("vdp", params, dom, form)


# Built-in gallery instances used by the example bundles and the test suite.


def _make_example_3_2(params, domain):
    region = region_from_dict({"region": "inv_square_strip"})

    def form(X):
        # t then t^2 from t = 1 on the strip G; off it the first piece is
        # empty and phi = t^2
        seam = np.where(region.contains_many(X), 1.0, 0.0)
        return PowerTable.build(len(X), [0.0, seam],
                                [[(1.0, 1.0, 0.0)], [(1.0, 2.0, 0.0)]])

    return PhiFunction("example_3_2", params, domain or Domain(2), form)


def _make_example_3_4(params, domain):
    dim = int(params.get("dim", 2))

    def form(X):
        seam = 1.0 / (_norms(X) + 2.0)
        return PowerTable.build(len(X), [0.0, seam],
                                [[(1.0, 1.0, 0.0)],
                                 [(1.0, 2.0, 0.0), (1.0, 1.0, 0.0)]])

    return PhiFunction("example_3_4", params, domain or Domain(dim), form)


def _make_example_3_5(params, domain):
    dim = int(params.get("dim", 2))

    def form(X):
        w = (_norms(X) + 1.0) ** dim
        return PowerTable.build(len(X), [0.0, 1.0 / w],
                                [[(1.0 / w, 1.0, 0.0)], [(1.0, 2.0, 0.0)]])

    return PhiFunction("example_3_5", params, domain or Domain(dim), form)


def _make_example_4_6(params, domain):
    # t^{p(x)} on (-2, 2) with p piecewise linear: 2 on [-1, 1], 1 at the ends

    def form(X):
        p = np.maximum(np.minimum(2.0, 3.0 - _norms(X)), 1.0)
        return PowerTable.build(len(X), [0.0], [[(1.0, p, 0.0)]])

    return PhiFunction("example_4_6", params, domain or Domain(1, (-2.0,), (2.0,)), form)


_FAMILIES = {
    "orlicz": _make_orlicz,
    "curve": lambda params, domain: from_curve(
        PhiCurve.from_dict(params["curve"]),
        domain=domain, dim=(domain.dim if domain else int(params.get("dim", 1)))),
    "variable_exponent": _make_variable_exponent,
    "double_phase": _make_double_phase,
    "vdp": _make_vdp,
    "example_3_2": _make_example_3_2,
    "example_3_4": _make_example_3_4,
    "example_3_5": _make_example_3_5,
    "example_4_6": _make_example_4_6,
}


def make_family(kind: str, params: dict | None = None, domain: Domain | None = None) -> PhiFunction:
    """Construct a catalog family; raises ConstructionError for bad input."""
    if kind not in _FAMILIES:
        raise ConstructionError(f"unknown family kind {kind!r}")
    if not isinstance(params or {}, dict):
        raise ConstructionError(f"params must be an object, got {params!r}")
    return _FAMILIES[kind](params or {}, domain)
