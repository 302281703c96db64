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

import itertools
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

INF = math.inf

# Relative tolerance of the level search when it inverts multi-term pieces
# and conjugates: the final bracket is no wider than this times its lower
# end, at every scale.  Closed forms are exact up to rounding.
EPS_INV_BISECT = 1e-12

# The range of the level search: it asks no level above _T_RANGE, and none
# below 1 / _T_RANGE unless its caller's floor lies higher.
_T_RANGE = 1e300

# Each step of the level search lands at least half this far inside its
# row's bracket, relative to its ends: no larger than any search's
# tolerance, so that a step just past a secant root closes the bracket.
# A row's first _SECANT_ROUNDS steps may be secant steps, enough for steps
# that double log t from 2 to pass 1e300; every later step halves its
# bracket in log t or doubles log t past an open end, so that every search
# ends.
_STEP_TOL = 1e-12
_SECANT_ROUNDS = 16

_SCHEMA = "orliczkit-phi/1"


class ConstructionError(ValueError):
    """Raised when requested parameters violate curve invariants."""


class DomainError(ValueError):
    """Raised when a spatial point lies outside the function's domain."""


# ---------------------------------------------------------------------------
# Reading input objects: every JSON object the package takes is read by a
# _Reader, so a key that no parser reads is an error at its own pointer


class SpecError(ValueError):
    """Bad input, carrying a JSON pointer to the offending field.  A reader
    raises it relative to the object it reads, and each enclosing
    :func:`_at` prefixes its own segment (``--phi`` + ``/params/p``)."""

    def __init__(self, pointer: str, message: str):
        super().__init__(pointer, message)
        self.pointer, self.message = pointer, message

    def __str__(self) -> str:
        return f"{self.pointer}: {self.message}"


@contextmanager
def _at(segment: str):
    """Lookup, type and value errors (ConstructionError and DomainError
    too) in the block are bad input at ``segment``; a SpecError from a
    deeper reader gets the segment prefixed, and anything else is an
    internal error."""
    try:
        yield
    except SpecError as exc:
        exc.pointer = segment + exc.pointer
        raise
    except (LookupError, TypeError, ValueError) as exc:
        raise SpecError(segment, str(exc)) from exc


class _Reader:
    """The input object ``d``, whose keys are read by calling the reader:
    ``r(key, parse, default)`` is ``parse(d[key])`` failing at ``/key``,
    and a missing key is ``default``, or an error when there is none.  Used
    as a context manager, it makes any key that no call read an error at
    its own pointer when the block ends without one."""

    def __init__(self, d):
        if not isinstance(d, dict):
            raise SpecError("", "expected an object")
        self.d, self.read = d, {}

    def __call__(self, key: str, parse=None, default=...):
        self.read[key] = True
        if key not in self.d:
            if default is ...:
                raise SpecError(f"/{key}", "missing required field")
            return default
        with _at(f"/{key}"):
            return parse(self.d[key]) if parse else self.d[key]

    def done(self) -> None:
        for key in self.d:
            if key not in self.read:  # escaped as a JSON pointer segment
                raise SpecError("/" + str(key).replace("~", "~0").replace("/", "~1"),
                                "unexpected field; this object reads only "
                                + (", ".join(self.read) or "none"))

    def run(self, call):
        """``call()`` once every key was read, failing at this object."""
        self.done()
        with _at(""):
            return call()

    def __enter__(self) -> "_Reader":
        return self

    def __exit__(self, kind, *_) -> None:
        if kind is None:
            self.done()


def _value(what: str, test):
    """A parser of JSON values passing ``test``, returned as given (reports
    echo them); any other value is "expected <what>"."""
    def read(v):
        if not test(v):
            raise ValueError(f"expected {what}, got {v!r}")
        return v
    return read


_list = _value("a list", lambda v: isinstance(v, list))
_finite = _value("a finite number", lambda v: type(v) in (int, float)
                 and abs(v) <= sys.float_info.max)
_positive = _value("a positive finite number", lambda v: type(v) in (int, float)
                   and 0 < v <= sys.float_info.max)
_boolean = _value("true or false", lambda v: type(v) is bool)
_string = _value("a string", lambda v: isinstance(v, str))
_seed = _value("a non-negative integer", lambda v: type(v) is int and v >= 0)  # numpy's seeds
_cells = _value("a positive integer", lambda v: type(v) is int and v >= 1)  # grid cells
_dim = _value("the dimension 1 or 2", lambda v: type(v) is int and v in (1, 2))
#: A bundle name, which names a report file: no path separators
_name = _value("a string without '/', '\\' or NUL",
               lambda v: isinstance(v, str) and not any(c in v for c in "/\\\0"))


def _agree(value, what: str):
    """A parser of a field that restates ``value`` (``what`` says whose):
    it must equal it."""
    return _value(f"{value!r} ({what})", lambda v: type(v) is not bool and v == value)


def _items(parse):
    """A parser of lists that reads each item through ``parse``, failing
    at the item's index."""
    def read(v) -> list:
        out = []
        for i, item in enumerate(_list(v)):
            with _at(f"/{i}"):
                out.append(parse(item))
        return out
    return read


def _increasing(parse):
    """A parser of lists read through ``_items(parse)`` whose items
    strictly increase."""
    def read(v) -> list:
        x = _items(parse)(v)
        if any(b <= a for a, b in zip(x, x[1:])):
            raise ValueError(f"expected strictly increasing items, got {v!r}")
        return x
    return read


def _point(*dims: int):
    """A parser of points: lists of n finite JSON numbers, n in ``dims``."""
    def read(v) -> list:
        x = _items(_finite)(v)
        if len(x) not in dims:
            raise ValueError(f"expected {' or '.join(map(str, dims))} "
                             f"coordinates, got {v!r}")
        return x
    return read


def _points(dim: int):
    """A parser of non-empty lists of points with ``dim`` coordinates,
    read as an (N, dim) array."""
    def read(v) -> np.ndarray:
        X = _items(_point(dim))(v)
        if not X:
            raise ValueError("expected a non-empty list of points")
        return np.array(X, float)
    return read


def _t_range(T) -> tuple:
    """``[lo, hi]`` with finite 0 <= lo < hi, hi null for inf."""
    lo, hi = _list(T)
    lo, hi = _finite(lo), math.inf if hi is None else _finite(hi)
    if not 0 <= lo < hi:
        raise ValueError(f"expected 0 <= lo < hi, got {T!r}")
    return lo, hi


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
        """The sub-table of rows ``idx``.  An array whose rows are one
        broadcast row stays so, and its numbers keep their scalar fast
        paths (see :attr:`_plan`)."""
        n = len(self.tail[idx])
        return self._map(lambda a: np.broadcast_to(a[:1], (n,) + a.shape[1:])
                         if a.strides[0] == 0 else a[idx])

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
        unused in every row are left out.  In a column, the inf breakpoint
        of a row's unused piece and the inf shift of its unused slot read
        nan, which no level passes, t = inf included, so a row's values
        do not depend on how it was batched."""
        def num(a, idx=()):
            if len(a) and (len(a) == 1 or a.strides[0] == 0):
                return float(a[(0,) + idx])
            return a[(slice(None),) + idx][:, None]

        def unused_as_nan(a):
            return a if isinstance(a, float) else np.where(a == INF, np.nan, a)

        pieces = []
        for k in range(self.bps.shape[1]):
            terms = [tuple(num(a, (k, j)) for a in (self.coef, self.expo, self.shift))
                     for j in range(self.coef.shape[2])]
            pieces.append((unused_as_nan(num(self.bps, (k,))),
                           [(c, e, unused_as_nan(s)) for c, e, s in terms
                            if not (isinstance(s, float) and s == INF)]))
        return num(self.tail), pieces

    def _piece(self, k: int, T: np.ndarray) -> np.ndarray:
        """Piece k of every row at levels T (N, M), tail ignored; a value
        past the largest float is +inf, without a warning."""
        out = None
        with np.errstate(over="ignore"):
            for c, e, s in self._plan[1][k][1]:
                # fmax: 0 at an unused slot's nan shift
                u = T if isinstance(s, float) and s == 0.0 else np.fmax(T - s, 0.0)
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

    @cached_property
    def _distinct(self) -> tuple | None:
        """``(table, back)``: the first row of each distinct bit pattern as
        a table, and each row's index into it; None when every row
        differs."""
        n = len(self.tail)
        first, back = _first_of_each(np.concatenate(
            [a.reshape(n, -1) for a in (self.bps, self.coef, self.expo, self.shift,
                                        self.tail[:, None])], 1))
        return None if len(first) == n else (self.rows(first), back)

    def value(self, T) -> np.ndarray:
        """Row i at levels ``T[i, m]``; T broadcasts to (N, M).  Returns
        +inf past the tail.

        At one shared row of levels T (1, M), each distinct table row (by
        the bits of its numbers, so 0.0 and -0.0 stay apart) is evaluated
        once and the values are gathered to every row with its bits.  This
        is exact: a row's values do not depend on how its row was
        batched."""
        T = np.asarray(T, dtype=float)
        if (T < 0).any():
            raise ValueError("t must be nonnegative")
        table, back = self, slice(None)
        if len(T) != len(self.bps):
            if len(T) == 1:
                table, back = self._distinct or (self, back)
            T = np.broadcast_to(T, (len(table.bps), T.shape[1]))
        return table._value(T)[back]

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
            d = _last_t_where(lambda d: sub._piece(k, (a + d)[:, None])[:, 0] / goal,
                              len(i), EPS_INV_BISECT)[1]
            out[i] = np.minimum(a + d, hi[i])
        return out

    # -- convex conjugate

    def conjugate(self, T) -> np.ndarray:
        """Per row, ``sup_{s >= 0} (s*T[i] - value_i(s))``; T is a scalar or
        an (N,) array.

        0 at t = 0; +inf at t = +inf, and where a last piece without a tail
        grows at most linearly with slope below t.  Elsewhere the largest of
        these candidates: both one-sided values at every breakpoint and at
        the tail, the stationary point of every single-term piece with
        exponent > 1 clipped to its piece, and a 256-point log sweep of the
        six decades below a bracket past which ``s*t - value(s)`` does not
        grow, refined 6 times on 33 points, and swept again down to 1e-12
        where it peaks at its lowest point and a piece with several terms
        starts below it.  A candidate where ``s*t``
        passes the largest float and ``value(s)`` does not gives +inf.

        Each distinct (row, level) is computed once: rows are grouped by the
        bits of their table row and level, and each group's first row
        stands for it.  This is exact, since no row's supremum depends on
        the other rows in the batch."""
        n = len(self.tail)
        T = np.broadcast_to(np.asarray(T, dtype=float), (n,))
        if np.any(T < 0):
            raise ValueError("t must be nonnegative")
        r = np.arange(n)
        last = np.sum(np.isfinite(self.bps), axis=1) - 1
        c, e = self.coef[r, last], self.expo[r, last]
        slope = np.sum(np.where((c > 0) & (e == 1.0), c, 0.0), axis=1)
        e1 = self.end_exponents()[1]  # nan on tailed rows
        diverges = (e1 < 1.0) | ((e1 == 1.0) & (T > slope)) | (T == INF)
        out = np.where(T == 0.0, 0.0, np.where(diverges, INF, np.nan))
        i = np.flatnonzero(np.isnan(out))
        if len(i):
            first, back = _first_of_each(np.concatenate(
                [a[i].reshape(len(i), -1) for a in
                 (self.bps, self.coef, self.expo, self.shift, self.tail, T)], 1))
            j = i[first]
            out[i] = self.rows(j)._conjugate_sup(T[j], e1[j] == 1.0)[back]
        return out

    def _conjugate_sup(self, T: np.ndarray, linear: np.ndarray) -> np.ndarray:
        """The candidates of :meth:`conjugate` on rows where it is finite
        and 0 < t < inf, all rows in step; ``linear`` marks the rows whose
        last piece has no tail and grows linearly."""
        def gain(S, value, T=T):  # at levels S (N, M); both terms past the largest float is no candidate
            with np.errstate(over="ignore", invalid="ignore"):
                g = S * T[:, None] - value
            return np.where(np.isnan(g), -INF, g)

        def sweep(table, T, lo, hi):
            """Per row, the best gain of a 256-point log sweep of [lo, hi]
            refined 6 times on 33 points, and whether the first sweep
            peaked at its lowest point."""
            r, out = np.arange(len(T)), np.full(len(T), -INF)
            grid = np.geomspace(lo, hi, 256, axis=1)
            for step in range(7):
                g = gain(grid, table._value(grid), T)
                k = np.argmax(g, axis=1)
                out = np.maximum(out, g[r, k])
                if step == 0:
                    first = k == 0
                end = grid.shape[1] - 1
                grid = np.linspace(grid[r, np.maximum(k - 1, 0)],
                                   grid[r, np.minimum(k + 1, end)], 33, axis=1)
            return out, first

        r, best = np.arange(len(T)), np.zeros(len(T))
        seams = np.concatenate([self.bps[:, 1:], self.tail[:, None]], 1)
        seams = np.where(np.isfinite(seams), seams, 0.0)
        for left in (True, False):
            best = np.maximum(best, np.max(gain(seams, self._value(seams, left)), axis=1))
        hi = np.minimum(self._next_bps(), self.tail[:, None])
        live = self.coef > 0
        for k in range(self.bps.shape[1]):
            j = np.argmax(live[:, k], axis=1)
            c, e, s = self.coef[r, k, j], self.expo[r, k, j], self.shift[r, k, j]
            ok = (np.sum(live[:, k], axis=1) == 1) & (e > 1.0) & (self.bps[:, k] < hi[:, k])
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                s = s + (T / (c * e)) ** (1.0 / (e - 1.0))
            ok &= s < INF
            s = np.where(ok, np.minimum(np.maximum(s, self.bps[:, k]), hi[:, k]), 0.0)[:, None]
            best = np.maximum(best, np.where(ok, gain(s, self._piece(k, s))[:, 0], 0.0))
        # the sweep ends at the tail.  On a linear last piece (slope >= t
        # here) the gain stops growing once every term has started, so it
        # ends at the last breakpoint or shift; otherwise at the first
        # s = 2^k with value(s) >= 2ts, where the gain is at most -ts, or
        # at the last power of two below the largest float.
        starts = np.concatenate([self.bps, self.shift.reshape(len(T), -1)], 1)
        last = np.max(np.where(np.isfinite(starts), starts, 0.0), axis=1)
        grow = np.isinf(self.tail) & ~linear
        top = np.where(linear, np.maximum(last, 1.0), np.where(grow, 1.0, self.tail))
        with np.errstate(over="ignore"):
            while True:
                grow &= (self._value(top[:, None])[:, 0] < 2.0 * T * top) & (2.0 * top < INF)
                if not np.any(grow):
                    break
                top = np.where(grow, 2.0 * top, top)
        low = np.maximum(1e-12, 1e-6 * top)
        swept, first = sweep(self, T, low, top)
        # a single-term piece has its supremum among the candidates above,
        # a multi-term one only in the sweep: a row with a multi-term piece
        # below the sweep, whose sweep peaked at its lowest point, is swept
        # again down to 1e-12
        multi = (np.sum(live, axis=2) > 1) & (self.bps < np.minimum(hi, low[:, None]))
        i = np.flatnonzero(first & np.any(multi, axis=1) & (low > 1e-12))
        if len(i):
            swept[i] = np.maximum(swept[i], sweep(self.rows(i), T[i], 1e-12, low[i])[0])
        return np.maximum(best, swept)

    def curve(self, i: int) -> "PhiCurve":
        """Row i as a PhiCurve, without its empty pieces and unused slots."""
        keep = np.flatnonzero(self.live()[i])
        coef, expo, shift = (a[i, keep].tolist() for a in (self.coef, self.expo, self.shift))
        tail = float(self.tail[i])
        return PhiCurve(tuple(self.bps[i, keep].tolist()),
                        tuple(tuple(PowerTerm(*t) for t in zip(*piece) if t[2] != INF)
                              for piece in zip(coef, expo, shift)),
                        None if math.isinf(tail) else tail)


def _first_of_each(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the rows of a 2D float array: the index of the first row of each
    distinct bit pattern, and each row's index into those."""
    key = np.ascontiguousarray(key)  # concatenated broadcast arrays may not be C-ordered
    _, first, back = np.unique(key.view(f"V{key.itemsize * key.shape[1]}")[:, 0],
                               return_index=True, return_inverse=True)
    return first, back


def _one_row(table: PowerTable, t):
    """Evaluate a one-row table at scalar or array t, keeping t's shape."""
    t = np.asarray(t, dtype=float)
    out = table.value(t.reshape(1, -1))
    return float(out[0, 0]) if t.ndim == 0 else out.reshape(t.shape)


def _last_t_where(at: Callable[[np.ndarray], np.ndarray], n: int, tol: float,
                  floor: float = 1 / _T_RANGE) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row i of n, the final bracket ``(lo, hi)`` of ``sup{t : at(t)[i]
    <= 1}`` for a nondecreasing ``at`` on (n,) levels, and at(1), the
    search's first evaluation; all rows in step.

    Every evaluation records, per row, lo = the largest t known to fit
    and hi = the least t known to fail.  The search evaluates t = 1 and
    then takes one step per round in every row: a secant step on log at
    against log t toward log at = 0, of the Illinois kind (Dowell &
    Jarratt, BIT 11, 1971), in the first _SECANT_ROUNDS rounds where
    both kept log values are finite and the step lands inside (lo, hi);
    else the geometric midpoint where the bracket is closed; else a step
    past its open end that doubles |log t| of its other end, to lo**2
    but at least 2 or to hi**2 but at most 1/2.  Each step stays at
    least _STEP_TOL / 2 inside the bracket and inside [floor, _T_RANGE],
    so no level below the cut-off ``floor`` is asked.  A row stops once
    hi - lo <= tol * lo or once its bracket leaves that range: (0, floor)
    where floor fails and lo >= _T_RANGE (hi inf) where _T_RANGE fits.
    A yes/no question passes 0 where it holds and inf where it fails,
    and then takes geometric steps only.  A row's steps depend on its own
    values alone, so each row ends as if searched alone; rows that have
    ended are asked at the level 1."""
    lo, hi = np.zeros(n), np.full(n, INF)

    def look(t, v):  # log v, with lo and hi recorded
        with np.errstate(divide="ignore"):
            l = np.log(v)
        ok = l <= 0.0
        lo[ok] = np.maximum(lo[ok], t[ok])
        hi[~ok] = np.minimum(hi[~ok], t[~ok])
        return l

    first = at(np.ones(n))
    x0 = x1 = np.zeros(n)
    l0 = l1 = look(np.ones(n), first)
    for k in itertools.count():
        live = (hi - lo > tol * lo) & (lo < _T_RANGE) & (hi > floor)
        if not np.any(live):
            return lo, hi, first
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = np.exp(x1 - l1 * (x1 - x0) / (l1 - l0))
            # a step that rounds onto an end is clipped inside below
            secant = (k < _SECANT_ROUNDS) & np.isfinite(l0) & np.isfinite(l1) \
                & (lo < t * (1 + _STEP_TOL)) & (t < hi * (1 + _STEP_TOL))
            t = np.where(secant, t, np.where(
                lo == 0.0, np.minimum(hi * hi, 0.5),  # past an open end
                np.where(hi == INF, np.maximum(lo * lo, 2.0), np.sqrt(lo) * np.sqrt(hi))))
        t = np.minimum(np.maximum(t, lo * (1 + _STEP_TOL / 2)), hi / (1 + _STEP_TOL / 2))
        t = np.where(live, np.minimum(np.maximum(t, floor), _T_RANGE), 1.0)
        l = look(t, at(t))
        # Illinois: a step on the latest point's side of a bracket keeps
        # the other end and halves its log value
        kept = live & ((l <= 0) == (l1 <= 0)) & ((l0 <= 0) != (l1 <= 0))
        moved = live & ~kept
        x0, l0 = np.where(moved, x1, x0), np.where(moved, l1, np.where(kept, 0.5 * l0, l0))
        x1, l1 = np.where(live, np.log(t), x1), np.where(live, l, l1)


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
        with _Reader(d) as r:
            return PhiCurve(
                tuple(r("breakpoints", _items(_finite))),
                tuple(map(tuple, r("pieces", _items(_items(_term))))),
                r("infinite_tail", _tail, None))


def _tail(v):
    """An infinite tail: a positive level, or null or "inf" for none."""
    return None if v in (None, "inf") else _positive(v)


def _term(d: dict) -> PowerTerm:
    """A power term ``{"coef": c, "exponent": e, "shift": s}``, shift 0 by
    default."""
    with _Reader(d) as r:
        return PowerTerm(r("coef", _finite), r("exponent", _finite),
                         r("shift", _finite, 0.0))


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
        R^n; a row of another width than n lies outside."""
        if X.shape[1] != self.dim or self.unbounded:
            return np.full(len(X), X.shape[1] == self.dim)
        return np.all((np.asarray(self.lower) <= X) & (X <= np.asarray(self.upper)), axis=1)

    def sampling_box(self, radius: float) -> tuple[tuple, tuple]:
        if self.unbounded:
            return tuple([-radius] * self.dim), tuple([radius] * self.dim)
        return self.lower, self.upper

    def to_dict(self) -> dict:
        if self.unbounded:
            return {"dim": self.dim, "all": True}
        return {"dim": self.dim, "lower": list(self.lower), "upper": list(self.upper)}

    @staticmethod
    def from_dict(d: dict) -> "Domain":
        with _Reader(d) as r:
            dim = r("dim", _dim)
            if r("all", _boolean, False):
                return Domain(dim)
            return Domain(dim, tuple(r("lower", _point(dim))),
                          tuple(r("upper", _point(dim))))


def _lattice(axes) -> np.ndarray:
    """The product of per-axis coordinates as (N, dim) points, row-major."""
    out = np.empty([len(a) for a in axes] + [len(axes)])
    for i, a in enumerate(axes):  # coordinate i varies along axis i only
        out[..., i] = np.reshape(a, [-1 if j == i else 1 for j in range(len(axes))])
    return out.reshape(-1, len(axes))


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


def _ball_volume(dim: int, radius: float) -> float:
    """The measure of a ball of ``radius`` in R^dim; inf past the largest
    float."""
    try:
        return UNIT_BALL_VOLUME[dim] * radius ** dim
    except OverflowError:
        return INF


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
    with _Reader(d) as r:
        name = r("region", _string)
        if name == "empty":
            dim = r("dim", _dim, 2)
            return Region("empty", dim, lambda X: np.zeros(X.shape[:-1], bool),
                          measure=0.0, params={"dim": dim})
        if name == "inv_square_strip":
            # {(x, y) : x >= 1, |y| <= 1/x^2}; measure 2
            def ind(X):
                x, y = X[..., 0], X[..., 1]
                return (x >= 1.0) & (np.abs(y) <= 1.0 / np.maximum(x, 1.0) ** 2)
            return Region("inv_square_strip", 2, ind, measure=2.0)
        if name == "ball":
            center = np.asarray(r("center", _point(1, 2)), dtype=float)
            radius = float(r("radius", _positive))
            dim = len(center)

            def ind(X):
                D = X - center
                return _norms(D).reshape(D.shape[:-1]) <= radius
            return Region("ball", dim, ind, measure=_ball_volume(dim, radius),
                          params={"center": list(center), "radius": radius})
        if name == "halfplane":
            normal = np.asarray(r("normal", _point(1, 2)), dtype=float)
            offset = float(r("offset", _finite, 0.0))

            def ind(X):
                return X @ normal >= offset
            return Region("halfplane", len(normal), ind,
                          params={"normal": list(normal), "offset": offset})
        raise SpecError("/region", f"unknown region {name!r}")


# ---------------------------------------------------------------------------
# Spatial parameter fields


def field_from_dict(d: dict) -> Callable:
    """Build a closed-form scalar field of ``|x|`` or a region indicator.

    The field evaluates on an array of points with shape (..., dim) or on a
    single point; it returns an array of the leading shape.
    """
    with _Reader(d) as r:
        kind = r("field", _string)
        if kind == "const":
            return _constant(float(r("value", _finite)))
        if kind == "abs_power":
            c = float(r("coef", _finite, 1.0))
            k = float(r("power", _finite))
            a = float(r("offset", _finite, 0.0))
            return lambda X: c * (_norms(X) + a) ** k
        if kind == "poly_abs":
            coeffs = [float(c) for c in r("coeffs", _items(_finite))]
            return lambda X: sum(c * _norms(X) ** i for i, c in enumerate(coeffs))
        if kind == "pw_linear":
            pts = sorted((float(u), float(v)) for u, v in r("points", _items(_point(2))))
            us = np.array([u for u, _ in pts])
            vs = np.array([v for _, v in pts])
            return lambda X: np.interp(_norms(X), us, vs)
        if kind == "indicator":
            region = r("of", region_from_dict)
            return lambda X: region.contains_many(X).astype(float).reshape(_lead_shape(X))
        raise SpecError("/field", f"unknown field {kind!r}")


def _constant(v: float) -> Callable:
    """The field of constant value v."""
    return lambda X: np.full(_lead_shape(X), v)


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
                 x_independent: bool = False):
        self.kind = kind
        self.params = params
        self.domain = domain
        self._form = form
        self.x_independent = x_independent

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
        callers that evaluate the same points at many levels.  T may add
        trailing axes to X's leading shape: several levels per point."""
        table = self.table(X)

        def value(T):
            T = np.asarray(T, dtype=float)
            return table.value(T.reshape(len(table.tail), -1)).reshape(T.shape)

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
        return {"schema": _SCHEMA, "kind": self.kind,
                "params": self.params, "domain": self.domain.to_dict()}

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)

    @staticmethod
    def from_dict(d: dict) -> "PhiFunction":
        """The function of a phi document or a make spec, every key of
        which is read (docs/file_formats.md)."""
        from . import transforms  # deferred: transforms builds on this module
        with _Reader(d) as r:
            r("schema", _agree(_SCHEMA, "the schema"), None)
            kind = r("kind", _string)
            domain = r("domain", Domain.from_dict, None)
            if kind in _FAMILIES:
                phi = r("params", lambda params: make_family(kind, params, domain), None)
                return make_family(kind, None, domain) if phi is None else phi
            if kind not in transforms._DERIVED:
                raise SpecError("/kind", f"unknown kind {kind!r}")
            phi = r("params", lambda params: transforms._derived(kind, params))
            if domain not in (None, phi.domain):
                raise SpecError("/domain", "expected the base function's domain "
                                f"{phi.domain.to_dict()}")
            return phi

    @staticmethod
    def from_json(s: str) -> "PhiFunction":
        return PhiFunction.from_dict(json.loads(s))


def _fixed(curve: PhiCurve) -> Callable:
    """The form of the x-independent family ``x -> curve``."""
    return lambda X: curve.table.repeat(len(X))


def from_curve(curve: PhiCurve, dim: int = 1,
               domain: Domain | None = None) -> PhiFunction:
    """Wrap a single curve as an x-independent family."""
    return PhiFunction("curve", {"curve": curve.to_dict()},
                       domain or Domain(dim), _fixed(curve), x_independent=True)


# ---------------------------------------------------------------------------
# Catalog families: each states phi(x, t) once, as its batched form


def _family_domain(r: _Reader, domain: Domain | None, dim: int = 1) -> Domain:
    """``domain``, else all of R^dim for the params' ``dim`` (default
    ``dim``); a ``dim`` beside a domain must agree with it."""
    given = r("dim", _dim if domain is None
              else _agree(domain.dim, "the domain's dimension"), dim)
    return domain or Domain(given)


def _make_orlicz(r, domain):
    curve = r("curve", PhiCurve.from_dict, None)
    if curve is None:
        curve = power_curve(float(r("p", _finite)), float(r("coef", _finite, 1.0)))
    return PhiFunction("orlicz", r.d, _family_domain(r, domain), _fixed(curve),
                       x_independent=True)


def _optional(on, coef, exponent):
    """The term ``coef * t**exponent`` on rows where ``on``, unused elsewhere."""
    return np.where(on, coef, 0.0), exponent, np.where(on, 0.0, INF)


def _make_variable_exponent(r, domain):
    pf = r("p", field_from_dict)
    af = r("a", field_from_dict, _constant(1.0))

    def form(X):
        p, a = pf(X), af(X)
        if np.any(p < 1) or np.any(a <= 0):
            raise ConstructionError("variable exponent needs p >= 1, a > 0")
        return PowerTable.build(len(X), [0.0], [[(a, p, 0.0)]])

    return PhiFunction("variable_exponent", r.d, _family_domain(r, domain), form)


def _make_double_phase(r, domain):
    p = float(r("p", _finite))
    q = float(r("q", _finite))
    if p < 1 or q < p:
        raise ConstructionError("double phase needs 1 <= p <= q")
    af = r("a", field_from_dict, _constant(0.0))

    def form(X):
        a = af(X)
        if np.any(a < 0):
            raise ConstructionError("weight a must be nonnegative")
        return PowerTable.build(len(X), [0.0], [[(1.0, p, 0.0), _optional(a > 0, a, q)]])

    return PhiFunction("double_phase", r.d, _family_domain(r, domain), form)


def _make_vdp(r, domain):
    pf = r("p", field_from_dict)
    qf = r("q", field_from_dict)
    af = r("a", field_from_dict, _constant(0.0))

    def form(X):
        p, q, a = pf(X), qf(X), af(X)
        if np.any(p < 1) or np.any(q < p) or np.any(a < 0):
            raise ConstructionError("needs 1 <= p(x) <= q(x), a >= 0")
        return PowerTable.build(len(X), [0.0], [[(1.0, p, 0.0), _optional(a > 0, a, q)]])

    return PhiFunction("vdp", r.d, _family_domain(r, domain), form)


# Built-in gallery instances used by the example bundles and the test suite.


def _make_example_3_2(r, domain):
    region = region_from_dict({"region": "inv_square_strip"})

    def form(X):
        # t then t^2 from t = 1 on the strip G; off it the first piece is
        # empty and phi = t^2
        seam = np.where(region.contains_many(X), 1.0, 0.0)
        return PowerTable.build(len(X), [0.0, seam],
                                [[(1.0, 1.0, 0.0)], [(1.0, 2.0, 0.0)]])

    return PhiFunction("example_3_2", r.d, domain or Domain(2), form)


def _make_example_3_4(r, domain):
    def form(X):
        seam = 1.0 / (_norms(X) + 2.0)
        return PowerTable.build(len(X), [0.0, seam],
                                [[(1.0, 1.0, 0.0)],
                                 [(1.0, 2.0, 0.0), (1.0, 1.0, 0.0)]])

    return PhiFunction("example_3_4", r.d, _family_domain(r, domain, 2), form)


def _make_example_3_5(r, domain):
    dom = _family_domain(r, domain, 2)

    def form(X):
        w = (_norms(X) + 1.0) ** dom.dim
        return PowerTable.build(len(X), [0.0, 1.0 / w],
                                [[(1.0 / w, 1.0, 0.0)], [(1.0, 2.0, 0.0)]])

    return PhiFunction("example_3_5", r.d, dom, form)


def _make_example_4_6(r, domain):
    # t^{p(x)} on (-2, 2) with p piecewise linear: 2 on [-1, 1], 1 at the ends

    def form(X):
        p = np.maximum(np.minimum(2.0, 3.0 - _norms(X)), 1.0)
        return PowerTable.build(len(X), [0.0], [[(1.0, p, 0.0)]])

    return PhiFunction("example_4_6", r.d, domain or Domain(1, (-2.0,), (2.0,)), form)


_FAMILIES = {
    "orlicz": _make_orlicz,
    "curve": lambda r, domain: from_curve(r("curve", PhiCurve.from_dict),
                                          domain=_family_domain(r, domain)),
    "variable_exponent": _make_variable_exponent,
    "double_phase": _make_double_phase,
    "vdp": _make_vdp,
    "example_3_2": _make_example_3_2,
    "example_3_4": _make_example_3_4,
    "example_3_5": _make_example_3_5,
    "example_4_6": _make_example_4_6,
}


def make_family(kind: str, params: dict | None = None, domain: Domain | None = None) -> PhiFunction:
    """Construct a catalog family; raises ConstructionError for bad
    parameters and SpecError for malformed or unread ones."""
    if kind not in _FAMILIES:
        raise ConstructionError(f"unknown family kind {kind!r}")
    with _Reader({} if params is None else params) as r:
        return _FAMILIES[kind](r, domain)
