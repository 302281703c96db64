"""Executable checkers for the growth and regularity conditions.

Every checker samples a finite (x, t) lattice, extracts the extremal
constant by direct supremum, a dyadic ladder or the package's one level
search (``phi_core._last_t_where``), and returns a
:class:`ConditionReport` carrying the constants, the sample spec and the
worst witness, so failures are reproducible.  Every sampled inequality
lhs <= rhs is judged by one rule, :func:`_holds`, and its witness,
:func:`_worst`, is the sample of largest excess (over the rule's slack,
when some sample breaks it).  "Almost every x" is
approximated by the sample set; the catalog families have no exceptional
sets.  Each checker builds phi's (and psi's) power table of its sample
points once and reads every level of its dyadic ladder or level search off
it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .phi_core import (
    UNIT_BALL_VOLUME,
    Domain,
    PhiCurve,
    PhiFunction,
    Region,
    _last_t_where,
    _norms,
    from_curve,
)

INF = math.inf

#: Default cap on an extracted almost-monotonicity constant before the
#: condition is declared failed.  Well-behaved catalog instances stay below
#: ~100; the deliberately failing ones blow past 1e3.
DEFAULT_MAX_CONSTANT = 1e3

#: Slack of every sampled inequality, and the relative accuracy of every
#: beta that a level search returns.
CHECK_TOL = 1e-9

#: The fixed part of the sampling lattice: t points per decade, x points
#: per axis, and the half-width of the x window on an unbounded domain.
POINTS_PER_DECADE = 64
X_PER_AXIS = 9
X_RADIUS = 16.0

#: Balls that the (A1') checker samples.
N_BALLS = 40


def _holds(*pairs) -> bool:
    """The one comparison rule of every sampled inequality: lhs <= rhs +
    CHECK_TOL (1 + |rhs|) at every sample of every (lhs, rhs) pair.  The
    same infinity on both sides passes: the right-hand side is then +inf
    too."""
    with np.errstate(over="ignore"):  # a slack past the largest float is inf
        return all(bool(np.all(lhs <= rhs + CHECK_TOL * (1.0 + np.abs(rhs))))
                   for lhs, rhs in pairs)


def _worst(*pairs, broken: bool) -> tuple[tuple, float, float]:
    """The witness over the (lhs, rhs) pairs of same-shaped arrays, its
    largest lhs - rhs, and its rank.  For a ``broken`` check (some sample
    breaks :func:`_holds`) the rank is the largest excess over the rule's
    slack, lhs - rhs - CHECK_TOL (1 + |rhs|), so that the witness
    reproduces the failure; otherwise it is the largest lhs - rhs.  The
    witness is the sample of largest rank, the first on ties; nan, the
    same infinity on both sides, is no excess."""
    with np.errstate(invalid="ignore", over="ignore"):
        # fmax skips a nan where it can
        excess = functools.reduce(np.fmax, [lhs - rhs for lhs, rhs in pairs])
        rank = functools.reduce(np.fmax, [
            lhs - (rhs + CHECK_TOL * (1.0 + np.abs(rhs)))
            for lhs, rhs in pairs]) if broken else excess
    rank = np.where(np.isnan(rank), -INF, rank)
    ix = np.unravel_index(int(np.argmax(rank)), rank.shape)
    margin = float(excess[ix])
    return ix, -INF if math.isnan(margin) else margin, float(rank[ix])


@dataclass(frozen=True)
class SampleSpec:
    """Sampling lattice: a log-spaced t grid on [t_min, t_max] with
    ``POINTS_PER_DECADE`` points per decade, plus an x lattice of
    ``X_PER_AXIS`` points per axis over the domain (or over a window of
    half-width ``X_RADIUS`` for unbounded domains); ``seed`` drives the
    (A1') ball sampling."""

    t_min: float = 1e-4
    t_max: float = 1e4
    seed: int = 0

    def t_grid(self, lo: float | None = None, hi: float | None = None) -> np.ndarray:
        lo = self.t_min if lo is None or lo <= 0 else max(lo, 1e-300)
        hi = self.t_max if hi is None or math.isinf(hi) else hi
        lo, hi = min(lo, hi), max(lo, hi)
        if lo == hi:
            return np.array([lo])
        n = max(int(POINTS_PER_DECADE * math.log10(hi / lo)) + 1, 8)
        return np.geomspace(lo, hi, n)

    def describe(self) -> dict:
        return {"t_min": self.t_min, "t_max": self.t_max,
                "points_per_decade": POINTS_PER_DECADE,
                "refinement_rounds": 1, "x_per_axis": X_PER_AXIS,
                "x_radius": X_RADIUS, "seed": self.seed}


def default_x_samples(domain: Domain) -> np.ndarray:
    """Deterministic lattice of sample points, shape (N, dim)."""
    lower, upper = domain.sampling_box(X_RADIUS)
    axes = [np.linspace(lo, hi, X_PER_AXIS) for lo, hi in zip(lower, upper)]
    if domain.dim == 1:
        return axes[0].reshape(-1, 1)
    gx, gy = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True)
class WeightFunction:
    """A nonnegative spatial weight h(x) with closed-form norms if known."""

    name: str
    func: Callable = field(compare=False)
    l1_norm: float | None = None
    linf_norm: float | None = None
    params: dict = field(default_factory=dict)

    def __call__(self, x) -> float:
        return float(np.ravel(self.func(np.atleast_2d(np.asarray(x, float))))[0])

    def many(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, float))
        return np.ravel(self.func(X))

    def to_dict(self) -> dict:
        return {"weight": self.name, "l1_norm": self.l1_norm,
                "linf_norm": self.linf_norm, **self.params}

    @staticmethod
    def zero() -> "WeightFunction":
        return WeightFunction("zero", lambda X: np.zeros(len(X)), 0.0, 0.0)

    @staticmethod
    def indicator(region: Region) -> "WeightFunction":
        return WeightFunction(
            "indicator",
            lambda X: region.contains_many(X).astype(float),
            l1_norm=region.measure, linf_norm=1.0,
            params={"of": region.to_dict()})

    @staticmethod
    def recip_power(k: float, dim: int, c: float = 1.0) -> "WeightFunction":
        """h(x) = (|x| + c)^(-k); L1 norm closed-form for k > dim."""
        if not c > 0:
            raise ValueError(f"c must be positive, got {c!r}")
        try:
            if dim == 1:
                l1 = 2.0 * c ** (1.0 - k) / (k - 1.0) if k > 1 else None
            else:
                l1 = (2.0 * math.pi * c ** (2.0 - k) / ((k - 1.0) * (k - 2.0))
                      if k > 2 else None)
            linf = c ** (-k)
        except OverflowError:
            raise ValueError(f"c = {c!r} is too small: c^(-k) overflows "
                             f"for k = {k!r}") from None
        return WeightFunction(
            "recip_power",
            lambda X: (_norms(X) + c) ** (-k),
            l1_norm=l1, linf_norm=linf, params={"k": k, "c": c, "dim": dim})


def weight_from_dict(d: dict) -> WeightFunction:
    """Rebuild a catalog weight from its ``to_dict`` form."""
    name = d["weight"]
    if name == "zero":
        return WeightFunction.zero()
    if name == "indicator":
        from .phi_core import region_from_dict
        return WeightFunction.indicator(region_from_dict(d["of"]))
    if name == "recip_power":
        return WeightFunction.recip_power(d["k"], d["dim"], d.get("c", 1.0))
    raise ValueError(f"unknown weight {name!r}")


@dataclass
class ConditionReport:
    condition: str
    holds: bool
    constants: dict
    sample_spec: dict
    worst_witness: dict | None = None
    flags: tuple = ()

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "holds": self.holds,
            "constants": {k: _jsonable(v) for k, v in self.constants.items()},
            "sample_spec": self.sample_spec,
            "worst_witness": self.worst_witness,
            "flags": list(self.flags),
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)

    def table_row(self) -> str:
        consts = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(self.constants.items()))
        flags = ",".join(self.flags) if self.flags else "-"
        return f"{self.condition:<12} {'PASS' if self.holds else 'FAIL':<5} {consts:<48} {flags}"


def reports_table(reports: Sequence[ConditionReport]) -> str:
    header = f"{'condition':<12} {'holds':<5} {'constants':<48} flags"
    return "\n".join([header, "-" * len(header)] + [r.table_row() for r in reports])


def _jsonable(obj):
    """JSON-ready copy: infinities become "inf", numpy values plain ones."""
    if isinstance(obj, float):
        return "inf" if math.isinf(obj) else obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(float(obj))
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _fmt(v):
    if isinstance(v, float):
        return "inf" if math.isinf(v) else f"{v:.6g}"
    return str(v)


def _as_phi(phi) -> PhiFunction:
    if isinstance(phi, PhiCurve):
        return from_curve(phi)
    return phi


# ---------------------------------------------------------------------------
# Almost-monotone growth of phi(x, t) / t^p


def check_ainc(phi, p: float, A: np.ndarray | None = None,
               T: tuple = (0.0, INF),
               spec: SampleSpec | None = None) -> ConditionReport:
    """Is t -> phi(x, t) / t^p almost increasing on A x T, and with what
    constant?  It holds when that constant is at most
    ``DEFAULT_MAX_CONSTANT``.

    The sampled constant is the supremum of ratio(t)/ratio(s) over grid
    pairs t < s, sharpened by one local refinement round around the worst
    witness.  Divergence of the ratio at the open ends of T is detected
    analytically from the piece exponents.
    """
    return _check_almost_monotone(phi, p, A, T, spec, increasing=True)


def check_adec(phi, q: float, A: np.ndarray | None = None,
               T: tuple = (0.0, INF),
               spec: SampleSpec | None = None) -> ConditionReport:
    """Mirror of :func:`check_ainc`: t -> phi(x, t) / t^q almost decreasing."""
    return _check_almost_monotone(phi, q, A, T, spec, increasing=False)


def _check_almost_monotone(phi, p, A, T, spec, increasing):
    phi = _as_phi(phi)
    spec = spec or SampleSpec()
    lo, hi = float(T[0]), float(T[1])
    if not lo < hi:
        raise ValueError("T must be a nonempty interval")
    X = np.atleast_2d(A) if A is not None else default_x_samples(phi.domain)
    grid = spec.t_grid(lo if lo > 0 else None, hi)

    # analytic divergence at the open ends of T, from the first sample
    # whose piece exponents show any
    table = phi.table(X)
    e0, e1 = table.end_exponents()
    sign = 1.0 if increasing else -1.0
    at_zero = (lo == 0.0) & (sign * (p - e0) > 0)
    at_inf = math.isinf(hi) & (sign * (p - e1) > 0)
    hit = np.flatnonzero(at_zero | at_inf)[:1]
    flags = [name for name, on in (("diverges_at_zero", at_zero[hit]),
                                   ("diverges_at_infinity", at_inf[hit])) if np.any(on)]

    a_star, witness = _refine_witness(
        phi, grid, p, increasing, *_sampled_sup(table, X, grid, p, increasing))
    if flags:  # the first flagged sample alone reproduces the verdict
        witness = _sampled_sup(table.rows(hit), X[hit], grid, p, increasing)[1]

    diverges = bool(flags)
    holds = (not diverges and math.isfinite(a_star)
             and a_star <= DEFAULT_MAX_CONSTANT)
    name = f"aInc_{p:g}" if increasing else f"aDec_{p:g}"
    constants = {("p" if increasing else "q"): p,
                 ("a" if increasing else "L"): (INF if diverges else a_star),
                 "sampled_sup": a_star,
                 "max_constant": DEFAULT_MAX_CONSTANT}
    return ConditionReport(
        condition=name, holds=holds, constants=constants,
        sample_spec={**spec.describe(), "T": [lo, _jsonable(hi)], "n_x": len(X)},
        worst_witness=witness, flags=tuple(sorted(set(flags))))


def _sampled_sup(table, X, grid, p, increasing):
    """Largest sampled ratio(t)/ratio(s) and its witness, over the rows of
    ``table``, phi's table at the points X; ties go to the first row and
    then the first t."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = table.value(grid[None, :]) / grid[None, :] ** p  # (N_x, N_t)
    if not increasing:
        # L-almost decreasing: r(s) <= L r(t) for t < s
        r = r[:, ::-1]
    if r.shape[0] == 0 or r.shape[1] < 2:
        return -INF, None
    # suffix minima over the "later" argument; column k + 1 then takes the
    # ratio of column k to them
    suff = np.minimum.accumulate(r[:, ::-1], axis=1)[:, ::-1]
    ratios = suff[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(r[:, :-1], ratios, out=ratios)
    row_max = np.fmax.reduce(ratios, axis=1)  # nan only where all are nan
    ix = int(np.argmax(np.where(np.isnan(row_max), -INF, row_max)))
    if np.isnan(row_max[ix]):
        return -INF, None
    k = int(np.nanargmax(ratios[ix]))
    j = k + 1 + int(np.argmin(r[ix, k + 1:]))
    if increasing:
        t_w, s_w = grid[k], grid[j]
    else:
        n = len(grid)
        t_w, s_w = grid[n - 1 - j], grid[n - 1 - k]
    best = float(row_max[ix])
    return best, {"x": [float(v) for v in X[ix]],
                  "t": float(t_w), "s": float(s_w), "ratio": best}


def _refine_witness(phi, grid, p, increasing, a_star, witness):
    if witness is None:
        return a_star, witness
    step = grid[1] / grid[0] if len(grid) > 1 else 2.0
    x = tuple(witness["x"])
    locs = []
    for c in (witness["t"], witness["s"]):
        locs.append(np.geomspace(c / step, c * step, 33))
    local = np.unique(np.concatenate(locs + [grid]))
    local = local[(local >= grid[0]) & (local <= grid[-1])]
    X = np.atleast_2d(np.asarray(x))
    best, w = _sampled_sup(phi.table(X), X, local, p, increasing)
    if best > a_star:
        return best, w
    return a_star, witness


# ---------------------------------------------------------------------------
# Normalization at level 1 (the (A0)-type condition)


def check_a0(phi: PhiFunction,
             spec: SampleSpec | None = None) -> ConditionReport:
    """Largest beta in [2^-40, 1] with phi(x, beta) <= 1 <= phi(x, 1/beta)
    at all sampled x, to 1e-9 relative by the one level search; the
    condition fails, with beta 0, where even 2^-40 does not work."""
    spec = spec or SampleSpec()
    X = default_x_samples(phi.domain)
    table = phi.table(X)

    def ok(beta: float) -> bool:
        lowv = table.value(np.array([[beta]]))[:, 0]
        highv = table.value(np.array([[1.0 / beta]]))[:, 0]
        return bool(np.all(lowv <= 1.0 + CHECK_TOL)
                    and np.all(highv >= 1.0 - CHECK_TOL))

    beta = _largest_beta(ok)
    holds = beta > 0.0
    return ConditionReport(
        condition="A0", holds=holds,
        constants={"beta": beta},
        sample_spec={**spec.describe(), "n_x": len(X)},
        worst_witness=None if holds else {"x": [float(v) for v in X[0]]})


def _largest_beta(ok: Callable[[float], bool]) -> float:
    """The largest beta in [2^-40, 1] with ok(beta), to ``CHECK_TOL``
    relative and from below, for a test that holds on an initial interval;
    0 where ok(2^-40) fails."""
    if ok(1.0):  # the cap: the search alone would go on above 1
        return 1.0
    lo = _last_t_where(lambda b: np.array([ok(float(b[0]))]), 1, CHECK_TOL,
                       floor=2.0 ** -40)[0]
    return float(lo[0])


# ---------------------------------------------------------------------------
# Local comparability across small balls (the (A1')-type condition)


def check_a1(phi: PhiFunction,
             spec: SampleSpec | None = None) -> ConditionReport:
    """Largest beta in [2^-40, 1] with phi(x, beta*t) <= phi(y, t) over
    ``N_BALLS`` sampled balls B with |B| <= 1, up to six point pairs x, y
    in each B, and ten levels per pair with phi(y, t) in [1, 1/|B|], to
    1e-9 relative by the one level search (beta 0 where even 2^-40 does
    not work); it holds when beta > 1e-6.

    A run that keeps no pair is flagged ``vacuous`` and does not hold:
    no sampled evidence supports the condition."""
    spec = spec or SampleSpec()
    rng = np.random.default_rng(spec.seed)
    dim = phi.domain.dim
    lower, upper = phi.domain.sampling_box(X_RADIUS)
    lower = np.asarray(lower)
    upper = np.asarray(upper)
    omega = UNIT_BALL_VOLUME[dim]
    r_max = (1.0 / omega) ** (1.0 / dim)

    xs, ys, vols = [], [], []
    for _ in range(N_BALLS):
        center = lower + rng.random(dim) * (upper - lower)
        radius = float(np.exp(rng.uniform(np.log(0.02), np.log(r_max))))
        vol = omega * radius ** dim
        pts = []
        tries = 0
        while len(pts) < 12 and tries < 200:  # six pairs
            cand = center + rng.uniform(-radius, radius, dim)
            tries += 1
            if np.linalg.norm(cand - center) <= radius and phi.domain.contains(tuple(cand)):
                pts.append(cand)
        xs += pts[0:len(pts) - 1:2]
        ys += pts[1::2]
        vols += [vol] * (len(pts) // 2)

    # levels t with phi(y, t) in [1, 1/|B|], all pairs at once
    xs, ys, vols = np.reshape(xs, (-1, dim)), np.reshape(ys, (-1, dim)), np.asarray(vols)
    table = phi.table(ys)
    t_lo, t_hi = table.inverse(1.0), table.inverse(1.0 / vols)
    good = (t_lo > 0) & np.isfinite(t_hi) & (t_hi >= t_lo)
    levels = np.geomspace(np.maximum(t_lo[good], 1e-12),
                          np.maximum(t_hi[good], t_lo[good]), 10, axis=1)
    vals = table.rows(good).value(levels)
    keep = ((1.0 - CHECK_TOL <= vals)
            & (vals <= 1.0 / vols[good][:, None] + CHECK_TOL))
    pair = np.nonzero(keep)[0]
    X, ys, Tv, R = xs[good][pair], ys[good][pair], levels[keep], vals[keep]
    if not len(X):
        return ConditionReport(
            condition="A1prime", holds=False, constants={"beta": 1.0},
            sample_spec={**spec.describe(), "n_samples": 0},
            flags=("vacuous",))
    at_x = phi.evaluator(X)

    beta = _largest_beta(lambda beta: _holds((at_x(beta * Tv), R)))
    holds = beta > 1e-6
    lhs = at_x(beta * Tv) if beta > 0 else np.zeros_like(R)
    # at the beta found the pair holds
    (k,), _, _ = _worst((lhs, R), broken=False)
    return ConditionReport(
        condition="A1prime", holds=holds, constants={"beta": beta},
        sample_spec={**spec.describe(), "n_samples": len(X)},
        worst_witness={"x": [float(v) for v in X[k]],
                       "y": [float(v) for v in ys[k]],
                       "t": float(Tv[k]), "phi_y_t": float(R[k])})


# ---------------------------------------------------------------------------
# Comparability to a spatial asymptote (the (A2)-type condition)


def check_a2(phi: PhiFunction, phi_inf: PhiCurve, h: WeightFunction,
             beta: float, s: float = 1.0,
             spec: SampleSpec | None = None) -> ConditionReport:
    """Verify phi(x, beta*t) <= phi_inf(t) + h(x) on {phi_inf(t) <= s} and
    phi_inf(beta*t) <= phi(x, t) + h(x) on {phi(x, t) <= s} by the one
    rule: at each sample, up to 1e-9 times one plus its right-hand side.
    The witness is the sample of largest excess (over the slack, when one
    fails), first direction first."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must be in (0, 1]")
    if s <= 0:
        raise ValueError("s must be positive")
    spec = spec or SampleSpec()
    X = default_x_samples(phi.domain)
    grid = spec.t_grid()
    hv = h.many(X)[:, None]
    inf_t = phi_inf.value(grid)[None, :]
    table = phi.table(X)
    phiv = table.value(grid[None, :])
    # each direction's (lhs, rhs), the lhs -inf off its level set
    pairs = ((np.where(inf_t <= s + CHECK_TOL,
                       table.value(beta * grid[None, :]), -INF), inf_t + hv),
             (np.where(phiv <= s + CHECK_TOL,
                       phi_inf.value(beta * grid)[None, :], -INF), phiv + hv))
    holds = _holds(*pairs)
    worst, best = {"margin": -INF}, -INF
    for direction, pair in zip(("phi_vs_asymptote", "asymptote_vs_phi"),
                               pairs):
        (ix, it), margin, rank = _worst(pair, broken=not holds)
        if rank > best:
            best = rank
            worst = {"margin": margin, "direction": direction,
                     "x": [float(v) for v in X[ix]], "t": float(grid[it])}
    return ConditionReport(
        condition="A2", holds=holds,
        constants={"beta": beta, "s": s,
                   "h_l1": h.l1_norm, "h_linf": h.linf_norm},
        sample_spec={**spec.describe(), "n_x": len(X)},
        worst_witness=worst)


# ---------------------------------------------------------------------------
# Equivalence and weak equivalence


def check_equivalence(phi, psi, L: float,
                      spec: SampleSpec | None = None) -> ConditionReport:
    """Verify psi(x, t/L) <= phi(x, t) <= psi(x, L t) at all samples by the
    one rule, and find the least L that passes on the ladder 2^(k/4), k = 0
    .. 160 (inf for none).  The witness is the sample of largest excess
    over both inequalities at the given L (over the slack, when one
    fails)."""
    phi = _as_phi(phi)
    psi = _as_phi(psi)
    spec = spec or SampleSpec()
    X = default_x_samples(phi.domain)
    grid = spec.t_grid()[None, :]
    phiv = phi.table(X).value(grid)
    psi_table = psi.table(X)

    def pairs(Lv: float):
        return ((psi_table.value(grid / Lv), phiv),
                (phiv, psi_table.value(grid * Lv)))

    at_L = pairs(L)
    holds = _holds(*at_L)
    (ix, it), margin, _ = _worst(*at_L, broken=not holds)
    least = next((Lk for Lk in (2.0 ** (k / 4.0) for k in range(161))
                  if _holds(*pairs(Lk))), INF)
    return ConditionReport(
        condition="Equiv", holds=holds,
        constants={"L": L, "least_L": least},
        sample_spec={**spec.describe(), "n_x": len(X)},
        worst_witness={"x": [float(v) for v in X[ix]], "t": float(grid[0, it]),
                       "margin": margin})


def check_weak_equivalence(phi, psi, L: float, h: WeightFunction,
                           spec: SampleSpec | None = None) -> ConditionReport:
    """Verify psi(x, t) <= phi(x, L t) + h(x) and phi(x, t) <= psi(x, L t)
    + h(x) at all samples by the one rule.  The witness is the sample of
    largest excess over both inequalities (over the slack, when one
    fails)."""
    phi = _as_phi(phi)
    psi = _as_phi(psi)
    spec = spec or SampleSpec()
    X = default_x_samples(phi.domain)
    grid = spec.t_grid()[None, :]
    hv = h.many(X)[:, None]
    phi_table, psi_table = phi.table(X), psi.table(X)
    pairs = ((psi_table.value(grid), phi_table.value(grid * L) + hv),
             (phi_table.value(grid), psi_table.value(grid * L) + hv))
    holds = _holds(*pairs)
    (ix, it), margin, _ = _worst(*pairs, broken=not holds)
    return ConditionReport(
        condition="WeakEquiv", holds=holds,
        constants={"L": L, "h_l1": h.l1_norm, "h_linf": h.linf_norm},
        sample_spec={**spec.describe(), "n_x": len(X)},
        worst_witness={"x": [float(v) for v in X[ix]], "t": float(grid[0, it]),
                       "margin": margin})


# ---------------------------------------------------------------------------
# Constant algebra for shifting the range of almost-increase


def doubling_scale(a: float, p: float) -> float:
    """The scale c = (2a)^(1/(p-1)) at which almost-increase with constant a
    forces 2c * phi(t) <= phi(c t)."""
    if a < 1 or p <= 1:
        raise ValueError("need a >= 1 and p > 1")
    return (2.0 * a) ** (1.0 / (p - 1.0))


def exponent_from_doubling(c: float) -> float:
    """The exponent p = log 2 / log c + 1 recovered from a doubling scale."""
    if c <= 1:
        raise ValueError("need c > 1")
    return math.log(2.0) / math.log(c) + 1.0


def enlarge_ainc_constant(a: float, p: float, t1: float, t2: float) -> float:
    """Constant a^2 (t2/t1)^(p-1) valid after enlarging the t-range of
    almost-increase from [t2, inf) to [t1, inf) (or (0, t1] to (0, t2])."""
    if not 0 < t1 <= t2:
        raise ValueError("need 0 < t1 <= t2")
    return a * a * (t2 / t1) ** (p - 1.0)
