"""Executable checkers for the growth and regularity conditions.

Every checker samples a finite (x, t) lattice, extracts the extremal
constant by direct supremum, a dyadic ladder or the package's one level
search (``phi_core._last_t_where``), and returns a
:class:`ConditionReport` carrying the constants, the sample spec and the
worst witness, so failures are reproducible.  "Almost every x" is
approximated by the sample set; the catalog families have no exceptional
sets.  Each checker builds phi's (and psi's) power table of its sample
points once and reads every level of its dyadic ladder or level search off
it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Callable, Sequence

import numpy as np

from .phi_core import (
    UNIT_BALL_VOLUME,
    Domain,
    PhiCurve,
    PhiFunction,
    Region,
    _last_t_where,
    from_curve,
)

INF = math.inf

#: Default cap on an extracted almost-monotonicity constant before the
#: condition is declared failed.  Well-behaved catalog instances stay below
#: ~100; the deliberately failing ones blow past 1e3.
DEFAULT_MAX_CONSTANT = 1e3


@dataclass(frozen=True)
class SampleSpec:
    """Sampling lattice: log-spaced t grid plus an x lattice over the
    domain (or a window of radius ``x_radius`` for unbounded domains)."""

    t_min: float = 1e-4
    t_max: float = 1e4
    points_per_decade: int = 64
    refinement_rounds: int = 1
    x_per_axis: int = 9
    x_radius: float = 16.0
    seed: int = 0

    def t_grid(self, lo: float | None = None, hi: float | None = None) -> np.ndarray:
        lo = self.t_min if lo is None or lo <= 0 else max(lo, 1e-300)
        hi = self.t_max if hi is None or math.isinf(hi) else hi
        lo, hi = min(lo, hi), max(lo, hi)
        if lo == hi:
            return np.array([lo])
        n = max(int(self.points_per_decade * math.log10(hi / lo)) + 1, 8)
        return np.geomspace(lo, hi, n)

    def describe(self) -> dict:
        return asdict(self)


def default_x_samples(domain: Domain, spec: SampleSpec | None = None) -> np.ndarray:
    """Deterministic lattice of sample points, shape (N, dim)."""
    spec = spec or SampleSpec()
    lower, upper = domain.sampling_box(spec.x_radius)
    axes = [np.linspace(lo, hi, spec.x_per_axis) for lo, hi in zip(lower, upper)]
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
            lambda X: (np.linalg.norm(X, axis=-1) + c) ** (-k),
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
               T: tuple = (0.0, INF), spec: SampleSpec | None = None,
               max_constant: float = DEFAULT_MAX_CONSTANT) -> ConditionReport:
    """Is t -> phi(x, t) / t^p almost increasing on A x T, and with what
    constant?

    The sampled constant is the supremum of ratio(t)/ratio(s) over grid
    pairs t < s, sharpened by one local refinement round around the worst
    witness.  Divergence of the ratio at the open ends of T is detected
    analytically from the piece exponents.
    """
    return _check_almost_monotone(phi, p, A, T, spec, max_constant, increasing=True)


def check_adec(phi, q: float, A: np.ndarray | None = None,
               T: tuple = (0.0, INF), spec: SampleSpec | None = None,
               max_constant: float = DEFAULT_MAX_CONSTANT) -> ConditionReport:
    """Mirror of :func:`check_ainc`: t -> phi(x, t) / t^q almost decreasing."""
    return _check_almost_monotone(phi, q, A, T, spec, max_constant, increasing=False)


def _check_almost_monotone(phi, p, A, T, spec, max_constant, increasing):
    phi = _as_phi(phi)
    spec = spec or SampleSpec()
    lo, hi = float(T[0]), float(T[1])
    if not lo < hi:
        raise ValueError("T must be a nonempty interval")
    X = np.atleast_2d(A) if A is not None else default_x_samples(phi.domain, spec)
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

    a_star, witness = _sampled_sup(table, X, grid, p, increasing)
    for _ in range(spec.refinement_rounds):
        a_star, witness = _refine_witness(phi, grid, p, increasing, a_star, witness)
    if flags:  # the first flagged sample alone reproduces the verdict
        witness = _sampled_sup(table.rows(hit), X[hit], grid, p, increasing)[1]

    diverges = bool(flags)
    holds = (not diverges) and math.isfinite(a_star) and a_star <= max_constant
    name = f"aInc_{p:g}" if increasing else f"aDec_{p:g}"
    constants = {("p" if increasing else "q"): p,
                 ("a" if increasing else "L"): (INF if diverges else a_star),
                 "sampled_sup": a_star,
                 "max_constant": max_constant}
    return ConditionReport(
        condition=name, holds=holds, constants=constants,
        sample_spec={**spec.describe(), "T": [lo, _jsonable(hi)], "n_x": len(X)},
        worst_witness=witness, flags=tuple(sorted(set(flags))))


def _sampled_sup(table, X, grid, p, increasing):
    """Largest sampled ratio(t)/ratio(s) and its witness, over the rows of
    ``table``, phi's table at the points X."""
    vals = table.value(grid[None, :])  # (N_x, N_t)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = vals / grid[None, :] ** p
    best = -INF
    witness = None
    for ix in range(len(X)):
        row = r[ix]
        if not increasing:
            # L-almost decreasing: r(s) <= L r(t) for t < s
            row = row[::-1]
        # suffix minimum over the "later" argument
        suff = np.minimum.accumulate(row[::-1])[::-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = row[:-1] / suff[1:]
        k = int(np.nanargmax(ratios)) if len(ratios) else 0
        if len(ratios) and ratios[k] > best:
            best = float(ratios[k])
            j = k + 1 + int(np.argmin(row[k + 1:]))
            if increasing:
                t_w, s_w = grid[k], grid[j]
            else:
                n = len(grid)
                t_w, s_w = grid[n - 1 - j], grid[n - 1 - k]
            witness = {"x": [float(v) for v in X[ix]],
                       "t": float(t_w), "s": float(s_w), "ratio": best}
    return best, witness


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


def check_a0(phi: PhiFunction, spec: SampleSpec | None = None,
             x_samples: np.ndarray | None = None) -> ConditionReport:
    """Largest beta in [2^-40, 1] with phi(x, beta) <= 1 <= phi(x, 1/beta)
    at all sampled x, to 1e-9 relative by the one level search; the
    condition fails, with beta 0, where even 2^-40 does not work."""
    spec = spec or SampleSpec()
    X = np.atleast_2d(x_samples) if x_samples is not None else default_x_samples(phi.domain, spec)
    table = phi.table(X)
    tol = 1e-9

    def ok(beta: float) -> bool:
        lowv = table.value(np.array([[beta]]))[:, 0]
        highv = table.value(np.array([[1.0 / beta]]))[:, 0]
        return bool(np.all(lowv <= 1.0 + tol) and np.all(highv >= 1.0 - tol))

    beta = _largest_beta(ok, tol)
    holds = beta > 0.0
    return ConditionReport(
        condition="A0", holds=holds,
        constants={"beta": beta},
        sample_spec={**spec.describe(), "n_x": len(X)},
        worst_witness=None if holds else {"x": [float(v) for v in X[0]]})


def _largest_beta(ok: Callable[[float], bool], tol: float) -> float:
    """The largest beta in [2^-40, 1] with ok(beta), to ``tol`` relative
    and from below, for a test that holds on an initial interval; 0 where
    ok(2^-40) fails."""
    if ok(1.0):  # the cap: the search alone would go on above 1
        return 1.0
    lo = _last_t_where(lambda b: np.array([ok(float(b[0]))]), 1, tol,
                       floor=2.0 ** -40)[0]
    return float(lo[0])


# ---------------------------------------------------------------------------
# Local comparability across small balls (the (A1')-type condition)


def check_a1(phi: PhiFunction, spec: SampleSpec | None = None,
             n_balls: int = 40, pairs_per_ball: int = 6,
             t_per_pair: int = 10) -> ConditionReport:
    """Largest beta in [2^-40, 1] with phi(x, beta*t) <= phi(y, t) over
    sampled balls B with |B| <= 1, point pairs x, y in B, and levels with
    phi(y, t) in [1, 1/|B|], to 1e-9 relative by the one level search
    (beta 0 where even 2^-40 does not work); it holds when beta > 1e-6.

    A run that keeps no pair is flagged ``vacuous`` and does not hold:
    no sampled evidence supports the condition."""
    spec = spec or SampleSpec()
    rng = np.random.default_rng(spec.seed)
    dim = phi.domain.dim
    lower, upper = phi.domain.sampling_box(spec.x_radius)
    lower = np.asarray(lower)
    upper = np.asarray(upper)
    omega = UNIT_BALL_VOLUME[dim]
    r_max = (1.0 / omega) ** (1.0 / dim)

    xs, ys, vols = [], [], []
    for _ in range(n_balls):
        center = lower + rng.random(dim) * (upper - lower)
        radius = float(np.exp(rng.uniform(np.log(0.02), np.log(r_max))))
        vol = omega * radius ** dim
        pts = []
        tries = 0
        while len(pts) < 2 * pairs_per_ball and tries < 200:
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
                          np.maximum(t_hi[good], t_lo[good]), t_per_pair, axis=1)
    vals = table.rows(good).value(levels)
    keep = (1.0 - 1e-9 <= vals) & (vals <= 1.0 / vols[good][:, None] + 1e-9)
    pair = np.nonzero(keep)[0]
    X, ys, Tv, R = xs[good][pair], ys[good][pair], levels[keep], vals[keep]
    if not len(X):
        return ConditionReport(
            condition="A1prime", holds=False, constants={"beta": 1.0},
            sample_spec={**spec.describe(), "n_samples": 0},
            flags=("vacuous",))
    tol = 1e-9
    at_x = phi.evaluator(X)

    def ok(beta: float) -> bool:
        lhs = at_x(beta * Tv)
        return bool(np.all(lhs <= R * (1.0 + tol) + tol))

    beta = _largest_beta(ok, tol)
    holds = beta > 1e-6
    lhs = at_x(beta * Tv) if beta > 0 else np.zeros_like(R)
    k = int(np.argmax(lhs - R))
    return ConditionReport(
        condition="A1prime", holds=holds, constants={"beta": beta},
        sample_spec={**spec.describe(), "n_samples": len(X)},
        worst_witness={"x": [float(v) for v in X[k]],
                       "y": [float(v) for v in ys[k]],
                       "t": float(Tv[k]), "phi_y_t": float(R[k])})


# ---------------------------------------------------------------------------
# Comparability to a spatial asymptote (the (A2)-type condition)


def check_a2(phi: PhiFunction, phi_inf: PhiCurve, h: WeightFunction,
             beta: float, s: float = 1.0, spec: SampleSpec | None = None,
             x_samples: np.ndarray | None = None) -> ConditionReport:
    """Verify phi(x, beta*t) <= phi_inf(t) + h(x) on {phi_inf(t) <= s} and
    phi_inf(beta*t) <= phi(x, t) + h(x) on {phi(x, t) <= s}, each sample
    to within 1e-9 times one plus its right-hand side."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must be in (0, 1]")
    if s <= 0:
        raise ValueError("s must be positive")
    spec = spec or SampleSpec()
    X = np.atleast_2d(x_samples) if x_samples is not None else default_x_samples(phi.domain, spec)
    grid = spec.t_grid()
    hv = h.many(X)
    inf_t = phi_inf.value(grid)
    inf_bt = phi_inf.value(beta * grid)
    table = phi.table(X)
    phiv = table.value(grid[None, :])
    phib = table.value(beta * grid[None, :])

    tol = 1e-9
    worst = {"margin": -INF}
    holds = True
    # direction 1: phi(x, beta t) <= phi_inf(t) + h(x) where phi_inf(t) <= s
    mask1 = inf_t <= s + tol
    rhs1 = inf_t[None, :] + hv[:, None]
    # direction 2: phi_inf(beta t) <= phi(x, t) + h(x) where phi(x, t) <= s
    mask2 = phiv <= s + tol
    rhs2 = phiv + hv[:, None]
    with np.errstate(invalid="ignore"):  # inf - inf only where masked out
        m1 = np.where(mask1[None, :], phib - rhs1, -INF)
        m2 = np.where(mask2, inf_bt[None, :] - rhs2, -INF)
    for m, rhs, direction in ((m1, rhs1, "phi_vs_asymptote"),
                              (m2, rhs2, "asymptote_vs_phi")):
        # every sample against the size of its own right-hand side
        if np.any(m > tol * (1.0 + np.abs(rhs))):
            holds = False
        ix, it = np.unravel_index(int(np.argmax(m)), m.shape)
        margin = float(m[ix, it])
        if margin > worst["margin"]:
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


def check_equivalence(phi, psi, L: float, spec: SampleSpec | None = None,
                      A: np.ndarray | None = None,
                      search_least: bool = True) -> ConditionReport:
    """Verify psi(x, t/L) <= phi(x, t) <= psi(x, L t) at all samples, and
    optionally search the least passing L on a dyadic ladder."""
    phi = _as_phi(phi)
    psi = _as_phi(psi)
    spec = spec or SampleSpec()
    X = np.atleast_2d(A) if A is not None else default_x_samples(phi.domain, spec)
    grid = spec.t_grid()[None, :]
    phiv = phi.table(X).value(grid)
    psi_table = psi.table(X)
    tol = 1e-9

    def passes(Lv: float):
        lo_ = psi_table.value(grid / Lv)
        hi_ = psi_table.value(grid * Lv)
        bad = np.maximum(lo_ - phiv, phiv - hi_)
        ix, it = np.unravel_index(int(np.argmax(bad)), bad.shape)
        margin = float(bad[ix, it])
        return margin <= tol * (1.0 + abs(phiv[ix, it])), margin, (ix, it)

    ok, margin, (ix, it) = passes(L)
    least = None
    if search_least:
        for k in range(161):
            Lk = 2.0 ** (k / 4.0)
            if passes(Lk)[0]:
                least = Lk
                break
    return ConditionReport(
        condition="Equiv", holds=ok,
        constants={"L": L, "least_L": least if least is not None else INF},
        sample_spec={**spec.describe(), "n_x": len(X)},
        worst_witness={"x": [float(v) for v in X[ix]], "t": float(grid[0, it]),
                       "margin": margin})


def check_weak_equivalence(phi, psi, L: float, h: WeightFunction,
                           spec: SampleSpec | None = None,
                           A: np.ndarray | None = None) -> ConditionReport:
    """Verify psi(x, t) <= phi(x, L t) + h(x) and phi(x, t) <= psi(x, L t)
    + h(x) at all samples."""
    phi = _as_phi(phi)
    psi = _as_phi(psi)
    spec = spec or SampleSpec()
    X = np.atleast_2d(A) if A is not None else default_x_samples(phi.domain, spec)
    grid = spec.t_grid()[None, :]
    hv = h.many(X)[:, None]
    tol = 1e-9
    phi_table, psi_table = phi.table(X), psi.table(X)
    phiv = phi_table.value(grid)
    d1 = psi_table.value(grid) - (phi_table.value(grid * L) + hv)
    d2 = phiv - (psi_table.value(grid * L) + hv)
    bad = np.maximum(d1, d2)
    bad = np.where(np.isnan(bad), -INF, bad)  # inf - inf pairs compare equal
    ix, it = np.unravel_index(int(np.argmax(bad)), bad.shape)
    margin = float(bad[ix, it])
    ref = float(phiv[ix, it])
    holds = margin <= tol * (1.0 + (ref if math.isfinite(ref) else 1.0))
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
