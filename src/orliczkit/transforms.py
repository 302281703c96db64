"""Constructive modifications of growth functions.

The transforms here take a growth function that fails one of the
regularity conditions and build an equivalent (or weakly equivalent) one
that satisfies it: raising small values to a power on a region, capping
at a threshold, repairing the tail of an asymptote, and rebuilding a
function around its asymptote so it grows almost monotonically at every
scale.  All constructions stay inside the piecewise power-law
representation, so the results pass the same structural invariants as
hand-built curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phi_core import (
    ConstructionError,
    Domain,
    PhiCurve,
    PhiFunction,
    PowerTable,
    PowerTerm,
    Region,
    _last_t_where,
)
from .conditions import (
    SampleSpec,
    WeightFunction,
    default_x_samples,
    weight_from_dict,
)

INF = math.inf

#: Relative tolerance of the threshold search: t1 is found to within this
#: factor of itself, at every scale.
T1_TOL = 1e-8

#: Radii of the inner and the outer shell of the tail estimate, and the
#: relative tolerance between them before a tail asymptote is declared
#: convergent.
SHELL_RADII = (1e3, 1e4)
SHELL_TOL = 1e-3


@dataclass(frozen=True)
class AsymptotePair:
    """A spatial asymptote: curve phi_inf, perturbation weight h, and the
    constants (beta, s) with which the comparability condition holds."""

    phi_inf: PhiCurve
    h: WeightFunction
    beta: float
    s: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ConstructionError("beta must be in (0, 1]")
        if not self.s > 0:
            raise ConstructionError("s must be positive")
        for norm in (self.h.l1_norm, self.h.linf_norm):
            if norm is None or not math.isfinite(norm):
                raise ConstructionError("h must have finite L1 and Linf norms")

    def to_dict(self) -> dict:
        return {"phi_inf": self.phi_inf.to_dict(), "h": self.h.to_dict(),
                "beta": self.beta, "s": self.s}

    @staticmethod
    def from_dict(d: dict) -> "AsymptotePair":
        return AsymptotePair(PhiCurve.from_dict(d["phi_inf"]),
                             weight_from_dict(d["h"]),
                             d["beta"], d.get("s", 1.0))


# ---------------------------------------------------------------------------
# Raise small values to a power on a region


def glue_small_values(psi1: PhiFunction, region: Region,
                      p: float) -> PhiFunction:
    """Return psi2 with psi2 = psi1**p on region x [0, 1] and psi2 = psi1
    elsewhere.

    Requires psi1(x, 1) = 1 on the region (the normalization that makes
    the two branches agree at t = 1), and each piece of psi1 below t = 1
    there to be a single unshifted power, so that the result stays
    power-law.  Construction checks both at the default sample lattice;
    evaluation checks them at every point it is asked for.
    """
    if p <= 1:
        raise ConstructionError("p must exceed 1")

    def form(X):
        on = region.contains_many(X)
        base = psi1.table(X)
        at_one = base.value(np.ones((len(X), 1)))[:, 0]
        off = on & (np.abs(at_one - 1.0) > 1e-9)
        if np.any(off):
            raise ConstructionError(
                f"psi1(x, 1) = {at_one[np.argmax(off)]} != 1 on the region; "
                "normalize before glueing")
        low = (on[:, None] & base.live() & (base.bps < 1.0))[..., None]
        live = base.coef > 0
        if np.any(low[..., 0] & (np.sum(live, axis=2) != 1)) or np.any(
                low & live & ((base.shift != 0.0) | (base.expo == 0.0))):
            raise ConstructionError(
                "small-value glueing needs single-power pieces below t = 1")
        raised = PowerTable(base.bps,
                            np.where(low, np.where(live, base.coef ** p, 0.0), base.coef),
                            np.where(low, np.where(live, base.expo * p, 0.0), base.expo),
                            np.where(low & ~live, INF, base.shift), base.tail)
        return raised.join(base, np.where(on, 1.0, 0.0))

    form(default_x_samples(psi1.domain))  # fail early
    return PhiFunction(
        "glued_small_values",
        {"base": psi1.to_dict(), "region": region.to_dict(), "p": p},
        psi1.domain, form)


# ---------------------------------------------------------------------------
# Threshold below which both the function and its asymptote stay <= 1


def small_value_threshold(phi: PhiFunction, phi_inf: PhiCurve) -> float:
    """t1 = half the largest t with max(phi_inf(t), phi(x, t)) <= 1 at every
    x of the default sample lattice.  The a.e.-sup is replaced by the min
    over sampled x, which errs in the conservative (smaller t1) direction."""
    X = default_x_samples(phi.domain)

    def last_at_most_one(table):
        return _last_t_where(lambda t: table.value(t[:, None])[:, 0] <= 1.0,
                             len(table.tail), T1_TOL)[0]

    sup = float(np.min(last_at_most_one(phi.table(X)),
                       initial=last_at_most_one(phi_inf.table)[0]))
    if not sup > 0.0:
        raise ConstructionError("phi exceeds 1 at arbitrarily small t "
                                "at some sample; no positive threshold")
    return 0.5 * sup


# ---------------------------------------------------------------------------
# Cap at a threshold


def cap_curve(phi_inf: PhiCurve, beta0: float) -> PhiCurve:
    """Truncate: the curve is unchanged on [0, beta0] and +inf beyond."""
    if beta0 <= 0:
        raise ConstructionError("beta0 must be positive")
    keep = [i for i, b in enumerate(phi_inf.breakpoints) if b <= beta0]
    bps = tuple(phi_inf.breakpoints[i] for i in keep)
    pieces = tuple(phi_inf.pieces[i] for i in keep)
    tail = beta0
    if phi_inf.infinite_tail is not None:
        tail = min(tail, phi_inf.infinite_tail)
    return PhiCurve(bps, pieces, infinite_tail=tail)


# ---------------------------------------------------------------------------
# Repair the tail of an asymptote so it grows at least like a power


def repair_asymptote(phi_inf: PhiCurve, t1: float, p: float) -> PhiCurve:
    """Keep phi_inf on [0, t1] and continue with phi_inf(t1) + (t - t1)**p,
    which is continuous at the seam and p-power-growing beyond it.

    aInc_p is promised only on [t1, inf): small values are left alone, so
    when phi_inf's small-t exponent is below p the ratio psi(t)/t^p
    diverges at 0.  For aInc_p on all of (0, inf) use
    :func:`rebuild_with_ainc`."""
    if t1 <= 0:
        raise ConstructionError("t1 must be positive")
    if p <= 1:
        raise ConstructionError("p must exceed 1")
    v1 = phi_inf.value(t1)
    if not math.isfinite(v1):
        raise ConstructionError("phi_inf must be finite at t1")
    bps, pieces = [], []
    for i, b in enumerate(phi_inf.breakpoints):
        if b >= t1:
            break
        bps.append(b)
        pieces.append(phi_inf.pieces[i])
    bps.append(t1)
    pieces.append((PowerTerm(v1, 0.0, shift=t1), PowerTerm(1.0, p, shift=t1)))
    return PhiCurve(tuple(bps), tuple(pieces))


# ---------------------------------------------------------------------------
# Rebuild around the asymptote


def rebuild_with_ainc(phi: PhiFunction, pair: AsymptotePair,
                      t1: float) -> PhiFunction:
    """psi(x, t) = phi_inf(beta*t) on [0, t1) and
    max(phi_inf(beta*t1), phi(x, t)) beyond.

    Small values come from the x-independent asymptote (scaled by the
    comparability constant beta), large values from phi itself; the flat
    middle bridges the two levels.
    """
    if t1 <= 0:
        raise ConstructionError("t1 must be positive")
    beta = pair.beta
    phi_inf = pair.phi_inf
    c = phi_inf.value(beta * t1)
    if not (math.isfinite(c) and c > 0):
        raise ConstructionError("asymptote must be positive and finite at "
                                "beta * t1")

    # the x-independent head: phi_inf(beta * t) below t1, then the flat
    # bridge at level c
    keep = [i for i, b in enumerate(phi_inf.breakpoints) if b / beta < t1]
    head = PowerTable.build(
        1, [phi_inf.breakpoints[i] / beta for i in keep] + [t1],
        [[(tm.coef * beta ** tm.exponent, tm.exponent, tm.shift / beta)
          for tm in phi_inf.pieces[i]] for i in keep] + [[(c, 0.0, t1)]])

    def form(X_):
        base = phi.table(X_)
        t_star = np.maximum(t1, base.inverse(c))
        if np.any(np.isinf(t_star)):
            # phi never reaches level c: flat at c forever is not a growth
            # curve, so this input is rejected
            raise ConstructionError("phi does not reach the asymptote level")
        bridge = t_star > t1 * (1.0 + 1e-12)
        start = np.where(bridge, t_star, t1)
        # where phi is +inf from `start` on, no piece of phi is kept; the
        # bridge is empty unless needed, and phi starts at `start`
        cut = start >= base.tail
        head_bps = np.repeat(head.bps, len(X_), axis=0)
        head_bps[:, -1] = np.where(cut & ~bridge, INF, t1)
        return PowerTable(head_bps, head.coef, head.expo, head.shift, head.tail).join(
            base, np.where(cut, INF, start))

    return PhiFunction(
        "ainc_rebuild",
        {"base": phi.to_dict(), "pair": pair.to_dict(), "t1": t1},
        phi.domain, form)


# ---------------------------------------------------------------------------
# Tail asymptotes by shell sampling


@dataclass(frozen=True)
class AsymptoteEstimate:
    """Upper/lower tail envelopes of phi(x, t) as |x| grows, as witness
    curves from the outermost sampled shell."""

    upper: PhiCurve
    lower: PhiCurve
    converged: bool
    flags: tuple = ()

    def __iter__(self):
        return iter((self.upper, self.lower))

    def to_dict(self) -> dict:
        return {"upper": self.upper.to_dict(), "lower": self.lower.to_dict(),
                "converged": self.converged, "flags": list(self.flags)}


def _shell_points(domain: Domain, radius: float) -> np.ndarray:
    if domain.dim == 1:
        pts = np.array([[-radius], [radius]])
    else:
        ang = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        pts = radius * np.column_stack([np.cos(ang), np.sin(ang)])
        axes = radius * np.array([[1.0, 0.0], [-1.0, 0.0],
                                  [0.0, 1.0], [0.0, -1.0]])
        pts = np.vstack([pts, axes])
    return pts[domain.contains_many(pts)]


def tail_asymptotes(phi: PhiFunction) -> AsymptoteEstimate:
    """Estimate limsup/liminf of phi(x, t) over |x| -> inf.

    Evaluates phi on the default sample spec's t grid on circles of 64
    points plus the four axis points (or point pairs in 1D) of the two
    ``SHELL_RADII``, takes the per-t max/min envelope on the outer shell,
    and flags the result inconclusive when the two shells disagree by more
    than ``SHELL_TOL`` relatively.
    """
    t_grid = SampleSpec().t_grid()

    if phi.x_independent:
        curve = phi.curve_at(tuple(np.zeros(phi.domain.dim)))
        return AsymptoteEstimate(curve, curve, True)

    shells = []
    for r in SHELL_RADII:
        pts = _shell_points(phi.domain, r)
        if len(pts) == 0:
            raise ConstructionError(f"no shell points of radius {r} lie in "
                                    "the domain")
        shells.append((pts, phi.eval_grid(pts, t_grid)))
    (_, inner), (pts, vals) = shells
    up1, lo1 = vals.max(axis=0), vals.min(axis=0)

    def agree(outer, inner_env):
        # equal envelopes agree, the same +inf included
        with np.errstate(invalid="ignore"):
            gap = np.where(outer == inner_env, 0.0, np.abs(outer - inner_env))
        return bool(np.all(gap <= SHELL_TOL * np.maximum(np.abs(outer),
                                                         1e-300)))

    converged = (agree(up1, inner.max(axis=0))
                 and agree(lo1, inner.min(axis=0)))
    flags = [] if converged else ["inconclusive"]

    def witness(env, select):
        hits = np.isclose(vals, env[None, :], rtol=1e-9, atol=1e-300)
        k = int(np.argmax(hits.sum(axis=1)))
        curve = phi.curve_at(tuple(pts[k]))
        if not np.allclose(curve.value(t_grid), env, rtol=1e-6):
            flags.append(f"{select}_envelope_not_single_curve")
        return curve

    upper = witness(up1, "upper")
    lower = witness(lo1, "lower")
    return AsymptoteEstimate(upper, lower, converged, tuple(flags))
