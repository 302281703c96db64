"""Reproducible example bundles and a declarative pipeline runner.

Each named example builds a catalog growth function, runs every condition
check and experiment claimed for it, and returns a JSON-serializable
bundle: the exact serialized function (for replay), one record per claim
with the observed report, and an overall verdict that is true only when
every observed outcome matches the claimed one.  Claims include expected
*failures*; a check that unexpectedly passes flips the verdict.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import transforms
from .phi_core import PhiFunction, SpecError, _at, _boolean, _cells, \
    _finite, _increasing, _list, _name, _point, _points, _positive, \
    _Reader, _seed, _string, _t_range, from_curve, make_family, \
    power_curve, region_from_dict
from .conditions import SampleSpec, WeightFunction, check_a0, check_a1, \
    check_a2, check_adec, check_ainc, check_equivalence, \
    check_weak_equivalence, default_x_samples, weight_from_dict, _holds
from .norms import GridFunction, ball_norm_check, duality_lower_bound, \
    _truncation_grid
from .maximal import _maximal_family, _norm_ratios

BUNDLE_SCHEMA = "orliczkit-bundle/1"

#: The sampling of the small-t aInc claims: down to t = 1e-70 on (0, 1].
_DEEP = SampleSpec(t_min=1e-70, t_max=1.0)


def _claim(name: str, observed: bool, report, expected: bool = True) -> dict:
    """One claim record; ``report`` is a ConditionReport or a plain dict."""
    rep = report.to_dict() if hasattr(report, "to_dict") else report
    return {"claim": name, "expected": expected, "observed": observed,
            "matches": observed == expected, "report": rep}


def _bounded(name: str, report, bound: float, holds: bool = True) -> dict:
    """The claim that ``report`` holds with sampled sup <= ``bound`` or,
    for ``holds`` false, fails with one past it, by the checkers' rule."""
    return _claim(name, report.holds == holds == _holds(
        (report.constants["sampled_sup"], bound)), report)


def _verdict(claims: list) -> bool:
    """True only when every observed outcome matches the claimed one."""
    return all(c["matches"] for c in claims)


#: The (center, radius) balls of the operator-norm family
_BALLS = [(c, r) for c in ((0.0, 0.0), (2.0, 0.0), (4.0, 1.0), (-3.0, 2.0),
                           (1.0, -2.0)) for r in (0.5, 1.0)]


def _ball_maxima(dim: int, radii: list, resolution: float, balls: list):
    """For each R in ``radii`` and (center, radius) in ``balls``, the ball's
    indicator on R's truncation grid at resolution / 2 cells per unit
    length (int(resolution * R) cells per axis), centered at the first
    ``dim`` coordinates; and their maximal functions."""
    with _at("/resolution"):
        grids = [_truncation_grid(dim, R, resolution / 2) for R in radii]
    fam = [GridFunction.indicator_ball(c[:dim], r, box, n)
           for box, n in grids for c, r in balls]
    return fam, _maximal_family(fam)


def _run_ex3_2(resolution: float, seed: int) -> tuple:
    phi = make_family("example_3_2", {}, None)
    G = region_from_dict({"region": "inv_square_strip"})
    h = WeightFunction.indicator(G)
    claims = [_claim(name, rep.holds, rep) for name, rep in (
        ("A0 with beta = 1", check_a0(phi)),
        ("A1' with beta = 1", check_a1(phi, seed)),
        ("A2 against t^2 with h = chi_G, beta = 1",
         check_a2(phi, power_curve(2.0), h, beta=1.0)),
    )]
    # on the region, small values grow only linearly: no aInc_p for p > 1
    gx = np.linspace(1.0, 10.0, 12)
    A = np.column_stack([gx, np.zeros_like(gx)])
    claims += [_bounded(f"aInc_{p} fails on region x (0,1] with ratio > 1e6",
                        check_ainc(phi, p, A=A, T=(0.0, 1.0), spec=_DEEP), 1e6,
                        holds=False) for p in (1.1, 1.5, 2.0)]
    # bounded M: norm ratios stable across truncations, one family at a time
    ratios = {R: _norm_ratios(phi, *_ball_maxima(2, [R], resolution, _BALLS))
              [0]["ratios"] for R in (8.0, 16.0, 32.0)}
    arr = np.array(list(ratios.values()))
    spread = float(np.max(np.ptp(arr, axis=0) / arr.min(axis=0)))
    claims.append(_claim("operator-norm ratios stable within 20% "
                         "across truncation radii", spread <= 0.2,
                         {"ratios": {str(k): v for k, v in ratios.items()},
                          "max_spread": spread}))
    return phi.to_dict(), claims


def _run_ex3_4(resolution: float, seed: int) -> tuple:
    phi = make_family("example_3_4", {}, None)
    claims = [_claim(name, rep.holds, rep) for name, rep in (
        ("A0", check_a0(phi)),
        ("A1' with beta = 1", check_a1(phi, seed)),
        ("A2 against t with h = 0, beta = 1/2",
         check_a2(phi, power_curve(1.0), WeightFunction.zero(), beta=0.5)),
    )]
    claims.append(_bounded("aInc_2 on [1, inf) with constant <= 2",
                           check_ainc(phi, 2.0, T=(1.0, math.inf)), 2.0))
    rep = check_ainc(phi, 1.5, T=(0.0, 1.0), spec=_DEEP)
    claims.append(_claim("aInc_1.5 fails on (0, 1]", rep.holds, rep,
                         expected=False))
    # divergence: modular of M(chi_ball) grows like log R, ratios grow
    radii = [8.0, 16.0, 32.0, 64.0]
    fam, maxes = _ball_maxima(2, radii, resolution, [((0.0, 0.0), 1.0)])
    ratios, growth = _norm_ratios(phi, fam, maxes, radii)
    log_fit = (growth.get("r_squared", 0.0) >= 0.98
               and growth.get("slope_vs_log_radius", 0.0) > 0)
    claims.append(_claim("modular of Mf grows like log R (R^2 >= 0.98)",
                         log_fit, growth))
    claims.append(_claim("norm ratios grow with truncation (unbounded "
                         "evidence)", ratios["unbounded_evidence"], ratios))
    # pointwise asymptotics of M(chi_ball)
    R = 32.0
    Mf = maxes[radii.index(R)]
    rad = np.linalg.norm(Mf.points(), axis=1)
    sel = (rad >= 2.0) & (rad <= R / 2.0)
    prod = Mf.values.ravel()[sel] * (rad[sel] + 1.0) ** 2
    in_box = _holds((1.0 / 8.0, prod), (prod, 8.0))
    claims.append(_claim("Mf(x) (|x|+1)^2 within [1/8, 8] on 2 <= |x| <= R/2",
                         in_box, {"min": float(prod.min()),
                                  "max": float(prod.max()), "R": R}))
    return phi.to_dict(), claims


def _run_ex3_5(resolution: float, seed: int) -> tuple:
    phi = make_family("example_3_5", {}, None)
    h = WeightFunction.recip_power(4.0, 2)
    t2 = from_curve(power_curve(2.0), dim=2)
    claims = [_claim(name, rep.holds, rep) for name, rep in (
        ("A0 with beta = 1", check_a0(phi)),
        ("A1' with beta = 1", check_a1(phi, seed)),
        ("A2 against t^2 with h = (|x|+1)^-4, beta = 1",
         check_a2(phi, power_curve(2.0), h, beta=1.0)),
        ("weakly equivalent to t^2 with h, L = 1",
         check_weak_equivalence(phi, t2, L=1.0, h=h)),
    )]
    # the sandwich t^2 <= phi <= t^2 + h(x), checked on the default lattice
    # by the checkers' rule
    X = default_x_samples(phi.domain)
    grid = SampleSpec().t_grid()
    vals = phi.eval_grid(X, grid)
    lo = grid[None, :] ** 2
    sandwich = _holds((lo, vals), (vals, lo + h.many(X)[:, None]))
    claims.append(_claim("t^2 <= phi <= t^2 + h at all samples", sandwich,
                         {"n_x": len(X)}))
    return phi.to_dict(), claims


def _run_ex4_6(resolution: float, seed: int) -> tuple:
    phi = make_family("example_4_6", {}, None)
    rep = check_a0(phi)
    claims = [_claim("A0", rep.holds, rep)]
    for eps in (0.25, 0.5):
        A = np.linspace(-2.0 + eps + 1e-9, 2.0 - eps - 1e-9, 41).reshape(-1, 1)
        claims.append(_bounded(f"aInc_{1 + eps} on the eps = {eps} interior "
                               "with constant <= 10",
                               check_ainc(phi, 1.0 + eps, A=A), 10.0))
    A_edge = np.concatenate([np.linspace(-1.999999, -1.9, 30),
                             np.linspace(1.9, 1.999999, 30)]).reshape(-1, 1)
    deep = SampleSpec(t_min=1e-80)
    claims += [_bounded(f"aInc_{p} fails on the whole interval with ratio > 1e3",
                        check_ainc(phi, p, A=A_edge, spec=deep), 1e3,
                        holds=False) for p in (1.05, 1.1)]
    return phi.to_dict(), claims


def _run_dp_cor49(resolution: float, seed: int) -> tuple:
    """Double phase t^p + a(x) t^q: boundedness of the maximal operator
    forces p > 1.  The p = 1 instance fails almost-increase at small t for
    its asymptote t^p; any p > 1 instance passes."""
    a_field = {"field": "abs_power", "coef": 1.0, "offset": 1.0,
               "power": -1.0}  # a(x) = 1/(|x|+1), bounded by 1
    h0 = WeightFunction.zero()
    claims = []
    instances = {}
    for p, q in ((1.0, 2.0), (1.5, 3.0)):
        phi = make_family("double_phase", {"p": p, "q": q, "a": a_field}, None)
        instances[f"p={p}"] = phi.to_dict()
        beta = (1.0 / 2.0) ** (1.0 / p)  # beta^p (1 + a_max) = 1
        for name, rep in ((f"p={p}: A0", check_a0(phi)),
                          (f"p={p}: A2 against t^{p} with h = 0",
                           check_a2(phi, power_curve(p), h0, beta=beta))):
            claims.append(_claim(name, rep.holds, rep))
        small = check_ainc(power_curve(p), 1.0 + 0.25 * (p - 1.0) if p > 1
                           else 1.05, T=(0.0, 1.0), spec=_DEEP)
        claims.append(_claim(f"p={p}: asymptote t^{p} almost-increases "
                             "at small t for some exponent > 1 "
                             "(necessary for a bounded maximal operator)",
                             small.holds, small, expected=p > 1.0))
    return instances, claims


#: Each runner returns its bundle's phi document and claims.
_RUNNERS = {
    "ex3_2": _run_ex3_2,
    "ex3_4": _run_ex3_4,
    "ex3_5": _run_ex3_5,
    "ex4_6": _run_ex4_6,
    "dp_cor49": _run_dp_cor49,
}

EXAMPLE_NAMES = tuple(_RUNNERS)


def run_example(name: str, resolution: float = 8.0, seed: int = 0) -> dict:
    """Run a named example bundle; its grids lay ``int(resolution * R)``
    cells per axis on ``(-R, R)``.  An unknown name, a seed that is not a
    non-negative integer, or a resolution that leaves some grid no cell
    or no finite count, raises :class:`SpecError`."""
    if name not in _RUNNERS:
        raise SpecError("/name", f"unknown example {name!r}; "
                                 f"choose from {sorted(_RUNNERS)}")
    with _at("/seed"):
        _seed(seed)
    try:
        phi, claims = _RUNNERS[name](resolution, seed)
    except SpecError:
        raise
    except Exception as exc:  # noqa: BLE001 - bundles must not crash
        return {"schema": BUNDLE_SCHEMA, "name": name, "claims": [],
                "verdict": False,
                "errored": {"stage": name, "error": f"{type(exc).__name__}: {exc}"}}
    return {"schema": BUNDLE_SCHEMA, "name": name, "phi": phi,
            "claims": claims, "verdict": _verdict(claims)}


# ---------------------------------------------------------------------------
# Declarative pipelines


def _build_phi(spec):
    """Build a PhiFunction from a phi document, a make spec or a transform
    pipeline, returning (phi, transform_records)."""
    if not (isinstance(spec, dict) and "pipeline" in spec):
        return PhiFunction.from_dict(spec), []
    with _Reader(spec) as r:
        steps = r("pipeline", _list)
    phi, records = None, []
    for i, step in enumerate(steps):
        with _at(f"/pipeline/{i}"), _Reader(step) as r:
            made = r("make", _phi_spec, None)
            if made is not None:
                phi = made
                continue
            op = r("transform")
            if phi is None:
                raise SpecError("", "transform before any make step")
            phi, record = transforms._step(op, phi, r)
            records.append(record)
    if phi is None:
        raise SpecError("/pipeline", "pipeline produced no function")
    return phi, records


def _phi_spec(spec) -> PhiFunction:
    """The function of a phi spec, without the transform records."""
    return _build_phi(spec)[0]


def _sample_spec(r: _Reader) -> SampleSpec:
    """The ``t_min`` and ``t_max`` of a check spec; a span with no t in
    it fails at ``/t_max``."""
    t_min = r("t_min", _positive, SampleSpec.t_min)
    t_max = r("t_max", _positive, SampleSpec.t_max)
    with _at("/t_max"):
        return SampleSpec(t_min, t_max)


def _check_call(phi, r: _Reader):
    """The run of one check spec (a pipeline's ``checks`` entry, or the
    CLI ``check`` flags) on ``phi``, its fields read; sampling defaults are
    SampleSpec's, and only ainc and adec read a range."""
    cond = r("condition")
    if cond in ("ainc", "adec"):
        check = check_ainc if cond == "ainc" else check_adec
        return partial(check, phi, r("p" if cond == "ainc" else "q", _finite),
                       A=r("A", _points(phi.domain.dim), None),
                       T=r("T", _t_range, (0.0, math.inf)),
                       spec=_sample_spec(r))
    if cond == "a0":
        return partial(check_a0, phi)
    if cond == "a1":
        return partial(check_a1, phi, r("seed", _seed, 0))
    if cond == "a2":
        pair = r("pair", transforms.AsymptotePair.from_dict)
        return partial(check_a2, phi, pair.phi_inf, pair.h, pair.beta, pair.s)
    if cond in ("equivalence", "weak_equivalence"):
        other = r("other", _phi_spec)
        L = r("L", lambda v: float(_positive(v)), 1.0)
        if cond == "equivalence":
            return partial(check_equivalence, phi, other, L)
        return partial(check_weak_equivalence, phi, other, L,
                       r("h", weight_from_dict, WeightFunction.zero()))
    raise SpecError("/condition", f"unknown condition {cond!r}")


def _grid_from_spec(d, box, resolution: int) -> GridFunction:
    """``{"const": c}``, or else ``{"ball": {"center": .., "radius": ..}}``,
    on ``box`` with ``resolution`` cells per axis."""
    def ball(b):
        with _Reader(b) as r:
            radius, center = r("radius", _positive), r("center", _point(len(box)))
            return GridFunction.indicator_ball(center, radius, box, resolution)

    with _Reader(d) as r:
        c = r("const", _finite, None)
        if c is None:
            return r("ball", ball)
        return GridFunction(box, float(c) * np.ones((resolution,) * len(box)))


def _experiment_call(phi, r: _Reader, resolution: float):
    """The run of one experiment spec on ``phi``, its fields read."""
    kind = r("experiment")
    dim = phi.domain.dim

    def truncation(v) -> float:  # a radius R with a truncation grid
        _truncation_grid(dim, _positive(v), resolution / 2)
        return float(v)

    def truncations(key: str, parse, default):  # a default is read as given
        with _at(f"/{key}"):
            return parse(r(key, None, default))

    if kind == "maximal-divergence":
        radii = truncations("radii", _increasing(truncation), [8, 16, 32])
        ball = (r("center", _point(dim), [0.0] * dim),
                r("ball_radius", _positive, 1.0))

        def divergence():
            ratios, growth = _norm_ratios(
                phi, *_ball_maxima(dim, radii, resolution, [ball]), radii)
            return {"experiment": kind, "modular_growth": growth,
                    "operator_norm": ratios}
        return divergence
    if kind == "operator-norm":
        R = truncations("truncation_radius", truncation, 16)
        return lambda: {"experiment": kind, "report": _norm_ratios(
            phi, *_ball_maxima(dim, [R], resolution, _BALLS))[0]}
    if kind == "ball-norm":
        center, radius = r("center", _point(dim)), r("radius", _positive)
        cells = r("cells", _cells, 256)
        return lambda: {"experiment": kind, "report": ball_norm_check(
            phi, center, radius, resolution=cells)}
    if kind == "duality":
        box, n = _truncation_grid(
            dim, truncations("truncation_radius", truncation, 1), resolution / 2)
        f, g = (r(k, partial(_grid_from_spec, box=box, resolution=n))
                for k in "fg")
        return lambda: {"experiment": kind,
                        "report": duality_lower_bound(phi, f, g)}
    raise SpecError("/experiment", f"unknown experiment {kind!r}")


def run_pipeline(spec: dict, resolution: float = 8.0,
                 seed: int = 0) -> dict:
    """Execute transforms, then checks, then experiments, in order.

    ``spec`` follows the experiment-spec schema; violations raise
    :class:`SpecError` with a JSON pointer to the offending field.
    """
    with _at("/seed"):
        _seed(seed)
    with _Reader(spec) as r:
        name = r("name", _name, "pipeline")
        phi, transform_records = r("phi", _build_phi)
        checks = r("checks", _list, [])
        experiments = r("experiments", _list, [])
    bundle = {"schema": BUNDLE_SCHEMA, "name": name, "phi": phi.to_dict(),
              "transforms": transform_records, "checks": [],
              "experiments": [], "seed": seed}
    for i, chk in enumerate(checks):
        with _at(f"/checks/{i}"), _Reader(chk) as r:
            expected = r("expect", _boolean, True)
            label = r("label", _string, None)
            rep = r.run(_check_call(phi, r))
            bundle["checks"].append(_claim(
                r("condition") if label is None else label, rep.holds, rep,
                expected=expected))
    for i, exp in enumerate(experiments):
        with _at(f"/experiments/{i}"), _Reader(exp) as r:
            bundle["experiments"].append(
                r.run(_experiment_call(phi, r, resolution)))
    bundle["verdict"] = _verdict(bundle["checks"])
    return bundle
