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

import numpy as np

from . import transforms
from .phi_core import make_family, power_curve, region_from_dict, from_curve
from .conditions import (
    SampleSpec,
    WeightFunction,
    check_a0,
    check_a1,
    check_a2,
    check_adec,
    check_ainc,
    check_equivalence,
    check_weak_equivalence,
)
from .norms import GridFunction, ball_norm_check, duality_lower_bound, \
    luxemburg_norm, modular
from .maximal import maximal, modular_growth, operator_norm_estimate
from .phi_core import PhiFunction

EXAMPLE_NAMES = ("ex3_2", "ex3_4", "ex3_5", "ex4_6", "dp_cor49")

BUNDLE_SCHEMA = "orliczkit-bundle/1"


class SpecError(ValueError):
    """A pipeline spec violation, carrying a JSON pointer to the field."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def _claim(name: str, observed: bool, report, expected: bool = True) -> dict:
    """One claim record; ``report`` is a ConditionReport or a plain dict."""
    rep = report.to_dict() if hasattr(report, "to_dict") else report
    return {"claim": name, "expected": expected, "observed": observed,
            "matches": observed == expected, "report": rep}


def _finish(bundle: dict) -> dict:
    bundle["verdict"] = all(c["matches"] for c in bundle["claims"])
    return bundle


def _ball_family(truncation: float, resolution: float):
    centers = [(0.0, 0.0), (2.0, 0.0), (4.0, 1.0), (-3.0, 2.0), (1.0, -2.0)]
    radii = [0.5, 1.0]
    box = ((-truncation, truncation),) * 2
    n = int(resolution * 2 * truncation) // 2
    return [GridFunction.indicator_ball(c, r, box, n)
            for c in centers for r in radii]


def _run_ex3_2(resolution: float, seed: int) -> dict:
    phi = make_family("example_3_2", {}, None)
    G = region_from_dict({"region": "inv_square_strip"})
    h = WeightFunction.indicator(G)
    claims = [_claim(name, rep.holds, rep) for name, rep in (
        ("A0 with beta = 1", check_a0(phi)),
        ("A1' with beta = 1", check_a1(phi, SampleSpec(seed=seed))),
        ("A2 against t^2 with h = chi_G, beta = 1",
         check_a2(phi, power_curve(2.0), h, beta=1.0)),
    )]
    # on the region, small values grow only linearly: no aInc_p for p > 1
    gx = np.linspace(1.0, 10.0, 12)
    A = np.column_stack([gx, np.zeros_like(gx)])
    deep = SampleSpec(t_min=1e-70, t_max=1.0)
    for p in (1.1, 1.5, 2.0):
        rep = check_ainc(phi, p, A=A, T=(0.0, 1.0), spec=deep)
        big = rep.constants["sampled_sup"] > 1e6
        claims.append(_claim(f"aInc_{p} fails on region x (0,1] with "
                             "ratio > 1e6", (not rep.holds) and big, rep))
    # bounded maximal operator: norm ratios stable across truncations
    ratios = {}
    for R in (8.0, 16.0, 32.0):
        rep = operator_norm_estimate(phi, _ball_family(R, resolution))
        ratios[R] = rep["ratios"]
    arr = np.array([ratios[R] for R in sorted(ratios)])
    spread = float(np.max((arr.max(axis=0) - arr.min(axis=0))
                          / arr.min(axis=0)))
    claims.append(_claim("operator-norm ratios stable within 20% "
                         "across truncation radii", spread <= 0.2,
                         {"ratios": {str(k): v for k, v in ratios.items()},
                          "max_spread": spread}))
    return _finish({"schema": BUNDLE_SCHEMA, "name": "ex3_2",
                    "phi": phi.to_dict(), "claims": claims})


def _run_ex3_4(resolution: float, seed: int) -> dict:
    phi = make_family("example_3_4", {}, None)
    h0 = WeightFunction.zero()
    claims = [_claim(name, rep.holds, rep) for name, rep in (
        ("A0", check_a0(phi)),
        ("A1' with beta = 1", check_a1(phi, SampleSpec(seed=seed))),
        ("A2 against t with h = 0, beta = 1/2",
         check_a2(phi, power_curve(1.0), h0, beta=0.5)),
    )]
    rep = check_ainc(phi, 2.0, T=(1.0, math.inf))
    ok2 = rep.holds and rep.constants["sampled_sup"] <= 2.0 + 1e-9
    claims.append(_claim("aInc_2 on [1, inf) with constant <= 2", ok2, rep))
    rep = check_ainc(phi, 1.5, T=(0.0, 1.0),
                     spec=SampleSpec(t_min=1e-70, t_max=1.0))
    claims.append(_claim("aInc_1.5 fails on (0, 1]", rep.holds, rep,
                         expected=False))
    # divergence: modular of M(chi_ball) grows like log R, ratios grow
    radii = [8.0, 16.0, 32.0, 64.0]
    fam = [GridFunction.indicator_ball(
        [0.0, 0.0], 1.0, ((-R, R), (-R, R)), int(resolution * R))
        for R in radii]
    growth = modular_growth(phi, fam, radii=radii)
    norm_rep = operator_norm_estimate(phi, fam, radii=radii)
    log_fit = (growth.get("r_squared", 0.0) >= 0.98
               and growth.get("slope_vs_log_radius", 0.0) > 0)
    claims.append(_claim("modular of Mf grows like log R (R^2 >= 0.98)",
                         log_fit, growth))
    claims.append(_claim("norm ratios grow with truncation "
                         "(unbounded evidence)",
                         norm_rep["unbounded_evidence"], dict(norm_rep)))
    # pointwise asymptotics of M(chi_ball)
    R = 32.0
    f = GridFunction.indicator_ball([0.0, 0.0], 1.0, ((-R, R), (-R, R)),
                                    int(resolution * R))
    Mf = maximal(f)
    pts = f.points()
    rad = np.linalg.norm(pts, axis=1)
    sel = (rad >= 2.0) & (rad <= R / 2.0)
    prod = Mf.values.ravel()[sel] * (rad[sel] + 1.0) ** 2
    in_box = bool(prod.min() >= 1.0 / 8.0 and prod.max() <= 8.0)
    claims.append(_claim("Mf(x) (|x|+1)^2 within [1/8, 8] on "
                         "2 <= |x| <= R/2", in_box,
                         {"min": float(prod.min()),
                          "max": float(prod.max()), "R": R}))
    return _finish({"schema": BUNDLE_SCHEMA, "name": "ex3_4",
                    "phi": phi.to_dict(), "claims": claims})


def _run_ex3_5(resolution: float, seed: int) -> dict:
    phi = make_family("example_3_5", {}, None)
    h = WeightFunction.recip_power(4.0, 2)
    t2 = from_curve(power_curve(2.0), dim=2)
    claims = [_claim(name, rep.holds, rep) for name, rep in (
        ("A0 with beta = 1", check_a0(phi)),
        ("A1' with beta = 1", check_a1(phi, SampleSpec(seed=seed))),
        ("A2 against t^2 with h = (|x|+1)^-4, beta = 1",
         check_a2(phi, power_curve(2.0), h, beta=1.0)),
        ("weakly equivalent to t^2 with h, L = 1",
         check_weak_equivalence(phi, t2, L=1.0, h=h)),
    )]
    # the sandwich t^2 <= phi <= t^2 + h(x), checked on the default lattice
    spec = SampleSpec()
    from .conditions import default_x_samples
    X = default_x_samples(phi.domain, spec)
    grid = spec.t_grid()
    vals = phi.eval_grid(X, grid)
    lo = grid[None, :] ** 2
    hi = lo + h.many(X)[:, None]
    sandwich = bool(np.all(vals >= lo - 1e-12)
                    and np.all(vals <= hi * (1 + 1e-12) + 1e-12))
    claims.append(_claim("t^2 <= phi <= t^2 + h at all samples", sandwich,
                         {"n_x": len(X)}))
    return _finish({"schema": BUNDLE_SCHEMA, "name": "ex3_5",
                    "phi": phi.to_dict(), "claims": claims})


def _run_ex4_6(resolution: float, seed: int) -> dict:
    phi = make_family("example_4_6", {}, None)
    rep = check_a0(phi)
    claims = [_claim("A0", rep.holds, rep)]
    for eps in (0.25, 0.5):
        A = np.linspace(-2.0 + eps + 1e-9, 2.0 - eps - 1e-9, 41).reshape(-1, 1)
        rep = check_ainc(phi, 1.0 + eps, A=A)
        ok = rep.holds and rep.constants["sampled_sup"] <= 10.0
        claims.append(_claim(f"aInc_{1 + eps} on the eps = {eps} "
                             "interior with constant <= 10", ok, rep))
    A_edge = np.concatenate([np.linspace(-1.999999, -1.9, 30),
                             np.linspace(1.9, 1.999999, 30)]).reshape(-1, 1)
    deep = SampleSpec(t_min=1e-80)
    for p in (1.05, 1.1):
        rep = check_ainc(phi, p, A=A_edge, spec=deep)
        big = rep.constants["sampled_sup"] > 1e3
        claims.append(_claim(f"aInc_{p} fails on the whole interval "
                             "with ratio > 1e3", (not rep.holds) and big, rep))
    return _finish({"schema": BUNDLE_SCHEMA, "name": "ex4_6",
                    "phi": phi.to_dict(), "claims": claims})


def _run_dp_cor49(resolution: float, seed: int) -> dict:
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
                           else 1.05, T=(0.0, 1.0),
                           spec=SampleSpec(t_min=1e-70, t_max=1.0))
        claims.append(_claim(f"p={p}: asymptote t^{p} almost-increases "
                             "at small t for some exponent > 1 "
                             "(necessary for a bounded maximal operator)",
                             small.holds, small, expected=p > 1.0))
    bundle = {"schema": BUNDLE_SCHEMA, "name": "dp_cor49",
              "phi": instances, "claims": claims}
    return _finish(bundle)


_RUNNERS = {
    "ex3_2": _run_ex3_2,
    "ex3_4": _run_ex3_4,
    "ex3_5": _run_ex3_5,
    "ex4_6": _run_ex4_6,
    "dp_cor49": _run_dp_cor49,
}


def run_example(name: str, resolution: float = 8.0, seed: int = 0) -> dict:
    """Run a named example bundle; ``resolution`` is cells per unit length
    for the grid experiments."""
    if name not in _RUNNERS:
        raise SpecError("/name", f"unknown example {name!r}; "
                                 f"choose from {sorted(_RUNNERS)}")
    try:
        return _RUNNERS[name](resolution, seed)
    except SpecError:
        raise
    except Exception as exc:  # noqa: BLE001 - bundles must not crash
        return {"schema": BUNDLE_SCHEMA, "name": name, "claims": [],
                "verdict": False,
                "errored": {"stage": name, "error": f"{type(exc).__name__}: {exc}"}}


# ---------------------------------------------------------------------------
# Declarative pipelines


def _require(d: dict, key: str, pointer: str):
    if not isinstance(d, dict):
        raise SpecError(pointer, "expected an object")
    if key not in d:
        raise SpecError(f"{pointer}/{key}", "missing required field")
    return d[key]


def _build_phi(spec, pointer: str):
    """Build a PhiFunction from a make spec or a transform pipeline,
    returning (phi, transform_records)."""
    records = []
    if isinstance(spec, dict) and "pipeline" not in spec:
        try:
            if "kind" in spec and "params" in spec:
                return PhiFunction.from_dict(spec), records
            kind = _require(spec, "kind", pointer)
            return make_family(kind, spec.get("params", {}), None), records
        except SpecError:
            raise
        except (KeyError, ValueError) as exc:
            raise SpecError(pointer, str(exc)) from exc
    steps = _require(spec, "pipeline", pointer)
    phi = None
    for i, step in enumerate(steps):
        ptr = f"{pointer}/pipeline/{i}"
        if "make" in step:
            phi, _ = _build_phi(step["make"], f"{ptr}/make")
            continue
        op = _require(step, "transform", ptr)
        if phi is None:
            raise SpecError(ptr, "transform before any make step")
        if op == "glue_small_values":
            region = region_from_dict(_require(step, "region", ptr))
            phi = transforms.glue_small_values(phi, region,
                                               _require(step, "p", ptr))
        elif op == "rebuild_with_ainc":
            pair = transforms.AsymptotePair.from_dict(
                _require(step, "pair", ptr))
            t1 = step.get("t1", "auto")
            if t1 == "auto":
                t1 = transforms.small_value_threshold(phi, pair.phi_inf)
            records.append({"step": op, "t1": t1})
            phi = transforms.rebuild_with_ainc(phi, pair, t1)
            continue
        elif op == "tail_asymptotes":
            est = transforms.tail_asymptotes(phi)
            records.append({"step": op, "converged": est.converged,
                            "flags": list(est.flags),
                            "upper": est.upper.to_dict(),
                            "lower": est.lower.to_dict()})
            continue
        else:
            raise SpecError(f"{ptr}/transform", f"unknown transform {op!r}")
        records.append({"step": op})
    if phi is None:
        raise SpecError(f"{pointer}/pipeline", "pipeline produced no function")
    return phi, records


def _run_check(phi, chk: dict, pointer: str):
    cond = _require(chk, "condition", pointer)
    T = tuple(chk.get("T", (0.0, None)))
    T = (float(T[0]), math.inf if T[1] is None else float(T[1]))
    spec = SampleSpec(t_min=chk.get("t_min", 1e-4),
                      t_max=chk.get("t_max", 1e4),
                      seed=chk.get("seed", 0))
    A = np.asarray(chk["A"], float) if "A" in chk else None
    try:
        if cond == "ainc":
            return check_ainc(phi, _require(chk, "p", pointer), A=A, T=T,
                              spec=spec)
        if cond == "adec":
            return check_adec(phi, _require(chk, "q", pointer), A=A, T=T,
                              spec=spec)
        if cond == "a0":
            return check_a0(phi, spec)
        if cond == "a1":
            return check_a1(phi, spec)
        if cond == "a2":
            pair = transforms.AsymptotePair.from_dict(
                _require(chk, "pair", pointer))
            return check_a2(phi, pair.phi_inf, pair.h, pair.beta, pair.s,
                            spec)
        if cond in ("equivalence", "weak_equivalence"):
            other, _ = _build_phi(_require(chk, "other", pointer),
                                  f"{pointer}/other")
            L = float(chk.get("L", 1.0))
            if cond == "equivalence":
                return check_equivalence(phi, other, L, spec)
            pair_h = chk.get("h", {"weight": "zero"})
            from .conditions import weight_from_dict
            return check_weak_equivalence(phi, other, L,
                                          weight_from_dict(pair_h), spec)
    except SpecError:
        raise
    except (KeyError, TypeError) as exc:
        raise SpecError(pointer, str(exc)) from exc
    raise SpecError(f"{pointer}/condition", f"unknown condition {cond!r}")


def _grid_from_spec(d: dict, box, resolution: int,
                    pointer: str) -> GridFunction:
    if "ball" in d:
        b = d["ball"]
        return GridFunction.indicator_ball(
            _require(b, "center", f"{pointer}/ball"),
            _require(b, "radius", f"{pointer}/ball"), box, resolution)
    if "const" in d:
        shape = (resolution,) * len(box)
        return GridFunction(box, float(d["const"]) * np.ones(shape))
    raise SpecError(pointer, "unknown grid function spec")


def _run_experiment(phi, exp: dict, pointer: str, resolution: float,
                    seed: int) -> dict:
    kind = _require(exp, "experiment", pointer)
    if kind == "maximal-divergence":
        radii = [float(r) for r in exp.get("radii", (8.0, 16.0, 32.0))]
        fam = [GridFunction.indicator_ball(
            exp.get("center", [0.0] * phi.domain.dim),
            exp.get("ball_radius", 1.0),
            tuple((-R, R) for _ in range(phi.domain.dim)),
            int(resolution * R)) for R in radii]
        out = {"experiment": kind,
               "modular_growth": modular_growth(phi, fam, radii=radii),
               "operator_norm": operator_norm_estimate(phi, fam, radii=radii)}
        return out
    if kind == "operator-norm":
        R = float(exp.get("truncation_radius", 16.0))
        fam = _ball_family(R, resolution)
        return {"experiment": kind,
                "report": operator_norm_estimate(phi, fam)}
    if kind == "ball-norm":
        return {"experiment": kind,
                "report": ball_norm_check(
                    phi, _require(exp, "center", pointer),
                    _require(exp, "radius", pointer),
                    resolution=exp.get("cells", 256))}
    if kind == "duality":
        R = float(exp.get("truncation_radius", 1.0))
        box = tuple((-R, R) for _ in range(phi.domain.dim))
        n = int(resolution * R)
        f = _grid_from_spec(_require(exp, "f", pointer), box, n,
                            f"{pointer}/f")
        g = _grid_from_spec(_require(exp, "g", pointer), box, n,
                            f"{pointer}/g")
        return {"experiment": kind,
                "report": duality_lower_bound(phi, f, g)}
    raise SpecError(f"{pointer}/experiment", f"unknown experiment {kind!r}")


def run_pipeline(spec: dict, resolution: float = 8.0,
                 seed: int = 0) -> dict:
    """Execute transforms, then checks, then experiments, in order.

    ``spec`` follows the experiment-spec schema; violations raise
    :class:`SpecError` with a JSON pointer to the offending field.
    """
    if not isinstance(spec, dict):
        raise SpecError("", "spec must be a JSON object")
    name = spec.get("name", "pipeline")
    phi, transform_records = _build_phi(_require(spec, "phi", ""), "/phi")
    bundle = {"schema": BUNDLE_SCHEMA, "name": name, "phi": phi.to_dict(),
              "transforms": transform_records, "checks": [],
              "experiments": [], "seed": seed}
    for i, chk in enumerate(spec.get("checks", ())):
        rep = _run_check(phi, chk, f"/checks/{i}")
        bundle["checks"].append(
            _claim(chk.get("label", chk.get("condition", "check")), rep.holds,
                   rep, expected=bool(chk.get("expect", True))))
    for i, exp in enumerate(spec.get("experiments", ())):
        bundle["experiments"].append(
            _run_experiment(phi, exp, f"/experiments/{i}", resolution, seed))
    bundle["verdict"] = all(c["matches"] for c in bundle["checks"])
    return bundle
