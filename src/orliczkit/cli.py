"""Command-line front door.

Subcommands: ``check`` (condition checkers), ``transform`` (constructive
modifications), ``norm`` (modular and Luxemburg norm), ``maximal``
(discretized maximal operator), ``example`` (named reproduction bundles),
``pipeline`` (declarative experiment specs).  Every run prints one JSON
report and writes it under the output directory (``--out`` or the
``ORLICZKIT_OUT`` environment variable).

Exit codes: 0 verdict/expectation met, 1 mismatch, 2 usage or parse
error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import transforms
from .phi_core import PhiCurve, PhiFunction, make_family, region_from_dict
from .conditions import SampleSpec, _jsonable, check_a0, check_a1, \
    check_a2, check_adec, check_ainc, check_equivalence, \
    check_weak_equivalence, weight_from_dict
from .norms import GridFunction, luxemburg_norm, modular
from .maximal import MaximalConfig, default_config, maximal
from .gallery import EXAMPLE_NAMES, SpecError, run_example, run_pipeline

OUT_ENV = "ORLICZKIT_OUT"


class UsageError(ValueError):
    pass


def _load_json(arg: str, what: str):
    """Inline JSON or @path."""
    try:
        if arg.startswith("@"):
            with open(arg[1:]) as fh:
                return json.load(fh)
        return json.loads(arg)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot parse {what}: {exc}") from exc


def _load_phi(arg: str) -> PhiFunction:
    d = _load_json(arg, "phi spec")
    try:
        if "kind" in d and "params" in d and "schema" in d:
            return PhiFunction.from_dict(d)
        return make_family(d["kind"], d.get("params", {}), None)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"invalid phi spec: {exc}") from exc


def _emit(report: dict, args, name: str) -> None:
    out_dir = args.out or os.environ.get(OUT_ENV)
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2)
    print(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
            fh.write(text + "\n")


def _grid_function(args, dim: int) -> GridFunction:
    R = args.truncation_radius
    box = tuple((-R, R) for _ in range(dim))
    n = max(int(args.resolution * 2 * R), 8)
    if args.function:
        d = _load_json(args.function, "grid function spec")
        if "ball" in d:
            return GridFunction.indicator_ball(
                d["ball"]["center"], d["ball"]["radius"], box, n)
        if "const" in d:
            return GridFunction(box, float(d["const"]) * np.ones((n,) * dim))
        raise UsageError("grid function spec needs 'ball' or 'const'")
    try:
        if args.csv:
            return GridFunction.from_csv(args.csv, box, n)
        if args.binary:
            return GridFunction.from_binary(args.binary)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read grid function: {exc}") from exc
    raise UsageError("provide --function, --csv, or --binary")


# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    phi = _load_phi(args.phi)
    spec = SampleSpec(t_min=args.t_min, t_max=args.t_max, seed=args.seed)
    T = (args.t_range[0], math.inf if args.t_range[1] in ("inf", None)
         else float(args.t_range[1]))
    cond = args.condition
    if cond == "ainc":
        if args.p is None:
            raise UsageError("--p is required for ainc")
        rep = check_ainc(phi, args.p, T=(float(T[0]), T[1]), spec=spec)
    elif cond == "adec":
        if args.q is None:
            raise UsageError("--q is required for adec")
        rep = check_adec(phi, args.q, T=(float(T[0]), T[1]), spec=spec)
    elif cond == "a0":
        rep = check_a0(phi, spec)
    elif cond == "a1":
        rep = check_a1(phi, spec)
    elif cond == "a2":
        if not args.pair:
            raise UsageError("--pair is required for a2")
        pair = transforms.AsymptotePair.from_dict(_load_json(args.pair, "pair"))
        rep = check_a2(phi, pair.phi_inf, pair.h, pair.beta, pair.s, spec)
    elif cond in ("equivalence", "weak-equivalence"):
        if not args.other:
            raise UsageError("--other is required")
        other = _load_phi(args.other)
        if cond == "equivalence":
            rep = check_equivalence(phi, other, args.L, spec)
        else:
            h = weight_from_dict(_load_json(args.h, "weight")) if args.h \
                else weight_from_dict({"weight": "zero"})
            rep = check_weak_equivalence(phi, other, args.L, h, spec)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown condition {cond}")
    _emit(rep.to_dict(), args, f"check-{cond}")
    want_holds = args.expect == "holds"
    return 0 if rep.holds == want_holds else 1


def _cmd_transform(args) -> int:
    phi = _load_phi(args.phi) if args.phi else None
    curve = PhiCurve.from_dict(_load_json(args.phi_inf, "curve")) \
        if args.phi_inf else None
    op = args.op
    if op == "glue_small_values":
        region = region_from_dict(_load_json(args.region, "region"))
        out = transforms.glue_small_values(phi, region, args.p).to_dict()
    elif op == "small_value_threshold":
        out = {"t1": transforms.small_value_threshold(phi, curve)}
    elif op == "cap_curve":
        out = transforms.cap_curve(curve, args.beta0).to_dict()
    elif op == "repair_asymptote":
        out = transforms.repair_asymptote(curve, args.t1, args.p).to_dict()
    elif op == "rebuild_with_ainc":
        pair = transforms.AsymptotePair.from_dict(_load_json(args.pair, "pair"))
        t1 = args.t1 if args.t1 is not None else \
            transforms.small_value_threshold(phi, pair.phi_inf)
        out = transforms.rebuild_with_ainc(phi, pair, t1).to_dict()
        out = {"t1": t1, "result": out}
    elif op == "tail_asymptotes":
        est = transforms.tail_asymptotes(phi)
        out = {"upper": est.upper.to_dict(), "lower": est.lower.to_dict(),
               "converged": est.converged, "flags": list(est.flags)}
    else:  # pragma: no cover
        raise UsageError(f"unknown transform {op}")
    _emit(out, args, f"transform-{op}")
    return 0


def _cmd_norm(args) -> int:
    phi = _load_phi(args.phi)
    f = _grid_function(args, phi.domain.dim)
    report = {
        "modular": modular(phi, f),
        "luxemburg_norm": luxemburg_norm(phi, f),
        "cells": list(f.resolution),
        "box": [list(side) for side in f.box],
    }
    _emit(report, args, "norm")
    return 0


def _cmd_maximal(args) -> int:
    phi = _load_phi(args.phi) if args.phi else None
    dim = phi.domain.dim if phi else args.dim
    f = _grid_function(args, dim)
    cfg = default_config(f)
    if args.radii:
        cfg = MaximalConfig(tuple(float(r) for r in args.radii.split(",")),
                            center_stride=args.stride or cfg.center_stride)
    elif args.stride:
        cfg = MaximalConfig(cfg.radius_set, center_stride=args.stride)
    Mf = maximal(f, cfg)
    report = {
        "radius_set": list(cfg.radius_set),
        "center_stride": cfg.center_stride,
        "max_value": float(Mf.values.max()),
    }
    if phi is not None:
        report["norm_f"] = luxemburg_norm(phi, f)
        report["norm_Mf"] = luxemburg_norm(phi, Mf)
    out_dir = args.out or os.environ.get(OUT_ENV)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        Mf.to_csv(os.path.join(out_dir, "maximal.csv"))
        Mf.to_binary(os.path.join(out_dir, "maximal.bin"))
        report["outputs"] = [os.path.join(out_dir, "maximal.csv"),
                             os.path.join(out_dir, "maximal.bin")]
    _emit(report, args, "maximal")
    return 0


def _cmd_example(args) -> int:
    bundle = run_example(args.name, resolution=args.resolution,
                         seed=args.seed)
    _emit(bundle, args, f"example-{args.name}")
    if "errored" in bundle:
        return 3
    return 0 if bundle["verdict"] else 1


def _cmd_pipeline(args) -> int:
    spec = _load_json("@" + args.spec if not args.spec.lstrip().startswith("{")
                      else args.spec, "pipeline spec")
    bundle = run_pipeline(spec, resolution=args.resolution, seed=args.seed)
    _emit(bundle, args, f"pipeline-{bundle['name']}")
    return 0 if bundle["verdict"] else 1


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="orliczkit",
        description="Numerical toolkit for generalized Orlicz growth "
                    "functions")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--resolution", type=float, default=8.0,
                        help="grid cells per unit length")
    common.add_argument("--truncation-radius", type=float, default=16.0,
                        help="half side of the truncated box")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None,
                        help=f"output directory (default ${OUT_ENV})")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="run a condition checker")
    p.add_argument("--phi", required=True, help="phi spec (JSON or @file)")
    p.add_argument("--condition", required=True,
                   choices=["ainc", "adec", "a0", "a1", "a2",
                            "equivalence", "weak-equivalence"])
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--pair", help="asymptote pair (JSON or @file)")
    p.add_argument("--other", help="second phi spec")
    p.add_argument("--h", help="weight spec (JSON)")
    p.add_argument("--t-range", nargs=2, default=(0.0, "inf"),
                   metavar=("LO", "HI"))
    p.add_argument("--t-min", type=float, default=1e-4)
    p.add_argument("--t-max", type=float, default=1e4)
    p.add_argument("--expect", choices=["holds", "fails"], default="holds")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("transform", parents=[common],
                       help="apply a constructive transform")
    p.add_argument("--op", required=True,
                   choices=["glue_small_values", "small_value_threshold",
                            "cap_curve", "repair_asymptote",
                            "rebuild_with_ainc", "tail_asymptotes"])
    p.add_argument("--phi")
    p.add_argument("--phi-inf", help="curve spec (JSON or @file)")
    p.add_argument("--region")
    p.add_argument("--pair")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--t1", type=float)
    p.add_argument("--beta0", type=float, default=1.0)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("norm", parents=[common],
                       help="modular and Luxemburg norm of a grid function")
    p.add_argument("--phi", required=True)
    p.add_argument("--function", help='e.g. {"ball": {"center": [0,0], '
                                      '"radius": 1}}')
    p.add_argument("--csv", help="read values from a CSV grid dump")
    p.add_argument("--binary", help="read a binary grid dump")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("maximal", parents=[common],
                       help="discretized maximal operator")
    p.add_argument("--phi")
    p.add_argument("--dim", type=int, default=2, choices=[1, 2])
    p.add_argument("--function")
    p.add_argument("--csv")
    p.add_argument("--binary")
    p.add_argument("--radii", help="comma-separated radius ladder")
    p.add_argument("--stride", type=int)
    p.set_defaults(func=_cmd_maximal)

    p = sub.add_parser("example", parents=[common],
                       help="reproduce a named example bundle")
    p.add_argument("name", choices=list(EXAMPLE_NAMES))
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("pipeline", parents=[common],
                       help="run a declarative experiment spec")
    p.add_argument("spec", help="path to a spec JSON file (or inline JSON)")
    p.set_defaults(func=_cmd_pipeline)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - contractually exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
