"""Command-line front door.

Subcommands: ``check`` (condition checkers), ``transform`` (constructive
modifications), ``norm`` (modular and Luxemburg norm), ``maximal``
(discretized maximal operator), ``example`` (named reproduction bundles),
``pipeline`` (declarative experiment specs).  Every run prints one JSON
report and writes it under the output directory (``--out``, else
``$ORLICZKIT_OUT`` read at the call).  A subcommand takes ``--seed``,
``--resolution`` and ``--truncation-radius`` only if it reads them, from
one parser built per process.

The flags of ``check`` and of ``transform`` are one check or transform
step of a pipeline spec, read by the same reader.  Exit codes: 0 verdict
or expectation met, 1 mismatch, 3 internal error, 2 usage or spec error,
printed as ``error: <pointer>: <message>`` with the bad flag or field as
pointer (``--radii``, ``--function/ball``, ``/pair``).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from functools import cache, partial
from pathlib import Path

from . import transforms
from .phi_core import PhiCurve, SpecError, _at, _finite, _positive, \
    _Reader, _seed
from .conditions import _jsonable
from .norms import GridFunction, _luxemburg_norms, _truncation_grid
from .maximal import MaximalConfig, default_config, maximal
from .gallery import EXAMPLE_NAMES, _check_call, _grid_from_spec, \
    _phi_spec, run_example, run_pipeline

OUT_ENV = "ORLICZKIT_OUT"


def _json_flag(arg, flag: str, parse=None):
    """The inline JSON or @path given to ``flag``, through ``parse``, with
    failures pointing at the flag; None when the flag is not given."""
    if arg is None:
        return None
    try:
        with open(arg[1:]) if arg.startswith("@") else io.StringIO(arg) as fh:
            d = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SpecError(flag, f"cannot parse JSON: {exc}") from exc
    with _at(flag):
        return parse(d) if parse else d


def _phi(arg):
    """The phi document, make spec or pipeline spec given to --phi."""
    return _json_flag(arg, "--phi", _phi_spec)


def positive(text: str) -> float:  # argparse names it in its messages
    return _positive(float(text))


def _given(**kw) -> dict:
    """The flags given: each default lives with the code that reads it."""
    return {k: v for k, v in kw.items() if v is not None}


def _write(args, name: str, write):
    """``write(path)`` for ``name`` in the output directory (--out, else
    $ORLICZKIT_OUT read now), made first; None when neither names one."""
    out = os.environ.get(OUT_ENV) if args.out is None else args.out
    if not out:
        return None
    path = os.path.join(out, name)
    try:
        os.makedirs(out, exist_ok=True)
        write(path)
    except OSError as exc:
        raise SpecError("--out", f"cannot write: {exc}") from exc
    return path


def _emit(report: dict, args, name: str) -> None:
    """Write the report under the output directory, then print it."""
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2)
    _write(args, f"{name}.json",
           lambda path: Path(path).write_text(text + "\n"))
    print(text)


def _phi_and_grid(args, dim=None) -> tuple:
    """--phi and the grid function of the one of --function, --csv and
    --binary given; the first two lay it on phi's dimension, or on ``dim``
    (--dim, default 2), which phi's must equal, and a binary grid must
    have it when phi is given."""
    phi = _phi(args.phi)
    if phi is not None and dim not in (None, phi.domain.dim):
        raise SpecError("--dim", f"expected {phi.domain.dim} (--phi's "
                                 f"dimension), got {dim}")
    dim = phi.domain.dim if phi else dim or 2
    sources = [s for s in ("function", "csv", "binary")
               if getattr(args, s) is not None]
    if len(sources) != 1:
        raise SpecError(f"--{sources[1]}" if sources else "--function",
                        "give one of --function, --csv and --binary")
    R = args.truncation_radius
    # the radius is at fault when the box's side 2R is past the largest float
    with _at("--truncation-radius" if math.isinf(2.0 * R) else "--resolution"):
        box, n = _truncation_grid(dim, R, args.resolution, least=8)
    if args.function is not None:
        return phi, _json_flag(args.function, "--function",
                               partial(_grid_from_spec, box=box, resolution=n))
    flag, path = ("--csv", args.csv) if args.csv is not None \
        else ("--binary", args.binary)
    try:
        f = GridFunction.from_csv(path, box, n) if args.csv is not None \
            else GridFunction.from_binary(path)
    except (OSError, ValueError) as exc:
        raise SpecError(flag, f"cannot read grid function: {exc}") from exc
    if phi is not None and f.dim != dim:
        raise SpecError(flag, f"grid function has {f.dim} axes, phi's "
                              f"domain has {dim}")
    return phi, f


# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    """The flags are one check spec of a pipeline (docs/file_formats.md),
    so a flag the condition does not read fails at its field."""
    chk = _given(condition=args.condition.replace("-", "_"), p=args.p,
                 q=args.q, L=args.L, pair=_json_flag(args.pair, "--pair"),
                 other=_json_flag(args.other, "--other"),
                 h=_json_flag(args.h, "--h"), t_min=args.t_min,
                 t_max=args.t_max, seed=args.seed)
    if args.t_range:
        with _at("/T"):  # "inf" stands for the JSON spec's null
            chk["T"] = [None if v == "inf" else float(v)
                        for v in args.t_range]
    phi, r = _phi(args.phi), _Reader(chk)
    rep = r.run(_check_call(phi, r))
    _emit(rep.to_dict(), args, f"check-{args.condition}")
    return 0 if rep.holds == (args.expect == "holds") else 1


def _cmd_transform(args) -> int:
    """The flags are one transform step (docs/file_formats.md): the
    phi -> phi ops run as a pipeline's steps on --phi, and a flag the op
    does not read fails at its field."""
    op = args.op
    step = _given(phi=_json_flag(args.phi, "--phi"),
                  phi_inf=_json_flag(args.phi_inf, "--phi-inf"),
                  region=_json_flag(args.region, "--region"),
                  pair=_json_flag(args.pair, "--pair"), p=args.p, t1=args.t1,
                  beta0=args.beta0)
    with _Reader(step) as r:
        if op in ("glue_small_values", "rebuild_with_ainc", "tail_asymptotes"):
            psi, record = transforms._step(op, r("phi", _phi_spec), r)
            if op == "glue_small_values":
                out = psi.to_dict()
            elif op == "rebuild_with_ainc":
                out = {"t1": record["t1"], "result": psi.to_dict()}
            else:
                out = {k: v for k, v in record.items() if k != "step"}
        elif op == "small_value_threshold":
            out = {"t1": r.run(partial(
                transforms.small_value_threshold,
                r("phi", _phi_spec),
                r("phi_inf", PhiCurve.from_dict)))}
        elif op == "cap_curve":
            out = r.run(partial(transforms.cap_curve,
                                r("phi_inf", PhiCurve.from_dict),
                                r("beta0", _positive, 1.0))).to_dict()
        else:  # repair_asymptote
            out = r.run(partial(transforms.repair_asymptote,
                                r("phi_inf", PhiCurve.from_dict),
                                r("t1", _positive), r("p", _finite))).to_dict()
    _emit(out, args, f"transform-{op}")
    return 0


def _cmd_norm(args) -> int:
    phi, f = _phi_and_grid(args)
    (norm,), (mod,) = _luxemburg_norms(phi, [f])
    report = {"modular": mod, "luxemburg_norm": norm,
              "cells": list(f.resolution),
              "box": [list(side) for side in f.box]}
    _emit(report, args, "norm")
    return 0


def _cmd_maximal(args) -> int:
    phi, f = _phi_and_grid(args, args.dim)
    cfg = default_config(f)
    if args.radii is not None:
        with _at("--radii"):
            cfg = MaximalConfig(tuple(float(r) for r in args.radii.split(",")),
                                cfg.center_stride)
    if args.stride is not None:
        with _at("--stride"):
            cfg = MaximalConfig(cfg.radius_set, args.stride)
    Mf = maximal(f, cfg)
    report = {"radius_set": list(cfg.radius_set),
              "center_stride": cfg.center_stride,
              "max_value": float(Mf.values.max())}
    if phi is not None:
        report["norm_f"], report["norm_Mf"] = _luxemburg_norms(phi, [f, Mf])[0]
    outputs = [_write(args, "maximal.csv", Mf.to_csv),
               _write(args, "maximal.bin", Mf.to_binary)]
    if outputs[0]:
        report["outputs"] = outputs
    _emit(report, args, "maximal")
    return 0


def _seed_flag(args) -> dict:
    """The --seed flag, if given, checked as the bundle runners check it."""
    with _at("--seed"):
        return {} if args.seed is None else {"seed": _seed(args.seed)}


def _cmd_example(args) -> int:
    bundle = run_example(args.name, resolution=args.resolution,
                         **_seed_flag(args))
    _emit(bundle, args, f"example-{args.name}")
    return 3 if "errored" in bundle else 0 if bundle["verdict"] else 1


def _cmd_pipeline(args) -> int:
    spec = _json_flag(args.spec if args.spec.lstrip().startswith("{")
                      else "@" + args.spec, "spec")
    bundle = run_pipeline(spec, resolution=args.resolution,
                          **_seed_flag(args))
    _emit(bundle, args, f"pipeline-{bundle['name']}")
    return 0 if bundle["verdict"] else 1


# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="orliczkit",
        description="Numerical toolkit for generalized Orlicz growth "
                    "functions")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help=f"output directory (default ${OUT_ENV})")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int)
    bundle = argparse.ArgumentParser(add_help=False, parents=[seeded])
    bundle.add_argument("--resolution", type=positive, default=8.0,
                        help="int(resolution * R) cells per axis on (-R, R)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[seeded],
                       help="run a condition checker")
    p.add_argument("--phi", required=True,
                   help="phi document, make or pipeline spec (JSON or @file)")
    p.add_argument("--condition", required=True,
                   choices=["ainc", "adec", "a0", "a1", "a2",
                            "equivalence", "weak-equivalence"])
    for flag in ("--p", "--q", "--L", "--t-min", "--t-max"):
        p.add_argument(flag, type=float)
    p.add_argument("--pair", help="asymptote pair (JSON or @file)")
    p.add_argument("--other", help="second phi spec")
    p.add_argument("--h", help="weight spec (JSON)")
    p.add_argument("--t-range", nargs=2, metavar=("LO", "HI"))
    p.add_argument("--expect", choices=["holds", "fails"], default="holds")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("transform", parents=[out],
                       help="apply a constructive transform")
    p.add_argument("--op", required=True,
                   choices=["glue_small_values", "small_value_threshold",
                            "cap_curve", "repair_asymptote",
                            "rebuild_with_ainc", "tail_asymptotes"])
    p.add_argument("--phi")
    p.add_argument("--phi-inf", help="curve spec (JSON or @file)")
    p.add_argument("--region")
    p.add_argument("--pair")
    for flag in ("--p", "--t1", "--beta0"):
        p.add_argument(flag, type=float)
    p.set_defaults(func=_cmd_transform)

    grid = argparse.ArgumentParser(add_help=False, parents=[out])
    grid.add_argument("--resolution", type=positive, default=8.0,
                      help="grid cells per unit length (at least 8 per axis)")
    grid.add_argument("--truncation-radius", type=positive, default=16.0,
                      help="half side R of the box (-R, R)^dim")
    grid.add_argument("--function", help='{"ball": {"center": [0, 0], '
                                         '"radius": 1}} or {"const": c}')
    grid.add_argument("--csv", help="read values from a CSV grid dump")
    grid.add_argument("--binary", help="read a binary grid dump")
    p = sub.add_parser("norm", parents=[grid],
                       help="modular and Luxemburg norm of a grid function")
    p.add_argument("--phi", required=True)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("maximal", parents=[grid],
                       help="discretized maximal operator")
    p.add_argument("--phi")
    p.add_argument("--dim", type=int, choices=[1, 2],
                   help="grid dimension without --phi (default 2)")
    p.add_argument("--radii", help="comma-separated radius ladder")
    p.add_argument("--stride", type=int)
    p.set_defaults(func=_cmd_maximal)

    p = sub.add_parser("example", parents=[bundle],
                       help="reproduce a named example bundle")
    p.add_argument("name", choices=list(EXAMPLE_NAMES))
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("pipeline", parents=[bundle],
                       help="run a declarative experiment spec")
    p.add_argument("spec", help="path to a spec JSON file (or inline JSON)")
    p.set_defaults(func=_cmd_pipeline)
    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's usage errors and --help
        return int(exc.code or 0)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - contractually exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
