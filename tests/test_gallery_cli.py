import contextlib
import copy
import importlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import orliczkit
from orliczkit import GridFunction, PhiCurve, SpecError, WeightFunction, \
    power_curve, run_example, run_pipeline
from orliczkit.cli import main

_cli = importlib.import_module("orliczkit.cli")


# ---------------------------------------------------------------------------
# Example bundles (the heavyweight ex3_2/ex3_4 bundles run in the
# acceptance suite; here we cover the fast ones and the plumbing)


@pytest.mark.parametrize("name", ["dp_cor49", "ex4_6", "ex3_5"])
def test_fast_examples_pass(name):
    bundle = run_example(name)
    assert bundle["verdict"] is True
    assert bundle["schema"] == "orliczkit-bundle/1"
    assert all(c["matches"] for c in bundle["claims"])
    assert "phi" in bundle  # embeds the exact serialization for replay


def test_bundle_deterministic():
    a = json.dumps(run_example("ex4_6"), sort_keys=True)
    b = json.dumps(run_example("ex4_6"), sort_keys=True)
    assert a == b


def test_unknown_example():
    with pytest.raises(SpecError):
        run_example("ex9_9")


@pytest.mark.parametrize("run", [
    lambda seed: run_example("ex3_5", seed=seed),
    lambda seed: run_pipeline({"phi": {"kind": "orlicz", "params": {"p": 2}}},
                              seed=seed),
], ids=["example", "pipeline"])
@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_bad_seed_is_spec_error(run, seed):
    with pytest.raises(SpecError) as err:
        run(seed)
    assert err.value.pointer == "/seed"


def test_package_does_not_import_scipy():
    """Only the benchmark uses scipy; the package runs on numpy alone."""
    src = os.path.dirname(os.path.dirname(orliczkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, orliczkit, orliczkit.cli, orliczkit.gallery; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# Pipelines


def rebuild_spec():
    h = WeightFunction.recip_power(4.0, 2)
    pair = {"phi_inf": power_curve(2.0).to_dict(), "h": h.to_dict(),
            "beta": 1.0, "s": 1.0}
    return {
        "name": "rebuild",
        "phi": {"pipeline": [
            {"make": {"kind": "example_3_5", "params": {}}},
            {"transform": "rebuild_with_ainc", "pair": pair, "t1": "auto"}]},
        "checks": [
            {"condition": "ainc", "p": 2.0},
            {"condition": "weak_equivalence",
             "other": {"kind": "example_3_5", "params": {}},
             "L": 1.0, "h": h.to_dict()}],
    }


def test_pipeline_rebuild_and_check():
    bundle = run_pipeline(rebuild_spec())
    assert bundle["verdict"] is True
    assert bundle["transforms"][0]["step"] == "rebuild_with_ainc"
    assert abs(bundle["transforms"][0]["t1"] - 0.5) < 1e-6


def test_pipeline_tail_asymptotes():
    spec = {"name": "tails", "phi": {"pipeline": [
        {"make": {"kind": "example_3_4", "params": {}}},
        {"transform": "tail_asymptotes"}]}}
    bundle = run_pipeline(spec)
    rec = bundle["transforms"][0]
    assert rec["converged"]
    up = PhiCurve.from_dict(rec["upper"])
    assert up.value(2.0) == 6.0  # t^2 + t at t = 2


def test_pipeline_empty_checks_echoes_phi():
    spec = {"name": "echo",
            "phi": {"kind": "orlicz",
                    "params": {"curve": power_curve(2.0).to_dict()}}}
    bundle = run_pipeline(spec)
    assert bundle["verdict"] is True and bundle["checks"] == []
    assert bundle["phi"]["kind"] == "orlicz"


def test_pipeline_expected_failure_flips_verdict():
    spec = {"name": "expected-fail",
            "phi": {"kind": "orlicz",
                    "params": {"curve": power_curve(2.0).to_dict()}},
            "checks": [{"condition": "ainc", "p": 3.0, "expect": False}]}
    assert run_pipeline(spec)["verdict"] is True
    spec["checks"][0]["expect"] = True
    assert run_pipeline(spec)["verdict"] is False


@pytest.mark.parametrize("spec,pointer", [
    ({"name": "x"}, "/phi"),
    ({"phi": {"pipeline": [{"transform": "nope"}]}}, "/phi/pipeline/0"),
    ({"phi": {"pipeline": []}}, "/phi/pipeline"),
    ({"phi": {"kind": "example_3_4", "params": {}}, "checks": [{"p": 2}]},
     "/checks/0/condition"),
    ({"phi": {"kind": "orlicz", "params": {"p": 2}},
      "checks": [{"condition": "ainc", "p": 2, "T": [0]}]}, "/checks/0/T"),
    ({"phi": {"kind": "orlicz", "params": {"p": 2, "dim": 2}},
      "experiments": [{"experiment": "ball-norm", "center": [0, 0],
                       "radius": 5, "cells": 16}]}, "/experiments/0"),
    ({"phi": {"kind": "orlicz", "params": {"p": 2}},
      "experiments": [{"experiment": "maximal-divergence", "radii": [-1]}]},
     "/experiments/0/radii"),
])
def test_pipeline_errors_carry_pointers(spec, pointer):
    with pytest.raises(SpecError) as err:
        run_pipeline(spec)
    assert err.value.pointer.startswith(pointer)


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture()
def phi_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(
        {"kind": "orlicz", "params": {"curve": power_curve(2.0).to_dict()}}))
    return str(path)


def test_cli_check_exit_codes(phi_file, capsys):
    assert main(["check", "--phi", f"@{phi_file}",
                 "--condition", "ainc", "--p", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is True
    assert main(["check", "--phi", f"@{phi_file}",
                 "--condition", "ainc", "--p", "3"]) == 1
    assert main(["check", "--phi", f"@{phi_file}", "--condition", "ainc",
                 "--p", "3", "--expect", "fails"]) == 0
    assert main(["check", "--phi", "not json", "--condition", "a0"]) == 2


def test_cli_norm(phi_file, capsys):
    code = main(["norm", "--phi", f"@{phi_file}",
                 "--function", '{"ball": {"center": [0], "radius": 0.5}}',
                 "--truncation-radius", "1", "--resolution", "64"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["luxemburg_norm"] == pytest.approx(1.0, rel=1e-2)


def test_cli_maximal_writes_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ORLICZKIT_OUT", str(tmp_path))
    code = main(["maximal", "--dim", "1",
                 "--function", '{"ball": {"center": [0], "radius": 1}}',
                 "--truncation-radius", "4", "--resolution", "8"])
    assert code == 0
    assert (tmp_path / "maximal.csv").exists()
    assert (tmp_path / "maximal.bin").exists()
    assert (tmp_path / "maximal.json").exists()
    report = json.loads(capsys.readouterr().out)
    assert report["max_value"] == pytest.approx(1.0, rel=1e-6)


def test_cli_internal_error_is_exit_3(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr(_cli, "maximal", broken)
    assert main(["maximal", "--dim", "1",
                 "--function", '{"ball": {"center": [0], "radius": 1}}',
                 "--truncation-radius", "2"]) == 3
    assert capsys.readouterr().err == \
        "internal error: RuntimeError: kernel fault\n"


def test_cli_example(tmp_path, capsys):
    assert main(["example", "dp_cor49", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "example-dp_cor49.json").exists()
    capsys.readouterr()


def test_cli_pipeline(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(rebuild_spec()))
    assert main(["pipeline", str(spec_path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "pipeline-rebuild.json").exists()
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "phi": {
        "pipeline": [{"transform": "nope"}]}}))
    assert main(["pipeline", str(bad)]) == 2


def test_cli_transform(capsys):
    curve = json.dumps(power_curve(1.0).to_dict())
    assert main(["transform", "--op", "repair_asymptote",
                 "--phi-inf", curve, "--t1", "1", "--p", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    rebuilt = PhiCurve.from_dict(out)
    assert rebuilt.value(2.0) == 2.0


def test_cli_usage_error_missing_args(phi_file):
    assert main(["check", "--phi", f"@{phi_file}", "--condition", "ainc"]) == 2
    assert main(["check", "--phi", f"@{phi_file}", "--condition", "a2"]) == 2


def _malformed_grid(case):
    """``(flag, file contents)`` of a bad --csv/--binary input for the
    16-cell grid on (-1, 1); no file for None."""
    g = GridFunction(((-1.0, 1.0),), np.linspace(0.0, 1.0, 16))
    rows, blob = g.to_csv().splitlines(), g.to_binary()
    return {"missing_csv": ("--csv", None),
            "missing_binary": ("--binary", None),
            "csv_index_missing": ("--csv", rows[:5] + rows[6:]),
            "csv_index_repeated": ("--csv", rows[:6] + rows[5:6] + rows[7:]),
            "csv_index_out_of_range": ("--csv", rows + ["16,1.0625,0.5"]),
            "csv_header_only": ("--csv", rows[:1]),
            "binary_short": ("--binary", blob[:-8]),
            "binary_long": ("--binary", blob + bytes(8))}[case]


@pytest.mark.parametrize("case", ["missing_csv", "missing_binary",
                                  "csv_index_missing", "csv_index_repeated",
                                  "csv_index_out_of_range", "csv_header_only",
                                  "binary_short", "binary_long"])
def test_cli_malformed_grid_input_is_exit_2(phi_file, tmp_path, case, capsys):
    flag, data = _malformed_grid(case)
    path = tmp_path / "grid"
    if isinstance(data, list):
        path.write_text("\n".join(data) + "\n")
    elif data is not None:
        path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the message alone, no stray warning
        assert main(["norm", "--phi", f"@{phi_file}", flag, str(path),
                     "--truncation-radius", "1", "--resolution", "8"]) == 2
    assert "cannot read grid function" in capsys.readouterr().err


_FUZZ_GRIDS = {dim: GridFunction(((-1.0, 1.0),) * dim,
                                np.linspace(0.0, 1.0, 16).reshape(shape))
               for dim, shape in ((1, (16,)), (2, (4, 4)))}
#: One phi per domain kind: unbounded 1D and 2D, and the bounded 1D (-2, 2).
_FUZZ_NORM_PHIS = [json.dumps({"kind": "orlicz", "params": {"p": 2}}),
                   json.dumps({"kind": "orlicz", "params": {"p": 2, "dim": 2}}),
                   json.dumps({"kind": "example_4_6", "params": {}})]
_FIELDS = st.sampled_from(["", "x", "nan", "inf", "-1", "0", "1.5", "3",
                           "15", "16", "1e300", "1e400", " "])


def _strict(constant):
    raise ValueError(f"{constant} in a report")


def _norm_exit(phi, flag, path):
    """Exit code and stderr of ``orliczkit norm`` on the grid file at
    ``path``; a CSV grid is read on (-1, 1) per axis, 16 cells each.  A
    report must be strict JSON: no NaN from a garbled box."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["norm", "--phi", phi, flag, str(path),
                     "--truncation-radius", "1", "--resolution", "8"])
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_strict)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(dim=st.sampled_from([1, 2]), phi=st.sampled_from(_FUZZ_NORM_PHIS),
       edits=st.lists(st.tuples(
           st.sampled_from(["field", "drop_field", "add_field", "drop_row",
                            "repeat_row", "swap_rows"]),
           st.integers(0, 20), st.integers(0, 4), _FIELDS),
           min_size=1, max_size=3))
def test_csv_grid_fuzz_never_exits_3(tmp_path_factory, dim, phi, edits):
    """Rows, fields and indices of a valid CSV grid edited: ``norm`` ends
    in a report or in exit 2 at --csv, never in an internal error."""
    rows = [r.split(",") for r in _FUZZ_GRIDS[dim].to_csv().splitlines()]
    for op, i, j, value in edits:
        i %= len(rows)
        row = rows[i]
        if op == "field" and row:
            row[j % len(row)] = value
        elif op == "drop_field" and row:
            del row[j % len(row)]
        elif op == "add_field":
            row.insert(j % (len(row) + 1), value)
        elif op == "drop_row" and len(rows) > 1:
            del rows[i]
        elif op == "repeat_row":
            rows.insert(i, list(row))
        elif op == "swap_rows":
            k = j % len(rows)
            rows[i], rows[k] = rows[k], rows[i]
    path = tmp_path_factory.mktemp("csv") / "grid.csv"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    code, err = _norm_exit(phi, "--csv", path)
    assert code in (0, 2)
    assert code == 0 or err.startswith("error: --csv: ")


@settings(max_examples=150, deadline=None)
@given(dim=st.sampled_from([1, 2]), phi=st.sampled_from(_FUZZ_NORM_PHIS),
       axes=st.none() | st.sampled_from([0, 1, 2, 3, 2 ** 32 - 1]),
       cells=st.none() | st.tuples(st.integers(0, 1), st.sampled_from(
           [0, 1, 4, 16, 2 ** 31, 2 ** 32 - 1])),
       bound=st.none() | st.tuples(st.integers(0, 3), st.sampled_from(
           [math.nan, math.inf, -math.inf, 0.0, 1.0, -1.0, 1e308])),
       size=st.integers(-40, 40))
def test_binary_grid_fuzz_never_exits_3(tmp_path_factory, dim, phi, axes,
                                        cells, bound, size):
    """Header integers (number of axes, cells per axis), axis bounds and
    the payload length of a valid binary grid edited: ``norm`` ends in a
    report or in exit 2 at --binary, never in an internal error."""
    blob = bytearray(_FUZZ_GRIDS[dim].to_binary())
    if axes is not None:
        struct.pack_into("<I", blob, 0, axes)
    if cells is not None:
        struct.pack_into("<I", blob, 4 + 16 * dim + 4 * (cells[0] % dim),
                         cells[1])
    if bound is not None:
        struct.pack_into("<d", blob, 4 + 8 * (bound[0] % (2 * dim)), bound[1])
    blob = blob[:len(blob) + size] if size < 0 else blob + bytes(size)
    path = tmp_path_factory.mktemp("bin") / "grid.bin"
    path.write_bytes(bytes(blob))
    code, err = _norm_exit(phi, "--binary", path)
    assert code in (0, 2)
    assert code == 0 or err.startswith("error: --binary: ")


def test_norm_near_the_float_limit_is_quiet(tmp_path, capsys):
    # example_3_4's seam reads |x|: squaring coordinates near 1e300 must not
    # overflow, and neither may the cell volume
    path = tmp_path / "grid.bin"
    GridFunction(((-1e300, 1e300),) * 2,
                 np.linspace(0.0, 1.0, 16).reshape(4, 4)).to_binary(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["norm", "--phi", json.dumps({"kind": "example_3_4", "params": {}}),
                     "--binary", str(path)])
    assert code == 0 and capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# Malformed input: exit 2 with a pointer to the bad flag or field, never 3

_PHI = json.dumps({"kind": "orlicz", "params": {"p": 2}})
_BALL_1D = '{"ball": {"center": [0], "radius": 1}}'
_BAD_PAIR = {"phi_inf": power_curve(2.0).to_dict(), "h": {"weight": "zero"},
             "beta": 2}


def _check(*flags):
    return ["check", "--phi", _PHI, *flags]


def _pipeline(phi=None, **fields):
    phi = phi or {"kind": "orlicz", "params": {"p": 2}}
    return ["pipeline", json.dumps({"phi": phi, **fields}),
            "--resolution", "1"]


_GLUE_BASE = {"kind": "example_3_2", "params": {}}


@pytest.mark.parametrize("argv,pointer", [
    pytest.param(_check("--condition", "a2", "--pair", '{"beta": 1}'),
                 "/pair", id="check-pair-missing-field"),
    pytest.param(_check("--condition", "a2", "--pair", json.dumps(_BAD_PAIR)),
                 "/pair", id="check-pair-beta-2"),
    pytest.param(_pipeline(checks=[{"condition": "a2", "pair": _BAD_PAIR}]),
                 "/checks/0/pair", id="pipeline-pair-beta-2"),
    pytest.param(["check", "--phi", "[1, 2]", "--condition", "a0"], "--phi",
                 id="check-phi-list"),
    pytest.param(_check("--condition", "weak-equivalence", "--other", _PHI,
                        "--h", '{"weight": "nope"}'), "/h",
                 id="check-unknown-weight"),
    pytest.param(_pipeline(checks=[{"condition": "weak_equivalence",
                                    "other": json.loads(_PHI),
                                    "h": {"weight": "nope"}}]),
                 "/checks/0/h", id="pipeline-unknown-weight"),
    pytest.param(_check("--condition", "ainc", "--p", "2",
                        "--t-range", "0", "abc"), "/T", id="check-t-range"),
    pytest.param(["transform", "--op", "glue_small_values",
                  "--phi", json.dumps(_GLUE_BASE),
                  "--region", '{"region": "nope"}'], "--region",
                 id="transform-unknown-region"),
    pytest.param(_pipeline({"pipeline": [
        {"make": _GLUE_BASE},
        {"transform": "glue_small_values", "region": {"region": "nope"},
         "p": 2}]}), "/phi/pipeline/1/region", id="pipeline-unknown-region"),
    pytest.param(["transform", "--op", "cap_curve",
                  "--phi-inf", '{"breakpoints": [0]}'], "--phi-inf",
                 id="transform-curve-missing-pieces"),
    pytest.param(["norm", "--phi", _PHI,
                  "--function", '{"ball": {"center": [0, 0]}}'],
                 "--function/ball/radius", id="norm-ball-missing-radius"),
    pytest.param(["maximal", "--dim", "1", "--function", _BALL_1D,
                  "--radii", "-1"], "--radii", id="maximal-negative-radius"),
    pytest.param(["maximal", "--dim", "1", "--function", _BALL_1D,
                  "--stride", "0"], "--stride", id="maximal-stride-0"),
    pytest.param(_pipeline(checks=[{"condition": "ainc", "p": 2, "T": [0]}]),
                 "/checks/0/T", id="pipeline-short-t-range"),
    pytest.param(_pipeline({"kind": "orlicz", "params": {"p": 2, "dim": 2}},
                           experiments=[{"experiment": "ball-norm",
                                         "center": [0, 0], "radius": 5,
                                         "cells": 16}]),
                 "/experiments/0", id="pipeline-ball-norm-too-big"),
    pytest.param(_pipeline(experiments=[{"experiment": "maximal-divergence",
                                         "radii": [-1]}]),
                 "/experiments/0/radii", id="pipeline-negative-radii"),
    pytest.param(["example", "ex3_5", "--seed", "-1"], "--seed",
                 id="example-negative-seed"),
    pytest.param(_pipeline() + ["--seed", "-1"], "--seed",
                 id="pipeline-negative-seed"),
    pytest.param(_pipeline(name="a/b"), "/name", id="pipeline-name-a/b"),
    pytest.param(_pipeline(checks=[{
        "condition": "weak_equivalence", "other": json.loads(_PHI),
        "h": {"weight": "recip_power", "k": 4, "dim": 1, "c": 1e-300}}]),
        "/checks/0/h", id="pipeline-weight-c-overflows"),
])
def test_malformed_input_is_exit_2_with_pointer(argv, pointer, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {pointer}: ")


@pytest.mark.parametrize("argv", [
    _pipeline(),
    ["maximal", "--dim", "1", "--function", _BALL_1D, "--radii", "1"],
], ids=["pipeline", "maximal"])
def test_unwritable_out_is_exit_2(argv, tmp_path, capsys):
    """An --out path under a regular file cannot be made a directory."""
    (tmp_path / "file").write_text("")
    assert main([*argv, "--out", str(tmp_path / "file" / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: --out: cannot write")


_FUZZ_PHI = {"kind": "orlicz", "params": {"p": 2.0, "dim": 2}}
_FUZZ_SPEC = {
    "name": "fuzz", "phi": _FUZZ_PHI,
    "checks": [
        {"condition": "a0"},
        {"condition": "ainc", "p": 2.0, "T": [0.0, None]},
        {"condition": "a2", "pair": {"phi_inf": power_curve(2.0).to_dict(),
                                     "h": {"weight": "zero"}, "beta": 1.0}},
        {"condition": "weak_equivalence", "other": _FUZZ_PHI, "L": 1.0,
         "h": {"weight": "zero"}}],
    "experiments": [
        {"experiment": "operator-norm"},
        {"experiment": "ball-norm", "center": [0.0, 0.0], "radius": 0.5,
         "cells": 16}]}


def _paths(node, prefix=()):
    """Key paths to every value nested in ``node``."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


_DELETE = object()


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(list(_paths(_FUZZ_SPEC))),
       value=st.sampled_from([_DELETE, None, "x", -1, 0, [], {},
                              {"weight": "nope"}]))
def test_pipeline_spec_fuzz_never_exits_3(path, value):
    """One key of a small valid spec deleted, or its value replaced: the
    run ends in a verdict or in exit 2 naming a field.  No size is drawn
    large, so no run allocates more than the valid spec does."""
    spec = copy.deepcopy(_FUZZ_SPEC)
    node = spec
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["pipeline", json.dumps(spec), "--resolution", "1"])
    assert code in (0, 1, 2)
    assert code != 2 or err.getvalue().startswith("error: /")
