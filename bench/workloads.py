"""Seeded inputs, claim bundles and correctness checks of the workloads.

A workload is a fixed list of bundles built from ``--seed``.  A bundle is
one call into orliczkit's public API -- ``run_example``, or ``cli.main``
run in-process with its output captured -- plus a check of everything it
returned.  Every expectation comes from the paper or from a closed form,
never from what the code returns today.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy import optimize

import orliczkit
from orliczkit.norms import EPS_LUX

CLI = importlib.import_module("orliczkit.cli")

#: Cells per unit length for the two heavy gallery bundles; both verdicts
#: hold at this size and the maximal operator still does ~95% of the work.
GALLERY_RESOLUTION = 4.0

#: Cells per axis of the duality and ball-norm grids on norms_io.
EXPERIMENT_CELLS = 16

#: The one documented defect the benchmark expects to see: the analytic
#: divergence flags of ``check_ainc`` are only looked up on a thinned
#: sample, which misses the strip of Example 3.2, so aInc_1.1 is wrongly
#: reported to hold (ROADMAP item 4).  The paper says it fails.
EX32_AINC_LABEL = "aInc_1.1 fails on example_3_2 (paper, Example 3.2)"
KNOWN_DEFECT = frozenset({
    f"check {EX32_AINC_LABEL!r}: observed True, expected False",
    "exit code 1, expected 0",
})


@dataclass
class Bundle:
    """One timed call (``call``) and the check of its output (``check``,
    returning a list of problems).  ``known`` lists the problems a
    documented defect produces; ``out_dir`` is where a CLI bundle writes."""

    label: str
    call: object
    check: object
    known: frozenset = frozenset()
    out_dir: str | None = None


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _uniform(rng, lo, hi) -> float:
    return round(float(rng.uniform(lo, hi)), 3)


def _power_curve(p: float) -> dict:
    return {"breakpoints": [0.0],
            "pieces": [[{"coef": 1.0, "exponent": p, "shift": 0.0}]],
            "infinite_tail": None}


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
    return path


def _close(got, want, rel) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want))


def _lux_close(got, want) -> bool:
    """The Luxemburg norm is bisected to EPS_LUX relative; allow float
    rounding of the modular on top."""
    return abs(got - want) <= EPS_LUX * max(got, want) + 1e-12 * want


# ---------------------------------------------------------------------------
# Bundles


def _claims_problems(bundle: dict, key: str) -> list:
    problems = []
    if "errored" in bundle:
        problems.append(f"errored: {bundle['errored']}")
    for c in bundle.get(key, ()):
        if not c["matches"]:
            problems.append(f"{key[:-1]} {c['claim']!r}: observed "
                            f"{c['observed']}, expected {c['expected']}")
    if bundle.get("verdict") is not True and not problems:
        problems.append("verdict is not true")
    return problems


def example_bundle(name: str, resolution: float, seed: int) -> Bundle:
    def call():
        return orliczkit.run_example(name, resolution=resolution, seed=seed)

    return Bundle(f"example:{name}", call,
                  lambda out: _claims_problems(out, "claims"))


def cli_bundle(label: str, argv: list, out_dir: str, check_report,
               known=frozenset()) -> Bundle:
    """``orliczkit <argv> --out out_dir`` in this process, stdout and
    stderr captured; the report on stdout goes to ``check_report``."""
    argv = list(argv) + ["--out", out_dir]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = CLI.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        problems = []
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        try:
            report = json.loads(out)
        except ValueError:
            return problems + [f"no JSON report: {err.strip()[:200]}"]
        return problems + check_report(report)

    return Bundle(label, call, check, frozenset(known), out_dir)


def pipeline_bundle(label: str, spec: dict, work: str, seed: int,
                    extra=None, resolution: float = 8.0,
                    known=frozenset()) -> Bundle:
    path = _write_json(os.path.join(work, f"{label}.json"), spec)

    def check_report(report):
        problems = _claims_problems(report, "checks")
        return problems + (extra(report) if extra else [])

    return cli_bundle(f"pipeline:{label}",
                      ["pipeline", path, "--seed", str(seed),
                       "--resolution", repr(resolution)],
                      _out_dir(work, label), check_report, known=known)


def _out_dir(work: str, label: str) -> str:
    path = os.path.join(work, "out", label)
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# gallery_maximal: the two heavy paper bundles at reduced resolution


def build_gallery_maximal(seed: int, work: str) -> list:
    bundle_seed = int(_rng(seed, 0).integers(0, 2 ** 31))
    names = ("ex3_4", "ex3_2")
    _write_json(os.path.join(work, "inputs.json"),
                {"examples": names, "seed": bundle_seed,
                 "resolution": GALLERY_RESOLUTION})
    return [example_bundle(name, GALLERY_RESOLUTION, bundle_seed)
            for name in names]


# ---------------------------------------------------------------------------
# pipeline_checks: seeded specs over the catalog families; expectations
# from the theory of each family


def _check(label, condition, expect, **kw) -> dict:
    return {"label": label, "condition": condition, "expect": expect, **kw}


def _orlicz_spec(rng, check_seed):
    p = _uniform(rng, 1.3, 3.0)
    L = round(1.01 * 2.0 ** (1.0 / p), 6)  # 2 (t / L)^p <= t^p needs L^p >= 2
    twice = {"kind": "orlicz", "params": {"p": p, "coef": 2.0}}
    return {"name": "orlicz", "phi": {"kind": "orlicz", "params": {"p": p}},
            "checks": [
                _check(f"aInc_{p}", "ainc", True, p=p),
                _check(f"aDec_{p}", "adec", True, q=p),
                _check("not aInc_{p+1/2}", "ainc", False, p=p + 0.5),
                _check("not aDec_{p-1/2}", "adec", False, q=p - 0.5),
                _check("A0", "a0", True),
                _check("A1", "a1", True, seed=check_seed),
                _check("A2 against t^p, h = 0", "a2", True,
                       pair={"phi_inf": _power_curve(p),
                             "h": {"weight": "zero"}, "beta": 1.0}),
                _check("equivalent to 2t^p with L = 1.01 * 2^(1/p)",
                       "equivalence", True, other=twice, L=L),
                _check("not equivalent to 2t^p with L = 1", "equivalence",
                       False, other=twice, L=1.0),
                _check("weakly equivalent to 2t^p, h = 0",
                       "weak_equivalence", True, other=twice, L=L,
                       h={"weight": "zero"}),
            ]}


def _two_values(rng, lo, hi, gap):
    a = _uniform(rng, lo, hi)
    while True:
        b = _uniform(rng, lo, hi)
        if abs(a - b) >= gap:
            return a, b


def _variable_exponent_spec(rng, check_seed):
    # p(x) = p0 at 0, p1 beyond r1 < 4, linear between: Lipschitz, hence
    # log-Hoelder, so A1 holds; equal to t^p1 off the ball of radius r1
    p0, p1 = _two_values(rng, 1.3, 2.8, 0.3)
    r1 = _uniform(rng, 2.0, 3.5)
    lo, hi = min(p0, p1), max(p0, p1)
    ball = {"weight": "indicator",
            "of": {"region": "ball", "center": [0.0], "radius": r1}}
    return {"name": "variable_exponent",
            "phi": {"kind": "variable_exponent", "params": {
                "p": {"field": "pw_linear", "points": [[0.0, p0], [r1, p1]]}}},
            "checks": [
                _check(f"aInc_{lo}", "ainc", True, p=lo),
                _check(f"aDec_{hi}", "adec", True, q=hi),
                _check("not aInc_{p_max+1/2}", "ainc", False, p=hi + 0.5),
                _check("not aDec_{p_min-1/2}", "adec", False, q=lo - 0.5),
                _check("A0", "a0", True),
                _check("A1", "a1", True, seed=check_seed),
                _check("A2 against t^p1, h = chi_B(0, r1)", "a2", True,
                       pair={"phi_inf": _power_curve(p1), "h": ball,
                             "beta": 1.0}),
                _check("not A2 against t^p1 with h = 0", "a2", False,
                       pair={"phi_inf": _power_curve(p1),
                             "h": {"weight": "zero"}, "beta": 1.0}),
            ]}


def _double_phase_params(rng):
    # t^p + a(x) t^q with a(x) = c / (|x| + 1): Lipschitz and bounded by c,
    # and q / p < 1 + 1/n in 2D, so A1 holds
    p = _uniform(rng, 1.3, 2.2)
    q = round(p * _uniform(rng, 1.15, 1.45), 3)
    c = _uniform(rng, 0.5, 2.0)
    return p, q, c


def _dp_phi(p, q, c):
    return {"kind": "double_phase", "params": {
        "p": p, "q": q, "dim": 2,
        "a": {"field": "abs_power", "coef": c, "offset": 1.0, "power": -1.0}}}


def _double_phase_spec(rng, check_seed):
    p, q, c = _double_phase_params(rng)
    beta = round(0.999 * (1.0 + c) ** (-1.0 / p), 6)  # beta^p (1 + c) < 1
    Lq = round(1.01 * 2.0 ** (1.0 / q), 6)  # doubling a needs L^q >= 2
    return {"name": "double_phase", "phi": _dp_phi(p, q, c),
            "checks": [
                _check(f"aInc_{p}", "ainc", True, p=p),
                _check(f"aDec_{q}", "adec", True, q=q),
                _check("not aInc_{q+1/2}", "ainc", False, p=q + 0.5),
                _check("not aInc_{p+1/2}", "ainc", False, p=p + 0.5),
                _check("not aDec_{q-1/2}", "adec", False, q=q - 0.5),
                _check("A0", "a0", True),
                _check("A1", "a1", True, seed=check_seed),
                _check("A2 against t^p, h = 0", "a2", True,
                       pair={"phi_inf": _power_curve(p),
                             "h": {"weight": "zero"}, "beta": beta}),
                _check("equivalent to the 2a instance", "equivalence", True,
                       other=_dp_phi(p, q, 2.0 * c), L=Lq),
                _check("not weakly equivalent to t^p with L = 1, h = 0",
                       "weak_equivalence", False,
                       other={"kind": "orlicz", "params": {"p": p, "dim": 2}},
                       L=1.0, h={"weight": "zero"}),
            ]}


def _vdp_spec(rng, check_seed):
    p0, p1 = _uniform(rng, 1.3, 2.0), _uniform(rng, 1.3, 2.0)
    q0, q1 = p0 + _uniform(rng, 0.3, 0.8), p1 + _uniform(rng, 0.3, 0.8)
    r1 = _uniform(rng, 2.0, 3.5)
    c = _uniform(rng, 0.3, 1.5)
    params = {"p": {"field": "pw_linear", "points": [[0.0, p0], [r1, p1]]},
              "q": {"field": "pw_linear", "points": [[0.0, q0], [r1, q1]]},
              "a": {"field": "const", "value": c}}
    spec = {"name": "vdp",
            "phi": {"pipeline": [{"make": {"kind": "vdp", "params": params}},
                                 {"transform": "tail_asymptotes"}]},
            "checks": [
                _check("aInc_{p_min}", "ainc", True, p=min(p0, p1)),
                _check("aDec_{q_max}", "adec", True, q=max(q0, q1)),
                _check("not aInc_{q_max+1/2}", "ainc", False,
                       p=max(q0, q1) + 0.5),
                _check("A0", "a0", True),
                _check("A1", "a1", True, seed=check_seed),
            ]}
    # beyond r1 the function is t^p1 + c t^q1 at every x
    return spec, 2.0 ** p1 + c * 2.0 ** q1


def _tail_problems(report, at_2):
    """Both tail envelopes must converge to the curve with value ``at_2``
    at t = 2."""
    rec = report["transforms"][-1]
    problems = []
    if not rec["converged"]:
        problems.append(f"tail asymptotes did not converge: {rec['flags']}")
    for side in ("upper", "lower"):
        got = orliczkit.PhiCurve.from_dict(rec[side]).value(2.0)
        if not _close(got, at_2, 1e-12):
            problems.append(f"tail {side} asymptote at t = 2: {got}, "
                            f"expected {at_2}")
    return problems


def _dp_inverse_one(p, q, c) -> float:
    """t with t^p + c t^q = 1."""
    return optimize.brentq(lambda t: t ** p + c * t ** q - 1.0, 0.0, 1.0,
                           xtol=1e-15, rtol=1e-15)


def build_pipeline_checks(seed: int, work: str) -> list:
    rng = _rng(seed, 1)
    check_seed = int(rng.integers(0, 2 ** 31))
    bundles = []

    def add(spec, extra=None, known=frozenset()):
        bundles.append(pipeline_bundle(spec["name"], spec, work, seed,
                                       extra, known=known))

    add(_orlicz_spec(rng, check_seed))
    add(_variable_exponent_spec(rng, check_seed))
    add(_double_phase_spec(rng, check_seed))
    vdp, at_2 = _vdp_spec(rng, check_seed)
    add(vdp, lambda r: _tail_problems(r, at_2))

    pg = _uniform(rng, 1.2, 1.9)
    strip = {"region": "inv_square_strip"}
    add({"name": "glue_example_3_2",
         "phi": {"pipeline": [
             {"make": {"kind": "example_3_2", "params": {}}},
             {"transform": "glue_small_values", "region": strip, "p": pg}]},
         "checks": [
             _check(f"aInc_{pg} after glueing t^{pg} on the strip", "ainc",
                    True, p=pg),
             _check("aDec_2", "adec", True, q=2.0),
             _check("A0", "a0", True),
             _check("weakly equivalent to example_3_2, h = chi_G",
                    "weak_equivalence", True,
                    other={"kind": "example_3_2", "params": {}}, L=1.0,
                    h={"weight": "indicator", "of": strip}),
         ]})
    add({"name": "example_3_2",
         "phi": {"kind": "example_3_2", "params": {}},
         "checks": [
             _check("A0 with beta = 1", "a0", True),
             _check(EX32_AINC_LABEL, "ainc", False, p=1.1),
             _check("aDec_2", "adec", True, q=2.0),
         ]}, known=KNOWN_DEFECT)

    h4 = {"weight": "recip_power", "k": 4.0, "dim": 2, "c": 1.0}
    add({"name": "rebuild_example_3_5",
         "phi": {"pipeline": [
             {"make": {"kind": "example_3_5", "params": {}}},
             {"transform": "rebuild_with_ainc", "t1": "auto",
              "pair": {"phi_inf": _power_curve(2.0), "h": h4, "beta": 1.0}}]},
         "checks": [
             _check("aInc_2 after the rebuild", "ainc", True, p=2.0),
             _check("weakly equivalent to example_3_5, h = (|x|+1)^-4",
                    "weak_equivalence", True,
                    other={"kind": "example_3_5", "params": {}}, L=1.0,
                    h=h4)]},
        lambda r: _t1_problems(r, 0.5))

    p, q, c = _double_phase_params(rng)
    beta = round(0.999 * (1.0 + c) ** (-1.0 / p), 6)
    add({"name": "rebuild_double_phase",
         "phi": {"pipeline": [
             {"make": _dp_phi(p, q, c)},
             {"transform": "rebuild_with_ainc", "t1": "auto",
              "pair": {"phi_inf": _power_curve(p), "h": {"weight": "zero"},
                       "beta": beta}}]},
         "checks": [
             _check(f"aInc_{p} after the rebuild", "ainc", True, p=p),
             _check(f"aDec_{q} after the rebuild", "adec", True, q=q),
             _check("A0", "a0", True)]},
        # t1 is half the level-1 point of the largest weight a(0) = c
        lambda r, t1=0.5 * _dp_inverse_one(p, q, c): _t1_problems(r, t1))

    add({"name": "tails_example_3_4",
         "phi": {"pipeline": [
             {"make": {"kind": "example_3_4", "params": {}}},
             {"transform": "tail_asymptotes"}]},
         "checks": [_check("A0", "a0", True)]},
        lambda r: _tail_problems(r, 6.0))  # upper asymptote t^2 + t

    for name in ("ex3_5", "ex4_6", "dp_cor49"):
        bundles.append(example_bundle(name, 8.0, check_seed))
    return bundles


def _t1_problems(report, want):
    got = report["transforms"][0]["t1"]
    if abs(got - want) > 1e-7:
        return [f"rebuild threshold t1 = {got}, expected {want}"]
    return []


# ---------------------------------------------------------------------------
# norms_io: seeded grids written to CSV and binary, read back by the CLI


@dataclass
class Grid:
    label: str
    box: tuple
    values: np.ndarray
    ball: tuple | None = None  # (center, radius, level) for indicators

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def cell_volume(self) -> float:
        return float(np.prod([(hi - lo) / k for (lo, hi), k
                              in zip(self.box, self.values.shape)]))

    def centers(self) -> np.ndarray:
        axes = [lo + (np.arange(k) + 0.5) * (hi - lo) / k
                for (lo, hi), k in zip(self.box, self.values.shape)]
        if len(axes) == 1:
            return axes[0].reshape(-1, 1)
        gx, gy = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])


def _ball_mask(X, center, radius) -> np.ndarray:
    return np.linalg.norm(X - np.asarray(center, float)[None, :],
                          axis=1) < radius


def _ball_grid(label, rng, box, n, reach, rmin, rmax) -> Grid:
    dim = len(box)
    center = [_uniform(rng, -reach, reach) for _ in range(dim)]
    radius = _uniform(rng, rmin, rmax)
    level = _uniform(rng, 0.5, 3.0)
    g = Grid(label, box, np.zeros((n,) * dim), (center, radius, level))
    mask = _ball_mask(g.centers(), center, radius)
    g.values = (level * mask).reshape((n,) * dim)
    return g


def _random_grid(label, rng, box, n) -> Grid:
    dim = len(box)
    vals = rng.random((n,) * dim) * _uniform(rng, 0.5, 2.0)
    vals[rng.random((n,) * dim) < 0.5] = 0.0
    return Grid(label, box, vals)


def _lux_reference(phi_of_t, vol: float) -> float:
    """lam with sum(phi(v / lam)) * vol = 1, by bisection in log lam to
    machine precision; ``phi_of_t(s)`` gives the per-cell values of
    phi(x_i, s * v_i)."""
    def m(lam):
        return math.fsum(phi_of_t(1.0 / lam)) * vol

    lo, hi = 1e-3, 1e3
    while m(lo) <= 1.0:
        lo *= 1e-3
    while m(hi) > 1.0:
        hi *= 1e3
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if m(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi / lo - 1.0 < 1e-15:
            break
    return hi


def _read_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    (dim,) = struct.unpack_from("<I", blob, 0)
    shape = struct.unpack_from(f"<{dim}I", blob, 4 + 16 * dim)
    return np.frombuffer(blob, "<f8", offset=4 + 20 * dim).reshape(shape)


def _read_csv(path, shape) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    out = np.full(int(np.prod(shape)), np.nan)
    for row in rows:
        out[int(row[0])] = float(row[-1])
    return out.reshape(shape)


def _lp_norm(grid: Grid, p: float) -> float:
    """||f|| for phi = t^p: c (n_cells * cell_volume)^(1/p) for f = c chi_E,
    (sum f^p * cell_volume)^(1/p) otherwise."""
    v = grid.values.ravel()
    if grid.ball is not None:
        return grid.ball[2] * (np.count_nonzero(v) * grid.cell_volume) ** (
            1.0 / p)
    return (math.fsum(v ** p) * grid.cell_volume) ** (1.0 / p)


def _norm_report_problems(report, grid: Grid, p: float) -> list:
    mod = math.fsum(grid.values.ravel() ** p) * grid.cell_volume
    problems = []
    if not _close(report["modular"], mod, 1e-9):
        problems.append(f"modular {report['modular']}, expected {mod}")
    want = _lp_norm(grid, p)
    if not _lux_close(report["luxemburg_norm"], want):
        problems.append(f"Luxemburg norm {report['luxemburg_norm']}, "
                        f"expected {want}")
    if report["cells"] != list(grid.values.shape):
        problems.append(f"cells {report['cells']}")
    return problems


def _roundtrip_problems(grid: Grid, csv_path, bin_path) -> list:
    gf = orliczkit.GridFunction
    problems = []
    back = gf.from_binary(bin_path)
    if back.box != grid.box or back.values.tobytes() != grid.values.tobytes():
        problems.append("binary round trip is not bit-exact")
    back = gf.from_csv(csv_path, grid.box, grid.values.shape)
    if not np.array_equal(back.values, grid.values):
        problems.append("CSV round trip is not value-exact")
    return problems


def _maximal_problems(report, grid: Grid, out_dir, p) -> list:
    Mf = _read_binary(os.path.join(out_dir, "maximal.bin"))
    f = grid.values
    problems = []
    if not np.array_equal(_read_csv(os.path.join(out_dir, "maximal.csv"),
                                    f.shape), Mf):
        problems.append("maximal.csv and maximal.bin disagree")
    if report["max_value"] != float(Mf.max()):
        problems.append("reported max_value is not the max of maximal.bin")
    # averages of equal values may round by an ulp
    tol = 1e-12 * f.max()
    if np.any(Mf < f - tol) or Mf.max() > f.max() + tol:
        problems.append("Mf leaves [f, max f]")
    if grid.ball is not None:
        # 1D: M(c chi_(x0-r, x0+r))(x) = c 2r / (|x - x0| + r) off the ball.
        # The radius ladder (ratio 2^(1/16)) under-approximates by < 4.5%;
        # the grid moves interval ends by up to a cell, < 3% here.
        (x0,), r, c = grid.ball
        x = grid.centers()[:, 0]
        h = (grid.box[0][1] - grid.box[0][0]) / grid.n
        d = np.abs(x - x0)
        inside = d < r
        away = d > r + 2 * h
        exact = c * 2 * r / (d + r)
        if np.any(np.abs(Mf[inside] - c) > tol):
            problems.append("Mf differs from f on the ball")
        q = Mf[away] / exact[away]
        if q.min() < 0.94 or q.max() > 1.03:
            problems.append(f"Mf / closed form in [{q.min()}, {q.max()}]")
    want = _lp_norm(grid, p)
    if not _lux_close(report["norm_f"], want):
        problems.append(f"norm_f {report['norm_f']}, expected {want}")
    if report["norm_Mf"] < report["norm_f"]:
        problems.append("norm_Mf < norm_f although Mf >= f")
    return problems


def _conj_power(s, p):
    """(t^p)*(s) = (p - 1) (s / p)^(p / (p - 1))."""
    return (p - 1.0) * (s / p) ** (p / (p - 1.0))


def _conj_double_phase(s, p, q, a):
    """sup_t (s t - t^p - a t^q): t solves p t^(p-1) + a q t^(q-1) = s."""
    if s <= 0:
        return 0.0

    def slope_gap(t):
        return p * t ** (p - 1) + a * q * t ** (q - 1) - s

    hi = 1.0
    while slope_gap(hi) < 0:
        hi *= 2.0
    t = optimize.brentq(slope_gap, 0.0, hi, xtol=1e-15, rtol=1e-15)
    return s * t - t ** p - a * t ** q


def _experiment_problems(report, phi_np, conj_np, f_ball, g_ball,
                         bn_center, bn_radius, cells) -> list:
    """Duality (on (-1, 1)^2) and ball-norm reports, both on cells^2 grids,
    against references built from the closed forms of phi and its
    conjugate on the same cells."""
    duality, ballnorm = (e["report"] for e in report["experiments"])
    problems = []
    grid = Grid("duality", ((-1.0, 1.0), (-1.0, 1.0)),
                np.zeros((cells, cells)))
    X, vol = grid.centers(), grid.cell_volume
    fm, gm = _ball_mask(X, *f_ball), _ball_mask(X, *g_ball)
    if not _close(duality["pairing"], np.count_nonzero(fm & gm) * vol, 1e-12):
        problems.append(f"pairing {duality['pairing']}")
    want_f = _lux_reference(lambda s: phi_np(X[fm], s), vol)
    if not _lux_close(duality["norm_f"], want_f):
        problems.append(f"duality norm_f {duality['norm_f']}, "
                        f"expected {want_f}")
    want_g = _lux_reference(lambda s: conj_np(X[gm], s), vol)
    if not _close(duality["conj_norm_g"], want_g, 2 * EPS_LUX):
        problems.append(f"conjugate norm of g {duality['conj_norm_g']}, "
                        f"expected {want_g}")
    if not duality["holds"] or duality["observed_constant"] > 2.0:
        problems.append("Hoelder bound int f g <= 2 ||f|| ||g||* fails")

    side = 1.5 * bn_radius
    box = tuple((c - side, c + side) for c in bn_center)
    grid = Grid("ball-norm", box, np.zeros((cells, cells)))
    X, vol = grid.centers(), grid.cell_volume
    m = _ball_mask(X, bn_center, bn_radius)
    want = _lux_reference(lambda s: phi_np(X[m], s), vol)
    if not _lux_close(ballnorm["norm"], want):
        problems.append(f"ball norm {ballnorm['norm']}, expected {want}")
    if not _close(ballnorm["ball_volume"], math.pi * bn_radius ** 2, 1e-12):
        problems.append(f"ball volume {ballnorm['ball_volume']}")
    return problems


def build_norms_io(seed: int, work: str) -> list:
    rng = _rng(seed, 2)
    bundles = []
    p = _uniform(rng, 1.5, 3.0)
    phi_files = {dim: _write_json(
        os.path.join(work, f"phi{dim}d.json"),
        {"kind": "orlicz", "params": {"p": p, "dim": dim}}) for dim in (1, 2)}
    box1, box2 = ((-4.0, 4.0),), ((-2.0, 2.0), (-2.0, 2.0))
    grids = [_ball_grid("ball1d_a", rng, box1, 512, 1.5, 0.5, 1.5),
             _ball_grid("ball1d_b", rng, box1, 512, 1.5, 0.5, 1.5),
             _random_grid("random1d", rng, box1, 512),
             _ball_grid("ball2d", rng, box2, 64, 0.5, 0.5, 1.2),
             _random_grid("random2d", rng, box2, 64)]
    for g in grids:
        dim = len(g.box)
        R = g.box[0][1]
        csv_path = os.path.join(work, f"{g.label}.csv")
        bin_path = os.path.join(work, f"{g.label}.bin")
        gf = orliczkit.GridFunction(g.box, g.values)
        gf.to_csv(csv_path)
        gf.to_binary(bin_path)
        # checked once here; a bad round trip fails every norm bundle
        roundtrip = _roundtrip_problems(g, csv_path, bin_path)
        # the CLI lays n = resolution * 2R cells on (-R, R)^dim
        grid_args = ["--truncation-radius", repr(R),
                     "--resolution", repr(g.n / (2 * R))]
        phi_arg = ["--phi", "@" + phi_files[dim]]

        def norm_check(report, g=g, roundtrip=roundtrip):
            return _norm_report_problems(report, g, p) + roundtrip

        bundles.append(cli_bundle(
            f"norm-csv:{g.label}",
            ["norm", *phi_arg, "--csv", csv_path, *grid_args],
            _out_dir(work, f"norm-csv-{g.label}"), norm_check))
        bundles.append(cli_bundle(
            f"norm-binary:{g.label}",
            ["norm", *phi_arg, "--binary", bin_path],
            _out_dir(work, f"norm-binary-{g.label}"), norm_check))
        if dim == 1:
            out = _out_dir(work, f"maximal-{g.label}")
            bundles.append(cli_bundle(
                f"maximal:{g.label}",
                ["maximal", "--dim", "1", *phi_arg, "--csv", csv_path,
                 *grid_args], out,
                lambda r, g=g, out=out: _maximal_problems(r, g, out, p)))

    # duality and ball-norm experiments.  g = chi_B with
    # |B| < 1 stays in the unit ball of every conjugate used here; its
    # radius is fixed because the per-cell conjugate loop costs in
    # proportion to |B|.
    for kind in ("orlicz", "double_phase", "variable_exponent"):
        f_ball = ([_uniform(rng, -0.3, 0.3) for _ in range(2)], 0.5)
        g_ball = ([_uniform(rng, -0.3, 0.3) for _ in range(2)], 0.5)
        bn_center = [_uniform(rng, -1.0, 1.0) for _ in range(2)]
        bn_radius = _uniform(rng, 0.3, 0.55)  # |B| <= 1
        pk = _uniform(rng, 1.5, 3.0)
        if kind == "orlicz":
            params = {"p": pk, "dim": 2}

            def phi_np(X, s, pk=pk):
                return np.full(len(X), s ** pk)

            def conj_np(X, s, pk=pk):
                return np.full(len(X), _conj_power(s, pk))
        elif kind == "double_phase":
            qk = round(pk + _uniform(rng, 0.3, 1.0), 3)
            ak = _uniform(rng, 0.2, 2.0)
            params = {"p": pk, "q": qk, "dim": 2,
                      "a": {"field": "const", "value": ak}}

            def phi_np(X, s, pk=pk, qk=qk, ak=ak):
                return np.full(len(X), s ** pk + ak * s ** qk)

            def conj_np(X, s, pk=pk, qk=qk, ak=ak):
                return np.full(len(X), _conj_double_phase(s, pk, qk, ak))
        else:
            p_out = _uniform(rng, 1.5, 3.0)
            pts = [[0.0, pk], [1.0, p_out]]
            params = {"dim": 2, "p": {"field": "pw_linear", "points": pts}}

            def pex(X, pts=pts):
                return np.interp(np.linalg.norm(X, axis=1),
                                 [u for u, _ in pts], [v for _, v in pts])

            def phi_np(X, s, pex=pex):
                return s ** pex(X)

            def conj_np(X, s, pex=pex):
                return _conj_power(s, pex(X))
        spec = {"name": f"experiments_{kind}",
                "phi": {"kind": kind, "params": params},
                "experiments": [
                    {"experiment": "duality", "truncation_radius": 1.0,
                     "f": {"ball": {"center": f_ball[0], "radius": f_ball[1]}},
                     "g": {"ball": {"center": g_ball[0],
                                    "radius": g_ball[1]}}},
                    {"experiment": "ball-norm", "center": bn_center,
                     "radius": bn_radius, "cells": EXPERIMENT_CELLS}]}
        # on (-1, 1)^2 the duality grid has resolution * 1 cells per axis
        bundles.append(pipeline_bundle(
            spec["name"], spec, work, seed,
            lambda r, a=(phi_np, conj_np, f_ball, g_ball, bn_center,
                         bn_radius, EXPERIMENT_CELLS):
                _experiment_problems(r, *a),
            resolution=float(EXPERIMENT_CELLS)))
    return bundles


BUILDERS = {
    "gallery_maximal": build_gallery_maximal,
    "pipeline_checks": build_pipeline_checks,
    "norms_io": build_norms_io,
}
