"""Span recorder around the public functions of each orliczkit module.

The layers are the package modules.  Every public function is wrapped in
*every* namespace that bound it at import: ``gallery`` imports ``maximal``,
``luxemburg_norm``, ``modular`` and the ``check_*`` functions by name,
``maximal`` imports ``luxemburg_norm``/``modular``, and ``cli`` imports
``run_example``/``run_pipeline``; patching only the defining module would
miss the calls made through the others.  Methods are patched on their
class, which every caller shares.

Each wrapped call records a span (name, layer, start, end, parent, bundle).
The per-point calls ``curve_at``, ``eval``, ``inverse`` and
``conjugate_value`` run thousands of times per bundle, so they are only
counted and timed in aggregate; their time is taken out of the enclosing
span's self time and booked to ``phi_core``.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
from time import perf_counter

LAYERS = ("phi_core", "conditions", "transforms", "norms", "maximal",
          "gallery", "cli")

#: Module-level public functions recorded as spans, by layer.
SPAN_FUNCTIONS = {
    "phi_core": ("make_family", "from_curve", "power_curve",
                 "region_from_dict"),
    "conditions": ("check_ainc", "check_adec", "check_a0", "check_a1",
                   "check_a2", "check_equivalence",
                   "check_weak_equivalence"),
    "transforms": ("glue_small_values", "small_value_threshold",
                   "cap_curve", "repair_asymptote", "rebuild_with_ainc",
                   "tail_asymptotes"),
    "norms": ("modular", "luxemburg_norm", "ball_norm_check",
              "duality_lower_bound", "pairing", "annulus_test_function"),
    "maximal": ("maximal", "operator_norm_estimate", "modular_growth"),
    "gallery": ("run_example", "run_pipeline"),
    "cli": ("main",),
}

#: Public methods recorded as spans, by layer.
SPAN_METHODS = {
    "phi_core": (("PhiFunction", "eval_many"), ("PhiFunction", "eval_grid")),
    "norms": (("GridFunction", "to_csv"), ("GridFunction", "from_csv"),
              ("GridFunction", "to_binary"), ("GridFunction", "from_binary"),
              ("ConjugateFunction", "eval_many"),
              ("ConjugateFunction", "inverse")),
}

#: Per-point ``phi_core`` methods aggregated as count plus total time.
HOT_METHODS = (("PhiFunction", "curve_at"), ("PhiFunction", "eval"),
               ("PhiFunction", "inverse"), ("PhiFunction", "conjugate_value"))

_IO_METHODS = {"GridFunction.to_csv", "GridFunction.from_csv",
               "GridFunction.to_binary", "GridFunction.from_binary"}
_CONJUGATE_METHODS = {"ConjugateFunction.eval_many",
                      "ConjugateFunction.inverse"}
_EVAL_METHODS = {"PhiFunction.eval_many", "PhiFunction.eval_grid"}
_CHECKS = set(SPAN_FUNCTIONS["conditions"])
_BUNDLES = {"run_example", "run_pipeline"}

# span fields
_NAME, _LAYER, _START, _END, _PARENT, _BUNDLE, _HOT = range(7)


def _module(layer: str):
    return sys.modules[f"orliczkit.{layer}"]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None
            and (name == "orliczkit" or name.startswith("orliczkit."))]


class Recorder:
    """Spans and counters of one traced pass.

    Use as a context manager: entering wraps every listed function and
    method of the orliczkit modules loaded at that time, leaving restores
    the originals.
    """

    def __init__(self):
        self._patches = []  # (owner, attribute, original object)
        self._in_hot = False
        self.spans = []
        self._stack = []
        self.bundle = -1
        self.hot = {f"{c}.{m}": [0, 0.0] for c, m in HOT_METHODS}
        self.counters = {"maximal.cell_radii": 0, "norms.modular_cells": 0,
                         "norms.io_bytes": 0, "phi_core.eval_points": 0,
                         "gallery.errored": 0, "cli.nonzero_exits": 0,
                         "cli.bytes_written": 0, "conditions.mismatches": 0}
        self._maximal_inputs = set()

    # -- installing and removing the wrappers

    def __enter__(self):
        try:
            for layer, names in SPAN_FUNCTIONS.items():
                mod = _module(layer)
                for name in names:
                    self._patch_everywhere(
                        mod.__dict__[name],
                        self._span_wrapper(layer, name, mod.__dict__[name]))
            for layer, methods in SPAN_METHODS.items():
                for cls_name, meth in methods:
                    self._patch_method(layer, cls_name, meth, hot=False)
            for cls_name, meth in HOT_METHODS:
                self._patch_method("phi_core", cls_name, meth, hot=True)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch_everywhere(self, original, wrapper):
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, layer, cls_name, meth, hot):
        cls = getattr(_module(layer), cls_name)
        raw = cls.__dict__[meth]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        qual = f"{cls_name}.{meth}"
        wrapper = (self._hot_wrapper(qual, fn) if hot
                   else self._span_wrapper(layer, qual, fn))
        self._patches.append((cls, meth, raw))
        setattr(cls, meth, staticmethod(wrapper) if static else wrapper)

    # -- wrappers

    def _span_wrapper(self, layer, name, fn):
        rec = self
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec._in_hot:
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0,
                    rec._stack[-1] if rec._stack else -1, rec.bundle, 0.0]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = perf_counter()
                rec._stack.pop()
            if note is not None:
                note(rec, args, kwargs, result)
            return result

        return wrapper

    def _hot_wrapper(self, name, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = rec.hot[name]
            stats[0] += 1
            if rec._in_hot:
                return fn(*args, **kwargs)
            rec._in_hot = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                rec._in_hot = False
                stats[1] += elapsed
                if rec._stack:
                    rec.spans[rec._stack[-1]][_HOT] += elapsed

        return wrapper

    # -- results

    def self_times(self) -> list:
        """Self time of every span: its duration minus its child spans and
        the aggregated per-point calls made directly under it."""
        own = [s[_END] - s[_START] - s[_HOT] for s in self.spans]
        for s in self.spans:
            if s[_PARENT] >= 0:
                own[s[_PARENT]] -= s[_END] - s[_START]
        return own

    def layer_metrics(self) -> dict:
        """The per-layer metrics of the pass, keyed by metric name."""
        own = self.self_times()
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = {}
        inclusive = {}
        for s, t in zip(self.spans, own):
            self_s[s[_LAYER]] += t
            calls[s[_NAME]] = calls.get(s[_NAME], 0) + 1
            inclusive[s[_NAME]] = (inclusive.get(s[_NAME], 0.0)
                                   + s[_END] - s[_START])
        hot_count = {k: v[0] for k, v in self.hot.items()}
        hot_time = {k: v[1] for k, v in self.hot.items()}
        self_s["phi_core"] += sum(hot_time.values())
        c = self.counters

        def total(names, table):
            return sum(table.get(n, 0) for n in names)

        def ratio(num, den):
            return num / den if den else 0.0

        n_max = calls.get("maximal", 0)
        n_lux = calls.get("luxemburg_norm", 0)
        lux_steps = sum(1 for s in self.spans if s[_NAME] == "modular"
                        and s[_PARENT] >= 0
                        and self.spans[s[_PARENT]][_NAME] == "luxemburg_norm")
        eval_time = (total(_EVAL_METHODS, inclusive)
                     + hot_time["PhiFunction.eval"])
        points = c["phi_core.eval_points"] + hot_count["PhiFunction.eval"]
        out = {
            "maximal.calls": n_max,
            "maximal.distinct_ratio": ratio(len(self._maximal_inputs), n_max),
            "maximal.cell_radii": c["maximal.cell_radii"],
            "maximal.self_s": self_s["maximal"],
            "maximal.ns_per_cell_radius": ratio(
                1e9 * inclusive.get("maximal", 0.0), c["maximal.cell_radii"]),
            "norms.luxemburg_calls": n_lux,
            "norms.bisection_steps_per_norm": ratio(lux_steps, n_lux),
            "norms.modular_cells": c["norms.modular_cells"],
            "norms.self_s": self_s["norms"],
            "norms.conjugate_s": total(_CONJUGATE_METHODS, inclusive),
            "norms.io_s": total(_IO_METHODS, inclusive),
            "norms.io_bytes": c["norms.io_bytes"],
            "phi_core.eval_calls": (total(_EVAL_METHODS, calls)
                                    + hot_count["PhiFunction.eval"]),
            "phi_core.eval_points": points,
            "phi_core.self_s": self_s["phi_core"],
            "phi_core.ns_per_point": ratio(1e9 * eval_time, points),
            "phi_core.curve_at_calls": hot_count["PhiFunction.curve_at"],
            "phi_core.conjugate_value_calls":
                hot_count["PhiFunction.conjugate_value"],
            "conditions.checks": total(_CHECKS, calls),
            "conditions.self_s": self_s["conditions"],
            "conditions.a1_s": inclusive.get("check_a1", 0.0),
            "conditions.mismatches": c["conditions.mismatches"],
            "transforms.calls": total(SPAN_FUNCTIONS["transforms"], calls),
            "transforms.self_s": self_s["transforms"],
            "gallery.bundles": total(_BUNDLES, calls),
            "gallery.self_s": self_s["gallery"],
            "gallery.errored": c["gallery.errored"],
            "cli.invocations": calls.get("main", 0),
            "cli.self_s": self_s["cli"],
            "cli.bytes_written": c["cli.bytes_written"],
            "cli.nonzero_exits": c["cli.nonzero_exits"],
            "trace.spans": len(self.spans),
        }
        return out

    def span_records(self) -> list:
        return [{"name": s[_NAME], "layer": s[_LAYER], "start": s[_START],
                 "end": s[_END], "parent": s[_PARENT], "bundle": s[_BUNDLE]}
                for s in self.spans]


# ---------------------------------------------------------------------------
# Per-call counts taken after a span has closed, so their cost stays out of
# the span itself.


def _note_maximal(rec, args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    cfg = cfg or _module("maximal").default_config(f)
    rec.counters["maximal.cell_radii"] += f.values.size * len(cfg.radius_set)
    digest = hashlib.blake2b(f.values.tobytes(), digest_size=16).hexdigest()
    rec._maximal_inputs.add((f.box, f.values.shape, digest, cfg))


def _note_modular(rec, args, kwargs, result):
    f = args[1] if len(args) > 1 else kwargs["f"]
    rec.counters["norms.modular_cells"] += f.values.size


def _note_eval(rec, args, kwargs, result):
    rec.counters["phi_core.eval_points"] += getattr(result, "size", 1)


def _note_write(rec, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    rec.counters["norms.io_bytes"] += (
        len(result) if path is None else os.path.getsize(path))


def _note_read(rec, args, kwargs, result):
    source = args[0] if args else kwargs["source"]
    if isinstance(source, (bytes, bytearray)):
        rec.counters["norms.io_bytes"] += len(source)
    elif not hasattr(source, "read"):
        rec.counters["norms.io_bytes"] += os.path.getsize(source)


def _note_example(rec, args, kwargs, result):
    if isinstance(result, dict) and "errored" in result:
        rec.counters["gallery.errored"] += 1


def _note_cli(rec, args, kwargs, result):
    if result != 0:
        rec.counters["cli.nonzero_exits"] += 1


_NOTES = {
    "maximal": _note_maximal,
    "modular": _note_modular,
    "PhiFunction.eval_many": _note_eval,
    "PhiFunction.eval_grid": _note_eval,
    "GridFunction.to_csv": _note_write,
    "GridFunction.to_binary": _note_write,
    "GridFunction.from_csv": _note_read,
    "GridFunction.from_binary": _note_read,
    "run_example": _note_example,
    "main": _note_cli,
}
