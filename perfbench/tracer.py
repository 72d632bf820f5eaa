"""Per-layer spans and counters for siphkit, installed from outside the package.

``install()`` replaces the public functions of every siphkit module with
timing wrappers.  Several modules bind a function by name at import (for
example ``solve_monotone_batch`` lives in ``rootfind`` but is also a global of
``decomposition`` and ``levelsets``), so each wrapper replaces every binding
of the original object in every loaded siphkit module; patching only the
defining module would undercount.

Spans nest.  A layer's time is self time: the span's duration minus the time
its traced child spans cover.  Counts are incremented at the same boundaries
and are deterministic for a given list of operations.
"""

from __future__ import annotations

import functools
import re
import sys
import time
from collections import Counter, defaultdict

_STATUS_NAMES = ("ok", "unbounded", "nonfinite", "below_start")
# The one report line that differs between reruns; left out of byte counts.
WALL_LINE = re.compile(r'^  "wall_time_ms": .*\n', re.MULTILINE)

# Bindings that modules take by name at import.  install() fails if any of
# them is left unpatched.
REQUIRED_BINDINGS = (
    "siphkit.rootfind.solve_monotone_batch",
    "siphkit.decomposition.solve_monotone_batch",
    "siphkit.levelsets.solve_monotone_batch",
    "siphkit.rays.classify_ray",
    "siphkit.decomposition.classify_ray",
    "siphkit.levelsets.classify_ray",
    "siphkit.euler.classify_ray",
    "siphkit.levelsets.ray_level_radius",
    "siphkit.euler.ray_level_radius",
    "siphkit.cli.ray_level_radius",
)


class Tracer:
    def __init__(self):
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.bindings: list = []
        self._stack: list = []  # [span key, seconds covered by child spans]

    @property
    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def span(self, key, fn, before=None, after=None):
        """Wrap ``fn`` in a span.  ``key`` is a string or a function of the
        call's positional arguments; ``before(args, kwargs)`` may return
        replacement arguments; ``after(args, result)`` records counts."""
        stack = self._stack
        self_s = self.self_s
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = key(args) if callable(key) else key
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack.append([name, 0.0])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - stack.pop()[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper


def _siphkit_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "siphkit" or name.startswith("siphkit.")]


def _patch_function(tracer: Tracer, module, name: str, make) -> None:
    """Replace every binding of ``module.name`` in every siphkit module."""
    orig = getattr(module, name)
    wrapped = make(orig)
    for mod in _siphkit_modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)
                tracer.bindings.append(f"{mod.__name__}.{attr}")
    leftovers = [f"{mod.__name__}.{attr}" for mod in _siphkit_modules()
                 for attr, value in vars(mod).items() if value is orig]
    if leftovers:
        raise RuntimeError(f"unpatched bindings of {name}: {leftovers}")


def install() -> Tracer:
    """Import siphkit, wrap its layers and return the collecting tracer."""
    import numpy as np

    from siphkit import (cli, decomposition, euler, exprlang, field, gallery,
                         levelsets, rays, reporting, rootfind)

    t = Tracer()
    c = t.counts
    expr_sources: set = set()
    owners: dict = {}  # field name -> span key

    def fn(module, name, key, before=None, after=None):
        _patch_function(t, module, name,
                        lambda orig: t.span(key, orig, before, after))

    def method(cls, name, key, before=None, after=None):
        setattr(cls, name, t.span(key, getattr(cls, name), before, after))
        t.bindings.append(f"{cls.__module__}.{cls.__name__}.{name}")

    # field: the one evaluation choke point, self time attributed to the
    # owner of the evaluated function (gallery entry, expression or other).
    # make_builtin names a field after its entry, random_si after itself and
    # bind after the expression source.
    def owner_of(name):
        if name in expr_sources:
            return "field.eval:exprlang"
        if name in gallery.REGISTRY:
            return f"field.eval:{name}"
        if name.startswith("random_si("):
            return "field.eval:random_si"
        return "field.eval:other"

    def field_owner(args):
        name = args[0].meta.name
        key = owners.get(name)
        if key is None:
            key = owners[name] = owner_of(name)
        return key

    def count_eval(args, out):
        X = args[1]
        c["field.eval_calls"] += 1
        c["field.eval_points"] += X.shape[0]
        c["field.bytes_computed"] += X.nbytes + out.nbytes

    def count_gradient(args, out):
        c["field.gradient_points"] += out.shape[0]

    method(field.ScalarField, "_eval_batch", field_owner, after=count_eval)
    method(field.ScalarField, "gradient_values", "field.gradient",
           after=count_gradient)

    # exprlang
    def add_source(args, f):
        expr_sources.add(f.meta.name)
        owners.pop(f.meta.name, None)

    fn(exprlang, "bind", "exprlang.bind", after=add_source)

    # rootfind: profile evaluations are counted by wrapping the profile,
    # which the solver calls with one t per row
    def before_solve(args, kwargs):
        profile, rest = args[0], args[1:]
        rows = np.atleast_1d(rest[0]).shape[0]
        c["rootfind.solve_calls"] += 1
        c["rootfind.rows"] += rows
        if t.parent == "decomposition.p_values":
            c["decomposition.rows_solved"] += rows

        def counted(tv):
            c["rootfind.profile_evals"] += 1
            c["rootfind.profile_row_evals"] += len(tv)
            return profile(tv)
        return (counted, *rest), kwargs

    def after_solve(args, res):
        hist = np.bincount(np.asarray(res.status, dtype=int), minlength=4)
        for code, label in enumerate(_STATUS_NAMES):
            c[f"rootfind.status.{label}"] += int(hist[code])

    def before_golden(args, kwargs):
        c["rootfind.golden_calls"] += 1
        fun = args[0]

        def counted(x):
            c["rootfind.golden_evals"] += 1
            return fun(x)
        return (counted, *args[1:]), kwargs

    fn(rootfind, "solve_monotone_batch", "rootfind", before_solve, after_solve)
    fn(rootfind, "solve_monotone", "rootfind")
    fn(rootfind, "golden_section", "rootfind", before_golden)

    # rays
    fn(rays, "classify_ray", "rays.classify",
       after=lambda args, r: c.update({"rays.classify_calls": 1}))
    fn(rays, "check_scaling_invariance", "rays.si_check")
    fn(rays, "check_decomposability", "rays.decomposability")

    # decomposition
    def count_p_rows(args, lam):
        c["decomposition.p_rows"] += lam.shape[0]

    fn(decomposition, "build_decomposition", "decomposition.build")
    method(decomposition.Decomposition, "p_values", "decomposition.p_values")
    method(decomposition.Decomposition, "_solve_lambdas",
           "decomposition.p_values", after=count_p_rows)
    fn(decomposition, "verify_decomposition", "decomposition.verify")
    fn(decomposition, "uniqueness_check", "decomposition.verify")

    # levelsets
    fn(levelsets, "sphere_extrema", "levelsets.sphere_extrema",
       after=lambda args, r: c.update({"levelsets.sphere_extrema_calls": 1}))
    fn(levelsets, "ray_level_radius", "levelsets.ray_level_radius",
       after=lambda args, r: c.update({"levelsets.ray_level_radius_calls": 1}))
    fn(levelsets, "check_si_sandwich", "levelsets.sandwich")
    fn(levelsets, "check_ph_sandwich", "levelsets.sandwich")
    fn(levelsets, "compactness_probe", "levelsets.compactness")
    fn(levelsets, "negligibility_probe", "levelsets.negligibility")

    # euler
    fn(euler, "euler_residual", "euler.residual")
    fn(euler, "general_euler_residual", "euler.residual")
    fn(euler, "levelset_gradient_constancy", "euler.levelset_grad")
    fn(euler, "positive_gradient_region", "euler.positive_region")

    # reporting
    method(reporting.Report, "render", "reporting.render",
           after=lambda args, text: c.update(
               {"reporting.bytes": len(WALL_LINE.sub("", text).encode())}))

    # cli: parsing, field resolution and dispatch
    fn(cli, "main", "cli")

    missing = sorted(set(REQUIRED_BINDINGS) - set(t.bindings))
    if missing:
        raise RuntimeError(f"trace wrappers missed bindings: {missing}")
    return t


def layer_metrics(t: Tracer, entries) -> dict:
    """Per-layer metrics from one traced run: name -> (value, unit)."""
    s, c = t.self_s, t.counts

    def ratio(a, b):
        return a / b if b else 0.0

    eval_s = sum(v for k, v in s.items() if k.startswith("field.eval:"))
    m = {
        "field.eval_calls": (c["field.eval_calls"], "count"),
        "field.eval_points": (c["field.eval_points"], "count"),
        "field.points_per_call": (ratio(c["field.eval_points"],
                                        c["field.eval_calls"]), "points/call"),
        "field.eval_s": (eval_s, "s"),
        "field.points_per_s": (ratio(c["field.eval_points"], eval_s), "1/s"),
        "field.bytes_computed": (c["field.bytes_computed"], "bytes"),
        "field.gradient_points": (c["field.gradient_points"], "count"),
        "field.gradient_s": (s["field.gradient"], "s"),
    }
    for entry in entries:
        m[f"gallery.{entry}.eval_s"] = (s[f"field.eval:{entry}"], "s")
    m["exprlang.bind_s"] = (s["exprlang.bind"], "s")
    m["exprlang.eval_s"] = (s["field.eval:exprlang"], "s")
    m.update({
        "rootfind.solve_calls": (c["rootfind.solve_calls"], "count"),
        "rootfind.rows": (c["rootfind.rows"], "count"),
        "rootfind.rows_per_call": (ratio(c["rootfind.rows"],
                                         c["rootfind.solve_calls"]), "rows/call"),
        "rootfind.profile_evals": (c["rootfind.profile_evals"], "count"),
        "rootfind.profile_evals_per_root": (
            ratio(c["rootfind.profile_row_evals"], c["rootfind.rows"]),
            "evals/root"),
        "rootfind.self_s": (s["rootfind"], "s"),
    })
    for label in _STATUS_NAMES:
        m[f"rootfind.status.{label}"] = (c[f"rootfind.status.{label}"], "count")
    m.update({
        "rootfind.golden_calls": (c["rootfind.golden_calls"], "count"),
        "rootfind.golden_evals": (c["rootfind.golden_evals"], "count"),
        "rays.classify_calls": (c["rays.classify_calls"], "count"),
        "rays.classify_s": (s["rays.classify"], "s"),
        "rays.si_check_s": (s["rays.si_check"], "s"),
        "rays.decomposability_s": (s["rays.decomposability"], "s"),
        "decomposition.build_s": (s["decomposition.build"], "s"),
        "decomposition.p_rows": (c["decomposition.p_rows"], "count"),
        "decomposition.p_values_s": (s["decomposition.p_values"], "s"),
        "decomposition.verify_s": (s["decomposition.verify"], "s"),
        "decomposition.lambda_hit_frac": (
            ratio(c["decomposition.p_rows"] - c["decomposition.rows_solved"],
                  c["decomposition.p_rows"]), "frac"),
        "levelsets.sphere_extrema_calls": (
            c["levelsets.sphere_extrema_calls"], "count"),
        "levelsets.sphere_extrema_s": (s["levelsets.sphere_extrema"], "s"),
        "levelsets.ray_level_radius_calls": (
            c["levelsets.ray_level_radius_calls"], "count"),
        "levelsets.ray_level_radius_s": (s["levelsets.ray_level_radius"], "s"),
        "levelsets.sandwich_s": (s["levelsets.sandwich"], "s"),
        "levelsets.compactness_s": (s["levelsets.compactness"], "s"),
        "levelsets.negligibility_s": (s["levelsets.negligibility"], "s"),
        "euler.residual_s": (s["euler.residual"], "s"),
        "euler.levelset_grad_s": (s["euler.levelset_grad"], "s"),
        "euler.positive_region_s": (s["euler.positive_region"], "s"),
        "reporting.render_s": (s["reporting.render"], "s"),
        "reporting.bytes": (c["reporting.bytes"], "bytes"),
        "cli.self_s": (s["cli"], "s"),
    })
    return m
