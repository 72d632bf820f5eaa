"""Command-line front end.

Subcommands map one-to-one onto the library probes:

    siphkit gallery list
    siphkit check si | decomposable        <function flags>
    siphkit decompose                      <function flags>
    siphkit verify euler | general-euler | levelset-grad <function flags>
    siphkit levelset radii | bounds | compact | negligible <function flags>
    siphkit cert positive-region           <function flags>
    siphkit solve paired-level --r <value>

Functions come either from the gallery (--gallery NAME, with --param key=value
for parametrized entries) or from an expression (--expr "x_1^2 + x_2^2" with
--n).  Every run emits a JSON (default) or CSV report with a fixed key order;
reruns with the same configuration and seed are byte-identical except for the
wall-time line.  Exit codes: 0 = pass, 1 = property violated (the report
carries witnesses), 2 = usage or configuration error (a size too large to
allocate too).  Each command accepts only the sampling flags its probe
reads; any other exits 2.

A report's config is its command line as parsed: the function echo, then
every other flag of the command in parser order, defaults included, apart
from where output goes (--out, --sweep-csv).  So a report can be rerun
from its config alone.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
import time

import numpy as np

from .decomposition import (DecompositionError, build_decomposition,
                            uniqueness_check, verify_decomposition)
from .euler import (euler_residual, general_euler_residual,
                    levelset_gradient_constancy, paired_level_solver,
                    positive_gradient_region)
from .exprlang import bind
from .field import GradientSpec
from .gallery import make_builtin, random_si, registry_rows
from .levelsets import (check_sandwiches, compactness_probe,
                        fold_projected_samples, negligibility_probe,
                        ray_level_radius, si_sandwich_applies, sphere_extrema)
from .rays import (SamplingPlan, check_decomposability,
                   check_scaling_invariance, default_directions,
                   ray_witness_kinds, row_witnesses)
from .reporting import Report, emit


class UsageError(ValueError):
    """Configuration problem: reported on stderr, exit code 2, as is every
    ValueError a rejected input raises."""


# -----------------------------------------------------------------------------
# argument plumbing


def _float_list(text: str) -> tuple:
    """argparse type of --eps: comma-separated numbers."""
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _parse_vector(text: str) -> np.ndarray:
    """argparse type of a point such as --x0 or --x-star: comma-separated
    finite numbers."""
    vec = np.array(_float_list(text))
    if not np.isfinite(vec).all():
        raise argparse.ArgumentTypeError(f"expected finite coordinates, got {text!r}")
    return vec


def _finite_float(text: str) -> float:
    """argparse type of a finite float, such as --level: a nan or infinite
    level matches no point, so every shell count would be 0 and pass."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type of tie bands, tolerances and bounds: finite and at
    least 0.  A nan --slack or --rtol turns every sandwich comparison false,
    so no witness is found, and an infinite --rate-bound or --tol passes
    anything."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type of the degree alpha of a decomposition: finite and
    above 0.  A nan alpha passes every sandwich comparison, and an infinite
    one turns the residuals into numpy warnings."""
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be above 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of counts that an empty run would pass or leave nan."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _parse_param_value(text: str):
    if ";" in text:
        return [[float(v) for v in row.split(",")] for row in text.split(";")]
    if "," in text:
        return [float(v) for v in text.split(",")]
    try:
        return float(text)
    except ValueError:
        return text


def _parse_params(items) -> dict:
    params = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"--param expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            params[key.strip()] = _parse_param_value(value)
        except ValueError as exc:
            raise UsageError(f"bad value for parameter {key!r}: {value!r}") from exc
    return params


def _number_param(params: dict, key: str, default, kind):
    """Pop the random_si parameter ``key``: a number, whole if ``kind`` is int."""
    value = params.pop(key, default)
    if not (isinstance(value, (int, float))
            and (kind is float or float(value).is_integer())):
        what = "an integer" if kind is int else "a number"
        raise UsageError(f"random_si parameter {key!r} must be {what}, got {value!r}")
    return kind(value)


def _resolve_field(args) -> tuple:
    """Build the target function; returns (field, function-config-echo)."""
    has_gallery = getattr(args, "gallery", None) is not None
    has_expr = getattr(args, "expr", None) is not None
    if has_gallery == has_expr:
        raise UsageError("choose exactly one function source: --gallery NAME "
                         "or --expr SOURCE")
    n = args.n
    if has_expr:
        field = bind(args.expr, n, x_star=args.x_star)
        return field, {"expr": args.expr, "n": n, "x_star": args.x_star}
    if args.x_star is not None:
        raise UsageError("--x-star applies to --expr functions only; gallery "
                         "entries are anchored at the origin")
    params = _parse_params(args.param)
    if args.gallery == "random_si":
        eps = _number_param(params, "eps", 0.3, float)
        modes = _number_param(params, "modes", 4, int)
        rseed = _number_param(params, "seed", args.seed, int)
        if params:
            raise UsageError(f"unknown random_si parameters: {sorted(params)}")
        field = random_si(rseed, n, eps=eps, modes=modes)
        echo = {"gallery": "random_si", "n": n,
                "params": {"eps": eps, "modes": modes, "seed": rseed}}
        return field, echo
    try:
        field = make_builtin(args.gallery, n, **params)
    except KeyError as exc:
        raise UsageError(str(exc).strip("'\"")) from exc
    except TypeError as exc:
        raise UsageError(str(exc)) from exc
    return field, {"gallery": args.gallery, "n": n, "params": params}


# sampling flag (argparse dest) -> SamplingPlan field; a field whose flag the
# command lacks keeps its default
_PLAN_FIELDS = {"samples": "n_samples", "box_radius": "box_radius",
                "rho_min": "rho_min", "rho_max": "rho_max",
                "t_max": "t_max", "grid_points": "grid_points"}


def _plan_from(args) -> SamplingPlan:
    given = {field: getattr(args, dest) for dest, field in _PLAN_FIELDS.items()
             if hasattr(args, dest)}
    return SamplingPlan(seed=args.seed, **given)


def _grad_spec(args) -> GradientSpec:
    return GradientSpec(h=args.h, force_numerical=args.numerical)


def _direction_angles(d: np.ndarray) -> list:
    """Hyperspherical angles of a unit direction (n-1 values; the last one is
    signed via atan2 of the final two coordinates)."""
    n = d.shape[0]
    if n == 1:
        return [0.0 if d[0] >= 0 else float(np.pi)]
    angles = []
    for i in range(n - 2):
        tail = np.linalg.norm(d[i + 1:])
        angles.append(float(np.arctan2(tail, d[i])))
    angles.append(float(np.arctan2(d[-1], d[-2])))
    return angles


# -----------------------------------------------------------------------------
# command handlers: each returns (metrics, witnesses); the verdict is "pass"
# iff there are no witnesses (see _dispatch)


def _cmd_check_si(args, field, plan):
    rep = check_scaling_invariance(field, plan, atol=args.atol)
    metrics = {"trials": rep.trials, "violations": rep.violations}
    return metrics, rep.witnesses


def _cmd_check_decomposable(args, field, plan):
    rep = check_decomposability(field, plan=plan)
    metrics = {"domain_verdict": rep.verdict, "scale": rep.scale,
               "ray_kinds": rep.ray_kinds}
    return metrics, rep.witnesses


def _cmd_decompose(args, field, plan):
    refs = {key: getattr(args, key) for key in ("x0", "x1", "xm1")}
    try:
        d = build_decomposition(field, alpha=args.alpha, plan=plan, **refs)
    except DecompositionError as exc:
        return {}, [{"kind": "build_failed", "reason": str(exc)}]
    check = verify_decomposition(field, d, plan)
    metrics = {"decomposition": d.summary(),
               "max_composition_residual": check.max_composition_residual,
               "max_ph_residual": check.max_ph_residual,
               "n_samples": check.n_samples}
    witnesses = list(check.witnesses)
    ok = (np.isfinite(check.max_composition_residual)
          and check.max_composition_residual <= args.comp_tol
          and np.isfinite(check.max_ph_residual)
          and check.max_ph_residual <= args.ph_tol)
    if not ok:
        witnesses.append({"kind": "residual_exceeded",
                          "max_composition_residual": check.max_composition_residual,
                          "max_ph_residual": check.max_ph_residual,
                          "comp_tol": args.comp_tol, "ph_tol": args.ph_tol})
    alt = {key: getattr(args, f"{key}_alt") for key in ("x0", "x1", "xm1")}
    if any(v is not None for v in alt.values()):
        try:
            d2 = build_decomposition(field, alpha=args.alpha, plan=plan, **alt)
        except DecompositionError as exc:
            witnesses.append({"kind": "build_failed", "reason": str(exc),
                              "which": "alternate"})
            return metrics, witnesses
        uq = uniqueness_check(field, d, d2, plan, p1=check.p_samples)
        metrics["uniqueness"] = uq
        witnesses += [{**w, "which": "alternate"} for w in d2.solver_failures]
        if not uq.passed:
            witnesses.append({"kind": "uniqueness_violation",
                              "classes": uq.classes})
    return metrics, witnesses


def _cmd_verify_euler(args, field, plan):
    alpha = args.alpha if args.alpha is not None else field.meta.ph_degree
    if alpha is None:
        raise UsageError("the field carries no homogeneity degree; pass --alpha")
    rep = euler_residual(field, alpha, plan, _grad_spec(args),
                         coord_floor=args.coord_floor)
    metrics = dict(vars(rep))  # the report's fields, its witnesses apart
    witnesses = metrics.pop("witnesses")
    if not (np.isfinite(rep.max_residual) and rep.max_residual <= args.tol):
        witnesses.append({"kind": "euler_residual",
                          "max_residual": rep.max_residual, "tol": args.tol})
    return metrics, witnesses


def _cmd_verify_general_euler(args, field, plan):
    try:
        d = build_decomposition(field, alpha=args.alpha, plan=plan)
    except DecompositionError as exc:
        return {}, [{"kind": "build_failed", "reason": str(exc)}]
    rep = general_euler_residual(field, d, plan, _grad_spec(args))
    metrics = {**vars(rep), "case": d.case}
    witnesses = metrics.pop("witnesses")
    if not (np.isfinite(rep.max_residual) and rep.max_residual <= args.tol):
        witnesses.append({"kind": "general_euler_residual",
                          "max_residual": rep.max_residual, "tol": args.tol})
    return metrics, witnesses


def _cmd_verify_levelset_grad(args, field, plan):
    rep = levelset_gradient_constancy(field, args.level, n_points=args.points,
                                      grad_spec=_grad_spec(args),
                                      seed=plan.seed, tol=args.tol)
    metrics = dict(vars(rep))  # the report's fields, its witnesses apart
    witnesses = metrics.pop("witnesses")
    # a nan spread, from products none of which is finite, is no spread
    if rep.skipped == rep.n_points or rep.spread > args.tol:
        kind = "no_level_points" if rep.skipped == rep.n_points else "spread_exceeded"
        witnesses.append({"kind": kind, "spread": rep.spread, "tol": args.tol})
    return metrics, witnesses


def _cmd_levelset_radii(args, field, plan):
    if args.directions is not None:
        dirs = plan.sphere_points(field.n, int(args.directions))
    else:
        dirs = default_directions(field.n, seed=plan.seed)
    radii = ray_level_radius(field, dirs, args.level, grid=plan.t_grid())
    witnesses = row_witnesses(~np.isin(radii.status, ("ok", "outside-range")),
                              ray_witness_kinds(radii.status), direction=dirs)
    metrics = {"level": args.level, "n_directions": int(len(dirs)),
               "radii": radii}
    if args.sweep_csv:
        with open(args.sweep_csv, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            n_angles = max(field.n - 1, 1)
            writer.writerow([f"angle_{i + 1}" for i in range(n_angles)]
                            + ["radius"])
            keep = radii.status != "non-monotone"
            writer.writerows(_direction_angles(d) + [r] for d, r in
                             zip(radii.direction[keep],
                                 radii.radius[keep].tolist()))
    return metrics, witnesses


def _cmd_levelset_bounds(args, field, plan):
    try:
        d = build_decomposition(field, alpha=field.meta.ph_degree or 1.0,
                                plan=plan)
    except DecompositionError as exc:
        return {}, [{"kind": "build_failed", "reason": str(exc)}]
    degree = field.meta.ph_degree
    ext = None
    if degree is not None or si_sandwich_applies(d):
        # one polish and one fold for the extrema of both sandwiches
        ext = fold_projected_samples(field, plan,
                                     sphere_extrema(field, seed=plan.seed))
    # and one pass over the samples for both
    si_rep, ph_rep = check_sandwiches(field, d, plan, ext, slack=args.slack,
                                      degree=degree, rtol=args.rtol)
    metrics = {"si_sandwich": {"verdict": si_rep.verdict, "m": si_rep.m,
                               "M": si_rep.M, "notes": si_rep.notes}}
    witnesses = list(si_rep.witnesses)
    if si_rep.verdict == "precondition-failed":
        witnesses.append({"kind": "precondition_failed",
                          "check": "si_sandwich",
                          "reason": si_rep.notes.get("reason", "")})
    if ph_rep is not None:
        metrics["ph_sandwich"] = {"verdict": ph_rep.verdict, "m": ph_rep.m,
                                  "M": ph_rep.M,
                                  "notes": {**ph_rep.notes,
                                            **ext.polish_notes()}}
        witnesses.extend(ph_rep.witnesses)
    return metrics, witnesses


def _cmd_levelset_compact(args, field, plan):
    rep = compactness_probe(field, args.level, plan=plan)
    metrics = {"domain_verdict": rep.verdict, "level": rep.level,
               "max_radius": rep.max_radius, "ray_kinds": rep.ray_kinds,
               "n_directions": rep.n_directions}
    return metrics, rep.witnesses


def _cmd_levelset_negligible(args, field, plan):
    rep = negligibility_probe(field, args.level, args.eps, plan,
                              rate_bound=args.rate_bound)
    metrics = dict(vars(rep))  # the report's fields, its witnesses apart
    witnesses = metrics.pop("witnesses")
    return metrics, witnesses


def _cmd_cert_positive_region(args, field, plan):
    cert = positive_gradient_region(field, plan, _grad_spec(args))
    witnesses = []
    if not cert.ok:
        witnesses.append({"kind": "certificate_failed", "scan": cert.scan})
    return cert, witnesses


def _cmd_solve_paired_level(args):
    # ArithmeticError: a --tol below the residual the solver reaches
    try:
        res = paired_level_solver(args.r, tol=args.tol)
    except ArithmeticError as exc:
        raise UsageError(str(exc)) from exc
    return res, []


def _cmd_gallery_list(args):
    return {"entries": registry_rows(args.n), "n": args.n}, []


# -----------------------------------------------------------------------------
# parser


def _add_field_flags(parser, plan_groups=(), samples_default=1000):
    """Function selection, --seed, the sampling flags of the ``plan_groups``
    the probe reads ("sample", "scale", "grid") and the output flags."""
    group = parser.add_argument_group("function selection")
    group.add_argument("--gallery", help="gallery entry name (see `gallery list`)")
    group.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="gallery entry parameter; repeatable "
                            "(lists comma-separated, matrices semicolon-rowed)")
    group.add_argument("--expr", help="expression source, e.g. 'x_1^2 + x_2^2'")
    group.add_argument("--n", type=_positive_int, default=2,
                       help="dimension (default 2)")
    group.add_argument("--x-star", dest="x_star", type=_parse_vector,
                       help="reference point for --expr functions "
                            "(comma-separated; default origin)")
    group = parser.add_argument_group("run settings")
    group.add_argument("--seed", type=int, default=0, help="RNG seed")
    if "sample" in plan_groups:
        group.add_argument("--N", dest="samples", type=int,
                           default=samples_default,
                           help=f"sample count (default {samples_default})")
        group.add_argument("--box-radius", type=_finite_float, default=2.0)
    if "scale" in plan_groups:
        group.add_argument("--rho-min", type=float, default=0.1)
        group.add_argument("--rho-max", type=_finite_float, default=10.0)
    if "grid" in plan_groups:
        group.add_argument("--t-max", type=_finite_float, default=10.0,
                           help="ray grid scale T")
        group.add_argument("--grid-points", type=int, default=24)
    _add_output_flags(group)


def _add_output_flags(group):
    group.add_argument("--out", default=None, help="report path (default stdout)")
    group.add_argument("--format", choices=("json", "csv"), default="json")


def _add_grad_flags(parser):
    parser.add_argument("--h", type=float, default=1e-5,
                        help="central-difference step scale")
    parser.add_argument("--numerical", action="store_true",
                        help="ignore analytic gradients")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siphkit",
        description="Construct, decompose, and empirically certify "
                    "scaling-invariant and positively homogeneous functions.")
    sub = parser.add_subparsers(dest="group", required=True)

    gal = sub.add_parser("gallery", help="built-in function catalog")
    gal_sub = gal.add_subparsers(dest="action", required=True)
    gal_list = gal_sub.add_parser("list", help="list entries with tags")
    gal_list.add_argument("--n", type=_positive_int, default=2)
    _add_output_flags(gal_list)

    chk = sub.add_parser("check", help="order-based property checks")
    chk_sub = chk.add_subparsers(dest="action", required=True)
    chk_si = chk_sub.add_parser("si", help="scaling invariance on sampled triples")
    _add_field_flags(chk_si, ("sample", "scale"))
    chk_si.add_argument("--atol", type=_nonnegative_float, default=1e-12,
                        help="order-comparison tie band")
    chk_dec = chk_sub.add_parser("decomposable",
                                 help="monotone rays + shared ray images")
    _add_field_flags(chk_dec, ("grid",))

    dec = sub.add_parser("decompose",
                         help="build f = phi o p and verify residuals")
    _add_field_flags(dec, ("sample", "scale", "grid"))
    dec.add_argument("--alpha", type=_positive_float, default=1.0)
    dec.add_argument("--x0", type=_parse_vector, help="one-sided reference point")
    dec.add_argument("--x1", type=_parse_vector, help="positive reference point")
    dec.add_argument("--xm1", type=_parse_vector, help="negative reference point")
    dec.add_argument("--x0-alt", type=_parse_vector,
                     help="second reference: triggers the uniqueness check")
    dec.add_argument("--x1-alt", type=_parse_vector)
    dec.add_argument("--xm1-alt", type=_parse_vector)
    dec.add_argument("--comp-tol", type=_nonnegative_float, default=1e-7)
    dec.add_argument("--ph-tol", type=_nonnegative_float, default=1e-7)

    ver = sub.add_parser("verify", help="differential identities")
    ver_sub = ver.add_subparsers(dest="action", required=True)
    ver_euler = ver_sub.add_parser("euler", help="alpha p = grad p . x")
    _add_field_flags(ver_euler, ("sample",))
    _add_grad_flags(ver_euler)
    ver_euler.add_argument("--alpha", type=_finite_float, default=None,
                           help="degree (default: the field's tag)")
    ver_euler.add_argument("--tol", type=_nonnegative_float, default=1e-6)
    ver_euler.add_argument("--coord-floor", type=_nonnegative_float, default=0.1,
                           help="least |coordinate| of a sample")
    ver_gen = ver_sub.add_parser("general-euler",
                                 help="grad f . x = alpha phi'(p) p")
    _add_field_flags(ver_gen, ("sample", "grid"))
    _add_grad_flags(ver_gen)
    ver_gen.add_argument("--alpha", type=_positive_float, default=1.0)
    ver_gen.add_argument("--tol", type=_nonnegative_float, default=1e-4)
    ver_lsg = ver_sub.add_parser("levelset-grad",
                                 help="constancy of grad f . z on a level set")
    _add_field_flags(ver_lsg)
    _add_grad_flags(ver_lsg)
    ver_lsg.add_argument("--level", type=_finite_float, required=True)
    ver_lsg.add_argument("--points", type=_positive_int, default=64)
    ver_lsg.add_argument("--tol", type=_nonnegative_float, default=1e-6)

    lvl = sub.add_parser("levelset", help="level-set geometry probes")
    lvl_sub = lvl.add_subparsers(dest="action", required=True)
    lvl_radii = lvl_sub.add_parser("radii", help="per-direction level radii")
    _add_field_flags(lvl_radii, ("grid",))
    lvl_radii.add_argument("--level", type=_finite_float, required=True)
    lvl_radii.add_argument("--directions", type=_positive_int, default=None,
                           help="sample this many sphere directions instead "
                                "of the default axis set")
    lvl_radii.add_argument("--sweep-csv", default=None,
                           help="also write (angles, radius) rows here")
    lvl_bounds = lvl_sub.add_parser("bounds", help="ball sandwich bounds")
    _add_field_flags(lvl_bounds, ("sample", "grid"))
    lvl_bounds.add_argument("--slack", type=_nonnegative_float, default=1e-4)
    lvl_bounds.add_argument("--rtol", type=_nonnegative_float, default=1e-9)
    lvl_compact = lvl_sub.add_parser("compact",
                                     help="sublevel compactness evidence")
    _add_field_flags(lvl_compact, ("grid",))
    lvl_compact.add_argument("--level", type=_finite_float, required=True)
    lvl_neg = lvl_sub.add_parser("negligible",
                                 help="Monte Carlo level-shell fractions")
    _add_field_flags(lvl_neg, ("sample",), samples_default=100000)
    lvl_neg.add_argument("--level", type=_finite_float, required=True)
    lvl_neg.add_argument("--eps", type=_float_list, default=(0.1, 0.05, 0.025),
                         help="strictly decreasing shell half-widths")
    lvl_neg.add_argument("--rate-bound", type=_nonnegative_float, default=1.0)

    cert = sub.add_parser("cert", help="certificates")
    cert_sub = cert.add_subparsers(dest="action", required=True)
    cert_pos = cert_sub.add_parser("positive-region",
                                   help="positive gradient product near a "
                                        "level set")
    _add_field_flags(cert_pos)
    _add_grad_flags(cert_pos)

    slv = sub.add_parser("solve", help="scalar solvers")
    slv_sub = slv.add_subparsers(dest="action", required=True)
    slv_pair = slv_sub.add_parser("paired-level",
                                  help="s > 1 with r^2 e^{-r^2} = s^2 e^{-s^2}")
    slv_pair.add_argument("--r", type=float, required=True)
    slv_pair.add_argument("--tol", type=_nonnegative_float, default=1e-10)
    _add_output_flags(slv_pair)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and kept for the
    process.  Reuse is safe: the parser holds no per-call state (no
    ``set_defaults``, and no mutable default: --eps defaults to a tuple)."""
    return build_parser()


_FIELD_HANDLERS = {
    ("check", "si"): _cmd_check_si,
    ("check", "decomposable"): _cmd_check_decomposable,
    ("decompose", None): _cmd_decompose,
    ("verify", "euler"): _cmd_verify_euler,
    ("verify", "general-euler"): _cmd_verify_general_euler,
    ("verify", "levelset-grad"): _cmd_verify_levelset_grad,
    ("levelset", "radii"): _cmd_levelset_radii,
    ("levelset", "bounds"): _cmd_levelset_bounds,
    ("levelset", "compact"): _cmd_levelset_compact,
    ("levelset", "negligible"): _cmd_levelset_negligible,
    ("cert", "positive-region"): _cmd_cert_positive_region,
}


# parsed values the config does not echo: the command's own name, where the
# report and the sweep go, and the function flags, which the function echo
# of a field command stands for
_NOT_ECHOED = {"group", "action", "out", "sweep_csv"}
_FUNCTION_FLAGS = {"gallery", "param", "expr", "n", "x_star"}


def _dispatch(args) -> Report:
    """Run the selected probe; the verdict is "pass" iff it found no
    witnesses.  The config echoes every parsed flag in parser order."""
    action = getattr(args, "action", None)
    command = args.group if action is None else f"{args.group} {action}"
    config = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
    if (args.group, action) == ("gallery", "list"):
        metrics, witnesses = _cmd_gallery_list(args)
    elif (args.group, action) == ("solve", "paired-level"):
        metrics, witnesses = _cmd_solve_paired_level(args)
    else:
        handler = _FIELD_HANDLERS[(args.group, action)]
        field, fn_echo = _resolve_field(args)
        if not np.isfinite(field.f_star):
            # every probe works on f - f(x_star), which is then nan everywhere
            raise UsageError("f(x_star) is not finite")
        metrics, witnesses = handler(args, field, _plan_from(args))
        config = {"function": fn_echo, **{k: v for k, v in config.items()
                                          if k not in _FUNCTION_FLAGS}}
    return Report(command=command, verdict="fail" if witnesses else "pass",
                  config=config, metrics=metrics, witnesses=witnesses)


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    ``main`` can be called repeatedly in one process: every call parses with
    the same parser, built on the first call.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    start = time.perf_counter()
    try:
        report = _dispatch(args)
    except (ValueError, OSError, MemoryError) as exc:
        # a rejected input (UsageError and ExprError are ValueErrors), a
        # file that cannot be opened, or a size too large to allocate
        print(f"siphkit: error: {exc}", file=sys.stderr)
        return 2
    report.wall_time_ms = round((time.perf_counter() - start) * 1000.0, 3)
    try:
        emit(report, args.out, args.format)
    except OSError as exc:
        print(f"siphkit: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0 if report.verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
