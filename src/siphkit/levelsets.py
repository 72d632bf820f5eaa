"""Level-set geometry probes.

Ray intersection radii (each half-line from the reference point meets a level
set of a strictly-monotone-ray field at most once), unit-sphere extrema of a
homogeneous part, the ball sandwich bounds they induce, a compactness probe
for sublevel sets, and a Monte Carlo shell probe for measure negligibility.

The sphere extrema come from seeded samples polished by arc searches: two
chains, from the smallest and the largest sample, each search one
great-circle arc per coordinate axis on a shrinking grid of angles, one
field call per grid step for both, pass after pass until a pass no longer
improves them.

The sandwich of a scaling-invariant f = phi o p needs the sphere extrema of
p, but not p's values along the way: with phi strictly increasing, f and p
order points identically, so an extremum search that only compares values
finds the same points on f.  It runs on f, and p is root-solved only at the
two points it returns.  So one search on f serves both sandwiches of a
field that is also homogeneous.  The extrema a sandwich checks also fold in
the projections of its own samples onto the sphere, so a sample is a
witness only when the sandwich fails along its own ray.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from typing import Optional, Sequence

import numpy as np

from .decomposition import ZERO_LEVEL_ATOL, Decomposition
from .field import ScalarField, row_sumsq
from .rays import (FEW_WITNESSES, MAX_WITNESSES, SamplingPlan, classify_ray,
                   default_directions, ray_witness_kinds, row_witnesses,
                   sample_blocks)
from .rootfind import (MAX_DOUBLINGS, NONFINITE, OK, UNBOUNDED, RootResult,
                       solve_monotone_batch)

# the arc search: grid angles per field call, and calls per arc
ARC_GRID = 31
ARC_CALLS = 14
_GRID = np.arange(1, ARC_GRID + 1) / (ARC_GRID + 1)
# cap on the passes of arcs, and the relative gain below which a pass
# settles its chain
SPHERE_PASSES = 7
SETTLE_RTOL = 1e-12

# the status of a monotone ray, indexed by its root-solve code: OK,
# UNBOUNDED, NONFINITE and BELOW_START are 0-3
_STATUS_LABEL = np.array(["ok", "unbounded", "non-finite", "outside-range"])


def _solve_level(field: ScalarField, D: np.ndarray, c,
                 increasing) -> RootResult:
    """f(x_star + t d) = c on the rays along the rows d of D, in one solve;
    ``c`` is one level for all rays or a level per ray.  A level equal to
    f(x_star) is met at the ray's start: t = 0, status OK, residual 0."""
    c = np.broadcast_to(np.asarray(c, dtype=float) - field.f_star, (len(D),))
    res = solve_monotone_batch(lambda t: field.ray_values(t, D), c, increasing)
    at_start = c == 0  # the solver's BELOW_START rows, never evaluated
    res.t[at_start], res.status[at_start], res.residual[at_start] = 0.0, OK, 0.0
    return res


def ray_level_radius(field: ScalarField, direction, c: float,
                     grid=None) -> np.recarray:
    """Radii t* with f(x_star + t* d) = c on the rays of ``direction``, of
    shape (n,) (one ray) or (R, n) (R rays): a record array with one row per
    ray and the fields ``direction``, ``level``, ``status``, ``radius`` and
    ``residual``.

    ``status`` is "ok" (unique radius found), "outside-range" (the level is
    on the wrong side of the ray's start, so the ray misses it), "unbounded"
    (bracket expansion exhausted -- evidence the ray never reaches the
    level), "discontinuous" (the ray jumps over the level: the solve
    brackets a sign change, but its residual exceeds 1e-8 (1 + |c|)),
    "whole-ray" (constant ray sitting exactly at the level), "non-finite",
    or "non-monotone" (the ray has no unique crossing).  ``radius`` and
    ``residual`` are nan unless the status is "ok".

    All rays are classified in one call and all monotone rays, on which a
    crossing is unique, are solved in one batched root solve.  Levels are
    raw f values, not shifted.
    """
    D = np.atleast_2d(np.asarray(direction, dtype=float))
    kinds = classify_ray(field, D, grid=grid)
    tol = 1e-12 * (1.0 + abs(field.f_star))
    constant = "whole-ray" if abs(float(c) - field.f_star) <= tol else "unbounded"
    # non-monotone and non-finite rays keep their kind as status; the
    # monotone ones get theirs from the solve below
    status = np.where(kinds == "constant", constant, kinds)
    radius, residual = np.full((2, len(D)), np.nan)
    increasing = kinds == "strictly-increasing"
    mono = increasing | (kinds == "strictly-decreasing")
    if mono.any():
        res = _solve_level(field, D[mono], c, increasing[mono])
        ok = res.status == OK
        status[mono] = _STATUS_LABEL[res.status]
        jumps = ok & (res.residual > 1e-8 * (1.0 + abs(float(c))))
        status[np.flatnonzero(mono)[jumps]] = "discontinuous"
        ok &= ~jumps
        radius[mono] = np.where(ok, res.t, np.nan)
        residual[mono] = np.where(ok, res.residual, np.nan)
    return np.rec.fromarrays(
        [D, np.full(len(D), float(c)), status, radius, residual],
        dtype=[("direction", float, D.shape[1:]), ("level", float),
               ("status", status.dtype), ("radius", float),
               ("residual", float)])


# -----------------------------------------------------------------------------
# sphere extrema


@dataclass
class SphereExtrema:
    m: float
    M: float
    argmin: np.ndarray
    argmax: np.ndarray
    n_samples: int
    refine_steps: int  # the cap on passes
    # passes the polish ran, and the chains still improving after the last
    # pass when it was the cap (0 when every chain settled)
    passes_run: int = 0
    capped_chains: int = 0
    # set by fold_projected_samples: the projected samples that beat the
    # polished minimum and maximum
    samples_below_polished_min: int = 0
    samples_above_polished_max: int = 0

    def polish_notes(self) -> dict:
        """The report notes on the polish, shared by both sandwiches."""
        return {"samples_below_polished_min": self.samples_below_polished_min,
                "samples_above_polished_max": self.samples_above_polished_max,
                "sphere_passes": self.passes_run,
                "chains_at_pass_cap": self.capped_chains}


def _arc_points(theta: np.ndarray, B: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Row k: the point at angle theta[k] on the great circle through B[k]
    with unit tangent T[k].

    One array expression for all rows: an arc search passes every chain's
    grid angles at once.  Array cos and sin round like the scalar calls (a
    test pins this), so a chain's points do not depend on the chains beside
    it.  The points are on the sphere only up to rounding: T is orthogonal
    to B only to about eps / ||tangent||, so callers divide by the norm.
    """
    return np.cos(theta)[:, None] * B + np.sin(theta)[:, None] * T


def _finite_or_inf(vals: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(vals), vals, np.inf)


def _arc_search(fun, B: np.ndarray, T: np.ndarray, signs: np.ndarray) -> tuple:
    """Minimize ``signs * fun`` over the half circle |theta| <= pi/2 of
    each chain's arc; returns the best (points, values) seen.

    Every call evaluates ``ARC_GRID`` interior angles of every chain's
    bracket, spaced evenly, at unit points.  The bracket then shrinks to the
    two grid neighbours of the call's best angle, so after ``ARC_CALLS``
    calls it is pi * (2 / (ARC_GRID + 1))**ARC_CALLS wide.
    """
    k, n = B.shape
    rows = np.arange(k)
    B_grid = np.repeat(B, ARC_GRID, axis=0)
    T_grid = np.repeat(T, ARC_GRID, axis=0)
    lo = np.full(k, -np.pi / 2)
    hi = -lo
    best_p = np.empty_like(B)
    best_v = np.full(k, np.inf)
    for _ in range(ARC_CALLS):
        theta = lo[:, None] + (hi - lo)[:, None] * _GRID
        P = _arc_points(theta.ravel(), B_grid, T_grid)
        P /= np.sqrt(row_sumsq(P))[:, None]
        vals = _finite_or_inf(signs[:, None] * fun(P).reshape(k, ARC_GRID))
        j = np.argmin(vals, axis=1)
        v = vals[rows, j]
        better = v < best_v
        best_v[better] = v[better]
        best_p[better] = P.reshape(k, ARC_GRID, n)[rows, j][better]
        edges = np.column_stack([lo, theta, hi])
        lo, hi = edges[rows, j], edges[rows, j + 2]
    return best_p, best_v


def _improved(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Where ``new`` lies more than SETTLE_RTOL below ``old``, relative; any
    finite value improves on an infinite one."""
    scale = np.abs(np.where(np.isfinite(old), old, 0.0))
    return new < old - SETTLE_RTOL * scale


def _refine_on_sphere(fun, starts: np.ndarray, signs: np.ndarray,
                      passes: int) -> tuple:
    """Arc searches through each chain's current point, one great-circle arc
    per coordinate axis, pass after pass.

    Row k of ``starts`` seeds chain k, which minimizes ``signs[k] * fun``:
    +1 minimizes, -1 maximizes.  ``fun`` maps a (k, n) batch of sphere points
    to their values.  The chains run in lockstep, so each step of an arc
    search costs one ``fun`` call for all of them; within a chain the arcs
    stay sequential (each starts from the point the previous arc found).  A
    chain settles after the first pass that improves it by at most
    SETTLE_RTOL relative, and leaves the batch; ``passes`` caps the passes.
    Each chain's steps depend on its own values only, so when ``fun``'s rows
    do not depend on their batch, a chain ends where it would alone.
    Returns the (points, values) of the chains, the passes run, and the
    number of chains that had not settled when the cap stopped them.
    """
    U = starts / np.sqrt(row_sumsq(starts))[:, None]
    V = _finite_or_inf(signs * fun(U))
    eye = np.eye(U.shape[1])
    live = np.arange(len(U))
    passes_run = 0
    for passes_run in range(1, passes + 1):
        before = V[live]
        for i, axis in enumerate(eye):
            u = U[live]
            tangent = axis - u[:, i:i + 1] * u
            norm = np.sqrt(row_sumsq(tangent))
            on_arc = norm >= 1e-12
            if not on_arc.any():
                continue
            chains = live[on_arc]
            points, vals = _arc_search(fun, u[on_arc],
                                       tangent[on_arc] / norm[on_arc, None],
                                       signs[chains])
            better = vals < V[chains]
            U[chains[better]] = points[better]
            V[chains[better]] = vals[better]
        live = live[_improved(V[live], before)]
        if not live.size:
            break
    return U, signs * V, passes_run, int(live.size)


def sphere_extrema(p: ScalarField, n_samples: int = 512,
                   refine_steps: int = SPHERE_PASSES,
                   seed: int = 0) -> SphereExtrema:
    """Extrema of p over the unit sphere around its reference point.

    The smallest and largest finite values of p on ``n_samples`` seeded
    sphere points start two chains, and arc searches polish them: one
    great-circle arc per coordinate axis through the chain's current point,
    each searched on a shrinking grid of angles, pass after pass until a
    pass no longer improves the extremum (at most ``refine_steps`` passes).
    Every point searched is divided by its norm, so each reported extremum
    is a value of p at a unit point.  The two chains are polished in
    lockstep, one evaluation of p per grid step for both.  At n = 1 the
    sphere is the two points +-1 and no arc moves a chain.
    """
    S = SamplingPlan(seed=seed).sphere_points(p.n, n_samples)
    vals = p.values(p.absolute(S))
    finite = np.isfinite(vals)
    if not finite.any():
        raise ValueError("function is non-finite on all sphere samples")
    starts = [int(np.argmin(np.where(finite, vals, np.inf))),
              int(np.argmax(np.where(finite, vals, -np.inf)))]
    U, V, passes_run, capped = _refine_on_sphere(
        lambda X: p.values(p.absolute(X)), S[starts], np.array([1.0, -1.0]),
        refine_steps)
    return SphereExtrema(m=float(V[0]), M=float(V[1]), argmin=U[0],
                         argmax=U[1], n_samples=n_samples,
                         refine_steps=refine_steps, passes_run=passes_run,
                         capped_chains=capped)


# -----------------------------------------------------------------------------
# sandwich bounds


@dataclass
class BoundsReport:
    """Outcome of a sandwich check: extrema used, witnesses of violations."""

    verdict: str  # "pass" | "fail" | "precondition-failed"
    m: float
    M: float
    witnesses: list
    n_samples: int
    seed: int
    notes: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _nonzero_blocks(plan: SamplingPlan, n: int):
    """The plan's box samples in blocks of rows, as (X0, r): the samples
    whose norm is above 0, and their norms.  ValueError after the last
    block if there is none (every norm underflows on a small enough box)."""
    kept = 0
    for _, X0 in sample_blocks(plan, n):
        r = np.sqrt(row_sumsq(X0))
        keep = r > 0
        kept += int(np.count_nonzero(keep))
        yield (X0, r) if keep.all() else (X0[keep], r[keep])
    if not kept:
        raise ValueError(f"every sample norm is 0 at box radius {plan.box_radius}")


def fold_projected_samples(field: ScalarField, plan: SamplingPlan,
                           ext: SphereExtrema) -> SphereExtrema:
    """Fold the projections x / ||x|| of ``plan``'s box samples into the
    sphere extrema ``ext`` of ``field``.

    A search such as :func:`sphere_extrema` may stop short of the true
    extrema.  Where a projected sample lies below the minimum or above the
    maximum, the best such sample replaces it (the first in row order among
    equals), so a sandwich checked on the same plan's samples fails at a
    sample only when it fails along that sample's own ray.  The result
    counts the samples that beat the polished minimum and maximum.  The
    samples are drawn in blocks of rows; ValueError if no norm is above 0.
    """
    below_count = above_count = 0
    best = {}  # "m" / "M" -> (value, point) of the best sample beyond it
    for X0, r in _nonzero_blocks(plan, field.n):
        U0 = X0 / r[:, None]
        vals = field.values(field.absolute(U0))
        finite = np.isfinite(vals)
        below, above = finite & (vals < ext.m), finite & (vals > ext.M)
        below_count += int(np.count_nonzero(below))
        above_count += int(np.count_nonzero(above))
        for key, beyond, pick, sign in (("m", below, np.argmin, 1.0),
                                        ("M", above, np.argmax, -1.0)):
            if beyond.any():
                i = int(pick(np.where(beyond, vals, sign * np.inf)))
                if key not in best or sign * vals[i] < sign * best[key][0]:
                    best[key] = (float(vals[i]), U0[i].copy())
    ext = replace(ext, samples_below_polished_min=below_count,
                  samples_above_polished_max=above_count)
    if "m" in best:
        ext = replace(ext, m=best["m"][0], argmin=best["m"][1])
    if "M" in best:
        ext = replace(ext, M=best["M"][0], argmax=best["M"][1])
    return ext


def _judge_samples(field: ScalarField, plan: SamplingPlan,
                   sandwiches: list) -> list:
    """The reports of ``sandwiches``, each a pair (report, checks), judged
    on the plan's nonzero box samples.

    ``checks(X0, r, f)`` lists for a block of samples (their norms r and
    field values f) each check as (rows that fail, witness kind, witness
    cap, witness columns); the report gains the witnesses, its verdict and
    the sample count.  With checks None the report is final.  The samples
    are drawn in blocks of rows, with f evaluated once per block, and only
    if some sandwich has checks; ValueError if no norm is above 0.
    """
    found = [{} for _ in sandwiches]  # per sandwich: check -> its witnesses
    kept = 0
    judged = any(checks for _, checks in sandwiches)
    for X0, r in _nonzero_blocks(plan, field.n) if judged else ():
        kept += r.size
        f = field.values(field.absolute(X0))
        for (_, checks), lists in zip(sandwiches, found):
            if checks is None:
                continue
            for i, (bad, kind, limit, columns) in enumerate(checks(X0, r, f)):
                seen = lists.setdefault(i, [])
                seen += row_witnesses(bad, kind, limit - len(seen), **columns)
    reports = []
    for (report, checks), lists in zip(sandwiches, found):
        witnesses = [w for seen in lists.values() for w in seen]
        reports.append(report if checks is None else replace(
            report, verdict="fail" if witnesses else "pass",
            witnesses=witnesses, n_samples=kept))
    return reports


def _ph_sandwich(alpha: float, m_p: float, M_p: float, rtol: float,
                 seed: int) -> tuple:
    def checks(X0, r, vals):
        lower = m_p * r ** alpha
        upper = M_p * r ** alpha
        slack = rtol * (1.0 + np.abs(upper))
        finite = np.isfinite(vals)
        columns = {"x": X0, "p": vals, "lower": lower, "upper": upper}
        return [(~finite, "non_finite", FEW_WITNESSES, {"x": X0}),
                (finite & (vals <= 0), "nonpositive_p", MAX_WITNESSES, columns),
                (finite & (vals < lower - slack), "lower_bound", MAX_WITNESSES,
                 columns),
                (finite & (vals > upper + slack), "upper_bound", MAX_WITNESSES,
                 columns)]
    return BoundsReport(verdict="pass", m=m_p, M=M_p, witnesses=[],
                        n_samples=0, seed=seed,
                        notes={"alpha": alpha, "rtol": rtol}), checks


def check_ph_sandwich(p: ScalarField, alpha: float, m_p: float, M_p: float,
                      plan: Optional[SamplingPlan] = None,
                      rtol: float = 1e-9) -> BoundsReport:
    """Verify m_p ||x||^alpha <= p(x) <= M_p ||x||^alpha on seeded samples.

    ``m_p`` and ``M_p`` are the unit-sphere extrema of p (degree alpha); the
    bound follows from homogeneity along each ray.  Witnesses record the
    violated side.  Nonpositive p at x != x_star is recorded too, since the
    sandwich is stated for positive homogeneous parts.  The bounds are
    checked as given; estimates from :func:`sphere_extrema` should first go
    through :func:`fold_projected_samples` with the same plan.  The samples
    are drawn in blocks of rows.
    """
    plan = plan or SamplingPlan()
    return _judge_samples(p, plan, [_ph_sandwich(alpha, m_p, M_p, rtol,
                                                 plan.seed)])[0]


def si_sandwich_applies(d: Decomposition) -> bool:
    """The precondition of :func:`check_si_sandwich`: the one-sided case
    with increasing rays (the reference point is the unique minimum)."""
    return d.case == "one-sided" and d.phi_increasing


def _first_finite_values(field: ScalarField, plan: SamplingPlan,
                         count: int) -> np.ndarray:
    """The first ``count`` finite values of f at the plan's nonzero box
    samples, in row order (all of them if fewer are finite).  Most samples
    are finite, so each block's first ``count`` rows are tried first."""
    found = np.empty(0)
    for X0, _ in _nonzero_blocks(plan, field.n):
        for part in (X0[:count], X0[count:]):
            if found.size < count and part.size:
                vals = field.values(field.absolute(part))
                found = np.concatenate([found, vals[np.isfinite(vals)]])
        if found.size >= count:
            break
    return found[:count]


def _precondition_failed(m: float, M: float, seed: int, notes: dict) -> tuple:
    """The SI sandwich's final (report, None) when a precondition fails."""
    witness = {"kind": "precondition_failed", "check": "si_sandwich",
               "reason": notes["reason"]}
    return BoundsReport(verdict="precondition-failed", m=m, M=M, witnesses=[witness],
                        n_samples=0, seed=seed, notes=notes), None


def _si_sandwich(field: ScalarField, d: Decomposition, plan: SamplingPlan,
                 slack: float, ext: Optional[SphereExtrema]) -> tuple:
    """The SI sandwich of :func:`check_si_sandwich` on the folded extrema
    ``ext``, as (report, checks) for :func:`_judge_samples`; checks is None
    when a precondition fails."""
    if not si_sandwich_applies(d):
        return _precondition_failed(np.nan, np.nan, plan.seed, {
            "reason": "requires the one-sided case with increasing rays "
                      "(unique minimum at the reference point)",
            "case": d.case, "phi_increasing": d.phi_increasing})
    inv_alpha = 1.0 / d.alpha
    q = d.p_values(field.absolute(np.array([ext.argmin, ext.argmax]))) ** inv_alpha
    # the sandwich needs p bounded away from 0 on the sphere; a minimum of f
    # inside the zero-level band counts as p = 0
    zero_band = ZERO_LEVEL_ATOL * (1.0 + abs(field.f_star))
    m_hat = 0.0 if ext.m - field.f_star <= zero_band else float(q[0])
    M_hat = float(q[1])
    notes = {"m_is_q_extremum": True, "alpha": d.alpha,
             "extrema_samples": ext.n_samples, **ext.polish_notes(),
             "slack": slack}
    if not (np.isfinite(m_hat) and m_hat > 0):
        return _precondition_failed(m_hat, M_hat, plan.seed, {
            **notes, "reason": "homogeneous part is not positive on the sphere"})

    x0 = d.positive_ref.point  # q(x_star + x0) = 1

    def phi1(t):  # phi(t^alpha), f along the reference ray
        return field.values(field.absolute(t[:, None] * x0))

    # Ball of radius rho inside the sublevel set at phi1(rho * M).
    caps = [(rho, float(phi1(np.array([rho * M_hat]))[0]))
            for rho in (0.5 * plan.box_radius, plan.box_radius)]
    # Sublevel set at level c inside the ball of radius phi1^{-1}(c)/m, at
    # the first 8 finite sample values: all levels in one solve along x0;
    # the level f(x_star) has radius 0, and a level phi does not reach (t
    # nan) is skipped
    levels = _first_finite_values(field, plan, 8)
    D = np.broadcast_to(x0, (levels.size, field.n))
    t_levels = _solve_level(field, D, levels, True).t
    balls = [(float(c), float(t_c) / m_hat)
             for c, t_c in zip(levels, t_levels) if not np.isnan(t_c)]

    def checks(X0, r, f_vals):
        lower = phi1(m_hat * r)
        upper = phi1(M_hat * r)
        band = slack * (1.0 + np.abs(f_vals))
        finite = np.isfinite(f_vals)
        columns = {"x": X0, "f": f_vals, "lower": lower, "upper": upper}
        out = [(~finite, "non_finite", FEW_WITNESSES, {"x": X0}),
               (finite & (f_vals < lower - band), "lower_bound", MAX_WITNESSES,
                columns),
               (finite & (f_vals > upper + band), "upper_bound", MAX_WITNESSES,
                columns)]
        for rho, cap in caps:
            bad = finite & (r < rho) & (f_vals > cap + slack * (1.0 + abs(cap)))
            out.append((bad, "ball_inclusion", FEW_WITNESSES,
                        {"rho": rho, "x": X0, "f": f_vals, "cap": cap}))
        for c, radius in balls:
            bad = finite & (f_vals <= c) & (r > radius * (1.0 + slack) + slack)
            out.append((bad, "ball_cover", FEW_WITNESSES,
                        {"level": c, "x": X0, "norm": r, "ball_radius": radius}))
        return out
    return BoundsReport(verdict="pass", m=m_hat, M=M_hat, witnesses=[],
                        n_samples=0, seed=plan.seed, notes=notes), checks


def check_sandwiches(field: ScalarField, d: Decomposition, plan: SamplingPlan,
                     slack: float = 1e-4, degree: Optional[float] = None,
                     rtol: float = 1e-9,
                     extrema: Optional[SphereExtrema] = None) -> tuple:
    """The SI sandwich of :func:`check_si_sandwich` and, when ``degree`` is
    given, the PH sandwich of :func:`check_ph_sandwich` of ``field`` itself,
    in one pass over the samples that evaluates f once for both.  Returns
    the two reports, the second None without a degree.  Both check the
    folded extrema ``fold_projected_samples(field, plan, sphere_extrema(field,
    seed=plan.seed))``, computed once and only when one of them needs it
    (``extrema``, optional, replaces them); the PH report's notes end with
    their polish notes."""
    if extrema is None and (degree is not None or si_sandwich_applies(d)):
        extrema = fold_projected_samples(field, plan,
                                         sphere_extrema(field, seed=plan.seed))
    sandwiches = [_si_sandwich(field, d, plan, slack, extrema)]
    if degree is not None:
        ph = _ph_sandwich(degree, extrema.m, extrema.M, rtol, plan.seed)
        ph[0].notes.update(extrema.polish_notes())
        sandwiches.append(ph)
    reports = _judge_samples(field, plan, sandwiches) + [None]
    return reports[0], reports[1]


def check_si_sandwich(field: ScalarField, d: Decomposition,
                      plan: Optional[SamplingPlan] = None,
                      slack: float = 1e-4,
                      extrema: Optional[SphereExtrema] = None) -> BoundsReport:
    """Verify phi(m ||x||) <= f(x) <= phi(M ||x||) and the ball inclusions.

    Requires the one-sided increasing case (the reference point is the unique
    global minimum) and a positive minimum of q on the sphere; otherwise the
    report carries verdict "precondition-failed" and a
    ``precondition_failed`` witness, and no sample is judged.  m and M are
    the unit-sphere extrema of the degree-1 representative q = p^(1/alpha);
    phi1(t) = phi(t^alpha) is the matching profile: f along the reference
    ray, where q = 1, on which the ball radii phi1^{-1}(c) are root-solved
    too.  ``slack`` is a relative tolerance absorbing the sampling error of
    the extrema estimates.

    The extrema are located on f itself.  With phi strictly increasing,
    f(x) < f(y) exactly when q(x) < q(y), so the seeded sampling and the
    arc searches, which only compare values, take the same steps on f as on
    q and stop at the same sphere points.  The samples' projections
    x / ||x|| are folded in (:func:`fold_projected_samples`), so a sample is
    a witness only when the sandwich fails along its own ray.  q is then
    solved at the two points chosen only, in one root solve.  This is the
    SI report of :func:`check_sandwiches`, ``extrema`` included.

    Beyond the pointwise sandwich, two inclusions are witness-searched:
    every sampled point with ||x|| < rho must lie in the sublevel set at
    phi1(rho M), and every sampled point of a sublevel set at level c must lie
    in the ball of radius phi1^{-1}(c)/m, for the first 8 finite sample
    values c.  The samples are drawn in blocks of rows.
    """
    return check_sandwiches(field, d, plan or SamplingPlan(), slack=slack,
                            extrema=extrema)[0]


# -----------------------------------------------------------------------------
# compactness


@dataclass
class CompactnessReport:
    verdict: str  # "bounded" | "unbounded-evidence"
    level: float
    max_radius: float
    ray_kinds: list
    witnesses: list
    n_directions: int
    seed: int

    @property
    def bounded(self) -> bool:
        return self.verdict == "bounded"


def compactness_probe(field: ScalarField, c: float, directions=None,
                      plan: Optional[SamplingPlan] = None) -> CompactnessReport:
    """Evidence for compactness of the sublevel set {f <= c}.

    Sublevel sets are compact exactly when every ray from the reference point
    is strictly increasing (the reference is the unique global minimum), so
    any constant, decreasing, non-monotone, or non-finite sampled ray is an
    unboundedness witness.  With all rays increasing, per-direction level
    radii are root-solved; a bracket blow-up is also unboundedness evidence
    (never proof — the expansion cap is finite and reported).
    """
    plan = plan or SamplingPlan()
    if directions is None:
        directions = default_directions(field.n, seed=plan.seed)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    kinds = classify_ray(field, directions, grid=plan.t_grid())
    witnesses = row_witnesses(kinds != "strictly-increasing",
                              ray_witness_kinds(kinds), direction=directions)
    max_radius = np.nan
    if not witnesses:
        res = _solve_level(field, directions, c, True)
        witnesses += row_witnesses(res.status == UNBOUNDED, "bracket_exhausted",
                                   direction=directions, doublings=MAX_DOUBLINGS)
        witnesses += row_witnesses(res.status == NONFINITE, "non_finite",
                                   FEW_WITNESSES, direction=directions)
        if not witnesses:
            # a BELOW_START row's level is under the ray's start: that ray
            # adds nothing to the sublevel set (radius 0)
            max_radius = float(np.where(res.status == OK, res.t, 0.0).max())
    verdict = "unbounded-evidence" if witnesses else "bounded"
    return CompactnessReport(verdict=verdict, level=c, max_radius=max_radius,
                             ray_kinds=kinds.tolist(), witnesses=witnesses,
                             n_directions=len(directions), seed=plan.seed)


# -----------------------------------------------------------------------------
# negligibility


@dataclass
class NegligibilityReport:
    """Monte Carlo shell fractions around one level value.

    A level set of measure zero shows up as shell fractions that shrink
    proportionally with the shell half-width eps; the pass rule requires the
    fractions to be non-increasing (within 3 sigma binomial noise) and the
    smallest to stay below rate_bound * eps.  ``witnesses`` names the
    first non-finite samples and an excess fraction.
    """

    level: float
    eps_list: list
    fractions: list
    counts: list
    n_samples: int
    box_radius: float
    passed: bool
    rate_bound: float
    seed: int
    notes: dict = dataclass_field(default_factory=dict)
    witnesses: list = dataclass_field(default_factory=list)


def negligibility_probe(field: ScalarField, c: float,
                        eps_list: Sequence[float] = (0.1, 0.05, 0.025),
                        plan: Optional[SamplingPlan] = None,
                        rate_bound: float = 1.0) -> NegligibilityReport:
    """Fractions of uniform box samples falling in the shells |f - c| <= eps.

    ``eps_list`` must be finite, strictly decreasing and positive.  The
    continuity of every ray section — the hypothesis under which level sets
    are negligible — is assumed, not verified; the report records this.  The
    samples are ``plan``'s box points (default: 100,000, seed 0, on
    [-2, 2]^n), drawn and evaluated in blocks of rows from one plan.rng().
    A non-finite value falls in no shell: the first few such samples are
    ``non_finite`` witnesses, and the probe fails.
    """
    eps = np.asarray(list(eps_list), dtype=float)
    if (eps.ndim != 1 or len(eps) < 1 or not np.isfinite(eps).all()
            or (eps <= 0).any() or (np.diff(eps) >= 0).any()):
        raise ValueError("eps_list must be finite, strictly decreasing and positive")
    plan = plan or SamplingPlan(n_samples=100_000)
    n_samples = plan.n_samples
    counts = [0] * len(eps)
    witnesses = []
    for _, X0 in sample_blocks(plan, field.n):
        vals = field.values(field.absolute(X0))
        dev = np.abs(vals - c)
        if not np.isfinite(dev.max()):  # one cheap pass: most blocks are finite
            witnesses += row_witnesses(~np.isfinite(vals), "non_finite",
                                       FEW_WITNESSES - len(witnesses), x=X0)
        counts = [k + int(np.count_nonzero(dev <= e))
                  for k, e in zip(counts, eps)]
    fractions = [cnt / n_samples for cnt in counts]
    # non-increasing within 3 sigma of binomial noise
    ok = all(cur <= prev + 3.0 * np.sqrt(max(prev * (1.0 - prev), 1e-12) / n_samples)
             for prev, cur in zip(fractions, fractions[1:]))
    if not (ok and fractions[-1] <= rate_bound * eps[-1]):
        witnesses.append({"kind": "excess_fraction", "eps": eps.tolist(),
                          "fractions": fractions, "rate_bound": rate_bound})
    return NegligibilityReport(
        level=c, eps_list=eps.tolist(), fractions=fractions, counts=counts,
        n_samples=n_samples, box_radius=plan.box_radius,
        passed=not witnesses, rate_bound=rate_bound, seed=plan.seed,
        notes={"assumption": "all ray sections continuous (not verified)"},
        witnesses=witnesses)
