"""Level-set geometry probes.

Ray intersection radii (each half-line from the reference point meets a level
set of a strictly-monotone-ray field at most once), unit-sphere extrema of a
homogeneous part, the ball sandwich bounds they induce, a compactness probe
for sublevel sets, and a Monte Carlo shell probe for measure negligibility.

The sandwich of a scaling-invariant f = phi o p needs the sphere extrema of
p, but not p's values along the way: with phi strictly increasing, f and p
order points identically, so an extremum search that only compares values
finds the same points on f.  It runs on f, and p is root-solved only at the
two points it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Sequence

import numpy as np

from .decomposition import ZERO_LEVEL_ATOL, Decomposition
from .field import ScalarField, row_sumsq
from .rays import (MAX_WITNESSES, SamplingPlan, classify_ray,
                   default_directions, row_blocks)
from .rootfind import (BELOW_START, MAX_DOUBLINGS, NONFINITE, OK, UNBOUNDED,
                       golden_section, solve_monotone_batch)

# sphere samples that seed the extrema search of the SI sandwich
SI_SPHERE_SAMPLES = 256

_STATUS_LABEL = {OK: "ok", UNBOUNDED: "unbounded", NONFINITE: "non-finite",
                 BELOW_START: "outside-range"}


@dataclass
class LevelRadius:
    """Intersection of one ray with the level set {f = c}.

    ``status`` is "ok" (unique radius found), "outside-range" (the level is on
    the wrong side of the ray's start, so the ray misses it), "unbounded"
    (bracket expansion exhausted — evidence the ray never reaches the level),
    "whole-ray" (constant ray sitting exactly at the level), "non-finite",
    or "non-monotone" (batch form only: the ray has no unique crossing).
    """

    direction: np.ndarray
    level: float
    status: str
    radius: float = np.nan
    residual: float = np.nan


def ray_level_radius(field: ScalarField, direction, c: float, grid=None):
    """Radius t* with f(x_star + t* d) = c along one ray or a batch of rays.

    ``direction`` is one direction of shape (n,), giving one
    :class:`LevelRadius`, or a batch of shape (R, n), giving a list of R.
    All rays are classified in one call and all monotone rays are solved in
    one batched root solve.  The uniqueness statement this probes presupposes
    monotone rays: a single non-monotone ray raises ``ValueError``, while in
    a batch such a ray gets status "non-monotone".  Levels are raw f values,
    not shifted.
    """
    d = np.asarray(direction, dtype=float)
    D = np.atleast_2d(d)
    verdicts = classify_ray(field, D, grid=grid)
    if d.ndim == 1 and verdicts[0].kind == "non-monotone":
        raise ValueError("ray is non-monotone; level radii are only defined "
                         "for monotone rays")
    gy = float(c) - field.f_star
    tol = 1e-12 * (1.0 + abs(field.f_star))
    constant = "whole-ray" if abs(gy) <= tol else "unbounded"
    # non-monotone and non-finite rays keep their verdict as status; the
    # monotone ones get theirs from the solve below
    out = [LevelRadius(row, c, constant if v.kind == "constant" else v.kind)
           for row, v in zip(D, verdicts)]
    mono = [i for i, v in enumerate(verdicts) if v.monotone]
    if mono:
        M = D[mono]
        increasing = np.array([verdicts[i].kind == "strictly-increasing"
                               for i in mono])

        def profile(t):
            return field.ray_values(t, M)

        res = solve_monotone_batch(profile, np.full(len(mono), gy), increasing)
        for j, i in enumerate(mono):
            out[i].status = _STATUS_LABEL[int(res.status[j])]
            if res.status[j] == OK:
                out[i].radius = float(res.t[j])
                out[i].residual = float(res.residual[j])
    return out if d.ndim == 2 else out[0]


# -----------------------------------------------------------------------------
# sphere extrema


@dataclass
class SphereExtrema:
    m: float
    M: float
    argmin: np.ndarray
    argmax: np.ndarray
    n_samples: int
    refine_steps: int


def _arc_points(theta: np.ndarray, B: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Row k: the point at angle theta[k] on the great circle through B[k]
    with unit tangent T[k].

    One array expression for all chains: a Python loop over the chains here
    would run at each of the 80 golden steps of every arc.  Array cos and
    sin round like the scalar calls (a test pins this), so a chain's points
    do not depend on the chains beside it.
    """
    return np.cos(theta)[:, None] * B + np.sin(theta)[:, None] * T


def _refine_on_sphere(fun, starts: np.ndarray, signs: np.ndarray,
                      passes: int) -> tuple:
    """Golden-section over great-circle arcs through each chain's current
    point, one arc per coordinate axis.

    Row k of ``starts`` seeds chain k, which minimizes ``signs[k] * fun``:
    +1 minimizes, -1 maximizes.  ``fun`` maps a (k, n) batch of sphere points
    to their values.  The chains run in lockstep, so each golden step costs
    one ``fun`` call for all of them; within a chain the arcs stay sequential
    (each starts from the point the previous arc found).  Each arc stacks
    its chains' bases and tangents once, so a golden step builds all their
    points in one :func:`_arc_points` call.  Returns the (points, values) of
    the chains.
    """
    eye = np.eye(starts.shape[1])
    best_u = [u / np.linalg.norm(u) for u in starts]
    best_v = signs * fun(np.array(best_u))
    for _ in range(passes):
        for axis in eye:
            chains, bases, tangents = [], [], []
            for k, u in enumerate(best_u):
                tangent = axis - (axis @ u) * u
                norm = np.linalg.norm(tangent)
                if norm >= 1e-12:
                    chains.append(k)
                    bases.append(u)
                    tangents.append(tangent / norm)
            if not chains:
                continue
            B, T = np.array(bases), np.array(tangents)

            def arc_vals(theta):
                vals = signs[chains] * fun(_arc_points(theta, B, T))
                return np.where(np.isfinite(vals), vals, np.inf)

            half = np.full(len(chains), np.pi / 2)
            theta_best, vals = golden_section(arc_vals, -half, half)
            points = _arc_points(theta_best, B, T)
            for j, k in enumerate(chains):
                if vals[j] < best_v[k]:
                    best_v[k] = vals[j]
                    best_u[k] = points[j] / np.linalg.norm(points[j])
    return np.array(best_u), signs * best_v


def sphere_extrema(p: ScalarField, n_samples=512, refine_steps: int = 2,
                   seed: int = 0):
    """Extrema of p over the unit sphere around its reference point.

    Seeded sphere sampling picks starting points; golden-section over
    great-circle arcs through the current best point (one arc per coordinate
    axis, ``refine_steps`` passes) polishes each extremum.  The minimum and
    maximum are polished in lockstep, one two-point evaluation of p per
    golden step.

    ``n_samples`` may also be a sequence of sample counts.  The result is
    then a list with one :class:`SphereExtrema` per count, each equal to the
    call with that count alone, and all their chains share one polish: a
    seed's smaller sample is the first rows of its larger one, and the
    chains never mix.  This holds when p's values do not depend on the
    batch they are evaluated in.
    """
    counts = [int(k) for k in np.atleast_1d(n_samples)]
    n = p.n
    if n == 1:
        pts = np.array([[1.0], [-1.0]])
        vals = p.values(p.absolute(pts))
        lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
        out = [SphereExtrema(float(vals[lo]), float(vals[hi]), pts[lo], pts[hi],
                             n_samples=2, refine_steps=0) for _ in counts]
    else:
        S = SamplingPlan(seed=seed).sphere_points(n, max(counts))
        vals = p.values(p.absolute(S))
        starts = []
        for k in counts:
            finite = np.isfinite(vals[:k])
            if not finite.any():
                raise ValueError("function is non-finite on all sphere samples")
            starts += [S[int(np.argmin(np.where(finite, vals[:k], np.inf)))],
                       S[int(np.argmax(np.where(finite, vals[:k], -np.inf)))]]
        U, V = _refine_on_sphere(lambda X: p.values(p.absolute(X)),
                                 np.array(starts),
                                 np.tile([1.0, -1.0], len(counts)), refine_steps)
        out = [SphereExtrema(m=float(V[2 * i]), M=float(V[2 * i + 1]),
                             argmin=U[2 * i], argmax=U[2 * i + 1], n_samples=k,
                             refine_steps=refine_steps)
               for i, k in enumerate(counts)]
    return out[0] if np.ndim(n_samples) == 0 else out


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


def check_ph_sandwich(p: ScalarField, alpha: float, m_p: float, M_p: float,
                      plan: Optional[SamplingPlan] = None,
                      rtol: float = 1e-9) -> BoundsReport:
    """Verify m_p ||x||^alpha <= p(x) <= M_p ||x||^alpha on seeded samples.

    ``m_p`` and ``M_p`` are the unit-sphere extrema of p (degree alpha); the
    bound follows from homogeneity along each ray.  Witnesses record the
    violated side.  Nonpositive p at x != x_star is recorded too, since the
    sandwich is stated for positive homogeneous parts.
    """
    plan = plan or SamplingPlan()
    X0 = plan.box_points(p.n)
    r = np.sqrt(row_sumsq(X0))
    keep = r > 1e-9
    X0, r = X0[keep], r[keep]
    vals = p.values(p.absolute(X0))
    lower = m_p * r ** alpha
    upper = M_p * r ** alpha
    slack = rtol * (1.0 + np.abs(upper))
    witnesses = []
    for idx in np.flatnonzero(~np.isfinite(vals))[:4]:
        witnesses.append({"kind": "non_finite", "x": X0[idx].tolist()})
    finite = np.isfinite(vals)
    for kind, bad in (("nonpositive_p", finite & (vals <= 0)),
                      ("lower_bound", finite & (vals < lower - slack)),
                      ("upper_bound", finite & (vals > upper + slack))):
        for idx in np.flatnonzero(bad)[:MAX_WITNESSES]:
            witnesses.append({"kind": kind, "x": X0[idx].tolist(),
                              "p": float(vals[idx]),
                              "lower": float(lower[idx]),
                              "upper": float(upper[idx])})
    verdict = "pass" if not witnesses else "fail"
    return BoundsReport(verdict=verdict, m=m_p, M=M_p, witnesses=witnesses,
                        n_samples=int(X0.shape[0]), seed=plan.seed,
                        notes={"alpha": alpha, "rtol": rtol})


def si_sandwich_applies(d: Decomposition) -> bool:
    """The precondition of :func:`check_si_sandwich`: the one-sided case
    with increasing rays (the reference point is the unique minimum)."""
    return d.case == "one-sided" and d.phi_increasing


def check_si_sandwich(field: ScalarField, d: Decomposition,
                      plan: Optional[SamplingPlan] = None,
                      slack: float = 1e-4,
                      extrema: Optional[SphereExtrema] = None) -> BoundsReport:
    """Verify phi(m ||x||) <= f(x) <= phi(M ||x||) and the ball inclusions.

    Requires the one-sided increasing case (the reference point is the unique
    global minimum); otherwise the report carries verdict
    "precondition-failed" and nothing is run.  m and M are the unit-sphere
    extrema of the degree-1 representative q = p^(1/alpha); phi1(t) = phi(t^alpha)
    is the matching profile.  ``slack`` is a relative tolerance absorbing the
    sampling error of the extrema estimates.

    The extrema are located on f itself.  With phi strictly increasing,
    f(x) < f(y) exactly when q(x) < q(y), so the seeded sampling and the
    golden-section polish, which only compare values, take the same steps
    on f as on q and stop at the same sphere points.  q is then solved at
    those two points only, in one root solve, instead of at every probe.
    ``extrema`` takes the result of ``sphere_extrema(field,
    n_samples=SI_SPHERE_SAMPLES, seed=plan.seed)`` from a caller that
    polished it together with other extrema; by default it is computed here.

    Beyond the pointwise sandwich, two inclusions are witness-searched:
    every sampled point with ||x|| < rho must lie in the sublevel set at
    phi1(rho M), and every sampled point of a sublevel set at level c must lie
    in the ball of radius phi1^{-1}(c)/m.
    """
    plan = plan or SamplingPlan()
    if not si_sandwich_applies(d):
        return BoundsReport(verdict="precondition-failed", m=np.nan, M=np.nan,
                            witnesses=[], n_samples=0, seed=plan.seed,
                            notes={"reason": "requires the one-sided case with "
                                             "increasing rays (unique minimum "
                                             "at the reference point)",
                                   "case": d.case,
                                   "phi_increasing": d.phi_increasing})
    inv_alpha = 1.0 / d.alpha
    ext = extrema if extrema is not None else sphere_extrema(
        field, n_samples=SI_SPHERE_SAMPLES, seed=plan.seed)
    q = d.p_values(field.absolute(np.array([ext.argmin, ext.argmax]))) ** inv_alpha
    # the sandwich needs p bounded away from 0 on the sphere; a minimum of f
    # inside the zero-level band counts as p = 0
    zero_band = ZERO_LEVEL_ATOL * (1.0 + abs(field.f_star))
    m_hat = 0.0 if ext.m - field.f_star <= zero_band else float(q[0])
    M_hat = float(q[1])
    notes = {"m_is_q_extremum": True, "alpha": d.alpha,
             "extrema_samples": ext.n_samples, "slack": slack}
    if not (np.isfinite(m_hat) and m_hat > 0):
        return BoundsReport(verdict="precondition-failed", m=m_hat, M=M_hat,
                            witnesses=[], n_samples=0, seed=plan.seed,
                            notes={**notes, "reason": "homogeneous part is not "
                                                      "positive on the sphere"})

    def phi1(t):
        return d.phi_values(np.asarray(t, dtype=float) ** d.alpha)

    X0 = plan.box_points(field.n)
    r = np.sqrt(row_sumsq(X0))
    keep = r > 1e-9
    X0, r = X0[keep], r[keep]
    f_vals = field.values(field.absolute(X0))
    lower = phi1(m_hat * r)
    upper = phi1(M_hat * r)
    band = slack * (1.0 + np.abs(f_vals))
    witnesses = []
    finite = np.isfinite(f_vals)
    for kind, bad in (("lower_bound", finite & (f_vals < lower - band)),
                      ("upper_bound", finite & (f_vals > upper + band))):
        for idx in np.flatnonzero(bad)[:MAX_WITNESSES]:
            witnesses.append({"kind": kind, "x": X0[idx].tolist(),
                              "f": float(f_vals[idx]),
                              "lower": float(lower[idx]),
                              "upper": float(upper[idx])})

    # Ball of radius rho inside the sublevel set at phi1(rho * M).
    for rho in (0.5 * plan.box_radius, plan.box_radius):
        cap = float(phi1(np.array([rho * M_hat]))[0])
        inside = finite & (r < rho)
        bad = inside & (f_vals > cap + slack * (1.0 + abs(cap)))
        for idx in np.flatnonzero(bad)[:4]:
            witnesses.append({"kind": "ball_inclusion", "rho": rho,
                              "x": X0[idx].tolist(), "f": float(f_vals[idx]),
                              "cap": cap})

    # Sublevel set at level c inside the ball of radius phi1^{-1}(c)/m.
    # all levels in one solve; those phi does not reach are skipped
    ref_levels = f_vals[np.isfinite(f_vals)][:8]
    t_levels, status = d.phi_inverse_values(ref_levels)
    for c, t_c, code in zip(ref_levels, t_levels, status):
        if code != OK:
            continue
        radius = float(t_c) ** inv_alpha / m_hat
        covered = finite & (f_vals <= c)
        bad = covered & (r > radius * (1.0 + slack) + slack)
        for idx in np.flatnonzero(bad)[:4]:
            witnesses.append({"kind": "ball_cover", "level": float(c),
                              "x": X0[idx].tolist(), "norm": float(r[idx]),
                              "ball_radius": float(radius)})

    verdict = "pass" if not witnesses else "fail"
    return BoundsReport(verdict=verdict, m=m_hat, M=M_hat, witnesses=witnesses,
                        n_samples=int(X0.shape[0]), seed=plan.seed, notes=notes)


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
    grid = plan.t_grid()
    kinds = [v.kind for v in classify_ray(field, directions, grid=grid)]
    witnesses = [{"kind": f"{kind}_ray", "direction": dvec.tolist()}
                 for dvec, kind in zip(directions, kinds)
                 if kind != "strictly-increasing"][:MAX_WITNESSES]
    if witnesses:
        return CompactnessReport(verdict="unbounded-evidence", level=c,
                                 max_radius=np.nan, ray_kinds=kinds,
                                 witnesses=witnesses,
                                 n_directions=len(directions), seed=plan.seed)

    gy = float(c) - field.f_star

    def profile(t):
        return field.ray_values(t, directions)

    res = solve_monotone_batch(profile, np.full(len(directions), gy),
                               increasing=True)
    radii = np.where(res.status == OK, res.t, 0.0)
    # BELOW_START rows mean the level is under the ray's start: that ray
    # contributes nothing to the sublevel set (radius 0).
    for i in np.flatnonzero(res.status == UNBOUNDED)[:MAX_WITNESSES]:
        witnesses.append({"kind": "bracket_exhausted",
                          "direction": directions[i].tolist(),
                          "doublings": MAX_DOUBLINGS})
    for i in np.flatnonzero(res.status == NONFINITE)[:4]:
        witnesses.append({"kind": "non_finite", "direction": directions[i].tolist()})
    verdict = "bounded" if not witnesses else "unbounded-evidence"
    max_radius = float(radii.max()) if verdict == "bounded" else np.nan
    return CompactnessReport(verdict=verdict, level=c, max_radius=max_radius,
                             ray_kinds=kinds, witnesses=witnesses,
                             n_directions=len(directions), seed=plan.seed)


# -----------------------------------------------------------------------------
# negligibility


@dataclass
class NegligibilityReport:
    """Monte Carlo shell fractions around one level value.

    A level set of measure zero shows up as shell fractions that shrink
    proportionally with the shell half-width eps; the pass rule requires the
    fractions to be non-increasing (within 3 sigma binomial noise) and the
    smallest to stay below rate_bound * eps.
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


def negligibility_probe(field: ScalarField, c: float,
                        eps_list: Sequence[float] = (0.1, 0.05, 0.025),
                        n_samples: int = 100_000, box_radius: float = 2.0,
                        seed: int = 0, rate_bound: float = 1.0) -> NegligibilityReport:
    """Fractions of uniform box samples falling in the shells |f - c| <= eps.

    ``eps_list`` must be finite, strictly decreasing and positive.  The
    continuity of every ray section — the hypothesis under which level sets
    are negligible — is assumed, not verified; the report records this.  The
    box is drawn and evaluated in blocks of rows from the one seeded
    generator.
    """
    eps = np.asarray(list(eps_list), dtype=float)
    if (eps.ndim != 1 or len(eps) < 1 or not np.isfinite(eps).all()
            or (eps <= 0).any() or (np.diff(eps) >= 0).any()):
        raise ValueError("eps_list must be finite, strictly decreasing and positive")
    rng = np.random.default_rng(seed)
    counts = [0] * len(eps)
    for rows in row_blocks(n_samples):
        X = field.absolute(rng.uniform(-box_radius, box_radius,
                                       size=(rows.stop - rows.start, field.n)))
        dev = np.abs(field.values(X) - c)
        counts = [k + int(np.count_nonzero(dev <= e))
                  for k, e in zip(counts, eps)]
    fractions = [cnt / n_samples for cnt in counts]
    ok = True
    for prev, cur in zip(fractions, fractions[1:]):
        sigma = np.sqrt(max(prev * (1.0 - prev), 1e-12) / n_samples)
        if cur > prev + 3.0 * sigma:
            ok = False
    final_ok = fractions[-1] <= rate_bound * eps[-1]
    return NegligibilityReport(
        level=c, eps_list=eps.tolist(), fractions=fractions, counts=counts,
        n_samples=n_samples, box_radius=box_radius, passed=bool(ok and final_ok),
        rate_bound=rate_bound, seed=seed,
        notes={"assumption": "all ray sections continuous (not verified)"})
