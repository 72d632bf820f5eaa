"""Differential identities of homogeneous and scaling-invariant fields.

Euler's identity alpha p(x) = grad p(x) . x for positively homogeneous p, its
generalization grad f(x) . x = alpha phi'(p(x)) p(x) through a decomposition,
constancy of grad f(z) . z on level sets, the paired-level solver for the
Gaussian bump (two distinct levels sharing one grad f . z value), saddle-shell
verification, and positive-gradient neighborhood certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .decomposition import Decomposition, _box_blocks
from .field import GradientSpec, ScalarField, row_sumsq
from .levelsets import ray_level_radius
from .rays import (FEW_WITNESSES, SamplingPlan, classify_ray, row_witnesses,
                   sample_blocks)
from .rootfind import OK, solve_monotone_batch

PHI_STEP = 1e-6           # general_euler_residual: phi' step / (1 + |p|)
P_FLOOR_FRAC = 0.01       # general_euler_residual: |p| floor / sample max
REGION_LEVEL_POINTS = 24  # positive_gradient_region: sampled level rays
REGION_OFFSETS = 16       # positive_gradient_region: offsets per level point
DERIVATIVE_FLOOR = 1e-3   # positive_gradient_region: ray slope that picks z0
DELTA_START = 1e-4        # positive_gradient_region: first fattening radius
DELTA_CAP = 0.5           # positive_gradient_region: largest fattening radius


@dataclass
class EulerReport:
    """Residuals of a homogeneity identity over seeded samples: the largest
    and the mean finite one (nan if none is finite), with a ``non_finite``
    witness for each of the first few samples where p or the residual is
    not finite, and last its tolerance witness if it fails."""

    max_residual: float
    mean_residual: float
    alpha: float
    grad_mode: str  # "analytic" | "central-difference"
    h: float
    n_samples: int
    excluded: int
    seed: int
    notes: dict = dataclass_field(default_factory=dict)
    witnesses: list = dataclass_field(default_factory=list)


def _grad_mode(field: ScalarField, spec: Optional[GradientSpec]) -> str:
    spec = spec or GradientSpec()
    if field.has_analytic_gradient and not spec.force_numerical:
        return "analytic"
    return "central-difference"


def _floored_box_points(plan: SamplingPlan, n: int, floor: float,
                        rng: np.random.Generator,
                        count: Optional[int] = None) -> np.ndarray:
    """``count`` (default ``plan.n_samples``) box samples with every
    coordinate at least ``floor`` in magnitude.

    Central differences lose accuracy on fields with axis singularities
    (square-root cusps and the like), so the Euler probes sample away from
    the coordinate hyperplanes.  Each coordinate is a random sign times
    U(floor, box_radius), drawn as one uniform V on [-1, 1): the sign of V
    and |V| are independent, so this is the uniform law on the floored box
    and no draw is rejected.
    """
    floor = max(float(floor), 0.0)
    if not floor < plan.box_radius:
        raise ValueError(f"coordinate floor {floor} must be below the box "
                         f"radius {plan.box_radius}")
    count = plan.n_samples if count is None else count
    V = rng.uniform(-1.0, 1.0, size=(count, n))
    return np.copysign(floor + np.abs(V) * (plan.box_radius - floor), V)


def _max_and_mean(residuals: np.ndarray, kind: str, tol: float,
                  witnesses: list) -> dict:
    """``max_residual`` and ``mean_residual``: the largest and the mean of
    the finite ``residuals``, nan if none is; a largest that is nan or above
    ``tol`` appends a ``kind`` witness to ``witnesses``."""
    finite = np.isfinite(residuals)
    if not finite.all():
        residuals = residuals[finite]
    worst = float(residuals.max()) if residuals.size else np.nan
    if not worst <= tol:  # nan fails too
        witnesses.append({"kind": kind, "max_residual": worst, "tol": tol})
    # finite residuals near the float maximum sum to inf: the mean reads inf
    with np.errstate(over="ignore"):
        mean = float(residuals.mean()) if residuals.size else np.nan
    return {"max_residual": worst, "mean_residual": mean}


def euler_residual(p: ScalarField, alpha: float,
                   plan: Optional[SamplingPlan] = None,
                   grad_spec: Optional[GradientSpec] = None,
                   coord_floor: float = 0.1, tol: float = 1e-6) -> EulerReport:
    """Max over samples of |alpha p(x) - grad p(x) . (x - x_star)|.

    ``p`` should be positively homogeneous of degree ``alpha`` and
    differentiable away from the reference point; samples keep every
    coordinate at least ``coord_floor`` from the reference to keep the
    difference stencil well conditioned.  A largest residual above ``tol``,
    or none finite, is an ``euler_residual`` witness.  The samples are
    drawn and evaluated in blocks of rows; each one's residual is kept, for
    the pairwise sum of their mean.
    """
    plan = plan or SamplingPlan()
    spec = grad_spec or GradientSpec()
    floored = (p.n, lambda count, rng: _floored_box_points(
        plan, p.n, coord_floor, rng, count))
    residuals = np.empty(plan.n_samples)
    excluded = 0
    witnesses = []
    for rows, Z in sample_blocks(plan, floored):
        X = p.absolute(Z)
        dots = np.einsum("ij,ij->i", p.gradient_values(X, spec), Z)
        # a huge alpha overflows alpha p to inf, witnessed as non-finite
        with np.errstate(over="ignore"):
            res = residuals[rows] = np.abs(alpha * p.values(X) - dots)
        bad = ~np.isfinite(res)
        if bad.any():
            excluded += int(np.count_nonzero(bad))
            witnesses += row_witnesses(bad, "non_finite",
                                       FEW_WITNESSES - len(witnesses), x=X)
    return EulerReport(**_max_and_mean(residuals, "euler_residual", tol,
                                       witnesses), alpha=alpha,
                       grad_mode=_grad_mode(p, spec), h=spec.h,
                       n_samples=plan.n_samples, excluded=excluded,
                       seed=plan.seed, notes={"coord_floor": coord_floor},
                       witnesses=witnesses)


def general_euler_residual(field: ScalarField, d: Decomposition,
                           plan: Optional[SamplingPlan] = None,
                           grad_spec: Optional[GradientSpec] = None,
                           tol: float = 1e-4) -> EulerReport:
    """Residual of grad f(x) . (x - x_star) = alpha phi'(p(x)) p(x).

    phi' comes from central differences on the one-dimensional profile with
    its own step — never from differentiating f, which is ill conditioned
    where phi' blows up.  Samples with |p| below ``P_FLOOR_FRAC`` times the
    sample maximum, or p = 0, are excluded for the same reason; so are
    samples where p is not finite, which are witnessed.  A largest residual
    above ``tol``, or none kept, is a ``general_euler_residual`` witness.

    The samples are drawn in blocks of rows, twice: the floor needs p at
    every sample first.  p is kept per sample, and then its residual.
    """
    plan = plan or SamplingPlan()
    spec = grad_spec or GradientSpec()
    count = plan.n_samples

    col = np.empty(count)  # p, then the residual of each kept sample
    scale = 0.0
    for (rows, _), p, _ in d.p_blocks(count, lambda: _box_blocks(field, plan)):
        col[rows] = p
        finite = p[np.isfinite(p)]
        if finite.size:
            scale = max(scale, float(np.abs(finite).max()))

    kept = 0
    witnesses = []
    for rows, Z in sample_blocks(plan, field.n):
        X = field.absolute(Z)
        p = col[rows]
        finite = np.isfinite(p)
        keep = finite & (np.abs(p) >= P_FLOOR_FRAC * scale) & (p != 0)
        pk = p[keep]
        step = PHI_STEP * (1.0 + np.abs(pk))
        if d.case == "one-sided":
            # keep the stencil inside the profile's domain t >= 0
            step = np.minimum(step, 0.5 * pk)
        phi_prime = ((d.phi_values(pk + step) - d.phi_values(pk - step))
                     / (2.0 * step))
        lhs = np.einsum("ij,ij->i", field.gradient_values(X[keep], spec), Z[keep])
        residuals = np.abs(lhs - d.alpha * phi_prime * pk)
        bad = ~finite  # p, or on a kept row the residual, is not finite
        bad[keep] = ~np.isfinite(residuals)
        witnesses += row_witnesses(bad, "non_finite",
                                   FEW_WITNESSES - len(witnesses), x=X)
        col[rows] = np.nan
        col[rows][keep] = residuals
        kept += int(np.count_nonzero(keep))
    return EulerReport(**_max_and_mean(col, "general_euler_residual", tol,
                                       witnesses), alpha=d.alpha,
                       grad_mode=_grad_mode(field, spec), h=spec.h,
                       n_samples=kept, excluded=count - kept, seed=plan.seed,
                       notes={"phi_step": PHI_STEP, "p_floor_frac": P_FLOOR_FRAC},
                       witnesses=witnesses)


# -----------------------------------------------------------------------------
# level-set constancy of grad f . z


@dataclass
class SpreadReport:
    """Spread of grad f(z) . (z - x_star) over one sampled level set, with
    the witnesses of :func:`levelset_gradient_constancy`; passed if none."""

    level: float
    spread: float
    mean: float
    passed: bool
    tol: float
    skipped: int
    n_points: int
    seed: int
    witnesses: list = dataclass_field(default_factory=list)


def _level_points(field: ScalarField, dirs: np.ndarray, c: float) -> np.ndarray:
    """Points r d of the level set {f = c} on the rays along ``dirs`` that
    meet it, in direction order; rays that miss the level are dropped."""
    radii = ray_level_radius(field, dirs, c)
    ok = radii.status == "ok"
    return radii.radius[ok, None] * dirs[ok]


def levelset_gradient_constancy(field: ScalarField, c: float,
                                n_points: int = 64,
                                grad_spec: Optional[GradientSpec] = None,
                                seed: int = 0, tol: float = 1e-6) -> SpreadReport:
    """Spread of grad f(z) . (z - x_star) over points of the level set {f = c}.

    Level points come from ray radii over seeded sphere directions, each
    distinct point taken once; directions whose ray misses the level (or
    defeats the classifier) are skipped and counted, and if every one is,
    that is a ``no_level_points`` witness.  The spread and mean are over the
    finite products; the first few points whose product is not finite are
    witnessed, and a spread above ``tol`` is a ``spread_exceeded`` witness.
    """
    plan = SamplingPlan(seed=seed)
    Z = _level_points(field, plan.sphere_points(field.n, n_points), c)
    skipped = n_points - Z.shape[0]
    # each distinct point once, in first-seen order: at the level f(x_star)
    # every ray meets the level at x_star
    Z = Z[np.sort(np.unique(Z, axis=0, return_index=True)[1])]
    if not Z.shape[0]:
        return SpreadReport(level=c, spread=np.nan, mean=np.nan, passed=False,
                            tol=tol, skipped=skipped, n_points=n_points,
                            seed=seed, witnesses=[{"kind": "no_level_points",
                                                   "spread": np.nan, "tol": tol}])
    X = field.absolute(Z)
    dots = np.einsum("ij,ij->i", field.gradient_values(X, grad_spec), Z)
    bad = ~np.isfinite(dots)
    witnesses = row_witnesses(bad, "non_finite", FEW_WITNESSES, x=X)
    finite = dots[~bad]
    spread = float(finite.max() - finite.min()) if finite.size else np.nan
    if spread > tol:  # not a nan spread: no product is finite, no spread
        witnesses.append({"kind": "spread_exceeded", "spread": spread, "tol": tol})
    return SpreadReport(level=c, spread=spread,
                        mean=float(finite.mean()) if finite.size else np.nan,
                        passed=not witnesses, tol=tol, skipped=skipped,
                        n_points=n_points, seed=seed, witnesses=witnesses)


# -----------------------------------------------------------------------------
# paired levels of the Gaussian bump


@dataclass
class PairedLevels:
    """Radii r < 1 < s whose Gaussian-bump level sets share one value of
    grad f(z) . z, i.e. r² e^{−r²} = s² e^{−s²}."""

    r: float
    s: float
    shared_value: float  # the common t e^{-t} value at t = r², s²
    residual: float


def paired_level_solver(r: float, tol: float = 1e-10) -> PairedLevels:
    """The unique s > 1 with r² e^{−r²} = s² e^{−s²}, for 0 < r < 1.

    The map t ↦ t e^{−t} increases up to its peak at t = 1 and decreases
    after, so each value below the peak is taken exactly twice.  The second
    preimage u = s² = 1 + t is the root of the profile (1 + t) e^{−(1 + t)},
    decreasing from e^{−1}, in :func:`~siphkit.rootfind.solve_monotone_batch`;
    a target that rounds to the peak e^{−1} is met at u = 1.  r outside
    (0, 1) is rejected — in particular feeding an s back in is invalid — and
    so is an r whose target r² e^{−r²} is below the smallest normal double
    (r below about 1.49e-154), where the target loses its relative precision
    and the root with it.
    """
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie strictly inside (0, 1): the paired level "
                         "exists only below the peak of t e^{-t} at t = 1")
    target = r ** 2 * np.exp(-(r ** 2))
    tiny = np.finfo(float).tiny
    if target < tiny:
        raise ValueError(f"r must be at least {np.sqrt(tiny):.4g}: below it "
                         f"r^2 e^(-r^2) falls under the smallest normal "
                         f"double {tiny:.3g}")

    def profile(t):
        return (1.0 + t) * np.exp(-(1.0 + t))

    res = solve_monotone_batch(profile, np.array([target]), False,
                               value_at_zero=np.exp(-1.0))
    u = 1.0 + (float(res.t[0]) if res.status[0] == OK else 0.0)
    s = float(np.sqrt(u))
    residual = abs(u * np.exp(-u) - target)
    if residual > tol:
        raise ArithmeticError(f"paired-level residual {residual} above {tol}")
    return PairedLevels(r=r, s=s, shared_value=float(target), residual=residual)


# -----------------------------------------------------------------------------
# saddle shells


@dataclass
class SaddleReport:
    radii: list
    max_grad_norms: list
    grad_tol: float
    monotone_ok: bool
    passed: bool
    points_per_shell: int
    seed: int


def saddle_levels(field: ScalarField, k_max: int = 3, tol: float = 1e-6,
                  points_per_shell: int = 16, seed: int = 0) -> SaddleReport:
    """Verify the saddle shells: the gradient vanishes on every sphere of
    radius sqrt(k pi) while rays stay strictly increasing across them.

    The radii are known analytically for the saddle gallery entry (the
    profile's derivative is sin² of the squared radius), so this is a residual
    verification, not a search — root-finding on the gradient norm would be
    ill posed at an inflection.
    """
    if field.meta.name != "saddle_si":
        raise ValueError("saddle shell verification applies to the saddle_si "
                         "gallery entry")
    plan = SamplingPlan(seed=seed)
    radii = [float(np.sqrt(k * np.pi)) for k in range(1, k_max + 1)]
    max_norms = []
    for radius in radii:
        U = plan.sphere_points(field.n, points_per_shell)
        grads = field.gradient_values(field.absolute(radius * U))
        max_norms.append(float(np.sqrt(row_sumsq(grads)).max()))

    grid = np.linspace(0.05, radii[-1] + 0.5, 64)
    dirs = np.vstack([np.eye(field.n), plan.sphere_points(field.n, 4)])
    monotone_ok = bool((classify_ray(field, dirs, grid=grid)
                        == "strictly-increasing").all())
    passed = monotone_ok and all(v <= tol for v in max_norms)
    return SaddleReport(radii=radii, max_grad_norms=max_norms, grad_tol=tol,
                        monotone_ok=monotone_ok, passed=passed,
                        points_per_shell=points_per_shell, seed=seed)


# -----------------------------------------------------------------------------
# positive-gradient neighborhood certificate


@dataclass
class NeighborhoodCertificate:
    """A point z0 in the closed unit ball whose level set carries
    grad f(z) . z >= epsilon > 0, together with a fattening radius delta that
    keeps the product above epsilon / 2 on sampled offsets.

    epsilon is an estimate from below over samples only: the true level set
    may attain a smaller minimum between sampled rays.  delta stops growing at
    the first sampled violation or at the hard cap, whichever comes first.
    The defaults are those of a certificate that failed before fattening;
    one that failed carries a ``certificate_failed`` witness with its scan.
    """

    ok: bool = False
    z0: Optional[np.ndarray] = None
    level: float = np.nan
    epsilon: float = np.nan
    delta: float = 0.0
    stop_reason: str = "failed"  # "violation" | "cap" | "failed"
    n_level_points: int = 0
    n_fattened: int = 0
    skipped_directions: int = 0
    seed: int = 0
    scan: list = dataclass_field(default_factory=list)
    violation: Optional[dict] = None
    witnesses: list = dataclass_field(default_factory=list)


def _failed_certificate(scan: list, seed: int, **found) -> NeighborhoodCertificate:
    """A certificate that failed before fattening, witnessed by its scan."""
    return NeighborhoodCertificate(seed=seed, scan=scan, **found, witnesses=[
        {"kind": "certificate_failed", "scan": scan}])


def positive_gradient_region(field: ScalarField,
                             plan: Optional[SamplingPlan] = None,
                             grad_spec: Optional[GradientSpec] = None
                             ) -> NeighborhoodCertificate:
    """Certificate that grad f(z) . (z - x_star) stays positive near a level set.

    Picks s = sampled argmin of f on the unit sphere, scans t from 1 downward
    for a ray derivative above ``DERIVATIVE_FLOOR`` (which automatically
    avoids saddle shells, where the derivative vanishes), sets z0 = t s,
    samples the level set through z0 by ray radii, takes epsilon as the
    sampled minimum of the gradient product, then doubles delta from
    ``DELTA_START`` up to ``DELTA_CAP`` while every offset sample of the
    fattened level set keeps the product at or above epsilon / 2.
    """
    plan = plan or SamplingPlan()
    rng = plan.rng()
    n = field.n
    sphere = plan.sphere_points(n, 128, rng=rng)
    svals = field.values(field.absolute(sphere))
    finite = np.isfinite(svals)
    if not finite.any():
        return _failed_certificate([["sphere", "non-finite"]], plan.seed)
    s = sphere[int(np.argmin(np.where(finite, svals, np.inf)))]

    # the ray derivative at all 20 t in one field call; the scan reports
    # them up to the first that passes
    t = np.linspace(1.0, 0.05, 20)
    h = 1e-4 * (1.0 + t)
    ahead, behind = np.split(field.values(field.absolute(
        np.concatenate([t + h, t - h])[:, None] * s)), 2)
    with np.errstate(all="ignore"):
        deriv = (ahead - behind) / (2.0 * h)
    passes = np.flatnonzero(np.isfinite(deriv) & (deriv > DERIVATIVE_FLOOR))
    stop = passes[0] + 1 if passes.size else 20
    scan = np.column_stack([t, deriv])[:stop].tolist()
    if not passes.size:
        return _failed_certificate(scan, plan.seed)
    t_found = float(t[passes[0]])
    z0 = t_found * s
    level = float(field.value(field.x_star + z0))

    dirs = np.vstack([s, plan.sphere_points(n, REGION_LEVEL_POINTS, rng=rng)])
    Z = _level_points(field, dirs, level)
    skipped = dirs.shape[0] - Z.shape[0]
    grads = field.gradient_values(field.absolute(Z), grad_spec)
    dots = np.einsum("ij,ij->i", grads, Z)
    finite_dots = dots[np.isfinite(dots)]
    epsilon = float(finite_dots.min()) if finite_dots.size else np.nan
    if not (np.isfinite(epsilon) and epsilon > 0):
        return _failed_certificate(scan, plan.seed, z0=z0, level=level,
                                   epsilon=epsilon, n_level_points=Z.shape[0],
                                   skipped_directions=skipped)

    offsets = plan.sphere_points(n, REGION_OFFSETS, rng=rng)
    radial = Z / np.sqrt(row_sumsq(Z))[:, None]
    delta = 0.0
    violation = None
    n_fattened = 0
    candidate = DELTA_START
    while True:
        # offset bank per level point: shared unit offsets plus +-radial
        Y = np.concatenate([
            (Z[:, None, :] + candidate * offsets[None, :, :]).reshape(-1, n),
            Z + candidate * radial,
            Z - candidate * radial,
        ])
        g2 = field.gradient_values(field.absolute(Y), grad_spec)
        dots2 = np.einsum("ij,ij->i", g2, Y)
        n_fattened += Y.shape[0]
        bad = ~(dots2 >= epsilon / 2.0)  # catches nan too
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            violation = {"delta": float(candidate), "point": Y[i].tolist(),
                         "dot": float(dots2[i])}
            break
        delta = candidate
        if candidate >= DELTA_CAP:
            break
        candidate = min(2.0 * candidate, DELTA_CAP)
    stop = "cap" if violation is None else "violation"
    return NeighborhoodCertificate(ok=True, z0=z0, level=level, epsilon=epsilon,
                                   delta=float(delta), stop_reason=stop,
                                   n_level_points=Z.shape[0], n_fattened=n_fattened,
                                   skipped_directions=skipped, seed=plan.seed,
                                   scan=scan, violation=violation)
