"""Canonical decomposition f = phi o p of a scaling-invariant field.

The homogeneous part is recovered by ray root-finding: for a reference point
x0 with nonzero shifted value, lambda(x) solves g(lambda x) = g(x0) along the
ray through x, and p(x) = (1 / lambda(x))**alpha (sign-split across two
references when rays of both monotonicities exist).  The profile phi is the
field's own ray section through the reference, rescaled so that p is
positively homogeneous of the requested degree.

With phi strictly monotone, f(x) = f(x_star) exactly when p(x) = 0, so the
zero level is {g = 0} itself: only exact zeros get p = 0, and every row with
a nonzero g, however small, is root-solved.  The ``ZERO_LEVEL_ATOL`` band
serves only to choose the case and to reject a reference value.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .field import FieldMeta, ScalarField, _as_point
from .rays import (FEW_WITNESSES, MAX_WITNESSES, SamplingPlan, classify_ray,
                   default_directions, order_trichotomy, row_witnesses,
                   sample_blocks)
from .rootfind import (BELOW_START, MAX_DOUBLINGS, OK, UNBOUNDED,
                       solve_monotone_batch)

ZERO_LEVEL_ATOL = 1e-12
# uniqueness_check: largest coefficient of variation of p1/p2 in a class
UNIQUENESS_CV_TOL = 1e-6
# _scaled_p: half-width, relative, of the bracket around a guessed lambda
GUESS_BAND = 1e-9
# p_values: the table of g along a sign class's reference ray, built for
# classes of at least TABLE_MIN_ROWS rows; its points per octave of s, and
# the half-width, relative, of the bracket around a lambda read off it
TABLE_MIN_ROWS = 64
TABLE_POINTS_PER_OCTAVE = 512
TABLE_BAND = 3e-5


class DecompositionError(RuntimeError):
    """Raised when the construction's preconditions fail."""


@dataclass
class ReferenceInfo:
    point: np.ndarray        # shifted coordinates
    value: float             # shifted field value there
    increasing: bool         # ray monotonicity through the point


class Decomposition:
    """Handles for the parts of f = phi o p.

    ``p`` takes absolute coordinates and satisfies p(x_star) = 0 and
    p(x_star + rho z) = rho**alpha p(x_star + z).  ``phi`` is strictly
    monotone on the achieved range with phi(0) = f(x_star); in the one-sided
    case its domain is t >= 0 and it decreases iff the field's rays do.
    """

    def __init__(self, field: ScalarField, alpha: float, case: str,
                 positive_ref: Optional[ReferenceInfo] = None,
                 negative_ref: Optional[ReferenceInfo] = None):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if case not in ("zero", "one-sided", "two-sided"):
            raise ValueError(f"unknown case {case!r}")
        self.field = field
        self.alpha = float(alpha)
        self.case = case
        self.positive_ref = positive_ref
        self.negative_ref = negative_ref
        # witnesses of the rows the latest p_values call, or the latest
        # sample of p_blocks, could not solve; each starts a fresh list
        self.solver_failures: list = []
        self._tables: dict = {}  # the table of each reference

    # -- p ------------------------------------------------------------------

    def _solve_lambdas(self, Z: np.ndarray, ref: ReferenceInfo,
                       bracket=None, failures=None) -> np.ndarray:
        """lambda(z) with g(lambda z) = ref.value for each row of Z, nan where
        the ray never meets the reference level; the rows that fail are
        witnessed in ``failures`` (default ``solver_failures``), up to
        ``MAX_WITNESSES`` in all.  Not memoised: every call solves all of its
        rows in one batched root solve, seeded by ``bracket`` where it
        straddles (see ``solve_monotone_batch``)."""

        def profile(t):
            return self.field.ray_values(t, Z)

        failures = self.solver_failures if failures is None else failures
        res = solve_monotone_batch(profile, np.full(Z.shape[0], ref.value),
                                   increasing=ref.increasing, bracket=bracket)
        reason = np.where(res.status == UNBOUNDED, "unbounded_ray",
                          np.where(res.status == BELOW_START, "level_unreachable",
                                   "non_finite"))
        failures += row_witnesses(res.status != OK, reason,
                                  MAX_WITNESSES - len(failures), point=Z)
        return np.where(res.status == OK, res.t, np.nan)

    def _classes(self, g: np.ndarray) -> tuple:
        """(reference, sign of p, rows) of each sign class of the levels g;
        none in the zero case."""
        if self.case == "zero":
            return ()
        if self.case == "one-sided":
            return ((self.positive_ref, 1.0, (g != 0) & ~np.isnan(g)),)
        return ((self.positive_ref, 1.0, g > 0), (self.negative_ref, -1.0, g < 0))

    def p_values(self, X) -> np.ndarray:
        """Canonical p over an (N, n) batch of absolute points.

        A sign class of at least ``TABLE_MIN_ROWS`` rows has a table of g
        along its reference ray.  Since f = phi o p, g(z) = g(s x0) means
        lambda(z) = 1/s, so the level g(z), already known, gives the bracket
        (1 -+ TABLE_BAND) / s-hat (see ``_table_scales``).  A row whose
        table bracket does not straddle its root -- a level off the table, a
        field that is not SI -- is solved from the cold bracket, as are the
        rows of a smaller class.  So every root is a sign change on the
        row's own ray.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        [(_, p, _)] = self.p_blocks(len(X), lambda: [(None, X)])
        return p

    def p_blocks(self, count: int, blocks):
        """p over a sample of ``count`` rows, solved block by block as one
        ``p_values`` call over the sample would solve it: yields (block, p,
        f) for each block (key, X) of ``blocks()``, key whatever the caller
        needs back (such as the block's rows), X the block's absolute
        points, and f the field's values that gave the levels g = f -
        f(x_star), at x_star + (X - x_star).

        A class has a table when the whole sample has ``TABLE_MIN_ROWS`` rows
        of it: the first block decides that when it is the whole sample or
        has that many rows of each class; otherwise the classes are counted
        over the sample's blocks drawn again.  The failures of each class
        are kept in row order and listed class by class in
        ``solver_failures`` after the last block.
        """
        tables, failures = None, ([], [])
        for block in blocks():
            _, X = block
            Z = X - self.field.x_star
            f = self.field.values(self.field.absolute(Z))
            g = self.field.minus_f_star(f)
            p = np.zeros(X.shape[0])
            classes = self._classes(g)
            if not classes:  # the zero case: p = 0 everywhere, no solve
                yield block, p, f
                continue
            if tables is None:
                counts = [np.count_nonzero(cls) for _, _, cls in classes]
                if min(counts) < TABLE_MIN_ROWS and len(X) < count:
                    counts = [0] * len(classes)
                    for _, Y in blocks():
                        h = self.field.shifted_values(Y - self.field.x_star)
                        counts = [c + np.count_nonzero(cls) for c, (_, _, cls)
                                  in zip(counts, self._classes(h))]
                        if min(counts) >= TABLE_MIN_ROWS:
                            break
                tables = [c >= TABLE_MIN_ROWS for c in counts]
            p[np.isnan(g)] = np.nan
            for (ref, sign, cls), table, found in zip(classes, tables, failures):
                if cls.any():
                    bracket = self._table_bracket(ref, g[cls]) if table else None
                    lam = self._solve_lambdas(Z[cls], ref, bracket, found)
                    # lambda = 0 (the ray starts on the reference level), or
                    # a huge alpha: p = inf
                    with np.errstate(divide="ignore", over="ignore"):
                        p[cls] = sign * (1.0 / lam) ** self.alpha
            yield block, p, f
        self.solver_failures = (failures[0] + failures[1])[:MAX_WITNESSES]

    def _scaled_p(self, Z: np.ndarray, guess: np.ndarray,
                  certify: bool) -> np.ndarray:
        """p at the offsets Z, each row seeded by its guess of p, on the
        rows where the guess is finite and nonzero; 0 on the others.
        Failures are not kept, and no table is tried.

        A guess gives lambda-hat = |guess|**(-1/alpha) and the bracket
        lambda-hat (1 -+ GUESS_BAND), whose ends are evaluated on the row's
        own ray.  With ``certify``, a row whose bracket straddles its class
        level is not solved: the two ends prove a root between them, and
        lambda is read from one secant step there.  Its other rows are
        solved cold, as the seeded solve goes on to solve a row whose
        bracket does not straddle.  Without ``certify`` every row takes the
        seeded solve.
        """
        p = np.zeros(len(Z))
        live = np.isfinite(guess) & (guess != 0)
        if not live.any():
            return p
        Z, guess = Z[live], guess[live]
        g = self.field.shifted_values(Z)
        q = np.where(np.isnan(g), np.nan, 0.0)
        with np.errstate(over="ignore"):
            lam_hat = np.abs(guess) ** (-1.0 / self.alpha)
        lo, hi = lam_hat * (1.0 - GUESS_BAND), lam_hat * (1.0 + GUESS_BAND)
        seedable = (lo < hi) & np.isfinite(hi)  # as the solver takes a bracket
        for ref, sign, cls in self._classes(g):
            if not cls.any():
                continue
            s = 1.0 if ref.increasing else -1.0
            if not (certify and np.isfinite(ref.value) and s * ref.value > 0):
                lam = self._solve_lambdas(Z[cls], ref, (lo[cls], hi[cls]), [])
            else:
                # g at the ends as the solver reads it, s * (value - level):
                # a root lies between them where it is below 0 at lo, not at hi
                seed = cls & seedable
                lam = np.full(len(Z), np.nan)
                if seed.any():
                    M, a, b = Z[seed], lo[seed], hi[seed]
                    with np.errstate(all="ignore"):
                        g_a = s * self.field.ray_values(a, M) - s * ref.value
                        g_b = s * self.field.ray_values(b, M) - s * ref.value
                        step = g_a / (g_a - g_b)  # nan at an infinite end
                    step = np.where(np.isfinite(step), step, 0.5)  # bisect
                    lam[seed] = np.where((g_a < 0) & (g_b >= 0),
                                         a + step * (b - a), np.nan)
                lam = lam[cls]
                cold = np.isnan(lam)
                if cold.any():
                    lam[cold] = self._solve_lambdas(Z[cls][cold], ref, None, [])
            with np.errstate(divide="ignore"):
                q[cls] = sign * (1.0 / lam) ** self.alpha
        p[live] = q
        return p

    def _table_bracket(self, ref: ReferenceInfo, h: np.ndarray) -> tuple:
        """The table's bracket (lo, hi) for rows with levels ``h``, the
        table grown to reach them."""
        lam = 1.0 / self._table_scales(ref, h)
        return lam * (1.0 - TABLE_BAND), lam * (1.0 + TABLE_BAND)

    def _table_scales(self, ref: ReferenceInfo, h: np.ndarray) -> np.ndarray:
        """For each level of ``h``, the s with g(s x0) = h on the reference
        ray: log s interpolated linearly in log |g| over a table at s =
        2**(k / TABLE_POINTS_PER_OCTAVE), which is exact where g is a power
        of s.  nan where the level is beyond the table's strictly monotone
        run around s = 1, or on the other side of zero."""
        with np.errstate(invalid="ignore", divide="ignore"):
            uh = np.log(h if ref.increasing else -h)
        u = uh[np.isfinite(uh)]
        if not u.size:
            return np.full(h.shape, np.nan)
        log_s, ut = self._table(ref, u.min(), u.max())
        keep = np.isfinite(ut)  # g = 0 or inf at an end of the run
        # interp finds sorted levels far faster than unsorted ones
        order = np.argsort(uh)
        out = np.empty(h.shape)
        out[order] = np.interp(uh[order], ut[keep], log_s[keep],
                               left=np.nan, right=np.nan)
        return np.exp2(out)

    def _table(self, ref: ReferenceInfo, u_lo: float, u_hi: float) -> tuple:
        """(log s, log |g(s x0)|) of ``ref``'s table, the latter nan off the
        run around s = 1 where g is strictly monotone, grown to reach the
        levels from u_lo to u_hi (in log |g|) or the run's end.

        The table is kept per reference and only extended: whole octaves
        from s = 1 out to the levels' extremes, then the table points.  Its
        points are fixed and the run is the same wherever the table reaches,
        so a level gets the same interpolation from any table that holds it.
        """
        per = TABLE_POINTS_PER_OCTAVE
        key = (ref.point.tobytes(), ref.increasing)  # what the table depends on
        if key not in self._tables:
            k = np.arange(-MAX_DOUBLINGS, MAX_DOUBLINGS + 1)
            uk = _run(self._ray_logs(ref, k.astype(float)), MAX_DOUBLINGS)
            self._tables[key] = [k, uk, 0, np.empty(0)]
        k, uk, start, u = table = self._tables[key]
        run, below, above = k[~np.isnan(uk)], k[uk <= u_lo], k[uk >= u_hi]
        lo = per * min(below.max() if below.size else run.min(), 0)
        hi = per * max(above.min() if above.size else run.max(), 0)
        if not u.size:
            start, u = lo, self._ray_logs(ref, np.arange(lo, hi + 1) / per)
        if lo < start:
            u = np.concatenate([self._ray_logs(ref, np.arange(lo, start) / per), u])
            start = lo
        if hi >= start + u.size:
            u = np.concatenate([u, self._ray_logs(
                ref, np.arange(start + u.size, hi + 1) / per)])
        table[2:] = start, u
        return np.arange(start, start + u.size) / per, _run(u, -start)

    def _ray_logs(self, ref: ReferenceInfo, log_s: np.ndarray) -> np.ndarray:
        """log |g(s x0)| at s = 2**log_s, in one field call."""
        M = np.broadcast_to(ref.point, (log_s.size, ref.point.size))
        h = self.field.ray_values(np.exp2(log_s), M)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.log(h if ref.increasing else -h)

    def p(self, x) -> float:
        return float(self.p_values(np.asarray(x, dtype=float)[None, :])[0])

    # -- phi ------------------------------------------------------------------

    @property
    def phi_increasing(self) -> bool:
        return self.case != "one-sided" or self.positive_ref.increasing

    def phi_values(self, T) -> np.ndarray:
        """phi over an array of profile arguments (raw, includes f(x_star)):
        f at |T|**(1/alpha) times the reference point of T's sign class, in
        one field call.  One-sided, T < 0 raises ``ValueError``; two-sided,
        T >= 0 takes the positive reference and any other T, nan too, the
        negative one."""
        T = np.atleast_1d(np.asarray(T, dtype=float))
        if self.case == "zero":
            return self.field.f_star + T
        if self.case == "one-sided" and (T < 0).any():
            raise ValueError("one-sided profile is defined for t >= 0 only")
        pos = (T >= 0) | (self.case == "one-sided")
        neg = self.positive_ref if self.case == "one-sided" else self.negative_ref
        P = np.where(pos[:, None], self.positive_ref.point, neg.point)
        # a tiny alpha makes 1/alpha huge: radii past the float max are inf
        with np.errstate(over="ignore"):
            radii = np.where(pos, T, -T) ** (1.0 / self.alpha)
        return self.field._eval_batch(self.field.absolute(radii[:, None] * P))

    def phi(self, t: float) -> float:
        return float(self.phi_values(np.array([t]))[0])

    # -- wrappers ---------------------------------------------------------------

    def p_field(self) -> ScalarField:
        """The canonical p as a ScalarField (positively homogeneous, degree alpha)."""
        meta = FieldMeta(name=f"p[{self.field.meta.name}]", declared_si=True,
                         ph_degree=self.alpha)
        return ScalarField(self.field.n, lambda X: self.p_values(X),
                           x_star=self.field.x_star, vectorized=True, meta=meta)

    def order_field(self) -> ScalarField:
        """The order-equivalent representative: p, negated when phi decreases,
        so that it sorts points exactly like f does."""
        sign = 1.0 if self.phi_increasing else -1.0
        meta = FieldMeta(name=f"order_p[{self.field.meta.name}]", declared_si=True,
                         ph_degree=self.alpha)
        return ScalarField(self.field.n, lambda X: sign * self.p_values(X),
                           x_star=self.field.x_star, vectorized=True, meta=meta)

    def summary(self) -> dict:
        refs = {}
        if self.positive_ref is not None:
            refs["reference"] = self.positive_ref.point.tolist()
            refs["reference_value"] = self.positive_ref.value
        if self.negative_ref is not None:
            refs["negative_reference"] = self.negative_ref.point.tolist()
            refs["negative_reference_value"] = self.negative_ref.value
        return {"case": self.case, "alpha": self.alpha,
                "phi_increasing": self.phi_increasing, **refs}


def _run(u: np.ndarray, one: int) -> np.ndarray:
    """``u`` on its strictly rising run around index ``one``, nan elsewhere."""
    with np.errstate(invalid="ignore"):
        rising = np.diff(u) > 0  # false at nan and at inf - inf
    stop = np.flatnonzero(~rising)
    lo = stop[stop < one].max(initial=-1) + 1
    hi = stop[stop >= one].min(initial=rising.size)
    out = np.full(u.shape, np.nan)
    out[lo:hi + 1] = u[lo:hi + 1]
    return out


# -----------------------------------------------------------------------------
# construction


def _condition_reference(field: ScalarField, u: np.ndarray) -> np.ndarray:
    """Choose the scale of a unit reference direction.

    Unit scale is strongly preferred — it normalizes the homogeneous part so
    that p = 1 on the reference point itself — and is kept whenever the level
    value there is finite and usably far from zero.  Only a degenerate unit
    value (vanishing or non-finite) triggers a search along the ray for the
    scale whose value is closest to 1 in magnitude.  Rescaling never moves
    far: saturating profiles (bounded rays) have numerically flat tails where
    level targets collapse to the ray's limit and the root-solve degrades.
    """
    v = field.shifted(u)
    floor = 1e-8 * (1.0 + abs(field.f_star))
    if np.isfinite(v) and abs(v) >= floor:
        return u
    scales = np.geomspace(0.125, 8.0, 13)
    vals = field.shifted_values(scales[:, None] * u)
    with np.errstate(all="ignore"):
        score = np.abs(np.log10(np.abs(vals)))
    score[~np.isfinite(score)] = np.inf
    best = int(np.argmin(score))
    if not np.isfinite(score[best]):
        return u
    return scales[best] * u


def _make_ref(field: ScalarField, z: np.ndarray, grid: np.ndarray) -> ReferenceInfo:
    value = field.shifted(z)
    if not np.isfinite(value):
        raise DecompositionError(f"f is not finite at the reference point "
                                 f"{(z + field.x_star).tolist()}")
    kind = classify_ray(field, z, grid=grid)[0]
    # a ray that is not monotone falls back to the value's sign; a nonzero
    # value forces monotonicity along the ray for decomposable fields
    increasing = kind == "strictly-increasing" or (
        kind != "strictly-decreasing" and value > 0)
    return ReferenceInfo(point=np.asarray(z, dtype=float), value=float(value),
                         increasing=bool(increasing))


def check_reference_hints(x0=None, x1=None, xm1=None) -> None:
    """ValueError unless the hints fix one case: x0 alone, or x1 and xm1."""
    if x0 is not None and (x1 is not None or xm1 is not None):
        raise ValueError("x0 (one-sided) cannot be combined with x1 or xm1 (two-sided)")
    if (x1 is None) != (xm1 is None):
        raise ValueError("two-sided hints need both x1 and xm1")


def build_decomposition(field: ScalarField, alpha: float = 1.0, x0=None,
                        x1=None, xm1=None,
                        plan: Optional[SamplingPlan] = None) -> Decomposition:
    """Construct the canonical decomposition of a scaling-invariant field.

    The case (zero / one-sided / two-sided) is chosen from sampled ray
    monotonicities unless explicit reference points are supplied (absolute
    coordinates): ``x0`` for the one-sided case, ``x1`` and ``xm1`` for the
    two-sided case, never both (``check_reference_hints``).  A supplied
    point not of length n raises ``DimensionMismatchError``.  References are
    searched on the unit sphere (64 n seeded points, the largest |f| wins)
    and rescaled to a well-conditioned level.
    """
    plan = plan or SamplingPlan()
    n = field.n
    zero_tol = ZERO_LEVEL_ATOL * (1.0 + abs(field.f_star))
    grid = plan.t_grid()

    check_reference_hints(x0, x1, xm1)
    if x1 is not None:
        pos = _make_ref(field, _as_point(x1, n) - field.x_star, grid)
        neg = _make_ref(field, _as_point(xm1, n) - field.x_star, grid)
        if not pos.value > 0:
            raise DecompositionError("x1 must have f(x1) > f(x_star)")
        if not neg.value < 0:
            raise DecompositionError("xm1 must have f(xm1) < f(x_star)")
        return Decomposition(field, alpha, "two-sided", positive_ref=pos,
                             negative_ref=neg)
    if x0 is not None:
        ref = _make_ref(field, _as_point(x0, n) - field.x_star, grid)
        if abs(ref.value) <= zero_tol:
            raise DecompositionError("x0 must have f(x0) != f(x_star)")
        return Decomposition(field, alpha, "one-sided", positive_ref=ref)

    rng = plan.rng()
    sphere = plan.sphere_points(n, 64 * n, rng=rng)
    vals = field.shifted_values(sphere)
    finite = np.isfinite(vals)
    if not finite.any():
        raise DecompositionError("field is non-finite on the whole sampled sphere")

    has_pos = bool((vals[finite] > zero_tol).any())
    has_neg = bool((vals[finite] < -zero_tol).any())

    dirs = default_directions(n, seed=plan.seed)
    non_monotone = np.flatnonzero(classify_ray(field, dirs, grid=grid)
                                  == "non-monotone")
    if non_monotone.size:
        raise DecompositionError(
            f"ray through {dirs[non_monotone[0]].tolist()} is non-monotone; "
            "field is not decomposable")

    if not has_pos and not has_neg:
        return Decomposition(field, alpha, "zero")

    if has_pos and has_neg:
        masked = np.where(finite, vals, 0.0)
        pos = _make_ref(field, _condition_reference(
            field, sphere[int(np.argmax(masked))]), grid)
        neg = _make_ref(field, _condition_reference(
            field, sphere[int(np.argmin(masked))]), grid)
        return Decomposition(field, alpha, "two-sided", positive_ref=pos,
                             negative_ref=neg)

    scored = np.where(finite, np.abs(vals), -np.inf)
    ref = _make_ref(field, _condition_reference(
        field, sphere[int(np.argmax(scored))]), grid)
    return Decomposition(field, alpha, "one-sided", positive_ref=ref)


# -----------------------------------------------------------------------------
# verification probes


@dataclass
class DecompositionCheck:
    max_composition_residual: float
    max_ph_residual: float  # normalized by (1 + rho^alpha |p|)
    n_samples: int
    witnesses: list
    seed: int
    # p at the plan's box points, the stream of plan.box_points(n) that
    # uniqueness_check of the same plan reads too, so it may take this
    p_samples: Optional[np.ndarray] = None


def _box_blocks(field: ScalarField, plan: SamplingPlan):
    """The blocks (rows, X) of the plan's absolute box points X, as
    ``Decomposition.p_blocks`` takes them."""
    for rows, Z in sample_blocks(plan, field.n):
        yield rows, field.absolute(Z)


def _max_over(values: np.ndarray, rows: np.ndarray, running: float) -> float:
    """The larger of ``running`` and the largest of ``values`` at ``rows``."""
    return max(running, float(values[rows].max())) if rows.any() else running


def verify_decomposition(field: ScalarField, d: Decomposition,
                         plan: Optional[SamplingPlan] = None,
                         comp_tol: float = 1e-7,
                         ph_tol: float = 1e-7) -> DecompositionCheck:
    """Round-trip and homogeneity residuals of a decomposition on seeded samples.

    Reports max |f(x) - phi(p(x))| and the max homogeneity defect
    |p(rho z) - rho^alpha p(z)| / (1 + rho^alpha |p(z)|).  A sample with
    p(z) = 0 enters neither maximum, except in the zero case: with every p
    0, a field that is not SI would pass.  With no sample left, both are nan.
    Unless they are at most ``comp_tol`` and ``ph_tol`` (nan is not), the
    witnesses end with a ``residual_exceeded`` witness.

    p = lambda^-alpha is defined along rays, so p(rho z) = rho^alpha p(z)
    holds by construction: only the composition residual tests whether the
    field is SI.  The homogeneity defect checks p(rho z) on the ray of rho z
    itself, from the guess rho^alpha p(z): lambda-hat = |guess|^(-1/alpha).
    A row whose bracket lambda-hat (1 -+ GUESS_BAND) straddles its class
    level there is certified by those two ends, and its defect is read from
    one secant step inside the bracket, so it is at most the bracket's
    bound (1 - GUESS_BAND)^-alpha - 1 (up to rounding).  The other rows are
    solved cold, with no table (see ``Decomposition._scaled_p``).  When the
    bound exceeds ``ph_tol`` no row is certified: every row takes the
    seeded solve, so no verdict rests on a bracket finer than the one it
    proves.  A row where p(z) is 0, nan or infinite is not solved: its
    defect enters no maximum, or is 0 in the zero case.

    One pass draws the samples in blocks of rows, rho after the points.  f
    at each sample is evaluated once, for both p and the composition
    residual, and p of every sample is kept (``p_samples``).
    """
    plan = plan or SamplingPlan()
    count = plan.n_samples
    with np.errstate(over="ignore"):  # a huge alpha: no bound, no certificate
        certify = np.float64(1.0 - GUESS_BAND) ** -d.alpha - 1.0 <= ph_tol
    p_vals = np.empty(count)
    comp_max = ph_max = -np.inf
    compared = ph_compared = 0
    nan_rows = []

    def blocks():  # the box points, each block with its rho
        for rows, Z, rho in sample_blocks(plan, field.n, (1, plan.rhos)):
            yield (rows, rho), field.absolute(Z)

    for ((rows, rho), X), p, f in d.p_blocks(count, blocks):
        p_vals[rows] = p
        with np.errstate(invalid="ignore"):  # inf - inf: a non_finite row
            comp = np.abs(f - d.phi_values(p))
        ok = ~np.isnan(comp)
        nan_rows += row_witnesses(~ok, "non_finite",
                                  FEW_WITNESSES - len(nan_rows), point=X)
        judged = (p != 0) | (d.case == "zero")
        ok &= judged
        compared += int(np.count_nonzero(ok))
        comp_max = _max_over(comp, ok, comp_max)

        # a huge alpha: rho^alpha overflows or underflows, inf * 0 is nan,
        # and a row whose expected p is not finite is not solved
        with np.errstate(over="ignore", invalid="ignore"):
            expected = rho ** d.alpha * p
        # the offsets of the points x_star + rho z, as _scaled_p takes them
        Z = field.absolute(rho[:, None] * (X - field.x_star)) - field.x_star
        p_scaled = d._scaled_p(Z, expected, certify)
        with np.errstate(invalid="ignore"):  # p = inf on the reference level
            ph_defect = np.abs(p_scaled - expected) / (1.0 + np.abs(expected))
        ok = ~np.isnan(ph_defect) & judged
        ph_compared += int(np.count_nonzero(ok))
        ph_max = _max_over(ph_defect, ok, ph_max)
    witnesses = d.solver_failures + nan_rows
    comp = comp_max if compared else np.nan
    ph = ph_max if ph_compared else np.nan
    if not (comp <= comp_tol and ph <= ph_tol):
        witnesses.append({"kind": "residual_exceeded",
                          "max_composition_residual": comp, "max_ph_residual": ph,
                          "comp_tol": comp_tol, "ph_tol": ph_tol})
    return DecompositionCheck(max_composition_residual=comp, max_ph_residual=ph,
                              n_samples=count, witnesses=witnesses,
                              seed=plan.seed, p_samples=p_vals)


@dataclass
class UniquenessReport:
    case: str
    classes: dict  # class label -> {"ratio": mean, "cv": ..., "count": ...}
    passed: bool
    seed: int
    witnesses: list = dataclass_field(default_factory=list)


def uniqueness_check(field: ScalarField, d1: Decomposition, d2: Decomposition,
                     plan: Optional[SamplingPlan] = None,
                     p1: Optional[np.ndarray] = None) -> UniquenessReport:
    """Two canonical constructions differ by a constant per sign class.

    The ratio p1/p2 must be constant over samples (one constant in the
    one-sided case, one per sign class in the two-sided case); the report
    carries each class's mean ratio and coefficient of variation, and a
    ``uniqueness_violation`` witness when some class is not constant.
    ``passed`` is that ratio test alone; ahead of its witness are the
    ``solver_failures`` of each p solved here: d1's when p1 is not
    given, then d2's, tagged ``"which": "alternate"``.

    The samples are the plan's box points, drawn in blocks of rows; p2 is
    solved block by block.  ``p1``, optional, is d1's p at them, such as
    ``verify_decomposition(field, d1, plan).p_samples``, which reads the
    same points; it is not solved again.  The ratios of each class are kept
    for their mean and spread.
    """
    if d1.alpha != d2.alpha:
        raise ValueError("uniqueness comparison requires matching degrees")
    plan = plan or SamplingPlan()
    count = plan.n_samples
    if p1 is not None and np.shape(p1) != (count,):
        raise ValueError(f"p1 has shape {np.shape(p1)}, the samples are "
                         f"{count} rows")

    def points():
        return _box_blocks(field, plan)

    witnesses = []
    if p1 is None:
        p1 = np.empty(count)
        for (rows, _), p, _ in d1.p_blocks(count, points):
            p1[rows] = p
        witnesses += d1.solver_failures
    floor = 1e-9
    # each class by name: the rows where sign * p1 > floor, |p1| for sign 0
    signs = ({"all": 0.0} if d1.case == "one-sided"
             else {"positive": 1.0, "negative": -1.0})
    # each class's ratios in row order, and whether it has p1 rows at all
    ratios = {name: np.empty(count) for name in signs}
    filled, seen = dict.fromkeys(signs, 0), dict.fromkeys(signs, False)
    for (rows, _), q2, _ in d2.p_blocks(count, points):
        q1 = p1[rows]
        for name, sign in signs.items():
            mask = ((sign * q1 if sign else np.abs(q1)) > floor) & np.isfinite(q1)
            seen[name] |= bool(mask.any())
            mask &= (np.abs(q2) > floor) & np.isfinite(q2)
            k = filled[name]
            filled[name] += int(np.count_nonzero(mask))
            ratios[name][k:filled[name]] = q1[mask] / q2[mask]
    classes = {}
    passed = True
    for name in signs:
        if not seen[name]:
            continue
        if not filled[name]:  # p1 rows, but no p2 row to compare them with
            classes[name] = {"ratio": np.nan, "cv": np.nan, "count": 0}
            passed = False
            continue
        r = ratios[name][:filled[name]]
        mean = float(r.mean())
        cv = float(r.std() / abs(mean)) if mean != 0 else np.inf
        classes[name] = {"ratio": mean, "cv": cv, "count": filled[name]}
        passed &= cv <= UNIQUENESS_CV_TOL
    witnesses += [{**w, "which": "alternate"} for w in d2.solver_failures]
    if not passed:
        witnesses.append({"kind": "uniqueness_violation", "classes": classes})
    return UniquenessReport(case=d1.case, classes=classes, passed=passed,
                            seed=plan.seed, witnesses=witnesses)


@dataclass
class OrderReport:
    passed: bool
    trials: int
    disagreements: int
    witnesses: list
    seed: int


def order_equivalence(field_f: ScalarField, field_p: ScalarField,
                      plan: Optional[SamplingPlan] = None) -> OrderReport:
    """Do f and p induce the same order (hence the same sublevel sets)?

    Compares sign(f(x) - f(y)) with sign(p(x) - p(y)) under the relative tie
    band, on structured axis pairs followed by seeded random pairs.  A pair
    where f or p is nan at x or y cannot agree: it counts as a disagreement
    and is witnessed as ``non_finite``, as in
    :func:`~siphkit.rays.check_scaling_invariance`.
    """
    plan = plan or SamplingPlan()
    rng = plan.rng()
    n = field_f.n
    eye = np.eye(n)
    i, j = np.nonzero(eye == 0)  # the axis pairs (e_i, e_j / 2), i != j
    X = field_f.absolute(np.vstack([eye[i], plan.box_points(n, rng=rng)]))
    Y = field_f.absolute(np.vstack([0.5 * eye[j], plan.box_points(n, rng=rng)]))

    fx, fy = field_f.values(X), field_f.values(Y)
    px, py = field_p.values(X), field_p.values(Y)
    # order_trichotomy reads nan as +1, which would agree with any p above
    nan_rows = np.isnan(fx) | np.isnan(fy) | np.isnan(px) | np.isnan(py)
    disagree = ~nan_rows & (order_trichotomy(fx, fy) != order_trichotomy(px, py))
    witnesses = (row_witnesses(nan_rows, "non_finite", x=X, y=Y)
                 + row_witnesses(disagree, "order_disagreement", x=X, y=Y))
    count = int(disagree.sum() + nan_rows.sum())
    return OrderReport(passed=count == 0, trials=int(X.shape[0]),
                       disagreements=count, witnesses=witnesses, seed=plan.seed)
