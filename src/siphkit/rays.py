"""Scaling-invariance certification and ray-monotonicity analysis.

The central comparison is the order biconditional
``f(x) <= f(y)  <=>  f(rho x) <= f(rho y)`` for rho > 0, tested on seeded
random triples plus a small deterministic battery of axis-aligned triples.
Comparisons use a three-way trichotomy with a relative tie band so that exact
level ties are not misread as order violations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .field import ScalarField, row_sumsq

MAX_WITNESSES = 16
# the cap of a list of non-finite samples and of each ball check
FEW_WITNESSES = 4
ORDER_ATOL = 1e-12
LEVEL_MATCH_ATOL = 1e-8  # a root meets its level c within this times 1 + |c|
CONST_TOL = 1e-10
STEP_TOL = 1e-10
# Rows per block of the bulk Monte Carlo probes: their working set is a few
# blocks whatever the sample size.  Much smaller blocks pay per-call overhead;
# 4,096 to 65,536 rows ran equally fast on the benchmark's sample workload.
BLOCK_ROWS = 8192


def row_witnesses(mask, kind, limit=MAX_WITNESSES, /, **columns) -> list:
    """Witnesses of the first ``limit`` rows where ``mask`` holds, in row order.

    Each is ``{"kind": kind, **columns}`` read at its row: ``kind`` and each
    column that is an array give their entry at the row as JSON builtins
    (``tolist``: a row of a 2-D array is a list, an entry a float or int);
    any other value is copied as is.  A column that reads None at a row is
    left out of that row's witness.  A limit of 0 or below gives none.
    """
    fields = {"kind": kind, **columns}
    witnesses = []
    for i in np.flatnonzero(mask)[:max(limit, 0)]:
        row = ((key, val[i:i + 1].tolist()[0] if isinstance(val, np.ndarray) else val)
               for key, val in fields.items())
        witnesses.append({key: val for key, val in row if val is not None})
    return witnesses


class RunningResidual:
    """The largest and the mean of the residuals ``add`` takes block by
    block, ``values[rows]`` of each; nan while none is taken.  The mean is a
    sum of block sums, inf if finite values near the float maximum are."""

    def __init__(self):
        self.max, self.total, self.count = np.nan, 0.0, 0

    def add(self, values: np.ndarray, rows: np.ndarray) -> None:
        taken = values[rows]
        if taken.size:
            self.max = float(np.fmax(self.max, taken.max()))
            with np.errstate(over="ignore"):
                self.total += taken.sum()
            self.count += taken.size

    @property
    def mean(self) -> float:
        return float(self.total / self.count) if self.count else np.nan


def ray_witness_kinds(kinds) -> np.ndarray:
    """The witness kind of each ray outcome: "non_monotone_ray", "whole_ray"
    and "non_finite" for "non-monotone", "whole-ray" and "non-finite", else
    outcome + "_ray"."""
    kinds = np.char.add(kinds, "_ray")
    return np.where(kinds == "non-monotone_ray", "non_monotone_ray",
                    np.where(kinds == "whole-ray_ray", "whole_ray",
                             np.where(kinds == "non-finite_ray", "non_finite",
                                      kinds)))


@dataclass(frozen=True)
class SamplingPlan:
    """Shared sampling configuration for the statistical probes.

    ``t_grid()`` is the strictly increasing ray grid in (0, t_max]; random
    draws are uniform on the coordinate box [-box_radius, box_radius]^n with
    scale factors rho log-uniform on [rho_min, rho_max].
    """

    seed: int = 0
    n_samples: int = 1000
    box_radius: float = 2.0
    rho_min: float = 0.1
    rho_max: float = 10.0
    t_max: float = 10.0
    grid_points: int = 24

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0 < self.rho_min < self.rho_max:
            raise ValueError("need 0 < rho_min < rho_max")
        if not (self.box_radius > 0 and self.t_max > 0):
            raise ValueError("box_radius and t_max must be positive")
        if not np.isfinite([self.box_radius, self.rho_max, self.t_max]).all():
            raise ValueError("box_radius, rho_max and t_max must be finite")
        if self.grid_points < 3:
            raise ValueError("grid_points must be >= 3")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def t_grid(self) -> np.ndarray:
        return np.geomspace(self.t_max * 1e-3, self.t_max, self.grid_points)

    def box_points(self, n: int, count: Optional[int] = None,
                   rng: Optional[np.random.Generator] = None) -> np.ndarray:
        rng = rng or self.rng()
        count = self.n_samples if count is None else count
        return rng.uniform(-self.box_radius, self.box_radius, size=(count, n))

    def rhos(self, count: Optional[int] = None,
             rng: Optional[np.random.Generator] = None) -> np.ndarray:
        rng = rng or self.rng()
        count = self.n_samples if count is None else count
        return np.exp(rng.uniform(np.log(self.rho_min), np.log(self.rho_max), size=count))

    def sphere_points(self, n: int, count: int,
                      rng: Optional[np.random.Generator] = None) -> np.ndarray:
        rng = rng or self.rng()
        pts = rng.normal(size=(count, n))
        return pts / np.sqrt(row_sumsq(pts))[:, None]


def sample_blocks(plan: SamplingPlan, *streams) -> Iterator[tuple]:
    """The plan's sample streams in blocks of rows, as ``(rows, *blocks)``
    per block: ``rows`` the block's slice of range(plan.n_samples), then
    each stream's block.

    A stream is a width n, for ``plan.box_points(n)``, or a pair
    ``(width, draw)``: ``draw(rows, rng)`` returns the stream's next
    ``rows`` rows, taking ``width`` 64-bit outputs of ``rng`` per row, as
    every ``uniform`` value takes one.  Joined, the blocks of at most
    ``BLOCK_ROWS`` rows equal the one-shot draws of ``plan.n_samples`` rows
    of each stream in turn from one ``plan.rng()``: each stream has its own
    generator, advanced past the draws of the streams before it.
    """
    count, rngs, skip = plan.n_samples, [], 0
    streams = [(s, lambda rows, rng, n=s: plan.box_points(n, rows, rng))
               if isinstance(s, int) else s for s in streams]
    for width, _ in streams:
        rng = plan.rng()
        rng.bit_generator.advance(skip)
        rngs.append(rng)
        skip += count * width
    for start in range(0, count, BLOCK_ROWS):
        rows = slice(start, min(start + BLOCK_ROWS, count))
        yield (rows, *(draw(rows.stop - start, rng)
                       for (_, draw), rng in zip(streams, rngs)))


@dataclass
class SIReport:
    passed: bool
    trials: int
    violations: int
    witnesses: list
    seed: int


def order_trichotomy(a, b, atol: float = ORDER_ATOL) -> np.ndarray:
    """Vectorized three-way compare: -1 (a < b), 0 (tie), +1 (a > b).

    Ties are the band of :func:`_strict_sign`, which the SI probes use, and
    exactly equal values (equal infinities too); a comparison with nan
    reads +1.
    """
    a, b = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b)))
    s = _strict_sign(a.ravel(), b.ravel(), atol).reshape(a.shape)
    return np.where((a == b) | (s == 0), 0, np.where(s < 0, -1, 1))


def _structured_triples(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic axis-aligned triples probed before random sampling.

    Includes (e_i/2, -e_i/2, rho) for rho in {4, 1/4} per axis and a
    cross-axis triple per adjacent axis pair.
    """
    xs, ys, rhos = [], [], []
    eye = np.eye(n)
    for i in range(n):
        for rho in (4.0, 0.25):
            xs.append(0.5 * eye[i])
            ys.append(-0.5 * eye[i])
            rhos.append(rho)
    for i in range(n - 1):
        xs.append(eye[i])
        ys.append(0.5 * eye[i + 1])
        rhos.append(4.0)
    return np.array(xs), np.array(ys), np.array(rhos)


def _order_reversals(field: ScalarField, X: np.ndarray, Y: np.ndarray,
                     rho: np.ndarray, atol: float = ORDER_ATOL) -> tuple:
    """Evaluate the triples (X[i], Y[i], rho[i]) and apply the SI rule.

    Returns the shifted values (f(x), f(y), f(rho x), f(rho y)), the rows
    where any of them is nan, and the rows whose strict order the scaling
    surely reverses.  A band tie is inconclusive, not evidence: decreasing
    tails underflow to exact zeros at large rho, which must not indict an
    order-preserving field.  Only a confidently reversed strict order is a
    violation.
    """
    fx = field.shifted_values(X)
    fy = field.shifted_values(Y)
    frx = field.ray_values(rho, X)
    fry = field.ray_values(rho, Y)
    nan_rows = np.isnan(fx) | np.isnan(fy) | np.isnan(frx) | np.isnan(fry)
    return (fx, fy, frx, fry), nan_rows, _reversed(fx, fy, frx, fry, atol)


def _strict_sign(a: np.ndarray, b: np.ndarray, atol: float) -> np.ndarray:
    """sign(a - b) outside the tie band atol * (1 + max(|a|, |b|)), 0 inside
    it; nan where a or b is nan or both are the same infinity.  A band that
    is not finite ties nothing.  :func:`order_trichotomy` is built on it."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 0 * inf
        d = a - b
        band = atol * (1.0 + np.maximum(np.abs(a), np.abs(b)))
        s = np.sign(d)
        # a non-finite band admits only exact inequality (band < inf is
        # False for nan and inf alike)
        s[(np.abs(d) <= band) & (band < np.inf)] = 0.0
    return s


def _reversed(fx, fy, frx, fry, atol: float) -> np.ndarray:
    """Rows where f(x) vs f(y) and f(rho x) vs f(rho y) are both strict and
    of opposite sign, by the band of :func:`_strict_sign`.

    The signs are compared, not the differences: their product could
    underflow to -0 and hide a reversal.  A nan sign (a nan value, or equal
    infinities, which tie) never compares below zero, so nan rows are never
    flagged.
    """
    return _strict_sign(fx, fy, atol) * _strict_sign(frx, fry, atol) < 0


def check_scaling_invariance(field: ScalarField, plan: Optional[SamplingPlan] = None,
                             atol: float = ORDER_ATOL) -> SIReport:
    """Certify the order biconditional on structured plus seeded random triples.

    The verdict fails iff at least one witness is found.  Rows with nan values
    are recorded as ``non_finite`` witnesses instead of aborting the probe.
    ``atol`` is the relative tie band of the three-way comparison.  The
    random triples are drawn and evaluated in blocks of rows
    (:func:`sample_blocks`), so memory does not grow with the sample size;
    witnesses are the first ``MAX_WITNESSES`` of each kind in row order.
    """
    plan = plan or SamplingPlan()
    n = field.n
    structured = _structured_triples(n)
    nan_witnesses, order_witnesses = [], []
    violations = 0
    for _, X, Y, rho in itertools.chain(
            [(None, *structured)], sample_blocks(plan, n, n, (1, plan.rhos))):
        (fx, fy, frx, fry), nan_rows, violating = _order_reversals(field, X, Y,
                                                                   rho, atol)
        violations += int(violating.sum() + nan_rows.sum())
        nan_witnesses += row_witnesses(nan_rows, "non_finite",
                                       MAX_WITNESSES - len(nan_witnesses),
                                       x=X, y=Y, rho=rho)
        room = MAX_WITNESSES - len(order_witnesses)
        if room > 0 and violating.any():  # the f columns cost a pass each
            f = field.f_star
            order_witnesses += row_witnesses(
                violating, "order_violation", room, x=X, y=Y, rho=rho,
                f_x=fx + f, f_y=fy + f, f_rho_x=frx + f, f_rho_y=fry + f)
    return SIReport(passed=violations == 0,
                    trials=structured[0].shape[0] + plan.n_samples,
                    violations=violations,
                    witnesses=nan_witnesses + order_witnesses, seed=plan.seed)


def _ray_values(field: ScalarField, D: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Shifted values at x_star + t[j] D[r], shape (R, len(t)), from one
    field call."""
    Z = (t[None, :, None] * D[:, None, :]).reshape(-1, D.shape[-1])
    return field.shifted_values(Z).reshape(D.shape[0], t.size)


# the kinds of :func:`_ray_verdicts`, indexed by its codes
_KINDS = np.array(["strictly-decreasing", "strictly-increasing", "constant",
                   "non-monotone", "non-finite"])


def _ray_verdicts(field: ScalarField, vals: np.ndarray) -> tuple:
    """Kinds of the rays of ``field``, one per row of shifted values ``vals``
    (first column at t = 0; see :func:`classify_ray`), with the (R, m - 1)
    masks of the strict rises and falls between neighbouring columns."""
    tol_const = CONST_TOL * (1.0 + abs(field.f_star))
    with np.errstate(invalid="ignore"):  # inf - inf on rays that overflow
        deviation = np.max(np.abs(vals - vals[:, :1]), axis=1)
        steps = np.diff(vals, axis=1)
    up = steps > STEP_TOL
    down = steps < -STEP_TOL
    any_up, any_down = up.any(axis=1), down.any(axis=1)
    # codes into _KINDS: a monotone ray that is not constant is 1 if rising
    rising = any_up | (~any_down & (vals[:, -1] > vals[:, 0]))
    code = np.where(np.isnan(vals).any(axis=1), 4,
                    np.where(any_up & any_down, 3,
                             np.where(deviation <= tol_const, 2, rising)))
    return _KINDS[code], up, down


def _inversion_t_pairs(up: np.ndarray, down: np.ndarray,
                       t_full: np.ndarray) -> np.ndarray:
    """(R, 2) t pairs of the step at the later of each row's first strict
    rise and first strict fall (masks of :func:`_ray_verdicts`); they name
    the inversion on a non-monotone row and mean nothing on the others."""
    b = np.maximum(np.argmax(up, axis=1), np.argmax(down, axis=1))
    return np.stack([t_full[b], t_full[b + 1]], axis=1)


def classify_ray(field: ScalarField, x, grid=None) -> np.ndarray:
    """Classify the rays t -> f(x_star + t x) on {0} followed by the grid.

    Returns one kind per ray, a 1-D ``str`` array, for ``x`` of shape (n,)
    (one ray) or (R, n) (R rays, evaluated in one field call).  A nan value
    gives ``non-finite``; strict steps of both signs give ``non-monotone``.
    Otherwise the ray is ``constant`` when every value stays within
    ``CONST_TOL * (1 + |f(x_star)|)`` of the start, else
    ``strictly-increasing`` or ``strictly-decreasing`` in the direction of
    its strict steps (plateau steps within +-``STEP_TOL``, e.g. saturating
    tails, are compatible with either direction).
    """
    x = np.asarray(x, dtype=float)
    grid = np.asarray(grid, dtype=float) if grid is not None else SamplingPlan().t_grid()
    if grid.ndim != 1 or not (np.diff(grid) > 0).all() or grid[0] <= 0:
        raise ValueError("grid must be strictly increasing and positive")

    t_full = np.concatenate([[0.0], grid])
    return _ray_verdicts(field, _ray_values(field, np.atleast_2d(x), t_full))[0]


def default_directions(n: int, seed: int = 0) -> np.ndarray:
    """All +-coordinate axes plus 2n seeded uniform sphere points."""
    eye = np.eye(n)
    return np.vstack([eye, -eye, SamplingPlan(seed=seed).sphere_points(n, 2 * n)])


@dataclass
class DecomposabilityReport:
    verdict: str  # "decomposable" | "not-decomposable" | "inconclusive"
    scale: float
    ray_kinds: list
    witnesses: list
    seed: int


def _image_group_check(field: ScalarField, directions, values, kinds, want: str,
                       grid: np.ndarray, witnesses: list) -> Optional[str]:
    """Shared-image test within one monotonicity class at the grid scale.

    Intervals pairwise intersect iff max(lo) <= min(hi) (1-D Helly), and the
    common value must then be reachable on every ray by root-finding within
    the grid span.  Returns an updated verdict string or None if the class
    passes.
    """
    from .rootfind import OK, STATUS_LABEL, solve_monotone_batch

    rows = kinds == want
    if np.count_nonzero(rows) < 2:
        return None
    D, class_values = directions[rows], values[rows]
    lows, highs = class_values.min(axis=1), class_values.max(axis=1)
    i_lo = int(np.argmax(lows))
    i_hi = int(np.argmin(highs))
    gap_tol = 1e-9 * (1.0 + np.abs(lows).max() + np.abs(highs).max())
    if lows[i_lo] > highs[i_hi] + gap_tol:
        witnesses.append({
            "kind": "disjoint_image",
            "direction_a": D[i_hi].tolist(),
            "range_a": [float(lows[i_hi]), float(highs[i_hi])],
            "direction_b": D[i_lo].tolist(),
            "range_b": [float(lows[i_lo]), float(highs[i_lo])]})
        return "not-decomposable"

    # midpoint of the common interval is reachable on every ray of the class
    v = 0.5 * (lows[i_lo] + highs[i_hi])

    def profile(t):
        return field.ray_values(t, D)

    res = solve_monotone_batch(profile, np.full(len(D), v),
                               want == "strictly-increasing")
    reachable = (res.status == OK) & (res.t <= grid[-1] * (1 + 1e-9))
    match_tol = LEVEL_MATCH_ATOL * (1.0 + abs(v))
    matched = reachable & (res.residual <= match_tol)
    if not matched.all():
        witnesses += row_witnesses(~matched, "endpoint_match_failed", 1,
                                   direction=D, target=v,
                                   status=STATUS_LABEL[res.status],
                                   residual=res.residual, match_tol=match_tol)
        return "inconclusive"
    return None


def check_decomposability(field: ScalarField, directions=None,
                          plan: Optional[SamplingPlan] = None) -> DecomposabilityReport:
    """Empirical test of the two decomposability conditions at scale t_max.

    (a) every sampled ray is constant or strictly monotone, and (b) rays of the
    same monotonicity share their achieved value ranges.  A scaling-invariance
    violation on the structured battery (the reversal rule of
    :func:`check_scaling_invariance`) is also disqualifying, since any
    monotone-profile composition with a homogeneous part is scaling-invariant.
    A pass certifies decomposability at the probed scale only.
    """
    plan = plan or SamplingPlan()
    grid = plan.t_grid()
    n = field.n
    if directions is None:
        directions = default_directions(n, seed=plan.seed)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))

    # Any SI violation refutes decomposability outright.
    sx, sy, srho = _structured_triples(n)
    _, _, reversed_rows = _order_reversals(field, sx, sy, srho)
    witnesses = row_witnesses(reversed_rows, "si_violation", 1,
                              x=sx, y=sy, rho=srho)

    # The near-zero probe point approximates each monotone ray's value limit
    # at 0+, so image intervals reflect jumps at the origin rather than the
    # grid's finite start (ray slopes may differ by orders of magnitude).
    # One evaluation on [0, t_probe, *grid] serves the verdicts (t_probe
    # dropped) and the achieved values on (0, t_max] (t = 0 dropped).
    t_probe = grid[0] * 1e-6
    t_all = np.concatenate([[0.0, t_probe], grid])
    vals = _ray_values(field, directions, t_all)
    values = vals[:, 1:]
    kinds, up, down = _ray_verdicts(field, np.delete(vals, 1, axis=1))
    non_monotone = kinds == "non-monotone"
    non_finite = (kinds == "non-finite") | np.isnan(values).any(axis=1)
    # one list in direction order; only a non-monotone ray has a t pair
    t_pairs = _inversion_t_pairs(up, down, np.delete(t_all, 1))
    t_pair = np.frompyfunc(lambda lo, hi: [lo, hi], 2, 1)(*t_pairs.T)
    witnesses += row_witnesses(
        non_monotone | non_finite,
        np.where(non_monotone, "non_monotone_ray", "non_finite"),
        direction=directions, t_pair=np.where(non_monotone, t_pair, None))

    verdict = "decomposable"
    if witnesses:
        verdict = "not-decomposable"
    else:
        for want in ("strictly-increasing", "strictly-decreasing"):
            outcome = _image_group_check(field, directions, values, kinds, want,
                                         grid, witnesses)
            if outcome == "not-decomposable":
                verdict = outcome
                break
            if outcome == "inconclusive":
                verdict = outcome
    return DecomposabilityReport(verdict=verdict, scale=float(grid[-1]),
                                 ray_kinds=kinds.tolist(), witnesses=witnesses,
                                 seed=plan.seed)
