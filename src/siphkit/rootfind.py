"""Bracketed root-finding on monotone rays, batched.

Every solver here assumes the scalar profile is monotone in t on [0, inf) and
that its value at t = 0 is known exactly (0 for shifted fields).  Brackets grow
by doubling the upper end from 1 up to 2**60; a profile that never straddles
its target inside that range is reported as unbounded evidence rather than an
error.

Inside the bracket, ``solve_monotone_batch`` runs Chandrupatla's method
(Chandrupatla 1997, Adv. Eng. Softw. 28:145) on every row in lockstep: an
inverse quadratic step where the last three points fit a monotone model, a
bisection step otherwise, and every step kept inside the bracket.  It stops
at the same bracket width as bisection, ``hi - lo <= RTOL * (1 + hi)``, and
returns the bracket end with the smaller residual, so the root and its
residual come from one profile evaluation.  Smooth rays take about 5-15
evaluations after bracketing where bisection takes about 47; rays with kinks
or jumps near the root can take up to about twice as many as bisection.

A caller that can guess a row's root passes ``bracket=(lo, hi)``.  Both ends
are evaluated on the row's own profile, and a row whose ends straddle its
target starts the Chandrupatla loop from them, skipping the doubling; a
bracket of relative width 2e-9 around the root settles in 2 steps, 4
evaluations in all.  A row whose bracket does not straddle -- a wrong
guess, a nan end, no finite bracket -- takes the doubling path and ends
exactly as without one.  So a guess never decides a root: every root is
a sign change of the row's own profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DOUBLINGS = 60  # bracket cap: the upper end grows to at most 2**60
MAX_ITERS = 160     # Chandrupatla steps per solve
RTOL = 1e-14        # relative bracket width at which a row settles

# Row status codes.
OK = 0
UNBOUNDED = 1    # bracket cap reached without straddling the target
NONFINITE = 2    # nan encountered while bracketing or solving
BELOW_START = 3  # target on the wrong side of the value at t = 0
# the label of each status code, as reports give it
STATUS_LABEL = np.array(["ok", "unbounded", "non-finite", "outside-range"])


@dataclass
class RootResult:
    """Per-row outcome of :func:`solve_monotone_batch`.

    ``t`` is the root and ``residual`` is |profile(t) - target| where
    ``status == OK``; both are nan on every other row.
    """

    t: np.ndarray
    status: np.ndarray   # per-row status code
    residual: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return self.status == OK


def solve_monotone_batch(profile, targets, increasing, value_at_zero=0.0,
                         bracket=None) -> RootResult:
    """Solve profile_i(t_i) = targets[i] for each row of a batch of rays.

    Parameters
    ----------
    profile : callable
        ``profile(t)`` with t of shape (N,) evaluates row i's profile at t[i]
        and returns shape (N,).  Rows the solver does not need in a call --
        settled, failed or never started -- are passed as nan; the profile
        need not evaluate them, and its values there are ignored
        (:meth:`~siphkit.field.ScalarField.ray_values` skips them).  Every
        call has at least one live row.
    targets : array (N,)
    increasing : bool or array (N,)
        Monotonicity direction of each profile.
    value_at_zero : float or array
        Exact profile value at t = 0 (0 for shifted fields).
    bracket : (lo, hi) of floats or arrays (N,), optional
        A guessed bracket per row.  Both ends are evaluated on the row's
        own profile; a row whose ends straddle its target skips the
        doubling and goes straight to the Chandrupatla loop.  A row it does
        not seed -- an end nan or infinite, ``lo < 0`` or ``lo >= hi``, or
        ends that do not straddle -- is solved exactly as without a
        bracket.

    Targets must lie strictly on the far side of ``value_at_zero`` in the
    monotone direction; rows where they do not are marked ``BELOW_START``
    (the profile can never reach them).

    The solver keeps the state of its unsettled rows only and writes each
    row back when it settles.  Rows are independent, so a row's root,
    status and residual do not depend on the rest of the batch, provided
    the profile's rows do not either.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    N = targets.shape[0]
    sign = np.where(np.broadcast_to(np.asarray(increasing, bool), (N,)), 1.0, -1.0)
    # Work with g(t) = sign * profile(t) - sign * target, an increasing
    # function with its root at the solution; |g| is the residual.
    ty = sign * targets
    w0 = sign * np.broadcast_to(np.asarray(value_at_zero, dtype=float), (N,))

    status = np.zeros(N, dtype=int)
    status[~np.isfinite(ty)] = NONFINITE
    status[(ty <= w0) & (status == OK)] = BELOW_START

    def g(t, rows):
        # g at t on the live rows ``rows`` (sorted indices); a batch with
        # every row live goes to the profile as is
        with np.errstate(all="ignore"):
            if rows.size == N:
                return sign * profile(t) - ty
            t_all = np.full(N, np.nan)
            t_all[rows] = t
            return sign[rows] * profile(t_all)[rows] - ty[rows]

    # Doubling: invariant g(lo) < 0; g(lo) and g(hi) are carried along.
    # ``rows`` holds the rows still bracketing.
    lo = np.zeros(N)
    hi = np.ones(N)
    with np.errstate(all="ignore"):
        # a nan value at zero is taken as below the target, like any row
        # that passed the check above; -inf keeps the model from using it
        g_lo = np.where(np.isnan(w0), -np.inf, w0 - ty)
    g_hi = np.full(N, np.nan)
    rows = np.flatnonzero(status == OK)
    if bracket is not None and rows.size:
        b_lo, b_hi = (np.broadcast_to(np.asarray(end, dtype=float), (N,))[rows]
                      for end in bracket)
        usable = (b_lo >= 0) & (b_lo < b_hi) & np.isfinite(b_hi)
        seeded, b_lo, b_hi = rows[usable], b_lo[usable], b_hi[usable]
        if seeded.size:
            gs_lo = g(b_lo, seeded)
            gs_hi = g(b_hi, seeded)
            # the same invariant as after doubling: g(lo) < 0 <= g(hi)
            straddle = (gs_lo < 0) & (gs_hi >= 0)
            s = seeded[straddle]
            lo[s], hi[s] = b_lo[straddle], b_hi[straddle]
            g_lo[s], g_hi[s] = gs_lo[straddle], gs_hi[straddle]
            rows = np.setdiff1d(rows, s, assume_unique=True)
    if rows.size:
        g_hi[rows] = g(hi[rows], rows)
    status[rows[np.isnan(g_hi[rows])]] = NONFINITE
    rows = rows[g_hi[rows] < 0]
    for _ in range(MAX_DOUBLINGS):
        if not rows.size:
            break
        lo[rows], g_lo[rows] = hi[rows], g_hi[rows]
        hi[rows] *= 2.0
        g_new = g(hi[rows], rows)
        g_hi[rows] = g_new
        status[rows[np.isnan(g_new)]] = NONFINITE
        rows = rows[g_new < 0]
    status[rows] = UNBOUNDED

    # Chandrupatla: a and b are the bracket ends, a the newer one, and c is
    # the end the last step dropped.  c starts equal to b, which makes the
    # quadratic model non-finite, so the first step bisects.  The loop runs
    # on the rows still in play; a settled row's a and b go back to lo and
    # hi, which then need not be in order.
    rows = np.flatnonzero(status == OK)
    a, b, c = lo[rows], hi[rows], hi[rows]
    ga, gb, gc = g_lo[rows], g_hi[rows], g_hi[rows]
    for _ in range(MAX_ITERS):
        width = np.abs(b - a)
        tol = RTOL * (1.0 + np.maximum(a, b))
        live = width > tol
        if not live.all():
            done = rows[~live]
            lo[done], hi[done], g_lo[done], g_hi[done] = (
                a[~live], b[~live], ga[~live], gb[~live])
            rows, a, b, c, ga, gb, gc, width, tol = (
                v[live] for v in (rows, a, b, c, ga, gb, gc, width, tol))
        if not rows.size:
            break
        with np.errstate(all="ignore"):
            # inverse quadratic step, trusted only where the three points
            # fit a monotone model (Chandrupatla's criterion); the clip keeps
            # every step at least tol / 2 inside the bracket
            xi = (a - b) / (c - b)
            ph = (ga - gb) / (gc - gb)
            t = (ga / (gb - ga) * gc / (gb - gc)
                 + (c - a) / (b - a) * ga / (gc - ga) * gb / (gc - gb))
            trusted = (ph * ph < xi) & ((1.0 - ph) ** 2 < 1.0 - xi) & np.isfinite(t)
            t_min = 0.5 * tol / width
            t = np.clip(np.where(trusted, t, 0.5), t_min, 1.0 - t_min)
        x = a + t * (b - a)
        gx = g(x, rows)
        bad = np.isnan(gx)
        if bad.any():
            status[rows[bad]] = NONFINITE
            rows, a, b, ga, gb, x, gx = (
                v[~bad] for v in (rows, a, b, ga, gb, x, gx))
        # x becomes the new a; when it crossed the root, the old a becomes b.
        # The end that x pushed out of the bracket becomes c.
        crossed = (gx < 0) != (ga < 0)
        c, gc = np.where(crossed, b, a), np.where(crossed, gb, ga)
        b, gb = np.where(crossed, a, b), np.where(crossed, ga, gb)
        a, ga = x, gx
    lo[rows], hi[rows], g_lo[rows], g_hi[rows] = a, b, ga, gb

    # the root is the end with the smaller residual, both already evaluated
    ok = status == OK
    lo_best = np.abs(g_lo) < np.abs(g_hi)
    t = np.where(ok, np.where(lo_best, lo, hi), np.nan)
    residual = np.where(ok, np.abs(np.where(lo_best, g_lo, g_hi)), np.nan)
    return RootResult(t=t, status=status, residual=residual)


def solve_monotone(profile_scalar, target: float, increasing: bool,
                   value_at_zero: float = 0.0, **kw) -> tuple[float, int, float]:
    """Scalar convenience wrapper; returns (root, status, residual)."""

    def batch(t):
        return np.array([profile_scalar(float(t[0]))])

    res = solve_monotone_batch(batch, np.array([target]), increasing,
                               value_at_zero=value_at_zero, **kw)
    return float(res.t[0]), int(res.status[0]), float(res.residual[0])


def golden_section(fun, a, b, iters: int = 80):
    """Minimize unimodal functions on [a, b]; returns (argmin, min).

    ``a`` and ``b`` may be arrays of brackets searched elementwise in
    lockstep: ``fun`` then maps an array of abscissae to the array of their
    values, one call per step.  Scalar brackets give scalar results.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(iters):
        # left: the minimum lies in [a, x2], so x1 becomes the upper probe
        left = f1 <= f2
        a = np.where(left, a, x1)
        b = np.where(left, x2, b)
        x_new = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        f_new = fun(x_new)
        x1, f1, x2, f2 = (np.where(left, x_new, x2), np.where(left, f_new, f2),
                          np.where(left, x1, x_new), np.where(left, f1, f_new))
    xm = 0.5 * (a + b)
    fm = fun(xm)
    return (float(xm), float(fm)) if scalar else (xm, fm)
