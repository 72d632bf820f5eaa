"""Bracketed root-finding on monotone rays, batched.

Every solver here assumes the scalar profile is monotone in t on [0, inf) and
that its value at t = 0 is known exactly (0 for shifted fields).  Brackets grow
by doubling the upper end from 1 up to 2**60; a profile that never straddles
its target inside that range is reported as unbounded evidence rather than an
error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DOUBLINGS = 60

# Row status codes.
OK = 0
UNBOUNDED = 1    # bracket cap reached without straddling the target
NONFINITE = 2    # nan encountered while bracketing or bisecting
BELOW_START = 3  # target on the wrong side of the value at t = 0


@dataclass
class RootResult:
    t: np.ndarray        # roots (valid where status == OK)
    status: np.ndarray   # per-row status code
    residual: np.ndarray  # |profile(t) - target| where OK, else nan

    @property
    def ok(self) -> np.ndarray:
        return self.status == OK


def solve_monotone_batch(profile, targets, increasing, value_at_zero=0.0,
                         max_doublings: int = MAX_DOUBLINGS,
                         max_iters: int = 160, rtol: float = 1e-14) -> RootResult:
    """Solve profile_i(t_i) = targets[i] for each row of a batch of rays.

    Parameters
    ----------
    profile : callable
        ``profile(t)`` with t of shape (N,) evaluates row i's profile at t[i]
        and returns shape (N,).
    targets : array (N,)
    increasing : bool or array (N,)
        Monotonicity direction of each profile.
    value_at_zero : float or array
        Exact profile value at t = 0 (0 for shifted fields).

    Targets must lie strictly on the far side of ``value_at_zero`` in the
    monotone direction; rows where they do not are marked unbounded (the
    profile can never reach them).
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    N = targets.shape[0]
    sign = np.where(np.broadcast_to(np.asarray(increasing, bool), (N,)), 1.0, -1.0)
    # Work with w(t) = sign * profile(t), an increasing profile, target ty.
    ty = sign * targets
    w0 = sign * np.broadcast_to(np.asarray(value_at_zero, dtype=float), (N,))

    status = np.zeros(N, dtype=int)
    status[~np.isfinite(ty)] = NONFINITE
    status[(ty <= w0) & (status == OK)] = BELOW_START

    lo = np.zeros(N)
    hi = np.ones(N)
    with np.errstate(all="ignore"):
        w_hi = sign * profile(hi)
    status[np.isnan(w_hi) & (status == OK)] = NONFINITE
    straddled = (w_hi >= ty) & (status == OK)
    pending = (status == OK) & ~straddled
    for _ in range(max_doublings):
        if not pending.any():
            break
        lo[pending] = hi[pending]
        hi[pending] = hi[pending] * 2.0
        t_eval = np.where(pending, hi, 1.0)
        with np.errstate(all="ignore"):
            w_new = sign * profile(t_eval)
        newly_nan = pending & np.isnan(w_new)
        status[newly_nan] = NONFINITE
        pending &= ~newly_nan
        done = pending & (w_new >= ty)
        straddled |= done
        pending &= ~done
    status[pending] = UNBOUNDED

    active = status == OK
    # Bisection: invariant w(lo) < ty <= w(hi).
    for _ in range(max_iters):
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        t_eval = np.where(active, mid, 1.0)
        with np.errstate(all="ignore"):
            w_mid = sign * profile(t_eval)
        newly_nan = active & np.isnan(w_mid)
        status[newly_nan] = NONFINITE
        active &= ~newly_nan
        go_up = active & (w_mid < ty)
        lo[go_up] = mid[go_up]
        go_down = active & ~go_up
        hi[go_down] = mid[go_down]
        active &= (hi - lo) > rtol * (1.0 + np.abs(hi))

    t = 0.5 * (lo + hi)
    residual = np.full(N, np.nan)
    ok = status == OK
    if ok.any():
        t_eval = np.where(ok, t, 1.0)
        with np.errstate(all="ignore"):
            vals = profile(t_eval)
        residual[ok] = np.abs(vals[ok] - targets[ok])
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
