"""Tests for the batched monotone root finder and the golden-section helper."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siphkit import rootfind
from siphkit.gallery import make_builtin
from siphkit.rootfind import (BELOW_START, NONFINITE, OK, UNBOUNDED,
                              golden_section, solve_monotone,
                              solve_monotone_batch)


def test_scalar_increasing_quadratic():
    root, status, residual = solve_monotone(lambda t: t * t, 4.0, increasing=True)
    assert status == OK
    assert root == pytest.approx(2.0, abs=1e-12)
    assert residual <= 1e-10


def test_scalar_decreasing_exponential():
    root, status, residual = solve_monotone(lambda t: np.exp(-t), np.exp(-1.0),
                                            increasing=False, value_at_zero=1.0)
    assert status == OK
    assert root == pytest.approx(1.0, abs=1e-12)


def test_batch_mixed_targets():
    # row i evaluates coefficient[i] * t_i^2
    coeff = np.array([1.0, 4.0, 9.0])

    def prof(t):
        return coeff * t ** 2

    res = solve_monotone_batch(prof, np.array([4.0, 4.0, 4.0]), increasing=True)
    assert (res.status == OK).all()
    np.testing.assert_allclose(res.t, [2.0, 1.0, 2.0 / 3.0], rtol=1e-12)
    assert res.ok.all()


def test_below_start_status():
    root, status, residual = solve_monotone(lambda t: t, -1.0, increasing=True)
    assert status == BELOW_START
    assert np.isnan(residual)
    # decreasing ray: target above the start is equally unreachable
    _, status, _ = solve_monotone(lambda t: -t, 1.0, increasing=False)
    assert status == BELOW_START


def test_target_exactly_at_start_is_below_start():
    _, status, _ = solve_monotone(lambda t: t, 0.0, increasing=True)
    assert status == BELOW_START


def test_unbounded_status_on_saturating_profile():
    _, status, residual = solve_monotone(np.tanh, 2.0, increasing=True)
    assert status == UNBOUNDED
    assert np.isnan(residual)


def test_nonfinite_status():
    def prof(t):
        out = np.asarray(t, dtype=float).copy()
        out[out > 1.0] = np.nan
        return out

    res = solve_monotone_batch(prof, np.array([5.0]), increasing=True)
    assert res.status[0] == NONFINITE


def test_tight_residual_on_smooth_profile():
    targets = np.linspace(0.1, 50.0, 23)
    res = solve_monotone_batch(lambda t: t ** 3, targets, increasing=True)
    assert (res.status == OK).all()
    np.testing.assert_allclose(res.t, targets ** (1.0 / 3.0), rtol=1e-13)
    assert res.residual.max() <= 1e-9 * (1.0 + targets.max())


def test_value_at_zero_offset():
    # profile starts at 5 and decreases; target below start is reachable
    root, status, _ = solve_monotone(lambda t: 5.0 - t, 2.0, increasing=False,
                                     value_at_zero=5.0)
    assert status == OK
    assert root == pytest.approx(3.0, abs=1e-12)


def test_golden_section_minimizes():
    t, v = golden_section(lambda u: (u - 1.3) ** 2, 0.0, 3.0)
    assert t == pytest.approx(1.3, abs=1e-8)
    assert v == pytest.approx(0.0, abs=1e-15)


def test_golden_section_endpoint_minimum():
    t, _ = golden_section(lambda u: u, 0.0, 1.0)
    assert t == pytest.approx(0.0, abs=1e-8)


# ---------------------------------------------------------------------------
# the interpolating kernel against a reference bisection


def _reference_bisection(profile, targets, increasing, value_at_zero=0.0,
                         max_doublings=60, rtol=1e-14):
    """Plain bisection on the same doubling bracket: (roots, statuses, bracket
    evaluations).  The root is the midpoint of the final bracket."""
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    N = targets.shape[0]
    sign = np.where(np.broadcast_to(np.asarray(increasing, bool), (N,)), 1.0, -1.0)
    ty = sign * targets
    w0 = sign * np.broadcast_to(np.asarray(value_at_zero, dtype=float), (N,))
    status = np.zeros(N, dtype=int)
    status[~np.isfinite(ty)] = NONFINITE
    status[(ty <= w0) & (status == OK)] = BELOW_START

    def w(t, rows):
        with np.errstate(all="ignore"):
            return sign * profile(np.where(rows, t, 1.0))

    lo, hi = np.zeros(N), np.ones(N)
    w_hi = w(hi, status == OK)
    evals = 1
    status[np.isnan(w_hi) & (status == OK)] = NONFINITE
    pending = (status == OK) & (w_hi < ty)
    for _ in range(max_doublings):
        if not pending.any():
            break
        lo[pending] = hi[pending]
        hi[pending] *= 2.0
        w_new = w(hi, pending)
        evals += 1
        status[pending & np.isnan(w_new)] = NONFINITE
        pending &= ~np.isnan(w_new) & (w_new < ty)
    status[pending] = UNBOUNDED
    active = status == OK
    while active.any():
        mid = 0.5 * (lo + hi)
        w_mid = w(mid, active)
        status[active & np.isnan(w_mid)] = NONFINITE
        active &= ~np.isnan(w_mid)
        up = active & (w_mid < ty)
        lo[up] = mid[up]
        down = active & ~up
        hi[down] = mid[down]
        active &= (hi - lo) > rtol * (1.0 + np.abs(hi))
    return 0.5 * (lo + hi), status, evals


def _counted(profile):
    calls = []

    def wrapped(t):
        assert t.ndim == 1
        calls.append(t.shape[0])
        return profile(t)
    return wrapped, calls


def _assert_matches_reference(profile, targets, increasing, value_at_zero=0.0):
    res = solve_monotone_batch(profile, targets, increasing, value_at_zero)
    t_ref, status_ref, _ = _reference_bisection(profile, targets, increasing,
                                                value_at_zero)
    np.testing.assert_array_equal(res.status, status_ref)
    ok = res.status == OK
    assert (np.abs(res.t - t_ref) <= 1e-14 * (1.0 + np.abs(t_ref)))[ok].all()
    assert np.isnan(res.residual[~ok]).all()
    return res


# Each family maps (scale a, rate k) to a profile increasing from 0 at t = 0,
# and to its derivative.  Every profile is monotone in floating point too, so
# both solvers converge on the same sign change.
_FAMILIES = {
    "power": (lambda a, k, t: a * t ** k, lambda a, k, t: a * k * t ** (k - 1)),
    "exp": (lambda a, k, t: a * np.expm1(k * t), lambda a, k, t: a * k * np.exp(k * t)),
    "log": (lambda a, k, t: a * np.log1p(k * t), lambda a, k, t: a * k / (1 + k * t)),
    # saturates at a * pi / 2
    "atan": (lambda a, k, t: a * np.arctan(k * t),
             lambda a, k, t: a * k / (1 + (k * t) ** 2)),
}


@st.composite
def monotone_batches(draw):
    rows = draw(st.integers(1, 6))
    spec = []
    for _ in range(rows):
        fam = draw(st.sampled_from(sorted(_FAMILIES)))
        a = draw(st.floats(0.5, 2.0))
        k = draw(st.floats(0.5, 2.5))
        t_star = 10.0 ** draw(st.floats(-2.0, 1.3))
        offset = draw(st.floats(-3.0, 3.0))
        kind = draw(st.sampled_from(["root", "root", "root", "below", "beyond"]))
        increasing = draw(st.booleans())
        spec.append((fam, a, k, t_star, offset, kind, increasing))
    return spec


@settings(max_examples=200, deadline=None)
@given(monotone_batches())
def test_kernel_statuses_and_roots_equal_reference_bisection(spec):
    fams = [_FAMILIES[s[0]][0] for s in spec]
    a, k, t_star, offset = (np.array([s[i] for s in spec]) for i in (1, 2, 3, 4))
    sign = np.where([s[6] for s in spec], 1.0, -1.0)
    rise = np.array([f(ai, ki, ts) for f, ai, ki, ts in zip(fams, a, k, t_star)])
    v0 = sign * offset * rise  # offsets scale with the rise

    def profile(t):
        return v0 + sign * np.array([f(ai, ki, ti)
                                     for f, ai, ki, ti in zip(fams, a, k, t)])

    kinds = np.array([s[5] for s in spec])
    targets = v0 + sign * rise
    targets[kinds == "below"] = (v0 - sign * rise)[kinds == "below"]
    beyond = v0 + sign * 1e30  # past atan, log and power profiles up to 2**60
    targets[kinds == "beyond"] = beyond[kinds == "beyond"]
    res = _assert_matches_reference(profile, targets, sign > 0, v0)
    roots = kinds == "root"
    assert (res.status[roots] == OK).all()
    # where rounding in the profile moves the root by well under the
    # stopping width, the root is also within that width of t_star
    slope = np.array([_FAMILIES[s[0]][1](ai, ki, ts)
                      for s, ai, ki, ts in zip(spec, a, k, t_star)])
    tol = 1e-14 * (1.0 + t_star)
    rounding = 4 * np.finfo(float).eps * (np.abs(v0) + np.abs(targets)) / slope
    sharp = roots & (rounding <= 0.25 * tol)
    assert (np.abs(res.t - t_star) <= tol)[sharp].all()


@pytest.mark.parametrize("target", [1.0, 8.0, 2.0 ** 20])
def test_target_hit_exactly_at_a_doubling_end(target):
    prof, calls = _counted(lambda t: t.copy())
    res = solve_monotone_batch(prof, np.array([target]), increasing=True)
    assert res.status[0] == OK
    assert res.t[0] == target and res.residual[0] == 0.0
    _assert_matches_reference(lambda t: t.copy(), np.array([target]), True)
    # a hit on the bracket end takes a few steps, not a full bisection
    assert len(calls) <= 1 + np.log2(target) + 4


def test_infinite_values_inside_the_bracket():
    def prof(t):
        return np.where(t < 1.5, t, np.inf)

    want = np.array([1.2, 1.4999, 0.25])
    res = _assert_matches_reference(prof, want, True)
    assert (res.status == OK).all()
    assert (np.abs(res.t - want) <= 1e-14 * (1.0 + want)).all()


def test_nan_after_straddling_is_nonfinite():
    # finite at the bracket ends 0, 1 and 2, nan strictly between 1 and 2
    def prof(t):
        return np.where((t > 1.0) & (t < 2.0), np.nan, t)

    res = _assert_matches_reference(prof, np.array([1.5, 0.5]), True)
    assert list(res.status) == [NONFINITE, OK]
    assert np.isnan(res.residual[0])


def test_nan_value_at_zero_is_solved_as_below_the_target():
    res = _assert_matches_reference(lambda t: t ** 2, np.array([0.36, 9.0]), True,
                                    value_at_zero=np.nan)
    assert (res.status == OK).all()
    np.testing.assert_allclose(res.t, [0.6, 3.0], rtol=1e-13)


def test_below_start_and_unbounded_rows_in_one_batch():
    res = _assert_matches_reference(np.tanh, np.array([-0.5, 2.0, 0.5, 0.0]), True)
    assert list(res.status) == [BELOW_START, UNBOUNDED, OK, BELOW_START]
    # 2**60 caps the bracket: a linear target beyond it is unbounded
    res = _assert_matches_reference(lambda t: t.copy(), np.array([2.0 ** 61]), True)
    assert res.status[0] == UNBOUNDED


def test_no_warnings_on_non_finite_values():
    def prof(t):
        out = np.where(t < 3.0, np.expm1(t), np.inf)
        return np.where(t > 50.0, np.nan, out)

    targets = np.array([2.0, 1e3, np.nan, np.inf, 10.0, -np.inf, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_monotone_batch(prof, targets, True, value_at_zero=0.0)
        solve_monotone_batch(prof, targets, True, value_at_zero=np.inf)
        solve_monotone_batch(lambda t: -prof(t), -targets, False)
    assert list(res.status) == [OK, OK, NONFINITE, NONFINITE, OK, NONFINITE, OK]


@pytest.mark.parametrize("name,n", [("ellipsoid", 3), ("ellipsoid", 5),
                                    ("gauss_si", 2), ("gauss_si", 4)])
def test_evaluations_per_root_after_bracketing(name, n):
    field = make_builtin(name, n)
    rng = np.random.default_rng(n)
    D = rng.normal(size=(200, n))
    increasing = name == "ellipsoid"
    for level_point in rng.normal(size=(5, n)):
        gy = field.value(field.x_star + level_point) - field.f_star

        def profile(t):
            return field.shifted_values(t[:, None] * D)

        prof, calls = _counted(profile)
        res = solve_monotone_batch(prof, np.full(len(D), gy), increasing)
        assert (res.status == OK).all()
        _, _, bracket_evals = _reference_bisection(profile, np.full(len(D), gy),
                                                   increasing)
        assert len(calls) - bracket_evals <= 20


# ---------------------------------------------------------------------------
# live rows only: against the kernel that evaluated every row at every step


def _full_batch_kernel(profile, targets, increasing, value_at_zero=0.0,
                       max_doublings=60, max_iters=160, rtol=1e-14):
    """Reference for the live-row kernel: the same Chandrupatla steps with
    full-length state, evaluating all N rows at every call (finished and
    unstarted ones at t = 1).  Returns (t, status, residual)."""
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    N = targets.shape[0]
    sign = np.where(np.broadcast_to(np.asarray(increasing, bool), (N,)), 1.0, -1.0)
    ty = sign * targets
    w0 = sign * np.broadcast_to(np.asarray(value_at_zero, dtype=float), (N,))
    status = np.zeros(N, dtype=int)
    status[~np.isfinite(ty)] = NONFINITE
    status[(ty <= w0) & (status == OK)] = BELOW_START

    def g(t, rows):
        with np.errstate(all="ignore"):
            return sign * profile(np.where(rows, t, 1.0)) - ty

    lo, hi = np.zeros(N), np.ones(N)
    with np.errstate(all="ignore"):
        g_lo = np.where(np.isnan(w0), -np.inf, w0 - ty)
    g_hi = g(hi, status == OK)
    status[np.isnan(g_hi) & (status == OK)] = NONFINITE
    pending = (status == OK) & (g_hi < 0)
    for _ in range(max_doublings):
        if not pending.any():
            break
        lo[pending], g_lo[pending] = hi[pending], g_hi[pending]
        hi[pending] = hi[pending] * 2.0
        g_new = g(hi, pending)
        g_hi[pending] = g_new[pending]
        newly_nan = pending & np.isnan(g_new)
        status[newly_nan] = NONFINITE
        pending &= ~newly_nan & (g_new < 0)
    status[pending] = UNBOUNDED
    a, b, c = lo, hi, hi
    ga, gb, gc = g_lo, g_hi, g_hi
    active = status == OK
    for _ in range(max_iters):
        width = np.abs(b - a)
        tol = rtol * (1.0 + np.maximum(a, b))
        active &= width > tol
        if not active.any():
            break
        with np.errstate(all="ignore"):
            xi = (a - b) / (c - b)
            ph = (ga - gb) / (gc - gb)
            t = (ga / (gb - ga) * gc / (gb - gc)
                 + (c - a) / (b - a) * ga / (gc - ga) * gb / (gc - gb))
            trusted = (ph * ph < xi) & ((1.0 - ph) ** 2 < 1.0 - xi) & np.isfinite(t)
            t_min = 0.5 * tol / width
            t = np.clip(np.where(trusted, t, 0.5), t_min, 1.0 - t_min)
        x = a + t * (b - a)
        gx = g(x, active)
        newly_nan = active & np.isnan(gx)
        status[newly_nan] = NONFINITE
        active &= ~newly_nan
        crossed = active & ((gx < 0) != (ga < 0))
        stayed = active & ~crossed
        c, gc = (np.where(crossed, b, np.where(stayed, a, c)),
                 np.where(crossed, gb, np.where(stayed, ga, gc)))
        b, gb = np.where(crossed, a, b), np.where(crossed, ga, gb)
        a, ga = np.where(active, x, a), np.where(active, gx, ga)
    a_best = np.abs(ga) < np.abs(gb)
    t = np.where(a_best, a, b)
    residual = np.where(status == OK, np.abs(np.where(a_best, ga, gb)), np.nan)
    return t, status, residual


_ROW_KINDS = ("power", "exp", "kink", "nan_beyond", "saturating", "step")


def _mixed_batch(rng, N):
    """A batch of elementwise profiles of mixed kinds and directions, with
    reachable, below-start, unreachable and nan targets."""
    kind = rng.choice(_ROW_KINDS, size=N)
    a = rng.uniform(0.3, 3.0, N)
    k = rng.uniform(0.5, 3.0, N)
    t_k = rng.uniform(0.1, 20.0, N)
    sign = np.where(rng.random(N) < 0.6, 1.0, -1.0)

    def profile(t):
        with np.errstate(all="ignore"):
            out = np.select(
                [kind == name for name in _ROW_KINDS],
                [a * t ** k, a * np.expm1(k * t),
                 np.where(t < t_k, a * t, a * t_k + 50.0 * (t - t_k)),
                 np.where(t > t_k, np.nan, a * t), np.tanh(k * t),
                 np.floor(k * t)])
        return sign * out

    targets = sign * rng.choice([-1.0, 0.0, 0.5, 2.0, 10.0, 1e3, 1e30, np.nan],
                                size=N)
    return profile, targets, sign > 0


def test_live_rows_give_the_full_batch_kernels_results(monkeypatch):
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(100):
        profile, targets, increasing = _mixed_batch(rng, int(rng.integers(1, 13)))
        # a small step budget leaves rows unsettled when it runs out
        max_iters = int(rng.choice([4, 160]))
        monkeypatch.setattr(rootfind, "MAX_ITERS", max_iters)
        res = solve_monotone_batch(profile, targets, increasing)
        t_ref, status_ref, residual_ref = _full_batch_kernel(
            profile, targets, increasing, max_iters=max_iters)
        np.testing.assert_array_equal(res.status, status_ref)
        ok = res.status == OK
        assert res.t[ok].tobytes() == t_ref[ok].tobytes()
        assert res.residual.tobytes() == residual_ref.tobytes()
        assert np.isnan(res.t[~ok]).all()
        seen.update(res.status.tolist())
    assert seen == {OK, UNBOUNDED, NONFINITE, BELOW_START}


def _recording(profile):
    """The profile, recording the live rows and their t at every call."""
    calls = []

    def wrapped(t):
        live = np.flatnonzero(~np.isnan(t))
        calls.append((live, t[live].copy()))
        out = profile(t)
        return np.where(np.isnan(t), np.nan, out)
    return wrapped, calls


def test_settled_rows_are_never_evaluated():
    rng = np.random.default_rng(7)
    for _ in range(25):
        N = int(rng.integers(2, 13))
        profile, targets, increasing = _mixed_batch(rng, N)
        prof, calls = _recording(profile)
        res = solve_monotone_batch(prof, targets, increasing)
        assert all(live.size for live, _ in calls)
        for i in range(N):
            # the row's probes in the batch are exactly those of its solve
            # alone: no probe once it has settled, failed or before it starts
            seq = [t[live == i][0] for live, t in calls if (live == i).any()]

            def row_profile(t, i=i):
                t_all = np.full(N, np.nan)
                t_all[i] = t[0]
                return profile(t_all)[i:i + 1]
            alone, alone_calls = _recording(row_profile)
            single = solve_monotone_batch(alone, targets[i:i + 1], increasing[i])
            assert np.array(seq).tobytes() == np.array(
                [t[0] for _, t in alone_calls]).tobytes()
            assert single.status[0] == res.status[i]
            assert single.t[0].tobytes() == res.t[i].tobytes()
            if res.status[i] == BELOW_START or not np.isfinite(targets[i]):
                assert seq == []


def test_a_batch_with_every_row_live_reaches_the_profile_unchanged():
    seen = []

    def profile(t):
        seen.append(t)
        return t ** 3

    targets = np.array([1.0, 8.0, 27.0, 0.001])
    solve_monotone_batch(profile, targets, True)
    assert not np.isnan(seen[0]).any()
    # rows drop out as they settle; then the others come padded with nan
    assert np.isnan(seen[-1]).sum() >= 1


# ---------------------------------------------------------------------------
# a guessed bracket per row


def test_straddling_brackets_end_ok_inside_them():
    targets = np.array([1.0, 8.0, 27.0, 0.001])
    roots = np.array([1.0, 2.0, 3.0, 0.1])
    lo = np.array([0.9, 1.5, 3.0 * (1 - 1e-9), 0.1 * (1 - 1e-9)])
    hi = np.array([1.1, 2.5, 3.0 * (1 + 1e-9), 0.1 * (1 + 1e-9)])
    prof, calls = _counted(lambda t: t ** 3)
    res = solve_monotone_batch(prof, targets, True, bracket=(lo, hi))
    assert (res.status == OK).all()
    assert ((lo <= res.t) & (res.t <= hi)).all()
    np.testing.assert_allclose(res.t, roots, rtol=1e-14)
    assert (res.residual <= 1e-14 * targets).all()
    # a tight bracket: its two ends, then Chandrupatla steps on a width of
    # 2e-9 relative
    tight, tight_calls = _counted(lambda t: t ** 3)
    solve_monotone_batch(tight, targets[2:], True, bracket=(lo[2:], hi[2:]))
    cold, cold_calls = _counted(lambda t: t ** 3)
    solve_monotone_batch(cold, targets[2:], True)
    assert len(tight_calls) <= 5 < len(cold_calls)


def test_a_bracket_on_a_decreasing_profile():
    res = solve_monotone_batch(lambda t: np.exp(-t), np.array([np.exp(-2.0)]),
                               False, value_at_zero=1.0,
                               bracket=(np.array([1.5]), np.array([2.5])))
    assert res.status[0] == OK
    assert res.t[0] == pytest.approx(2.0, rel=1e-14)


def _cold_roots(profile, targets, increasing):
    res = solve_monotone_batch(profile, targets, increasing)
    return np.where(res.status == OK, res.t, 1.0)


def _brackets(kinds, t0):
    """Per-row (lo, hi) of the given kinds around the cold roots t0."""
    table = {
        "tight": (t0 * (1 - 1e-9), t0 * (1 + 1e-9)),
        "wide": (0.5 * t0, 2.0 * t0 + 1.0),
        "above": (2.0 * t0 + 1.0, 3.0 * t0 + 2.0),
        "below": (0.25 * t0, 0.5 * t0),
        "nan_lo": (np.full_like(t0, np.nan), t0 + 1.0),
        "nan_hi": (0.5 * t0, np.full_like(t0, np.nan)),
        "reversed": (2.0 * t0 + 1.0, 0.5 * t0),
        "empty": (t0, t0),
        "negative": (-t0 - 1.0, t0 + 1.0),
        "infinite": (0.5 * t0, np.full_like(t0, np.inf)),
    }
    lo = np.array([table[k][0][i] for i, k in enumerate(kinds)])
    hi = np.array([table[k][1][i] for i, k in enumerate(kinds)])
    return lo, hi


_FALLBACK_KINDS = ("above", "below", "nan_lo", "nan_hi", "reversed", "empty",
                   "negative", "infinite")


@pytest.mark.parametrize("kind", _FALLBACK_KINDS)
def test_rows_a_bracket_does_not_seed_solve_as_without_one(kind):
    rng = np.random.default_rng(31)
    for _ in range(20):
        N = int(rng.integers(1, 13))
        profile, targets, increasing = _mixed_batch(rng, N)
        base = solve_monotone_batch(profile, targets, increasing)
        lo, hi = _brackets([kind] * N, _cold_roots(profile, targets, increasing))
        res = solve_monotone_batch(profile, targets, increasing,
                                   bracket=(lo, hi))
        assert res.status.tobytes() == base.status.tobytes()
        assert res.t.tobytes() == base.t.tobytes()
        assert res.residual.tobytes() == base.residual.tobytes()


def test_a_bracket_whose_low_end_is_the_root_is_not_taken():
    # g(lo) = 0 breaks the invariant g(lo) < 0 the loop relies on
    targets = np.array([2.0, 8.0])
    base = solve_monotone_batch(lambda t: t.copy(), targets, True)
    res = solve_monotone_batch(lambda t: t.copy(), targets, True,
                               bracket=(targets, 1.5 * targets))
    assert res.t.tobytes() == base.t.tobytes()
    assert res.t.tolist() == targets.tolist()


def test_a_bracket_that_straddles_only_after_nan_is_not_taken():
    # nan at the low end: the row is solved cold, even though the high end
    # lies above the target
    def prof(t):
        return np.where(t < 0.75, np.nan, t)

    base = solve_monotone_batch(prof, np.array([1.5]), True)
    res = solve_monotone_batch(prof, np.array([1.5]), True,
                               bracket=(np.array([0.5]), np.array([3.0])))
    assert res.t.tobytes() == base.t.tobytes()
    assert res.status.tobytes() == base.status.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 10), st.data())
def test_a_rows_result_does_not_depend_on_its_neighbours_seeds(seed, N, data):
    rng = np.random.default_rng(seed)
    profile, targets, increasing = _mixed_batch(rng, N)
    t0 = _cold_roots(profile, targets, increasing)
    kinds = data.draw(st.lists(st.sampled_from(("tight", "wide")
                                               + _FALLBACK_KINDS),
                               min_size=N, max_size=N))
    lo, hi = _brackets(kinds, t0)
    seeded = np.array(data.draw(st.lists(st.booleans(), min_size=N,
                                         max_size=N)))
    res = solve_monotone_batch(profile, targets, increasing,
                               bracket=(np.where(seeded, lo, np.nan),
                                        np.where(seeded, hi, np.nan)))
    for i in range(N):
        def row_profile(t, i=i):
            t_all = np.full(N, np.nan)
            t_all[i] = t[0]
            return profile(t_all)[i:i + 1]
        bracket = (lo[i:i + 1], hi[i:i + 1]) if seeded[i] else None
        alone = solve_monotone_batch(row_profile, targets[i:i + 1],
                                     increasing[i], bracket=bracket)
        assert alone.status[0] == res.status[i]
        assert alone.t[0].tobytes() == res.t[i].tobytes()
        assert alone.residual[0].tobytes() == res.residual[i].tobytes()
        if seeded[i] and kinds[i] == "tight" and res.status[i] == OK:
            assert lo[i] <= res.t[i] <= hi[i]
