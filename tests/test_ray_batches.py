"""Batched ray probes and lockstep sphere extrema against one-at-a-time forms.

A batch of directions must give, row for row, what a batch of that one row
gives, and the array ray verdicts what the former per-row loop gave; the
lockstep sphere polish must reproduce the sequential one bit for bit.  The
per-row verdict loop and the sequential polish are kept here as references,
and so is the former golden-section polish, which the arc search may never
do worse than.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from siphkit.exprlang import bind
from siphkit.gallery import make_builtin, random_si
from siphkit.levelsets import (ARC_CALLS, ARC_GRID, SETTLE_RTOL, SPHERE_PASSES,
                               ray_level_radius, sphere_extrema)
from siphkit.rays import (CONST_TOL, STEP_TOL, SamplingPlan, _inversion_t_pairs,
                          _ray_values, _ray_verdicts, classify_ray)
from siphkit.rootfind import golden_section

GALLERY = ("sphere", "ellipsoid", "gauss_si", "saddle_si", "random_si",
           "linear_x1", "piecewise_ph", "bowl")


def _field(name, n, seed):
    if name == "random_si":
        return random_si(seed, n)
    if name == "bowl":  # rays through x_1 = 1 turn around: non-monotone
        return bind("(x_1 - 1)^2 + norm(x)^2", n)
    return make_builtin(name, n)


@st.composite
def ray_batches(draw):
    name = draw(st.sampled_from(GALLERY))
    n = draw(st.integers(2, 5))
    rows = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    D = rng.normal(size=(rows, n)) * rng.uniform(0.1, 3.0, size=(rows, 1))
    # axis directions and a zero direction exercise constant and flat rays
    D[rng.random(rows) < 0.25] = np.eye(n)[0]
    D[rng.random(rows) < 0.1] = 0.0
    return _field(name, n, seed), D, rng


@settings(max_examples=60, deadline=None)
@given(ray_batches())
def test_batched_classification_equals_per_row(batch):
    field, D, _ = batch
    kinds = classify_ray(field, D)
    assert isinstance(kinds, np.ndarray) and kinds.shape == (len(D),)
    t_full = np.concatenate([[0.0], SamplingPlan().t_grid()])
    _, up, down = _ray_verdicts(field, _ray_values(field, D, t_full))
    pairs = _inversion_t_pairs(up, down, t_full)
    for i, d in enumerate(D):
        want, want_up, want_down = _ray_verdicts(
            field, _ray_values(field, D[i:i + 1], t_full))
        assert kinds[i] == want[0] == classify_ray(field, d)[0]
        np.testing.assert_array_equal(
            pairs[i], _inversion_t_pairs(want_up, want_down, t_full)[0])


@settings(max_examples=60, deadline=None)
@given(ray_batches())
def test_batched_level_radii_equal_per_row(batch):
    field, D, rng = batch
    if rng.random() < 0.7:  # a level the field attains
        c = field.value(field.x_star + rng.normal(size=field.n))
    else:
        c = float(rng.uniform(-1.0, 3.0))
    hits = ray_level_radius(field, D, c)
    assert len(hits) == len(D)
    for d, got in zip(D, hits):
        (want,) = ray_level_radius(field, d[None, :], c)
        np.testing.assert_array_equal(got.direction, d)
        assert got.level == c
        assert got.status == want.status
        assert got.radius == pytest.approx(want.radius, rel=1e-12, nan_ok=True)


def test_batched_level_radii_report_non_monotone_rows():
    f = bind("(x_1 - 1)^2", 1)
    hits = ray_level_radius(f, np.array([[1.0], [-1.0]]), 4.0)
    assert [h.status for h in hits] == ["non-monotone", "ok"]
    assert hits[1].radius == pytest.approx(1.0, abs=1e-12)


def test_empty_batch_gives_empty_lists():
    f = make_builtin("sphere", 3)
    assert classify_ray(f, np.zeros((0, 3))).tolist() == []
    assert ray_level_radius(f, np.zeros((0, 3)), 1.0).tolist() == []


@pytest.mark.parametrize("field, c", [
    (make_builtin("sphere", 3), 2.0), (random_si(5, 3, eps=0.3), 1.5),
    (bind("sin(3*x_1) + x_2^2 + x_3^2", 3), 0.5),
    (bind("sqrt(x_1) + x_2^2 + x_3^2", 3), 1.0),
    (make_builtin("linear_x1", 3), 0.0)])
def test_one_ray_and_batched_level_radii_give_the_same_row_bits(field, c):
    D = SamplingPlan(seed=11).sphere_points(3, 24)
    radii = ray_level_radius(field, D, c)
    for i, d in enumerate(D):
        one = ray_level_radius(field, d, c)
        assert one.status[0] == radii.status[i]
        for name in ("direction", "level", "radius", "residual"):
            assert one[name][0].tobytes() == radii[name][i].tobytes()


# ---------------------------------------------------------------------------
# array ray verdicts against the former per-row loop


def _loop_verdicts(f_star, vals, t_full):
    """The per-row classification that the array verdicts replaced: each
    row's kind, and its inversion t pair (nan unless non-monotone)."""
    tol_const = CONST_TOL * (1.0 + abs(f_star))
    kinds, pairs = [], []
    for row in vals:
        pair = [np.nan, np.nan]
        with np.errstate(invalid="ignore"):
            dev = float(np.max(np.abs(row - row[0])))
            steps = np.diff(row)
        up, down = steps > STEP_TOL, steps < -STEP_TOL
        if np.isnan(row).any():
            kind = "non-finite"
        elif up.any() and down.any():
            kind = "non-monotone"
            b = max(int(np.argmax(up)), int(np.argmax(down)))
            pair = [float(t_full[b]), float(t_full[b + 1])]
        elif dev <= tol_const:
            kind = "constant"
        elif up.any() or (not down.any() and row[-1] > row[0]):
            kind = "strictly-increasing"
        else:
            kind = "strictly-decreasing"
        kinds.append(kind)
        pairs.append(pair)
    return kinds, np.array(pairs).reshape(-1, 2)


_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1.0])
# steps about the plateau band: a row of small rises and one strict fall
# can end above its start
_NEAR_STEP = st.sampled_from([0.9, -0.9, 1.0, -1.0, 1.1, -1.1]).map(
    lambda k: k * STEP_TOL)


@st.composite
def _value_rows(draw, cols, f_star):
    start = draw(st.just(0.0) | st.floats(-10.0, 10.0))
    style = draw(st.sampled_from(["free", "plateau", "drift", "constant",
                                  "ties"]))
    if style == "free":  # any values, non-finite ones too
        return draw(st.lists(st.floats(-1e3, 1e3) | _SPECIAL,
                             min_size=cols, max_size=cols))
    if style in ("plateau", "drift"):  # steps within and about +-STEP_TOL
        step = (_NEAR_STEP if style == "drift" else
                st.floats(-STEP_TOL, STEP_TOL) | _NEAR_STEP
                | st.floats(-1.0, 1.0) | st.just(0.0))
        steps = draw(st.lists(step, min_size=cols - 1, max_size=cols - 1))
        return (start + np.concatenate([[0.0], np.cumsum(steps)])).tolist()
    if style == "constant":  # deviations about the constancy band
        dev = CONST_TOL * (1.0 + abs(f_star))
        return [start] + draw(st.lists(
            st.sampled_from([start, start + 0.5 * dev, start + dev,
                             start - 2.0 * dev]),
            min_size=cols - 1, max_size=cols - 1))
    return draw(st.lists(st.sampled_from([start, start + 1.0, start - 1.0]),
                         min_size=cols, max_size=cols))  # exact ties


@st.composite
def value_matrices(draw):
    cols = draw(st.integers(2, 8))
    f_star = draw(st.sampled_from([0.0, 1.0, -3.0, 1e6]))
    rows = draw(st.lists(_value_rows(cols, f_star), max_size=6))
    return f_star, np.array(rows, dtype=float).reshape(-1, cols)


@settings(max_examples=300, deadline=None)
@given(value_matrices())
@example((0.0, np.zeros((0, 4))))  # an empty batch
@example((0.0, STEP_TOL * np.array([[0.0, 0.9, 1.8, 2.7, 1.6]])))  # ends high
def test_array_verdicts_equal_the_per_row_loop(case):
    f_star, vals = case
    t_full = np.concatenate([[0.0], np.geomspace(0.01, 10.0, vals.shape[1] - 1)])
    kinds, up, down = _ray_verdicts(SimpleNamespace(f_star=f_star), vals)
    want_kinds, want_pairs = _loop_verdicts(f_star, vals, t_full)
    assert kinds.tolist() == want_kinds
    non_monotone = kinds == "non-monotone"
    np.testing.assert_array_equal(
        _inversion_t_pairs(up, down, t_full)[non_monotone],
        want_pairs[non_monotone])


# ---------------------------------------------------------------------------
# golden section on array brackets


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 6))
def test_array_golden_section_equals_scalar_calls(seed, k):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3.0, 0.0, size=k)
    b = a + rng.uniform(0.1, 5.0, size=k)
    centre = rng.uniform(-4.0, 4.0, size=k)

    def quartic(x, c):
        # exactly rounded operations only, so that arrays and scalars agree
        d = x - c
        return d * d * (d * d - 1.0) + 0.3 * d

    xs, vals = golden_section(lambda x: quartic(x, centre), a, b)
    for i in range(k):
        x, v = golden_section(lambda u: quartic(u, centre[i]), a[i], b[i])
        assert isinstance(x, float) and isinstance(v, float)
        assert xs[i] == x and vals[i] == v


# ---------------------------------------------------------------------------
# lockstep sphere extrema


def _finite_or_inf(val):
    return val if np.isfinite(val) else np.inf


def _reference_refine(fun, u, sign, passes):
    """The sequential one-chain polish: along each axis arc, ARC_CALLS grid
    steps of ARC_GRID angles, each point built alone and each step's points
    evaluated in one call of the chain's own; passes until one improves the
    chain by at most SETTLE_RTOL relative."""
    n = u.shape[0]
    best_u = u / np.sqrt(np.sum(u * u))
    best_v = _finite_or_inf(sign * fun(best_u[None])[0])
    for _ in range(passes):
        before = best_v
        for i in range(n):
            axis = np.zeros(n)
            axis[i] = 1.0
            tangent = axis - best_u[i] * best_u
            norm = np.sqrt(np.sum(tangent * tangent))
            if norm < 1e-12:
                continue
            base, tangent = best_u, tangent / norm
            lo, hi = -np.pi / 2, np.pi / 2
            arc_u, arc_v = None, np.inf
            for _ in range(ARC_CALLS):
                thetas, points = [], []
                for j in range(1, ARC_GRID + 1):
                    theta = lo + (hi - lo) * (j / (ARC_GRID + 1))
                    w = np.cos(theta) * base + np.sin(theta) * tangent
                    thetas.append(theta)
                    points.append(w / np.sqrt(np.sum(w * w)))
                vals = [_finite_or_inf(v) for v in sign * fun(np.array(points))]
                j = int(np.argmin(vals))
                if vals[j] < arc_v:
                    arc_u, arc_v = points[j], vals[j]
                edges = [lo] + thetas + [hi]
                lo, hi = edges[j], edges[j + 2]
            if arc_v < best_v:
                best_u, best_v = arc_u, arc_v
        scale = abs(before) if np.isfinite(before) else 0.0
        if not best_v < before - SETTLE_RTOL * scale:
            break
    return best_u, sign * best_v


def _golden_refine(fun, u, sign, passes):
    """The former polish, sequential: golden section along each axis arc,
    at points not divided by their norm, for a fixed number of passes."""
    n = u.shape[0]
    best_u = u / np.linalg.norm(u)
    best_v = sign * fun(best_u[None])[0]
    for _ in range(passes):
        for i in range(n):
            axis = np.zeros(n)
            axis[i] = 1.0
            tangent = axis - (axis @ best_u) * best_u
            norm = np.linalg.norm(tangent)
            if norm < 1e-12:
                continue
            tangent /= norm
            base = best_u

            def arc_val(theta):
                w = np.cos(theta) * base + np.sin(theta) * tangent
                val = sign * fun(w[None])[0]
                return val if np.isfinite(val) else np.inf

            theta_best, val = golden_section(arc_val, -np.pi / 2, np.pi / 2)
            if val < best_v:
                best_v = val
                best_u = np.cos(theta_best) * base + np.sin(theta_best) * tangent
                best_u /= np.linalg.norm(best_u)
    return best_u, sign * best_v


def _reference_extrema(p, n_samples=512, refine_steps=SPHERE_PASSES, seed=0,
                       refine=_reference_refine):
    S = SamplingPlan(seed=seed).sphere_points(p.n, n_samples)
    vals = p.values(p.x_star + S)
    finite = np.isfinite(vals)

    def fun(U):
        return p.values(p.x_star + U)

    lo = S[int(np.argmin(np.where(finite, vals, np.inf)))]
    hi = S[int(np.argmax(np.where(finite, vals, -np.inf)))]
    return (refine(fun, lo, +1.0, refine_steps),
            refine(fun, hi, -1.0, refine_steps))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lockstep_extrema_equal_sequential_reference_bitwise(n):
    p = make_builtin("ellipsoid", n)
    ext = sphere_extrema(p, seed=3)
    (u_min, m), (u_max, M) = _reference_extrema(p, seed=3)
    assert ext.m == m and ext.M == M
    assert np.array_equal(ext.argmin, u_min)
    assert np.array_equal(ext.argmax, u_max)


@pytest.mark.parametrize("seed,n", [(0, 3), (5, 4), (11, 5)])
def test_lockstep_extrema_equal_sequential_reference_bitwise_on_random_fields(seed, n):
    # random_si values do not depend on the rows evaluated with them, so
    # the lockstep polish takes the sequential polish's golden steps
    p = random_si(seed, n)
    ext = sphere_extrema(p, seed=3)
    (u_min, m), (u_max, M) = _reference_extrema(p, seed=3)
    assert ext.m == m and ext.M == M
    assert np.array_equal(ext.argmin, u_min)
    assert np.array_equal(ext.argmax, u_max)


@pytest.mark.parametrize("seed,n", [(0, 3), (5, 4), (11, 5)])
def test_lockstep_extrema_match_sequential_reference_on_random_fields(seed, n):
    # the same extrema up to rounding, whatever the field's arithmetic
    p = random_si(seed, n)
    ext = sphere_extrema(p, seed=3)
    (u_min, m), (u_max, M) = _reference_extrema(p, seed=3)
    assert ext.m == pytest.approx(m, rel=1e-9)
    assert ext.M == pytest.approx(M, rel=1e-9)
    np.testing.assert_allclose(ext.argmin, u_min, atol=1e-4)
    np.testing.assert_allclose(ext.argmax, u_max, atol=1e-4)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_arc_search_is_never_worse_than_the_golden_polish(n):
    # every reported extremum is a value at a sphere point, so a lower m or
    # a higher M is closer to the truth; the former polish made 2 passes
    for seed in range(1, 11):
        p = random_si(seed, n)
        ext = sphere_extrema(p, seed=seed)
        (_, m), (_, M) = _reference_extrema(p, refine_steps=2, seed=seed,
                                            refine=_golden_refine)
        assert ext.m <= m + 1e-15 * abs(m)
        assert ext.M >= M - 1e-15 * abs(M)
