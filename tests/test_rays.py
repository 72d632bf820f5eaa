"""Order-preservation certification and ray-monotonicity classification."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siphkit.exprlang import bind
from siphkit.field import ScalarField, row_sumsq
from siphkit.gallery import REGISTRY, make_builtin
from siphkit.rays import (
    MAX_WITNESSES,
    SamplingPlan,
    check_decomposability,
    check_scaling_invariance,
    classify_ray,
    default_directions,
    order_trichotomy,
    ray_witness_kinds,
    row_witnesses,
)
from siphkit.rays import _reversed
from siphkit.reporting import jsonable


# ---------------------------------------------------------------------------
# trichotomy


def test_order_trichotomy_basic():
    assert order_trichotomy(1.0, 2.0) == -1
    assert order_trichotomy(2.0, 1.0) == 1
    assert order_trichotomy(1.0, 1.0) == 0


def test_order_trichotomy_tie_band_is_relative():
    assert order_trichotomy(1.0, 1.0 + 1e-15) == 0
    assert order_trichotomy(1e6, 1e6 * (1 + 1e-14)) == 0
    assert order_trichotomy(1.0, 1.0 + 1e-9) == -1


def test_order_trichotomy_infinities():
    assert order_trichotomy(np.inf, np.inf) == 0
    assert order_trichotomy(-np.inf, np.inf) == -1
    assert order_trichotomy(np.inf, 1.0) == 1


def test_order_trichotomy_vectorized():
    out = order_trichotomy([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(out, [-1, 0, 1])


def test_order_trichotomy_emits_no_warning_on_extreme_values():
    # at atol 0 the tie band against an infinity is 0 * inf; 1e308 - (-1e308)
    # overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for atol in (0.0, 1e-12):
            out = order_trichotomy([np.inf, 1.0, np.inf, 1e308],
                                   [1.0, np.inf, np.inf, -1e308], atol=atol)
            np.testing.assert_array_equal(out, [1, -1, 0, 1])


def _band_trichotomy(a, b, atol):
    """The three-way compare with its own tie band, written out."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        band = atol * (1.0 + np.maximum(np.abs(a), np.abs(b)))
        band = np.where(np.isfinite(band), band, 0.0)
        return np.where(a == b, 0, np.where(np.abs(a - b) <= band, 0,
                                            np.where(a < b, -1, 1)))


_TRICHOTOMY_SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                       1e308, -1e308, 1e16, 1e16 + 2, 1.0, -1.0]


@pytest.mark.parametrize("atol", [0.0, 1e-12, 1e-3])
def test_order_trichotomy_keeps_the_answers_of_the_written_out_band(atol):
    a, b = (v.ravel() for v in np.meshgrid(_TRICHOTOMY_SPECIAL,
                                           _TRICHOTOMY_SPECIAL))
    rng = np.random.default_rng(14)
    x = rng.normal(size=4000) * 10.0 ** rng.uniform(-300, 300, 4000)
    step = rng.choice([0.0, 1e-16, -1e-14, 1e-13, -1e-10, 1e-4, -2e-3, 1.0],
                      4000)
    a = np.concatenate([a, x, x, rng.normal(size=500)])
    b = np.concatenate([b, x * (1.0 + step), x + step, rng.normal(size=500)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = order_trichotomy(a, b, atol)
    want = _band_trichotomy(a, b, atol)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    # scalars and broadcasting keep their shapes
    for u, v in ((1.0, 2.0), (np.nan, 1.0), (a[:5], 0.0), (1e16, b[:7, None])):
        out = order_trichotomy(u, v, atol)
        assert out.shape == np.broadcast(u, v).shape
        np.testing.assert_array_equal(out, _band_trichotomy(u, v, atol))


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 1.0, 1.0 + 1e-12,
                -1.0, 1e308, -1e308, np.inf, -np.inf, np.nan]
_ORDER_VALUES = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(width=64))


@st.composite
def _value_pairs(draw):
    """(a, b) drawn freely, tied exactly, or a relative step apart."""
    a = draw(_ORDER_VALUES)
    how = draw(st.sampled_from(["free", "tie", "near"]))
    if how == "free":
        return a, draw(_ORDER_VALUES)
    if how == "tie":
        return a, a
    return a, a * (1.0 + draw(st.sampled_from([1e-15, -1e-13, 1e-11, -1e-7,
                                                1e-5])))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_value_pairs(), _value_pairs()), min_size=1,
                max_size=32),
       st.sampled_from([1e-12, 0.0, 1e-6]))
def test_fused_order_rule_matches_the_trichotomy_product(rows, atol):
    fx, fy, frx, fry = (np.array(col) for col in
                        zip(*[(a, b, c, d) for (a, b), (c, d) in rows]))
    nan_rows = np.isnan(fx) | np.isnan(fy) | np.isnan(frx) | np.isnan(fry)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _reversed(fx, fy, frx, fry, atol)
        expected = (order_trichotomy(fx, fy, atol) * order_trichotomy(frx, fry, atol)
                    == -1) & ~nan_rows
    np.testing.assert_array_equal(got, expected)


def test_fused_order_rule_sees_reversals_of_tiny_differences():
    # (1e-200 - 0) * (0 - 1e-200) underflows to -0: only the signs show it
    one = np.array([1e-200])
    zero = np.array([0.0])
    assert _reversed(one, zero, zero, one, 0.0).tolist() == [True]
    assert _reversed(one, zero, zero, one, 1e-12).tolist() == [False]


# ---------------------------------------------------------------------------
# sampling plan


def test_sampling_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(n_samples=0)
    with pytest.raises(ValueError):
        SamplingPlan(rho_min=2.0, rho_max=1.0)
    with pytest.raises(ValueError):
        SamplingPlan(rho_min=0.0)
    with pytest.raises(ValueError):
        SamplingPlan(box_radius=0.0)
    with pytest.raises(ValueError):
        SamplingPlan(t_max=-1.0)
    with pytest.raises(ValueError):
        SamplingPlan(grid_points=2)
    for key in ("box_radius", "rho_max", "t_max"):
        with pytest.raises(ValueError, match="must be finite"):
            SamplingPlan(**{key: np.inf})


def test_sampling_plan_grid_and_draws():
    plan = SamplingPlan(seed=3, n_samples=50, t_max=5.0, grid_points=10)
    grid = plan.t_grid()
    assert grid.shape == (10,)
    assert (np.diff(grid) > 0).all()
    assert grid[0] > 0 and grid[-1] == pytest.approx(5.0)
    rhos = plan.rhos()
    assert rhos.shape == (50,)
    assert (rhos >= plan.rho_min).all() and (rhos <= plan.rho_max).all()
    X = plan.box_points(3)
    assert X.shape == (50, 3)
    assert (np.abs(X) <= plan.box_radius).all()
    U = plan.sphere_points(4, 20)
    np.testing.assert_allclose(np.linalg.norm(U, axis=1), 1.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# order-preservation certification


def test_sphere_passes_large_battery():
    f = make_builtin("sphere", 3)
    report = check_scaling_invariance(f, SamplingPlan(n_samples=10_000))
    assert report.passed
    assert report.violations == 0
    assert report.witnesses == []
    assert report.trials == 10_000 + 8  # structured battery: 2 per axis + 2 cross


def test_branchy_bounded_field_still_passes():
    f = make_builtin("tanh_exp", 2)
    report = check_scaling_invariance(f, SamplingPlan(n_samples=2000))
    assert report.passed, report.witnesses[:1]


def test_one_dimensional_counterexample_fails_with_exact_witness():
    f = make_builtin("footnote_1d", 1)
    report = check_scaling_invariance(f, SamplingPlan(n_samples=500))
    assert not report.passed
    assert report.violations >= 1
    w = report.witnesses[0]
    assert w["kind"] == "order_violation"
    assert w["x"] == [0.5]
    assert w["y"] == [-0.5]
    assert w["rho"] == 4.0
    assert w["f_x"] == pytest.approx(0.5)
    assert w["f_y"] == pytest.approx(0.25)
    assert w["f_rho_x"] == pytest.approx(2.0)
    assert w["f_rho_y"] == pytest.approx(4.0)


def test_certification_is_deterministic_per_seed():
    f = make_builtin("footnote_1d", 1)
    plan = SamplingPlan(seed=9, n_samples=300)
    a = jsonable(check_scaling_invariance(f, plan))
    b = jsonable(check_scaling_invariance(f, plan))
    assert json.dumps(a) == json.dumps(b)


# ---------------------------------------------------------------------------
# ray classification


def test_classify_ray_kinds_on_gallery():
    assert classify_ray(make_builtin("sphere", 2), [1.0, 0.0]).tolist() == ["strictly-increasing"]
    assert classify_ray(make_builtin("linear_x1", 2), [-1.0, 0.0]).tolist() == ["strictly-decreasing"]
    assert classify_ray(make_builtin("gauss_si", 2), [0.3, 0.4]).tolist() == ["strictly-decreasing"]
    # the cone field is identically zero along the coordinate axis
    assert classify_ray(make_builtin("piecewise_ph", 2), [0.0, 1.0]).tolist() == ["constant"]


def test_classify_ray_detects_inversion_with_witness():
    f = bind("(x_1 - 1)^2", 1)
    assert classify_ray(f, [1.0]).tolist() == ["non-monotone"]
    rep = check_decomposability(f, directions=[[1.0]])
    [witness] = [w for w in rep.witnesses if w["kind"] == "non_monotone_ray"]
    t_lo, t_hi = witness["t_pair"]
    assert 0.0 < t_lo < t_hi


def test_classify_ray_flags_nonfinite_values():
    f = bind("sqrt(x_1)", 1)
    with np.errstate(all="ignore"):
        kinds = classify_ray(f, [-1.0])
    assert kinds.tolist() == ["non-finite"]


def test_nonfinite_reference_value_gives_nonfinite_verdict_without_warning():
    f = bind("log(x_1)", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kinds = classify_ray(f, [1.0, 0.0])
    assert kinds.tolist() == ["non-finite"]


def test_classification_is_scale_invariant_for_invariant_fields():
    for name in ("sphere", "gauss_si", "linear_x1"):
        f = make_builtin(name, 2)
        for x in ([0.7, -0.2], [-1.0, 0.5]):
            base = classify_ray(f, x).tolist()
            for rho in (0.1, 10.0):
                assert classify_ray(f, np.multiply(rho, x)).tolist() == base, (name, rho)


def test_classify_ray_grid_validation():
    f = make_builtin("sphere", 2)
    with pytest.raises(ValueError):
        classify_ray(f, [1.0, 0.0], grid=[2.0, 1.0])
    with pytest.raises(ValueError):
        classify_ray(f, [1.0, 0.0], grid=[0.0, 1.0])
    with pytest.raises(ValueError):
        classify_ray(f, [1.0, 0.0], grid=[[1.0, 2.0]])


def test_default_directions_draw_the_plans_sphere_points():
    for n, seed in ((1, 0), (3, 1), (6, 7919)):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(2 * n, n))
        pts /= np.sqrt(row_sumsq(pts))[:, None]
        D = default_directions(n, seed=seed)
        np.testing.assert_array_equal(D[2 * n:].view(np.uint64),
                                      pts.view(np.uint64))


def test_default_directions_shape():
    D = default_directions(3, seed=1)
    assert D.shape == (3 + 3 + 6, 3)
    np.testing.assert_allclose(np.linalg.norm(D[6:], axis=1), 1.0, rtol=1e-12)
    np.testing.assert_array_equal(D[:3], np.eye(3))


# ---------------------------------------------------------------------------
# decomposability probe


def test_monotone_composition_is_decomposable():
    report = check_decomposability(make_builtin("sphere", 3))
    assert report.verdict == "decomposable"
    assert set(report.ray_kinds) == {"strictly-increasing"}
    assert report.witnesses == []


def test_sign_changing_field_is_decomposable():
    report = check_decomposability(make_builtin("linear_x1", 2))
    assert report.verdict == "decomposable"
    assert "strictly-increasing" in report.ray_kinds
    assert "strictly-decreasing" in report.ray_kinds


def test_decreasing_profile_is_decomposable():
    report = check_decomposability(make_builtin("gauss_si", 2))
    assert report.verdict == "decomposable"
    assert set(report.ray_kinds) == {"strictly-decreasing"}


def test_branch_jump_yields_disjoint_images():
    f = make_builtin("tanh_exp", 2)
    report = check_decomposability(f, plan=SamplingPlan(t_max=20.0))
    assert report.verdict == "not-decomposable"
    disjoint = [w for w in report.witnesses if w["kind"] == "disjoint_image"]
    assert disjoint, report.witnesses
    w = disjoint[0]
    # one branch saturates below 1, the other starts above 2: no shared level
    assert w["range_a"][1] < 1.0
    assert w["range_b"][0] > 2.0


def test_a_level_inside_a_jump_on_every_ray_is_inconclusive():
    # every ray takes the values 0, 2, 4, ... and 21, 23, ... past |x| = 10:
    # the shared level 10.5 is bracketed (the solve ends "ok") but lies
    # inside the jump from 10 to 12 at |x| = 6, so no endpoint matches it
    def jumps(X):
        r = np.sqrt(row_sumsq(X))
        return 2.0 * np.floor(r) + np.floor(r / 10.0)

    report = check_decomposability(ScalarField(2, jumps, vectorized=True))
    assert report.verdict == "inconclusive"
    assert report.witnesses == [{
        "kind": "endpoint_match_failed", "direction": [1.0, 0.0],
        "target": 10.5, "status": "ok", "residual": 0.5,
        "match_tol": 1e-8 * (1.0 + 10.5)}]


def test_order_violation_disqualifies_directly():
    report = check_decomposability(make_builtin("footnote_1d", 1))
    assert report.verdict == "not-decomposable"
    assert any(w["kind"] == "si_violation" for w in report.witnesses)


def test_single_direction_skips_image_comparison():
    report = check_decomposability(make_builtin("sphere", 2), directions=[[1.0, 0.0]])
    assert report.verdict == "decomposable"
    assert report.ray_kinds == ["strictly-increasing"]


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_probe_agrees_with_ground_truth_tags(name):
    entry = REGISTRY[name]
    n = max(2, entry.min_n)
    f = make_builtin(name, n)
    report = check_decomposability(f)
    if f.meta.decomposable:
        assert report.verdict == "decomposable", (name, report.witnesses[:1])
    else:
        assert report.verdict == "not-decomposable", name


# ---------------------------------------------------------------------------
# the witness rule


def test_row_witnesses_take_the_first_rows_in_row_order():
    mask = np.arange(40) % 2 == 1
    rows = np.arange(40)
    assert [w["row"] for w in row_witnesses(mask, "odd", row=rows)] == \
        list(range(1, 2 * MAX_WITNESSES, 2))
    assert [w["row"] for w in row_witnesses(mask, "odd", 3, row=rows)] == [1, 3, 5]
    assert row_witnesses(mask, "odd", 0, row=rows) == []
    assert row_witnesses(mask, "odd", -5, row=rows) == []
    assert row_witnesses(np.zeros(4, dtype=bool), "none", row=rows[:4]) == []


def test_row_witnesses_read_array_columns_as_builtins():
    X = np.array([[0.5, -1.0], [2.0, 3.0], [4.0, 5.0]])
    status = np.array([7, 8, 9])
    vals = np.array([0.25, np.nan, 1.5])
    out = row_witnesses(np.array([False, True, True]), "k", x=X, status=status,
                        f=vals, target=np.float64(0.75), tag="t", cap=2.5)
    assert out == [
        {"kind": "k", "x": [2.0, 3.0], "status": 8, "f": out[0]["f"],
         "target": 0.75, "tag": "t", "cap": 2.5},
        {"kind": "k", "x": [4.0, 5.0], "status": 9, "f": 1.5, "target": 0.75,
         "tag": "t", "cap": 2.5}]
    assert np.isnan(out[0]["f"])
    first = out[0]
    assert type(first["x"]) is list and type(first["x"][0]) is float
    assert type(first["status"]) is int and type(first["f"]) is float
    assert type(first["target"]) is np.float64  # not an array: copied as is
    assert list(first) == ["kind", "x", "status", "f", "target", "tag", "cap"]


def test_row_witnesses_take_per_row_kinds_and_leave_out_none():
    kinds = np.array(["a_ray", "b_ray", "c_ray"])
    pair = np.array([[0.1, 0.2], None, None], dtype=object)
    out = row_witnesses(np.ones(3, dtype=bool), kinds, pair=pair)
    assert out == [{"kind": "a_ray", "pair": [0.1, 0.2]}, {"kind": "b_ray"},
                   {"kind": "c_ray"}]
    assert all(type(w["kind"]) is str for w in out)


def test_each_ray_outcome_has_one_witness_kind():
    kinds = ray_witness_kinds(["non-monotone", "whole-ray", "constant",
                               "strictly-decreasing", "unbounded",
                               "non-finite"])
    assert kinds.tolist() == ["non_monotone_ray", "whole_ray", "constant_ray",
                              "strictly-decreasing_ray", "unbounded_ray",
                              "non_finite"]


def test_check_decomposable_keeps_direction_order_across_kinds():
    # directions with x_1 < 0 leave the domain of sqrt; the others oscillate
    f = bind("sqrt(x_1) + sin(3*x_2)", 2)
    D = np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [-0.6, 0.8]])
    rep = check_decomposability(f, directions=D)
    assert [w["kind"] for w in rep.witnesses] == [
        "si_violation", "non_monotone_ray", "non_finite", "non_monotone_ray",
        "non_finite"]
    assert [w["direction"] for w in rep.witnesses[1:]] == D.tolist()
    assert [len(w) for w in rep.witnesses[1:]] == [3, 2, 3, 2]
