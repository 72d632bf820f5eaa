"""Canonical splitting f = phi o p: construction, profiles, uniqueness, order."""

import json
import math

import numpy as np
import pytest

from siphkit import cli, decomposition
from siphkit.decomposition import (
    Decomposition,
    DecompositionError,
    ReferenceInfo,
    build_decomposition,
    order_equivalence,
    uniqueness_check,
    verify_decomposition,
)
from siphkit.exprlang import bind
from siphkit.field import DimensionMismatchError
from siphkit.gallery import compose, make_builtin, random_si
from siphkit.levelsets import _solve_level, ray_level_radius
from siphkit.rays import MAX_WITNESSES, SamplingPlan
from siphkit.rootfind import BELOW_START, OK, solve_monotone_batch

E1_2D = np.array([1.0, 0.0])


# ---------------------------------------------------------------------------
# homogeneous part recovery


def test_sq_norm_with_unit_reference_recovers_the_norm():
    f = make_builtin("sq_norm", 2)
    d = build_decomposition(f, alpha=1.0, x0=E1_2D)
    assert d.case == "one-sided"
    rng = np.random.default_rng(0)
    X = rng.uniform(-2.0, 2.0, size=(100, 2))
    np.testing.assert_allclose(d.p_values(X), np.linalg.norm(X, axis=1), atol=1e-9)
    assert d.p([0.0, 0.0]) == 0.0


def test_points_near_the_zero_level_are_solved_not_zeroed():
    # saddle_si's profile grows like u^3/3 near 0, so points with ||x|| below
    # about 0.012 have |g| < 1e-12 without being on the zero level {g = 0};
    # p must still be ||x|| there, or the homogeneity residual jumps to ~1e-2
    f = make_builtin("saddle_si", 4)
    plan = SamplingPlan(seed=1572086986, n_samples=5000)
    d = build_decomposition(f, plan=plan)
    check = verify_decomposition(f, d, plan)
    assert check.max_ph_residual <= 1e-7
    x = np.array([[0.004, -0.003, 0.0, 0.0]])
    assert d.p_values(x)[0] == pytest.approx(0.005, rel=1e-9)
    assert d.p_values(np.zeros((1, 4)))[0] == 0.0


def test_repeated_p_values_keep_no_per_point_state():
    f = make_builtin("ellipsoid", 3)
    d = build_decomposition(f)
    X = np.random.default_rng(4).uniform(-2.0, 2.0, size=(500, 3))
    attrs = set(vars(d))
    first = d.p_values(X)
    np.testing.assert_array_equal(d.p_values(X), first)
    assert set(vars(d)) == attrs
    for value in vars(d).values():
        if isinstance(value, (dict, list, set)):
            assert len(value) <= MAX_WITNESSES


def test_requested_degree_two_gives_the_squared_norm():
    f = make_builtin("sq_norm", 2)
    d = build_decomposition(f, alpha=2.0, x0=E1_2D)
    X = np.random.default_rng(1).uniform(-2.0, 2.0, size=(100, 2))
    np.testing.assert_allclose(d.p_values(X), np.sum(X * X, axis=1), atol=1e-8)


@pytest.mark.parametrize("refs", [
    {"x0": [1.0]}, {"x0": [1.0, 2.0]}, {"x0": [1.0, 0.0, 0.0, 0.0]},
    {"x1": [1.0, 0.0], "xm1": [-1.0, 0.0, 0.0]},
    {"x1": [1.0, 0.0, 0.0], "xm1": [-1.0]},
])
def test_a_reference_point_of_the_wrong_length_is_rejected(refs):
    # a length-1 point used to be broadcast to (1, 1, 1)
    with pytest.raises(DimensionMismatchError, match="vector of length 3"):
        build_decomposition(make_builtin("sq_norm", 3), **refs)


def test_sign_splitting_recovers_the_linear_coordinate():
    f = make_builtin("linear_x1", 2)
    d = build_decomposition(f, alpha=1.0, x1=[1.0, 0.0], xm1=[-1.0, 0.0])
    assert d.case == "two-sided"
    X = np.random.default_rng(2).uniform(-2.0, 2.0, size=(100, 2))
    np.testing.assert_allclose(d.p_values(X), X[:, 0], atol=1e-9)


def test_decreasing_profile_keeps_p_nonnegative():
    f = compose("exp_neg", make_builtin("sq_norm", 3))
    d = build_decomposition(f, alpha=2.0)
    assert d.case == "one-sided"
    assert d.phi_increasing is False
    X = np.random.default_rng(3).uniform(-2.0, 2.0, size=(100, 3))
    np.testing.assert_allclose(d.p_values(X), np.sum(X * X, axis=1), atol=1e-8)


def test_zero_field_decomposes_trivially():
    f = bind("0 * x_1", 2)
    d = build_decomposition(f)
    assert d.case == "zero"
    X = np.random.default_rng(4).normal(size=(50, 2))
    np.testing.assert_array_equal(d.p_values(X), np.zeros(50))
    check = verify_decomposition(f, d)
    assert check.max_composition_residual == 0.0
    assert check.max_ph_residual == 0.0


def test_auto_construction_picks_two_sided_for_sign_changing_fields():
    f = make_builtin("linear_x1", 2)
    d = build_decomposition(f)
    assert d.case == "two-sided"
    s = d.summary()
    assert s["reference_value"] > 0 > s["negative_reference_value"]
    check = verify_decomposition(f, d)
    assert check.max_composition_residual <= 1e-8
    assert check.max_ph_residual <= 1e-8


# ---------------------------------------------------------------------------
# profile and inverse


def test_profile_values_on_the_reference_ray():
    f = make_builtin("sq_norm", 2)
    d = build_decomposition(f, alpha=1.0, x0=E1_2D)
    assert d.phi(3.0) == pytest.approx(9.0, rel=1e-12)
    assert d.phi(0.0) == 0.0
    assert d.phi_increasing is True
    # the batched form mirrors the scalar one
    np.testing.assert_allclose(d.phi_values([1.0, 2.0]), [1.0, 4.0], rtol=1e-12)


def test_two_sided_profile_crosses_zero():
    f = make_builtin("linear_x1", 2)
    d = build_decomposition(f, alpha=1.0, x1=[1.0, 0.0], xm1=[-1.0, 0.0])
    assert d.phi(-2.0) == pytest.approx(-2.0, rel=1e-12)
    assert d.phi(2.0) == pytest.approx(2.0, rel=1e-12)
    assert d.phi(0.0) == 0.0


def test_one_sided_profile_rejects_negative_arguments():
    d = build_decomposition(make_builtin("sq_norm", 2), alpha=1.0, x0=E1_2D)
    with pytest.raises(ValueError):
        d.phi_values([-1.0])


def _three_branch_phi(d, T):
    """phi as one hand-built branch per case and sign, one field call each."""
    T = np.atleast_1d(np.asarray(T, dtype=float))
    inv = 1.0 / d.alpha
    if d.case == "one-sided":
        if (T < 0).any():
            raise ValueError("one-sided profile is defined for t >= 0 only")
        pts = d.field.absolute((T ** inv)[:, None] * d.positive_ref.point)
        return d.field._eval_batch(pts)
    out = np.empty(T.shape[0])
    pos = T >= 0
    if pos.any():
        pts = d.field.absolute((T[pos] ** inv)[:, None] * d.positive_ref.point)
        out[pos] = d.field._eval_batch(pts)
    if (~pos).any():
        pts = d.field.absolute(((-T[~pos]) ** inv)[:, None]
                               * d.negative_ref.point)
        out[~pos] = d.field._eval_batch(pts)
    return out


_T_SPECIAL = [0.0, -0.0, 5e-324, 1e-300, 0.3, 1.0, 2.5, 1e3, np.nan]


@pytest.mark.parametrize("field,alpha,refs", [
    (make_builtin("sq_norm", 3), 2.0, {}),
    (random_si(3, 3), 0.7, {}),
    (bind("(x_1 - 0.5)^2 + 3*(x_2 + 1)^2", 2, x_star=[0.5, -1.0]), 3.0,
     {"x0": [1.1, -0.4]}),
    (compose("exp_neg", make_builtin("sq_norm", 3)), 2.0, {}),
    (make_builtin("linear_x1", 2), 1.5, {"x1": [0.5, 1.0], "xm1": [-2.0, 0.3]}),
    (bind("(x_1 - 0.25)^3 + (x_2 - 0.5)^3", 2, x_star=[0.25, 0.5]), 0.5, {}),
], ids=["increasing", "random-si", "shifted", "decreasing", "two-sided",
        "two-sided-shifted"])
def test_phi_values_equal_the_three_branch_formula_bitwise(request, field,
                                                          alpha, refs):
    d = build_decomposition(field, alpha=alpha, **refs)
    assert d.case == ("two-sided" if "two-sided" in request.node.name
                      else "one-sided")
    rng = np.random.default_rng(8)
    T = np.concatenate([_T_SPECIAL, rng.uniform(0.0, 5.0, 200),
                        rng.uniform(0.0, 1e-6, 20)])
    if d.case == "two-sided":
        T = np.concatenate([T, -T, rng.uniform(-5.0, 5.0, 200)])
    got, want = d.phi_values(T), _three_branch_phi(d, T)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    if d.case == "one-sided":
        with pytest.raises(ValueError):
            d.phi_values([1.0, -1e-300])


def test_a_ray_that_starts_on_the_reference_level_gets_infinite_p():
    # for x_1 < 0 the ray jumps from f(0) = 0 straight above the reference
    # level tanh(0.5), so the solver returns lambda = 0
    d = build_decomposition(make_builtin("tanh_exp", 2), x0=[0.5, 0.25])
    p = d.p_values([[-1.0, 0.3], [1.0, 0.3]])
    assert p[0] == np.inf
    assert p[1] == pytest.approx(2.0, rel=1e-12)
    assert d.solver_failures == []


def _phi_inverse(d, y):
    """phi^{-1}(y) read off the reference ray of y's sign class: +-u**alpha
    for the radius u of the level y along it, and the radius's status."""
    pos = d.case == "one-sided" or y > d.field.f_star
    ref = d.positive_ref if pos else d.negative_ref
    hit = ray_level_radius(d.field, ref.point, y)
    return (1.0 if pos else -1.0) * hit.radius[0] ** d.alpha, hit.status[0]


def test_profile_inverse_round_trips():
    f = make_builtin("sq_norm", 2)
    d = build_decomposition(f, alpha=1.0, x0=E1_2D)
    assert _phi_inverse(d, 0.0) == (0.0, "ok")  # f(x_star)
    assert _phi_inverse(d, 4.0) == (pytest.approx(2.0, abs=1e-9), "ok")
    assert _phi_inverse(d, 9.0) == (pytest.approx(3.0, abs=1e-8), "ok")


def test_profile_inverse_on_slow_quadrature_profile():
    f = make_builtin("logsq_si", 2)
    for alpha in (1.0, 2.5):
        d = build_decomposition(f, alpha=alpha, x0=E1_2D)
        y = d.phi(1.5)
        hit = ray_level_radius(f, d.positive_ref.point, y)
        assert hit.status[0] == "ok"
        # the level radius u on the reference ray solves phi(u^alpha) = y
        assert d.phi(hit.radius[0] ** alpha) == pytest.approx(y, rel=1e-12)
        assert _phi_inverse(d, y) == (pytest.approx(1.5, abs=1e-7), "ok")


def test_profile_inverse_rejects_unachieved_levels():
    d = build_decomposition(make_builtin("sq_norm", 2), alpha=1.0, x0=E1_2D)
    value, status = _phi_inverse(d, -1.0)  # the field is nonnegative
    assert status == "outside-range"
    assert np.isnan(value)


def test_two_sided_profile_inverse_uses_the_matching_branch():
    f = make_builtin("linear_x1", 2)
    d = build_decomposition(f, alpha=1.0, x1=[1.0, 0.0], xm1=[-1.0, 0.0])
    assert _phi_inverse(d, 2.5) == (pytest.approx(2.5, abs=1e-9), "ok")
    assert _phi_inverse(d, -2.5) == (pytest.approx(-2.5, abs=1e-9), "ok")
    for y in (2.5, -2.5):
        assert d.phi(_phi_inverse(d, y)[0]) == pytest.approx(y, rel=1e-12)


@pytest.mark.parametrize("name,refs", [
    ("sq_norm", {"x0": E1_2D}),
    ("gauss_si", {}),
    ("linear_x1", {"x1": [1.0, 0.0], "xm1": [-1.0, 0.0]}),
])
def test_batched_profile_inverse_equals_the_one_level_solves(name, refs):
    # a level per ray, each along the reference ray of its sign class, in
    # one solve: the bits of one solve per level
    f = make_builtin(name, 2)
    d = build_decomposition(f, alpha=1.5, **refs)
    levels = np.concatenate([f.values(np.random.default_rng(3).normal(size=(12, 2))),
                             [f.f_star, f.f_star + 1.0, f.f_star - 1.0, 1e300]])
    neg = d.negative_ref or d.positive_ref
    refs = [d.positive_ref if y > f.f_star else neg for y in levels]
    P = np.array([ref.point for ref in refs])
    increasing = np.array([ref.increasing for ref in refs])
    res = _solve_level(f, P, levels, increasing)
    assert (res.status == OK).sum() >= 12
    for i, y in enumerate(levels):
        one = _solve_level(f, P[i:i + 1], y, increasing[i])
        assert res.status[i] == one.status[0]
        np.testing.assert_array_equal(res.t[i:i + 1].view(np.uint64),
                                      one.t.view(np.uint64))


def test_profile_inverse_names_the_side_phi_never_reaches():
    d = build_decomposition(make_builtin("sq_norm", 2), alpha=1.0, x0=E1_2D)
    res = _solve_level(d.field, np.array([E1_2D, E1_2D]), [-1.0, 4.0], True)
    assert res.status.tolist() == [BELOW_START, OK]
    assert _phi_inverse(d, -1.0)[1] == "outside-range"


# ---------------------------------------------------------------------------
# scaling of the recovered part


def test_homothety_scale_is_inverse_homogeneous():
    # lambda(x) = |p(x)|**(-1/alpha) scales as lambda(rho x) = lambda(x) / rho
    f = make_builtin("sq_norm", 2)
    d = build_decomposition(f, alpha=1.5, x0=E1_2D)
    rng = np.random.default_rng(5)
    X = rng.uniform(-2.0, 2.0, size=(100, 2))
    X = X[np.linalg.norm(X, axis=1) >= 1e-3]
    rho = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=len(X)))
    lam_x = np.abs(d.p_values(X)) ** (-1.0 / d.alpha)
    lam_rx = np.abs(d.p_values(rho[:, None] * X)) ** (-1.0 / d.alpha)
    np.testing.assert_allclose(lam_rx, lam_x / rho, rtol=1e-9)


def test_homothety_scale_is_nan_on_the_zero_level():
    # the ray of x_star never meets the reference level; p_values takes the
    # zero level as p = 0 without a solve
    d = build_decomposition(make_builtin("sq_norm", 2), alpha=1.0, x0=E1_2D)
    assert np.isnan(d._solve_lambdas(np.zeros((1, 2)), d.positive_ref)).all()
    assert d.p_values([[0.0, 0.0]]).tolist() == [0.0]
    assert d.solver_failures == []


def test_recovered_part_is_positively_homogeneous():
    f = random_si(7, 5, eps=0.3)
    d = build_decomposition(f)
    assert d.case == "one-sided"
    check = verify_decomposition(f, d)
    assert check.max_composition_residual <= 1e-7
    assert check.max_ph_residual <= 1e-7
    assert check.witnesses == []


def test_round_trip_residuals_in_higher_dimension():
    f = make_builtin("sphere", 10)
    d = build_decomposition(f, alpha=2.0)
    check = verify_decomposition(f, d, SamplingPlan(n_samples=1000))
    assert check.max_composition_residual <= 1e-8
    assert check.max_ph_residual <= 1e-8
    assert check.n_samples == 1000


def test_profile_is_strictly_monotone_on_a_dense_grid():
    cases = [
        (build_decomposition(make_builtin("sq_norm", 2), alpha=1.0, x0=E1_2D),
         np.linspace(0.0, 5.0, 1000), 1),
        (build_decomposition(make_builtin("linear_x1", 2), alpha=1.0,
                             x1=[1.0, 0.0], xm1=[-1.0, 0.0]),
         np.linspace(-5.0, 5.0, 1000), 1),
        (build_decomposition(compose("exp_neg", make_builtin("sq_norm", 2)),
                             alpha=2.0), np.linspace(0.0, 5.0, 1000), -1),
    ]
    for d, grid, direction in cases:
        vals = d.phi_values(grid)
        assert (direction * np.diff(vals) > 0).all()


# ---------------------------------------------------------------------------
# uniqueness up to a constant


def test_two_references_differ_by_a_constant_factor():
    f = make_builtin("sq_norm", 2)
    d1 = build_decomposition(f, alpha=1.0, x0=[1.0, 0.0])
    d2 = build_decomposition(f, alpha=1.0, x0=[2.0, 0.0])
    report = uniqueness_check(f, d1, d2)
    assert report.passed
    cls = report.classes["all"]
    assert cls["ratio"] == pytest.approx(2.0, abs=1e-8)
    assert cls["cv"] <= 1e-8


def test_rotationally_symmetric_field_gives_ratio_one():
    f = make_builtin("sphere", 3)
    rng = np.random.default_rng(6)
    u1, u2 = rng.normal(size=(2, 3))
    u1 /= np.linalg.norm(u1)
    u2 /= np.linalg.norm(u2)
    d1 = build_decomposition(f, alpha=2.0, x0=u1)
    d2 = build_decomposition(f, alpha=2.0, x0=u2)
    report = uniqueness_check(f, d1, d2)
    assert report.passed
    assert report.classes["all"]["ratio"] == pytest.approx(1.0, abs=1e-8)


def test_two_sided_uniqueness_is_per_sign_class():
    f = make_builtin("linear_x1", 2)
    d1 = build_decomposition(f, alpha=1.0, x1=[1.0, 0.0], xm1=[-1.0, 0.0])
    d2 = build_decomposition(f, alpha=1.0, x1=[2.0, 0.0], xm1=[-3.0, 0.0])
    report = uniqueness_check(f, d1, d2)
    assert report.passed
    assert report.classes["positive"]["ratio"] == pytest.approx(2.0, abs=1e-8)
    assert report.classes["negative"]["ratio"] == pytest.approx(3.0, abs=1e-8)


def test_a_class_with_no_comparable_rows_fails_uniqueness():
    # d2's reference level lies above every ray's saturation: p2 is nan
    f = bind("tanh(norm(x))", 2)
    d1 = build_decomposition(f, alpha=1.0, x0=[1.0, 0.0])
    ref = ReferenceInfo(point=np.array([1.0, 0.0]), value=2.0, increasing=True)
    d2 = Decomposition(f, 1.0, "one-sided", positive_ref=ref)
    report = uniqueness_check(f, d1, d2, SamplingPlan(n_samples=50))
    assert not report.passed
    cls = report.classes["all"]
    assert cls["count"] == 0
    assert math.isnan(cls["ratio"]) and math.isnan(cls["cv"])


@pytest.mark.parametrize("hints", [
    {"x0": [1e200, 1.0]}, {"x0": [np.nan, 1.0]}, {"x0": [np.inf, 1.0]},
    {"x1": [1.0, 0.0], "xm1": [np.nan, 0.0]},
], ids=["overflow", "nan", "inf", "xm1"])
def test_a_reference_with_a_non_finite_value_is_rejected(hints):
    f = make_builtin("sphere", 2) if "x0" in hints else make_builtin("linear_x1", 2)
    with pytest.raises(DecompositionError, match="not finite"):
        build_decomposition(f, **hints)


def test_uniqueness_requires_matching_degrees():
    f = make_builtin("sq_norm", 2)
    d1 = build_decomposition(f, alpha=1.0, x0=E1_2D)
    d2 = build_decomposition(f, alpha=2.0, x0=E1_2D)
    with pytest.raises(ValueError):
        uniqueness_check(f, d1, d2)


# ---------------------------------------------------------------------------
# order equivalence


def test_field_and_recovered_part_sort_points_identically():
    f = make_builtin("sq_norm", 2)
    d = build_decomposition(f, alpha=2.0, x0=E1_2D)
    report = order_equivalence(f, d.p_field(), SamplingPlan(n_samples=10_000))
    assert report.passed
    assert report.disagreements == 0


def test_unrelated_fields_disagree_with_witness():
    f = make_builtin("sq_norm", 2)
    g = make_builtin("linear_x1", 2)
    report = order_equivalence(f, g)
    assert not report.passed
    w = report.witnesses[0]
    assert w["kind"] == "order_disagreement"
    assert w["x"] == [0.0, 1.0]
    assert w["y"] == [0.5, 0.0]


def test_pairs_with_a_nan_value_count_against_order_equivalence():
    # log(x_1 + 1) is nan for x_1 < -1 and orders every other pair like x_1;
    # the trichotomy alone reads a nan value as "above", which would pass
    # about half of the nan pairs as agreements
    f = bind("log(x_1 + 1)", 2)
    p = bind("x_1", 2)
    plan = SamplingPlan(seed=3, n_samples=20_000)
    rng = plan.rng()  # the structured pairs, then X and Y as the probe draws
    x1 = np.concatenate([[1.0, 0.0], plan.box_points(2, rng=rng)[:, 0]])
    y1 = np.concatenate([[0.0, 0.5], plan.box_points(2, rng=rng)[:, 0]])
    nan_pairs = int(((x1 < -1) | (y1 < -1)).sum())
    assert nan_pairs == 8860
    report = order_equivalence(f, p, plan)
    assert not report.passed
    assert report.disagreements == nan_pairs
    assert len(report.witnesses) == MAX_WITNESSES
    for w in report.witnesses:
        assert w["kind"] == "non_finite"
        assert w["x"][0] < -1 or w["y"][0] < -1


def test_order_equivalence_lists_nan_pairs_before_disagreements():
    f = bind("log(x_1 + 1)", 2)
    g = bind("-x_1", 2)
    report = order_equivalence(f, g, SamplingPlan(n_samples=200))
    kinds = [w["kind"] for w in report.witnesses]
    assert kinds == sorted(kinds)  # "non_finite" < "order_disagreement"
    assert kinds.count("non_finite") == kinds.count("order_disagreement") \
        == MAX_WITNESSES
    assert report.disagreements == report.trials


def test_decreasing_profile_order_representative_is_negated():
    f = make_builtin("gauss_si", 2)
    d = build_decomposition(f, alpha=1.0)
    neg_norm = bind("-norm(x)", 2)
    report = order_equivalence(f, d.order_field())
    assert report.passed
    report2 = order_equivalence(f, neg_norm)
    assert report2.passed
    # while the raw p itself sorts the other way
    report3 = order_equivalence(f, d.p_field())
    assert not report3.passed


# ---------------------------------------------------------------------------
# ray grids


# (reference hints, classify_ray calls): the searched build classifies the
# default directions in one call, then each reference ray
@pytest.mark.parametrize("hints,calls", [
    ({}, 3),
    ({"x0": [1.0, 0.5]}, 1),
    ({"x1": [1.0, 0.0], "xm1": [-1.0, 0.0]}, 2),
], ids=["searched", "one-sided", "two-sided"])
def test_every_ray_of_one_build_is_classified_on_the_plans_grid(monkeypatch,
                                                                  hints, calls):
    grids = []
    classify = decomposition.classify_ray

    def spy(field, x, grid=None):
        grids.append(grid)
        return classify(field, x, grid=grid)

    monkeypatch.setattr(decomposition, "classify_ray", spy)
    plan = SamplingPlan(seed=2, t_max=3.0, grid_points=7)
    build_decomposition(make_builtin("linear_x1", 2), plan=plan, **hints)
    assert len(grids) == calls
    for grid in grids:
        np.testing.assert_array_equal(grid, plan.t_grid())


# ---------------------------------------------------------------------------
# failure modes


def test_two_sided_hints_require_both_points():
    f = make_builtin("linear_x1", 2)
    with pytest.raises(ValueError):
        build_decomposition(f, x1=[1.0, 0.0])


def test_two_sided_hints_require_correct_signs():
    f = make_builtin("linear_x1", 2)
    with pytest.raises(DecompositionError):
        build_decomposition(f, x1=[-1.0, 0.0], xm1=[1.0, 0.0])


def test_reference_on_the_zero_level_is_rejected():
    f = make_builtin("sq_norm", 2)
    with pytest.raises(DecompositionError):
        build_decomposition(f, x0=[0.0, 0.0])


def test_degree_must_be_positive():
    f = make_builtin("sq_norm", 2)
    with pytest.raises(ValueError):
        build_decomposition(f, alpha=0.0, x0=E1_2D)


def test_non_monotone_rays_block_construction():
    f = bind("(x_1 - 1)^2", 1)
    with pytest.raises(DecompositionError):
        build_decomposition(f)


def test_unreachable_reference_level_is_witnessed():
    # a reference value above the ray's saturation limit cannot be matched;
    # the solver reports the unbounded bracket and p degrades to nan
    f = bind("tanh(norm(x))", 2)
    ref = ReferenceInfo(point=np.array([1.0, 0.0]), value=2.0, increasing=True)
    d = Decomposition(f, 1.0, "one-sided", positive_ref=ref)
    p = d.p_values(np.array([[0.5, 0.5]]))
    assert np.isnan(p[0])
    assert d.solver_failures
    assert d.solver_failures[0]["kind"] == "unbounded_ray"
    check = verify_decomposition(f, d)
    assert any(w["kind"] == "unbounded_ray" for w in check.witnesses)


def test_solver_failures_do_not_carry_over_between_calls():
    # the unreachable reference level fails every row of p; a point on the
    # zero level needs no solve and so records no failure
    f = bind("tanh(norm(x))", 2)
    ref = ReferenceInfo(point=np.array([1.0, 0.0]), value=2.0, increasing=True)
    fresh = verify_decomposition(
        f, Decomposition(f, 1.0, "one-sided", positive_ref=ref)).witnesses
    d = Decomposition(f, 1.0, "one-sided", positive_ref=ref)
    d.p_values(np.array([[3.0, -4.0]]))
    assert d.solver_failures == [{"kind": "unbounded_ray", "point": [3.0, -4.0]}]
    assert verify_decomposition(f, d).witnesses == fresh
    d.p_values(np.zeros((1, 2)))
    assert d.solver_failures == []


# ---------------------------------------------------------------------------
# the certified p(rho z) and the reused p(X)


def _record_p_values(monkeypatch, d):
    """Record (X, p) for each block of rows d solves p over, in d.p_blocks;
    a d.p_values call is one block."""
    calls = []
    orig = d.p_blocks

    def recorded(count, blocks):
        for (key, X), p, f in orig(count, blocks):
            calls.append((np.array(X), p))
            yield (key, X), p, f
    monkeypatch.setattr(d, "p_blocks", recorded)
    return calls


def _record_scaled_p(monkeypatch, d):
    """Record (Z, guess, certify, p, points, solves) for each d._scaled_p
    call: the field points it evaluated outside root solves, and the rows
    of each root solve it ran."""
    calls, points, solves = [], [0], []
    eval_batch = d.field._eval_batch
    solve = decomposition.solve_monotone_batch

    def counted_eval(X):
        points[0] += len(X)
        return eval_batch(X)

    def counted_solve(profile, targets, *args, **kwargs):
        solves.append(len(targets))
        outside = points[0]
        try:
            return solve(profile, targets, *args, **kwargs)
        finally:
            points[0] = outside

    def scaled_p(Z, guess, certify):
        points[0] = 0
        solves.clear()
        p = Decomposition._scaled_p(d, Z, guess, certify)
        calls.append((Z, guess, certify, p, points[0], list(solves)))
        return p
    monkeypatch.setattr(d.field, "_eval_batch", counted_eval)
    monkeypatch.setattr(decomposition, "solve_monotone_batch", counted_solve)
    monkeypatch.setattr(d, "_scaled_p", scaled_p)
    return calls


@pytest.mark.parametrize("field", [
    make_builtin("gauss_si", 4), make_builtin("ellipsoid", 5), random_si(3, 3),
], ids=["gauss_si", "ellipsoid", "random_si"])
def test_seeded_homogeneity_solve_matches_the_cold_one(monkeypatch, field):
    plan = SamplingPlan(seed=11, n_samples=1500)
    d = build_decomposition(field, plan=plan)
    calls = _record_p_values(monkeypatch, d)
    judged = _record_scaled_p(monkeypatch, d)
    check = verify_decomposition(field, d, plan)
    # one pass: p(X) is solved once, and every p(rho z) is judged from it
    [(X, p_x)] = calls
    assert check.p_samples.tobytes() == p_x.tobytes()
    [(Z, expected, certify, p_scaled, points, solves)] = judged
    assert certify and (np.isfinite(expected) & (expected != 0)).all()
    # every row certified: its class point g(rho z) and the two ends of its
    # bracket, and no root solve
    assert solves == [] and points == 3 * len(Z)
    # truly cold solves of p(rho z), with no guess and no table
    monkeypatch.setattr(decomposition, "TABLE_MIN_ROWS", np.inf)
    cold = Decomposition.p_values(d, field.absolute(Z))
    scale = np.maximum(np.abs(cold), np.finfo(float).tiny)
    assert (np.abs(p_scaled - cold) <= 1e-13 * scale).all()
    assert check.max_ph_residual <= 1e-13


def test_a_ph_tol_below_the_bracket_bound_takes_the_seeded_solve(monkeypatch):
    field = make_builtin("ellipsoid", 3)
    plan = SamplingPlan(seed=5, n_samples=600)
    d = build_decomposition(field, plan=plan, alpha=2.0)
    bound = (1.0 - decomposition.GUESS_BAND) ** -2.0 - 1.0  # about 2e-9
    judged = _record_scaled_p(monkeypatch, d)
    check = verify_decomposition(field, d, plan, ph_tol=0.5 * bound)
    [(Z, expected, certify, p_scaled, points, solves)] = judged
    # one sign class: one seeded solve of every row, after the class points
    assert not certify and solves == [len(Z)] and points == len(Z)
    seeded = _seeded_p(d, field.absolute(Z), expected)
    assert p_scaled.tobytes() == seeded.tobytes()
    assert check.max_ph_residual <= 1e-13 and check.witnesses == []
    # a ph_tol at the bound certifies
    verify_decomposition(field, d, plan, ph_tol=bound)
    assert judged[-1][2]


def _seeded_p(d, X, guess):
    """p from a root solve of each row of X on its own ray, seeded by the
    bracket lambda-hat (1 -+ GUESS_BAND) of its guess, lambda-hat =
    |guess|**(-1/alpha), with no table."""
    Z = X - d.field.x_star
    g = d.field.shifted_values(Z)
    band = decomposition.GUESS_BAND
    with np.errstate(divide="ignore", over="ignore"):
        lam_hat = np.abs(guess) ** (-1.0 / d.alpha)
    p = np.where(np.isnan(g), np.nan, 0.0)
    for ref, sign, cls in d._classes(g):
        res = solve_monotone_batch(
            lambda t: d.field.ray_values(t, Z[cls]),
            np.full(np.count_nonzero(cls), ref.value), ref.increasing,
            bracket=(lam_hat[cls] * (1.0 - band), lam_hat[cls] * (1.0 + band)))
        lam = np.where(res.status == OK, res.t, np.nan)
        with np.errstate(divide="ignore"):
            p[cls] = sign * (1.0 / lam) ** d.alpha
    return p


def _two_pass_verify(field, d, plan):
    """verify_decomposition as two passes over the whole sample: p(X), then
    every p(rho z) root-solved from the guess rho^alpha p(z)."""
    rng = plan.rng()
    X = field.absolute(plan.box_points(field.n, rng=rng))
    rho = plan.rhos(rng=rng)
    p = d.p_values(X)
    witnesses = list(d.solver_failures)
    with np.errstate(invalid="ignore"):
        comp = np.abs(field.values(X) - d.phi_values(p))
    expected = rho ** d.alpha * p
    p_scaled = _seeded_p(d, field.absolute(rho[:, None] * (X - field.x_star)),
                         expected)
    with np.errstate(invalid="ignore"):
        ph = np.abs(p_scaled - expected) / (1.0 + np.abs(expected))
    witnesses += [{"kind": "non_finite", "point": x.tolist()}
                  for x in X[np.isnan(comp)][:4]]
    ok = p != 0
    comp_max = float(comp[ok & ~np.isnan(comp)].max())
    ph_max = float(ph[ok & ~np.isnan(ph)].max())
    if not (comp_max <= 1e-7 and ph_max <= 1e-7):
        witnesses.append({"kind": "residual_exceeded"})
    return comp_max, ph_max, witnesses


def test_rho_z_rows_of_the_other_sign_class_are_judged_as_the_seeded_solve(
        monkeypatch):
    # g = x_1 (|x| - 1) changes sign along each ray at |x| = 1, so rho z and
    # z fall in different sign classes when rho moves the row across the
    # unit circle; build_decomposition rejects such rays
    f = bind("x_1*(norm(x)-1)", 2)
    pos, neg = (ReferenceInfo(point=np.array([x, 0.0]), value=f.shifted([x, 0.0]),
                              increasing=x > 0) for x in (2.0, -2.0))
    d, ref = (Decomposition(f, 1.0, "two-sided", positive_ref=pos,
                            negative_ref=neg) for _ in range(2))
    plan = SamplingPlan(seed=3, n_samples=2000)
    judged = _record_scaled_p(monkeypatch, d)
    check = verify_decomposition(f, d, plan)
    [(Z, expected, certify, p_scaled, _, solves)] = judged
    live = np.isfinite(expected) & (expected != 0)
    switched = live & (np.sign(f.shifted_values(Z)) == -np.sign(expected))
    assert certify and switched.sum() >= 100 and solves
    comp, ph, witnesses = _two_pass_verify(f, ref, plan)
    assert check.max_composition_residual == comp
    assert round(comp, 4) == 0.3596
    assert (check.max_ph_residual <= 1e-7) == (ph <= 1e-7)
    kinds = [w["kind"] for w in check.witnesses]
    assert kinds == [w["kind"] for w in witnesses]
    assert "unbounded_ray" in kinds and kinds[-1] == "residual_exceeded"
    assert check.witnesses[:-1] == witnesses[:-1]


def test_a_guess_only_seeds_the_solve(monkeypatch):
    # wrong guesses fall back to the cold solve with no table; zero, nan
    # and infinite ones are not solved
    f = make_builtin("gauss_si", 3)
    d = build_decomposition(f)
    Z = SamplingPlan(seed=5, n_samples=40).box_points(3)
    cold = _cold_p(d, f.absolute(Z), d.positive_ref)
    judged = _record_scaled_p(monkeypatch, d)
    for certify in (True, False):
        for guess in (2.0 * cold, 0.5 * cold):
            assert d._scaled_p(Z, guess, certify).tobytes() == cold.tobytes()
            assert judged[-1][5]  # a root solve ran
        for guess in (np.zeros(40), np.full(40, np.nan), np.full(40, np.inf)):
            p = d._scaled_p(Z, guess, certify)
            assert p.tobytes() == np.zeros(40).tobytes()
            assert judged[-1][4:] == (0, [])  # no field point, no root solve
        np.testing.assert_allclose(d._scaled_p(Z, cold, certify), cold,
                                   rtol=1e-13)


def test_a_field_that_is_not_si_still_fails_on_composition(capsys):
    code = cli.main(["decompose", "--expr", "x_1^2 + x_2^4", "--n", "2",
                     "--N", "2000", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["verdict"] == "fail"
    # the same value as with the cold solve: p(x) is solved as before
    assert doc["metrics"]["max_composition_residual"] == 20.459028167777888
    assert doc["metrics"]["max_ph_residual"] <= 1e-7
    (witness,) = doc["witnesses"]
    assert witness["kind"] == "residual_exceeded"


# ---------------------------------------------------------------------------
# the table of g along the reference ray, which seeds the cold p(X) solve


def _cold_p(d, X, ref):
    """p from a bracket-less root solve of each row of X on its own ray
    (one-sided)."""
    Z = X - d.field.x_star
    res = solve_monotone_batch(lambda t: d.field.ray_values(t, Z),
                               np.full(len(Z), ref.value), ref.increasing)
    lam = np.where(res.status == OK, res.t, np.nan)
    return (1.0 / lam) ** d.alpha


def _table_straddles(d, X, ref):
    """Rows whose table bracket straddles the reference level."""
    lam = 1.0 / d._table_scales(ref, d.field.shifted_values(X - d.field.x_star))
    Z = X - d.field.x_star
    ends = [d.field.ray_values(lam * (1.0 + e * decomposition.TABLE_BAND), Z)
            - ref.value for e in (-1.0, 1.0)]
    if not ref.increasing:
        ends = [-ends[1], -ends[0]]
    return (ends[0] < 0) & (ends[1] >= 0)


def test_rows_outside_the_table_are_solved_cold():
    # gauss_si saturates at g = -1: levels past the table's run, and those
    # that round to -1, get no table bracket; the run still serves the rest
    f = make_builtin("gauss_si", 2)
    d = build_decomposition(f)
    X = SamplingPlan(seed=3, n_samples=400, box_radius=6.0).box_points(2)
    outside = np.isnan(d._table_scales(d.positive_ref, f.shifted_values(X)))
    assert (f.shifted_values(X[outside]) < -1.0 + 1e-9).all()
    assert 40 <= outside.sum() <= 200
    p = d.p_values(X)
    assert p[outside].tobytes() == _cold_p(d, X[outside], d.positive_ref).tobytes()
    inside = ~outside
    np.testing.assert_allclose(p[inside], _cold_p(d, X[inside], d.positive_ref),
                               rtol=1e-13)


def test_rows_in_a_non_monotone_stretch_are_solved_cold():
    # g = r + sin(3 r) / 2 in r = |x| rises to r = 0.77, falls to r = 1.33
    # and rises again: the table's run stops at the first turn
    f = bind("norm(x) + 0.5 * sin(3 * norm(x))", 2)
    x0 = np.array([0.3, 0.4])
    ref = ReferenceInfo(point=x0, value=f.shifted(x0), increasing=True)
    d = Decomposition(f, 1.0, "one-sided", positive_ref=ref)
    X = SamplingPlan(seed=2, n_samples=400, box_radius=1.5).box_points(2)
    r = np.linalg.norm(X, axis=1)
    stretch = r > 0.77
    assert 100 <= stretch.sum() <= 350 and (r < 0.7).sum() >= 20
    # levels above the turn's, at r > 1.63, are past the table's run
    outside = np.isnan(d._table_scales(ref, f.shifted_values(X)))
    assert 20 <= outside.sum() and (r[outside] > 1.63).all()
    p = d.p_values(X)
    assert p[stretch].tobytes() == _cold_p(d, X[stretch], ref).tobytes()
    # before the turn the table holds: g(s x0) = g(z) at s = |z| / |x0|
    run = r < 0.7
    np.testing.assert_allclose(p[run], 2.0 * r[run], rtol=1e-13)


def test_rows_of_a_field_that_is_not_si_are_solved_on_their_own_rays():
    f = bind("x_1^2 + x_2^4", 2)
    d = build_decomposition(f)
    X = SamplingPlan(seed=9, n_samples=2000).box_points(2)
    ref = d.positive_ref
    seeded = _table_straddles(d, X, ref)
    # a bracket straddles only where the ray happens to meet the level there
    assert seeded.sum() <= 0.05 * len(X)
    p = d.p_values(X)
    cold = _cold_p(d, X, ref)
    assert p[~seeded].tobytes() == cold[~seeded].tobytes()
    np.testing.assert_allclose(p[seeded], cold[seeded], rtol=1e-13)


def test_a_table_grown_by_another_call_gives_the_same_bits():
    f = make_builtin("ellipsoid", 4)
    d, fresh = build_decomposition(f), build_decomposition(f)
    X = SamplingPlan(seed=13, n_samples=300).box_points(4)
    seeded = d.p_values(X)
    # a table fitted to the levels of fewer rows, over fewer octaves, then
    # grown to all of them
    low = seeded < np.quantile(seeded, 0.3)
    assert low.sum() >= decomposition.TABLE_MIN_ROWS
    assert fresh.p_values(X[low]).tobytes() == seeded[low].tobytes()
    assert fresh.p_values(X).tobytes() == seeded.tobytes()
    assert d.p_values(X[low]).tobytes() == seeded[low].tobytes()
    # small batches are solved without a table, as before
    small = X[:decomposition.TABLE_MIN_ROWS - 1]
    assert d.p_values(small).tobytes() == _cold_p(d, small, d.positive_ref).tobytes()


def _p_by_find_root(d, X, p):
    """p from scipy's elementwise Chandrupatla on a bracket around each
    row's lambda = |p|**(-1/alpha), run to its default tolerance on the
    root (4 eps relative) and no tolerance on the residual."""
    from scipy.optimize.elementwise import find_root

    Z = X - d.field.x_star
    out = np.full(p.shape, np.nan)
    for ref, sign in ((d.positive_ref, 1.0), (d.negative_ref, -1.0)):
        if ref is None:
            continue
        rows = np.flatnonzero(np.isfinite(p) & (p != 0)
                              & ((d.case == "one-sided") | (sign * p > 0)))
        lam = np.abs(p[rows]) ** (-1.0 / d.alpha)

        def fun(t, i):
            return d.field.ray_values(t, Z[i]) - ref.value

        res = find_root(fun, (0.5 * lam, 2.0 * lam), args=(rows,),
                        tolerances=dict(fatol=0.0, frtol=0.0))
        assert res.success.all()
        out[rows] = sign * (1.0 / res.x) ** d.alpha
    return out


@pytest.mark.parametrize("field,box", [
    (make_builtin("ellipsoid", 5), 2.0), (random_si(3, 3), 2.0),
    (make_builtin("gauss_si", 3), 4.0), (make_builtin("saddle_si", 4), 2.0),
    (make_builtin("linear_x1", 3), 2.0),
], ids=["ellipsoid", "random_si", "gauss_si_tail", "saddle_si", "linear_x1"])
def test_table_seeded_p_agrees_with_scipys_root_finder(field, box):
    d = build_decomposition(field)
    X = field.absolute(SamplingPlan(seed=17, n_samples=600,
                                    box_radius=box).box_points(field.n))
    p = d.p_values(X)
    assert np.isfinite(p).all()
    assert d.case == ("two-sided" if field.meta.name == "linear_x1"
                      else "one-sided")
    oracle = _p_by_find_root(d, X, p)
    solved = p != 0
    np.testing.assert_allclose(p[solved], oracle[solved], rtol=1e-13, atol=0)


@pytest.mark.parametrize("field", [make_builtin("ellipsoid", 5), random_si(3, 3)],
                         ids=["ellipsoid", "random_si"])
def test_the_table_keeps_the_cold_solve_near_five_evaluations(monkeypatch,
                                                              field):
    d = build_decomposition(field)
    X = field.absolute(SamplingPlan(seed=19, n_samples=2000).box_points(field.n))
    live = []
    solve = decomposition.solve_monotone_batch

    def counted(profile, *args, **kwargs):
        def prof(t):
            live.append(int(np.count_nonzero(~np.isnan(t))))
            return profile(t)
        return solve(prof, *args, **kwargs)
    monkeypatch.setattr(decomposition, "solve_monotone_batch", counted)
    d.p_values(X)
    # about 9 without the table (test_seeded_homogeneity_solve_matches_...)
    assert sum(live) <= 5.5 * len(X)


def test_a_field_that_is_not_si_still_fails_uniqueness(capsys):
    # p2 comes from its own table on d2's reference ray; the ratio p1/p2
    # must still vary over the samples
    code = cli.main(["decompose", "--expr", "x_1^2 + x_2^4", "--n", "2",
                     "--N", "2000", "--x0-alt=0.3,0.9", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["verdict"] == "fail"
    uq = doc["metrics"]["uniqueness"]
    assert not uq["passed"] and uq["classes"]["all"]["count"] == 2000
    assert uq["classes"]["all"]["cv"] > 1e3 * decomposition.UNIQUENESS_CV_TOL
    assert "uniqueness_violation" in [w["kind"] for w in doc["witnesses"]]


@pytest.mark.parametrize("field,refs,alt", [
    (make_builtin("gauss_si", 4), {"x0": [0.3, -0.7, 0.5, 0.2]},
     {"x0": [1.0, 0.2, -0.4, 0.1]}),
    (make_builtin("linear_x1", 3), {"x1": [1.0, 0.5, 0.0], "xm1": [-1.0, 0.0, 0.2]},
     {"x1": [2.0, 0.0, 0.0], "xm1": [-3.0, 0.1, 0.0]}),
    (make_builtin("ellipsoid", 5), {}, {"x0": [0.0, 0.0, 1.0, 0.5, 0.0]}),
], ids=["one-sided", "two-sided", "searched"])
def test_uniqueness_reuses_the_verified_p_bitwise(field, refs, alt):
    plan = SamplingPlan(seed=23, n_samples=800)
    d1 = build_decomposition(field, plan=plan, **refs)
    d2 = build_decomposition(field, plan=plan, **alt)
    check = verify_decomposition(field, d1, plan)
    own = uniqueness_check(field, d1, d2, plan)
    reused = uniqueness_check(field, d1, d2, plan, p1=check.p_samples)
    assert own.classes and reused.classes == own.classes
    assert reused.passed == own.passed


def test_verify_and_uniqueness_draw_the_same_points_first(monkeypatch):
    # the reuse above is sound only while both draw X first from plan.rng()
    f = make_builtin("ellipsoid", 3)
    plan = SamplingPlan(seed=29, n_samples=300)
    d1 = build_decomposition(f, plan=plan)
    d2 = build_decomposition(f, plan=plan, x0=[0.0, 1.0, 0.0])
    seen1 = _record_p_values(monkeypatch, d1)
    seen2 = _record_p_values(monkeypatch, d2)
    check = verify_decomposition(f, d1, plan)
    uniqueness_check(f, d1, d2, plan, p1=check.p_samples)
    assert len(seen1) == 1 and len(seen2) == 1  # p1 is not solved again
    assert seen2[0][0].tobytes() == seen1[0][0].tobytes()


def test_uniqueness_lists_the_rows_each_build_it_solves_cannot_solve():
    # f(2, 0) is about 2.96; rays with x_1 < 0 saturate near 1 below it
    f = bind("tanh(x_1^2 + x_2^2) * (2 + tanh(x_1))", 2)
    plan = SamplingPlan(n_samples=50)
    near = build_decomposition(f, plan=plan, x0=[0.5, 0.0])
    far = build_decomposition(f, plan=plan, x0=[2.0, 0.0])
    # p1 solved here: d1's failures first, untagged
    *failures, last = uniqueness_check(f, far, near, plan).witnesses
    assert failures == far.solver_failures != [] == near.solver_failures
    assert last["kind"] == "uniqueness_violation"
    # p1 given: d2's failures alone, tagged
    p1 = verify_decomposition(f, near, plan).p_samples
    report = uniqueness_check(f, near, far, plan, p1=p1)
    *failures, last = report.witnesses
    assert failures == [{**w, "which": "alternate"} for w in far.solver_failures]
    assert last["kind"] == "uniqueness_violation" and not report.passed


def test_uniqueness_rejects_a_p1_of_the_wrong_length():
    f = make_builtin("sq_norm", 2)
    d1 = build_decomposition(f, x0=E1_2D)
    d2 = build_decomposition(f, x0=[2.0, 0.0])
    with pytest.raises(ValueError, match="p1"):
        uniqueness_check(f, d1, d2, SamplingPlan(n_samples=10), p1=np.ones(9))
