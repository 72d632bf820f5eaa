"""Homogeneity identities, level-set gradient constancy, paired levels,
saddle shells, and positive-gradient neighborhood certificates."""

import math

import numpy as np
import pytest

from siphkit.decomposition import build_decomposition
from siphkit.euler import (
    DERIVATIVE_FLOOR,
    _floored_box_points,
    euler_residual,
    general_euler_residual,
    levelset_gradient_constancy,
    paired_level_solver,
    positive_gradient_region,
    saddle_levels,
)
from siphkit.exprlang import bind
from siphkit.field import GradientSpec
from siphkit.gallery import make_builtin, random_si
from siphkit.rays import SamplingPlan
from siphkit.reporting import jsonable


# ---------------------------------------------------------------------------
# degree identity alpha p = grad p . x


def test_floored_box_points_are_uniform_on_the_floored_box():
    plan = SamplingPlan(n_samples=200_000, seed=4)
    Z = _floored_box_points(plan, 3, 0.5, plan.rng())
    assert Z.shape == (200_000, 3)
    A = np.abs(Z)
    assert (A >= 0.5).all() and (A <= plan.box_radius).all()
    # magnitudes uniform on [0.5, 2], signs fair and independent of them
    np.testing.assert_allclose(np.quantile(A, [0.25, 0.5, 0.75], axis=0),
                               np.repeat([[0.875], [1.25], [1.625]], 3, axis=1),
                               atol=0.01)
    for part in (A < 1.25, A >= 1.25):
        positive = [(Z[:, i] > 0)[part[:, i]].mean() for i in range(3)]
        assert np.abs(np.array(positive) - 0.5).max() < 0.01


def test_floored_box_points_need_a_floor_inside_the_box():
    plan = SamplingPlan(n_samples=10)
    for floor in (plan.box_radius, 3.0, np.nan):
        with pytest.raises(ValueError, match="coordinate floor"):
            _floored_box_points(plan, 2, floor, plan.rng())
    # a floor at or below zero is no floor: the plain box
    Z = _floored_box_points(plan, 2, -1.0, plan.rng())
    assert Z.shape == (10, 2) and (np.abs(Z) <= plan.box_radius).all()


def test_sphere_identity_with_numerical_gradients():
    p = make_builtin("sphere", 3)
    report = euler_residual(p, 2.0, grad_spec=GradientSpec(h=1e-5, force_numerical=True))
    assert report.max_residual <= 1e-6
    assert report.grad_mode == "central-difference"
    assert report.h == 1e-5
    assert report.excluded == 0


def test_linear_identity_is_exact_with_analytic_gradients():
    p = make_builtin("linear_x1", 2)
    report = euler_residual(p, 1.0)
    assert report.max_residual <= 1e-10
    assert report.grad_mode == "analytic"


def test_cusped_field_identity_away_from_axes():
    p = make_builtin("half_norm", 2)
    report = euler_residual(p, 1.0)
    assert report.max_residual <= 1e-6
    # hand value at (1, 1): row sum 2, gradient (2, 2), product 4 equals p
    np.testing.assert_allclose(p.gradient([1.0, 1.0]), [2.0, 2.0], atol=1e-12)
    assert p.value([1.0, 1.0]) == pytest.approx(4.0, abs=1e-12)


def test_difference_residual_shrinks_quadratically():
    p = make_builtin("half_norm", 2)
    res = []
    for h in (1e-4, 5e-5):
        report = euler_residual(p, 1.0, grad_spec=GradientSpec(h=h, force_numerical=True))
        res.append(report.max_residual)
    ratio = res[0] / res[1]
    assert 2.5 <= ratio <= 6.0, ratio


def test_report_dictionary_fields():
    report = euler_residual(make_builtin("sphere", 2), 2.0)
    doc = jsonable(report)
    assert doc["alpha"] == 2.0
    assert doc["max_residual"] >= doc["mean_residual"] >= 0.0
    assert doc["n_samples"] == 1000


# ---------------------------------------------------------------------------
# generalized identity through a decomposition


def test_quadratic_profile_identity():
    f = make_builtin("sq_norm", 2)
    d = build_decomposition(f, alpha=1.0, x0=[1.0, 0.0])
    report = general_euler_residual(f, d)
    assert report.max_residual <= 1e-6


def test_gaussian_bump_identity_and_hand_value():
    f = make_builtin("gauss_si", 2)
    d = build_decomposition(f, alpha=2.0)
    report = general_euler_residual(f, d)
    assert report.max_residual <= 1e-6
    # at any unit point the product is -2 e^{-1}
    u = np.array([math.cos(0.3), math.sin(0.3)])
    dot = float(f.gradient(u) @ u)
    assert dot == pytest.approx(-2.0 * math.exp(-1.0), abs=1e-12)
    assert dot == pytest.approx(-0.7357588823428847, abs=1e-12)


def test_random_field_identity_with_numerical_everything():
    f = random_si(11, 3, eps=0.2)
    d = build_decomposition(f)
    report = general_euler_residual(f, d, grad_spec=GradientSpec(h=1e-5))
    assert report.max_residual <= 1e-4
    assert report.grad_mode == "central-difference"
    assert report.n_samples + report.excluded == 1000


def test_euler_probes_witness_samples_that_are_not_finite():
    # nan wherever x_1 < 0: those samples are excluded and witnessed
    f = bind("x_1 + x_2 + 0*sqrt(x_1)", 2)
    report = euler_residual(f, 1.0)
    assert report.excluded == 487
    assert [w["kind"] for w in report.witnesses] == ["non_finite"] * 4
    assert all(w["x"][0] < 0 for w in report.witnesses)
    g = bind("x_1^2 + x_2^2 + 0*sqrt(x_1)", 2)
    report = general_euler_residual(g, build_decomposition(g, alpha=2.0))
    assert (report.n_samples, report.excluded) == (508, 492)
    assert [w["kind"] for w in report.witnesses] == ["non_finite"] * 4
    assert euler_residual(make_builtin("sphere", 2), 2.0).witnesses == []


# ---------------------------------------------------------------------------
# constancy of grad f . z on level sets


def test_sphere_level_dots_are_constant():
    f = make_builtin("sphere", 3)
    report = levelset_gradient_constancy(f, 4.0, n_points=8)
    assert report.passed
    assert report.skipped == 0
    assert report.witnesses == []
    assert report.mean == pytest.approx(8.0, abs=1e-8)  # 2 ||z||^2 at ||z||^2 = 4
    assert report.spread <= 1e-6


def test_random_field_level_dots_are_constant():
    f = random_si(5, 4, eps=0.25)
    c = f.value([1.0, 0.0, 0.0, 0.0])
    report = levelset_gradient_constancy(f, c, n_points=24, tol=1e-4)
    assert report.passed, report.spread
    assert report.skipped == 0


def test_level_missing_every_ray_gives_failed_report():
    f = make_builtin("sphere", 2)
    report = levelset_gradient_constancy(f, -1.0, n_points=8)
    assert not report.passed
    assert report.skipped == 8
    assert math.isnan(report.spread)


# ---------------------------------------------------------------------------
# paired levels of the bump


def _second_preimage_oracle(r):
    """Independent bisection for u > 1 with u e^{-u} = r^2 e^{-r^2}."""
    target = r * r * math.exp(-r * r)
    lo, hi = 1.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(-mid) > target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(0.5 * (lo + hi))


def test_paired_levels_at_the_half_radius():
    r = 1.0 / math.sqrt(2.0)
    out = paired_level_solver(r)
    assert out.s == pytest.approx(_second_preimage_oracle(r), abs=1e-9)
    assert out.s == pytest.approx(1.3253041947515936, abs=1e-12)
    assert out.residual <= 1e-10
    assert out.shared_value == pytest.approx(0.5 * math.exp(-0.5), rel=1e-12)


@pytest.mark.parametrize("r,s", [(0.3, 1.9607703867700614),
                                 (0.5, 1.6083105988157431),
                                 (0.7, 1.3341349770771833),
                                 (0.999, 1.0010003334445687),
                                 (1e-3, 4.077561767204305)])
def test_paired_levels_keep_their_values(r, s):
    out = paired_level_solver(r)
    assert out.s == pytest.approx(s, rel=1e-13, abs=0.0)
    assert out.residual <= 1e-10


def test_a_target_at_the_peak_pairs_with_s_one():
    # r^2 e^{-r^2} rounds to e^{-1} itself: the only preimage is u = 1
    out = paired_level_solver(1.0 - 1e-12)
    assert out.s == 1.0
    assert out.residual == 0.0


def test_paired_levels_saturate_toward_the_peak():
    out = paired_level_solver(0.999)
    assert 1.0 < out.s <= 1.05


def test_paired_levels_are_monotone_in_r():
    assert paired_level_solver(0.3).s > paired_level_solver(0.7).s


def test_paired_levels_domain_validation():
    for bad in (0.0, 1.0, -0.5, 1.3253041947515936):
        with pytest.raises(ValueError):
            paired_level_solver(bad)


def test_paired_levels_reject_a_subnormal_target():
    # r^2 e^{-r^2} below the smallest normal double loses its precision
    for r in (1e-200, 1e-160, 1.49e-154):
        with pytest.raises(ValueError, match="1.492e-154"):
            paired_level_solver(r)
    out = paired_level_solver(1.5e-154)
    assert out.residual <= 1e-10 and 26.0 < out.s < 27.0


def test_paired_levels_share_the_gradient_dot_but_not_the_level():
    f = make_builtin("gauss_si", 2)
    r = 1.0 / math.sqrt(2.0)
    s = paired_level_solver(r).s
    c_r = math.exp(-r * r)
    c_s = math.exp(-s * s)
    assert abs(c_r - c_s) > 1e-3  # genuinely different level sets
    rep_r = levelset_gradient_constancy(f, c_r, n_points=24)
    rep_s = levelset_gradient_constancy(f, c_s, n_points=24)
    assert rep_r.passed and rep_s.passed
    assert rep_r.mean == pytest.approx(rep_s.mean, abs=1e-6)
    assert rep_r.mean == pytest.approx(-math.exp(-0.5), abs=1e-6)


# ---------------------------------------------------------------------------
# saddle shells


def test_saddle_shell_gradients_vanish_on_known_radii():
    f = make_builtin("saddle_si", 3)
    report = saddle_levels(f, k_max=3)
    assert report.passed
    assert report.monotone_ok
    np.testing.assert_allclose(report.radii,
                               [math.sqrt(k * math.pi) for k in (1, 2, 3)],
                               rtol=1e-12)
    assert all(v <= 1e-6 for v in report.max_grad_norms)


def test_saddle_rays_still_increase_across_shells():
    f = make_builtin("saddle_si", 2)
    r = math.sqrt(math.pi)
    lo = f.value([r - 0.1, 0.0])
    mid = f.value([r, 0.0])
    hi = f.value([r + 0.1, 0.0])
    assert lo < mid < hi


def test_saddle_verification_rejects_other_fields():
    with pytest.raises(ValueError):
        saddle_levels(make_builtin("sphere", 2))


# ---------------------------------------------------------------------------
# positive-gradient neighborhood certificates


def test_certificate_on_the_sphere_is_sharp():
    f = make_builtin("sphere", 2)
    cert = positive_gradient_region(f)
    assert cert.ok
    assert np.linalg.norm(cert.z0) == pytest.approx(1.0, abs=1e-9)
    assert cert.level == pytest.approx(1.0, abs=1e-9)
    assert cert.epsilon == pytest.approx(2.0, abs=1e-6)
    # the half-threshold forbids radii below 1/sqrt(2); doubling from 1e-4
    # stops exactly at 0.2048
    assert cert.delta == pytest.approx(0.2048, abs=1e-12)
    assert cert.stop_reason == "violation"
    assert cert.violation is not None
    assert cert.violation["dot"] < cert.epsilon / 2.0


def test_certificate_avoids_saddle_shells():
    f = make_builtin("saddle_si", 2)
    cert = positive_gradient_region(f)
    assert cert.ok
    assert np.linalg.norm(cert.z0) == pytest.approx(1.0, abs=1e-9)
    assert cert.epsilon == pytest.approx(2.0 * math.sin(1.0) ** 2, abs=1e-5)
    assert cert.delta == pytest.approx(0.1024, abs=1e-12)
    assert cert.stop_reason == "violation"
    # the certified tube stays clear of the first flat shell
    assert np.linalg.norm(cert.z0) + cert.delta < math.sqrt(math.pi)


@pytest.mark.parametrize("f", [make_builtin("sphere", 2),
                               make_builtin("saddle_si", 3),
                               random_si(2, 3, eps=0.2),
                               make_builtin("linear_x1", 2)],
                         ids=["sphere", "saddle_si", "random_si", "linear_x1"])
def test_certificate_scan_rows_are_the_one_point_derivatives(f):
    # the scan's batched field call gives the bits of one call per point,
    # and stops at the first t whose derivative passes
    cert = positive_gradient_region(f)
    plan = SamplingPlan()
    sphere = plan.sphere_points(f.n, 128, rng=plan.rng())
    s = sphere[int(np.argmin(f.values(sphere)))]
    want = []
    for t in np.linspace(1.0, 0.05, 20):
        h = 1e-4 * (1.0 + t)
        deriv = (f.value(f.x_star + (t + h) * s)
                 - f.value(f.x_star + (t - h) * s)) / (2.0 * h)
        want.append([float(t), float(deriv)])
        if np.isfinite(deriv) and deriv > DERIVATIVE_FLOOR:
            break
    assert cert.scan == want


def test_certificate_on_a_random_field():
    f = random_si(2, 3, eps=0.2)
    cert = positive_gradient_region(f)
    assert cert.ok
    assert cert.epsilon > 0
    assert cert.delta > 0
    assert cert.stop_reason in ("violation", "cap")
