"""Tests for the scalar-field core: evaluation, gradients, ray sections."""

import numpy as np
import pytest

from siphkit.field import (DimensionMismatchError, FieldMeta, GradientSpec,
                           ScalarField, ray_section)
from siphkit.gallery import make_builtin


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_sphere():
    f = make_builtin("sphere", 2)
    assert f.value((3.0, 4.0)) == 25.0


def test_evaluate_half_norm():
    f = make_builtin("half_norm", 2)
    assert f.value((1.0, 1.0)) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("name", ["sphere", "norm", "half_norm", "linear_x1",
                                  "gauss_si", "saddle_si", "tanh_exp"])
def test_value_at_reference(name):
    f = make_builtin(name, 3)
    expected = 1.0 if name == "gauss_si" else 0.0
    assert f.value(f.x_star) == pytest.approx(expected, abs=1e-15)


def test_evaluate_dimension_mismatch():
    f = make_builtin("sphere", 2)
    with pytest.raises(DimensionMismatchError):
        f.value((1.0, 2.0, 3.0))
    with pytest.raises(DimensionMismatchError):
        f.values(np.ones((4, 3)))


def test_values_batch_matches_scalar():
    f = make_builtin("half_norm", 3)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 3))
    batch = f.values(X)
    singles = np.array([f.value(row) for row in X])
    np.testing.assert_array_equal(batch, singles)


def test_evaluation_is_deterministic():
    f = make_builtin("gauss_si", 4)
    x = np.array([0.3, -1.2, 0.7, 2.5])
    assert f.value(x) == f.value(x)


def test_call_dispatches_on_ndim():
    f = make_builtin("sphere", 2)
    assert f(np.array([3.0, 4.0])) == 25.0
    out = f(np.array([[3.0, 4.0], [0.0, 1.0]]))
    np.testing.assert_allclose(out, [25.0, 1.0])


def test_non_vectorized_evaluator():
    f = ScalarField(2, lambda x: float(x[0]) ** 2 + float(x[1]))
    np.testing.assert_allclose(f.values([[2.0, 1.0], [3.0, 0.0]]), [5.0, 9.0])


def test_shifted_values_vanish_at_origin():
    f = ScalarField(2, lambda X: np.sum(X * X, axis=-1) + 7.0,
                    x_star=(1.0, -2.0), vectorized=True)
    assert f.f_star == pytest.approx(12.0)
    assert f.shifted(np.zeros(2)) == 0.0
    assert f.shifted((1.0, 0.0)) == pytest.approx(f.value((2.0, -2.0)) - 12.0)


# ---------------------------------------------------------------------------
# gradients


def test_gradient_sphere_analytic():
    f = make_builtin("sphere", 2)
    np.testing.assert_allclose(f.gradient((1.0, 2.0)), [2.0, 4.0], atol=1e-8)


def test_gradient_linear():
    f = make_builtin("linear_x1", 4)
    g = f.gradient((1.0, 0.0, 0.0, 0.0))
    np.testing.assert_allclose(g, [1.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_gradient_gauss_at_reference():
    f = make_builtin("gauss_si", 3)
    np.testing.assert_allclose(f.gradient(np.zeros(3)), np.zeros(3), atol=1e-8)
    spec = GradientSpec(force_numerical=True)
    np.testing.assert_allclose(f.gradient(np.zeros(3), spec), np.zeros(3),
                               atol=1e-8)


def test_gradient_numerical_matches_analytic():
    f = make_builtin("gauss_si", 3)
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 3))
    exact = f.gradient_values(X)
    approx = f.gradient_values(X, GradientSpec(h=1e-6, force_numerical=True))
    np.testing.assert_allclose(approx, exact, atol=1e-8)


@pytest.mark.parametrize("name", ["norm", "gauss_si", "saddle_si"])
def test_fd_convergence_is_second_order(name):
    # quadratics are excluded: central differences are exact on them, so the
    # measured error is pure roundoff and does not shrink with h
    # halving-squared: error(h=1e-3) / error(h=1e-4) must sit in [50, 200]
    f = make_builtin(name, 3)
    rng = np.random.default_rng(7)
    X = rng.uniform(0.5, 1.5, size=(100, 3)) * np.sign(rng.normal(size=(100, 3)))
    exact = f.gradient_values(X)
    errs = []
    for h in (1e-3, 1e-4):
        approx = f.gradient_values(X, GradientSpec(h=h, force_numerical=True))
        errs.append(np.max(np.abs(approx - exact)))
    ratio = errs[0] / errs[1]
    assert 50.0 <= ratio <= 200.0, f"{name}: ratio {ratio}"


def test_gradient_spec_validation():
    with pytest.raises(ValueError):
        GradientSpec(h=0.0)
    with pytest.raises(ValueError):
        GradientSpec(h=-1e-5)
    with pytest.raises(ValueError):
        GradientSpec(h=float("nan"))


# ---------------------------------------------------------------------------
# ray sections


def test_ray_section_norm():
    f = make_builtin("norm", 2)
    section = ray_section(f, (3.0, 4.0))
    assert section.eval(2.0) == pytest.approx(10.0, abs=1e-12)


@pytest.mark.parametrize("name", ["sphere", "norm", "half_norm", "gauss_si",
                                  "tanh_exp"])
def test_ray_section_at_zero_is_reference_value(name):
    f = make_builtin(name, 2)
    section = f.ray((0.7, -0.3))
    assert section.eval(0.0) == pytest.approx(f.f_star, abs=1e-15)


@pytest.mark.parametrize("name,alpha", [("sphere", 2.0), ("norm", 1.0),
                                        ("half_norm", 1.0), ("ellipsoid", 2.0)])
def test_ray_section_ph_scaling(name, alpha):
    f = make_builtin(name, 3)
    section = f.ray((0.5, -1.0, 2.0))
    base = section.eval(1.0)
    for t in (0.5, 2.0, 7.0):
        assert section.eval(t) == pytest.approx(t ** alpha * base, rel=1e-12)


def test_ray_scaling_invariance_of_parametrization():
    # f_x(t * rho) == f_{rho x}(t) for 100 seeded triples
    f = make_builtin("gauss_si", 3)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.normal(size=3)
        t = float(rng.uniform(0.01, 5.0))
        rho = float(rng.uniform(0.1, 10.0))
        a = f.ray(x).eval(t * rho)
        b = f.ray(rho * x).eval(t)
        assert abs(a - b) <= 1e-12


def test_ray_eval_accepts_arrays():
    f = make_builtin("sphere", 2)
    section = f.ray((1.0, 0.0))
    out = section.eval(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out, [1.0, 4.0, 9.0])
    shifted = section.eval(np.array([2.0])) - f.f_star
    np.testing.assert_allclose(shifted, [4.0])


def test_ray_shifted_scalar():
    f = ScalarField(2, lambda X: np.sum(X * X, axis=-1) + 5.0, vectorized=True)
    section = f.ray((1.0, 0.0))
    assert section.eval(3.0) - f.f_star == pytest.approx(9.0)


# ---------------------------------------------------------------------------
# metadata


def test_meta_tags_keys():
    f = make_builtin("sphere", 2)
    tags = f.meta.tags()
    assert set(tags) == {"is_si", "ph_degree", "decomposable",
                         "compact_sublevel", "differentiable", "continuous"}
    assert tags["is_si"] is True
    assert tags["ph_degree"] == 2.0


def test_field_meta_defaults_unknown():
    meta = FieldMeta()
    assert meta.tags()["is_si"] is None


def test_dimension_validation():
    with pytest.raises(ValueError):
        ScalarField(0, lambda x: 0.0)


# ---------------------------------------------------------------------------
# ray profiles for the root solver


def test_ray_values_evaluate_only_the_live_rows():
    seen = []

    def fn(x):
        seen.append(x.copy())
        return float(x @ x)

    f = ScalarField(2, fn, x_star=[1.0, 0.0])
    M = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
    t = np.array([2.0, np.nan, 0.5])
    assert f.f_star == 1.0
    seen.clear()
    out = f.ray_values(t, M)
    assert [list(x) for x in seen] == [[3.0, 0.0], [2.5, 2.0]]
    np.testing.assert_array_equal(out, [8.0, np.nan, 9.25])
    seen.clear()
    assert np.isnan(f.ray_values(np.full(3, np.nan), M)).all() and seen == []
    t = np.array([2.0, 1.0, 0.5])
    assert f.ray_values(t, M).tobytes() == f.shifted_values(t[:, None] * M).tobytes()


def _signed_field(x_star):
    # copysign reads the sign of a zero: a -0.0 coordinate that reached f
    # would change its value
    def fn(X):
        return ((np.copysign(1.0, X) * (1.0 + X * X)).sum(axis=-1)
                + np.sin(X[:, 0] * X[:, 2]))
    return ScalarField(3, fn, x_star=x_star, vectorized=True)


@pytest.mark.parametrize("x_star", [None, [0.5, -0.0, -2.0], [-0.0, 0.0, 0.0]],
                         ids=["origin", "shifted", "negative-zero"])
@pytest.mark.parametrize("broadcast", [False, True], ids=["rows", "broadcast"])
def test_ray_values_give_the_bits_of_shifted_values(x_star, broadcast):
    f = _signed_field(x_star)
    rng = np.random.default_rng(7)
    if broadcast:  # one ray, as the table along a reference ray passes it
        M = np.broadcast_to(np.array([-0.0, 0.3, -1.7]), (64, 3))
    else:
        M = rng.normal(size=(64, 3))
        M[::5, 1] = -0.0
        M[::7, 2] = 0.0
    t = rng.uniform(0.0, 3.0, 64)
    t[[0, 9]] = 0.0
    for nan_rows in ([], [1, 2, 40, 63]):
        t[nan_rows] = np.nan
        live = ~np.isnan(t)
        got = f.ray_values(t, M)
        want = f.shifted_values(t[:, None] * M)
        assert got[live].tobytes() == want[live].tobytes()
        assert np.isnan(got[~live]).all()
