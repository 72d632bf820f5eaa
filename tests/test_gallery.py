"""Ground-truth values, tags, and constructors of the built-in field gallery."""

import json
import math

import numpy as np
import pytest

from siphkit.gallery import (
    REGISTRY,
    compose,
    logsq_profile,
    make_builtin,
    random_si,
    registry_json,
    saddle_profile,
)

EXPECTED_NAMES = {
    "sphere", "sq_norm", "norm", "ellipsoid", "half_norm", "linear_x1",
    "piecewise_ph", "tanh_exp", "gauss_si", "saddle_si", "logsq_si",
    "footnote_1d",
}


# ---------------------------------------------------------------------------
# registry shape


def test_registry_has_expected_entries():
    assert set(REGISTRY) == EXPECTED_NAMES
    assert len(REGISTRY) == 12


def test_registry_json_is_sorted_and_tagged():
    doc = json.loads(registry_json(n=2))
    assert doc["version"] == "si-ph-kit/1"
    names = [row["name"] for row in doc["entries"]]
    assert names == sorted(EXPECTED_NAMES)
    for row in doc["entries"]:
        assert set(row["tags"]) == {
            "is_si", "ph_degree", "decomposable", "compact_sublevel",
            "differentiable", "continuous",
        }
        assert isinstance(row["min_n"], int)


def test_homogeneous_entries_are_also_scaling_invariant():
    # a positive homogeneity degree implies invariance of orderings
    doc = json.loads(registry_json(n=2))
    for row in doc["entries"]:
        if row["tags"]["ph_degree"] is not None:
            assert row["tags"]["is_si"], row["name"]


def test_make_builtin_unknown_name():
    with pytest.raises(KeyError):
        make_builtin("does_not_exist", 2)


def test_make_builtin_dimension_floor():
    with pytest.raises(ValueError):
        make_builtin("piecewise_ph", 1)


def test_make_builtin_rejects_foreign_parameters():
    with pytest.raises(ValueError):
        make_builtin("sphere", 2, diag=[1.0, 2.0])


def test_make_builtin_sets_names():
    f = make_builtin("gauss_si", 3)
    assert f.meta.name == "gauss_si"
    assert f.ph_part is not None
    assert f.ph_part.meta.name == "gauss_si.ph_part"


# ---------------------------------------------------------------------------
# pointwise ground truth


def test_sphere_and_sq_norm_are_the_same_function():
    a = make_builtin("sphere", 3)
    b = make_builtin("sq_norm", 3)
    X = np.random.default_rng(0).normal(size=(50, 3))
    np.testing.assert_array_equal(a.values(X), b.values(X))


def test_piecewise_values():
    f = make_builtin("piecewise_ph", 2)
    assert f.value([1.0, -1.0]) == 0.0
    assert f.value([2.0, 3.0]) == 2.0
    assert f.value([-2.0, -3.0]) == -2.0
    assert f.value([0.0, 1.0]) == 0.0


def test_piecewise_nan_coordinate_gives_nan_and_finite_values_keep_their_bits():
    f = make_builtin("piecewise_ph", 3)
    out = f.values([[np.nan, 0.2, 0.0], [0.2, np.nan, 0.0], [0.2, 0.3, np.nan]])
    assert np.isnan(out[:2]).all() and out[2] == 0.2
    X = np.random.default_rng(5).normal(size=(200, 3))
    X[:20, 1] = 0.0
    X[20:40, 0] = -0.0
    ref = np.where(X[:, 0] * X[:, 1] > 0, X[:, 0], 0.0)
    got = f.values(X)
    np.testing.assert_array_equal(got, ref)
    assert (np.signbit(got) == np.signbit(ref)).all()


def test_random_si_nan_coordinate_gives_nan():
    f = random_si(3, 3)
    X = np.array([[0.1, 0.2, 0.3], [np.nan, 0.2, 0.3], [0.0, 0.0, 0.0]])
    for field in (f, f.ph_part):
        out = field.values(X)
        assert np.isnan(out[1])
        assert out[2] == 0.0 and not np.signbit(out[2])
        np.testing.assert_array_equal(out[[0, 2]], field.values(X[[0, 2]]))


def test_tanh_exp_branches():
    f = make_builtin("tanh_exp", 2)
    assert f.value([-1.0, 0.0]) == pytest.approx(1.0 + math.e, abs=1e-15)
    assert f.value([1.0, 0.0]) == pytest.approx(math.tanh(1.0), abs=1e-15)
    assert f.value([0.0, 5.0]) == 0.0


def test_footnote_branches():
    f = make_builtin("footnote_1d", 1)
    assert f.value([0.5]) == 0.5
    assert f.value([-0.5]) == 0.25


def test_saddle_profile_values():
    assert saddle_profile(math.pi) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert saddle_profile(0.0) == 0.0
    # d/dt = sin(t)^2 vanishes at multiples of pi: flat spots, never decreasing
    t = np.linspace(0.0, 10.0, 2001)
    assert (np.diff(saddle_profile(t)) >= -1e-15).all()


# t/2 - sin(2t)/4 at the double nearest t, with mpmath 1.3.0 at 300 digits,
# which resolves the cancellation down to t = 1e-100
SADDLE_REFERENCE = [
    (1e-100, 3.333333333333333533252e-301),
    (1e-80, 3.333333333333332947587e-241),
    (1e-60, 3.333333333333333037668e-181),
    (1e-40, 3.333333333333332626262e-121),
    (1e-20, 3.333333333333332784866e-61),
    (1e-12, 3.3333333333333331322e-37),
    (1e-10, 3.333333333333333697649e-31),
    (1e-8, 3.333333333333333475892e-25),
    (1e-6, 3.333333333332666214148e-19),
    (1e-5, 3.333333333266667484698e-16),
    (1e-4, 3.333333326666667152233e-13),
    (1e-3, 3.333332666666730366893e-10),
    (0.01, 3.333266667301583982423e-7),
    (0.03, 8.998380138850199228315e-6),
    (0.1, 3.326673012346961904732e-4),
    (0.2, 2.645414422837377521622e-3),
    (0.3, 8.839381651241159730182e-3),
    (0.4, 2.066097727511931296044e-2),
    (0.45, 2.916827259312915498514e-2),
    (0.49, 3.737565737700738101165e-2),
    (0.5, 3.963225379802587333687e-2),
    (0.51, 4.197299451265927121254e-2),
    (0.55, 5.219815998464117714465e-2),
    (0.7, 1.036375675028849364047e-1),
    (1.0, 2.72675643293579576151e-1),
    (2.0, 1.189200623826982062843),
    (3.0, 1.569853874549731468203),
    (5.0, 2.636005277722342453351),
    (10.0, 4.771763687318093086406),
]


def test_saddle_profile_matches_high_precision_values():
    t, want = (np.array(col) for col in zip(*SADDLE_REFERENCE))
    np.testing.assert_allclose(saddle_profile(t), want, rtol=1e-14, atol=0)
    # the profile is odd, and a scalar stays a scalar
    np.testing.assert_allclose(saddle_profile(-t), -want, rtol=1e-14, atol=0)
    assert saddle_profile(1e-8) == saddle_profile(np.array([1e-8]))[0] > 0
    assert np.ndim(saddle_profile(0.3)) == 0


def test_saddle_gradient_matches_numerical():
    f = make_builtin("saddle_si", 3)
    from siphkit.field import GradientSpec
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 3))
    g_exact = f.gradient_values(X)
    g_num = f.gradient_values(X, GradientSpec(h=1e-6, force_numerical=True))
    np.testing.assert_allclose(g_exact, g_num, atol=1e-7)


def test_ellipsoid_default_diagonal():
    f = make_builtin("ellipsoid", 4)
    d = np.linspace(1.0, 4.0, 4)
    x = np.array([1.0, 1.0, 1.0, 1.0])
    assert f.value(x) == pytest.approx(d.sum(), rel=1e-14)


def test_ellipsoid_explicit_matrix():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    f = make_builtin("ellipsoid", 2, matrix=A)
    x = np.array([1.0, 2.0])
    assert f.value(x) == pytest.approx(float(x @ A @ x), rel=1e-14)


def test_ellipsoid_parameter_validation():
    with pytest.raises(ValueError):
        make_builtin("ellipsoid", 2, diag=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        make_builtin("ellipsoid", 2, diag=[1.0, -2.0])
    with pytest.raises(ValueError):
        make_builtin("ellipsoid", 2, matrix=[[1.0, 0.9], [0.2, 1.0]])
    with pytest.raises(ValueError):
        make_builtin("ellipsoid", 2, matrix=[[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1
    with pytest.raises(ValueError):
        make_builtin("ellipsoid", 3, matrix=np.eye(2))


# ---------------------------------------------------------------------------
# homogeneity of the tagged entries


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_tagged_degree_scales_exactly(name):
    entry = REGISTRY[name]
    n = max(3, entry.min_n)
    f = make_builtin(name, n)
    alpha = f.meta.ph_degree
    if alpha is None:
        pytest.skip("entry is not tagged homogeneous")
    rng = np.random.default_rng(11)
    X = rng.normal(size=(200, n))
    for rho in (0.25, 0.5, 2.0, 7.5):
        lhs = f.values(rho * X)
        rhs = rho ** alpha * f.values(X)
        scale = 1.0 + rho ** alpha * np.abs(f.values(X))
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-9, (name, rho)


# ---------------------------------------------------------------------------
# slowly growing profile


def test_logsq_profile_base_cases():
    assert logsq_profile(0.0) == 0.0
    assert math.isnan(logsq_profile(-1.0))
    assert math.isnan(logsq_profile(float("nan")))


def test_logsq_profile_strictly_increasing():
    t = np.concatenate([np.geomspace(1e-6, 1.0, 25), np.linspace(1.25, 20.0, 25)])
    vals = logsq_profile(t)
    assert (np.diff(vals) > 0).all()
    assert np.isfinite(vals).all()


def test_logsq_profile_matches_direct_quadrature():
    # independent oracle: trapezoid rule on [0.5, 2] where the integrand is smooth
    u = np.linspace(0.5, 2.0, 40001)
    expected = np.trapezoid(1.0 / (1.0 + np.log(u) ** 2), u)
    got = logsq_profile(2.0) - logsq_profile(0.5)
    assert got == pytest.approx(expected, abs=1e-8)


# phi(t) = integral_0^t du / (1 + log(u)^2), from 30-digit quadrature of
# integral_{-inf}^{log t} e^s / (1 + s^2) ds
LOGSQ_REFERENCE = [
    (1e-8, 2.663049615874822226649e-11),
    (1e-3, 1.632806960074461020439e-05),
    (0.1, 0.009788913779940206938712),
    (0.5, 0.1744408748031834008602),
    (1.0, 0.6214496242358133576393),
    (2.0, 1.475720183704396414861),
    (10.0, 3.74729501863780040877),
    (100.0, 9.82778758691895455591),
    (1000.0, 33.58608409294710742386),
]


def test_logsq_profile_matches_high_precision_values():
    t, want = (np.array(col) for col in zip(*LOGSQ_REFERENCE))
    np.testing.assert_allclose(logsq_profile(t), want, rtol=1e-11, atol=0)


def test_logsq_profile_special_values_and_shapes():
    assert logsq_profile(0.0) == 0.0
    assert logsq_profile(math.inf) == math.inf
    assert math.isnan(logsq_profile(-1.0))
    assert math.isnan(logsq_profile(float("nan")))
    assert type(logsq_profile(1.0)) is float
    assert type(logsq_profile(np.float64(2.0))) is float
    t = np.array([[0.0, 0.5], [math.inf, -2.0]])
    out = logsq_profile(t)
    assert out.shape == (2, 2)
    assert out[0, 0] == 0.0 and out[1, 0] == math.inf and math.isnan(out[1, 1])
    assert out[0, 1] == logsq_profile(0.5)


def test_logsq_profile_strictly_increasing_over_wide_range():
    t = np.geomspace(1e-12, 1e12, 2001)
    vals = logsq_profile(t)
    assert np.isfinite(vals).all()
    assert (np.diff(vals) > 0).all()
    assert vals[0] > 0


def test_logsq_profile_derivative_matches_gallery_gradient():
    f = make_builtin("logsq_si", 1)
    t = np.geomspace(1e-3, 1e3, 41)
    h = 1e-5 * t
    fd = (logsq_profile(t + h) - logsq_profile(t - h)) / (2.0 * h)
    grad = f.gradient_values(t[:, None])[:, 0]
    np.testing.assert_allclose(grad, 1.0 / (1.0 + np.log(t) ** 2), rtol=1e-15)
    np.testing.assert_allclose(fd, grad, rtol=1e-7)


def test_logsq_field_gradient_vanishes_at_origin():
    f = make_builtin("logsq_si", 2)
    np.testing.assert_array_equal(f.gradient([0.0, 0.0]), [0.0, 0.0])


# ---------------------------------------------------------------------------
# composition


def test_compose_exp_neg_of_sq_norm():
    p = make_builtin("sq_norm", 3)
    f = compose("exp_neg", p)
    u = np.array([1.0, 0.0, 0.0])
    assert f.value(u) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert f.meta.compact_sublevel is False  # decreasing profile flips sublevels
    assert f.ph_part is p


def test_compose_identity_is_the_field_itself():
    p = make_builtin("norm", 2)
    f = compose("identity", p)
    X = np.random.default_rng(1).normal(size=(100, 2))
    np.testing.assert_allclose(f.values(X), p.values(X), rtol=0, atol=0)
    assert f.meta.ph_degree == 1.0


def test_compose_power_two_of_norm_equals_sq_norm():
    f = compose("power", make_builtin("norm", 3), beta=2.0)
    g = make_builtin("sq_norm", 3)
    X = np.random.default_rng(2).normal(size=(100, 3))
    np.testing.assert_allclose(f.values(X), g.values(X), rtol=1e-14, atol=1e-14)


def test_compose_affine_and_tanh_values():
    p = make_builtin("norm", 2)
    f = compose("affine", p, a=3.0, b=-1.0)
    assert f.value([0.0, 2.0]) == pytest.approx(5.0, rel=1e-14)
    g = compose("tanh", p)
    assert g.value([0.0, 2.0]) == pytest.approx(math.tanh(2.0), rel=1e-14)


def test_compose_table_interpolates_and_extrapolates():
    p = make_builtin("norm", 2)
    f = compose("table", p, table=([0.0, 1.0, 2.0], [0.0, 1.0, 4.0]))
    assert f.value([1.5, 0.0]) == pytest.approx(2.5, rel=1e-14)  # midpoint of 1 and 4
    assert f.value([3.0, 0.0]) == pytest.approx(7.0, rel=1e-14)  # linear tail slope 3


def test_compose_gradient_uses_chain_rule():
    p = make_builtin("sq_norm", 2)
    f = compose("exp_neg", p)
    x = np.array([0.5, -0.25])
    expected = -math.exp(-f.ph_part.value(x)) * 2.0 * x
    np.testing.assert_allclose(f.gradient(x), expected, rtol=1e-12)


def test_compose_validation():
    p = make_builtin("norm", 2)
    with pytest.raises(ValueError):
        compose("power", p)  # missing beta
    with pytest.raises(ValueError):
        compose("power", p, beta=-1.0)
    with pytest.raises(ValueError):
        compose("affine", p, a=0.0)
    with pytest.raises(ValueError):
        compose("table", p)  # missing table
    with pytest.raises(ValueError):
        compose("table", p, table=([0.0, 1.0], [1.0, 0.0]))  # decreasing values
    with pytest.raises(ValueError):
        compose("no_such_profile", p)
    with pytest.raises(ValueError):
        compose("identity", make_builtin("gauss_si", 2))  # not tagged homogeneous


# ---------------------------------------------------------------------------
# seeded random scaling-invariant fields


def test_random_si_is_deterministic_per_seed():
    f1 = random_si(42, 3)
    f2 = random_si(42, 3)
    g = random_si(43, 3)
    X = np.random.default_rng(5).normal(size=(64, 3))
    np.testing.assert_array_equal(f1.values(X), f2.values(X))
    assert np.max(np.abs(f1.values(X) - g.values(X))) > 1e-6


@pytest.mark.parametrize("seed,n", [(0, 2), (3, 3), (11, 5), (42, 8)])
def test_random_si_rows_do_not_depend_on_their_batch(seed, n):
    # each row's value is bitwise what a one-row call gives, for f and for p
    f = random_si(seed, n)
    X = np.random.default_rng(seed).normal(size=(257, n))
    for field in (f, f.ph_part):
        batch = field.values(X)
        one_by_one = np.array([field.values(x[None, :])[0] for x in X])
        np.testing.assert_array_equal(batch, one_by_one)
        np.testing.assert_array_equal(field.values(X[100:103]), batch[100:103])


@pytest.mark.parametrize("n,params", [
    (2, {}), (5, {}), (8, {}),
    (3, {"matrix": [[2.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 3.0]]})])
def test_ellipsoid_rows_do_not_depend_on_their_batch(n, params):
    f = make_builtin("ellipsoid", n, **params)
    A = np.asarray(f.meta.notes["matrix"])
    X = np.random.default_rng(n).normal(size=(257, n))
    batch = f.values(X)
    one_by_one = np.array([f.values(x[None, :])[0] for x in X])
    np.testing.assert_array_equal(batch, one_by_one)
    np.testing.assert_array_equal(f.values(X[100:103]), batch[100:103])
    want = np.array([x @ A @ x for x in X])
    np.testing.assert_allclose(batch, want, rtol=4 * np.finfo(float).eps)


def test_random_si_core_is_homogeneous_degree_one():
    f = random_si(7, 4, eps=0.3)
    p = f.ph_part
    assert p.meta.ph_degree == 1.0
    rng = np.random.default_rng(8)
    X = rng.normal(size=(100, 4))
    for rho in (0.2, 3.0):
        lhs = p.values(rho * X)
        rhs = rho * p.values(X)
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) <= 1e-12


def test_random_si_core_positive_off_origin():
    f = random_si(19, 3, eps=0.9)
    p = f.ph_part
    X = np.random.default_rng(20).normal(size=(500, 3))
    assert (p.values(X) > 0).all()
    assert p.value([0.0, 0.0, 0.0]) == 0.0


def test_random_si_zero_eps_reduces_to_norm():
    f = random_si(0, 3, eps=0.0)
    X = np.random.default_rng(6).normal(size=(100, 3))
    np.testing.assert_allclose(f.ph_part.values(X),
                               np.linalg.norm(X, axis=-1), atol=1e-9)


def test_random_si_validation():
    with pytest.raises(ValueError):
        random_si(0, 2, eps=1.0)
    with pytest.raises(ValueError):
        random_si(0, 2, eps=-0.1)
    with pytest.raises(ValueError):
        random_si(0, 2, modes=0)


# ---------------------------------------------------------------------------
# row independence: the root solver evaluates only unsettled rows, and one
# sphere polish serves several sample sets, so a row's value may not depend
# on the rows evaluated beside it


def _row_independence_fields(n):
    from siphkit.exprlang import bind

    fields = [make_builtin(name, n) for name in sorted(REGISTRY)]
    fields.append(random_si(n + 7, n))
    fields.append(bind("sqrt(x_1^2 + 2*x_2^2) * exp(-abs(x_1)) + x_2^3", n,
                       x_star=np.linspace(0.1, 0.5, n)))
    return fields


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_row_subsets_evaluate_bit_for_bit_like_the_full_batch(n):
    rng = np.random.default_rng(100 + n)
    X = rng.uniform(-2.0, 2.0, size=(257, n))
    X[:3] = 0.0
    X[3:6, 1:] = 0.0  # on the first axis
    t = rng.uniform(0.0, 4.0, size=257)
    for f in _row_independence_fields(n):
        full = f.values(X)
        rays = f.shifted_values(t[:, None] * X)
        for size in (1, 2, 7, 100, 256):
            rows = np.sort(rng.choice(257, size=size, replace=False))
            assert f.values(X[rows]).tobytes() == full[rows].tobytes(), f
            # the solver's form: rows it does not need are passed as nan
            t_live = np.full(257, np.nan)
            t_live[rows] = t[rows]
            got = f.ray_values(t_live, X)
            assert got[rows].tobytes() == rays[rows].tobytes(), f
            assert np.isnan(np.delete(got, rows)).all()
