"""Level radii, sphere extrema, sandwich bounds, compactness, negligibility."""

import json
import math

import numpy as np
import pytest

from siphkit import cli, decomposition, levelsets, rootfind
from siphkit.decomposition import build_decomposition
from siphkit.exprlang import bind
from siphkit.field import ScalarField
from siphkit.gallery import compose, make_builtin, random_si
from siphkit.levelsets import (
    ARC_CALLS,
    ARC_GRID,
    SPHERE_PASSES,
    SphereExtrema,
    _arc_points,
    _arc_search,
    _GRID,
    _refine_on_sphere,
    check_ph_sandwich,
    check_sandwiches,
    check_si_sandwich,
    compactness_probe,
    fold_projected_samples,
    negligibility_probe,
    ray_level_radius,
    si_sandwich_applies,
    sphere_extrema,
)
from siphkit.rays import SamplingPlan


# ---------------------------------------------------------------------------
# ray level radii


def test_sphere_level_radius_along_axis():
    f = make_builtin("sphere", 2)
    (out,) = ray_level_radius(f, [1.0, 0.0], 4.0)
    assert out.status == "ok"
    assert out.radius == pytest.approx(2.0, abs=1e-9)
    assert out.residual <= 1e-10


def test_level_radius_scales_with_direction_length():
    f = make_builtin("sphere", 2)
    (base,) = ray_level_radius(f, [3.0, 4.0], 4.0)
    (scaled,) = ray_level_radius(f, [9.0, 12.0], 4.0)
    assert base.radius == pytest.approx(2.0 / 5.0, abs=1e-9)
    assert scaled.radius == pytest.approx(base.radius / 3.0, abs=1e-9)


def test_level_radius_homothety_on_random_fields():
    f = random_si(13, 3, eps=0.25)
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(100):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        c = f.value(1.7 * d)  # guaranteed achieved on this ray
        rho = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        (r1,) = ray_level_radius(f, d, c)
        (r2,) = ray_level_radius(f, rho * d, c)
        assert r1.status == "ok" and r2.status == "ok"
        assert r2.radius == pytest.approx(r1.radius / rho, rel=1e-8)
        checked += 1
    assert checked == 100


def test_level_radius_misses_and_whole_ray():
    f = make_builtin("linear_x1", 2)
    assert ray_level_radius(f, [0.0, 1.0], 1.0)[0].status == "unbounded"
    assert ray_level_radius(f, [0.0, 1.0], 0.0)[0].status == "whole-ray"
    g = make_builtin("sphere", 2)
    assert ray_level_radius(g, [1.0, 0.0], -1.0)[0].status == "outside-range"


def test_level_radii_are_one_record_array():
    f = make_builtin("sphere", 2)
    radii = ray_level_radius(f, [[1.0, 0.0], [0.0, 2.0]], 4.0)
    assert isinstance(radii, np.recarray) and radii.shape == (2,)
    assert radii.dtype.names == ("direction", "level", "status", "radius",
                                 "residual")
    assert radii.dtype["direction"].shape == (2,)
    assert radii.status.tolist() == ["ok", "ok"]
    np.testing.assert_allclose(radii.radius, [2.0, 1.0], atol=1e-9)
    np.testing.assert_array_equal(radii.level, [4.0, 4.0])
    np.testing.assert_array_equal(radii.direction, [[1.0, 0.0], [0.0, 2.0]])


def test_the_level_f_star_has_radius_zero_on_every_monotone_ray():
    for f in (make_builtin("sphere", 2), bind("-(x_1^2 + x_2^2)", 2),
              make_builtin("gauss_si", 2)):
        radii = ray_level_radius(f, [[1.0, 0.0], [0.6, -0.8]], f.f_star)
        assert radii.status.tolist() == ["ok", "ok"]
        assert radii.radius.tolist() == [0.0, 0.0]
        assert radii.residual.tolist() == [0.0, 0.0]
    res = levelsets._solve_level(make_builtin("sphere", 2), np.eye(2),
                                 [0.0, 4.0], True)
    assert res.status.tolist() == [rootfind.OK, rootfind.OK]
    assert res.t[0] == 0.0 and res.t[1] == pytest.approx(2.0, abs=1e-9)


def test_level_radius_rejects_non_monotone_rays():
    # a ray without a unique crossing gets no radius, only its status
    f = bind("(x_1 - 1)^2", 1)
    (out,) = ray_level_radius(f, [1.0], 0.5)
    assert out.status == "non-monotone"
    assert math.isnan(out.radius) and math.isnan(out.residual)


def test_status_labels_are_indexed_by_the_solver_codes():
    labels = rootfind.STATUS_LABEL[[rootfind.OK, rootfind.UNBOUNDED,
                                    rootfind.NONFINITE, rootfind.BELOW_START]]
    assert labels.tolist() == ["ok", "unbounded", "non-finite", "outside-range"]


def test_found_radius_is_the_unique_crossing():
    # one sign change of f - c on [0, 2 t*], scanned on 64 subintervals
    for f, d, c in ((make_builtin("sphere", 2), np.array([0.6, 0.8]), 2.5),
                    (random_si(21, 2, eps=0.3), np.array([1.0, 0.0]), None)):
        c = f.value(1.3 * d) if c is None else c
        (out,) = ray_level_radius(f, d, c)
        assert out.status == "ok"
        t = np.linspace(0.0, 2.0 * out.radius, 65)
        signs = np.sign(f.values(t[:, None] * d) - c)
        changes = np.count_nonzero(np.diff(signs[signs != 0]) != 0)
        assert changes == 1


# ---------------------------------------------------------------------------
# sphere extrema


def test_norm_is_constant_on_the_sphere():
    ext = sphere_extrema(make_builtin("norm", 3))
    assert ext.m == pytest.approx(1.0, abs=1e-9)
    assert ext.M == pytest.approx(1.0, abs=1e-9)


def test_ellipsoid_extrema_match_eigenvalues():
    diag = [1.0, 4.0]
    f = make_builtin("ellipsoid", 2, diag=diag)
    ext = sphere_extrema(f)
    eigs = np.linalg.eigvalsh(np.diag(diag))
    assert ext.m == pytest.approx(eigs[0], abs=1e-6)
    assert ext.M == pytest.approx(eigs[-1], abs=1e-6)
    # extremal directions align with the eigenvectors
    assert abs(ext.argmin[0]) == pytest.approx(1.0, abs=1e-3)
    assert abs(ext.argmax[1]) == pytest.approx(1.0, abs=1e-3)


def test_half_norm_extrema_against_dense_circle():
    f = make_builtin("half_norm", 2)
    ext = sphere_extrema(f)
    theta = np.linspace(0.0, 2.0 * np.pi, 100_001)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    dense = f.values(circle)
    assert ext.m == pytest.approx(dense.min(), abs=1e-5)
    assert ext.M == pytest.approx(dense.max(), abs=1e-5)
    assert ext.m == pytest.approx(1.0, abs=1e-6)
    assert ext.M == pytest.approx(2.0 ** 1.5, abs=1e-5)


def test_extrema_are_stable_under_more_samples():
    f = make_builtin("ellipsoid", 3)
    a = sphere_extrema(f, n_samples=512, seed=0)
    b = sphere_extrema(f, n_samples=2048, seed=1)
    assert abs(a.m - b.m) <= 1e-4
    assert abs(a.M - b.M) <= 1e-4


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_extrema_match_known_values(n):
    # every searched point is divided by its norm, so smooth extrema come
    # out to rounding; on half_norm a coordinate of 1e-16 off the axis adds
    # sqrt(1e-16) = 1e-8 to the minimum 1, so that one is held to 5e-8
    known = {"sphere": (1.0, 1.0), "sq_norm": (1.0, 1.0), "norm": (1.0, 1.0),
             "ellipsoid": (1.0, 4.0), "linear_x1": (-1.0, 1.0)}
    for seed in (1, 2, 3):
        for name, (m, M) in known.items():
            ext = sphere_extrema(make_builtin(name, n), seed=seed)
            assert ext.m == pytest.approx(m, rel=1e-13)
            assert ext.M == pytest.approx(M, rel=1e-13)
        ext = sphere_extrema(make_builtin("half_norm", n), seed=seed)
        assert ext.M == pytest.approx(n ** 1.5, rel=1e-13)
        assert ext.m == pytest.approx(1.0, abs=5e-8)


def _counted(fun, sizes):
    def wrapped(X):
        sizes.append(len(X))
        return fun(X)
    return wrapped


def test_pass_cap_bounds_the_field_calls():
    # one pass: the start values, then ARC_CALLS calls per axis arc
    f = make_builtin("ellipsoid", 3)
    sizes = []
    fun = _counted(lambda X: f.values(f.absolute(X)), sizes)
    starts = np.array([[0.6, 0.48, 0.64], [0.64, -0.6, 0.48]])
    _refine_on_sphere(fun, starts, np.array([1.0, -1.0]), 1)
    assert sizes == [2] + [2 * ARC_GRID] * (3 * ARC_CALLS)


def test_a_settled_chain_leaves_the_batch():
    # chain 0 starts at the ellipsoid's minimum e_1, where no arc improves
    # it, so it settles after one pass; chain 1 goes on alone and ends where
    # it ends when polished alone
    f = make_builtin("ellipsoid", 3)

    def fun(X):
        return f.values(f.absolute(X))

    start = np.array([[0.6, 0.48, 0.64]])
    sizes = []
    U, V, *_ = _refine_on_sphere(_counted(fun, sizes),
                                 np.vstack([[1.0, 0.0, 0.0], start]),
                                 np.ones(2), 12)
    alone, value, *_ = _refine_on_sphere(fun, start, np.ones(1), 12)
    assert sizes[0] == 2 and sizes[-1] == ARC_GRID
    assert set(sizes[1:]) == {ARC_GRID, 2 * ARC_GRID}
    assert U[0].tolist() == [1.0, 0.0, 0.0] and V[0] == 1.0
    assert U[1].tobytes() == alone[0].tobytes() and V[1] == value[0]


def test_one_dimensional_sphere_is_two_points():
    f = make_builtin("linear_x1", 1)
    ext = sphere_extrema(f)
    assert ext.m == -1.0 and ext.M == 1.0
    assert ext.argmin.tolist() == [-1.0] and ext.argmax.tolist() == [1.0]
    assert ext.n_samples == 512


@pytest.mark.parametrize("expr,value", [("sqrt(x_1)", 1.0),
                                        ("x_1/(x_1+1)", 0.5)])
def test_one_dimensional_sphere_skips_non_finite_values(expr, value):
    # at -1 the first is nan and the second -inf: both extrema are the
    # value at +1, as non-finite samples are skipped at every n
    ext = sphere_extrema(bind(expr, 1))
    assert ext.m == ext.M == value
    assert ext.argmin.tolist() == ext.argmax.tolist() == [1.0]


# ---------------------------------------------------------------------------
# homogeneous sandwich


def test_sphere_sandwich_is_tight_and_clean():
    p = make_builtin("sq_norm", 2)
    report = check_ph_sandwich(p, 2.0, 1.0, 1.0)
    assert report.passed
    assert report.witnesses == []


def test_sandwich_detects_wrong_bounds():
    p = make_builtin("sq_norm", 2)
    too_high = check_ph_sandwich(p, 2.0, 1.1, 1.0)
    assert not too_high.passed
    assert any(w["kind"] == "lower_bound" for w in too_high.witnesses)
    too_low = check_ph_sandwich(p, 2.0, 1.0, 0.9)
    assert not too_low.passed
    assert any(w["kind"] == "upper_bound" for w in too_low.witnesses)


def test_sandwich_flags_sign_changing_parts():
    p = make_builtin("linear_x1", 2)
    report = check_ph_sandwich(p, 1.0, -1.0, 1.0)
    assert not report.passed
    assert any(w["kind"] == "nonpositive_p" for w in report.witnesses)


def test_ellipsoid_sandwich_with_eigenvalue_bounds():
    p = make_builtin("ellipsoid", 2, diag=[1.0, 4.0])
    report = check_ph_sandwich(p, 2.0, 1.0, 4.0, SamplingPlan(n_samples=10_000))
    assert report.passed
    assert report.m < report.M


def test_random_part_sandwich_from_measured_extrema():
    p = random_si(5, 3, eps=0.3).ph_part
    ext = sphere_extrema(p)
    report = check_ph_sandwich(p, 1.0, ext.m, ext.M, SamplingPlan(n_samples=10_000))
    assert report.passed, report.witnesses[:2]


# ---------------------------------------------------------------------------
# invariant-field sandwich


def test_power_of_norm_sandwich_has_no_witnesses():
    f = compose("power", make_builtin("norm", 2), beta=2.0)
    d = build_decomposition(f, alpha=1.0)
    report = check_si_sandwich(f, d)
    assert report.passed
    assert report.m == pytest.approx(1.0, abs=1e-6)
    assert report.M == pytest.approx(1.0, abs=1e-6)


def test_random_field_sandwich_passes_at_scale():
    f = random_si(3, 4, eps=0.2)
    d = build_decomposition(f)
    report = check_si_sandwich(f, d, SamplingPlan(n_samples=10_000))
    assert report.passed, report.witnesses[:2]
    assert 0 < report.m <= report.M


def test_folded_samples_replace_extrema_a_search_missed():
    # sq_norm is 1 on the sphere: claimed bounds 1.1 and 0.9 fail as given,
    # while folding in the samples' projections replaces both
    p = make_builtin("sq_norm", 3)
    plan = SamplingPlan(n_samples=2000, seed=4)
    claimed = check_ph_sandwich(p, 2.0, 1.1, 0.9, plan)
    assert {w["kind"] for w in claimed.witnesses} == {"lower_bound",
                                                     "upper_bound"}
    missed = SphereExtrema(1.1, 0.9, np.zeros(3), np.zeros(3), 512, 0)
    folded = fold_projected_samples(p, plan, missed)
    assert folded.m == pytest.approx(1.0, rel=1e-15)
    assert folded.M == pytest.approx(1.0, rel=1e-15)
    assert np.linalg.norm(folded.argmin) == pytest.approx(1.0, rel=1e-15)
    assert folded.samples_below_polished_min == 2000
    assert folded.samples_above_polished_max == 2000
    report = check_ph_sandwich(p, 2.0, folded.m, folded.M, plan)
    assert report.passed, report.witnesses[:2]


def test_a_fold_keeps_the_extrema_no_sample_beats():
    f = make_builtin("ellipsoid", 3)
    plan = SamplingPlan(n_samples=500, seed=2)
    ext = sphere_extrema(f, seed=2)
    sizes = []
    f.values = _counted(f.values, sizes)
    new = fold_projected_samples(f, plan, ext)
    assert sizes == [500]
    # the polish reaches the ellipsoid's extrema, so it stands
    assert (new.m, new.M) == (ext.m, ext.M)
    assert new.argmin is ext.argmin and new.argmax is ext.argmax
    assert new.samples_below_polished_min == 0
    assert new.samples_above_polished_max == 0


def test_si_sandwich_folds_in_samples_that_beat_the_polish():
    # unpolished extrema (the best of 256 samples) leave room for the
    # projected box samples to do better; the fold takes them
    f = random_si(3, 4)
    plan = SamplingPlan(n_samples=5000, seed=3)
    d = build_decomposition(f, plan=plan)
    raw = sphere_extrema(f, n_samples=256, refine_steps=0, seed=plan.seed)
    report = check_si_sandwich(f, d, plan,
                               extrema=fold_projected_samples(f, plan, raw))
    assert report.passed, report.witnesses[:2]
    assert report.notes["samples_below_polished_min"] > 0
    assert report.notes["samples_above_polished_max"] > 0
    polished = check_si_sandwich(f, d, plan)
    assert polished.m <= report.m and polished.M >= report.M * (1 - 1e-12)


@pytest.mark.parametrize("n,seed", [(3, 18), (3, 20), (4, 7), (4, 9), (4, 12)])
def test_si_sandwich_passes_where_the_polish_alone_fell_short(n, seed):
    # each failed with a lower_bound, upper_bound or ball_cover witness when
    # the extrema were a 2-pass golden-section polish without the samples
    f = random_si(seed, n)
    plan = SamplingPlan(n_samples=1000, seed=seed)
    d = build_decomposition(f, plan=plan)
    report = check_si_sandwich(f, d, plan)
    assert report.passed, report.witnesses[:2]


def _q_polish_reference(f, d, seed):
    """The sandwich's former extrema: the sphere polish run on
    q = p^(1/alpha) itself, one root solve per probe.  Kept as the
    reference for the polish on f."""
    inv_alpha = 1.0 / d.alpha
    q = ScalarField(f.n, lambda X: d.p_values(X) ** inv_alpha,
                    x_star=f.x_star, vectorized=True)
    ext = sphere_extrema(q, n_samples=256, refine_steps=2, seed=seed)
    return ext.m, ext.M


@pytest.mark.parametrize("name,n", [
    ("ellipsoid", 2), ("half_norm", 5), ("norm", 3), ("saddle_si", 4),
    ("sphere", 2), ("sq_norm", 3), ("random_si", 3), ("random_si", 5)])
def test_sandwich_extrema_polished_on_f_match_the_q_polish(name, n):
    # phi is increasing, so f orders the sphere as q does: the extrema found
    # on f may not be worse than q's own polish beyond rounding
    f = random_si(n, n) if name == "random_si" else make_builtin(name, n)
    plan = SamplingPlan(seed=n)
    d = build_decomposition(f, plan=plan)
    report = check_si_sandwich(f, d, plan)
    m_ref, M_ref = _q_polish_reference(f, d, plan.seed)
    assert report.passed, report.witnesses[:2]
    assert report.m <= m_ref * (1.0 + 1e-9)
    assert report.M >= M_ref * (1.0 - 1e-9)


def test_sandwich_inverts_its_reference_levels_in_one_solve(monkeypatch):
    rows, p_calls = [], []
    solve = levelsets.solve_monotone_batch

    def counted(profile, targets, *args, **kwargs):
        rows.append(len(targets))
        return solve(profile, targets, *args, **kwargs)

    f = make_builtin("ellipsoid", 4)
    d = build_decomposition(f)
    monkeypatch.setattr(decomposition, "solve_monotone_batch", counted)
    monkeypatch.setattr(levelsets, "solve_monotone_batch", counted)
    monkeypatch.setattr(decomposition.Decomposition, "p_values",
                        lambda self, X: p_calls.append(1))
    report = check_si_sandwich(f, d)
    assert report.passed
    # q at the two extrema and phi^-1 at the 8 reference levels, at once
    assert rows == [2 + 8]
    assert p_calls == []


def _p_values_q(f, d, plan):
    """m and M of the SI sandwich as p was solved at the two extrema before
    they joined the level solve: p_values at the points, to the 1/alpha."""
    ext = fold_projected_samples(f, plan, sphere_extrema(f, seed=plan.seed))
    X = f.absolute(np.array([ext.argmin, ext.argmax]))
    return ext, d.p_values(X) ** (1.0 / d.alpha)


@pytest.mark.parametrize("name,n", [
    ("ellipsoid", 2), ("ellipsoid", 4), ("half_norm", 3), ("norm", 2),
    ("saddle_si", 3), ("sphere", 3), ("sq_norm", 5),
    ("tanh_exp", 2), ("random_si", 3), ("random_si", 5), ("expr", 2),
    ("expr-far", 2)])
@pytest.mark.parametrize("seed", [1, 2])
def test_sandwich_q_has_the_bits_of_p_values(name, n, seed):
    if name == "random_si":
        f = random_si(seed, n)
    elif name == "expr":
        f = bind("(x_1-0.5)^2 + 3*(x_2+0.25)^2", 2, x_star=[0.5, -0.25])
    elif name == "expr-far":
        f = bind("(x_1-1e3)^2 + 3*(x_2+1e3)^2", 2, x_star=[1e3, -1e3])
    else:
        f = make_builtin(name, n)
    plan = SamplingPlan(seed=seed)
    d = build_decomposition(f, alpha=f.meta.ph_degree or 1.0, plan=plan)
    assert si_sandwich_applies(d)
    ext, q = _p_values_q(f, d, plan)
    report, _ = check_sandwiches(f, d, plan, extrema=ext)
    assert np.float64(report.M).tobytes() == q[1].tobytes()
    if report.verdict == "precondition-failed":  # a minimum in the zero band
        assert name == "tanh_exp" and report.m == 0.0
    else:
        assert np.float64(report.m).tobytes() == q[0].tobytes()


def test_a_zero_minimum_draws_nothing_and_solves_the_extrema_alone(monkeypatch):
    rows, drawn = [], []
    solve = levelsets.solve_monotone_batch

    def counted(profile, targets, *args, **kwargs):
        rows.append(len(targets))
        return solve(profile, targets, *args, **kwargs)

    f = make_builtin("logsq_si", 2)
    d = build_decomposition(f)
    monkeypatch.setattr(levelsets, "solve_monotone_batch", counted)
    monkeypatch.setattr(levelsets, "_first_finite_values",
                        lambda *args: drawn.append(1))
    report = check_si_sandwich(f, d)
    assert report.verdict == "precondition-failed" and report.m == 0.0
    assert rows == [2] and drawn == []


def _count_polishes(monkeypatch):
    chains = []
    refine = levelsets._refine_on_sphere

    def counted(fun, starts, signs, passes):
        chains.append(len(starts))
        return refine(fun, starts, signs, passes)

    monkeypatch.setattr(levelsets, "_refine_on_sphere", counted)
    return chains


@pytest.mark.parametrize("name,chains", [
    ("sphere", [2]),      # PH degree, SI precondition holds: both sandwiches
    ("linear_x1", [2]),   # PH degree, two-sided: the PH sandwich only
    ("saddle_si", [2]),   # no PH degree: the SI sandwich only
    ("gauss_si", []),     # no PH degree, decreasing rays: nothing to polish
])
def test_levelset_bounds_polishes_the_sphere_once(monkeypatch, capsys, name,
                                                  chains):
    polished = _count_polishes(monkeypatch)
    code = cli.main(["levelset", "bounds", "--gallery", name, "--n", "3"])
    capsys.readouterr()
    assert code in (0, 1)
    assert polished == chains


@pytest.mark.parametrize("name,folds", [
    ("sphere", [512]),    # both sandwiches share one fold
    ("linear_x1", [512]),
    ("saddle_si", [512]),
    ("gauss_si", []),
])
def test_levelset_bounds_folds_the_samples_in_once(monkeypatch, capsys, name,
                                                   folds):
    seen = []
    fold = levelsets.fold_projected_samples

    def counted(field, plan, ext):
        seen.append(ext.n_samples)
        return fold(field, plan, ext)

    monkeypatch.setattr(levelsets, "fold_projected_samples", counted)
    code = cli.main(["levelset", "bounds", "--gallery", name, "--n", "3"])
    capsys.readouterr()
    assert code in (0, 1)
    assert seen == folds


@pytest.mark.parametrize("seed", range(1, 6))
def test_both_sandwiches_of_levelset_bounds_rest_on_one_search(capsys, seed):
    # half_norm has degree 1 and increasing rays, so the SI sandwich's q is
    # the canonical p, a constant multiple of the field: on the same two
    # sphere points its m / M equals the PH sandwich's to rounding
    code = cli.main(["levelset", "bounds", "--gallery", "half_norm", "--n", "3",
                     "--seed", str(seed)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    si, ph = doc["metrics"]["si_sandwich"], doc["metrics"]["ph_sandwich"]
    assert si["m"] / si["M"] == pytest.approx(ph["m"] / ph["M"], rel=1e-12)
    assert si["notes"]["extrema_samples"] == 512


@pytest.mark.parametrize("k", range(1, 9))
def test_arc_points_match_per_chain_scalar_trig(k):
    rng = np.random.default_rng(k)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        B = rng.normal(size=(k, n))
        T = rng.normal(size=(k, n))
        for theta in (rng.uniform(-np.pi / 2, np.pi / 2, size=k),
                      rng.uniform(-1e-3, 1e-3, size=k),
                      np.pi / 2 - rng.uniform(0, 1e-3, size=k)):
            scalar = np.array([np.cos(th) * u + np.sin(th) * v
                               for th, u, v in zip(theta, B, T)])
            assert _arc_points(theta, B, T).tobytes() == scalar.tobytes()


def _column_stack_arc_search(fun, B, T, signs):
    """The arc search as it was first written: the bracket ends stacked
    around the grid angles on every call, the best angle read by row and
    column."""
    k, n = B.shape
    rows = np.arange(k)
    B_grid = np.repeat(B, ARC_GRID, axis=0)
    T_grid = np.repeat(T, ARC_GRID, axis=0)
    lo = np.full(k, -np.pi / 2)
    hi = -lo
    best_p = np.empty_like(B)
    best_v = np.full(k, np.inf)
    for _ in range(ARC_CALLS):
        theta = lo[:, None] + (hi - lo)[:, None] * _GRID
        P = _arc_points(theta.ravel(), B_grid, T_grid)
        P /= np.sqrt(np.sum(P * P, axis=-1))[:, None]
        vals = signs[:, None] * fun(P).reshape(k, ARC_GRID)
        vals = np.where(np.isfinite(vals), vals, np.inf)
        j = np.argmin(vals, axis=1)
        v = vals[rows, j]
        better = v < best_v
        best_v[better] = v[better]
        best_p[better] = P.reshape(k, ARC_GRID, n)[rows, j][better]
        edges = np.column_stack([lo, theta, hi])
        lo, hi = edges[rows, j], edges[rows, j + 2]
    return best_p, best_v


def _rough(P):
    """A value per point with plateaus (exact ties), nan and +-inf."""
    v = np.round(4.0 * P[:, 0] + P[:, -1] ** 2, 1)
    pick = np.floor(np.abs(P[:, 1]) * 997.0) % 7
    v[pick == 0], v[pick == 1], v[pick == 2] = np.nan, np.inf, -np.inf
    return v


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("fun", [_rough, lambda P: P[:, 0] * P[:, -1] - P[:, 1]],
                         ids=["rough", "smooth"])
def test_arc_search_has_the_bits_of_the_column_stack_form(k, n, fun):
    rng = np.random.default_rng(10 * k + n)
    for _ in range(4):
        B = rng.normal(size=(k, n))
        B /= np.sqrt(np.sum(B * B, axis=1))[:, None]
        T = rng.normal(size=(k, n))
        T -= np.sum(T * B, axis=1)[:, None] * B
        T /= np.sqrt(np.sum(T * T, axis=1))[:, None]
        signs = rng.choice([-1.0, 1.0], size=k)
        points, vals = _arc_search(fun, B, T, signs)
        ref_points, ref_vals = _column_stack_arc_search(fun, B, T, signs)
        assert np.isfinite(vals).all()
        assert vals.tobytes() == ref_vals.tobytes()
        assert points.tobytes() == ref_points.tobytes()


def test_a_field_non_finite_on_every_sphere_sample_has_no_extrema():
    f = ScalarField(3, lambda X: np.full(len(X), np.nan), vectorized=True)
    with pytest.raises(ValueError, match="non-finite on all sphere samples"):
        sphere_extrema(f)


def test_sphere_minimum_on_the_zero_level_fails_the_precondition():
    # logsq_si's homogeneous part vanishes on the hyperplane x_1 = 0, so p
    # is not bounded away from 0 on the sphere
    f = make_builtin("logsq_si", 2)
    d = build_decomposition(f)
    report = check_si_sandwich(f, d)
    assert report.verdict == "precondition-failed"
    assert report.m == 0.0


def test_decreasing_profile_fails_sandwich_precondition():
    f = make_builtin("gauss_si", 2)
    d = build_decomposition(f)
    report = check_si_sandwich(f, d)
    assert report.verdict == "precondition-failed"
    assert "reason" in report.notes


def test_two_sided_case_fails_sandwich_precondition():
    f = make_builtin("linear_x1", 2)
    d = build_decomposition(f)
    report = check_si_sandwich(f, d)
    assert report.verdict == "precondition-failed"


# ---------------------------------------------------------------------------
# compactness


def test_sphere_sublevel_is_bounded_with_exact_radius():
    f = make_builtin("sphere", 2)
    report = compactness_probe(f, 1.0)
    assert report.bounded
    assert report.max_radius == pytest.approx(1.0, abs=1e-9)
    report4 = compactness_probe(f, 4.0)
    assert report4.max_radius == pytest.approx(2.0, abs=1e-9)


def test_flat_direction_is_unboundedness_evidence():
    f = make_builtin("linear_x1", 2)
    report = compactness_probe(f, 1.0)
    assert not report.bounded
    w = report.witnesses[0]
    assert w["kind"] == "constant_ray"
    assert w["direction"] == [0.0, 1.0]


def test_decreasing_rays_are_unboundedness_evidence():
    f = make_builtin("gauss_si", 2)
    report = compactness_probe(f, math.exp(-1.0))
    assert not report.bounded
    assert all(w["kind"] == "strictly-decreasing_ray" for w in report.witnesses)


def test_saturating_ray_exhausts_the_bracket():
    f = make_builtin("tanh_exp", 2)
    report = compactness_probe(f, 5.0, directions=[[1.0, 0.0]])
    assert not report.bounded
    assert report.witnesses[0]["kind"] == "bracket_exhausted"
    assert report.witnesses[0]["doublings"] == rootfind.MAX_DOUBLINGS == 60


def test_si_sandwich_witnesses_non_finite_samples_first(capsys):
    # f is nan wherever x_1 < 0, yet its finite half holds the sandwich
    f = bind("x_1^2 + x_2^2 + 0*sqrt(x_1)", 2)
    plan = SamplingPlan(n_samples=2000)
    d = build_decomposition(f, plan=plan)
    report = check_si_sandwich(f, d, plan)
    assert report.verdict == "fail"
    kinds = [w["kind"] for w in report.witnesses]
    assert kinds == ["non_finite"] * 4
    assert all(w["x"][0] < 0 for w in report.witnesses)
    code = cli.main(["levelset", "bounds", "--expr", "x_1^2 + x_2^2 + 0*sqrt(x_1)",
                     "--n", "2", "--N", "2000"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [w["kind"] for w in doc["witnesses"]] == ["non_finite"] * 4


def test_sandwiches_judge_every_sample_of_a_tiny_box():
    f = make_builtin("sphere", 2)
    plan = SamplingPlan(box_radius=1e-12)
    d = build_decomposition(f, alpha=2.0, plan=plan)
    assert check_si_sandwich(f, d, plan).n_samples == 1000
    assert check_ph_sandwich(f, 2.0, 1.0, 1.0, plan).n_samples == 1000
    tiny = SamplingPlan(box_radius=1e-200)  # every norm underflows to 0
    with pytest.raises(ValueError, match="box radius 1e-200"):
        check_ph_sandwich(f, 2.0, 1.0, 1.0, tiny)


# ---------------------------------------------------------------------------
# level-set negligibility


def test_annulus_fraction_matches_geometry():
    f = make_builtin("sphere", 2)
    report = negligibility_probe(f, 1.0,
                                 plan=SamplingPlan(n_samples=100_000, seed=0))
    assert report.passed
    # shell area over box area: 2 pi eps / 16
    expected = math.pi * 0.1 / 8.0
    sigma = math.sqrt(expected * (1.0 - expected) / 100_000)
    assert abs(report.fractions[0] - expected) <= 3.0 * sigma
    ratio = report.fractions[1] / report.fractions[0]
    assert 0.4 <= ratio <= 0.6


def test_thick_level_set_fails_negligibility():
    f = bind("0 * x_1", 2)
    report = negligibility_probe(f, 0.0, plan=SamplingPlan(n_samples=10_000))
    assert not report.passed
    assert report.fractions == [1.0, 1.0, 1.0]


def test_non_finite_samples_fail_negligibility_with_witnesses():
    # sqrt(x_1) is nan on half the box; those samples fall in no shell
    f = bind("sqrt(x_1) + x_2^2", 2)
    plan = SamplingPlan(n_samples=20_000, seed=3)
    report = negligibility_probe(f, 0.5, plan=plan)
    assert not report.passed
    kinds = [w["kind"] for w in report.witnesses]
    assert kinds[:4] == ["non_finite"] * 4 and "non_finite" not in kinds[4:]
    X = plan.box_points(2)
    first = X[X[:, 0] < 0][:4]
    assert [w["x"] for w in report.witnesses[:4]] == first.tolist()


def test_finite_negligibility_samples_give_no_witness():
    f = make_builtin("sphere", 2)
    report = negligibility_probe(f, 1.0, plan=SamplingPlan(n_samples=10_000))
    assert report.passed and report.witnesses == []


def test_negligibility_eps_validation():
    f = make_builtin("sphere", 2)
    with pytest.raises(ValueError):
        negligibility_probe(f, 1.0, eps_list=(0.05, 0.1))
    with pytest.raises(ValueError):
        negligibility_probe(f, 1.0, eps_list=(0.1, 0.0))
    with pytest.raises(ValueError):
        negligibility_probe(f, 1.0, eps_list=())


# ---------------------------------------------------------------------------
# passes of the sphere polish, in the report


def test_a_settling_polish_reports_its_passes_and_no_capped_chain():
    ext = sphere_extrema(make_builtin("sphere", 3), seed=0)
    assert 1 <= ext.passes_run <= 2 and ext.capped_chains == 0
    assert ext.refine_steps == SPHERE_PASSES


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_polish_stopped_by_the_cap_counts_its_unsettled_chains(seed):
    ext = sphere_extrema(random_si(1, 4), seed=seed)
    assert ext.passes_run == ext.refine_steps == SPHERE_PASSES
    assert ext.capped_chains >= 1


def test_a_pass_cap_of_zero_runs_no_pass():
    ext = sphere_extrema(random_si(1, 4), refine_steps=0, seed=0)
    assert ext.passes_run == 0 and ext.capped_chains == 2


@pytest.mark.parametrize("name,n,capped", [("sphere", 3, False),
                                           ("random_si", 4, True)])
def test_both_sandwiches_print_the_polish_passes(capsys, name, n, capped):
    cli.main(["levelset", "bounds", "--gallery", name, "--n", str(n),
              "--seed", "1"])
    doc = json.loads(capsys.readouterr().out)
    sandwiches = [doc["metrics"][k] for k in ("si_sandwich", "ph_sandwich")
                  if k in doc["metrics"]]
    # sphere has a PH degree, so both sandwiches run there
    assert len(sandwiches) == (2 if name == "sphere" else 1)
    for sw in sandwiches:
        notes = sw["notes"]
        assert 1 <= notes["sphere_passes"] <= SPHERE_PASSES
        assert (notes["chains_at_pass_cap"] > 0) == capped
