"""Block-wise Monte Carlo probes against one-shot references.

Every probe that draws ``--N`` samples -- ``check_scaling_invariance``,
``negligibility_probe``, ``euler_residual``, ``verify_decomposition``,
``uniqueness_check``, ``general_euler_residual`` and the sandwiches --
draws and evaluates them in blocks of ``rays.BLOCK_ROWS`` rows.  The
references below are the one-shot forms they replaced: they draw every sample
at once, evaluate it in one field call and solve p in one call per pass.
Field values and root solves do not depend on how many rows are evaluated
together, so the results must be equal, not close.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from siphkit import bind, cli, make_builtin
from siphkit.decomposition import (TABLE_MIN_ROWS, UNIQUENESS_CV_TOL,
                                   ZERO_LEVEL_ATOL, DecompositionCheck,
                                   UniquenessReport, build_decomposition,
                                   uniqueness_check, verify_decomposition)
from siphkit.euler import (P_FLOOR_FRAC, PHI_STEP, EulerReport, _grad_mode,
                           _floored_box_points, euler_residual,
                           general_euler_residual)
from siphkit.gallery import random_si
from siphkit.field import FieldMeta, GradientSpec, ScalarField, row_sumsq
from siphkit.levelsets import (BoundsReport, SphereExtrema, _solve_level,
                               check_ph_sandwich, check_sandwiches,
                               check_si_sandwich, fold_projected_samples,
                               negligibility_probe, sphere_extrema)
from siphkit.rays import (BLOCK_ROWS, FEW_WITNESSES, MAX_WITNESSES,
                          SamplingPlan, SIReport, _order_reversals,
                          _structured_triples, check_scaling_invariance,
                          row_witnesses, sample_blocks)
from siphkit.reporting import jsonable

B = BLOCK_ROWS
SIZES = (1, B - 1, B, B + 1, 2 * B + 3)


def one_shot_triples(plan, n):
    rng = plan.rng()
    return (plan.box_points(n, rng=rng), plan.box_points(n, rng=rng),
            plan.rhos(rng=rng))


def one_shot_check_si(field, plan):
    """check_scaling_invariance with every triple evaluated at once."""
    sx, sy, srho = _structured_triples(field.n)
    X0, Y0, rho0 = one_shot_triples(plan, field.n)
    X, Y, rho = np.vstack([sx, X0]), np.vstack([sy, Y0]), np.concatenate([srho, rho0])
    (fx, fy, frx, fry), nan_rows, violating = _order_reversals(field, X, Y, rho)
    witnesses = []
    for idx in np.flatnonzero(nan_rows)[:MAX_WITNESSES]:
        witnesses.append({"kind": "non_finite", "x": X[idx].tolist(),
                          "y": Y[idx].tolist(), "rho": float(rho[idx])})
    for idx in np.flatnonzero(violating)[:MAX_WITNESSES]:
        witnesses.append({
            "kind": "order_violation",
            "x": X[idx].tolist(), "y": Y[idx].tolist(), "rho": float(rho[idx]),
            "f_x": float(fx[idx] + field.f_star), "f_y": float(fy[idx] + field.f_star),
            "f_rho_x": float(frx[idx] + field.f_star),
            "f_rho_y": float(fry[idx] + field.f_star)})
    violations = int(violating.sum() + nan_rows.sum())
    return SIReport(passed=violations == 0, trials=int(X.shape[0]),
                    violations=violations, witnesses=witnesses, seed=plan.seed)


def one_shot_negligibility_counts(field, c, eps, n_samples, box_radius, seed):
    rng = np.random.default_rng(seed)
    X = field.x_star + rng.uniform(-box_radius, box_radius,
                                   size=(n_samples, field.n))
    vals = field.values(X)
    return [int(np.count_nonzero(np.abs(vals - c) <= e)) for e in eps]


def one_shot_euler_residuals(p, alpha, plan, spec, coord_floor=0.1):
    Z = _floored_box_points(plan, p.n, coord_floor, plan.rng())
    X = p.x_star + Z
    vals = p.values(X)
    grads = p.gradient_values(X, spec)
    return np.abs(alpha * vals - np.einsum("ij,ij->i", grads, Z))


# ---------------------------------------------------------------------------
# the block stream


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("N", SIZES)
def test_triple_blocks_join_up_to_the_one_shot_draws(n, N):
    # the random triples of check si: box points of width n twice, then rho
    plan = SamplingPlan(n_samples=N, seed=42)
    blocks = list(sample_blocks(plan, n, n, (1, plan.rhos)))
    assert [X.shape for _, X, _, _ in blocks][:1] == [(min(N, B), n)]
    assert all(X.shape[0] <= B for _, X, _, _ in blocks)
    assert [(rows.start, rows.stop) for rows, *_ in blocks] == \
        [(k, min(k + B, N)) for k in range(0, N, B)]
    X, Y, rho = (np.concatenate(parts) for parts in list(zip(*blocks))[1:])
    for got, want in zip((X, Y, rho), one_shot_triples(plan, n)):
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# check si


def _log_x1():
    # far from the singular hyperplane x_1 = 0, so only a few large-rho
    # triples reach it: 26 non-finite rows at 2B+3 samples, 13 of them in
    # the first block
    return bind("log(x_1)", 2, x_star=[17.5, 0.0])


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("make", [lambda: make_builtin("sphere", 3),
                                  lambda: make_builtin("footnote_1d", 1),
                                  _log_x1],
                         ids=["sphere", "footnote_1d", "log_x1"])
def test_check_si_equals_one_shot(make, N):
    field = make()
    plan = SamplingPlan(n_samples=N, seed=0)
    assert jsonable(check_scaling_invariance(field, plan)) == \
        jsonable(one_shot_check_si(field, plan))


def test_check_si_cases_span_several_blocks():
    # the witness lists above are filled from more than one block
    plan = SamplingPlan(n_samples=2 * B + 3, seed=0)
    field = _log_x1()
    nrows = 3 * field.n - 1
    X, Y, rho = one_shot_triples(plan, field.n)
    _, nan_rows, _ = _order_reversals(field, X, Y, rho)
    idx = np.flatnonzero(nan_rows) + nrows
    assert idx.size > MAX_WITNESSES
    assert MAX_WITNESSES > np.count_nonzero(idx < nrows + B) > 0

    rep = check_scaling_invariance(make_builtin("footnote_1d", 1), plan)
    assert rep.violations > 2 * MAX_WITNESSES
    assert [w["kind"] for w in rep.witnesses] == ["order_violation"] * MAX_WITNESSES


def test_check_si_memory_is_bounded_by_the_block():
    field = make_builtin("sphere", 2)
    plan = SamplingPlan(n_samples=10 ** 6, seed=3)
    field.f_star
    bound = 32 * B * (field.n + 1) * 8
    # the bound is below a single whole-sample array of X and rho
    assert bound < plan.n_samples * (field.n + 1) * 8
    tracemalloc.start()
    try:
        rep = check_scaling_invariance(field, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.trials == plan.n_samples + 5 and rep.passed
    assert peak < bound


# ---------------------------------------------------------------------------
# negligibility and Euler residuals


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("name,n,level", [("sphere", 2, 1.0),
                                          ("gauss_si", 4, 0.5)])
def test_negligibility_counts_equal_one_shot(name, n, level, N):
    field = make_builtin(name, n)
    eps = (0.1, 0.05, 0.025)
    rep = negligibility_probe(field, level, eps,
                              plan=SamplingPlan(n_samples=N, seed=7))
    assert rep.counts == one_shot_negligibility_counts(field, level, eps, N,
                                                       2.0, 7)
    assert rep.n_samples == N


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("name,n,numerical", [("sphere", 2, False),
                                              ("norm", 3, True)])
def test_euler_residuals_equal_one_shot(name, n, numerical, N):
    p = make_builtin(name, n)
    spec = GradientSpec(force_numerical=numerical)
    plan = SamplingPlan(n_samples=N, seed=5)
    rep = euler_residual(p, p.meta.ph_degree, plan, spec)
    want = one_shot_euler_residuals(p, p.meta.ph_degree, plan, spec)
    assert want.shape == (N,)
    finite = want[np.isfinite(want)]
    assert rep.max_residual == finite.max()
    assert rep.mean_residual == finite.mean()
    assert rep.excluded == N - finite.size


def test_sample_blocks_join_up_to_the_one_shot_draws_of_each_stream():
    plan = SamplingPlan(n_samples=2 * B + 3, seed=8, box_radius=3.0)
    floored = (3, lambda rows, rng: _floored_box_points(plan, 3, 0.5, rng, rows))
    blocks = list(sample_blocks(plan, floored, (1, plan.rhos), 2))
    assert [len(b[1]) for b in blocks] == [B, B, 3]
    rng = plan.rng()
    want = (_floored_box_points(plan, 3, 0.5, rng), plan.rhos(rng=rng),
            plan.box_points(2, rng=rng))
    for got, ref in zip(list(zip(*blocks))[1:], want):
        np.testing.assert_array_equal(np.concatenate(got), ref)


def _nan_left_of(edge):
    # nan on the rare slab x_1 < edge of the [-2, 2] box
    return bind(f"norm(x)^2 + 0*sqrt(x_1 - ({edge}))", 2)


def test_euler_witnesses_fill_from_several_blocks():
    p = ScalarField(2, lambda X: np.where(X[:, 0] < -1.999, np.nan, 1.0)
                    * row_sumsq(X), vectorized=True)
    plan = SamplingPlan(n_samples=2 * B + 3, seed=10)
    rep = euler_residual(p, 2.0, plan, GradientSpec(force_numerical=True))
    Z = _floored_box_points(plan, 2, 0.1, plan.rng())
    bad = np.flatnonzero(Z[:, 0] < -1.999)
    assert FEW_WITNESSES > np.count_nonzero(bad < B) > 0 and bad.size > FEW_WITNESSES
    assert [w["x"] for w in rep.witnesses] == Z[bad[:FEW_WITNESSES]].tolist()
    assert rep.excluded == bad.size


def test_euler_residuals_none_finite_in_the_first_block_equal_one_shot():
    # finite only on the slab x_1 < -1.999 of the floored box, which no row
    # of the first block reaches and 4 later rows do
    p = ScalarField(2, lambda X: np.where(X[:, 0] < -1.999, 1.0, np.nan)
                    * row_sumsq(X), vectorized=True)
    plan = SamplingPlan(n_samples=2 * B + 3, seed=6)
    spec = GradientSpec(force_numerical=True)
    rep = euler_residual(p, 2.0, plan, spec)
    want = one_shot_euler_residuals(p, 2.0, plan, spec)
    finite = np.isfinite(want)
    assert not finite[:B].any() and np.count_nonzero(finite) == 4
    assert rep.max_residual == want[finite].max()
    assert rep.mean_residual == want[finite].mean()
    assert rep.excluded == plan.n_samples - 4


# ---------------------------------------------------------------------------
# decompose, the uniqueness check and verify general-euler


def one_shot_verify(field, d, plan):
    """verify_decomposition with every sample drawn at once, p solved in
    one call and f at every x_star + rho z read in one call."""
    rng = plan.rng()
    X = field.absolute(plan.box_points(field.n, rng=rng))
    rho = plan.rhos(rng=rng)
    p_vals = d.p_values(X)
    witnesses = list(d.solver_failures)
    # f where p read it, at x_star + (X - x_star)
    f = field.values(field.absolute(X - field.x_star))
    with np.errstate(invalid="ignore"):
        comp = np.abs(f - d.phi_values(p_vals))
    tiny = np.finfo(float).tiny
    with np.errstate(over="ignore", invalid="ignore"):
        scale = rho ** d.alpha
        expected = scale * p_vals
        # p, rho^alpha and their product finite and normal
        scaled = ((np.abs(p_vals) >= tiny) & (np.abs(scale) >= tiny)
                  & (np.abs(expected) >= tiny)
                  & np.isfinite(p_vals) & np.isfinite(scale)
                  & np.isfinite(expected)) | (d.case == "zero")
        f_rho = field.values(field.absolute(rho[:, None] * (X - field.x_star)))
        phi_rho = d.phi_values(np.where(scaled, expected, np.nan))
        ph = np.abs(f_rho - phi_rho) / (1.0 + np.abs(f_rho - field.f_star))
    witnesses += row_witnesses(np.isnan(comp), "non_finite", FEW_WITNESSES,
                               point=X)
    compared = (p_vals != 0) | (d.case == "zero")
    ok, ph_ok = compared & ~np.isnan(comp), scaled & ~np.isnan(ph)
    comp_max = float(comp[ok].max()) if ok.any() else np.nan
    ph_max = float(ph[ph_ok].max()) if ph_ok.any() else np.nan
    if not (comp_max <= 1e-7 and ph_max <= 1e-7):  # the default tolerances
        witnesses.append({"kind": "residual_exceeded",
                          "max_composition_residual": comp_max,
                          "max_ph_residual": ph_max,
                          "comp_tol": 1e-7, "ph_tol": 1e-7})
    return DecompositionCheck(
        max_composition_residual=comp_max, max_ph_residual=ph_max,
        n_samples=plan.n_samples, witnesses=witnesses, seed=plan.seed,
        p_samples=p_vals)


def one_shot_uniqueness(field, d1, d2, plan):
    X = field.absolute(plan.box_points(field.n))
    p1, p2 = d1.p_values(X), d2.p_values(X)
    if d1.case == "one-sided":
        labels = (("all", np.abs(p1) > 1e-9),)
    else:
        labels = (("positive", p1 > 1e-9), ("negative", p1 < -1e-9))
    classes, passed = {}, True
    for label, mask in labels:
        mask = mask & np.isfinite(p1)
        if not mask.any():
            continue
        mask &= (np.abs(p2) > 1e-9) & np.isfinite(p2)
        if not mask.any():
            classes[label] = {"ratio": np.nan, "cv": np.nan, "count": 0}
            passed = False
            continue
        ratios = p1[mask] / p2[mask]
        mean = float(ratios.mean())
        cv = float(ratios.std() / abs(mean)) if mean != 0 else np.inf
        classes[label] = {"ratio": mean, "cv": cv, "count": int(mask.sum())}
        passed &= cv <= UNIQUENESS_CV_TOL
    witnesses = d1.solver_failures + [{**w, "which": "alternate"}
                                      for w in d2.solver_failures]
    if not passed:
        witnesses.append({"kind": "uniqueness_violation", "classes": classes})
    return UniquenessReport(case=d1.case, classes=classes, passed=passed,
                            seed=plan.seed, witnesses=witnesses)


def one_shot_general_euler(field, d, plan, spec):
    Z = plan.box_points(field.n)
    X = field.absolute(Z)
    p_vals = d.p_values(X)
    finite = np.isfinite(p_vals)
    scale = np.abs(p_vals[finite]).max() if finite.any() else 0.0
    keep = finite & (np.abs(p_vals) >= P_FLOOR_FRAC * scale) & (p_vals != 0)
    pk = p_vals[keep]
    step = PHI_STEP * (1.0 + np.abs(pk))
    if d.case == "one-sided":
        step = np.minimum(step, 0.5 * pk)
    phi_prime = (d.phi_values(pk + step) - d.phi_values(pk - step)) / (2.0 * step)
    lhs = np.einsum("ij,ij->i", field.gradient_values(X[keep], spec), Z[keep])
    residuals = np.abs(lhs - d.alpha * phi_prime * pk)
    bad = ~finite
    bad[keep] = ~np.isfinite(residuals)
    finite = residuals[~bad[keep]]
    max_residual = float(finite.max()) if finite.size else np.nan
    witnesses = row_witnesses(bad, "non_finite", FEW_WITNESSES, x=X)
    if not max_residual <= 1e-4:  # the default tolerance
        witnesses.append({"kind": "general_euler_residual",
                          "max_residual": max_residual, "tol": 1e-4})
    return EulerReport(max_residual=max_residual,
                       mean_residual=float(finite.mean()) if finite.size else np.nan,
                       alpha=d.alpha, grad_mode=_grad_mode(field, spec), h=spec.h,
                       n_samples=int(keep.sum()), excluded=int((~keep).sum()),
                       seed=plan.seed,
                       notes={"phi_step": PHI_STEP, "p_floor_frac": P_FLOOR_FRAC},
                       witnesses=witnesses)


def _thin_cone():
    # p = x_1 - c |x|, positive only on a thin cone around e_1: 36 of the
    # first block's rows and 73 of 2B+3 rows, so the positive class reaches
    # TABLE_MIN_ROWS only over the whole sample
    field = bind("x_1 - 0.99984 * norm(x)", 2)
    return field, {"x1": [1.0, 0.0], "xm1": [-1.0, 0.0]}


def _needle():
    # |x| / 1e4 less the distance to the axis u at the angle 1.1105, and 0
    # off that thin cone: at seed 3 it holds no row of the first block but
    # rows B and 15,358, so p = 0 and no residual is taken on the first
    # block
    u0, u1 = np.cos(1.1105), np.sin(1.1105)

    def f(X):
        off = np.abs(X[:, 0] * u1 - X[:, 1] * u0)
        return np.where(X[:, 0] * u0 + X[:, 1] * u1 > 0,
                        np.maximum(1e-4 * np.sqrt(row_sumsq(X)) - off, 0.0), 0.0)
    return ScalarField(2, f, vectorized=True), {"x0": [u0, u1]}


_DECOMPOSE_CASES = {
    "sphere": lambda: (make_builtin("sphere", 3), {}),
    "gauss_si": lambda: (make_builtin("gauss_si", 4), {}),
    "linear_x1": lambda: (make_builtin("linear_x1", 3), {}),
    "random_si": lambda: (random_si(3, 3), {}),
    "thin_cone": _thin_cone,
    "nan_slab": lambda: (_nan_left_of(-1.9985), {"x0": [1.0, 0.0]}),
    "needle": _needle,
}


def _decompositions(case, plan, **alpha):
    field, refs = _DECOMPOSE_CASES[case]()
    return field, (build_decomposition(field, plan=plan, **refs, **alpha)
                   for _ in range(2))


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("case", sorted(_DECOMPOSE_CASES))
def test_verify_decomposition_equals_one_shot(case, N):
    plan = SamplingPlan(n_samples=N, seed=3)
    field, (d, ref) = _decompositions(case, plan, alpha=2.0)
    got, want = verify_decomposition(field, d, plan), one_shot_verify(field, ref, plan)
    assert got.p_samples.tobytes() == want.p_samples.tobytes()
    assert jsonable(got) == jsonable(want)
    assert d.solver_failures == ref.solver_failures


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("case,alt", [
    ("gauss_si", {"x0": [1.0, 0.2, -0.4, 0.1]}),
    ("linear_x1", {"x1": [2.0, 0.0, 0.0], "xm1": [-3.0, 0.1, 0.0]}),
    ("thin_cone", {"x1": [2.0, 0.0], "xm1": [0.0, -1.0]}),
])
def test_uniqueness_check_equals_one_shot(case, alt, N):
    plan = SamplingPlan(n_samples=N, seed=4)
    field, (d1, ref1) = _decompositions(case, plan)
    d2, ref2 = (build_decomposition(field, plan=plan, **alt) for _ in range(2))
    want = jsonable(one_shot_uniqueness(field, ref1, ref2, plan))
    assert jsonable(uniqueness_check(field, d1, d2, plan)) == want
    p1 = verify_decomposition(field, d1, plan).p_samples
    # d1's failures are listed by the call that solves p1
    want["witnesses"] = want["witnesses"][len(ref1.solver_failures):]
    assert jsonable(uniqueness_check(field, d1, d2, plan, p1=p1)) == want
    assert d2.solver_failures == ref2.solver_failures


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("case", ["sphere", "gauss_si", "linear_x1", "nan_slab"])
def test_general_euler_equals_one_shot(case, N):
    plan = SamplingPlan(n_samples=N, seed=6)
    field, (d, ref) = _decompositions(case, plan)
    spec = GradientSpec()
    assert jsonable(general_euler_residual(field, d, plan, spec)) == \
        jsonable(one_shot_general_euler(field, ref, plan, spec))


def test_decompose_cases_span_several_blocks():
    plan = SamplingPlan(n_samples=2 * B + 3, seed=3)
    X = plan.box_points(2)
    # the thin cone's positive class is small in the first block only
    g = _thin_cone()[0].values(X)
    assert np.count_nonzero(g[:B] > 0) < TABLE_MIN_ROWS <= np.count_nonzero(g > 0)
    # the nan slab's non_finite witnesses come from both blocks
    field, (d, _) = _decompositions("nan_slab", plan)
    slab = np.flatnonzero(X[:, 0] < -1.9985)
    assert FEW_WITNESSES > np.count_nonzero(slab < B) > 0
    assert [w["point"] for w in verify_decomposition(field, d, plan).witnesses] \
        == X[slab[:FEW_WITNESSES]].tolist()
    # the needle's first block has p = 0 on every row, and row B has not
    field, (d, _) = _decompositions("needle", plan, alpha=2.0)
    p = verify_decomposition(field, d, plan).p_samples
    assert not p[:B].any() and p[B] > 0


def _saturating_cone():
    # x_1, but 0.5 tanh(x_1) on a thin cone around -e_2: there the rays of
    # both sign classes never reach the reference levels +-1, about 9 rows
    # of each class per block
    def f(X):
        r = np.sqrt(row_sumsq(X))
        with np.errstate(invalid="ignore"):
            cone = X[:, 1] < -0.99999 * r
        return np.where(cone, 0.5 * np.tanh(X[:, 0]), X[:, 0])
    return ScalarField(2, f, vectorized=True)


def test_solver_failures_are_listed_class_by_class_in_row_order():
    field = _saturating_cone()
    plan = SamplingPlan(n_samples=2 * B + 3, seed=3)
    d, ref = (build_decomposition(field, plan=plan, x1=[1.0, 0.0],
                                  xm1=[-1.0, 0.0]) for _ in range(2))
    check = verify_decomposition(field, d, plan)
    want = one_shot_verify(field, ref, plan)
    assert check.witnesses == want.witnesses
    failed = [w for w in check.witnesses if w["kind"] == "unbounded_ray"]
    signs = [np.sign(w["point"][0]) for w in failed]
    assert len(failed) == MAX_WITNESSES
    # every failure of the positive class, from both blocks, then the first
    # of the negative class
    X = plan.box_points(2)
    cone = np.flatnonzero(X[:, 1] < -0.99999 * np.sqrt(row_sumsq(X)))
    positive = cone[X[cone, 0] > 0]
    assert np.count_nonzero(positive < B) > 0 and positive[-1] >= B
    assert signs == [1.0] * positive.size + [-1.0] * (MAX_WITNESSES - positive.size)


def test_a_p_values_call_between_blocks_is_solved_on_its_own():
    # one Decomposition: a p_values call made while a p_blocks sample is
    # half solved neither joins the sample's failures nor takes its table
    # choice, and each sets solver_failures as it does alone
    field = make_builtin("linear_x1", 3)
    plan = SamplingPlan(n_samples=2 * B + 3, seed=3)
    d, alone = (build_decomposition(field, plan=plan) for _ in range(2))
    assert d.case == "two-sided"
    # a few rows, fewer than TABLE_MIN_ROWS: no table alone; the last two
    # never reach the reference levels
    X = np.vstack([field.absolute(plan.box_points(3, 9)),
                   [[1e-300, 1.0, 0.0], [-1e-300, 0.0, 0.0]]])
    want_p = alone.p_values(X)
    want_failures = alone.solver_failures
    assert [w["kind"] for w in want_failures] == ["unbounded_ray"] * 2

    def points():
        return ((rows, field.absolute(Z))
                for rows, Z in sample_blocks(plan, 3))
    want_sample = [p for _, p, _ in alone.p_blocks(plan.n_samples, points)]
    want_sample_failures = alone.solver_failures

    got_sample = []
    for k, (_, p, _) in enumerate(d.p_blocks(plan.n_samples, points)):
        got_sample.append(p)
        if k == 0:
            assert d.p_values(X).tobytes() == want_p.tobytes()
            assert d.solver_failures == want_failures
    assert len(got_sample) == 3
    for got, want in zip(got_sample, want_sample):
        assert got.tobytes() == want.tobytes()
    assert d.solver_failures == want_sample_failures


# ---------------------------------------------------------------------------
# levelset bounds: the fold, then both sandwiches in one pass


def one_shot_nonzero(plan, n):
    X0 = plan.box_points(n)
    r = np.sqrt(row_sumsq(X0))
    return X0[r > 0], r[r > 0]


def one_shot_fold(field, plan, ext):
    X0, r = one_shot_nonzero(plan, field.n)
    U0 = X0 / r[:, None]
    vals = field.values(field.absolute(U0))
    finite = np.isfinite(vals)
    below, above = finite & (vals < ext.m), finite & (vals > ext.M)
    ext = replace(ext, samples_below_polished_min=int(below.sum()),
                  samples_above_polished_max=int(above.sum()))
    if below.any():
        i = int(np.argmin(np.where(below, vals, np.inf)))
        ext = replace(ext, m=float(vals[i]), argmin=U0[i])
    if above.any():
        i = int(np.argmax(np.where(above, vals, -np.inf)))
        ext = replace(ext, M=float(vals[i]), argmax=U0[i])
    return ext


def one_shot_ph(p, alpha, m_p, M_p, plan, rtol):
    X0, r = one_shot_nonzero(plan, p.n)
    vals = p.values(p.absolute(X0))
    lower, upper = m_p * r ** alpha, M_p * r ** alpha
    slack = rtol * (1.0 + np.abs(upper))
    finite = np.isfinite(vals)
    witnesses = row_witnesses(~finite, "non_finite", FEW_WITNESSES, x=X0)
    for kind, bad in (("nonpositive_p", finite & (vals <= 0)),
                      ("lower_bound", finite & (vals < lower - slack)),
                      ("upper_bound", finite & (vals > upper + slack))):
        witnesses += row_witnesses(bad, kind, x=X0, p=vals, lower=lower,
                                   upper=upper)
    return BoundsReport(verdict="fail" if witnesses else "pass", m=m_p, M=M_p,
                        witnesses=witnesses, n_samples=len(r), seed=plan.seed,
                        notes={"alpha": alpha, "rtol": rtol})


def one_shot_si(field, d, plan, slack, ext):
    """check_si_sandwich's judgement of every sample at once, given that
    its preconditions hold; returns the witnesses."""
    q = d.p_values(field.absolute(np.array([ext.argmin, ext.argmax]))) ** (1 / d.alpha)
    zero_band = ZERO_LEVEL_ATOL * (1.0 + abs(field.f_star))
    m_hat = 0.0 if ext.m - field.f_star <= zero_band else float(q[0])
    M_hat = float(q[1])
    x0 = d.positive_ref.point

    def phi1(t):
        return field.values(field.absolute(t[:, None] * x0))

    X0, r = one_shot_nonzero(plan, field.n)
    f_vals = field.values(field.absolute(X0))
    lower, upper = phi1(m_hat * r), phi1(M_hat * r)
    band = slack * (1.0 + np.abs(f_vals))
    finite = np.isfinite(f_vals)
    witnesses = row_witnesses(~finite, "non_finite", FEW_WITNESSES, x=X0)
    for kind, bad in (("lower_bound", finite & (f_vals < lower - band)),
                      ("upper_bound", finite & (f_vals > upper + band))):
        witnesses += row_witnesses(bad, kind, x=X0, f=f_vals, lower=lower,
                                   upper=upper)
    for rho in (0.5 * plan.box_radius, plan.box_radius):
        cap = float(phi1(np.array([rho * M_hat]))[0])
        bad = finite & (r < rho) & (f_vals > cap + slack * (1.0 + abs(cap)))
        witnesses += row_witnesses(bad, "ball_inclusion", FEW_WITNESSES,
                                   rho=rho, x=X0, f=f_vals, cap=cap)
    levels = f_vals[finite][:8]
    D = np.broadcast_to(x0, (levels.size, field.n))
    for c, t_c in zip(levels, _solve_level(field, D, levels, True).t):
        if np.isnan(t_c):
            continue
        radius = float(t_c) / m_hat
        bad = finite & (f_vals <= c) & (r > radius * (1.0 + slack) + slack)
        witnesses += row_witnesses(bad, "ball_cover", FEW_WITNESSES,
                                   level=float(c), x=X0, norm=r,
                                   ball_radius=radius)
    return witnesses


def _far_slab():
    # |x|^2, halved on the slab x_1 > 1.994 of the box, which no unit
    # point reaches: both sandwiches fail there, at about 10 rows a block.
    # The rays that cross the slab are not monotone, so x0 is given
    field = ScalarField(2, lambda X: np.where(X[:, 0] > 1.994, 0.5, 1.0)
                        * row_sumsq(X), vectorized=True,
                        meta=FieldMeta(name="far_slab", ph_degree=2.0))
    return field, {"x0": [0.0, 1.0]}


_SANDWICH_CASES = {
    "sphere": lambda: (make_builtin("sphere", 3), {}),
    "half_norm": lambda: (make_builtin("half_norm", 2), {}),
    "far_slab": _far_slab,
    "nan_slab": lambda: (_nan_left_of(-1.99), {}),
}


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("case", sorted(_SANDWICH_CASES))
def test_sandwiches_equal_one_shot(case, N):
    field, refs = _SANDWICH_CASES[case]()
    plan = SamplingPlan(n_samples=N, seed=2)
    d = build_decomposition(field, plan=plan, alpha=2.0, **refs)
    raw = sphere_extrema(field, seed=plan.seed)
    ext = fold_projected_samples(field, plan, raw)
    assert jsonable(ext) == jsonable(one_shot_fold(field, plan, raw))
    degree = field.meta.ph_degree
    # the sandwiches fold the same extrema themselves
    si, ph = check_sandwiches(field, d, plan, slack=1e-4, degree=degree,
                              rtol=1e-9)
    assert si.verdict != "precondition-failed"
    assert si.witnesses == one_shot_si(field, d, plan, 1e-4, ext)
    assert si.n_samples == len(one_shot_nonzero(plan, field.n)[1])
    assert jsonable(check_si_sandwich(field, d, plan)) == jsonable(si)
    if degree is None:
        assert ph is None
        return
    want = one_shot_ph(field, degree, ext.m, ext.M, plan, 1e-9)
    assert jsonable(ph) == jsonable(replace(
        want, notes={**want.notes, **ext.polish_notes()}))
    assert jsonable(check_ph_sandwich(field, degree, ext.m, ext.M, plan)) == \
        jsonable(want)


def test_sandwich_witnesses_fill_from_several_blocks():
    field, refs = _far_slab()
    plan = SamplingPlan(n_samples=2 * B + 3, seed=2)
    X0 = plan.box_points(2)
    slab = np.flatnonzero(X0[:, 0] > 1.994)
    assert MAX_WITNESSES > np.count_nonzero(slab < B) > 0
    assert slab.size > MAX_WITNESSES
    d = build_decomposition(field, plan=plan, alpha=2.0, **refs)
    si, ph = check_sandwiches(field, d, plan, degree=2.0)
    for rep in (si, ph):
        lower = [w["x"] for w in rep.witnesses if w["kind"] == "lower_bound"]
        assert lower == X0[slab[:MAX_WITNESSES]].tolist()


def _rare_strip():
    # |x|^2 on the strip |x_2| < 0.0025 of x_1 >= 0, nan elsewhere: about
    # 6 finite samples per block; x_star and (1, 0) are on the strip
    def f(X):
        strip = (np.abs(X[:, 1]) < 0.0025) & (X[:, 0] >= 0)
        return np.where(strip, row_sumsq(X), np.nan)
    return ScalarField(2, f, vectorized=True)


def test_ball_cover_levels_are_the_first_finite_sample_values():
    field = _rare_strip()
    plan = SamplingPlan(n_samples=2 * B + 3, seed=2)
    X0, _ = one_shot_nonzero(plan, 2)
    f = field.values(X0)
    finite = np.flatnonzero(np.isfinite(f))
    assert np.count_nonzero(finite < B) < 8 <= finite.size
    d = build_decomposition(field, plan=plan, x0=[1.0, 0.0])
    # q = |x| = 2 at the given minimum: each level's ball is half its true
    # radius, so every level has ball_cover witnesses
    ext = SphereExtrema(m=1.0, M=1.0, argmin=np.array([2.0, 0.0]),
                        argmax=np.array([1.0, 0.0]), n_samples=0,
                        refine_steps=0)
    si, _ = check_sandwiches(field, d, plan, extrema=ext)
    assert si.m == 2.0
    assert si.witnesses == one_shot_si(field, d, plan, 1e-4, ext)
    levels = [w["level"] for w in si.witnesses if w["kind"] == "ball_cover"]
    assert sorted(set(levels)) == sorted(f[finite[:8]].tolist())


# ---------------------------------------------------------------------------
# memory: one block of samples, plus the per-row columns a probe names


N_BIG = 10 ** 6
# the working set of one block of rows: its arrays of n + 1 columns
BLOCK_BYTES = 32 * B * (2 + 1) * 8
COLUMN = N_BIG * 8  # one float64 per sample


def _peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_euler_memory_is_the_block():
    p = make_builtin("sphere", 2)
    p.f_star
    rep, peak = _peak(lambda: euler_residual(p, 2.0, SamplingPlan(
        n_samples=N_BIG, seed=3)))
    assert rep.n_samples == N_BIG and rep.max_residual < 1e-10
    # below one whole-sample array of the points, or of the residuals
    assert peak < BLOCK_BYTES < COLUMN < N_BIG * 2 * 8


def test_general_euler_memory_is_the_block_and_one_column():
    field = make_builtin("sphere", 2)
    d = build_decomposition(field, alpha=2.0)
    rep, peak = _peak(lambda: general_euler_residual(field, d, SamplingPlan(
        n_samples=N_BIG, seed=3)))
    assert rep.n_samples + rep.excluded == N_BIG
    # p in one column, which the floor needs; no residual is kept
    assert peak < BLOCK_BYTES + COLUMN


def test_decompose_memory_is_the_block_and_its_columns():
    field = make_builtin("sphere", 2)
    plan = SamplingPlan(n_samples=N_BIG, seed=3)
    d1 = build_decomposition(field, alpha=2.0, plan=plan)
    d2 = build_decomposition(field, alpha=2.0, plan=plan, x0=[0.3, -0.7])

    def run():
        check = verify_decomposition(field, d1, plan)
        return check, uniqueness_check(field, d1, d2, plan, p1=check.p_samples)
    (check, uq), peak = _peak(run)
    assert check.max_composition_residual < 1e-7 and uq.passed
    # p(X), the ratios of the one class, and their spread's deviations
    assert peak < BLOCK_BYTES + 3 * COLUMN


def test_levelset_bounds_memory_is_the_block():
    field = make_builtin("sphere", 2)
    plan = SamplingPlan(n_samples=N_BIG, seed=3)
    d = build_decomposition(field, alpha=2.0, plan=plan)

    (si, ph), peak = _peak(lambda: check_sandwiches(field, d, plan, degree=2.0))
    assert si.passed and ph.passed and si.n_samples == N_BIG
    assert peak < BLOCK_BYTES < N_BIG * 2 * 8


# ---------------------------------------------------------------------------
# the command line: p = 0 everywhere, and rays that jump over the level


def _cli(capsys, argv):
    code = cli.main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_decompose_where_every_p_is_zero_fails(capsys):
    # every value underflows to f(x_star): p = 0 on every sample, and a
    # field that is not SI has nothing to be compared with
    code, doc = _cli(capsys, ["decompose", "--expr", "x_1^2 + x_2^4", "--n", "2",
                              "--box-radius", "1e-300", "--N", "200"])
    assert code == 1
    m = doc["metrics"]
    assert m["max_composition_residual"] == m["max_ph_residual"] == "nan"
    assert [w["kind"] for w in doc["witnesses"]] == ["residual_exceeded"]


def test_samples_with_p_zero_enter_neither_residual():
    # piecewise_ph is 0 off its cone: those samples are not compared
    field = make_builtin("piecewise_ph", 2)
    plan = SamplingPlan(n_samples=1, seed=6)
    x = field.absolute(plan.box_points(2))
    assert field.values(x)[0] == 0.0
    check = verify_decomposition(field, build_decomposition(field, plan=plan),
                                 plan)
    assert np.isnan(check.max_composition_residual)
    assert np.isnan(check.max_ph_residual)


def test_a_ray_that_jumps_over_the_level_is_discontinuous(capsys):
    # tanh_exp jumps from f(x_star) = 0 to above 2 as x_1 turns negative:
    # no point of those rays is on the level 0.5
    code, doc = _cli(capsys, ["levelset", "radii", "--gallery", "tanh_exp",
                              "--n", "2", "--level", "0.5", "--directions", "16"])
    assert code == 1
    radii = doc["metrics"]["radii"]
    jumps = [r for r in radii if r["status"] == "discontinuous"]
    assert len(jumps) == 11
    assert all(r["radius"] == r["residual"] == "nan" for r in jumps)
    assert all(r["direction"][0] < 0 for r in jumps)
    ok = [r for r in radii if r["status"] == "ok"]
    assert all(r["radius"] > 0 and r["residual"] <= 1e-8 for r in ok)
    assert [w["kind"] for w in doc["witnesses"]] == ["discontinuous_ray"] * 11
    # verify levelset-grad skips those rays instead of taking x_star
    code, doc = _cli(capsys, ["verify", "levelset-grad", "--gallery", "tanh_exp",
                              "--n", "2", "--level", "0.5"])
    assert 0 < doc["metrics"]["skipped"] < doc["metrics"]["n_points"]
