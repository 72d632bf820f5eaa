"""Block-wise Monte Carlo probes against one-shot references.

``check_scaling_invariance``, ``negligibility_probe`` and ``euler_residual``
draw and evaluate their samples in blocks of ``rays.BLOCK_ROWS`` rows.  The
references below are the one-shot forms they replaced: they draw every sample
at once and evaluate it in one field call.  Field values do not depend on how
many rows are evaluated together, so the results must be equal, not close.
"""

import tracemalloc

import numpy as np
import pytest

from siphkit import bind, make_builtin
from siphkit.euler import _floored_box_points, euler_residual
from siphkit.field import GradientSpec
from siphkit.levelsets import negligibility_probe
from siphkit.rays import (BLOCK_ROWS, MAX_WITNESSES, SamplingPlan, SIReport,
                          _order_reversals, _structured_triples,
                          check_scaling_invariance, triple_blocks)
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
    plan = SamplingPlan(n_samples=N, seed=42)
    blocks = list(triple_blocks(plan, n))
    assert [X.shape for X, _, _ in blocks][:1] == [(min(N, B), n)]
    assert all(X.shape[0] <= B for X, _, _ in blocks)
    X, Y, rho = (np.concatenate(parts) for parts in zip(*blocks))
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
