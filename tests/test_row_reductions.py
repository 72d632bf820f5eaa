"""Tests for the batch row reductions and the cached reference shift.

``row_sum`` and ``row_sumsq`` must give the bits of ``np.sum(..., axis=-1)``
and ``np.linalg.norm(..., axis=-1)`` on every shape, since reports are
compared byte for byte.  Their column loop reproduces numpy's pairwise
summation order; if a numpy release changes that order, the comparisons on
shapes that take the loop fail here.
"""

import numpy as np
import pytest

from siphkit import field as field_mod
from siphkit.cli import _parse_vector
from siphkit.exprlang import bind
from siphkit.field import GradientSpec, row_sum, row_sumsq
from siphkit.gallery import make_builtin, random_si, saddle_profile

SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310,
                     1e154, -3e154, 1.0])
# both row thresholds, one below and one above each, and a large batch
ROW_COUNTS = (1, 255, 256, 257, 2047, 2048, 2049, 30_000)
WIDTHS = list(range(1, 41)) + [127, 128, 129, 130]


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _hard_batch(rng, rows, n, specials=SPECIALS, decades=300):
    """Wide-range values with nan, +-inf, -0.0, subnormals and entries whose
    squares overflow (the ``specials`` and magnitudes up to 10^``decades``);
    the first rows are all -0.0."""
    A = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-decades, decades,
                                                          size=(rows, n))
    special = rng.random((rows, n)) < 0.15
    A[special] = rng.choice(specials, size=int(special.sum()))
    A[: max(rows // 7, 1)] = -0.0
    return A


@pytest.mark.parametrize("n", WIDTHS)
def test_row_reductions_give_numpys_bits(n):
    rng = np.random.default_rng(n)
    for rows in ROW_COUNTS:
        if rows == 30_000 and n > 40:
            continue
        A = _hard_batch(rng, rows, n)
        with np.errstate(all="ignore"):
            assert _same_bits(row_sum(A), np.sum(A, axis=-1)), (rows, n)
            assert _same_bits(row_sumsq(A), np.sum(A * A, axis=-1)), (rows, n)
            assert _same_bits(np.sqrt(row_sumsq(A)),
                              np.linalg.norm(A, axis=-1)), (rows, n)


@pytest.mark.parametrize("n", range(1, 16))
def test_column_order_is_numpys_pairwise_order(n):
    # the order model itself, below the row thresholds that gate it
    rng = np.random.default_rng(100 + n)
    A = _hard_batch(rng, 40, n)
    with np.errstate(all="ignore"):
        assert _same_bits(field_mod._column_sum(A), np.sum(A, axis=-1))


def test_the_column_loop_runs_on_narrow_batches_of_many_rows(monkeypatch):
    # the comparisons above only pin numpy's order where the loop runs
    calls = []
    original = field_mod._column_sum
    monkeypatch.setattr(field_mod, "_column_sum",
                        lambda A: calls.append(A.shape) or original(A))
    for rows, n in ((255, 2), (256, 2), (256, 7), (2047, 8), (2048, 8),
                    (2048, 15), (8192, 16), (8192, 0)):
        row_sum(np.ones((rows, n)))
    assert calls == [(256, 2), (256, 7), (2048, 8), (2048, 15)]


def test_other_layouts_and_shapes_go_to_numpy():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(4096, 9)) * 10.0 ** rng.integers(-20, 20, size=(4096, 9))
    for B in (np.asfortranarray(A), A[:, ::2], A[::2], A[:, :5]):
        assert _same_bits(row_sum(B), np.sum(B, axis=-1))
        assert _same_bits(row_sumsq(B), np.sum(B * B, axis=-1))
    v = A[0]
    assert _same_bits(row_sum(v), np.sum(v, axis=-1))
    assert _same_bits(row_sum(A[None]), np.sum(A[None], axis=-1))
    assert row_sum(np.zeros((300, 0))).tolist() == [0.0] * 300
    ints = np.arange(600).reshape(300, 2)
    assert row_sum(ints).dtype == np.sum(ints, axis=-1).dtype


# ---------------------------------------------------------------------------
# gallery and expression fields against the formulas they replaced


def _old_half_norm(X):
    return np.sum(np.sqrt(np.abs(X)), axis=-1) ** 2


OLD_VALUES = {
    "sphere": lambda X: np.sum(X * X, axis=-1),
    "sq_norm": lambda X: np.sum(X * X, axis=-1),
    "norm": lambda X: np.linalg.norm(X, axis=-1),
    "half_norm": _old_half_norm,
    "gauss_si": lambda X: np.exp(-np.sum(X * X, axis=-1)),
    "saddle_si": lambda X: saddle_profile(np.sum(X * X, axis=-1)),
}


def _old_norm_grad(X):
    r = np.linalg.norm(X, axis=-1, keepdims=True)
    return np.where(r > 0, X / r, 0.0)


def _old_half_norm_grad(X):
    s = np.sum(np.sqrt(np.abs(X)), axis=-1, keepdims=True)
    return s * np.sign(X) / np.sqrt(np.abs(X))


OLD_GRADS = {
    "norm": _old_norm_grad,
    "half_norm": _old_half_norm_grad,
    "saddle_si": lambda X: 2.0 * (np.sin(np.sum(X * X, axis=-1)) ** 2)[..., None] * X,
}


def _batch(n, rows=30_000, seed=3):
    X = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(rows, n))
    X[:5] = 0.0
    X[5, 0] = -0.0
    return X


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 10, 15, 16])
@pytest.mark.parametrize("name", sorted(OLD_VALUES))
def test_gallery_entries_evaluate_like_the_old_formulas(name, n):
    f = make_builtin(name, n)
    X = _batch(n)
    with np.errstate(all="ignore"):
        assert _same_bits(f.values(X), OLD_VALUES[name](X))
        if name in OLD_GRADS:
            assert _same_bits(f.gradient_values(X), OLD_GRADS[name](X))


@pytest.mark.parametrize("n", [2, 3, 10])
def test_norm_expression_evaluates_like_numpys_norm(n):
    X = _batch(n)
    assert _same_bits(bind("norm(x)", n).values(X), np.linalg.norm(X, axis=1))


@pytest.mark.parametrize("n", [2, 3, 10])
def test_random_si_evaluates_like_numpy_reductions(n):
    # below the row thresholds every reduction is np.sum itself
    f = random_si(5, n)
    X = _batch(n)
    pieces = [f.values(X[i:i + 200]) for i in range(0, X.shape[0], 200)]
    assert _same_bits(f.values(X), np.concatenate(pieces))
    assert _same_bits(f.ph_part.values(X),
                      np.concatenate([f.ph_part.values(X[i:i + 200])
                                      for i in range(0, X.shape[0], 200)]))


def _finite_hard_batch(rng, rows, n):
    """A hard batch without nan, infinities or overflowing squares."""
    return _hard_batch(rng, rows, n, SPECIALS[3:7], 150)


ELLIPSOID_PARAMS = {
    "default": lambda n: {},
    "diag": lambda n: {"diag": 0.5 + np.arange(n)},
    "diagonal-matrix": lambda n: {"matrix": np.diag(np.linspace(0.3, 7.0, n))},
}


@pytest.mark.parametrize("n", range(1, 17))
@pytest.mark.parametrize("params", sorted(ELLIPSOID_PARAMS))
def test_the_diagonal_ellipsoid_has_the_matrix_products_bits(params, n):
    # x' A x as two einsum steps through the matrix, on every row, nan rows
    # included: a row with an infinite coordinate is nan through inf * 0
    f = make_builtin("ellipsoid", n, **ELLIPSOID_PARAMS[params](n))
    A = np.asarray(f.meta.notes["matrix"])
    rng = np.random.default_rng(200 + n)
    for rows in (1, 7, 256, 3000):
        for X in (_hard_batch(rng, rows, n), _finite_hard_batch(rng, rows, n)):
            with np.errstate(all="ignore"):
                want = np.einsum("...j,...j->...",
                                 np.einsum("...i,ij->...j", X, A), X)
                assert _same_bits(f.values(X), want), rows


def test_a_diagonal_matrix_takes_the_diagonal_product():
    # 2 A x keeps a -0.0 coordinate's sign, which the einsum through the
    # matrix turns into +0.0
    d = np.array([0.5, 2.0, 3.0])
    X = _finite_hard_batch(np.random.default_rng(5), 500, 3)
    for f in (make_builtin("ellipsoid", 3, diag=d),
              make_builtin("ellipsoid", 3, matrix=np.diag(d))):
        assert _same_bits(f.gradient_values(X), 2.0 * (X * d))
    assert np.signbit(f.gradient_values(X[:1])).all()
    assert np.isnan(f.value([np.inf, 1.0, 0.0]))
    assert make_builtin("ellipsoid", 1).value([np.inf]) == np.inf


def _masked_random_si(seed, n, eps=0.3, modes=4):
    """p and f of ``random_si(seed, n, eps, modes)`` in the form p had when it
    evaluated only the rows with r > 0, through a mask, and filled the
    others with 0 or nan."""
    rng = np.random.default_rng(seed)
    waves = rng.normal(size=(modes, n))
    waves /= np.sqrt(row_sumsq(waves))[:, None]
    freqs = rng.integers(1, modes + 1, size=modes).astype(float)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=modes)
    weights = rng.uniform(0.5, 1.0, size=modes)

    def p(X):
        r = np.sqrt(row_sumsq(X))
        out = np.zeros_like(r)
        out[np.isnan(r)] = np.nan
        mask = r > 0
        if mask.any():
            args = freqs * np.einsum("ij,kj->ik", X[mask] / r[mask, None], waves) + phases
            g = np.einsum("ij,j->i", np.sin(args), weights) / weights.sum()
            out[mask] = r[mask] * (1.0 + eps * g)
        return out

    b = rng.uniform(-1.0, 1.0, size=3)
    omega = rng.uniform(0.5, 1.5)
    psi = rng.uniform(0.0, 2.0 * np.pi, size=3)
    j = np.arange(1.0, 4.0)

    def f(X):
        t = p(X)
        osc = np.einsum("...j,j->...", np.sin(j * omega * t[..., None] + psi)
                        - np.sin(psi), b / (j * omega))
        return (0.25 + np.abs(b).sum()) * t + osc

    return p, f


@pytest.mark.parametrize("n", range(1, 12))
def test_random_si_keeps_the_bits_of_its_masked_form(n):
    rng = np.random.default_rng(300 + n)
    for seed in (1, 2, 3):
        field = random_si(seed, n)
        p, f = _masked_random_si(seed, n)
        for rows in (1, 7, 256, 3000):
            for X in (_hard_batch(rng, rows, n), _batch(n, 3000, seed)[:rows]):
                X[-1] = 0.0
                X[rows // 2] = np.nan
                with np.errstate(all="ignore"):
                    assert _same_bits(field.ph_part.values(X), p(X)), rows
                    assert _same_bits(field.values(X), f(X)), rows


@pytest.mark.parametrize("n", [2, 10])
def test_central_difference_steps_match_numpys_norm(n):
    f = make_builtin("norm", n)
    spec = GradientSpec(force_numerical=True)
    X = _batch(n, rows=4096)
    h = spec.h * (1.0 + np.linalg.norm(X, axis=1))
    G = np.empty_like(X)
    for i in range(n):
        step = np.zeros_like(X)
        step[:, i] = h
        G[:, i] = (f.values(X + step) - f.values(X - step)) / (2.0 * h)
    assert _same_bits(f.gradient_values(X, spec), G)


# ---------------------------------------------------------------------------
# the cached reference shift


@pytest.mark.parametrize("x_star", [[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0],
                                    [0.5, -1.25], [np.nan, 0.0]])
def test_absolute_points_and_shifted_values_match_the_vector_add(x_star):
    f = bind("x_1", 2, x_star=x_star)
    Z = _batch(2, rows=3000)
    Z[6] = -0.0
    Z[7] = [-0.0, 0.0]
    want = Z + f.x_star
    assert _same_bits(f.absolute(Z), want)
    assert _same_bits(f.values(f.absolute(Z)), want[:, 0])
    with np.errstate(invalid="ignore"):
        assert _same_bits(f.shifted_values(Z), f.values(want) - f.f_star)


def test_the_scalar_shift_serves_the_origin_only():
    assert bind("x_1", 2)._shift == 0.0
    assert make_builtin("sphere", 3)._shift == 0.0
    # a -0.0 entry, as parsed from --x-star=-0,-0, keeps the vector add
    negative_zero = bind("x_1", 2, x_star=_parse_vector("-0,-0"))
    assert np.signbit(negative_zero._shift).all()
    assert isinstance(bind("x_1", 2, x_star=[0.5, 0.0])._shift, np.ndarray)
    f = bind("x_1", 2, x_star=[-0.0, -0.0])
    # -0.0 + -0.0 keeps its sign; the scalar +0.0 would not
    assert np.signbit(f.values(f.absolute(np.array([[-0.0, 1.0]])))[0])
