"""Built-in benchmark fields with ground-truth tags, composition, and a seeded
random generator of scaling-invariant fields.

Every entry is vectorized over (N, n) batches and anchored at the origin.
Ground-truth tags record what is actually true of each field (scaling
invariance, homogeneity degree, decomposability, compactness of sublevel sets,
regularity) so that probes can be validated against known answers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
# scipy.special loads on first use, in logsq_si only; perfbench reads scipy's version
import scipy

from .field import FieldMeta, ScalarField, row_sum, row_sumsq


# ---------------------------------------------------------------------------
# builders


def _sq_norm(n: int) -> ScalarField:
    meta = FieldMeta(declared_si=True, ph_degree=2.0, decomposable=True,
                     compact_sublevel=True, differentiable=True, continuous=True)
    return ScalarField(
        n, row_sumsq,
        grad=lambda X: 2.0 * X,
        vectorized=True, meta=meta)


def _norm(n: int) -> ScalarField:
    def grad(X):
        r = np.sqrt(row_sumsq(X))[..., None]
        with np.errstate(all="ignore"):
            return np.where(r > 0, X / r, 0.0)

    meta = FieldMeta(declared_si=True, ph_degree=1.0, decomposable=True,
                     compact_sublevel=True, differentiable=True, continuous=True)
    return ScalarField(n, lambda X: np.sqrt(row_sumsq(X)), grad=grad,
                       vectorized=True, meta=meta)


def _ellipsoid(n: int, diag=None, matrix=None) -> ScalarField:
    if matrix is not None:
        A = np.asarray(matrix, dtype=float)
        if A.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n}, got {A.shape}")
        if not np.allclose(A, A.T, atol=1e-12):
            raise ValueError("matrix must be symmetric")
        if np.linalg.eigvalsh(A).min() <= 0:
            raise ValueError("matrix must be positive definite")
    else:
        if diag is None:
            # condition-4 default: eigenvalues linearly spaced in [1, 4]
            diag = np.linspace(1.0, 4.0, n) if n > 1 else np.array([1.0])
        diag = np.atleast_1d(np.asarray(diag, dtype=float))
        if diag.shape != (n,):
            raise ValueError(f"diag must have length {n}, got {diag.shape}")
        if (diag <= 0).any():
            raise ValueError("diag entries must be positive")
        A = np.diag(diag)

    def fn(X):
        # einsum sums each row on its own, so a row's value does not depend
        # on its batch; two-operand steps avoid the naive three-operand loop
        return np.einsum("...j,...j->...", np.einsum("...i,ij->...j", X, A), X)

    meta = FieldMeta(declared_si=True, ph_degree=2.0, decomposable=True,
                     compact_sublevel=True, differentiable=True, continuous=True,
                     notes={"matrix": A.tolist()})
    return ScalarField(n, fn, grad=lambda X: 2.0 * (X @ A.T), vectorized=True, meta=meta)


def _half_norm(n: int) -> ScalarField:
    def fn(X):
        return row_sum(np.sqrt(np.abs(X))) ** 2

    def grad(X):
        s = row_sum(np.sqrt(np.abs(X)))[..., None]
        with np.errstate(all="ignore"):
            return s * np.sign(X) / np.sqrt(np.abs(X))

    meta = FieldMeta(declared_si=True, ph_degree=1.0, decomposable=True,
                     compact_sublevel=True, differentiable=False, continuous=True)
    return ScalarField(n, fn, grad=grad, vectorized=True, meta=meta)


def _linear_x1(n: int) -> ScalarField:
    def grad(X):
        G = np.zeros_like(X)
        G[..., 0] = 1.0
        return G

    meta = FieldMeta(declared_si=True, ph_degree=1.0, decomposable=True,
                     compact_sublevel=False, differentiable=True, continuous=True)
    return ScalarField(n, lambda X: X[..., 0], grad=grad, vectorized=True, meta=meta)


def _piecewise_ph(n: int) -> ScalarField:
    if n < 2:
        raise ValueError("piecewise_ph needs n >= 2")

    def fn(X):
        cone = X[..., 0] * X[..., 1]
        out = np.where(cone > 0, X[..., 0], 0.0)
        out[np.isnan(cone)] = np.nan  # x_1 or x_2 is nan
        return out

    meta = FieldMeta(declared_si=True, ph_degree=1.0, decomposable=True,
                     compact_sublevel=False, differentiable=False, continuous=False)
    return ScalarField(n, fn, vectorized=True, meta=meta)


def _tanh_exp(n: int) -> ScalarField:
    def fn(X):
        x1 = X[..., 0]
        with np.errstate(all="ignore"):
            return np.where(x1 >= 0, np.tanh(x1), 1.0 + np.exp(-x1))

    meta = FieldMeta(declared_si=True, ph_degree=None, decomposable=False,
                     compact_sublevel=False, differentiable=False, continuous=False)
    return ScalarField(n, fn, vectorized=True, meta=meta)


def _gauss_si(n: int) -> ScalarField:
    def fn(X):
        return np.exp(-row_sumsq(X))

    def grad(X):
        return -2.0 * X * fn(X)[..., None]

    meta = FieldMeta(declared_si=True, ph_degree=None, decomposable=True,
                     compact_sublevel=False, differentiable=True, continuous=True)
    return ScalarField(n, fn, grad=grad, vectorized=True, meta=meta,
                       ph_part=_sq_norm(n))


# saddle_profile's Taylor series below SADDLE_SERIES_CUT, highest term first:
# t/2 - sin(2t)/4 = sum_k (-1)^(k+1) 2^(2k-1) t^(2k+1) / (2k+1)!, k = 1..10
SADDLE_SERIES_CUT = 0.5
_SADDLE_SERIES = tuple((-1) ** (k + 1) * 2.0 ** (2 * k - 1) / math.factorial(2 * k + 1)
                       for k in range(10, 0, -1))


def saddle_profile(t):
    """The saddle profile: integral of sin^2 from 0 to t, i.e. t/2 - sin(2t)/4,
    from its Taylor series on the entries below ``SADDLE_SERIES_CUT`` in
    magnitude, where the difference (about t^3/3) would cancel."""
    t = np.asarray(t, dtype=float)
    out = np.asarray(t / 2.0 - np.sin(2.0 * t) / 4.0)
    small = np.abs(t) < SADDLE_SERIES_CUT
    if small.any():
        s = t[small]
        out[small] = s ** 3 * np.polyval(_SADDLE_SERIES, s * s)
    return out[()]


def _saddle_si(n: int) -> ScalarField:
    def fn(X):
        return saddle_profile(row_sumsq(X))

    def grad(X):
        u = row_sumsq(X)
        return 2.0 * (np.sin(u) ** 2)[..., None] * X

    meta = FieldMeta(declared_si=True, ph_degree=None, decomposable=True,
                     compact_sublevel=True, differentiable=True, continuous=True)
    return ScalarField(n, fn, grad=grad, vectorized=True, meta=meta,
                       ph_part=_sq_norm(n))


# Always empty since logsq_profile has a closed form; the benchmark reports its size.
_LOGSQ_CACHE: dict[float, float] = {}


def logsq_profile(t):
    """phi(t) = integral_0^t du / (1 + log(u)^2) for t >= 0, in closed form.

    With u = e^s the integrand is e^s / (1 + s^2) = Im(e^s / (s - i)), whose
    integral over (-inf, log t] is Im(e^i Ei(log t - i)); with
    Ei(z) = -E1(-z) this is phi(t) = -Im(e^i E1(i - log t)).  phi(0) = 0,
    phi(inf) = inf, and t < 0 or nan gives nan.  A scalar gives a float, an
    array an array of the same shape.
    """
    t_arr = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        out = -(np.exp(1j) * scipy.special.exp1(1j - np.log(t_arr))).imag
    out = np.where(t_arr == 0.0, 0.0, np.where(t_arr == np.inf, np.inf, out))
    return out if np.ndim(t) else float(out)


def _abs_x1(n: int) -> ScalarField:
    meta = FieldMeta(declared_si=True, ph_degree=1.0, decomposable=True,
                     compact_sublevel=(n == 1), differentiable=(n == 1),
                     continuous=True)
    return ScalarField(n, lambda X: np.abs(X[..., 0]), vectorized=True, meta=meta)


def _logsq_si(n: int) -> ScalarField:
    def fn(X):
        return logsq_profile(np.abs(X[..., 0]))

    def grad(X):
        # d/dx1 phi(|x1|) = sign(x1) / (1 + log(x1)^2); extends by 0 at x1 = 0.
        G = np.zeros_like(X)
        x1 = X[..., 0]
        with np.errstate(all="ignore"):
            d = np.where(x1 != 0, 1.0 / (1.0 + np.log(np.abs(x1)) ** 2), 0.0)
        G[..., 0] = np.sign(x1) * d
        return G

    meta = FieldMeta(declared_si=True, ph_degree=None, decomposable=True,
                     compact_sublevel=(n == 1), differentiable=True, continuous=True)
    return ScalarField(n, fn, grad=grad, vectorized=True, meta=meta,
                       ph_part=_abs_x1(n))


def _footnote_1d(n: int) -> ScalarField:
    def fn(X):
        x1 = X[..., 0]
        return np.where(x1 >= 0, x1, x1 * x1)

    meta = FieldMeta(declared_si=False, ph_degree=None, decomposable=False,
                     compact_sublevel=(n == 1), differentiable=False, continuous=True)
    return ScalarField(n, fn, vectorized=True, meta=meta)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    summary: str
    min_n: int
    builder: Callable[..., ScalarField]
    params: tuple = ()


REGISTRY: dict[str, GalleryEntry] = {}


def _register(name, summary, builder, min_n=1, params=()):
    REGISTRY[name] = GalleryEntry(name=name, summary=summary, min_n=min_n,
                                  builder=builder, params=params)


_register("sphere", "sum of squares ||x||^2", _sq_norm)
_register("sq_norm", "squared Euclidean norm ||x||^2", _sq_norm)
_register("norm", "Euclidean norm ||x||", _norm)
_register("ellipsoid", "quadratic form x' A x (default eigenvalues 1..4)",
          _ellipsoid, params=("diag", "matrix"))
_register("half_norm", "(sum_i sqrt|x_i|)^2, homogeneous of degree 1", _half_norm)
_register("linear_x1", "first coordinate x_1", _linear_x1)
_register("piecewise_ph", "x_1 on the cone x_1 x_2 > 0, else 0", _piecewise_ph, min_n=2)
_register("tanh_exp", "tanh(x_1) for x_1 >= 0, 1 + exp(-x_1) otherwise", _tanh_exp)
_register("gauss_si", "exp(-||x||^2)", _gauss_si)
_register("saddle_si", "integral of sin^2 composed with ||x||^2", _saddle_si)
_register("logsq_si", "slowly growing profile of |x_1| with vanishing log-square weight",
          _logsq_si)
_register("footnote_1d", "x_1 for x_1 >= 0 and x_1^2 otherwise (not scaling-invariant)",
          _footnote_1d)


def make_builtin(name: str, n: int, **params) -> ScalarField:
    """Construct a registry field by name at dimension n."""
    entry = REGISTRY.get(name)
    if entry is None:
        raise KeyError(f"unknown gallery entry {name!r}; known: {sorted(REGISTRY)}")
    if n < entry.min_n:
        raise ValueError(f"{name} needs n >= {entry.min_n}, got {n}")
    bad = set(params) - set(entry.params)
    if bad:
        raise ValueError(f"{name} does not accept parameters {sorted(bad)}")
    f = entry.builder(n, **params)
    f.meta.name = name
    if f.ph_part is not None:
        f.ph_part.meta.name = f"{name}.ph_part"
    return f


def registry_rows(n: int = 2) -> list:
    """The registry's entries in name order: names, constraints, ground-truth
    tags (those of the entry built at dimension max(n, min_n))."""
    return [{"name": name, "summary": entry.summary, "min_n": entry.min_n,
             "params": list(entry.params),
             "tags": make_builtin(name, max(n, entry.min_n)).meta.tags()}
            for name, entry in sorted(REGISTRY.items())]


def registry_json(n: int = 2) -> str:
    """The registry as a JSON document: :func:`registry_rows` at ``n``."""
    return json.dumps({"version": "si-ph-kit/1", "n": n,
                       "entries": registry_rows(n)}, indent=2)


# ---------------------------------------------------------------------------
# monotone composition


def _table_interp(ts, ys):
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ts.ndim != 1 or ts.shape != ys.shape or ts.size < 2:
        raise ValueError("table needs matching 1-D t and phi(t) arrays, length >= 2")
    if not (np.diff(ts) > 0).all():
        raise ValueError("table t values must be strictly increasing")
    if not (np.diff(ys) > 0).all():
        raise ValueError("table phi values must be strictly increasing")
    slope_lo = (ys[1] - ys[0]) / (ts[1] - ts[0])
    slope_hi = (ys[-1] - ys[-2]) / (ts[-1] - ts[-2])

    def phi(u):
        out = np.interp(u, ts, ys)
        out = np.where(u < ts[0], ys[0] + slope_lo * (u - ts[0]), out)
        out = np.where(u > ts[-1], ys[-1] + slope_hi * (u - ts[-1]), out)
        return out

    return phi


def compose(phi: str, p: ScalarField, beta: Optional[float] = None,
            a: Optional[float] = None, b: float = 0.0,
            table=None) -> ScalarField:
    """Compose a strictly monotone profile with a positively homogeneous field.

    ``phi`` is one of ``identity``, ``power`` (requires beta > 0, applied as a
    sign-preserving power), ``exp_neg`` (strictly decreasing), ``affine``
    (requires a > 0), ``tanh``, or ``table`` (strictly increasing piecewise
    linear interpolation of a user table, with linear extrapolation).
    The result is scaling-invariant by construction.
    """
    if p.meta.ph_degree is None:
        raise ValueError("p must be tagged positively homogeneous to compose")
    diffable = p.meta.differentiable

    if phi == "identity":
        fun, dfun = (lambda u: u), (lambda u: np.ones_like(u))
        degree = p.meta.ph_degree
    elif phi == "power":
        if beta is None or not beta > 0:
            raise ValueError("power needs beta > 0")
        def fun(u):
            with np.errstate(all="ignore"):
                return np.sign(u) * np.abs(u) ** beta
        def dfun(u):
            with np.errstate(all="ignore"):
                return beta * np.abs(u) ** (beta - 1.0)
        degree = None
        if beta < 1:
            diffable = False
    elif phi == "exp_neg":
        fun, dfun = (lambda u: np.exp(-u)), (lambda u: -np.exp(-u))
        degree = None
    elif phi == "affine":
        if a is None or not a > 0:
            raise ValueError("affine needs slope a > 0")
        fun, dfun = (lambda u: a * u + b), (lambda u: np.full_like(u, a))
        degree = None
    elif phi == "tanh":
        fun, dfun = np.tanh, (lambda u: 1.0 / np.cosh(u) ** 2)
        degree = None
    elif phi == "table":
        if table is None:
            raise ValueError("table profile needs table=(t_values, phi_values)")
        fun, dfun = _table_interp(*table), None
        degree = None
        diffable = False
    else:
        raise ValueError(f"unknown profile {phi!r}")

    def fn(X):
        return fun(p.values(np.atleast_2d(np.asarray(X, dtype=float))))

    grad = None
    if p.has_analytic_gradient and dfun is not None:
        def grad(X):
            X = np.atleast_2d(np.asarray(X, dtype=float))
            return dfun(p.values(X))[:, None] * p.gradient_values(X)

    increasing_phi = phi != "exp_neg"
    compact = p.meta.compact_sublevel if increasing_phi else False
    meta = FieldMeta(name=f"{phi}({p.meta.name})", declared_si=True,
                     ph_degree=degree, decomposable=True,
                     compact_sublevel=compact, differentiable=diffable,
                     continuous=p.meta.continuous,
                     notes={"phi": phi, "beta": beta, "a": a, "b": b})
    return ScalarField(p.n, fn, x_star=p.x_star, grad=grad, vectorized=True,
                       meta=meta, ph_part=p)


# ---------------------------------------------------------------------------
# seeded random scaling-invariant fields


def random_si(seed: int, n: int, eps: float = 0.3, modes: int = 4) -> ScalarField:
    """A seeded random scaling-invariant field f = phi(p(x)).

    p(x) = ||x|| * (1 + eps * g(x/||x||)) with g a weight-normalized random
    trigonometric polynomial of ``modes`` plane waves, so |g| <= 1 and p is
    positively homogeneous of degree 1 and positive away from 0 (eps < 1).
    phi is the exact closed-form integral of a positive random trigonometric
    polynomial, hence strictly increasing and smooth with phi(0) = 0.
    """
    if not 0 <= eps < 1:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    if modes < 1:
        raise ValueError("modes must be >= 1")
    rng = np.random.default_rng(seed)

    waves = rng.normal(size=(modes, n))
    waves /= np.sqrt(row_sumsq(waves))[:, None]
    freqs = rng.integers(1, modes + 1, size=modes).astype(float)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=modes)
    weights = rng.uniform(0.5, 1.0, size=modes)
    weight_sum = weights.sum()

    def sphere_perturbation(U):
        # |g| <= 1: convex combination of sines.  einsum sums each row on its
        # own, where BLAS matrix products round a row differently depending
        # on how many rows share the call.
        args = freqs * np.einsum("ij,kj->ik", U, waves) + phases
        return np.einsum("ij,j->i", np.sin(args), weights) / weight_sum

    def p_fn(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        r = np.sqrt(row_sumsq(X))
        out = np.zeros_like(r)
        out[np.isnan(r)] = np.nan  # a nan coordinate
        mask = r > 0
        if mask.any():
            U = X[mask] / r[mask, None]
            out[mask] = r[mask] * (1.0 + eps * sphere_perturbation(U))
        return out

    # phi' (t) = c0 + sum_j b_j cos(j w t + psi_j) >= 0.25 > 0
    m_phi = 3
    b = rng.uniform(-1.0, 1.0, size=m_phi)
    omega = rng.uniform(0.5, 1.5)
    psi = rng.uniform(0.0, 2.0 * np.pi, size=m_phi)
    c0 = 0.25 + np.abs(b).sum()
    j = np.arange(1, m_phi + 1, dtype=float)

    def phi(t):
        t = np.asarray(t, dtype=float)
        # einsum, like sphere_perturbation: each row summed on its own
        osc = np.einsum("...j,j->...", np.sin(j * omega * t[..., None] + psi)
                        - np.sin(psi), b / (j * omega))
        return c0 * t + osc

    recipe = {"seed": int(seed), "eps": float(eps), "modes": int(modes),
              "phi_terms": int(m_phi)}
    p_meta = FieldMeta(name=f"random_si_p(seed={seed})", declared_si=True,
                       ph_degree=1.0, decomposable=True, compact_sublevel=True,
                       differentiable=True, continuous=True, notes=dict(recipe))
    p_field = ScalarField(n, p_fn, vectorized=True, meta=p_meta)

    meta = FieldMeta(name=f"random_si(seed={seed})", declared_si=True,
                     ph_degree=None, decomposable=True, compact_sublevel=True,
                     differentiable=True, continuous=True, notes=dict(recipe))
    return ScalarField(n, lambda X: phi(p_fn(X)), vectorized=True, meta=meta,
                       ph_part=p_field)
