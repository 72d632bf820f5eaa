"""Scalar fields on R^n with a reference point, batched evaluation, and gradients.

A :class:`ScalarField` wraps a real-valued function together with the point the
scaling is anchored at (``x_star``), an optional analytic gradient, and property
metadata.  All probes in this package work on the shifted function
``z -> f(x_star + z) - f(x_star)``, which vanishes at the origin; user-facing
values are never shifted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np


class DimensionMismatchError(ValueError):
    """Raised when an input vector does not match the field dimension."""


@dataclass(frozen=True)
class GradientSpec:
    """Settings for central-difference gradients.

    The actual step at a point x is ``h * (1 + ||x||)`` so that the stencil
    stays well scaled far from the origin.  ``force_numerical`` ignores an
    analytic gradient even when one is attached (used by the convergence-order
    probes, which must see the finite-difference error).
    """

    h: float = 1e-5
    force_numerical: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError(f"step h must be a positive finite float, got {self.h!r}")


@dataclass
class FieldMeta:
    """Declared properties of a field.  ``None`` means unknown / unclaimed.

    ``differentiable`` means continuously differentiable away from the
    reference point; ``ph_degree`` is the declared positive-homogeneity degree
    with respect to ``x_star``.
    """

    name: str = "field"
    declared_si: Optional[bool] = None
    ph_degree: Optional[float] = None
    decomposable: Optional[bool] = None
    compact_sublevel: Optional[bool] = None
    differentiable: Optional[bool] = None
    continuous: Optional[bool] = None
    notes: dict = dataclass_field(default_factory=dict)

    def tags(self) -> dict:
        return {
            "is_si": self.declared_si,
            "ph_degree": self.ph_degree,
            "decomposable": self.decomposable,
            "compact_sublevel": self.compact_sublevel,
            "differentiable": self.differentiable,
            "continuous": self.continuous,
        }


# -- row reductions ------------------------------------------------------------
#
# np.sum(A, axis=-1) over a C-ordered (N, n) batch runs one inner loop of
# length n per row, which costs more than the additions when n is small.
# row_sum adds whole columns instead, in the order numpy's pairwise summation
# takes within a row, so the sums are bitwise numpy's: in sequence from
# column 0 for n < 8, and for 8 <= n < 16 the eight-way step
# ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)) followed by the remaining columns in
# sequence.  At (8192, 2), row_sumsq takes 32 us against 192 us for
# np.sum(X * X, axis=-1).  The column loop loses below these row counts (one
# row at n = 10 takes 18 us against 5 us) and from n = 16 on, where the
# columns fall out of cache; those shapes, and any other layout or dtype, go
# to np.sum.
_SEQUENTIAL_MIN_ROWS = 256   # 1 <= n < 8
_PAIRWISE_MIN_ROWS = 2048    # 8 <= n < 16


def _column_sum(A: np.ndarray) -> np.ndarray:
    n = A.shape[1]
    col = A.T
    # numpy adds the row's sum to the identity +0.0, which turns a -0.0 sum
    # into +0.0; a first partial sum of a0 + 0.0 is never -0.0 either
    acc = col[0] + 0.0
    if n >= 8:
        acc += col[1]
        acc += col[2] + col[3]
        right = col[4] + col[5]
        right += col[6] + col[7]
        acc += right
    for k in range(8 if n >= 8 else 1, n):
        acc += col[k]
    return acc


def row_sum(A) -> np.ndarray:
    """``np.sum(A, axis=-1)``, bitwise, with a faster loop for narrow
    C-ordered float batches of many rows."""
    A = np.asarray(A)
    if A.ndim == 2 and A.dtype == np.float64 and A.flags.c_contiguous:
        N, n = A.shape
        if ((1 <= n < 8 and N >= _SEQUENTIAL_MIN_ROWS)
                or (8 <= n < 16 and N >= _PAIRWISE_MIN_ROWS)):
            return _column_sum(A)
    return np.sum(A, axis=-1)


def row_sumsq(X) -> np.ndarray:
    """``np.sum(X * X, axis=-1)``, bitwise; its square root is
    ``np.linalg.norm(X, axis=-1)``."""
    X = np.asarray(X, dtype=float)
    return row_sum(X * X)


def _as_point(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatchError(f"expected a vector of length {n}, got shape {x.shape}")
    return x


def _as_batch(X, n: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n:
        raise DimensionMismatchError(f"expected points of dimension {n}, got shape {X.shape}")
    return X


class ScalarField:
    """A real-valued function on R^n with a scaling reference point.

    Parameters
    ----------
    n : int
        Input dimension.
    fn : callable
        Evaluator.  If ``vectorized``, it must accept an ``(..., n)`` array and
        return values of shape ``(...,)``; otherwise it is called per point.
    x_star : array, optional
        Reference point the scaling is anchored at (default: origin).
    grad : callable, optional
        Analytic gradient with the same batching convention as ``fn``.
    ph_part : ScalarField, optional
        For composite fields built as phi(p(x)), a handle on the inner
        positively homogeneous part.
    """

    def __init__(self, n, fn, x_star=None, grad=None, vectorized=False,
                 meta: Optional[FieldMeta] = None, name: Optional[str] = None,
                 ph_part: Optional["ScalarField"] = None):
        if int(n) < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        self.n = int(n)
        self._fn = fn
        self._grad = grad
        self._vectorized = bool(vectorized)
        self.x_star = np.zeros(self.n) if x_star is None else _as_point(x_star, self.n)
        # what absolute() adds: the scalar +0.0 when every x_star entry is
        # +0.0, which gives the bits of the vector add (only -0.0 + -0.0
        # differs from -0.0 + 0.0, and a -0.0 entry keeps the vector) at a
        # tenth of its cost on an (8192, 2) batch (6 us against 78 us)
        at_origin = not (self.x_star.any() or np.signbit(self.x_star).any())
        self._shift = 0.0 if at_origin else self.x_star
        self.meta = meta if meta is not None else FieldMeta()
        if name is not None:
            self.meta.name = name
        self.ph_part = ph_part
        self._f_star: Optional[float] = None

    # -- raw evaluation ---------------------------------------------------

    def _eval_batch(self, X: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            if self._vectorized:
                out = np.asarray(self._fn(X), dtype=float)
            else:
                out = np.array([float(self._fn(row)) for row in X], dtype=float)
        if out.shape != X.shape[:1]:
            out = out.reshape(X.shape[:1])
        return out

    def value(self, x) -> float:
        """f(x) for a single point.  Non-finite results propagate as nan/inf."""
        x = _as_point(x, self.n)
        return float(self._eval_batch(x[None, :])[0])

    def values(self, X) -> np.ndarray:
        """f over an (N, n) batch of points."""
        return self._eval_batch(_as_batch(X, self.n))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.value(x)
        return self.values(x)

    @property
    def f_star(self) -> float:
        """f(x_star), computed once."""
        if self._f_star is None:
            self._f_star = self.value(self.x_star)
        return self._f_star

    # -- shifted evaluation (internal normal form) ------------------------

    def absolute(self, Z) -> np.ndarray:
        """The points ``x_star + Z`` of an (N, n) batch of offsets Z."""
        return Z + self._shift

    def shifted(self, z) -> float:
        """f(x_star + z) - f(x_star); vanishes at z = 0."""
        z = _as_point(z, self.n)
        return self.value(self.x_star + z) - self.f_star

    def shifted_values(self, Z) -> np.ndarray:
        Z = _as_batch(Z, self.n)
        return self.minus_f_star(self._eval_batch(self.absolute(Z)))

    def minus_f_star(self, F) -> np.ndarray:
        """F - f(x_star) for values F of the field: its shifted values."""
        if math.isinf(self.f_star):
            # inf - inf where f meets the same infinity.  The finite case
            # skips errstate: it adds about 20% to a one-row call.
            with np.errstate(invalid="ignore"):
                return F - self.f_star
        return F - self.f_star

    def ray_values(self, t, M) -> np.ndarray:
        """Shifted values at ``t[i] * M[i]`` for each row i of (N,) t and
        (N, n) M: the profiles of N rays, in the form a root solve calls.

        Rows where t is nan are not evaluated and come back as nan, so a
        solver that passes its settled rows as nan spends no field points
        on them.  The other rows get the bits ``shifted_values`` gives.
        """
        live = ~np.isnan(t)
        if not live.all():
            out = np.full(t.shape, np.nan)
            if live.any():
                out[live] = self.ray_values(t[live], M[live])
            return out
        P = t[:, None] * M
        P += self._shift  # absolute() in place: its bits, one array fewer
        return self.minus_f_star(self._eval_batch(P))

    # -- gradients ---------------------------------------------------------

    @property
    def has_analytic_gradient(self) -> bool:
        return self._grad is not None

    def gradient(self, x, spec: Optional[GradientSpec] = None) -> np.ndarray:
        return self.gradient_values(np.asarray(x, dtype=float)[None, :], spec)[0]

    def gradient_values(self, X, spec: Optional[GradientSpec] = None) -> np.ndarray:
        """Gradients over an (N, n) batch.

        Uses the analytic gradient when attached (unless the spec forces the
        numerical path); otherwise second-order central differences with step
        ``spec.h * (1 + ||x||)`` per point.
        """
        spec = spec or GradientSpec()
        X = _as_batch(X, self.n)
        if self._grad is not None and not spec.force_numerical:
            with np.errstate(all="ignore"):
                G = np.asarray(self._grad(X), dtype=float)
            return G.reshape(X.shape)
        h = spec.h * (1.0 + np.sqrt(row_sumsq(X)))  # (N,)
        G = np.empty_like(X)
        for i in range(self.n):
            step = np.zeros_like(X)
            step[:, i] = h
            G[:, i] = (self._eval_batch(X + step) - self._eval_batch(X - step)) / (2.0 * h)
        return G

    # -- rays ---------------------------------------------------------------

    def ray(self, direction) -> "RaySection":
        return RaySection(self, _as_point(direction, self.n))

    def __repr__(self):
        return f"ScalarField(name={self.meta.name!r}, n={self.n})"


@dataclass(frozen=True)
class RaySection:
    """The restriction t -> f(x_star + t * direction) for t >= 0."""

    field: ScalarField
    direction: np.ndarray

    def eval(self, t):
        """Raw f along the ray; accepts a scalar or an array of t values."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        points = self.field.x_star + t_arr[:, None] * self.direction
        vals = self.field._eval_batch(points)
        return float(vals[0]) if np.isscalar(t) or np.ndim(t) == 0 else vals


def ray_section(field: ScalarField, direction) -> RaySection:
    """The ray restriction of ``field`` through ``x_star`` along ``direction``."""
    return field.ray(direction)
