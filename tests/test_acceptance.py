"""Acceptance gate: every release criterion at its stated tolerance.

Each criterion is one test that prints a single ``ACCEPTANCE k: PASS/FAIL``
line outside pytest's capture, so the verdicts survive into piped logs,
then asserts.  Criteria are numbered 1-12 and run in order.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from siphkit.cli import main
from siphkit.decomposition import (
    DecompositionError,
    build_decomposition,
    order_equivalence,
    uniqueness_check,
    verify_decomposition,
)
from siphkit.euler import (
    euler_residual,
    general_euler_residual,
    paired_level_solver,
    positive_gradient_region,
    saddle_levels,
)
from siphkit.field import GradientSpec
from siphkit.gallery import REGISTRY, make_builtin, random_si
from siphkit.levelsets import (
    check_ph_sandwich,
    check_si_sandwich,
    compactness_probe,
    negligibility_probe,
    sphere_extrema,
)
from siphkit.rays import (
    SamplingPlan,
    check_decomposability,
    check_scaling_invariance,
    classify_ray,
    default_directions,
)


def _criterion(number, description):
    """Print one verdict line per criterion outside pytest's capture."""
    def deco(fn):
        def wrapper(capsys):
            try:
                fn()
            except BaseException:
                with capsys.disabled():
                    print(f"ACCEPTANCE {number}: FAIL - {description}",
                          flush=True)
                raise
            with capsys.disabled():
                print(f"ACCEPTANCE {number}: PASS - {description}", flush=True)
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper
    return deco


# Decompositions shared by criteria 2 and 5: every named entry at n=3 plus
# three seeded random benchmarks, each at degrees 1 and 2.
_ROUND_TRIP_CASES = []


def _round_trip_cases():
    if not _ROUND_TRIP_CASES:
        fields = [(name, make_builtin(name, 3)) for name in
                  ("sphere", "sq_norm", "ellipsoid", "half_norm",
                   "linear_x1", "gauss_si")]
        fields += [(f"random_si_{seed}", random_si(seed=seed, n=3, eps=0.3))
                   for seed in (1, 2, 3)]
        for fname, field in fields:
            for alpha in (1.0, 2.0):
                d = build_decomposition(field, alpha=alpha)
                _ROUND_TRIP_CASES.append((fname, alpha, field, d))
    return _ROUND_TRIP_CASES


@_criterion(1, "order preservation under scaling across the gallery")
def test_criterion_01_scaling_invariance():
    plan_kwargs = dict(n_samples=10_000, seed=0)
    for name in sorted(REGISTRY):
        entry = REGISTRY[name]
        if not make_builtin(name, entry.min_n).meta.declared_si:
            continue
        for n in (2, 5, 10):
            if n < entry.min_n:
                continue
            report = check_scaling_invariance(
                make_builtin(name, n), SamplingPlan(**plan_kwargs))
            assert report.passed and report.violations == 0, (name, n)

    # the one-dimensional counterexample fails with its exact witness
    report = check_scaling_invariance(make_builtin("footnote_1d", 1),
                                      SamplingPlan(n_samples=200, seed=0))
    assert not report.passed
    w = report.witnesses[0]
    assert w["kind"] == "order_violation"
    assert w["x"] == [0.5] and w["y"] == [-0.5] and w["rho"] == 4.0
    assert w["f_x"] == 0.5 and w["f_y"] == 0.25
    assert w["f_rho_x"] == 2.0 and w["f_rho_y"] == 4.0  # f(2)=2 < 4=f(-2)


@_criterion(2, "decomposition round trip f = phi(p) with homogeneous p")
def test_criterion_02_round_trip():
    for fname, alpha, field, d in _round_trip_cases():
        report = verify_decomposition(field, d,
                                      SamplingPlan(n_samples=1000, seed=5))
        assert report.max_composition_residual <= 1e-7, (fname, alpha)
        assert report.max_ph_residual <= 1e-7, (fname, alpha)


@_criterion(3, "canonical p unique up to per-sign constants")
def test_criterion_03_uniqueness():
    f = make_builtin("sq_norm", 2)
    d1 = build_decomposition(f, alpha=2.0, x0=[1.0, 0.0])
    d2 = build_decomposition(f, alpha=2.0, x0=[2.0, 0.0])
    report = uniqueness_check(f, d1, d2)
    assert report.passed
    assert report.classes["all"]["cv"] <= 1e-6

    lin = make_builtin("linear_x1", 2)
    e1 = build_decomposition(lin, alpha=1.0, x1=[1.0, 0.0], xm1=[-1.0, 0.0])
    e2 = build_decomposition(lin, alpha=1.0, x1=[2.0, 0.0], xm1=[-3.0, 0.0])
    report = uniqueness_check(lin, e1, e2)
    assert report.passed
    for label in ("positive", "negative"):
        assert report.classes[label]["cv"] <= 1e-6, label
    # distinct references scale each sign class by its own constant
    assert abs(report.classes["positive"]["ratio"]
               - report.classes["negative"]["ratio"]) > 0.1


@_criterion(4, "disjoint ray images block decomposition")
def test_criterion_04_non_decomposability():
    field = make_builtin("tanh_exp", 2)
    report = check_decomposability(field, plan=SamplingPlan(t_max=20.0))
    assert report.verdict == "not-decomposable"
    disjoint = [w for w in report.witnesses if w["kind"] == "disjoint_image"]
    assert disjoint
    w = disjoint[0]
    lo_a, hi_a = sorted([w["range_a"], w["range_b"]],
                        key=lambda r: r[0])
    assert hi_a[0] - lo_a[1] > 0.5  # a gap separates the two achieved ranges
    assert lo_a[1] < 1.0 and hi_a[0] > 2.0


@_criterion(5, "f and its canonical p order every sample pair identically")
def test_criterion_05_order_equivalence():
    for fname, alpha, field, d in _round_trip_cases():
        report = order_equivalence(field, d.order_field(),
                                   SamplingPlan(n_samples=10_000, seed=11))
        assert report.passed and report.disagreements == 0, (fname, alpha)


@_criterion(6, "sublevel compactness verdicts match ground truth")
def test_criterion_06_compactness():
    report = compactness_probe(make_builtin("sphere", 2), 2.0)
    assert report.verdict == "bounded"
    assert abs(report.max_radius - math.sqrt(2.0)) <= 1e-8

    report = compactness_probe(make_builtin("linear_x1", 2), 1.0)
    assert report.verdict == "unbounded-evidence"
    assert any(w["kind"] == "constant_ray" for w in report.witnesses)

    report = compactness_probe(make_builtin("gauss_si", 2), math.exp(-1.0))
    assert report.verdict == "unbounded-evidence"
    assert any(w["kind"] == "strictly-decreasing_ray" for w in report.witnesses)


@_criterion(7, "level-set shells occupy vanishing box fraction")
def test_criterion_07_negligibility():
    n_samples = 1_000_000
    report = negligibility_probe(make_builtin("sphere", 2), 1.0,
                                 eps_list=(0.1, 0.05),
                                 plan=SamplingPlan(n_samples=n_samples,
                                                   box_radius=2.0, seed=0))
    assert report.passed
    exact = [math.pi * eps / 8.0 for eps in (0.1, 0.05)]
    for frac, p in zip(report.fractions, exact):
        sigma = math.sqrt(p * (1.0 - p) / n_samples)
        assert abs(frac - p) <= 3.0 * sigma, (frac, p)
    # halving epsilon halves the occupied fraction, up to binomial noise
    sigma_pair = (math.sqrt(exact[0] * (1 - exact[0]) / n_samples) / 2.0
                  + math.sqrt(exact[1] * (1 - exact[1]) / n_samples))
    assert abs(report.fractions[1] - report.fractions[0] / 2.0) <= 3.0 * sigma_pair


@_criterion(8, "homogeneous and invariant ball sandwiches hold")
def test_criterion_08_ball_sandwich():
    plan_kwargs = dict(n_samples=10_000, seed=2)
    ph_ran, si_ran = [], []
    for name in sorted(REGISTRY):
        entry = REGISTRY[name]
        n = max(entry.min_n, 2)
        field = make_builtin(name, n)
        if field.meta.ph_degree is not None:
            ext = sphere_extrema(field)
            if ext.m > 0:
                report = check_ph_sandwich(field, field.meta.ph_degree,
                                           ext.m, ext.M,
                                           plan=SamplingPlan(**plan_kwargs))
                assert report.verdict == "pass" and not report.witnesses, name
                ph_ran.append(name)
        if field.meta.declared_si and field.meta.decomposable:
            try:
                d = build_decomposition(field, alpha=1.0)
            except DecompositionError:
                continue
            report = check_si_sandwich(field, d,
                                       plan=SamplingPlan(**plan_kwargs))
            if report.verdict == "precondition-failed":
                continue
            assert report.verdict == "pass" and not report.witnesses, name
            si_ran.append(name)
    performers = {"sphere", "sq_norm", "norm", "ellipsoid", "half_norm"}
    assert performers <= set(ph_ran), ph_ran
    assert performers <= set(si_ran), si_ran

    # anisotropy extremes against the eigenvalue oracle
    ext = sphere_extrema(make_builtin("ellipsoid", 2))
    eigs = np.linalg.eigvalsh(np.diag([1.0, 4.0]))
    assert abs(ext.m - eigs[0]) <= 1e-5
    assert abs(ext.M - eigs[-1]) <= 1e-5


@_criterion(9, "Euler identity residuals vanish at second order")
def test_criterion_09_euler():
    for name, alpha in (("sphere", 2.0), ("linear_x1", 1.0),
                        ("half_norm", 1.0)):
        report = euler_residual(make_builtin(name, 2), alpha,
                                grad_spec=GradientSpec(h=1e-5,
                                                       force_numerical=True))
        assert report.max_residual <= 1e-6, (name, report.max_residual)

    p = make_builtin("half_norm", 2)
    res = [euler_residual(p, 1.0,
                          grad_spec=GradientSpec(h=h, force_numerical=True)
                          ).max_residual
           for h in (1e-4, 5e-5)]
    assert 2.5 <= res[0] / res[1] <= 6.0, res

    f = make_builtin("gauss_si", 2)
    d = build_decomposition(f, alpha=2.0)
    report = general_euler_residual(
        f, d, grad_spec=GradientSpec(h=1e-5, force_numerical=True))
    assert report.max_residual <= 1e-5

    dirs = default_directions(2, seed=3)
    Z = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    grads = f.gradient_values(Z, GradientSpec(h=1e-5, force_numerical=True))
    dots = np.einsum("ij,ij->i", grads, Z)
    oracle = -2.0 * math.exp(-1.0)
    assert np.max(np.abs(dots - oracle)) <= 1e-5


def _second_preimage_oracle(r):
    """Bisect u e^{-u} = r^2 e^{-r^2} on the decreasing branch u > 1."""
    target = r * r * math.exp(-r * r)
    lo, hi = 1.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(-mid) > target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(0.5 * (lo + hi))


@_criterion(10, "distinct levels share the radial derivative value")
def test_criterion_10_paired_levels():
    r = 1.0 / math.sqrt(2.0)
    paired = paired_level_solver(r, tol=1e-10)
    assert paired.residual <= 1e-10
    assert abs(r ** 2 * math.exp(-r ** 2)
               - paired.s ** 2 * math.exp(-paired.s ** 2)) <= 1e-10
    assert abs(paired.s - _second_preimage_oracle(r)) <= 1e-3

    f = make_builtin("gauss_si", 2)
    angles = np.linspace(0.0, 2.0 * np.pi, 17)[:-1]
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    dots = []
    for radius in (r, paired.s):
        Z = radius * ring
        dots.append(np.einsum("ij,ij->i", f.gradient_values(Z), Z))
    dots = np.concatenate(dots)
    assert dots.max() - dots.min() <= 1e-6
    assert abs(dots.mean() + math.exp(-0.5)) <= 1e-6
    level_gap = abs(math.exp(-r ** 2) - math.exp(-paired.s ** 2))
    assert level_gap > 1e-3


@_criterion(11, "vanishing-gradient shells coexist with increasing rays")
def test_criterion_11_saddle_structure():
    f = make_builtin("saddle_si", 2)
    report = saddle_levels(f, k_max=3)
    assert report.passed
    for k, (radius, grad_norm) in enumerate(
            zip(report.radii, report.max_grad_norms), start=1):
        assert abs(radius - math.sqrt(k * math.pi)) <= 1e-12
        assert grad_norm <= 1e-6, (k, grad_norm)

    for direction in default_directions(2, seed=1):
        assert classify_ray(f, direction).tolist() == ["strictly-increasing"]

    cert = positive_gradient_region(f)
    assert cert.ok and cert.epsilon > 0.0 and cert.delta > 0.0
    r0 = float(np.linalg.norm(cert.z0))
    for k in (1, 2, 3):
        assert abs(math.sqrt(k * math.pi) - r0) > cert.delta, k


def _stable_lines(path):
    return [line for line in Path(path).read_text().splitlines()
            if "wall_time_ms" not in line]


@_criterion(12, "reports are byte-identical across reruns (wall time aside)")
def test_criterion_12_determinism():
    commands = [
        ["gallery", "list"],
        ["check", "si", "--gallery", "gauss_si", "--N", "500", "--seed", "3"],
        ["check", "decomposable", "--gallery", "sphere", "--seed", "1"],
        ["decompose", "--gallery", "sq_norm", "--x0", "1,0",
         "--x0-alt", "2,0", "--N", "300", "--seed", "4"],
        ["verify", "euler", "--gallery", "sphere", "--seed", "2"],
        ["verify", "general-euler", "--gallery", "gauss_si", "--alpha", "2",
         "--N", "300", "--seed", "2"],
        ["verify", "levelset-grad", "--gallery", "sphere", "--level", "4",
         "--points", "16", "--seed", "2"],
        ["levelset", "radii", "--gallery", "sphere", "--level", "4"],
        ["levelset", "bounds", "--gallery", "norm", "--N", "300",
         "--seed", "6"],
        ["levelset", "compact", "--gallery", "sphere", "--level", "4"],
        ["levelset", "negligible", "--gallery", "sphere", "--level", "1",
         "--N", "20000", "--seed", "8"],
        ["cert", "positive-region", "--gallery", "sphere", "--seed", "9"],
        ["solve", "paired-level", "--r", "0.5"],
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(commands):
            first = Path(tmp) / f"{i}_a.json"
            second = Path(tmp) / f"{i}_b.json"
            code_a = main(argv + ["--out", str(first)])
            code_b = main(argv + ["--out", str(second)])
            assert code_a == code_b == 0, argv
            assert _stable_lines(first) == _stable_lines(second), argv
            assert first.read_text() != ""  # wall time is the only delta
