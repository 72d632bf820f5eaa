"""End-to-end command-line behavior: exit codes, report contents, determinism."""

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
from typing import Callable, NamedTuple, Optional

import pytest

import siphkit
from siphkit import cli
from siphkit.cli import main
from siphkit.decomposition import (DecompositionError, build_decomposition,
                                   uniqueness_check, verify_decomposition)
from siphkit.euler import (euler_residual, general_euler_residual,
                           levelset_gradient_constancy,
                           positive_gradient_region)
from siphkit.levelsets import check_sandwiches
from siphkit.reporting import jsonable


def run_cli(capsys, argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# gallery


def test_gallery_list(capsys):
    code, doc = run_json(capsys, ["gallery", "list"])
    assert code == 0
    assert doc["verdict"] == "pass"
    names = [row["name"] for row in doc["metrics"]["entries"]]
    assert len(names) == 12
    assert names == sorted(names)
    assert "sphere" in names


def test_whole_random_si_parameters_are_echoed_as_integers(capsys):
    code, doc = run_json(capsys, ["check", "si", "--gallery", "random_si",
                                  "--param", "modes=3.0", "--param", "seed=5",
                                  "--N", "10"])
    assert code == 0
    params = doc["config"]["function"]["params"]
    assert params == {"eps": 0.3, "modes": 3, "seed": 5}
    assert type(params["modes"]) is int


# ---------------------------------------------------------------------------
# check si


def test_check_si_passes_on_sphere(capsys):
    code, doc = run_json(capsys, ["check", "si", "--gallery", "sphere",
                                  "--N", "2000"])
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["metrics"]["violations"] == 0
    assert doc["metrics"]["trials"] == 2005  # 2000 random + 5 structured at n=2
    assert doc["config"]["function"] == {"gallery": "sphere", "n": 2, "params": {}}


def test_check_si_fails_with_witness(capsys):
    code, out, err = run_cli(capsys, ["check", "si", "--gallery", "footnote_1d",
                                      "--n", "1", "--N", "200"])
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    w = doc["witnesses"][0]
    assert w["kind"] == "order_violation"
    assert w["rho"] == 4.0
    assert w["x"][0] == 0.5


def test_check_si_accepts_expressions(capsys):
    code, doc = run_json(capsys, ["check", "si", "--expr", "norm(x)^2",
                                  "--n", "3", "--N", "500"])
    assert code == 0
    assert doc["config"]["function"]["expr"] == "norm(x)^2"


# ---------------------------------------------------------------------------
# usage errors -> exit 2


@pytest.mark.parametrize("argv", [
    ["check", "si", "--gallery", "sphere", "--expr", "x_1"],
    ["check", "si"],
    ["check", "si", "--gallery", "no_such_entry"],
    ["check", "si", "--gallery", "sphere", "--x-star", "1,0"],
    ["check", "si", "--gallery", "piecewise_ph", "--n", "1"],
    ["solve", "paired-level", "--r", "1.5"],
    ["levelset", "negligible", "--gallery", "sphere", "--level", "1",
     "--eps", "0.05,0.1", "--N", "100"],
])
def test_usage_errors_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "error" in err


_LEVEL_COMMANDS = [
    ["levelset", "negligible", "--gallery", "sphere", "--N", "1000"],
    ["levelset", "radii", "--gallery", "sphere"],
    ["levelset", "compact", "--gallery", "sphere"],
    ["verify", "levelset-grad", "--gallery", "sphere"],
]


@pytest.mark.parametrize("level", ["nan", "inf", "-inf", "1e400", "one"])
@pytest.mark.parametrize("command", _LEVEL_COMMANDS, ids=lambda c: " ".join(c[:2]))
def test_a_level_that_is_not_a_finite_number_exits_two(capsys, command, level):
    code, out, err = run_cli(capsys, command + [f"--level={level}"])
    assert code == 2
    assert out == ""
    assert "argument --level: expected a finite number" in err


@pytest.mark.parametrize("argv,message", [
    (["check", "si", "--gallery", "sphere", "--atol", "-1"],
     "argument --atol: must be at least 0"),
    (["check", "si", "--gallery", "sphere", "--atol", "nan"],
     "argument --atol: expected a finite number"),
    (["check", "si", "--gallery", "sphere", "--atol", "inf"],
     "argument --atol: expected a finite number"),
    (["levelset", "radii", "--gallery", "sphere", "--level", "1",
      "--directions", "0"], "argument --directions: must be at least 1"),
    (["levelset", "radii", "--gallery", "sphere", "--level", "1",
      "--directions", "-3"], "argument --directions: must be at least 1"),
    (["verify", "levelset-grad", "--gallery", "sphere", "--level", "1",
      "--points", "0"], "argument --points: must be at least 1"),
    (["verify", "levelset-grad", "--gallery", "sphere", "--level", "1",
      "--points", "2.5"], "argument --points: expected an integer"),
    (["levelset", "negligible", "--gallery", "sphere", "--level", "1",
      "--rate-bound", "inf"], "argument --rate-bound: expected a finite number"),
    (["levelset", "negligible", "--gallery", "sphere", "--level", "1",
      "--rate-bound=-1"], "argument --rate-bound: must be at least 0"),
    (["levelset", "bounds", "--gallery", "sphere", "--slack", "nan"],
     "argument --slack: expected a finite number"),
    (["levelset", "bounds", "--gallery", "sphere", "--rtol=-0.5"],
     "argument --rtol: must be at least 0"),
    (["decompose", "--gallery", "sphere", "--comp-tol", "inf"],
     "argument --comp-tol: expected a finite number"),
    (["decompose", "--gallery", "sphere", "--ph-tol", "nan"],
     "argument --ph-tol: expected a finite number"),
    (["verify", "euler", "--gallery", "sphere", "--tol", "inf"],
     "argument --tol: expected a finite number"),
    (["verify", "general-euler", "--gallery", "sphere", "--tol=-1"],
     "argument --tol: must be at least 0"),
    (["verify", "levelset-grad", "--gallery", "sphere", "--level", "1",
      "--tol", "nan"], "argument --tol: expected a finite number"),
    (["solve", "paired-level", "--r", "0.5", "--tol", "nan"],
     "argument --tol: expected a finite number"),
    (["solve", "paired-level", "--r", "0.5", "--tol=-1"],
     "argument --tol: must be at least 0"),
    (["solve", "paired-level", "--r", "0.3", "--tol", "0"],
     "paired-level residual"),
    (["levelset", "negligible", "--gallery", "sphere", "--level", "1",
      "--N", "100", "--eps", "inf,0.1"], "eps_list must be finite"),
    (["levelset", "negligible", "--gallery", "sphere", "--level", "1",
      "--N", "100", "--eps", "0.1,nan"], "eps_list must be finite"),
    (["gallery", "list", "--n", "0"], "argument --n: must be at least 1"),
    (["gallery", "list", "--n", "-3"], "argument --n: must be at least 1"),
    # random_si parameters are neither crashed on nor truncated
    (["check", "si", "--gallery", "random_si", "--N", "10", "--param",
      "eps=1,2"], "random_si parameter 'eps' must be a number, got [1.0, 2.0]"),
    (["check", "si", "--gallery", "random_si", "--N", "10", "--param",
      "eps=1,2;3,4"], "random_si parameter 'eps' must be a number"),
    (["check", "si", "--gallery", "random_si", "--N", "10", "--param",
      "eps=abc"], "random_si parameter 'eps' must be a number, got 'abc'"),
    (["check", "si", "--gallery", "random_si", "--N", "10", "--param",
      "modes=1.7"], "random_si parameter 'modes' must be an integer, got 1.7"),
    (["check", "si", "--gallery", "random_si", "--N", "10", "--param",
      "modes=1,2"], "random_si parameter 'modes' must be an integer"),
    (["check", "si", "--gallery", "random_si", "--N", "10", "--param",
      "seed=2.9"], "random_si parameter 'seed' must be an integer, got 2.9"),
    (["check", "si", "--gallery", "random_si", "--N", "10", "--param",
      "seed=inf"], "random_si parameter 'seed' must be an integer, got inf"),
    (["verify", "euler", "--gallery", "sphere", "--coord-floor", "-5"],
     "argument --coord-floor: must be at least 0"),
    (["levelset", "negligible", "--gallery", "sphere", "--level", "1",
      "--eps", "0.1,x"], "argument --eps: expected comma-separated numbers"),
    (["check", "si", "--expr", "x_1", "--n", "0"],
     "argument --n: must be at least 1"),
    (["levelset", "bounds", "--gallery", "sphere", "--box-radius", "1e-200"],
     "every sample norm is 0 at box radius 1e-200"),
    # a one-sided reference is not dropped for two-sided ones, and the
    # alternate references are checked before the primary build runs
    (["decompose", "--gallery", "linear_x1", "--n", "2", "--N", "50", "--x0",
      "1,0", "--x1", "1,0", "--xm1=-1,0"],
     "x0 (one-sided) cannot be combined with x1 or xm1 (two-sided)"),
    (["decompose", "--gallery", "linear_x1", "--n", "2", "--N", "50", "--x0",
      "1,0", "--xm1=-1,0"], "x0 (one-sided) cannot be combined with x1 or xm1"),
    (["decompose", "--gallery", "linear_x1", "--n", "2", "--N", "50",
      "--x0-alt", "1,0", "--x1-alt", "1,0", "--xm1-alt=-1,0"],
     "--x0-alt, --x1-alt, --xm1-alt: x0 (one-sided) cannot be combined with "
     "x1 or xm1"),
    (["decompose", "--gallery", "linear_x1", "--n", "2", "--N", "50",
      "--x1-alt", "1,0"],
     "--x0-alt, --x1-alt, --xm1-alt: two-sided hints need both x1 and xm1"),
])
def test_degenerate_arguments_exit_two_with_a_named_message(capsys, argv,
                                                            message):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


def test_smallest_legal_counts_still_run(capsys):
    code, doc = run_json(capsys, ["levelset", "radii", "--gallery", "sphere",
                                  "--level", "1", "--directions", "1"])
    assert code == 0 and doc["metrics"]["n_directions"] == 1
    code, doc = run_json(capsys, ["verify", "levelset-grad", "--gallery",
                                  "sphere", "--level", "1", "--points", "1"])
    assert code == 0 and doc["config"]["points"] == 1


def test_expression_errors_carry_the_offset(capsys):
    # one line, which gives the offset once
    for source, message in [
            ("x_1 +", "expected a number, variable, call, or parenthesis"),
            ("x_1 $ 2", "unexpected character '$'")]:
        code, out, err = run_cli(capsys, ["check", "si", "--expr", source])
        assert (code, out) == (2, "")
        assert err == f"siphkit: error: {message} (offset 4)\n"


def test_sources_of_any_length_run_and_deep_ones_exit_two(capsys):
    code, doc = run_json(capsys, ["check", "si", "--expr",
                                  " + ".join(["x_1"] * 2000), "--n", "1",
                                  "--N", "100"])
    assert code == 0
    code, out, err = run_cli(capsys, ["check", "si", "--expr",
                                      "(" * 300 + "x_1" + ")" * 300, "--n", "1"])
    assert (code, out) == (2, "")
    assert "nesting deeper than 100 levels" in err and "Traceback" not in err


def test_missing_subcommand_exits_two(capsys):
    code, _, _ = run_cli(capsys, [])
    assert code == 2


# ---------------------------------------------------------------------------
# decompose


def test_decompose_sphere_reports_residuals(capsys):
    code, doc = run_json(capsys, ["decompose", "--gallery", "sphere",
                                  "--alpha", "2", "--N", "500"])
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["metrics"]["decomposition"]["case"] == "one-sided"
    assert doc["metrics"]["max_composition_residual"] <= 1e-7
    assert doc["metrics"]["max_ph_residual"] <= 1e-7


def test_decompose_uniqueness_between_two_references(capsys):
    code, doc = run_json(capsys, ["decompose", "--gallery", "sq_norm",
                                  "--x0", "1,0", "--x0-alt", "2,0",
                                  "--N", "500"])
    assert code == 0
    uq = doc["metrics"]["uniqueness"]
    assert uq["passed"] is True
    assert uq["classes"]["all"]["ratio"] == pytest.approx(2.0, abs=1e-6)


def test_decompose_failure_is_witnessed(capsys):
    code, out, _ = run_cli(capsys, ["decompose", "--expr", "(x_1 - 1)^2",
                                    "--n", "1"])
    assert code == 1
    doc = json.loads(out)
    assert doc["witnesses"][0]["kind"] == "build_failed"


def test_check_decomposable_finds_disjoint_branches(capsys):
    code, out, _ = run_cli(capsys, ["check", "decomposable", "--gallery",
                                    "tanh_exp", "--t-max", "20"])
    assert code == 1
    doc = json.loads(out)
    assert doc["metrics"]["domain_verdict"] == "not-decomposable"
    assert any(w["kind"] == "disjoint_image" for w in doc["witnesses"])


def test_check_decomposable_and_check_si_share_the_si_rule(capsys):
    # exp(-|x|^8) = phi(p) with phi(t) = e^-t and p = |x|^8; at rho = 4 the
    # structured triples underflow to exact ties, which neither probe may
    # count as a violation
    argv = ["--expr", "exp(-norm(x)^8)", "--n", "2"]
    code, doc = run_json(capsys, ["check", "decomposable", *argv])
    assert code == 0
    assert doc["metrics"]["domain_verdict"] == "decomposable"
    assert doc["witnesses"] == []
    code, doc = run_json(capsys, ["check", "si", *argv])
    assert code == 0


# ---------------------------------------------------------------------------
# verify


def test_verify_euler_uses_the_tagged_degree(capsys):
    code, doc = run_json(capsys, ["verify", "euler", "--gallery", "sphere"])
    assert code == 0
    # the config echoes --alpha as parsed; the degree used is a metric
    assert doc["config"]["alpha"] is None
    assert doc["metrics"]["alpha"] == 2.0
    assert doc["metrics"]["max_residual"] <= 1e-6


def test_verify_euler_requires_a_degree_somewhere(capsys):
    code, _, err = run_cli(capsys, ["verify", "euler", "--expr", "x_1^2",
                                    "--n", "1"])
    assert code == 2
    assert "alpha" in err


def test_verify_euler_sample_is_full_at_high_dimension(capsys):
    # each coordinate is drawn beyond the coordinate floor, not rejected
    # below it, so the sample is full even at n = 100, where a box draw
    # clears the floor in every coordinate only about 0.95^100 of the time
    code, doc = run_json(capsys, ["verify", "euler", "--gallery", "norm",
                                  "--n", "100", "--N", "1000"])
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["witnesses"] == []
    assert doc["metrics"]["max_residual"] <= 1e-6
    assert doc["metrics"]["n_samples"] == 1000


def test_verify_euler_rejects_a_floor_outside_the_box(capsys):
    code, _, err = run_cli(capsys, ["verify", "euler", "--gallery", "norm",
                                    "--n", "2", "--coord-floor", "2.5"])
    assert code == 2
    assert "coordinate floor" in err


def test_verify_general_euler(capsys):
    code, doc = run_json(capsys, ["verify", "general-euler", "--gallery",
                                  "gauss_si", "--alpha", "2", "--N", "500"])
    assert code == 0
    assert doc["metrics"]["case"] == "one-sided"
    assert doc["metrics"]["max_residual"] <= 1e-4
    # the module constants PHI_STEP and P_FLOOR_FRAC
    assert doc["metrics"]["notes"] == {"phi_step": 1e-6, "p_floor_frac": 0.01}


def test_verify_levelset_grad(capsys):
    code, doc = run_json(capsys, ["verify", "levelset-grad", "--gallery",
                                  "sphere", "--level", "4", "--points", "16"])
    assert code == 0
    assert doc["metrics"]["spread"] <= 1e-6
    assert doc["metrics"]["mean"] == pytest.approx(8.0, abs=1e-6)


# ---------------------------------------------------------------------------
# levelset


def test_levelset_radii_with_sweep_csv(capsys, tmp_path):
    sweep = tmp_path / "sweep.csv"
    code, doc = run_json(capsys, ["levelset", "radii", "--gallery", "sphere",
                                  "--level", "4", "--sweep-csv", str(sweep)])
    assert code == 0
    radii = [rec["radius"] for rec in doc["metrics"]["radii"]]
    assert len(radii) == 8  # 2n axes + 2n sphere directions at n = 2
    for r in radii:
        assert r == pytest.approx(2.0, abs=1e-8)
    rows = list(csv.reader(sweep.open()))
    assert rows[0] == ["angle_1", "radius"]
    assert len(rows) == 9
    assert float(rows[1][1]) == pytest.approx(2.0, abs=1e-8)


def _direction_from_angles(angles):
    """The unit direction whose hyperspherical angles are ``angles``: the
    inverse of the sweep CSV's at n = len(angles) + 1 >= 2."""
    out, tail = [], 1.0
    for a in angles[:-1]:
        out.append(tail * math.cos(a))
        tail *= math.sin(a)
    return out + [tail * math.cos(angles[-1]), tail * math.sin(angles[-1])]


@pytest.mark.parametrize("n", [1, 3, 4])
def test_the_sweep_csv_angles_rebuild_each_direction(capsys, tmp_path, n):
    sweep = tmp_path / "sweep.csv"
    code, doc = run_json(capsys, ["levelset", "radii", "--gallery", "sphere",
                                  "--n", str(n), "--level", "4",
                                  "--directions", "24", "--sweep-csv",
                                  str(sweep)])
    assert code == 0
    header, *rows = list(csv.reader(sweep.open()))
    assert header == [f"angle_{i + 1}" for i in range(max(n - 1, 1))] + ["radius"]
    directions = [rec["direction"] for rec in doc["metrics"]["radii"]]
    assert len(rows) == len(directions) == 24
    for row, direction in zip(rows, directions):
        angles = [float(a) for a in row[:-1]]
        rebuilt = ([math.cos(angles[0])] if n == 1
                   else _direction_from_angles(angles))
        assert rebuilt == pytest.approx(direction, abs=1e-12)
    if n == 1:  # both signs
        assert {row[0] for row in rows} == {"0.0", str(math.pi)}


def test_levelset_radii_keeps_non_monotone_rays_in_direction_order(
        capsys, tmp_path):
    argv = ["levelset", "radii", "--expr", "sin(3*x_1) + x_2^2", "--n", "2",
            "--level", "0.5", "--directions", "12"]
    code, out, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 1
    rows = [r for r in csv.reader(out.splitlines()) if r[0] == "radius"]
    assert [r[1] for r in rows] == [str(i) for i in range(12)]
    # the one monotone ray reaching the level is the tenth direction
    assert [r[1] for r in rows if r[2] != "nan"] == ["9"]
    sweep = tmp_path / "sweep.csv"
    code, doc = run_json(capsys, argv + ["--sweep-csv", str(sweep)])
    statuses = [rec["status"] for rec in doc["metrics"]["radii"]]
    assert len(statuses) == doc["metrics"]["n_directions"] == 12
    assert statuses[9] == "ok"
    # the sweep file still lists the monotone rays only
    assert len(list(csv.reader(sweep.open()))) - 1 == \
        len(statuses) - statuses.count("non-monotone")


def test_levelset_compact_flags_flat_directions(capsys):
    code, out, _ = run_cli(capsys, ["levelset", "compact", "--gallery",
                                    "linear_x1", "--level", "1"])
    assert code == 1
    doc = json.loads(out)
    assert doc["metrics"]["domain_verdict"] == "unbounded-evidence"
    assert doc["witnesses"][0]["kind"] == "constant_ray"


def test_levelset_compact_names_a_non_monotone_ray_as_radii_does(capsys):
    argv = ["--expr", "sin(3*x_1) + x_2^2", "--n", "2", "--level"]
    code, compact = run_json(capsys, ["levelset", "compact", *argv, "1"])
    assert code == 1
    code, radii = run_json(capsys, ["levelset", "radii", *argv, "0.5"])
    assert code == 1
    for doc in (compact, radii):
        kinds = {w["kind"] for w in doc["witnesses"]}
        assert "non_monotone_ray" in kinds and "non-monotone_ray" not in kinds
    # check decomposable gives each such ray the t pair that shows it
    code, doc = run_json(capsys, ["check", "decomposable", *argv[:4]])
    assert code == 1
    pairs = [w["t_pair"] for w in doc["witnesses"]
             if w["kind"] == "non_monotone_ray"]
    assert pairs and all(len(pair) == 2 for pair in pairs)


def test_levelset_compact_names_a_non_finite_ray_as_check_decomposable(capsys):
    argv = ["--expr", "sqrt(x_1) + x_2^2", "--n", "2"]
    docs = [run_json(capsys, ["levelset", "compact", *argv, "--level", "1"]),
            run_json(capsys, ["levelset", "radii", *argv, "--level", "1"]),
            run_json(capsys, ["check", "decomposable", *argv])]
    for code, doc in docs:
        assert code == 1
        kinds = {w["kind"] for w in doc["witnesses"]}
        assert "non_finite" in kinds and "non-finite_ray" not in kinds


def test_levelset_radii_at_the_level_f_star_are_zero(capsys):
    code, doc = run_json(capsys, ["levelset", "radii", "--gallery", "sphere",
                                  "--n", "2", "--level", "0",
                                  "--directions", "8"])
    assert code == 0
    radii = doc["metrics"]["radii"]
    assert len(radii) == 8
    assert all(rec["status"] == "ok" and rec["radius"] == 0.0
               and rec["residual"] == 0.0 for rec in radii)
    # the level set {f = f(x_star)} is the point x_star, where
    # grad f(z) . (z - x_star) is 0
    code, doc = run_json(capsys, ["verify", "levelset-grad", "--gallery",
                                  "sphere", "--n", "2", "--level", "0"])
    assert code == 0
    assert doc["metrics"]["skipped"] == 0 and doc["metrics"]["spread"] == 0.0


def test_levelset_radii_names_a_constant_ray_at_the_level_whole_ray(capsys):
    # piecewise_ph is 0 off the cone x_1 x_2 > 0, so rays there sit at level 0
    code, doc = run_json(capsys, ["levelset", "radii", "--gallery",
                                  "piecewise_ph", "--level", "0"])
    assert code == 1
    statuses = [rec["status"] for rec in doc["metrics"]["radii"]]
    assert "whole-ray" in statuses
    assert {w["kind"] for w in doc["witnesses"]} == {"whole_ray"}
    assert len(doc["witnesses"]) == statuses.count("whole-ray")


def test_levelset_compact_bounded_radius(capsys):
    code, doc = run_json(capsys, ["levelset", "compact", "--gallery", "sphere",
                                  "--level", "4"])
    assert code == 0
    assert doc["metrics"]["max_radius"] == pytest.approx(2.0, abs=1e-8)


def test_levelset_negligible_quick(capsys):
    code, doc = run_json(capsys, ["levelset", "negligible", "--gallery",
                                  "sphere", "--level", "1", "--N", "20000"])
    assert code == 0
    assert doc["metrics"]["fractions"][0] == pytest.approx(0.0393, abs=0.006)


def test_levelset_negligible_fails_on_non_finite_samples(capsys):
    code, doc = run_json(capsys, ["levelset", "negligible", "--expr",
                                  "sqrt(x_1) + x_2^2", "--n", "2", "--level",
                                  "0.5", "--N", "20000"])
    assert code == 1
    kinds = [w["kind"] for w in doc["witnesses"]]
    assert kinds[:4] == ["non_finite"] * 4
    assert "witnesses" not in doc["metrics"]


def test_per_direction_witness_lists_stop_at_sixteen(capsys):
    code, doc = run_json(capsys, ["levelset", "radii", "--expr",
                                  "sin(3*x_1) + x_2^2", "--n", "2", "--level",
                                  "0.5", "--directions", "200"])
    assert code == 1
    assert len(doc["witnesses"]) == 16
    expr = " + ".join(f"sin(3*x_{i})" for i in range(1, 7))
    code, doc = run_json(capsys, ["check", "decomposable", "--expr", expr,
                                  "--n", "6"])
    assert code == 1
    kinds = [w["kind"] for w in doc["witnesses"]]
    assert kinds == ["si_violation"] + ["non_monotone_ray"] * 16


def test_solve_paired_level_rejects_a_subnormal_target(capsys):
    code, out, err = run_cli(capsys, ["solve", "paired-level", "--r", "1e-200"])
    assert code == 2 and out == ""
    assert "1.492e-154" in err


def test_levelset_bounds_on_homogeneous_entry(capsys):
    code, doc = run_json(capsys, ["levelset", "bounds", "--gallery", "norm",
                                  "--N", "500"])
    assert code == 0
    assert doc["metrics"]["si_sandwich"]["verdict"] == "pass"
    assert doc["metrics"]["ph_sandwich"]["verdict"] == "pass"


def test_levelset_bounds_finds_the_half_norm_maximum(capsys):
    # the former 2-pass golden-section polish stopped at M = 5.1961490 here
    # and reported an upper_bound witness on a sandwich that holds
    code, doc = run_json(capsys, ["levelset", "bounds", "--gallery",
                                  "half_norm", "--n", "3", "--N", "20000",
                                  "--seed", "10"])
    assert code == 0 and doc["witnesses"] == []
    ph = doc["metrics"]["ph_sandwich"]
    assert ph["M"] == pytest.approx(9 / math.sqrt(3), rel=1e-12)
    assert ph["notes"]["samples_above_polished_max"] == 0


@pytest.mark.parametrize("argv", [
    ["check", "si", "--gallery", "sphere", "--N", "10", "--box-radius", "inf"],
    ["check", "si", "--gallery", "sphere", "--N", "10", "--rho-max", "inf"],
    ["levelset", "compact", "--gallery", "sphere", "--level", "1",
     "--t-max", "inf"],
], ids=lambda argv: argv[-2])
def test_an_infinite_plan_bound_exits_two_naming_the_flag(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"argument {argv[-2]}: expected a finite number" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [
    ["decompose"], ["verify", "euler"], ["verify", "general-euler"]],
    ids=" ".join)
def test_a_degree_that_is_not_a_finite_number_exits_two(capsys, command,
                                                         value):
    code, out, err = run_cli(capsys, command + ["--gallery", "sphere", "--n",
                                                "2", f"--alpha={value}"])
    assert code == 2
    assert out == ""
    assert f"argument --alpha: expected a finite number, got {value!r}" in err


@pytest.mark.parametrize("command", [["decompose"], ["verify", "general-euler"]],
                         ids=" ".join)
def test_a_decomposition_degree_must_be_positive(capsys, command):
    for value in ("0", "-1"):
        code, out, err = run_cli(capsys, command + ["--gallery", "sphere",
                                                    f"--alpha={value}"])
        assert (code, out) == (2, "")
        assert f"argument --alpha: must be above 0, got {value!r}" in err


@pytest.mark.parametrize("refs", [["--x0", "1"], ["--x0", "1,2"],
                                  ["--x0", "1,0,0", "--x0-alt", "1,2"],
                                  ["--x1", "1,0,0", "--xm1=-1,0"]],
                         ids=" ".join)
def test_a_reference_point_of_the_wrong_length_exits_two(capsys, refs):
    code, out, err = run_cli(capsys, ["decompose", "--gallery", "sphere",
                                      "--n", "3", "--alpha", "2"] + refs)
    assert (code, out) == (2, "")
    assert "expected a vector of length 3" in err


@pytest.mark.parametrize("flags", [
    ["--x0", "inf,1"], ["--x0", "nan,1"], ["--x0", "1,1", "--x0-alt=-inf,1"],
    ["--x1", "1,0", "--xm1=-1,nan"], ["--x-star", "0,inf"],
], ids=["x0-inf", "x0-nan", "x0-alt", "xm1", "x-star"])
def test_a_non_finite_reference_vector_exits_two(capsys, flags):
    if flags[0] == "--x-star":
        argv = ["decompose", "--expr", "norm(x)", "--n", "2"] + flags
    else:
        argv = ["decompose", "--gallery", "linear_x1", "--n", "2"] + flags
    code, out, err = run_cli(capsys, argv + ["--N", "50"])
    assert (code, out) == (2, "")
    flag = flags[-1].split("=")[0] if flags[-1].startswith("--") else flags[-2]
    assert f"argument {flag}: expected finite coordinates" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# cert and solve


def test_cert_positive_region_on_sphere(capsys):
    code, doc = run_json(capsys, ["cert", "positive-region", "--gallery",
                                  "sphere"])
    assert code == 0
    assert doc["metrics"]["epsilon"] == pytest.approx(2.0, abs=1e-6)
    assert doc["metrics"]["delta"] == pytest.approx(0.2048, abs=1e-12)
    assert doc["metrics"]["stop_reason"] == "violation"


def test_solve_paired_level(capsys):
    code, doc = run_json(capsys, ["solve", "paired-level", "--r", "0.70710678"])
    assert code == 0
    assert doc["metrics"]["s"] == pytest.approx(1.3253041947515936, abs=1e-5)
    assert doc["metrics"]["residual"] <= 1e-10


# ---------------------------------------------------------------------------
# each command takes the sampling flags its probe reads, and no others

_FIELD = {"--gallery", "--param", "--expr", "--n", "--x-star", "--seed",
          "--out", "--format"}
_SAMPLE = {"--N", "--box-radius"}
_SCALE = {"--rho-min", "--rho-max"}
_GRID = {"--t-max", "--grid-points"}
_GRAD = {"--h", "--numerical"}
_OPTIONS = {
    "gallery list": {"--n", "--out", "--format"},
    "check si": _FIELD | _SAMPLE | _SCALE | {"--atol"},
    "check decomposable": _FIELD | _GRID,
    "decompose": _FIELD | _SAMPLE | _SCALE | _GRID | {
        "--alpha", "--x0", "--x1", "--xm1", "--x0-alt", "--x1-alt",
        "--xm1-alt", "--comp-tol", "--ph-tol"},
    "verify euler": _FIELD | _SAMPLE | _GRAD | {"--alpha", "--tol",
                                                "--coord-floor"},
    "verify general-euler": _FIELD | _SAMPLE | _GRID | _GRAD | {"--alpha",
                                                                "--tol"},
    "verify levelset-grad": _FIELD | _GRAD | {"--level", "--points", "--tol"},
    "levelset radii": _FIELD | _GRID | {"--level", "--directions",
                                        "--sweep-csv"},
    "levelset bounds": _FIELD | _SAMPLE | _GRID | {"--slack", "--rtol"},
    "levelset compact": _FIELD | _GRID | {"--level"},
    "levelset negligible": _FIELD | _SAMPLE | {"--level", "--eps",
                                               "--rate-bound"},
    "cert positive-region": _FIELD | _GRAD,
    "solve paired-level": {"--r", "--tol", "--out", "--format"},
}

# the smallest command line each command runs with
_BASE_ARGV = {
    "gallery list": ["gallery", "list"],
    "solve paired-level": ["solve", "paired-level", "--r", "0.5"],
    **{command: command.split() + ["--gallery", "sphere"]
       + (["--level", "1"] if "--level" in options else [])
       for command, options in _OPTIONS.items() if "--gallery" in options},
}

_PLAN_FLAGS = {"--N": "10", "--box-radius": "1", "--rho-min": "0.2",
               "--rho-max": "5", "--t-max": "0.5", "--grid-points": "12"}

# (command, flag, value): each sampling flag a field command's probe does not
# read, --seed on the two commands that draw nothing, and levelset bounds
# --alpha, which changed nothing but the last bits of m and M
_REMOVED = [(command, flag, value)
            for command, options in _OPTIONS.items() if "--seed" in options
            for flag, value in _PLAN_FLAGS.items() if flag not in options]
_REMOVED += [("gallery list", "--seed", "3"),
             ("solve paired-level", "--seed", "3"),
             ("levelset bounds", "--alpha", "2")]


def _parser_options() -> dict:
    """Subcommand -> the option strings its parser accepts (help aside)."""
    out = {}

    def walk(parser, path):
        subs = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
        for action in subs:
            for name, child in action.choices.items():
                walk(child, path + [name])
        if not subs:
            out[" ".join(path)] = {opt for a in parser._actions
                                   if not isinstance(a, argparse._HelpAction)
                                   for opt in a.option_strings}
    walk(cli.build_parser(), [])
    return out


def test_each_subcommand_accepts_exactly_its_options():
    options = _parser_options()
    assert options == _OPTIONS
    assert sum(len(v) for v in options.values()) == 158
    assert len(_REMOVED) == 41


@pytest.mark.parametrize("command,flag,value", _REMOVED,
                         ids=[f"{c} {f}" for c, f, _ in _REMOVED])
def test_a_flag_the_command_does_not_read_exits_two(capsys, command, flag,
                                                    value):
    code, out, err = run_cli(capsys, _BASE_ARGV[command] + [flag, value])
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}" in err


def test_config_echoes_only_the_sampling_flags_the_command_reads(capsys):
    plan_keys = ["samples", "box_radius", "rho_min", "rho_max", "t_max",
                 "grid_points"]
    code, doc = run_json(capsys, _BASE_ARGV["levelset compact"]
                         + ["--t-max", "5"])
    assert code == 0
    assert [k for k in doc["config"] if k in plan_keys] == ["t_max",
                                                            "grid_points"]
    assert doc["config"]["t_max"] == 5.0
    code, doc = run_json(capsys, _BASE_ARGV["decompose"] + ["--alpha", "2"])
    assert code == 0
    assert [k for k in doc["config"] if k in plan_keys] == plan_keys
    code, doc = run_json(capsys, _BASE_ARGV["verify levelset-grad"])
    assert code == 0
    assert not set(plan_keys) & set(doc["config"])


def test_commands_that_draw_nothing_take_no_seed(capsys):
    code, doc = run_json(capsys, _BASE_ARGV["gallery list"])
    assert code == 0
    assert doc["config"] == {"n": 2, "format": "json"}
    code, doc = run_json(capsys, _BASE_ARGV["solve paired-level"])
    assert code == 0
    assert doc["config"] == {"r": 0.5, "tol": 1e-10, "format": "json"}


def _leaf_parser(command):
    """The subparser of ``command``, such as "levelset radii"."""
    parser = cli.build_parser()
    for name in command.split():
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


@pytest.mark.parametrize("command", sorted(_OPTIONS))
def test_config_is_the_function_then_every_other_flag_as_parsed(capsys,
                                                                command):
    argv = _BASE_ARGV[command]
    code, doc = run_json(capsys, argv)
    assert code in (0, 1)
    dests = [a.dest for a in _leaf_parser(command)._actions
             if not isinstance(a, argparse._HelpAction)
             and a.dest not in ("out", "sweep_csv")]
    if "gallery" in dests:
        dests = ["function"] + [d for d in dests if d not in
                                ("gallery", "param", "expr", "n", "x_star")]
    assert list(doc["config"]) == dests
    parsed = vars(cli.build_parser().parse_args(argv))
    assert {k: v for k, v in doc["config"].items() if k != "function"} == \
        {k: siphkit.jsonable(parsed[k]) for k in dests if k != "function"}


@pytest.mark.parametrize("argv,flag,value", [
    (["decompose", "--gallery", "sq_norm", "--N", "50", "--x0", "1,0"],
     "--x0-alt", "2,0"),
    (["levelset", "radii", "--gallery", "sphere", "--level", "1"],
     "--directions", "7"),
    (["verify", "euler", "--gallery", "sphere", "--N", "50"],
     "--numerical", None),
], ids=["x0-alt", "directions", "numerical"])
def test_runs_that_differ_in_one_flag_have_different_configs(capsys, argv,
                                                             flag, value):
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv + [flag] + ([value] if value else []))
    key = flag[2:].replace("-", "_")
    assert first["config"][key] != second["config"][key]
    assert {k: v for k, v in first["config"].items() if k != key} == \
        {k: v for k, v in second["config"].items() if k != key}


# ---------------------------------------------------------------------------
# seeds, determinism, output plumbing


def test_a_seed_environment_variable_changes_nothing(capsys, monkeypatch):
    argv = ["check", "si", "--gallery", "random_si", "--seed", "7", "--N",
            "100"]
    monkeypatch.delenv("SIPH_SEED", raising=False)
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    for env in ("123", "not-a-number"):
        monkeypatch.setenv("SIPH_SEED", env)
        again, out_env, err_env = run_cli(capsys, argv)
        assert (again, err_env) == (code, err)
        assert _strip_wall_time(out_env) == _strip_wall_time(out)


def test_flag_seed_is_used_without_environment(capsys, monkeypatch):
    monkeypatch.delenv("SIPH_SEED", raising=False)
    code, doc = run_json(capsys, ["check", "si", "--gallery", "sphere",
                                  "--seed", "7", "--N", "100"])
    assert code == 0
    assert doc["config"]["seed"] == 7
    assert "seed_source" not in doc["config"]


def _strip_wall_time(text):
    return [line for line in text.splitlines() if "wall_time_ms" not in line]


def test_reruns_are_identical_except_wall_time(capsys, tmp_path):
    argv = ["check", "si", "--gallery", "gauss_si", "--N", "500",
            "--seed", "3"]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert _strip_wall_time(out_a.read_text()) == _strip_wall_time(out_b.read_text())


def test_csv_report_format(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, ["check", "si", "--gallery", "sphere",
                                  "--N", "100", "--format", "csv",
                                  "--out", str(target)])
    assert code == 0
    rows = list(csv.reader(target.open()))
    assert rows[0] == ["kind", "key", "value"]
    assert ["meta", "verdict", "pass"] in rows


def test_unwritable_output_path_exits_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["check", "si", "--gallery", "sphere",
                                    "--N", "100",
                                    "--out", str(tmp_path / "no" / "dir.json")])
    assert code == 2
    assert "cannot write report" in err


def test_non_finite_reference_value_exits_two(capsys):
    code, out, err = run_cli(capsys, ["check", "si", "--expr", "log(x_1)",
                                      "--n", "2", "--N", "50"])
    assert code == 2
    assert out == ""
    assert "siphkit: error: f(x_star) is not finite" in err
    assert "RuntimeWarning" not in err


def _fresh_python(code, *args, **env):
    """Run `python -W error::RuntimeWarning -c code *args` on this process's
    siphkit, with the environment variables ``env`` added; returns stdout."""
    src = os.path.dirname(os.path.dirname(siphkit.__file__))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code, *args],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src, **env}).stdout


# an expression, in a child, for its peak RSS in MB: VmHWM, the high-water
# mark of the child's own memory.  ru_maxrss would not do: exec carries the
# parent's high-water mark into it, and this test process's exceeds every
# bound below.
_PEAK_MB = ("int(open('/proc/self/status').read()"
            ".split('VmHWM:')[1].split()[0]) / 1024")


def test_importing_the_cli_does_not_load_scipy_optimize():
    code = ("import sys, siphkit.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    assert _fresh_python(code).strip() == "[]"


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracer.py wraps siphkit functions by name, and install()
    # raises when one of them is gone
    perfbench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tracer; "
            "print(len(tracer.install().bindings))")
    out = _fresh_python(code, perfbench, PYTHONDONTWRITEBYTECODE="1")
    assert int(out) > 0


def test_importing_the_cli_does_not_load_scipy_special():
    code = ("import json, sys, siphkit.cli; siphkit.cli.build_parser(); "
            f"print(json.dumps([sorted(sys.modules), {_PEAK_MB}]))")
    modules, peak_mb = json.loads(_fresh_python(code))
    heavy = ("scipy.special", "scipy.optimize", "numpy.f2py")
    assert [m for m in modules if m.startswith(heavy)] == []
    # perfbench/worker.py _setup reads scipy.__version__ after this import
    assert "scipy" in modules
    # 31.7 MB, against 55.7 MB when gallery imported scipy.special at
    # module level
    assert peak_mb < 45


# the child runs cli.main on its argv and prints the exit code, stdout,
# stderr, whether scipy.special was loaded, and its peak RSS in MB
_MAIN_IN_CHILD = f"""
import contextlib, io, json, sys
from siphkit.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(sys.argv[1:])
print(json.dumps({{"code": code, "out": out.getvalue(), "err": err.getvalue(),
                  "special": "scipy.special" in sys.modules,
                  "peak_mb": {_PEAK_MB}}}))
"""


@pytest.mark.parametrize("argv", [
    ["gallery", "list"],
    ["check", "si", "--gallery", "sphere", "--n", "2", "--N", "100"],
    ["check", "si", "--expr", "norm(x)^2", "--n", "2", "--N", "100"],
], ids=["gallery-list", "sphere", "expr"])
def test_a_command_without_logsq_si_does_not_load_scipy_special(argv):
    child = json.loads(_fresh_python(_MAIN_IN_CHILD, *argv))
    assert child["code"] == 0
    assert not child["special"]


def test_a_logsq_si_command_loads_scipy_special_with_the_same_report(capsys):
    argv = ["check", "si", "--gallery", "logsq_si", "--n", "2", "--N", "1500",
            "--seed", "1"]
    child = json.loads(_fresh_python(_MAIN_IN_CHILD, *argv))
    assert child["code"] == 0
    assert child["special"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert _strip_wall_time(child["out"]) == _strip_wall_time(out)


def test_logsq_profile_first_called_in_a_fresh_process_matches():
    from siphkit.gallery import logsq_profile
    code = ("import sys; from siphkit.gallery import logsq_profile; "
            "assert 'scipy.special' not in sys.modules; "
            "print(repr(logsq_profile(2.0)))")
    assert _fresh_python(code).strip() == repr(logsq_profile(2.0))


def test_a_paired_level_solve_does_not_load_scipy_optimize():
    code = ("import sys; from siphkit.euler import paired_level_solver; "
            "paired_level_solver(0.5); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    assert _fresh_python(code).strip() == "[]"


# sizes far above the 128 TiB address space: numpy refuses them before
# reserving anything
_HUGE = "100000000000000"


@pytest.mark.parametrize("argv", [
    ["levelset", "compact", "--gallery", "sphere", "--level", "1",
     "--grid-points", _HUGE],
    ["check", "si", "--gallery", "sphere", "--n", _HUGE],
    ["levelset", "radii", "--gallery", "sphere", "--level", "1",
     "--directions", _HUGE],
    ["verify", "levelset-grad", "--gallery", "sphere", "--level", "1",
     "--points", _HUGE],
], ids=["compact", "check-si", "radii", "levelset-grad"])
def test_a_size_that_cannot_be_allocated_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("siphkit: error: Unable to allocate")


def _radii(doc):
    return doc["metrics"]["radii"]


class _Run(NamedTuple):
    """A command line and what its run must show."""

    argv: list  # "{tmp}" is a scratch directory
    code: int  # the exit code
    kinds: Optional[list] = []  # the report's witness kinds; None: not read
    err: str = ""  # a pattern stderr must match; "": stderr is empty
    check: Optional[Callable] = None  # of the report
    # run in a fresh interpreter, whose peak RSS must stay below this many MB
    rss_mb: Optional[float] = None


# command lines checked for their exit code, witness kinds, stderr and one
# report check, in one table.  No stderr holds a traceback, a run that exits
# 2 prints no report, and a JSON report is a fixed point of
# json.dumps(..., indent=2): each record list written through its record
# array's one template, the nan cells as "nan".
_RUNS = {
    "bounds-ellipsoid": _Run(["levelset", "bounds", "--gallery", "ellipsoid",
                              "--n", "3", "--format", "json"], 0),
    "bounds-sphere": _Run(["levelset", "bounds", "--gallery", "sphere", "--n",
                           "3", "--format", "json"], 0),
    # the SI sandwich alone, through the sphere search both sandwiches share
    "bounds-saddle_si": _Run(["levelset", "bounds", "--gallery", "saddle_si",
                              "--n", "3", "--format", "json"], 0,
                             check=lambda doc: list(doc["metrics"]) == [
                                 "si_sandwich"]),
    # the sphere search at n = 1
    "bounds-sq_norm-n1": _Run(["levelset", "bounds", "--gallery", "sq_norm",
                               "--n", "1", "--format", "json"], 0),
    # batches wide enough in rows to take the column-wise row sums
    "check-si-gauss_si": _Run(["check", "si", "--gallery", "gauss_si", "--n",
                               "3", "--N", "20000", "--format", "json"], 0),
    "check-si-csv": _Run(["check", "si", "--gallery", "sphere", "--N", "500",
                          "--format", "csv"], 0),
    # the ellipsoid's einsum through a full matrix, and its diagonal product
    "check-si-ellipsoid-matrix": _Run(
        ["check", "si", "--gallery", "ellipsoid", "--n", "3", "--N", "2000",
         "--param", "matrix=2,0.5,0.1;0.5,1,0.3;0.1,0.3,3"], 0,
        check=lambda doc: doc["metrics"] == {"trials": 2008, "violations": 0}),
    "check-si-ellipsoid-diag": _Run(
        ["check", "si", "--gallery", "ellipsoid", "--n", "3", "--N", "2000",
         "--param", "diag=1,2,3"], 0,
        check=lambda doc: doc["metrics"] == {"trials": 2008, "violations": 0}),
    "decompose-random_si": _Run(["decompose", "--gallery", "random_si", "--n",
                                 "3", "--N", "2000", "--format", "json"], 0),
    "decompose-x0-wrong-length": _Run(
        ["decompose", "--gallery", "sphere", "--n", "3", "--x0", "1"], 2,
        None, "expected a vector of length 3"),
    "decompose-uniqueness": _Run(
        ["decompose", "--gallery", "gauss_si", "--n", "4", "--N", "3000",
         "--x0-alt", "0.3,-0.7,0.5,0.2", "--format", "json"], 0,
        check=lambda doc: doc["metrics"]["uniqueness"]["passed"] is True),
    "decompose-not-si": _Run(["decompose", "--expr", "x_1^2 + x_2^4", "--n",
                              "2", "--N", "2000", "--format", "json"], 1,
                             ["residual_exceeded"]),
    # a ray that starts on the reference level of the alternate build
    "decompose-ray-on-level": _Run(
        ["decompose", "--gallery", "tanh_exp", "--n", "2", "--seed", "2",
         "--N", "1000", "--x0-alt", "0.5,0.25"], 1, None),
    "decompose-huge-N": _Run(["decompose", "--gallery", "sphere", "--n", "2",
                              "--N", _HUGE], 2, None,
                             "^siphkit: error: Unable to allocate"),
    "decompose-x0-inf": _Run(["decompose", "--gallery", "sphere", "--n", "2",
                              "--x0", "inf,1"], 2, None,
                             "argument --x0: expected finite coordinates"),
    # p(X) seeded from the table along the reference ray, where phi has
    # flat points at which the table's brackets straddle least
    "decompose-saddle_si": _Run(["decompose", "--gallery", "saddle_si", "--n",
                                 "4", "--N", "5000", "--seed", "1572086986",
                                 "--format", "json"], 0, None),
    # f is 6.4e-9 at the unit reference the sphere search finds, so the
    # reference is rescaled along its ray to the scale in 1/8 ... 8 whose
    # value is nearest 1 in magnitude: the largest, 8
    "decompose-rescaled-reference": _Run(
        ["decompose", "--expr", "1e-10*norm(x)^2", "--n", "2", "--N", "200",
         "--format", "json"], 0,
        check=lambda doc: math.isclose(math.hypot(
            *doc["metrics"]["decomposition"]["reference"]), 8.0, rel_tol=1e-12)),
    # one table per sign class
    "decompose-linear_x1": _Run(
        ["decompose", "--gallery", "linear_x1", "--n", "3", "--N", "2000",
         "--format", "json"], 0, None,
        check=lambda doc: doc["metrics"]["decomposition"]["case"] == "two-sided"),
    # 129 of the 300 rows start on the level of f(x0), so p = inf there
    "decompose-row-on-level": _Run(
        ["decompose", "--gallery", "tanh_exp", "--n", "2", "--N", "300",
         "--x0=0.5,0.3", "--format", "json"], 1, None),
    # rho^alpha overflows at a huge alpha, and at 1e308 so does p
    "decompose-alpha-400": _Run(["decompose", "--gallery", "sphere", "--n",
                                 "2", "--N", "200", "--alpha", "400",
                                 "--format", "json"], 0),
    "decompose-alpha-400-x0-alt": _Run(
        ["decompose", "--gallery", "sphere", "--n", "2", "--N", "200",
         "--alpha", "400", "--x0-alt", "0.3,0.5", "--format", "json"], 0),
    "decompose-alpha-1e308": _Run(["decompose", "--gallery", "sphere", "--n",
                                   "2", "--N", "200", "--alpha", "1e308",
                                   "--format", "json"], 1,
                                  ["residual_exceeded"]),
    "decompose-alpha-1e308-x0-alt": _Run(
        ["decompose", "--gallery", "sphere", "--n", "2", "--N", "200",
         "--alpha", "1e308", "--x0-alt", "0.3,0.5", "--format", "json"], 1,
        ["residual_exceeded"]),
    # alpha p overflows to inf on most samples, and the finite residuals
    # near the float maximum sum to inf
    "euler-alpha-1e308": _Run(
        ["verify", "euler", "--gallery", "sphere", "--n", "2", "--N", "300",
         "--alpha", "1e308"], 1, ["non_finite"] * 4 + ["euler_residual"],
        check=lambda doc: doc["metrics"]["mean_residual"] == "inf"),
    # 1/alpha = 1e300, so phi's radii |t|^(1/alpha) overflow
    "general-euler-alpha-1e-300": _Run(
        ["verify", "general-euler", "--gallery", "gauss_si", "--n", "3",
         "--N", "300", "--alpha", "1e-300"], 1, ["general_euler_residual"]),
    "radii-500-records": _Run(
        ["levelset", "radii", "--gallery", "sphere", "--n", "3", "--level",
         "4", "--directions", "500", "--format", "json"], 0,
        check=lambda doc: len(_radii(doc)) == 500),
    # the level -1 lies below f on every ray: "nan" radii and residuals
    "radii-nan-cells": _Run(
        ["levelset", "radii", "--gallery", "sphere", "--n", "2", "--level",
         "-1", "--directions", "20", "--format", "json"], 0,
        check=lambda doc: json.dumps(doc).count('"nan"') == 40),
    # the level f(x_star) = 0 is reached at radius 0 on every ray
    "radii-level-f-star": _Run(
        ["levelset", "radii", "--gallery", "sphere", "--n", "2", "--level",
         "0", "--directions", "8", "--format", "json"], 0,
        check=lambda doc: len(_radii(doc)) == 8 and all(
            r["status"] == "ok" and r["radius"] == 0.0 for r in _radii(doc))),
    # the config echoes --directions, and neither the --sweep-csv path nor
    # a seed_source
    "radii-config-echo": _Run(
        ["levelset", "radii", "--gallery", "sphere", "--n", "2", "--level",
         "1", "--directions", "7", "--sweep-csv", "{tmp}/sweep.csv",
         "--format", "json"], 0,
        check=lambda doc: doc["config"]["directions"] == 7
        and "sweep_csv" not in doc["config"]
        and "seed_source" not in doc["config"]),
    # rays with x_1 < 0 jump over the level
    "radii-discontinuous": _Run(
        ["levelset", "radii", "--gallery", "tanh_exp", "--n", "2", "--level",
         "0.5", "--directions", "16", "--format", "json"], 1,
        ["discontinuous_ray"] * 11),
    # every probe draws its samples in row blocks and keeps at most a
    # float64 per sample (the one-shot probes peaked at 203 MB and 1,005 MB)
    "rss-verify-euler": _Run(["verify", "euler", "--gallery", "sphere", "--n",
                              "4", "--N", "1600000"], 0, rss_mb=120),
    "rss-decompose-x0-alt": _Run(
        ["decompose", "--alpha", "2", "--x0-alt", "0.3,-0.7,0.5,0.2",
         "--gallery", "sphere", "--n", "4", "--N", "1600000"], 0, rss_mb=120),
}


def _report(out):
    """The verdict and witnesses of a JSON or CSV report; a JSON one, all
    of it."""
    if out.startswith("kind,key,value"):
        rows = list(csv.reader(out.splitlines()))
        meta = {key: value for kind, key, value in rows if kind == "meta"}
        return {"verdict": meta["verdict"],
                "witnesses": [json.loads(value) for kind, _, value in rows
                              if kind == "witness"]}
    doc = json.loads(out)
    assert json.dumps(doc, indent=2) + "\n" == out
    return doc


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_command_runs(capsys, tmp_path, name):
    run = _RUNS[name]
    argv = [a.replace("{tmp}", str(tmp_path)) for a in run.argv]
    if run.rss_mb is None:
        code, out, err = run_cli(capsys, argv)
    else:
        child = json.loads(_fresh_python(_MAIN_IN_CHILD, *argv))
        code, out, err = child["code"], child["out"], child["err"]
        assert child["peak_mb"] < run.rss_mb
    assert code == run.code
    assert "Traceback" not in err
    assert re.search(run.err, err) if run.err else err == ""
    if code == 2:
        assert out == ""
        return
    doc = _report(out)
    assert doc["verdict"] == ("pass" if code == 0 else "fail")
    if run.kinds is not None:
        assert [w["kind"] for w in doc["witnesses"]] == run.kinds
    if run.check is not None:
        assert run.check(doc), doc["metrics"]


def test_a_gradient_product_that_is_not_finite_is_witnessed(capsys):
    # every level point of half_norm at level 0 is x_star, where the
    # central difference of the gradient is nan; the point is taken once
    code, doc = run_json(capsys, ["verify", "levelset-grad", "--gallery",
                                  "half_norm", "--n", "2", "--level", "0"])
    assert code == 1
    assert doc["witnesses"] == [{"kind": "non_finite", "x": [0.0, 0.0]}]
    assert doc["metrics"]["spread"] == "nan"
    assert "witnesses" not in doc["metrics"]


@pytest.mark.parametrize("action,expr,alpha,tol_kind", [
    ("euler", "x_1 + x_2 + 0*sqrt(x_1)", "1", "euler_residual"),
    ("general-euler", "x_1^2 + x_2^2 + 0*sqrt(x_1)", "2",
     "general_euler_residual"),
])
def test_euler_commands_witness_non_finite_samples_first(capsys, action, expr,
                                                         alpha, tol_kind):
    # the field is nan wherever x_1 < 0; its finite half holds the identity
    argv = ["verify", action, "--expr", expr, "--n", "2", "--alpha", alpha]
    code, doc = run_json(capsys, argv)
    assert code == 1
    assert [w["kind"] for w in doc["witnesses"]] == ["non_finite"] * 4
    assert all(w["x"][0] < 0 for w in doc["witnesses"])
    assert "witnesses" not in doc["metrics"]
    code, doc = run_json(capsys, argv + ["--tol", "0"])
    assert code == 1
    assert [w["kind"] for w in doc["witnesses"]] == ["non_finite"] * 4 + [tol_kind]


def test_general_euler_where_every_p_underflows_fails_without_warning(capsys):
    # every p is 0 on this box, where the phi' step would be 0: no sample is
    # kept, so the residual is nan, and nothing is witnessed as non-finite
    argv = ["verify", "general-euler", "--gallery", "gauss_si", "--n", "2",
            "--box-radius", "1e-300", "--N", "50"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert [w["kind"] for w in doc["witnesses"]] == ["general_euler_residual"]
    assert (doc["metrics"]["n_samples"], doc["metrics"]["excluded"]) == (0, 50)


def test_general_euler_at_a_huge_alpha_warns_nothing(capsys):
    # p = lambda^-alpha overflows to inf or underflows to 0 on every sample
    code, doc = run_json(capsys, ["verify", "general-euler", "--gallery",
                                  "sphere", "--n", "2", "--N", "200",
                                  "--alpha", "1e308"])
    assert code == 1
    assert [w["kind"] for w in doc["witnesses"]] == (
        ["non_finite"] * 4 + ["general_euler_residual"])


def test_a_decomposition_where_f_overflows_warns_nothing(capsys):
    # exp(norm(x)^2) is inf on part of the box, and so is phi(p) there
    argv = ["decompose", "--expr", "exp(norm(x)^2)", "--n", "2", "--seed",
            "107975", "--N", "64", "--box-radius", "50"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (1, "")
    kinds = [w["kind"] for w in json.loads(out)["witnesses"]]
    assert kinds[:4] == ["non_finite"] * 4


def test_a_reference_where_f_is_not_finite_fails_the_build(capsys):
    # f = inf at (1e200, 1): no reference level, in either build
    code, doc = run_json(capsys, ["decompose", "--gallery", "sphere", "--n", "2",
                                  "--x0", "1e200,1", "--N", "50"])
    assert code == 1
    assert [w["kind"] for w in doc["witnesses"]] == ["build_failed"]
    code, doc = run_json(capsys, ["decompose", "--gallery", "sphere", "--n", "2",
                                  "--x0", "1,1", "--x0-alt=1e200,1", "--N", "50"])
    assert code == 1
    assert [(w["kind"], w["which"]) for w in doc["witnesses"]] == [
        ("build_failed", "alternate")]


def test_rows_the_alternate_build_cannot_solve_are_witnessed(capsys):
    # f(x0-alt) is about 2.96; rays with x_1 < 0 saturate near 1 below it
    code, doc = run_json(capsys, [
        "decompose", "--expr", "tanh(x_1^2 + x_2^2) * (2 + tanh(x_1))",
        "--n", "2", "--x0", "0.5,0", "--x0-alt", "2,0", "--N", "50"])
    assert code == 1
    alternate = [w for w in doc["witnesses"] if w.get("which") == "alternate"]
    assert alternate and {w["kind"] for w in alternate} == {"unbounded_ray"}
    assert doc["witnesses"][-1]["kind"] == "uniqueness_violation"


def test_check_si_at_zero_atol_emits_no_runtime_warning(capsys):
    # f(rho x) is inf on the axis x_1 = 0; at atol 0 its tie band is 0 * inf
    argv = ["check", "si", "--expr", "1/abs(x_1)", "--n", "2",
            "--x-star", "0.5,1", "--atol", "0", "--N", "200"]
    code, out, err = run_cli(capsys, argv)
    assert err == ""
    assert code in (0, 1)
    assert json.loads(out)["config"]["atol"] == 0.0


# ---------------------------------------------------------------------------
# repeated calls in one process

# --param twice in a row would show a list default shared between calls, and
# a run with --eps before one without would show a changed --eps default
_CALL_SEQUENCE = [
    ["check", "si", "--gallery", "sphere", "--N", "50"],
    ["check", "si", "--gallery", "sphere", "--bogus"],
    ["check", "si", "--gallery", "sphere", "--N", "50", "--seed", "3"],
    ["check", "si", "--gallery", "sphere", "--N", "50", "--seed", "3",
     "--format", "csv"],
    ["check", "si", "--gallery", "random_si", "--param", "eps=0.2",
     "--param", "modes=3", "--N", "50"],
    ["check", "si", "--gallery", "random_si", "--param", "eps=0.1",
     "--param", "seed=4", "--N", "50", "--format", "csv"],
    ["levelset", "radii", "--gallery", "ellipsoid", "--level", "1"],
    ["levelset", "radii", "--gallery", "sphere"],
    ["solve", "paired-level", "--r", "0.5"],
    ["gallery", "list", "--format", "csv"],
    ["levelset", "negligible", "--gallery", "sphere", "--level", "1", "--N",
     "1000", "--eps", "0.2,0.1"],
    ["levelset", "negligible", "--gallery", "sphere", "--level", "1", "--N",
     "1000"],
]


def _run_sequence(capsys):
    results = []
    for argv in _CALL_SEQUENCE:
        code, out, err = run_cli(capsys, argv)
        results.append((code, _strip_wall_time(out), err))
    return results


def test_repeated_main_calls_match_a_fresh_parser_per_call(capsys, monkeypatch):
    shared = _run_sequence(capsys)
    monkeypatch.setattr(cli, "_parser", cli.build_parser, raising=False)
    fresh = _run_sequence(capsys)
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 0, 0, 0, 2, 0, 0,
                                                0, 0]
    assert shared == fresh


def test_main_builds_its_parser_once(capsys, monkeypatch):
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    for _ in range(3):
        run_cli(capsys, ["check", "si", "--gallery", "sphere", "--N", "20"])
    # none at all when an earlier call in this process built it
    assert len(calls) <= 1


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()


# ---------------------------------------------------------------------------
# each probe decides its own verdict: a library call and a CLI run agree


def _decompose_witnesses(args, field, plan):
    d = build_decomposition(field, alpha=args.alpha, plan=plan)
    check = verify_decomposition(field, d, plan, comp_tol=args.comp_tol,
                                 ph_tol=args.ph_tol)
    if args.x0_alt is None:
        return check.witnesses
    try:
        d2 = build_decomposition(field, alpha=args.alpha, plan=plan,
                                 x0=args.x0_alt)
    except DecompositionError as exc:
        return check.witnesses + [{"kind": "build_failed", "reason": str(exc),
                                   "which": "alternate"}]
    uq = uniqueness_check(field, d, d2, plan, p1=check.p_samples)
    return check.witnesses + uq.witnesses


def _bounds_witnesses(args, field, plan):
    degree = field.meta.ph_degree
    d = build_decomposition(field, alpha=degree or 1.0, plan=plan)
    si, ph = check_sandwiches(field, d, plan, slack=args.slack, degree=degree,
                              rtol=args.rtol)
    return si.witnesses + (ph.witnesses if ph is not None else [])


# command -> (argv before the function flags, the flags that set its
# tolerances to 0, the probe's own witnesses for the parsed arguments)
_PROBE_COMMANDS = {
    "verify euler": (["verify", "euler", "--alpha", "{alpha}"], ["--tol", "0"],
                     lambda a, f, p: euler_residual(
                         f, a.alpha, p, cli._grad_spec(a),
                         coord_floor=a.coord_floor, tol=a.tol).witnesses),
    "verify general-euler": (
        ["verify", "general-euler", "--N", "400"], ["--tol", "0"],
        lambda a, f, p: general_euler_residual(
            f, build_decomposition(f, alpha=a.alpha, plan=p), p,
            cli._grad_spec(a), tol=a.tol).witnesses),
    "decompose": (["decompose"], ["--comp-tol", "0", "--ph-tol", "0"],
                  _decompose_witnesses),
    "decompose --x0-alt": (["decompose", "--x0-alt", "{point}"],
                           ["--comp-tol", "0", "--ph-tol", "0"],
                           _decompose_witnesses),
    "verify levelset-grad": (
        ["verify", "levelset-grad", "--level", "1"], ["--tol", "0"],
        lambda a, f, p: levelset_gradient_constancy(
            f, a.level, n_points=a.points, grad_spec=cli._grad_spec(a),
            seed=p.seed, tol=a.tol).witnesses),
    "levelset bounds": (["levelset", "bounds", "--N", "600"],
                        ["--slack", "0", "--rtol", "0"], _bounds_witnesses),
    "cert positive-region": (["cert", "positive-region"], [],
                             lambda a, f, p: positive_gradient_region(
                                 f, p, cli._grad_spec(a)).witnesses),
}


@pytest.mark.parametrize("command,at_zero", [
    (command, at_zero) for command, (_, zero, _) in sorted(_PROBE_COMMANDS.items())
    for at_zero in ([False, True] if zero else [False])])
def test_each_probe_gives_the_verdict_of_its_command(capsys, command, at_zero):
    head, zero, probe = _PROBE_COMMANDS[command]
    names = sorted(siphkit.gallery.REGISTRY) + ["random_si"]
    checked = 0
    for name in names:
        for n in (2, 3):
            flags = ["--gallery", name, "--n", str(n), "--seed", "7"]
            field, _ = cli._resolve_field(cli._parser().parse_args(
                ["check", "si"] + flags))
            argv = [a.format(alpha=field.meta.ph_degree or 2.0,
                             point=",".join(["0.3", "-0.7", "0.5"][:n]))
                    for a in head] + flags + (zero if at_zero else [])
            code, out, err = run_cli(capsys, argv + ["--format", "json"])
            assert err == "", argv
            witnesses = json.loads(out)["witnesses"]
            if [w["kind"] for w in witnesses] == ["build_failed"]:
                continue  # the decomposition, not the probe, failed
            args = cli._parser().parse_args(argv)
            found = probe(args, field, cli._plan_from(args))
            assert jsonable(found) == witnesses, argv
            assert (code == 0) == (not found), argv
            checked += 1
    assert checked >= 20
