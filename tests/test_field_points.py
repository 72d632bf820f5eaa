"""The field-point budget: how many points each command evaluates.

Every command below runs in-process at a small size and a fixed seed, and a
wrapper around ``ScalarField._eval_batch`` counts its calls and the rows it
is handed.  The counts are deterministic and machine-independent, so they
must equal the figures in ``field_points.json`` exactly: a higher count is a
cost the change did not mean to add, and a lower one is a saving to record
there.  Calls are counted next to points because a geometry command pays
per call: a second root solve over a few rows shows in the calls, hardly in
the points.  The rows cover the
commands of the benchmark's three workloads: bulk sampling, batched
decompositions and level-set geometry.  A root solve's count rests on the
bits of numpy's kernels, so the figures hold for the numpy and scipy
versions that ``tier1.yml`` pins.

Each row also pins its report: ``digest`` is the sha256 of the report's
bytes with the ``wall_time_ms`` value blanked, so a change that moves any
other digit of a report moves it.

After a change that is meant to move a count or a report, rewrite the file
with

    PYTHONPATH=src python tests/test_field_points.py

and say in the change which counts and reports moved and why.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys

import pytest

from siphkit.cli import main
from siphkit.field import ScalarField

BUDGET = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "field_points.json")

COMMANDS = {
    # bulk Monte Carlo probes
    "check-si-ellipsoid": ["check", "si", "--gallery", "ellipsoid", "--n", "8",
                           "--N", "3000"],
    "check-si-random_si": ["check", "si", "--gallery", "random_si", "--n", "3",
                           "--N", "2000"],
    "check-si-expr": ["check", "si", "--expr", "norm(x)^2", "--n", "3",
                      "--N", "2000"],
    "negligible-gauss_si": ["levelset", "negligible", "--gallery", "gauss_si",
                            "--n", "4", "--N", "5000", "--level", "0.5"],
    "euler-norm-numerical": ["verify", "euler", "--gallery", "norm", "--n", "6",
                             "--N", "1000", "--numerical"],
    "euler-sphere-two-blocks": ["verify", "euler", "--gallery", "sphere", "--n",
                                "4", "--N", "12000"],
    # batched ray root solves
    "decompose-random_si": ["decompose", "--gallery", "random_si", "--n", "3",
                            "--N", "1500"],
    "decompose-ellipsoid-x0-alt": ["decompose", "--gallery", "ellipsoid", "--n",
                                   "5", "--N", "1000", "--x0=0.5,-0.3,1,0.25,-1.2",
                                   "--x0-alt=-0.7,0.4,0.3,1.1,0.6"],
    "decompose-gauss_si-two-blocks": ["decompose", "--gallery", "gauss_si",
                                      "--n", "4", "--N", "9000", "--alpha",
                                      "2"],
    "decompose-linear_x1-two-sided": ["decompose", "--gallery", "linear_x1",
                                      "--n", "3", "--N", "9000"],
    "general-euler-gauss_si": ["verify", "general-euler", "--gallery", "gauss_si",
                               "--n", "5", "--N", "1500", "--alpha", "2"],
    "general-euler-saddle_si-two-blocks": ["verify", "general-euler", "--gallery",
                                           "saddle_si", "--n", "4", "--N",
                                           "12000"],
    "decomposable-saddle_si": ["check", "decomposable", "--gallery", "saddle_si",
                               "--n", "4"],
    # level-set geometry
    "bounds-ellipsoid": ["levelset", "bounds", "--gallery", "ellipsoid", "--n",
                         "2"],
    "bounds-saddle_si": ["levelset", "bounds", "--gallery", "saddle_si", "--n",
                         "3"],
    "bounds-sphere": ["levelset", "bounds", "--gallery", "sphere", "--n", "3"],
    "bounds-expr-x-star": ["levelset", "bounds", "--expr",
                           "(x_1-0.5)^2 + 3*(x_2+0.25)^2", "--n", "2",
                           "--x-star", "0.5,-0.25"],
    "radii-random_si": ["levelset", "radii", "--gallery", "random_si", "--n", "3",
                        "--level", "1", "--directions", "30"],
    "levelset-grad-ellipsoid": ["verify", "levelset-grad", "--gallery",
                                "ellipsoid", "--n", "4", "--level", "2",
                                "--points", "30"],
    "compact-saddle_si": ["levelset", "compact", "--gallery", "saddle_si", "--n",
                          "2", "--level", "1"],
    "positive-region-gauss_si": ["cert", "positive-region", "--gallery",
                                 "gauss_si", "--n", "4"],
}


def _digest(report: str) -> str:
    """sha256 of a JSON report with its ``wall_time_ms`` value blanked."""
    blank = re.sub(r'("wall_time_ms": )[^\n]*', r"\1", report)
    return hashlib.sha256(blank.encode()).hexdigest()


def count_points(argv) -> dict:
    """The exit code of ``argv``, the field calls it makes and the points it
    evaluates, and the digest of its report."""
    counts = {"calls": 0, "points": 0}
    original = ScalarField._eval_batch

    def counted(self, X):
        counts["calls"] += 1
        counts["points"] += X.shape[0]
        return original(self, X)

    ScalarField._eval_batch = counted
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--seed", "7"])
    finally:
        ScalarField._eval_batch = original
    return {"code": code, **counts, "digest": _digest(out.getvalue())}


def _budget() -> dict:
    with open(BUDGET, encoding="utf-8") as handle:
        return json.load(handle)


def test_the_budget_names_every_command():
    assert sorted(_budget()) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_field_points_match_the_budget(name):
    assert count_points(COMMANDS[name]) == _budget()[name]


if __name__ == "__main__":
    budget = {name: count_points(COMMANDS[name]) for name in sorted(COMMANDS)}
    with open(BUDGET, "w", encoding="utf-8") as handle:
        json.dump(budget, handle, indent=2)
        handle.write("\n")
    json.dump(budget, sys.stdout, indent=2)
