"""Workload definitions: command templates, seeded rounds and known answers.

A workload is a fixed list of command templates.  One *round* runs every
template once, in an order shuffled from the workload seed, and every
operation gets its own ``--seed`` drawn from that seed, so no input repeats
inside a process (the gallery's ``logsq_si`` memo would otherwise turn reruns
into cache hits).  Runs are made of whole rounds, so each run sees the same mix.

Templates are grouped into cost tiers on purpose: about 30% cheap, 50% middle
and 20% expensive operations.  The median then falls inside the middle tier
and the 90th percentile inside the top tier, so neither percentile jumps
between two very different templates when the number of rounds changes.

Each template knows its answer.  Gallery fields take it from the gallery's
ground-truth tags (``FieldMeta.tags()``); expression fields carry the tags of
the function they spell out.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

# Ground-truth tags of the expression fields used below, in the format of
# FieldMeta.tags().
SQ_NORM_TAGS = {"is_si": True, "ph_degree": 2.0, "decomposable": True,
                "compact_sublevel": True, "differentiable": True,
                "continuous": True}
HALF_NORM_TAGS = {**SQ_NORM_TAGS, "ph_degree": 1.0, "differentiable": False}
FOOTNOTE_TAGS = {"is_si": False, "ph_degree": None, "decomposable": False,
                 "compact_sublevel": False, "differentiable": False,
                 "continuous": True}


def _differentiable_si(t):
    return bool(t["decomposable"] and t["differentiable"])


# Command -> the verdict its known answer predicts, from the field's tags.
VERDICT_RULES: dict[str, Callable[[dict], bool]] = {
    "check si": lambda t: bool(t["is_si"]),
    "check decomposable": lambda t: bool(t["decomposable"]),
    "decompose": lambda t: bool(t["decomposable"]),
    "verify euler": lambda t: t["ph_degree"] is not None,
    "verify general-euler": _differentiable_si,
    "verify levelset-grad": _differentiable_si,
    "levelset radii": lambda t: bool(t["decomposable"]),
    # the SI sandwich needs the reference to be the unique minimum
    "levelset bounds": lambda t: bool(t["is_si"] and t["compact_sublevel"]),
    "levelset compact": lambda t: bool(t["compact_sublevel"]),
    "levelset negligible": lambda t: bool(t["continuous"]),
    "cert positive-region": lambda t: bool(t["compact_sublevel"]
                                           and t["differentiable"]),
}


@dataclass(frozen=True)
class Template:
    """One certification command with everything but its seed fixed."""

    command: str
    n: int
    gallery: Optional[str] = None
    expr: Optional[str] = None
    expr_tags: Optional[dict] = None
    N: Optional[int] = None
    extra: tuple = ()
    fmt: str = "json"
    x0_alt: bool = False     # add --x0 / --x0-alt reference points
    sweep_csv: bool = False  # add --sweep-csv <scratch file>
    ws_arrays: float = 0.0   # float64 N-by-(n+1) arrays held at once

    def working_set_bytes(self) -> int:
        """Computed bytes of the large sample arrays the command holds."""
        return int(self.ws_arrays * (self.N or 0) * (self.n + 1) * 8)


@dataclass
class Op:
    template: int  # index into the workload's template list
    seed: int
    argv: list


# bulk Monte Carlo probes: few huge field batches, no root solves
SAMPLE = [
    # top tier, ~150-250 ms
    Template("check si", 2, gallery="gauss_si", N=500_000, ws_arrays=8),
    Template("check si", 3, gallery="sphere", N=450_000, ws_arrays=8),
    Template("check si", 10, gallery="norm", N=200_000, ws_arrays=8),
    Template("check si", 8, gallery="ellipsoid", N=130_000, ws_arrays=8),
    Template("check si", 2, gallery="logsq_si", N=1500, ws_arrays=8),
    # middle tier, ~60-100 ms
    Template("check si", 5, gallery="gauss_si", N=100_000, ws_arrays=8),
    Template("check si", 6, gallery="half_norm", N=100_000, ws_arrays=8),
    Template("check si", 4, gallery="saddle_si", N=100_000, ws_arrays=8),
    Template("check si", 3, gallery="random_si", N=40_000, ws_arrays=8),
    Template("check si", 3, expr="norm(x)^2", expr_tags=SQ_NORM_TAGS,
             N=120_000, ws_arrays=8),
    Template("check si", 2, expr="(sqrt(abs(x_1)) + sqrt(abs(x_2)))^2",
             expr_tags=HALF_NORM_TAGS, N=200_000, ws_arrays=8),
    Template("levelset negligible", 2, gallery="sphere", N=1_000_000,
             extra=("--level", "1"), ws_arrays=1),
    Template("verify euler", 6, gallery="norm", N=50_000,
             extra=("--numerical",), ws_arrays=4),
    Template("verify euler", 5, gallery="sphere", N=150_000, ws_arrays=4),
    # low tier, ~15-50 ms
    Template("check si", 2, gallery="tanh_exp", N=100_000, ws_arrays=8),
    Template("check si", 2, gallery="footnote_1d", N=20_000, ws_arrays=8),
    Template("check si", 3, gallery="piecewise_ph", N=100_000, ws_arrays=8),
    Template("check si", 2, expr="max(x_1, 0) + min(x_1, 0)^2",
             expr_tags=FOOTNOTE_TAGS, N=20_000, ws_arrays=8),
    Template("check si", 4, gallery="linear_x1", N=100_000, ws_arrays=8),
    Template("levelset negligible", 4, gallery="gauss_si", N=200_000,
             extra=("--level", "0.5"), ws_arrays=1),
    Template("verify euler", 3, gallery="half_norm", N=50_000, ws_arrays=4),
]

# batched ray root solves: thousands of rows per solver call
DECOMPOSE = [
    # top tier, ~150-250 ms
    Template("decompose", 3, gallery="random_si", N=6000, ws_arrays=6),
    Template("decompose", 4, gallery="random_si", N=4000, ws_arrays=6),
    Template("decompose", 6, gallery="gauss_si", N=14_000,
             extra=("--alpha", "2"), ws_arrays=6),
    Template("decompose", 6, gallery="ellipsoid", N=10_000,
             extra=("--alpha", "2"), ws_arrays=6),
    # middle tier, ~40-100 ms
    Template("decompose", 5, gallery="gauss_si", N=4000,
             extra=("--alpha", "2"), ws_arrays=6),
    Template("decompose", 3, gallery="sphere", N=5000,
             extra=("--alpha", "2"), ws_arrays=6),
    # decompose on saddle_si is left out: about 1 operation in 150 fails its
    # residual check (see README.md, "Known defect")
    Template("decompose", 4, gallery="ellipsoid", N=4000, ws_arrays=6),
    Template("decompose", 4, gallery="gauss_si", N=3000, x0_alt=True,
             ws_arrays=8),
    Template("decompose", 5, gallery="ellipsoid", N=2000, x0_alt=True,
             ws_arrays=8),
    Template("decompose", 3, expr="norm(x)^2", expr_tags=SQ_NORM_TAGS,
             N=4000, extra=("--alpha", "2"), ws_arrays=6),
    Template("verify general-euler", 5, gallery="gauss_si", N=12_000,
             extra=("--alpha", "2"), ws_arrays=6),
    Template("verify general-euler", 3, gallery="random_si", N=3000,
             ws_arrays=6),
    Template("verify general-euler", 6, gallery="ellipsoid", N=5000,
             extra=("--alpha", "2"), ws_arrays=6),
    Template("verify general-euler", 4, gallery="saddle_si", N=6000,
             extra=("--alpha", "2"), ws_arrays=6),
    # low tier, ~5-15 ms
    Template("check decomposable", 5, gallery="gauss_si"),
    Template("check decomposable", 6, gallery="random_si"),
    Template("check decomposable", 4, gallery="saddle_si"),
    Template("check decomposable", 6, gallery="ellipsoid"),
    Template("check decomposable", 3, gallery="sphere"),
    Template("check decomposable", 3, gallery="tanh_exp"),
]

# level-set geometry: one row per solve, about one point per field call
GEOMETRY = [
    # top tier, ~0.7-0.8 s
    Template("levelset bounds", 2, gallery="ellipsoid"),
    Template("levelset bounds", 3, gallery="saddle_si"),
    Template("levelset bounds", 3, gallery="sphere"),
    Template("levelset radii", 3, gallery="sphere",
             extra=("--level", "4", "--directions", "500")),
    # middle tier, ~70-100 ms
    Template("levelset radii", 4, gallery="ellipsoid",
             extra=("--level", "2", "--directions", "50")),
    Template("levelset radii", 3, gallery="gauss_si", fmt="csv",
             extra=("--level", "0.5", "--directions", "50")),
    Template("levelset radii", 3, gallery="random_si", sweep_csv=True,
             extra=("--level", "1", "--directions", "30")),
    Template("levelset radii", 2, expr="norm(x)^2", expr_tags=SQ_NORM_TAGS,
             extra=("--level", "2", "--directions", "60")),
    Template("levelset radii", 3, gallery="saddle_si",
             extra=("--level", "1", "--directions", "45")),
    Template("levelset radii", 5, gallery="sphere",
             extra=("--level", "1", "--directions", "60")),
    Template("verify levelset-grad", 3, gallery="sphere",
             extra=("--level", "4", "--points", "60")),
    Template("verify levelset-grad", 4, gallery="ellipsoid",
             extra=("--level", "2", "--points", "60")),
    Template("verify levelset-grad", 3, gallery="gauss_si",
             extra=("--level", "0.5", "--points", "50")),
    Template("verify levelset-grad", 2, gallery="saddle_si",
             extra=("--level", "1", "--points", "60")),
    Template("verify levelset-grad", 5, gallery="random_si",
             extra=("--level", "1", "--points", "25")),
    Template("verify levelset-grad", 4, expr="norm(x)^2",
             expr_tags=SQ_NORM_TAGS, extra=("--level", "3", "--points", "60")),
    # low tier, ~5-75 ms
    Template("levelset compact", 5, gallery="sphere", extra=("--level", "1")),
    Template("levelset compact", 4, gallery="random_si",
             extra=("--level", "1")),
    Template("levelset compact", 3, gallery="linear_x1",
             extra=("--level", "1")),
    Template("levelset compact", 3, gallery="ellipsoid",
             extra=("--level", "2")),
    Template("levelset compact", 2, gallery="saddle_si",
             extra=("--level", "1")),
    Template("cert positive-region", 3, gallery="saddle_si"),
    Template("cert positive-region", 5, gallery="ellipsoid"),
    Template("cert positive-region", 4, gallery="gauss_si"),
]

WORKLOADS = {"sample": SAMPLE, "decompose": DECOMPOSE, "geometry": GEOMETRY}

# Weight of the stream kernel in each workload's host-speed reference
# (speed.py): about the share of its time spent in passes over large arrays.
STREAM_SHARE = {"sample": 0.5, "decompose": 0.25, "geometry": 0.0}

# Rounds replayed by the traced run.  Counts must repeat exactly, so the
# traced run does a fixed amount of work instead of running for a set time.
TRACE_ROUNDS = 2


def gallery_entries() -> list:
    """Gallery entries used by any workload (named in per-layer metrics)."""
    return sorted({t.gallery for ts in WORKLOADS.values() for t in ts
                   if t.gallery})


def working_set_bytes(workload: str) -> int:
    return max(t.working_set_bytes() for t in WORKLOADS[workload])


def _reference_point(rng: random.Random, n: int) -> str:
    """A point with every coordinate in +-[0.25, 1.5]: off every axis plane,
    so the reference level is well away from f(x_star)."""
    return ",".join(str(round(rng.choice((-1, 1)) * rng.uniform(0.25, 1.5), 6))
                    for _ in range(n))


def rounds(workload: str, seed: int):
    """Endless stream of rounds (lists of Op) generated from the seed."""
    templates = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    used: set = set()
    while True:
        order = list(range(len(templates)))
        rng.shuffle(order)
        batch = []
        for idx in order:
            op_seed = rng.randrange(1, 2 ** 31)
            while op_seed in used:
                op_seed = rng.randrange(1, 2 ** 31)
            used.add(op_seed)
            batch.append(make_op(idx, templates[idx], op_seed, rng))
        yield batch


def make_op(idx: int, t: Template, op_seed: int, rng: random.Random) -> Op:
    argv = t.command.split()
    argv += ["--gallery", t.gallery] if t.gallery else ["--expr", t.expr]
    argv += ["--n", str(t.n), "--seed", str(op_seed)]
    if t.N is not None:
        argv += ["--N", str(t.N)]
    argv += list(t.extra)
    if t.fmt != "json":
        argv += ["--format", t.fmt]
    if t.x0_alt:
        # "--flag=value" keeps a leading minus sign from reading as a flag
        argv += ["--x0=" + _reference_point(rng, t.n),
                 "--x0-alt=" + _reference_point(rng, t.n)]
    return Op(template=idx, seed=op_seed, argv=argv)


# -----------------------------------------------------------------------------
# known answers


def expected_verdict(t: Template, tags: dict) -> str:
    return "pass" if VERDICT_RULES[t.command](tags) else "fail"


def _num(value) -> float:
    """A report number; non-finite values arrive as "nan"/"inf" strings."""
    return float(value)


def _csv_rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def _verdict_of(report, fmt: str) -> Optional[str]:
    if fmt == "json":
        return report.get("verdict")
    for row in report:
        if row[:2] == ["meta", "verdict"]:
            return row[2]
    return None


def parse_report(text: str, fmt: str):
    return json.loads(text) if fmt == "json" else _csv_rows(text)


def check_op(t: Template, op: Op, code: int, text: str, tags: dict,
             sweep_text: Optional[str]) -> Optional[str]:
    """Return None when the operation's output is correct, else why not."""
    want = expected_verdict(t, tags)
    if code not in (0, 1):
        return f"exit code {code}"
    try:
        report = parse_report(text, t.fmt)
    except ValueError as exc:
        return f"unparseable report: {exc}"
    verdict = _verdict_of(report, t.fmt)
    if verdict != want:
        return f"verdict {verdict!r}, known answer {want!r}"
    if code != (0 if verdict == "pass" else 1):
        return f"exit code {code} disagrees with verdict {verdict!r}"
    if t.fmt == "csv":
        return _check_csv(t, op, report, sweep_text)
    if report.get("command") != t.command:
        return f"command {report.get('command')!r}"
    if report["config"].get("seed") != op.seed:
        return "report does not echo the operation seed"
    check = _CHECKS.get(t.command)
    return check(t, op, report, sweep_text) if check else None


def _check_csv(t, op, rows, sweep_text):
    radii = [r for r in rows if r and r[0] == "radius"]
    want = _directions(t)
    if len(radii) != want:
        return f"{len(radii)} radius rows, expected {want}"
    if not all(math.isfinite(float(r[2])) and float(r[2]) > 0 for r in radii):
        return "non-positive or non-finite radius"
    return None


def _directions(t: Template) -> int:
    return int(t.extra[t.extra.index("--directions") + 1])


def _level(t: Template) -> float:
    return float(t.extra[t.extra.index("--level") + 1])


def _check_si(t, op, r, _):
    m = r["metrics"]
    if m["trials"] != t.N + 3 * t.n - 1:  # N random + 3n-1 structured triples
        return f"trials {m['trials']}"
    if (m["violations"] == 0) != (r["verdict"] == "pass"):
        return "violation count disagrees with verdict"
    if r["verdict"] == "fail" and not any(
            w["kind"] == "order_violation" for w in r["witnesses"]):
        return "failed without an order-violation witness"
    return None


def _check_decomposable(t, op, r, _):
    m = r["metrics"]
    if len(m["ray_kinds"]) != 4 * t.n:  # +-axes plus 2n sphere points
        return f"{len(m['ray_kinds'])} ray kinds"
    if (m["domain_verdict"] == "decomposable") != (r["verdict"] == "pass"):
        return f"domain verdict {m['domain_verdict']!r}"
    return None


def _check_decompose(t, op, r, _):
    m = r["metrics"]
    if not (_num(m["max_composition_residual"]) <= 1e-7
            and _num(m["max_ph_residual"]) <= 1e-7):
        return "residual above tolerance"
    if m["n_samples"] != t.N:
        return f"n_samples {m['n_samples']}"
    if t.x0_alt and not m["uniqueness"]["passed"]:
        return "uniqueness check failed"
    return None


def _check_residual(t, op, r, _):
    m = r["metrics"]
    if not _num(m["max_residual"]) <= r["config"]["tol"]:
        return f"max residual {m['max_residual']!r}"
    return None


def _check_radii(t, op, r, sweep_text):
    m = r["metrics"]
    radii = m["radii"]
    if m["n_directions"] != _directions(t) or len(radii) != _directions(t):
        return f"{len(radii)} radii"
    if any(rec["status"] != "ok" for rec in radii):
        return "a ray missed the level"
    if t.gallery == "sphere" or t.expr == "norm(x)^2":
        # ||x||^2 = c on every ray: the radius is sqrt(c)
        want = math.sqrt(_level(t))
        if any(abs(rec["radius"] - want) > 1e-8 * (1 + want) for rec in radii):
            return "radius differs from sqrt(level)"
    if t.sweep_csv:
        rows = _csv_rows(sweep_text or "")
        if len(rows) != len(radii) + 1 or len(rows[0]) != max(t.n - 1, 1) + 1:
            return "sweep CSV shape"
    return None


def _check_bounds(t, op, r, _):
    if r["verdict"] != "pass":
        return None
    si = r["metrics"]["si_sandwich"]
    if si["verdict"] != "pass" or not 0 < _num(si["m"]) <= _num(si["M"]):
        return f"si sandwich {si['verdict']!r}"
    return None


def _check_compact(t, op, r, _):
    m = r["metrics"]
    if (m["domain_verdict"] == "bounded") != (r["verdict"] == "pass"):
        return f"domain verdict {m['domain_verdict']!r}"
    if m["n_directions"] != 4 * t.n:
        return f"{m['n_directions']} directions"
    return None


def _check_negligible(t, op, r, _):
    m = r["metrics"]
    if m["n_samples"] != t.N or m["passed"] is not True:
        return "shell fractions"
    return None


def _check_levelset_grad(t, op, r, _):
    m = r["metrics"]
    if m["skipped"] != 0 or not _num(m["spread"]) <= m["tol"]:
        return f"spread {m['spread']!r}, skipped {m['skipped']}"
    return None


def _check_positive_region(t, op, r, _):
    m = r["metrics"]
    if m["ok"] != (r["verdict"] == "pass"):
        return "certificate flag disagrees with verdict"
    if m["ok"] and not (_num(m["epsilon"]) > 0 and m["delta"] > 0):
        return "certificate without a positive margin"
    return None


_CHECKS = {
    "check si": _check_si,
    "check decomposable": _check_decomposable,
    "decompose": _check_decompose,
    "verify euler": _check_residual,
    "verify general-euler": _check_residual,
    "verify levelset-grad": _check_levelset_grad,
    "levelset radii": _check_radii,
    "levelset bounds": _check_bounds,
    "levelset compact": _check_compact,
    "levelset negligible": _check_negligible,
    "cert positive-region": _check_positive_region,
}
