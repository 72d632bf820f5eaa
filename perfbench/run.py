"""siphkit benchmark: certification commands as a closed loop with one client.

    python3 perfbench/run.py --workload {sample,decompose,geometry} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a siphkit checkout; it imports the package from
``./src`` and needs no build.  Every measurement runs in a fresh interpreter
(perfbench/worker.py) with BLAS thread pools pinned to one thread.

--trace 0 times the workload for S seconds of whole rounds and reports the
end-to-end metrics: latencies are the median per template over the rounds,
and set-up time is the median over several fresh interpreters.  Every time
is scaled to a fixed reference host speed read from two kernels timed next
to it (speed.py), because the shared host's own speed drifts; the wall-clock
figures are printed beside them.
--trace 1 replays a fixed number of rounds three times (untraced, traced,
traced again), checks that all three produce byte-identical reports and that
the two traced runs agree on every count, and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
only when every operation's output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
RUN_LIMIT_S = 170  # the whole benchmark run must end within 180 s
SCRATCH = ".perfbench"  # files an operation writes, inside the checkout
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer metrics in the JSON line of --trace 1.  Times for layers that a
# workload bypasses would read 0 on every run of that workload, so only
# counts, ratios and the times of layers every workload uses are listed; the
# human-readable lines show all of them.
PER_LAYER = (
    "field.eval_calls", "field.eval_points", "field.points_per_call",
    "field.eval_s", "field.points_per_s", "field.bytes_computed",
    "field.gradient_points", "field.gradient_s",
    "gallery.ellipsoid.eval_s", "gallery.gauss_si.eval_s",
    "gallery.random_si.eval_s", "gallery.saddle_si.eval_s",
    "gallery.sphere.eval_s", "gallery.logsq_cache_entries",
    "exprlang.bind_s", "exprlang.eval_s",
    "rootfind.solve_calls", "rootfind.rows", "rootfind.rows_per_call",
    "rootfind.profile_evals", "rootfind.profile_evals_per_root",
    "rootfind.status.ok", "rootfind.status.unbounded",
    "rootfind.status.nonfinite", "rootfind.status.below_start",
    "rootfind.golden_calls", "rootfind.golden_evals",
    "rays.classify_calls", "decomposition.p_rows",
    "decomposition.lambda_hit_frac", "levelsets.sphere_extrema_calls",
    "levelsets.ray_level_radius_calls", "reporting.render_s",
    "reporting.bytes", "cli.self_s", "trace.overhead_s",
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result line is printed."""


class Workers:
    """Starts Python processes (worker.py and the reference import) in the
    checkout at ``root``, one at a time, each killed if it outlives the run's
    deadline."""

    def __init__(self, root: str, limit_s: float):
        self.root = root
        self.deadline = time.monotonic() + limit_s
        self.env = dict(os.environ)
        self.env.pop("SIPH_SEED", None)  # it would override every --seed
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env.update({var: "1" for var in THREAD_VARS})

    def _start(self, args: list) -> subprocess.CompletedProcess:
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run([sys.executable, *args], cwd=self.root,
                              env=self.env, stdout=subprocess.PIPE,
                              timeout=timeout, check=False, text=True)
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(args)[:60]} exited {proc.returncode}")
        return proc

    def run(self, args: list) -> dict:
        proc = self._start([os.path.join(HERE, "worker.py"), *args])
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"worker {' '.join(args)} printed nothing")
        return json.loads(lines[-1])

    def reference_import_s(self) -> float:
        t0 = time.monotonic()
        self._start(["-c", speed.REFERENCE_IMPORT])
        return time.monotonic() - t0


def _read(path: str) -> str:
    with open(path, encoding="ascii") as handle:
        return handle.read().strip()


def _cache_sizes() -> dict:
    """Total bytes of each data cache level over its distinct instances."""
    base = "/sys/devices/system/cpu"
    seen, sizes = set(), {}
    try:
        for cpu in os.listdir(base):
            if not (cpu.startswith("cpu") and cpu[3:].isdigit()):
                continue
            cache_dir = os.path.join(base, cpu, "cache")
            for index in os.listdir(cache_dir):
                path = os.path.join(cache_dir, index)
                if not index.startswith("index") or \
                        _read(f"{path}/type") == "Instruction":
                    continue
                level = f"l{_read(f'{path}/level')}_bytes"
                instance = (level, _read(f"{path}/shared_cpu_list"))
                if instance in seen:
                    continue
                seen.add(instance)
                size = _read(f"{path}/size")
                factor = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
                sizes[level] = (sizes.get(level, 0)
                                + int(size.rstrip("KM")) * factor)
    except OSError:
        return {}
    return sizes


def _environment(workload: str, versions: dict) -> str:
    caches = _cache_sizes()
    fields = {"python": versions["python"], "numpy": versions["numpy"],
              "scipy": versions["scipy"], "nproc": len(os.sched_getaffinity(0)),
              "l2_bytes": caches.get("l2_bytes", "unknown"),
              "l3_bytes": caches.get("l3_bytes", "unknown"),
              **{var: "1" for var in THREAD_VARS},
              "working_set_bytes_computed": workloads.working_set_bytes(workload)}
    return "env " + " ".join(f"{k}={v}" for k, v in fields.items())


def _setup_time(workers: Workers) -> tuple:
    """Set-up time of one fresh interpreter, wall and at reference speed."""
    reference = workers.reference_import_s()
    t0 = time.monotonic()
    out = workers.run(["setup"])
    wall = out["ready"] - t0
    return wall, wall * speed.IMPORT_REF_S / reference, out


def _per_template(latencies: list, templates: list) -> list:
    """Each template's median latency over the run's rounds, in template
    order.  Every round runs each template once with a fresh seed, so this is
    the median of k comparable operations."""
    by: dict = {}
    for ms, idx in zip(latencies, templates):
        by.setdefault(idx, []).append(ms)
    return [statistics.median(by[idx]) for idx in sorted(by)]


def _timed(workers: Workers, a) -> tuple:
    # set-up probes on both sides of the run, so their median spans it
    before = SETUP_PROBES // 2 + 1
    probes = [_setup_time(workers) for _ in range(before)]
    run = workers.run(["run", a.workload, str(a.seed), "--scratch", SCRATCH,
                       "--seconds", str(a.seconds)])
    probes += [_setup_time(workers) for _ in range(SETUP_PROBES - before)]
    lat = run["latencies_ms"]
    attempted, failed = len(lat), len(run["failures"])
    share = workloads.STREAM_SHARE[a.workload]
    typical = _per_template(
        speed.scaled(lat, run["kernel_ms"], share), run["templates"])
    kinds, k = len(typical), run["rounds"]
    p90 = statistics.quantiles(typical, n=10)[8]
    note = f"n={kinds} templates, each the median of {k}"
    metrics = {
        "certs_per_s": (kinds / (sum(typical) / 1e3), "1/s",
                        f"one round of {kinds} ops at median latency"),
        "cert_ms_p50": (statistics.median(typical), "ms", note),
        "cert_ms_p90": (p90, "ms",
                        f"{note}, {sum(x > p90 for x in typical)} beyond"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB", "workload process"),
        "ops_failed_frac": (failed / attempted, "frac",
                            f"{failed}/{attempted}; in the JSON as failed/attempted"),
        "setup_s": (statistics.median(p[1] for p in probes), "s",
                    f"median of {SETUP_PROBES} fresh interpreters"),
    }
    wall = _per_template(lat, run["templates"])
    slow = [speed.slowdown(ks, share) for ks in run["kernel_ms"]]
    lines = [f"perfbench workload={a.workload} seed={a.seed} trace=0 "
             f"closed-loop clients=1 rounds={k} ops={attempted} "
             f"wall_s={run['wall_s']:.2f}",
             _environment(a.workload, probes[0][2])]
    lines += [f"  {name:<18} {value:>14.6g} {unit:<6} ({note})"
              for name, (value, unit, note) in metrics.items()]
    lines += [f"  times above are at reference speed; host slowdown median "
              f"{statistics.median(slow):.3f}, range {min(slow):.3f}-"
              f"{max(slow):.3f} (stream share {share})",
              f"  wall time: {kinds / (sum(wall) / 1e3):.4g} certs/s, "
              f"p50 {statistics.median(wall):.4g} ms, p90 "
              f"{statistics.quantiles(wall, n=10)[8]:.4g} ms, set-up "
              f"{statistics.median(p[0] for p in probes):.4g} s"]
    del metrics["ops_failed_frac"]  # can be 0; the JSON carries failed/attempted
    result = {name: {"value": value, "unit": unit}
              for name, (value, unit, _) in metrics.items()}
    return lines, attempted, run["failures"], [], result


def _traced(workers: Workers, a) -> tuple:
    rounds = str(workloads.TRACE_ROUNDS)
    base = ["run", a.workload, str(a.seed), "--scratch", SCRATCH,
            "--rounds", rounds]
    plain = workers.run(base)
    first = workers.run(base + ["--trace"])
    second = workers.run(base + ["--trace"])
    problems = []
    if not plain["digests"] == first["digests"] == second["digests"]:
        problems.append("traced reports differ from the untraced run's")
    if first["counts"] != second["counts"]:
        diff = sorted(k for k in set(first["counts"]) | set(second["counts"])
                      if first["counts"].get(k) != second["counts"].get(k))
        problems.append(f"two traced runs disagree on counts: {diff}")
    layers = {k: tuple(v) for k, v in first["layers"].items()}
    layers["gallery.logsq_cache_entries"] = (first["logsq_cache_entries"],
                                             "count")
    layers["trace.overhead_s"] = (first["wall_s"] - plain["wall_s"], "s")
    attempted = len(first["latencies_ms"])
    failures = list({tuple(f["argv"]): f for f in plain["failures"]
                     + first["failures"] + second["failures"]}.values())
    lines = [f"perfbench workload={a.workload} seed={a.seed} trace=1 "
             f"rounds={rounds} ops={attempted} untraced_wall_s="
             f"{plain['wall_s']:.3f} traced_wall_s={first['wall_s']:.3f}",
             f"  bindings patched: {len(first['bindings'])}"]
    lines += [f"  {name:<36} {value:>16.6g} {unit}"
              for name, (value, unit) in layers.items()]
    result = {name: {"value": layers[name][0], "unit": layers[name][1]}
              for name in PER_LAYER}
    return lines, attempted, failures, problems, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = parser.parse_args(argv)
    if not a.seconds > 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "siphkit", "cli.py")):
        print("perfbench: ./src/siphkit not found; run from the root of a "
              "siphkit checkout", file=sys.stderr)
        return 2
    try:
        lines, attempted, failures, problems, metrics = (
            _traced if a.trace else _timed)(Workers(root, RUN_LIMIT_S), a)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        scratch = os.path.join(root, SCRATCH)
        if os.path.isdir(scratch) and not os.listdir(scratch):
            os.rmdir(scratch)

    for failure in failures:
        print(f"perfbench: FAILED {' '.join(failure['argv'])}: "
              f"{failure['error']}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("\n".join(lines))
    correct = not failures and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
