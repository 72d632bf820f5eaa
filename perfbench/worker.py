"""Benchmark child process: one fresh interpreter per measurement.

    python3 perfbench/worker.py setup
        Import siphkit, build the CLI parser and print the monotonic clock.
    python3 perfbench/worker.py run WORKLOAD SEED --scratch DIR
                               (--seconds S | --rounds R) [--trace]
        Issue the workload's commands back to back through
        ``siphkit.cli.main(argv)`` on one thread and print one JSON line.

Run from the root of a checkout with ``src`` on PYTHONPATH (run.py does both).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import speed
import tracer as tracing
import workloads


def _setup() -> None:
    from siphkit import cli
    cli.build_parser()
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "python": sys.version.split()[0],
                      "numpy": sys.modules["numpy"].__version__,
                      "scipy": sys.modules["scipy"].__version__}))


def _known_tags(templates) -> list:
    """Ground-truth tags per template, read before any timing or tracing."""
    from siphkit.gallery import make_builtin, random_si
    tags = []
    for t in templates:
        if t.expr is not None:
            tags.append(t.expr_tags)
        elif t.gallery == "random_si":
            tags.append(random_si(0, t.n).meta.tags())
        else:
            tags.append(make_builtin(t.gallery, t.n).meta.tags())
    return tags


def _digest(text: str, sweep_text) -> str:
    """Report digest with the wall-time line removed (the only line that may
    differ between reruns)."""
    h = hashlib.sha256(tracing.WALL_LINE.sub("", text).encode("utf-8"))
    if sweep_text is not None:
        h.update(sweep_text.encode("utf-8"))
    return h.hexdigest()


def _run(args) -> None:
    templates = workloads.WORKLOADS[args.workload]
    tags = _known_tags(templates)
    tracer = None
    if args.trace:
        tracer = tracing.install()
    from siphkit import cli, gallery

    os.makedirs(args.scratch, exist_ok=True)
    # the path is echoed into the report, so it must not vary between runs
    sweep_path = os.path.join(args.scratch, "sweep.csv")
    latencies, kinds, kernel_ms, failures, digests = [], [], [], [], []
    stream = workloads.rounds(args.workload, args.seed)
    rounds_done = 0
    start = time.perf_counter()
    try:
        while True:
            if args.rounds is not None and rounds_done >= args.rounds:
                break
            if args.seconds is not None and rounds_done and \
                    time.perf_counter() - start >= args.seconds:
                break
            for op in next(stream):
                t = templates[op.template]
                argv = op.argv + (["--sweep-csv", sweep_path]
                                  if t.sweep_csv else [])
                buf = io.StringIO()
                code, error = None, None
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(argv)
                except Exception:  # an operation that raises is a failure
                    error = traceback.format_exc(limit=3)
                latencies.append((time.perf_counter() - t0) * 1e3)
                kinds.append(op.template)
                text = buf.getvalue()
                sweep_text = None
                if t.sweep_csv and code in (0, 1):
                    with open(sweep_path, encoding="utf-8") as handle:
                        sweep_text = handle.read()
                if code is not None:
                    error = workloads.check_op(t, op, code, text,
                                               tags[op.template], sweep_text)
                if error is not None:
                    failures.append({"argv": argv, "error": error})
                digests.append(_digest(text, sweep_text))
                kernel_ms.append(speed.reference_ms())
            rounds_done += 1
    finally:
        if os.path.exists(sweep_path):
            os.remove(sweep_path)
    wall = time.perf_counter() - start

    out = {"latencies_ms": latencies, "templates": kinds,
           "kernel_ms": kernel_ms, "failures": failures,
           "rounds": rounds_done, "wall_s": wall,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "logsq_cache_entries": len(gallery._LOGSQ_CACHE)}
    if args.rounds is not None:
        out["digests"] = digests
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer,
                                              workloads.gallery_entries())
        out["counts"] = dict(tracer.counts)
        out["bindings"] = tracer.bindings
    print(json.dumps(out))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    run = sub.add_parser("run")
    run.add_argument("workload")
    run.add_argument("seed", type=int)
    budget = run.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--rounds", type=int)
    run.add_argument("--trace", action="store_true")
    run.add_argument("--scratch", required=True,
                     help="directory for files the commands write")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _setup()
    else:
        _run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
