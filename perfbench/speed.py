"""Host-speed reference: two fixed kernels timed next to every measurement.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to half over minutes as other tenants come and go, and the drift reaches CPU
time as well as wall time.  Every time metric is therefore reported at a
fixed *reference speed*: a measured duration is divided by the host's
slowdown at that moment, read from two kernels timed in the same process
right after each operation:

- the call kernel makes many numpy calls on a few rows plus a plain Python
  loop, like a batched root solve with a handful of rows;
- the stream kernel makes one pass over 100,000-element arrays, like a
  Monte Carlo batch of field evaluations.

A workload weighs the two by ``stream_share``.  Set-up time, which is mostly
loading modules, is scaled instead by a fresh interpreter that imports a
fixed set of standard-library modules, started right before each set-up
probe.  Neither yardstick touches siphkit, so a change to the program moves
the measurement and not the yardstick.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Round figures near the kernels' times on the 2-vCPU Xeon VM the benchmark
# was tuned on, so scaled figures read close to wall time there.
CALL_REF_MS = 1.3
STREAM_REF_MS = 0.6
WINDOW = 4  # measurements on each side whose kernel times set the slowdown

# Python and C-extension modules from the standard library; their import
# takes about IMPORT_REF_S in a fresh interpreter on the same VM.
REFERENCE_IMPORT = ("import argparse, asyncio, ctypes, dataclasses, decimal, "
                    "email.parser, fractions, json, sqlite3, statistics, "
                    "unittest, xml.dom.minidom")
IMPORT_REF_S = 0.15

_SMALL = np.linspace(0.5, 2.0, 32)
_LARGE = np.linspace(0.0, 1.0, 100_000)


def _call_kernel() -> float:
    lo, hi = np.zeros_like(_SMALL), np.full_like(_SMALL, 2.0)
    for _ in range(120):  # bisection for sqrt(_SMALL)
        mid = 0.5 * (lo + hi)
        above = mid * mid > _SMALL
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    return acc + float(lo.sum())


def _stream_kernel() -> float:
    return float(np.sqrt(_LARGE * _LARGE + 1.0).sum())


def reference_ms() -> list:
    """[call, stream] kernel times in ms."""
    out = []
    for kernel in (_call_kernel, _stream_kernel):
        t0 = time.perf_counter()
        kernel()
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def slowdown(kernel_ms: list, stream_share: float) -> float:
    """How much slower than the reference speed the host ran: 1 at it."""
    call, stream = kernel_ms
    return ((1 - stream_share) * call / CALL_REF_MS
            + stream_share * stream / STREAM_REF_MS)


def scaled(measured: list, kernel_ms: list, stream_share: float) -> list:
    """Each measurement at reference speed.  ``kernel_ms[i]`` was timed right
    after ``measured[i]``; the slowdown is the median over the WINDOW
    measurements on either side, which follows the drift and smooths the
    kernels' own jitter."""
    slow = [slowdown(k, stream_share) for k in kernel_ms]
    return [value / statistics.median(slow[max(0, i - WINDOW):i + WINDOW + 1])
            for i, value in enumerate(measured)]
