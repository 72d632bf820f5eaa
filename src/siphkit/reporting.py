"""Report objects and their JSON/CSV serializations.

Every probe's outcome is wrapped in a Report whose JSON form has a fixed key
order (version, config, command, verdict, metrics, witnesses, wall_time_ms) so
that identical runs are byte-identical except for the wall time, which is the
last line.  Non-finite floats serialize as the strings "nan", "inf", "-inf"
to keep the output strict JSON.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field as dataclass_field, fields, is_dataclass
from typing import Optional

import numpy as np

REPORT_VERSION = "si-ph-kit/1"


def _json_float(x: float):
    x = float(x)
    if math.isfinite(x):
        return x
    if x != x:
        return "nan"
    return "inf" if x > 0 else "-inf"


@functools.cache
def _field_names(cls) -> Optional[tuple]:
    """Field names of a dataclass, in declaration order; None for any other
    class.  Cached per class: jsonable meets a small, fixed set of them."""
    if not is_dataclass(cls):
        return None
    return tuple(f.name for f in fields(cls))


def jsonable(obj):
    """Recursively convert numpy containers/scalars, non-finite floats and
    probe results into plain JSON-safe Python values.

    An int, bool or all-finite float array converts in one ``tolist`` call;
    only an array holding nan or +-inf, or of another dtype (object, say), is
    walked element by element.  Every leaf returned is a builtin type:
    ``np.float64`` subclasses ``float`` but is converted all the same.

    A dataclass instance becomes the dict of its fields in declaration order,
    unless its class defines ``to_dict``, whose dict is used instead.
    """
    if isinstance(obj, float):  # np.float64 too
        return _json_float(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        # float16/32/64 only: long double lists as np.longdouble scalars
        if obj.dtype.kind in "biu" or (obj.dtype.char in "efd"
                                       and np.isfinite(obj).all()):
            return obj.tolist()
        return jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.floating):
        return _json_float(obj)
    names = _field_names(type(obj))
    if names is not None:
        if hasattr(obj, "to_dict"):
            return jsonable(obj.to_dict())
        return {name: jsonable(getattr(obj, name)) for name in names}
    return obj


@dataclass
class Report:
    command: str
    verdict: str  # "pass" | "fail"
    config: dict = dataclass_field(default_factory=dict)
    # a dict, or a probe result dataclass serialised through jsonable
    metrics: object = dataclass_field(default_factory=dict)
    witnesses: list = dataclass_field(default_factory=list)
    wall_time_ms: Optional[float] = None
    version: str = REPORT_VERSION

    def to_json(self) -> str:
        obj = {"version": self.version,
               "config": jsonable(self.config),
               "command": self.command,
               "verdict": self.verdict,
               "metrics": jsonable(self.metrics),
               "witnesses": jsonable(self.witnesses),
               "wall_time_ms": self.wall_time_ms}
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        """One row per metric and per witness, with a leading kind column.

        A metric named "radii" holding per-direction records is flattened to
        (kind=radius, direction_index, radius) rows for plotting.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["kind", "key", "value"])
        writer.writerow(["meta", "version", self.version])
        writer.writerow(["meta", "command", self.command])
        writer.writerow(["meta", "verdict", self.verdict])
        for key, value in jsonable(self.config).items():
            writer.writerow(["config", key, json.dumps(value)])
        for key, value in jsonable(self.metrics).items():
            if key == "radii" and isinstance(value, list):
                for i, rec in enumerate(value):
                    radius = rec.get("radius") if isinstance(rec, dict) else rec
                    writer.writerow(["radius", i, radius])
                continue
            writer.writerow(["metric", key, json.dumps(value)])
        for i, witness in enumerate(jsonable(self.witnesses)):
            writer.writerow(["witness", i, json.dumps(witness)])
        return buf.getvalue()

    def render(self, fmt: str = "json") -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown report format {fmt!r}")


def emit(report: Report, path: Optional[str] = None, fmt: str = "json") -> str:
    """Serialize and write a report to ``path`` (stdout when None)."""
    text = report.render(fmt)
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return text
