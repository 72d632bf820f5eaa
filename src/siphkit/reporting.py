"""Report objects and their JSON/CSV serializations.

Every probe's outcome is wrapped in a Report whose JSON form has a fixed key
order (version, config, command, verdict, metrics, witnesses, wall_time_ms) so
that identical runs are byte-identical except for the wall time, which is the
last line.  Non-finite floats serialize as the strings "nan", "inf", "-inf"
to keep the output strict JSON.

The JSON text is written in one pass over the raw values, with the bytes of
``json.dumps(jsonable(x), indent=2)``.  A 1-D structured numpy array, such
as the level radii of ``ray_level_radius``, is a list of records: its dtype
gives one ``%`` template, and one format call fills it from the columns.
Any other value is written value by value.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, field as dataclass_field, fields, is_dataclass
from json.encoder import encode_basestring_ascii as _quote
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

    A 1-D structured array becomes the list of its records, each the dict
    of its fields in dtype order.  A dataclass instance becomes the dict of
    its fields in declaration order.
    """
    if isinstance(obj, float):  # np.float64 too
        return _json_float(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.names and obj.ndim == 1:
            names = obj.dtype.names
            return [dict(zip(names, row))
                    for row in zip(*[jsonable(obj[name]) for name in names])]
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
        return {name: jsonable(getattr(obj, name)) for name in names}
    return obj


def _text(obj, nl: str) -> str:
    """The JSON text of ``jsonable(obj)`` laid out as ``json.dumps(indent=2)``
    lays out a value whose line starts with ``nl`` (newline and indent)."""
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, float):
        x = _json_float(obj)
        return float.__repr__(x) if isinstance(x, float) else '"%s"' % x
    inner = nl + "  "
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        body = ("," + inner).join([_quote(k) + ": " + _text(v, inner)
                                   for k, v in items.items()])
        return "{" + inner + body + nl + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        body = ("," + inner).join([_text(item, inner) for item in obj])
        return "[" + inner + body + nl + "]" if obj else "[]"
    if isinstance(obj, np.ndarray) and obj.dtype.names and obj.ndim == 1:
        return "[" + inner + _records(obj, inner) + nl + "]" if obj.size else "[]"
    names = _field_names(type(obj))
    if names is not None:
        return _text({name: getattr(obj, name) for name in names}, nl)
    value = jsonable(obj)  # numpy values, ints, bools, None
    if isinstance(value, (dict, list)):
        return _text(value, nl)
    return json.dumps(value)  # a scalar; TypeError for what JSON cannot hold


def _records(arr: np.ndarray, nl: str) -> str:
    """The records of a non-empty 1-D structured array, each on a line
    starting with ``nl``, filled in by one ``%`` call.

    The template is :func:`_text` of one record whose every value is a
    ``%s`` slot, one per entry of a subarray field.  An all-finite float64
    column fills its slots with its floats (``%s`` of a float is its repr),
    a str column with its quoted strings; any other column, nan and +-inf
    included, with its cells pre-rendered by :func:`_text`.
    """
    skeleton, columns = {}, []
    for name in arr.dtype.names:
        col = arr[name]
        shape = col.shape[1:]
        skeleton[name.replace("%", "%%")] = np.full(shape, "%s").tolist()
        cell_nl = nl + "  " * (1 + len(shape))
        for c in col.reshape(len(arr), math.prod(shape)).T:
            if c.dtype.char == "d" and np.isfinite(c).all():
                columns.append(c.tolist())
            elif c.dtype.char == "U":
                columns.append([_quote(v) for v in c.tolist()])
            else:
                columns.append([_text(v, cell_nl) for v in jsonable(c)])
    template = _text(skeleton, nl).replace('"%s"', "%s")
    values = tuple(itertools.chain.from_iterable(zip(*columns)))
    return ("," + nl).join([template] * len(arr)) % values


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
        obj = {"version": self.version, "config": self.config,
               "command": self.command, "verdict": self.verdict,
               "metrics": self.metrics, "witnesses": self.witnesses,
               "wall_time_ms": self.wall_time_ms}
        return _text(obj, "\n") + "\n"

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
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return text
