"""Report objects and their JSON/CSV serializations.

Every probe's outcome is wrapped in a Report whose JSON form has a fixed key
order (version, config, command, verdict, metrics, witnesses, wall_time_ms) so
that identical runs are byte-identical except for the wall time, which is the
last line.  Non-finite floats serialize as the strings "nan", "inf", "-inf"
to keep the output strict JSON.

The JSON text is written in one pass over the raw values, with the bytes of
``json.dumps(jsonable(x), indent=2)``.  In a list, each plain record (a
dataclass whose fields are strings, finite floats and float64 vectors, such
as a ``LevelRadius``) goes through the ``%`` template of its shape, and one
format call fills the whole list; any other item is written value by value.
"""

from __future__ import annotations

import csv
import functools
import io
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
        return "[" + inner + _items(obj, inner) + nl + "]" if obj else "[]"
    names = _field_names(type(obj))
    if names is not None and not hasattr(obj, "to_dict"):
        return _text({name: getattr(obj, name) for name in names}, nl)
    value = jsonable(obj)  # numpy values, to_dict records, ints, bools, None
    if isinstance(value, (dict, list)):
        return _text(value, nl)
    return json.dumps(value)  # a scalar; TypeError for what JSON cannot hold


def _record(obj):
    """The shape and ``%`` values of a plain record (a dataclass without
    ``to_dict`` whose fields are str, finite float or finite 1-D float64
    arrays), or None.  The shape is the class and each field's slots."""
    names = _field_names(type(obj))
    if names is None or hasattr(obj, "to_dict"):
        return None
    shape, values = [type(obj)], []
    for name in names:
        v = getattr(obj, name)
        if isinstance(v, str):
            shape.append("%s")  # filled escaped, inside the template's quotes
            values.append(_quote(v)[1:-1])
        elif isinstance(v, float) and math.isfinite(v):
            shape.append("%r")
            values.append(float(v))  # %r of an np.float64 is not its repr
        elif (isinstance(v, np.ndarray) and v.dtype.char == "d" and v.ndim == 1
              and math.isfinite(sum(row := v.tolist()))):  # overflow: no harm
            shape.append(("%r",) * len(row))
            values.extend(row)
        else:
            return None
    return tuple(shape), values


def _items(seq, nl: str) -> str:
    """The items of a non-empty list, each on a line starting with ``nl``,
    filled in by one ``%`` call: a plain record through its shape's template,
    which is :func:`_text` of the shape's slots, any other item through
    :func:`_text`."""
    templates, slots, values = {}, [], []
    for item in seq:
        rec = _record(item)
        if rec is None:
            slots.append("%s")
            values.append(_text(item, nl))
            continue
        if rec[0] not in templates:
            skeleton = dict(zip(_field_names(rec[0][0]), rec[0][1:]))
            templates[rec[0]] = _text(skeleton, nl).replace('"%r"', "%r")
        slots.append(templates[rec[0]])
        values.extend(rec[1])
    return ("," + nl).join(slots) % tuple(values)


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
