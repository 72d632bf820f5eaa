"""Report serialization: strict JSON with fixed key order, CSV flattening."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from siphkit import decomposition, euler, levelsets, rays, reporting
from siphkit.exprlang import bind
from siphkit.reporting import Report, emit, jsonable

# Probe results that serialise as their own fields, in declaration order.
FIELD_REPORTS = [
    rays.SIReport, rays.DecomposabilityReport,
    levelsets.SphereExtrema, levelsets.BoundsReport,
    levelsets.CompactnessReport, levelsets.NegligibilityReport,
    euler.EulerReport, euler.SpreadReport,
    euler.PairedLevels, euler.SaddleReport, euler.NeighborhoodCertificate,
    decomposition.DecompositionCheck, decomposition.UniquenessReport,
    decomposition.OrderReport,
]


def _strict_loads(text):
    def reject(token):
        raise AssertionError(f"non-strict JSON token {token!r} in output")
    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------------------
# jsonable


def test_numpy_scalars_become_python_scalars():
    assert jsonable(np.float64(1.5)) == 1.5
    assert isinstance(jsonable(np.float64(1.5)), float)
    assert jsonable(np.int32(7)) == 7
    assert isinstance(jsonable(np.int32(7)), int)
    assert jsonable(np.bool_(True)) is True


def test_arrays_and_tuples_become_lists():
    assert jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]
    assert jsonable((1, 2, [3, np.float64(4.0)])) == [1, 2, [3, 4.0]]


def test_nonfinite_floats_become_strings():
    assert jsonable(float("nan")) == "nan"
    assert jsonable(float("inf")) == "inf"
    assert jsonable(float("-inf")) == "-inf"
    assert jsonable({"a": np.nan, "b": [np.inf, -np.inf]}) == {
        "a": "nan", "b": ["inf", "-inf"]}


def test_other_values_pass_through():
    assert jsonable("text") == "text"
    assert jsonable(None) is None
    assert jsonable({1: "x"}) == {"1": "x"}  # keys coerced to strings


def _reference_jsonable(obj):
    """The element-by-element walk ``jsonable`` replaced, kept as its
    reference."""
    if isinstance(obj, dict):
        return {str(k): _reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_reference_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if np.isnan(x):
            return "nan"
        if np.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _reference_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    return obj


def _leaf_types(doc):
    if isinstance(doc, dict):
        assert all(type(k) is str for k in doc)
        return set().union(*map(_leaf_types, doc.values()))
    if isinstance(doc, list):
        return set().union(*map(_leaf_types, doc))
    return {type(doc)}


_ARRAY_CASES = {
    "float64": np.array([1.5, -0.0, 1e-300, 2.0]),
    "float64_nonfinite": np.array([1.0, np.nan, np.inf, -np.inf]),
    "float32_nonfinite": np.array([0.1, np.nan, -np.inf], dtype=np.float32),
    "float32": np.array([0.1, 2.5], dtype=np.float32),
    "float16": np.array([0.5, np.inf], dtype=np.float16),
    "int64": np.array([3, -4, 2 ** 40]),
    "int8": np.array([1, -2], dtype=np.int8),
    "uint64": np.array([2 ** 63], dtype=np.uint64),
    "bool": np.array([True, False]),
    "2d": np.array([[1.0, np.nan], [3.0, 4.0]]),
    "2d_int": np.arange(6).reshape(2, 3),
    "empty": np.array([]),
    "empty_2d": np.zeros((0, 3)),
    "object": np.array([np.float64(1.0), np.int32(2), None, "a"], dtype=object),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_CASES))
def test_arrays_match_the_elementwise_walk(name):
    arr = _ARRAY_CASES[name]
    assert jsonable(arr) == _reference_jsonable(arr)
    assert _leaf_types(jsonable(arr)) <= {float, int, bool, str, type(None)}


def _radii_dtype(n, direction=np.float64, level=np.float64):
    """The dtype of ``ray_level_radius``'s records at dimension n, with the
    direction and level columns of other types if given."""
    return np.dtype([("direction", direction, (n,)), ("level", level),
                     ("status", "U12"), ("radius", float),
                     ("residual", float)])


def _reference_records(arr):
    """The list of dicts a 1-D structured array stands for, row by row."""
    return [{name: _reference_jsonable(rec[name]) for name in arr.dtype.names}
            for rec in arr]


def test_structured_arrays_become_lists_of_records():
    radii = np.rec.array([([0.6, 0.8], 1.0, "ok", np.inf, 2e-16),
                          ([1.0, 0.0], 1.0, "unbounded", np.nan, np.nan)],
                         dtype=_radii_dtype(2))
    out = jsonable(radii)
    assert out == _reference_records(radii) == [
        {"direction": [0.6, 0.8], "level": 1.0, "status": "ok",
         "radius": "inf", "residual": 2e-16},
        {"direction": [1.0, 0.0], "level": 1.0, "status": "unbounded",
         "radius": "nan", "residual": "nan"}]
    assert _leaf_types(out) == {float, str}
    assert jsonable(radii[:0]) == []


def test_nested_values_match_the_elementwise_walk_with_builtin_leaves():
    hit = np.rec.array([([0.6, np.float32(0.8)], 1.0, "ok", np.inf, 2e-16)],
                       dtype=_radii_dtype(2))
    rep = euler.EulerReport(max_residual=np.float64(3.0),
                            mean_residual=np.float64(2.0),
                            alpha=2.0, grad_mode="analytic", h=1e-5,
                            n_samples=np.int64(3), excluded=1, seed=4)
    doc = {"euler": rep, "pair": (np.float64(-np.inf), 1),
           "flag": np.bool_(False), 7: [np.arange(3), {"x": np.nan}],
           "scalars": [np.float64(0.25), np.float32(0.5), np.int16(-3)]}
    out = jsonable({"radii": [hit, hit], **doc})
    assert out == {"radii": [_reference_records(hit)] * 2,
                   **_reference_jsonable(doc)}
    assert _leaf_types(out) == {float, int, bool, str}
    assert type(jsonable(np.float64(0.25))) is float


# ---------------------------------------------------------------------------
# probe results


def _placeholder(cls):
    """An instance of ``cls`` whose i-th field holds the integer i."""
    return cls(**{f.name: i for i, f in enumerate(dataclasses.fields(cls))})


@pytest.mark.parametrize("cls", FIELD_REPORTS, ids=lambda c: c.__name__)
def test_probe_result_serialises_as_its_fields_in_order(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    doc = jsonable(_placeholder(cls))
    assert list(doc) == names
    assert list(doc.values()) == list(range(len(names)))


def test_no_result_dataclass_defines_to_dict():
    overriding = sorted(
        obj.__name__ for mod in (decomposition, euler, levelsets, rays)
        for obj in vars(mod).values()
        if dataclasses.is_dataclass(obj) and obj.__module__ == mod.__name__
        and "to_dict" in vars(obj))
    assert overriding == []


def test_euler_report_drops_residuals_and_adds_their_mean():
    # the keys, in order, of the per-sample residuals' former summary
    doc = jsonable(_euler_report())
    assert list(doc) == ["max_residual", "mean_residual", "alpha", "grad_mode",
                         "h", "n_samples", "excluded", "seed", "notes",
                         "witnesses"]
    assert doc["mean_residual"] == 2.0


def test_spread_report_drops_values():
    # the keys, in order, of the former summary, then the witnesses the
    # command line moves into the report's witness list
    rep = euler.SpreadReport(level=0.5, spread=0.0, mean=1.0, passed=True,
                             tol=1e-6, skipped=0, n_points=2, seed=0)
    assert list(jsonable(rep)) == ["level", "spread", "mean", "passed", "tol",
                                   "skipped", "n_points", "seed", "witnesses"]


def test_nested_probe_results_serialise_inside_reports():
    hit = np.rec.array([([1.0, 0.0], 1.0, "ok", 1.0, np.nan)],
                       dtype=_radii_dtype(2))
    report = Report(command="levelset radii", verdict="pass",
                    metrics={"radii": hit})
    doc = _strict_loads(report.to_json())
    assert doc["metrics"]["radii"] == [{"direction": [1.0, 0.0], "level": 1.0,
                                        "status": "ok", "radius": 1.0,
                                        "residual": "nan"}]
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert ["radius", "0", "1.0"] in rows


# ---------------------------------------------------------------------------
# JSON form


def _sample_report(**kw):
    return Report(command="check si", verdict="pass",
                  config={"function": "sphere", "seed": 0},
                  metrics={"trials": 1008, "violations": 0},
                  witnesses=[], **kw)


def test_json_key_order_is_fixed():
    doc = _strict_loads(_sample_report().to_json())
    assert list(doc) == ["version", "config", "command", "verdict", "metrics",
                         "witnesses", "wall_time_ms"]
    assert doc["version"] == "si-ph-kit/1"
    assert doc["verdict"] == "pass"
    assert doc["metrics"]["trials"] == 1008


def test_json_is_newline_terminated_strict_json():
    text = _sample_report(wall_time_ms=12.5).to_json()
    assert text.endswith("}\n")
    doc = _strict_loads(text)
    assert doc["wall_time_ms"] == 12.5


def test_nonfinite_metrics_serialize_as_strings():
    report = Report(command="c", verdict="fail",
                    metrics={"max_radius": float("nan"),
                             "sup": float("inf")})
    doc = _strict_loads(report.to_json())
    assert doc["metrics"]["max_radius"] == "nan"
    assert doc["metrics"]["sup"] == "inf"


def test_identical_reports_differ_only_in_wall_time():
    a = _sample_report(wall_time_ms=10.0).to_json().splitlines()
    b = _sample_report(wall_time_ms=99.0).to_json().splitlines()
    assert len(a) == len(b)
    diff = [i for i, (la, lb) in enumerate(zip(a, b)) if la != lb]
    assert len(diff) == 1
    assert "wall_time_ms" in a[diff[0]]


# ---------------------------------------------------------------------------
# CSV form


def test_csv_rows_cover_meta_config_metrics_witnesses():
    report = Report(command="decompose", verdict="pass",
                    config={"function": "sphere"},
                    metrics={"alpha": 2.0},
                    witnesses=[{"kind": "non_finite", "x": [0.0]}])
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert rows[0] == ["kind", "key", "value"]
    assert ["meta", "version", "si-ph-kit/1"] in rows
    assert ["meta", "command", "decompose"] in rows
    assert ["meta", "verdict", "pass"] in rows
    assert ["config", "function", '"sphere"'] in rows
    assert ["metric", "alpha", "2.0"] in rows
    witness_rows = [r for r in rows if r[0] == "witness"]
    assert len(witness_rows) == 1
    assert json.loads(witness_rows[0][2])["kind"] == "non_finite"


def test_csv_flattens_radius_records():
    report = Report(command="levelset radii", verdict="pass",
                    metrics={"radii": [{"radius": 1.5, "status": "ok"},
                                       {"radius": 2.5, "status": "ok"}],
                             "level": 4.0})
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    radius_rows = [r for r in rows if r[0] == "radius"]
    assert radius_rows == [["radius", "0", "1.5"], ["radius", "1", "2.5"]]
    assert ["metric", "level", "4.0"] in rows


# ---------------------------------------------------------------------------
# JSON writer against json.dumps of jsonable


def _reference_to_json(report):
    """The JSON form as ``json.dumps(jsonable(...), indent=2)`` writes it:
    the reference for ``Report.to_json``."""
    obj = {"version": report.version, "config": jsonable(report.config),
           "command": report.command, "verdict": report.verdict,
           "metrics": jsonable(report.metrics),
           "witnesses": jsonable(report.witnesses),
           "wall_time_ms": report.wall_time_ms}
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _assert_writes_reference(value):
    report = Report(command="c", verdict="pass", config={"value": value},
                    metrics=value, witnesses=[value], wall_time_ms=1.5)
    assert report.to_json() == _reference_to_json(report)


def _euler_report():
    return euler.EulerReport(max_residual=np.float64(3.0),
                             mean_residual=np.float64(2.0),
                             alpha=2.0, grad_mode="analytic", h=1e-5,
                             n_samples=np.int64(3), excluded=1, seed=4)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_VECTORS = hnp.arrays(np.float64, st.integers(0, 4), elements=_FLOATS)


@st.composite
def _record_arrays(draw):
    """Level-radius record arrays of 0-5 rows at n = 0-3, every float column
    drawn with nan, +-inf, -0.0 and subnormals, the directions in float64 or
    float32."""
    rows, n = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    dtype = _radii_dtype(n, draw(st.sampled_from([np.float64, np.float32])))
    return np.rec.fromarrays(
        [draw(hnp.arrays(dtype[name].base, (rows, *dtype[name].shape)))
         for name in dtype.names], dtype=dtype)


_RECORDS = _record_arrays()


@settings(max_examples=100, deadline=None)
@given(_RECORDS)
def test_record_arrays_match_the_row_by_row_walk(arr):
    assert jsonable(arr) == _reference_records(arr)
_LEAVES = (st.none() | st.booleans() | st.integers(-2 ** 80, 2 ** 80)
           | _FLOATS | st.text(max_size=8) | _FLOATS.map(np.float64)
           | st.floats(width=32).map(np.float32)
           | st.integers(-99, 99).map(np.int32)
           | st.booleans().map(np.bool_) | _VECTORS | _RECORDS
           | st.lists(_RECORDS, min_size=1, max_size=6)
           | st.just(_euler_report()))
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=5) | st.integers(-3, 3),
                                     inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_to_json_writes_the_bytes_of_json_dumps_of_jsonable(value):
    _assert_writes_reference(value)


def test_to_json_writes_the_bytes_of_json_dumps_on_edge_values():
    _assert_writes_reference({
        "nonfinite": [float("nan"), np.inf, -np.inf, np.float32("nan")],
        "look-alike strings": ["nan", "inf", "-inf"],
        "floats": [-0.0, 1e16, 5e-324, 1e-7, 0.1, np.float64(-0.0),
                   np.float32(0.1), np.float16(1.5), np.longdouble(2.5)],
        "ints": [2 ** 100, -2 ** 70, np.int64(-5), np.uint64(2 ** 63), 0],
        "bools": [True, False, np.bool_(True), np.bool_(False), None],
        "tuple": (1, (2.5, "x"), ()),
        "text": "caf\u00e9 \u2603 \"q\" \\ / \n\t\r\b\f \x00\x1f\x7f \U0001f600",
        "k\u00e9y\n\"\t": 1, 3: "int key", True: "bool key", None: "null key",
        "empty": [{}, [], (), np.array([]), np.zeros((0, 2)), {"a": []}],
        "arrays": [np.arange(3), np.array([[1.0, np.nan], [2.0, 3.0]]),
                   np.array([True]), np.array([1.5], dtype=np.float32)],
        "reports": [_euler_report(),
                    euler.SpreadReport(level=0.5, spread=np.nan, mean=np.nan,
                                       passed=False, tol=1e-6, skipped=0,
                                       n_points=1, seed=0,
                                       witnesses=[{"kind": "non_finite",
                                                   "x": [0.0, 0.0]}])],
    })


def test_level_radius_lists_keep_their_order_across_both_paths():
    nan, inf = np.nan, np.inf
    radii = [
        np.rec.array([([0.6, 0.8], 1.0, "ok", 1.25, 2e-16),
                      ([1.0, 0.0], 1.0, "unbounded", nan, nan),
                      ([0.0, 1.0], 1.0, "ok", 0.5, -0.0),
                      ([inf, -inf], 1.0, "ok", 3.0, 0.0)],
                     dtype=_radii_dtype(2)),
        np.rec.array([([0.6, 0.0, 0.8], 1.0, "ok", 4.0, 1e-300)],
                     dtype=_radii_dtype(3)),
        np.rec.array([([1.0, 0.1], 1.0, "ok", 5.0, 0.0)],
                     dtype=_radii_dtype(2, direction=np.float32)),
        np.rec.array([([1.0, 0.0], 1, "ok", 6.0, 0.0)],  # an int column
                     dtype=_radii_dtype(2, level=np.int64)),
        np.rec.array([([], 1.0, "\u00e9\"%s", 1e16, 5e-324)],
                     dtype=_radii_dtype(0)),
        {"radius": 8.0},
        np.rec.array([([1e308, 1e308], 1.0, "ok", 9.0, 0.0)],
                     dtype=_radii_dtype(2)),
        np.recarray(0, dtype=_radii_dtype(2)),
        # '%' in field names, a nested record and a 2-D subarray
        np.rec.array([(1.5, "%s", (nan, "x"), [[1.0, 2.0], [3.0, 4.0]])],
                     dtype=[("p%s", float), ("%", "U2"),
                            ("inner", [("a", float), ("b", "U1")]),
                            ("radius", float, (2, 2))]),
    ]
    _assert_writes_reference(radii)
    doc = _strict_loads(Report(command="c", verdict="pass",
                               metrics={"radii": radii}).to_json())
    got = [rec["radius"] for recs in doc["metrics"]["radii"]
           for rec in (recs if isinstance(recs, list) else [recs])]
    assert got == [1.25, "nan", 0.5, 3.0, 4.0, 5.0, 6.0, 1e16, 8.0, 9.0,
                   [[1.0, 2.0], [3.0, 4.0]]]
    assert doc["metrics"]["radii"][0][3]["direction"] == ["inf", "-inf"]
    assert doc["metrics"]["radii"][-1][0]["inner"] == {"a": "nan", "b": "x"}


def test_a_str_column_renders_as_its_quoted_strings():
    arr = np.rec.array([("ok", 1.0, ["a", "b"]), ('"q"', 2.0, ["\\", "%s"]),
                        ("caf\u00e9 \u2603", np.nan, ["\n", "\U0001f600"]),
                        ("", -0.0, ["", "\t"])],
                       dtype=[("status", "U8"), ("radius", float),
                              ("tags", "U2", (2,))])
    assert reporting._text(arr, "\n") == json.dumps(jsonable(arr), indent=2)


def test_level_radius_arrays_with_nan_rows_load_as_their_jsonable_form():
    f = bind("sin(3*x_1) + x_2^2", 2)
    radii = levelsets.ray_level_radius(
        f, rays.SamplingPlan(seed=3).sphere_points(2, 20), 0.5)
    assert np.isnan(radii.radius).any() and (radii.status == "ok").any()
    report = Report(command="levelset radii", verdict="fail",
                    metrics={"radii": radii})
    assert json.loads(report.to_json())["metrics"]["radii"] == jsonable(radii)
    _assert_writes_reference(radii)


def test_csv_radius_rows_of_a_record_array_are_its_radius_column():
    f = bind("sin(3*x_1) + x_2^2", 2)
    radii = levelsets.ray_level_radius(
        f, rays.SamplingPlan(seed=3).sphere_points(2, 20), 0.5)
    rows = list(csv.reader(io.StringIO(
        Report(command="c", verdict="pass",
               metrics={"radii": radii}).to_csv())))
    assert [r for r in rows if r[0] == "radius"] == [
        ["radius", str(i), "nan" if np.isnan(r) else repr(r)]
        for i, r in enumerate(radii.radius.tolist())]
    as_dicts = Report(command="c", verdict="pass",
                      metrics={"radii": jsonable(radii)})
    assert rows == list(csv.reader(io.StringIO(as_dicts.to_csv())))


@pytest.mark.parametrize("value", [
    object(), {1, 2}, 1 + 2j, np.array([1j]), b"bytes",
    np.rec.array([(object(), 1.0, "ok")],
                 dtype=[("direction", object), ("level", float),
                        ("status", "U2")]),
], ids=["object", "set", "complex", "complex-array", "bytes", "record"])
def test_to_json_rejects_what_json_cannot_encode(value):
    report = Report(command="c", verdict="pass", metrics={"x": [value]})
    with pytest.raises(TypeError):
        _reference_to_json(report)
    with pytest.raises(TypeError):
        report.to_json()


def test_render_rejects_unknown_formats():
    with pytest.raises(ValueError):
        _sample_report().render("yaml")


# ---------------------------------------------------------------------------
# emit


def test_emit_writes_file(tmp_path):
    target = tmp_path / "report.json"
    text = emit(_sample_report(), path=str(target))
    on_disk = target.read_text(encoding="utf-8")
    assert on_disk == text
    assert on_disk.endswith("\n")
    _strict_loads(on_disk)


def test_emit_stdout_by_default(capsys):
    emit(_sample_report())
    out = capsys.readouterr().out
    assert _strict_loads(out)["command"] == "check si"
    emit(_sample_report(), path="-")
    assert capsys.readouterr().out == out


def test_emit_csv_format(tmp_path):
    target = tmp_path / "report.csv"
    emit(_sample_report(), path=str(target), fmt="csv")
    rows = list(csv.reader(target.open()))
    assert rows[0] == ["kind", "key", "value"]
