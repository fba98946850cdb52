"""File-format tests: profile JSON schema, CSV emitters, run manifests.

Artifact determinism is part of the contract, so several tests compare whole
files against golden byte strings rather than parsing them back.
"""

import csv
import io
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from wedgecap.io import (
    _CHUNK_LINES,
    fan_summary,
    load_profile,
    profile_from_dict,
    profile_summary,
    write_bounds_csv,
    write_csv,
    write_functional_csv,
    write_limit_sweep_csv,
    write_manifest,
    write_solution_csv,
    write_sweep_csv,
    write_trace_csv,
)
from wedgecap.profiles import (
    ProfileFormatError,
    WedgeGeometry,
    example1_profile,
    example2_profile,
)
from wedgecap.solver import (
    CASE_CONSTANT,
    FanMeasurement,
    RadialTrace,
    SolutionField,
    build_sector_mesh,
)


# ---------------------------------------------------------------------------
# profile JSON schema


def test_segments_roundtrip():
    data = {
        "side": "-",
        "segments": [
            {"s_end": 0.5, "gamma": 0.3},
            {"s_end": 1.0, "gamma": 1.2},
        ],
    }
    p = profile_from_dict(data)
    assert p.side == "-"
    assert np.array_equal(p.bounds, [0.0, 0.5, 1.0])
    assert np.array_equal(p.values, [0.3, 1.2])
    assert p.s_max == 1.0
    assert p.generator is None


def test_explicit_smax_must_match_last_break():
    base = {"side": "+", "segments": [{"s_end": 2.0, "gamma": 1.0}]}
    assert profile_from_dict({**base, "s_max": 2.0}).s_max == 2.0
    with pytest.raises(ProfileFormatError, match="s_max"):
        profile_from_dict({**base, "s_max": 1.9})


def test_exactly_one_profile_source():
    seg = [{"s_end": 1.0, "gamma": 1.0}]
    gen = {"type": "constant", "gamma1": 1.0}
    with pytest.raises(ProfileFormatError, match="exactly one"):
        profile_from_dict({"side": "+", "segments": seg, "generator": gen})
    with pytest.raises(ProfileFormatError, match="exactly one"):
        profile_from_dict({"side": "+"})


MISSPELT = {
    "top-level": ({"side": "+", "segments": [{"s_end": 1.0, "gamma": 1.0}], "smax": 1.0}, "smax"),
    "segment": ({"side": "+", "segments": [{"s_end": 1.0, "gama": 1.0}]}, "gama"),
    "generator": ({"side": "+", "generator": {"type": "example1", "gamma1": 0.4,
                                              "gamma2": 2.2, "depht": 3}}, "depht"),
    "gamma-and-gamma1": ({"side": "+", "generator": {"type": "constant", "gamma": 1.0,
                                                     "gamma1": 2.0}}, "gamma1"),
}


@pytest.mark.parametrize("level", MISSPELT)
def test_a_key_the_schema_does_not_read_is_a_format_error(level):
    """A misspelt key is refused, not skipped, at every level; so is a constant
    generator that gives its angle twice."""
    spec, key = MISSPELT[level]
    with pytest.raises(ProfileFormatError, match=repr(key)):
        profile_from_dict(spec)


def test_side_is_validated():
    with pytest.raises(ProfileFormatError, match="side"):
        profile_from_dict({"side": "x", "segments": [{"s_end": 1.0, "gamma": 1.0}]})
    with pytest.raises(ProfileFormatError, match="side"):
        profile_from_dict({"segments": [{"s_end": 1.0, "gamma": 1.0}]})


@pytest.mark.parametrize(
    "segments",
    [
        [],
        {"s_end": 1.0, "gamma": 1.0},  # dict, not a list of dicts
        [{"s_end": 1.0}],
        [{"s_end": "1.0", "gamma": 1.0}],
        [{"s_end": 1.0, "gamma": True}],  # bool is not accepted as a number
    ],
)
def test_malformed_segments_rejected(segments):
    with pytest.raises(ProfileFormatError):
        profile_from_dict({"side": "+", "segments": segments})


def test_factory_errors_surface_as_format_errors():
    # out-of-range angle and non-increasing breaks are caught downstream but
    # must still surface as the schema error type
    with pytest.raises(ProfileFormatError):
        profile_from_dict({"side": "+", "segments": [{"s_end": 1.0, "gamma": 7.0}]})
    with pytest.raises(ProfileFormatError):
        profile_from_dict(
            {
                "side": "+",
                "segments": [{"s_end": 1.0, "gamma": 1.0}, {"s_end": 0.5, "gamma": 0.2}],
            }
        )


def test_constant_generator():
    p = profile_from_dict(
        {"side": "+", "s_max": 2.0, "generator": {"type": "constant", "gamma1": 1.0}}
    )
    assert p.generator == "constant"
    assert p.s_max == 2.0
    assert p.value_at(1.7) == 1.0
    # "gamma" is accepted as an alias for the single angle
    q = profile_from_dict({"side": "+", "generator": {"type": "constant", "gamma": 0.5}})
    assert q.value_at(0.3) == 0.5 and q.s_max == 1.0


def test_constant_generator_bad_angle():
    with pytest.raises(ProfileFormatError):
        profile_from_dict({"side": "+", "generator": {"type": "constant", "gamma": -0.1}})


def test_example_generators_match_library_defaults():
    d1 = {"side": "+", "generator": {"type": "example1", "gamma1": 0.4, "gamma2": 2.2}}
    p1 = profile_from_dict(d1)
    ref1 = example1_profile(0.4, 2.2)
    assert np.array_equal(p1.bounds, ref1.bounds)
    assert np.array_equal(p1.values, ref1.values)
    assert p1.generator == "example1"
    assert p1.recurrent_values == (0.4, 2.2)

    d2 = {"side": "+", "generator": {"type": "example2", "gamma1": 0.4, "gamma2": 2.2}}
    p2 = profile_from_dict(d2)
    ref2 = example2_profile(0.4, 2.2)
    assert np.array_equal(p2.bounds, ref2.bounds)
    assert p2.annotations == ref2.annotations


def test_generator_respects_depth_and_side():
    d = {
        "side": "-",
        "generator": {"type": "example2", "gamma1": 0.4, "gamma2": 2.2, "depth": 6},
    }
    p = profile_from_dict(d)
    ref = example2_profile(0.4, 2.2, 6)
    assert p.side == "-"
    assert np.array_equal(p.bounds, ref.bounds)
    assert np.array_equal(p.values, ref.values)
    assert p.annotations == ref.annotations
    assert p.generator == "example2"


@pytest.mark.parametrize("depth", [True, 0, -3, 1.5, "8"])
def test_generator_depth_validation(depth):
    d = {
        "side": "+",
        "generator": {"type": "example1", "gamma1": 0.4, "gamma2": 2.2, "depth": depth},
    }
    with pytest.raises(ProfileFormatError, match="depth"):
        profile_from_dict(d)


def test_generator_smax_fixed_to_one():
    d = {
        "side": "+",
        "s_max": 2.0,
        "generator": {"type": "example1", "gamma1": 0.4, "gamma2": 2.2},
    }
    with pytest.raises(ProfileFormatError, match="arclength"):
        profile_from_dict(d)


def test_unknown_generator_type():
    with pytest.raises(ProfileFormatError, match="unknown generator"):
        profile_from_dict({"side": "+", "generator": {"type": "sawtooth"}})
    with pytest.raises(ProfileFormatError, match="type"):
        profile_from_dict({"side": "+", "generator": {}})


def test_load_profile(tmp_path):
    path = tmp_path / "wall.json"
    path.write_text(
        json.dumps({"side": "+", "segments": [{"s_end": 1.0, "gamma": 0.7}]})
    )
    p = load_profile(path)
    assert p.value_at(0.5) == 0.7

    with pytest.raises(ProfileFormatError, match="cannot read"):
        load_profile(tmp_path / "absent.json")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ProfileFormatError, match="not valid JSON"):
        load_profile(bad)


def test_profile_summary_contents():
    gen = example1_profile(0.4, 2.2, 3)
    s = profile_summary(gen)
    assert s["side"] == "+" and s["s_max"] == 1.0
    assert s["generator"] == "example1"
    assert s["recurrent_values"] == [0.4, 2.2]
    assert s["n_segments"] == gen.n_segments

    plain = profile_from_dict(
        {"side": "-", "segments": [{"s_end": 1.0, "gamma": 0.7}]}
    )
    t = profile_summary(plain)
    assert "generator" not in t and "recurrent_values" not in t
    assert t == {"side": "-", "s_max": 1.0, "n_segments": 1}


# ---------------------------------------------------------------------------
# scalar formatting and CSV emitters


#: scalars of every kind the writers are given, and how str prints each:
#: floats (numpy's too) in their shortest round-trip form
SCALARS = [
    (0.1 + 0.2, "0.30000000000000004"),
    (np.float64(1.0) / 3.0, "0.3333333333333333"),
    (True, "True"),
    (np.bool_(False), "False"),
    (7, "7"),
    (np.int64(-4), "-4"),
    ("theorem2_scan", "theorem2_scan"),
    (math.nan, "nan"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (-0.0, "-0.0"),
    (5e-324, "5e-324"),
]


def test_writers_print_scalars_as_str(tmp_path):
    values, texts = zip(*SCALARS)
    assert [str(x) for x in values] == list(texts)
    header = [f"c{k:02d}" for k in range(len(values))]  # in the manifest's sorted order
    lines = write_csv(tmp_path / "row.csv", header, [values]).read_text().splitlines()
    assert lines == [",".join(header), ",".join(texts)]
    lines = write_manifest(tmp_path / "manifest.txt", {
        "list": list(values), **dict(zip(header, values)),
    }).read_text().splitlines()
    assert lines == [*(f"{h}: {t}" for h, t in zip(header, texts)), "list:",
                     *(f"  - {t}" for t in texts)]


def test_write_csv_round_trips_floats(tmp_path):
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1e6, 1e6, size=200) * 10.0 ** rng.integers(-300, 300, size=200)
    rows = [(x, float(x)) for x in xs]  # numpy's float64 and Python's float
    lines = write_csv(tmp_path / "floats.csv", ["np", "py"], rows).read_text().splitlines()
    assert [tuple(map(float, line.split(","))) for line in lines[1:]] == rows


def test_write_sweep_csv_golden(tmp_path):
    path = write_sweep_csv(
        tmp_path / "sweep.csv",
        np.array([1.0, 0.5]),
        np.array([0.25, 1.0 / 3.0]),
    )
    assert path.read_bytes() == b"eps,averaged_cos\n1.0,0.25\n0.5,0.3333333333333333\n"


def test_csv_rerun_is_byte_identical(tmp_path):
    rng = np.random.default_rng(11)
    eps = np.sort(rng.uniform(1e-6, 1.0, 40))[::-1]
    avg = rng.uniform(-1.0, 1.0, 40)
    a = write_sweep_csv(tmp_path / "a.csv", eps, avg).read_bytes()
    b = write_sweep_csv(tmp_path / "b.csv", eps, avg).read_bytes()
    assert a == b
    assert b"\r" not in a and a.endswith(b"\n") and not a.endswith(b"\n\n")


def test_functional_and_bounds_headers(tmp_path):
    p = write_functional_csv(
        tmp_path / "f.csv", [(0.5, -0.25, 0.25, "sweep", 1e-3, 0.0)]
    )
    lines = p.read_text().splitlines()
    assert lines[0] == "b,A_I,A_S,method,uncertainty,uncertainty_S"
    assert lines[1] == "0.5,-0.25,0.25,sweep,0.001,0.0"

    q = write_bounds_csv(
        tmp_path / "g.csv",
        [("+", "I", 0.5, "theorem2_scan", 1.2, True, 0.25, 1.318116071652818)],
    )
    qlines = q.read_text().splitlines()
    assert qlines[0] == (
        "side,case,beta_min,method,worst_lambda,monotone_flag,"
        "effective_m,effective_sigma"
    )
    assert qlines[1] == "+,I,0.5,theorem2_scan,1.2,True,0.25,1.318116071652818"


def _csv_module_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    # the csv module writes a float (numpy's float64 too) by repr, which
    # numpy 2 spells np.float64(...), so each value is given as its str
    writer.writerows(map(str, row) for row in rows)
    return buf.getvalue().encode()


def test_float_writers_match_write_csv_bytes(tmp_path):
    """write_csv and the column path of the all-float writers write what the
    csv module writes for the same str values."""
    col = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1, -2.5e-308, 1.0 / 3.0])
    other = col[::-1].copy()
    expect = _csv_module_bytes(["eps", "averaged_cos"], zip(col, other))
    assert write_sweep_csv(tmp_path / "sweep.csv", col, other).read_bytes() == expect
    got = write_csv(tmp_path / "rows.csv", ["eps", "averaged_cos"], zip(col, other))
    assert got.read_bytes() == expect
    table = np.column_stack([col, other])
    expect = _csv_module_bytes(["lambda", "limit_difference"], table)
    assert write_limit_sweep_csv(tmp_path / "limit.csv", table).read_bytes() == expect
    mixed = [
        ("+", "I", 0.5, "theorem2_scan", True, np.False_, 3, np.int64(-7), math.nan),
        ("-", "DI", -0.0, "sweep", False, np.True_, 0, np.int64(2**40), np.float64(1e-300)),
    ]
    header = ["side", "case", "x", "method", "flag", "np_flag", "n", "np_n", "y"]
    expect = _csv_module_bytes(header, mixed)
    assert write_csv(tmp_path / "mixed.csv", header, mixed).read_bytes() == expect
    field = _tiny_field(2, 3, np.resize(col, (3, 4)))  # m != n_theta
    nodes = [
        (r, t, f)
        for r, row in zip(field.mesh.radii, field.values)
        for t, f in zip(field.mesh.thetas, row)
    ]
    expect = _csv_module_bytes(["r", "theta", "f"], nodes)
    assert write_solution_csv(tmp_path / "solution.csv", field).read_bytes() == expect


@pytest.mark.parametrize(
    "n_rows",
    [0, _CHUNK_LINES - 1, _CHUNK_LINES, _CHUNK_LINES + 1, 2 * _CHUNK_LINES + 1],
)
def test_chunked_writers_match_write_csv_bytes_at_chunk_edges(tmp_path, n_rows):
    """Every CSV writer writes what the csv module writes, whether its lines
    fill no chunk, part of one, one exactly or spill into the next."""
    rng = np.random.default_rng(n_rows)
    col = rng.normal(size=n_rows) * 10.0 ** rng.integers(-300, 300, size=n_rows)
    col[::97] = np.nan
    cols = (col, col[::-1].copy(), np.cumsum(col))
    for name, header, write in [
        ("sweep", ["eps", "averaged_cos"], lambda p: write_sweep_csv(p, *cols[:2])),
        ("limit", ["lambda", "limit_difference"],
         lambda p: write_limit_sweep_csv(p, np.column_stack(cols[:2]))),
        ("trace", ["theta", "Rf", "residual"],
         lambda p: write_trace_csv(p, SimpleNamespace(thetas=cols[0], rf=cols[1],
                                                      residual=cols[2]))),
        ("rows", ["eps", "averaged_cos", "cumsum"],
         lambda p: write_csv(p, ["eps", "averaged_cos", "cumsum"], zip(*cols))),
    ]:
        expect = _csv_module_bytes(header, zip(*cols[:len(header)]))
        assert write(tmp_path / f"{name}.csv").read_bytes() == expect, name
    # one theta, so the solution has a line per radius
    field = SimpleNamespace(mesh=SimpleNamespace(radii=cols[0], thetas=np.array([0.25])),
                            values=cols[1][:, None])
    expect = _csv_module_bytes(["r", "theta", "f"], ((r, 0.25, f) for r, f in zip(*cols[:2])))
    assert write_solution_csv(tmp_path / "solution.csv", field).read_bytes() == expect
    mixed = [("+", "I", x, "theorem2_scan", x > 0, np.int64(k)) for k, x in enumerate(col)]
    header = ["side", "case", "x", "method", "flag", "n"]
    expect = _csv_module_bytes(header, mixed)
    assert write_csv(tmp_path / "mixed.csv", header, mixed).read_bytes() == expect


def test_csv_writer_working_storage(tmp_path):
    """tracemalloc peak of writing a 200,000-row sweep.  Lines are formatted
    and written a chunk at a time, so the peak does not grow with the row
    count.  The budget lies between the peak so measured (1.1 MB) and that of
    joining the whole file into one string (42 MB)."""
    eps = np.geomspace(1e-9, 1.0, 200_000)
    averages = np.cos(1e3 * eps)
    tracemalloc.start()
    try:
        path = write_sweep_csv(tmp_path / "sweep.csv", eps, averages)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    with open(path) as fh:
        assert sum(1 for _ in fh) == 200_001
    assert peak < 10.0


def test_limit_sweep_csv(tmp_path):
    table = np.array([[0.5, -0.125], [0.75, 0.0]])
    p = write_limit_sweep_csv(tmp_path / "l.csv", table)
    assert p.read_text() == "lambda,limit_difference\n0.5,-0.125\n0.75,0.0\n"


def test_write_csv_creates_parent_dirs(tmp_path):
    p = write_csv(tmp_path / "deep" / "nest" / "x.csv", ["a"], [[1.0]])
    assert p.read_text() == "a\n1.0\n"


def _tiny_field(m=2, n_theta=2, values=((0.0, 1.0, 2.0), (3.0, 4.0, 5.0), (6.0, 7.0, 8.0))):
    mesh = build_sector_mesh(WedgeGeometry(1.0), 0.5, 1.0, m, n_theta)
    values = np.array(values)
    return SolutionField(
        mesh=mesh,
        values=values,
        rhs_values=values.copy(),
        residual_history=(0.0,),
        stop="converged",
    )


def test_write_solution_csv_row_order(tmp_path):
    p = write_solution_csv(tmp_path / "f.csv", _tiny_field())
    # outer radii first (mesh radii are stored descending), theta inner
    assert p.read_text() == (
        "r,theta,f\n"
        "1.0,-1.0,0.0\n"
        "1.0,0.0,1.0\n"
        "1.0,1.0,2.0\n"
        "0.7071067811865476,-1.0,3.0\n"
        "0.7071067811865476,0.0,4.0\n"
        "0.7071067811865476,1.0,5.0\n"
        "0.5,-1.0,6.0\n"
        "0.5,0.0,7.0\n"
        "0.5,1.0,8.0\n"
    )


def test_write_trace_csv(tmp_path):
    trace = RadialTrace(
        thetas=np.array([-1.0, 0.0, 1.0]),
        rf=np.array([0.5, 0.25, 0.125]),
        residual=np.array([0.0, 1e-12, 0.0]),
    )
    p = write_trace_csv(tmp_path / "t.csv", trace)
    assert p.read_text() == (
        "theta,Rf,residual\n"
        "-1.0,0.5,0.0\n"
        "0.0,0.25,1e-12\n"
        "1.0,0.125,0.0\n"
    )


# ---------------------------------------------------------------------------
# manifests and summaries


def test_manifest_golden(tmp_path):
    sections = {
        "run": {"tool": "solve", "seed": 7, "ok": True},
        "values": [1.0, np.float64(0.5)],
        "cases": [{"b": 0.25, "kind": "I"}],
        "alpha": np.float64(1.5),
    }
    p = write_manifest(tmp_path / "m.txt", sections)
    assert p.read_text() == (
        "alpha: 1.5\n"
        "cases:\n"
        "  -\n"
        "    b: 0.25\n"
        "    kind: I\n"
        "run:\n"
        "  ok: True\n"
        "  seed: 7\n"
        "  tool: solve\n"
        "values:\n"
        "  - 1.0\n"
        "  - 0.5\n"
    )


def test_manifest_rerun_identical(tmp_path):
    sections = {"b": {"x": 0.1}, "a": [1, 2, {"c": False}]}
    one = write_manifest(tmp_path / "1.txt", sections).read_bytes()
    two = write_manifest(tmp_path / "2.txt", sections).read_bytes()
    assert one == two


def test_fan_summary_keys():
    plain = FanMeasurement(
        case=CASE_CONSTANT,
        alpha=1.0,
        alpha1=1.0,
        alpha2=-1.0,
        alpha_l=None,
        alpha_r=None,
        tolerance=1e-12,
    )
    s = fan_summary(plain)
    assert set(s) == {"case", "alpha1", "alpha2", "beta_minus", "beta_plus", "tolerance"}
    assert s["beta_minus"] == 2.0 and s["beta_plus"] == 2.0

    slit = FanMeasurement(
        case="ID",
        alpha=2.0,
        alpha1=-1.8,
        alpha2=1.8,
        alpha_l=-1.5,
        alpha_r=-1.5 + math.pi,
        tolerance=1e-9,
    )
    t = fan_summary(slit)
    assert t["alpha_L"] == -1.5 and t["alpha_R"] == -1.5 + math.pi
