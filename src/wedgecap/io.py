"""File formats: profile JSON, deterministic CSV emitters, run manifests.

Numbers are written with repr (shortest round-trip form), files end with a
single newline, and nothing time- or environment-dependent is emitted, so a
given input always produces byte-identical artifacts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .profiles import (
    ContactProfile,
    ProfileFormatError,
    constant_profile,
    example1_profile,
    example2_profile,
    make_piecewise,
)
from .solver import FanMeasurement, RadialTrace, SolutionField

_GENERATOR_DEPTHS = {"example1": 8, "example2": 24}


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ProfileFormatError(msg)


def profile_from_dict(data: dict) -> ContactProfile:
    """Build a wall profile from the JSON-schema dictionary."""
    _require(isinstance(data, dict), "profile spec must be a JSON object")
    side = data.get("side")
    _require(side in ("+", "-"), f"side must be '+' or '-', got {side!r}")
    has_segments = "segments" in data
    has_generator = "generator" in data
    _require(
        has_segments != has_generator,
        "profile spec needs exactly one of 'segments' or 'generator'",
    )
    if has_segments:
        segs = data["segments"]
        _require(
            isinstance(segs, list) and len(segs) > 0,
            "'segments' must be a non-empty list",
        )
        breaks = []
        values = []
        for k, seg in enumerate(segs):
            _require(
                isinstance(seg, dict) and {"s_end", "gamma"} <= set(seg),
                f"segment {k} must carry s_end and gamma",
            )
            breaks.append(_number(seg["s_end"], f"segment {k} s_end"))
            values.append(_number(seg["gamma"], f"segment {k} gamma"))
        s_max = data.get("s_max", breaks[-1])
        _require(
            abs(_number(s_max, "s_max") - breaks[-1]) <= 1e-12 * max(1.0, breaks[-1]),
            "s_max must equal the last segment end",
        )
        try:
            return make_piecewise(side, breaks, values)
        except ProfileFormatError:
            raise
        except ValueError as exc:
            raise ProfileFormatError(str(exc)) from exc

    gen = data["generator"]
    _require(isinstance(gen, dict) and "type" in gen, "'generator' needs a type")
    gtype = gen["type"]
    if gtype == "constant":
        gamma = _number(gen.get("gamma1", gen.get("gamma")), "constant gamma")
        s_max = _number(data.get("s_max", 1.0), "s_max")
        try:
            return constant_profile(side, gamma, s_max)
        except ValueError as exc:
            raise ProfileFormatError(str(exc)) from exc
    if gtype in ("example1", "example2"):
        g1 = _number(gen.get("gamma1"), "gamma1")
        g2 = _number(gen.get("gamma2"), "gamma2")
        depth = gen.get("depth", _GENERATOR_DEPTHS[gtype])
        _require(
            isinstance(depth, int) and not isinstance(depth, bool) and depth >= 1,
            "depth must be a positive int",
        )
        _require(
            abs(_number(data.get("s_max", 1.0), "s_max") - 1.0) <= 1e-12,
            f"{gtype} profiles are parametrized on arclength [0, 1]",
        )
        maker = example1_profile if gtype == "example1" else example2_profile
        try:
            prof = maker(g1, g2, depth)
        except ValueError as exc:
            raise ProfileFormatError(str(exc)) from exc
        return prof if side == prof.side else _with_side(prof, side)
    raise ProfileFormatError(f"unknown generator type {gtype!r}")


def _number(x, what: str) -> float:
    # JSON admits NaN and Infinity, and ints too large for a float; none is a value
    if isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max:
        return float(x)
    raise ProfileFormatError(f"{what} must be a finite number, got {x!r}")


def _with_side(profile: ContactProfile, side: str) -> ContactProfile:
    return ContactProfile(
        side=side,
        bounds=profile.bounds,
        values=profile.values,
        annotations=profile.annotations,
        recurrent_values=profile.recurrent_values,
        generator=profile.generator,
    )


def load_profile(path: str | Path) -> ContactProfile:
    """Read one wall profile from a JSON file; malformed input raises."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ProfileFormatError(f"cannot read profile file {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileFormatError(f"profile file {p} is not valid JSON: {exc}") from exc
    return profile_from_dict(data)


def profile_summary(profile: ContactProfile) -> dict:
    """Round-trippable description used in manifests."""
    out = {
        "side": profile.side,
        "s_max": profile.s_max,
        "n_segments": profile.n_segments,
    }
    if profile.generator is not None:
        out["generator"] = profile.generator
    if profile.recurrent_values is not None:
        out["recurrent_values"] = list(profile.recurrent_values)
    return out


# ---------------------------------------------------------------------------
# CSV / manifest emitters


def fmt(x) -> str:
    """Deterministic scalar formatting: repr for floats, str otherwise."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _write_lines(path, lines) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text("\n".join(lines) + "\n", newline="")
    return p


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    """Comma-joined fmt values; no field wedgecap writes needs CSV quoting."""
    return _write_lines(path, [",".join(header)] + [",".join(map(fmt, row)) for row in rows])


def _write_columns(path, header: str, columns) -> Path:
    """Fast write_csv for float columns."""
    rows = zip(*(np.ravel(c).astype(float).tolist() for c in columns))
    return _write_lines(path, [header] + [",".join(map(repr, r)) for r in rows])


def write_sweep_csv(path, eps: np.ndarray, averages: np.ndarray) -> Path:
    return _write_columns(path, "eps,averaged_cos", (eps, averages))


def write_functional_csv(path, rows) -> Path:
    """rows: (b, A_I, A_S, method, uncertainty) tuples."""
    return write_csv(path, ["b", "A_I", "A_S", "method", "uncertainty"], rows)


def write_bounds_csv(path, rows) -> Path:
    """rows: one fan-scan result per (side, case)."""
    header = "side case beta_min method worst_lambda monotone_flag effective_m effective_sigma"
    return write_csv(path, header.split(), rows)


def write_limit_sweep_csv(path, table: np.ndarray) -> Path:
    return _write_columns(path, "lambda,limit_difference", np.transpose(table))


def write_solution_csv(path, field: SolutionField) -> Path:
    """One row per node, outer radii first and theta inner; each r and theta
    is formatted once."""
    thetas = [f",{t}," for t in map(repr, field.mesh.thetas.tolist())]
    lines = ["r,theta,f"]
    for r, row in zip(map(repr, field.mesh.radii.tolist()), field.values.tolist()):
        lines += [r + t + f for t, f in zip(thetas, map(repr, row))]
    return _write_lines(path, lines)


def write_trace_csv(path, trace: RadialTrace) -> Path:
    return _write_columns(path, "theta,Rf,residual", (trace.thetas, trace.rf, trace.residual))


def fan_summary(fans: FanMeasurement) -> dict:
    out = {
        "case": fans.case,
        "alpha1": fans.alpha1,
        "alpha2": fans.alpha2,
        "beta_minus": fans.beta_minus,
        "beta_plus": fans.beta_plus,
        "tolerance": fans.tolerance,
    }
    if fans.alpha_l is not None:
        out["alpha_L"] = fans.alpha_l
        out["alpha_R"] = fans.alpha_r
    return out


def _render(value, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        items = [(f"{key}:", value[key]) for key in sorted(value)]
    elif isinstance(value, (list, tuple)):
        items = [("-", item) for item in value]
    else:
        lines.append(f"{pad}{fmt(value)}")
        return
    for label, item in items:
        if isinstance(item, (dict, list, tuple)):
            lines.append(f"{pad}{label}")
            _render(item, indent + 1, lines)
        else:
            lines.append(f"{pad}{label} {fmt(item)}")


def write_manifest(path, sections: dict) -> Path:
    """Human-readable run record: sorted keys, no timestamps."""
    lines: list[str] = []
    _render(sections, 0, lines)
    return _write_lines(path, lines)
