"""File formats: profile and solve-config JSON, deterministic CSV emitters,
run manifests.

Numbers are written as str writes them (a float, numpy's included, in its
shortest round-trip form), files end with a single newline, and nothing
time- or environment-dependent is emitted, so a given input always produces
byte-identical artifacts.

Importing this module loads no numpy: the JSON reader and its checks run on
the standard library, a profile's builders are imported once its JSON (and,
in a solve config, all of the config's) has passed them, and the writers
import numpy where they use it.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .base import ProfileFormatError

if TYPE_CHECKING:
    import numpy as np

    from .profiles import ContactProfile
    from .solver import FanMeasurement, RadialTrace, SolutionField


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ProfileFormatError(msg)


def _names(keys) -> str:
    return ", ".join(map(repr, keys))


def json_keys(data, what: str, required=(), optional=(), one_of=()) -> None:
    """Check that ``data`` is a JSON object holding every ``required`` key,
    exactly one key of ``one_of`` when that is given, and no key but these and
    the ``optional`` ones; else raise ProfileFormatError naming the key."""
    _require(isinstance(data, dict), f"{what} must be a JSON object")
    unknown = sorted(set(data).difference(required, optional, one_of))
    _require(not unknown, f"{what} has unknown key(s) {_names(unknown)}")
    missing = [key for key in required if key not in data]
    _require(not missing, f"{what} is missing key(s) {_names(missing)}")
    _require(
        not one_of or sum(key in data for key in one_of) == 1,
        f"{what} needs exactly one of {_names(one_of)}",
    )


def json_number(x, what: str) -> float:
    """A finite JSON number as a float; else ProfileFormatError."""
    # JSON admits NaN and Infinity, and ints too large for a float; none is a value
    if isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max:
        return float(x)
    raise ProfileFormatError(f"{what} must be a finite number, got {x!r}")


def json_int(x, what: str) -> int:
    """A JSON integer (not a boolean); else ProfileFormatError."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ProfileFormatError(f"{what} must be an int, got {x!r}")


#: each generator type's (required, optional, one-of) keys besides "type"
_GENERATOR_KEYS = {
    "constant": ((), (), ("gamma", "gamma1")),
    "example1": (("gamma1", "gamma2"), ("depth",), ()),
    "example2": (("gamma1", "gamma2"), ("depth",), ()),
}


def read_json(path: str | Path, what: str):
    """The JSON value in a UTF-8 file; an unreadable file, bytes that are not
    UTF-8, text that is not JSON or JSON nested too deeply for the parser
    raise ProfileFormatError naming ``what``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ProfileFormatError(f"cannot read {what} file {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProfileFormatError(f"{what} file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ProfileFormatError(f"{what} file {path} is nested too deeply") from exc


def _check_profile(data):
    """Run a profile spec's JSON checks and return the call that builds it,
    a function of the ``profiles`` module."""
    json_keys(data, "profile spec", ("side",), ("s_max",), ("segments", "generator"))
    side = data["side"]
    _require(side in ("+", "-"), f"side must be '+' or '-', got {side!r}")
    if "segments" in data:
        segs = data["segments"]
        _require(
            isinstance(segs, list) and len(segs) > 0,
            "'segments' must be a non-empty list",
        )
        breaks = []
        values = []
        for k, seg in enumerate(segs):
            json_keys(seg, f"segment {k}", ("s_end", "gamma"))
            breaks.append(json_number(seg["s_end"], f"segment {k} s_end"))
            values.append(json_number(seg["gamma"], f"segment {k} gamma"))
        s_max = data.get("s_max", breaks[-1])
        _require(
            abs(json_number(s_max, "s_max") - breaks[-1]) <= 1e-12 * max(1.0, breaks[-1]),
            "s_max must equal the last segment end",
        )
        return lambda profiles: profiles.make_piecewise(side, breaks, values)

    gen = data["generator"]
    _require(isinstance(gen, dict) and "type" in gen, "'generator' needs a type")
    gtype = gen["type"]
    _require(
        isinstance(gtype, str) and gtype in _GENERATOR_KEYS,
        f"unknown generator type {gtype!r}",
    )
    required, optional, one_of = _GENERATOR_KEYS[gtype]
    json_keys(gen, f"{gtype} generator", ("type", *required), optional, one_of)
    if gtype == "constant":
        gamma = json_number(gen["gamma"] if "gamma" in gen else gen["gamma1"], "constant gamma")
        s_max = json_number(data.get("s_max", 1.0), "s_max")
        return lambda profiles: profiles.constant_profile(side, gamma, s_max)
    g1 = json_number(gen["gamma1"], "gamma1")
    g2 = json_number(gen["gamma2"], "gamma2")
    # a depth left out is the generator's own default
    kw = {"depth": json_int(gen["depth"], "depth")} if "depth" in gen else {}
    _require(
        abs(json_number(data.get("s_max", 1.0), "s_max") - 1.0) <= 1e-12,
        f"{gtype} profiles are parametrized on arclength [0, 1]",
    )
    # example1_profile and example2_profile make + walls
    return lambda profiles: dataclasses.replace(
        getattr(profiles, f"{gtype}_profile")(g1, g2, **kw), side=side
    )


def _build_profile(make) -> ContactProfile:
    """The profile of a spec that passed _check_profile; a value the profile
    builders refuse is a format error here, as a malformed key is."""
    from . import profiles

    try:
        return make(profiles)
    except ValueError as exc:  # ProfileFormatError included: it keeps its message
        raise ProfileFormatError(str(exc)) from exc


def profile_from_dict(data: dict) -> ContactProfile:
    """Build a wall profile from the JSON-schema dictionary."""
    return _build_profile(_check_profile(data))


def _check_wall(entry, key: str | None, where: str, folder: Path | None = None):
    """Check one wall and return the call that builds it.  ``entry`` is a
    profile spec, or the name of a profile file (in ``folder`` when given);
    ``where`` names the place it was given.  The wall given as ``key`` plus
    must declare side '+', and as minus '-' (no side rule when None)."""
    _require(entry is not None, f"{where} is null; a no-flux wall is a constant "
             "profile with gamma = pi/2")
    if isinstance(entry, (str, Path)):
        # joining an absolute path keeps only that path
        entry = read_json(entry if folder is None else folder / entry, "profile")
    make = _check_profile(entry)
    side = entry["side"]
    _require(key is None or side == ("+" if key == "plus" else "-"),
             f"profile under {where} declares side {side!r}")
    return make


def load_profile(path: str | Path, side: str | None = None) -> ContactProfile:
    """Read one wall profile from a JSON file; malformed input raises.  Given
    ``side``, the wall given as ``--profile`` for that side must declare it."""
    key = {"+": "plus", "-": "minus"}.get(side)
    return _build_profile(_check_wall(path, key, "--profile"))


def load_walls(plus: str | Path, minus: str | Path) -> list[ContactProfile]:
    """Read the + and the - wall profile from their files, both files' JSON
    checks (each wall's side included) before either build, so a malformed
    file stops the call before numpy loads."""
    makes = [_check_wall(path, key, f"--{key}") for key, path in (("plus", plus), ("minus", minus))]
    return [_build_profile(make) for make in makes]


def _json_string(x, what: str) -> str:
    if isinstance(x, str):
        return x
    raise ProfileFormatError(f"{what} must be a string, got {x!r}")


#: the default of a solve-config key that must be given
_REQUIRED = object()

#: every solve-config key, in the order its value is checked, with the check
#: of its kind and its default: a default of None leaves a key not given out
#: of the config (tol, max_iter and initial are then SolverConfig's), and a
#: callable one is a function of the keys before it.  kappa and lambda are
#: required too unless pmc is given.
_SOLVE_KEYS = {
    "alpha": (json_number, _REQUIRED),
    "m": (json_int, 48),
    "n_theta": (json_int, 48),
    "n_radii": (json_int, lambda config: min(8, config["m"])),
    "r_min": (json_number, 0.05),
    "r_max": (json_number, 1.0),
    "plus": (_check_wall, _REQUIRED),
    "minus": (_check_wall, _REQUIRED),
    "tol": (json_number, None),
    "max_iter": (json_int, None),
    "initial": (json_number, None),
    "pmc": (_json_string, None),
    "kappa": (json_number, 1.0),
    "lambda": (json_number, 0.0),
}


def read_solve_config(path: str | Path) -> dict:
    """The solve config in ``path``: each key of _SOLVE_KEYS that it gives,
    or else the key's default, with plus and minus built into profiles.
    Every JSON check, the walls' included, runs before either wall is built,
    so a malformed config stops the call before numpy loads."""
    data = read_json(path, "solve config")
    required = [key for key, (_, default) in _SOLVE_KEYS.items() if default is _REQUIRED]
    if not (isinstance(data, dict) and "pmc" in data):
        required += ["kappa", "lambda"]
    json_keys(data, "solve config", required, _SOLVE_KEYS)
    config = {}
    for key, (check, default) in _SOLVE_KEYS.items():
        if check is _check_wall:
            config[key] = _check_wall(data[key], key, f"solve config key {key!r}",
                                      Path(path).parent)
        elif key in data:
            config[key] = check(data[key], f"solve config key {key!r}")
        elif default is not None:
            config[key] = default(config) if callable(default) else default
    for key in ("plus", "minus"):
        config[key] = _build_profile(config[key])
    return config


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


#: lines written to a file per write: bounds the text held at once
_CHUNK_LINES = 4096


def _write_lines(path, lines) -> Path:
    """Write each of ``lines`` and a newline, _CHUNK_LINES lines at a time, so
    the text held at once does not grow with the file."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    lines = iter(lines)
    with p.open("w", newline="") as fh:
        while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
            fh.write("\n".join(chunk) + "\n")
    return p


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    """Comma-joined str values; no field wedgecap writes needs CSV quoting."""
    lines = (",".join(map(str, row)) for row in rows)
    return _write_lines(path, itertools.chain([",".join(header)], lines))


def _float_lines(columns):
    """One line of repr-formatted floats per row of ``columns``, which are
    turned into Python floats _CHUNK_LINES rows at a time."""
    import numpy as np

    columns = [np.ravel(c) for c in columns]
    for start in range(0, min(map(len, columns)), _CHUNK_LINES):
        chunk = (c[start:start + _CHUNK_LINES].astype(float).tolist() for c in columns)
        yield from (",".join(map(repr, row)) for row in zip(*chunk))


def _write_columns(path, header: str, columns) -> Path:
    """Fast write_csv for float columns."""
    return _write_lines(path, itertools.chain([header], _float_lines(columns)))


def write_sweep_csv(path, eps: np.ndarray, averages: np.ndarray) -> Path:
    return _write_columns(path, "eps,averaged_cos", (eps, averages))


def write_functional_csv(path, rows) -> Path:
    """rows: (b, A_I, A_S, method, uncertainty) tuples."""
    return write_csv(path, ["b", "A_I", "A_S", "method", "uncertainty"], rows)


def write_bounds_csv(path, rows) -> Path:
    """rows: one fan-scan result per (side, case)."""
    header = "side case beta_min method worst_lambda monotone_flag effective_m effective_sigma"
    return write_csv(path, header.split(), rows)


def write_limit_sweep_csv(path, rows) -> Path:
    """rows: (lambda, gain) pairs of Python floats."""
    return write_csv(path, ["lambda", "limit_difference"], rows)


def write_solution_csv(path, field: SolutionField) -> Path:
    """One row per node, outer radii first and theta inner; each r and theta
    is formatted once."""
    thetas = [f",{t}," for t in map(repr, field.mesh.thetas.tolist())]
    nodes = (
        r + t + f
        for r, row in zip(map(repr, field.mesh.radii.tolist()), field.values)
        for t, f in zip(thetas, map(repr, row.tolist()))
    )
    return _write_lines(path, itertools.chain(["r,theta,f"], nodes))


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
        lines.append(f"{pad}{value}")
        return
    for label, item in items:
        if isinstance(item, (dict, list, tuple)):
            lines.append(f"{pad}{label}")
            _render(item, indent + 1, lines)
        else:
            lines.append(f"{pad}{label} {item}")


def write_manifest(path, sections: dict) -> Path:
    """Human-readable run record: sorted keys, no timestamps."""
    lines: list[str] = []
    _render(sections, 0, lines)
    return _write_lines(path, lines)
