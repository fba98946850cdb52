"""Seeded inputs and operation lists of the benchmark's three workloads.

``build(name, seed, work)`` writes the workload's input files under
``work/inputs`` and returns its operations, each a ``python -m wedgecap``
argument list with the exit code and the oracle its outputs must satisfy.
The same seed writes the same bytes.  All three workloads run one operation
at a time (a closed loop with one client).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracles

NAMES = ("corner-solve", "fan-scan", "cli-short")

#: subcommand families; each gets its own median wall time in the record
KINDS = ("profile", "bounds", "verify", "solve", "mms", "blowup", "error")


@dataclass
class Op:
    """One CLI call: arguments, expected exit code and output oracle."""

    label: str
    kind: str
    argv: list[str]
    out: Path
    expect_exit: int
    check: Callable[[Path, str, str], list[str]]
    info: Callable[[Path], dict] | None = None


def _write(path: Path, data: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return path


def _constant(side: str, gamma: float) -> dict:
    return {"side": side, "generator": {"type": "constant", "gamma": gamma}}


def _two_angle(side: str, kind: str, g1: float, g2: float) -> dict:
    return {"side": side, "generator": {"type": kind, "gamma1": g1, "gamma2": g2}}


def irregular_wall(rng: random.Random, side: str, n: int = 240) -> dict:
    """Piecewise-constant wall with breaks spread over nine decades.

    Random breaks and angles are not self-similar, so every functional on it
    takes the sweep-table route.  Angles stay inside [0.35, 2.8], away from
    0 and pi, so every fan scan finds a width below pi.
    """
    breaks = sorted({round(10.0 ** rng.uniform(-9.0, 0.0), 15) for _ in range(n - 1)} - {1.0})
    breaks.append(1.0)
    return {
        "side": side,
        "segments": [{"s_end": b, "gamma": round(rng.uniform(0.35, 2.8), 6)} for b in breaks],
    }


def _op(work: Path, label: str, kind: str, sub: list, check, expect_exit: int = 0,
        info=None) -> Op:
    out = work / "out" / label
    return Op(label, kind, [str(a) for a in sub] + ["--out", str(out)], out, expect_exit,
              check, info)


def _side(side: str) -> str:
    return "plus" if side == "+" else "minus"


# ---------------------------------------------------------------------------
# corner-solve


def corner_solve(seed: int, work: Path) -> list[Op]:
    """Three 128x128 solves on example2 walls plus the manufactured study.

    The inputs are fixed, not seeded: example2 walls with gamma 0.8/2.0 at
    alpha = 1 satisfy the corner hypothesis (convex_ok), and a seeded angle
    or mesh would change the Newton iteration count from seed to seed.
    """
    del seed
    g1, g2, alpha, r_min, r_max, m = 0.8, 2.0, 1.0, 0.05, 1.0, 128
    inputs = work / "inputs"
    walls = {side: _two_angle(side, "example2", g1, g2) for side in "+-"}
    for side, wall in walls.items():
        _write(inputs / f"wall_{_side(side)}.json", wall)
    # kappa = 0 pins the mean, so lambda must balance the wall flux exactly:
    # lambda * area = sum over both walls of the cos(gamma) integral
    F = oracles.WallIntegral(oracles.spec_segments(walls["+"]))
    flux = 2.0 * (F(r_max) - F(r_min))
    area = alpha * (r_max**2 - r_min**2)  # the sector spans theta in [-alpha, alpha]
    base = {
        "alpha": alpha, "m": m, "n_theta": m, "r_min": r_min, "r_max": r_max,
        "plus": "wall_plus.json", "minus": "wall_minus.json",
    }
    configs = {
        "solve-capillary": {"kappa": 1.0, "lambda": 2.0},
        "solve-pinned": {"kappa": 0.0, "lambda": flux / area},
        # lambda = 2 has no solution: bounded tanh curvature cannot balance the flux
        "solve-pmc": {"pmc": "tanh", "kappa": 1.0, "lambda": 0.0},
    }
    ops = []
    for label, physics in configs.items():
        cfg = _write(inputs / f"{label}.json", {**base, **physics})
        ops.append(_op(work, label, "solve", ["solve", "--config", cfg],
                       lambda o, so, se: oracles.check_solve(o, m, m), info=oracles.solve_info))
    ops.append(_op(work, "solve-mms", "mms", ["solve", "--mms", "--mms-sizes", "16,32,64"],
                   lambda o, so, se: oracles.check_mms(o, [16, 32, 64])))
    return ops


# ---------------------------------------------------------------------------
# fan-scan


def fan_scan(seed: int, work: Path) -> list[Op]:
    """Fan scans on three wall families, blow-up sweeps and a dense profile."""
    rng = random.Random(f"fan-scan/{seed}")
    inputs = work / "inputs"
    pairs = {
        "irregular": {s: irregular_wall(rng, s) for s in "+-"},
        "example2": {s: _two_angle(s, "example2", round(rng.uniform(0.5, 1.1), 6),
                                   round(rng.uniform(1.8, 2.5), 6)) for s in "+-"},
        "example1": {s: _two_angle(s, "example1", round(rng.uniform(0.5, 1.1), 6),
                                   round(rng.uniform(1.8, 2.5), 6)) for s in "+-"},
    }
    ops = []
    for family, walls in pairs.items():
        paths = {s: _write(inputs / f"{family}_{_side(s)}.json", w) for s, w in walls.items()}
        ops.append(_op(
            work, f"bounds-{family}", "bounds",
            ["bounds", "--plus", paths["+"], "--minus", paths["-"], "--case", "all"],
            partial(_bounds_check, specs=walls, cases=["I", "D", "ID", "DI"]),
        ))
    wall = inputs / "irregular_plus.json"
    for case in ("I", "D", "ID", "DI"):
        beta = round(rng.uniform(0.3, 1.5), 6)
        ops.append(_op(
            work, f"blowup-{case}", "blowup",
            ["blowup", "--case", case, "--side", "+", "--beta", beta, "--profile", wall,
             "--points", 4096],
            partial(_blowup_check, case=case, side="+", beta=beta, points=4096),
        ))
    ops.append(_op(work, "profile-irregular", "profile",
                   ["profile", wall, "--points-per-decade", 1024],
                   partial(_profile_check, spec=pairs["irregular"]["+"], per_decade=1024)))
    return ops


# ---------------------------------------------------------------------------
# cli-short


def cli_short(seed: int, work: Path) -> list[Op]:
    """Short calls whose wall time is mostly the import floor."""
    rng = random.Random(f"cli-short/{seed}")
    inputs = work / "inputs"
    walls = {s: _constant(s, round(rng.uniform(0.4, 2.7), 6)) for s in "+-"}
    paths = {s: _write(inputs / f"constant_{_side(s)}.json", w) for s, w in walls.items()}
    ops = [
        _op(work, "verify-examples", "verify", ["verify-examples"],
            lambda o, so, se: oracles.check_verify(o, so)),
        _op(work, "profile-constant", "profile", ["profile", paths["+"]],
            partial(_profile_check, spec=walls["+"], per_decade=64)),
        _op(work, "bounds-constant", "bounds",
            ["bounds", "--plus", paths["+"], "--minus", paths["-"], "--case", "I"],
            partial(_bounds_check, specs=walls, cases=["I"])),
    ]
    for case, conditions in oracles.CASE_CONDITIONS.items():
        for side, cond in conditions:
            gamma0 = round(rng.uniform(0.5, 2.6), 6)
            bound = oracles.corollary1_bound(math.cos(gamma0), cond)
            # 0.3 either side of the Corollary 1 bound fixes the verdict
            beta = round(bound + rng.choice((-0.3, 0.3)), 6)
            ops.append(_op(
                work, f"blowup-{case}{'p' if side == '+' else 'm'}", "blowup",
                ["blowup", "--case", case, "--side", side, "--beta", beta, "--gamma0", gamma0],
                partial(_blowup_check, case=case, side=side, beta=beta, points=512,
                        gamma0=gamma0),
            ))
    gamma = round(rng.uniform(1.0, 2.1), 6)
    for s in "+-":
        _write(inputs / f"solve16_{_side(s)}.json", _constant(s, gamma))
    cfg = _write(inputs / "solve16.json", {
        "alpha": 1.0, "m": 16, "n_theta": 16, "kappa": 1.0, "lambda": 0.5,
        "plus": "solve16_plus.json", "minus": "solve16_minus.json",
    })
    ops.append(_op(work, "solve-16", "solve", ["solve", "--config", cfg],
                   lambda o, so, se: oracles.check_solve(o, 16, 16), info=oracles.solve_info))
    bad = _write(inputs / "bad_side.json",
                 {"side": "x", "generator": {"type": "constant", "gamma": 1.0}})
    errors = [
        ("error-usage", ["solve"], 1),  # no --config and no --mms
        ("error-profile", ["profile", bad], 2),
        ("error-range", ["profile", paths["+"], "--eps-floor", "5.0"], 3),
    ]
    for label, sub, code in errors:
        ops.append(_op(work, label, "error", sub,
                       lambda o, so, se: oracles.check_error_exit(se), expect_exit=code))
    return ops


def _bounds_check(out, stdout, stderr, *, specs, cases):
    return oracles.check_bounds(out, specs, cases)


def _blowup_check(out, stdout, stderr, **kw):
    return oracles.check_blowup(out, stdout, **kw)


def _profile_check(out, stdout, stderr, *, spec, per_decade):
    return oracles.check_profile(out, spec, per_decade)


GENERATORS = {"corner-solve": corner_solve, "fan-scan": fan_scan, "cli-short": cli_short}


def build(name: str, seed: int, work: Path) -> list[Op]:
    return GENERATORS[name](seed, work)
