"""End-to-end command-line tests: exit codes, artifacts, determinism.

Commands run in-process through main(argv); one smoke test exercises the
installed module entry point in a subprocess.
"""

import csv
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wedgecap
from wedgecap import solver
from wedgecap.bounds import (
    FanCase,
    adhesion_from_profile,
    case_condition_map,
    condition_decreasing,
    condition_increasing,
    corollary1_bound,
    effective_angle,
    holds_for_all_lambda,
    min_admissible_fan,
    required_functional_kind,
)
from wedgecap.blowup import contradiction_witness
from wedgecap.cli import _verify_lines, main
from wedgecap.io import load_profile
from wedgecap.profiles import WedgeGeometry, constant_profile


def run(argv):
    """main() return code, with argparse SystemExit normalized."""
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def write_json(path, data):
    path.write_text(json.dumps(data))
    return path


def constant_wall(tmp_path, side, gamma, name=None):
    name = name or f"wall{side.replace('+', 'p').replace('-', 'm')}.json"
    return write_json(
        tmp_path / name,
        {"side": side, "generator": {"type": "constant", "gamma": gamma}},
    )


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# usage errors (exit 1)


def test_usage_errors_exit_1(tmp_path):
    assert run([]) == 1  # no subcommand
    assert run(["profile"]) == 1  # missing positional
    p = constant_wall(tmp_path, "+", 1.0)
    assert run(["bounds", "--plus", p, "--minus", p, "--case", "X"]) == 1
    assert run(["blowup", "--case", "I", "--beta", "0.1"]) == 1  # no A source
    assert (
        run(
            ["blowup", "--case", "I", "--beta", "0.1", "--gamma0", "0.5",
             "--profile", p]
        )
        == 1
    )  # two A sources
    assert run(["blowup", "--gamma0", "0.5", "--beta", "0.1"]) == 1  # no case
    assert run(["solve", "--out", str(tmp_path)]) == 1  # no config, no --mms


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "WALL", "--tol", "1"],
        ["verify-examples", "--config", "x"],
        ["blowup", "--case", "I", "--beta", "0.1", "--gamma0", "0.5",
         "--beta-step", "0.01"],
        ["solve", "--mms", "--mms-sizes", "4,8", "--degrees"],
        ["solve", "--mms", "--config", "CFG"],
        ["solve", "--mms", "--tol", "1e-8"],
        ["solve", "--config", "CFG", "--mms-sizes", "8,16"],
        ["blowup", "--case", "I", "--beta", "0.1", "--gamma0", "0.5",
         "--eps-floor=-1"],
    ],
)
def test_flag_the_subcommand_ignores_exits_1(tmp_path, argv):
    wall = constant_wall(tmp_path, "+", 1.0)
    cfg = solve_config(tmp_path, m=8, n_theta=8)  # readable, so only the flag is wrong
    argv = [{"WALL": wall, "CFG": cfg}.get(a, a) for a in argv]
    assert run(argv + ["--out", tmp_path / "out"]) == 1


def test_solve_config_usage_errors(tmp_path, capsys):
    """No --config is a usage error (exit 1); a config file that is missing,
    not UTF-8, not JSON or not an object is a malformed config (exit 2), as
    the same profile file is."""
    out = tmp_path / "out"
    assert run(["solve", "--out", out]) == 1
    assert "requires --config" in capsys.readouterr().err

    assert run(["solve", "--config", tmp_path / "absent.json", "--out", out]) == 2
    assert "cannot read" in capsys.readouterr().err

    for name, content, says in [
        ("latin1.json", '{"alpha": 1.0, "note": "\u00e9"}'.encode("latin-1"), "not valid JSON"),
        ("nj.json", b"{oops", "not valid JSON"),
        ("bad.json", b"[1, 2]", "JSON object"),
    ]:
        (tmp_path / name).write_bytes(content)
        assert run(["solve", "--config", tmp_path / name, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "profile error" in err and says in err
    assert not out.exists()


def call_argv(tmp_path, command):
    """A valid call of each subcommand, without --out."""
    plus, minus = constant_wall(tmp_path, "+", 1.0), constant_wall(tmp_path, "-", 2.0)
    return {
        "profile": ["profile", plus],
        "bounds": ["bounds", "--plus", plus, "--minus", minus, "--case", "I"],
        "blowup": ["blowup", "--case", "I", "--beta", "0.5", "--gamma0", "1.0"],
        "verify-examples": ["verify-examples"],
        "solve": ["solve", "--config", solve_config(tmp_path, m=8, n_theta=8)],
    }[command]


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", ["profile", "bounds", "blowup", "verify-examples", "solve"])
def test_out_that_cannot_be_a_directory_is_a_usage_error(tmp_path, capsys, command, under):
    """An --out that is a file, or lies under one, exits 1 with one line
    naming it, before the command reads its inputs or computes."""
    taken = tmp_path / "taken.txt"
    taken.write_text("not a directory\n")
    out = taken / "out" if under else taken
    argv = call_argv(tmp_path, command)
    assert run(argv + ["--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"wedgecap: error: --out {out} lies under {taken}, which is not a directory" if under
        else f"wedgecap: error: --out {out} exists and is not a directory"
    ]
    assert taken.read_text() == "not a directory\n"


# ---------------------------------------------------------------------------
# profile command


def test_profile_run_and_artifacts(tmp_path, capsys):
    prof = write_json(
        tmp_path / "osc.json",
        {
            "side": "+",
            "generator": {"type": "example2", "gamma1": 0.4, "gamma2": 2.2},
        },
    )
    out = tmp_path / "out"
    code = run(
        ["profile", prof, "--out", out, "--eps-floor", "1e-6",
         "--points-per-decade", "32"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for name in ("sweep.csv", "functionals.csv", "manifest.txt"):
        assert (out / name).exists()

    rows = read_rows(out / "functionals.csv")
    assert rows[0] == ["b", "A_I", "A_S", "method", "uncertainty", "uncertainty_S"]
    assert len(rows) == 21
    # generated profile is recognized, so the A values are closed-form exact
    assert {r[3] for r in rows[1:]} == {"log_periodic_exact"}
    g1, g2 = 0.4, 2.2
    for r in rows[1:]:
        b = float(r[0])
        assert float(r[1]) == pytest.approx(
            b * (math.cos(g1) / 3.0 + 2.0 * math.cos(g2) / 3.0), abs=1e-12
        )
        assert float(r[2]) == pytest.approx(
            b * (2.0 * math.cos(g1) / 3.0 + math.cos(g2) / 3.0), abs=1e-12
        )
        assert float(r[4]) == float(r[5]) == 0.0

    manifest = (out / "manifest.txt").read_text()
    assert "command: profile" in manifest
    assert "generator: example2" in manifest


def test_profile_reports_each_functional_drift(tmp_path):
    """functionals.csv gives A_I's drift in ``uncertainty`` and A_S's in
    ``uncertainty_S``; on example1's wall, written as plain segments so
    that it is swept, they differ: at floor 1e-10 and b = 1 A_I does not
    move and A_S moves by about 0.02."""
    from wedgecap.functionals import _envelopes
    from wedgecap.profiles import example1_profile

    ex1 = example1_profile(0.7, 2.2)
    segments = [{"s_end": s, "gamma": g} for s, g in zip(ex1.breaks, ex1.values)]
    prof = write_json(tmp_path / "ex1.json", {"side": "+", "segments": segments})
    out = tmp_path / "out"
    assert run(["profile", prof, "--out", out, "--eps-floor", "1e-10"]) == 0
    rows = read_rows(out / "functionals.csv")[1:]
    wall = load_profile(prof)
    for r in rows:
        lower, upper = _envelopes(wall, float(r[0]), 1e-10)
        assert r[3] == "sweep"
        assert (r[4], r[5]) == (repr(lower.uncertainty), repr(upper.uncertainty))
    assert float(rows[-1][0]) == 1.0
    assert float(rows[-1][4]) == 0.0
    assert float(rows[-1][5]) == pytest.approx(0.0202, abs=1e-4)


def test_profile_constant_values_exact(tmp_path):
    prof = constant_wall(tmp_path, "+", 0.7)
    out = tmp_path / "out"
    assert run(["profile", prof, "--out", out]) == 0
    for r in read_rows(out / "functionals.csv")[1:]:
        b = float(r[0])
        assert float(r[1]) == b * math.cos(0.7)
        assert float(r[2]) == b * math.cos(0.7)
        assert r[3] == "sequence_exact"


def test_profile_rerun_byte_identical(tmp_path):
    prof = write_json(
        tmp_path / "seg.json",
        {
            "side": "-",
            "segments": [
                {"s_end": 0.125, "gamma": 2.2},
                {"s_end": 0.5, "gamma": 0.4},
                {"s_end": 1.0, "gamma": 1.1},
            ],
        },
    )
    outs = (tmp_path / "o1", tmp_path / "o2")
    for out in outs:
        assert run(["profile", prof, "--out", out, "--eps-floor", "1e-5"]) == 0
    for name in ("sweep.csv", "functionals.csv", "manifest.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_profile_error_exits(tmp_path):
    assert run(["profile", tmp_path / "absent.json", "--out", tmp_path]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(["profile", bad, "--out", tmp_path]) == 2
    good = constant_wall(tmp_path, "+", 1.0)
    assert run(["profile", good, "--out", tmp_path, "--eps-floor", "5.0"]) == 3
    assert run(["profile", good, "--out", tmp_path, "--eps-floor=-1e-3"]) == 3


@pytest.mark.parametrize("generator, key", [
    ({"type": "example1", "gamma1": 0.4, "gamma2": 2.2, "depht": 3}, "depht"),
    ({"type": "constant", "gamma": 1.0, "gamma1": 2.0}, "gamma1"),
])
def test_profile_with_a_key_the_schema_does_not_read_exits_2(tmp_path, capsys, generator, key):
    """Neither runs on defaults: the misspelt depth is not depth 8, and the
    constant angle given twice is not the second one."""
    wall = write_json(tmp_path / "wall.json", {"side": "+", "generator": generator})
    assert run(["profile", wall, "--out", tmp_path / "out"]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("eps_floor", ["0", "-1", "99"])
@pytest.mark.parametrize("command", ["bounds", "blowup"])
def test_eps_floor_outside_profile_range_exits_3(tmp_path, command, eps_floor):
    plus, minus = constant_wall(tmp_path, "+", 1.0), constant_wall(tmp_path, "-", 2.0)
    argv = {
        "bounds": ["bounds", "--plus", plus, "--minus", minus, "--case", "I"],
        "blowup": ["blowup", "--case", "I", "--beta", "0.1", "--profile", plus],
    }[command]
    assert run(argv + ["--eps-floor=" + eps_floor, "--out", tmp_path / "out"]) == 3


@pytest.mark.parametrize("eps_floor", ["1e-310", "5e-324"])
@pytest.mark.parametrize("command", ["profile", "verify-examples", "bounds", "blowup"])
def test_eps_floor_too_small_for_a_finite_sweep_exits_3(tmp_path, capsys, command, eps_floor):
    """s_max / floor overflows, so the sweep has no finite step count; bounds
    and blowup on sweep-route walls keep that rule of the wall's sweep.  Each
    call names the floor given, with no traceback."""
    plus, minus = (
        write_json(tmp_path / f"{name}.json", {"side": side, "segments": [
            {"s_end": 0.3, "gamma": g}, {"s_end": 0.65, "gamma": 2.0},
            {"s_end": 1.0, "gamma": 1.0}]})
        for name, side, g in (("plus", "+", 0.1), ("minus", "-", 0.5))
    )
    argv = {
        "profile": ["profile", plus],
        "verify-examples": ["verify-examples"],
        "bounds": ["bounds", "--plus", plus, "--minus", minus, "--case", "I"],
        "blowup": ["blowup", "--case", "I", "--beta", "1.2", "--profile", plus],
    }[command]
    assert run(argv + ["--eps-floor", eps_floor, "--out", tmp_path / "out"]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"wedgecap: range error: sweep floor {eps_floor} ")


@pytest.mark.parametrize("segments", [1, 3])
def test_profile_floor_above_a_wide_windows_sweep_names_that_window(tmp_path, capsys, segments):
    """profile's windows run up to b = s_max, and a window above 1 starts its
    sweep at s_max/b.  On a wall of s_max 2, the floor 1.5 lies on the wall
    but above the sweep of window 1.4 (which starts at 2/1.4): a wall that
    must be swept exits 3 naming that window, and a constant wall, whose
    values are closed forms, runs."""
    gammas = [0.4, 2.1, 1.0][:segments]
    wall = write_json(tmp_path / "wall.json", {"side": "+", "segments": [
        {"s_end": 2.0 * (k + 1) / segments, "gamma": g} for k, g in enumerate(gammas)]})
    code = run(["profile", wall, "--eps-floor", "1.5", "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    if segments == 1:
        assert (code, err) == (0, "")
    else:
        assert code == 3
        assert err == ("wedgecap: range error: sweep floor 1.5 leaves no sweep at window "
                       f"b = 1.4, which starts at s_max/b = {2.0 / 1.4!r}\n")


def test_verify_examples_floor_too_small_for_its_widest_sweep_exits_3(tmp_path, capsys):
    """verify's widest sweep, at window 0.25, starts at s_max / 0.25 = 4.0, so
    it has a finite step count only down to about 4.0 / 1.8e308 = 2.2e-308.
    1e-308 lies in (0, s_max) but below that edge (profile runs at it)."""
    assert run(["verify-examples", "--eps-floor", "1e-308", "--out", tmp_path / "out"]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("wedgecap: range error: sweep floor 1e-308 ")


# ---------------------------------------------------------------------------
# verify-examples command


def test_verify_examples_default_passes(tmp_path, capsys):
    out = tmp_path / "v"
    assert run(["verify-examples", "--out", out]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS ") for line in lines)
    assert (out / "verify.txt").read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("floor", ["1e-12", "1e-16", "1e-300"])
def test_verify_examples_passes_at_deep_floors(tmp_path, capsys, floor):
    """A deeper floor only sharpens the sweeps, so every line still passes.
    example2's wall must reach below the floor: at its default depth 24
    (innermost break 4^-24, about 3.6e-15) the sweep reads the constant
    tail under the pattern and its line fails from a floor of 1e-12 down."""
    assert run(["verify-examples", "--out", tmp_path, "--eps-floor", floor]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6 and all(line.startswith("PASS ") for line in lines)


def test_verify_examples_degraded_sweep_fails(tmp_path, capsys):
    # a shallow eps floor starves the dyadic sweep of the scales where the
    # averages swing, so that line must FAIL while exact identities PASS
    assert run(["verify-examples", "--out", tmp_path, "--eps-floor", "1e-2"]) == 5
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(line.startswith("FAIL example1 sweep") for line in lines)
    for line in lines[:4]:
        assert line.startswith("PASS ")


def test_verify_example1_sweep_error_scales_with_angle_contrast():
    """The example1 sweep's error is c(floor) times 5% of the swing
    b * |cos g1 - cos g2|, with c the same for every angle pair, and c halves
    with each deeper super-block the floor reaches.  The line measures the
    error against 5% of the swing, so it reads c(floor) whatever the angles
    (ROADMAP item 9)."""

    def sweep_line(g1, g2, floor):
        (line,) = [(achieved, allowed) for label, achieved, allowed
                   in _verify_lines(g1, g2, floor) if label.startswith("example1 sweep")]
        return line

    pairs = [(math.pi / 3, 2 * math.pi / 3), (0.3, 2.9), (2.9, 0.3), (0.7, 2.2),
             (1.0, 1.2), (0.1, 3.0)]
    for floor, want in ((1e-6, 1.212139), (1e-10, 0.615386), (1e-12, 0.310078)):
        ratios = [sweep_line(g1, g2, floor)[0] for g1, g2 in pairs]
        assert max(ratios) - min(ratios) <= 1e-13 * max(ratios)
        assert ratios[0] == pytest.approx(want, abs=1e-6)
    # the default floor passes every contrast, and equal angles; 1e-6 passes none
    for (g1, g2), floor, passes in (((0.3, 2.9), 1e-10, True), ((1.5, 1.5), 1e-10, True),
                                    ((1.0, 1.2), 1e-6, False)):
        achieved, allowed = sweep_line(g1, g2, floor)
        assert (achieved <= allowed) == passes


def test_verify_examples_angle_validation(tmp_path):
    assert run(["verify-examples", "--out", tmp_path, "--gamma1", "7.0"]) == 3
    assert run(["verify-examples", "--out", tmp_path, "--eps-floor", "2.0"]) == 3


def test_verify_examples_degrees_equivalent(tmp_path):
    deg_out, rad_out = tmp_path / "deg", tmp_path / "rad"
    assert run(
        ["verify-examples", "--out", deg_out, "--degrees",
         "--gamma1", "70", "--gamma2", "130"]
    ) == 0
    assert run(
        ["verify-examples", "--out", rad_out,
         "--gamma1", repr(math.radians(70.0)),
         "--gamma2", repr(math.radians(130.0))]
    ) == 0
    assert (deg_out / "verify.txt").read_bytes() == (rad_out / "verify.txt").read_bytes()


# ---------------------------------------------------------------------------
# bounds command


def test_bounds_rows_match_library(tmp_path):
    """Constant walls take Corollary 1: beta_min is arccos(m) or its
    supplement, checked at the worst lambda of the default grid."""
    plus = constant_wall(tmp_path, "+", math.pi / 2)
    minus = constant_wall(tmp_path, "-", math.pi / 2)
    out = tmp_path / "out"
    assert run(["bounds", "--plus", plus, "--minus", minus, "--case", "I",
                "--out", out]) == 0
    rows = read_rows(out / "bounds.csv")
    assert rows[0][:4] == ["side", "case", "beta_min", "method"]
    assert len(rows) == 3  # one row per (side, condition) of the case

    profiles = {"+": load_profile(plus), "-": load_profile(minus)}
    conditions = {"increasing": (condition_increasing, "a"),
                  "decreasing": (condition_decreasing, "c")}
    for row, (side, cond_kind) in zip(rows[1:], case_condition_map(FanCase.I)):
        kind = required_functional_kind(cond_kind)
        A = adhesion_from_profile(profiles[side], kind)
        condition, variant = conditions[cond_kind]
        beta = corollary1_bound(A(1.0), variant)
        ok, worst = holds_for_all_lambda(lambda lam: condition(A, beta, lam), beta)
        m, sigma = effective_angle(A)
        assert row[0] == side and row[1] == "I"
        assert float(row[2]) == beta and ok
        assert row[3] == "corollary1"
        assert float(row[4]) == worst
        assert row[5] == "True"
        assert float(row[6]) == m and float(row[7]) == sigma
        # neutral walls: the admissible fan opens to a right angle
        assert abs(beta - math.pi / 2) <= 1e-15


def piecewise_wall(tmp_path, side, gammas):
    """A wall of equal segments on (0, 1], so a sweep wall (no closed form)."""
    name = f"piecewise{side.replace('+', 'p').replace('-', 'm')}.json"
    return write_json(tmp_path / name, {"side": side, "segments": [
        {"s_end": (k + 1) / len(gammas), "gamma": g} for k, g in enumerate(gammas)]})


def test_bounds_all_scans_each_pair_once(tmp_path, monkeypatch):
    """ID and DI repeat the (side, condition) pairs of I and D: one scan call
    over the distinct pairs on sweep walls, 4 on two such walls, not 8.
    A pair on a constant wall takes Corollary 1 and is never scanned, so two
    constant walls run no scan."""
    import wedgecap.bounds

    scans = []

    def counted(requests, *args, **kwargs):
        scans.append([(A(1.0), kind) for A, kind in requests])
        return min_admissible_fan(requests, *args, **kwargs)

    monkeypatch.setattr(wedgecap.bounds, "min_admissible_fan", counted)
    walls = {
        "sweep": {"+": piecewise_wall(tmp_path, "+", [0.1, 2.0, 1.0]),
                  "-": piecewise_wall(tmp_path, "-", [2.5, 0.6, 1.4])},
        "constant": {"+": constant_wall(tmp_path, "+", 1.0),
                     "-": constant_wall(tmp_path, "-", 2.0)},
    }
    pairs = case_condition_map(FanCase.I) + case_condition_map(FanCase.D)
    for plus, minus in (("sweep", "sweep"), ("sweep", "constant"), ("constant", "constant")):
        scans.clear()
        paths = {"+": walls[plus]["+"], "-": walls[minus]["-"]}
        out = tmp_path / f"out-{plus}-{minus}"
        assert run(["bounds", "--plus", paths["+"], "--minus", paths["-"], "--case", "all",
                    "--out", out]) == 0
        swept = {"+": plus == "sweep", "-": minus == "sweep"}
        want = [
            (adhesion_from_profile(load_profile(paths[side]), required_functional_kind(kind))(1.0),
             kind)
            for side, kind in pairs if swept[side]
        ]
        assert scans == ([want] if want else [])
        rows = {(r[0], r[1]): r[2:] for r in read_rows(out / "bounds.csv")[1:]}
        assert len(rows) == 8
        for (side, _), row in rows.items():
            assert row[1] == ("theorem2_scan" if swept[side] else "corollary1")
        for mixed in (FanCase.ID, FanCase.DI):
            for pair in case_condition_map(mixed):
                pure = next(c for c in (FanCase.I, FanCase.D) if pair in case_condition_map(c))
                assert rows[pair[0], mixed.value] == rows[pair[0], pure.value]


def fan_scan_walls(seed):
    """The irregular and example2 wall pairs that the benchmark's fan-scan
    workload (perfbench/workloads.py) writes for ``seed``."""
    rng = random.Random(f"fan-scan/{seed}")
    irregular = {}
    for side in "+-":
        breaks = sorted({round(10.0 ** rng.uniform(-9.0, 0.0), 15) for _ in range(239)} - {1.0})
        segments = [{"s_end": b, "gamma": round(rng.uniform(0.35, 2.8), 6)}
                    for b in breaks + [1.0]]
        irregular[side] = {"side": side, "segments": segments}
    example2 = {
        side: {"side": side, "generator": {"type": "example2",
                                           "gamma1": round(rng.uniform(0.5, 1.1), 6),
                                           "gamma2": round(rng.uniform(1.8, 2.5), 6)}}
        for side in "+-"
    }
    return {"irregular": irregular, "example2": example2}


@pytest.mark.parametrize("family", ["irregular", "example2"])
def test_bounds_agree_with_the_blowup_witness(tmp_path, family):
    """The scan and the witness build their lambda grids with different
    arithmetic, yet agree: no witness at beta_min, and, when feasibility is
    monotone, one a step below it."""
    walls = fan_scan_walls(1)[family]
    paths = {side: write_json(tmp_path / f"wall{i}.json", walls[side])
             for i, side in enumerate("+-")}
    out = tmp_path / "out"
    assert run(["bounds", "--plus", paths["+"], "--minus", paths["-"], "--case", "all",
                "--out", out]) == 0
    rows = read_rows(out / "bounds.csv")[1:]
    assert len(rows) == 8
    for side, case, beta_min, _, _, monotone, _, _ in rows:
        case, beta_min = FanCase(case), float(beta_min)
        kind = required_functional_kind(dict(case_condition_map(case))[side])
        A = adhesion_from_profile(load_profile(paths[side]), kind)
        assert contradiction_witness(A, case, side, beta_min) is None
        if monotone == "True" and beta_min > 0.0:
            assert contradiction_witness(A, case, side, beta_min - 1e-3) is not None


def test_bounds_infeasible_exit_4(tmp_path, capsys):
    plus = constant_wall(tmp_path, "+", math.pi)
    minus = constant_wall(tmp_path, "-", math.pi)
    code = run(["bounds", "--plus", plus, "--minus", minus, "--case", "I",
                "--out", tmp_path / "out"])
    assert code == 4
    assert "no admissible fan" in capsys.readouterr().err


def test_bounds_never_passes_a_width_below_corollary1(tmp_path):
    """At arccos(0.9) the scan's lambda grid, which stops LAMBDA_MARGIN short
    of beta, let a width just below the bound pass (0.451 < 0.4510268)."""
    plus = constant_wall(tmp_path, "+", math.acos(0.9))
    minus = constant_wall(tmp_path, "-", 2.0)
    out = tmp_path / "out"
    assert run(["bounds", "--plus", plus, "--minus", minus, "--case", "I",
                "--out", out]) == 0
    row = read_rows(out / "bounds.csv")[1]
    assert row[:2] == ["+", "I"]
    assert float(row[2]) >= corollary1_bound(0.9, "a")


def test_bounds_near_pi_takes_the_closed_form(tmp_path):
    """A + wall at pi - 5e-4: its bound lies above the scan's last row, which
    exited 4, but below pi, so the closed form reports it."""
    gamma = math.pi - 5e-4
    plus = constant_wall(tmp_path, "+", gamma)
    minus = constant_wall(tmp_path, "-", 2.0)
    out = tmp_path / "out"
    assert run(["bounds", "--plus", plus, "--minus", minus, "--case", "I",
                "--out", out]) == 0
    row = read_rows(out / "bounds.csv")[1]
    assert row[:2] == ["+", "I"] and row[3] == "corollary1"
    assert float(row[2]) == corollary1_bound(math.cos(gamma), "a")


@pytest.mark.parametrize("step", ["0", "0.5"])
@pytest.mark.parametrize("walls", ["constant", "sweep"])
def test_bounds_refuses_a_beta_step_outside_its_range_on_any_wall(tmp_path, capsys, walls, step):
    """Only sweep walls are scanned, but --beta-step is checked on every wall."""
    if walls == "constant":
        plus, minus = constant_wall(tmp_path, "+", 1.0), constant_wall(tmp_path, "-", 2.0)
    else:
        plus = piecewise_wall(tmp_path, "+", [0.1, 2.0, 1.0])
        minus = piecewise_wall(tmp_path, "-", [2.5, 0.6, 1.4])
    assert run(["bounds", "--plus", plus, "--minus", minus, "--beta-step", step,
                "--out", tmp_path / "out"]) == 3
    assert "beta_step must lie in (0, 0.001]" in capsys.readouterr().err


def test_bounds_missing_profile_exit_2(tmp_path):
    plus = constant_wall(tmp_path, "+", 1.0)
    assert run(["bounds", "--plus", plus, "--minus", tmp_path / "none.json",
                "--out", tmp_path]) == 2


# ---------------------------------------------------------------------------
# solve command


def solve_config(tmp_path, **overrides):
    data = {
        "alpha": 1.0,
        "kappa": 1.0,
        "lambda": 2.0,
        "m": 24,
        "n_theta": 24,
        "plus": {"side": "+", "generator": {"type": "constant", "gamma": math.pi / 2}},
        "minus": {"side": "-", "generator": {"type": "constant", "gamma": math.pi / 2}},
    }
    data.update(overrides)
    return write_json(tmp_path / "config.json", data)


@pytest.mark.parametrize("overrides, message", [
    ({"r_min": 1e-300, "m": 16, "n_theta": 16}, "too close for finite derivative weights"),
    ({"initial": 1e308, "m": 16, "n_theta": 16}, "residual at the start"),
])
def test_solve_that_cannot_be_evaluated_exits_3(tmp_path, capsys, overrides, message):
    """Not a non-convergence (exit 6): the mesh or the start is out of range,
    and stderr holds only the one range-error line."""
    cfg = solve_config(tmp_path, **overrides)
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("wedgecap: range error:") and message in line
    assert not (tmp_path / "out").exists()


def test_solve_neutral_walls(tmp_path, capsys):
    cfg = solve_config(tmp_path)
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3

    # the flat equilibrium is exact: every extrapolated corner limit is -2
    rows = read_rows(out / "trace.csv")
    assert rows[0] == ["theta", "Rf", "residual"]
    assert {r[1] for r in rows[1:]} == {"-2.0"}

    manifest = (out / "manifest.txt").read_text()
    assert "command: solve" in manifest
    assert "converged: True" in manifest and "  stop: converged\n" in manifest
    assert "case: constant" in manifest
    assert "applicable: True" in manifest
    assert "verdict: PASS" in manifest


def test_solve_rerun_byte_identical(tmp_path):
    cfg = solve_config(tmp_path, m=16, n_theta=16)
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        assert run(["solve", "--config", cfg, "--out", out]) == 0
    for name in ("solution.csv", "trace.csv", "manifest.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_solve_profiles_by_relative_path(tmp_path):
    constant_wall(tmp_path, "+", 1.2, name="wp.json")
    constant_wall(tmp_path, "-", 1.2, name="wm.json")
    cfg = solve_config(tmp_path, plus="wp.json", minus="wm.json", m=12, n_theta=12)
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "s_max: 1.0" in manifest and "verdict: PASS" in manifest


def test_solve_pmc_variant(tmp_path):
    cfg = solve_config(tmp_path, pmc="zero", m=12, n_theta=12)
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "pmc: zero" in manifest
    rows = read_rows(out / "solution.csv")
    assert {r[2] for r in rows[1:]} == {"0.0"}  # mean-pinned flat solution

    # the tanh curvature 0.5 (kappa tanh(f) + lambda) grows with the height,
    # so this problem is not pinned
    cfg = solve_config(tmp_path, pmc="tanh", kappa=1.0, m=16, n_theta=16,
                       plus={"side": "+", "generator": {"type": "constant", "gamma": 1.0}},
                       **{"lambda": 0.0})
    out = tmp_path / "tanh"
    assert run(["solve", "--config", cfg, "--out", out]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "pmc: tanh" in manifest
    assert "converged: True" in manifest and "monotone_ok: True" in manifest


def test_solve_pmc_far_start_is_not_pinned(tmp_path, capsys):
    """tanh looks flat at a start of 20, yet the problem is not pure Neumann,
    so it does not stop at the flux-balance check (a range error, exit 3).
    Newton stalls from that start, so the run exits 6 with its artifacts."""
    wall = {"generator": {"type": "constant", "gamma": 1.2}}
    cfg = solve_config(tmp_path, pmc="tanh", kappa=1.0, m=16, n_theta=16, initial=20,
                       plus={"side": "+", **wall}, minus={"side": "-", **wall},
                       **{"lambda": 0.0})
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 6
    assert "balance" not in capsys.readouterr().err
    manifest = (out / "manifest.txt").read_text()
    assert "pmc: tanh" in manifest and "nullspace" not in manifest


def test_solve_config_validation(tmp_path, capsys):
    missing = solve_config(tmp_path)
    data = json.loads(missing.read_text())
    del data["kappa"]
    write_json(missing, data)
    assert run(["solve", "--config", missing]) == 2  # needs kappa and lambda

    sideflip = solve_config(
        tmp_path,
        plus={"side": "-", "generator": {"type": "constant", "gamma": 1.0}},
    )
    assert run(["solve", "--config", sideflip]) == 2
    constant_wall(tmp_path, "-", 1.0, name="wm.json")
    sideflip_path = solve_config(tmp_path, plus="wm.json")
    assert run(["solve", "--config", sideflip_path]) == 2

    tiny = solve_config(tmp_path, m=1)  # its default n_radii is min(8, m) = 1
    capsys.readouterr()
    assert run(["solve", "--config", tiny]) == 3  # mesh too coarse
    assert capsys.readouterr().err == "wedgecap: range error: need m, n_theta >= 2, got (1, 24)\n"
    narrow = solve_config(tmp_path, n_theta=1)
    assert run(["solve", "--config", narrow]) == 3
    assert capsys.readouterr().err == "wedgecap: range error: need m, n_theta >= 2, got (24, 1)\n"

    badk = solve_config(tmp_path, pmc="nope")
    assert run(["solve", "--config", badk]) == 3
    negk = solve_config(tmp_path, pmc="tanh", kappa=-1)
    assert run(["solve", "--config", negk]) == 3

    # a tolerance every residual meets would report convergence after 0 steps
    finite = solve_config(tmp_path, m=8, n_theta=8)
    for tol in ("inf", "nan", "0"):
        assert run(["solve", "--config", finite, "--tol", tol]) == 3


@pytest.mark.parametrize("key", ["plus", "minus"])
def test_solve_null_wall_is_a_profile_error(tmp_path, capsys, key):
    cfg = solve_config(tmp_path, m=8, n_theta=8, **{key: None})
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "profile error" in err and repr(key) in err


@pytest.mark.parametrize(
    "key, value",
    [("alpha", None), ("m", [1]), ("kappa", "x"), ("lambda", "2"),
     ("alpha", True), ("m", 24.7), ("n_radii", 3.9),
     ("pmc", ["tanh"]), ("pmc", 1), ("n_thetas", 99), ("initial", None), ("pmc", None)],
)
def test_solve_malformed_number_is_a_config_error(tmp_path, capsys, key, value):
    cfg = solve_config(tmp_path, **{"m": 8, "n_theta": 8, key: value})
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "profile error" in err and repr(key) in err


@pytest.mark.parametrize("call", ["profile", "bounds", "blowup"])
def test_profile_file_that_is_not_utf8_exits_2(tmp_path, capsys, call):
    wall = tmp_path / "wall.json"
    text = '{"side": "+", "generator": {"type": "constant", "gamma": 1.0}, "note": "\u00e9"}'
    wall.write_bytes(text.encode("latin-1"))
    argv = {
        "profile": ["profile", wall],
        "bounds": ["bounds", "--plus", wall, "--minus", constant_wall(tmp_path, "-", 2.0)],
        "blowup": ["blowup", "--case", "I", "--beta", "0.5", "--profile", wall],
    }[call]
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("call", ["profile", "solve"])
def test_json_nested_too_deeply_exits_2(tmp_path, capsys, call):
    """Python's JSON parser gives up on deep nesting with a RecursionError; the
    file is malformed input all the same."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    argv = ["profile", deep] if call == "profile" else ["solve", "--config", deep]
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert "profile error" in err and "nested too deeply" in err
    assert not out.exists()


@pytest.mark.parametrize("call", ["profile", "blowup", "bounds", "s_max", "tol", "kappa"])
def test_non_finite_json_number_exits_2(tmp_path, capsys, call):
    """JSON's NaN and Infinity are malformed numbers, whichever file holds them."""
    nan_wall = {"side": "+", "segments": [{"s_end": 1.0, "gamma": math.nan}]}
    inf_wall = {"side": "+", "generator": {"type": "constant", "gamma": 1.0}, "s_max": math.inf}
    wall = write_json(tmp_path / "wall.json", inf_wall if call == "s_max" else nan_wall)
    argv = {
        "profile": lambda: ["profile", wall],
        "blowup": lambda: ["blowup", "--case", "I", "--beta", "0.5", "--profile", wall],
        "bounds": lambda: ["bounds", "--plus", wall, "--minus", constant_wall(tmp_path, "-", 2.0)],
        "s_max": lambda: ["profile", wall],
        "tol": lambda: ["solve", "--config", solve_config(tmp_path, m=8, tol=math.inf)],
        "kappa": lambda: ["solve", "--config", solve_config(tmp_path, m=8, kappa=math.nan)],
    }[call]()
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 2
    assert "must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_solve_malformed_key_is_found_before_a_range_check(tmp_path, capsys):
    """Every key's JSON type is checked before any value's range: alpha = 5
    is out of range (exit 3 alone), but a malformed m after it exits 2."""
    cfg = solve_config(tmp_path, alpha=5, m="x")
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == (
        "wedgecap: profile error: solve config key 'm' must be an int, got 'x'\n")
    assert not (tmp_path / "out").exists()


def test_solve_n_radii_checked_before_the_solve(tmp_path, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran before n_radii was checked")

    monkeypatch.setattr("wedgecap.solver.solve_capillary", no_solve)
    for n_radii in (1, 9):
        cfg = solve_config(tmp_path, m=8, n_theta=8, n_radii=n_radii)
        assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 3


@pytest.mark.parametrize("says", ["", "Unable to allocate 74.5 GiB"], ids=["bare", "numpy"])
def test_solve_out_of_memory_is_a_range_error(tmp_path, monkeypatch, capsys, says):
    """A problem too large for memory exits 3 with one line, numpy's message
    when it gives one."""
    def no_memory(*args, **kwargs):
        raise MemoryError(says)

    monkeypatch.setattr("wedgecap.solver.solve_capillary", no_memory)
    cfg = solve_config(tmp_path, m=8, n_theta=8)
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 3
    assert capsys.readouterr().err == f"wedgecap: range error: {says or 'out of memory'}\n"
    assert not (tmp_path / "out").exists()


def test_solve_nonconvergence_exit_6(tmp_path, capsys):
    cfg = solve_config(
        tmp_path,
        m=16,
        n_theta=16,
        max_iter=1,
        initial=5.0,
        plus={"side": "+", "generator": {"type": "constant", "gamma": 0.7}},
        minus={"side": "-", "generator": {"type": "constant", "gamma": 0.7}},
    )
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 6
    err = capsys.readouterr().err
    assert "did not converge" in err and "(stop: max_iter," in err
    # artifacts are still written for post-mortems
    for name in ("solution.csv", "trace.csv", "manifest.txt"):
        assert (out / name).exists()
    manifest = (out / "manifest.txt").read_text()
    assert "converged: False" in manifest and "  stop: max_iter\n" in manifest


def test_solve_with_a_singular_newton_matrix_exits_6(tmp_path, monkeypatch, capsys):
    """A Newton matrix of zeros makes every front singular: the elimination
    returns NaN, the Newton loop stops before its first step, and the run
    still writes its artifacts."""
    from wedgecap import elimination

    solve = elimination.Elimination.solve
    monkeypatch.setattr(elimination.Elimination, "solve",
                        lambda plan, data, rhs: solve(plan, np.zeros_like(data), rhs))
    cfg = solve_config(tmp_path, m=8, n_theta=8, initial=5.0)
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 6
    err = capsys.readouterr().err
    assert "stopped after 0 of at most 200 iterations (stop: non_finite," in err
    for name in ("solution.csv", "trace.csv", "manifest.txt"):
        assert (out / name).exists()
    manifest = (out / "manifest.txt").read_text()
    assert "converged: False" in manifest and "  stop: non_finite\n" in manifest


def test_solve_nonconvergence_reports_the_iterations_run(tmp_path, capsys):
    """At contact angles 0.1 and 3.0 down to r_min = 5e-4 the residual
    stalls near 6e-4, and Newton stops long before the iteration cap; the
    manifest and the message say when and why."""
    cfg = solve_config(
        tmp_path,
        r_min=5e-4,
        m=79,
        n_theta=48,
        plus={"side": "+", "generator": {"type": "constant", "gamma": 0.1}},
        minus={"side": "-", "generator": {"type": "constant", "gamma": 3.0}},
    )
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 6
    manifest = (out / "manifest.txt").read_text()
    iterations = int(manifest.split("iterations: ")[1].split()[0])
    assert iterations < 200 and "  stop: stalled\n" in manifest
    assert (f"after {iterations} of at most 200 iterations (stop: stalled,"
            in capsys.readouterr().err)


def test_solve_mms_study(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["solve", "--mms", "--mms-sizes", "8,16", "--out", out]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].startswith("finest observed order:")
    rows = read_rows(out / "mms.csv")
    assert rows[0] == ["m", "max_error", "rate"]
    assert rows[1][0] == "8" and rows[1][2] == "nan"
    assert rows[2][0] == "16" and float(rows[2][2]) > 1.0

    assert run(["solve", "--mms", "--mms-sizes", "16"]) == 3
    assert run(["solve", "--mms", "--mms-sizes", "16,2"]) == 3
    assert run(["solve", "--mms", "--mms-sizes", "a,b"]) == 3
    # each size must refine the one before: no log(16/16) rate, no coarsening
    assert run(["solve", "--mms", "--mms-sizes", "16,16"]) == 3
    assert run(["solve", "--mms", "--mms-sizes", "32,16"]) == 3


@pytest.mark.parametrize("sizes", ["", "16,,32"])
def test_solve_mms_empty_sizes_are_a_range_error(tmp_path, capsys, sizes):
    out = tmp_path / "out"
    assert main(["solve", "--mms", "--mms-sizes", sizes, "--out", str(out)]) == 3
    assert "--mms-sizes" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# blowup command


def test_blowup_consistent(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["blowup", "--case", "I", "--side", "+", "--beta", "0",
                "--gamma0", "0", "--out", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.strip().splitlines()[-1] == "verdict: consistent"
    rows = read_rows(out / "limit_sweep.csv")
    assert rows[0] == ["lambda", "limit_difference"]
    assert len(rows) == 513  # default 512 grid points
    assert "verdict: consistent" in (out / "manifest.txt").read_text()


def test_blowup_contradiction(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["blowup", "--case", "I", "--beta", repr(math.pi / 4),
                "--gamma0", repr(math.pi / 2), "--out", out])
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("verdict: contradiction at lambda=")
    gain = float(last.rsplit("gain=", 1)[1])
    # neutral wall, quarter fan: the worst ray loses 1 - sin(pi/4)
    assert gain == pytest.approx(1.0 - math.sin(math.pi / 4), abs=1e-6)
    manifest = (out / "manifest.txt").read_text()
    assert "verdict: contradiction" in manifest and "gain:" in manifest


def test_blowup_degrees_bitwise_equivalent(tmp_path):
    out_deg, out_rad = tmp_path / "deg", tmp_path / "rad"
    assert run(["blowup", "--case", "D", "--side", "-", "--beta", "45",
                "--gamma0", "90", "--degrees", "--out", out_deg]) == 0
    assert run(["blowup", "--case", "D", "--side", "-",
                "--beta", repr(math.radians(45.0)),
                "--gamma0", repr(math.radians(90.0)), "--out", out_rad]) == 0
    for name in ("limit_sweep.csv", "manifest.txt"):
        assert (out_deg / name).read_bytes() == (out_rad / name).read_bytes()


def test_blowup_profile_source(tmp_path):
    prof = write_json(
        tmp_path / "p.json",
        {"side": "-",
         "generator": {"type": "example1", "gamma1": 0.4, "gamma2": 2.2}},
    )
    out = tmp_path / "out"
    assert run(["blowup", "--case", "D", "--side", "-", "--beta", "0.3",
                "--profile", prof, "--out", out]) == 0
    assert "generator: example1" in (out / "manifest.txt").read_text()


def test_blowup_range_validation(tmp_path):
    base = ["blowup", "--case", "I", "--gamma0", "0.5", "--out", tmp_path]
    assert run(base + ["--beta", "3.2"]) == 3  # beta >= pi
    assert run(base + ["--beta", "-0.1"]) == 3
    assert run(base + ["--beta", "0.1", "--points", "4"]) == 3


# ---------------------------------------------------------------------------
# import floor: wedgecap runs on numpy, without SciPy, and a call loads only
# the wedgecap modules it runs


@pytest.mark.parametrize("module", ["wedgecap", "wedgecap.cli"])
def test_import_loads_no_scipy(module):
    src = Path(wedgecap.__file__).parents[1]
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def run_in_child(argv, report):
    """Run ``main(argv)`` in a fresh interpreter and return the line "<exit
    code> <report>", ``report`` being an expression evaluated there after."""
    argv = [str(a) for a in argv]
    src = Path(wedgecap.__file__).parents[1]
    code = ("import sys; from wedgecap.cli import main; "
            f"code = main({argv!r}); print(code, {report})")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def small_solve_argv(tmp_path):
    cfg = solve_config(
        tmp_path,
        m=8,
        n_theta=8,
        plus={"side": "+", "generator": {"type": "constant", "gamma": 1.0}},
        minus={"side": "-", "generator": {"type": "constant", "gamma": 2.0}},
    )
    return ["solve", "--config", cfg, "--out", tmp_path / "out"]


def test_solve_loads_no_scipy(tmp_path):
    report = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    assert run_in_child(small_solve_argv(tmp_path), report) == "0 []"


def test_solve_loads_no_numpy_ma(tmp_path):
    """The fan tolerance's median must not import numpy.ma (np.median does)."""
    assert run_in_child(small_solve_argv(tmp_path), "'numpy.ma' in sys.modules") == "0 False"


@pytest.mark.parametrize("command", ["bounds", "blowup"])
def test_multi_segment_walls_load_no_numpy_ma(tmp_path, command):
    """Self-similarity checks on multi-segment walls must not import numpy.ma
    (np.unique does on its first call in a process)."""
    if command == "bounds":
        walls = [
            write_json(tmp_path / f"w{i}.json", {"side": side, "generator": {
                "type": "example2", "gamma1": 0.4, "gamma2": 2.2}})
            for i, side in enumerate("+-")
        ]
        argv = ["bounds", "--plus", walls[0], "--minus", walls[1], "--case", "all"]
    else:
        s_ends = [1e-6, 3e-5, 2e-4, 0.01, 0.3, 1.0]
        wall = write_json(tmp_path / "w.json", {"side": "+", "segments": [
            {"s_end": s, "gamma": g} for s, g in zip(s_ends, [0.4, 2.1, 1.0, 2.6, 0.7, 1.5])]})
        argv = ["blowup", "--case", "I", "--side", "+", "--beta", "0.5", "--profile", wall]
    argv += ["--out", tmp_path / "out"]
    assert run_in_child(argv, "'numpy.ma' in sys.modules") == "0 False"


#: the wedgecap modules a child has loaded, without "wedgecap.", and "numpy"
#: if it loaded numpy, sorted and comma-separated
LOADED = ("','.join(sorted([m[9:] for m in sys.modules if m.startswith('wedgecap.')]"
          " + ['numpy'] * ('numpy' in sys.modules)))")

#: the wedgecap modules, and numpy, a call may load beyond base and cli, and
#: its exit code
IMPORT_BUDGET = {
    "verify-examples": (("functionals", "profiles"), 0),
    "solve without --config": ((), 1),
    "profile": (("io", "functionals", "profiles", "numpy"), 0),
    "bad profile": (("io",), 2),
    "bounds": (("io", "functionals", "profiles", "bounds"), 0),
    "blowup --gamma0": (("io", "bounds", "blowup"), 0),
    "blowup --profile": (("io", "functionals", "profiles", "bounds", "blowup"), 0),
    "blowup --profile, three segments":
        (("io", "functionals", "profiles", "bounds", "blowup"), 0),
    "refused floor": (("io", "functionals", "profiles"), 3),
    "solve --config": (("io", "profiles", "solver", "elimination", "numpy"), 0),
}


@pytest.mark.parametrize("call", IMPORT_BUDGET)
def test_each_call_loads_only_the_layers_it_runs(tmp_path, call):
    plus, minus = constant_wall(tmp_path, "+", 1.0), constant_wall(tmp_path, "-", 2.0)
    segments = write_json(tmp_path / "segments.json", {"side": "+", "segments": [
        {"s_end": s, "gamma": g} for s, g in ((0.3, 0.1), (0.65, 2.0), (1.0, 1.0))]})
    out = ["--out", tmp_path / "out"]
    argv = {
        "verify-examples": lambda: ["verify-examples", *out],
        "solve without --config": lambda: ["solve", *out],
        "profile": lambda: ["profile", plus, *out],
        "bad profile": lambda: ["profile", write_json(tmp_path / "bad.json", {"side": "x"}), *out],
        "bounds": lambda: ["bounds", "--plus", plus, "--minus", minus, "--case", "I", *out],
        "blowup --gamma0": lambda: ["blowup", "--case", "I", "--beta", "0.5", "--gamma0", "1.0", *out],
        "blowup --profile": lambda: ["blowup", "--case", "I", "--beta", "0.5", "--profile", plus, *out],
        "blowup --profile, three segments": lambda: ["blowup", "--case", "I", "--beta", "0.5",
                                                     "--profile", segments, *out],
        "refused floor": lambda: ["profile", plus, "--eps-floor", "5.0", *out],
        "solve --config": lambda: small_solve_argv(tmp_path),
    }[call]()
    allowed, code = IMPORT_BUDGET[call]
    loaded = ",".join(sorted({"base", "cli", *allowed}))
    assert run_in_child(argv, LOADED) == f"{code} {loaded}"


@pytest.mark.parametrize("case", ["I", "D", "ID", "DI"])
@pytest.mark.parametrize("side, beta", [("+", 0.5), ("-", 2.5)])
def test_blowup_gamma0_loads_no_numpy(tmp_path, case, side, beta):
    """The constant-angle blow-up runs on Python floats: every case and side
    exits 0, with a witness or without one, and numpy is never imported."""
    argv = ["blowup", "--case", case, "--side", side, "--beta", beta, "--gamma0", 1.0,
            "--out", tmp_path / "out"]
    assert stderr_and_numpy_in_child(argv) == (0, "", False)
    assert (tmp_path / "out" / "limit_sweep.csv").is_file()


#: a wall pair of each family whose adhesion has a closed form; the generators
#: make + walls, so their - walls are built and then given the - side
CLOSED_FORM_WALLS = {
    "constant": {"type": "constant", "gamma": 1.0},
    "example1": {"type": "example1", "gamma1": 0.7, "gamma2": 2.2},
    "example2": {"type": "example2", "gamma1": 0.8, "gamma2": 2.0},
}


@pytest.mark.parametrize("family", CLOSED_FORM_WALLS)
def test_closed_form_walls_load_no_numpy(tmp_path, family):
    """On walls with a closed form, bounds (Corollary 1 on every pair) and the
    blow-up of either wall run on Python floats: numpy is never imported."""
    walls = {side: write_json(tmp_path / f"wall{i}.json",
                              {"side": side, "generator": CLOSED_FORM_WALLS[family]})
             for i, side in enumerate("+-")}
    argv = ["bounds", "--plus", walls["+"], "--minus", walls["-"], "--case", "all",
            "--out", tmp_path / "bounds"]
    assert stderr_and_numpy_in_child(argv) == (0, "", False)
    assert {row[3] for row in read_rows(tmp_path / "bounds" / "bounds.csv")[1:]} == {"corollary1"}
    for side, wall in walls.items():
        argv = ["blowup", "--case", "I", "--side", side, "--beta", "0.5", "--profile", wall,
                "--out", tmp_path / f"blowup{side}"]
        assert stderr_and_numpy_in_child(argv) == (0, "", False)


def test_bounds_on_sweep_walls_loads_numpy(tmp_path):
    """The control: a multi-segment wall with no closed form takes the fan
    scan, which runs on numpy."""
    walls = [write_json(tmp_path / f"w{i}.json", {"side": side, "segments": [
        {"s_end": s, "gamma": g} for s, g in zip([1e-6, 3e-5, 0.01, 1.0], [0.4, 2.1, 1.0, 2.6])]})
        for i, side in enumerate("+-")]
    argv = ["bounds", "--plus", walls[0], "--minus", walls[1], "--case", "I",
            "--out", tmp_path / "out"]
    assert stderr_and_numpy_in_child(argv) == (0, "", True)


@pytest.mark.parametrize("floor", ["5.0", "0", "nan"])
def test_a_refused_floor_loads_no_numpy(tmp_path, floor):
    """The floor rule runs on Python floats: a floor off the wall exits 3
    before its sweep, and numpy is never imported."""
    argv = ["profile", constant_wall(tmp_path, "+", 1.0), "--eps-floor", floor,
            "--out", tmp_path / "out"]
    says = f"wedgecap: range error: sweep floor {float(floor)!r} must lie in (0, 1.0)"
    assert stderr_and_numpy_in_child(argv) == (3, says, False)


@pytest.mark.parametrize("module, loaded", [
    ("wedgecap", ""),
    ("wedgecap.cli", "base,cli"),
])
def test_import_loads_only_what_it_names(module, loaded):
    src = Path(wedgecap.__file__).parents[1]
    code = f"import sys, {module}; print({LOADED})"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == loaded


def stderr_and_numpy_in_child(argv):
    """Run ``main(argv)`` in a fresh interpreter, argparse's exits included,
    and return (exit code, last stderr line, whether numpy was loaded)."""
    argv = [str(a) for a in argv]
    code = ("import sys; from wedgecap.cli import main\n"
            f"try: code = main({argv!r})\n"
            "except SystemExit as exc: code = exc.code\n"
            "print(code, 'numpy' in sys.modules)")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(wedgecap.__file__).parents[1])},
    )
    assert result.returncode == 0, result.stderr
    exit_code, numpy_loaded = result.stdout.splitlines()[-1].split()
    err = result.stderr.splitlines()
    return int(exit_code), err[-1] if err else "", numpy_loaded == "True"


@pytest.mark.parametrize("call, code, says", [
    ("--help", 0, ""),
    ("solve without --config", 1, "wedgecap: error: solve requires --config FILE (or --mms)"),
    ("unknown flag", 1, "wedgecap: error: unrecognized arguments: --bogus"),
    ("--out a file", 1, "wedgecap: error: --out {taken} exists and is not a directory"),
    ("side x", 2, "wedgecap: profile error: side must be '+' or '-', got 'x'"),
    ("unknown profile key", 2, "wedgecap: profile error: profile spec has unknown key(s) 'colour'"),
    ("not JSON", 2, "wedgecap: profile error: profile file {path} is not valid JSON: "
                    "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("unknown config key", 2, "wedgecap: profile error: solve config has unknown key(s) 'mesh'"),
    ("config m x", 2, "wedgecap: profile error: solve config key 'm' must be an int, got 'x'"),
    ("config wall side x", 2, "wedgecap: profile error: side must be '+' or '-', got 'x'"),
    ("bounds minus side x", 2, "wedgecap: profile error: side must be '+' or '-', got 'x'"),
    ("bounds sides swapped", 2, "wedgecap: profile error: profile under --plus declares side '-'"),
    ("bounds minus side +", 2, "wedgecap: profile error: profile under --minus declares side '+'"),
    ("blowup side + wall -", 2, "wedgecap: profile error: profile under --profile declares side '-'"),
    ("blowup side - wall +", 2, "wedgecap: profile error: profile under --profile declares side '+'"),
    ("config plus side -", 2,
     "wedgecap: profile error: profile under solve config key 'plus' declares side '-'"),
    ("config plus file side -", 2,
     "wedgecap: profile error: profile under solve config key 'plus' declares side '-'"),
])
def test_a_call_that_stops_at_its_checks_loads_no_numpy(tmp_path, call, code, says):
    """Argument parsing, usage checks, --out and the JSON checks of an input
    file run on the standard library: a call they stop exits as it always
    did, and numpy is never imported."""
    wall = {"side": "+", "generator": {"type": "constant", "gamma": 1.0}}
    taken = write_json(tmp_path / "taken.json", wall)
    path = tmp_path / "input.json"
    argv = {
        "--help": lambda: ["--help"],
        "solve without --config": lambda: ["solve"],
        "unknown flag": lambda: ["profile", taken, "--bogus"],
        "--out a file": lambda: ["solve", "--config", solve_config(tmp_path), "--out", taken],
        "side x": lambda: ["profile", write_json(path, {**wall, "side": "x"})],
        "unknown profile key": lambda: ["profile", write_json(path, {**wall, "colour": 1})],
        "not JSON": lambda: (path.write_text("{oops"), ["profile", path])[1],
        "unknown config key": lambda: ["solve", "--config", solve_config(tmp_path, mesh=4)],
        "config m x": lambda: ["solve", "--config", solve_config(tmp_path, m="x")],
        "config wall side x": lambda: ["solve", "--config",
                                       solve_config(tmp_path, minus={**wall, "side": "x"})],
        "bounds minus side x": lambda: ["bounds", "--plus", taken,
                                        "--minus", write_json(path, {**wall, "side": "x"})],
        "bounds sides swapped": lambda: ["bounds", "--plus", write_json(path, {**wall, "side": "-"}),
                                         "--minus", taken],
        "bounds minus side +": lambda: ["bounds", "--plus", taken, "--minus", write_json(path, wall)],
        "blowup side + wall -": lambda: ["blowup", "--case", "I", "--side", "+", "--beta", "0.5",
                                         "--profile", write_json(path, {**wall, "side": "-"})],
        "blowup side - wall +": lambda: ["blowup", "--case", "D", "--side", "-", "--beta", "0.5",
                                         "--profile", taken],
        "config plus side -": lambda: ["solve", "--config",
                                       solve_config(tmp_path, plus={**wall, "side": "-"})],
        "config plus file side -": lambda: ["solve", "--config", solve_config(
            tmp_path, plus=write_json(path, {**wall, "side": "-"}).name)],
    }[call]()
    if "--out" not in argv:
        argv += ["--out", tmp_path / "out"]
    assert stderr_and_numpy_in_child(argv) == (
        code, says.format(taken=taken, path=path), False)
    assert not (tmp_path / "out").exists()


def test_solve_calls_spsolve_through_solver_spla(monkeypatch):
    """Tracing replaces ``solver.spla``; every linear solve must go through it."""
    calls = []

    class Counting:
        def __init__(self, module):
            self.module = module

        def __getattr__(self, attr):
            value = getattr(self.module, attr)

            def counted(*args, **kwargs):
                calls.append(attr)
                return value(*args, **kwargs)

            return counted

    monkeypatch.setattr(solver, "spla", Counting(solver.spla))
    r_min, r_max = 0.05, 1.0
    mesh = solver.build_sector_mesh(WedgeGeometry(1.0), r_min, r_max, 8, 8)
    walls = constant_profile("+", 1.1), constant_profile("-", 1.1)
    # kappa = 0 pins the mean; lambda balances the flux
    flux = sum(float(np.diff(p.integral_many([r_min, r_max]))[0]) for p in walls)
    for kappa, lam in [(1.0, 0.5), (0.0, flux / (r_max**2 - r_min**2))]:
        calls.clear()
        field = solver.solve_capillary(mesh, kappa, lam, *walls)
        assert field.converged and field.newton_iterations >= 1
        assert ("nullspace" in field.diagnostics) == (kappa == 0.0)
        assert calls == ["spsolve"] * field.newton_iterations


def test_every_name_the_benchmark_tracer_wraps_exists():
    """perfbench/tracing.py wraps these by name; a rename here would leave a
    layer untimed or stop the traced run, so each must resolve."""
    import importlib
    import importlib.util

    import wedgecap.io
    from wedgecap.bounds import AdhesionFunction
    from wedgecap.profiles import ContactProfile

    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.FUNCTIONS
    for module, name, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"wedgecap.{module}"), name)), name
    writers = [name for name in dir(wedgecap.io) if name.startswith("write_")]
    assert {"write_csv", "write_manifest", "write_solution_csv"} <= set(writers)
    assert all(callable(getattr(wedgecap.io, name)) for name in writers)
    assert callable(solver.spla.spsolve)
    assert callable(ContactProfile.integral_many) and callable(AdhesionFunction.__call__)


# ---------------------------------------------------------------------------
# package surface: each exported name is loaded from its home module on use

PACKAGE_EXPORTS = """
AdhesionEstimate AdhesionFunction ContactProfile FanBoundResult FanCase
FanMeasurement GammaBoundsHypothesis InfeasibleScanError ManufacturedCase
ProfileFormatError RadialTrace SectorMesh SolutionField SolverConfig
SweepConfig TriangleComparison WedgeGeometry adhesion_from_profile averaged_cos
averaged_cos_many bc_length best_estimates build_sector_mesh case_condition_map
condition_decreasing condition_increasing constant_profile contradiction_witness
corollary1_bound cos_integral default_lambda_grid effective_angle
estimate_AI estimate_AS exact_A_example1 exact_A_log_periodic example1_profile
example2_profile fans_from_trace holds_for_all_lambda hypothesis_from_profiles
limit_difference_table load_profile make_piecewise manufactured_case
manufactured_convergence manufactured_solve measure_fans min_admissible_fan
phi_difference phi_limit_difference profile_from_dict psi_difference
psi_limit_difference radial_trace required_functional_kind
sine_rule_bc solve_capillary solve_pmc sweep_table theorem1_applicability
torus_minor_radius triangle_omega verify_log_periodic
""".split()


def test_package_exports_are_their_home_modules_objects():
    assert len(PACKAGE_EXPORTS) == 64
    assert set(wedgecap.__all__) == set(PACKAGE_EXPORTS)
    for name in wedgecap.__all__:
        value = getattr(wedgecap, name)
        assert value is getattr(sys.modules[value.__module__], name)


def test_package_lists_and_star_imports_every_export():
    assert set(wedgecap.__all__) <= set(dir(wedgecap))
    namespace = {}
    exec("from wedgecap import *", namespace)
    assert set(wedgecap.__all__) <= set(namespace)


def test_package_refuses_an_unknown_name():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        wedgecap.no_such_name


# ---------------------------------------------------------------------------
# module entry point


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "wedgecap", "verify-examples",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.count("PASS") == 6
