#!/usr/bin/env python3
"""Run a fixed list of CLI calls and print one sha256 per artifact written.

The inputs (wall profiles and solve configs) are generated inline, so two
checkouts given the same script produce comparable listings: diff the output
of the parent commit against the change to prove a refactor left every
artifact byte-identical.  Each call's exit code is printed too, alone for
a call that writes no output directory.  A call writes under OUT_DIR/<label>
unless it names its own --out.

Usage:
    PYTHONPATH=src python3 scripts/golden_artifacts.py OUT_DIR > golden.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import sys
from pathlib import Path

from wedgecap.cli import main as wedgecap_main
from wedgecap.io import profile_from_dict


def constant(side, gamma):
    return {"side": side, "generator": {"type": "constant", "gamma": gamma}}


def two_angle(side, kind, g1, g2):
    return {"side": side, "generator": {"type": kind, "gamma1": g1, "gamma2": g2}}


def irregular(rng, side, n=120):
    """Piecewise-constant wall with random breaks over nine decades."""
    breaks = sorted({round(10.0 ** rng.uniform(-9.0, 0.0), 15) for _ in range(n - 1)} - {1.0})
    breaks.append(1.0)
    return {
        "side": side,
        "segments": [{"s_end": b, "gamma": round(rng.uniform(0.35, 2.8), 6)} for b in breaks],
    }


def deep(side, g1, g2):
    """Segments ending at 10^-k (1 + 0.3 (k mod 3)), k = 20..1, and at 1, with
    alternating angles: the innermost ends at 1.6e-20."""
    ends = [10.0**-k * (1.0 + 0.3 * (k % 3)) for k in range(20, 0, -1)] + [1.0]
    return {"side": side,
            "segments": [{"s_end": e, "gamma": (g1, g2)[i % 2]} for i, e in enumerate(ends)]}


def write_json(path, data):
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return str(path)


def calls(inputs):
    """(label, argv) for every call, inputs written on the way; only a call
    that names its own --out has one."""
    rng = random.Random("golden-artifacts")
    walls = {
        "constant": {"+": constant("+", 1.0), "-": constant("-", 2.0)},
        "example1": {s: two_angle(s, "example1", 0.7, 2.2) for s in "+-"},
        "example2": {s: two_angle(s, "example2", 0.8, 2.0) for s in "+-"},
        "irregular": {s: irregular(rng, s) for s in "+-"},
    }
    paths = {
        (family, s): write_json(inputs / f"{family}_{'plus' if s == '+' else 'minus'}.json", w)
        for family, pair in walls.items()
        for s, w in pair.items()
    }
    out = []
    for family in walls:
        out.append((f"profile-{family}", ["profile", paths[family, "+"]]))
        out.append((f"bounds-{family}", ["bounds", "--plus", paths[family, "+"],
                                         "--minus", paths[family, "-"], "--case", "all"]))
    # a subset of the pairs, scanned in a different order than --case all
    out.append(("bounds-D-example1", ["bounds", "--plus", paths["example1", "+"],
                                      "--minus", paths["example1", "-"], "--case", "D"]))
    # the closed-form fan bound at its two edges: arccos(0.9), which the scan's
    # lambda grid let a width just below pass, and pi - 5e-4, above the scan's
    # last row but below pi
    for label, gamma in (("bounds-acos-0.9", math.acos(0.9)), ("bounds-near-pi", math.pi - 5e-4)):
        plus = write_json(inputs / f"{label}_plus.json", constant("+", gamma))
        out.append((label, ["bounds", "--plus", plus, "--minus", paths["constant", "-"],
                            "--case", "I"]))
    out.append(("profile-irregular-dense", ["profile", paths["irregular", "+"],
                                            "--points-per-decade", "1024"]))
    out.append(("bounds-ID-step", ["bounds", "--plus", paths["irregular", "+"],
                                   "--minus", paths["irregular", "-"], "--case", "ID",
                                   "--beta-step", "0.05", "--degrees"]))
    # sweep envelopes at floors other than the default; at 1e-3 the lower end
    # b * eps_floor lands inside the walls' segments, not in the innermost one
    out.append(("bounds-irregular-floor", ["bounds", "--plus", paths["irregular", "+"],
                                           "--minus", paths["irregular", "-"], "--case", "all",
                                           "--eps-floor", "1e-8"]))
    out.append(("profile-irregular-floor-1e-3", ["profile", paths["irregular", "+"],
                                                 "--eps-floor", "1e-3"]))
    out.append(("bounds-irregular-floor-1e-3", ["bounds", "--plus", paths["irregular", "+"],
                                                "--minus", paths["irregular", "-"], "--case", "all",
                                                "--eps-floor", "1e-3"]))
    # below the default floor: the bounds and blowup windows near sin(1e-4)
    # reach the deep wall's innermost segment at 1e-16
    deep_paths = {s: write_json(inputs / f"deep_{'plus' if s == '+' else 'minus'}.json", w)
                  for s, w in (("+", deep("+", 2.5, 0.5)), ("-", deep("-", 0.9, 2.2)))}
    floor = ["--eps-floor", "1e-16"]
    out.append(("profile-deep-floor", ["profile", deep_paths["+"], *floor]))
    out.append(("bounds-deep-floor", ["bounds", "--plus", deep_paths["+"],
                                      "--minus", deep_paths["-"], "--case", "all", *floor]))
    out.append(("blowup-deep-floor", ["blowup", "--case", "I", "--beta", "1.2",
                                      "--profile", deep_paths["+"], *floor]))
    out.append(("verify-default", ["verify-examples"]))
    out.append(("verify-degrees", ["verify-examples", "--degrees",
                                   "--gamma1", "50", "--gamma2", "130"]))
    # high angle contrast: the example1 sweep line reads its error against the swing
    out.append(("verify-contrast", ["verify-examples", "--gamma1", "0.3", "--gamma2", "2.9"]))
    # floors below example2's default depth: its wall is built deep enough
    # that the sweep never reads the constant tail under the pattern
    for floor in ("1e-12", "1e-300"):
        out.append((f"verify-floor-{floor}", ["verify-examples", "--eps-floor", floor]))

    for case in ("I", "D", "ID", "DI"):
        for side in "+-":
            tag = "p" if side == "+" else "m"
            # small claims on the + wall and large ones on the - wall, so both
            # verdicts (contradiction and consistent) are covered
            small = side == "+"
            out.append((f"blowup-{case}{tag}-gamma0",
                        ["blowup", "--case", case, "--side", side,
                         "--beta", "0.4" if small else "2.5", "--gamma0", "1.2"]))
            out.append((f"blowup-{case}{tag}-irregular",
                        ["blowup", "--case", case, "--side", side,
                         "--beta", "1.1" if small else "3.0",
                         "--profile", paths["irregular", side], "--points", "256"]))
    out.append(("blowup-example2", ["blowup", "--case", "I", "--beta", "0.9",
                                    "--profile", paths["example2", "+"]]))
    # the two remaining exact routes of a profile wall: dyadic blocks and a
    # single segment (the + walls' fan bounds are 2.2 and 1.0)
    out.append(("blowup-example1", ["blowup", "--case", "I", "--beta", "0.9",
                                    "--profile", paths["example1", "+"]]))
    out.append(("blowup-constant", ["blowup", "--case", "I", "--beta", "1.1",
                                    "--profile", paths["constant", "+"]]))

    # kappa = 0 pins the mean: lambda must balance the net wall flux exactly
    r_min, r_max, alpha = 0.05, 1.0, 1.0
    flux = sum(
        float(p.integral_many([r_max])[0] - p.integral_many([r_min])[0])
        for p in (profile_from_dict(walls["example2"][s]) for s in "+-")
    )
    base = {"alpha": alpha, "r_min": r_min, "r_max": r_max,
            "plus": walls["example2"]["+"], "minus": walls["example2"]["-"]}
    configs = {
        "solve-16": {**base, "m": 16, "n_theta": 16, "kappa": 1.0, "lambda": 2.0},
        # m != n_theta, so a swapped row/column bound in the solver shows
        "solve-24x12": {**base, "m": 24, "n_theta": 12, "kappa": 1.0, "lambda": 2.0},
        "solve-capillary": {**base, "m": 48, "n_theta": 48, "kappa": 1.0, "lambda": 2.0},
        "solve-pinned": {**base, "m": 48, "n_theta": 48, "kappa": 0.0,
                         "lambda": flux / (alpha * (r_max**2 - r_min**2))},
        # the pinned system on a non-square node grid
        "solve-pinned-24x12": {**base, "m": 24, "n_theta": 12, "kappa": 0.0,
                               "lambda": flux / (alpha * (r_max**2 - r_min**2))},
        "solve-pmc": {**base, "m": 48, "n_theta": 48, "pmc": "tanh",
                      "kappa": 1.0, "lambda": 0.0},
        # the other pinned path: zero curvature, whose walls' cos(gamma)
        # cancel, so the net wall flux balances the zero source
        "solve-pmc-zero": {**base, "plus": constant("+", 1.0),
                           "minus": constant("-", math.pi - 1.0),
                           "m": 24, "n_theta": 12, "pmc": "zero"},
        # both sides of the pin rule from a start of 20: tanh is flat there
        # to roundoff but grows with the height, so it is not pinned (Newton
        # stalls, exit 6); zero curvature is pinned from any start
        "solve-pmc-far-start": {**base, "plus": constant("+", 1.2), "minus": constant("-", 1.2),
                                "m": 16, "n_theta": 16, "pmc": "tanh", "kappa": 1.0,
                                "lambda": 0.0, "initial": 20},
        "solve-pmc-zero-far-start": {**base, "plus": constant("+", 1.0),
                                     "minus": constant("-", math.pi - 1.0),
                                     "m": 24, "n_theta": 12, "pmc": "zero", "initial": 20},
        # a pinned start is centred before Newton runs: neutral walls meet the
        # tolerance at any constant, so this one takes no step and holds mean 0
        "solve-pmc-neutral-far-start": {**base, "plus": constant("+", math.pi / 2),
                                        "minus": constant("-", math.pi / 2),
                                        "m": 16, "n_theta": 16, "pmc": "zero", "initial": 20},
        "solve-pinned-far-start": {**base, "m": 48, "n_theta": 48, "kappa": 0.0,
                                   "lambda": flux / (alpha * (r_max**2 - r_min**2)),
                                   "initial": 20},
        # neutral walls give a flat solution, so the fan classifier reports
        # a constant trace instead of an unclassified one
        "solve-neutral": {**base, "plus": constant("+", math.pi / 2),
                          "minus": constant("-", math.pi / 2),
                          "m": 16, "n_theta": 16, "kappa": 1.0, "lambda": 2.0},
        # the paper's regime: contact angles near 0 and pi, 24 rows per decade
        "solve-extreme": {**base, "plus": constant("+", 0.3), "minus": constant("-", 2.8),
                          "r_min": 5e-3, "m": 55, "n_theta": 48, "kappa": 1.0, "lambda": 2.0},
        # angles 0.1 and 3.0 down to r_min = 5e-4: the residual stops halving
        # and Newton stops as stalled, long before the iteration cap (exit 6)
        "solve-stalled": {**base, "plus": constant("+", 0.1), "minus": constant("-", 3.0),
                          "r_min": 5e-4, "m": 79, "n_theta": 48, "kappa": 1.0, "lambda": 2.0},
        # the borderline D walls 0.6 and 2.0 down to r_min = 5e-4 (24 rows per
        # decade): 8 Newton steps; a forward-difference Jacobian stopped
        # after 21, unconverged (exit 6)
        "solve-borderline": {**base, "plus": constant("+", 0.6), "minus": constant("-", 2.0),
                             "r_min": 5e-4, "m": 79, "n_theta": 96, "kappa": 1.0,
                             "lambda": 2.0},
        # the benchmark's meshes, on which the elimination cuts its larger
        # stacks of fronts into more than one block
        "solve-capillary-128": {**base, "m": 128, "n_theta": 128, "kappa": 1.0, "lambda": 2.0},
        "solve-pinned-128": {**base, "m": 128, "n_theta": 128, "kappa": 0.0,
                             "lambda": flux / (alpha * (r_max**2 - r_min**2))},
    }
    for label, cfg in configs.items():
        out.append((label, ["solve", "--config", write_json(inputs / f"{label}.json", cfg)]))
    out.append(("solve-mms", ["solve", "--mms"]))

    # calls that fail before writing anything, so only their exit codes show
    out.append(("solve-mms-sizes-empty", ["solve", "--mms", "--mms-sizes", ""]))
    out.append(("solve-mms-sizes-gap", ["solve", "--mms", "--mms-sizes", "16,,32"]))
    # walls at pi on both sides: no fan width below pi is admissible (exit 4)
    walls_pi = {s: write_json(inputs / f"pi_{'plus' if s == '+' else 'minus'}.json",
                              constant(s, math.pi)) for s in "+-"}
    out.append(("bounds-infeasible", ["bounds", "--plus", walls_pi["+"],
                                      "--minus", walls_pi["-"], "--case", "I"]))
    zero_depth = two_angle("-", "example1", 0.7, 2.2)
    zero_depth["generator"]["depth"] = 0
    out.append(("profile-malformed", ["profile", write_json(inputs / "zero_depth.json",
                                                            zero_depth)]))
    # a config file that is missing, not JSON or not an object, a null where a
    # value belongs, and a profile file that is not UTF-8 or nested too
    # deeply: malformed (exit 2)
    out.append(("solve-config-missing", ["solve", "--config", str(inputs / "absent.json")]))
    for label, text in (("solve-config-not-json", "{oops"), ("solve-config-list", "[1, 2]")):
        (inputs / f"{label}.json").write_text(text)
        out.append((label, ["solve", "--config", str(inputs / f"{label}.json")]))
    for key in ("initial", "pmc"):
        cfg = {**configs["solve-16"], key: None}
        out.append((f"solve-{key}-null", ["solve", "--config",
                                          write_json(inputs / f"{key}-null.json", cfg)]))
    # a malformed count is found before any range check, so "alpha": 5 with
    # "m": "x" is malformed (exit 2), not out of range; so is a --minus with
    # side "x" after a good --plus
    for label, cfg in (("solve-m-string", {**configs["solve-16"], "m": "x"}),
                       ("solve-alpha-range-m-string",
                        {**configs["solve-16"], "alpha": 5, "m": "x"})):
        out.append((label, ["solve", "--config", write_json(inputs / f"{label}.json", cfg)]))
    side_x = write_json(inputs / "side_x_minus.json", {**constant("-", 2.0), "side": "x"})
    out.append(("bounds-minus-malformed", ["bounds", "--plus", paths["constant", "+"],
                                           "--minus", side_x]))
    # a - wall given as --plus and a + wall as --minus: the side rule (exit 2)
    out.append(("bounds-sides-swapped", ["bounds", "--plus", paths["constant", "-"],
                                         "--minus", paths["constant", "+"], "--case", "I"]))
    # a - wall given to blowup for the + side: the same rule (exit 2)
    out.append(("blowup-side-mismatch", ["blowup", "--case", "I", "--side", "+", "--beta", "0.9",
                                         "--profile", paths["example2", "-"]]))
    latin1 = inputs / "latin1_plus.json"
    latin1.write_bytes(json.dumps({**constant("+", 1.0), "note": "\u00e9"},
                                  ensure_ascii=False).encode("latin-1"))
    out.append(("profile-not-utf8", ["profile", str(latin1)]))
    (inputs / "nested.json").write_text("[" * 100_000)
    out.append(("profile-nested-deep", ["profile", str(inputs / "nested.json")]))
    # inputs out of range in floating point, refused before any work (exit 3):
    # s_max / floor overflows, so the sweep has no finite step count, and
    # radial spacings whose products underflow give infinite stencil weights
    out.append(("profile-floor-tiny", ["profile", paths["irregular", "+"],
                                       "--eps-floor", "1e-310"]))
    # the floor's range rule, (0, s_max), holds on every route (exit 3), but a
    # closed-form wall builds no sweep, so a floor too deep for one runs
    # (exit 0); verify's widest sweep starts at 4.0, so its floor's finite
    # step edge is about 2.2e-308 (exit 3)
    out.append(("bounds-constant-floor-at-s-max", ["bounds", "--plus", paths["constant", "+"],
                                                   "--minus", paths["constant", "-"],
                                                   "--eps-floor", "1.0"]))
    out.append(("blowup-constant-floor-tiny", ["blowup", "--case", "I", "--beta", "1.1",
                                               "--profile", paths["constant", "+"],
                                               "--eps-floor", "1e-310"]))
    out.append(("verify-floor-1e-308", ["verify-examples", "--eps-floor", "1e-308"]))
    # the range rule is the wall's, not the sweep's: 1.2 lies above the example
    # walls (s_max 1) but below verify's widest sweep top, 4.0, and profile's
    # sweep, which starts at s_max, refuses a floor there (both exit 3)
    out.append(("verify-floor-1.2", ["verify-examples", "--eps-floor", "1.2"]))
    out.append(("profile-floor-at-s-max", ["profile", paths["irregular", "+"],
                                           "--eps-floor", "1.0"]))
    out.append(("solve-r-min-tiny", ["solve", "--config", write_json(
        inputs / "solve-r-min-tiny.json", {**configs["solve-16"], "r_min": 1e-300})]))
    # one radial cell is too coarse a mesh, whatever n_radii defaults to
    out.append(("solve-m-1", ["solve", "--config", write_json(
        inputs / "solve-m-1.json", {**configs["solve-16"], "m": 1})]))
    # the closed-form router's edges: angles 0 and pi, and two equal angles
    out.append(("verify-extremes", ["verify-examples", "--gamma1", "0", "--gamma2", "3.14159"]))
    out.append(("verify-equal", ["verify-examples", "--gamma1", "1.5", "--gamma2", "1.5"]))
    # an --out that is a file is a usage error found before the solve (exit 1)
    out.append(("solve-out-a-file", ["solve", "--config", str(inputs / "solve-16.json"),
                                     "--out", paths["constant", "+"]]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory for inputs and artifacts (kept)")
    args = parser.parse_args(argv)
    root = Path(args.out)
    inputs = root / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for label, argv_ in calls(inputs):
        out = root / label
        if "--out" not in argv_:
            argv_ = argv_ + ["--out", str(out)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = wedgecap_main(argv_)
        print(f"exit {code}  {label}")
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {label}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
