"""Command-line front end wiring profiles, functionals, bounds, blow-up
sweeps, and the solver into reproducible runs.

Every command is deterministic: the same inputs produce byte-identical CSV
files and manifests (repr-formatted numbers, sorted keys, no timestamps).
Angles on the command line are radians unless --degrees is given; config
files are always radians.

Exit codes: 0 success, 1 usage error, 2 malformed profile or solve config
(including a missing, unreadable or non-JSON profile or config file), 3
numeric-range violation (a problem too large for memory included), 4
infeasible fan scan, 5 verification failure, 6 solver non-convergence
(artifacts still written).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

# Only what the parser and main need is imported here, and none of it loads
# numpy.  Each command imports the layers it calls once its usage checks and
# its input files' JSON checks pass, so a call that fails them, or runs
# short, loads no module it does not use.
from .base import EPS_FLOOR, POINTS_PER_DECADE, ProfileFormatError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROFILE = 2
EXIT_RANGE = 3
EXIT_INFEASIBLE = 4
EXIT_VERIFY = 5
EXIT_SOLVER = 6

#: mesh sizes of the manufactured-solution study unless --mms-sizes picks others
MMS_SIZES = (16, 32, 64)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit 2 on bad usage; this front end reserves 2
    for malformed profiles, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _angle(value: float | None, degrees: bool, default: float) -> float:
    if value is None:
        return default
    return math.radians(value) if degrees else value


#: flags read by several subcommands; each subcommand registers only those it
#: reads, so a stray flag is a usage error rather than silently ignored
_SHARED_FLAGS = {
    "--degrees": dict(
        action="store_true",
        help="interpret angle flags as degrees (config files stay radians)",
    ),
    "--eps-floor": dict(
        type=float, default=EPS_FLOOR, help="smallest scale used by averaging sweeps"
    ),
}


def _add_flags(parser: argparse.ArgumentParser, *shared: str) -> None:
    parser.add_argument("--out", default="out", help="output directory")
    for name in shared:
        parser.add_argument(name, **_SHARED_FLAGS[name])


def _check_out(out: str) -> None:
    """Refuse an --out that cannot become a directory: it, or else the
    nearest of its ancestors that exists, is not one.  Nothing is made here,
    so a call that fails later leaves no output directory."""
    path = Path(out)
    for p in (path, *path.parents):
        if os.path.lexists(p):
            if os.path.isdir(p):
                return
            if p == path:
                raise _Usage(f"--out {out} exists and is not a directory")
            raise _Usage(f"--out {out} lies under {p}, which is not a directory")


# ---------------------------------------------------------------------------
# profile


def cmd_profile(args) -> int:
    from . import io as wio

    profile = wio.load_profile(args.file)
    from .functionals import SweepConfig, best_estimates, sweep_table

    out = Path(args.out)
    cfg = SweepConfig.for_profile(
        profile, 1.0, args.eps_floor, points_per_decade=args.points_per_decade
    )
    eps, avgs = sweep_table(profile, 1.0, cfg)
    sweep_path = wio.write_sweep_csv(out / "sweep.csv", eps, avgs)

    rows = []
    for k in range(1, 21):
        b = k * profile.s_max / 20.0
        lower, upper = best_estimates(
            profile,
            b,
            eps_lo=args.eps_floor,
            points_per_decade=args.points_per_decade,
        )
        rows.append((b, lower.value, upper.value, lower.method, lower.uncertainty))
    fn_path = wio.write_functional_csv(out / "functionals.csv", rows)

    manifest = wio.write_manifest(
        out / "manifest.txt",
        {
            "command": "profile",
            "profile": wio.profile_summary(profile),
            "sweep": {
                "eps_floor": args.eps_floor,
                "points_per_decade": args.points_per_decade,
                "points": int(eps.size),
            },
        },
    )
    for p in (sweep_path, fn_path, manifest):
        print(p)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(args) -> int:
    from . import io as wio

    profiles = dict(zip("+-", wio.load_walls(args.plus, args.minus)))
    from .bounds import BETA_STEP, FanCase, fan_bound_rows

    beta_step = _angle(args.beta_step, args.degrees, BETA_STEP)
    cases = tuple(FanCase) if args.case == "all" else (FanCase(args.case),)
    rows = fan_bound_rows(profiles, cases, beta_step, eps_lo=args.eps_floor)
    out = Path(args.out)
    csv_path = wio.write_bounds_csv(out / "bounds.csv", rows)
    manifest = wio.write_manifest(
        out / "manifest.txt",
        {
            "command": "bounds",
            "cases": [c.value for c in cases],
            "beta_step": beta_step,
            "profiles": {
                "plus": wio.profile_summary(profiles["+"]),
                "minus": wio.profile_summary(profiles["-"]),
            },
        },
    )
    print(csv_path)
    print(manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-examples


def _verify_lines(g1: float, g2: float, eps_floor: float) -> list[tuple[str, float, float]]:
    """(label, achieved, allowed) per identity; PASS iff achieved <= allowed."""
    from .functionals import _envelopes, best_estimates
    from .profiles import example1_profile, example2_profile

    bs = (0.25, 0.5, 0.75)
    want_ex1 = {b: (b * math.cos(max(g1, g2)), b * math.cos(min(g1, g2))) for b in bs}
    c1, c2 = math.cos(g1), math.cos(g2)
    want_ex2 = {b: (b * (c1 / 3.0 + 2.0 * c2 / 3.0), b * (2.0 * c1 / 3.0 + c2 / 3.0)) for b in bs}

    # example2's pattern ends at 4^-depth, and the constant tail below it moves
    # a sweep value at scale eps by up to (2/3) |c1 - c2| 4^-depth / eps, so
    # the pattern reaches 1e-4 of the floor, or as deep as its breaks allow
    depth = 24
    while depth < 537 and math.ldexp(1.0, -2 * depth) > 1e-4 * eps_floor:
        depth += 1
    prof1, prof2 = example1_profile(g1, g2), example2_profile(g1, g2, depth)

    def exact_errors(prof, want):
        """Worst errors of the router's (lower, upper) values over bs."""
        est = {b: best_estimates(prof, b) for b in bs}
        return [max(abs(est[b][k].value - want[b][k]) for b in bs) for k in (0, 1)]

    err_exact1 = exact_errors(prof1, want_ex1)
    err_exact2 = exact_errors(prof2, want_ex2)

    def sweep_error(prof, b, want, **kw):
        """Larger error of one sweep's min and max against want = (lower, upper)."""
        lower, upper = _envelopes(prof, b, eps_lo=eps_floor, **kw)
        return max(abs(lower.value - want[0]), abs(upper.value - want[1]))

    # The sweep's error is a share of the swing b * |c1 - c2| that depends only
    # on the floor (3.1% at the default one), so it is measured against 5% of
    # that swing.  Equal angles leave a zero swing and only roundoff, so the
    # swing is floored at the exact lines' 1e-12.
    swing = max(abs(c1 - c2), 1e-12)
    rel1 = max(sweep_error(prof1, b, want_ex1[b]) / (0.05 * b * swing) for b in bs)
    err2 = max(sweep_error(prof2, b, want_ex2[b], points_per_decade=4096) for b in bs)

    return [
        ("example1 exact A_I", err_exact1[0], 1e-12),
        ("example1 exact A_S", err_exact1[1], 1e-12),
        ("example2 exact A_I", err_exact2[0], 1e-9),
        ("example2 exact A_S", err_exact2[1], 1e-9),
        ("example1 sweep / 5% of b|cos g1 - cos g2|", rel1, 1.0),
        ("example2 sweep", err2, 1e-3),
    ]


def cmd_verify_examples(args) -> int:
    g1 = _angle(args.gamma1, args.degrees, math.pi / 3.0)
    g2 = _angle(args.gamma2, args.degrees, 2.0 * math.pi / 3.0)
    for name, g in (("gamma1", g1), ("gamma2", g2)):
        if not (0.0 <= g <= math.pi):
            raise ValueError(f"--{name} must lie in [0, pi], got {g}")

    report = []
    all_pass = True
    for label, achieved, allowed in _verify_lines(g1, g2, args.eps_floor):
        ok = achieved <= allowed
        all_pass &= ok
        report.append(
            f"{'PASS' if ok else 'FAIL'} {label}: achieved={achieved!r} "
            f"allowed={allowed!r}"
        )
    text = "\n".join(report)
    print(text)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "verify.txt").write_text(text + "\n")
    return EXIT_OK if all_pass else EXIT_VERIFY


# ---------------------------------------------------------------------------
# solve


class _Usage(Exception):
    pass


def _curvature_for(tag: str, kappa: float, lam: float):
    import numpy as np

    if tag == "tanh":
        return lambda x, y, t: 0.5 * (kappa * np.tanh(t) + lam)
    if tag == "zero":
        return lambda x, y, t: np.zeros_like(np.asarray(t, dtype=float))
    raise ValueError(f"pmc variant must be 'tanh' or 'zero', got {tag!r}")


def _mirror_profiles(plus, minus) -> bool:
    return plus.bounds == minus.bounds and plus.values == minus.values


def cmd_solve(args) -> int:
    out = Path(args.out)
    if args.mms:
        if args.config is not None or args.tol is not None:
            raise _Usage("solve --mms takes neither --config nor --tol")
        text = args.mms_sizes
        try:
            sizes = MMS_SIZES if text is None else tuple(map(int, text.split(",")))
        except ValueError:
            raise ValueError(f"--mms-sizes takes comma-separated integers, got {text!r}") from None
        if len(sizes) < 2 or any(s < 4 for s in sizes):
            raise ValueError(f"--mms-sizes needs >= 2 sizes >= 4, got {sizes}")
        from . import io as wio
        from .solver import manufactured_convergence

        table = manufactured_convergence(sizes)
        rows = []
        for i, (size, err) in enumerate(zip(table["sizes"], table["errors"])):
            rate = math.nan if i == 0 else table["rates"][i - 1]
            rows.append((size, err, rate))
        csv_path = wio.write_csv(out / "mms.csv", ["m", "max_error", "rate"], rows)
        manifest = wio.write_manifest(
            out / "manifest.txt",
            {"command": "solve --mms", **table},
        )
        print(csv_path)
        print(manifest)
        print(f"finest observed order: {table['rates'][-1]!r}")
        return EXIT_OK

    if args.mms_sizes is not None:
        raise _Usage("--mms-sizes needs --mms")
    if args.config is None:
        raise _Usage("solve requires --config FILE (or --mms)")
    from . import io as wio

    cfg = wio.read_solve_config(args.config)
    import numpy as np

    from .profiles import WedgeGeometry
    from .solver import (
        SolverConfig,
        build_sector_mesh,
        fans_from_trace,
        radial_trace,
        solve_capillary,
        solve_pmc,
    )

    alpha, m, n_theta, n_radii = (cfg[key] for key in ("alpha", "m", "n_theta", "n_radii"))
    geometry = WedgeGeometry(alpha)
    mesh = build_sector_mesh(geometry, cfg["r_min"], cfg["r_max"], m, n_theta)
    if not (2 <= n_radii <= m):
        raise ValueError(f"n_radii must lie in [2, m={m}], got {n_radii}")
    plus, minus = cfg["plus"], cfg["minus"]
    # the Newton knobs the config leaves out are SolverConfig's
    newton = {key: cfg[key] for key in ("tol", "max_iter", "initial") if key in cfg}
    if args.tol is not None:
        newton["tol"] = args.tol
    config = SolverConfig(**newton)

    pmc, kappa, lam = cfg.get("pmc"), cfg["kappa"], cfg["lambda"]
    if pmc is None:
        field = solve_capillary(mesh, kappa, lam, plus, minus, config)
        physics = {"kappa": kappa, "lambda": lam}
    else:
        if kappa < 0.0:
            raise ValueError(f"kappa must be nonnegative, got {kappa}")
        field = solve_pmc(
            mesh, _curvature_for(pmc, kappa, lam), plus, minus, config
        )
        physics = {"pmc": pmc, "kappa": kappa, "lambda": lam}

    trace = radial_trace(field, n_radii, allow_unconverged=True)
    fans = fans_from_trace(trace)

    symmetry = {"applicable": _mirror_profiles(plus, minus)}
    if symmetry["applicable"]:
        sym_err = float(np.max(np.abs(field.values - field.values[:, ::-1])))
        scale = max(1.0, float(np.max(np.abs(field.values))))
        symmetry["max_asymmetry"] = sym_err
        symmetry["verdict"] = "PASS" if sym_err <= 1e-10 * scale else "FAIL"

    sol_path = wio.write_solution_csv(out / "solution.csv", field)
    trace_path = wio.write_trace_csv(out / "trace.csv", trace)
    manifest = wio.write_manifest(
        out / "manifest.txt",
        {
            "command": "solve",
            "mesh": {
                "alpha": alpha,
                "r_min": mesh.r_min,
                "r_max": mesh.r_max,
                "m": m,
                "n_theta": n_theta,
            },
            "physics": physics,
            "profiles": {
                "plus": wio.profile_summary(plus),
                "minus": wio.profile_summary(minus),
            },
            "solver": {
                "tol": config.tol,
                "max_iter": config.max_iter,
                "converged": field.converged,
                "stop": field.stop,
                "iterations": field.newton_iterations,
                "residual_norm": field.residual_norm,
                "residual_history": list(field.residual_history),
            },
            "diagnostics": dict(field.diagnostics),
            "trace": {
                "n_radii": n_radii,
                "max_residual": float(np.max(trace.residual)),
            },
            "fans": wio.fan_summary(fans),
            "symmetry": symmetry,
        },
    )
    for p in (sol_path, trace_path, manifest):
        print(p)
    if not field.converged:
        print(
            f"solver did not converge: stopped after {field.newton_iterations} of at "
            f"most {config.max_iter} iterations (stop: {field.stop}, "
            f"residual {field.residual_norm!r})",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    return EXIT_OK


# ---------------------------------------------------------------------------
# blowup


def cmd_blowup(args) -> int:
    if args.profile is None and args.eps_floor is not None:
        raise _Usage("--eps-floor needs --profile")
    from . import io as wio

    beta = _angle(args.beta, args.degrees, 0.0)
    if not (0.0 <= beta < math.pi):
        raise ValueError(f"--beta must lie in [0, pi), got {beta}")
    if args.points is not None and args.points < 8:
        raise ValueError(f"--points must be >= 8, got {args.points}")
    if args.gamma0 is None:
        profile = wio.load_profile(args.profile, args.side)
        eps_floor = EPS_FLOOR if args.eps_floor is None else args.eps_floor
    from .blowup import contradiction_witness, limit_difference_table
    from .bounds import (
        LAMBDA_POINTS,
        AdhesionFunction,
        FanCase,
        adhesion_from_profile,
        case_condition_map,
        default_lambda_grid,
        required_functional_kind,
    )

    case = FanCase(args.case)
    points = LAMBDA_POINTS if args.points is None else args.points
    cond_kind = dict(case_condition_map(case))[args.side]
    kind = required_functional_kind(cond_kind)
    if args.gamma0 is not None:
        gamma0 = _angle(args.gamma0, args.degrees, 0.0)
        A = AdhesionFunction.constant_angle(gamma0, kind)
        source = {"constant_gamma": gamma0}
    else:
        A = adhesion_from_profile(profile, kind, eps_lo=eps_floor)
        source = {"profile": wio.profile_summary(profile)}

    grid = default_lambda_grid(beta, n=points)
    table = limit_difference_table(A, case, args.side, beta, grid)
    witness = contradiction_witness(A, case, args.side, beta, grid)

    out = Path(args.out)
    csv_path = wio.write_limit_sweep_csv(out / "limit_sweep.csv", table)
    sections = {
        "command": "blowup",
        "side": args.side,
        "case": case.value,
        "beta": beta,
        "points": points,
        "source": source,
        "verdict": "consistent" if witness is None else "contradiction",
    }
    if witness is not None:
        sections["witness"] = {"lambda": witness[0], "gain": witness[1]}
    manifest = wio.write_manifest(out / "manifest.txt", sections)
    print(csv_path)
    print(manifest)
    if witness is None:
        print("verdict: consistent")
    else:
        print(
            f"verdict: contradiction at lambda={witness[0]!r} gain={witness[1]!r}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(
        prog="wedgecap",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="sweep a wall profile and its A curves")
    _add_flags(p, "--eps-floor")
    p.add_argument("file", help="profile JSON file")
    p.add_argument("--points-per-decade", type=int, default=POINTS_PER_DECADE)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("bounds", help="minimal admissible fan widths per case")
    _add_flags(p, "--degrees", "--eps-floor")
    p.add_argument(
        "--beta-step",
        type=float,
        default=None,
        help="fan-scan step (radians unless --degrees)",
    )
    p.add_argument("--plus", required=True, help="profile JSON for the + wall")
    p.add_argument("--minus", required=True, help="profile JSON for the - wall")
    p.add_argument(
        "--case", choices=["I", "D", "ID", "DI", "all"], default="all"
    )
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "verify-examples", help="recheck the closed-form oscillation identities"
    )
    _add_flags(p, "--degrees", "--eps-floor")
    p.add_argument("--gamma1", type=float, default=None)
    p.add_argument("--gamma2", type=float, default=None)
    p.set_defaults(func=cmd_verify_examples)

    p = sub.add_parser("solve", help="solve the wedge problem and trace r -> 0")
    _add_flags(p)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    p.add_argument(
        "--mms",
        action="store_true",
        help="run the manufactured-solution convergence study instead",
    )
    sizes = ",".join(map(str, MMS_SIZES))
    p.add_argument("--mms-sizes", default=None, help=f"with --mms (default {sizes})")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("blowup", help="limiting comparison sweep for one wall")
    _add_flags(p, "--degrees")
    p.add_argument("--side", choices=["+", "-"], default="+")
    p.add_argument("--case", choices=["I", "D", "ID", "DI"], required=True)
    p.add_argument("--beta", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma0", type=float, default=None)
    group.add_argument("--profile", default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument(
        "--eps-floor", type=float, default=None,
        help=f"with --profile (default {EPS_FLOOR})",
    )
    p.set_defaults(func=cmd_blowup)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except _Usage as exc:
        print(f"wedgecap: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProfileFormatError as exc:
        print(f"wedgecap: profile error: {exc}", file=sys.stderr)
        return EXIT_PROFILE
    except (ValueError, ArithmeticError) as exc:  # an overflow is an input out of range
        print(f"wedgecap: range error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except MemoryError as exc:  # numpy's names the size it could not allocate
        print(f"wedgecap: range error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RANGE
    except RuntimeError as exc:
        from .bounds import InfeasibleScanError

        print(f"wedgecap: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE if isinstance(exc, InfeasibleScanError) else EXIT_RANGE


if __name__ == "__main__":
    raise SystemExit(main())
