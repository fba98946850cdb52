#!/usr/bin/env python3
"""Minimal admissible fan widths for every case, from angles or profile files.

For each discontinuity case and wall, scans the fan width beta upward until
the wall condition holds for every lambda, then reports the scan result next
to the closed-form constant-angle bound for context.

Usage:
    python3 scripts/fan_bound_report.py --gamma-plus 1.0 --gamma-minus 2.0
    python3 scripts/fan_bound_report.py --plus wallp.json --minus wallm.json \
        --csv out/bounds.csv
"""

import argparse
import math
import sys

from wedgecap.bounds import (
    INCREASING,
    FanCase,
    case_condition_map,
    corollary1_bound,
    fan_bound_rows,
)
from wedgecap.io import load_profile, write_bounds_csv
from wedgecap.profiles import constant_profile


def wall_profiles(args):
    if args.plus is not None or args.minus is not None:
        if args.plus is None or args.minus is None:
            raise SystemExit("need both --plus and --minus profile files")
        return {"+": load_profile(args.plus), "-": load_profile(args.minus)}
    return {
        "+": constant_profile("+", args.gamma_plus),
        "-": constant_profile("-", args.gamma_minus),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gamma-plus", type=float, default=math.pi / 2)
    parser.add_argument("--gamma-minus", type=float, default=math.pi / 2)
    parser.add_argument("--plus", default=None, help="profile JSON for the + wall")
    parser.add_argument("--minus", default=None, help="profile JSON for the - wall")
    parser.add_argument("--beta-step", type=float, default=1e-3)
    parser.add_argument("--csv", default=None, help="also write a CSV report")
    args = parser.parse_args(argv)

    profiles = wall_profiles(args)
    rows = fan_bound_rows(profiles, list(FanCase), beta_step=args.beta_step)
    print(f"{'side':>4} {'case':>4} {'beta_min':>12} {'closed-form':>12} "
          f"{'worst_lambda':>12} {'sigma_eff':>10}")
    for side, case, beta_min, _, worst_lambda, _, m, sigma in rows:
        cond_kind = dict(case_condition_map(FanCase(case)))[side]
        frozen = corollary1_bound(m, "a" if cond_kind == INCREASING else "c")
        print(f"{side:>4} {case:>4} {beta_min:12.6f} "
              f"{frozen:12.6f} {worst_lambda:12.6f} {sigma:10.6f}")
    if args.csv is not None:
        print(write_bounds_csv(args.csv, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
