"""Independent checks of wedgecap's CLI artifacts.

Nothing here imports wedgecap.  Expected values are re-derived from the
definitions the paper and the README give: exact integrals of cos(gamma) over
piecewise-constant walls, the closed-form fan bounds of Corollary 1
(arccos(m) for an increasing middle, pi - arccos(m) for a decreasing one), and
the limiting triangle gains of the blow-up argument.  Every check returns a
list of problems; an empty list means the artifact is correct.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

INCREASING = "increasing"
DECREASING = "decreasing"

#: (side, condition) pairs a fan case must satisfy, from the paper's case list
CASE_CONDITIONS = {
    "I": (("+", INCREASING), ("-", DECREASING)),
    "D": (("-", INCREASING), ("+", DECREASING)),
    "DI": (("+", INCREASING), ("-", INCREASING)),
    "ID": (("-", DECREASING), ("+", DECREASING)),
}

#: blow-up verdicts flip on a limiting gain above this (the CLI's witness tolerance)
WITNESS_TOL = 1e-12


# ---------------------------------------------------------------------------
# walls as (start, end, gamma) segments


def example1_segments(g1: float, g2: float, depth: int = 8) -> list[tuple[float, float, float]]:
    """Dyadic super-blocks: g1 on (2^-n^2, 2^-n(n-1)], g2 on (2^-n(n+1), 2^-n^2]."""
    segs = [(0.0, 2.0 ** (-depth * (depth + 1)), g2)]
    for n in range(depth, 0, -1):
        segs.append((2.0 ** (-n * (n + 1)), 2.0 ** (-n * n), g2))
        segs.append((2.0 ** (-n * n), 2.0 ** (-n * (n - 1)), g1))
    return segs


def example2_segments(g1: float, g2: float, depth: int = 24) -> list[tuple[float, float, float]]:
    """Log-periodic pattern: g1 on (2/4^n, 4/4^n), g2 on (1/4^n, 2/4^n)."""
    segs = [(0.0, 4.0 ** -depth, g2)]
    for n in range(depth, 0, -1):
        q = 4.0 ** -n
        segs.append((q, 2.0 * q, g2))
        segs.append((2.0 * q, 4.0 * q, g1))
    return segs


def spec_segments(spec: dict) -> list[tuple[float, float, float]]:
    """Segments of a profile JSON spec (the formats the benchmark writes)."""
    if "segments" in spec:
        out, start = [], 0.0
        for seg in spec["segments"]:
            out.append((start, seg["s_end"], seg["gamma"]))
            start = seg["s_end"]
        return out
    gen = spec["generator"]
    if gen["type"] == "constant":
        return [(0.0, spec.get("s_max", 1.0), gen["gamma"])]
    if gen["type"] == "example1":
        return example1_segments(gen["gamma1"], gen["gamma2"])
    return example2_segments(gen["gamma1"], gen["gamma2"])


class WallIntegral:
    """F(x) = integral of cos(gamma) over (0, x], by bisection over prefix sums."""

    def __init__(self, segs):
        self.ends = [b for _, b, _ in segs]
        self.starts = [a for a, _, _ in segs]
        self.cos = [math.cos(g) for _, _, g in segs]
        self.prefix = [0.0]
        for a, b, c in zip(self.starts, self.ends, self.cos):
            self.prefix.append(self.prefix[-1] + (b - a) * c)

    def __call__(self, x: float) -> float:
        lo, hi = 0, len(self.ends) - 1
        while lo < hi:  # first segment whose end is >= x
            mid = (lo + hi) // 2
            if self.ends[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        return self.prefix[lo] + (x - self.starts[lo]) * self.cos[lo]


def log_periodic_slopes(segs, ratio: float = 4.0) -> tuple[float, float]:
    """(min, max) of F(x)/x over one period, with the exact geometric tail.

    F(x)/x is monotone between breakpoints, so its extremes over the period
    (1/ratio, 1] sit at breakpoints; the part below 1/ratio is the sum of the
    scaled copies of one period.
    """
    F = WallIntegral(segs)
    top = 1.0
    lo = top / ratio
    tail = (F(top) - F(lo)) / (ratio - 1.0)
    xs = sorted({lo, top} | {b for _, b, _ in segs if lo < b < top})
    vals = [(tail + F(x) - F(lo)) / x for x in xs]
    return min(vals), max(vals)


# ---------------------------------------------------------------------------
# artifact helpers


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_manifest(path: Path) -> dict[str, str]:
    """Flatten the manifest's indented `key: value` lines to dotted keys."""
    out: dict[str, str] = {}
    stack: list[str] = []
    for line in path.read_text().splitlines():
        stripped = line.lstrip(" ")
        depth = (len(line) - len(stripped)) // 2
        del stack[depth:]
        key, _, value = stripped.partition(":")
        if stripped.startswith("-"):
            continue
        if value.strip():
            out[".".join(stack + [key])] = value.strip()
        else:
            stack.append(key)
    return out


def sha256_tree(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def sweep_points(s_max: float, eps_floor: float, per_decade: int) -> int:
    return math.floor(per_decade * math.log10(s_max / eps_floor) + 1e-9) + 1


# ---------------------------------------------------------------------------
# per-subcommand oracles


def check_profile(out: Path, spec: dict, per_decade: int, eps_floor: float = 1e-10) -> list[str]:
    """Sweep rows equal F(eps)/eps; functionals bracket b*F(s_max)/s_max."""
    problems = []
    segs = spec_segments(spec)
    s_max = segs[-1][1]
    F = WallIntegral(segs)
    _, sweep = read_csv(out / "sweep.csv")
    want = sweep_points(s_max, eps_floor, per_decade)
    if len(sweep) != want:
        problems.append(f"sweep.csv has {len(sweep)} rows, want {want}")
    for eps_s, avg_s in sweep[:: max(1, len(sweep) // 97)]:
        eps, avg = float(eps_s), float(avg_s)
        if not _close(avg, F(eps) / eps, 1e-9):
            problems.append(f"sweep at eps={eps}: {avg} != {F(eps) / eps}")
            break
    cmin = min(math.cos(g) for _, _, g in segs)
    cmax = max(math.cos(g) for _, _, g in segs)
    _, rows = read_csv(out / "functionals.csv")
    if len(rows) != 20:
        problems.append(f"functionals.csv has {len(rows)} rows, want 20")
    for k, row in enumerate(rows, start=1):
        b, a_i, a_s = (float(x) for x in row[:3])
        if not _close(b, k * s_max / 20.0, 1e-12):
            problems.append(f"functionals row {k}: b={b}")
        whole = b * F(s_max) / s_max  # the average over the largest window
        slack = 1e-9 * max(1.0, b)
        if not (b * cmin - slack <= a_i <= whole + slack and whole - slack <= a_s <= b * cmax + slack):
            problems.append(f"functionals row {k}: A_I={a_i} A_S={a_s} outside bracket")
            break
        if len(segs) == 1 and not (_close(a_i, b * cmax, 1e-12) and _close(a_s, b * cmax, 1e-12)):
            problems.append(f"constant wall row {k}: A_I={a_i} A_S={a_s} != b cos(gamma)")
    return problems


def linear_slope(spec: dict, condition: str) -> float | None:
    """Exact slope m of A(b) = m*b when the wall has one, else None.

    Increasing conditions use the lower functional, decreasing the upper one.
    """
    lower = condition == INCREASING
    gen = spec.get("generator")
    if gen is None:
        return None
    if gen["type"] == "constant":
        return math.cos(gen["gamma"])
    if gen["type"] == "example1":
        g1, g2 = gen["gamma1"], gen["gamma2"]
        return math.cos(max(g1, g2)) if lower else math.cos(min(g1, g2))
    lo, hi = log_periodic_slopes(spec_segments(spec))
    return lo if lower else hi


def corollary1_bound(m: float, condition: str) -> float:
    sigma = math.acos(max(-1.0, min(1.0, m)))
    return sigma if condition == INCREASING else math.pi - sigma


def check_bounds(out: Path, specs: dict[str, dict], cases: list[str], beta_step: float = 1e-3) -> list[str]:
    """Rows per case; Corollary 1 on walls with linear A; same pair, same result."""
    problems = []
    _, rows = read_csv(out / "bounds.csv")
    want = [(side, case) for case in cases for side, _ in CASE_CONDITIONS[case]]
    got = [(r[0], r[1]) for r in rows]
    if got != want:
        return [f"bounds.csv rows {got} != {want}"]
    seen: dict[tuple[str, str], float] = {}
    for row in rows:
        side, case = row[0], row[1]
        beta_min, eff_m, eff_sigma = float(row[2]), float(row[6]), float(row[7])
        cond = dict(CASE_CONDITIONS[case])[side]
        if not (0.0 <= beta_min < math.pi):
            problems.append(f"{side}{case}: beta_min {beta_min} outside [0, pi)")
        if not _close(eff_sigma, math.acos(eff_m), 1e-12):
            problems.append(f"{side}{case}: effective sigma {eff_sigma} != acos({eff_m})")
        m = linear_slope(specs[side], cond)
        if m is not None:
            if not _close(eff_m, m, 1e-9):
                problems.append(f"{side}{case}: effective slope {eff_m} != {m}")
            bound = corollary1_bound(m, cond)
            if abs(beta_min - bound) > beta_step * (1.0 + 1e-9):
                problems.append(f"{side}{case}: beta_min {beta_min} not within one step of {bound}")
        key = (side, cond)
        if key in seen and seen[key] != beta_min:
            problems.append(f"{side} {cond}: beta_min {beta_min} differs from {seen[key]}")
        seen.setdefault(key, beta_min)
    return problems


def check_verify(out: Path, stdout: str) -> list[str]:
    lines = (out / "verify.txt").read_text().splitlines()
    problems = [] if len(lines) == 6 else [f"verify.txt has {len(lines)} lines, want 6"]
    problems += [f"not PASS: {line}" for line in lines if not line.startswith("PASS ")]
    if stdout.strip().splitlines() != lines:
        problems.append("stdout differs from verify.txt")
    return problems


def check_solve(out: Path, m: int, n_theta: int) -> list[str]:
    """A converged solve on mirrored walls: symmetry PASS, full-size artifacts."""
    problems = []
    man = read_manifest(out / "manifest.txt")
    if man.get("solver.converged") != "True":
        problems.append(f"converged={man.get('solver.converged')}")
    elif not float(man["solver.residual_norm"]) <= float(man["solver.tol"]):
        problems.append("residual above tolerance")
    if man.get("symmetry.verdict") != "PASS":
        problems.append(f"symmetry verdict {man.get('symmetry.verdict')} on mirrored walls")
    _, sol = read_csv(out / "solution.csv")
    if len(sol) != (m + 1) * (n_theta + 1):
        problems.append(f"solution.csv has {len(sol)} rows")
    elif not all(math.isfinite(float(r[2])) for r in sol):
        problems.append("non-finite solution value")
    _, trace = read_csv(out / "trace.csv")
    if len(trace) != n_theta + 1:
        problems.append(f"trace.csv has {len(trace)} rows")
    return problems


def solve_info(out: Path) -> dict:
    """Fan case and corner-trace Rf range: recorded, never gated."""
    man = read_manifest(out / "manifest.txt")
    _, trace = read_csv(out / "trace.csv")
    rf = [float(r[1]) for r in trace]
    return {
        "fan_case": man.get("fans.case"),
        "rf_min": min(rf),
        "rf_max": max(rf),
        "rf_spread": max(rf) - min(rf),
        "newton_iterations": int(man["solver.iterations"]),
    }


def check_mms(out: Path, sizes: list[int], min_rate: float = 1.9) -> list[str]:
    """Max-norm errors against the exact solution shrink at order >= min_rate."""
    _, rows = read_csv(out / "mms.csv")
    if [int(r[0]) for r in rows] != sizes:
        return [f"mms.csv sizes {[r[0] for r in rows]} != {sizes}"]
    errs = [float(r[1]) for r in rows]
    if not all(math.isfinite(e) and e > 0.0 for e in errs):
        return [f"mms errors {errs} not finite and positive"]
    problems = []
    for i in range(1, len(sizes)):
        rate = math.log(errs[i - 1] / errs[i]) / math.log(sizes[i] / sizes[i - 1])
        if not _close(rate, float(rows[i][2]), 1e-9):
            problems.append(f"reported rate {rows[i][2]} != {rate}")
        if rate < min_rate:
            problems.append(f"rate {rate} at m={sizes[i]} below {min_rate}")
    return problems


def limit_gain(m: float, condition: str, beta: float, lam: float) -> float:
    """Limiting triangle gain for A(b) = m*b: minus the admissibility condition."""
    b = math.sin(lam - beta) / math.sin(lam)
    a = max(-b, min(b, m * b))
    ratio = math.sin(beta) / math.sin(lam)
    cond = a + ratio - 1.0 if condition == INCREASING else ratio - 1.0 - a
    return -cond


def check_blowup(out: Path, stdout: str, case: str, side: str, beta: float,
                 points: int, gamma0: float | None = None) -> list[str]:
    """Grid rows and verdict; exact gains and Corollary 1 verdict for constant walls."""
    problems = []
    _, rows = read_csv(out / "limit_sweep.csv")
    if len(rows) != points:
        return [f"limit_sweep.csv has {len(rows)} rows, want {points}"]
    lams = [float(r[0]) for r in rows]
    gains = [float(r[1]) for r in rows]
    if not (beta < lams[0] and lams[-1] < math.pi and all(x < y for x, y in zip(lams, lams[1:]))):
        problems.append("lambda grid not strictly increasing inside (beta, pi)")
    verdict = stdout.strip().splitlines()[-1]
    contradiction = verdict.startswith("verdict: contradiction")
    if max(gains) > WITNESS_TOL and not contradiction:
        problems.append(f"grid gain {max(gains)} > 0 but {verdict!r}")
    if contradiction:
        gain = float(verdict.rsplit("gain=", 1)[1])
        if gain < max(gains) - 1e-15 or gain <= WITNESS_TOL:
            problems.append(f"witness gain {gain} below grid maximum {max(gains)}")
    if gamma0 is not None:
        cond = dict(CASE_CONDITIONS[case])[side]
        m = math.cos(gamma0)
        for lam, g in zip(lams[::7], gains[::7]):
            if abs(g - limit_gain(m, cond, beta, lam)) > 1e-12:
                problems.append(f"gain at lambda={lam}: {g} != {limit_gain(m, cond, beta, lam)}")
                break
        if contradiction != (beta < corollary1_bound(m, cond)):
            problems.append(f"verdict {verdict!r} contradicts Corollary 1 bound")
    return problems


def check_error_exit(stderr: str) -> list[str]:
    return [] if "wedgecap" in stderr and "error" in stderr else ["no error message on stderr"]
