"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Each criterion states its own tolerances and runtime budget; nothing here is
relaxed relative to the library's documented guarantees.  Run with -v (or -s)
to see the per-criterion report lines.
"""

import math
import time

import numpy as np
import pytest

from wedgecap.blowup import (
    TriangleComparison,
    bc_length,
    contradiction_witness,
    phi_difference,
    phi_limit_difference,
    psi_difference,
    psi_limit_difference,
    triangle_omega,
)
from wedgecap.bounds import (
    AdhesionFunction,
    FanCase,
    adhesion_from_profile,
    condition_decreasing,
    condition_increasing,
    corollary1_bound,
    default_lambda_grid,
    effective_angle,
    holds_for_all_lambda,
    min_admissible_fan,
)
from wedgecap.functionals import (
    estimate_AI,
    estimate_AS,
    exact_A_example1,
    exact_A_log_periodic,
)
from wedgecap.profiles import (
    WedgeGeometry,
    constant_profile,
    example1_profile,
    example2_profile,
)
from wedgecap.solver import (
    bounds_estimate,
    build_sector_mesh,
    manufactured_convergence,
    measure_fans,
    solve_capillary,
    torus_minor_radius,
)


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_dyadic_block_identities():
    start = time.perf_counter()
    g1, g2 = math.pi / 3.0, 2.0 * math.pi / 3.0
    prof = example1_profile(g1, g2)
    worst_exact = 0.0
    worst_sweep_rel = 0.0
    for b in (0.25, 0.5, 0.75):
        lower, upper = exact_A_example1(g1, g2, b)
        worst_exact = max(
            worst_exact,
            abs(lower.value - b * math.cos(g2)),
            abs(upper.value - b * math.cos(g1)),
        )
        lo = estimate_AI(prof, b, 1e-10)
        hi = estimate_AS(prof, b, 1e-10)
        worst_sweep_rel = max(
            worst_sweep_rel,
            abs(lo.value - b * math.cos(g2)) / (0.05 * b),
            abs(hi.value - b * math.cos(g1)) / (0.05 * b),
        )
    elapsed = time.perf_counter() - start
    ok = worst_exact <= 1e-12 and worst_sweep_rel <= 1.0 and elapsed < 1.0
    report(
        1,
        "dyadic two-angle identities",
        ok,
        f"exact_err={worst_exact:.3e} (<=1e-12), "
        f"sweep_err/allowed={worst_sweep_rel:.3f} (<=1), time={elapsed:.2f}s (<1s)",
    )


def test_criterion_2_log_periodic_identities():
    start = time.perf_counter()
    combos = [
        (math.pi / 3.0, 2.0 * math.pi / 3.0, 0.5),
        (0.4, 2.2, 0.25),
        (1.0, 1.5, 0.75),
        (0.2, 2.9, 0.4),
        (0.0, math.pi, 0.6),
    ]
    worst_exact = 0.0
    worst_sweep = 0.0
    for g1, g2, b in combos:
        prof = example2_profile(g1, g2)
        want_lo = b * (math.cos(g1) / 3.0 + 2.0 * math.cos(g2) / 3.0)
        want_hi = b * (2.0 * math.cos(g1) / 3.0 + math.cos(g2) / 3.0)
        lower, upper = exact_A_log_periodic(prof, b, 4.0)
        worst_exact = max(
            worst_exact, abs(lower.value - want_lo), abs(upper.value - want_hi)
        )
        # a floor deep enough that the generated tail biases windows by < 1e-7
        lo = estimate_AI(prof, b, 1e-6)
        hi = estimate_AS(prof, b, 1e-6)
        worst_sweep = max(
            worst_sweep, abs(lo.value - want_lo), abs(hi.value - want_hi)
        )
    elapsed = time.perf_counter() - start
    ok = worst_exact <= 1e-9 and worst_sweep <= 1e-3 and elapsed < 1.0
    report(
        2,
        "log-periodic identities",
        ok,
        f"exact_err={worst_exact:.3e} (<=1e-9), sweep_err={worst_sweep:.3e} "
        f"(<=1e-3), time={elapsed:.2f}s (<1s)",
    )


def test_criterion_3_constant_angle_fan_bounds():
    start = time.perf_counter()
    worst = 0.0
    for gamma0 in (math.pi / 6.0, math.pi / 4.0, math.pi / 2.0, 2.0 * math.pi / 3.0):
        m = math.cos(gamma0)
        inc, dec = min_admissible_fan([
            (AdhesionFunction.constant_angle(gamma0, "I"), "increasing"),
            (AdhesionFunction.constant_angle(gamma0, "S"), "decreasing"),
        ])
        worst = max(
            worst,
            abs(inc.beta_min - gamma0),
            abs(inc.beta_min - corollary1_bound(m, "a")),
            abs(dec.beta_min - (math.pi - gamma0)),
            abs(dec.beta_min - corollary1_bound(m, "c")),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 2e-3 and elapsed < 10.0
    report(
        3,
        "constant-angle scans vs closed-form bounds",
        ok,
        f"worst_gap={worst:.3e} (<=2e-3), time={elapsed:.2f}s (<10s)",
    )


def test_criterion_4_effective_angle_extraction():
    g1, g2 = math.pi / 3.0, 2.0 * math.pi / 3.0
    A1 = adhesion_from_profile(example1_profile(g1, g2), "I")
    _, sigma1 = effective_angle(A1)
    err1 = abs(sigma1 - g2)

    A2 = adhesion_from_profile(example2_profile(g1, g2), "I")
    _, sigma2 = effective_angle(A2)
    err2 = abs(math.cos(sigma2) - (math.cos(g1) / 3.0 + 2.0 * math.cos(g2) / 3.0))

    ok = err1 <= 1e-6 and err2 <= 1e-9
    report(
        4,
        "effective contact angles",
        ok,
        f"sigma_err={err1:.3e} (<=1e-6), cos_sigma_err={err2:.3e} (<=1e-9)",
    )


def test_criterion_5_blowup_geometry_oracle():
    rng = np.random.default_rng(101)
    worst_bc = 0.0
    for _ in range(1000):
        alpha = rng.uniform(0.025, math.pi)
        margin = min(1e-3, 0.49 * alpha)
        # keep the wall-to-C opening inside (0, pi): the coordinate triangle
        theta0 = rng.uniform(max(-alpha, alpha - math.pi) + margin, alpha - margin)
        b = rng.uniform(1e-3, 2.0)
        cmp = TriangleComparison(alpha=alpha, theta0=theta0, b=b, side="+")
        formula = math.sin(alpha - theta0) / math.sin(triangle_omega(cmp))
        worst_bc = max(worst_bc, abs(bc_length(cmp) - formula))

    rng = np.random.default_rng(202)
    worst_lim = 0.0
    h = 1e-4
    for _ in range(200):
        beta = rng.uniform(0.05, 2.5)
        lam = rng.uniform(beta + 0.05, math.pi - 0.05)
        alpha = min(beta + 0.4, math.pi)
        b_star = math.sin(lam - beta) / math.sin(lam)
        m = rng.uniform(-1.0, 1.0)
        if rng.random() < 0.5:
            A = AdhesionFunction.linear(m, "I")
            a_val = A(b_star)

            def at(hh):
                return phi_difference(
                    TriangleComparison(
                        alpha=alpha, theta0=alpha - beta - hh, b=b_star, side="+"
                    ),
                    a_val,
                )

            target = phi_limit_difference(A, beta, lam)
        else:
            A = AdhesionFunction.linear(m, "S")
            a_val = A(b_star)

            def at(hh):
                return psi_difference(
                    TriangleComparison(
                        alpha=alpha, theta0=-alpha + beta + hh, b=b_star, side="-"
                    ),
                    a_val,
                )

            target = psi_limit_difference(A, beta, lam)
        extrap = 2.0 * at(h / 2.0) - at(h)
        worst_lim = max(worst_lim, abs(extrap - target))

    rng = np.random.default_rng(303)
    agreements = 0
    for _ in range(100):
        m = rng.uniform(-1.0, 1.0)
        beta = rng.uniform(0.0, 2.9)
        grid = default_lambda_grid(beta)
        if rng.random() < 0.5:
            A = AdhesionFunction.linear(m, "I")
            w = contradiction_witness(A, FanCase.I, "+", beta, grid)
            ok_cond, _ = holds_for_all_lambda(
                lambda lam: condition_increasing(A, beta, lam), beta, grid
            )
        else:
            A = AdhesionFunction.linear(m, "S")
            w = contradiction_witness(A, FanCase.I, "-", beta, grid)
            ok_cond, _ = holds_for_all_lambda(
                lambda lam: condition_decreasing(A, beta, lam), beta, grid
            )
        agreements += int((w is None) == ok_cond)

    ok = worst_bc <= 1e-12 and worst_lim <= 1e-6 and agreements == 100
    report(
        5,
        "blow-up geometry oracle",
        ok,
        f"bc_err={worst_bc:.3e} (<=1e-12), limit_err={worst_lim:.3e} (<=1e-6), "
        f"witness_agreements={agreements}/100",
    )


def test_criterion_6_solver_exactness_and_order():
    start = time.perf_counter()
    geo = WedgeGeometry(1.0)
    mesh = build_sector_mesh(geo, 0.05, 1.0, 32, 32)
    field = solve_capillary(
        mesh, 1.0, 2.0, constant_profile("+", math.pi / 2),
        constant_profile("-", math.pi / 2),
    )
    flat_err = float(np.max(np.abs(field.values + 2.0)))

    rmesh = build_sector_mesh(WedgeGeometry(1.4), 0.05, 1.0, 20, 20)
    direct = solve_capillary(
        rmesh, 1.0, 0.3, constant_profile("+", 0.4), constant_profile("-", 2.2)
    )
    swapped = solve_capillary(
        rmesh, 1.0, 0.3, constant_profile("+", 2.2), constant_profile("-", 0.4)
    )
    refl_err = float(np.max(np.abs(direct.values - swapped.values[:, ::-1])))

    table = manufactured_convergence((32, 64, 128))
    min_rate = min(table["rates"])
    elapsed = time.perf_counter() - start
    ok = (
        field.converged
        and flat_err <= 1e-8
        and refl_err <= 1e-8
        and min_rate >= 1.9
        and elapsed < 60.0
    )
    report(
        6,
        "solver exactness and convergence order",
        ok,
        f"flat_err={flat_err:.3e} (<=1e-8), reflection_err={refl_err:.3e} "
        f"(<=1e-8), min_rate={min_rate:.3f} (>=1.9), time={elapsed:.1f}s (<60s)",
    )


def test_criterion_7_torus_and_bounds_formulas():
    vals = (
        torus_minor_radius(0.0),
        torus_minor_radius(0.75),
        torus_minor_radius(4.0 / 3.0),
    )
    exact = vals == (1.0, 2.0 / 3.0, 0.5)

    mesh = build_sector_mesh(WedgeGeometry(1.0), 0.05, 1.0, 16, 16)
    field = solve_capillary(
        mesh, 1.0, 2.0, constant_profile("+", math.pi / 2),
        constant_profile("-", math.pi / 2),
    )
    m1, m2 = bounds_estimate(field)
    ok = exact and (m1, m2) == (2.0, 0.0)
    report(
        7,
        "torus radius and solution magnitude bounds",
        ok,
        f"radii={vals} (exact), bounds_estimate=({m1}, {m2}) (==(2.0, 0.0))",
    )


def _wall_trace(alpha, n, i_lo, i_hi, v_lo, v_hi):
    """Wall plateaus with one monotone middle; returns nominal fan widths."""
    thetas = np.linspace(-alpha, alpha, n)
    knots = [-alpha, thetas[i_lo], thetas[i_hi], alpha]
    rf = np.interp(thetas, knots, [v_lo, v_lo, v_hi, v_hi])
    return thetas, rf, thetas[i_lo] + alpha, alpha - thetas[i_hi]


def _plateau_trace(alpha, n, i_wl, i_pl, i_wr, v_wall, v_top, v_end):
    """Wall plateaus, interior plateau of width pi, two monotone flanks."""
    thetas = np.linspace(-alpha, alpha, n)
    al = thetas[i_pl]
    knots = [-alpha, thetas[i_wl], al, al + math.pi, thetas[i_wr], alpha]
    rf = np.interp(thetas, knots, [v_wall, v_wall, v_top, v_top, v_end, v_end])
    return thetas, rf, thetas[i_wl] + alpha, alpha - thetas[i_wr]


def test_criterion_8_fan_measurement():
    roster = []
    for alpha, n, v in ((1.0, 101, 5.0), (0.7, 211, -2.0), (2.0, 301, 0.3),
                        (3.0, 157, 1.25)):
        thetas = np.linspace(-alpha, alpha, n)
        roster.append(("constant", thetas, np.full(n, v), 2 * alpha, 2 * alpha))
    for alpha, n, i_lo, i_hi, v0, v1 in (
        (1.0, 501, 75, 375, 0.0, 1.0),
        (1.2, 601, 90, 480, -0.5, 0.75),
        (0.8, 321, 40, 280, 2.0, 2.5),
        (1.5, 751, 150, 600, -1.0, -0.25),
    ):
        thetas, rf, bm, bp = _wall_trace(alpha, n, i_lo, i_hi, v0, v1)
        roster.append(("I", thetas, rf, bm, bp))
    for alpha, n, i_lo, i_hi, v0, v1 in (
        (1.2, 481, 60, 340, 2.0, -1.0),
        (1.0, 501, 100, 400, 1.0, 0.0),
        (2.0, 641, 64, 512, 0.5, -0.5),
        (0.9, 361, 36, 288, 3.0, 1.0),
    ):
        thetas, rf, bm, bp = _wall_trace(alpha, n, i_lo, i_hi, v0, v1)
        roster.append(("D", thetas, rf, bm, bp))
    for alpha, n, i_wl, i_pl, i_wr, lo, hi, mid in (
        (2.0, 801, 40, 80, 760, 0.0, 1.0, 0.25),
        (1.8, 721, 20, 30, 700, -1.0, 0.5, -0.2),
        (2.5, 1001, 60, 100, 960, 1.0, 2.0, 1.3),
        (3.0, 1201, 100, 200, 1100, 0.2, 1.4, 0.6),
    ):
        thetas, rf, bm, bp = _plateau_trace(alpha, n, i_wl, i_pl, i_wr, lo, hi, mid)
        roster.append(("ID", thetas, rf, bm, bp))
    for alpha, n, i_wl, i_pl, i_wr, hi, lo, mid in (
        (math.pi, 1257, 120, 200, 1200, 1.0, 0.0, 0.8),
        (2.0, 801, 30, 100, 770, 0.5, -0.5, 0.0),
        (2.2, 881, 44, 110, 840, 2.0, 1.0, 1.6),
        (2.8, 1121, 80, 160, 1060, 0.0, -1.0, -0.3),
    ):
        thetas, rf, bm, bp = _plateau_trace(alpha, n, i_wl, i_pl, i_wr, hi, lo, mid)
        roster.append(("DI", thetas, rf, bm, bp))
    assert len(roster) == 20

    failures = []
    for want_case, thetas, rf, bm_nom, bp_nom in roster:
        dth = float(thetas[1] - thetas[0])
        fans = measure_fans(rf, thetas, 1e-9)
        if fans.case != want_case:
            failures.append(f"{want_case}: classified {fans.case}")
            continue
        if abs(fans.beta_minus - bm_nom) > dth + 1e-12:
            failures.append(f"{want_case}: beta- off by {fans.beta_minus - bm_nom}")
        if abs(fans.beta_plus - bp_nom) > dth + 1e-12:
            failures.append(f"{want_case}: beta+ off by {fans.beta_plus - bp_nom}")
        if want_case in ("ID", "DI"):
            gap = abs((fans.alpha_r - fans.alpha_l) - math.pi)
            if gap > fans.tolerance + dth:
                failures.append(f"{want_case}: plateau span off by {gap}")
    ok = not failures
    report(
        8,
        "fan measurement on 20 manufactured traces",
        ok,
        "all cases and fan widths recovered" if ok else "; ".join(failures),
    )
