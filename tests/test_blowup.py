"""Rescaling, comparison-triangle geometry, and contradiction witnesses."""

import math

import numpy as np
import pytest

from wedgecap.blowup import (
    TriangleComparison,
    bc_length,
    contradiction_witness,
    limit_difference_table,
    phi_difference,
    phi_limit_difference,
    psi_difference,
    psi_limit_difference,
    sine_rule_bc,
    triangle_omega,
)
from wedgecap.bounds import (
    FEASIBLE_TOL,
    INCREASING,
    LAMBDA_MARGIN,
    LAMBDA_POINTS,
    AdhesionFunction,
    FanCase,
    _condition,
    _golden_min,
    _keep_lower,
    _ratios,
    _SweepTable,
    adhesion_from_profile,
    case_condition_map,
    condition_decreasing,
    condition_increasing,
    default_lambda_grid,
    holds_for_all_lambda,
    required_functional_kind,
)
from wedgecap.profiles import make_piecewise


def tri(alpha, theta0, b, side="+"):
    return TriangleComparison(alpha=alpha, theta0=theta0, b=b, side=side)


# ---------------------------------------------------------------------------
# triangle geometry


def test_triangle_validation():
    with pytest.raises(ValueError):
        tri(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        tri(1.0, 1.5, 1.0)  # ray outside the sector
    with pytest.raises(ValueError):
        tri(1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        TriangleComparison(alpha=1.0, theta0=0.0, b=1.0, side="x")


def test_triangle_omega_right_angle_oracle():
    """alpha = pi/2, C straight ahead: angle at B is arccos(b/sqrt(1+b^2))."""
    for b in (0.25, 0.75, 2.0):
        cmp = tri(math.pi / 2, 0.0, b)
        expected = math.pi - math.acos(b / math.hypot(1.0, b))
        assert triangle_omega(cmp) == pytest.approx(expected, abs=1e-12)


def test_triangle_omega_mirror_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(200):
        alpha = rng.uniform(0.2, math.pi)
        theta0 = rng.uniform(-alpha + 1e-3, alpha - 1e-3)
        b = rng.uniform(0.05, 2.0)
        wp = triangle_omega(tri(alpha, theta0, b, "+"))
        wm = triangle_omega(tri(alpha, -theta0, b, "-"))
        assert wp == wm  # mirrored data, bitwise-equal angle


def test_triangle_omega_small_b_limit():
    cmp = tri(1.2, 0.3, 1e-8)
    assert triangle_omega(cmp) == pytest.approx(1.2 - 0.3, abs=1e-6)


def test_triangle_omega_degenerate_rejected():
    cmp = tri(1.0, 1.0, 0.5)
    assert cmp.degenerate
    with pytest.raises(ValueError):
        triangle_omega(cmp)
    with pytest.raises(ValueError):
        bc_length(cmp)


def test_bc_length_examples():
    assert bc_length(tri(math.pi / 2, 0.0, 0.75)) == pytest.approx(1.25, rel=1e-15)
    # C approaching the carrying wall: |BC| -> 1 - b
    assert bc_length(tri(1.0, 1.0 - 1e-9, 0.4)) == pytest.approx(0.6, abs=1e-6)


def test_bc_length_matches_sine_rule():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        alpha = rng.uniform(1e-3, math.pi)
        margin = min(1e-3, 0.49 * alpha)
        theta0 = rng.uniform(-alpha + margin, alpha - margin)
        b = rng.uniform(1e-3, 2.0)
        side = "+" if rng.random() < 0.5 else "-"
        cmp = tri(alpha, theta0, b, side)
        worst = max(worst, abs(bc_length(cmp) - sine_rule_bc(cmp)))
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# energy differences


def test_phi_difference_examples():
    # right wedge, C straight ahead, b = 0.75: omega has sin = 1/1.25
    cmp = tri(math.pi / 2, 0.0, 0.75)
    assert phi_difference(cmp, 0.75) == pytest.approx(
        0.25 - sine_rule_bc(cmp), abs=1e-14
    )
    assert phi_difference(cmp, 0.75) == pytest.approx(-1.0, abs=1e-12)
    # degenerate: C on the + wall collapses the cut edge
    assert phi_difference(tri(1.0, 1.0, 0.5), 0.2) == pytest.approx(0.8)


def test_phi_difference_slope_in_adhesion():
    cmp = tri(1.3, 0.2, 0.6)
    base = phi_difference(cmp, 0.1)
    assert phi_difference(cmp, 0.25) == pytest.approx(base - 0.15, abs=1e-14)


def test_psi_difference_mirror_of_phi():
    rng = np.random.default_rng(23)
    for _ in range(300):
        alpha = rng.uniform(0.2, math.pi)
        theta0 = rng.uniform(-alpha + 1e-3, alpha - 1e-3)
        b = rng.uniform(0.05, 1.5)
        a_val = rng.uniform(-b, b)
        phi = phi_difference(tri(alpha, theta0, b, "+"), a_val)
        psi = psi_difference(tri(alpha, -theta0, b, "-"), -a_val)
        assert phi == psi  # bitwise: mirrored geometry, negated adhesion


def test_difference_side_and_value_guards():
    with pytest.raises(ValueError):
        phi_difference(tri(1.0, 0.0, 0.5, "-"), 0.0)
    with pytest.raises(ValueError):
        psi_difference(tri(1.0, 0.0, 0.5, "+"), 0.0)
    with pytest.raises(ValueError):
        phi_difference(tri(1.0, 0.0, 0.5, "+"), 0.7)  # |A| > b
    with pytest.raises(ValueError):
        psi_difference(tri(1.0, -1.0, 0.5, "-"), math.nan)  # NaN is no value
    assert psi_difference(tri(1.0, -1.0, 0.5, "-"), 0.2) == pytest.approx(1.2)


def test_limit_functions_negate_conditions():
    A_lo = AdhesionFunction.linear(0.35, "I")
    A_hi = AdhesionFunction.linear(0.35, "S")
    lam = np.linspace(0.9, 3.0, 7)
    phi = phi_limit_difference(A_lo, 0.8, lam)
    psi = psi_limit_difference(A_hi, 0.8, lam)
    assert np.array_equal(phi, -condition_increasing(A_lo, 0.8, lam))
    assert np.array_equal(psi, -condition_decreasing(A_hi, 0.8, lam))
    with pytest.raises(ValueError):
        phi_limit_difference(A_hi, 0.8, 1.0)
    with pytest.raises(ValueError):
        psi_limit_difference(A_lo, 0.8, 1.0)


def test_finite_triangle_converges_to_phi_limit():
    """Fan-edge limit: theta0 -> alpha - beta with b frozen at sin(lam-beta)/sin(lam).

    One Richardson step on h and h/2 cancels the linear error term, leaving
    O(h^2); at h = 1e-4 that sits far below the 1e-6 gate.
    """
    A = AdhesionFunction.linear(0.4, "I")
    beta, lam = 0.7, 1.9
    alpha = beta + 0.25
    b_star = math.sin(lam - beta) / math.sin(lam)
    a_val = A(b_star)

    def phi_at(h):
        return phi_difference(tri(alpha, alpha - beta - h, b_star, "+"), a_val)

    h = 1e-4
    extrap = 2.0 * phi_at(h / 2) - phi_at(h)
    assert extrap == pytest.approx(phi_limit_difference(A, beta, lam), abs=1e-6)


def test_finite_triangle_converges_to_psi_limit():
    A = AdhesionFunction.linear(-0.3, "S")
    beta, lam = 0.5, 2.2
    alpha = beta + 0.3
    b_star = math.sin(lam - beta) / math.sin(lam)
    a_val = A(b_star)

    def psi_at(h):
        return psi_difference(tri(alpha, -alpha + beta + h, b_star, "-"), a_val)

    h = 1e-4
    extrap = 2.0 * psi_at(h / 2) - psi_at(h)
    assert extrap == pytest.approx(psi_limit_difference(A, beta, lam), abs=1e-6)


# ---------------------------------------------------------------------------
# witnesses


def test_witness_examples():
    A = AdhesionFunction.constant_angle(math.pi / 2, "I")
    w = contradiction_witness(A, FanCase.I, "+", math.pi / 4)
    assert w is not None
    lam, gain = w
    assert lam == pytest.approx(math.pi / 2, abs=1e-3)
    assert gain == pytest.approx(1.0 - math.sin(math.pi / 4), abs=1e-6)

    assert contradiction_witness(A, FanCase.I, "+", math.pi / 2) is None
    A_full = AdhesionFunction.linear(1.0, "I")
    assert contradiction_witness(A_full, FanCase.I, "+", 0.0) is None


def test_witness_validation():
    A = AdhesionFunction.linear(0.0, "I")
    with pytest.raises(ValueError):
        contradiction_witness(A, FanCase.I, "-", 0.5)  # needs kind S there
    with pytest.raises(ValueError):
        contradiction_witness(A, FanCase.I, "+", math.pi)
    # a fan width that is no number is refused with or without a grid
    for grid in (None, np.linspace(0.5, 3.0, 8)):
        for call in (contradiction_witness, limit_difference_table):
            with pytest.raises(ValueError, match="fan width"):
                call(A, FanCase.I, "+", math.nan, grid)
    # the witness refuses the grids the all-lambda check refuses
    short = [1.0, 2.0]
    with pytest.raises(ValueError, match="at least 3 points"):
        holds_for_all_lambda(lambda lam: condition_increasing(A, 0.5, lam), 0.5, short)
    with pytest.raises(ValueError, match="at least 3 points"):
        contradiction_witness(A, FanCase.I, "+", 0.5, short)


def test_witness_complements_admissibility_check():
    """Same grid in, opposite verdicts out -- for any slope and width, on a
    grid of Python floats and on the same grid as a numpy array."""
    rng = np.random.default_rng(41)
    for _ in range(100):
        m = rng.uniform(-1.0, 1.0)
        beta = rng.uniform(0.0, 2.8)
        floats = default_lambda_grid(beta, n=768)
        for grid in (floats, np.array(floats)):
            _check_witness_against_admissibility(m, beta, grid)


def _check_witness_against_admissibility(m, beta, grid):
    A = AdhesionFunction.linear(m, "I")
    w = contradiction_witness(A, FanCase.I, "+", beta, grid)
    ok, _ = holds_for_all_lambda(
        lambda lam: condition_increasing(A, beta, lam), beta, grid
    )
    assert (w is None) == ok
    A = AdhesionFunction.linear(m, "S")
    w = contradiction_witness(A, FanCase.I, "-", beta, grid)
    ok, _ = holds_for_all_lambda(
        lambda lam: condition_decreasing(A, beta, lam), beta, grid
    )
    assert (w is None) == ok


@pytest.mark.parametrize("n", [8, 512, 4096])
def test_float_grid_matches_array_grid_bit_for_bit(n):
    """On a grid of Python floats the table and the witness run on ``math``,
    one point at a time.  Their rows equal the conditions evaluated on the
    numpy grid, and their witness the grid minimum refined as the fan scan
    refines it, on the same bracket, bit for bit (compared by repr)."""
    rng = np.random.default_rng(n)
    cells = [(-1.0, 0.0), (1.0, 2.9 - 1e-9)] + [
        (rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.9)) for _ in range(4)
    ]
    for case in FanCase:
        for side, cond_kind in case_condition_map(case):
            condition = condition_increasing if cond_kind == INCREASING else condition_decreasing
            for m, beta in cells:
                A = AdhesionFunction.linear(m, required_functional_kind(cond_kind))
                grid = default_lambda_grid(beta, n)
                lams = np.linspace(beta + LAMBDA_MARGIN, math.pi - LAMBDA_MARGIN, n)
                vals = condition(A, beta, lams)
                table = limit_difference_table(A, case, side, beta, grid)
                assert repr(table) == repr(list(zip(lams.tolist(), (-vals).tolist())))

                i = int(np.argmin(vals))
                bracket = np.array([lams[max(i - 1, 0)]]), np.array([lams[min(i + 1, n - 1)]])
                rows = np.array([beta])
                refined = _golden_min(
                    lambda lam: _condition(A, cond_kind, *_ratios(rows, lam)), *bracket
                )
                lam, value = _keep_lower(lams[i], vals[i], *refined)
                want = (float(lam[0]), -float(value[0])) if value[0] < FEASIBLE_TOL else None
                assert repr(contradiction_witness(A, case, side, beta, grid)) == repr(want)


def test_limit_difference_table_layout():
    A = AdhesionFunction.linear(0.2, "I")
    grid = np.linspace(0.6, 3.0, 11)
    # (lambda, gain) rows of Python floats, from an array grid or a float one
    for given in (grid, grid.tolist()):
        table = limit_difference_table(A, FanCase.I, "+", 0.5, given)
        assert [len(row) for row in table] == [2] * 11
        assert all(type(x) is float for row in table for x in row)
        assert [lam for lam, _ in table] == grid.tolist()
        assert table[3][1] == phi_limit_difference(A, 0.5, grid[3])


def test_sweep_table_reads_the_default_grid_in_one_search(monkeypatch):
    """Called without a grid on a sweep-table wall, the table and the witness
    hand the table the whole default grid as one array: one search for the
    grid, then one per golden-section probe of the witness, not one per
    lambda."""
    sizes = []
    cut = _SweepTable.cut

    def counted(self, b):
        sizes.append(np.size(b))
        return cut(self, b)

    monkeypatch.setattr(_SweepTable, "cut", counted)
    A = adhesion_from_profile(make_piecewise("+", [0.3, 0.65, 1.0], [0.1, 2.0, 1.0]), "I")
    table = limit_difference_table(A, FanCase.I, "+", 0.7)
    assert sizes == [LAMBDA_POINTS] and len(table) == LAMBDA_POINTS
    sizes.clear()
    contradiction_witness(A, FanCase.I, "+", 0.7)
    assert sizes[0] == LAMBDA_POINTS and set(sizes[1:]) == {1}
    assert len(sizes) < LAMBDA_POINTS // 8
