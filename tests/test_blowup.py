"""Rescaling, comparison-triangle geometry, and contradiction witnesses."""

import math

import numpy as np
import pytest

from wedgecap.blowup import (
    RescaleSpec,
    TriangleComparison,
    bc_length,
    contradiction_witness,
    limit_difference_table,
    phi_difference,
    phi_limit_difference,
    psi_difference,
    psi_limit_difference,
    rescale_solution,
    sine_rule_bc,
    triangle_omega,
)
from wedgecap.bounds import (
    AdhesionFunction,
    FanCase,
    condition_decreasing,
    condition_increasing,
    default_lambda_grid,
    holds_for_all_lambda,
)


def tri(alpha, theta0, b, side="+"):
    return TriangleComparison(alpha=alpha, theta0=theta0, b=b, side=side)


# ---------------------------------------------------------------------------
# rescaling


def test_rescale_identity():
    samples = np.array([[0.5, 0.2, 1.7], [1.0, -0.3, 0.4]])
    out = rescale_solution(samples, RescaleSpec(eps=1.0, z0=0.0))
    assert np.array_equal(out, samples)


def test_rescale_constant_field_collapses():
    samples = np.array([[0.5, 0.2, 3.0], [1.0, -0.3, 3.0]])
    out = rescale_solution(samples, RescaleSpec(eps=0.01, z0=3.0))
    assert np.all(out[:, 2] == 0.0)
    assert np.array_equal(out[:, :2], samples[:, :2])


def test_rescale_degree_one_field_is_fixed_point():
    """f(x, y) = x: heights sampled at contracted points rescale to x again."""
    xy = np.array([[0.4, 0.1], [0.9, -0.5], [0.2, 0.2]])
    for eps in (1.0, 0.25, 1e-3):
        samples = np.column_stack([xy, eps * xy[:, 0]])
        out = rescale_solution(samples, RescaleSpec(eps=eps, z0=0.0))
        assert out[:, 2] == pytest.approx(xy[:, 0], rel=1e-15)


def test_rescale_composition():
    rng = np.random.default_rng(11)
    samples = rng.normal(size=(20, 3))
    e1, z1, e2, z2 = 0.5, 1.2, 0.125, -0.7
    once = rescale_solution(samples, RescaleSpec(eps=e1, z0=z1))
    twice = rescale_solution(once, RescaleSpec(eps=e2, z0=z2))
    combined = rescale_solution(samples, RescaleSpec(eps=e1 * e2, z0=z1 + e1 * z2))
    assert twice[:, 2] == pytest.approx(combined[:, 2], rel=1e-12, abs=1e-12)


def test_rescale_domain_guard():
    samples = np.array([[2.0, 0.0, 1.0]])
    inside = lambda x, y: x * x + y * y <= 1.0
    rescale_solution(samples, RescaleSpec(eps=0.5, z0=0.0), inside=inside)
    with pytest.raises(ValueError):
        rescale_solution(samples, RescaleSpec(eps=0.6, z0=0.0), inside=inside)


def test_rescale_validation():
    with pytest.raises(ValueError):
        RescaleSpec(eps=0.0, z0=0.0)
    with pytest.raises(ValueError):
        RescaleSpec(eps=1.0, z0=math.inf)
    with pytest.raises(ValueError):
        rescale_solution(np.zeros((3, 2)), RescaleSpec(eps=1.0, z0=0.0))


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


def test_witness_complements_admissibility_check():
    """Same grid in, opposite verdicts out -- for any slope and width."""
    rng = np.random.default_rng(41)
    for _ in range(100):
        m = rng.uniform(-1.0, 1.0)
        beta = rng.uniform(0.0, 2.8)
        grid = default_lambda_grid(beta, n=768)
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


def test_limit_difference_table_layout():
    A = AdhesionFunction.linear(0.2, "I")
    grid = np.linspace(0.6, 3.0, 11)
    table = limit_difference_table(A, FanCase.I, "+", 0.5, grid)
    assert table.shape == (11, 2)
    assert np.array_equal(table[:, 0], grid)
    assert table[3, 1] == phi_limit_difference(A, 0.5, grid[3])
