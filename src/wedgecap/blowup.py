"""Blow-up rescaling and triangular comparison geometry at the corner.

Near the corner the solution is rescaled by a vanishing factor; competitors
for the rescaled limit are built by cutting a triangle O-B-C out of the
half-plane bounded by a transversal ray.  The energy gain of that cut is a
finite closed form in the triangle data and one adhesion value, and a fan
width claimed below the admissible minimum yields a transversal direction
with strictly positive gain -- the contradiction witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    FEASIBLE_TOL,
    INCREASING,
    AdhesionFunction,
    FanCase,
    _grid_min,
    case_condition_map,
    condition_decreasing,
    condition_increasing,
    default_lambda_grid,
)
from .functionals import KIND_LOWER, KIND_UPPER, check_adhesion_bound
from .profiles import SIDES

#: a limiting energy gain above this certifies an inadmissible fan claim: the
#: complement of the fan scan's feasibility test
WITNESS_TOL = -FEASIBLE_TOL
_COLLINEAR_TOL = 1e-14


@dataclass(frozen=True)
class RescaleSpec:
    """Scale factor and reference height for one blow-up step."""

    eps: float
    z0: float

    def __post_init__(self) -> None:
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise ValueError(f"scale factor must be positive, got {self.eps}")
        if not math.isfinite(self.z0):
            raise ValueError("reference height must be finite")


def rescale_solution(samples, spec: RescaleSpec, inside=None) -> np.ndarray:
    """Rescale height samples: (x, y, f(eps*x, eps*y)) -> (x, y, (f - z0)/eps).

    ``samples`` rows carry the solution value already evaluated at the
    contracted point (eps*x, eps*y); coordinates stay in the blown-up frame.
    ``inside``, when given, must accept the contracted point and is used to
    reject samples that left the original domain.
    """
    arr = np.atleast_2d(np.asarray(samples, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"samples must be (n, 3)-shaped, got {arr.shape}")
    if inside is not None:
        for x, y in arr[:, :2] * spec.eps:
            if not inside(x, y):
                raise ValueError(f"sample outside domain at ({x}, {y})")
    out = arr.copy()
    out[:, 2] = (arr[:, 2] - spec.z0) / spec.eps
    return out


@dataclass(frozen=True)
class TriangleComparison:
    """Comparison triangle O=(0,0), B on one wall, C on the unit circle.

    ``side`` picks the wall carrying B at distance ``b``; ``theta0`` is the
    polar angle of C.  ``theta0`` may sit on the carrying wall itself, which
    collapses the triangle; the pure geometry operations reject that state
    while the energy differences use its continuous limit.
    """

    alpha: float
    theta0: float
    b: float
    side: str

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise ValueError(f"side must be '+' or '-', got {self.side!r}")
        if not (0.0 < self.alpha <= math.pi):
            raise ValueError(f"half-angle must lie in (0, pi], got {self.alpha}")
        if not (-self.alpha <= self.theta0 <= self.alpha):
            raise ValueError(
                f"ray angle {self.theta0} outside [-alpha, alpha] for alpha={self.alpha}"
            )
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise ValueError(f"wall distance must be positive, got {self.b}")

    @property
    def wall_angle(self) -> float:
        return self.alpha if self.side == "+" else -self.alpha

    @property
    def vertex_b(self) -> np.ndarray:
        a = self.wall_angle
        return self.b * np.array([math.cos(a), math.sin(a)])

    @property
    def vertex_c(self) -> np.ndarray:
        return np.array([math.cos(self.theta0), math.sin(self.theta0)])

    @property
    def degenerate(self) -> bool:
        # O, B, C collinear exactly when C's ray is (anti)parallel to the wall
        return abs(math.sin(self.theta0 - self.wall_angle)) < _COLLINEAR_TOL

    @property
    def opening(self) -> float:
        """Interior angle at O between the wall ray and the C ray."""
        raw = abs(self.theta0 - self.wall_angle)
        # the angular separation of two rays never exceeds pi
        return raw if raw <= math.pi else 2.0 * math.pi - raw


def _require_nondegenerate(cmp: TriangleComparison) -> None:
    if cmp.degenerate:
        raise ValueError(
            "triangle is degenerate: the C ray lies on the wall carrying B"
        )


def triangle_omega(cmp: TriangleComparison) -> float:
    """Transversal inclination: pi minus the interior angle at B.

    Both walls use the same complement convention so mirrored inputs give
    mirrored triangles with equal omega; the sine of the result is what the
    energy formulas consume, and as B slides to the wall-fan edge omega tends
    to the inclination the admissibility conditions quantify over.
    """
    _require_nondegenerate(cmp)
    vb = cmp.vertex_b
    u = -vb
    v = cmp.vertex_c - vb
    angle_at_b = math.atan2(abs(u[0] * v[1] - u[1] * v[0]), float(np.dot(u, v)))
    return math.pi - angle_at_b


def bc_length(cmp: TriangleComparison) -> float:
    """Euclidean |BC|; cross-checked elsewhere against the sine rule."""
    _require_nondegenerate(cmp)
    d = cmp.vertex_c - cmp.vertex_b
    return float(math.hypot(d[0], d[1]))


def sine_rule_bc(cmp: TriangleComparison) -> float:
    """|BC| via the sine rule: sin(opening at O) / sin(omega)."""
    _require_nondegenerate(cmp)
    return math.sin(cmp.opening) / math.sin(triangle_omega(cmp))


def phi_difference(cmp: TriangleComparison, a_lower_value: float) -> float:
    """Energy gain of the triangle cut on the + wall: (1 - A) - |BC|.

    ``a_lower_value`` is the lower scale-average at window ``cmp.b``.  When C
    sits on the + wall the cut edge vanishes and the gain is 1 - A (the
    continuous limit of the formula).
    """
    if cmp.side != "+":
        raise ValueError("phi_difference applies to the + wall")
    check_adhesion_bound(a_lower_value, cmp.b)
    if cmp.degenerate:
        return 1.0 - a_lower_value
    return (1.0 - a_lower_value) - sine_rule_bc(cmp)


def psi_difference(cmp: TriangleComparison, a_upper_value: float) -> float:
    """Energy gain of the triangle cut on the - wall: (1 + A) - |BC|.

    ``a_upper_value`` is the upper scale-average at window ``cmp.b``; the
    wall-degenerate state returns the limit 1 + A.
    """
    if cmp.side != "-":
        raise ValueError("psi_difference applies to the - wall")
    check_adhesion_bound(a_upper_value, cmp.b)
    if cmp.degenerate:
        return 1.0 + a_upper_value
    return (1.0 + a_upper_value) - sine_rule_bc(cmp)


def phi_limit_difference(A: AdhesionFunction, beta, lam):
    """Limiting + wall gain as C approaches the fan edge: -(increasing cond)."""
    if A.kind != KIND_LOWER:
        raise ValueError("the + wall limit consumes a lower (kind 'I') functional")
    return -condition_increasing(A, beta, lam)


def psi_limit_difference(A: AdhesionFunction, beta, lam):
    """Limiting - wall gain as C approaches the fan edge: -(decreasing cond)."""
    if A.kind != KIND_UPPER:
        raise ValueError("the - wall limit consumes an upper (kind 'S') functional")
    return -condition_decreasing(A, beta, lam)


def _limit_fn_for(case: FanCase, side: str):
    if side not in SIDES:
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    if dict(case_condition_map(case))[side] == INCREASING:
        return phi_limit_difference
    return psi_limit_difference


def contradiction_witness(
    A: AdhesionFunction,
    case: FanCase,
    side: str,
    beta_claim: float,
    lambda_grid: np.ndarray | None = None,
) -> tuple[float, float] | None:
    """Transversal direction with positive limiting gain, if one exists.

    Returns (lambda, gain) when the claimed fan width ``beta_claim`` is
    inadmissible for the given case and wall, and None when every direction
    has nonpositive gain.  The gain is minus the admissibility condition, so
    the search minimizes that condition exactly as the all-lambda check does
    (grid plus golden-section polish) and its verdict is the exact complement
    of that check on the same grid.
    """
    gain = _limit_fn_for(case, side)
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(beta_claim)
    grid = np.asarray(lambda_grid, dtype=float)
    lam_best, v_best = _grid_min(lambda lam: -gain(A, beta_claim, lam), grid)
    if -v_best > WITNESS_TOL:
        return lam_best, -v_best
    return None


def limit_difference_table(
    A: AdhesionFunction,
    case: FanCase,
    side: str,
    beta: float,
    lambda_grid: np.ndarray | None = None,
) -> np.ndarray:
    """(lambda, limiting gain) rows for one wall, ready for CSV output."""
    fn = _limit_fn_for(case, side)
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(beta)
    grid = np.asarray(lambda_grid, dtype=float)
    return np.column_stack([grid, np.asarray(fn(A, beta, grid), dtype=float)])
