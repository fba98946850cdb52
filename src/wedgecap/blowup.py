"""Blow-up rescaling and triangular comparison geometry at the corner.

Near the corner the solution is rescaled by a vanishing factor; competitors
for the rescaled limit are built by cutting a triangle O-B-C out of the
half-plane bounded by a transversal ray.  The energy gain of that cut is a
finite closed form in the triangle data and one adhesion value, and a fan
width claimed below the admissible minimum yields a transversal direction
with strictly positive gain -- the contradiction witness.  The fan-edge
limits run on Python floats without numpy, or on numpy arrays (see
``bounds._on_grid``); a sweep table always gets its lambda grid as an array
(``_lambda_grid``).  The triangles build numpy vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .base import SIDES, check_adhesion_bound
from .bounds import (
    FEASIBLE_TOL,
    INCREASING,
    AdhesionFunction,
    FanCase,
    _grid_for,
    _on_grid,
    _worst_lambda,
    case_condition_map,
    condition_decreasing,
    condition_increasing,
    default_lambda_grid,
)

if TYPE_CHECKING:
    import numpy as np

_COLLINEAR_TOL = 1e-14


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
        from .profiles import WedgeGeometry

        WedgeGeometry(self.alpha)  # the one home of the half-opening rule
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
        import numpy as np

        a = self.wall_angle
        return self.b * np.array([math.cos(a), math.sin(a)])

    @property
    def vertex_c(self) -> np.ndarray:
        import numpy as np

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
    import numpy as np

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


def _cut_gain(name: str, wall: str, cmp: TriangleComparison, a_value: float) -> float:
    """(1 -/+ A) - |BC| on the +/- wall, or its limit 1 -/+ A when C sits on
    the wall and the cut edge vanishes."""
    if cmp.side != wall:
        raise ValueError(f"{name} applies to the {wall} wall")
    check_adhesion_bound(a_value, cmp.b)
    # 1 + (-A) is 1 - A exactly
    edge = 1.0 + (-a_value if wall == "+" else a_value)
    return edge if cmp.degenerate else edge - sine_rule_bc(cmp)


def phi_difference(cmp: TriangleComparison, a_lower_value: float) -> float:
    """Energy gain of the triangle cut on the + wall: (1 - A) - |BC|.

    ``a_lower_value`` is the lower scale-average at window ``cmp.b``.  When C
    sits on the + wall the cut edge vanishes and the gain is 1 - A (the
    continuous limit of the formula).
    """
    return _cut_gain("phi_difference", "+", cmp, a_lower_value)


def psi_difference(cmp: TriangleComparison, a_upper_value: float) -> float:
    """Energy gain of the triangle cut on the - wall: (1 + A) - |BC|.

    ``a_upper_value`` is the upper scale-average at window ``cmp.b``; the
    wall-degenerate state returns the limit 1 + A.
    """
    return _cut_gain("psi_difference", "-", cmp, a_upper_value)


def phi_limit_difference(A: AdhesionFunction, beta, lam):
    """Limiting + wall gain as C approaches the fan edge: -(increasing cond)."""
    return -condition_increasing(A, beta, lam)


def psi_limit_difference(A: AdhesionFunction, beta, lam):
    """Limiting - wall gain as C approaches the fan edge: -(decreasing cond)."""
    return -condition_decreasing(A, beta, lam)


def _limit_fn_for(case: FanCase, side: str):
    if side not in SIDES:
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    if dict(case_condition_map(case))[side] == INCREASING:
        return phi_limit_difference
    return psi_limit_difference


def _lambda_grid(A: AdhesionFunction, beta: float, lambda_grid):
    """``lambda_grid``, or ``default_lambda_grid(beta)`` when None, as
    ``bounds._grid_for`` hands it to ``A``."""
    return _grid_for(A, default_lambda_grid(beta) if lambda_grid is None else lambda_grid)


def contradiction_witness(
    A: AdhesionFunction,
    case: FanCase,
    side: str,
    beta_claim: float,
    lambda_grid=None,
) -> tuple[float, float] | None:
    """Transversal direction with positive limiting gain, if one exists.

    Returns (lambda, gain) when the claimed fan width ``beta_claim`` is
    inadmissible for the given case and wall, and None when every direction
    has nonpositive gain.  The gain is minus the admissibility condition, and
    the condition's minimum is found by ``bounds._worst_lambda``, the search
    ``holds_for_all_lambda`` reads, so on the same grid a witness exists
    exactly when that check fails.
    """
    gain = _limit_fn_for(case, side)
    grid = _lambda_grid(A, beta_claim, lambda_grid)
    lam, value = _worst_lambda(lambda lam: -gain(A, beta_claim, lam), beta_claim, grid)
    return (lam, -value) if value < FEASIBLE_TOL else None


def limit_difference_table(
    A: AdhesionFunction,
    case: FanCase,
    side: str,
    beta: float,
    lambda_grid=None,
) -> list[tuple[float, float]]:
    """(lambda, limiting gain) rows of Python floats for one wall, ready for
    CSV output; the gains are evaluated as ``bounds._on_grid`` does."""
    fn = _limit_fn_for(case, side)
    grid = _lambda_grid(A, beta, lambda_grid)
    gains = _on_grid(lambda lam: fn(A, beta, lam), grid)
    if hasattr(grid, "tolist"):
        # a list the caller gave already holds the grid's Python floats
        grid = lambda_grid if isinstance(lambda_grid, list) else grid.tolist()
        gains = gains.tolist()
    return list(zip(grid, gains))
