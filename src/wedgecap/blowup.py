"""Blow-up rescaling and triangular comparison geometry at the corner.

Near the corner the solution is rescaled by a vanishing factor; competitors
for the rescaled limit are built by cutting a triangle O-B-C out of the
half-plane bounded by a transversal ray.  The energy gain of that cut is a
finite closed form in the triangle data and one adhesion value, and a fan
width claimed below the admissible minimum yields a transversal direction
with strictly positive gain -- the contradiction witness.  The gain on a
lambda grid is the exact negation of the admissibility condition, so
``limit_sweep`` evaluates the condition once (``bounds._conditions``) for
both the table of gains and the witness, the grid's worst lambda polished.
A grid of Python floats runs without numpy, whatever the wall; an array
grid runs on numpy.  The triangles build numpy vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .base import SIDES, check_adhesion_bound
from .bounds import (
    FEASIBLE_TOL,
    AdhesionFunction,
    FanCase,
    _worst_condition,
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


def _condition_kind(case: FanCase, side: str) -> str:
    if side not in SIDES:
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    return dict(case_condition_map(case))[side]


def limit_sweep(A: AdhesionFunction, case: FanCase, side: str, beta: float, lambda_grid=None):
    """The limiting-gain table and the contradiction witness of one wall,
    from one evaluation of its condition on the grid: (table, witness).

    The grid is ``lambda_grid`` or ``default_lambda_grid(beta)``.  The table
    is (lambda, gain) rows of Python floats, ready for CSV output.  The
    witness is (lambda, gain) when the claimed fan width ``beta`` is
    inadmissible for the case and wall, and None when every direction has
    nonpositive gain.  The gain is minus the admissibility condition, whose
    minimum ``bounds._worst_lambda`` finds, the search
    ``holds_for_all_lambda`` reads: so on one grid a witness exists exactly
    when that check fails, and its grid point is the table's first maximum.
    """
    kind = _condition_kind(case, side)
    grid = default_lambda_grid(beta) if lambda_grid is None else lambda_grid
    conds, lam, value = _worst_condition(A, kind, beta, grid)
    if hasattr(grid, "tolist"):
        grid, gains = grid.tolist(), (-conds).tolist()
    else:
        gains = [-c for c in conds]
    return list(zip(grid, gains)), ((lam, -value) if value < FEASIBLE_TOL else None)


def contradiction_witness(A: AdhesionFunction, case: FanCase, side: str, beta_claim: float,
                          lambda_grid=None) -> tuple[float, float] | None:
    """Transversal direction with positive limiting gain, if one exists:
    ``limit_sweep``'s witness."""
    return limit_sweep(A, case, side, beta_claim, lambda_grid)[1]


def limit_difference_table(A: AdhesionFunction, case: FanCase, side: str, beta: float,
                           lambda_grid=None) -> list[tuple[float, float]]:
    """(lambda, limiting gain) rows of Python floats for one wall:
    ``limit_sweep``'s table."""
    return limit_sweep(A, case, side, beta, lambda_grid)[0]
