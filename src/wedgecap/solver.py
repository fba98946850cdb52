"""Finite-volume solver for the capillary problem on a truncated sector.

The corner is cut off at ``r_min > 0`` and the annular sector is meshed with
geometrically graded radii and uniform angles.  Unknowns live at vertices;
each control volume balances the slope fluxes grad f / sqrt(1 + |grad f|^2)
through its faces against the prescribed right-hand side.  Wall faces carry
the contact flux cos(gamma(r)) integrated exactly along the face, the two
circular arcs are closed (a manufactured case supplies all boundary fluxes
instead), and a damped Newton iteration drives the residual down.  The two
face families, radial faces between rows and angular faces between columns,
are each described once as data (``_FaceFamily``), and the residual and its
Jacobian each run one loop over them, each family in its own frame.  The
Jacobian is the residual's analytic linearisation, written onto the 9-point
pattern (the product of the radial and angular 3-point stencils), plus a
central difference of the right-hand side in the height on the diagonal; at
a right-hand side that does not read the height, 1^T J = J 1 = 0 up to
roundoff.  Newton stops as stalled once the residual has not halved over 10
accepted steps.  Each Newton system is solved directly by block elimination
along a nested dissection of the node grid, planned once per mesh, with dense
fronts in numpy's LAPACK.
Radial limits at the corner are then read off by geometric-sequence
extrapolation and classified into wall fans.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .elimination import Elimination, NewtonMatrix, _stencil_windows
from .profiles import (
    FAILS,
    ContactProfile,
    WedgeGeometry,
    hypothesis_from_profiles,
    theorem1_applicability,
)

_PIN_NOTE = "pure Neumann nullspace (mean pinned to 0)"
#: relative flux/source mismatch a pinned (pure Neumann) problem may carry
_BALANCE_TOL = 1e-8
#: the right-hand side's height slope is a central difference with step
#: _RHS_STEP * max(1, |f|), the step that balances truncation and roundoff
_RHS_STEP = np.finfo(float).eps ** (1.0 / 3.0)
#: Newton stops as stalled once the residual has not halved over this many
#: accepted steps
_STALL_STEPS = 10


# ---------------------------------------------------------------------------
# mesh


@dataclass(frozen=True, eq=False)
class SectorMesh:
    """Vertex grid on the truncated sector: graded radii, uniform angles."""

    geometry: WedgeGeometry
    radii: np.ndarray  # strictly decreasing, radii[0] = r_max, radii[-1] = r_min
    thetas: np.ndarray  # uniform, thetas[0] = -alpha, thetas[-1] = +alpha

    def __post_init__(self) -> None:
        r = np.asarray(self.radii, dtype=float)
        t = np.asarray(self.thetas, dtype=float)
        if r.ndim != 1 or t.ndim != 1:
            raise ValueError("mesh radii and angles must be 1-d arrays")
        # every consumer needs interior nodes: the 3-point stencils, the
        # trace's two radii and the fan classification's three angles
        if r.size < 3 or t.size < 3:
            raise ValueError(f"need m, n_theta >= 2, got ({r.size - 1}, {t.size - 1})")
        if not (r[-1] > 0.0) or np.any(np.diff(r) >= 0.0):
            raise ValueError("radii must decrease strictly toward r_min > 0")
        ratios = r[1:] / r[:-1]
        if np.ptp(ratios) > 1e-12:
            raise ValueError("radial grading ratio must be constant to 1e-12")
        a = self.geometry.alpha
        if abs(t[0] + a) > 1e-12 or abs(t[-1] - a) > 1e-12:
            raise ValueError("angular grid must span [-alpha, alpha]")
        if np.ptp(np.diff(t)) > 1e-12:
            raise ValueError("angular grid must be uniform")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "thetas", t)

    @property
    def m(self) -> int:
        return self.radii.size - 1

    @property
    def n_theta(self) -> int:
        return self.thetas.size - 1

    @property
    def r_min(self) -> float:
        return float(self.radii[-1])

    @property
    def r_max(self) -> float:
        return float(self.radii[0])

    @property
    def dtheta(self) -> float:
        return float((self.thetas[-1] - self.thetas[0]) / self.n_theta)

    @property
    def grading_ratio(self) -> float:
        return float(self.radii[1] / self.radii[0])


def build_sector_mesh(
    geometry: WedgeGeometry, r_min: float, r_max: float, m: int, n_theta: int
) -> SectorMesh:
    """Geometric radial grading with ratio (r_min/r_max)^(1/m), uniform angles.

    m and n_theta are cell counts; counts below 16 are accepted (the small
    closed-form examples use them) but solve-accuracy contracts assume >= 16.
    """
    if not (0.0 < r_min < r_max):
        raise ValueError(f"need 0 < r_min < r_max, got ({r_min}, {r_max})")
    if m < 1 or n_theta < 1:
        raise ValueError("cell counts must be positive")
    radii = np.exp(np.linspace(math.log(r_max), math.log(r_min), m + 1))
    radii[0], radii[-1] = r_max, r_min
    thetas = np.linspace(-geometry.alpha, geometry.alpha, n_theta + 1)
    return SectorMesh(geometry=geometry, radii=radii, thetas=thetas)


# ---------------------------------------------------------------------------
# solution container


@dataclass(frozen=True, eq=False)
class SolutionField:
    """Nodal solution with convergence metadata.

    ``residual_history`` holds the residual's max norm at the start and after
    each accepted Newton step, so it fixes the step count and the final
    residual; ``stop`` names why Newton stopped (see _newton_solve), and the
    solve converged when it stopped at the tolerance.  ``rhs_values`` holds
    the right-hand side evaluated at the solution (kappa*f + lambda, or
    2H(x,y,f) for the prescribed-curvature variant), so magnitude bounds read
    off the same field either way; it is all the field keeps of the physics.
    """

    mesh: SectorMesh
    values: np.ndarray  # shape (m+1, n_theta+1)
    rhs_values: np.ndarray
    residual_history: tuple
    stop: str
    diagnostics: dict = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        shape = (self.mesh.m + 1, self.mesh.n_theta + 1)
        if self.values.shape != shape or self.rhs_values.shape != shape:
            raise ValueError(f"field arrays must have shape {shape}")

    @property
    def residual_norm(self) -> float:
        return self.residual_history[-1]

    @property
    def newton_iterations(self) -> int:
        return len(self.residual_history) - 1

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


def bounds_estimate(field: SolutionField) -> tuple[float, float]:
    """(M1, M2): max nodal |f| and max nodal |right-hand side|."""
    return float(np.max(np.abs(field.values))), float(
        np.max(np.abs(field.rhs_values))
    )


def torus_minor_radius(m2: float) -> float:
    """Minor radius of the comparison torus with major radius 2.

    Evaluates x + 1 - sqrt(x^2 + 1) with x = 1/m2, which lies in (0, 1], in
    a form without cancellation: the result is within 4e-16 relative of the
    true value for m2 from 1e-300 to 1e300.  A negative or non-finite m2 is
    refused.
    """
    if not (0.0 <= m2 < math.inf):
        raise ValueError(f"curvature bound must be nonnegative and finite, got {m2}")
    if m2 == 0.0 or 1.0 / m2 == math.inf:  # 1/m2 overflows: the radius rounds to 1
        return 1.0
    x = 1.0 / m2
    # x + 1 - s with s = sqrt(x^2 + 1), written without a difference: no
    # cancellation at either end, and no overflow in s
    s = math.hypot(x, 1.0)
    return x * (1.0 + 1.0 / (s + x)) / (1.0 + s)


# ---------------------------------------------------------------------------
# discretization helpers


def _deriv_stencils(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node 3-point first-derivative stencils (indices, weights).

    Interior nodes get the nonuniform central stencil, the two ends get
    one-sided ones; all are exact for quadratics.  Nodes too close for
    finite weights (their spacings' product underflows) raise ValueError.
    """
    n = xs.size
    idx = _stencil_windows(n)
    a, b, c = xs[idx[:, 0]], xs[idx[:, 1]], xs[idx[:, 2]]
    p = xs
    w = np.empty((n, 3))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w[:, 0] = (2.0 * p - b - c) / ((a - b) * (a - c))
        w[:, 1] = (2.0 * p - a - c) / ((b - a) * (b - c))
        w[:, 2] = (2.0 * p - a - b) / ((c - a) * (c - b))
    bad = ~np.all(np.isfinite(w), axis=1)
    if np.any(bad):
        near = float(xs[np.argmax(bad)])
        raise ValueError(f"mesh nodes near {near!r} lie too close for finite derivative weights")
    return idx, w


def _gauss2(fn: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """Two-point Gauss integral of fn over each [lo, hi]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    off = half / math.sqrt(3.0)
    return half * (fn(mid - off) + fn(mid + off))


@dataclass(frozen=True)
class SolverConfig:
    """Newton iteration knobs."""

    tol: float = 1e-10
    max_iter: int = 200
    initial: float | None = None  # starting constant; None picks the default

    def __post_init__(self) -> None:
        if not (0.0 < self.tol < math.inf):
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.initial is not None and not math.isfinite(self.initial):
            raise ValueError(f"starting height must be finite, got {self.initial}")


# ---------------------------------------------------------------------------
# linear solve


def _spsolve(jac: NewtonMatrix, rhs: np.ndarray) -> np.ndarray:
    """x with jac x = rhs, by the block elimination planned for jac's mesh."""
    return jac.plan.solve(jac.data, rhs)


#: The solver's one linear-solve seam.  The benchmark's tracer
#: (perfbench/tracing.py) replaces this attribute to time every Newton solve,
#: so renaming it or its ``spsolve`` is a benchmark change.
spla = SimpleNamespace(spsolve=_spsolve)


@dataclass(frozen=True, eq=False)
class _FaceFamily:
    """One family of faces, seen in its own frame: axis 0 crosses the faces,
    face k lying between grid lines k and k + 1, and axis 1 runs along them.

    A face's flux density is scale * g(a, b), g = a / w and w = sqrt(1 + a^2
    + b^2), of its normal slope a, along axis 0, and its tangential slope b,
    the mean of its two nodes' stencil derivatives along axis 1.  The flux
    is that density times the face's weight, after each end of axis 1 has
    mixed its density toward the next one's."""

    spacing: np.ndarray  # arc length from line k to line k + 1
    stencil: tuple[np.ndarray, np.ndarray]  # derivative along axis 1 (_deriv_stencils)
    metric: np.ndarray | float  # arc length per unit of the stencil's coordinate
    scale: np.ndarray  # arc length per unit of the weights' measure
    weight: np.ndarray  # quadrature weight of each face along axis 1
    mix: tuple[float, float]  # share of the next density mixed in at each end
    ends: tuple[np.ndarray, np.ndarray]  # boundary fluxes of lines 0 and -1

    @property
    def place(self) -> np.ndarray:
        """Each node's place along axis 1 in its own stencil window."""
        idx = self.stencil[0]
        return np.arange(idx.shape[0]) - idx[:, 0]

    def slopes(self, f: np.ndarray):
        """(a, b, w) on every face, for f in this family's frame."""
        idx, wts = self.stencil
        d = np.einsum("jc,kjc->kj", wts, f[:, idx])
        a = (f[1:] - f[:-1]) / self.spacing
        b = 0.5 * (d[:-1] + d[1:]) / self.metric
        return a, b, np.sqrt(1.0 + a**2 + b**2)

    def flux(self, dens: np.ndarray) -> np.ndarray:
        """The face fluxes of densities, or of their derivatives by nodes at
        one window place along the faces (the ends' neighbours share their
        windows).  Mixes ``dens`` in place."""
        t0, t1 = self.mix
        dens[:, 0] = (1.0 - t0) * dens[:, 0] + t0 * dens[:, 1]
        dens[:, -1] = (1.0 - t1) * dens[:, -1] + t1 * dens[:, -2]
        return dens * self.weight


class _Discretization:
    """Precomputed geometry factors and the residual map for one problem.

    ``applicability`` is the walls' corner-hypothesis tag
    (``theorem1_applicability``), None for a manufactured case, whose
    boundary data are not contact angles.
    """

    def __init__(
        self,
        mesh: SectorMesh,
        rhs_fn,  # (r, theta, t) -> value, vectorized
        profile_plus: ContactProfile | None,
        profile_minus: ContactProfile | None,
        case: ManufacturedCase | None = None,
    ):
        self.mesh = mesh
        self.rhs_fn = rhs_fn
        r, t = mesh.radii, mesh.thetas
        self.r_col = r[:, None]
        self.t_row = t[None, :]
        # control-volume radial extents (half cells at the two arcs)
        s_face = 0.5 * (r[:-1] + r[1:])  # radial faces, between rows i and i+1
        b_out = np.concatenate([[r[0]], s_face])  # per row
        b_in = np.concatenate([s_face, [r[-1]]])
        # angular spans of the control volumes (half cells at the walls)
        dth = mesh.dtheta
        width = np.full(mesh.n_theta + 1, dth)
        width[0] = width[-1] = 0.5 * dth
        self.area = 0.5 * (b_out**2 - b_in**2)[:, None] * width[None, :]
        # conductance of angular faces: exact integral of dr/r across the row
        cond = np.log(b_out / b_in)
        # interpolation weights moving the arc rows' flux density to the
        # log-mean radius of their half spans
        rstar0 = (b_out[0] - b_in[0]) / cond[0]
        rstarm = (b_out[-1] - b_in[-1]) / cond[-1]
        arc_interp = ((r[0] - rstar0) / (r[0] - r[1]), (rstarm - r[-1]) / (r[-2] - r[-1]))
        # boundary face integrals are solution-independent; walls take their
        # flux from the profiles with closed arcs, or all boundary data and
        # the extra source g(r, theta) from a manufactured case
        if case is None:
            spans = (b_in, b_out)
            walls = (
                _wall_integrals(spans, profile_minus, mesh.r_max, "-"),
                _wall_integrals(spans, profile_plus, mesh.r_max, "+"),
            )
            self.applicability = theorem1_applicability(
                mesh.geometry, hypothesis_from_profiles(profile_plus, profile_minus)
            )
            arcs = (np.zeros(t.size),) * 2
            self.source = np.zeros(self.shape)
        else:
            walls = (_gauss2(case.wall_flux, b_in, b_out),) * 2
            self.applicability = None
            # the flux along +r leaves through the outer arc and enters through the inner one
            arcs = (
                _arc_integrals(mesh, case.arc_flux, mesh.r_max),
                -_arc_integrals(mesh, case.arc_flux, mesh.r_min),
            )
            self.source = case.source(self.r_col, self.t_row) * self.area
        # radial faces (arcs between rows, weighed by the control volumes'
        # angular widths, their density a quarter of the way to the next at
        # the walls: the integral of its linear reconstruction over the half
        # face) and angular faces (radial segments between columns, weighed
        # by cond, the arc rows' density moved to their half spans)
        s = s_face[:, None]
        self.families = (
            _FaceFamily(spacing=(r[:-1] - r[1:])[:, None], stencil=_deriv_stencils(t),
                        metric=s, scale=s, weight=width, mix=(0.25, 0.25), ends=arcs),
            _FaceFamily(spacing=dth * r, stencil=_deriv_stencils(r),
                        metric=1.0, scale=r, weight=cond, mix=arc_interp, ends=walls),
        )
        self._plan: Elimination | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.mesh.m + 1, self.mesh.n_theta + 1

    def residual(self, f: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape, dtype=f.dtype)
        for fam, fv, ov in zip(self.families, (f, f.T), (out, out.T)):
            a, b, w = fam.slopes(fv)
            q = fam.flux(a / w * fam.scale)
            # the flux along axis 0 through face k leaves line k's control
            # volume and enters line k + 1's
            ov[1:] -= q
            ov[:-1] += q
            ov[0] += fam.ends[0]
            ov[-1] += fam.ends[1]
        out -= self.rhs_at(f) * self.area
        out -= self.source
        return out

    def rhs_at(self, f: np.ndarray) -> np.ndarray:
        """The right-hand side at the nodal heights f, on every node, in f's
        dtype: the one place ``rhs_fn`` is called."""
        rhs = self.rhs_fn(self.r_col, self.t_row, f)
        return np.broadcast_to(rhs, self.shape).astype(f.dtype)

    def jacobian(self, f: np.ndarray) -> NewtonMatrix:
        """The residual's Jacobian at f, linearised analytically and written
        onto the grid's 9-point pattern (``elimination._grid_pattern``):
        vals[i, j, a, b] is the derivative of residual (i, j) by the node at
        place a of row i's radial stencil window and place b of column j's
        angular one.

        Each face family runs in its own frame, as ``residual`` runs it (the
        angular one on the transposed view of vals).  With dg/da = (1 + b^2)
        / w^3 and dg/db = -a b / w^3, the density of face k at place j
        along the faces has, by the node at window place c along them on
        line k + 1, the derivative scale (dg/da unit / spacing + dg/db
        weight / (2 metric)), with unit 1 where that node is the face's own
        and weight the stencil's at it; by the node on line k, the dg/da
        term changes sign.  Every such node lies inside the windows of the
        two lines that take the face's flux, and ``_FaceFamily.flux`` mixes
        and weighs these derivatives as it does the densities.  The
        right-hand side adds its slope in the height times the area on the
        diagonal: one central difference of ``rhs_fn``, step eps^(1/3)
        max(1, |f|), exactly 0 for a right-hand side that does not read the
        height.  The fluxes read only differences of f, so with that slope 0
        the Jacobian has J 1 = 0 and 1^T J = 0 up to roundoff.
        """
        vals = np.zeros(self.shape + (3, 3))
        for fam, fv, v in zip(self.families, (f, f.T), (vals, vals.transpose(1, 0, 3, 2))):
            a, b, w = fam.slopes(fv)
            w3 = w**3
            ga = (1.0 + b**2) / w3 * (fam.scale / fam.spacing)
            gb = a * b / w3 * (-0.5 * fam.scale / fam.metric)
            for c in range(3):  # one window place along the faces at a time
                common, own = gb * fam.stencil[1][:, c], ga * (fam.place == c)
                lo, hi = fam.flux(common - own), fam.flux(common + own)
                # line k gains flux k and reads lines k, k + 1 at window
                # places 1, 2 (0, 1 on the first line); line k + 1 loses it
                # and reads them at 0, 1 (1, 2 on the last line)
                u = v[..., c]
                u[0, :, 0] += lo[0]
                u[0, :, 1] += hi[0]
                u[1:-1, :, 1] += lo[1:]
                u[1:-1, :, 2] += hi[1:]
                u[1:-1, :, 0] -= lo[:-1]
                u[1:-1, :, 1] -= hi[:-1]
                u[-1, :, 1] -= lo[-1]
                u[-1, :, 2] -= hi[-1]

        # the right-hand side's slope in the height, on the diagonal
        h = _RHS_STEP * np.maximum(1.0, np.abs(f))
        up, down = f + h, f - h
        slope = (self.rhs_at(up) - self.rhs_at(down)) / (up - down)
        radial, angular = self.families  # each places the nodes along its faces
        i, j = np.indices(self.shape, sparse=True)
        vals[i, j, angular.place[:, None], radial.place] -= slope * self.area
        if self._plan is None:  # the mesh's linear-solve plan, built once
            self._plan = Elimination(self.shape)
        return NewtonMatrix(self._plan, vals.ravel())


def _newton_step(
    disc: _Discretization, f: np.ndarray, res: np.ndarray, weights: np.ndarray | None
) -> np.ndarray:
    """The Newton step at f, whose residual is res, on the analytic
    Jacobian (``_Discretization.jacobian``).

    With ``weights`` w (the area weights), the problem is pure Neumann: its
    Jacobian J has 1^T J = 0 and J 1 = 0, and the mean constraint
    w^T (f + delta) = 0 fixes the step:
    [[J, w], [w^T, 0]] [delta; mu] = [-res; -w^T f].  The step is solved on
    J itself, whose row and column sums are 0 up to roundoff.  As 1^T J = 0,
    mu is the sum of -res, and -res - mu w sums to 0.  Node (0, 0), whose
    own entry is the first stored value, is grounded by doubling that entry:
    the matrix is then regular, and as the right-hand side sums to 0 its
    solution is 0 at that node and solves J delta = -res - mu w.  The step
    is then shifted by the constant that sets the weighted mean of f + delta
    to 0.
    """
    jac = disc.jacobian(f)
    rhs = -res.ravel()
    if weights is not None:
        rhs -= rhs.sum() * weights
        jac.data[0] *= 2.0
    delta = spla.spsolve(jac, rhs)
    if weights is not None:
        delta -= weights @ (f.ravel() + delta)
    return delta.reshape(f.shape)


def _newton_solve(
    disc: _Discretization, f0: np.ndarray, config: SolverConfig, weights: np.ndarray | None
):
    """Damped Newton loop; returns (f, history, stop): the residual's max
    norm at the start and after each accepted step, and why it stopped:
    ``converged`` at the tolerance; ``stalled`` after an accepted step k >=
    _STALL_STEPS whose residual is above half of that at step k -
    _STALL_STEPS; ``max_iter`` after config.max_iter steps; ``non_finite``
    at a Newton step that is not finite; ``line_search`` when 31 step
    lengths down to 2^-30 find no descent.  With the area ``weights`` the
    problem is pinned, and each step holds the weighted mean at 0 (see
    _newton_step); _solve centres the start.  A start whose residual is not
    finite raises ValueError before any step."""
    f = f0.copy()
    res = disc.residual(f)
    if not np.all(np.isfinite(res)):
        raise ValueError(
            f"the residual at the start (max |f| = {float(np.max(np.abs(f)))!r}) is not finite"
        )
    history = [float(np.max(np.abs(res)))]
    while True:
        norm = history[-1]
        if norm <= config.tol:
            return f, tuple(history), "converged"
        if len(history) > _STALL_STEPS and norm > 0.5 * history[-1 - _STALL_STEPS]:
            return f, tuple(history), "stalled"
        if len(history) > config.max_iter:
            return f, tuple(history), "max_iter"
        delta = _newton_step(disc, f, res, weights)
        if not np.all(np.isfinite(delta)):
            return f, tuple(history), "non_finite"
        t = 1.0
        while t >= 2.0**-30:
            trial = f + t * delta
            res_t = disc.residual(trial)
            norm_t = float(np.max(np.abs(res_t)))
            if norm_t <= (1.0 - 1e-4 * t) * norm or norm_t <= config.tol:
                break
            t *= 0.5
        else:
            return f, tuple(history), "line_search"
        f, res = trial, res_t
        history.append(norm_t)


def _wall_integrals(
    disc_spans: tuple[np.ndarray, np.ndarray],
    profile: ContactProfile | None,
    r_max: float,
    side: str,
) -> np.ndarray:
    """Per-row exact integrals of the profile's cos(gamma) along one wall."""
    b_in, b_out = disc_spans
    if profile is None:
        raise ValueError(f"side {side}: need a contact profile")
    if profile.side != side:
        raise ValueError(f"profile tagged {profile.side!r} used on wall {side!r}")
    if profile.s_max < r_max * (1.0 - 1e-12):
        raise ValueError(
            f"profile on side {side} covers arclength {profile.s_max}, "
            f"mesh needs {r_max}"
        )
    hi = np.minimum(b_out, profile.s_max)
    return profile.integral_many(hi) - profile.integral_many(b_in)


def _arc_integrals(mesh: SectorMesh, flux: Callable, radius: float) -> np.ndarray:
    """Per-column integrals of the flux flux(radius, theta) through one arc."""
    t = mesh.thetas
    mids = 0.5 * (t[:-1] + t[1:])
    out = np.zeros(t.size)
    # each node owns the halves of its adjacent angular cells
    out[:-1] += _gauss2(lambda x: flux(radius, x), t[:-1], mids) * radius
    out[1:] += _gauss2(lambda x: flux(radius, x), mids, t[1:]) * radius
    return out


def _check_balance(disc: _Discretization):
    """Flux/source compatibility for the rank-deficient (pinned) problem,
    whose right-hand side is read at height 0."""
    influx = float(sum(end.sum() for fam in disc.families for end in fam.ends))
    src = float((disc.rhs_at(np.zeros(disc.shape)) * disc.area).sum() + disc.source.sum())
    mismatch = influx - src
    scale = 1.0 + abs(influx) + abs(src)
    if abs(mismatch) > _BALANCE_TOL * scale:
        raise ValueError(
            f"solvability balance violated: net boundary flux {influx} vs "
            f"source integral {src}"
        )
    return mismatch


def _solve(
    problem: str,
    disc: _Discretization,
    config: SolverConfig | None,
    *,
    start: float,
    pinned: bool,
) -> SolutionField:
    """Newton solve of the problem ``disc`` discretizes, div(Tf) =
    disc.rhs_fn(r, theta, f), shared by every solver; each builds its own
    ``disc``.

    ``start`` is the starting constant unless the config sets one.
    ``pinned`` says the problem is pure Neumann (its right-hand side does not
    depend on the height); each solver decides it by its own rule.  A pinned
    problem's boundary flux must balance its source, read at height 0, and
    its mean is held at 0: the start is shifted to area-weighted mean 0, and
    so is each Newton step, so no start moves the solution's mean.  The
    walls' corner-hypothesis tag is recorded, and a FAILS tag warns.
    """
    config = config or SolverConfig()
    diagnostics: dict = {"problem": problem, "applicability": disc.applicability}
    if disc.applicability == FAILS:
        warnings.warn(
            "contact-angle data violate the corner hypothesis; radial limits "
            "may not exist",
            RuntimeWarning,
            stacklevel=3,  # the caller of the public solver
        )
    if config.initial is not None:
        start = config.initial
    f0 = np.full(disc.shape, float(start))
    weights = None
    if pinned:
        diagnostics["nullspace"] = _PIN_NOTE
        diagnostics["balance_mismatch"] = _check_balance(disc)
        weights = (disc.area / disc.area.sum()).ravel()
        f0 -= weights @ f0.ravel()
    f, history, stop = _newton_solve(disc, f0, config, weights)
    return SolutionField(
        mesh=disc.mesh,
        values=f,
        rhs_values=disc.rhs_at(f),
        residual_history=history,
        stop=stop,
        diagnostics=diagnostics,
    )


def solve_capillary(
    mesh: SectorMesh,
    kappa: float,
    lam: float,
    profile_plus: ContactProfile,
    profile_minus: ContactProfile,
    config: SolverConfig | None = None,
) -> SolutionField:
    """Solve div(Tf) = kappa*f + lam with contact-flux walls.

    Wall fluxes are exact per-face integrals of the profiles' cos(gamma) and
    the circular arcs are closed (no flux).  kappa = 0 exactly makes the
    problem pinned.
    """
    if kappa < 0.0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    disc = _Discretization(
        mesh,
        lambda r, t, z: kappa * z + lam,
        profile_plus,
        profile_minus,
    )
    return _solve(
        "capillary",
        disc,
        config,
        start=-lam / kappa if kappa > 0.0 else 0.0,
        pinned=kappa == 0.0,
    )


def solve_pmc(
    mesh: SectorMesh,
    curvature: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    profile_plus: ContactProfile,
    profile_minus: ContactProfile,
    config: SolverConfig | None = None,
) -> SolutionField:
    """Solve div(Tf) = 2 * curvature(x, y, f); curvature weakly increasing in f.

    Reduces exactly to solve_capillary when curvature(x,y,t) = (kappa*t+lam)/2
    and the same config (including ``initial``) is used.  Wall fluxes always
    come from the profiles and both circular arcs are closed.  A curvature
    whose sampled slope in the height is below 1e-13 at the heights -1, 0
    and 1 (probed on the mesh before the solve) makes the problem pure
    Neumann: the mean is pinned to 0 from any start, and the wall flux must
    balance the source at height 0.  Monotonicity is the caller's assertion;
    a sampled check over the returned field's range lands in
    diagnostics["monotone_ok"].
    """

    def rhs_fn(r, t, z):
        return 2.0 * curvature(r * np.cos(t), r * np.sin(t), z)

    disc = _Discretization(mesh, rhs_fn, profile_plus, profile_minus)

    def rhs_at(z):  # the right-hand side on the mesh at the constant height z
        return disc.rhs_at(np.full(disc.shape, z))

    probe = 1e-6
    flat = all(
        float(np.max(np.abs(rhs_at(h + probe) - rhs_at(h)) / probe)) < 1e-13
        for h in (-1.0, 0.0, 1.0)
    )
    field = _solve(
        "pmc",
        disc,
        config,
        start=0.0,
        pinned=flat,
    )
    lo, hi = float(np.min(field.values)), float(np.max(field.values))
    ts = np.linspace(lo, hi, 5) if hi > lo else np.array([lo, lo + 1.0])
    samples = [rhs_at(tv) for tv in ts]
    mono = all(
        np.all(b >= a - 1e-12 * (1.0 + np.abs(a))) for a, b in zip(samples, samples[1:])
    )
    if not mono:
        warnings.warn(
            "sampled curvature decreases in the height argument on the "
            "solution range",
            RuntimeWarning,
            stacklevel=2,  # the caller of solve_pmc
        )
    field.diagnostics["monotone_ok"] = bool(mono)
    return field


# ---------------------------------------------------------------------------
# radial limits


@dataclass(frozen=True, eq=False)
class RadialTrace:
    """Extrapolated corner limits per angle, with the last correction."""

    thetas: np.ndarray
    rf: np.ndarray  # extrapolated limit per theta
    residual: np.ndarray  # per-theta extrapolation residual

    def __post_init__(self) -> None:
        if self.rf.shape != self.thetas.shape or self.residual.shape != self.thetas.shape:
            raise ValueError("per-theta arrays must match the theta grid")


def radial_trace(
    field: SolutionField, n_radii: int, allow_unconverged: bool = False
) -> RadialTrace:
    """Extrapolate f(r, theta) -> r = 0 from the n_radii smallest radii.

    The mesh radii form a geometric sequence, so repeated Richardson steps
    with the known ratio remove integer powers of r one at a time; the
    reported residual per theta is the magnitude of the last correction.
    """
    if not field.converged and not allow_unconverged:
        raise RuntimeError("radial_trace requires a converged field")
    mesh = field.mesh
    if not (2 <= n_radii <= mesh.m):
        raise ValueError(f"n_radii must lie in [2, m={mesh.m}], got {n_radii}")
    tableau = field.values[-n_radii:][::-1].copy()  # ascending from the smallest radius
    q = float(mesh.radii[-2] / mesh.radii[-1])
    top = tableau[0].copy()
    for level in range(1, n_radii):
        factor = q**level - 1.0
        # difference form keeps exact constants exact
        tableau = tableau[:-1] + (tableau[:-1] - tableau[1:]) / factor
        top_prev = top
        top = tableau[0].copy()
    residual = np.abs(top - top_prev)
    return RadialTrace(thetas=mesh.thetas.copy(), rf=top, residual=residual)


# ---------------------------------------------------------------------------
# fan classification


CASE_CONSTANT = "constant"
CASE_UNCLASSIFIED = "unclassified"


@dataclass(frozen=True, eq=False)
class FanMeasurement:
    """Wall-fan decomposition of a radial-limit trace.

    ``alpha1``/``alpha2`` bound the non-constant middle; the wall fans are
    beta_minus = alpha1 + alpha and beta_plus = alpha - alpha2.  For the
    plateau cases the interior plateau [alpha_l, alpha_r] must span pi.  The
    constant case reports alpha1 = alpha and alpha2 = -alpha so the fan
    widths still partition the opening.
    """

    case: str
    alpha: float
    alpha1: float
    alpha2: float
    alpha_l: float | None
    alpha_r: float | None
    tolerance: float
    diagnostics: dict = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.case not in (CASE_CONSTANT, CASE_UNCLASSIFIED, "I", "D", "ID", "DI"):
            raise ValueError(f"unknown case tag {self.case!r}")
        a = self.alpha
        if self.case not in (CASE_CONSTANT, CASE_UNCLASSIFIED):
            if not (-a <= self.alpha1 < self.alpha2 <= a):
                raise ValueError("need -alpha <= alpha1 < alpha2 <= alpha")
        if self.case in ("ID", "DI"):
            if self.alpha_l is None or self.alpha_r is None:
                raise ValueError("plateau cases need alpha_l and alpha_r")
            # the plateau edges live on the grid, so allow one spacing of slack
            slack = self.tolerance + self.diagnostics.get("grid_spacing", 0.0)
            if abs((self.alpha_r - self.alpha_l) - math.pi) > slack:
                raise ValueError("interior plateau must span pi within tolerance")

    @property
    def beta_minus(self) -> float:
        return self.alpha1 + self.alpha

    @property
    def beta_plus(self) -> float:
        return self.alpha - self.alpha2


def _flat_prefix(vals: np.ndarray, tol: float) -> int:
    """Last index k such that vals[: k + 1] has value range <= tol."""
    span = np.maximum.accumulate(vals) - np.minimum.accumulate(vals)
    return int(np.count_nonzero(span <= tol)) - 1


def _longest_flat_window(vals: np.ndarray, tol: float) -> tuple[int, int]:
    """Indices [a, b] of the widest window with value range <= tol, the
    first of them on ties."""
    ends = np.array([a + _flat_prefix(vals[a:], tol) for a in range(vals.size)])
    a = int(np.argmax(ends - np.arange(vals.size)))
    return a, int(ends[a])


def _trend(vals: np.ndarray, tol: float) -> int:
    """+1 if vals rise by more than tol with no step down beyond tol, -1 for
    the mirror image, 0 otherwise."""
    steps, net = np.diff(vals), vals[-1] - vals[0]
    if net > tol and np.all(steps >= -tol):
        return 1
    if net < -tol and np.all(steps <= tol):
        return -1
    return 0


def measure_fans(rf: np.ndarray, thetas: np.ndarray, tol: float) -> FanMeasurement:
    """Classify a radial-limit trace into wall fans and a monotone middle.

    Plateaus are maximal runs whose value range stays within ``tol``.  The
    interior-plateau cases additionally require the opening to exceed pi and
    the plateau to span pi within one grid spacing plus ``tol``.
    """
    rf = np.asarray(rf, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    if rf.shape != thetas.shape or rf.ndim != 1 or rf.size < 3:
        raise ValueError("need matching 1-d rf/theta arrays with >= 3 samples")
    if not np.all(np.isfinite(rf)):
        raise ValueError("radial limits must be finite")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    alpha = float(thetas[-1])
    dth = float(thetas[1] - thetas[0])
    diag: dict = {
        "total_variation": float(np.max(rf) - np.min(rf)),
        "grid_spacing": dth,
    }

    def classified(case: str, a1: float, a2: float, al=None, ar=None) -> FanMeasurement:
        return FanMeasurement(
            case=case, alpha=alpha, alpha1=a1, alpha2=a2, alpha_l=al, alpha_r=ar,
            tolerance=tol, diagnostics=diag,
        )

    # maximal wall plateaus; they meet or overlap when the whole trace is flat
    k_left = _flat_prefix(rf, tol)
    k_right = rf.size - 1 - _flat_prefix(rf[::-1], tol)
    if k_left >= k_right:
        return classified(CASE_CONSTANT, alpha, -alpha)

    mid = rf[k_left : k_right + 1]
    diag.update(k_left=k_left, k_right=k_right, net_change=float(mid[-1] - mid[0]))
    a1, a2 = float(thetas[k_left]), float(thetas[k_right])
    trend = _trend(mid, tol)
    if trend:
        return classified("I" if trend > 0 else "D", a1, a2)

    # non-monotone middle: look for an interior plateau spanning pi, with a
    # monotone flank on each side running opposite ways
    a, b = (k + k_left for k in _longest_flat_window(mid, tol))
    width = float(thetas[b] - thetas[a])
    diag.update(plateau=(a, b), plateau_width=width)
    gate = 2.0 * alpha > math.pi
    if gate and abs(width - math.pi) <= dth + tol:
        flanks = (_trend(rf[k_left : a + 1], tol), _trend(rf[b : k_right + 1], tol))
        if flanks in ((1, -1), (-1, 1)):
            case = "ID" if flanks[0] > 0 else "DI"
            return classified(case, a1, a2, float(thetas[a]), float(thetas[b]))
    diag["gate_2alpha_gt_pi"] = gate
    return classified(CASE_UNCLASSIFIED, a1, a2)


def fans_from_trace(trace: RadialTrace) -> FanMeasurement:
    """Fan classification with a noise-aware tolerance.

    The tolerance is 10x the median extrapolation residual (floored at
    1e-12), so plateaus must clear extrapolation noise.  The median is taken
    by hand: np.median imports numpy.ma on its first call.
    """
    res = np.sort(trace.residual)  # NaN sorts last
    if res.size == 0 or np.isnan(res[-1]):
        median = math.nan  # as np.median gives; measure_fans then rejects the trace
    else:
        half = res.size // 2
        median = float(res[half] if res.size % 2 else (res[half - 1] + res[half]) / 2.0)
    tol = max(10.0 * median, 1e-12)
    return measure_fans(trace.rf, trace.thetas, tol)


# ---------------------------------------------------------------------------
# manufactured verification case


@dataclass(frozen=True)
class ManufacturedCase:
    """Forcing and boundary data that make r^2 cos(theta) the exact solution."""

    alpha: float
    kappa: float
    lam: float

    def exact(self, r, theta):
        return r**2 * np.cos(theta)

    def _w(self, r, theta):
        return np.sqrt(1.0 + r**2 * (1.0 + 3.0 * np.cos(theta) ** 2))

    def source(self, r, theta):
        # divergence of the normalized slope field of r^2 cos(theta), minus
        # the capillary right-hand side at the exact solution
        w = self._w(r, theta)
        div = 3.0 * np.cos(theta) / w - r**2 * np.cos(theta) * (
            5.0 + 3.0 * np.cos(theta) ** 2
        ) / w**3
        return div - self.kappa * self.exact(r, theta) - self.lam

    def wall_flux(self, r):
        # outward slope flux on either wall; symmetric because cos is even
        return -r * math.sin(self.alpha) / self._w(r, self.alpha)

    def arc_flux(self, r, theta):
        # slope flux along +r through the arc of radius r
        return 2.0 * r * np.cos(theta) / self._w(r, theta)


def manufactured_case(alpha: float = 1.0, kappa: float = 1.0, lam: float = 0.3):
    return ManufacturedCase(alpha=alpha, kappa=kappa, lam=lam)


def manufactured_solve(
    case: ManufacturedCase, m: int, n_theta: int
) -> tuple[SolutionField, float]:
    """Solve one manufactured run on r in [0.1, 1] from a zero start.

    Returns (field, max nodal error).
    """
    r_min, r_max = 0.1, 1.0
    mesh = build_sector_mesh(WedgeGeometry(case.alpha), r_min, r_max, m, n_theta)
    # the case's wall and arc fluxes drive the boundary, and its source
    # g(r, theta) joins the right-hand side kappa*f + lam
    disc = _Discretization(
        mesh,
        lambda r, t, z: case.kappa * z + case.lam,
        None,
        None,
        case,
    )
    field = _solve(
        "capillary",
        disc,
        SolverConfig(),
        start=0.0,
        pinned=case.kappa == 0.0,
    )
    exact = case.exact(mesh.radii[:, None], mesh.thetas[None, :])
    err = float(np.max(np.abs(field.values - exact)))
    return field, err


def manufactured_convergence(sizes: tuple[int, ...]) -> dict:
    """Max-norm errors of the default manufactured case on s x s meshes, and
    the observed order per refinement; each size must refine the one before."""
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"manufactured sizes must increase strictly, got {sizes}")
    case = manufactured_case()
    errors = [manufactured_solve(case, s, s)[1] for s in sizes]
    rates = [
        math.log(errors[i] / errors[i + 1])
        / math.log(sizes[i + 1] / sizes[i])
        for i in range(len(sizes) - 1)
    ]
    return {"sizes": list(sizes), "errors": errors, "rates": rates}
