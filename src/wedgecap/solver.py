"""Finite-volume solver for the capillary problem on a truncated sector.

The corner is cut off at ``r_min > 0`` and the annular sector is meshed with
geometrically graded radii and uniform angles.  Unknowns live at vertices;
each control volume balances the slope fluxes grad f / sqrt(1 + |grad f|^2)
through its faces against the prescribed right-hand side.  Wall faces carry
the contact flux cos(gamma(r)) integrated exactly along the face, the two
circular arcs are closed (a manufactured case supplies all boundary fluxes
instead), and a damped Newton iteration with a colored finite-difference
Jacobian (its pattern the product of the radial and angular 3-point
stencils, 9 colours) drives the residual down.  Each Newton system is solved
directly by block elimination along a nested dissection of the node grid,
planned once per mesh, with dense fronts in numpy's LAPACK.
Radial limits at the corner are then read off by geometric-sequence
extrapolation and classified into wall fans.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
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
        if r.ndim != 1 or r.size < 2 or t.ndim != 1 or t.size < 2:
            raise ValueError("mesh needs at least 2 radii and 2 angles")
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
    each accepted Newton step, so it fixes the step count, the final residual
    and, against ``tol``, whether the solve converged.  ``rhs_values`` holds
    the right-hand side evaluated at the solution (kappa*f + lambda, or
    2H(x,y,f) for the prescribed-curvature variant), so magnitude bounds read
    off the same field either way; it is all the field keeps of the physics.
    """

    mesh: SectorMesh
    values: np.ndarray  # shape (m+1, n_theta+1)
    tol: float
    rhs_values: np.ndarray
    residual_history: tuple
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
        return self.residual_norm <= self.tol


def bounds_estimate(field: SolutionField) -> tuple[float, float]:
    """(M1, M2): max nodal |f| and max nodal |right-hand side|."""
    return float(np.max(np.abs(field.values))), float(
        np.max(np.abs(field.rhs_values))
    )


def torus_minor_radius(m2: float) -> float:
    """Minor radius of the comparison torus with major radius 2.

    Evaluates 1/m2 + 1 - sqrt((1/m2)^2 + 1), which lies in (0, 1]; rational
    inputs whose surd is exact are computed in exact arithmetic so values
    like 2/3 come out as the nearest float of the true value.  A negative or
    non-finite m2 is refused.
    """
    if not (0.0 <= m2 < math.inf):
        raise ValueError(f"curvature bound must be nonnegative and finite, got {m2}")
    if m2 == 0.0 or 1.0 / m2 == math.inf:  # 1/m2 overflows: the radius rounds to 1
        return 1.0
    x = 1 / Fraction(m2)
    s2 = x * x + 1
    ra, rb = math.isqrt(s2.numerator), math.isqrt(s2.denominator)
    if ra * ra == s2.numerator and rb * rb == s2.denominator:
        return float(x + 1 - Fraction(ra, rb))
    xf = 1.0 / m2
    # x + 1 - s with s = sqrt(x^2 + 1), written without a difference: no
    # cancellation at either end, and no overflow in s
    s = math.hypot(xf, 1.0)
    return xf * (1.0 + 1.0 / (s + xf)) / (1.0 + s)


# ---------------------------------------------------------------------------
# discretization helpers


def _deriv_stencils(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node 3-point first-derivative stencils (indices, weights).

    Interior nodes get the nonuniform central stencil, the two ends get
    one-sided ones; all are exact for quadratics.
    """
    n = xs.size
    idx = _stencil_windows(n)
    a, b, c = xs[idx[:, 0]], xs[idx[:, 1]], xs[idx[:, 2]]
    p = xs
    w = np.empty((n, 3))
    w[:, 0] = (2.0 * p - b - c) / ((a - b) * (a - c))
    w[:, 1] = (2.0 * p - a - c) / ((b - a) * (b - c))
    w[:, 2] = (2.0 * p - a - b) / ((c - a) * (c - b))
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


# ---------------------------------------------------------------------------
# linear solve


def _spsolve(jac: NewtonMatrix, rhs: np.ndarray) -> np.ndarray:
    """x with jac x = rhs, by the block elimination planned for jac's mesh."""
    return jac.plan.solve(jac.data, rhs)


#: The solver's one linear-solve seam.  The benchmark's tracer
#: (perfbench/tracing.py) replaces this attribute to time every Newton solve,
#: so renaming it or its ``spsolve`` is a benchmark change.
spla = SimpleNamespace(spsolve=_spsolve)


class _Discretization:
    """Precomputed geometry factors and the residual map for one problem."""

    def __init__(
        self,
        mesh: SectorMesh,
        rhs_fn,  # (r, theta, t) -> value, vectorized
        profile_plus: ContactProfile | None,
        profile_minus: ContactProfile | None,
        case: ManufacturedCase | None = None,
    ):
        if mesh.m < 2 or mesh.n_theta < 2:
            raise ValueError(f"need m, n_theta >= 2, got ({mesh.m}, {mesh.n_theta})")
        self.mesh = mesh
        self.rhs_fn = rhs_fn
        r, t = mesh.radii, mesh.thetas
        self.r_col = r[:, None]
        self.t_row = t[None, :]
        # control-volume radial extents (half cells at the two arcs)
        s_face = 0.5 * (r[:-1] + r[1:])  # radial faces, between rows i and i+1
        self.s_face = s_face
        self.b_out = np.concatenate([[r[0]], s_face])  # per row
        self.b_in = np.concatenate([s_face, [r[-1]]])
        # angular spans of the control volumes (half cells at the walls)
        dth = mesh.dtheta
        w = np.full(mesh.n_theta + 1, dth)
        w[0] = w[-1] = 0.5 * dth
        self.dth = dth
        # nodal derivative stencils
        self.ridx, self.rw = _deriv_stencils(r)
        self.tidx, self.tw = _deriv_stencils(t)
        # conductance of angular faces: exact integral of dr/r across the row
        self.cond = np.log(self.b_out / self.b_in)
        # interpolation weights moving the arc rows' flux density to the
        # log-mean radius of their half spans
        rstar0 = (self.b_out[0] - self.b_in[0]) / self.cond[0]
        rstarm = (self.b_out[-1] - self.b_in[-1]) / self.cond[-1]
        self.arc_interp = (
            (r[0] - rstar0) / (r[0] - r[1]),
            (rstarm - r[-1]) / (r[-2] - r[-1]),
        )
        self.area = 0.5 * (self.b_out**2 - self.b_in**2)[:, None] * w[None, :]
        # boundary face integrals are solution-independent; walls take their
        # flux from the profiles with closed arcs, or all boundary data and
        # the extra source g(r, theta) from a manufactured case
        if case is None:
            spans = (self.b_in, self.b_out)
            self.wall_minus = _wall_integrals(spans, profile_minus, mesh.r_max, "-")
            self.wall_plus = _wall_integrals(spans, profile_plus, mesh.r_max, "+")
            self.arc_outer = self.arc_inner = np.zeros(mesh.n_theta + 1)
            self.source = np.zeros(self.shape)
        else:
            self.wall_minus = self.wall_plus = _gauss2(case.wall_flux, self.b_in, self.b_out)
            # the flux along +r leaves through the outer arc and enters through the inner one
            self.arc_outer = _arc_integrals(mesh, case.arc_flux, mesh.r_max)
            self.arc_inner = -_arc_integrals(mesh, case.arc_flux, mesh.r_min)
            self.source = case.source(self.r_col, self.t_row) * self.area
        self._plan: Elimination | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.mesh.m + 1, self.mesh.n_theta + 1

    def _nodal_dr(self, f: np.ndarray) -> np.ndarray:
        return np.einsum("ik,ikj->ij", self.rw, f[self.ridx, :])

    def _nodal_dt(self, f: np.ndarray) -> np.ndarray:
        return np.einsum("jk,ijk->ij", self.tw, f[:, self.tidx])

    def residual(self, f: np.ndarray) -> np.ndarray:
        mesh = self.mesh
        r = mesh.radii
        fr = self._nodal_dr(f)
        ft = self._nodal_dt(f)

        # radial faces: slope flux through arcs between consecutive rows
        dr = (r[:-1] - r[1:])[:, None]
        fr_face = (f[:-1, :] - f[1:, :]) / dr
        ft_face = 0.5 * (ft[:-1, :] + ft[1:, :])
        s = self.s_face[:, None]
        w_face = np.sqrt(1.0 + fr_face**2 + (ft_face / s) ** 2)
        dens = (fr_face / w_face) * s
        q_rad = dens * self.dth
        # wall half-faces: integrate the linear density reconstruction so the
        # off-center quadrature point does not cost an order at the boundary
        q_rad[:, 0] = self.dth * (3.0 * dens[:, 0] + dens[:, 1]) / 8.0
        q_rad[:, -1] = self.dth * (3.0 * dens[:, -1] + dens[:, -2]) / 8.0

        # angular faces: flux through radial segments between columns
        ft_ang = (f[:, 1:] - f[:, :-1]) / self.dth
        fr_ang = 0.5 * (fr[:, 1:] + fr[:, :-1])
        w_ang = np.sqrt(1.0 + fr_ang**2 + (ft_ang / self.r_col) ** 2)
        p = ft_ang / w_ang
        q_ang = p * self.cond[:, None]
        # arc rows: the face spans only half a cell, so shift the density to
        # the span's log-mean radius by interpolating toward the next row
        t0, tm = self.arc_interp
        q_ang[0, :] = ((1.0 - t0) * p[0, :] + t0 * p[1, :]) * self.cond[0]
        q_ang[-1, :] = ((1.0 - tm) * p[-1, :] + tm * p[-2, :]) * self.cond[-1]

        out = np.zeros(self.shape)
        out[1:, :] += q_rad  # outer face of every row but the first
        out[:-1, :] -= q_rad  # inner face of every row but the last
        out[0, :] += self.arc_outer
        out[-1, :] += self.arc_inner
        out[:, 1:] -= q_ang  # west face of every column but the first
        out[:, :-1] += q_ang  # east face of every column but the last
        out[:, 0] += self.wall_minus
        out[:, -1] += self.wall_plus

        rhs = np.asarray(self.rhs_fn(self.r_col, self.t_row, f), dtype=float)
        out -= rhs * self.area
        out -= self.source
        return out

    def rhs_at(self, f: np.ndarray) -> np.ndarray:
        return np.asarray(
            self.rhs_fn(self.r_col, self.t_row, f), dtype=float
        ) * np.ones(self.shape)

    def jacobian(self, f: np.ndarray, base: np.ndarray) -> NewtonMatrix:
        """Forward-difference Jacobian assembled colour by colour.

        Residual (i, j) reads exactly the nodes ridx[i] x tidx[j], two
        windows of 3 consecutive indices, so it reads one node (p, q) of
        each colour (p % 3, q % 3).  One residual evaluation per colour (of
        9) perturbs every node of that colour, and gives the value of each
        residual (i, j) by its node (p, q) of that colour: the difference at
        (i, j) over the step at (p, q).  The values follow the grid's 9-point
        pattern (``elimination._grid_pattern``).
        """
        step = math.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(f))
        vals = np.empty(self.shape + (3, 3))
        i, j = np.indices(self.shape, sparse=True)
        r0, t0 = self.ridx[:, 0], self.tidx[:, 0]
        for cr, ct in np.ndindex(3, 3):  # colour (cr, ct): the nodes f[cr::3, ct::3]
            bump = np.zeros(self.shape)
            bump[cr::3, ct::3] = step[cr::3, ct::3]
            # residual (i, j) reads this colour's node at window entry (a[i], b[j])
            a, b = (cr - r0) % 3, (ct - t0) % 3
            vals[i, j, a[:, None], b] = (self.residual(f + bump) - base) / step[r0 + a][:, t0 + b]
        if self._plan is None:  # the mesh's linear-solve plan, built once
            self._plan = Elimination(self.shape)
        return NewtonMatrix(self._plan, vals.ravel())


def _newton_step(
    disc: _Discretization, f: np.ndarray, res: np.ndarray, weights: np.ndarray | None
) -> np.ndarray:
    """The Newton step at f, whose residual is res.

    With ``weights`` w (the area weights), the problem is pure Neumann: its
    Jacobian J has 1^T J = 0 and J 1 = 0, and the mean constraint
    w^T (f + delta) = 0 fixes the step:
    [[J, w], [w^T, 0]] [delta; mu] = [-res; -w^T f].  The step is solved on
    J itself.  As 1^T J = 0, mu is the sum of -res, and -res - mu w sums to
    0.  Node (0, 0), whose own entry is the first stored value, is grounded
    by doubling that entry: the matrix is then regular, and as the
    right-hand side sums to 0 its solution is 0 at that node and solves
    J delta = -res - mu w.  The step is then shifted by the constant that
    sets the weighted mean of f + delta to 0.
    """
    jac = disc.jacobian(f, res)
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
    """Damped Newton loop; returns (f, history), the residual's max norm at
    the start and after each accepted step.  With the area ``weights`` the
    problem is pinned, and each step holds the weighted mean at 0 (see
    _newton_step); _solve centres the start."""
    f = f0.copy()
    res = disc.residual(f)
    norm = float(np.max(np.abs(res)))
    history = [norm]
    for _ in range(config.max_iter):
        if norm <= config.tol:
            break
        delta = _newton_step(disc, f, res, weights)
        if not np.all(np.isfinite(delta)):
            break
        t = 1.0
        while t >= 2.0**-30:
            trial = f + t * delta
            res_t = disc.residual(trial)
            norm_t = float(np.max(np.abs(res_t)))
            if norm_t <= (1.0 - 1e-4 * t) * norm or norm_t <= config.tol:
                break
            t *= 0.5
        else:
            break  # line search stalled
        f, res, norm = trial, res_t, norm_t
        history.append(norm)
    return f, tuple(history)


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
    boundary = (disc.wall_minus, disc.wall_plus, disc.arc_outer, disc.arc_inner)
    influx = float(sum(b.sum() for b in boundary))
    src = float((disc.rhs_at(np.zeros(disc.shape)) * disc.area).sum() + disc.source.sum())
    mismatch = influx - src
    scale = 1.0 + abs(influx) + abs(src)
    if abs(mismatch) > _BALANCE_TOL * scale:
        raise ValueError(
            f"solvability balance violated: net boundary flux {influx} vs "
            f"source integral {src}"
        )
    return mismatch


def _applicability_note(mesh, profile_plus, profile_minus, diagnostics):
    if profile_plus is None or profile_minus is None:
        return
    tag = theorem1_applicability(
        mesh.geometry, hypothesis_from_profiles(profile_plus, profile_minus)
    )
    diagnostics["applicability"] = tag
    if tag == FAILS:
        warnings.warn(
            "contact-angle data violate the corner hypothesis; radial limits "
            "may not exist",
            RuntimeWarning,
            stacklevel=4,  # the caller of the public solver
        )


def _solve(
    problem: str,
    mesh: SectorMesh,
    rhs_fn,
    profile_plus: ContactProfile | None,
    profile_minus: ContactProfile | None,
    config: SolverConfig | None,
    *,
    start: float,
    pinned: bool,
    case: ManufacturedCase | None = None,
) -> SolutionField:
    """Newton solve of div(Tf) = rhs_fn(r, theta, f), shared by both solvers.

    ``start`` is the starting constant unless the config sets one.
    ``pinned`` says the problem is pure Neumann (its right-hand side does not
    depend on the height); each solver decides it by its own rule.  A pinned
    problem's boundary flux must balance its source, read at height 0, and
    its mean is held at 0: the start is shifted to area-weighted mean 0, and
    so is each Newton step, so no start moves the solution's mean.
    ``case``, when given, supplies the boundary fluxes and the extra source
    of a manufactured run in place of the profiles.
    """
    config = config or SolverConfig()
    disc = _Discretization(mesh, rhs_fn, profile_plus, profile_minus, case)
    diagnostics: dict = {"problem": problem}
    _applicability_note(mesh, profile_plus, profile_minus, diagnostics)
    if config.initial is not None:
        start = config.initial
    f0 = np.full(disc.shape, float(start))
    weights = None
    if pinned:
        diagnostics["nullspace"] = _PIN_NOTE
        diagnostics["balance_mismatch"] = _check_balance(disc)
        weights = (disc.area / disc.area.sum()).ravel()
        f0 -= weights @ f0.ravel()
    f, history = _newton_solve(disc, f0, config, weights)
    return SolutionField(
        mesh=mesh,
        values=f,
        tol=config.tol,
        rhs_values=disc.rhs_at(f),
        residual_history=history,
        diagnostics=diagnostics,
    )


def solve_capillary(
    mesh: SectorMesh,
    kappa: float,
    lam: float,
    profile_plus: ContactProfile | None,
    profile_minus: ContactProfile | None,
    config: SolverConfig | None = None,
    *,
    case: ManufacturedCase | None = None,
) -> SolutionField:
    """Solve div(Tf) = kappa*f + lam with contact-flux walls.

    Wall fluxes are exact per-face integrals of the profiles' cos(gamma) and
    the circular arcs are closed (no flux).  A manufactured ``case`` replaces
    all of that: its wall and arc fluxes drive the boundary, the profiles are
    ignored, and its solution-independent source g(r, theta) joins the
    right-hand side.  kappa = 0 exactly makes the problem pinned.
    """
    if kappa < 0.0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    return _solve(
        "capillary",
        mesh,
        lambda r, t, z: kappa * z + lam,
        profile_plus,
        profile_minus,
        config,
        start=-lam / kappa if kappa > 0.0 else 0.0,
        pinned=kappa == 0.0,
        case=case,
    )


def solve_pmc(
    mesh: SectorMesh,
    curvature: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    profile_plus: ContactProfile | None,
    profile_minus: ContactProfile | None,
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

    def rhs_at(z):  # the right-hand side on the mesh at the constant height z
        r, t = mesh.radii[:, None], mesh.thetas[None, :]
        return rhs_fn(r, t, np.full((r.size, t.size), z))

    probe = 1e-6
    flat = all(
        float(np.max(np.abs(rhs_at(h + probe) - rhs_at(h)) / probe)) < 1e-13
        for h in (-1.0, 0.0, 1.0)
    )
    field = _solve(
        "pmc",
        mesh,
        rhs_fn,
        profile_plus,
        profile_minus,
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
    """Solution values on the innermost radii plus extrapolated corner limits."""

    radii: np.ndarray  # strictly decreasing subset used for extrapolation
    thetas: np.ndarray
    values: np.ndarray  # shape (len(radii), len(thetas))
    rf: np.ndarray  # extrapolated limit per theta
    residual: np.ndarray  # per-theta extrapolation residual

    def __post_init__(self) -> None:
        if np.any(np.diff(self.radii) >= 0.0):
            raise ValueError("trace radii must be strictly decreasing")
        if self.values.shape != (self.radii.size, self.thetas.size):
            raise ValueError("trace value shape mismatch")
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
    radii_desc = mesh.radii[-n_radii:]
    vals_desc = field.values[-n_radii:, :]
    xs = radii_desc[::-1]  # ascending from the smallest radius
    tableau = vals_desc[::-1, :].copy()
    q = float(xs[1] / xs[0])
    top_prev = tableau[0].copy()
    top = tableau[0].copy()
    for level in range(1, n_radii):
        factor = q**level - 1.0
        # difference form keeps exact constants exact
        tableau = tableau[:-1] + (tableau[:-1] - tableau[1:]) / factor
        top_prev = top
        top = tableau[0].copy()
    residual = np.abs(top - top_prev)
    return RadialTrace(
        radii=radii_desc.copy(),
        thetas=mesh.thetas.copy(),
        values=vals_desc.copy(),
        rf=top,
        residual=residual,
    )


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
    field = solve_capillary(
        mesh,
        case.kappa,
        case.lam,
        None,
        None,
        SolverConfig(initial=0.0),
        case=case,
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
