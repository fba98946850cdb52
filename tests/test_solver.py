"""Finite-volume corner solver, radial traces, and fan classification."""

import dataclasses
import decimal
import math
import tracemalloc

import numpy as np
import pytest

from wedgecap import elimination, solver
from wedgecap.io import profile_from_dict
from wedgecap.profiles import (
    CONVEX_OK,
    FAILS,
    WedgeGeometry,
    constant_profile,
    make_piecewise,
)
from wedgecap.solver import (
    FanMeasurement,
    ManufacturedCase,
    RadialTrace,
    SectorMesh,
    SolutionField,
    SolverConfig,
    _Discretization,
    bounds_estimate,
    build_sector_mesh,
    fans_from_trace,
    manufactured_case,
    manufactured_convergence,
    manufactured_solve,
    measure_fans,
    radial_trace,
    solve_capillary,
    solve_pmc,
    torus_minor_radius,
)

GEO = WedgeGeometry(1.0)
NEUTRAL_P = constant_profile("+", math.pi / 2)
NEUTRAL_M = constant_profile("-", math.pi / 2)


def area_weights(mesh):
    """The control volumes' areas over their sum, flattened."""
    area = _Discretization(mesh, lambda r, t, z: z, NEUTRAL_P, NEUTRAL_M).area
    return (area / area.sum()).ravel()


def synthetic_field(mesh, fn, kappa=0.0, lam=0.0):
    """Field with prescribed nodal values and right-hand side kappa*f + lam,
    marked converged; for trace tests."""
    r = mesh.radii[:, None]
    t = mesh.thetas[None, :]
    vals = np.asarray(fn(r, t), dtype=float) * np.ones((mesh.m + 1, mesh.n_theta + 1))
    return SolutionField(
        mesh=mesh,
        values=vals,
        tol=1e-10,
        rhs_values=kappa * vals + lam,
        residual_history=(0.0,),
        diagnostics={"problem": "synthetic"},
    )


# ---------------------------------------------------------------------------
# mesh


def test_mesh_decade_grading():
    mesh = build_sector_mesh(GEO, 1e-3, 1.0, 3, 4)
    assert mesh.radii[0] == 1.0 and mesh.radii[-1] == 1e-3
    assert mesh.radii == pytest.approx([1.0, 0.1, 0.01, 0.001], rel=1e-14)
    assert mesh.m == 3 and mesh.n_theta == 4


def test_mesh_angular_grid():
    mesh = build_sector_mesh(WedgeGeometry(math.pi / 4), 0.1, 1.0, 2, 4)
    expect = [-math.pi / 4, -math.pi / 8, 0.0, math.pi / 8, math.pi / 4]
    assert mesh.thetas == pytest.approx(expect, abs=1e-15)
    assert mesh.dtheta == pytest.approx(math.pi / 8)


def test_mesh_refinement_square_roots_the_ratio():
    coarse = build_sector_mesh(GEO, 0.05, 1.0, 8, 8)
    fine = build_sector_mesh(GEO, 0.05, 1.0, 16, 8)
    assert fine.grading_ratio**2 == pytest.approx(coarse.grading_ratio, rel=1e-12)


def test_mesh_validation():
    with pytest.raises(ValueError):
        build_sector_mesh(GEO, 1.0, 0.5, 4, 4)
    with pytest.raises(ValueError):
        build_sector_mesh(GEO, 0.1, 1.0, 0, 4)
    with pytest.raises(ValueError):
        SectorMesh(
            geometry=GEO,
            radii=np.array([1.0, 0.5, 0.1]),  # not geometric
            thetas=np.linspace(-1.0, 1.0, 5),
        )
    with pytest.raises(ValueError):
        SectorMesh(
            geometry=GEO,
            radii=np.array([1.0, 0.1, 0.01]),
            thetas=np.linspace(-0.5, 1.0, 5),  # wrong span
        )


# ---------------------------------------------------------------------------
# comparison-torus radius and magnitude estimates


def test_torus_minor_radius_exact_values():
    assert torus_minor_radius(0.0) == 1.0
    assert torus_minor_radius(0.75) == 2.0 / 3.0
    assert torus_minor_radius(4.0 / 3.0) == 0.5
    with pytest.raises(ValueError):
        torus_minor_radius(-0.1)


def test_torus_minor_radius_keeps_its_digits_at_both_ends():
    """Near 1/m2 for a large bound and near 1 for a tiny one, the float path
    keeps full precision, where the form 1 - 1/(sqrt(x^2 + 1) + x) cancels
    for a large m2; a non-finite bound is refused."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for m2 in (1e-300, 1e-12, 0.3, 7.0, 1e8, 1e12, 1e16, 1e100, 1e300):
            x = 1 / decimal.Decimal(m2)
            s = (x * x + 1).sqrt()
            want = x * (1 + 1 / (s + x)) / (1 + s)  # x + 1 - s, cancellation-free
            got = decimal.Decimal(torus_minor_radius(m2))
            assert abs(got - want) <= decimal.Decimal(4e-16) * want, m2
    assert torus_minor_radius(5e-324) == 1.0  # 1/m2 overflows
    for m2 in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            torus_minor_radius(m2)


def test_torus_minor_radius_range_and_monotonicity():
    m2 = np.linspace(1e-6, 50.0, 200)
    r0 = np.array([torus_minor_radius(v) for v in m2])
    assert np.all((r0 > 0.0) & (r0 <= 1.0))
    assert np.all(np.diff(r0) < 0.0)
    # defining identity sqrt(x^2+1) = x + 1 - r0, squared (well-conditioned
    # even where the naive x + 1 - sqrt(x^2+1) form cancels catastrophically)
    x = 1.0 / m2
    assert (x + 1.0 - r0) ** 2 == pytest.approx(x * x + 1.0, rel=1e-12)


def test_bounds_estimate_examples():
    mesh = build_sector_mesh(GEO, 0.1, 1.0, 4, 4)
    fld = synthetic_field(mesh, lambda r, t: np.full_like(r * t, -2.0), kappa=1.0, lam=2.0)
    assert bounds_estimate(fld) == (2.0, 0.0)
    fld = synthetic_field(mesh, lambda r, t: 0.0 * r * t, kappa=1.0, lam=2.0)
    assert bounds_estimate(fld) == (0.0, 2.0)
    fld = synthetic_field(mesh, lambda r, t: r * np.cos(t))
    m1, m2 = bounds_estimate(fld)
    assert m1 == 1.0 and m2 == 0.0


# ---------------------------------------------------------------------------
# solve: exact regimes


def test_constant_solution_is_exact():
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 16, 16)
    field = solve_capillary(mesh, 1.0, 2.0, NEUTRAL_P, NEUTRAL_M)
    assert field.converged
    assert field.newton_iterations == 0
    # the only leftovers are cos(pi/2) rounding in the wall flux integrals
    assert field.residual_norm <= 1e-14
    assert np.all(field.values == -2.0)
    assert np.all(field.rhs_values == 0.0)
    assert field.diagnostics["applicability"] == CONVEX_OK


def test_lambda_shift_moves_solution_exactly():
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 12, 12)
    f1 = solve_capillary(mesh, 2.0, 1.0, NEUTRAL_P, NEUTRAL_M)
    f2 = solve_capillary(mesh, 2.0, 1.625, NEUTRAL_P, NEUTRAL_M)
    assert np.all(f2.values == f1.values - 0.625 / 2.0)


def test_reflection_equivariance():
    mesh = build_sector_mesh(WedgeGeometry(1.4), 0.05, 1.0, 20, 20)
    plus, minus = constant_profile("+", 0.4), constant_profile("-", 2.2)
    direct = solve_capillary(mesh, 1.0, 0.3, plus, minus)
    swapped = solve_capillary(
        mesh, 1.0, 0.3, constant_profile("+", 2.2), constant_profile("-", 0.4)
    )
    assert direct.converged and swapped.converged
    gap = float(np.max(np.abs(direct.values - swapped.values[:, ::-1])))
    assert gap <= 1e-8


def test_symmetric_data_symmetric_solution():
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 16, 16)
    plus, minus = constant_profile("+", 1.1), constant_profile("-", 1.1)
    field = solve_capillary(mesh, 1.0, 0.5, plus, minus)
    assert field.converged
    gap = float(np.max(np.abs(field.values - field.values[:, ::-1])))
    assert gap <= 1e-8


def test_nonlinear_newton_converges_fast():
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 16, 16)
    field = solve_capillary(
        mesh, 1.0, 0.3, constant_profile("+", 0.7), constant_profile("-", 0.7)
    )
    assert field.converged
    assert field.newton_iterations <= 10
    assert field.residual_norm <= 1e-10
    hist = field.residual_history
    assert hist[-1] < hist[0]


def test_face_averaged_wall_flux():
    """A sub-face jump and its cos-averaged equivalent give one solution."""
    mesh = build_sector_mesh(GEO, 0.1, 1.0, 8, 8)
    face_in = 0.5 * (mesh.radii[0] + mesh.radii[1])  # innermost bound of top face
    split, ga, gb = 0.95, 0.7, 1.9
    jumpy = make_piecewise("+", [split, 1.0], [ga, gb])
    cbar = ((split - face_in) * math.cos(ga) + (1.0 - split) * math.cos(gb)) / (
        1.0 - face_in
    )
    averaged = make_piecewise("+", [face_in, 1.0], [ga, math.acos(cbar)])
    fa = solve_capillary(mesh, 1.0, 0.5, jumpy, NEUTRAL_M)
    fb = solve_capillary(mesh, 1.0, 0.5, averaged, NEUTRAL_M)
    assert np.allclose(fa.values, fb.values, atol=1e-12, rtol=0.0)


@pytest.mark.parametrize("m, n_theta", [(2, 2), (6, 7), (3, 9), (11, 4)])
def test_colored_jacobian_matches_column_by_column(m, n_theta):
    """Residual (i, j) reads only the 3x3 product of the node's radial and
    angular stencil windows, and nodes sharing a colour are 3 apart in some
    direction, so no window holds two of them: the coloured Jacobian stores at
    most 9 entries per row and equals the one perturbing one node at a time."""
    mesh = build_sector_mesh(GEO, 0.05, 1.0, m, n_theta)
    disc = _Discretization(
        mesh,
        lambda r, t, z: np.tanh(z) + 0.3,
        *(
            profile_from_dict(
                {"side": side, "generator": {"type": "example2", "gamma1": 0.8, "gamma2": 2.0}}
            )
            for side in "+-"
        ),
    )
    f = np.sin(3.0 * mesh.radii[:, None]) * np.cos(2.0 * mesh.thetas[None, :])
    base = disc.residual(f)
    step = math.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(f))
    dense = np.empty((f.size, f.size))
    for k in range(f.size):
        fp = f.copy()
        fp.flat[k] += step.flat[k]
        dense[:, k] = (disc.residual(fp) - base).ravel() / step.flat[k]
    jac = disc.jacobian(f, base)
    assert jac.nnz <= 9 * f.size
    assert np.array_equal(jac.toarray(), dense)


@pytest.mark.parametrize("ni, nj", [(3, 3), (3, 17), (17, 3), (13, 25), (129, 129)])
def test_dissection_order_is_a_permutation(ni, nj):
    order = elimination_order(elimination.Elimination((ni, nj)))
    assert np.array_equal(np.sort(order), np.arange(ni * nj))


def elimination_order(plan):
    """The unknowns in the order the plan eliminates them: its blocks'
    own sets, block after block."""
    return np.concatenate([bl.own.ravel() for bl in plan.blocks])


def example2_walls():
    return tuple(
        profile_from_dict(
            {"side": side, "generator": {"type": "example2", "gamma1": 0.8, "gamma2": 2.0}}
        )
        for side in "+-"
    )


def test_dissection_order_fills_less_than_colamd():
    """L+U entry counts of the first Newton matrix at 64^2: deterministic,
    unlike timings.  SuperLU fills less in the dissection order than in its
    own COLAMD order, and the block elimination stores fewer entries still."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    mesh = build_sector_mesh(GEO, 0.05, 1.0, 64, 64)
    disc = _Discretization(mesh, lambda r, t, z: z + 2.0, *example2_walls())
    f0 = np.full(disc.shape, -2.0)
    jac = disc.jacobian(f0, disc.residual(f0))
    csc = sp.csc_matrix((jac.data, jac.plan.pattern), shape=(f0.size, f0.size))
    p = elimination_order(jac.plan)
    colamd = spla.splu(csc)
    dissected = spla.splu(csc[p][:, p], permc_spec="NATURAL")
    lu = dissected.L.nnz + dissected.U.nnz
    assert lu < colamd.L.nnz + colamd.U.nnz
    assert jac.plan.stored_entries < lu


@pytest.mark.parametrize("kappa", [1.0, 0.0])
def test_dissection_order_cannot_change_a_solve(monkeypatch, kappa):
    """Any dissection tree gives the same Newton steps up to roundoff: here
    the mesh's tree against a single whole-grid front, which is one dense
    partial-pivot LU.  For the pinned (kappa = 0) problem both solve the
    grounded matrix, and the mean stays 0."""
    r_min, r_max = 0.05, 1.0
    walls = example2_walls()
    mesh = build_sector_mesh(GEO, r_min, r_max, 24, 12)
    if kappa:
        lam = 2.0
    else:  # lambda balances the net wall flux
        flux = sum(float(np.diff(p.integral_many([r_min, r_max]))[0]) for p in walls)
        lam = flux / (GEO.alpha * (r_max**2 - r_min**2))

    dissected = solve_capillary(mesh, kappa, lam, *walls)
    monkeypatch.setattr(elimination, "_LEAF_NODES", (mesh.m + 1) * (mesh.n_theta + 1))
    assert len(elimination._dissection_tree(mesh.m + 1, mesh.n_theta + 1)) == 1
    whole = solve_capillary(mesh, kappa, lam, *walls)
    assert dissected.converged and whole.converged
    assert dissected.newton_iterations == whole.newton_iterations
    assert np.allclose(dissected.values, whole.values, atol=1e-12, rtol=0.0)
    if not kappa:
        area = _Discretization(mesh, lambda r, t, z: 0.0 * z, *walls).area
        assert abs(float((dissected.values * area).sum() / area.sum())) <= 1e-12


@pytest.mark.parametrize("problem", ["capillary", "pinned", "pmc"])
def test_batch_bound_cannot_change_a_solve(monkeypatch, problem):
    """The size of a block bounds only the working storage: one front per
    block, the default bound and no bound give the same bits in as many
    Newton steps.  With no bound each stack is one block; the default bound
    cuts some stack on this mesh into more than one."""
    r_min, r_max = 0.05, 1.0
    walls = example2_walls()
    mesh = build_sector_mesh(GEO, r_min, r_max, 64, 48)
    kappa, lam = 1.0, 2.0
    if problem == "pinned":  # lambda balances the net wall flux
        flux = sum(float(np.diff(p.integral_many([r_min, r_max]))[0]) for p in walls)
        kappa, lam = 0.0, flux / (GEO.alpha * (r_max**2 - r_min**2))
    disc = _Discretization(mesh, lambda r, t, z: z, *walls)

    fields, blocks = [], []
    for bound in (1, elimination._BATCH_DOUBLES, 2**62):
        monkeypatch.setattr(elimination, "_BATCH_DOUBLES", bound)
        blocks.append(len(elimination.Elimination(disc.shape).blocks))
        if problem == "pmc":
            fields.append(solve_pmc(mesh, lambda x, y, t: 0.5 * np.tanh(t), *walls))
        else:
            fields.append(solve_capillary(mesh, kappa, lam, *walls))
    assert blocks[1] > blocks[2]
    assert all(f.converged for f in fields)
    for f in fields[1:]:
        assert np.array_equal(f.values, fields[0].values)
        assert f.newton_iterations == fields[0].newton_iterations


def test_elimination_working_storage():
    """tracemalloc peaks at 128^2, the benchmark's mesh, of the plan build and
    of one solve of a Newton matrix.  The plan is built from int32
    temporaries that die early; a solve eliminates bounded blocks of fronts
    and frees each block's Schur complements once its last parent block has
    added them in.  The budgets lie between the peaks so measured (7.0 MB,
    with the matrix pattern the plan builds, and 6.2 MB) and those of int64
    temporaries (16.8 MB), of freeing Schur complements only after a whole
    stack of parents (7.3 MB) and of unbounded blocks (10.1 MB)."""
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 128, 128)
    disc = _Discretization(mesh, lambda r, t, z: z + 2.0, *example2_walls())
    f = np.full(disc.shape, -2.0)
    res = disc.residual(f)
    jac = disc.jacobian(f, res)
    tracemalloc.start()
    try:
        elimination.Elimination(disc.shape)
        plan_peak = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.reset_peak()
        x = jac.plan.solve(jac.data, -res.ravel())
        solve_peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(x))
    assert plan_peak < 12.0
    assert solve_peak < 6.8


def test_plan_rejects_an_entry_outside_its_front(monkeypatch):
    """A coupling between opposite grid corners lies in no front: the front
    that eliminates one corner has the other neither as its own nor on its
    boundary, whichever of the two is the row."""
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 24, 12)
    disc = _Discretization(mesh, lambda r, t, z: z, *example2_walls())
    pattern_of = elimination._grid_pattern
    corners = 0, disc.shape[0] * disc.shape[1] - 1
    for r, c in (corners, corners[::-1]):

        def with_corner(ni, nj, r=r, c=c):
            rows, cols = pattern_of(ni, nj)
            return np.append(rows, r), np.append(cols, c)

        monkeypatch.setattr(elimination, "_grid_pattern", with_corner)
        with pytest.raises(AssertionError, match="matrix entry outside its front"):
            elimination.Elimination(disc.shape)


def test_plan_rejects_a_parent_without_the_childs_boundary(monkeypatch):
    """A deepest leaf hung under the root: its boundary holds nodes of its
    own parent's separator, which the root's front lacks, so its Schur
    complement has no place."""
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 24, 12)
    disc = _Discretization(mesh, lambda r, t, z: z, *example2_walls())
    tree_of = elimination._dissection_tree

    def rehung(ni, nj):
        tree = tree_of(ni, nj)
        assert tree[tree[-1, 9], 9] > 0  # the deepest leaf's parent is not the root's child
        tree[-1, 9] = 0
        return tree

    monkeypatch.setattr(elimination, "_dissection_tree", rehung)
    with pytest.raises(AssertionError, match="Schur complement entry outside the parent front"):
        elimination.Elimination(disc.shape)


def test_elimination_of_a_singular_matrix_gives_nan():
    """All-zero values make every front singular: the solve returns NaN in
    every entry, which stops the Newton loop, and does not raise."""
    plan = elimination.Elimination((12, 8))
    rows, _ = plan.pattern
    x = plan.solve(np.zeros(rows.size), np.ones(plan.size))
    assert x.shape == (plan.size,) and np.all(np.isnan(x))


@pytest.mark.parametrize("kappa", [1.0, 0.0])
def test_a_non_finite_newton_step_ends_the_solve_unconverged(monkeypatch, kappa):
    """A linear solve that returns NaN stops the Newton loop before its first
    step: the solve reports no convergence and keeps its starting field."""
    monkeypatch.setattr(solver.spla, "spsolve", lambda jac, rhs: np.full(rhs.size, np.nan))
    r_min, r_max = 0.05, 1.0
    walls = example2_walls()
    # kappa = 0 pins the mean: lambda balances the net wall flux
    flux = sum(float(np.diff(p.integral_many([r_min, r_max]))[0]) for p in walls)
    lam = 2.0 if kappa else flux / (GEO.alpha * (r_max**2 - r_min**2))
    mesh = build_sector_mesh(GEO, r_min, r_max, 8, 8)
    field = solve_capillary(mesh, kappa, lam, *walls, SolverConfig(initial=1.0))
    assert not field.converged
    assert field.newton_iterations == 0 and len(field.residual_history) == 1
    start = np.ones(field.values.shape)
    if not kappa:  # a pinned solve starts at area-weighted mean 0
        start -= area_weights(mesh) @ start.ravel()
    assert np.array_equal(field.values, start)


def test_discretization_holds_no_matrix_pattern():
    """A 128^2 discretization holds its geometry factors (0.29 MB measured),
    not the Newton matrix's pattern and colouring (2.8 MB with them): the
    plan derives the pattern from the grid shape, and the Jacobian reads its
    values colour by colour from the stencil windows."""
    walls = example2_walls()
    # a small build first, so that the modules it imports are not counted
    _Discretization(build_sector_mesh(GEO, 0.05, 1.0, 4, 4), lambda r, t, z: z, *walls)
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 128, 128)
    tracemalloc.start()
    try:
        disc = _Discretization(mesh, lambda r, t, z: z + 2.0, *walls)
        held = tracemalloc.get_traced_memory()[0] / 1e6
    finally:
        tracemalloc.stop()
    assert disc.shape == (129, 129)
    assert held < 1.0


DENSE_MESHES = [(2, 2), (6, 7), (3, 9), (11, 4), (24, 12)]


def dense_walls(walls):
    if walls == "example2":
        return example2_walls()
    return constant_profile("+", 0.1), constant_profile("-", 3.0)


@pytest.mark.parametrize("m, n_theta", DENSE_MESHES)
@pytest.mark.parametrize("walls", ["example2", "constant 0.1/3.0"])
@pytest.mark.parametrize("kappa", [1.0, 0.0])
def test_elimination_matches_dense_solve(m, n_theta, walls, kappa):
    """The block elimination solves the full Newton matrix as one dense LU
    solve does; when kappa = 0 pins the mean, that is the matrix grounded at
    node (0, 0).  The meshes run from a single front to trees cut both
    ways."""
    mesh = build_sector_mesh(GEO, 0.05, 1.0, m, n_theta)
    disc = _Discretization(mesh, lambda r, t, z: kappa * z + 2.0, *dense_walls(walls))
    f = np.sin(3.0 * mesh.radii[:, None]) * np.cos(2.0 * mesh.thetas[None, :])
    res = disc.residual(f)
    jac = disc.jacobian(f, res)
    if not kappa:
        jac.data[0] *= 2.0
    rhs = -res.ravel()
    x = solver.spla.spsolve(jac, rhs)
    dense = np.linalg.solve(jac.toarray(), rhs)
    assert np.allclose(x, dense, rtol=0.0, atol=1e-12 * np.max(np.abs(dense)))


@pytest.mark.parametrize("m, n_theta", DENSE_MESHES)
@pytest.mark.parametrize("walls", ["example2", "constant 0.1/3.0"])
def test_pinned_newton_step_matches_the_bordered_step(monkeypatch, m, n_theta, walls):
    """The first step of a pinned solve, from its flat start with lambda
    balancing the wall flux, solved on the grounded Jacobian, is the step of
    the Jacobian bordered by the area weights and the mean constraint,
    solved densely.  The two differ by the finite-difference Jacobian's
    departure from 1^T J = 0 and J 1 = 0, about 1e-9 at the flat start (the
    steps agree to 1.3e-8 here).  Away from it the forward difference's
    truncation error makes J 1 about 1e-7, and the later steps of these
    solves differ by up to 5e-6.  The linear solve sees a regular matrix:
    grounded, its condition number is 1e2 to 1e4 here, and the Jacobian's
    is 5e10 or more."""
    r_min, r_max = 0.05, 1.0
    profiles = dense_walls(walls)
    flux = sum(float(np.diff(p.integral_many([r_min, r_max]))[0]) for p in profiles)
    lam = flux / (GEO.alpha * (r_max**2 - r_min**2))
    mesh = build_sector_mesh(GEO, r_min, r_max, m, n_theta)
    disc = _Discretization(mesh, lambda r, t, z: 0.0 * z + lam, *profiles)
    f = np.zeros(disc.shape)
    res = disc.residual(f)
    w = (disc.area / disc.area.sum()).ravel()
    n = f.size
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = disc.jacobian(f, res).toarray()
    bordered[:n, n] = bordered[n, :n] = w
    want = np.linalg.solve(bordered, np.append(-res.ravel(), 0.0))[:n]
    solved, spsolve = [], solver.spla.spsolve
    monkeypatch.setattr(
        solver.spla, "spsolve", lambda jac, rhs: solved.append(jac.toarray()) or spsolve(jac, rhs)
    )
    step = solver._newton_step(disc, f, res, w).ravel()
    assert np.linalg.cond(solved[0]) < 1e6
    assert np.linalg.norm(step - want) <= 1e-6 * np.linalg.norm(want)
    assert abs(w @ step) <= 1e-15 * np.max(np.abs(step))


@pytest.mark.parametrize("m", [24, 48])
def test_pinned_solve_converges_with_lambda_off_by_1e_9(m):
    """A pinned solve whose lambda misses the flux balance by 1e-9, within
    the balance check's 1e-8, converges in 5 steps: the residual's sum, the
    mismatch, is taken off along the area weights each step."""
    r_min, r_max = 0.05, 1.0
    walls = example2_walls()
    flux = sum(float(np.diff(p.integral_many([r_min, r_max]))[0]) for p in walls)
    lam = flux / (GEO.alpha * (r_max**2 - r_min**2)) * (1.0 + 1e-9)
    field = solve_capillary(build_sector_mesh(GEO, r_min, r_max, m, m), 0.0, lam, *walls)
    assert field.converged
    assert field.newton_iterations == 5


@pytest.mark.parametrize("gammas, iterations", [((0.3, 2.8), 9), ((0.1, 3.0), 11)])
def test_newton_converges_at_the_papers_angles(gammas, iterations):
    """Contact angles near 0 and pi, with 24 rows per decade down to r_min =
    5e-3: Newton converges in as many steps as it did with SuperLU."""
    mesh = build_sector_mesh(GEO, 5e-3, 1.0, 55, 48)
    walls = constant_profile("+", gammas[0]), constant_profile("-", gammas[1])
    field = solve_capillary(mesh, 1.0, 2.0, *walls)
    assert field.converged
    assert field.newton_iterations == iterations


def test_solver_input_validation():
    mesh = build_sector_mesh(GEO, 0.1, 1.0, 8, 8)
    with pytest.raises(ValueError):
        solve_capillary(mesh, -1.0, 0.0, NEUTRAL_P, NEUTRAL_M)
    with pytest.raises(ValueError):
        solve_capillary(mesh, 1.0, 0.0, constant_profile("+", 1.0, s_max=0.5), NEUTRAL_M)
    with pytest.raises(ValueError):
        solve_capillary(mesh, 1.0, 0.0, NEUTRAL_M, NEUTRAL_M)  # side tag mismatch
    with pytest.raises(ValueError):
        solve_capillary(mesh, 1.0, 0.0, None, NEUTRAL_M)  # no flux data on +
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0)


def test_fails_tag_warns():
    mesh = build_sector_mesh(WedgeGeometry(math.pi / 4), 0.1, 1.0, 6, 6)
    wet_p, wet_m = constant_profile("+", 0.0), constant_profile("-", 0.0)
    with pytest.warns(RuntimeWarning, match="corner hypothesis") as record:
        field = solve_capillary(
            mesh, 1.0, 0.0, wet_p, wet_m, SolverConfig(max_iter=2)
        )
    assert field.diagnostics["applicability"] == FAILS
    # attributed to the caller of the public solver
    assert {w.filename for w in record} == {__file__}


# ---------------------------------------------------------------------------
# zero-curvature (pinned) regime


def test_pinned_compatible_problem():
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 12, 12)
    field = solve_capillary(mesh, 0.0, 0.0, NEUTRAL_P, NEUTRAL_M)
    assert field.converged
    assert np.all(field.values == 0.0)
    assert "mean" in field.diagnostics["nullspace"]
    assert abs(field.diagnostics["balance_mismatch"]) < 1e-12


def test_pinned_solve_from_a_far_start_agrees_with_its_zero_start():
    """A pinned start is centred before Newton runs, so ``initial`` does not
    move the solution's mean."""
    r_min, r_max = 0.05, 1.0
    walls = example2_walls()
    flux = sum(float(np.diff(p.integral_many([r_min, r_max]))[0]) for p in walls)
    lam = flux / (GEO.alpha * (r_max**2 - r_min**2))
    mesh = build_sector_mesh(GEO, r_min, r_max, 16, 16)
    near = solve_capillary(mesh, 0.0, lam, *walls)
    far = solve_capillary(mesh, 0.0, lam, *walls, SolverConfig(initial=20.0))
    assert near.converged and far.converged
    assert np.max(np.abs(far.values - near.values)) <= 1e-12


def test_pmc_pinned_start_that_meets_the_tolerance_is_centred():
    """Neutral walls and zero curvature: every constant field meets the
    tolerance, so the solve takes no step and returns its start, which is
    centred to mean 0."""
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 16, 16)
    field = solve_pmc(
        mesh, lambda x, y, t: 0.0 * t, NEUTRAL_P, NEUTRAL_M, SolverConfig(initial=20.0)
    )
    assert field.converged and field.newton_iterations == 0
    assert "mean" in field.diagnostics["nullspace"]
    assert abs(area_weights(mesh) @ field.values.ravel()) <= 1e-12


@pytest.mark.parametrize("kappa", [1e-10, 1e-12])
def test_a_tiny_positive_kappa_is_not_pinned(kappa):
    """The capillary pin rule is kappa == 0, not a slope probe: a probe's
    1e-13 threshold would call these problems pinned and refuse them, as
    lambda = 2 owes the neutral walls' zero flux a balance it cannot meet."""
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 16, 16)
    field = solve_capillary(mesh, kappa, 2.0, NEUTRAL_P, NEUTRAL_M)
    assert "nullspace" not in field.diagnostics
    assert field.converged


def test_pinned_incompatible_problem_raises():
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 12, 12)
    with pytest.raises(ValueError, match="balance"):
        solve_capillary(mesh, 0.0, 1.0, NEUTRAL_P, NEUTRAL_M)


# ---------------------------------------------------------------------------
# prescribed-curvature variant


def test_pmc_reduces_to_capillary_bitwise():
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 12, 12)
    plus, minus = constant_profile("+", 1.2), constant_profile("-", 1.2)
    cfg = SolverConfig(initial=0.0)
    kappa, lam = 1.0, 0.3
    a = solve_capillary(mesh, kappa, lam, plus, minus, cfg)
    b = solve_pmc(
        mesh, lambda x, y, t: 0.5 * (kappa * t + lam), plus, minus, cfg
    )
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.rhs_values, b.rhs_values)
    assert a.converged and b.converged


def test_pmc_zero_curvature_pins_mean():
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 12, 12)
    field = solve_pmc(mesh, lambda x, y, t: 0.0 * t, NEUTRAL_P, NEUTRAL_M)
    assert field.converged
    assert np.all(field.values == 0.0)
    assert "mean" in field.diagnostics["nullspace"]


def test_pmc_pinning_is_read_off_the_curvature_not_the_start():
    """tanh is flat to roundoff at a start of 20, but it grows with the height,
    so the problem is not pure Neumann and owes no flux balance; a zero
    curvature is pinned from any start."""
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 16, 16)
    plus, minus = constant_profile("+", 1.2), constant_profile("-", 1.2)
    far = SolverConfig(initial=20.0)
    field = solve_pmc(mesh, lambda x, y, t: 0.5 * np.tanh(t), plus, minus, far)
    assert "nullspace" not in field.diagnostics
    # walls whose cos(gamma) cancel, so the zero source is balanced
    plus, minus = constant_profile("+", 1.0), constant_profile("-", math.pi - 1.0)
    field = solve_pmc(mesh, lambda x, y, t: 0.0 * t, plus, minus, far)
    assert "mean" in field.diagnostics["nullspace"]
    assert field.converged


def test_pmc_tanh_curvature_keeps_zero():
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 12, 12)
    field = solve_pmc(mesh, lambda x, y, t: 0.5 * np.tanh(t), NEUTRAL_P, NEUTRAL_M)
    assert field.converged
    assert float(np.max(np.abs(field.values))) <= 1e-8
    assert field.diagnostics["monotone_ok"]


def test_pmc_detects_monotonicity_violation():
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 10, 10)
    with pytest.warns(RuntimeWarning, match="decreases") as record:
        field = solve_pmc(
            mesh, lambda x, y, t: -0.5 * np.tanh(t), NEUTRAL_P, NEUTRAL_M
        )
    assert not field.diagnostics["monotone_ok"]
    assert {w.filename for w in record} == {__file__}


# ---------------------------------------------------------------------------
# manufactured verification


def test_manufactured_closed_forms_against_sympy():
    import sympy as sp

    x, y = sp.symbols("x y", real=True)
    r = sp.sqrt(x * x + y * y)
    f = x * r  # r^2 cos(theta) in Cartesian coordinates
    w = sp.sqrt(1 + sp.diff(f, x) ** 2 + sp.diff(f, y) ** 2)
    div = sp.diff(sp.diff(f, x) / w, x) + sp.diff(sp.diff(f, y) / w, y)
    case = manufactured_case(alpha=1.0, kappa=1.0, lam=0.3)

    for rv, tv in [(0.3, 0.2), (0.9, -0.8), (0.5, 0.0), (1.0, 1.0), (0.15, -1.0)]:
        xv, yv = rv * math.cos(tv), rv * math.sin(tv)
        subs = {x: xv, y: yv}
        div_num = float(div.evalf(30, subs=subs))
        want = div_num - case.kappa * rv * rv * math.cos(tv) - case.lam
        assert case.source(rv, tv) == pytest.approx(want, abs=1e-12)

        # wall flux: conormal on the theta = alpha wall
        nu = (-math.sin(case.alpha), math.cos(case.alpha))
        tfx = float((sp.diff(f, x) / w).evalf(30, subs=subs))
        tfy = float((sp.diff(f, y) / w).evalf(30, subs=subs))
        if abs(tv - case.alpha) < 1e-12:
            assert case.wall_flux(rv) == pytest.approx(
                tfx * nu[0] + tfy * nu[1], abs=1e-12
            )
        # arc flux: radial component of the normalized slope, along +r
        radial = tfx * math.cos(tv) + tfy * math.sin(tv)
        assert case.arc_flux(rv, tv) == pytest.approx(radial, abs=1e-12)


def test_manufactured_solve_small():
    field, err = manufactured_solve(manufactured_case(), 16, 16)
    assert field.converged
    assert err < 5e-3


def test_manufactured_convergence_rate_small():
    out = manufactured_convergence(sizes=(16, 32))
    assert out["errors"][1] < out["errors"][0]
    assert out["rates"][0] > 1.8


# ---------------------------------------------------------------------------
# radial traces


def test_trace_constant_field_exact():
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 10, 8)
    fld = synthetic_field(mesh, lambda r, t: np.full_like(r * t, 3.5))
    tr = radial_trace(fld, 4)
    assert np.all(tr.rf == 3.5)
    assert np.all(tr.residual == 0.0)


def test_trace_kills_linear_term():
    mesh = build_sector_mesh(GEO, 1e-3, 1.0, 12, 8)
    fld = synthetic_field(mesh, lambda r, t: 2.0 + 0.0 * t + 1.7 * r)
    tr = radial_trace(fld, 3)
    assert tr.rf == pytest.approx(2.0, abs=1e-12)


def test_trace_recovers_angular_profile():
    mesh = build_sector_mesh(GEO, 1e-3, 1.0, 12, 16)
    g = lambda t: 2.0 + np.cos(t)
    fld = synthetic_field(mesh, lambda r, t: g(t) + r * np.sin(t) + r * r * (1.0 + t))
    tr = radial_trace(fld, 4)
    assert tr.rf == pytest.approx(g(mesh.thetas), abs=1e-10)
    assert float(np.max(tr.residual)) < 1e-10


def test_trace_residual_decreases_with_depth():
    mesh = build_sector_mesh(GEO, 1e-3, 1.0, 12, 8)
    fld = synthetic_field(mesh, lambda r, t: np.sqrt(1.0 + r) * (1.0 + 0.3 * np.sin(t)))
    res = [float(np.median(radial_trace(fld, n).residual)) for n in range(2, 7)]
    for a, b in zip(res, res[1:]):
        assert b < a or a < 1e-13
    assert res[-1] < 1e-12


def test_trace_validation():
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 8, 8)
    fld = synthetic_field(mesh, lambda r, t: r + 0.0 * t)
    with pytest.raises(ValueError):
        radial_trace(fld, 1)
    with pytest.raises(ValueError):
        radial_trace(fld, 9)
    from dataclasses import replace

    unconverged = replace(fld, residual_history=(1.0,))
    with pytest.raises(RuntimeError):
        radial_trace(unconverged, 3)
    tr = radial_trace(unconverged, 3, allow_unconverged=True)
    assert tr.rf.shape == mesh.thetas.shape


# ---------------------------------------------------------------------------
# fan classification


def test_fans_constant_trace():
    thetas = np.linspace(-1.0, 1.0, 101)
    fans = measure_fans(np.full_like(thetas, 5.0), thetas, 1e-9)
    assert fans.case == "constant"
    assert fans.alpha1 == 1.0 and fans.alpha2 == -1.0
    assert fans.beta_minus == 2.0 and fans.beta_plus == 2.0


def test_fans_increasing_case():
    thetas = np.linspace(-1.0, 1.0, 501)
    rf = np.interp(thetas, [-1.0, thetas[75], 0.5, 1.0], [0.0, 0.0, 1.0, 1.0])
    fans = measure_fans(rf, thetas, 1e-9)
    dth = thetas[1] - thetas[0]
    assert fans.case == "I"
    assert abs(fans.beta_minus - 0.3) <= dth
    assert abs(fans.beta_plus - 0.5) <= dth


def test_fans_decreasing_case():
    thetas = np.linspace(-1.2, 1.2, 481)
    rf = np.interp(thetas, [-1.2, -0.9, 0.8, 1.2], [2.0, 2.0, -1.0, -1.0])
    fans = measure_fans(rf, thetas, 1e-9)
    dth = thetas[1] - thetas[0]
    assert fans.case == "D"
    assert abs(fans.beta_minus - 0.3) <= dth
    assert abs(fans.beta_plus - 0.4) <= dth


def test_fans_slit_di_case():
    alpha = math.pi
    thetas = np.linspace(-alpha, alpha, 1257)
    al = thetas[200]
    ar = al + math.pi
    rf = np.interp(
        thetas,
        [-alpha, thetas[120], al, ar, thetas[1200], alpha],
        [1.0, 1.0, 0.0, 0.0, 0.8, 0.8],
    )
    fans = measure_fans(rf, thetas, 1e-9)
    assert fans.case == "DI"
    dth = thetas[1] - thetas[0]
    assert abs((fans.alpha_r - fans.alpha_l) - math.pi) <= fans.tolerance + dth


def test_fans_id_case():
    alpha = 2.0
    thetas = np.linspace(-alpha, alpha, 801)
    al = thetas[80]
    ar = al + math.pi
    rf = np.interp(
        thetas,
        [-alpha, thetas[40], al, ar, thetas[760], alpha],
        [0.0, 0.0, 1.0, 1.0, 0.25, 0.25],
    )
    fans = measure_fans(rf, thetas, 1e-9)
    assert fans.case == "ID"
    assert fans.alpha_l == pytest.approx(float(al), abs=1e-12)
    assert fans.diagnostics["plateau_width"] == pytest.approx(math.pi, abs=0.01)


def test_fans_plateau_gate_blocks_narrow_sectors():
    """An opening at or below pi can never host the interior-plateau cases."""
    alpha = 1.5
    thetas = np.linspace(-alpha, alpha, 601)
    al = thetas[100]
    ar = al + 2.0  # widest interior plateau that fits; still below pi
    rf = np.interp(
        thetas,
        [-alpha, thetas[50], al, ar, thetas[550], alpha],
        [0.0, 0.0, 1.0, 1.0, 0.25, 0.25],
    )
    fans = measure_fans(rf, thetas, 1e-9)
    assert fans.case == "unclassified"
    assert fans.diagnostics["gate_2alpha_gt_pi"] is False


def test_fans_partition_identity():
    thetas = np.linspace(-1.0, 1.0, 501)
    rf = np.interp(thetas, [-1.0, -0.7, 0.5, 1.0], [0.0, 0.0, 1.0, 1.0])
    fans = measure_fans(rf, thetas, 1e-9)
    alpha = fans.alpha
    total = fans.beta_minus + (fans.alpha2 - fans.alpha1) + fans.beta_plus
    assert total == pytest.approx(2.0 * alpha, rel=1e-14)
    const = measure_fans(np.full_like(thetas, 1.0), thetas, 1e-9)
    assert const.beta_minus + (const.alpha2 - const.alpha1) + const.beta_plus == pytest.approx(
        2.0 * alpha, rel=1e-15
    )


def test_fans_noise_is_unclassified():
    thetas = np.linspace(-1.0, 1.0, 101)
    rng = np.random.default_rng(2)
    rf = rng.normal(size=thetas.size)
    fans = measure_fans(rf, thetas, 1e-6)
    assert fans.case == "unclassified"
    assert "total_variation" in fans.diagnostics


def test_fans_validation():
    thetas = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(ValueError):
        measure_fans(np.zeros(5), thetas, 1e-9)
    with pytest.raises(ValueError):
        measure_fans(np.zeros(11), thetas, 0.0)
    with pytest.raises(ValueError):
        measure_fans(np.zeros(11), thetas, math.nan)
    with pytest.raises(ValueError):
        measure_fans(np.where(thetas == 0.0, math.nan, 0.0), thetas, 1e-9)
    with pytest.raises(ValueError):
        FanMeasurement(
            case="ID",
            alpha=2.0,
            alpha1=-1.5,
            alpha2=1.5,
            alpha_l=-1.0,
            alpha_r=1.0,  # plateau width 2.0, far from pi
            tolerance=1e-9,
        )


def _widest_flat_window_by_brute_force(vals, tol):
    """First (a, b) of greatest b - a whose window vals[a..b] has range <= tol."""
    best = (0, 0)
    for a in range(vals.size):
        for b in range(a, vals.size):
            window = vals[a : b + 1]
            if window.max() - window.min() <= tol and b - a > best[1] - best[0]:
                best = (a, b)
    return best


def test_longest_flat_window_matches_brute_force():
    rng = np.random.default_rng(12)
    tol = 0.5
    ties = 0
    for trial in range(400):
        n = int(rng.integers(1, 40))
        shape = trial % 4
        if shape == 0:  # noisy
            vals = rng.normal(scale=0.6, size=n)
        elif shape == 1:  # quantised: many equally wide windows
            vals = 0.5 * rng.integers(0, 4, size=n)
        elif shape == 2:  # stepped
            vals = np.cumsum(rng.choice([0.0, 0.0, 0.3, -0.3, 1.0], size=n))
        else:  # plateaus of random height and length
            vals = np.repeat(rng.uniform(0.0, 2.0, size=n), rng.integers(1, 5, size=n))[:n]
        want = _widest_flat_window_by_brute_force(vals, tol)
        assert solver._longest_flat_window(vals, tol) == want
        # count the traces with more than one widest window
        width = want[1] - want[0]
        ties += sum(np.ptp(vals[a : a + width + 1]) <= tol for a in range(n - width)) > 1
    assert ties > 50


@pytest.mark.parametrize("residual", [
    [3e-9, 1e-9, 2e-9],
    [4e-9, 1e-9, 7e-9, 2e-9],
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1e-3, math.inf, 2e-3, 5.0],
])
def test_fans_from_trace_tolerance_is_ten_medians(residual):
    """The hand-taken median is the float np.median returns, odd or even."""
    res = np.asarray(residual)
    thetas = np.linspace(-1.0, 1.0, res.size)
    trace = RadialTrace(np.array([0.1]), thetas, thetas[None, :], thetas.copy(), res)
    assert fans_from_trace(trace).tolerance == max(10.0 * float(np.median(res)), 1e-12)


def test_fans_from_trace_rejects_a_nan_residual():
    thetas = np.linspace(-1.0, 1.0, 5)
    res = np.array([1e-9, math.nan, 0.0, 1e-9, 2e-9])
    trace = RadialTrace(np.array([0.1]), thetas, thetas[None, :], thetas.copy(), res)
    with pytest.raises(ValueError, match="tolerance"):
        fans_from_trace(trace)


def test_fans_from_trace_end_to_end():
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 16, 16)
    field = solve_capillary(mesh, 1.0, 2.0, NEUTRAL_P, NEUTRAL_M)
    trace = radial_trace(field, 6)
    fans = fans_from_trace(trace)
    assert fans.case == "constant"
    assert np.all(trace.rf == -2.0)


# ---------------------------------------------------------------------------
# roundoff probe of the corner trace: a trace worth reading moves by a modest
# multiple of a relative perturbation of the field it extrapolates


def roundoff_probe(field, n_radii):
    """Re-trace ``field`` with its values multiplied by (1 + 1e-15 xi), xi
    standard normal (seed 0).  Returns the largest move of Rf over the
    largest move of the field, and the fan case before and after."""
    xi = np.random.default_rng(0).standard_normal(field.values.shape)
    nudged = dataclasses.replace(field, values=field.values * (1.0 + 1e-15 * xi))
    traces = [radial_trace(f, n_radii) for f in (field, nudged)]
    moved = np.max(np.abs(nudged.values - field.values))
    amplification = float(np.max(np.abs(traces[1].rf - traces[0].rf)) / moved)
    return amplification, [fans_from_trace(t).case for t in traces]


@pytest.fixture(scope="module")
def corner_field():
    """A real 48x48 solve: walls 0.6 and 2.0, alpha = 1, kappa = 1,
    lambda = 2, r_min = 0.05."""
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 48, 48)
    field = solve_capillary(mesh, 1.0, 2.0, constant_profile("+", 0.6), constant_profile("-", 2.0))
    assert field.converged
    return field


def test_trace_at_two_radii_survives_roundoff(corner_field):
    amplification, cases = roundoff_probe(corner_field, 2)
    assert amplification <= 1e3  # about 10 here
    assert cases[0] == cases[1]


@pytest.mark.xfail(
    strict=True,
    reason="known defect, ROADMAP item 1: the Richardson tableau over the default "
    "n_radii = 8 rows amplifies roundoff about 2e6-fold at 48x48 (q^k - 1 -> 0)",
)
def test_trace_at_the_default_radii_survives_roundoff(corner_field):
    amplification, cases = roundoff_probe(corner_field, 8)
    assert amplification <= 1e3
    assert cases[0] == cases[1]


@pytest.fixture(scope="module")
def corner_solve_field():
    """The benchmark's 128x128 capillary solve: example2 walls 0.8 / 2.0,
    alpha = 1, kappa = 1, lambda = 2, r_min = 0.05."""
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 128, 128)
    field = solve_capillary(mesh, 1.0, 2.0, *example2_walls())
    assert field.converged
    return field


def test_corner_solve_trace_at_two_radii_survives_roundoff(corner_solve_field):
    amplification, cases = roundoff_probe(corner_solve_field, 2)
    assert amplification <= 1e3  # about 40 here
    assert cases[0] == cases[1]


@pytest.mark.xfail(
    strict=True,
    reason="known defect, ROADMAP item 1: the Richardson tableau over the default "
    "n_radii = 8 rows amplifies roundoff about 2e9-fold at 128x128",
)
def test_corner_solve_trace_at_the_default_radii_survives_roundoff(corner_solve_field):
    amplification, cases = roundoff_probe(corner_solve_field, 8)
    assert amplification <= 1e3
    assert cases[0] == cases[1]


# ROADMAP item 15: regression tests of the forward-difference Jacobian, which
# fail until the Newton Jacobian is exact.

_ITEM_15 = (
    "known defect, ROADMAP item 15: the forward-difference Jacobian's "
    "truncation error leaves J.1 != 0 and stalls Newton near the corner"
)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_ITEM_15)
def test_jacobian_annihilates_constants():
    """The residual reads only differences of f, so at kappa = 0 every row of
    the Jacobian sums to 0; the pinned Newton step assumes it (6.3e-7 today,
    with max|J| = 3.25)."""
    mesh = build_sector_mesh(GEO, 0.05, 1.0, 24, 12)
    disc = _Discretization(mesh, lambda r, t, z: 0.0 * z + 2.0, *example2_walls())
    f = np.sin(3.0 * disc.r_col) * np.cos(2.0 * disc.t_row)
    jac = disc.jacobian(f, disc.residual(f)).toarray()
    assert np.max(np.abs(jac.sum(axis=1))) <= 1e-14 * np.max(np.abs(jac))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_ITEM_15)
@pytest.mark.parametrize("r_min, m, n_theta, max_iter", [
    (5e-4, 79, 96, 200),  # today: stops after 21 steps at 1.1e-4
    (1e-6, 144, 48, 30),  # today: 30 steps, unconverged at 2.6e-4
])
def test_borderline_constant_walls_converge(r_min, m, n_theta, max_iter):
    """Constant walls 0.6 / 2.0 (alpha = 1, kappa = 1, lambda = 2): an exact
    (complex-step) Jacobian converges them in 8 and 19 steps."""
    mesh = build_sector_mesh(GEO, r_min, 1.0, m, n_theta)
    walls = constant_profile("+", 0.6), constant_profile("-", 2.0)
    field = solve_capillary(mesh, 1.0, 2.0, *walls, SolverConfig(max_iter=max_iter))
    assert field.converged
