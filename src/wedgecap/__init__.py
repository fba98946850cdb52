"""Bounded capillary surfaces in a wedge with oscillating contact angle.

The package splits into five layers: wall profiles and their scale averages
(:mod:`wedgecap.profiles`), the lower/upper adhesion functionals and their
closed forms (:mod:`wedgecap.functionals`), admissible-fan scans and
effective-angle bounds (:mod:`wedgecap.bounds`), the blow-up comparison
geometry (:mod:`wedgecap.blowup`), and a finite-volume solver with radial
limit extraction (:mod:`wedgecap.solver`).  :mod:`wedgecap.cli` exposes all
of it as the ``wedgecap`` command.

``import wedgecap`` loads none of these layers: each exported name imports
its home module when it is first used (PEP 562).
"""

import importlib

#: every exported name, by the module that defines it
_EXPORTS = {
    "base": ("ProfileFormatError",),
    "blowup": (
        "TriangleComparison", "bc_length", "contradiction_witness",
        "limit_difference_table", "phi_difference", "phi_limit_difference",
        "psi_difference", "psi_limit_difference", "sine_rule_bc", "triangle_omega",
    ),
    "bounds": (
        "AdhesionFunction", "FanBoundResult", "FanCase", "InfeasibleScanError",
        "adhesion_from_profile", "case_condition_map", "condition_decreasing",
        "condition_increasing", "corollary1_bound", "default_lambda_grid",
        "effective_angle", "holds_for_all_lambda", "min_admissible_fan",
        "required_functional_kind",
    ),
    "functionals": (
        "AdhesionEstimate", "SweepConfig", "best_estimates", "estimate_AI",
        "estimate_AS", "exact_A_example1", "exact_A_log_periodic", "sweep_table",
        "verify_log_periodic",
    ),
    "io": ("load_profile", "profile_from_dict"),
    "profiles": (
        "ContactProfile", "GammaBoundsHypothesis", "WedgeGeometry", "averaged_cos",
        "averaged_cos_many", "constant_profile", "cos_integral", "example1_profile",
        "example2_profile", "hypothesis_from_profiles", "make_piecewise",
        "theorem1_applicability",
    ),
    "solver": (
        "FanMeasurement", "ManufacturedCase", "RadialTrace", "SectorMesh",
        "SolutionField", "SolverConfig", "build_sector_mesh", "fans_from_trace",
        "manufactured_case", "manufactured_convergence", "manufactured_solve",
        "measure_fans", "radial_trace", "solve_capillary", "solve_pmc",
        "torus_minor_radius",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
