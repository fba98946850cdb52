"""Admissible-fan scans, frozen-slope cross-checks, and effective angles."""

import dataclasses
import importlib.util
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgecap.bounds import (
    DECREASING,
    INCREASING,
    AdhesionFunction,
    FanBoundResult,
    FanCase,
    LAMBDA_MARGIN,
    InfeasibleScanError,
    _sweep_table,
    adhesion_from_profile,
    case_condition_map,
    condition_decreasing,
    condition_increasing,
    corollary1_bound,
    default_lambda_grid,
    effective_angle,
    fan_bound_rows,
    holds_for_all_lambda,
    min_admissible_fan,
    required_functional_kind,
)
from wedgecap.blowup import contradiction_witness
from wedgecap.functionals import (
    EPS_FLOOR,
    METHOD_LOG_PERIODIC,
    METHOD_SWEEP,
    SweepConfig,
    best_estimates,
    sweep_table,
)
from wedgecap.io import profile_from_dict
from wedgecap.profiles import (
    averaged_cos,
    averaged_cos_many,
    constant_profile,
    example1_profile,
    example2_profile,
    make_piecewise,
)

A_FULL = AdhesionFunction.linear(1.0, "I")  # A(b) = b
A_ZERO_I = AdhesionFunction.linear(0.0, "I")
A_ZERO_S = AdhesionFunction.linear(0.0, "S")
A_NEG = AdhesionFunction.linear(-1.0, "I")  # A(b) = -b


# ---------------------------------------------------------------------------
# pointwise conditions


def test_condition_increasing_examples():
    v = condition_increasing(A_ZERO_I, math.pi / 4, math.pi / 2)
    assert v == pytest.approx(math.sin(math.pi / 4) - 1.0, abs=1e-12)
    # at beta = pi/2 the zero-functional condition is tight near lambda = pi/2
    v = condition_increasing(A_ZERO_I, math.pi / 2, math.pi / 2 + 1e-6)
    assert abs(v) < 2e-6


def test_condition_decreasing_examples():
    v = condition_decreasing(A_ZERO_S, math.pi / 4, math.pi / 2)
    assert v == pytest.approx(math.sin(math.pi / 4) - 1.0, abs=1e-12)
    A = AdhesionFunction.linear(-0.5, "S")
    v = condition_decreasing(A, 0.5, 1.5)
    b = math.sin(1.0) / math.sin(1.5)
    expected = math.sin(0.5) / math.sin(1.5) - 1.0 + 0.5 * b
    assert v == pytest.approx(expected, abs=1e-13)


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=1e-3, max_value=3.1),
)
def test_sine_subadditivity_makes_full_adhesion_feasible(beta, gap):
    """sin(lambda) <= sin(lambda - beta) + sin(beta) on the admissible range."""
    lam = beta + gap
    if lam >= math.pi - 1e-9:
        return
    assert condition_increasing(A_FULL, beta, lam) >= -1e-12
    assert condition_decreasing(AdhesionFunction.linear(-1.0, "S"), beta, lam) >= -1e-12


def test_condition_domain_checks():
    with pytest.raises(ValueError):
        condition_increasing(A_ZERO_I, 1.0, 0.5)  # lambda below beta
    with pytest.raises(ValueError):
        condition_increasing(A_ZERO_I, 0.5, math.pi)
    with pytest.raises(ValueError):
        condition_increasing(A_ZERO_I, -0.1, 0.5)
    # NaN is no angle: refused, not carried into a NaN condition
    for condition, A in ((condition_increasing, A_ZERO_I), (condition_decreasing, A_ZERO_S)):
        with pytest.raises(ValueError, match="fan width"):
            condition(A, math.nan, 1.0)
        for lam in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError):
                condition(A, 0.5, lam)


_WALL = make_piecewise("+", [0.5, 1.0], [0.4, 2.2])


@pytest.mark.parametrize(
    "call",
    [
        lambda: _WALL.integral_many([math.nan]),
        lambda: averaged_cos(_WALL, math.nan, 0.5),
        lambda: averaged_cos(_WALL, 0.5, math.nan),
        lambda: averaged_cos_many(_WALL, [0.5], 0.0),
        lambda: averaged_cos_many(_WALL, [0.0], 1.0),
        lambda: default_lambda_grid(math.nan),
        lambda: holds_for_all_lambda(lambda lam: condition_increasing(A_ZERO_I, 0.5, lam), math.nan),
    ],
    ids=["integral_many-nan", "averaged_cos-nan-scale", "averaged_cos-nan-window",
         "averaged_cos_many-zero-window", "averaged_cos_many-zero-scale",
         "default_lambda_grid-nan", "holds_for_all_lambda-nan"],
)
def test_input_rules_refuse_what_is_not_a_value(call):
    """A zero window or scale and a NaN endpoint, scale, window or fan width
    raise, not return zeros or NaN."""
    with pytest.raises(ValueError):
        call()


def test_conditions_vectorize():
    lam = np.array([1.0, 1.5, 2.0])
    out = condition_increasing(A_ZERO_I, 0.3, lam)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(condition_increasing(A_ZERO_I, 0.3, 1.5))


# ---------------------------------------------------------------------------
# quantified feasibility


def test_holds_for_all_lambda():
    ok, _ = holds_for_all_lambda(
        lambda lam: condition_increasing(A_FULL, 0.0, lam), 0.0
    )
    assert ok
    ok, worst = holds_for_all_lambda(
        lambda lam: condition_increasing(A_ZERO_I, math.pi / 4, lam), math.pi / 4
    )
    assert not ok
    assert worst == pytest.approx(math.pi / 2, abs=1e-3)
    ok, worst = holds_for_all_lambda(
        lambda lam: condition_increasing(A_ZERO_I, math.pi / 2, lam), math.pi / 2
    )
    assert ok


def test_holds_grid_validation():
    with pytest.raises(ValueError):
        holds_for_all_lambda(lambda lam: lam, 0.5, np.array([1.0, 2.0]))


def test_default_lambda_grid():
    g = default_lambda_grid(0.5)
    assert g.size >= 512
    assert g[0] == pytest.approx(0.5 + 1e-4)
    assert g[-1] == pytest.approx(math.pi - 1e-4)
    with pytest.raises(ValueError):
        default_lambda_grid(math.pi)


# ---------------------------------------------------------------------------
# fan scans


@pytest.mark.parametrize("gamma", [math.pi / 6, math.pi / 4, math.pi / 2, 2 * math.pi / 3])
def test_scan_matches_frozen_slope_bound(gamma):
    A_lo = AdhesionFunction.constant_angle(gamma, "I")
    (res,) = min_admissible_fan([(A_lo, INCREASING)])
    assert res.beta_min == pytest.approx(corollary1_bound(math.cos(gamma), "a"), abs=2e-3)
    assert res.method == "theorem2_scan"
    assert res.monotone_flag

    A_hi = AdhesionFunction.constant_angle(gamma, "S")
    (res,) = min_admissible_fan([(A_hi, DECREASING)])
    assert res.beta_min == pytest.approx(corollary1_bound(math.cos(gamma), "c"), abs=2e-3)


SCAN_WALLS = {
    "constant": constant_profile("+", 1.0),
    "example2": example2_profile(0.4, 2.2),
    "sweep": make_piecewise("+", [0.3, 0.65, 1.0], [0.1, 2.0, 1.0]),
}


def test_scan_result_brackets_feasibility():
    """On every scan wall and for both conditions, the reported width passes
    and has no contradiction witness; one step below it fails and has one."""
    side_of = {kind: side for side, kind in case_condition_map(FanCase.I)}
    for wall in SCAN_WALLS.values():
        for cond_kind, condition in ((INCREASING, condition_increasing),
                                     (DECREASING, condition_decreasing)):
            A = adhesion_from_profile(wall, required_functional_kind(cond_kind))
            (res,) = min_admissible_fan([(A, cond_kind)])
            below = res.beta_min - res.beta_step
            assert below >= 0.0
            for beta, feasible in ((res.beta_min, True), (below, False)):
                ok, _ = holds_for_all_lambda(lambda lam: condition(A, beta, lam), beta)
                assert ok == feasible
                witness = contradiction_witness(A, FanCase.I, side_of[cond_kind], beta)
                assert (witness is None) == feasible


@pytest.mark.parametrize(
    "wall, cond_kind, beta_step",
    [(w, k, 1e-3) for w in SCAN_WALLS for k in (INCREASING, DECREASING)]
    + [("sweep", INCREASING, 9e-4)],  # 3,490 rows: 218 full blocks of 16 and 2 left
)
def test_scan_block_size_cannot_change_result(monkeypatch, wall, cond_kind, beta_step):
    import wedgecap.bounds

    A = adhesion_from_profile(SCAN_WALLS[wall], required_functional_kind(cond_kind))
    results = []
    for rows in (1, 7, 16, 64, 10**6):
        monkeypatch.setattr(wedgecap.bounds, "_SCAN_ROWS", rows)
        results.append(min_admissible_fan([(A, cond_kind)], beta_step=beta_step))
    for r in results[1:]:
        assert r == results[0]  # every field, compared with ==


def test_fan_scan_working_storage():
    """tracemalloc peak of one fan_bound_rows call for every case on two
    sweep-table walls, tables built inside it.  The scan's temporaries hold
    16 beta rows by 512 lambdas.  The budget lies between the peak so
    measured (1.1 MB) and that of 64-row blocks (2.9 MB)."""
    walls = {"+": make_piecewise("+", [0.3, 0.65, 1.0], [0.1, 2.0, 1.0]),
             "-": make_piecewise("-", [0.3, 0.65, 1.0], [2.5, 0.6, 1.4])}
    tracemalloc.start()
    try:
        rows = fan_bound_rows(walls, list(FanCase))
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert {row[3] for row in rows} == {"theorem2_scan"}
    assert peak < 2.0


@pytest.mark.parametrize(
    "wall, cond_kind, beta_step",
    [(w, k, 1e-3) for w in SCAN_WALLS for k in (INCREASING, DECREASING)]
    + [("sweep", INCREASING, 9e-4)],
)
def test_coarse_stride_cannot_change_result(monkeypatch, wall, cond_kind, beta_step):
    """The coarse pass only settles rows the full grid would reject; stride 1
    is the full grid everywhere, 512 and beyond keep only the row ends."""
    import wedgecap.bounds

    A = adhesion_from_profile(SCAN_WALLS[wall], required_functional_kind(cond_kind))
    results = []
    for stride in (1, 8, 64, 512, 10**6):
        monkeypatch.setattr(wedgecap.bounds, "_COARSE_STRIDE", stride)
        results.append(min_admissible_fan([(A, cond_kind)], beta_step=beta_step))
    for r in results[1:]:
        assert r == results[0]  # every field, compared with ==


def test_scan_raises_when_the_coarse_pass_settles_every_row(monkeypatch):
    import wedgecap.bounds

    rows = []

    def recorded(requests, betas, *args):
        rows.append(len(betas))
        return grid_pass(requests, betas, *args)

    grid_pass = wedgecap.bounds._grid_pass
    monkeypatch.setattr(wedgecap.bounds, "_grid_pass", recorded)
    A = AdhesionFunction.constant_angle(math.pi, "I")  # A(b) = -b
    with pytest.raises(InfeasibleScanError):
        min_admissible_fan([(A, INCREASING)])
    assert rows[0] > 3000 and rows[1:] == [0]  # the full pass had no open row


def _four_pairs(wall):
    """The (A, condition) pairs of --case all, with the next SCAN_WALLS wall on -."""
    names = list(SCAN_WALLS)
    minus = names[(names.index(wall) + 1) % len(names)]
    profiles = {"+": SCAN_WALLS[wall], "-": SCAN_WALLS[minus]}
    pairs = case_condition_map(FanCase.I) + case_condition_map(FanCase.D)
    return [
        (adhesion_from_profile(profiles[side], required_functional_kind(kind)), kind)
        for side, kind in pairs
    ]


@pytest.mark.parametrize(
    "wall, beta_step", [(w, 1e-3) for w in SCAN_WALLS] + [("sweep", 9e-4)]
)
def test_shared_scan_equals_one_pair_scans(monkeypatch, wall, beta_step):
    """One pass over four pairs gives what four one-pair scans give, whatever
    the block size."""
    import wedgecap.bounds

    requests = _four_pairs(wall)
    alone = [min_admissible_fan([req], beta_step=beta_step)[0] for req in requests]
    for rows in (1, 7, 16, 64, 10**6):
        monkeypatch.setattr(wedgecap.bounds, "_SCAN_ROWS", rows)
        assert min_admissible_fan(requests, beta_step=beta_step) == alone


def test_shared_scan_raises_for_first_infeasible_pair():
    infeasible = [
        (AdhesionFunction.constant_angle(math.pi, "I"), INCREASING),  # A(b) = -b
        (AdhesionFunction.constant_angle(0.0, "S"), DECREASING),  # A(b) = b
    ]
    messages = []
    for req in infeasible:
        with pytest.raises(InfeasibleScanError) as alone:
            min_admissible_fan([req])
        messages.append(str(alone.value))
    assert messages[0] != messages[1]
    requests = _four_pairs("constant")
    for order in (infeasible, infeasible[::-1]):
        with pytest.raises(InfeasibleScanError) as shared:
            min_admissible_fan(requests[:2] + order + requests[2:])
        assert str(shared.value) == messages[infeasible.index(order[0])]


def test_scan_infeasible():
    A = AdhesionFunction.constant_angle(math.pi, "I")  # A(b) = -b
    with pytest.raises(InfeasibleScanError) as err:
        min_admissible_fan([(A, INCREASING)])
    assert err.value.tag == "infeasible_scan"
    assert isinstance(err.value, RuntimeError)


def test_scan_kind_mismatch():
    with pytest.raises(ValueError):
        min_admissible_fan([(A_ZERO_S, INCREASING)])
    with pytest.raises(ValueError):
        min_admissible_fan([(A_ZERO_I, DECREASING)])
    with pytest.raises(ValueError):
        min_admissible_fan([(A_ZERO_I, INCREASING)], beta_step=0.5)


def test_scan_refuses_an_unknown_condition_kind():
    with pytest.raises(ValueError, match="unknown condition kind 'sideways'"):
        min_admissible_fan([(A_ZERO_I, "sideways")])


def test_every_scan_probe_lies_in_the_checked_angles(monkeypatch):
    """The scan checks 0 <= beta < lambda < pi once, on the grid's row ends.
    Every grid and refinement probe, feasible or not, lies inside that span."""
    import wedgecap.bounds

    ratios = wedgecap.bounds._ratios
    probes = []

    def checked(beta, lam):
        beta, lam = np.broadcast_arrays(beta, lam)
        assert np.all((0.0 <= beta) & (beta < lam) & (lam < math.pi))
        probes.append(lam.size)
        return ratios(beta, lam)

    monkeypatch.setattr(wedgecap.bounds, "_ratios", checked)
    for plus, minus in (("constant", "example2"), ("sweep", "constant")):
        walls = {"+": SCAN_WALLS[plus], "-": SCAN_WALLS[minus]}
        assert len(fan_bound_rows(walls, list(FanCase))) == 8
    with pytest.raises(InfeasibleScanError):
        min_admissible_fan([(AdhesionFunction.constant_angle(math.pi, "I"), INCREASING)])
    assert sum(probes) > 0


def test_scan_monotone_in_functional():
    """Pointwise-smaller adhesion never shrinks the increasing-side fan."""
    widths = []
    for gamma in (0.5, 1.2, 2.0):
        A = AdhesionFunction.constant_angle(gamma, "I")
        widths.append(min_admissible_fan([(A, INCREASING)])[0].beta_min)
    assert widths == sorted(widths)


def test_zero_functional_fans():
    (res,) = min_admissible_fan([(A_ZERO_I, INCREASING)])
    assert res.beta_min == pytest.approx(math.pi / 2, abs=2e-3)
    (res,) = min_admissible_fan([(A_ZERO_S, DECREASING)])
    assert res.beta_min == pytest.approx(math.pi / 2, abs=2e-3)


def test_fan_bound_result_validation():
    with pytest.raises(ValueError):
        FanBoundResult(math.pi, "theorem2_scan", None, True)


# ---------------------------------------------------------------------------
# frozen-slope bounds


def test_corollary1_values():
    assert corollary1_bound(1.0, "a") == 0.0
    assert corollary1_bound(0.0, "c") == pytest.approx(math.pi / 2)
    assert corollary1_bound(-1.0 / 6.0, "a") == pytest.approx(1.73824, abs=1e-5)
    with pytest.raises(ValueError):
        corollary1_bound(1.5, "a")
    with pytest.raises(ValueError):
        corollary1_bound(0.5, "e")


@given(st.floats(min_value=-1.0, max_value=1.0))
def test_corollary1_complement(m):
    a = corollary1_bound(m, "a")
    c = corollary1_bound(m, "c")
    assert a == corollary1_bound(m, "b")
    assert c == corollary1_bound(m, "d")
    assert a + c == pytest.approx(math.pi, abs=1e-14)


# ---------------------------------------------------------------------------
# effective angles


def test_effective_angle_example1():
    g1, g2 = math.pi / 3, 2 * math.pi / 3
    A = adhesion_from_profile(example1_profile(g1, g2), "I")
    m, sigma = effective_angle(A)
    assert sigma == pytest.approx(max(g1, g2), abs=1e-9)
    A = adhesion_from_profile(example1_profile(g1, g2), "S")
    m, sigma = effective_angle(A)
    assert sigma == pytest.approx(min(g1, g2), abs=1e-9)


def test_effective_angle_example2():
    g1, g2 = 0.7, 2.3
    p = example2_profile(g1, g2)
    A = adhesion_from_profile(p, "S")
    m, sigma = effective_angle(A)
    assert m == pytest.approx(2 * math.cos(g1) / 3 + math.cos(g2) / 3, abs=1e-9)
    A = adhesion_from_profile(p, "I")
    m, _ = effective_angle(A)
    assert m == pytest.approx(math.cos(g1) / 3 + 2 * math.cos(g2) / 3, abs=1e-9)


def test_effective_angle_constant():
    A = AdhesionFunction.constant_angle(1.234, "I")
    m, sigma = effective_angle(A)
    assert sigma == pytest.approx(1.234, rel=1e-12)


# ---------------------------------------------------------------------------
# case plumbing


def test_case_condition_map():
    assert case_condition_map(FanCase.I) == (("+", INCREASING), ("-", DECREASING))
    assert case_condition_map(FanCase.D) == (("-", INCREASING), ("+", DECREASING))
    assert case_condition_map(FanCase.DI) == (("+", INCREASING), ("-", INCREASING))
    assert case_condition_map(FanCase.ID) == (("-", DECREASING), ("+", DECREASING))
    assert case_condition_map("I") == case_condition_map(FanCase.I)


def test_required_functional_kind():
    assert required_functional_kind(INCREASING) == "I"
    assert required_functional_kind(DECREASING) == "S"


def test_required_functional_kind_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown condition kind 'sideways'"):
        required_functional_kind("sideways")


# ---------------------------------------------------------------------------
# adhesion evaluators


def test_adhesion_function_bound_enforced():
    bad = AdhesionFunction(kind="I", fn=lambda b: 2.0 * b)
    with pytest.raises(ValueError):
        bad(0.5)
    with pytest.raises(ValueError):
        AdhesionFunction(kind="Q", fn=lambda b: b)
    with pytest.raises(ValueError):
        AdhesionFunction.linear(1.5, "I")
    with pytest.raises(ValueError):
        AdhesionFunction.constant_angle(-0.2, "I")


def test_scan_checks_custom_evaluators():
    bad = AdhesionFunction(kind="I", fn=lambda b: 2.0 * b)
    with pytest.raises(ValueError, match=r"\|A\(b\)\| <= b"):
        min_admissible_fan([(bad, INCREASING)])


def test_sweep_table_envelope_checked_when_built(monkeypatch):
    from wedgecap.profiles import ContactProfile

    def wall():  # a new wall each time, so no table is reused
        return make_piecewise("+", [0.3, 0.65, 1.0], [0.1, 2.0, 1.0])

    monkeypatch.setattr(ContactProfile, "integral_many", lambda self, xs: (1.0 + 1e-8) * xs)
    for kind in "IS":
        with pytest.raises(ValueError, match=r"\|A\(b\)\| <= b"):
            adhesion_from_profile(wall(), kind)
    # within the slack the envelope is clipped once, as each call clipped it
    monkeypatch.setattr(ContactProfile, "integral_many", lambda self, xs: (1.0 + 5e-10) * xs)
    bs = np.linspace(0.05, 3.0, 60)
    assert np.array_equal(adhesion_from_profile(wall(), "S")(bs), bs)


def test_sweep_table_built_once_per_wall(monkeypatch):
    from wedgecap.profiles import ContactProfile

    calls = []
    integral_many = ContactProfile.integral_many
    monkeypatch.setattr(ContactProfile, "integral_many",
                        lambda self, xs: calls.append(len(xs)) or integral_many(self, xs))
    irregular = make_piecewise("+", [0.3, 0.65, 1.0], [0.1, 2.0, 1.0])
    lower, upper = (adhesion_from_profile(irregular, kind) for kind in "IS")
    bs = np.linspace(0.05, 3.0, 60)
    assert len(calls) == 1
    assert np.all(lower(bs) <= upper(bs))


def test_adhesion_function_scalar_and_array():
    A = AdhesionFunction.linear(0.5, "I")
    assert A(2.0) == 1.0
    out = A(np.array([1.0, 2.0]))
    assert np.array_equal(out, np.array([0.5, 1.0]))


def test_adhesion_from_profile_routes():
    c = adhesion_from_profile(constant_profile("+", 0.9), "I")
    assert c.method == "constant_angle"
    assert c(2.0) == pytest.approx(2.0 * math.cos(0.9), rel=1e-14)

    e1 = adhesion_from_profile(example1_profile(0.4, 2.2), "I")
    assert e1.method == "sequence_exact"
    assert e1(2.0) == pytest.approx(2.0 * math.cos(2.2), rel=1e-14)

    e2 = adhesion_from_profile(example2_profile(0.4, 2.2), "S")
    assert e2.method == "log_periodic_exact"

    irregular = make_piecewise("+", [0.3, 0.65, 1.0], [0.1, 2.0, 1.0])
    sw = adhesion_from_profile(irregular, "I")
    assert sw.method == "sweep"
    for b in (0.2, 0.7, 1.3):
        assert abs(sw(b)) <= b * (1.0 + 1e-12)


def _generated(side, kind, g1, g2):
    spec = {"side": side, "generator": {"type": kind, "gamma1": g1, "gamma2": g2}}
    return profile_from_dict(spec)


@pytest.mark.parametrize(
    "profile",
    [
        constant_profile("+", 0.9),
        constant_profile("-", 2.1, s_max=2.0),
        make_piecewise("+", [0.7], [1.3]),
        _generated("+", "example1", 0.4, 2.2),
        _generated("-", "example1", 0.4, 2.2),
        _generated("+", "example2", 0.4, 2.2),
        _generated("-", "example2", 0.4, 2.2),
        make_piecewise("+", [0.3, 0.65, 1.0], [0.1, 2.0, 1.0]),
    ],
    ids=["constant+", "constant-", "one-segment", "example1+", "example1-",
         "example2+", "example2-", "irregular"],
)
def test_adhesion_from_profile_takes_the_best_estimates_route(profile):
    """Both callers of the wall router pick the same route and exact value."""
    b = 0.5
    for kind, est in zip("IS", best_estimates(profile, b)):
        A = adhesion_from_profile(profile, kind)
        single = profile.n_segments == 1
        assert A.method == ("constant_angle" if single else est.method)
        if est.method == METHOD_SWEEP:
            assert A(b) == pytest.approx(est.value, rel=0.0, abs=1e-12 * b)
            continue
        slope = A(1.0)
        if est.method == METHOD_LOG_PERIODIC:
            assert slope == pytest.approx(est.value / b, rel=1e-15)
        else:
            assert slope == est.value / b


def deep_wall(side, gammas):
    """Segments ending at 10^-k (1 + 0.3 (k mod 3)), k = 20..1, and at 1,
    their angles alternating; only a sweep that reaches below 1.6e-20 sees
    the innermost one whole."""
    ends = [10.0**-k * (1.0 + 0.3 * (k % 3)) for k in range(20, 0, -1)] + [1.0]
    return make_piecewise(side, ends, [gammas[i % 2] for i in range(len(ends))])


DEEP_WALLS = [deep_wall("+", (2.5, 0.5)), deep_wall("-", (0.9, 2.2))]


@pytest.mark.parametrize("eps_lo", [1e-10, 1e-13, 1e-16])
@pytest.mark.parametrize("wall", DEEP_WALLS, ids=["plus", "minus"])
def test_sweep_table_reaches_deep_floors(wall, eps_lo):
    """The table holds every window the scan asks, down to sin(LAMBDA_MARGIN),
    at any floor: it gives what a sweep of that window gives."""
    for b in (math.sin(LAMBDA_MARGIN), 1.0 / 33.0, 0.5, 1.0):
        for kind, est in zip("IS", best_estimates(wall, b, eps_lo=eps_lo)):
            A = adhesion_from_profile(wall, kind, eps_lo=eps_lo)
            assert A(b) == pytest.approx(est.value, rel=0.0, abs=1e-12 * b)


def test_sweep_table_refuses_a_window_it_cannot_reach():
    A = adhesion_from_profile(DEEP_WALLS[0], "I", eps_lo=1e-10)
    A(np.array([math.sin(LAMBDA_MARGIN), 1.0]))
    with pytest.raises(ValueError, match="below the sweep table"):
        A(np.array([1e-5, 1.0]))


IRREGULAR = make_piecewise("+", [0.3, 0.65, 1.0], [0.1, 2.0, 1.0])


@pytest.mark.parametrize("eps_lo", [1e-8, 1e-10, 1e-16])
@pytest.mark.parametrize("wall", [*DEEP_WALLS, IRREGULAR], ids=["plus", "minus", "irregular"])
def test_sweep_table_is_the_window_one_sweep(wall, eps_lo):
    """The table is functionals' sweep at b = 1, down to the scan's smallest
    window at the floor, and refuses a window exactly from SweepConfig's reach."""
    sweep = SweepConfig(wall.s_max, min(eps_lo, EPS_FLOOR) * math.sin(LAMBDA_MARGIN))
    xs, g = sweep_table(wall, 1.0, sweep)
    table = _sweep_table(wall, eps_lo)
    assert np.array_equal(table.asc, xs[::-1])
    assert np.array_equal(table.lower, np.minimum.accumulate(g)[::-1])
    assert np.array_equal(table.upper, np.maximum.accumulate(g)[::-1])

    # a window's sweep reads past the grid once b * eps_lo is at the reach
    for factor, longer in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
        window_sweep = SweepConfig.for_profile(wall, sweep.reach * factor / eps_lo, eps_lo=eps_lo)
        assert (window_sweep.grid().size > xs.size) == longer

    at = sweep.reach / eps_lo
    while at * eps_lo > sweep.reach:
        at = np.nextafter(at, 0.0)
    above = np.nextafter(at, np.inf)
    while above * eps_lo <= sweep.reach:
        above = np.nextafter(above, np.inf)
    for kind in "IS":
        A = adhesion_from_profile(wall, kind, eps_lo=eps_lo)
        assert np.isfinite(A(np.array([above, 1.0]))).all()
        with pytest.raises(ValueError, match="below the sweep table"):
            A(np.array([at, 1.0]))


def test_sweep_table_adhesion_is_degree_one_up_to_grid():
    """Sweep-backed A(b) tracks m*b within the grid envelope slack."""
    irregular = make_piecewise("+", [0.3, 0.65, 1.0], [0.1, 2.0, 1.0])
    A = adhesion_from_profile(irregular, "I")
    bs = np.linspace(0.05, 0.95, 19)
    ratios = A(bs) / bs
    assert np.max(ratios) - np.min(ratios) < 5e-2


def _golden_walls(family):
    """The + and - walls of one golden_artifacts.py family; the irregular
    ones are drawn as that script draws them, so they are its walls."""
    path = Path(__file__).parents[1] / "scripts" / "golden_artifacts.py"
    spec = importlib.util.spec_from_file_location("golden_artifacts", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    rng = random.Random("golden-artifacts")
    make = {
        "irregular": lambda s: golden.irregular(rng, s),
        "example1": lambda s: golden.two_angle(s, "example1", 0.7, 2.2),
        "example2": lambda s: golden.two_angle(s, "example2", 0.8, 2.0),
    }[family]
    return {s: profile_from_dict(make(s)) for s in "+-"}


@pytest.mark.parametrize("family, method", [
    ("irregular", "sweep"), ("example1", "sequence_exact"), ("example2", "log_periodic_exact"),
])
def test_one_ulp_in_every_adhesion_value_moves_no_scan_result(family, method):
    """Roundoff in A(b) cannot move a fan scan: each evaluator's values
    nudged one ulp up, then one ulp down, give the same beta_min,
    monotone_flag and worst_lambda on the four pairs of --case all."""
    walls = _golden_walls(family)
    pairs = list(dict.fromkeys(p for case in FanCase for p in case_condition_map(case)))
    requests = [
        (adhesion_from_profile(walls[side], required_functional_kind(kind)), kind)
        for side, kind in pairs
    ]
    assert {A.method for A, _ in requests} == {method}

    def outcome(reqs):
        return [(r.beta_min, r.monotone_flag, r.worst_lambda) for r in min_admissible_fan(reqs)]

    want = outcome(requests)
    for toward in (np.inf, -np.inf):
        nudged = [
            (dataclasses.replace(A, fn=lambda b, fn=A.fn: np.nextafter(fn(b), toward)), kind)
            for A, kind in requests
        ]
        assert outcome(nudged) == want
