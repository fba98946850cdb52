"""Scale-window adhesion values: sweeps, closed forms, and their invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgecap.functionals import (
    KIND_LOWER,
    KIND_UPPER,
    METHOD_LOG_PERIODIC,
    METHOD_SEQUENCE,
    METHOD_SWEEP,
    AdhesionEstimate,
    SweepConfig,
    best_estimates,
    estimate_AI,
    estimate_AS,
    exact_A_example1,
    exact_A_log_periodic,
    sweep_table,
    verify_log_periodic,
)
from wedgecap.profiles import (
    ContactProfile,
    constant_profile,
    essential_range,
    example1_profile,
    example2_profile,
    make_piecewise,
)

angles = st.floats(min_value=0.0, max_value=math.pi)


def two_block_ratio4(depth=30):
    """Alternating 0 / pi blocks, self-similar at scale ratio 4.

    Pattern per period: gamma = 0 on (x/4, x/2], gamma = pi on (x/2, x].
    """
    breaks = []
    for n in range(depth):
        breaks += [4.0 ** -n, 4.0 ** -n / 2.0]
    breaks = sorted(breaks)  # even count; last segment (1/2, 1] gets pi
    values = [math.pi if i % 2 == 1 else 0.0 for i in range(len(breaks))]
    return make_piecewise("+", breaks, values)


# ---------------------------------------------------------------------------
# sweep estimates


def test_constant_profile_sweep_is_exact():
    for gamma in (0.0, math.pi / 3, 2.1, math.pi):
        p = constant_profile("+", gamma)
        for b in (0.3, 0.5, 0.9):
            lo = estimate_AI(p, b)
            hi = estimate_AS(p, b)
            assert lo.value == pytest.approx(b * math.cos(gamma), rel=1e-13, abs=1e-15)
            assert hi.value == pytest.approx(b * math.cos(gamma), rel=1e-13, abs=1e-15)
            assert lo.method == METHOD_SWEEP
            assert lo.uncertainty > 0.0


def test_sweep_ai_below_as():
    p = example2_profile(0.5, 2.5)
    assert estimate_AI(p, 0.7).value <= estimate_AS(p, 0.7).value


def test_sweep_rejects_window_past_wall():
    p = constant_profile("+", 1.0, s_max=1.0)
    with pytest.raises(ValueError):
        estimate_AI(p, 0.5, SweepConfig(eps_hi=3.0))


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(eps_hi=1.0, eps_lo=2.0)
    with pytest.raises(ValueError):
        SweepConfig(eps_hi=1.0, points_per_decade=4)


def test_sweep_grid_supersets_bitwise():
    """Doubling density and halving the floor reproduces old nodes exactly."""
    coarse = SweepConfig(eps_hi=2.0, eps_lo=1e-6, points_per_decade=16)
    fine = SweepConfig(eps_hi=2.0, eps_lo=5e-7, points_per_decade=32)
    gc, gf = coarse.grid(), fine.grid()
    assert set(gc.tolist()) <= set(gf.tolist())


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(angles, angles),
    st.floats(min_value=0.1, max_value=0.9),
    st.integers(min_value=4, max_value=7),
)
def test_sweep_monotone_under_refinement(gs, b, p):
    """Refining the sweep never raises the lower value nor lowers the upper."""
    prof = example2_profile(gs[0], gs[1], depth=12)
    ppd = 2 ** p
    coarse = SweepConfig(eps_hi=prof.s_max / b, eps_lo=1e-5, points_per_decade=ppd)
    fine = SweepConfig(eps_hi=prof.s_max / b, eps_lo=5e-6, points_per_decade=2 * ppd)
    assert estimate_AI(prof, b, fine).value <= estimate_AI(prof, b, coarse).value
    assert estimate_AS(prof, b, fine).value >= estimate_AS(prof, b, coarse).value


def test_sweep_table_shapes():
    p = example1_profile(0.3, 2.0)
    eps, vals = sweep_table(p, 0.5, SweepConfig(eps_hi=2.0, eps_lo=1e-4))
    assert eps.shape == vals.shape
    assert np.all(np.diff(eps) < 0.0)
    assert eps[0] == 2.0
    assert np.all(np.abs(vals) <= 0.5 + 1e-12)


# ---------------------------------------------------------------------------
# closed forms


def test_exact_example1_values():
    lo, hi = exact_A_example1(math.pi / 3, 2 * math.pi / 3, 0.5)
    assert lo.value == pytest.approx(-0.25, abs=1e-12)
    assert hi.value == pytest.approx(0.25, abs=1e-12)
    assert lo.method == METHOD_SEQUENCE
    assert lo.uncertainty == 0.0


def test_exact_example1_validation():
    with pytest.raises(ValueError):
        exact_A_example1(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        exact_A_example1(0.5, 1.0, 0.0)


@given(angles, angles, st.floats(min_value=1e-3, max_value=10.0))
def test_exact_example1_order(g1, g2, b):
    lo, hi = exact_A_example1(g1, g2, b)
    assert lo.value <= hi.value + 1e-15
    assert abs(lo.value) <= b * (1.0 + 1e-12)
    if g1 == g2:
        assert lo.value == hi.value


def test_exact_log_periodic_example2():
    g1, g2, b = math.pi / 3, 2 * math.pi / 3, 0.5
    p = example2_profile(g1, g2)
    lo, hi = exact_A_log_periodic(p, b, 4.0)
    c1, c2 = math.cos(g1), math.cos(g2)
    assert lo.value == pytest.approx(b * (c1 / 3 + 2 * c2 / 3), abs=1e-12)
    assert hi.value == pytest.approx(b * (2 * c1 / 3 + c2 / 3), abs=1e-12)
    assert lo.method == METHOD_LOG_PERIODIC


def test_exact_log_periodic_constant_trivial():
    p = constant_profile("+", 1.1)
    lo, hi = exact_A_log_periodic(p, 0.8, 4.0)
    assert lo.value == pytest.approx(0.8 * math.cos(1.1), rel=1e-14)
    assert hi.value == pytest.approx(0.8 * math.cos(1.1), rel=1e-14)


def test_exact_log_periodic_rejects_non_periodic():
    p = example1_profile(0.5, 2.0)  # dyadic super-blocks: not scale-4 periodic
    with pytest.raises(ValueError):
        verify_log_periodic(p, 4.0)
    irregular = make_piecewise("+", [0.3, 0.65, 1.0], [0.1, 2.0, 1.0])
    with pytest.raises(ValueError):
        exact_A_log_periodic(irregular, 0.5, 4.0)
    with pytest.raises(ValueError):
        verify_log_periodic(constant_profile("+", 1.0), 0.5)


def test_exact_log_periodic_against_dense_offset_oracle():
    """Two-block pattern: extrema from a dense scale sweep with kink offsets."""
    p = two_block_ratio4(depth=30)
    for b in (0.25, 0.5, 1.0):
        lo, hi = exact_A_log_periodic(p, b, 4.0)
        x0 = 4.0 ** -6
        xs = np.geomspace(x0, 4 * x0, 10001)
        kinks = p.breaks[(p.breaks >= x0) & (p.breaks <= 4 * x0)]
        xs = np.unique(np.concatenate((xs, kinks)))
        ratios = p.integral_many(xs) / xs
        assert lo.value == pytest.approx(b * float(ratios.min()), abs=1e-9)
        assert hi.value == pytest.approx(b * float(ratios.max()), abs=1e-9)


def test_two_block_exact_values():
    """Hand-computed extrema of the alternating 0/pi ratio-4 pattern.

    Self-similarity gives F(1) = F(1)/4 + 1/4 - 1/2, so F(1) = -1/3; the
    ratio F(x)/x then peaks at +1/3 (x = 1/2) and bottoms at -1/3 (x = 1).
    """
    p = two_block_ratio4(depth=30)
    lo, hi = exact_A_log_periodic(p, 1.0, 4.0)
    assert lo.value == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert hi.value == pytest.approx(1.0 / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# structural invariants


@settings(max_examples=30, deadline=None)
@given(st.tuples(angles, angles), st.floats(min_value=0.05, max_value=0.95))
def test_sandwich_between_essential_cosines(gs, b):
    prof = example2_profile(gs[0], gs[1], depth=16)
    g_lo, g_hi = essential_range(prof)
    lo, hi = best_estimates(prof, b)
    assert b * math.cos(g_hi) - 1e-9 <= lo.value
    assert lo.value <= hi.value + 1e-12
    assert hi.value <= b * math.cos(g_lo) + 1e-9


def test_sweep_agrees_with_exact_within_uncertainty():
    # truncation of the generated profile biases the deepest windows by
    # ~2*tail/window, so keep eps_lo moderate and allow 1e-9 one-sidedness
    for g1, g2, b in [(0.4, 2.0, 0.5), (math.pi / 3, 2 * math.pi / 3, 0.25)]:
        prof = example2_profile(g1, g2)
        exact_lo, exact_hi = exact_A_log_periodic(prof, b, 4.0)
        sweep = SweepConfig.for_profile(prof, b, eps_lo=1e-4)
        swept_lo = estimate_AI(prof, b, sweep)
        swept_hi = estimate_AS(prof, b, sweep)
        assert swept_lo.value >= exact_lo.value - 1e-9
        assert swept_lo.value - exact_lo.value <= swept_lo.uncertainty
        assert swept_hi.value <= exact_hi.value + 1e-9
        assert exact_hi.value - swept_hi.value <= swept_hi.uncertainty


@given(st.floats(min_value=0.01, max_value=3.13), st.floats(min_value=0.1, max_value=4.0))
def test_degree_one_scaling_constant(gamma, b):
    lo1, _ = exact_A_example1(gamma, gamma, 1.0)
    lob, _ = exact_A_example1(gamma, gamma, b)
    assert lob.value == pytest.approx(b * lo1.value, rel=1e-12, abs=1e-15)


def test_estimate_validation():
    with pytest.raises(ValueError):
        AdhesionEstimate(1.0, "X", 0.0, METHOD_SWEEP, 0.1)
    with pytest.raises(ValueError):
        AdhesionEstimate(1.0, "I", 0.0, "magic", 0.1)
    with pytest.raises(ValueError):
        AdhesionEstimate(1.0, "I", 2.0, METHOD_SWEEP, 0.1)  # |value| > b
    with pytest.raises(ValueError):
        AdhesionEstimate(1.0, "I", math.nan, METHOD_SEQUENCE, 0.0)  # NaN is no value
    with pytest.raises(ValueError):
        AdhesionEstimate(1.0, "I", 0.5, METHOD_SEQUENCE, 0.1)  # exact needs 0
    with pytest.raises(ValueError):
        AdhesionEstimate(1.0, "I", 0.5, METHOD_SWEEP, 0.0)  # sweep needs > 0
    ok = AdhesionEstimate(1.0, "I", 0.5, METHOD_SEQUENCE, 0.0)
    assert ok.kind == KIND_LOWER


def test_closed_form_past_the_bound_is_refused_not_clamped(monkeypatch):
    """Integrals that overshoot by a relative 1e-8 put a log-periodic wall's
    closed form past |A(b)| <= b; the estimate refuses it, as no closed form
    clamps its values."""
    integral_many = ContactProfile.integral_many
    monkeypatch.setattr(ContactProfile, "integral_many",
                        lambda self, xs: integral_many(self, xs) * (1.0 + 1e-8))
    with pytest.raises(ValueError, match=r"\|A\(b\)\| <= b"):
        best_estimates(example2_profile(0.0, 0.0), 0.5)


# ---------------------------------------------------------------------------
# route selection


def test_best_estimates_routes():
    ex1 = example1_profile(0.4, 2.2)
    lo, hi = best_estimates(ex1, 0.5)
    assert lo.method == METHOD_SEQUENCE and hi.method == METHOD_SEQUENCE
    assert lo.value == pytest.approx(0.5 * math.cos(2.2), rel=1e-14)

    ex2 = example2_profile(0.4, 2.2)
    lo, hi = best_estimates(ex2, 0.5)
    assert lo.method == METHOD_LOG_PERIODIC

    const = constant_profile("+", 1.3, s_max=2.0)
    lo, hi = best_estimates(const, 0.5)
    assert lo.method == METHOD_SEQUENCE
    assert lo.uncertainty == 0.0
    assert lo.value == hi.value

    irregular = make_piecewise("+", [0.3, 0.65, 1.0], [0.1, 2.0, 1.0])
    lo, hi = best_estimates(irregular, 0.5)
    assert lo.method == METHOD_SWEEP
    assert lo.uncertainty > 0.0
    assert lo.kind == KIND_LOWER and hi.kind == KIND_UPPER


@pytest.mark.parametrize("b", [0.0, -0.5])
@pytest.mark.parametrize(
    "profile",
    [
        constant_profile("+", 1.3),
        make_piecewise("+", [0.5, 1.0], [0.4, 2.2]),
        example1_profile(0.4, 2.2),
        example2_profile(0.4, 2.2),
    ],
    ids=["constant", "two-segment", "example1", "example2"],
)
def test_best_estimates_refuses_a_nonpositive_window_on_every_route(profile, b):
    with pytest.raises(ValueError, match="window factor must be positive"):
        best_estimates(profile, b)


@pytest.mark.parametrize("b", [0.0, -0.5, math.nan])
@pytest.mark.parametrize(
    "entry",
    [
        lambda b: estimate_AI(make_piecewise("+", [0.5, 1.0], [0.4, 2.2]), b),
        lambda b: estimate_AS(make_piecewise("+", [0.5, 1.0], [0.4, 2.2]), b),
        lambda b: sweep_table(make_piecewise("+", [0.5, 1.0], [0.4, 2.2]), b),
        lambda b: best_estimates(constant_profile("+", 1.3), b),
        lambda b: exact_A_log_periodic(example2_profile(0.4, 2.2), b, 4.0),
        lambda b: exact_A_example1(0.4, 2.2, b),
    ],
    ids=["estimate_AI", "estimate_AS", "sweep_table", "best_estimates",
         "exact_A_log_periodic", "exact_A_example1"],
)
def test_every_entry_point_refuses_a_window_that_is_not_positive(entry, b):
    """b = 0 and b < 0 hold no window, and NaN is no number: each is refused
    with one message, not divided by or carried into NaN estimates."""
    with pytest.raises(ValueError, match="window factor must be positive"):
        entry(b)
