"""Wall-profile construction, exact integration, and applicability tagging."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wedgecap.bounds import AdhesionFunction
from wedgecap.functionals import exact_A_example1
from wedgecap.io import load_profile
from wedgecap.profiles import (
    CONVEX_OK,
    FAILS,
    NONCONVEX_OK,
    ContactProfile,
    GammaBoundsHypothesis,
    ProfileFormatError,
    WedgeGeometry,
    averaged_cos,
    averaged_cos_many,
    constant_profile,
    cos_integral,
    example1_profile,
    example2_profile,
    hypothesis_from_profiles,
    make_piecewise,
    theorem1_applicability,
)

angles = st.floats(min_value=0.0, max_value=math.pi)


def segment_profiles(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    raw = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    breaks = sorted(raw)
    values = draw(st.lists(angles, min_size=n, max_size=n))
    side = draw(st.sampled_from(["+", "-"]))
    return make_piecewise(side, breaks, values)


# ---------------------------------------------------------------------------
# construction


def test_make_piecewise_single_segment():
    p = make_piecewise("+", [1.0], [math.pi / 2])
    assert p.s_max == 1.0
    assert p.n_segments == 1
    assert p.value_at(0.3) == math.pi / 2
    assert p.value_at(1.0) == math.pi / 2


def test_make_piecewise_two_segments_half_open():
    p = make_piecewise("+", [0.5, 1.0], [0.0, math.pi])
    # segments are (0, 0.5] and (0.5, 1]
    assert p.value_at(0.5) == 0.0
    assert p.value_at(0.5 + 1e-12) == math.pi
    assert p.value_at(1.0) == math.pi


def test_make_piecewise_rejects_bad_input():
    with pytest.raises(ValueError):
        make_piecewise("+", [1.0, 0.5], [0.0, 1.0])  # non-monotone
    with pytest.raises(ProfileFormatError):
        make_piecewise("+", [], [])
    with pytest.raises(ValueError):
        make_piecewise("+", [1.0], [4.0])  # angle outside [0, pi]
    with pytest.raises(ValueError):
        make_piecewise("+", [0.5, 1.0], [0.5, math.nan])
    with pytest.raises(ValueError):
        make_piecewise("+", [-1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ProfileFormatError):
        make_piecewise("x", [1.0], [0.5])
    with pytest.raises(ProfileFormatError):
        make_piecewise("+", [1.0], [0.5, 0.6])


#: every entry point that takes a contact angle, as a function of that angle
ANGLE_ENTRY_POINTS = {
    "make_piecewise": lambda g: make_piecewise("+", [1.0], [g]),
    "annotation": lambda g: make_piecewise("+", [1.0], [1.0], annotations=[(0.5, g)]),
    "hypothesis": lambda g: GammaBoundsHypothesis(g, g, g, g),
    "exact_A_example1": lambda g: exact_A_example1(1.0, g, 0.5),
    "constant_angle": lambda g: AdhesionFunction.constant_angle(g, "I"),
}


@pytest.mark.parametrize("entry", sorted(ANGLE_ENTRY_POINTS))
def test_contact_angle_rule_takes_both_endpoints_and_nothing_outside(entry):
    """0 <= gamma <= pi everywhere an angle enters: the endpoints 0 and pi are
    the paper's case, and NaN is no angle."""
    build = ANGLE_ENTRY_POINTS[entry]
    for gamma in (-0.1, math.pi + 1e-9, math.nan):
        with pytest.raises(ValueError, match=r"must lie in \[0, pi\]"):
            build(gamma)
    for gamma in (0.0, math.pi):
        build(gamma)


def test_constant_profile():
    p = constant_profile("-", 0.7, 3.0)
    assert p.side == "-"
    assert p.generator == "constant"
    assert p.value_at(2.9) == 0.7


def test_example1_block_membership():
    p = example1_profile(math.pi / 3, 2 * math.pi / 3)
    assert p.value_at(0.75) == math.pi / 3  # (1/2, 1]
    assert p.value_at(0.3) == 2 * math.pi / 3  # (1/4, 1/2]


def test_example1_matches_block_formula():
    """Every sampled s lands in the block the dyadic construction dictates."""
    g1, g2 = 0.4, 2.2
    depth = 6
    p = example1_profile(g1, g2, depth)
    rng = np.random.default_rng(7)
    for s in rng.uniform(math.ldexp(1.0, -depth * (depth + 1)) * 1.001, 1.0, 300):
        expected = None
        for n in range(1, depth + 1):
            lo_a, hi_a = math.ldexp(1.0, -n * n), math.ldexp(1.0, -n * (n - 1))
            lo_b = math.ldexp(1.0, -n * (n + 1))
            if lo_a < s <= hi_a:
                expected = g1
            elif lo_b < s <= lo_a:
                expected = g2
        assert expected is not None
        assert p.value_at(s) == expected


def test_example1_degenerate_is_constant():
    p = example1_profile(0.9, 0.9, 4)
    xs = np.linspace(1e-6, 1.0, 50)
    assert all(p.value_at(x) == 0.9 for x in xs)


def test_example1_tail_keeps_deepest_value():
    p = example1_profile(0.3, 2.0, 3)
    last_break = math.ldexp(1.0, -3 * 4)
    assert p.value_at(last_break / 7.0) == p.value_at(last_break * 0.999)


def test_example2_block_membership_and_annotations():
    p = example2_profile(1.0, 2.0)
    assert p.value_at(0.75) == 1.0  # (1/2, 1)
    assert p.value_at(0.3) == 2.0  # (1/4, 1/2)
    ann = dict(p.annotations)
    assert ann[0.5] == 0.0
    assert ann[1.0] == math.pi
    assert ann[0.25] == math.pi  # 4/4^2


def test_example2_self_similarity():
    """gamma(s/4) == gamma(s) on points away from breaks and annotations."""
    p = example2_profile(0.8, 2.4, depth=20)
    rng = np.random.default_rng(3)
    s = rng.uniform(2 ** -20, 1.0, 500)
    keep = np.ones_like(s, dtype=bool)
    for br in p.breaks:
        keep &= np.abs(s - br) > 1e-9
        keep &= np.abs(s / 4.0 - br) > 1e-9
    s = s[keep]
    for x in s:
        assert p.value_at(x / 4.0) == p.value_at(x)


def test_generator_depth_validation():
    with pytest.raises(ValueError):
        example1_profile(0.1, 0.2, 0)
    with pytest.raises(ValueError):
        example2_profile(0.1, 0.2, 600)  # breakpoints underflow


# ---------------------------------------------------------------------------
# integrals


def test_cos_integral_examples():
    assert cos_integral(constant_profile("+", math.pi / 2), 0.7) == pytest.approx(
        0.0, abs=1e-16
    )
    assert cos_integral(constant_profile("+", 0.0), 0.3) == pytest.approx(0.3)
    p = make_piecewise("+", [0.5, 1.0], [0.0, math.pi])
    assert cos_integral(p, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert cos_integral(p, 0.5) == pytest.approx(0.5)


def test_cos_integral_domain():
    p = constant_profile("+", 1.0)
    with pytest.raises(ValueError):
        cos_integral(p, -0.1)
    with pytest.raises(ValueError):
        cos_integral(p, 1.1)


@given(st.composite(segment_profiles)(), st.floats(min_value=0.0, max_value=1.0))
def test_cos_integral_bounded_by_length(p, frac):
    x = frac * p.s_max
    assert abs(cos_integral(p, x)) <= x + 1e-12


@given(
    st.composite(segment_profiles)(),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@example(p=constant_profile("+", 0.0), f1=0.0, f2=5e-324)
def test_cos_integral_additive(p, f1, f2):
    x, y = sorted((f1 * p.s_max, f2 * p.s_max))
    whole = cos_integral(p, y)
    parts = cos_integral(p, x) + (cos_integral(p, y) - cos_integral(p, x))
    assert whole == pytest.approx(parts, abs=1e-14)
    # the increment equals a direct segment-sum over (x, y]
    direct = 0.0
    breaks = np.asarray(p.breaks)
    edges = np.unique(np.concatenate(([x], breaks[(breaks > x) & (breaks < y)], [y])))
    for lo, hi in zip(edges[:-1], edges[1:]):
        # (lo, hi] lies in one segment; its midpoint can underflow to lo
        direct += (hi - lo) * math.cos(p.value_at(hi))
    assert whole - cos_integral(p, x) == pytest.approx(direct, abs=1e-12)


def test_averaged_cos_examples():
    assert averaged_cos(constant_profile("+", math.pi / 3), 0.9, 0.5) == pytest.approx(
        0.25, rel=1e-14
    )
    p = make_piecewise("+", [0.5, 1.0], [0.0, math.pi])
    assert averaged_cos(p, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_averaged_cos_range_checks():
    p = constant_profile("+", 1.0)
    with pytest.raises(ValueError):
        averaged_cos(p, 2.0, 1.0)  # b*eps beyond the wall
    with pytest.raises(ValueError):
        averaged_cos(p, 0.0, 1.0)


@settings(max_examples=60)
@given(
    st.composite(segment_profiles)(),
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=0.1, max_value=0.9),
)
def test_averaged_cos_segment_refinement_invariant(p, seg, frac):
    """Splitting one segment in two with the same value changes nothing."""
    seg = seg % p.n_segments
    lo, hi = p.bounds[seg], p.bounds[seg + 1]
    split = lo + frac * (hi - lo)
    if split <= lo or split >= hi:
        return
    breaks = np.sort(np.append(p.bounds[1:], split))
    values = [p.value_at(0.5 * (a + b)) for a, b in zip(
        np.concatenate(([0.0], breaks))[:-1], breaks)]
    q = make_piecewise(p.side, breaks, values)
    eps = 0.7 * p.s_max
    assert averaged_cos(q, eps, 1.0) == pytest.approx(
        averaged_cos(p, eps, 1.0), abs=1e-14
    )


def test_averaged_cos_many_matches_scalar():
    p = example2_profile(0.5, 2.5)
    eps = np.geomspace(1.0, 1e-6, 40)
    vec = averaged_cos_many(p, eps, 0.5)
    scl = np.array([averaged_cos(p, e, 0.5) for e in eps])
    assert np.array_equal(vec, scl)


# ---------------------------------------------------------------------------
# applicability


def test_wedge_geometry():
    assert WedgeGeometry(1.0).convex
    assert not WedgeGeometry(2.0).convex
    with pytest.raises(ValueError):
        WedgeGeometry(0.0)
    with pytest.raises(ValueError):
        WedgeGeometry(3.5)


def test_gamma_bounds_validation():
    with pytest.raises(ValueError):
        GammaBoundsHypothesis(1.0, 0.5, 0.0, 0.1)


def test_theorem1_applicability_tags():
    h = GammaBoundsHypothesis(math.pi / 4, math.pi / 2, math.pi / 4, math.pi / 2)
    assert theorem1_applicability(WedgeGeometry(3 * math.pi / 4), h) == NONCONVEX_OK
    assert theorem1_applicability(WedgeGeometry(math.pi / 3), h) == CONVEX_OK
    # alpha = pi/2 is convex, so the angle condition applies: it needs
    # 0 < lower_plus + lower_minus, which zero angles fail
    assert theorem1_applicability(WedgeGeometry(math.pi / 2), h) == CONVEX_OK
    zero = GammaBoundsHypothesis(0.0, 0.0, 0.0, 0.0)
    assert theorem1_applicability(WedgeGeometry(math.pi / 4), zero) == FAILS
    assert theorem1_applicability(WedgeGeometry(math.pi / 2), zero) == FAILS


@given(
    st.floats(min_value=1e-3, max_value=math.pi / 2),
    st.tuples(angles, angles),
    st.tuples(angles, angles),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=0.5),
)
def test_applicability_monotone_in_hypothesis(alpha, plus, minus, dl, du):
    """Enlarging the angle intervals never turns fails into convex_ok."""
    lp, up = min(plus), max(plus)
    lm, um = min(minus), max(minus)
    small = GammaBoundsHypothesis(lp, up, lm, um)
    big = GammaBoundsHypothesis(
        max(0.0, lp - dl),
        min(math.pi, up + du),
        max(0.0, lm - dl),
        min(math.pi, um + du),
    )
    geo = WedgeGeometry(alpha)
    if theorem1_applicability(geo, small) == FAILS:
        assert theorem1_applicability(geo, big) != CONVEX_OK


def test_hypothesis_from_profiles():
    plus = example1_profile(0.5, 1.5)
    minus = constant_profile("-", 0.9)
    h = hypothesis_from_profiles(plus, minus)
    assert (h.lower_plus, h.upper_plus) == (0.5, 1.5)
    assert (h.lower_minus, h.upper_minus) == (0.9, 0.9)


def test_profile_immutability():
    p = constant_profile("+", 1.0)
    with pytest.raises(Exception):
        p.side = "-"
    assert isinstance(p, ContactProfile)


#: walls on which the float integral must be the array one, bit for bit: the
#: benchmark's irregular wall, example2 at its default depth and at the
#: deepest depth verify-examples builds, and a constant wall
BIT_IDENTITY_WALLS = {
    "irregular": lambda: load_profile(
        Path(__file__).parents[1] / "perfbench" / "inputs" / "fan-scan" / "irregular_plus.json"),
    "example2-24": lambda: example2_profile(0.8, 2.0),
    "example2-537": lambda: example2_profile(math.pi / 3, 2 * math.pi / 3, 537),
    "constant": lambda: constant_profile("-", 1.0, 3.0),
}


@pytest.mark.parametrize("wall", BIT_IDENTITY_WALLS)
def test_float_integral_is_the_array_integral_bit_for_bit(wall):
    """cos_integral (bisect on Python floats) equals integral_many (numpy) at
    every break, segment midpoint and s_max, and the prefix integrals the
    profile holds are numpy's cumulative sum of the same segment integrals."""
    p = BIT_IDENTITY_WALLS[wall]()
    bounds = np.asarray(p.bounds)
    xs = np.concatenate(([0.0], 0.5 * (bounds[:-1] + bounds[1:]), bounds[1:]))
    assert [cos_integral(p, x) for x in xs.tolist()] == p.integral_many(xs).tolist()
    seg_int = np.diff(bounds) * np.asarray(p._cos)
    assert list(p._prefix) == [0.0, *np.cumsum(seg_int).tolist()]
    assert all(type(x) is float for x in (*p.bounds, *p.values, *p._cos, *p._prefix))
