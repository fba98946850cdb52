"""Contact-angle profiles along the walls of a planar wedge.

A profile assigns a contact angle gamma(s) in [0, pi] to each wall point at
arclength s from the corner, on (0, s_max].  Profiles are piecewise constant
with finitely many segments, so integrals of cos(gamma) are exact finite sums.
Oscillation as s -> 0+ is what produces distinct lower/upper scale-averages;
the two block generators below realize the standard oscillating examples.

A profile holds Python floats, and a pointwise question (the angle at s, the
integral up to x) runs on ``bisect`` and ``math``, so a wall whose adhesion
has a closed form never loads numpy.  Only the vectorized integral and the
scale-averages built on it import numpy, where they use it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .base import SIDES, ProfileFormatError, check_angle

if TYPE_CHECKING:
    import numpy as np

#: applicability tags for the existence criterion at the corner
NONCONVEX_OK = "nonconvex_ok"
CONVEX_OK = "convex_ok"
FAILS = "fails"


@dataclass(frozen=True)
class WedgeGeometry:
    """Planar wedge of half-opening ``alpha``, corner at the origin.

    The domain is {(r, theta): r > 0, -alpha < theta < alpha}; the corner is
    convex (as seen from inside) exactly when alpha <= pi/2.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= math.pi):
            raise ValueError(f"half-opening must lie in (0, pi], got {self.alpha}")

    @property
    def convex(self) -> bool:
        return self.alpha <= math.pi / 2.0


@dataclass(frozen=True)
class GammaBoundsHypothesis:
    """Essential bounds for the two wall angles near the corner."""

    lower_plus: float
    upper_plus: float
    lower_minus: float
    upper_minus: float

    def __post_init__(self) -> None:
        for name in ("lower_plus", "upper_plus", "lower_minus", "upper_minus"):
            check_angle(getattr(self, name), name)
        if self.lower_plus > self.upper_plus or self.lower_minus > self.upper_minus:
            raise ValueError("lower bounds must not exceed upper bounds")


@dataclass(frozen=True, eq=False)
class ContactProfile:
    """Piecewise-constant contact angle on (0, s_max].

    ``bounds`` holds segment endpoints 0 = b_0 < b_1 < ... < b_n = s_max and
    ``values[i]`` is the angle on the half-open segment (b_i, b_{i+1}].  Both
    are tuples of Python floats, as are the cosines and prefix integrals the
    profile keeps.
    ``annotations`` records isolated (s, gamma) points of measure zero; they
    never enter integrals.  ``recurrent_values`` lists angles taken on blocks
    recurring at every scale near s = 0 (set by the generators; used for
    essential limits of the truncated representation).
    """

    side: str
    bounds: tuple[float, ...]
    values: tuple[float, ...]
    annotations: tuple[tuple[float, float], ...] = ()
    recurrent_values: tuple[float, ...] | None = None
    generator: str | None = None
    _cos: tuple[float, ...] = field(init=False, repr=False)
    _prefix: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cos_vals = tuple(map(math.cos, self.values))
        seg_int = ((hi - lo) * c for lo, hi, c in zip(self.bounds, self.bounds[1:], cos_vals))
        object.__setattr__(self, "_cos", cos_vals)
        object.__setattr__(self, "_prefix", (0.0, *itertools.accumulate(seg_int)))

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bounds, cosines and prefix integrals as numpy arrays, made once."""
        import numpy as np

        return np.array(self.bounds), np.array(self._cos), np.array(self._prefix)

    @property
    def s_max(self) -> float:
        return self.bounds[-1]

    @property
    def breaks(self) -> tuple[float, ...]:
        return self.bounds[1:]

    @property
    def n_segments(self) -> int:
        return len(self.values)

    def value_at(self, s: float) -> float:
        """Angle on the segment containing arclength ``s`` in (0, s_max]."""
        if not (0.0 < s <= self.s_max):
            raise ValueError(f"arclength {s} outside (0, {self.s_max}]")
        return self.values[bisect.bisect_left(self.bounds, s) - 1]

    def integral_many(self, xs: np.ndarray) -> np.ndarray:
        """Exact integral of cos(gamma) over (0, x] for each x (vectorized);
        ``cos_integral`` is the same formula on one Python float."""
        import numpy as np

        bounds, cos_vals, prefix = self._arrays
        xs = np.asarray(xs, dtype=float)
        if not np.all((xs >= 0.0) & (xs <= self.s_max * (1.0 + 1e-12))):  # NaN fails too
            raise ValueError("integration endpoint outside [0, s_max]")
        xs = np.minimum(xs, self.s_max)
        idx = np.searchsorted(bounds, xs, side="left") - 1
        idx = np.clip(idx, 0, self.n_segments - 1)
        return prefix[idx] + (xs - bounds[idx]) * cos_vals[idx]


def make_piecewise(
    side: str,
    breaks,
    values,
    *,
    annotations=(),
    recurrent_values: tuple[float, ...] | None = None,
    generator: str | None = None,
) -> ContactProfile:
    """Build a validated piecewise-constant profile.

    ``values[i]`` applies on (breaks[i-1], breaks[i]]; the wall ends at the
    last break.
    """
    if side not in SIDES:
        raise ProfileFormatError(f"side must be '+' or '-', got {side!r}")
    br = tuple(map(float, breaks))
    vals = tuple(map(float, values))
    if not br:
        raise ProfileFormatError("empty segment list")
    if len(br) != len(vals):
        raise ProfileFormatError(f"{len(br)} breaks but {len(vals)} values")
    if not all(x > 0.0 for x in br):
        raise ValueError("breakpoints must be positive")
    if not all(lo < hi for lo, hi in zip(br, br[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    for g in vals:
        check_angle(g, "contact angles")
    s_max = br[-1]
    ann = tuple(sorted((float(s), float(g)) for s, g in annotations))
    for s, g in ann:
        if not (0.0 < s <= s_max):
            raise ValueError(f"annotation point {s} outside (0, s_max]")
        check_angle(g, "annotation angle")
    return ContactProfile(
        side=side,
        bounds=(0.0, *br),
        values=vals,
        annotations=ann,
        recurrent_values=recurrent_values,
        generator=generator,
    )


def constant_profile(side: str, gamma: float, s_max: float = 1.0) -> ContactProfile:
    """Profile with a single angle on all of (0, s_max]."""
    return make_piecewise(side, [s_max], [gamma], generator="constant")


def example1_profile(g1: float, g2: float, depth: int = 8) -> ContactProfile:
    """Dyadic super-block oscillation between two angles on (0, 1].

    Block n (n = 1..depth) takes ``g1`` on (2^(-n^2), 2^(-n(n-1))] and ``g2``
    on (2^(-n(n+1)), 2^(-n^2)].  Consecutive blocks tile (2^(-d(d+1)), 1];
    below the last generated break the tail keeps the deepest block's angle.
    Block length ratios degenerate, so scale-averages of cos(gamma) swing all
    the way between cos(g1) and cos(g2) as the scale shrinks.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    breaks: list[float] = []
    vals: list[float] = []
    lowest = math.ldexp(1.0, -depth * (depth + 1))
    if lowest == 0.0:
        raise ValueError(f"depth {depth} underflows the dyadic breakpoints")
    breaks.append(lowest)  # tail (0, 2^(-d(d+1))] keeps the deepest value
    vals.append(g2)
    for n in range(depth, 0, -1):
        breaks.append(math.ldexp(1.0, -n * n))
        vals.append(g2)
        breaks.append(math.ldexp(1.0, -n * (n - 1)))
        vals.append(g1)
    return make_piecewise(
        "+", breaks, vals, recurrent_values=(g1, g2), generator="example1"
    )


def example2_profile(g1: float, g2: float, depth: int = 24) -> ContactProfile:
    """Log-periodic two-angle pattern with scale ratio 4 on (0, 1].

    Level n takes ``g1`` on (2/4^n, 4/4^n) and ``g2`` on (1/4^n, 2/4^n); the
    isolated points 4/4^n and 2/4^n carry annotation angles pi and 0.  The
    pattern repeats under s -> s/4, so scale-averages of cos(gamma) oscillate
    log-periodically and the isolated annotations never affect integrals.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    lowest = math.ldexp(1.0, -2 * depth)
    if lowest == 0.0:
        raise ValueError(f"depth {depth} underflows the breakpoints")
    breaks: list[float] = [lowest]  # tail keeps the deepest block's angle
    vals: list[float] = [g2]
    ann: list[tuple[float, float]] = []
    for n in range(depth, 0, -1):
        quarter = math.ldexp(1.0, -2 * n)
        breaks.append(2.0 * quarter)
        vals.append(g2)
        breaks.append(4.0 * quarter)
        vals.append(g1)
        ann.append((2.0 * quarter, 0.0))
        ann.append((4.0 * quarter, math.pi))
    return make_piecewise(
        "+",
        breaks,
        vals,
        annotations=ann,
        recurrent_values=(g1, g2),
        generator="example2",
    )


def cos_integral(profile: ContactProfile, x: float) -> float:
    """Exact integral of cos(gamma(s)) over (0, x], 0 <= x <= s_max: the
    formula of ``integral_many``, bit for bit, on Python floats."""
    if not 0.0 <= x <= profile.s_max * (1.0 + 1e-12):  # NaN fails too
        raise ValueError("integration endpoint outside [0, s_max]")
    x = min(x, profile.s_max)
    i = min(max(bisect.bisect_left(profile.bounds, x) - 1, 0), profile.n_segments - 1)
    return float(profile._prefix[i] + (x - profile.bounds[i]) * profile._cos[i])


def check_window(b: float) -> None:
    """Refuse a window factor that is not a positive number (NaN included)."""
    if not b > 0.0:
        raise ValueError(f"window factor must be positive, got {b}")


def averaged_cos(profile: ContactProfile, eps: float, b: float) -> float:
    """Scale-average (1/eps) * integral of cos(gamma) over (0, b*eps]."""
    return float(averaged_cos_many(profile, [eps], b)[0])


def averaged_cos_many(profile: ContactProfile, eps: np.ndarray, b: float) -> np.ndarray:
    """Vectorized ``averaged_cos`` over an array of scales; every window
    b*eps must lie in (0, s_max]."""
    import numpy as np

    check_window(b)
    eps = np.asarray(eps, dtype=float)
    if not np.all(eps > 0.0):  # NaN fails too
        raise ValueError("scales must be positive")
    return profile.integral_many(b * eps) / eps


def hypothesis_from_profiles(
    plus: ContactProfile, minus: ContactProfile
) -> GammaBoundsHypothesis:
    """Segment-wise angle bounds for the pair of wall profiles."""
    return GammaBoundsHypothesis(
        lower_plus=min(plus.values),
        upper_plus=max(plus.values),
        lower_minus=min(minus.values),
        upper_minus=max(minus.values),
    )


def theorem1_applicability(geometry: WedgeGeometry, hyp: GammaBoundsHypothesis) -> str:
    """Classify whether the radial-limit existence criterion applies.

    Reentrant corners (alpha > pi/2) need no angle condition.  Convex corners
    require pi - 2*alpha < lower_plus + lower_minus and
    upper_plus + upper_minus < pi + 2*alpha, both strictly.

    The bounds are whatever ``hyp`` holds; from ``hypothesis_from_profiles``
    they are the segment-wise extremes of gamma over the whole wall, not
    bounds near the corner, so a wall that leaves the range only far from
    the corner fails here.  Only these two sums are checked: nothing asks
    that gamma stay away from 0 and pi, and the paper's extension to angles
    that reach 0 or pi is not encoded.  Whether this matches the hypothesis
    of Lancaster & Siegel (1996) or of the paper is unchecked here (ROADMAP
    item 19).
    """
    if not geometry.convex:
        return NONCONVEX_OK
    lo = hyp.lower_plus + hyp.lower_minus
    hi = hyp.upper_plus + hyp.upper_minus
    if math.pi - 2.0 * geometry.alpha < lo and hi < math.pi + 2.0 * geometry.alpha:
        return CONVEX_OK
    return FAILS
