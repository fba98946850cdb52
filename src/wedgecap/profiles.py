"""Contact-angle profiles along the walls of a planar wedge.

A profile assigns a contact angle gamma(s) in [0, pi] to each wall point at
arclength s from the corner, on (0, s_max].  Profiles are piecewise constant
with finitely many segments, so integrals of cos(gamma) are exact finite sums.
Oscillation as s -> 0+ is what produces distinct lower/upper scale-averages;
the two block generators below realize the standard oscillating examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import ProfileFormatError

SIDES = ("+", "-")

#: applicability tags for the existence criterion at the corner
NONCONVEX_OK = "nonconvex_ok"
CONVEX_OK = "convex_ok"
FAILS = "fails"


def check_angle(gamma, what: str) -> None:
    """Refuse a contact angle, or an array of them, outside [0, pi] (NaN
    included); both endpoints are angles."""
    if not np.all((gamma >= 0.0) & (gamma <= math.pi)):
        raise ValueError(f"{what} must lie in [0, pi], got {gamma}")


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
    ``values[i]`` is the angle on the half-open segment (b_i, b_{i+1}].
    ``annotations`` records isolated (s, gamma) points of measure zero; they
    never enter integrals.  ``recurrent_values`` lists angles taken on blocks
    recurring at every scale near s = 0 (set by the generators; used for
    essential limits of the truncated representation).
    """

    side: str
    bounds: np.ndarray
    values: np.ndarray
    annotations: tuple[tuple[float, float], ...] = ()
    recurrent_values: tuple[float, ...] | None = None
    generator: str | None = None
    _cos: np.ndarray = field(init=False, repr=False)
    _prefix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cos_vals = np.cos(self.values)
        seg_int = np.diff(self.bounds) * cos_vals
        prefix = np.concatenate(([0.0], np.cumsum(seg_int)))
        object.__setattr__(self, "_cos", cos_vals)
        object.__setattr__(self, "_prefix", prefix)

    @property
    def s_max(self) -> float:
        return float(self.bounds[-1])

    @property
    def breaks(self) -> np.ndarray:
        return self.bounds[1:]

    @property
    def n_segments(self) -> int:
        return len(self.values)

    def value_at(self, s: float) -> float:
        """Angle on the segment containing arclength ``s`` in (0, s_max]."""
        if not (0.0 < s <= self.s_max):
            raise ValueError(f"arclength {s} outside (0, {self.s_max}]")
        idx = int(np.searchsorted(self.bounds, s, side="left")) - 1
        return float(self.values[idx])

    def integral_many(self, xs: np.ndarray) -> np.ndarray:
        """Exact integral of cos(gamma) over (0, x] for each x (vectorized)."""
        xs = np.asarray(xs, dtype=float)
        if not np.all((xs >= 0.0) & (xs <= self.s_max * (1.0 + 1e-12))):  # NaN fails too
            raise ValueError("integration endpoint outside [0, s_max]")
        xs = np.minimum(xs, self.s_max)
        idx = np.searchsorted(self.bounds, xs, side="left") - 1
        idx = np.clip(idx, 0, self.n_segments - 1)
        return self._prefix[idx] + (xs - self.bounds[idx]) * self._cos[idx]


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
    br = np.asarray(list(breaks), dtype=float)
    vals = np.asarray(list(values), dtype=float)
    if br.size == 0:
        raise ProfileFormatError("empty segment list")
    if br.size != vals.size:
        raise ProfileFormatError(f"{br.size} breaks but {vals.size} values")
    if not np.all(br > 0.0):
        raise ValueError("breakpoints must be positive")
    if not np.all(np.diff(br) > 0.0):
        raise ValueError("breakpoints must be strictly increasing")
    check_angle(vals, "contact angles")
    s_max = float(br[-1])
    ann = tuple(sorted((float(s), float(g)) for s, g in annotations))
    for s, g in ann:
        if not (0.0 < s <= s_max):
            raise ValueError(f"annotation point {s} outside (0, s_max]")
        check_angle(g, "annotation angle")
    bounds = np.concatenate(([0.0], br))
    return ContactProfile(
        side=side,
        bounds=bounds,
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
    """Exact integral of cos(gamma(s)) over (0, x], 0 <= x <= s_max."""
    return float(profile.integral_many(np.asarray([x]))[0])


def check_window(b: float) -> None:
    """Refuse a window factor that is not a positive number (NaN included)."""
    if not b > 0.0:
        raise ValueError(f"window factor must be positive, got {b}")


def averaged_cos(profile: ContactProfile, eps: float, b: float) -> float:
    """Scale-average (1/eps) * integral of cos(gamma) over (0, b*eps]."""
    return float(averaged_cos_many(profile, np.asarray([eps]), b)[0])


def averaged_cos_many(profile: ContactProfile, eps: np.ndarray, b: float) -> np.ndarray:
    """Vectorized ``averaged_cos`` over an array of scales; every window
    b*eps must lie in (0, s_max]."""
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
        lower_plus=float(np.min(plus.values)),
        upper_plus=float(np.max(plus.values)),
        lower_minus=float(np.min(minus.values)),
        upper_minus=float(np.max(minus.values)),
    )


def theorem1_applicability(geometry: WedgeGeometry, hyp: GammaBoundsHypothesis) -> str:
    """Classify whether the radial-limit existence criterion applies.

    Reentrant corners (alpha > pi/2) need no angle condition.  Convex corners
    require pi - 2*alpha < lower_plus + lower_minus and
    upper_plus + upper_minus < pi + 2*alpha, both strictly.
    """
    if not geometry.convex:
        return NONCONVEX_OK
    lo = hyp.lower_plus + hyp.lower_minus
    hi = hyp.upper_plus + hyp.upper_minus
    if math.pi - 2.0 * geometry.alpha < lo and hi < math.pi + 2.0 * geometry.alpha:
        return CONVEX_OK
    return FAILS
