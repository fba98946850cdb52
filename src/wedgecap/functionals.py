"""Lower and upper adhesion scale-averages of a wall profile.

For a window factor b > 0 the quantities of interest are the liminf and
limsup, as eps -> 0+, of (1/eps) * integral of cos(gamma) over (0, b*eps].
Sweeps bracket them on a geometric grid of scales; for profiles with special
structure (constant, dyadic super-blocks, log-periodic) the limits have
closed forms evaluated exactly.

The closed forms and the floor rule run on Python floats; only a sweep's
grid (``SweepConfig.grid``) and its values (``sweep_table``) are numpy
arrays, so a closed-form wall, or a floor refused before its sweep, never
loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .base import EPS_FLOOR, KIND_LOWER, KIND_UPPER, POINTS_PER_DECADE
from .base import check_adhesion_bound, check_angle
from .profiles import ContactProfile, averaged_cos_many, check_window, cos_integral

if TYPE_CHECKING:
    import numpy as np

METHOD_SWEEP = "sweep"
METHOD_LOG_PERIODIC = "log_periodic_exact"
METHOD_SEQUENCE = "sequence_exact"

#: scale ratio at which the exact routes test a wall for self-similarity
LOG_PERIODIC_RATIO = 4.0

#: rounding slack of a sweep's step count, so a floor a whole number of steps down is on its grid
_STEP_SLACK = 1e-9


def check_floor(eps_lo: float, eps_hi: float) -> None:
    """Refuse a sweep floor outside (0, eps_hi), NaN included."""
    if not (0.0 < eps_lo < eps_hi):
        raise ValueError(f"sweep floor {eps_lo!r} must lie in (0, {eps_hi!r})")


@dataclass(frozen=True)
class SweepConfig:
    """Geometric scale grid running from ``eps_hi`` down to ``eps_lo``.

    Grid points are eps_hi * 10^(-k / points_per_decade); doubling the density
    or halving the floor refines the grid to a superset of the old one, so
    sweep minima are monotone under refinement.
    """

    eps_hi: float
    eps_lo: float = EPS_FLOOR
    points_per_decade: int = POINTS_PER_DECADE

    def __post_init__(self) -> None:
        check_floor(self.eps_lo, self.eps_hi)
        if self.points_per_decade < 8:
            raise ValueError("points_per_decade must be at least 8")
        if not math.isfinite(self.points_per_decade * math.log10(self.eps_hi / self.eps_lo)):
            raise ValueError(
                f"sweep floor {self.eps_lo!r} lies too far below {self.eps_hi!r} "
                "for a finite number of steps"
            )

    @classmethod
    def for_profile(
        cls, profile: ContactProfile, b: float, eps_lo: float = EPS_FLOOR, **kw
    ) -> "SweepConfig":
        """A wall's sweep at window ``b``: from where the window fills the wall,
        s_max/b, down to ``eps_lo``, a floor that must lie on the wall, in
        (0, s_max), and below s_max/b, which a window above 1 brings down."""
        check_window(b)
        check_floor(eps_lo, profile.s_max)
        eps_hi = profile.s_max / b
        if not eps_lo < eps_hi:
            raise ValueError(f"sweep floor {eps_lo!r} leaves no sweep at window b = {b!r}, "
                             f"which starts at s_max/b = {eps_hi!r}")
        return cls(eps_hi=eps_hi, eps_lo=eps_lo, **kw)

    def grid(self) -> np.ndarray:
        import numpy as np

        p = self.points_per_decade
        n_steps = math.floor(p * math.log10(self.eps_hi / self.eps_lo) + _STEP_SLACK)
        k = np.arange(n_steps + 1)
        return self.eps_hi * 10.0 ** (-(k / p))

    @property
    def reach(self) -> float:
        """A sweep from ``eps_hi`` to a floor at or below this reads past this grid."""
        return self.eps_hi * 10.0 ** ((_STEP_SLACK - self.grid().size) / self.points_per_decade)

    @property
    def relative_spacing(self) -> float:
        return 10.0 ** (1.0 / self.points_per_decade) - 1.0


@dataclass(frozen=True)
class AdhesionEstimate:
    """One estimated or exact adhesion value at window factor ``b``.

    ``kind`` is "I" for the lower (liminf) value, "S" for the upper (limsup)
    one.  ``uncertainty`` is zero exactly for the closed-form methods.
    """

    b: float
    kind: str
    value: float
    method: str
    uncertainty: float

    def __post_init__(self) -> None:
        if self.kind not in (KIND_LOWER, KIND_UPPER):
            raise ValueError(f"kind must be 'I' or 'S', got {self.kind!r}")
        if self.method not in (METHOD_SWEEP, METHOD_LOG_PERIODIC, METHOD_SEQUENCE):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.uncertainty >= 0.0:
            raise ValueError("uncertainty must be nonnegative")
        check_window(self.b)
        check_adhesion_bound(self.value, self.b)
        exact = self.method in (METHOD_LOG_PERIODIC, METHOD_SEQUENCE)
        if exact != (self.uncertainty == 0.0):
            raise ValueError("uncertainty must be zero iff the method is exact")


def _envelopes(
    profile: ContactProfile, b: float, sweep: SweepConfig | None = None, **kw
) -> tuple[AdhesionEstimate, AdhesionEstimate]:
    """Grid (lower, upper) envelopes of one sweep: the min and max of its
    values; the default sweep is ``SweepConfig.for_profile(profile, b, **kw)``."""
    if sweep is None:
        sweep = SweepConfig.for_profile(profile, b, **kw)
    _, vals = sweep_table(profile, b, sweep)
    spread = b * sweep.relative_spacing
    return (
        AdhesionEstimate(b, KIND_LOWER, float(vals.min()), METHOD_SWEEP, spread),
        AdhesionEstimate(b, KIND_UPPER, float(vals.max()), METHOD_SWEEP, spread),
    )


def estimate_AI(
    profile: ContactProfile, b: float, sweep: SweepConfig | None = None
) -> AdhesionEstimate:
    """Grid lower envelope of the scale-averages (liminf bracket)."""
    return _envelopes(profile, b, sweep)[0]


def estimate_AS(
    profile: ContactProfile, b: float, sweep: SweepConfig | None = None
) -> AdhesionEstimate:
    """Grid upper envelope of the scale-averages (limsup bracket)."""
    return _envelopes(profile, b, sweep)[1]


def sweep_table(
    profile: ContactProfile, b: float, sweep: SweepConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(eps, averaged value) pairs of the sweep, for inspection or export;
    the default sweep is ``SweepConfig.for_profile(profile, b)``."""
    if sweep is None:
        sweep = SweepConfig.for_profile(profile, b)
    eps = sweep.grid()
    return eps, averaged_cos_many(profile, eps, b)


def verify_log_periodic(profile: ContactProfile, ratio: float) -> None:
    """Check gamma(s/ratio) == gamma(s) on the covered scales, else raise.

    The comparison is structural: segment values are probed at midpoints of
    the partition induced by the breakpoints and their images under the scale
    map, over every covered scale above the truncation tail.  A single
    segment is trivially periodic; otherwise at least one full period of
    pattern must be present below the top one.
    """
    if ratio <= 1.0:
        raise ValueError(f"scale ratio must exceed 1, got {ratio}")
    if profile.n_segments == 1:
        return
    s0 = profile.s_max
    tail_end = profile.bounds[1]
    if tail_end * ratio**2 > s0 * (1.0 + 1e-9):
        raise ValueError(
            "profile too shallow to verify one full period at the claimed ratio"
        )
    lo = tail_end * ratio
    pts = sorted({
        lo,
        s0,
        *(x for x in profile.breaks if lo < x < s0),
        *(x * ratio for x in profile.breaks if tail_end < x < s0 / ratio),
    })
    for s in (0.5 * (a + b) for a, b in zip(pts, pts[1:])):
        if profile.value_at(s) != profile.value_at(s / ratio):
            raise ValueError(
                f"profile is not self-similar at ratio {ratio}: mismatch near s={s}"
            )


def exact_A_log_periodic(
    profile: ContactProfile, b: float, ratio: float
) -> tuple[AdhesionEstimate, AdhesionEstimate]:
    """Closed-form (lower, upper) adhesion values of a log-periodic profile.

    Once self-similarity at ``ratio`` is verified, the integral of cos(gamma)
    below the top period is reconstructed from one period's worth of data
    (geometric series), which makes the result independent of where the
    generated profile was truncated.  The scale-average restricted to one
    period is piecewise of the form c1 + c2/eps, monotone between breakpoints,
    so its extrema sit at segment endpoints and are evaluated exactly.
    """
    verify_log_periodic(profile, ratio)
    s0 = profile.s_max
    lo = s0 / ratio
    f_lo_trunc = cos_integral(profile, lo)
    period = cos_integral(profile, s0) - f_lo_trunc
    f_lo = period / (ratio - 1.0)  # exact tail sum of the scaled copies
    xs = [lo, *(x for x in profile.breaks if lo < x < s0), s0]
    avgs = [b * (f_lo + (cos_integral(profile, x) - f_lo_trunc)) / x for x in xs]
    return (
        AdhesionEstimate(b, KIND_LOWER, min(avgs), METHOD_LOG_PERIODIC, 0.0),
        AdhesionEstimate(b, KIND_UPPER, max(avgs), METHOD_LOG_PERIODIC, 0.0),
    )


def exact_A_example1(
    g1: float, g2: float, b: float
) -> tuple[AdhesionEstimate, AdhesionEstimate]:
    """Closed-form (lower, upper) adhesion values of the dyadic super-blocks.

    The block length ratios degenerate, so along suitable scale sequences one
    angle dominates the whole window: the lower value is b*cos of the larger
    angle and the upper value is b*cos of the smaller one.
    """
    check_angle(g1, "g1")
    check_angle(g2, "g2")
    return (
        AdhesionEstimate(b, KIND_LOWER, b * math.cos(max(g1, g2)), METHOD_SEQUENCE, 0.0),
        AdhesionEstimate(b, KIND_UPPER, b * math.cos(min(g1, g2)), METHOD_SEQUENCE, 0.0),
    )


def _exact_estimates(
    profile: ContactProfile, b: float, eps_lo: float
) -> tuple[AdhesionEstimate, AdhesionEstimate] | None:
    """Closed-form (lower, upper) values at ``b``, or None if only a sweep applies.

    The one place that routes a wall: example1 walls by their two angles,
    single-segment walls by cos(gamma), and walls self-similar at
    LOG_PERIODIC_RATIO by the log-periodic closed form.  A closed form reads
    no floor, but the floor ``eps_lo`` must lie on the wall on every route.
    """
    check_window(b)  # before the log-periodic route, whose ValueError means "no closed form"
    check_floor(eps_lo, profile.s_max)
    if profile.generator == "example1" and profile.recurrent_values is not None:
        g1, g2 = profile.recurrent_values
        return exact_A_example1(g1, g2, b)
    if profile.n_segments == 1:
        value = b * math.cos(profile.values[0])
        return (
            AdhesionEstimate(b, KIND_LOWER, value, METHOD_SEQUENCE, 0.0),
            AdhesionEstimate(b, KIND_UPPER, value, METHOD_SEQUENCE, 0.0),
        )
    try:
        return exact_A_log_periodic(profile, b, LOG_PERIODIC_RATIO)
    except ValueError:
        return None


def best_estimates(
    profile: ContactProfile,
    b: float,
    eps_lo: float = EPS_FLOOR,
    points_per_decade: int = POINTS_PER_DECADE,
) -> tuple[AdhesionEstimate, AdhesionEstimate]:
    """(lower, upper) adhesion values via the tightest applicable route.

    Profiles with recognized structure (see ``_exact_estimates``) get exact
    values; everything else falls back to a sweep between ``eps_lo`` and the
    wall.  A floor outside (0, s_max) raises ValueError on every route.
    """
    exact = _exact_estimates(profile, b, eps_lo)
    if exact is not None:
        return exact
    return _envelopes(profile, b, eps_lo=eps_lo, points_per_decade=points_per_decade)
