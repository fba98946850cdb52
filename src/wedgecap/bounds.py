"""Lower bounds on the angular width of constant-height fans at the corner.

A bounded solution whose radial limits exist splits the sector into at most
two wall fans (where the limit is constant) and a strictly monotone middle,
possibly with an interior plateau.  For each case and wall, one of two
trigonometric inequalities in a transversal inclination lambda must hold for
every lambda; the smallest wall-fan width beta for which it does is the fan
bound.  On a wall whose adhesion is linear, A(b) = m*b (constant, example1
and log-periodic walls), that width is arccos(m) or its supplement in closed
form (Corollary 1).  Any other wall's width is found by an ascending scan,
which on linear walls serves as the closed form's cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable

from .base import EPS_FLOOR, KIND_LOWER, KIND_UPPER, check_adhesion_bound, check_angle, holds
from .base import SIDES  # noqa: F401  (re-exported)

if TYPE_CHECKING:
    import numpy as np

    from .profiles import ContactProfile

#: a refined condition minimum at or above this counts as "holds"
FEASIBLE_TOL = -1e-12
#: the lambda grid keeps this margin away from beta and pi
LAMBDA_MARGIN = 1e-4
#: minimum number of lambda grid points
LAMBDA_POINTS = 512
#: fan-scan step in beta: the default and the coarsest allowed
BETA_STEP = 1e-3
#: beta rows evaluated at once by the fan scan, so a temporary holds 16 x 512
#: doubles (64 KiB); bounds its memory, not its result
_SCAN_ROWS = 16
#: lambda column stride of the fan scan's coarse pass (sets its speed, not its result)
_COARSE_STRIDE = 8

INCREASING = "increasing"
DECREASING = "decreasing"

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class FanCase(Enum):
    """Shape of the radial-limit function across the sector."""

    I = "I"  # increasing middle
    D = "D"  # decreasing middle
    ID = "ID"  # increasing, interior plateau of width pi, decreasing
    DI = "DI"  # decreasing, interior plateau of width pi, increasing


class InfeasibleScanError(RuntimeError):
    """No admissible fan width was found below pi."""

    tag = "infeasible_scan"


@dataclass(frozen=True)
class AdhesionFunction:
    """Window-parametrized adhesion evaluator b -> A(b) with a kind tag.

    ``kind`` "I" marks a lower (liminf) functional, "S" an upper one.  The
    evaluator must accept numpy arrays; every returned value is clipped to
    the hard bound |A(b)| <= b after a sanity check.  The ``linear`` and
    sweep-table evaluators (see ``adhesion_from_profile``) lie within that
    bound by construction (checked once when they are built), so their
    values skip both, and they take a Python float or a numpy array as it
    is: the linear one answers a float with a float, without numpy.
    """

    kind: str
    fn: Callable
    method: str = "custom"
    _bounded: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in (KIND_LOWER, KIND_UPPER):
            raise ValueError(f"kind must be 'I' or 'S', got {self.kind!r}")

    def __call__(self, b):
        if self._bounded:
            return self.fn(b)
        import numpy as np

        b_arr = np.asarray(b, dtype=float)
        out = np.asarray(self.fn(b_arr), dtype=float)
        check_adhesion_bound(out, b_arr)
        out = np.clip(out, -b_arr, b_arr)
        return float(out) if np.isscalar(b) or out.ndim == 0 else out

    @classmethod
    def constant_angle(cls, gamma: float, kind: str) -> "AdhesionFunction":
        check_angle(gamma, "angle")
        return cls.linear(math.cos(gamma), kind, method="constant_angle")

    @classmethod
    def linear(cls, m: float, kind: str, method: str = "linear") -> "AdhesionFunction":
        if not (-1.0 <= m <= 1.0):
            raise ValueError(f"slope must lie in [-1, 1], got {m}")
        return cls(kind=kind, fn=lambda b: m * b, method=method, _bounded=True)


class _SweepTable:
    """Running min and max envelopes of one wall's window-1 sweep (see
    ``adhesion_from_profile``)."""

    def __init__(self, profile: ContactProfile, eps_lo: float):
        import numpy as np

        from .functionals import SweepConfig, sweep_table

        # deep enough for every window from sin(LAMBDA_MARGIN), the scan's
        # smallest, at this floor and at the default one
        try:
            floor = min(eps_lo, EPS_FLOOR) * math.sin(LAMBDA_MARGIN)
            sweep = SweepConfig.for_profile(profile, 1.0, floor)
        except ValueError as exc:
            raise ValueError(f"sweep floor {eps_lo!r} leaves no table for the scan: {exc}") from None
        # at b = 1 the sweep's grid is x and its values are F(x)/x
        xs, g = sweep_table(profile, 1.0, sweep)
        # the sweep of window b reads the grid down to b * eps_lo
        self.reach = sweep.reach
        # xs descends; envelope over x >= b*eps_lo is a prefix along this order
        env = np.stack((np.minimum.accumulate(g), np.maximum.accumulate(g)))[:, ::-1]
        check_adhesion_bound(env, 1.0)
        # for b > 0, b * clip(env) is the clip of b * env to [-b, b]
        self.lower, self.upper = np.clip(env, -1.0, 1.0)
        self.asc = xs[::-1]
        self.eps_lo = eps_lo
        self._last = (None, None)

    def cut(self, b) -> np.ndarray:
        """Envelope index of each window b (a float or an array).  The search
        of a read-only b that owns its data, as the fan scan's blocks are, is
        kept, so the wall's two kinds search each block once."""
        import numpy as np

        b = np.asarray(b, dtype=float)
        key, cut = self._last
        if b is not key:
            smallest = float(np.min(b, initial=np.inf))
            if smallest * self.eps_lo <= self.reach:
                raise ValueError(
                    f"window {smallest!r} lies below the sweep table at eps_lo={self.eps_lo!r}"
                )
            cut = np.searchsorted(self.asc, b * self.eps_lo, side="left")
            cut = np.clip(cut, 0, len(self.asc) - 1)
            if b.flags.owndata and not b.flags.writeable:
                self._last = (b, cut)
        return cut


@functools.lru_cache(maxsize=2)
def _sweep_table(profile: ContactProfile, eps_lo: float) -> _SweepTable:
    """One table per wall and sweep floor (profiles hash by identity)."""
    return _SweepTable(profile, eps_lo)


@dataclass(frozen=True)
class FanBoundResult:
    """Outcome of one admissible-fan scan."""

    beta_min: float
    worst_lambda: float | None
    monotone_flag: bool

    def __post_init__(self) -> None:
        check_fan_width(self.beta_min)


# The pointwise layer below (the conditions, the lambda grid and the search
# for the worst lambda) is written once for both backends: a single value (a
# Python float, or a numpy scalar) runs on ``math`` and Python, so a float
# never loads numpy; a numpy array runs on numpy.  Only these helpers pick.


def _sin(x):
    if not getattr(x, "ndim", 0):
        return math.sin(x)
    import numpy as np

    return np.sin(x)


def _where(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``; elementwise for an array ``cond``."""
    if not getattr(cond, "ndim", 0):
        return a if cond else b
    import numpy as np

    return np.where(cond, a, b)


def _on_grid(f, grid):
    """``f`` over ``grid``: one call on a numpy array, one per point on a
    sequence of Python floats."""
    return f(grid) if hasattr(grid, "ndim") else [f(x) for x in grid]


def _grid_for(A: AdhesionFunction, grid):
    """``grid`` as ``A`` answers it best: a sweep table gets one numpy array,
    which it answers in one search, where a list of floats would ask it once
    per point; any other evaluator gets ``grid`` as it is."""
    if A.method != "sweep":
        return grid
    import numpy as np

    return np.asarray(grid, dtype=float)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``n`` evenly spaced Python floats from lo to hi, bit for bit the points
    of ``np.linspace``: i * step + lo, with the last one hi itself."""
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


def check_fan_width(beta) -> None:
    """Refuse a fan width, or an array of them, outside [0, pi) (NaN included)."""
    if not holds((beta >= 0.0) & (beta < math.pi)):
        raise ValueError(f"fan width must lie in [0, pi), got {beta}")


def _check_angles(beta, lam) -> None:
    check_fan_width(beta)
    if not holds((beta < lam) & (lam < math.pi)):  # NaN fails too
        raise ValueError("need 0 <= beta < lambda < pi")


def _ratios(beta, lam):
    """(b, s) = (sin(lambda-beta), sin(beta)) / sin(lambda)."""
    sl = _sin(lam)
    return _sin(lam - beta) / sl, _sin(beta) / sl


def _geometry(beta, lam):
    """``_ratios`` with the angles checked."""
    _check_angles(beta, lam)
    return _ratios(beta, lam)


def _condition(A, kind, b, s):
    """The ``kind`` condition's value at the ratios (b, s).  Every condition
    value is computed here, so the kind rule (``required_functional_kind``)
    is checked here."""
    want = required_functional_kind(kind)
    if A.kind != want:
        raise ValueError(f"{kind} condition needs a kind-{want} functional, got {A.kind}")
    return A(b) + s - 1.0 if kind == INCREASING else s - 1.0 - A(b)


def condition_increasing(A: AdhesionFunction, beta, lam):
    """A(sin(lambda-beta)/sin(lambda)) + sin(beta)/sin(lambda) - 1.

    Nonnegative for every lambda in (beta, pi) exactly when a fan of width
    beta is admissible against an increasing middle on that wall.
    """
    return _condition(A, INCREASING, *_geometry(beta, lam))


def condition_decreasing(A: AdhesionFunction, beta, lam):
    """sin(beta)/sin(lambda) - 1 - A(sin(lambda-beta)/sin(lambda)).

    Nonnegative for every lambda in (beta, pi) exactly when a fan of width
    beta is admissible against a decreasing middle on that wall.
    """
    return _condition(A, DECREASING, *_geometry(beta, lam))


def default_lambda_grid(beta: float, n: int = LAMBDA_POINTS) -> list[float]:
    """``n`` evenly spaced lambdas from beta + LAMBDA_MARGIN to pi -
    LAMBDA_MARGIN, as Python floats (``_linspace``)."""
    check_fan_width(beta)
    lo = beta + LAMBDA_MARGIN
    hi = math.pi - LAMBDA_MARGIN
    if lo >= hi:
        raise ValueError(f"no room for a lambda grid above beta={beta}")
    if n < 2:
        raise ValueError(f"a lambda grid needs at least 2 points, got {n}")
    return _linspace(lo, hi, n)


def _golden_min(f, lo, hi):
    """Golden-section minimum of f on the bracket [lo, hi], or on each bracket
    [lo[k], hi[k]] of two arrays.

    ``f`` maps a point, or an array of points, to its value(s).  Each step
    evaluates one new probe per bracket, and the search stops once every
    bracket is narrower than 1e-12.  Returns (argmin, min).
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    # no bracket end is NaN, so "not all narrow" is "any wide"
    while not holds(b - a <= 1e-12):
        # left: the minimum lies in [a, d], whose upper probe is the old c
        left = fc <= fd
        a = _where(left, a, c)
        b = _where(left, d, b)
        x = _where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = f(x)
        c, d = _where(left, x, d), _where(left, c, x)
        fc, fd = _where(left, fx, fd), _where(left, fc, fx)
    pick = fc <= fd
    return _where(pick, c, d), _where(pick, fc, fd)


def _keep_lower(x_grid, v_grid, x_golden, v_golden):
    """(point, value) of the golden-section minimum where it is lower than the
    grid one, else of the grid minimum."""
    lower = v_golden < v_grid
    return _where(lower, x_golden, x_grid), _where(lower, v_golden, v_grid)


def _worst_lambda(cond, beta: float, lambda_grid) -> tuple[float, float]:
    """The worst lambda of ``cond`` on (beta, pi) and its value there.

    ``cond`` is evaluated on ``lambda_grid`` (``default_lambda_grid(beta)``
    when None, at least 3 points; see ``_on_grid``), then golden-section
    polished between the grid neighbours of the grid minimizer.
    ``holds_for_all_lambda``, ``blowup.contradiction_witness`` and the
    closed-form fan check ``_corollary1_fan`` all read this one search.
    """
    check_fan_width(beta)
    grid = default_lambda_grid(beta) if lambda_grid is None else lambda_grid
    if len(grid) < 3:
        raise ValueError("lambda grid needs at least 3 points")
    vals = _on_grid(cond, grid)
    # the first minimizer, as np.argmin finds it
    i = int(vals.argmin()) if hasattr(vals, "argmin") else vals.index(min(vals))
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])
    lam, value = float(grid[i]), float(vals[i])
    if hi > lo:  # polished on Python floats, whatever the grid
        lam, value = _keep_lower(lam, value, *_golden_min(cond, lo, hi))
    return float(lam), float(value)


def holds_for_all_lambda(
    cond: Callable,
    beta: float,
    lambda_grid=None,
) -> tuple[bool, float]:
    """Whether ``cond(lambda) >= -1e-12`` across (beta, pi), by ``_worst_lambda``;
    returns (verdict, refined worst lambda).  ``cond`` takes a Python float
    (the polish, and every point of a float grid) or a numpy array grid."""
    lam, value = _worst_lambda(cond, beta, lambda_grid)
    return value >= FEASIBLE_TOL, lam


def required_functional_kind(condition_kind: str) -> str:
    """Which adhesion flavour a condition consumes: lower for increasing,
    upper for decreasing; ValueError for any other kind."""
    if condition_kind == INCREASING:
        return KIND_LOWER
    if condition_kind == DECREASING:
        return KIND_UPPER
    raise ValueError(f"unknown condition kind {condition_kind!r}")


def _check_beta_step(beta_step: float) -> None:
    if not (0.0 < beta_step <= BETA_STEP):
        raise ValueError(f"beta_step must lie in (0, {BETA_STEP}]")


def _no_fan(kind: str) -> InfeasibleScanError:
    return InfeasibleScanError(f"no admissible fan width below pi for the {kind} condition")


def _grid_pass(requests, betas: np.ndarray, u: np.ndarray, block_rows: int):
    """Each request's condition minimum over each beta row, on the lambdas at
    fractions ``u`` of the way from beta + LAMBDA_MARGIN to pi - LAMBDA_MARGIN,
    and the index into ``u`` where it falls; ``block_rows`` rows at a time."""
    import numpy as np

    hi = math.pi - LAMBDA_MARGIN
    mins = np.empty((len(requests), len(betas)))
    where = np.empty((len(requests), len(betas)), dtype=np.intp)
    for start in range(0, len(betas), block_rows):
        block = slice(start, start + block_rows)
        beta = betas[block, None]
        lo = beta + LAMBDA_MARGIN
        b, s = _ratios(beta, lo + (hi - lo) * u)
        b.flags.writeable = False  # every request reads this b; sweep tables key on it
        rows = np.arange(len(beta))
        for r, (A, kind) in enumerate(requests):
            vals2d = _condition(A, kind, b, s)
            where[r, block] = idx = np.argmin(vals2d, axis=1)
            mins[r, block] = vals2d[rows, idx]
    return mins, where


def min_admissible_fan(requests, beta_step: float = BETA_STEP) -> list[FanBoundResult]:
    """Smallest fan width passing each listed (A, condition kind) for all lambda.

    Scans beta ascending from 0 in steps of ``beta_step`` over [0, pi), each
    on a grid of LAMBDA_POINTS lambdas refined around its minimum; the grid
    geometry is shared by every request.  The whole range is scanned so each
    result also reports whether feasibility was monotone in beta (observed,
    never assumed).  One result per request, in order; InfeasibleScanError
    for the first request no width passes.
    """
    import numpy as np

    _check_beta_step(beta_step)
    betas = np.arange(0.0, math.pi - 2.0 * LAMBDA_MARGIN - beta_step, beta_step)
    hi = math.pi - LAMBDA_MARGIN
    u = np.linspace(0.0, 1.0, LAMBDA_POINTS)
    lo = betas + LAMBDA_MARGIN
    # lambda ascends along each row, so the row ends bound every grid angle,
    # and every refinement probe, which lies between two grid angles
    _check_angles(betas[:, None], np.column_stack((lo, lo + (hi - lo) * u[-1])))
    # Coarse pass on every _COARSE_STRIDE-th lambda and the last: a row whose
    # coarse minimum is below the tolerance is infeasible, since the full grid
    # holds the same values and refinement only lowers the minimum.  The full
    # pass runs on the rows some request leaves open, in blocks of the same
    # element count.
    coarse = np.append(np.arange(0, LAMBDA_POINTS - 1, _COARSE_STRIDE), LAMBDA_POINTS - 1)
    grid_min, _ = _grid_pass(requests, betas, u[coarse], _SCAN_ROWS * LAMBDA_POINTS // coarse.size)
    open_rows = np.flatnonzero(np.any(grid_min >= FEASIBLE_TOL, axis=0))
    grid_min[:, open_rows], where = _grid_pass(requests, betas[open_rows], u, _SCAN_ROWS)

    results = []
    for (A, kind), row_min, at in zip(requests, grid_min, where):
        # refinement can only push the minimum lower, so rows already below the
        # tolerance are infeasible without it.  The others, all open, are
        # refined in one call, each between the grid neighbours of its grid
        # minimizer
        cand = row_min[open_rows] >= FEASIBLE_TOL
        rows = open_rows[cand]
        beta, grid_val = betas[rows], row_min[rows]
        cols = np.clip(at[cand] + [[-1], [0], [1]], 0, LAMBDA_POINTS - 1)
        left, worst, right = lo[rows] + (hi - lo[rows]) * u[cols]
        refined = _golden_min(lambda lam: _condition(A, kind, *_ratios(beta, lam)), left, right)
        worst, value = _keep_lower(worst, grid_val, *refined)
        ok = value >= FEASIBLE_TOL
        if not np.any(ok):
            raise _no_fan(kind)
        first = int(np.argmax(ok))
        results.append(FanBoundResult(
            beta_min=float(beta[first]),
            worst_lambda=float(worst[first]),
            # monotone: every row from the first feasible one on is feasible
            monotone_flag=bool(np.count_nonzero(ok) == len(betas) - rows[first]),
        ))
    return results


def corollary1_bound(m: float, variant: str) -> float:
    """Closed-form fan bound when the adhesion value is frozen to m*b.

    Variants "a"/"b" (lower functional below m*b) give arccos(m); variants
    "c"/"d" (upper functional above m*b) give pi - arccos(m).
    """
    if not (-1.0 <= m <= 1.0):
        raise ValueError(f"cosine bound must lie in [-1, 1], got {m}")
    if variant not in ("a", "b", "c", "d"):
        raise ValueError(f"variant must be one of a, b, c, d, got {variant!r}")
    sigma = math.acos(m)
    return sigma if variant in ("a", "b") else math.pi - sigma


def _corollary1_fan(A: AdhesionFunction, kind: str) -> FanBoundResult:
    """The ``kind`` condition's fan bound on a linear wall, A(b) = m*b, in
    closed form: arccos(m) (Corollary 1, variant a) for the increasing
    condition, pi - arccos(m) (variant c) for the decreasing one.

    The bound is exact.  With b = sin(lambda-beta)/sin(lambda) and
    s = sin(beta)/sin(lambda), sin(lambda) times the increasing condition is

        (m - cos beta) sin(lambda - beta) + sin(beta) (1 - cos(lambda - beta)),

    and times the decreasing one the same with -m in place of m.  At
    m = cos(beta) (resp. -cos(beta)) it is sin(beta) (1 - cos(lambda - beta)),
    nonnegative on (beta, pi), and so is every wider fan.  Below the bound the
    first term, of order lambda - beta, is negative and outweighs the second,
    of order (lambda - beta)^2, just above lambda = beta.  So feasibility is
    monotone in beta.  The width is checked as the scan checks a row: its
    worst lambda (``_worst_lambda`` on the default grid) must hold to
    FEASIBLE_TOL.  A width that leaves no lambda grid below pi, pi itself
    included, raises InfeasibleScanError, as the scan does.
    """
    beta = corollary1_bound(A(1.0), "a" if kind == INCREASING else "c")
    if beta >= math.pi - 2.0 * LAMBDA_MARGIN:
        raise _no_fan(kind)
    lam, value = _worst_lambda(lambda lam: _condition(A, kind, *_ratios(beta, lam)), beta, None)
    if value < FEASIBLE_TOL:
        raise RuntimeError(f"the closed-form width {beta} fails the {kind} condition at {lam}")
    return FanBoundResult(beta_min=beta, worst_lambda=lam, monotone_flag=True)


def effective_angle(A: AdhesionFunction) -> tuple[float, float]:
    """Extremal cosine slope of A over the windows b = k/33, k = 1..32, and
    its arccos.

    Lower functionals report min A(b)/b, upper ones max A(b)/b; the returned
    angle is the effective constant contact angle matching that slope.  The
    windows reach A as ``_grid_for`` gives them, so a linear evaluator runs
    on Python floats.
    """
    b_grid = _grid_for(A, _linspace(1.0 / 33.0, 32.0 / 33.0, 32))
    ratios = _on_grid(lambda b: A(b) / b, b_grid)
    m = float(min(ratios) if A.kind == KIND_LOWER else max(ratios))
    return m, math.acos(min(1.0, max(-1.0, m)))


def case_condition_map(case: FanCase) -> tuple[tuple[str, str], ...]:
    """The (side, condition kind) pairs a case must satisfy."""
    table = {
        FanCase.I: (("+", INCREASING), ("-", DECREASING)),
        FanCase.D: (("-", INCREASING), ("+", DECREASING)),
        FanCase.DI: (("+", INCREASING), ("-", INCREASING)),
        FanCase.ID: (("-", DECREASING), ("+", DECREASING)),
    }
    return table[FanCase(case)]


def adhesion_from_profile(
    profile: ContactProfile, kind: str, *, eps_lo: float = EPS_FLOOR
) -> AdhesionFunction:
    """Best available evaluator for a profile: exact when structure allows.

    Walls with a closed form (routed as in ``best_estimates``) get a linear
    evaluator.  Any other wall gets a sweep table: A(b) over the grid eps in
    [eps_lo, s_max/b] equals b * (envelope of F(x)/x over x in [b*eps_lo,
    s_max]), so the window-1 sweep (values F(x)/x at POINTS_PER_DECADE) plus
    running envelopes answers every b by bisection.
    The grid serves every window from sin(LAMBDA_MARGIN) up; a window whose
    sweep would read below it raises ValueError.  Both kinds of one wall
    share the table.  A floor outside (0, s_max) raises ValueError on every
    route.
    """
    from .functionals import _exact_estimates

    exact = _exact_estimates(profile, 1.0, eps_lo)
    if exact is None:
        table = _sweep_table(profile, eps_lo)
        env = table.upper if kind == KIND_UPPER else table.lower
        return AdhesionFunction(kind, lambda b: b * env[table.cut(b)], "sweep", _bounded=True)
    # scale-averages are degree-1 homogeneous in b, so the value at b = 1 is the slope
    est = exact[0] if kind == KIND_LOWER else exact[1]
    method = "constant_angle" if profile.n_segments == 1 else est.method
    return AdhesionFunction.linear(est.value, kind, method)


def fan_bound_rows(
    profiles: dict[str, ContactProfile],
    cases,
    beta_step: float = BETA_STEP,
    *,
    eps_lo: float = EPS_FLOOR,
) -> list[tuple]:
    """The ``bounds.csv`` rows for ``cases`` on walls ``profiles["+"/"-"]``.

    Each row is (side, case, beta_min, method, worst_lambda, monotone_flag,
    effective_m, effective_sigma), in case order and then in the case's
    (side, condition) order.  A pair on a wall with a linear evaluator takes
    its width in closed form (``_corollary1_fan``, method ``corollary1``);
    the pairs on sweep-table walls share one scan (``theorem2_scan``), run
    only when there are any.  ID and DI repeat the pairs of I and D and reuse
    their results.
    """
    pairs = list(dict.fromkeys(p for case in cases for p in case_condition_map(case)))
    adhesion = [
        adhesion_from_profile(profiles[side], required_functional_kind(kind), eps_lo=eps_lo)
        for side, kind in pairs
    ]
    _check_beta_step(beta_step)
    swept = [(A, kind) for A, (_, kind) in zip(adhesion, pairs) if A.method == "sweep"]
    scanned = iter(min_admissible_fan(swept, beta_step) if swept else ())
    rows = {}
    for pair, A in zip(pairs, adhesion):
        if A.method == "sweep":
            r, method = next(scanned), "theorem2_scan"
        else:
            r, method = _corollary1_fan(A, pair[1]), "corollary1"
        rows[pair] = (r.beta_min, method, r.worst_lambda, r.monotone_flag, *effective_angle(A))
    return [
        (side, case.value, *rows[side, kind])
        for case in cases
        for side, kind in case_condition_map(case)
    ]
