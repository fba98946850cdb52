"""Lower bounds on the angular width of constant-height fans at the corner.

A bounded solution whose radial limits exist splits the sector into at most
two wall fans (where the limit is constant) and a strictly monotone middle,
possibly with an interior plateau.  For each case and wall, one of two
trigonometric inequalities in a transversal inclination lambda must hold for
every lambda; the smallest wall-fan width beta for which it does is found by
an ascending scan.  With the adhesion value frozen to m*b the scan reduces to
arccos(m) (or its supplement), which serves as a cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .functionals import (
    EPS_FLOOR,
    KIND_LOWER,
    KIND_UPPER,
    SweepConfig,
    _exact_estimates,
    check_adhesion_bound,
    sweep_table,
)
from .profiles import ContactProfile

#: a refined condition minimum at or above this counts as "holds"
FEASIBLE_TOL = -1e-12
#: the lambda grid keeps this margin away from beta and pi
LAMBDA_MARGIN = 1e-4
#: minimum number of lambda grid points
LAMBDA_POINTS = 512
#: fan-scan step in beta: the default and the coarsest allowed
BETA_STEP = 1e-3
#: beta rows evaluated at once by the fan scan (bounds its memory, not its result)
_SCAN_ROWS = 64
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
    values skip both.
    """

    kind: str
    fn: Callable[[np.ndarray], np.ndarray]
    method: str = "custom"
    _bounded: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in (KIND_LOWER, KIND_UPPER):
            raise ValueError(f"kind must be 'I' or 'S', got {self.kind!r}")

    def __call__(self, b):
        b_arr = np.asarray(b, dtype=float)
        out = np.asarray(self.fn(b_arr), dtype=float)
        if not self._bounded:
            check_adhesion_bound(out, b_arr)
            out = np.clip(out, -b_arr, b_arr)
        return float(out) if np.isscalar(b) or out.ndim == 0 else out

    @classmethod
    def constant_angle(cls, gamma: float, kind: str) -> "AdhesionFunction":
        if not (0.0 <= gamma <= math.pi):
            raise ValueError(f"angle must lie in [0, pi], got {gamma}")
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
        # deep enough for every window from sin(LAMBDA_MARGIN), the scan's
        # smallest, at this floor and at the default one
        sweep = SweepConfig(profile.s_max, min(eps_lo, EPS_FLOOR) * math.sin(LAMBDA_MARGIN))
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

    def cut(self, b: np.ndarray) -> np.ndarray:
        """Envelope index of each window b.  The search of a read-only b that
        owns its data, as the fan scan's blocks are, is kept, so the wall's
        two kinds search each block once."""
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
    method: str
    worst_lambda: float | None
    monotone_flag: bool
    beta_step: float | None = None

    def __post_init__(self) -> None:
        check_fan_width(self.beta_min)


def check_fan_width(beta) -> None:
    """Refuse a fan width, or an array of them, outside [0, pi) (NaN included)."""
    if not np.all((beta >= 0.0) & (beta < math.pi)):
        raise ValueError(f"fan width must lie in [0, pi), got {beta}")


def _check_angles(beta, lam) -> None:
    check_fan_width(beta)
    if not np.all((beta < lam) & (lam < math.pi)):  # NaN fails too
        raise ValueError("need 0 <= beta < lambda < pi")


def _ratios(beta, lam):
    """(b, s) = (sin(lambda-beta), sin(beta)) / sin(lambda)."""
    sl = np.sin(lam)
    return np.sin(lam - beta) / sl, np.sin(beta) / sl


def _geometry(beta, lam):
    """``_ratios`` with the angles checked."""
    beta = np.asarray(beta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    _check_angles(beta, lam)
    return _ratios(beta, lam)


def _condition(A, kind, b, s):
    out = A(b) + s - 1.0 if kind == INCREASING else s - 1.0 - A(b)
    return float(out) if out.ndim == 0 else out


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


def default_lambda_grid(beta: float, n: int = LAMBDA_POINTS) -> np.ndarray:
    check_fan_width(beta)
    lo = beta + LAMBDA_MARGIN
    hi = math.pi - LAMBDA_MARGIN
    if lo >= hi:
        raise ValueError(f"no room for a lambda grid above beta={beta}")
    return np.linspace(lo, hi, n)


def _golden_min(f, lo: np.ndarray, hi: np.ndarray):
    """Golden-section minimum of f on each bracket [lo[k], hi[k]].

    ``f`` maps an array of points to an array of values.  Each step evaluates
    one new probe per bracket, and the search stops once every bracket is
    narrower than 1e-12.  Returns (argmin, min) arrays.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while np.any(b - a > 1e-12):
        # left: the minimum lies in [a, d], whose upper probe is the old c
        left = fc <= fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    pick = fc <= fd
    return np.where(pick, c, d), np.where(pick, fc, fd)


def _grid_min(f, grid: np.ndarray) -> tuple[float, float]:
    """Minimum of f over a grid, golden-section polished between the grid
    neighbours of the grid minimizer; returns (point, value)."""
    vals = np.asarray(f(grid), dtype=float)
    i = int(np.argmin(vals))
    x_best, v_best = float(grid[i]), float(vals[i])
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    if hi > lo:
        x_ref, v_ref = _golden_min(f, np.array([lo]), np.array([hi]))
        if v_ref[0] < v_best:
            x_best, v_best = float(x_ref[0]), float(v_ref[0])
    return x_best, v_best


def holds_for_all_lambda(
    cond: Callable[[np.ndarray], np.ndarray],
    beta: float,
    lambda_grid: np.ndarray | None = None,
) -> tuple[bool, float]:
    """Whether ``cond(lambda) >= -1e-12`` across (beta, pi).

    The condition is evaluated on the grid, then golden-section refined around
    the grid minimizer; returns (verdict, refined worst lambda).
    """
    check_fan_width(beta)
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(beta)
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.size < 3:
        raise ValueError("lambda grid needs at least 3 points")
    lam_best, v_best = _grid_min(cond, lambda_grid)
    return v_best >= FEASIBLE_TOL, lam_best


def required_functional_kind(condition_kind: str) -> str:
    """Which adhesion flavour a condition consumes: lower for increasing,
    upper for decreasing; ValueError for any other kind."""
    if condition_kind == INCREASING:
        return KIND_LOWER
    if condition_kind == DECREASING:
        return KIND_UPPER
    raise ValueError(f"unknown condition kind {condition_kind!r}")


def _grid_pass(requests, betas: np.ndarray, u: np.ndarray, block_rows: int):
    """Each request's condition minimum over each beta row, on the lambdas at
    fractions ``u`` of the way from beta + LAMBDA_MARGIN to pi - LAMBDA_MARGIN,
    and the index into ``u`` where it falls; ``block_rows`` rows at a time."""
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
    if not (0.0 < beta_step <= BETA_STEP):
        raise ValueError(f"beta_step must lie in (0, {BETA_STEP}]")
    for A, kind in requests:
        want = required_functional_kind(kind)
        if A.kind != want:
            raise ValueError(f"{kind} condition needs a kind-{want} functional, got {A.kind}")
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
        lam_ref, val_ref = _golden_min(lambda lam: _condition(A, kind, *_ratios(beta, lam)), left, right)
        worst = np.where(val_ref < grid_val, lam_ref, worst)
        ok = np.minimum(val_ref, grid_val) >= FEASIBLE_TOL
        if not np.any(ok):
            raise InfeasibleScanError(f"no admissible fan width below pi for the {kind} condition")
        first = int(np.argmax(ok))
        results.append(FanBoundResult(
            beta_min=float(beta[first]),
            method="theorem2_scan",
            worst_lambda=float(worst[first]),
            # monotone: every row from the first feasible one on is feasible
            monotone_flag=bool(np.count_nonzero(ok) == len(betas) - rows[first]),
            beta_step=beta_step,
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


def effective_angle(A: AdhesionFunction) -> tuple[float, float]:
    """Extremal cosine slope of A over the windows b = k/33, k = 1..32, and
    its arccos.

    Lower functionals report min A(b)/b, upper ones max A(b)/b; the returned
    angle is the effective constant contact angle matching that slope.
    """
    b_grid = np.linspace(1.0 / 33.0, 32.0 / 33.0, 32)
    ratios = A(b_grid) / b_grid
    m = float(np.min(ratios) if A.kind == KIND_LOWER else np.max(ratios))
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
    share the table.
    """
    exact = _exact_estimates(profile, 1.0)
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
    (side, condition) order.  The distinct (side, condition) pairs share one
    scan; ID and DI repeat the pairs of I and D and reuse their results.
    """
    pairs = list(dict.fromkeys(p for case in cases for p in case_condition_map(case)))
    adhesion = [
        adhesion_from_profile(profiles[side], required_functional_kind(kind), eps_lo=eps_lo)
        for side, kind in pairs
    ]
    results = min_admissible_fan([(A, k) for A, (_, k) in zip(adhesion, pairs)], beta_step)
    scans = {
        pair: (r.beta_min, r.method, r.worst_lambda, r.monotone_flag, *effective_angle(A))
        for pair, A, r in zip(pairs, adhesion, results)
    }
    return [
        (side, case.value, *scans[side, kind])
        for case in cases
        for side, kind in case_condition_map(case)
    ]
