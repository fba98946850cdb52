"""What the command line and the pointwise layers share: the malformed-input
error, the sweep defaults, the wall and functional tags, and the angle and
adhesion-bound checks.

This module imports no numpy, so ``wedgecap.cli`` can build its parser and
check its arguments and input files before any layer that computes is
loaded, and the constant-angle blow-up runs on Python floats alone.  The
checks take a Python number or a numpy array.  ``profiles``,
``functionals`` and ``bounds`` re-export these names.
"""

import math


class ProfileFormatError(ValueError):
    """A profile description is structurally malformed (not just out of range)."""


#: smallest scale of a sweep unless the caller picks another
EPS_FLOOR = 1e-10
#: sweep grid density unless the caller picks another
POINTS_PER_DECADE = 64

SIDES = ("+", "-")

KIND_LOWER = "I"  # liminf flavour
KIND_UPPER = "S"  # limsup flavour

#: admitted relative overshoot of |value| past b before we call it a bug
_VALUE_SLACK = 1e-9


def holds(cond) -> bool:
    """A Python bool as it is; else whether every entry of the numpy array
    (or numpy bool) ``cond`` is true."""
    return cond if isinstance(cond, bool) else bool(cond.all())


def check_angle(gamma, what: str) -> None:
    """Refuse a contact angle, or an array of them, outside [0, pi] (NaN
    included); both endpoints are angles."""
    if not holds((gamma >= 0.0) & (gamma <= math.pi)):
        raise ValueError(f"{what} must lie in [0, pi], got {gamma}")


def check_adhesion_bound(value, b) -> None:
    """Refuse an adhesion value, or an array of them, past |A(b)| <= b by more
    than the slack (NaN included)."""
    if not holds(abs(value) <= b * (1.0 + _VALUE_SLACK)):
        raise ValueError(f"adhesion value {value} breaks |A(b)| <= b for b = {b}")
