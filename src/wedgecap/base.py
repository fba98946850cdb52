"""What the command line shares with the numeric layers: the malformed-input
error and the sweep defaults.

This module imports nothing, numpy included, so ``wedgecap.cli`` can build
its parser and check its arguments and input files before any layer that
computes is loaded.  ``profiles`` and ``functionals`` re-export these names.
"""


class ProfileFormatError(ValueError):
    """A profile description is structurally malformed (not just out of range)."""


#: smallest scale of a sweep unless the caller picks another
EPS_FLOOR = 1e-10
#: sweep grid density unless the caller picks another
POINTS_PER_DECADE = 64
