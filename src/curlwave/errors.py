"""Exception types shared across the package.

Each config precondition is checked once, by ExperimentConfig.validate,
whose message starts with the field it refuses; library functions document
their domain and trust their caller.  A check of data rather than of an
argument keeps its class: ValueError for a curve or field a function cannot
take, and a class here only for a failure that a caller catches by type, or
one that comes from the data or from outside the program.  The command line
maps these and ValueError to exit code 1.
tests/test_imports.py::test_every_error_class_is_caught_or_listed holds
every class to that rule.
"""


class CurlwaveError(Exception):
    """Base class for all package errors."""


class ChartEscape(CurlwaveError):
    """A traced point left the valid region of both charts."""


class CurvesTooClose(CurlwaveError):
    """Linking integral requested for curves that nearly touch."""


class DegenerateProjection(CurlwaveError):
    """No generic projection direction found for crossing counts."""


class ClosureFailures(CurlwaveError):
    """Too many pairs of closed trajectories found no generic projection."""


class ExtrapolationUnstable(CurlwaveError):
    """Sampled values cannot be fitted or extrapolated."""


class ConfigInvalid(CurlwaveError):
    """Experiment config malformed, missing required keys, or naming an unknown verb."""


class IoFailure(CurlwaveError):
    """Report or artifact could not be written."""
