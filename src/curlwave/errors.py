"""Exception types shared across the package.

An argument outside the range a function supports raises ValueError.  A
class here exists only for a failure that a caller catches by type, or one
that comes from the data or from outside the program rather than from an
argument; the command line maps these and ValueError to exit code 1.
tests/test_imports.py::test_every_error_class_is_caught_or_listed holds
every class to that rule.
"""


class CurlwaveError(Exception):
    """Base class for all package errors."""


class NotEigenfield(CurlwaveError):
    """Requested a curl eigenvalue for a frame leg that is not an eigenfield."""


class ChartEscape(CurlwaveError):
    """A traced point left the valid region of both charts."""


class GapTooLarge(CurlwaveError):
    """Endpoint gap exceeds the allowed fraction of curve extent."""


class CurvesTooClose(CurlwaveError):
    """Linking integral requested for curves that nearly touch."""


class DegenerateProjection(CurlwaveError):
    """No generic projection direction found for crossing counts."""


class ClosureFailures(CurlwaveError):
    """Too many sampled trajectories could not be closed into loops."""


class ExtrapolationUnstable(CurlwaveError):
    """Sampled values cannot be fitted or extrapolated."""


class ConfigInvalid(CurlwaveError):
    """Experiment config malformed, missing required keys, or naming an unknown verb."""


class IoFailure(CurlwaveError):
    """Report or artifact could not be written."""
