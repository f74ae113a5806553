"""Exception types shared across the package.

Domain failures raise one of these classes, so callers can catch
CurlwaveError without string matching.  Arguments outside the range a
function supports raise ValueError instead; the command line maps both
kinds to exit code 1.
"""


class CurlwaveError(Exception):
    """Base class for all package errors."""


class FrameSpecInvalid(CurlwaveError):
    """Structure constants or metric fail a validity check."""


class NotEigenfield(CurlwaveError):
    """Requested a curl eigenvalue for a frame leg that is not an eigenfield."""


class DegenerateMetric(CurlwaveError):
    """Frame metric has a non-positive diagonal entry."""


class NonPositiveLambda(CurlwaveError):
    """Family parameter must be strictly positive."""


class QuadratureUnderflow(CurlwaveError):
    """Too few sample points requested for a quadrature."""


class ChartEscape(CurlwaveError):
    """A traced point left the valid region of both charts."""


class StepTooLarge(CurlwaveError):
    """Integrator step size above the stability bound."""


class GapTooLarge(CurlwaveError):
    """Endpoint gap exceeds the allowed fraction of curve extent."""


class CurvesTooClose(CurlwaveError):
    """Linking integral requested for curves that nearly touch."""


class DegenerateProjection(CurlwaveError):
    """No generic projection direction found for crossing counts."""


class ClosureFailures(CurlwaveError):
    """Too many sampled trajectories could not be closed into loops."""


class EpsilonTooLarge(CurlwaveError):
    """Crossing-angle cutoff outside the supported range."""


class ExtrapolationUnstable(CurlwaveError):
    """Scan too short or too noisy to extrapolate."""


class RadiusTooSmall(CurlwaveError):
    """Disk radius below the regime where the ratio law applies."""


class ConfigInvalid(CurlwaveError):
    """Experiment config file malformed or missing required keys."""


class VerbUnknown(CurlwaveError):
    """CLI verb not recognized."""


class IoFailure(CurlwaveError):
    """Report or artifact could not be written."""
