"""The lambda-family of frames over the hyperbolic plane's tangent circle bundle.

Everything here is algebraic: the frames enter through their structure
constants and leg metrics, and densities are pointwise (the spaces are
homogeneous, so one point suffices).  Chart quadrature of the sphere
frames lives in s3; the finite-difference curvature oracle lives in chartlab.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveLambda
from .frames import (
    LieFrameSpec,
    curl_eigenvalues,
    helicity_density_algebraic,
    lambda_fields,
    lambda_geometry,
    lambda_right,
    milnor_curvatures,
    triple_density_algebraic,
)

# The fiber circle is traversed twice relative to the base angle; densities
# are pointwise so the cover only contributes this constant volume factor,
# recorded in reports.
COVER_VOLUME_FACTOR = 2.0


@dataclass(frozen=True)
class LambdaFrame:
    """Frame family member at vertical scale lam.

    normalized=True carries the unit-helicity left triple (curl eigenvalues
    -2/lam); normalized=False carries the raw right triple, whose frame
    volume equals lam.
    """

    lam: float
    spec: LieFrameSpec
    normalized: bool


def build_lambda_frame(lam: float, normalized: bool = True) -> LambdaFrame:
    if lam <= 0:
        raise NonPositiveLambda(f"lambda must be positive, got {lam}")
    spec = lambda_fields(lam) if normalized else lambda_right(lam)
    return LambdaFrame(float(lam), spec, bool(normalized))


def frame_volume(frame: LambdaFrame) -> float:
    """Signed volume of the frame parallelepiped."""
    return float(frame.spec.orientation * np.sqrt(np.prod(frame.spec.g)))


def cs_density_lambda(frame: LambdaFrame) -> tuple[float, float]:
    """(helicity density per component, triple-form density).

    Requires the normalized frame; helicity is -2 independent of lam, the
    triple density scales as 1/lam.
    """
    if not frame.normalized:
        raise ValueError("densities are defined for the normalized frame")
    per_leg = [helicity_density_algebraic(frame.spec, l) for l in (1, 2, 3)]
    if max(per_leg) - min(per_leg) > 1e-12:
        raise ValueError(f"legs disagree on helicity density: {per_leg}")
    return per_leg[0], triple_density_algebraic(frame.spec)


def sectional_profile(lam: float) -> tuple[float, float, float]:
    """(horizontal, vertical1, vertical2) plane curvatures at scale lam.

    Computed from the orthonormal geometric frame via the algebraic curvature
    formula; the horizontal plane decays like lam^(-2/3), the two vertical
    planes like lam^(-5/3).
    """
    if lam <= 0:
        raise NonPositiveLambda(f"lambda must be positive, got {lam}")
    k12, k13, k23 = milnor_curvatures(lambda_geometry(lam))
    return k23, k12, k13


def lambda_report_row(lam: float) -> dict:
    """Per-lambda record used by the CLI grid scan."""
    frame = build_lambda_frame(lam, normalized=True)
    raw = build_lambda_frame(lam, normalized=False)
    h_density, t_density = cs_density_lambda(frame)
    horizontal, vert1, vert2 = sectional_profile(lam)
    eigs = curl_eigenvalues(frame.spec)
    return {
        "lambda": lam,
        "curl_eig_1": eigs[0],
        "curl_eig_2": eigs[1],
        "curl_eig_3": eigs[2],
        "h_density": h_density,
        "t_density": t_density,
        "t_density_times_lambda": t_density * lam,
        "horizontal_curvature": horizontal,
        "vertical_curvature_1": vert1,
        "vertical_curvature_2": vert2,
        "raw_right_volume": frame_volume(raw),
        "cover_volume_factor": COVER_VOLUME_FACTOR,
    }
