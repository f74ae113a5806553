"""The lambda-family of frames over the hyperbolic plane's tangent circle bundle.

Everything here is algebraic: the frames enter through their structure
constants and leg metrics, and densities are pointwise (the spaces are
homogeneous, so one point suffices).  Chart quadrature of the sphere
frames lives in s3.
"""

from __future__ import annotations

import numpy as np

from .frames import (
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

# The lambda every verb accepts.  sectional_profile stays within 1e-9 of its
# laws here (at most 1.8e-10 relative, on 200 points a decade) and first
# misses them near 5.07e-7 and 5.13e6, to roundoff in the constants.  With a
# disk of 1e-4 to 50 curvature units, every density scale the chord verbs form
# from its perimeter P and area A (P**3, A**3, P**3/A**2, P**2/A, P**3/A**3)
# is a normal double here: they span 3.1e-33 to 4.3e78.
VERIFIED_LAMBDA_RANGE = (1e-5, 1e6)


def sectional_profile(lam: float) -> tuple[float, float, float]:
    """(horizontal, vertical1, vertical2) plane curvatures at scale lam.

    Computed from the orthonormal geometric frame via the algebraic curvature
    formula; the horizontal plane decays like lam^(-2/3), the two vertical
    planes like lam^(-5/3).
    """
    k12, k13, k23 = milnor_curvatures(lambda_geometry(lam))
    return k23, k12, k13


def lambda_report_row(lam: float) -> dict:
    """Per-lambda record used by the CLI grid scan.

    The normalized triple carries helicity -2 on every leg and a triple
    density scaling as 1/lam; the raw right triple's frame volume is lam.
    h_density is the legs' common helicity density, or NaN when they differ
    by more than 1e-12, which verify-hyperbolic reports as a violation.
    """
    spec = lambda_fields(lam)
    raw = lambda_right(lam)
    per_leg = [helicity_density_algebraic(spec, l) for l in (1, 2, 3)]
    h_density = per_leg[0] if max(per_leg) - min(per_leg) <= 1e-12 else float("nan")
    t_density = triple_density_algebraic(spec)
    horizontal, vert1, vert2 = sectional_profile(lam)
    eigs = curl_eigenvalues(spec)
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
        "raw_right_volume": float(np.sqrt(np.prod(raw.g))),
        "cover_volume_factor": COVER_VOLUME_FACTOR,
    }
