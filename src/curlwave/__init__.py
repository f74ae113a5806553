"""Curl eigenframes on the 3-sphere, their hyperbolic deformations, linking
invariants of field lines, and Monte Carlo scaling laws in the hyperbolic
plane, with a reproducible experiment runner."""

from . import chartlab, errors, fieldlines, frames, hyperbolic, hypermc, quaternions, s3, seeds
from .frames import (
    LieFrameSpec,
    curl_eigenvalue,
    curl_eigenvalues,
    default_fleet,
    lambda_fields,
    lambda_geometry,
    lambda_right,
    milnor_curvatures,
    su2_halved,
    su2_right,
    su2_unit,
)
from .hyperbolic import sectional_profile
from .hypermc import (
    GeodesicChord,
    ScalingFit,
    alpha_scaling,
    epsilon_limit_scan,
    lambda_to_curvature,
    pair_intersection_density,
    parallelism_ratio,
    sample_geodesic,
)
from .fieldlines import (
    FieldLine,
    asymptotic_hopf,
    build_linking_matrix,
    close_curve,
    crossing_linking_oracle,
    gauss_linking,
    helicity_integral,
    trace_batch,
)
from .s3 import S3Frame, build_frame, cs_functional, ym_residual

__version__ = "0.1.0"
