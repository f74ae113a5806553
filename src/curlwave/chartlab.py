"""Finite-difference sectional curvature on explicit coordinate charts.

This is the independent second route for curvature values: it never touches
structure constants.  A chart metric G(x) is sampled on a central-difference
stencil, the curvature tensor is assembled from second derivatives of G plus
first-kind Christoffel products, and plane curvatures are contracted against
the frame directions.

Charts provided here: stereographic coordinates for round spheres, and an
upper-half-plane times fiber-angle chart for the frames over the hyperbolic
plane.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .frames import LieFrameSpec, lambda_geometry_ar
from .quaternions import IMAG_UNITS, qmul
from .s3 import chart_embed, chart_push

MetricFn = Callable[[np.ndarray], np.ndarray]


def _riemann_number(
    g0: np.ndarray,
    d_g: np.ndarray,
    dd_g: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
) -> float:
    """<R(u, v) v, u> from metric derivatives at a point.

    d_g[a] = dG/dx_a, dd_g[a, b] = d2G/dx_a dx_b.  Uses the second-derivative
    form of the curvature tensor with first-kind Christoffel symbols, which
    avoids differentiating the inverse metric.
    """
    # gamma[c, a, b] = (d_a G_bc + d_b G_ac - d_c G_ab) / 2
    gamma = np.empty((3, 3, 3))
    for c in range(3):
        for a in range(3):
            for b in range(3):
                gamma[c, a, b] = 0.5 * (d_g[a][b, c] + d_g[b][a, c] - d_g[c][a, b])
    ginv = np.linalg.inv(g0)
    term1 = 0.5 * (
        np.einsum("acbd,a,b,c,d->", dd_g, u, v, v, u)
        + np.einsum("bdac,a,b,c,d->", dd_g, u, v, v, u)
        - np.einsum("adbc,a,b,c,d->", dd_g, u, v, v, u)
        - np.einsum("bcad,a,b,c,d->", dd_g, u, v, v, u)
    )
    term2 = np.einsum("hbd,hf,fac,a,b,c,d->", gamma, ginv, gamma, u, v, v, u) - np.einsum(
        "had,hf,fbc,a,b,c,d->", gamma, ginv, gamma, u, v, v, u
    )
    return float(term1 + term2)


def _metric_stencil(metric_fn: MetricFn, x0: np.ndarray, h: float):
    """Metric value plus first and second central-difference derivatives."""
    x0 = np.asarray(x0, dtype=float)
    g0 = np.asarray(metric_fn(x0), dtype=float)
    eye = np.eye(3)
    gp = [np.asarray(metric_fn(x0 + h * eye[a]), dtype=float) for a in range(3)]
    gm = [np.asarray(metric_fn(x0 - h * eye[a]), dtype=float) for a in range(3)]
    d_g = np.stack([(gp[a] - gm[a]) / (2.0 * h) for a in range(3)])
    dd_g = np.empty((3, 3, 3, 3))
    for a in range(3):
        dd_g[a, a] = (gp[a] - 2.0 * g0 + gm[a]) / (h * h)
    for a in range(3):
        for b in range(a + 1, 3):
            gpp = np.asarray(metric_fn(x0 + h * eye[a] + h * eye[b]), dtype=float)
            gpm = np.asarray(metric_fn(x0 + h * eye[a] - h * eye[b]), dtype=float)
            gmp = np.asarray(metric_fn(x0 - h * eye[a] + h * eye[b]), dtype=float)
            gmm = np.asarray(metric_fn(x0 - h * eye[a] - h * eye[b]), dtype=float)
            mixed = (gpp - gpm - gmp + gmm) / (4.0 * h * h)
            dd_g[a, b] = mixed
            dd_g[b, a] = mixed
    return g0, d_g, dd_g


def _sectional_once(
    metric_fn: MetricFn, x0: np.ndarray, dirs: np.ndarray, h: float
) -> tuple[float, float, float]:
    g0, d_g, dd_g = _metric_stencil(metric_fn, x0, h)
    out = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        u = dirs[i]
        v = dirs[j]
        num = _riemann_number(g0, d_g, dd_g, u, v)
        uu = float(u @ g0 @ u)
        vv = float(v @ g0 @ v)
        uv = float(u @ g0 @ v)
        out.append(num / (uu * vv - uv * uv))
    return tuple(out)


def fd_sectional(
    metric_fn: MetricFn, x0: np.ndarray, dirs: np.ndarray, h: float = 2e-3
) -> tuple[float, float, float]:
    """Sectional curvatures of the planes (1,2), (1,3), (2,3) of dirs rows.

    Central stencils of step h and h/2 are Richardson-combined, cancelling
    the leading O(h^2) truncation error.  The step is wide enough that the
    h/2 pass stays truncation-limited rather than roundoff-limited.
    """
    dirs = np.asarray(dirs, dtype=float)
    coarse = np.array(_sectional_once(metric_fn, x0, dirs, h))
    fine = np.array(_sectional_once(metric_fn, x0, dirs, h / 2.0))
    return tuple((4.0 * fine - coarse) / 3.0)


def metric_from_frame_rows(rows_fn: Callable[[np.ndarray], np.ndarray], g: np.ndarray) -> MetricFn:
    """Chart metric making the given frame rows have Gram matrix diag(g).

    rows_fn(x) returns the 3x3 matrix whose rows are the chart components of
    the frame legs at x; the chart metric is then M^-1 diag(g) M^-T.
    """
    g = np.asarray(g, dtype=float)

    def metric(x: np.ndarray) -> np.ndarray:
        m_inv = np.linalg.inv(rows_fn(x))
        return m_inv @ np.diag(g) @ m_inv.T

    return metric


# ---------------------------------------------------------------------------
# Stereographic chart for translation frames on round spheres.
# ---------------------------------------------------------------------------


def sphere_frame_rows(
    side: str, amp: float, radius: float = 1.0
) -> Callable[[np.ndarray], np.ndarray]:
    """Chart-0 component rows of the translation frame legs."""

    def rows(u: np.ndarray) -> np.ndarray:
        x = chart_embed(u, 0, radius)
        out = np.empty((3, 3))
        for l, q in enumerate(IMAG_UNITS):
            xi = amp * (qmul(x, q) if side == "left" else qmul(q, x))
            out[l] = chart_push(x, xi, 0, radius)
        return out

    return rows


def sphere_chart_setup(
    side: str, amp: float, g: np.ndarray, radius: float = 1.0
) -> tuple[MetricFn, np.ndarray, np.ndarray]:
    """(metric_fn, frame dirs, basepoint) for a sphere frame in chart 0."""
    rows_fn = sphere_frame_rows(side, amp, radius)
    x0 = radius * np.array([0.11, -0.07, 0.23])
    return metric_from_frame_rows(rows_fn, np.asarray(g, dtype=float)), rows_fn(x0), x0


# ---------------------------------------------------------------------------
# Upper-half-plane times fiber chart.  Coordinates (x, y, phi) with y > 0.
# Base vector fields:
#   F = d_phi
#   X = y cos(phi) d_x + y sin(phi) d_y - cos(phi) d_phi
#   Y = -y sin(phi) d_x + y cos(phi) d_y + sin(phi) d_phi
# satisfying [F, X] = Y, [F, Y] = -X, [X, Y] = -F.
# ---------------------------------------------------------------------------


def uhp_base_rows(p: np.ndarray) -> np.ndarray:
    """Rows of (F, X, Y) in the coordinate basis at p = (x, y, phi)."""
    _, y, phi = p
    c = np.cos(phi)
    s = np.sin(phi)
    return np.array(
        [
            [0.0, 0.0, 1.0],
            [y * c, y * s, -c],
            [-y * s, y * c, s],
        ]
    )


def uhp_frame_rows(coeff: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Frame legs as constant combinations of (F, X, Y)."""
    coeff = np.asarray(coeff, dtype=float)
    return lambda p: coeff @ uhp_base_rows(p)


def geometry_chart_setup(lam: float) -> tuple[MetricFn, np.ndarray, np.ndarray]:
    """Chart realization of the orthonormal geometric frame over the plane.

    Legs (a X, b (Y - F), b (Y + F)) with b = sqrt(a r / 2) reproduce the
    algebraic brackets of lambda_geometry(lam); the metric declares them
    orthonormal.
    """
    a, r = lambda_geometry_ar(lam)
    b = np.sqrt(a * r / 2.0)
    coeff = np.array([[0.0, a, 0.0], [-b, 0.0, b], [b, 0.0, b]])
    rows_fn = uhp_frame_rows(coeff)
    p0 = np.array([0.1, 1.3, 0.4])
    return metric_from_frame_rows(rows_fn, np.ones(3)), rows_fn(p0), p0


def right_chart_setup(lam: float) -> tuple[MetricFn, np.ndarray, np.ndarray]:
    """Chart realization of the unnormalized right triple over the plane.

    Legs (F, X/sqrt(lam), Y/sqrt(lam)) with leg metric (lam^2, 1, 1).
    """
    s = lam**-0.5
    coeff = np.array([[1.0, 0.0, 0.0], [0.0, s, 0.0], [0.0, 0.0, s]])
    rows_fn = uhp_frame_rows(coeff)
    p0 = np.array([0.1, 1.3, 0.4])
    g = np.array([lam * lam, 1.0, 1.0])
    return metric_from_frame_rows(rows_fn, g), rows_fn(p0), p0


def fd_sectional_of_spec(spec: LieFrameSpec, lam: float | None = None) -> tuple[float, float, float]:
    """Convenience dispatch from known frame families to their chart."""
    name = spec.name
    if name.startswith("lambda_geometry"):
        metric_fn, dirs, p0 = geometry_chart_setup(float(lam))
    elif name.startswith("lambda_right"):
        metric_fn, dirs, p0 = right_chart_setup(float(lam))
    elif name == "su2_unit":
        metric_fn, dirs, p0 = sphere_chart_setup("left", 1.0, spec.g)
    elif name == "su2_right":
        metric_fn, dirs, p0 = sphere_chart_setup("right", 1.0, spec.g)
    elif name == "su2_halved":
        metric_fn, dirs, p0 = sphere_chart_setup("left", 0.5, spec.g)
    else:
        raise ValueError(f"no chart realization registered for {name!r}")
    return fd_sectional(metric_fn, p0, dirs)
