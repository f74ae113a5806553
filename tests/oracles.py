"""Independent routes that the tests hold the package against; no verb runs them.

Finite-difference sectional curvature on explicit coordinate charts is the
second route for curvature values: it never touches structure constants.  A
chart metric G(x) is sampled on a central-difference stencil, the curvature
tensor is assembled from second derivatives of G plus first-kind Christoffel
products, and plane curvatures are contracted against the frame directions.
The charts are stereographic coordinates for round spheres and an
upper-half-plane times fiber-angle chart for the frames over the hyperbolic
plane.

The scalar GeodesicChord is the reference for the chord arrays of hypermc,
which keep only unit normals.  hypermc tests chord crossings by endpoint
interleaving alone; the hyperboloid-model predicate crosses_inside, its
dense crossing matrix and the exhaustive triangle count trace(A^3)/6 are
the references for the pair counts and the sampled triangle counts of
hypermc.  Ray shooting is the reference for hypermc.parallelism_ratio.
signed_crossings, one dense block of segment pairs followed by a separate
depth, tangency and sign pass, is the reference for
fieldlines.projected_crossings.
"""

from dataclasses import dataclass

import numpy as np

from curlwave import hypermc
from curlwave.errors import CurlwaveError, DegenerateProjection
from curlwave.frames import lambda_geometry_ar
from curlwave.quaternions import IMAG_UNITS, qmul
from curlwave.s3 import chart_embed, chart_push


def _riemann_number(g0, d_g, dd_g, u, v) -> float:
    """<R(u, v) v, u> from metric derivatives at a point.

    d_g[a] = dG/dx_a, dd_g[a, b] = d2G/dx_a dx_b.  Uses the second-derivative
    form of the curvature tensor with first-kind Christoffel symbols, which
    avoids differentiating the inverse metric.
    """
    # gamma[c, a, b] = (d_a G_bc + d_b G_ac - d_c G_ab) / 2
    gamma = 0.5 * (np.einsum("abc->cab", d_g) + np.einsum("bac->cab", d_g) - d_g)
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


def _metric_stencil(metric, x0, h):
    """Metric value plus first and second central-difference derivatives."""
    e = h * np.eye(3)
    g0 = metric(x0)
    gp = [metric(x0 + e[a]) for a in range(3)]
    gm = [metric(x0 - e[a]) for a in range(3)]
    d_g = np.stack([(gp[a] - gm[a]) / (2.0 * h) for a in range(3)])
    dd_g = np.empty((3, 3, 3, 3))
    for a in range(3):
        dd_g[a, a] = (gp[a] - 2.0 * g0 + gm[a]) / (h * h)
        for b in range(a + 1, 3):
            dd_g[a, b] = dd_g[b, a] = (
                metric(x0 + e[a] + e[b]) - metric(x0 + e[a] - e[b])
                - metric(x0 - e[a] + e[b]) + metric(x0 - e[a] - e[b])
            ) / (4.0 * h * h)
    return g0, d_g, dd_g


def fd_sectional(metric, dirs, x0, h=2e-3) -> tuple[float, float, float]:
    """Sectional curvatures of the planes (1,2), (1,3), (2,3) of dirs rows at
    x0; the chart setups below return (metric, dirs, x0).

    Central stencils of step h and h/2 are Richardson-combined, cancelling
    the leading O(h^2) truncation error.  The step is wide enough that the
    h/2 pass stays truncation-limited rather than roundoff-limited.
    """

    def once(step):
        g0, d_g, dd_g = _metric_stencil(metric, x0, step)
        out = []
        for u, v in ((dirs[0], dirs[1]), (dirs[0], dirs[2]), (dirs[1], dirs[2])):
            area2 = (u @ g0 @ u) * (v @ g0 @ v) - (u @ g0 @ v) ** 2
            out.append(_riemann_number(g0, d_g, dd_g, u, v) / area2)
        return np.array(out)

    return tuple((4.0 * once(h / 2.0) - once(h)) / 3.0)


def metric_from_frame_rows(rows, g):
    """Chart metric M^-1 diag(g) M^-T, in which the frame legs, the rows of
    M = rows(x) in chart components, have Gram matrix diag(g)."""

    def metric(x):
        m_inv = np.linalg.inv(rows(x))
        return m_inv @ np.diag(g) @ m_inv.T

    return metric


def sphere_chart_setup(side: str, amp: float, g, radius: float = 1.0):
    """(metric, frame dirs, basepoint) for the left or right translation
    frame of the radius sphere, scaled by amp, in stereographic chart 0."""

    def rows(u):
        x = chart_embed(u, 0, radius)
        legs = [amp * (qmul(x, q) if side == "left" else qmul(q, x)) for q in IMAG_UNITS]
        return np.stack([chart_push(x, xi, 0, radius) for xi in legs])

    x0 = radius * np.array([0.11, -0.07, 0.23])
    return metric_from_frame_rows(rows, np.asarray(g, dtype=float)), rows(x0), x0


# Upper-half-plane times fiber chart.  Coordinates (x, y, phi) with y > 0.
# Base vector fields:
#   F = d_phi
#   X = y cos(phi) d_x + y sin(phi) d_y - cos(phi) d_phi
#   Y = -y sin(phi) d_x + y cos(phi) d_y + sin(phi) d_phi
# satisfying [F, X] = Y, [F, Y] = -X, [X, Y] = -F.


def uhp_base_rows(p: np.ndarray) -> np.ndarray:
    """Rows of (F, X, Y) in the coordinate basis at p = (x, y, phi)."""
    _, y, phi = p
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[0.0, 0.0, 1.0], [y * c, y * s, -c], [-y * s, y * c, s]])


def _uhp_chart_setup(coeff: np.ndarray, g: np.ndarray):
    # Frame legs as the constant combinations coeff of (F, X, Y).
    p0 = np.array([0.1, 1.3, 0.4])
    rows = lambda p: coeff @ uhp_base_rows(p)
    return metric_from_frame_rows(rows, g), rows(p0), p0


def geometry_chart_setup(lam: float):
    """Chart realization of the orthonormal geometric frame over the plane.

    Legs (a X, b (Y - F), b (Y + F)) with b = sqrt(a r / 2) reproduce the
    algebraic brackets of lambda_geometry(lam); the metric declares them
    orthonormal.
    """
    a, r = lambda_geometry_ar(lam)
    b = np.sqrt(a * r / 2.0)
    return _uhp_chart_setup(np.array([[0.0, a, 0.0], [-b, 0.0, b], [b, 0.0, b]]), np.ones(3))


def right_chart_setup(lam: float):
    """Chart realization of the unnormalized right triple over the plane.

    Legs (F, X/sqrt(lam), Y/sqrt(lam)) with leg metric (lam^2, 1, 1).
    """
    s = lam**-0.5
    return _uhp_chart_setup(np.diag([1.0, s, s]), np.array([lam * lam, 1.0, 1.0]))


def mink_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2] - a[..., 0] * b[..., 0]


def mink_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minkowski-orthogonal complement of a 2-plane; time component flipped."""
    return np.cross(a, b) * np.array([-1.0, 1.0, 1.0])


@dataclass(frozen=True)
class GeodesicChord:
    """One geodesic chord of the radius-rr disk, with rr and lengths in
    curvature units.  Its points are cosh(s) base + sinh(s) tangent for
    |s| <= half_length, with base the point closest to the disk center."""

    rr: float
    foot_distance: float
    foot_direction: float
    normal: np.ndarray
    base: np.ndarray
    tangent: np.ndarray
    half_length: float

    def point(self, s: np.ndarray) -> np.ndarray:
        return np.cosh(s)[..., None] * self.base + np.sinh(s)[..., None] * self.tangent

    def endpoints(self) -> np.ndarray:
        return self.point(np.array([-self.half_length, self.half_length]))

    def uhp_descriptor(self) -> tuple[str, tuple[float, ...]]:
        """Euclidean circle (center, radius) or vertical line (x0) in the
        upper half-plane."""
        n0, n1, n2 = (float(v) for v in self.normal)
        denom = n2 - n0
        if abs(denom) < 1e-12 * max(1.0, abs(n1)):
            return "vertical", (0.5 * (n0 + n2) / n1,)
        center = -n1 / denom
        rad2 = center**2 + (n0 + n2) / denom
        return "circle", (center, float(np.sqrt(rad2)))

    def uhp_residual(self) -> float:
        """Worst circle/line equation residual along the arc (scale free)."""
        x = self.point(np.linspace(-self.half_length, self.half_length, 33))
        first, height = x[:, 1] / (x[:, 0] - x[:, 2]), 1.0 / (x[:, 0] - x[:, 2])
        kind, params = self.uhp_descriptor()
        if kind == "vertical":
            return float(np.max(np.abs(first - params[0]))) / (1.0 + abs(params[0]))
        c, r = params
        return float(np.max(np.abs((first - c) ** 2 + height**2 - r**2))) / r**2


def chord_from_foot(K: float, R: float, p: float, theta: float) -> GeodesicChord:
    """Chord at foot distance p (curvature units) in direction theta."""
    _, rr = hypermc._shape_params(K, R)
    if not 0.0 <= p < rr:
        raise ValueError(f"foot distance must lie in [0, {rr}), got {p}")
    sp = np.sinh(p)
    cp = np.sqrt(1.0 + sp**2)
    ct, st = np.cos(theta), np.sin(theta)
    return GeodesicChord(
        rr, float(p), float(theta),
        np.array([sp, cp * ct, cp * st]),
        np.array([cp, sp * ct, sp * st]),
        np.array([0.0, -st, ct]),
        float(np.arccosh(np.cosh(rr) / np.cosh(p))),
    )


def sample_geodesic(K: float, R: float, rng) -> GeodesicChord:
    """One kinematic chord of the disk, drawn by the sampler of the chord
    arrays and rebuilt from its foot point."""
    _, rr = hypermc._shape_params(K, R)
    n = hypermc._sample_normals(rr, 1, np.random.default_rng(rng))[0]
    return chord_from_foot(K, R, float(np.arcsinh(n[0])), float(np.arctan2(n[2], n[1])))


def chords_cross_inside(c1: GeodesicChord, c2: GeodesicChord) -> bool:
    """Whether two chords of the same disk intersect strictly inside it."""
    kappa = float(mink_dot(c1.normal, c2.normal))
    if abs(kappa) >= 1.0:
        return False
    p0 = abs(mink_cross(c1.normal, c2.normal)[0]) / np.sqrt(1.0 - kappa**2)
    return bool(p0 < np.cosh(c1.rr))


def crosses_inside(kappa: np.ndarray, p0: np.ndarray, ch2: float) -> np.ndarray:
    """Chord pairs that cross strictly inside the disk, in the hyperboloid
    model: the vectorized form of chords_cross_inside.

    kappa = <n1, n2> and p0 is the time component of the Minkowski cross
    product of the unit normals; the crossing point has time component
    |p0| / sqrt(1 - kappa^2), to be compared with cosh(rr) (ch2 is its
    square).  A chord can pass it with itself: kappa rounds just below 1
    while p0 = 0.
    """
    return (np.abs(kappa) < 1.0) & (p0**2 < ch2 * (1.0 - kappa**2))


def pair_flag_matrix(normals: np.ndarray, rr: float) -> tuple[np.ndarray, np.ndarray]:
    """(flags, |kappa|): which chord pairs cross inside the disk, by
    crosses_inside, and the cosine of each pair's folded crossing angle, as
    dense N x N matrices."""
    kappa = normals[:, 1:] @ normals[:, 1:].T - np.outer(normals[:, 0], normals[:, 0])
    p0 = np.outer(normals[:, 2], normals[:, 1]) - np.outer(normals[:, 1], normals[:, 2])
    flags = crosses_inside(kappa, p0, np.cosh(rr) ** 2)
    np.fill_diagonal(flags, False)
    return flags, np.abs(kappa)


def exact_triangle_counts(normals: np.ndarray, rr: float, eps_values: np.ndarray) -> np.ndarray:
    """Per cutoff eps, the chord triples with three pairwise inside-crossings
    at angle >= eps.

    Exhaustive over all triples via the triangle count of the pairwise
    crossing graph, trace(A^3)/6; one crossing matrix serves every cutoff.
    """
    flags, cos_angle = pair_flag_matrix(normals, rr)
    counts = []
    for eps in eps_values:
        a = (flags & (cos_angle <= np.cos(eps))).astype(np.float64)
        counts.append(int(round(float(np.sum(a * (a @ a))) / 6.0)))
    return np.array(counts)


def parallelism_angle_shooting(K: float, R1: float, x1: float) -> float:
    """Parallelism angle by bisection on geodesic rays (no closed form).

    Shoots rays from the circle point at angles off the inward perpendicular
    and bisects 80 times between hitting and missing the reference geodesic;
    a ray hits when the shot geodesic crosses it within 40 curvature units
    beyond the disk center.
    """
    _, rr = hypermc._shape_params(K, R1)
    if rr < 5.0 * (1.0 - 1e-12):
        raise ValueError(f"circle radius must reach 5 curvature units, got {rr:.3f}")
    c1, s1 = np.cos(x1), np.sin(x1)
    point = np.array([np.cosh(rr), np.sinh(rr) * c1, np.sinh(rr) * s1])
    inward = -np.array([np.sinh(rr), np.cosh(rr) * c1, np.cosh(rr) * s1])
    side = np.array([0.0, -s1, c1])
    line_normal = np.array([0.0, c1, s1])
    s_max = rr + 40.0

    def hits(alpha: float) -> bool:
        t = np.cos(alpha) * inward + np.sin(alpha) * side
        end = np.cosh(s_max) * point + np.sinh(s_max) * t
        return mink_dot(end, line_normal) < 0.0

    lo, hi = 0.0, 0.5 * np.pi
    if not hits(lo):
        raise CurlwaveError("perpendicular ray fails to reach the reference geodesic")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if hits(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def signed_crossings(p: np.ndarray, q: np.ndarray, direction: np.ndarray):
    """(i, j, sign) of the crossings of two polylines projected along direction.

    Finds the crossings of all segment pairs in one block, then checks depth
    and tangency and signs them in a second pass that projects both
    polylines again.  Raises DegenerateProjection on a touch at a segment
    endpoint, an ambiguous depth or a tangential crossing, in that order.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    aux = np.zeros(3)
    aux[int(np.argmin(np.abs(d)))] = 1.0
    e1 = np.cross(d, aux)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    pa = np.stack([p @ e1, p @ e2], axis=1)
    qa = np.stack([q @ e1, q @ e2], axis=1)
    da = (pa[1:] - pa[:-1])[:, None, :]
    db = (qa[1:] - qa[:-1])[None, :, :]
    diff = qa[None, :-1, :] - pa[:-1, None, :]
    denom = da[..., 0] * db[..., 1] - da[..., 1] * db[..., 0]
    norm_prod = np.linalg.norm(da, axis=-1) * np.linalg.norm(db, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (diff[..., 0] * db[..., 1] - diff[..., 1] * db[..., 0]) / denom
        t = (diff[..., 0] * da[..., 1] - diff[..., 1] * da[..., 0]) / denom
    parallel = np.abs(denom) <= 1e-12 * np.maximum(norm_prod, 1e-300)
    margin = 1e-9
    at_end_s = (np.abs(s) < margin) | (np.abs(1.0 - s) < margin)
    at_end_t = (np.abs(t) < margin) | (np.abs(1.0 - t) < margin)
    on_s = (s >= -margin) & (s <= 1.0 + margin)
    on_t = (t >= -margin) & (t <= 1.0 + margin)
    if np.any((~parallel) & ((at_end_s & on_t) | (at_end_t & on_s))):
        raise DegenerateProjection("crossing at a segment endpoint")
    inside = (~parallel) & (s > 0.0) & (s < 1.0) & (t > 0.0) & (t < 1.0)
    i, j = np.nonzero(inside)
    s, t = s[inside], t[inside]

    scale = max(float(np.max(np.abs(p))), float(np.max(np.abs(q))), 1e-30)
    pz = p @ d
    qz = q @ d
    za = pz[i] + s * (pz[i + 1] - pz[i])
    zb = qz[j] + t * (qz[j + 1] - qz[j])
    if np.any(np.abs(za - zb) < 1e-7 * scale):
        raise DegenerateProjection("ambiguous crossing depth")
    pa = np.stack([p @ e1, p @ e2], axis=1)
    qa = np.stack([q @ e1, q @ e2], axis=1)
    ta = pa[i + 1] - pa[i]
    tb = qa[j + 1] - qa[j]
    cross = ta[:, 0] * tb[:, 1] - ta[:, 1] * tb[:, 0]
    if np.any(np.abs(cross) < 1e-14 * scale * scale):
        raise DegenerateProjection("tangential crossing")
    return i, j, np.where(za > zb, np.sign(cross), -np.sign(cross))
