"""Monte Carlo geometry of geodesic chords in the constant-curvature plane.

Chords of a disk in the curvature-K plane (K < 0) are drawn from the
kinematic measure and stored by their unit spacelike normals alone, in the
Minkowski hyperboloid model, where crossing predicates, crossing angles,
and point-in-disk tests are short closed forms.  The scalar GeodesicChord
(chord_from_foot, sample_geodesic) adds the foot point, tangent and
upper-half-plane descriptor as the reference for those arrays.  Densities
are reported in physical units of the curvature-K metric; the disk radius
is measured in the same units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CurlwaveError, DegenerateProjection, ExtrapolationUnstable
from .fieldlines import (
    FieldLine,
    build_linking_matrix,
    projected_crossings,
    resample_polyline,
    to_r3_polylines,
)
from .seeds import fixed_chunks, ordered_map, substream

KOLMOGOROV_FIELD = -5.0 / 3.0
KOLMOGOROV_FLOW = -7.0 / 6.0
BALANCE_MODE = "direct"
# The claimed exponent of the zero-cutoff triangle density in lambda.
ALPHA_EXPONENT = -1.0 / 3.0

MIN_CHORDS = 1000
EXACT_TRIPLE_BUDGET = 300_000_000
# Caps the sampled triples: the int32 draw holds 12 bytes per triple and a
# worker's chunk about 7 MiB, so the scan stays under 0.3 GiB.
MAX_TRIPLES = 16_000_000
# Caps the chord sample: pair_intersection_density peaks at about 200 bytes
# per chord, so under about 1 GiB.
MAX_CHORDS = 5_000_000


def lambda_to_curvature(lam: float) -> float:
    """Horizontal-plane sectional curvature of the deformed frame, -lam^(-2/3)."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return -float(lam) ** (-2.0 / 3.0)


def _shape_params(K: float, R: float) -> tuple[float, float]:
    """Length scale rho = 1/sqrt(-K) and the disk radius in curvature units."""
    if K >= 0:
        raise ValueError(f"curvature must be negative, got {K}")
    if R <= 0:
        raise ValueError(f"disk radius must be positive, got {R}")
    rho = 1.0 / np.sqrt(-K)
    rr = R / rho
    if rr > 50.0:
        raise ValueError(f"disk radius {rr:.1f} curvature units overflows hyperbolic functions")
    # disk_area takes cosh(rr) - 1, whose relative error is up to 2e-16 / rr**2:
    # 2e-8 at rr = 1e-4, and every density is 0/0 once rr**2 underflows.
    if not rr >= 1e-4 * (1.0 - 1e-12):
        raise ValueError(f"disk radius {rr:.3g} curvature units is below 1e-4")
    return float(rho), float(rr)


def disk_perimeter(K: float, R: float) -> float:
    rho, rr = _shape_params(K, R)
    return 2.0 * np.pi * rho * np.sinh(rr)


def disk_area(K: float, R: float) -> float:
    rho, rr = _shape_params(K, R)
    return 2.0 * np.pi * rho**2 * (np.cosh(rr) - 1.0)


# ---------------------------------------------------------------------------
# Hyperboloid-model primitives.
# ---------------------------------------------------------------------------


def mink_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2] - a[..., 0] * b[..., 0]


def mink_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minkowski-orthogonal complement of a 2-plane; time component flipped."""
    e = np.cross(a, b)
    out = np.empty_like(e)
    out[..., 0] = -e[..., 0]
    out[..., 1] = e[..., 1]
    out[..., 2] = e[..., 2]
    return out


def to_uhp(x: np.ndarray) -> np.ndarray:
    """Hyperboloid point(s) to upper-half-plane coordinates (first, height)."""
    denom = x[..., 0] - x[..., 2]
    return np.stack([x[..., 1] / denom, 1.0 / denom], axis=-1)


def _sample_normals(rr: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit normals of a kinematic-measure chord sample of the radius-rr disk.

    The invariant measure in (foot distance p, direction) coordinates is
    cosh(p) dp dtheta, so sinh(p) is uniform on [0, sinh rr).  The chord at
    distance p in direction theta has normal (sinh p, cosh p cos theta,
    cosh p sin theta).
    """
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    sp = rng.uniform(0.0, 1.0, size=n) * np.sinh(rr)
    cp = np.sqrt(1.0 + sp**2)
    return np.stack([sp, cp * np.cos(theta), cp * np.sin(theta)], axis=-1)


@dataclass(frozen=True)
class GeodesicChord:
    """One geodesic chord of the sampling disk, arc-length parameterized.

    The scalar reference for the chord arrays: the samplers keep only unit
    normals, while this chord also carries its foot point (base), unit
    tangent and half-length, and checks itself against its upper-half-plane
    descriptor (circle center/radius or vertical line).  Lengths in
    point()/endpoints are in curvature units; multiply by 1/sqrt(-K) for
    physical lengths.
    """

    rr: float
    foot_distance: float
    foot_direction: float
    normal: np.ndarray
    base: np.ndarray
    tangent: np.ndarray
    half_length: float

    def point(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return np.cosh(s)[..., None] * self.base + np.sinh(s)[..., None] * self.tangent

    def endpoints(self) -> np.ndarray:
        return self.point(np.array([-self.half_length, self.half_length]))

    def uhp_points(self) -> np.ndarray:
        s = np.linspace(-self.half_length, self.half_length, 33)
        return to_uhp(self.point(s))

    def uhp_descriptor(self) -> tuple[str, tuple[float, ...]]:
        """Euclidean circle (center, radius) or vertical line (x0) in the chart."""
        n0, n1, n2 = (float(v) for v in self.normal)
        denom = n2 - n0
        if abs(denom) < 1e-12 * max(1.0, abs(n1)):
            return "vertical", (0.5 * (n0 + n2) / n1,)
        center = -n1 / denom
        rad2 = center**2 + (n0 + n2) / denom
        return "circle", (center, float(np.sqrt(rad2)))

    def uhp_residual(self) -> float:
        """Worst circle/line equation residual along the arc (scale free)."""
        pts = self.uhp_points()
        kind, params = self.uhp_descriptor()
        if kind == "vertical":
            return float(np.max(np.abs(pts[:, 0] - params[0]))) / (1.0 + abs(params[0]))
        c, r = params
        return float(np.max(np.abs((pts[:, 0] - c) ** 2 + pts[:, 1] ** 2 - r**2))) / r**2


def chord_from_foot(K: float, R: float, p: float, theta: float) -> GeodesicChord:
    """Chord at foot distance p (curvature units) in direction theta.

    Its points are cosh(s) base + sinh(s) tangent, with base the point
    closest to the disk center.
    """
    _, rr = _shape_params(K, R)
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


def sample_geodesic(K: float, R: float, rng: np.random.Generator | int) -> GeodesicChord:
    """One chord from the isometry-invariant measure on geodesics meeting the disk.

    The normal comes from the sampler of the chord arrays; the chord is
    rebuilt from its foot point.
    """
    rng = np.random.default_rng(rng)
    _, rr = _shape_params(K, R)
    n = _sample_normals(rr, 1, rng)[0]
    return chord_from_foot(K, R, float(np.arcsinh(n[0])), float(np.arctan2(n[2], n[1])))


def chords_cross_inside(c1: GeodesicChord, c2: GeodesicChord) -> bool:
    """Whether two chords of the same disk intersect strictly inside it."""
    kappa = float(mink_dot(c1.normal, c2.normal))
    if abs(kappa) >= 1.0:
        return False
    p = mink_cross(c1.normal, c2.normal)
    p0 = abs(p[0]) / np.sqrt(1.0 - kappa**2)
    return bool(p0 < np.cosh(c1.rr))


# ---------------------------------------------------------------------------
# Pairwise crossing density.
# ---------------------------------------------------------------------------


def _crosses_inside(kappa: np.ndarray, p0: np.ndarray, ch2: float) -> np.ndarray:
    """Chord pairs that cross strictly inside the disk.

    kappa = <n1, n2> and p0 is the time component of the Minkowski cross
    product of the unit normals; the crossing point has time component
    |p0| / sqrt(1 - kappa^2), to be compared with cosh(rr) (ch2 is its
    square).  The folded crossing angle satisfies cos(angle) = |kappa|.
    """
    return (np.abs(kappa) < 1.0) & (p0**2 < ch2 * (1.0 - kappa**2))


def _pair_row_counts(normals: np.ndarray, rr: float) -> np.ndarray:
    """Per-chord counts of partners crossed strictly inside the disk.

    A disk is convex, so two of its chords cross inside it exactly when
    their endpoints interleave on the boundary circle.  Chord i's endpoints
    sit at angles theta +/- phi with cos(phi) = tanh(p) / tanh(rr) (right
    triangle at the foot).  With all 2N endpoints ranked once, the endpoints
    strictly between chord i's own two belong either to crossing chords
    (one each) or to chords nested inside chord i (two each): those later
    in lower-rank order with a smaller upper rank, counted in merge levels
    in O(N log^2 N) time and O(N) memory.  Chords that share an endpoint
    meet on the circle, not inside it; such ties have measure zero and the
    sort breaks them by chord index.
    """
    n = normals.shape[0]
    sp = normals[:, 0]
    theta = np.arctan2(normals[:, 2], normals[:, 1])
    # Roundoff can lift tanh(p) / tanh(rr) above 1 when p is next to rr.
    phi = np.arccos(np.minimum(sp / np.sqrt(1.0 + sp**2) / np.tanh(rr), 1.0))
    ends = np.stack([theta - phi, theta + phi], axis=1) % (2.0 * np.pi)
    ends.sort(axis=1)
    rank = np.empty(2 * n, dtype=np.int64)
    rank[np.argsort(ends.ravel(), kind="stable")] = np.arange(2 * n)
    lo, hi = rank[0::2], rank[1::2]
    order = np.argsort(lo)
    pos = np.arange(n)
    nested = np.zeros(n, dtype=np.int64)
    s = 1
    while s < n:
        # Each chord in the left half of a 2s-block counts the smaller upper
        # ranks in its right half.  Upper ranks are below 2**32, so keys sort
        # by block first; all blocks but the last hold s right-half keys.
        block = pos // (2 * s)
        key = (block << 32) + hi[order]
        left = (pos & s) == 0
        found = np.searchsorted(np.sort(key[~left]), key[left])
        nested[order[left]] += found - block[left] * s
        s *= 2
    return hi - lo - 1 - 2 * nested


def pair_intersection_density(
    K: float, R: float, N: int, rng: np.random.Generator | int
) -> tuple[float, float]:
    """Kinematic crossing measure of chord pairs per unit disk area.

    Estimates the probability that two independent kinematic chords cross
    inside the disk, scales by the squared total chord measure (the disk
    perimeter), and divides by the disk area.  The standard error uses the
    per-chord crossing counts (the U-statistic projection).
    """
    if N < MIN_CHORDS:
        raise ValueError(f"need at least {MIN_CHORDS} chords, got {N}")
    rng = np.random.default_rng(rng)
    rho, rr = _shape_params(K, R)
    normals = _sample_normals(rr, N, rng)
    counts = _pair_row_counts(normals, rr)
    p_hat = float(np.sum(counts)) / (N * (N - 1))
    ci = counts / (N - 1.0)
    p_err = 2.0 * float(np.std(ci, ddof=1)) / np.sqrt(N)
    scale = disk_perimeter(K, R) ** 2 / disk_area(K, R)
    return p_hat * scale, p_err * scale


# ---------------------------------------------------------------------------
# Triangle counting.
# ---------------------------------------------------------------------------


def _pair_flag_matrix(normals: np.ndarray, rr: float) -> tuple[np.ndarray, np.ndarray]:
    """(flags, |kappa|): which chord pairs cross inside the disk, and the
    cosine of each pair's folded crossing angle."""
    n = normals.shape[0]
    ch2 = np.cosh(rr) ** 2
    flags = np.zeros((n, n), dtype=bool)
    cos_angle = np.empty((n, n))
    for lo, hi in fixed_chunks(n, 2048):
        a = normals[lo:hi]
        kappa = a[:, 1:] @ normals[:, 1:].T - np.outer(a[:, 0], normals[:, 0])
        p0 = np.outer(a[:, 2], normals[:, 1]) - np.outer(a[:, 1], normals[:, 2])
        flags[lo:hi] = _crosses_inside(kappa, p0, ch2)
        cos_angle[lo:hi] = np.abs(kappa)
    np.fill_diagonal(flags, False)
    return flags, cos_angle


def exact_triangle_counts(normals: np.ndarray, rr: float, eps_values: np.ndarray) -> np.ndarray:
    """Per cutoff eps, the chord triples with three pairwise inside-crossings
    at angle >= eps.

    Exhaustive over all triples via the triangle count of the pairwise
    crossing graph, trace(A^3)/6; one crossing matrix serves every cutoff.
    """
    flags, cos_angle = _pair_flag_matrix(normals, rr)
    counts = []
    for eps in eps_values:
        a = (flags & (cos_angle <= np.cos(eps))).astype(np.float64)
        counts.append(int(round(float(np.sum(a * (a @ a))) / 6.0)))
    return np.array(counts)


def _triple_min_angles(
    normals: np.ndarray, rr: float, idx: np.ndarray, workers: int = 1
) -> tuple[np.ndarray, int]:
    """Minimum folded crossing angle of each triangle among the rows of idx,
    and the number of rows with three distinct chords.

    A triangle has its three pairwise intersections strictly inside the
    disk.  A repeated chord forms none, although a chord can pass the
    crossing predicate with itself (kappa rounds just below 1, p0 = 0).
    """
    ch2 = np.cosh(rr) ** 2
    cols = [np.ascontiguousarray(normals[:, k]) for k in range(3)]

    def crossing(a: list, b: list) -> tuple[np.ndarray, np.ndarray]:
        # The bracket adds as np.sum does over two elements, up to the sign
        # of a zero kappa, which enters only through |kappa| and kappa**2.
        kappa = (a[1] * b[1] + a[2] * b[2]) - a[0] * b[0]
        p0 = a[2] * b[1] - a[1] * b[2]
        return _crosses_inside(kappa, p0, ch2), kappa

    def one_chunk(bounds: tuple[int, int]) -> tuple[np.ndarray, int]:
        # numpy gathers through intp positions several times faster than
        # through the int32 draw or a boolean mask.
        i, j, k = idx[bounds[0]:bounds[1]].T.astype(np.intp, order="C")
        distinct = (i != j) & (i != k) & (j != k)
        a, b = [c[i] for c in cols], [c[j] for c in cols]
        ok, kappa = crossing(a, b)
        # Pair (0, 2) runs on the distinct rows that pass pair (0, 1), pair
        # (1, 2) on those that pass both; survivors are gathered once.
        keep = np.flatnonzero(ok & distinct)
        chord = [[x[keep] for x in a], [x[keep] for x in b], [c[k[keep]] for c in cols]]
        max_abs_kappa = np.abs(kappa[keep])
        for u, v in ((0, 2), (1, 2)):
            ok, kappa = crossing(chord[u], chord[v])
            keep = np.flatnonzero(ok)
            chord = [[x[keep] for x in comps] for comps in chord]
            max_abs_kappa = np.maximum(max_abs_kappa[keep], np.abs(kappa[keep]))
        return np.arccos(np.clip(max_abs_kappa, 0.0, 1.0)), int(np.count_nonzero(distinct))

    # Each value depends on its own triple alone, so the chunk size moves
    # no bit; a chunk of 65,536 triples peaks at about 7 MiB.
    parts = ordered_map(one_chunk, fixed_chunks(idx.shape[0], 65_536), workers)
    angles = np.concatenate([p[0] for p in parts]) if parts else np.empty(0)
    return angles, sum(p[1] for p in parts)


def _triple_counts(
    K: float,
    R: float,
    N: int,
    rng: np.random.Generator | int,
    eps_values: np.ndarray,
    n_triples: int,
    workers: int,
) -> tuple[np.ndarray, int]:
    """Triangle counts at each angle threshold, over one chord sample.

    Enumerates every triple when the total count fits the exact budget;
    otherwise subsamples at most MAX_TRIPLES triples.  Counts at the
    thresholds are nested by construction (one crossing matrix or one
    min-angle array, many cutoffs).
    """
    if N < MIN_CHORDS:
        raise ValueError(f"need at least {MIN_CHORDS} chords, got {N}")
    rng = np.random.default_rng(rng)
    rho, rr = _shape_params(K, R)
    normals = _sample_normals(rr, N, rng)
    n_all = N * (N - 1) * (N - 2) // 6
    if n_all <= EXACT_TRIPLE_BUDGET:
        return exact_triangle_counts(normals, rr, eps_values).astype(float), n_all
    if n_triples > MAX_TRIPLES:
        raise ValueError(f"at most {MAX_TRIPLES} sampled triples, got {n_triples}")
    # numpy draws ranges below 2**32 from one 32-bit stream, so the int32
    # draw equals the int64 one and leaves the generator in the same state.
    idx = rng.integers(0, N, size=(n_triples, 3), dtype=np.int32)
    min_ang, total = _triple_min_angles(normals, rr, idx, workers)
    return np.array([np.sum(min_ang >= e) for e in eps_values], dtype=float), total


# ---------------------------------------------------------------------------
# Scaling fits.
# ---------------------------------------------------------------------------

# Two-sided 95% quantiles of Student's t with 1..62 degrees of freedom, as
# scipy.special.stdtrit(df, 0.975) gives them; the closed form tan(0.475 pi)
# for df = 1 is one ulp off.
T_QUANTILES_95 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788,
)
# loglog_fit takes at most this many points, the most the table serves.
MAX_FIT_POINTS = len(T_QUANTILES_95) + 2


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit with a 95% confidence half-width on the slope
    (loglog_fit) or the intercept (epsilon_limit_scan, whose metadata holds
    the triangle counts and the triple total)."""

    x: np.ndarray
    y: np.ndarray
    slope: float
    intercept: float
    half_width: float
    metadata: dict


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Slope, intercept, and their standard errors for y = a + b x."""
    n = x.size
    A = np.stack([np.ones(n), x], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = max(n - 2, 1)
    s2 = float(np.sum(resid**2)) / dof
    cov = s2 * np.linalg.inv(A.T @ A)
    return float(coef[1]), float(coef[0]), float(np.sqrt(cov[1, 1])), float(np.sqrt(cov[0, 0]))


def loglog_fit(x: np.ndarray, y: np.ndarray) -> ScalingFit:
    """Power-law exponent fit of y against x on log-log axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not 2 <= x.size <= MAX_FIT_POINTS:
        raise ValueError(f"need 2 to {MAX_FIT_POINTS} points for a scaling fit, got {x.size}")
    if not (np.all(y > 0) and np.all(x > 0)):
        raise ExtrapolationUnstable("log-log fit requires positive values")
    slope, intercept, se_slope, _ = _linear_fit(np.log(x), np.log(y))
    tq = T_QUANTILES_95[max(x.size - 2, 1) - 1]
    return ScalingFit(x, y, slope, intercept, tq * se_slope, {})


def epsilon_limit_scan(
    K: float,
    R: float,
    N: int,
    eps_list: Sequence[float],
    rng: np.random.Generator | int,
    n_triples: int = 2_000_000,
    workers: int = 1,
) -> ScalingFit:
    """Triangle density (per squared disk area) against the angle cutoff.

    One chord sample and one triple sample feed every cutoff, so the counts
    are nested and monotone by construction.  The zero-cutoff limit is the
    intercept of a linear fit over the last three (smallest) cutoffs.
    """
    eps = np.asarray(list(eps_list), dtype=float)
    if eps.size < 4:
        raise ValueError(f"need at least 4 cutoffs to extrapolate, got {eps.size}")
    if np.any(np.diff(eps) >= 0):
        raise ValueError("cutoff list must be strictly decreasing")
    if np.any(eps <= 0) or np.any(eps >= 0.5 * np.pi):
        raise ValueError("cutoffs must lie in (0, pi/2)")
    # At extreme curvatures the scale over- or underflows; report that
    # rather than sample and fit the infinities and NaNs it would leave.
    with np.errstate(all="ignore"):
        scale = disk_perimeter(K, R) ** 3 / disk_area(K, R) ** 2
    if not np.isfinite(scale):
        raise ExtrapolationUnstable(f"non-finite density scale at curvature {K:.3g} and disk radius {R:.3g}")
    counts, total = _triple_counts(K, R, N, rng, eps, n_triples, workers)
    dens = counts / total * scale
    tail_x = eps[-3:]
    tail_y = dens[-3:]
    if np.any(np.diff(tail_y) < 0):
        raise ExtrapolationUnstable("density tail is not monotone in the cutoff")
    slope, intercept, _, se_int = _linear_fit(tail_x, tail_y)
    if not intercept > 0:
        raise ExtrapolationUnstable(f"non-positive extrapolated density {intercept}")
    tq = T_QUANTILES_95[0]
    return ScalingFit(
        eps, dens, slope, intercept, tq * se_int, {"counts": counts.tolist(), "total": total}
    )


# ---------------------------------------------------------------------------
# Parallelism angle.
# ---------------------------------------------------------------------------


def parallelism_ratio(K: float, R1: float) -> float:
    """Parallelism angle at a circle point over the circle perimeter.

    The reference geodesic is the diameter perpendicular to the radius
    through the point, at distance R1; by rotational symmetry the point's
    position on the radius-R1 circle is immaterial.
    """
    rho, rr = _shape_params(K, R1)
    if rr < 5.0 * (1.0 - 1e-12):
        raise ValueError(f"circle radius must reach 5 curvature units, got {rr:.3f}")
    angle = 2.0 * np.arctan(np.exp(-rr))
    return float(angle / disk_perimeter(K, R1))


def parallelism_angle_shooting(K: float, R1: float, x1: float) -> float:
    """Parallelism angle by bisection on geodesic rays (no closed form).

    Shoots rays from the circle point at angles off the inward perpendicular
    and bisects 80 times between hitting and missing the reference geodesic;
    a ray hits when the shot geodesic crosses it within 40 curvature units
    beyond the disk center.
    """
    rho, rr = _shape_params(K, R1)
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


# ---------------------------------------------------------------------------
# Quintuple estimator and the exponent fit.
# ---------------------------------------------------------------------------


def m5_quintuple_details(lines: Sequence[FieldLine], seed: int = 0) -> dict:
    """Triangle count and linking product for a quintuple of closed curves."""
    if len(lines) != 5:
        raise ValueError(f"need exactly 5 curves, got {len(lines)}")
    lk = build_linking_matrix(list(lines), seed=seed)
    product = 1
    for i in range(5):
        for j in range(i + 1, 5):
            product *= int(lk[i, j])
    polys = to_r3_polylines([ln.embedding for ln in lines], seed=seed)
    polys = [resample_polyline(p, 0.08) for p in polys]
    rng = substream(seed, 55)
    triangles = None
    for _ in range(10):
        d = rng.standard_normal(3)
        try:
            crossed = {}
            for i in range(5):
                for j in range(i + 1, 5):
                    crossed[(i, j)] = projected_crossings(polys[i], polys[j], d)[0].size > 0
            triangles = 0
            for i in range(5):
                for j in range(i + 1, 5):
                    for k in range(j + 1, 5):
                        if crossed[(i, j)] and crossed[(i, k)] and crossed[(j, k)]:
                            triangles += 1
            break
        except DegenerateProjection:
            continue
    if triangles is None:
        raise DegenerateProjection("no generic projection for the quintuple")
    return {
        "triangles": triangles,
        "linking_product": product,
        "estimate": float(triangles * product),
    }


def alpha_scaling(
    lambda_grid: Sequence[float],
    n_chords: int,
    r_rel: float,
    eps_list: Sequence[float],
    n_triples: int,
    workers: int,
    rng: np.random.Generator | int,
) -> ScalingFit:
    """Exponent of the zero-cutoff triangle density against the deformation.

    Runs the cutoff extrapolation at each grid value with the disk radius
    fixed at r_rel curvature units, then fits the extrapolates on log-log
    axes; the claimed exponent is ALPHA_EXPONENT.
    """
    grid = np.asarray(list(lambda_grid), dtype=float)
    if grid.size < 5:
        raise ValueError(f"need at least 5 grid values, got {grid.size}")
    if np.any(grid <= 0):
        raise ValueError("grid values must be positive")
    if grid.max() / grid.min() < 10.0 * (1.0 - 1e-9):
        raise ValueError("grid must span at least a decade")
    rng = np.random.default_rng(rng)
    child_seeds = rng.integers(0, 2**63 - 1, size=grid.size)
    intercepts = []
    for lam, child in zip(grid, child_seeds):
        K = lambda_to_curvature(lam)
        scan = epsilon_limit_scan(
            K, r_rel / np.sqrt(-K), n_chords, eps_list, int(child),
            n_triples=n_triples, workers=workers,
        )
        intercepts.append(scan.intercept)
    return loglog_fit(grid, np.asarray(intercepts))
