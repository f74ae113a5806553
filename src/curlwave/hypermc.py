"""Monte Carlo geometry of geodesic chords in the constant-curvature plane.

Chords of a disk in the curvature-K plane (K < 0) are drawn from the
kinematic measure and stored by their unit spacelike normals alone, in the
Minkowski hyperboloid model, where crossing angles are short closed forms.
Chords cross inside the disk when their endpoints interleave on its circle,
the one crossing predicate here; the hyperboloid-model test in
tests/oracles.py is its reference.  Densities are reported in physical units
of the curvature-K metric; the disk radius is measured in the same units.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import ExtrapolationUnstable
from .fieldlines import (
    FieldLine,
    build_linking_matrix,
    projected_crossings,
    resample_polyline,
    retry_projection,
    to_r3_polylines,
)
# ordered_map is unused here, but the benchmark tracer wraps hypermc.ordered_map.
from .seeds import fixed_chunks, ordered_map

KOLMOGOROV_FIELD = -5.0 / 3.0
KOLMOGOROV_FLOW = -7.0 / 6.0
BALANCE_MODE = "direct"
# The claimed exponent of the zero-cutoff triangle density in lambda.
ALPHA_EXPONENT = -1.0 / 3.0

MIN_CHORDS = 1000
# Both chord verbs fit the tail over the last cutoffs, which needs triangles
# below the smallest.  At 1,000 chords on the default disk, with 400 seeds per
# verb, 3 of 800 runs found none at 2,000 triples and none of 800 at 5,000 or
# 10,000.
MIN_TRIPLES = 10_000
# Caps the sampled triples.  The scan streams them in fixed chunks, so its
# memory does not grow with the count; the cap bounds time: 16M triples took
# 0.7 s per lambda at 20,000 chords and 2.3 s at MAX_CHORDS on 2 vCPUs.
MAX_TRIPLES = 16_000_000
# Caps the chord sample: pair_intersection_density peaks at about 200 bytes
# per chord, so under about 1 GiB.
MAX_CHORDS = 5_000_000


def lambda_to_curvature(lam: float) -> float:
    """Horizontal-plane sectional curvature of the deformed frame, -lam^(-2/3), for lam > 0."""
    return -float(lam) ** (-2.0 / 3.0)


def _shape_params(K: float, R: float) -> tuple[float, float]:
    """Length scale rho = 1/sqrt(-K) and the disk radius in curvature units, for K < 0."""
    rho = 1.0 / np.sqrt(-K)
    return float(rho), float(R / rho)


def disk_perimeter(K: float, R: float) -> float:
    rho, rr = _shape_params(K, R)
    return 2.0 * np.pi * rho * np.sinh(rr)


def disk_area(K: float, R: float) -> float:
    rho, rr = _shape_params(K, R)
    return 2.0 * np.pi * rho**2 * (np.cosh(rr) - 1.0)


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


# ---------------------------------------------------------------------------
# Pairwise crossing density.
# ---------------------------------------------------------------------------


def _endpoint_ranks(normals: np.ndarray, rr: float) -> tuple[np.ndarray, np.ndarray]:
    """Ranks (lo, hi) of each chord's two endpoints among all 2N on the
    boundary circle, lower angle in [0, 2 pi) first.

    A disk is convex, so two of its chords cross inside it exactly when
    their endpoints interleave on the boundary circle.  Chord i's endpoints
    sit at angles theta +/- phi with cos(phi) = tanh(p) / tanh(rr) (right
    triangle at the foot).  Chords that share an endpoint meet on the
    circle, not inside it; such ties have measure zero and the sort breaks
    them by chord index, so the 2N ranks are distinct.
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
    return rank[0::2], rank[1::2]


def _pair_row_counts(normals: np.ndarray, rr: float) -> np.ndarray:
    """Per-chord counts of partners crossed strictly inside the disk.

    With the endpoints ranked by _endpoint_ranks, the endpoints strictly
    between chord i's own two belong either to crossing chords (one each)
    or to chords nested inside chord i (two each): those later in
    lower-rank order with a smaller upper rank, counted in merge levels in
    O(N log^2 N) time and O(N) memory.
    """
    n = normals.shape[0]
    lo, hi = _endpoint_ranks(normals, rr)
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


def _triple_min_angles(normals: np.ndarray, ranks: tuple, idx: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum folded crossing angle of each triangle among the rows of idx,
    and the number of rows with three distinct chords.

    A triangle has its three pairwise intersections strictly inside the
    disk: the endpoint ranks (lo, hi) of each pair interleave.  No chord
    interleaves with itself, so a repeated chord forms none.  The folded
    crossing angle of two chords has cosine |kappa|, kappa the Minkowski
    product of their unit normals.  Each value depends on its own row alone.
    """
    lo, hi = ranks
    pairs = ((0, 1), (0, 2), (1, 2))
    # numpy gathers through intp positions several times faster than
    # through the int32 draw or a boolean mask.
    rows = idx.T.astype(np.intp, order="C")
    i, j, k = rows
    distinct = int(np.count_nonzero((i != j) & (i != k) & (j != k)))
    # Pair (0, 2) runs on the rows that pass pair (0, 1), pair (1, 2) on
    # those that pass both: exactly one end of chord v lies between u's.
    for u, v in pairs:
        lu, hu, lv, hv = lo[rows[u]], hi[rows[u]], lo[rows[v]], hi[rows[v]]
        rows = rows[:, np.flatnonzero(((lu < lv) & (lv < hu)) != ((lu < hv) & (hv < hu)))]
    chords = normals[rows]
    max_abs_kappa = np.zeros(rows.shape[1])
    for u, v in pairs:
        a, b = chords[u], chords[v]
        # The bracket adds as np.sum does over two elements, up to the sign
        # of a zero kappa, which |kappa| drops.
        kappa = (a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]) - a[:, 0] * b[:, 0]
        max_abs_kappa = np.maximum(max_abs_kappa, np.abs(kappa))
    return np.arccos(np.clip(max_abs_kappa, 0.0, 1.0)), distinct


def _triple_counts(
    K: float,
    R: float,
    N: int,
    rng: np.random.Generator | int,
    eps_values: np.ndarray,
    n_triples: int,
) -> tuple[np.ndarray, int]:
    """Triangle counts at each angle threshold, over one chord sample and
    n_triples triples drawn with replacement, and the number of drawn
    triples with three distinct chords.

    One streamed scan of endpoint interleaving serves every chord count; the
    exhaustive count trace(A^3)/6 over the hyperboloid-model crossing matrix
    is its reference in tests/oracles.py.  Counts at the thresholds are
    nested by construction: every cutoff counts the same triangles.
    """
    rng = np.random.default_rng(rng)
    rho, rr = _shape_params(K, R)
    normals = _sample_normals(rr, N, rng)
    ranks = _endpoint_ranks(normals, rr)
    counts = np.zeros(len(eps_values), dtype=np.int64)
    total = 0
    # numpy draws ranges below 2**32 from one 32-bit stream whose spare half
    # word lives in the generator state, so consecutive int32 chunk draws
    # give the values of one int64 draw and leave the same state.  A chunk
    # of 8,192 rows scans in 0.5 MiB of temporaries.  Chunks of 16,384 rows
    # measured slower, as the allocator returned and re-faulted their pages,
    # and chunks of 4,096 slower again from per-call overhead.
    for lo, hi in fixed_chunks(n_triples, 8192):
        idx = rng.integers(0, N, size=(hi - lo, 3), dtype=np.int32)
        min_ang, distinct = _triple_min_angles(normals, ranks, idx)
        counts += np.count_nonzero(min_ang[:, None] >= eps_values, axis=0)
        total += distinct
    return counts.astype(float), total


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
    """Power-law exponent fit of float array y against x (2 to MAX_FIT_POINTS points) on log-log axes."""
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
) -> ScalingFit:
    """Triangle density (per squared disk area) against the angle cutoff.

    The zero-cutoff limit is the intercept of a linear fit over the last
    three (smallest) of strictly decreasing cutoffs in (0, pi/2).  Only those
    three are counted, and the fit's x, y and counts hold them alone: a
    cutoff costs a column in every chunk of the triple scan.  One chord
    sample and one triple sample feed all three, so the counts are nested
    and monotone by construction.
    """
    tail = np.asarray(list(eps_list), dtype=float)[-3:]
    scale = disk_perimeter(K, R) ** 3 / disk_area(K, R) ** 2
    counts, total = _triple_counts(K, R, N, rng, tail, n_triples)
    dens = counts / total * scale
    if np.any(np.diff(dens) < 0):
        raise ExtrapolationUnstable("density tail is not monotone in the cutoff")
    slope, intercept, _, se_int = _linear_fit(tail, dens)
    if not intercept > 0:
        raise ExtrapolationUnstable(f"non-positive extrapolated density {intercept}")
    tq = T_QUANTILES_95[0]
    return ScalingFit(
        tail, dens, slope, intercept, tq * se_int, {"counts": counts.tolist(), "total": total}
    )


# ---------------------------------------------------------------------------
# Parallelism angle.
# ---------------------------------------------------------------------------


def parallelism_ratio(K: float, R1: float) -> float:
    """Parallelism angle at a circle point over the circle perimeter.

    The reference geodesic is the diameter perpendicular to the radius
    through the point, at distance R1 of at least 5 curvature units; by
    rotational symmetry the point's position on the radius-R1 circle is
    immaterial.
    """
    rho, rr = _shape_params(K, R1)
    angle = 2.0 * np.arctan(np.exp(-rr))
    return float(angle / disk_perimeter(K, R1))


# ---------------------------------------------------------------------------
# Quintuple estimator and the exponent fit.
# ---------------------------------------------------------------------------


def m5_quintuple_details(lines: Sequence[FieldLine], seed: int = 0) -> dict:
    """Triangle count and linking product for five closed curves."""
    lk = build_linking_matrix(list(lines), seed=seed)
    product = 1
    for i, j in combinations(range(5), 2):
        product *= int(lk[i, j])
    polys = to_r3_polylines([ln.embedding for ln in lines], seed=seed)
    polys = [resample_polyline(p, 0.08) for p in polys]

    def count_triangles(d: np.ndarray) -> int:
        crossed = {
            (i, j): projected_crossings(polys[i], polys[j], d)[0].size > 0
            for i, j in combinations(range(5), 2)
        }
        triples = combinations(range(5), 3)
        return sum(crossed[i, j] and crossed[i, k] and crossed[j, k] for i, j, k in triples)

    triangles = retry_projection(count_triangles, seed, 55)
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
    rng: np.random.Generator | int,
) -> ScalingFit:
    """Exponent of the zero-cutoff triangle density against the deformation.

    Runs the cutoff extrapolation at each grid value with the disk radius
    fixed at r_rel curvature units, then fits the extrapolates on log-log
    axes; the claimed exponent is ALPHA_EXPONENT.  ExperimentConfig.validate
    refuses a grid the fit cannot take or a value whose density scale leaves
    the normal doubles.
    """
    grid = np.asarray(list(lambda_grid), dtype=float)
    rng = np.random.default_rng(rng)
    child_seeds = rng.integers(0, 2**63 - 1, size=grid.size)
    intercepts = []
    for lam, child in zip(grid, child_seeds):
        K = lambda_to_curvature(lam)
        scan = epsilon_limit_scan(
            K, r_rel / np.sqrt(-K), n_chords, eps_list, int(child), n_triples=n_triples
        )
        intercepts.append(scan.intercept)
    return loglog_fit(grid, np.asarray(intercepts))
