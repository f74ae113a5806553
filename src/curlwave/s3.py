"""Frame fields on round 3-spheres and their gauge-theoretic checks.

The sphere of radius R sits in quaternion space; left fields are x -> x*q and
right fields are x -> q*x for the imaginary units q.  All differential
operators run in a two-chart stereographic atlas where the round metric is
conformally flat, so curls reduce to flat curls of rescaled components.
Derivatives use complex-step evaluation, which is exact to roundoff because
the whole pipeline is rational in the chart coordinate.

Arrays are component first, as in quaternions: embedded points and
quaternion values are (4, n), chart points and chart vectors are (3, n), so
each component is one contiguous row.  Leg fields map (4, n) points to (4, n)
tangent vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from .frames import LieFrameSpec, su2_right, su2_unit
from .quaternions import IMAG_UNITS, haar_sample, qconj, qmul
# ordered_map is unused here, but the benchmark tracer wraps s3.ordered_map.
from .seeds import fixed_chunks, ordered_map, substream

VOL_UNIT_SPHERE = 2.0 * np.pi**2

# Trace normalization relative to the 2x2 complex representation of the unit
# quaternions: tr(p) := -2 * (2 Re p) = -4 Re p, so the half-unit generators
# q_l / 2 come out orthonormal under (p, q) -> tr(p q).
TRACE_NORMALIZATION = -2.0

COMPLEX_STEP = 1e-20

# Caps ym_residual's sample.  Its temporaries span one block of 4,096 points
# (a 3.4 MiB peak for a one-block sample); the sample and its chart copies add
# about 143 bytes per point (a tracemalloc peak of 8.2 MiB at 60,000 points),
# so the peak stays near 275 MiB at the cap.
MAX_CURL_POINTS = 2_000_000


def trace_pair(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Normalized trace form of a product of two algebra values."""
    return -4.0 * qmul(p, q)[0]


# ---------------------------------------------------------------------------
# Stereographic atlas.  Chart 0 projects from the pole -1, chart 1 from +1
# with the third coordinate negated so both charts induce the same
# orientation.  Points are assigned to the chart whose pole is far away.
# ---------------------------------------------------------------------------


def chart_of(x: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Chart index per point: 0 unless the point is close to the -1 pole."""
    x = np.asarray(x)
    return np.where(np.real(x[0]) > -0.6 * radius, 0, 1).astype(int)


def _reflect(u: np.ndarray) -> np.ndarray:
    out = u.copy()
    out[2] = -out[2]
    return out


def chart_point(x: np.ndarray, chart: int, radius: float = 1.0) -> np.ndarray:
    """Chart coordinates (3, ...) of embedded points (4, ...), complex-step safe."""
    y = np.asarray(x) / radius
    if chart == 0:
        u = y[1:] / (1.0 + y[0])
    else:
        u = _reflect(y[1:] / (1.0 - y[0]))
    return radius * u


def chart_embed(u: np.ndarray, chart: int, radius: float = 1.0) -> np.ndarray:
    """Embedded points (4, ...) for chart coordinates (3, ...), complex-step safe."""
    w = np.asarray(u) / radius
    if chart == 1:
        w = _reflect(w)
    s = np.sum(w * w, axis=0)
    first = (1.0 - s) / (1.0 + s)
    if chart == 1:
        first = -first
    rest = 2.0 * w / (1.0 + s)
    return radius * np.concatenate([first[None], rest])


def chart_push(x: np.ndarray, xi: np.ndarray, chart: int, radius: float = 1.0) -> np.ndarray:
    """Differential of the chart map applied to a tangent vector xi (4, ...) at x (4, ...)."""
    y = np.asarray(x) / radius
    eta = np.asarray(xi)
    y0 = y[0]
    e0 = eta[0]
    if chart == 0:
        den = (1.0 + y0) ** 2
        return (eta[1:] * (1.0 + y0) - y[1:] * e0) / den
    den = (1.0 - y0) ** 2
    return _reflect((eta[1:] * (1.0 - y0) + y[1:] * e0) / den)


def conformal_factor(u: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Round-metric conformal factor in either chart, complex-step safe."""
    u = np.asarray(u)
    r2 = radius * radius
    return 2.0 * r2 / (r2 + np.sum(u * u, axis=0))


# ---------------------------------------------------------------------------
# Frames.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class S3Frame:
    """Translation frame on a radius-R sphere.

    side is "left" (x -> amp * x*q) or "right" (x -> amp * q*x); spec is the
    matching algebraic description (constants + leg metric).
    """

    side: str
    spec: LieFrameSpec
    radius: float = 1.0
    amp: float = 1.0

    def __post_init__(self) -> None:
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    def leg(self, l: int) -> Callable[[np.ndarray], np.ndarray]:
        """Leg l in {1, 2, 3} as a callable field on ambient points."""
        if l not in (1, 2, 3):
            raise ValueError(f"leg index must be 1, 2 or 3, got {l}")
        q = IMAG_UNITS[l - 1]
        if self.side == "left":
            return lambda x: self.amp * qmul(x, q)
        return lambda x: self.amp * qmul(q, x)

    def legs(self) -> tuple[Callable[[np.ndarray], np.ndarray], ...]:
        return tuple(self.leg(l) for l in (1, 2, 3))


def build_frame(side: str) -> S3Frame:
    """Unit-sphere frame with the matching algebraic spec."""
    if side == "left":
        return S3Frame("left", su2_unit(), 1.0, 1.0)
    if side == "right":
        return S3Frame("right", su2_right(), 1.0, 1.0)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def nu_of(field: Callable, radius: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Algebra-valued profile (4, n) of a tangent field under left trivialization.

    nu(xi)(x) = conj(x) * xi(x) / (2 R); constant q_l/2 on unit left legs.
    """
    return lambda x: qmul(qconj(np.asarray(x)), field(x)) / (2.0 * radius)


def _bracket_values(x: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Gauge bracket at unit-sphere points x of two fields with profiles pa, pb.

    The algebra commutator of the profiles, mapped back to a tangent field.
    """
    return 2.0 * qmul(x, qmul(pa, pb) - qmul(pb, pa))


# ---------------------------------------------------------------------------
# Chart derivatives.
# ---------------------------------------------------------------------------


def field_in_chart(field: Callable, u: np.ndarray, chart: int, radius: float = 1.0) -> np.ndarray:
    """Chart components (3, n) of an ambient field at chart points u (3, n)."""
    x = chart_embed(u, chart, radius)
    return chart_push(x, field(x), chart, radius)


def curl_in_chart(field: Callable, u: np.ndarray, chart: int, radius: float = 1.0) -> np.ndarray:
    """Chart components of the round-metric curl at chart points u.

    Uses rot_g V = rot_flat(Omega^2 V) / Omega^3, valid in each conformal,
    positively oriented chart, with complex-step partial derivatives.
    """

    def weighted(uu: np.ndarray) -> np.ndarray:
        return conformal_factor(uu, radius) ** 2 * field_in_chart(field, uu, chart, radius)

    grads = []
    for j in range(3):
        up = u.astype(complex)
        up[j] += 1j * COMPLEX_STEP
        grads.append(np.imag(weighted(up)) / COMPLEX_STEP)
    return _rot_flat(grads) / conformal_factor(u, radius) ** 3


def _rot_flat(grads: Sequence[np.ndarray]) -> np.ndarray:
    """Flat curl (3, n) from the three partial derivatives (3, n) of a chart field."""
    return np.stack(
        [
            grads[1][2] - grads[2][1],
            grads[2][0] - grads[0][2],
            grads[0][1] - grads[1][0],
        ]
    )


def group_by_chart(x: np.ndarray, radius: float) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """[(chart, index_array, chart_points)] for embedded points x (4, n).

    Each point goes to the chart chart_of assigns it; chart_points is (3, m).
    """
    x = np.asarray(x, dtype=float)
    charts = chart_of(x, radius)
    groups = []
    for ch in (0, 1):
        idx = np.nonzero(charts == ch)[0]
        if idx.size:
            groups.append((ch, idx, chart_point(x[:, idx], ch, radius)))
    return groups


def curl_field(
    field: Callable, x: np.ndarray, radius: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Curl of an ambient field at embedded points x (4, n).

    Returns (u, field_chart, curl_chart), each (3, n); components live in
    the per-point chart, so compare like against like.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    u_all = np.empty((3, n))
    v_all = np.empty((3, n))
    c_all = np.empty((3, n))
    for ch, idx, u in group_by_chart(x, radius):
        u_all[:, idx] = u
        v_all[:, idx] = np.real(field_in_chart(field, u, ch, radius))
        c_all[:, idx] = curl_in_chart(field, u, ch, radius)
    return u_all, v_all, c_all


def chart_inner(u: np.ndarray, a: np.ndarray, b: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Round-metric inner product of chart components (3, n)."""
    return conformal_factor(u, radius) ** 2 * np.sum(a * b, axis=0)


def helicity_density(field_a: Callable, field_b: Callable, x: np.ndarray) -> np.ndarray:
    """Pointwise round-metric inner product <A, B> at embedded points (4, n) of the unit sphere."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[1])
    for ch, idx, u in group_by_chart(x, 1.0):
        a = np.real(field_in_chart(field_a, u, ch))
        b = np.real(field_in_chart(field_b, u, ch))
        out[idx] = chart_inner(u, a, b)
    return out


# ---------------------------------------------------------------------------
# Yang-Mills residual.
# ---------------------------------------------------------------------------


def ym_residual(frame: S3Frame, n_points: int = 1000, seed: int = 0) -> float:
    """Max pointwise norm of the Yang-Mills residual over random points.

    Per leg l with partners i, j: rot [A_i, A_j] + [A_i, [A_l, A_i]]
    + [A_j, [A_l, A_j]], all brackets in the gauge sense.  Vanishes for the
    left frame, stays order one for the right frame.  Each chart's points run
    in blocks of 4,096 held as C-contiguous (3, 4096) planes, and each block
    embeds its points and builds the leg profiles once for all three legs;
    every point's value is the same float at any block size or loop order,
    and a max is exact.
    """
    if frame.radius != 1.0:
        raise ValueError("residual check is defined on the unit sphere")
    groups = group_by_chart(haar_sample(substream(seed, 0), n_points).T, frame.radius)
    legs = frame.legs()
    partners = [((l + 1) % 3, (l + 2) % 3) for l in range(3)]

    def profiles(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        # conj(x) and the leg profiles nu_k = conj(x) * A_k(x) / 2 (see nu_of)
        xc = qconj(x)
        return xc, [qmul(xc, leg(x)) / 2.0 for leg in legs]

    worst = 0.0
    for ch, _, u_chart in groups:
        for lo, hi in fixed_chunks(u_chart.shape[1], 4096):
            u = np.ascontiguousarray(u_chart[:, lo:hi])
            # grads[l][d]: complex-step partial along d of Omega^2 [A_i, A_j]
            grads = [[], [], []]
            for d in range(3):
                up = u.astype(complex)
                up[d] += 1j * COMPLEX_STEP
                x = chart_embed(up, ch)
                _, nu = profiles(x)
                weight = conformal_factor(up) ** 2
                for l, (i, j) in enumerate(partners):
                    pair = chart_push(x, _bracket_values(x, nu[i], nu[j]), ch)
                    grads[l].append(np.imag(weight * pair) / COMPLEX_STEP)
            x = chart_embed(u, ch)
            xc, nu = profiles(x)
            cube = conformal_factor(u) ** 3
            for l, (i, j) in enumerate(partners):
                res = _rot_flat(grads[l]) / cube
                for k in (i, j):
                    inner = qmul(xc, _bracket_values(x, nu[l], nu[k])) / 2.0
                    res = res + np.real(chart_push(x, _bracket_values(x, nu[k], inner), ch))
                norms = np.sqrt(chart_inner(u, res, res))
                worst = max(worst, float(np.max(norms)))
    return worst


# ---------------------------------------------------------------------------
# Chern-Simons densities and functional.
# ---------------------------------------------------------------------------


def wedge_density_values(nu_values: np.ndarray, spec: LieFrameSpec) -> np.ndarray:
    """Cubic wedge density from the three algebra values on the frame legs.

    Evaluates the alternating triple product under the normalized trace and
    divides by the frame volume, i.e. the density against the orthonormal
    coframe.  nu_values has shape (3, 4, n).
    """
    acc = np.zeros(nu_values.shape[2])
    for perm in permutations(range(3)):
        sgn = _perm_sign(perm)
        pair = qmul(nu_values[perm[0]], nu_values[perm[1]])
        acc = acc + sgn * trace_pair(pair, nu_values[perm[2]])
    vol = float(np.sqrt(np.prod(spec.g)))
    return float(spec.orientation) * acc / vol


def _perm_sign(perm: Sequence[int]) -> float:
    sgn = 1.0
    for a in range(3):
        for b in range(a + 1, 3):
            if perm[a] > perm[b]:
                sgn = -sgn
    return sgn


def cs_densities(frame: S3Frame, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise helicity-term and wedge-term densities at embedded points x (4, n)."""
    x = np.asarray(x, dtype=float)
    legs = frame.legs()
    dens1 = np.zeros(x.shape[1])
    for leg in legs:
        u, v, c = curl_field(leg, x, frame.radius)
        dens1 = dens1 + chart_inner(u, v, c, frame.radius)
    nu_vals = np.stack([nu_of(leg, frame.radius)(x) for leg in legs], axis=0)
    dens2 = wedge_density_values(nu_vals, frame.spec)
    return dens1, dens2


def cs_functional(frame: S3Frame, n_quad: int, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo values of the two Chern-Simons terms over the sphere.

    Returns (helicity term, wedge term), each density mean times the sphere
    volume.  Chunk i of 8192 points comes from substream(seed, i).
    """
    if n_quad < 1000:
        raise ValueError(f"need at least 1000 quadrature points, got {n_quad}")
    vol = VOL_UNIT_SPHERE * frame.radius**3
    s1 = s2 = 0.0
    for i, (lo, hi) in enumerate(fixed_chunks(n_quad, 8192)):
        x = frame.radius * haar_sample(substream(seed, i), hi - lo).T
        d1, d2 = cs_densities(frame, x)
        s1 += float(np.sum(d1))
        s2 += float(np.sum(d2))
    return s1 / n_quad * vol, s2 / n_quad * vol
