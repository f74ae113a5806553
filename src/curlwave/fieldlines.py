"""Field-line tracing, curve closure, and linking numbers on the 3-sphere.

Curves live on the unit sphere in quaternion space and are stored by their
embedded points only.  Integration runs in the embedding with per-step
renormalization.  Linking numbers come from two independent routes: a
per-segment-pair solid-angle quadrature (exact for polylines) and a
signed-crossing count on a generic projection.  Curve separations and
diameters are numpy scans in bounded blocks that sum each squared distance in
component order, so they return the floats of a k-d tree query and of cdist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ChartEscape,
    ClosureFailures,
    CurlwaveError,
    CurvesTooClose,
    DegenerateProjection,
)
from .quaternions import IMAG_UNITS, haar_sample, qmul, slerp
from .s3 import (
    VOL_UNIT_SPHERE,
    chart_embed,
    chart_point,
    curl_field,
    helicity_density,
)
from .seeds import fixed_chunks, ordered_map, substream

MAX_STEP = 1e-2
CLOSURE_TOL = 1e-6
# A linking quadrature farther than this from an integer is refused.
INTEGER_TOL = 1e-3
MIN_SEPARATION = 1e-4
MAX_RESAMPLE_POINTS = 2400
# Distance scans go in blocks of at most _BLOCK distances or box pairs, 512
# KiB for each component; blocks of 2**19 took up to twice as long.  The
# separation query boxes runs of _LEAF consecutive points.
_BLOCK = 2**16
_LEAF = 16
# Memory caps, each keeping its stage under about 1 GiB: helicity_integral
# peaks at about 230 bytes per quadrature point, and asymptotic_hopf at about
# 52 bytes per stored trace state (see trace_states), 32 of them the path.
MAX_QUAD_POINTS = 4_000_000
MAX_TRACE_STATES = 16_000_000


# ---------------------------------------------------------------------------
# Field lines.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldLine:
    """Polyline on the unit sphere.

    embedding holds the 4-space positions as rows of finite floats, which
    trace_batch checks for traced lines; a line is closed when its first and
    last points coincide to the closure tolerance, as gap() measures.
    """

    embedding: np.ndarray

    def gap(self) -> float:
        return float(np.linalg.norm(self.embedding[-1] - self.embedding[0]))

    def diameter(self) -> float:
        """Largest distance between two points."""
        return _max_distance(self.embedding, self.embedding)


def _squares_sum(d: np.ndarray) -> np.ndarray:
    """Sum over the first axis of d squared, added in component order,
    ((d0² + d1²) + d2²) + d3², as a k-d tree query and cdist add; d is
    squared and summed in place."""
    d *= d
    for x in d[1:]:
        d[0] += x
    return d[0]


def _max_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance from a row of a to a row of b, in row blocks of at
    most _BLOCK distances whatever the number of points."""
    a, b = a.T, np.ascontiguousarray(b.T)
    rows = max(1, _BLOCK // b.shape[1])
    best = max(
        float(_squares_sum(a[:, lo:hi, None] - b[:, None, :]).max())
        for lo, hi in fixed_chunks(a.shape[1], rows)
    )
    return float(np.sqrt(best))


def _rk4_step(field: Callable, y: np.ndarray, h: float) -> np.ndarray:
    k1 = field(y)
    k2 = field(y + 0.5 * h * k1)
    k3 = field(y + 0.5 * h * k2)
    k4 = field(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def trace_batch(field: Callable, x0s: np.ndarray, T: float, h: float = 0.01) -> np.ndarray:
    """Fixed-step 4th-order trace of many starting points for time T.

    x0s holds the starts as rows, shape (n, 4), and field maps (4, n) points
    to (4, n) vectors.  Returns paths of shape (n, steps+1, 4), each state
    renormalized to the sphere after every step; T > 0 and 0 < h <= MAX_STEP.
    """
    y = np.atleast_2d(np.asarray(x0s, dtype=float)).T
    y = y / np.linalg.norm(y, axis=0)
    n_steps = int(np.ceil(T / h))
    paths = np.empty((y.shape[1], n_steps + 1, 4))
    paths[:, 0] = y.T
    for k in range(n_steps):
        y = _rk4_step(field, y, h)
        # np.linalg.norm(y, axis=0)'s arithmetic, without its Python wrapper.
        y = y / np.sqrt(np.add.reduce(y * y, axis=0))
        paths[:, k + 1] = y.T
    if not np.isfinite(paths).all():
        raise ChartEscape("batch trace left both charts")
    return paths


def trace_states(n_lines: int, T: float, h: float) -> float:
    """Number of 4-vectors trace_batch stores for n_lines starts, time T, step h."""
    return n_lines * (np.ceil(T / h) + 1)


def close_curve(line: FieldLine) -> FieldLine:
    """Close a line by the great-circle arc from its last point to its first.

    The arc is at most pi long, a closing path of bounded length as the
    asymptotic linking number needs.  Its points take the median point
    spacing of the line, but never more of them than the line has.
    """
    gap = line.gap()
    xs = line.embedding
    if gap <= 1e-12:
        arc = xs[:1]
    else:
        steps = np.linalg.norm(np.diff(xs, axis=0), axis=1)
        # np.median's float, without the numpy.ma import it triggers.
        mid = [(steps.size - 1) // 2, steps.size // 2]
        spacing = float(np.partition(steps, mid)[mid].sum() / 2.0)
        n_arc = min(len(xs), int(np.ceil(gap / max(spacing, 1e-12))))
        t = np.linspace(0.0, 1.0, n_arc + 1)[1:]
        arc = slerp(xs[-1], xs[0], t)
    return FieldLine(np.concatenate([xs, arc], axis=0))


# ---------------------------------------------------------------------------
# Mapping closed sphere curves to generic 3-space polylines.
# ---------------------------------------------------------------------------


def to_r3_polylines(curves: Sequence[np.ndarray], seed: int = 0) -> list[np.ndarray]:
    """Map unit-sphere closed polylines through a common rotation and chart 0.

    The rotation x -> a x b is chosen so every point stays far from the
    chart-0 pole; rotations preserve orientation and hence all linking
    numbers, and a single chart keeps the polylines honest in 3-space.  The
    identity goes first; only when it fails are the other candidates, 60
    Haar pairs (a, b), drawn from substream(seed, 31).
    """
    columns = [np.ascontiguousarray(np.transpose(c), dtype=float) for c in curves]

    def rotations():
        yield columns
        pairs = haar_sample(substream(seed, 31), 120)
        for a, b in zip(pairs[0::2], pairs[1::2]):
            yield [qmul(qmul(a, c), b) for c in columns]

    for rotated in rotations():
        margin = min(float(np.min(1.0 + c[0])) for c in rotated)
        if margin > 0.15:
            return [np.ascontiguousarray(chart_point(c, 0, 1.0).T) for c in rotated]
    raise DegenerateProjection("no rotation kept the curves away from the chart pole")


def _min_distance(p: np.ndarray, q: np.ndarray, bound: float) -> float:
    """Smallest distance from a point of p to q when it is below bound, else inf.

    Each curve is cut into runs of _LEAF consecutive points, which stay
    close on a traced curve, the last run padded with the last point.  The
    box gaps of all run pairs go in row blocks of about _BLOCK pairs; a pair
    whose boxes lie at least the best distance so far apart, or at least
    bound apart before one is found, is dropped, and the _LEAF**2 distances
    of the others go _BLOCK // _LEAF**2 pairs at a time.  Squared distances
    are summed in component order and kept below bound**2, as a k-d tree
    query does, so the float is the query's.  Rounding is monotone, so a box
    gap squared the same way never exceeds the squared distance of a point
    pair from its boxes.
    """
    runs = []
    for x in (p, q):
        n = -(-len(x) // _LEAF) * _LEAF
        pts = np.take(x.T, np.arange(n), axis=1, mode="clip").reshape(-1, n // _LEAF, _LEAF)
        runs.append((pts, pts.min(axis=2), pts.max(axis=2)))
    (xp, lo_p, hi_p), (xq, lo_q, hi_q) = runs
    bound2 = best = bound * bound
    for a, b in fixed_chunks(lo_p.shape[1], max(1, _BLOCK // lo_q.shape[1])):
        gap = lo_q[:, None] - hi_p[:, a:b, None]
        np.maximum(gap, lo_p[:, a:b, None] - hi_q[:, None], out=gap)
        i, j = np.nonzero(_squares_sum(np.maximum(gap, 0.0, out=gap)) < best)
        for c, d in fixed_chunks(len(i), _BLOCK // _LEAF**2):
            d2 = _squares_sum(xp[:, a + i[c:d], :, None] - xq[:, j[c:d], None, :])
            best = min(best, float(d2.min()))
    return float(np.sqrt(best)) if best < bound2 else np.inf


def resample_polyline(points: np.ndarray, target_seg: float) -> np.ndarray:
    """Uniform arc-length resampling of a closed polyline (last == first)."""
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    total = float(np.sum(seg))
    if total == 0.0:
        return points[:1].repeat(2, axis=0)
    m = int(np.clip(np.ceil(total / target_seg), 16, MAX_RESAMPLE_POINTS))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    grid = np.linspace(0.0, total, m + 1)
    out = np.stack([np.interp(grid, s, points[:, k]) for k in range(points.shape[1])], axis=1)
    out[-1] = out[0]
    return out


def _prepare_pair(c1: FieldLine, c2: FieldLine, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Common preprocessing for both linking routes.

    Checks closure and separation, maps both curves through one generic
    rotation into chart 0, and resamples to a separation-aware density.
    """
    for c in (c1, c2):
        if c.gap() > CLOSURE_TOL * 10.0:
            raise ValueError(f"linking requires closed curves, got endpoint gap {c.gap():.3g}")
    sep = _min_distance(c1.embedding, c2.embedding, MIN_SEPARATION)
    if sep < MIN_SEPARATION:
        raise CurvesTooClose(f"minimum curve separation {sep:.3g} below {MIN_SEPARATION}")
    p1, p2 = to_r3_polylines([c1.embedding, c2.embedding], seed=seed)
    # 3.0 * 0.08 is 0.24 exactly, and sep3 / 3.0 < 0.08 exactly when
    # sep3 < 0.24: a separation at or past the bound leaves the target 0.08.
    sep3 = _min_distance(p1, p2, 3.0 * 0.08)
    target = min(0.08, sep3 / 3.0)
    return resample_polyline(p1, target), resample_polyline(p2, target)


# ---------------------------------------------------------------------------
# Gauss linking via per-segment-pair solid angles.
# ---------------------------------------------------------------------------


def _cross(a: list, b: list) -> list:
    """Components of a x b in np.cross's operand order; swapping a and b negates each exactly."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    tmp = a2 * b1
    c0 = a1 * b2
    c0 -= tmp
    c1 = a2 * b0
    c1 -= np.multiply(a0, b2, out=tmp)
    c2 = a0 * b1
    c2 -= np.multiply(a1, b0, out=tmp)
    return [c0, c1, c2]


def _dot(u: list, v: list, out: np.ndarray) -> np.ndarray:
    """(u0 v0 + u1 v1) + u2 v2 into out, the order of np.sum over a last axis of 3."""
    np.multiply(u[0], v[0], out=out)
    out += u[1] * v[1]
    out += u[2] * v[2]
    return out


def _unit_cross(a: list, b: list) -> list:
    """Components of a x b divided by its norm, or by 1 where the norm is below 1e-300."""
    c = _cross(a, b)
    norm = np.sqrt(_dot(c, c, np.empty_like(c[0])))
    norm[norm < 1e-300] = 1.0
    for x in c:
        x /= norm
    return c


def _signed_solid_angles(p: np.ndarray, q: list, dq: list, out: np.ndarray) -> None:
    """Signed solid angles of segments p[i]p[i+1] against every segment of q, into out.

    q and dq are the components of q's points and of its segment vectors.
    With R[i, j] = q[j] - p[i], E[i, j] = unit(R[i, j] x R[i, j+1]) and
    V[i, j] = unit(R[i, j] x R[i+1, j]), the cell (i, j) quadrilateral has
    face normals E[i, j], V[i, j+1], -E[i+1, j] and -V[i, j].
    """
    r = [qk[None, :] - p[:, k, None] for k, qk in enumerate(q)]
    e = _unit_cross([x[:, :-1] for x in r], [x[:, 1:] for x in r])
    v = _unit_cross([x[:-1] for x in r], [x[1:] for x in r])
    e_lo, e_hi = [x[:-1] for x in e], [x[1:] for x in e]
    v_lo, v_hi = [x[:, :-1] for x in v], [x[:, 1:] for x in v]
    term = np.empty_like(out)
    # omega = asin(n1.n2) + asin(n2.n3) + asin(n3.n4) + asin(n4.n1), in that
    # order; n2.n3 and n4.n1 each pair E with V and negate the dot product.
    pairs = ((e_lo, v_hi, False), (v_hi, e_hi, True), (e_hi, v_lo, False), (v_lo, e_lo, True))
    for k, (a, b, negate) in enumerate(pairs):
        dot = _dot(a, b, out if k == 0 else term)
        if negate:
            np.negative(dot, out=dot)
        np.clip(dot, -1.0, 1.0, out=dot)
        np.arcsin(dot, out=dot)
        if k:
            out += dot
    # The sign of ((q[j+1] - q[j]) x (p[i+1] - p[i])) . R[i, j].
    dp = [p[1:, k, None] - p[:-1, k, None] for k in range(3)]
    out *= np.sign(_dot(_cross(dq, dp), [x[:-1, :-1] for x in r], term), out=term)


def linking_solid_angle(p: np.ndarray, q: np.ndarray) -> float:
    """Linking number of two closed polylines (last point repeats the first).

    Sums the exact signed solid angle each segment pair subtends; no step
    tuning enters, so values land within roundoff of integers for honestly
    separated curves.  Segments of p go in chunks of 256, each summed as one
    (256, m) array, so the float returned depends only on p and q.  A chunk
    is filled in row blocks of about 32k cells, so temporaries stay small.
    """
    qc = [np.ascontiguousarray(q[:, k]) for k in range(3)]
    dq = [x[1:] - x[:-1] for x in qc]
    m = q.shape[0] - 1
    rows = max(1, min(256, 32768 // max(m, 1)))
    total = 0.0
    for lo, hi in fixed_chunks(p.shape[0] - 1, 256):
        omega = np.empty((hi - lo, m))
        for a, b in fixed_chunks(hi - lo, rows):
            _signed_solid_angles(p[lo + a:lo + b + 1], qc, dq, omega[a:b])
        total += float(np.sum(omega))
    return total / (4.0 * np.pi)


def gauss_linking(c1: FieldLine, c2: FieldLine, seed: int = 0) -> float:
    """Gauss linking number of two closed sphere curves.

    The curves are rotated away from the chart pole and evaluated in
    3-space.  For honestly separated curves the result lands within roundoff
    of an integer, but nothing here checks that: build_linking_matrix and the
    linking verb refuse a value more than INTEGER_TOL from one, and
    asymptotic_hopf averages the raw floats.
    """
    p1, p2 = _prepare_pair(c1, c2, seed=seed)
    return linking_solid_angle(p1, p2)


# ---------------------------------------------------------------------------
# Signed-crossing oracle.
# ---------------------------------------------------------------------------


def _projection_frame(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    aux = np.zeros(3)
    aux[int(np.argmin(np.abs(d)))] = 1.0
    e1 = np.cross(d, aux)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    return e1, e2, d


def projected_crossings(
    p: np.ndarray, q: np.ndarray, direction: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed transverse crossings of two polylines projected along direction.

    Returns (i, j, sign): crossing k joins segment i[k] of p and segment j[k]
    of q, in row-major order, and sign[k] is its sign, +1 or -1, so half the
    sum is the linking number of two closed polylines.  Parallel segment
    pairs never cross.  Raises DegenerateProjection if a crossing touches a
    segment endpoint, has ambiguous depth or is tangential.  Segments of p go
    in row blocks of about 32k segment pairs, so temporaries stay small.
    """
    e1, e2, d = _projection_frame(direction)
    pa = np.stack([p @ e1, p @ e2], axis=1)
    qa = np.stack([q @ e1, q @ e2], axis=1)
    a1, a2 = pa[:-1], pa[1:]
    b1, b2 = qa[:-1], qa[1:]
    found = []
    for lo, hi in fixed_chunks(a1.shape[0], max(1, 32768 // max(b1.shape[0], 1))):
        da = (a2 - a1)[lo:hi, None, :]
        db = (b2 - b1)[None, :, :]
        diff = b1[None, :, :] - a1[lo:hi, None, :]
        denom = da[..., 0] * db[..., 1] - da[..., 1] * db[..., 0]
        norm_prod = np.linalg.norm(da, axis=-1) * np.linalg.norm(db, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (diff[..., 0] * db[..., 1] - diff[..., 1] * db[..., 0]) / denom
            t = (diff[..., 0] * da[..., 1] - diff[..., 1] * da[..., 0]) / denom
        parallel = np.abs(denom) <= 1e-12 * np.maximum(norm_prod, 1e-300)
        # A touch puts one parameter at an endpoint and the other on its segment.
        margin = 1e-9
        at_end_s = (np.abs(s) < margin) | (np.abs(1.0 - s) < margin)
        at_end_t = (np.abs(t) < margin) | (np.abs(1.0 - t) < margin)
        on_s = (s >= -margin) & (s <= 1.0 + margin)
        on_t = (t >= -margin) & (t <= 1.0 + margin)
        touching = (~parallel) & ((at_end_s & on_t) | (at_end_t & on_s))
        if np.any(touching):
            raise DegenerateProjection("crossing at a segment endpoint")
        inside = (~parallel) & (s > 0.0) & (s < 1.0) & (t > 0.0) & (t < 1.0)
        ii, jj = np.nonzero(inside)
        found.append((ii + lo, jj, s[inside], t[inside], denom[inside]))
    # denom is the cross product of the two projected segment directions.
    i, j, s, t, cross = (np.concatenate(parts) for parts in zip(*found))
    scale = max(float(np.max(np.abs(p))), float(np.max(np.abs(q))), 1e-30)
    pz = p @ d
    qz = q @ d
    za = pz[i] + s * (pz[i + 1] - pz[i])
    zb = qz[j] + t * (qz[j + 1] - qz[j])
    if np.any(np.abs(za - zb) < 1e-7 * scale):
        raise DegenerateProjection("ambiguous crossing depth")
    if np.any(np.abs(cross) < 1e-14 * scale * scale):
        raise DegenerateProjection("tangential crossing")
    return i, j, np.where((za > zb) == (cross > 0.0), 1, -1)


def retry_projection(attempt: Callable, seed: int, key: int):
    """attempt(direction) at the first of 10 random directions it accepts.

    The directions come from substream(seed, key); attempt rejects one by
    raising DegenerateProjection.
    """
    rng = substream(seed, key)
    last_exc: Exception | None = None
    for _ in range(10):
        try:
            return attempt(rng.standard_normal(3))
        except DegenerateProjection as exc:
            last_exc = exc
    raise DegenerateProjection(f"no generic projection after 10 tries: {last_exc}")


def crossing_linking_oracle(c1: FieldLine, c2: FieldLine, seed: int = 0) -> int:
    """Linking number as half the sum of signed crossings in a projection.

    Retries up to 10 random directions when the projection is degenerate or
    the crossing sum is odd.
    """
    p1, p2 = _prepare_pair(c1, c2, seed=seed)

    def half_sum(direction: np.ndarray) -> int:
        total = int(np.sum(projected_crossings(p1, p2, direction)[2]))
        if total % 2 != 0:
            raise DegenerateProjection("odd crossing sum")
        return total // 2

    return retry_projection(half_sum, seed, 77)


def build_linking_matrix(curves: Sequence[FieldLine], seed: int = 0) -> np.ndarray:
    """Symmetric integer matrix of pairwise linking numbers, zero diagonal.

    Raises CurlwaveError when a quadrature lands more than INTEGER_TOL from
    an integer.
    """
    n = len(curves)
    lk = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            val = gauss_linking(curves[i], curves[j], seed=seed)
            rounded = int(np.rint(val))
            if abs(val - rounded) > INTEGER_TOL:
                raise CurlwaveError(f"linking quadrature {val} is not integer-like")
            lk[i, j] = lk[j, i] = rounded
    return lk


# ---------------------------------------------------------------------------
# Helicity quadrature and the asymptotic linking estimate.
# ---------------------------------------------------------------------------


def helicity_integral(field_a: Callable, field_b: Callable, n_quad: int, seed: int = 0) -> float:
    """Quadrature of the inner product (A, B) over the unit sphere.

    B is first spot-checked against the numerical curl of A at a handful of
    points.
    """
    probe = haar_sample(substream(seed, 991), 8).T
    _, _, rot = curl_field(field_a, probe)
    _, b_chart, _ = curl_field(field_b, probe)
    err = np.max(np.abs(rot - b_chart)) / max(np.max(np.abs(b_chart)), 1e-30)
    if err > 1e-5:
        raise ValueError(f"B fails the curl spot check, relative error {err:.2e}")
    x = haar_sample(substream(seed, 0), n_quad).T
    return float(np.mean(helicity_density(field_a, field_b, x))) * VOL_UNIT_SPHERE


@dataclass(frozen=True)
class HopfEstimate:
    """Mean pairwise linking of T-closures, normalized by T^2."""

    estimate: float
    stderr: float
    failures: int
    resamples: int


def asymptotic_hopf(
    field: Callable,
    n_pairs: int,
    T: float,
    seed: int = 0,
    h: float = 0.01,
    workers: int = 1,
) -> HopfEstimate:
    """Asymptotic pairwise-linking estimate of the field's helicity density.

    Traces 2 n_pairs field lines from uniform starts for time T, closes each
    by its great-circle arc, and averages lk/T^2 over the pairs.  Pairs that
    violate the separation precondition are redrawn (counted); pairs that
    fail to project, beyond 5%, reject the run.  The comparison target is
    helicity_integral(potential, field) / vol^2 for a potential of the field.
    """
    starts = haar_sample(substream(seed, 0), 2 * n_pairs)
    paths = trace_batch(field, starts, T, h=h)

    def link_pair(p: int) -> tuple[float | None, int]:
        # (linking number or None for a failed pair, number of redraws).
        xs_a, xs_b = paths[2 * p], paths[2 * p + 1]
        for attempt in range(4):
            try:
                la, lb = (close_curve(FieldLine(xs)) for xs in (xs_a, xs_b))
                return gauss_linking(la, lb, seed=seed), attempt
            except DegenerateProjection:
                return None, attempt
            except CurvesTooClose:
                xs_a, xs_b = trace_batch(field, haar_sample(substream(seed, 7, p, attempt), 2), T, h=h)
        return None, 4

    results = ordered_map(link_pair, list(range(n_pairs)), workers)
    lks = np.array([lk for lk, _ in results if lk is not None])
    failures = n_pairs - lks.size
    resamples = sum(n for _, n in results)
    if failures > 0.05 * n_pairs:
        raise ClosureFailures(f"{failures} of {n_pairs} pairs failed to project")
    estimate = float(np.mean(lks)) / T**2
    stderr = float(np.std(lks, ddof=1)) / np.sqrt(lks.size) / T**2
    return HopfEstimate(estimate, stderr, failures, resamples)


# ---------------------------------------------------------------------------
# Benchmark curves.
# ---------------------------------------------------------------------------


def hopf_fiber(x0: np.ndarray, side: str = "right", n: int = 400) -> FieldLine:
    """Closed orbit of a translation field through x0, with q the first imaginary unit.

    side="right" gives t -> exp(t q) x0 (pairwise linking +1); side="left"
    gives t -> x0 exp(t q) (pairwise linking -1).
    """
    x0 = np.asarray(x0, dtype=float)
    x0 = x0 / np.linalg.norm(x0)
    q = IMAG_UNITS[0]
    t = np.linspace(0.0, 2.0 * np.pi, n + 1)
    qx = qmul(q, x0) if side == "right" else qmul(x0, q)
    xs = np.cos(t)[:, None] * x0[None, :] + np.sin(t)[:, None] * qx[None, :]
    xs[-1] = xs[0]
    return FieldLine(xs)


def circle_in_chart(center: np.ndarray, r3: float, normal_axis: int = 2) -> FieldLine:
    """Planar 256-gon circle in chart-0 coordinates, embedded back on the sphere."""
    center = np.asarray(center, dtype=float)
    t = np.linspace(0.0, 2.0 * np.pi, 257)
    pts = np.repeat(center[:, None], t.size, axis=1)
    i, j = [k for k in range(3) if k != normal_axis]
    pts[i] += r3 * np.cos(t)
    pts[j] += r3 * np.sin(t)
    xs = np.ascontiguousarray(chart_embed(pts, 0).T)
    xs[-1] = xs[0]
    return FieldLine(xs)
