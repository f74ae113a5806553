"""Field line tracing, closure, and linking quadrature."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

import oracles
from curlwave import cli
from curlwave import fieldlines as fl
from curlwave import s3
from curlwave.errors import (
    ChartEscape,
    ClosureFailures,
    CurvesTooClose,
    DegenerateProjection,
)
from curlwave.quaternions import IMAG_UNITS, haar_sample
from curlwave.seeds import fixed_chunks, substream


def _fiber_pair(side, seed=0):
    base = haar_sample(np.random.default_rng(seed), 2)
    return fl.hopf_fiber(base[0], side), fl.hopf_fiber(base[1], side)


def test_hopf_fiber_closed_unit_circle():
    line = fl.hopf_fiber(np.array([0.2, -0.4, 0.8, 0.1]), "right")
    assert line.gap() == 0.0
    assert np.allclose(np.linalg.norm(line.embedding, axis=1), 1.0, atol=1e-12)
    assert np.allclose(line.embedding[0], line.embedding[-1], atol=1e-12)


def test_trace_batch_rejects_a_non_finite_field_value():
    # trace_batch is the one finiteness check on traced points: a field that
    # returns NaN for one start, or inf for every start, fails the whole batch.
    def nan_for_second_start(x):
        v = np.zeros_like(x)
        v[:, 1] = np.nan
        return v

    starts = haar_sample(np.random.default_rng(2), 3)
    with pytest.raises(ChartEscape):
        fl.trace_batch(nan_for_second_start, starts, 0.05, h=0.01)
    with pytest.raises(ChartEscape), np.errstate(invalid="ignore"):
        fl.trace_batch(lambda x: np.full_like(x, np.inf), starts, 0.05, h=0.01)
    assert np.isfinite(fl.trace_batch(np.zeros_like, starts, 0.05, h=0.01)).all()


@pytest.mark.parametrize("n", [1, 256, 257, 511, 512, 513, 1300])
def test_distance_scans_match_brute_force(n):
    # FieldLine.diameter takes 2**16 // n rows per block: up to 256 points
    # fit one block, 257 spill two rows into a second, and 1300 span 26.
    # The separation scan boxes runs of 16 points, the last one padded
    # unless n is a multiple of 16.
    rng = np.random.default_rng(n)
    p = haar_sample(rng, n)
    q = haar_sample(rng, 700)
    pq = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=-1)
    pp = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)
    want = float(np.min(pq))
    assert fl._min_distance(p, q, np.inf) == fl._min_distance(q, p, np.inf) == want
    # A bound above the minimum returns the same float; one below finds nothing.
    assert fl._min_distance(p, q, 1.001 * want) == fl._min_distance(q, p, 1.001 * want) == want
    assert fl._min_distance(p, q, 0.999 * want) == fl._min_distance(q, p, 0.999 * want) == np.inf
    line = fl.FieldLine(p)
    assert line.diameter() == float(np.max(pp))


def _kd_min_distance(p, q, bound):
    # The k-d tree query that the run-box scan replaced, as its == reference.
    return float(cKDTree(q).query(p, distance_upper_bound=bound)[0].min())


def _same_float(a, b):
    return a == b and np.signbit(a) == np.signbit(b)


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("n", [1, 15, 17, 300, 513, 1500, 4200])
def test_min_distance_matches_the_kd_tree_query(dim, n):
    # Runs of 16 points: 15 and 17 pad a partial run.  Two strands of 4,200
    # points (263 runs each) take the box gaps in two row blocks, of
    # 2**16 // 263 = 249 rows and 14.  Clouds prune little, walks much.  On
    # parallel strands out of step, the closest pair's run pair has a box
    # gap close to its distance.
    rng = np.random.default_rng(10 * n + dim)
    clouds = rng.standard_normal((n, dim)), rng.standard_normal((700, dim)) + 0.5
    walks = [np.cumsum(rng.standard_normal((m, dim)) * 0.02, axis=0) for m in (n, 900)]
    walks[1] += 0.1
    strands = [np.zeros((n, dim)), np.zeros((n, dim))]
    strands[0][:, 0] = np.arange(n) * 1e-3
    strands[1][:, 0] = np.arange(n) * 1e-3 + 5.3e-3
    strands[1][:, 1] = 0.1
    found = []
    for p, q in (clouds, walks, strands):
        for bound in (1e-4, 0.24, np.inf):
            for a, b in ((p, q), (q, p)):
                got = fl._min_distance(a, b, bound)
                assert _same_float(got, _kd_min_distance(a, b, bound)), (bound, got)
                found.append(got)
    assert np.isinf(found).any() and np.isfinite(found).any()


def test_min_distance_leaves_out_a_pair_at_the_bound():
    # 0.25**2 is exact: a pair at the bound is not below it.
    rng = np.random.default_rng(4)
    p = np.concatenate([np.cumsum(rng.uniform(0.0, 0.01, (700, 3)), axis=0) + 5.0, [[0.0, 0.0, 0.0]]])
    q = np.concatenate([[[0.25, 0.0, 0.0]], np.cumsum(rng.uniform(0.0, 0.01, (900, 3)), axis=0) - 5.0])
    for a, b in ((p, q), (q, p)):
        assert fl._min_distance(a, b, 0.25) == _kd_min_distance(a, b, 0.25) == np.inf
        above = np.nextafter(0.25, 1.0)
        assert fl._min_distance(a, b, above) == _kd_min_distance(a, b, above) == 0.25


def test_min_distance_of_shared_and_repeated_points():
    rng = np.random.default_rng(8)
    q = haar_sample(rng, 600)
    p = np.concatenate([haar_sample(rng, 400), q[[17, 17, 599]]])
    repeated = np.repeat(haar_sample(rng, 40), 20, axis=0)
    for a, b in ((p, q), (q, p), (repeated, q), (repeated, repeated)):
        for bound in (1e-4, 0.24, np.inf):
            got = fl._min_distance(a, b, bound)
            assert _same_float(got, _kd_min_distance(a, b, bound))
    assert _same_float(fl._min_distance(p, q, 1e-4), 0.0)


def test_min_distance_memory_is_bounded_on_long_curves():
    # Two 80,000-point curves winding one torus 127 times pass close to
    # each other everywhere: the box gaps of 25 million run pairs, and the
    # distances of the 90,051 that survive, 184 MB of 16 x 16 points, go
    # in blocks of 2**16.
    t = np.arange(80_000) * 0.01
    p, q = (
        np.stack([np.cos(t), np.sin(t), np.cos(np.sqrt(2.0) * t + ph), np.sin(np.sqrt(2.0) * t + ph)], axis=1)
        for ph in (0.0, 0.3)
    )
    tracemalloc.start()
    try:
        got = fl._min_distance(p, q, 0.24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _same_float(got, _kd_min_distance(p, q, 0.24))
    assert 0.0 < got < 0.24
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n", [1, 2, 256, 257, 1300])
def test_diameter_and_reach_match_cdist(n):
    rng = np.random.default_rng(n)
    xs = haar_sample(rng, n) * rng.uniform(0.5, 2.0, (n, 1))
    assert _same_float(fl.FieldLine(xs).diameter(), float(cdist(xs, xs).max()))
    assert _same_float(fl._max_distance(xs[:1], xs), float(cdist(xs[:1], xs).max()))


def test_diameter_memory_is_bounded_by_a_cell_budget():
    # Row blocks of 512 would hold 78 MiB of distances at this size.
    line = fl.FieldLine(haar_sample(np.random.default_rng(3), 20_000))
    tracemalloc.start()
    try:
        d = line.diameter()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1.9 < d <= 2.0
    assert peak < 16 * 2**20


def _unit(v):
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.where(n < 1e-300, 1.0, n)


def _reference_solid_angle(p, q):
    # The vectorized quadrature as first written: four crosses and four
    # normalizations per segment pair.  linking_solid_angle must return the
    # same float.
    a1, a2 = p[:-1], p[1:]
    b1, b2 = q[:-1], q[1:]
    total = 0.0
    for lo, hi in fixed_chunks(a1.shape[0], 256):
        r1 = a1[lo:hi, None, :]
        r2 = a2[lo:hi, None, :]
        r3 = b1[None, :, :]
        r4 = b2[None, :, :]
        r13 = r3 - r1
        r14 = r4 - r1
        r23 = r3 - r2
        r24 = r4 - r2
        n1 = _unit(np.cross(r13, r14))
        n2 = _unit(np.cross(r14, r24))
        n3 = _unit(np.cross(r24, r23))
        n4 = _unit(np.cross(r23, r13))
        clip = lambda x: np.clip(x, -1.0, 1.0)
        omega = (
            np.arcsin(clip(np.sum(n1 * n2, axis=-1)))
            + np.arcsin(clip(np.sum(n2 * n3, axis=-1)))
            + np.arcsin(clip(np.sum(n3 * n4, axis=-1)))
            + np.arcsin(clip(np.sum(n4 * n1, axis=-1)))
        )
        sign = np.sign(np.sum(np.cross(r4 - r3, r2 - r1) * r13, axis=-1))
        total += float(np.sum(omega * sign))
    return total / (4.0 * np.pi)


def _wobbly_ring(n_seg, center, normal_axis, seed):
    # Closed n_seg-gon near a unit circle, with random radial and normal noise.
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 2.0 * np.pi, n_seg + 1)
    radius = 1.0 + 0.1 * rng.standard_normal(t.size)
    i, j = [k for k in range(3) if k != normal_axis]
    pts = np.tile(np.asarray(center, dtype=float), (t.size, 1))
    pts[:, i] += radius * np.cos(t)
    pts[:, j] += radius * np.sin(t)
    pts[:, normal_axis] += 0.05 * rng.standard_normal(t.size)
    pts[-1] = pts[0]
    return pts


@pytest.mark.parametrize(
    "n_p, n_q",
    [(2, 300), (255, 300), (256, 300), (257, 300), (513, 300), (300, 2), (257, 2399)],
)
def test_linking_kernel_equals_reference_on_chunk_edges(n_p, n_q):
    # 255, 256, 257 and 513 sit on the 256-segment chunk edge; n_q sets the
    # row blocks inside a chunk.
    p = _wobbly_ring(n_p, (0.0, 0.0, 0.0), 2, n_p)
    q = _wobbly_ring(n_q, (1.0, 0.0, 0.0), 1, n_q + 1)
    for a, b in ((p, q), (q, p), (p, q[::-1])):
        assert fl.linking_solid_angle(a, b) == _reference_solid_angle(a, b)


def test_linking_kernel_equals_reference_on_sphere_curves():
    base = haar_sample(np.random.default_rng(7), 3)
    pairs = [
        (fl.hopf_fiber(base[0], "right"), fl.hopf_fiber(base[1], "right")),
        (fl.hopf_fiber(base[0], "left"), fl.hopf_fiber(base[2], "left", n=631)),
        (fl.circle_in_chart(np.array([0.0, 0.0, -2.5]), 0.3),
         fl.circle_in_chart(np.array([0.0, 0.0, 2.5]), 0.3, normal_axis=0)),
        (fl.circle_in_chart(np.array([0.0, 0.0, 0.0]), 0.4),
         fl.circle_in_chart(np.array([0.4, 0.0, 0.0]), 0.4, normal_axis=1)),
    ]
    for c1, c2 in pairs:
        p, q = fl._prepare_pair(c1, c2)
        assert fl.linking_solid_angle(p, q) == _reference_solid_angle(p, q)


def test_linking_kernel_equals_reference_near_contact_and_on_collinear_segments():
    p = _wobbly_ring(200, (0.0, 0.0, 0.0), 2, 1)
    q = _wobbly_ring(180, (0.0, 0.0, 0.0), 2, 2) * 1.5
    # Move q rigidly until it passes 1e-6 from p.
    gap = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=-1)
    i, j = np.unravel_index(np.argmin(gap), gap.shape)
    shift = p[i] - q[j]
    q_near = q + shift * (1.0 - 1e-6 / np.linalg.norm(shift))
    assert fl.linking_solid_angle(p, q_near) == _reference_solid_angle(p, q_near)
    # A vertex of p on the line through a segment of q: that face normal is
    # the zero vector and the 1e-300 guard decides its value.
    square = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    line = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, 3.0, 0.5], [1.0, 0.0, 0.0]])
    assert np.all(np.cross(line[0] - square[0], line[1] - square[0]) == 0.0)
    assert fl.linking_solid_angle(square, line) == _reference_solid_angle(square, line)
    assert fl.linking_solid_angle(line, square) == _reference_solid_angle(line, square)


def test_linking_kernel_memory_stays_bounded():
    # Two curves at the resampling cap of 2400 points each.
    p = _wobbly_ring(2399, (0.0, 0.0, 0.0), 2, 3)
    q = _wobbly_ring(2399, (1.0, 0.0, 0.0), 1, 4)
    tracemalloc.start()
    try:
        lk = fl.linking_solid_angle(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(abs(lk) - 1.0) < 1e-6
    assert peak < 32 * 2**20


def test_right_fibers_link_plus_one():
    c1, c2 = _fiber_pair("right", 0)
    quad = fl.gauss_linking(c1, c2)
    assert abs(quad - 1.0) < 1e-6
    assert fl.crossing_linking_oracle(c1, c2) == 1


def test_left_fibers_link_minus_one():
    c1, c2 = _fiber_pair("left", 0)
    quad = fl.gauss_linking(c1, c2)
    assert abs(quad + 1.0) < 1e-6
    assert fl.crossing_linking_oracle(c1, c2) == -1


def test_far_circles_unlinked():
    a = fl.circle_in_chart(np.array([0.0, 0.0, -2.5]), 0.3)
    b = fl.circle_in_chart(np.array([0.0, 0.0, 2.5]), 0.3, normal_axis=0)
    assert abs(fl.gauss_linking(a, b)) < 1e-6
    assert fl.crossing_linking_oracle(a, b) == 0


def test_projected_crossings_hand_built():
    # Viewed along z, p turns a corner and q crosses each of its two legs
    # above it, first right to left of p's direction, then left to right.
    p = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [4.0, 4.0, 0.0]])
    q = np.array([[1.0, -3.0, 1.0], [1.0, 1.0, 1.0], [6.0, 1.0, 1.0]])
    i, j, sign = fl.projected_crossings(p, q, np.array([0.0, 0.0, 1.0]))
    assert (i.tolist(), j.tolist(), sign.tolist()) == ([0, 1], [0, 1], [-1, 1])
    # A crossing's sign depends on neither the order of the curves nor the
    # side they are viewed from.
    j, i, sign = fl.projected_crossings(q, p, np.array([0.0, 0.0, -1.0]))
    assert (i.tolist(), j.tolist(), sign.tolist()) == ([0, 1], [0, 1], [-1, 1])
    # Lowering q below p flips both signs.
    q_below = q - np.array([0.0, 0.0, 2.0])
    assert fl.projected_crossings(p, q_below, np.array([0.0, 0.0, 1.0]))[2].tolist() == [1, -1]
    far = q + np.array([0.0, 20.0, 0.0])
    assert all(v.size == 0 for v in fl.projected_crossings(p, far, np.array([0.0, 0.0, 1.0])))


def test_projected_crossings_degenerate_raises():
    z = np.array([0.0, 0.0, 1.0])
    corner = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, 2.0, 0.0]])
    through_vertex = np.array([[1.0, -1.0, 1.0], [3.0, 1.0, 1.0]])
    with pytest.raises(DegenerateProjection, match="endpoint"):
        fl.projected_crossings(corner, through_vertex, z)
    p = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    same_depth = np.array([[0.5, -1.0, 0.0], [0.5, 1.0, 0.0]])
    with pytest.raises(DegenerateProjection, match="ambiguous"):
        fl.projected_crossings(p, same_depth, z)
    # Slope 1e-10: transverse for the parallel test (above 1e-12 |da| |db|),
    # so the pair is a crossing, but below the tangency bound 1e-14 scale^2,
    # with scale 200.
    shallow = np.array([[0.0, -5e-11, 200.0], [1.0, 5e-11, 200.0]])
    with pytest.raises(DegenerateProjection, match="tangential"):
        fl.projected_crossings(p, shallow, z)


@pytest.mark.parametrize("seed", range(16))
def test_projected_crossings_match_the_two_pass_reference(seed):
    # The linking verb's four cases at this config seed, after the shared
    # preparation, along the 10 directions that the crossing oracle may draw.
    for _, c1, c2, _ in cli._linking_cases(cli.ExperimentConfig(verb="linking", seed=seed)):
        p, q = fl._prepare_pair(c1, c2, seed=seed)
        rng = substream(seed, 77)
        for _ in range(10):
            d = rng.standard_normal(3)
            got, want = fl.projected_crossings(p, q, d), oracles.signed_crossings(p, q, d)
            assert [x.tolist() for x in got] == [x.tolist() for x in want]


def test_projected_crossings_touch_needs_both_parameters_on_their_segments():
    # The lines through p and q meet at p's first point, 2 short of q's
    # first point: s = 0 but t = -2, and the segments lie 2 apart.
    z = np.array([0.0, 0.0, 1.0])
    p = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    q = np.array([[0.0, 2.0, 0.0], [0.0, 3.0, 0.0]])
    for a, b in ((p, q), (q, p)):
        assert all(v.size == 0 for v in fl.projected_crossings(a, b, z))
    # A segment through p's first point does touch it, either way round.
    through = np.array([[0.0, -1.0, 1.0], [0.0, 1.0, 1.0]])
    for a, b in ((p, through), (through, p)):
        with pytest.raises(DegenerateProjection, match="endpoint"):
            fl.projected_crossings(a, b, z)


def test_projected_crossings_memory_is_bounded_by_a_cell_budget(monkeypatch):
    # The linking verb's right_pair at config seed 14, 744 x 787 segment
    # pairs: row blocks of 512 held 25.9 MiB of temporaries.
    base = haar_sample(substream(14, 21), 4)
    c1, c2 = (fl.hopf_fiber(b, "right") for b in base[:2])
    tracemalloc.start()
    try:
        lk = fl.crossing_linking_oracle(c1, c2, seed=14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lk == 1
    assert peak < 8 * 2**20
    # The blocks give the crossings, in row-major order, as one block does.
    p, q = fl._prepare_pair(c1, c2, seed=14)
    d = substream(14, 77).standard_normal(3)
    got = fl.projected_crossings(p, q, d)
    monkeypatch.setattr(fl, "fixed_chunks", lambda n, chunk: [(0, n)])
    want = fl.projected_crossings(p, q, d)
    assert got[0].size > 0
    assert [x.tolist() for x in got] == [x.tolist() for x in want]


def _mirror_line(line):
    # Reflect the last embedding coordinate (orientation-reversing).
    xs = line.embedding.copy()
    xs[:, 3] = -xs[:, 3]
    return fl.FieldLine(xs)


def _reverse_line(line):
    # Reverse the traversal orientation of a closed line.
    xs = line.embedding[::-1].copy()
    return fl.FieldLine(xs)


def test_mirror_and_reversal_negate_linking():
    c1, c2 = _fiber_pair("right", 3)
    base = fl.gauss_linking(c1, c2)
    mirrored = fl.gauss_linking(_mirror_line(c1), _mirror_line(c2))
    reversed_one = fl.gauss_linking(c1, _reverse_line(c2))
    assert np.isclose(mirrored, -base, atol=1e-6)
    assert np.isclose(reversed_one, -base, atol=1e-6)


def test_linking_symmetric_and_reparameterization_invariant():
    c1, c2 = _fiber_pair("right", 5)
    a = fl.gauss_linking(c1, c2)
    b = fl.gauss_linking(c2, c1)
    assert np.isclose(a, b, atol=1e-6)
    # same circle, different sample density and start point
    base = haar_sample(np.random.default_rng(5), 2)
    dense = fl.hopf_fiber(base[1], "right", n=631)
    c = fl.gauss_linking(c1, dense)
    assert np.isclose(a, c, atol=1e-6)


_LEFT_LEG = s3.build_frame("left")[0]


def _left_field(x):
    # -2 times the first left leg: Hopf fibers at speed 2, period pi.
    return -2.0 * _LEFT_LEG(x)


# One period in 700 steps: ceil(T / h) is exactly 700.
PERIOD_STEP = np.pi / 700


def test_traced_orbit_closes_with_period_pi():
    x0 = haar_sample(np.random.default_rng(9), 1)
    paths = fl.trace_batch(_left_field, x0, np.pi, h=PERIOD_STEP)
    assert paths.shape == (1, 701, 4)
    # One step from the unit start leaves the sphere by less than 1e-10.
    y = fl._rk4_step(_left_field, x0.T, PERIOD_STEP)
    assert abs(np.linalg.norm(y) - 1.0) < 1e-10
    assert np.linalg.norm(paths[0, -1] - paths[0, 0]) < 1e-8
    # Half a period lands on the antipode, so pi is the first return.
    assert np.linalg.norm(paths[0, 350] + paths[0, 0]) < 1e-8


def test_traced_orbit_pair_links():
    starts = haar_sample(np.random.default_rng(10), 2)
    paths = fl.trace_batch(_left_field, starts, np.pi, h=PERIOD_STEP)
    lines = [
        fl.close_curve(fl.FieldLine(xs))
        for xs in paths
    ]
    lk = fl.gauss_linking(lines[0], lines[1])
    assert np.isclose(lk, -1.0, atol=1e-3)


@pytest.mark.parametrize("side, leg, scale", [("left", 1, -2.0), ("right", 2, 1.0)])
def test_trace_batch_matches_the_reference_tracer(side, leg, scale):
    # The frame legs permute and negate the rows of a (4, 50) batch; the
    # reference multiplies by the 16-term loop and renormalizes with
    # np.linalg.norm.  Every float of the paths agrees.
    q = IMAG_UNITS[leg - 1]
    ref_leg = (lambda x: oracles.qmul_reference(x, q)) if side == "left" else (lambda x: oracles.qmul_reference(q, x))
    frame_leg = s3.build_frame(side)[leg - 1]
    starts = haar_sample(substream(0, 5), 50)
    got = fl.trace_batch(lambda x: scale * frame_leg(x), starts, 2.0 * np.pi, h=0.01)
    want = oracles.trace_batch_reference(lambda x: scale * ref_leg(x), starts, 2.0 * np.pi, 0.01)
    assert got.shape == want.shape == (50, 630, 4)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("T, h, min_gap", [(0.7, 0.005, 0.6), (np.pi, 0.005, 1.99), (np.pi, np.pi / 700, 2.0)])
def test_close_curve_closes_a_wide_gap_by_its_great_circle_arc(T, h, min_gap):
    # An open 0.7 rad arc, whose endpoint gap is its diameter, and half a
    # great circle, whose endpoints are nearly antipodal, or antipodal to
    # roundoff at h = pi / 700 (|a + b| = 1.1e-11): the closing arc of each
    # is at most pi long.
    x0 = haar_sample(np.random.default_rng(11), 1)
    xs = fl.trace_batch(_LEFT_LEG, x0, T, h=h)[0]
    line = fl.FieldLine(xs)
    assert line.gap() >= min_gap
    closed = fl.close_curve(line).embedding
    assert np.array_equal(closed[-1], closed[0])
    assert np.max(np.abs(np.linalg.norm(closed, axis=1) - 1.0)) <= 1e-12
    arc = closed[len(xs) - 1:]
    assert np.sum(np.linalg.norm(np.diff(arc, axis=0), axis=1)) <= np.pi * (1.0 + 1e-9)


def test_close_curve_arc_has_at_most_as_many_points_as_the_line():
    # 998 steps of 1e-7 rad, a jump to 1 rad, and the end at 0.05 rad: the
    # median spacing alone would take 499,948 arc points over the gap.
    angles = np.concatenate([np.arange(998) * 1e-7, [1.0, 0.05]])
    xs = np.stack([np.cos(angles), np.sin(angles), 0.0 * angles, 0.0 * angles], axis=1)
    closed = fl.close_curve(fl.FieldLine(xs)).embedding
    assert len(closed) - len(xs) <= len(xs)
    assert np.array_equal(closed[-1], closed[0])


def test_gauss_linking_refuses_an_open_curve():
    c1, c2 = _fiber_pair("right")
    open_curve = fl.FieldLine(c1.embedding[:-10])
    with pytest.raises(ValueError, match="linking requires closed curves"):
        fl.gauss_linking(open_curve, c2)


def test_identical_curves_rejected():
    base = haar_sample(np.random.default_rng(12), 1)
    c = fl.hopf_fiber(base[0], "right")
    with pytest.raises(CurvesTooClose):
        fl.gauss_linking(c, c)


def test_linking_matrix_three_fibers():
    base = haar_sample(np.random.default_rng(13), 3)
    curves = [fl.hopf_fiber(b, "right") for b in base]
    lk = fl.build_linking_matrix(curves)
    assert lk.shape == (3, 3) and lk.dtype.kind == "i"
    off = lk[~np.eye(3, dtype=bool)]
    assert np.all(off == 1)
    assert np.all(np.diag(lk) == 0)
    assert np.array_equal(lk, lk.T)


def test_helicity_integral_left_pair():
    frame = s3.build_frame("left")
    pot = frame[0]
    field = lambda x: -2.0 * pot(x)
    val = fl.helicity_integral(pot, field, 5000, seed=0)
    # density is the constant -2, so the quadrature is exact
    assert np.isclose(val, -2.0 * s3.VOL_UNIT_SPHERE, rtol=1e-12)


def test_helicity_integral_guards():
    frame = s3.build_frame("left")
    pot = frame[0]
    other = frame[1]
    with pytest.raises(ValueError):
        fl.helicity_integral(pot, other, 5000, seed=0)


def test_to_r3_polylines_draws_rotations_only_when_the_identity_fails(monkeypatch):
    draws = []
    real_haar = fl.haar_sample
    monkeypatch.setattr(fl, "haar_sample", lambda rng, n: draws.append(n) or real_haar(rng, n))
    # Two circles near (1, 0, 0, 0) stay far from the chart-0 pole at -1.
    near = [fl.circle_in_chart(np.array([0.0, 0.0, c]), 0.1).embedding for c in (-0.2, 0.2)]
    polys = fl.to_r3_polylines(near, seed=3)
    assert draws == []
    for p, c in zip(polys, near):
        assert np.array_equal(p, s3.chart_point(c.T, 0).T)
    # A fiber through the pole needs a drawn rotation.
    through_pole = fl.hopf_fiber(np.array([-1.0, 0.0, 0.0, 0.0]), "right").embedding
    fl.to_r3_polylines([through_pole, near[0]], seed=3)
    assert draws == [120]


def test_asymptotic_hopf_zero_field():
    # Stationary points are closed lines of zero length, which link nothing.
    field = lambda x: np.zeros_like(x)
    est = fl.asymptotic_hopf(field, 100, 2.0 * np.pi)
    assert (est.estimate, est.stderr, est.failures) == (0.0, 0.0, 0)


def test_asymptotic_hopf_runs_on_a_field_whose_lines_do_not_close():
    # B = d/dtheta_1 + s d/dtheta_2 with s = w^2 + x^2: each line winds two
    # circles at rates 1 and s, so almost none closes by itself, and its
    # endpoint gap can be as wide as the line.
    def field(u):
        w, x, y, z = u
        s = w * w + x * x
        return np.stack([-x, w, -s * z, s * y])

    est = fl.asymptotic_hopf(field, 100, 4.0 * np.pi, seed=3)
    assert est.failures <= 5
    assert est.stderr > 0.0


def test_asymptotic_hopf_worker_count_invariant(monkeypatch):
    frame = s3.build_frame("left")
    pot = frame[0]
    field = lambda x: -2.0 * pot(x)
    # to_r3_polylines draws its 60 rotation pairs, one haar_sample of 120
    # points, for each curve pair whose identity rotation fails, and the
    # threads share nothing, so both runs draw the same number of samples.
    draws = []
    real_haar = fl.haar_sample

    def counted_haar(rng, n):
        draws.append(n)
        return real_haar(rng, n)

    monkeypatch.setattr(fl, "haar_sample", counted_haar)
    threaded = fl.asymptotic_hopf(field, 100, 2.0 * np.pi, seed=4, workers=4)
    threaded_draws = draws.count(120)
    serial = fl.asymptotic_hopf(field, 100, 2.0 * np.pi, seed=4, workers=1)
    assert draws.count(120) - threaded_draws == threaded_draws > 0
    assert abs(serial.estimate - threaded.estimate) <= 1e-12
    assert abs(serial.stderr - threaded.stderr) <= 1e-12
    # one wrap per period scale: every pair links -4, estimate -1/pi^2
    assert np.isclose(serial.estimate, -1.0 / np.pi**2, atol=1e-8)


@pytest.mark.parametrize("n_failing", [1, 6])
def test_asymptotic_hopf_counts_pairs_that_will_not_project(monkeypatch, n_failing):
    # A pair whose curves no rotation keeps off the chart pole counts as
    # failed: 1 of 100 is counted, 6 exceed the 5% rule.
    real = fl.to_r3_polylines
    calls = []

    def flaky(curves, seed=0):
        calls.append(1)
        if 3 <= len(calls) < 3 + n_failing:
            raise DegenerateProjection("no rotation kept the curves away from the chart pole")
        return real(curves, seed=seed)

    monkeypatch.setattr(fl, "to_r3_polylines", flaky)
    pot = s3.build_frame("left")[0]
    field = lambda x: -2.0 * pot(x)
    if n_failing > 5:
        with pytest.raises(ClosureFailures, match="6 of 100 pairs failed to project"):
            fl.asymptotic_hopf(field, 100, 2.0 * np.pi, seed=4)
        return
    est = fl.asymptotic_hopf(field, 100, 2.0 * np.pi, seed=4)
    assert est.failures == 1
    assert np.isclose(est.estimate, -1.0 / np.pi**2, atol=1e-8)


@pytest.mark.parametrize("k, failures, resamples", [(2, 0, 2), (4, 1, 4), (5, 1, 5)])
def test_asymptotic_hopf_redraws_a_pair_whose_curves_come_too_close(monkeypatch, k, failures, resamples):
    # The first k linking calls find the curves too close.  Pair 0 is
    # redrawn from substream(seed, 7, 0, attempt) up to 4 times and then
    # counted as failed; a fifth refusal redraws pair 1 once.
    real_linking, real_trace = fl.gauss_linking, fl.trace_batch
    refusals, starts = [], []

    def too_close(c1, c2, seed=0):
        if len(refusals) < k:
            refusals.append(1)
            raise CurvesTooClose("minimum curve separation 0 below 0.0001")
        return real_linking(c1, c2, seed=seed)

    def recording(field, x0s, T, h=0.01):
        starts.append(x0s)
        return real_trace(field, x0s, T, h=h)

    monkeypatch.setattr(fl, "gauss_linking", too_close)
    monkeypatch.setattr(fl, "trace_batch", recording)
    pot = s3.build_frame("left")[0]
    est = fl.asymptotic_hopf(lambda x: -2.0 * pot(x), 100, 2.0 * np.pi, seed=4)
    assert (est.failures, est.resamples) == (failures, resamples)
    assert np.isclose(est.estimate, -1.0 / np.pi**2, atol=1e-8)
    keys = [(0, a) for a in range(min(k, 4))] + [(1, 0)] * (k == 5)
    assert len(starts) == 1 + len(keys)
    for got, (p, attempt) in zip(starts[1:], keys):
        assert np.array_equal(got, haar_sample(substream(4, 7, p, attempt), 2))


def test_resample_polyline_closed():
    th = np.linspace(0.0, 2.0 * np.pi, 101)
    ring = np.stack([np.cos(th), np.sin(th), 0.0 * th], axis=1)
    out = fl.resample_polyline(ring, 0.05)
    assert np.array_equal(out[0], out[-1])
    assert len(out) <= 2400
    seg = np.linalg.norm(np.diff(out, axis=0), axis=1)
    assert np.max(seg) < 0.1
