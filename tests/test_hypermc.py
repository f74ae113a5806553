"""Kinematic chord sampling, crossing counts, and scaling fits."""

import tracemalloc

import numpy as np
import pytest

import oracles
from curlwave import hypermc as hm
from curlwave.errors import ExtrapolationUnstable
from curlwave.fieldlines import build_linking_matrix, circle_in_chart, hopf_fiber
from curlwave.quaternions import haar_sample

K1 = -1.0


def _sample_chords(n, rr, seed):
    rng = np.random.default_rng(seed)
    return [oracles.sample_geodesic(K1, rr, rng) for _ in range(n)]


def test_lambda_to_curvature():
    assert hm.lambda_to_curvature(1.0) == -1.0
    assert np.isclose(hm.lambda_to_curvature(8.0), -0.25, atol=1e-15)


def test_disk_geometry_closed_forms():
    # rho = 2, rr = 1.5
    assert np.isclose(hm.disk_perimeter(-0.25, 3.0), 2 * np.pi * 2 * np.sinh(1.5))
    assert np.isclose(hm.disk_area(-0.25, 3.0), 2 * np.pi * 4 * (np.cosh(1.5) - 1))
    assert hm.disk_area(-1.0, 1e-4) > 0


def test_chord_invariants():
    rng = np.random.default_rng(0)
    for _ in range(200):
        c = oracles.sample_geodesic(K1, 3.0, rng)
        assert c.uhp_residual() < 1e-9
        ends = c.endpoints()
        assert np.allclose(ends[:, 0], np.cosh(3.0), atol=1e-9)
        assert np.isclose(oracles.mink_dot(c.normal, c.normal), 1.0, atol=1e-12)
        assert np.isclose(oracles.mink_dot(c.base, c.base), -1.0, atol=1e-12)
        assert np.isclose(oracles.mink_dot(c.tangent, c.tangent), 1.0, atol=1e-12)
        assert abs(oracles.mink_dot(c.base, c.tangent)) < 1e-12
        assert abs(oracles.mink_dot(c.normal, c.base)) < 1e-12
        assert abs(oracles.mink_dot(c.normal, c.tangent)) < 1e-12
        assert 0.0 <= c.foot_distance < 3.0


def test_chord_from_foot_fields():
    c = oracles.chord_from_foot(K1, 3.0, 0.7, 1.2)
    assert c.foot_distance == 0.7
    assert c.foot_direction == 1.2
    assert np.isclose(c.half_length, np.arccosh(np.cosh(3.0) / np.cosh(0.7)))
    assert np.allclose(c.endpoints()[:, 0], np.cosh(3.0), atol=1e-12)
    with pytest.raises(ValueError):
        oracles.chord_from_foot(K1, 3.0, 3.0, 0.0)


def test_uhp_descriptor_vertical_and_circle():
    kind, params = oracles.chord_from_foot(K1, 3.0, 0.0, 0.0).uhp_descriptor()
    assert kind == "vertical"
    assert abs(params[0]) < 1e-12
    kind, params = oracles.chord_from_foot(K1, 3.0, 0.5, 1.0).uhp_descriptor()
    assert kind == "circle"
    assert params[1] > 0


def test_half_disk_fraction():
    # A chord meets the concentric half-radius disk when its foot distance is
    # below 1.5 (rho = 1 here); under the kinematic measure that happens with
    # probability sinh(rr / 2) / sinh(rr).
    chords = _sample_chords(4000, 3.0, 4)
    hits = sum(c.foot_distance < 1.5 for c in chords)
    p = np.sinh(1.5) / np.sinh(3.0)
    assert abs(hits / 4000 - p) < 3 * np.sqrt(p * (1 - p) / 4000)


def test_crossing_predicate_matches_flag_matrix():
    chords = _sample_chords(300, 3.0, 8)
    normals = np.stack([c.normal for c in chords])
    flags, _ = oracles.pair_flag_matrix(normals, 3.0)
    for i in range(300):
        for j in range(i + 1, 300):
            hit = oracles.chords_cross_inside(chords[i], chords[j])
            assert hit == oracles.chords_cross_inside(chords[j], chords[i])
            assert hit == bool(flags[i, j]) == bool(flags[j, i])


@pytest.mark.parametrize("rr", [0.5, 3.0, 12.0])
def test_pair_row_counts_match_flag_matrix(rr):
    rng = np.random.default_rng(6)
    normals = hm._sample_normals(rr, 1000, rng)
    counts = hm._pair_row_counts(normals, rr)
    flags, _ = oracles.pair_flag_matrix(normals, rr)
    assert np.array_equal(counts, flags.sum(axis=1))


def _fenwick_row_counts(normals, rr):
    # The per-chord Fenwick loop that _pair_row_counts replaced: the same
    # endpoint ranks, and the nested chords counted one chord at a time in
    # decreasing order of the lower rank.
    n = normals.shape[0]
    size = 2 * n
    lo, hi = hm._endpoint_ranks(normals, rr)
    tree = [0] * (size + 1)
    his = hi.tolist()
    nested = [0] * n
    for i in np.argsort(lo)[::-1].tolist():
        k, total = his[i], 0
        while k > 0:
            total += tree[k]
            k &= k - 1
        nested[i] = total
        k = his[i] + 1
        while k <= size:
            tree[k] += 1
            k += k & -k
    return hi - lo - 1 - 2 * np.array(nested, dtype=np.int64)


@pytest.mark.parametrize("n", [1000, 4500, 20_000])
def test_pair_row_counts_match_fenwick_reference(n):
    normals = hm._sample_normals(3.0, n, np.random.default_rng(n))
    assert np.array_equal(hm._pair_row_counts(normals, 3.0), _fenwick_row_counts(normals, 3.0))


# (foot distance, foot direction) per chord of the radius-3 disk, and the
# per-chord crossing counts worked out from the endpoint arcs by hand.
HAND_BUILT_CHORDS = {
    "straddles_zero": ([(0.5, 0.0), (0.2, 0.5 * np.pi), (0.4, 2 * np.pi - 0.3), (1.0, np.pi)], [2, 3, 2, 1]),
    "nested_same_direction": ([(0.0, 1.0), (0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (2.9, 1.0)], [0] * 5),
    "diameters": ([(0.0, 0.3), (0.0, 0.3 + 0.5 * np.pi), (1.0, 0.3), (0.8, 4.0)], [1, 3, 1, 1]),
    "near_rim": ([(3.0 - 1e-7, 2.0), (0.0, 2.0 + 0.5 * np.pi), (0.0, 2.0)], [1, 2, 1]),
    "square": ([(0.3, 0.0), (0.3, 0.5 * np.pi), (0.3, np.pi), (0.3, 1.5 * np.pi)], [2] * 4),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT_CHORDS))
def test_pair_row_counts_hand_built_chords(name):
    feet, expected = HAND_BUILT_CHORDS[name]
    chords = [oracles.chord_from_foot(K1, 3.0, p, theta) for p, theta in feet]
    counts = hm._pair_row_counts(np.stack([c.normal for c in chords]), 3.0)
    scalar = [
        sum(oracles.chords_cross_inside(c, d) for d in chords if d is not c) for c in chords
    ]
    assert counts.tolist() == scalar == expected


def test_pair_density_memory_stays_bounded():
    # A dense 2048 x N float block alone would take 328 MB at this size.
    tracemalloc.start()
    try:
        hm.pair_intersection_density(K1, 3.0, 20_000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_exact_triangle_count_vs_independent_oracle():
    chords = _sample_chords(400, 3.0, 12)
    normals = np.stack([c.normal for c in chords])
    cutoffs = (0.4, 0.3, 0.2, 0.15, 0.1)
    n = len(chords)
    # Folded crossing angle of every pair crossing inside the disk, else -1.
    angle = np.full((n, n), -1.0)
    for i in range(n):
        for j in range(i + 1, n):
            if oracles.chords_cross_inside(chords[i], chords[j]):
                kappa = float(oracles.mink_dot(chords[i].normal, chords[j].normal))
                angle[i, j] = angle[j, i] = np.arccos(abs(kappa))
    oracle = []
    for eps in cutoffs:
        m = (angle >= eps).astype(np.int64)
        oracle.append(int(np.einsum("ij,jk,ki->", m, m, m)) // 6)
    assert 0 < oracle[0] < oracle[-1]
    assert oracles.exact_triangle_counts(normals, 3.0, np.array(cutoffs)).tolist() == oracle


def test_sampled_triangle_fraction_matches_exact_count():
    # 1,000 chords, the fewest allowed, have 1.66e8 triples; the sampled
    # fraction of triangles must lie within 4 binomial sigma of the fraction
    # that the exhaustive count gives on the same chords.
    cutoffs = np.array([0.4, 0.3, 0.1])
    counts, total = hm._triple_counts(K1, 3.0, 1000, 12, cutoffs, 2_000_000)
    normals = hm._sample_normals(3.0, 1000, np.random.default_rng(12))
    exact = oracles.exact_triangle_counts(normals, 3.0, cutoffs)
    p = exact / (1000 * 999 * 998 // 6)
    assert 0 < p[0] < p[-1]
    assert np.all(np.abs(counts / total - p) <= 4.0 * np.sqrt(p * (1.0 - p) / total))


def _draw_triples(n, n_triples, rng):
    # The rows _triple_counts draws, in one draw, and those of three distinct
    # chords.
    raw = rng.integers(0, n, size=(n_triples, 3), dtype=np.int32)
    distinct = (raw[:, 0] != raw[:, 1]) & (raw[:, 0] != raw[:, 2]) & (raw[:, 1] != raw[:, 2])
    return raw, raw[distinct]


def test_subsampled_min_angles_match_python_oracle():
    rng = np.random.default_rng(14)
    normals = hm._sample_normals(3.0, 1300, rng)
    raw, rows = _draw_triples(1300, 2000, rng)
    angles, total = hm._triple_min_angles(normals, hm._endpoint_ranks(normals, 3.0), raw)
    ch = np.cosh(3.0)
    want = []
    for row in rows:
        kappas = []
        ok = True
        for u, v in ((0, 1), (0, 2), (1, 2)):
            kap = float(oracles.mink_dot(normals[row[u]], normals[row[v]]))
            if abs(kap) >= 1.0:
                ok = False
                break
            p = oracles.mink_cross(normals[row[u]], normals[row[v]])
            if abs(p[0]) / np.sqrt(1 - kap**2) >= ch:
                ok = False
                break
            kappas.append(abs(kap))
        if ok:
            want.append(np.arccos(max(kappas)))
    assert 0 < rows.shape[0] < raw.shape[0]
    assert total == rows.shape[0]
    assert len(want) > 0
    assert angles.tolist() == want


def _row_gather_min_angles(normals, rr, idx):
    # The triple scan by the hyperboloid-model route: two (n, 3) row gathers
    # per pair, crosses_inside on every pair and np.sum over a strided axis
    # of two.  _triple_min_angles, which tests endpoint interleaving, must
    # return the same bits.
    ch2 = np.cosh(rr) ** 2
    out = np.full(idx.shape[0], -1.0)
    max_abs_kappa = np.zeros(idx.shape[0])
    valid = np.ones(idx.shape[0], dtype=bool)
    for u, v in ((0, 1), (0, 2), (1, 2)):
        a = normals[idx[:, u]]
        b = normals[idx[:, v]]
        kappa = np.sum(a[:, 1:] * b[:, 1:], axis=1) - a[:, 0] * b[:, 0]
        p0 = a[:, 2] * b[:, 1] - a[:, 1] * b[:, 2]
        valid &= oracles.crosses_inside(kappa, p0, ch2)
        max_abs_kappa = np.maximum(max_abs_kappa, np.abs(kappa))
    out[valid] = np.arccos(np.clip(max_abs_kappa[valid], 0.0, 1.0))
    return out


# At rr = 12, 1,500 chords and 150k rows form no triangle.
@pytest.mark.parametrize("rr", [0.5, 3.0])
def test_column_gathered_scan_matches_row_gather_bits(rr):
    rng = np.random.default_rng(21)
    normals = hm._sample_normals(rr, 1500, rng)
    raw, rows = _draw_triples(1500, 150_000, rng)
    want = _row_gather_min_angles(normals, rr, rows)
    got, total = hm._triple_min_angles(normals, hm._endpoint_ranks(normals, rr), raw)
    assert total == rows.shape[0] < raw.shape[0]
    assert 0 < np.count_nonzero(want >= 0.0) < want.size
    want = want[want >= 0.0]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_repeated_chords_form_no_triangle():
    # A chord paired with itself can pass the hyperboloid predicate
    # crosses_inside: kappa rounds just below 1 while p0 = 0.  By that route,
    # rows that repeat such a chord i next to a chord j that crosses it
    # would count as triangles.
    rng = np.random.default_rng(23)
    normals = hm._sample_normals(3.0, 2000, rng)
    flags, _ = oracles.pair_flag_matrix(normals, 3.0)
    kappa = oracles.mink_dot(normals, normals)
    p0 = oracles.mink_cross(normals, normals)[:, 0]
    self_pass = np.flatnonzero(oracles.crosses_inside(kappa, p0, np.cosh(3.0) ** 2))
    i = int(self_pass[0])
    j = int(np.flatnonzero(flags[i])[0])
    raw, rows = _draw_triples(2000, 20_000, rng)
    forced = np.array([[i, i, j], [i, j, i], [j, i, i]], dtype=np.int32)
    assert np.all(_row_gather_min_angles(normals, 3.0, forced) >= 0.0)
    ranks = hm._endpoint_ranks(normals, 3.0)
    angles, total = hm._triple_min_angles(normals, ranks, forced)
    assert angles.size == 0 and total == 0
    # The forced rows open the first draw chunk of 8,192 rows, straddle its
    # end and close the last, partial chunk.
    script = np.concatenate([forced, raw[:8187], forced, raw[8187:], forced])
    want, want_total = hm._triple_min_angles(normals, ranks, rows)
    got, got_total = hm._triple_min_angles(normals, ranks, script)
    assert got_total == want_total == rows.shape[0]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    cutoffs = np.array([0.3, 0.1])
    gen = _ScriptedDraws(23, script)
    counts, total = hm._triple_counts(K1, 3.0, 2000, gen, cutoffs, script.shape[0])
    assert gen.shapes == [(8192, 3), (8192, 3), (script.shape[0] - 16_384, 3)]
    assert counts.tolist() == [np.count_nonzero(want >= e) for e in cutoffs]
    assert total == want_total


class _ScriptedDraws(np.random.Generator):
    # A PCG64 generator whose integers() hands out the next rows of a fixed
    # script instead, recording the shape of each draw.
    def __init__(self, seed, script):
        super().__init__(np.random.PCG64(seed))
        self.script, self.shapes = script, []

    def integers(self, low, high, size, dtype):
        start = sum(n for n, _ in self.shapes)
        self.shapes.append(size)
        return self.script[start:start + size[0]].astype(dtype)


def test_triple_counts_total_counts_distinct_rows():
    counts, total = hm._triple_counts(K1, 3.0, 1500, 9, np.array([0.3]), 200_000)
    # replay the sampling stream: the chords, then the raw triple draw
    rng = np.random.default_rng(9)
    hm._sample_normals(3.0, 1500, rng)
    raw, rows = _draw_triples(1500, 200_000, rng)
    assert total == rows.shape[0] < raw.shape[0]
    assert counts[0] > 0


@pytest.mark.parametrize("n", [1000, 1217, 65_537, 2**20 + 3, hm.MAX_CHORDS])
def test_int32_triple_draw_matches_int64_stream(n):
    # _triple_counts draws int32 indices in chunks of 8,192 rows; its reports
    # were pinned with one int64 draw, which must give the same values and
    # generator state.
    for seed in range(3):
        narrow, wide = np.random.default_rng(seed), np.random.default_rng(seed)
        got = np.concatenate(
            [narrow.integers(0, n, size=(rows, 3), dtype=np.int32) for rows in (8192, 1808)]
        )
        want = wide.integers(0, n, size=(10_000, 3))
        assert np.array_equal(got, want)
        assert narrow.bit_generator.state == wide.bit_generator.state


@pytest.mark.parametrize("n", [1217, 20_000])
def test_triple_counts_memory_stays_bounded(n):
    # Nothing of size n_triples may exist: one int32 draw of every row alone
    # takes 11.4 MiB at 1M triples, and the scan peaked at 19.5 MiB with it.
    # Nothing of size n**2 may exist either: a dense crossing matrix of
    # 1,217 chords with its angles takes about 70 MiB.
    peaks = []
    for n_triples in (1_000_000, 4_000_000):
        tracemalloc.start()
        try:
            hm._triple_counts(K1, 3.0, n, 3, np.array([0.3, 0.1]), n_triples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 6 * 2**20
    assert peaks[1] <= peaks[0] + 2**20


@pytest.mark.parametrize("n", [1400, 1000])
def test_streamed_triple_counts_match_one_draw(monkeypatch, n):
    # _triple_counts draws and scans 8,192 rows at a time, at every chord
    # count.  Replaying its generator, one draw of every row scanned at once
    # must give the same counts and total, and leave the generator in the
    # same state.
    n_triples = 3 * 8192 + 5
    cutoffs = np.array([0.4, 0.25, 0.1])
    ref = np.random.default_rng(5)
    normals = hm._sample_normals(3.0, n, ref)
    raw = ref.integers(0, n, size=(n_triples, 3), dtype=np.int32)
    angles, want_total = hm._triple_min_angles(normals, hm._endpoint_ranks(normals, 3.0), raw)
    want = [np.count_nonzero(angles >= e) for e in cutoffs]
    assert 0 < want[0] < want[-1] and want_total < n_triples

    scan, scanned = hm._triple_min_angles, []

    def spy(normals, ranks, idx):
        scanned.append(idx.shape[0])
        return scan(normals, ranks, idx)

    monkeypatch.setattr(hm, "_triple_min_angles", spy)
    rng = np.random.default_rng(5)
    counts, total = hm._triple_counts(K1, 3.0, n, rng, cutoffs, n_triples)
    assert scanned == [8192, 8192, 8192, 5]
    assert counts.tolist() == want
    assert total == want_total
    assert rng.bit_generator.state == ref.bit_generator.state


def _one_cutoff(N, eps, seed, n_triples=2_000_000):
    # (triangle count, triples examined) at a single cutoff.
    counts, total = hm._triple_counts(K1, 3.0, N, seed, np.array([eps]), n_triples)
    return counts[0], total


def test_triangle_density_nested_in_cutoff():
    # One call per cutoff on the subsampled path (1500 chords), one seed.
    runs = [_one_cutoff(1500, eps, 3, n_triples=150_000) for eps in (0.4, 0.25, 0.1)]
    assert runs[0][1] == runs[1][1] == runs[2][1]
    # one seed, nested events: monotone without any stderr allowance
    assert runs[0][0] <= runs[1][0] <= runs[2][0]


def test_cutoff_gates():
    assert _one_cutoff(1200, 0.5 * np.pi - 1e-9, 0)[0] == 0.0


def test_pair_density_radius_doubling():
    d3, e3 = hm.pair_intersection_density(K1, 3.0, 6000, 41)
    d6, e6 = hm.pair_intersection_density(K1, 6.0, 6000, 42)
    assert abs(d3 - d6) <= 2 * np.hypot(e3, e6)
    assert np.isclose(d3, 2 * np.pi, rtol=0.05)


def test_pair_density_seed_stability():
    d1, e1 = hm.pair_intersection_density(K1, 3.0, 6000, 5)
    d2, e2 = hm.pair_intersection_density(K1, 3.0, 6000, 77)
    assert abs(d1 - d2) <= 3 * np.hypot(e1, e2)


def test_triangle_bulk_density_radius_doubling():
    # bulk intensity: triangle measure per unit disk area
    def replicate_mean(radius):
        # triangle fraction times the cubed chord measure, per disk area
        scale = hm.disk_perimeter(K1, radius) ** 3 / hm.disk_area(K1, radius)
        vals = []
        for s in range(200, 208):
            counts, total = hm._triple_counts(K1, radius, 1100, s, np.array([0.3]), 2_000_000)
            vals.append(counts[0] / total * scale)
        v = np.asarray(vals)
        return v.mean(), v.std(ddof=1) / np.sqrt(v.size)

    m4, s4 = replicate_mean(4.0)
    m8, s8 = replicate_mean(8.0)
    assert abs(m4 - m8) <= 2 * np.hypot(s4, s8)


def test_epsilon_limit_scan():
    fit = hm.epsilon_limit_scan(
        K1, 3.0, 2000, (0.4, 0.3, 0.2, 0.15, 0.1), 7, n_triples=300_000
    )
    assert fit.intercept > 0
    assert fit.metadata["total"] > 0
    assert fit.x.tolist() == [0.2, 0.15, 0.1]
    counts = np.asarray(fit.metadata["counts"])
    assert counts.size == fit.y.size == 3
    assert np.all(np.diff(counts) >= 0)
    assert np.all(np.diff(fit.y) >= 0)


def test_epsilon_limit_scan_memory_ignores_leading_cutoffs():
    # Only the last three cutoffs reach the fit, so cutoffs before them may
    # cost no memory in the triple scan.  A column per cutoff over each
    # chunk's triangles raised this scan's peak by 24 MiB at 20,000 leading
    # cutoffs.
    tail = (0.4, 0.3, 0.2, 0.15, 0.1)
    long_list = (*np.linspace(1.5, 0.45, 20_000).tolist(), *tail)
    peaks, intercepts = [], []
    for eps_list in (tail, long_list):
        tracemalloc.start()
        try:
            fit = hm.epsilon_limit_scan(K1, 0.01, 1000, eps_list, 5, n_triples=hm.MIN_TRIPLES)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        intercepts.append(fit.intercept)
    assert abs(peaks[1] - peaks[0]) <= 4 * 2**20
    assert intercepts[0] == intercepts[1]


def test_loglog_fit_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = hm.loglog_fit(x, 3.0 * x**-2.0)
    assert np.isclose(fit.slope, -2.0, atol=1e-12)
    assert np.isclose(fit.intercept, np.log(3.0), atol=1e-12)
    assert fit.half_width < 1e-12
    with pytest.raises(ExtrapolationUnstable):
        hm.loglog_fit(x, np.array([1.0, 2.0, 0.0, 4.0, 5.0]))
    with pytest.raises(ExtrapolationUnstable, match="requires positive values"):
        hm.loglog_fit(x, np.array([1.0, 2.0, np.nan, 4.0, 5.0]))


def test_t_quantiles_are_scipy_values():
    from scipy.special import stdtrit

    assert len(hm.T_QUANTILES_95) == hm.MAX_FIT_POINTS - 2 == 62
    for df, tq in enumerate(hm.T_QUANTILES_95, start=1):
        assert tq == float(stdtrit(df, 0.975)), df


def test_loglog_fit_takes_at_most_64_points():
    x = np.geomspace(1.0, 10.0, 65)
    y = x**-0.5 * np.exp(np.random.default_rng(0).normal(0.0, 0.1, x.size))
    fit = hm.loglog_fit(x[:64], y[:64])
    _, _, se_slope, _ = hm._linear_fit(np.log(x[:64]), np.log(y[:64]))
    assert fit.half_width == hm.T_QUANTILES_95[-1] * se_slope > 0


def test_parallelism_angle_closed_form_vs_shooting():
    for rr in (5.0, 8.0, 12.0):
        # rotational symmetry: position on the circle is immaterial
        for x1 in (0.7, 2.9):
            shot = oracles.parallelism_angle_shooting(K1, rr, x1)
            assert abs(shot - 2.0 * np.arctan(np.exp(-rr))) < 1e-10
        ratio = hm.parallelism_ratio(K1, rr)
        assert np.isclose(
            ratio, 2.0 * np.arctan(np.exp(-rr)) / hm.disk_perimeter(K1, rr)
        )
    with pytest.raises(ValueError, match="circle radius must reach 5 curvature units"):
        oracles.parallelism_angle_shooting(K1, 4.9, 0.0)


def test_parallelism_ratio_scaling_exponent():
    grid = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    vals = []
    for lam in grid:
        K = hm.lambda_to_curvature(lam)
        rho = 1.0 / np.sqrt(-K)
        vals.append(hm.parallelism_ratio(K, 5.0 * rho))
    fit = hm.loglog_fit(grid, np.asarray(vals))
    assert abs(fit.slope + 1.0 / 3.0) < 1e-12


def _alpha_scaling(grid):
    return hm.alpha_scaling(grid, 3000, 3.0, (0.4, 0.3, 0.2, 0.15, 0.1), 200_000, 12)


def test_alpha_scaling_small_run():
    fit = _alpha_scaling((1.0, 2.0, 4.0, 8.0, 16.0))
    assert abs(fit.slope - hm.ALPHA_EXPONENT) <= max(fit.half_width, 0.12)
    assert fit.metadata == {}


def test_m5_fiber_quintuple():
    base = haar_sample(np.random.default_rng(1), 5)
    fibers = [hopf_fiber(b, "right") for b in base]
    out = hm.m5_quintuple_details(fibers)
    assert out["triangles"] == 10
    assert out["linking_product"] == 1
    assert out["estimate"] == 10.0
    lk = build_linking_matrix(fibers)
    assert np.all(lk[~np.eye(5, dtype=bool)] == 1)


def test_m5_far_circles_and_mixed():
    centers = np.linspace(-3.0, 3.0, 5)
    far = [
        circle_in_chart(np.array([0.0, 0.0, c]), 0.25, normal_axis=i % 3)
        for i, c in enumerate(centers)
    ]
    out = hm.m5_quintuple_details(far)
    assert out["estimate"] == 0.0
    base = haar_sample(np.random.default_rng(2), 4)
    mixed = [hopf_fiber(b, "right") for b in base]
    mixed.append(circle_in_chart(np.array([0.0, 0.0, 2.5]), 0.2))
    out = hm.m5_quintuple_details(mixed)
    assert out["linking_product"] == 0
    assert out["estimate"] == 0.0


def test_sample_geodesic_seed_forms():
    a = oracles.sample_geodesic(K1, 3.0, 19)
    b = oracles.sample_geodesic(K1, 3.0, np.random.default_rng(19))
    assert np.array_equal(a.normal, b.normal)
    assert np.array_equal(a.base, b.base)
    assert a.foot_distance == b.foot_distance
