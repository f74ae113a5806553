"""Sphere frames: curl residuals, gauge residual, functional quadrature."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from curlwave import frames, s3
from curlwave.quaternions import haar_sample, qmul
from curlwave.seeds import fixed_chunks, substream


def _sample(n=200, seed=0):
    return haar_sample(np.random.default_rng(seed), n)


def test_chart_round_trip():
    x = _sample(300, 1)
    for chart in (0, 1):
        u = s3.chart_point(x, chart)
        back = s3.chart_embed(u, chart)
        assert np.max(np.abs(back - x)) < 1e-12


def test_conformal_factor_positive():
    u = s3.chart_point(_sample(100, 2), 0)
    assert np.all(s3.conformal_factor(u) > 0)


def test_trace_pair_normalization():
    from curlwave.quaternions import I, J

    # tr(i i) = 4 under the -4 Re convention; orthogonal units vanish
    assert np.isclose(s3.trace_pair(I, I), 4.0)
    assert np.isclose(s3.trace_pair(I, J), 0.0)
    assert s3.TRACE_NORMALIZATION == -2.0


def test_leg_index_validation():
    frame = s3.build_frame("left")
    with pytest.raises(ValueError):
        frame.leg(0)
    with pytest.raises(ValueError):
        frame.leg(4)
    with pytest.raises(ValueError):
        s3.build_frame("sideways")


def test_left_frame_is_curl_eigenfield():
    frame = s3.build_frame("left")
    x = _sample(150, 3)
    for l in (1, 2, 3):
        _, v, c = s3.curl_field(frame.leg(l), x)
        assert np.max(np.abs(c + 2.0 * v)) < 1e-10, l


def test_right_frame_is_curl_eigenfield():
    frame = s3.build_frame("right")
    x = _sample(150, 4)
    for l in (1, 2, 3):
        _, v, c = s3.curl_field(frame.leg(l), x)
        assert np.max(np.abs(c - 2.0 * v)) < 1e-10, l


def test_lambda_realized_frame_eigenvalue():
    # Legs x*q/sqrt(lam) on the radius-lam sphere have squared length lam and
    # bracket constant 2/sqrt(lam), the normalized triple lambda_fields(lam).
    lam = 4.0
    frame = s3.S3Frame("left", frames.lambda_fields(lam), radius=lam, amp=lam**-0.5)
    x = lam * _sample(100, 5)
    _, v, c = s3.curl_field(frame.leg(1), x, radius=lam)
    assert np.max(np.abs(c + (2.0 / lam) * v)) < 1e-10


def test_ym_residual_left_vanishes_right_does_not():
    left = s3.ym_residual(s3.build_frame("left"), n_points=300, seed=0)
    right = s3.ym_residual(s3.build_frame("right"), n_points=300, seed=0)
    assert left < 1e-8
    assert right > 0.1


def _gauge_bracket(fa, fb):
    # Pointwise algebra commutator of two fields on the unit sphere, mapped
    # back to a field: the field-level form of the brackets in the residual.
    na = s3.nu_of(fa)
    nb = s3.nu_of(fb)

    def bracket(x):
        pa = na(x)
        pb = nb(x)
        return 2.0 * qmul(np.asarray(x), qmul(pa, pb) - qmul(pb, pa))

    return bracket


def _unblocked_ym_residual(frame, n_points, seed):
    # The residual loop before it split each chart into blocks of points and
    # shared the profiles between legs: leg by leg, every bracket a field
    # built from field brackets, every complex temporary spanning the whole
    # chart.  ym_residual must return the same float.
    x = haar_sample(substream(seed, 0), n_points)
    legs = frame.legs()
    worst = 0.0
    for l in range(3):
        i, j = (l + 1) % 3, (l + 2) % 3
        pair = _gauge_bracket(legs[i], legs[j])
        cubic_i = _gauge_bracket(legs[i], _gauge_bracket(legs[l], legs[i]))
        cubic_j = _gauge_bracket(legs[j], _gauge_bracket(legs[l], legs[j]))
        for ch, idx, u in s3.group_by_chart(x, frame.radius):
            res = s3.curl_in_chart(pair, u, ch, frame.radius)
            res = res + np.real(s3.field_in_chart(cubic_i, u, ch, frame.radius))
            res = res + np.real(s3.field_in_chart(cubic_j, u, ch, frame.radius))
            norms = np.sqrt(s3.chart_inner(u, res, res, frame.radius))
            worst = max(worst, float(np.max(norms)))
    return worst


def _with_squared_norms(monkeypatch, residual, slots, n_points):
    # (residual(), its squared norms by leg and point).  slots gives the
    # (leg, point indices) of each chart_inner call, in call order.
    seen = []
    inner = s3.chart_inner

    def recording(u, a, b, radius=1.0):
        seen.append(inner(u, a, b, radius))
        return seen[-1]

    monkeypatch.setattr(s3, "chart_inner", recording)
    value = residual()
    monkeypatch.undo()
    assert len(seen) == len(slots)
    by_leg = np.full((3, n_points), np.nan)
    for sq, (l, idx) in zip(seen, slots):
        assert sq.shape == idx.shape
        by_leg[l, idx] = sq
    assert not np.any(np.isnan(by_leg))
    return value, by_leg


@pytest.mark.parametrize("side", ["left", "right"])
def test_blocked_ym_residual_matches_unblocked_loop(side, monkeypatch):
    frame = s3.build_frame(side)
    groups = s3.group_by_chart(haar_sample(substream(5, 0), 10_000), 1.0)
    assert groups[0][1].size > 2 * 4096  # chart 0 spans three blocks
    # ym_residual runs chart, block, leg; the reference runs leg, chart.
    blocked = [
        (l, idx[lo:hi])
        for _, idx, _ in groups
        for lo, hi in fixed_chunks(idx.size, 4096)
        for l in range(3)
    ]
    unblocked = [(l, idx) for l in range(3) for _, idx, _ in groups]
    got, got_sq = _with_squared_norms(
        monkeypatch, lambda: s3.ym_residual(frame, 10_000, 5), blocked, 10_000
    )
    want, want_sq = _with_squared_norms(
        monkeypatch, lambda: _unblocked_ym_residual(frame, 10_000, 5), unblocked, 10_000
    )
    assert got == want
    # Every point of every leg, not only the maximum, is the same float.
    assert np.array_equal(got_sq.view(np.int64), want_sq.view(np.int64))


def test_ym_residual_shares_profiles_between_legs(monkeypatch):
    # 4,000 points make one block per chart.  Evaluated leg by leg, each
    # block made 141 qmul, 42 qconj and 15 chart_embed calls; sharing the
    # embeddings, conj(x) and the leg profiles leaves 93, 4 and 4.
    blocks = len(s3.group_by_chart(haar_sample(substream(0, 0), 4000), 1.0))
    assert blocks == 2
    calls = Counter()
    for name in ("qmul", "qconj", "chart_embed"):
        def counting(*args, _fn=getattr(s3, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(s3, name, counting)
    assert s3.ym_residual(s3.build_frame("right"), n_points=4000, seed=0) > 0.1
    assert 0 < calls["qmul"] <= 93 * blocks
    assert 0 < calls["qconj"] <= 4 * blocks
    assert 0 < calls["chart_embed"] <= 4 * blocks


def test_ym_residual_memory_is_bounded_by_its_blocks():
    # Whole-chart temporaries peaked at 29 MiB at this size (about 500 B per point).
    frame = s3.build_frame("right")
    tracemalloc.start()
    try:
        right = s3.ym_residual(frame, n_points=60_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert right > 0.1
    assert peak < 16 * 2**20


def test_helicity_density_left_constant():
    frame = s3.build_frame("left")
    x = _sample(120, 6)
    a = frame.leg(1)
    b = lambda p: -2.0 * a(p)
    dens = s3.helicity_density(a, b, x)
    assert np.max(np.abs(dens + 2.0)) < 1e-10


def test_cs_densities_constant():
    frame = s3.build_frame("left")
    x = _sample(50, 7)
    t1, t2 = s3.cs_densities(frame, x)
    assert np.max(np.abs(t1 + 6.0)) < 1e-10
    assert np.max(np.abs(t2 - 3.0)) < 1e-10
    t1r, t2r = s3.cs_densities(s3.build_frame("right"), x)
    assert np.max(np.abs(t1r - 6.0)) < 1e-10
    assert np.max(np.abs(t2r - 3.0)) < 1e-10


def test_cs_functional_left_values():
    term1, term2 = s3.cs_functional(s3.build_frame("left"), 4000, seed=0)
    vol = s3.VOL_UNIT_SPHERE
    # constant densities make the quadrature exact
    assert np.isclose(term1, -6.0 * vol, rtol=1e-12)
    assert np.isclose(term2, 3.0 * vol, rtol=1e-12)
    # term1 equals (per-component helicity -2) x (3 components) x volume
    assert abs(term1 - (-2.0) * 3.0 * vol) / abs(term1) < 0.01


def test_cs_functional_rotation_invariance():
    # left translation by a fixed unit quaternion is a round isometry
    frame = s3.build_frame("left")
    base = s3.cs_functional(frame, 3000, seed=8)
    g = np.array([0.3, -0.5, 0.8, 0.1])
    g /= np.linalg.norm(g)

    rot = haar_sample(np.random.default_rng(8), 3000)
    rot = np.array([qmul(g, p) for p in rot])
    t1 = np.mean(s3.cs_densities(frame, rot)[0]) * s3.VOL_UNIT_SPHERE
    t2 = np.mean(s3.cs_densities(frame, rot)[1]) * s3.VOL_UNIT_SPHERE
    assert abs(t1 - base[0]) / abs(base[0]) < 0.01
    assert abs(t2 - base[1]) / abs(base[1]) < 0.01


def test_wedge_density_cross_check():
    # connection-form route agrees with the algebraic triple density on the
    # unit-sphere frames (the pairing cs_functional relies on)
    frame = s3.build_frame("left")
    spec = frames.su2_unit()
    x = _sample(60, 10)
    nu_vals = np.stack([s3.nu_of(leg, frame.radius)(x) for leg in frame.legs()])
    vals = s3.wedge_density_values(nu_vals, spec)
    target = frames.triple_density_algebraic(spec)
    assert np.max(np.abs(vals - target)) < 1e-10
    # algebra-valued products keep the left bracket sign, so the wedge term
    # of the right frame stays +3 while its frame Cartan coefficient is -3
    xr = _sample(20, 11)
    right = s3.build_frame("right")
    nu_r = np.stack([s3.nu_of(leg, 1.0)(xr) for leg in right.legs()])
    assert np.allclose(s3.wedge_density_values(nu_r, frames.su2_right()), 3.0)
    assert frames.triple_density_algebraic(frames.su2_right()) == -3.0


def test_gauge_bracket_antisymmetric():
    frame = s3.build_frame("left")
    a, b = frame.leg(1), frame.leg(2)
    x = _sample(40, 9)
    ab = _gauge_bracket(a, b)(x)
    ba = _gauge_bracket(b, a)(x)
    assert np.max(np.abs(ab + ba)) < 1e-12
    # The value-level bracket of the residual loop is the same float.
    pa, pb = s3.nu_of(a)(x), s3.nu_of(b)(x)
    assert np.array_equal(s3._bracket_values(x, pa, pb), ab)
    assert np.array_equal(s3._bracket_values(x, pb, pa), ba)
