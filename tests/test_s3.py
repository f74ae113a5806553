"""Sphere frames: curl residuals, gauge residual, functional quadrature."""

import numpy as np
import pytest

from curlwave import frames, s3
from curlwave.quaternions import haar_sample, qmul


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
    ab = s3.gauge_bracket(a, b)(x)
    ba = s3.gauge_bracket(b, a)(x)
    assert np.max(np.abs(ab + ba)) < 1e-12
