"""Finite-difference curvature oracle against the algebraic formulas."""

import numpy as np

import oracles
from curlwave import frames


def test_sphere_oracle_matches_milnor_su2():
    for spec, amp in ((frames.su2_unit(), 1.0), (frames.su2_halved(), 0.5)):
        fd = oracles.fd_sectional(*oracles.sphere_chart_setup("left", amp, spec.g))
        alg = frames.milnor_curvatures(spec)
        assert np.allclose(fd, alg, atol=1e-6), spec.name


def test_geometry_oracle_matches_milnor():
    for lam in (0.5, 1.0, 2.0):
        fd = oracles.fd_sectional(*oracles.geometry_chart_setup(lam))
        alg = frames.milnor_curvatures(frames.lambda_geometry(lam))
        assert np.allclose(fd, alg, atol=1e-6), lam


def test_right_bundle_oracle_matches_milnor():
    for lam in (0.5, 1.0, 2.0):
        fd = oracles.fd_sectional(*oracles.right_chart_setup(lam))
        alg = frames.milnor_curvatures(frames.lambda_right(lam))
        assert np.allclose(fd, alg, atol=1e-6), lam


def test_sphere_radius_scaling():
    # radius R sphere has constant sectional curvature 1/R^2; the metric
    # must declare the true round length (amp * R)^2 of each leg
    metric_fn, dirs, p0 = oracles.sphere_chart_setup(
        "left", 1.0, 4.0 * np.ones(3), radius=2.0
    )
    ks = oracles.fd_sectional(metric_fn, dirs, p0)
    assert np.allclose(ks, 0.25, atol=1e-6)


def test_metric_from_frame_rows_positive_definite():
    metric_fn, dirs, p0 = oracles.geometry_chart_setup(1.0)
    m = metric_fn(p0)
    assert np.allclose(m, m.T, atol=1e-13)
    assert np.all(np.linalg.eigvalsh(m) > 0)


def test_fd_sectional_insensitive_to_step_halving():
    metric_fn, dirs, p0 = oracles.geometry_chart_setup(1.0)
    a = np.array(oracles.fd_sectional(metric_fn, dirs, p0, h=2e-3))
    b = np.array(oracles.fd_sectional(metric_fn, dirs, p0, h=1e-3))
    assert np.max(np.abs(a - b)) < 1e-6


def test_uhp_base_rows_bracket_structure():
    # numerical Lie brackets of (F, X, Y): [F,X] = Y, [F,Y] = -X, [X,Y] = -F
    def flow(which, p):
        return oracles.uhp_base_rows(p)[which]

    p0 = np.array([0.3, 0.9, 1.1])
    h = 1e-6

    def bracket(iu, iv):
        # [U,V] = dV(U) - dU(V) componentwise in coordinates
        out = np.zeros(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            dv = (flow(iv, p0 + e) - flow(iv, p0 - e)) / (2 * h)
            du = (flow(iu, p0 + e) - flow(iu, p0 - e)) / (2 * h)
            out += flow(iu, p0)[k] * dv - flow(iv, p0)[k] * du
        return out

    base = oracles.uhp_base_rows(p0)
    assert np.allclose(bracket(0, 1), base[2], atol=1e-6)
    assert np.allclose(bracket(0, 2), -base[1], atol=1e-6)
    assert np.allclose(bracket(1, 2), -base[0], atol=1e-6)
