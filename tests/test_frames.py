"""Structure-constant frames: curl spectra and curvatures."""

import numpy as np
import pytest

from curlwave import frames
from curlwave.errors import NotEigenfield

LAMBDAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def all_specs():
    out = list(frames.default_fleet().values())
    for lam in LAMBDAS:
        out.append(frames.lambda_fields(lam))
        out.append(frames.lambda_right(lam))
        out.append(frames.lambda_geometry(lam))
    return out


def test_fleet_jacobi_residual():
    for spec in all_specs():
        assert frames.jacobi_residual_of(spec.c) < 1e-12, spec.name


def test_curl_matrix_su2_values():
    assert np.allclose(frames.curl_matrix(frames.su2_unit()), -2.0 * np.eye(3))
    assert np.allclose(frames.curl_matrix(frames.su2_right()), 2.0 * np.eye(3))
    assert np.allclose(frames.curl_matrix(frames.su2_halved()), -2.0 * np.eye(3))


def test_curl_eigenvalue_matches_matrix_diagonal():
    for spec in (frames.su2_unit(), frames.lambda_fields(2.0), frames.lambda_right(3.0)):
        mat = frames.curl_matrix(spec)
        for l in (1, 2, 3):
            assert frames.curl_eigenvalue(spec, l) == mat[l - 1, l - 1]


def test_lambda_fields_eigenvalue_is_minus_two_over_lambda():
    # bit-exact for perfect-square lambda, 1e-12 otherwise
    for lam in (0.25, 1.0, 4.0):
        eigs = frames.curl_eigenvalues(frames.lambda_fields(lam))
        assert np.array_equal(eigs, np.full(3, -2.0 / lam))
    for lam in LAMBDAS:
        eigs = frames.curl_eigenvalues(frames.lambda_fields(lam))
        assert np.max(np.abs(eigs + 2.0 / lam)) < 1e-12


def test_lambda_right_spectrum():
    eigs = frames.curl_eigenvalues(frames.lambda_right(4.0))
    assert np.allclose(eigs, [1.0, -0.25, -0.25], atol=1e-14)


def test_metric_scale_covariance():
    # g -> s^2 g sends every eigenvalue to eigenvalue / s
    for spec in (frames.su2_unit(), frames.su2_right(), frames.lambda_fields(2.0)):
        base = frames.curl_eigenvalues(spec)
        for s in (0.5, 2.0, 4.0):
            scaled_spec = frames.LieFrameSpec("scaled", spec.c, spec.g * s**2)
            scaled = frames.curl_eigenvalues(scaled_spec)
            assert np.allclose(scaled, base / s, rtol=1e-12), (spec.name, s)


def test_not_eigenfield_raises():
    spec = frames.lambda_geometry(1.0)
    assert np.isclose(frames.curl_eigenvalue(spec, 1), -2.0)
    with pytest.raises(NotEigenfield):
        frames.curl_eigenvalue(spec, 2)
    with pytest.raises(NotEigenfield):
        frames.curl_eigenvalue(spec, 3)


def test_leg_argument_validation():
    with pytest.raises(ValueError, match="frame leg must be 1, 2 or 3"):
        frames.curl_eigenvalue(frames.su2_unit(), 0)
    with pytest.raises(ValueError, match="frame leg must be 1, 2 or 3"):
        frames.curl_eigenvalue(frames.su2_unit(), 4)


def test_milnor_curvatures_su2():
    assert np.allclose(frames.milnor_curvatures(frames.su2_unit()), (1.0, 1.0, 1.0))


def test_milnor_curvatures_lambda_geometry_closed_form():
    for lam in LAMBDAS:
        k12, k13, k23 = frames.milnor_curvatures(frames.lambda_geometry(lam))
        v = -lam ** (-5.0 / 3.0)
        h = -lam ** (-2.0 / 3.0)
        assert np.isclose(k12, v, atol=1e-12)
        assert np.isclose(k13, v, atol=1e-12)
        assert np.isclose(k23, h, atol=1e-12)


def test_milnor_curvatures_lambda_right_unit():
    # unit tangent bundle metric of the curvature -1 plane
    k12, k13, k23 = frames.milnor_curvatures(frames.lambda_right(1.0))
    assert np.allclose((k12, k13, k23), (0.25, 0.25, -1.75), atol=1e-12)


def test_helicity_density_fleet():
    for lam in LAMBDAS:
        spec = frames.lambda_fields(lam)
        for l in (1, 2, 3):
            assert abs(frames.helicity_density_algebraic(spec, l) + 2.0) <= 1e-15
    for l in (1, 2, 3):
        assert frames.helicity_density_algebraic(frames.su2_unit(), l) == -2.0
        assert frames.helicity_density_algebraic(frames.su2_right(), l) == 2.0


def test_triple_density_scales_inverse_lambda():
    for lam in LAMBDAS:
        t = frames.triple_density_algebraic(frames.lambda_fields(lam))
        assert abs(t * lam - 3.0) < 1e-14
    assert frames.triple_density_algebraic(frames.su2_unit()) == 3.0

