"""Lambda frame family: densities, curvature profile."""

import numpy as np

from curlwave import frames, hyperbolic

GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def test_helicity_density_minus_two_all_lambda():
    for lam in GRID:
        h = hyperbolic.lambda_report_row(lam)["h_density"]
        assert abs(h + 2.0) <= 1e-15, lam
    # perfect-square lambdas evaluate bit-exactly
    for lam in (0.25, 1.0, 4.0):
        assert hyperbolic.lambda_report_row(lam)["h_density"] == -2.0


def test_triple_density_product_constant():
    products = [hyperbolic.lambda_report_row(lam)["t_density"] * lam for lam in GRID]
    spread = max(products) - min(products)
    assert spread < 1e-10
    assert abs(products[0] - 3.0) < 1e-12


def test_normalized_curl_eigenvalues():
    for lam in (0.25, 1.0, 4.0):
        row = hyperbolic.lambda_report_row(lam)
        eigs = np.array([row[f"curl_eig_{l}"] for l in (1, 2, 3)])
        assert np.array_equal(eigs, frames.curl_eigenvalues(frames.lambda_fields(lam)))
        assert np.max(np.abs(eigs + 2.0 / lam)) < 1e-12


def test_frame_volume_raw_equals_lambda():
    for lam in (0.5, 1.0, 4.0):
        assert np.isclose(hyperbolic.lambda_report_row(lam)["raw_right_volume"], lam, rtol=1e-12)


def test_lambda_report_row_needs_a_normal_cube():
    # lambda_fields gives each leg the metric lambda, so the frame volume takes
    # lambda**3.  At the ends of the normal doubles the densities still hold;
    # beyond them the rows come out wrong (h_density -2.002 at 1e-107, -0.0 at
    # 1e103), and validate() admits only VERIFIED_LAMBDA_RANGE, well inside.
    for lam in (2.812644285236262e-103, 5.643803094122361e102):
        row = hyperbolic.lambda_report_row(lam)
        assert abs(row["h_density"] + 2.0) <= 1e-10
        assert abs(row["t_density_times_lambda"] - 3.0) <= 1e-10


def test_sectional_profile_unit_lambda():
    ks = hyperbolic.sectional_profile(1.0)
    assert np.allclose(ks, (-1.0, -1.0, -1.0), atol=1e-12)


def test_sectional_profile_closed_forms():
    for lam in GRID:
        h, v1, v2 = hyperbolic.sectional_profile(lam)
        assert np.isclose(h, -lam ** (-2.0 / 3.0), atol=1e-12)
        assert np.isclose(v1, -lam ** (-5.0 / 3.0), atol=1e-12)
        assert np.isclose(v2, -lam ** (-5.0 / 3.0), atol=1e-12)


def test_sectional_profile_flattens():
    ks = hyperbolic.sectional_profile(1e6)
    assert np.max(np.abs(ks)) <= 1e-4 + 1e-12


def test_horizontal_slope_is_minus_two_thirds():
    lams = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    horiz = np.array([-hyperbolic.sectional_profile(l)[0] for l in lams])
    slope = np.polyfit(np.log(lams), np.log(horiz), 1)[0]
    assert abs(slope + 2.0 / 3.0) < 0.01


def test_report_row_keys_and_values():
    row = hyperbolic.lambda_report_row(4.0)
    expected = {
        "cover_volume_factor",
        "curl_eig_1",
        "curl_eig_2",
        "curl_eig_3",
        "h_density",
        "horizontal_curvature",
        "lambda",
        "raw_right_volume",
        "t_density",
        "t_density_times_lambda",
        "vertical_curvature_1",
        "vertical_curvature_2",
    }
    assert set(row) == expected
    assert row["lambda"] == 4.0
    assert row["cover_volume_factor"] == hyperbolic.COVER_VOLUME_FACTOR == 2.0
    assert row["raw_right_volume"] == 4.0
    assert abs(row["h_density"] + 2.0) <= 1e-15
    assert np.isclose(row["t_density_times_lambda"], 3.0, atol=1e-12)
    assert np.isclose(row["horizontal_curvature"], -4.0 ** (-2.0 / 3.0))
