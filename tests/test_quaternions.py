"""Algebraic identities for the quaternion helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from curlwave.quaternions import (
    I,
    IMAG_UNITS,
    J,
    K,
    haar_sample,
    qconj,
    qmul,
    slerp,
)

ONE = np.array([1.0, 0.0, 0.0, 0.0])
finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def quat_arrays():
    return st.tuples(finite, finite, finite, finite).map(np.array).filter(
        lambda q: np.linalg.norm(q) > 1e-2
    )


def test_imag_unit_table():
    # i j = k and cyclic, i^2 = -1
    assert np.allclose(qmul(I, J), K)
    assert np.allclose(qmul(J, K), I)
    assert np.allclose(qmul(K, I), J)
    for q in IMAG_UNITS:
        assert np.allclose(qmul(q, q), -ONE)


@given(quat_arrays(), quat_arrays(), quat_arrays())
@settings(max_examples=60, deadline=None)
def test_associativity(p, q, r):
    lhs = qmul(qmul(p, q), r)
    rhs = qmul(p, qmul(q, r))
    assert np.allclose(lhs, rhs, atol=1e-10)


@given(quat_arrays())
@settings(max_examples=60, deadline=None)
def test_identity_and_conjugate(q):
    assert np.allclose(qmul(ONE, q), q)
    assert np.allclose(qmul(q, ONE), q)
    # q qbar = |q|^2
    prod = qmul(q, qconj(q))
    assert np.allclose(prod, np.dot(q, q) * ONE, atol=1e-10)


@given(quat_arrays(), quat_arrays())
@settings(max_examples=60, deadline=None)
def test_norm_multiplicative(p, q):
    pq = qmul(p, q)
    assert np.isclose(np.dot(pq, pq), np.dot(p, p) * np.dot(q, q), rtol=1e-10)


@given(quat_arrays(), quat_arrays())
@settings(max_examples=60, deadline=None)
def test_conjugate_antiautomorphism(p, q):
    assert np.allclose(qconj(qmul(p, q)), qmul(qconj(q), qconj(p)), atol=1e-10)


def test_normalize_and_slerp_endpoints():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, 4))
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    assert np.allclose(slerp(a, b, np.array([0.0])), a, atol=1e-12)
    assert np.allclose(slerp(a, b, np.array([1.0])), b, atol=1e-12)
    mid = slerp(a, b, np.array([0.5]))[0]
    assert np.isclose(np.linalg.norm(mid), 1.0, atol=1e-12)


@pytest.mark.parametrize("eta", [1e-2, 1e-3, 1e-4, 1e-6, 2e-8, 1e-12, 0.0])
def test_slerp_stays_on_the_sphere_near_antipodal_endpoints(eta):
    # b is eta rad short of -a.  The arc from a to b alone has weights of
    # order 1 / eta, which carry roundoff off the sphere by about 1e-16 / eta;
    # through the quarter-turn point every part has weights below 2.  At
    # eta = 0 no great circle joins a and b, and the quarter-turn point is i a.
    a, c = haar_sample(np.random.default_rng(5), 2)
    c = c - np.dot(c, a) * a
    c /= np.linalg.norm(c)
    b = -np.cos(eta) * a + np.sin(eta) * c
    arc = slerp(a, b, np.linspace(0.0, 1.0, 1001))
    assert np.array_equal(arc[0], a) and np.array_equal(arc[-1], b)
    assert np.max(np.abs(np.linalg.norm(arc, axis=1) - 1.0)) <= 1e-14
    # Equal steps in t are equal steps along the arc.
    steps = np.arccos(np.clip(np.sum(arc[1:] * arc[:-1], axis=1), -1.0, 1.0))
    assert np.ptp(steps) <= 1e-12


def test_haar_sample_unit_and_deterministic():
    a = haar_sample(np.random.default_rng(11), 256)
    b = haar_sample(np.random.default_rng(11), 256)
    assert a.shape == (256, 4)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    # both hemispheres of every coordinate get hit
    assert (a[:, 0] > 0).any() and (a[:, 0] < 0).any()


def test_batched_multiplication_shape():
    rng = np.random.default_rng(5)
    p = rng.normal(size=(4, 17))
    q = rng.normal(size=(4, 17))
    out = qmul(p, q)
    assert out.shape == (4, 17)
    for k in range(17):
        assert np.allclose(out[:, k], qmul(p[:, k], q[:, k]), atol=1e-12)


def _constants():
    rng = np.random.default_rng(21)
    unit = haar_sample(rng, 1)[0]
    return [
        ("one", ONE),
        *((f"imag{k}", q) for k, q in enumerate(IMAG_UNITS)),
        ("unit", unit),
        ("scaled", 1e3 * unit),
        ("tiny", 1e-200 * rng.normal(size=4)),
        ("signed zeros", np.array([-0.0, 0.0, -0.0, 0.5])),
    ]


def _batches():
    rng = np.random.default_rng(22)
    # From empty to one ym_residual block of 4,096 points, and batches with
    # more than one trailing axis.
    shapes = [(4, 0), (4, 1), (4, 7), (4, 200), (4, 768), (4, 4096), (4, 5, 3), (4, 24, 32), (4, 0, 3)]
    out = []
    for shape in shapes:
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        # Zero columns and negative zeros: -0.0 and 0.0 sums differ in sign.
        x[:, ::5] = 0.0
        x[1:3, 1::5] = -0.0
        out.append((f"{shape}", x))
    # A batch read through a transposed view, as paths[:, k].T would be.
    out.append(("transposed", np.ascontiguousarray(rng.normal(size=(300, 4))).T))
    return out


def _same_floats(a, b):
    # np.array_equal counts -0.0 equal to 0.0; the bytes tell them apart.
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name, c", _constants())
def test_product_with_one_quaternion_matches_the_16_term_loop(name, c):
    # A batch times one (4,) quaternion, on either side: every float,
    # signed zeros included, equals the reference loop's.
    for label, x in _batches():
        assert _same_floats(qmul(c, x), oracles.qmul_reference(c, x)), f"{name} * {label}"
        assert _same_floats(qmul(x, c), oracles.qmul_reference(x, c)), f"{label} * {name}"


def test_complex_and_array_products_match_the_16_term_loop():
    rng = np.random.default_rng(23)
    c = haar_sample(rng, 1)[0]
    x = rng.normal(size=(4, 64))
    z = x + 1j * rng.normal(size=(4, 64))
    for p, q in ((c, z), (z, c), (c.astype(complex), x), (x, z), (x, x[:, ::-1]), (c, c)):
        assert _same_floats(qmul(p, q), oracles.qmul_reference(p, q))
