"""Algebraic identities for the quaternion helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
