"""Quaternion arithmetic on numpy arrays.

A quaternion is stored component first: a (4, ...) array whose rows are
(w, x, y, z), with w the real part.  qmul and qconj broadcast over the
trailing axes, so a (4, N) batch keeps each component in one contiguous row,
and a constant (4,) quaternion multiplies a whole batch.  Complex dtypes are
allowed (needed for complex-step derivatives), so qmul avoids abs/conj on
components.  The samplers haar_sample and slerp return points as rows,
shape (N, 4); pass their transpose to qmul.
"""

from __future__ import annotations

import numpy as np

I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])

IMAG_UNITS = (I, J, K)


# A float64 batch of at most this many points times one (4,) float64
# quaternion takes the signed-table path of qmul; on larger batches the
# 16-term loop is faster (per-size timings in CHANGES.md).
TABLE_MAX_POINTS = 768

# Term k of row r of p*q is _SIGNS[k, r] * p[k] * q[k ^ r], and qmul adds
# the four terms of each row in the order k = 0, 1, 2, 3.
_XOR = np.bitwise_xor.outer(np.arange(4), np.arange(4))
_SIGNS = np.array([[1, 1, 1, 1], [-1, 1, -1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1]], dtype=float)


def _table_batch(x: np.ndarray) -> bool:
    """Whether x is a float64 batch that a (4,) quaternion multiplies by table."""
    return x.ndim > 1 and x.dtype == np.float64 and x[0].size <= TABLE_MAX_POINTS


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of (4, ...) quaternions, broadcasting over trailing axes.

    Each row adds its four terms left to right, so row 0 is
    ((pw*qw - px*qx) - py*qy) - pz*qz and so on, whichever path computes it.
    When one operand is a single (4,) float64 quaternion and the other a
    float64 batch of at most TABLE_MAX_POINTS points, the product is one
    broadcast multiply against a 4x4 table of signed components, after a
    gather of the batch's rows when the batch is on the right, and one
    reduction over the term axis; a - b is exactly a + (-b), and the
    reduction starts from -0.0, so every float equals the 16-term loop's.
    """
    p = np.asarray(p)
    q = np.asarray(q)
    if p.shape == (4,) and p.dtype == np.float64 and _table_batch(q):
        terms = np.take(q, _XOR.ravel(), axis=0).reshape((4, 4) + q.shape[1:])
        terms *= (_SIGNS * p[:, None]).reshape((4, 4) + (1,) * (q.ndim - 1))
        return np.add.reduce(terms, axis=0, initial=-0.0)
    if q.shape == (4,) and q.dtype == np.float64 and _table_batch(p):
        table = (_SIGNS * q[_XOR]).reshape((4, 4) + (1,) * (p.ndim - 1))
        return np.add.reduce(table * p[:, None], axis=0, initial=-0.0)
    # p[k, ...] keeps a single quaternion's components as 0-d arrays, so
    # their products take numpy's array loops, not its scalar arithmetic.
    pw, px, py, pz = (p[k, ...] for k in range(4))
    qw, qx, qy, qz = (q[k, ...] for k in range(4))
    out = np.empty((4,) + np.broadcast_shapes(p.shape[1:], q.shape[1:]), np.result_type(p, q))
    w, x, y, z = (out[k, ...] for k in range(4))
    np.multiply(pw, qw, out=w)
    w -= px * qx
    w -= py * qy
    w -= pz * qz
    np.multiply(pw, qx, out=x)
    x += px * qw
    x += py * qz
    x -= pz * qy
    np.multiply(pw, qy, out=y)
    y -= px * qz
    y += py * qw
    y += pz * qx
    np.multiply(pw, qz, out=z)
    z += px * qy
    z -= py * qx
    z += pz * qw
    return out


def qconj(q: np.ndarray) -> np.ndarray:
    """Quaternion conjugate (negate the imaginary part)."""
    q = np.asarray(q)
    out = q.copy()
    out[1:] = -out[1:]
    return out


def slerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Great-circle interpolation between unit 4-vectors a and b.

    t may be a scalar or a 1-d array; returns shape (len(t), 4).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    dot = float(np.clip(np.dot(a, b), -1.0, 1.0))
    if dot <= -0.5:
        # Weights of order 1 / |a + b| would lift roundoff off the sphere: turn
        # through p, a quarter turn towards b, or i a if a, b fix no great circle.
        p = b - dot * a
        p = p / np.linalg.norm(p) if np.linalg.norm(p) >= 1e-8 else np.array([-a[1], a[0], -a[3], a[2]])
        w = np.arccos([np.dot(a, p), np.dot(p, b)])
        s = w[0] / w.sum()
        return np.where((t <= s)[:, None], slerp(a, p, t / s), slerp(p, b, (t - s) / (1.0 - s)))
    omega = np.arccos(dot)
    if omega < 1e-12:
        out = a[None, :] + t[:, None] * (b - a)[None, :]
        return out / np.linalg.norm(out, axis=1, keepdims=True)
    s = np.sin(omega)
    return (np.sin((1.0 - t) * omega) / s)[:, None] * a[None, :] + (
        np.sin(t * omega) / s
    )[:, None] * b[None, :]


def haar_sample(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform points on the unit 3-sphere, shape (n, 4)."""
    x = rng.standard_normal((n, 4))
    return x / np.linalg.norm(x, axis=1, keepdims=True)
