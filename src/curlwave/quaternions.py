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


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of (4, ...) quaternions, broadcasting over trailing axes.

    Each row is accumulated in place, left to right, so row 0 is
    ((pw*qw - px*qx) - py*qy) - pz*qz and so on.
    """
    p = np.asarray(p)
    q = np.asarray(q)
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
