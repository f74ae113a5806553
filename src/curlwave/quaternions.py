"""Quaternion arithmetic on numpy arrays.

A quaternion is stored as a length-4 array (w, x, y, z) with w the real part.
All helpers broadcast over leading axes, so (N, 4) batches work everywhere.
Complex dtypes are allowed (needed for complex-step derivatives), so qmul
avoids abs/conj on components.
"""

from __future__ import annotations

import numpy as np

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])

IMAG_UNITS = (I, J, K)


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes."""
    p = np.asarray(p)
    q = np.asarray(q)
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


def qconj(q: np.ndarray) -> np.ndarray:
    """Quaternion conjugate (negate the imaginary part)."""
    q = np.asarray(q)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
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
