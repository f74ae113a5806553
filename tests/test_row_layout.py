"""Component-first helpers against the row layout they replaced.

quaternions and s3 hold a batch component first, (4, n) or (3, n), so each
component is one contiguous row.  The helpers below are the earlier row
versions, on (n, 4) and (n, 3) arrays.  Each new helper must return the same
floats, bit for bit, on the transposed input: the reports of verify-s3 and
the linking verbs are pinned to the last digit.
"""

import numpy as np
import pytest

from curlwave import s3
from curlwave.quaternions import IMAG_UNITS, haar_sample, qconj, qmul
from curlwave.seeds import substream

ONE = np.array([1.0, 0.0, 0.0, 0.0])


def qmul_rows(p, q):
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


def qconj_rows(q):
    out = np.asarray(q).copy()
    out[..., 1:] = -out[..., 1:]
    return out


def _reflect_rows(u):
    out = u.copy()
    out[..., 2] = -out[..., 2]
    return out


def chart_point_rows(x, chart, radius=1.0):
    y = np.asarray(x) / radius
    if chart == 0:
        u = y[..., 1:] / (1.0 + y[..., :1])
    else:
        u = _reflect_rows(y[..., 1:] / (1.0 - y[..., :1]))
    return radius * u


def chart_embed_rows(u, chart, radius=1.0):
    w = np.asarray(u) / radius
    if chart == 1:
        w = _reflect_rows(w)
    s = np.sum(w * w, axis=-1)[..., None]
    first = (1.0 - s) / (1.0 + s)
    if chart == 1:
        first = -first
    rest = 2.0 * w / (1.0 + s)
    return radius * np.concatenate([first, rest], axis=-1)


def chart_push_rows(x, xi, chart, radius=1.0):
    y = np.asarray(x) / radius
    eta = np.asarray(xi)
    y0 = y[..., :1]
    e0 = eta[..., :1]
    if chart == 0:
        den = (1.0 + y0) ** 2
        return (eta[..., 1:] * (1.0 + y0) - y[..., 1:] * e0) / den
    den = (1.0 - y0) ** 2
    return _reflect_rows((eta[..., 1:] * (1.0 - y0) + y[..., 1:] * e0) / den)


def conformal_factor_rows(u, radius=1.0):
    u = np.asarray(u)
    r2 = radius * radius
    return 2.0 * r2 / (r2 + np.sum(u * u, axis=-1))


def chart_inner_rows(u, a, b, radius=1.0):
    return conformal_factor_rows(u, radius) ** 2 * np.sum(a * b, axis=-1)


def rot_flat_rows(grads):
    return np.stack(
        [
            grads[1][..., 2] - grads[2][..., 1],
            grads[2][..., 0] - grads[0][..., 2],
            grads[0][..., 1] - grads[1][..., 0],
        ],
        axis=-1,
    )


def ym_residual_rows(side, n_points, seed):
    # The row-layout residual loop, one whole chart at a time (every value is
    # pointwise, so blocks change no bit).  Returns the residual and the
    # squared norms by leg and point.
    points = haar_sample(substream(seed, 0), n_points)
    if side == "left":
        legs = [lambda x, q=q: qmul_rows(x, q) for q in IMAG_UNITS]
    else:
        legs = [lambda x, q=q: qmul_rows(q, x) for q in IMAG_UNITS]
    partners = [((l + 1) % 3, (l + 2) % 3) for l in range(3)]

    def profiles(x):
        xc = qconj_rows(x)
        return xc, [qmul_rows(xc, leg(x)) / 2.0 for leg in legs]

    def bracket(x, pa, pb):
        return 2.0 * qmul_rows(x, qmul_rows(pa, pb) - qmul_rows(pb, pa))

    squares = np.full((3, n_points), np.nan)
    charts = np.where(points[:, 0] > -0.6, 0, 1)
    for ch in (0, 1):
        idx = np.nonzero(charts == ch)[0]
        u = chart_point_rows(points[idx], ch)
        grads = [[], [], []]
        for d in range(3):
            up = u.astype(complex)
            up[:, d] += 1j * s3.COMPLEX_STEP
            x = chart_embed_rows(up, ch)
            _, nu = profiles(x)
            weight = conformal_factor_rows(up)[:, None] ** 2
            for l, (i, j) in enumerate(partners):
                pair = chart_push_rows(x, bracket(x, nu[i], nu[j]), ch)
                grads[l].append(np.imag(weight * pair) / s3.COMPLEX_STEP)
        x = chart_embed_rows(u, ch)
        xc, nu = profiles(x)
        cube = conformal_factor_rows(u)[:, None] ** 3
        for l, (i, j) in enumerate(partners):
            res = rot_flat_rows(grads[l]) / cube
            for k in (i, j):
                inner = qmul_rows(xc, bracket(x, nu[l], nu[k])) / 2.0
                res = res + np.real(chart_push_rows(x, bracket(x, nu[k], inner), ch))
            squares[l, idx] = chart_inner_rows(u, res, res)
    return float(np.max(np.sqrt(squares))), squares


def _bits(a):
    # The int64 words of a float or complex array: -0.0 differs from 0.0.
    return np.ascontiguousarray(np.atleast_1d(a)).view(np.int64)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(_bits(a), _bits(b))


def _wide(rng, shape, dtype):
    # Mantissas times powers of two from 2^-30 to 2^30, with signed zeros.
    def part():
        v = rng.standard_normal(shape) * np.exp2(rng.integers(-30, 31, size=shape))
        v[rng.random(shape) < 0.02] = 0.0
        v[rng.random(shape) < 0.02] = -0.0
        return v

    return part() + 1j * part() if dtype is complex else part()


@pytest.mark.parametrize("dtype", [float, complex])
def test_qmul_and_qconj_match_row_layout(dtype):
    rng = np.random.default_rng(41)
    p = _wide(rng, (513, 4), dtype)
    q = _wide(rng, (513, 4), dtype)
    assert _same_bits(qmul(p.T, q.T), qmul_rows(p, q).T)
    assert _same_bits(qmul(q.T, p.T), qmul_rows(q, p).T)
    # A real factor against a complex one, in both operand orders.
    r = _wide(rng, (513, 4), float)
    assert _same_bits(qmul(r.T, p.T), qmul_rows(r, p).T)
    assert _same_bits(qmul(p.T, r.T), qmul_rows(p, r).T)
    assert _same_bits(qconj(p.T), qconj_rows(p).T)


@pytest.mark.parametrize("dtype", [float, complex])
def test_constant_unit_broadcast_matches_row_layout(dtype):
    # The leg fields multiply a batch by a constant unit, on either side.
    x = _wide(np.random.default_rng(42), (300, 4), dtype)
    for q in (ONE,) + IMAG_UNITS:
        assert _same_bits(qmul(x.T, q), qmul_rows(x, q).T)
        assert _same_bits(qmul(q, x.T), qmul_rows(q, x).T)
        assert _same_bits(0.5 * qmul(x.T, q), (0.5 * qmul_rows(x, q)).T)


@pytest.mark.parametrize("dtype", [float, complex])
def test_single_quaternions_match_row_layout(dtype):
    rng = np.random.default_rng(43)
    for _ in range(50):
        p = _wide(rng, (4,), dtype)
        q = _wide(rng, (4,), dtype)
        assert _same_bits(qmul(p, q), qmul_rows(p, q))
        assert _same_bits(qconj(p), qconj_rows(p))
    for a in (ONE,) + IMAG_UNITS:
        for b in (ONE,) + IMAG_UNITS:
            assert _same_bits(qmul(a, b), qmul_rows(a, b))


@pytest.mark.parametrize("radius", [1.0, 2.5])
@pytest.mark.parametrize("chart", [0, 1])
def test_chart_helpers_match_row_layout(chart, radius):
    rng = np.random.default_rng(44 + chart)
    x = radius * haar_sample(rng, 700)
    x = x[(x[:, 0] > -0.6 * radius) if chart == 0 else (x[:, 0] < 0.6 * radius)]
    xi = rng.standard_normal(x.shape)
    assert _same_bits(s3.chart_point(x.T, chart, radius), chart_point_rows(x, chart, radius).T)
    assert _same_bits(s3.chart_point(x[0], chart, radius), chart_point_rows(x[0], chart, radius))
    u = chart_point_rows(x, chart, radius)
    # Complex-step points, as the curls evaluate them.
    for d in range(3):
        up = u.astype(complex)
        up[:, d] += 1j * s3.COMPLEX_STEP
        for v in (u, up):
            xv = chart_embed_rows(v, chart, radius)
            assert _same_bits(s3.chart_embed(v.T, chart, radius), xv.T)
            assert _same_bits(s3.conformal_factor(v.T, radius), conformal_factor_rows(v, radius))
            eta = xi * (1.0 + 0.5j) if v is up else xi
            assert _same_bits(
                s3.chart_push(xv.T, eta.T, chart, radius), chart_push_rows(xv, eta, chart, radius).T
            )
    assert _same_bits(s3.chart_embed(u[0], chart, radius), chart_embed_rows(u[0], chart, radius))
    a, b = rng.standard_normal((2,) + u.shape)
    assert _same_bits(s3.chart_inner(u.T, a.T, b.T, radius), chart_inner_rows(u, a, b, radius))
    grads = list(rng.standard_normal((3,) + u.shape))
    assert _same_bits(s3._rot_flat([g.T for g in grads]), rot_flat_rows(grads).T)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("seed", [0, 3])
def test_ym_residual_matches_row_layout(side, seed, monkeypatch):
    # The squared norms of all legs and points, not only the maximum, are the
    # same floats (compared as sorted lists).
    n = 9000
    want, want_sq = ym_residual_rows(side, n, seed)
    seen = []
    inner = s3.chart_inner
    monkeypatch.setattr(s3, "chart_inner", lambda *a, **k: seen.append(inner(*a, **k)) or seen[-1])
    got = s3.ym_residual(s3.build_frame(side), n, seed)
    assert got == want
    assert _same_bits(np.sort(np.concatenate(seen)), np.sort(want_sq, axis=None))
