"""End-to-end acceptance checks, one per verification claim.

Each test prints a single pass/fail line naming the claim and the measured
quantities, then asserts.  Seeds are fixed, so every number here is
reproducible from a clean checkout.
"""

import time

import numpy as np
import pytest

import oracles
from curlwave import frames, hyperbolic, hypermc, s3
from curlwave.cli import ExperimentConfig, run
from curlwave.fieldlines import (
    asymptotic_hopf,
    circle_in_chart,
    crossing_linking_oracle,
    gauss_linking,
    helicity_integral,
    hopf_fiber,
)
from curlwave.quaternions import haar_sample
from curlwave.seeds import substream


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def test_criterion_01_curl_eigenvalues():
    t0 = time.perf_counter()
    worst = 0.0
    for l in (1, 2, 3):
        worst = max(worst, abs(frames.curl_eigenvalue(frames.su2_unit(), l) + 2.0))
        worst = max(worst, abs(frames.curl_eigenvalue(frames.su2_right(), l) - 2.0))
    for lam in (0.25, 1.0, 4.0):
        spec = frames.lambda_fields(lam)
        for l in (1, 2, 3):
            worst = max(worst, abs(frames.curl_eigenvalue(spec, l) + 2.0 / lam))
    dt = time.perf_counter() - t0
    _verdict(
        "curl eigenvalues",
        worst < 1e-12 and dt < 1.0,
        f"max abs error {worst:.3e}, {dt:.3f}s",
    )


def test_criterion_02_yang_mills_residuals():
    t0 = time.perf_counter()
    left = s3.ym_residual(s3.build_frame("left"), n_points=1000, seed=0)
    right = s3.ym_residual(s3.build_frame("right"), n_points=1000, seed=0)
    dt = time.perf_counter() - t0
    _verdict(
        "stationarity residuals",
        left < 1e-8 and right > 0.1 and dt < 10.0,
        f"left {left:.3e} < 1e-8, right {right:.4f} > 0.1, {dt:.2f}s",
    )


def test_criterion_03_helicity_constant_in_lambda():
    vals = {}
    for l in (1, 2, 3):
        vals[("s3", l)] = frames.helicity_density_algebraic(frames.su2_unit(), l)
    for lam in (0.5, 1.0, 2.0, 4.0, 8.0):
        spec = frames.lambda_fields(lam)
        for l in (1, 2, 3):
            vals[(lam, l)] = frames.helicity_density_algebraic(spec, l)
    worst = max(abs(v + 2.0) for v in vals.values())
    spread = max(vals.values()) - min(vals.values())
    exact = all(vals[(lam, l)] == -2.0 for lam in ("s3", 1.0, 4.0) for l in (1, 2, 3))
    _verdict(
        "helicity density",
        worst <= 1e-15 and spread <= 1e-15 and exact,
        f"max |h+2| {worst:.2e} (one ulp), spread {spread:.2e}, exact at square scales",
    )


def test_criterion_04_triple_density_compensation():
    prods = [
        lam * frames.triple_density_algebraic(frames.lambda_fields(lam))
        for lam in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    spread = max(prods) - min(prods)
    _verdict(
        "triple wedge compensation",
        spread < 1e-10 and abs(prods[1] - 3.0) < 1e-12,
        f"lambda * density spread {spread:.2e}, value {prods[1]!r}",
    )


def _radius_cs_functional(l: float) -> tuple[float, float]:
    # The left legs x -> x*q carried over to the radius-l sphere by x -> l x:
    # brackets unchanged ([E_i, E_j] = 2 E_k), squared lengths l^2.
    spec = frames.LieFrameSpec(f"radius_{l:g}", frames.su2_unit().c, l * l * np.ones(3))
    return oracles.cs_functional(s3.build_frame("left"), spec, 4000, seed=0, radius=l)


def test_criterion_05_rescale_covariance():
    # Under x -> l x the helicity density (E, rot E) = -2 l per leg gains l
    # and the volume l^3, so the helicity term scales as l^4; the wedge
    # density is unchanged, so the wedge term scales as l^3.
    h1, w1 = _radius_cs_functional(1.0)
    worst_h = 0.0
    worst_w = 0.0
    for l in (0.5, 2.0, 3.0):
        h, w = _radius_cs_functional(l)
        worst_h = max(worst_h, abs(h / h1 / l**4 - 1.0))
        worst_w = max(worst_w, abs(w / w1 / l**3 - 1.0))
    _verdict(
        "metric rescale covariance",
        worst_h <= 1e-12 and worst_w <= 1e-12,
        f"helicity-term l^4 ratio error {worst_h:.2e}, wedge-term l^3 ratio error {worst_w:.2e}",
    )


def test_criterion_06_sectional_curvatures():
    prof = hyperbolic.sectional_profile(1.0)
    base_err = max(abs(k + 1.0) for k in prof)
    grid = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    horiz = np.array([abs(hyperbolic.sectional_profile(l)[0]) for l in grid])
    slope = hypermc.loglog_fit(grid, horiz).slope
    fd_err = 0.0
    for spec, chart in (
        (frames.su2_unit(), oracles.sphere_chart_setup("left", 1.0, np.ones(3))),
        (frames.lambda_geometry(1.0), oracles.geometry_chart_setup(1.0)),
        (frames.lambda_geometry(2.0), oracles.geometry_chart_setup(2.0)),
    ):
        fd = np.asarray(oracles.fd_sectional(*chart))
        closed = np.asarray(frames.milnor_curvatures(spec))
        fd_err = max(fd_err, float(np.max(np.abs(fd - closed))))
    _verdict(
        "sectional curvatures",
        base_err <= 1e-10 and abs(slope + 2.0 / 3.0) <= 0.01 and fd_err <= 1e-6,
        f"profile(1) error {base_err:.2e}, horizontal slope {slope:.6f}, "
        f"chart-vs-closed-form {fd_err:.2e}",
    )


def test_criterion_07_linking_quadrature_vs_crossings():
    t0 = time.perf_counter()
    checked = 0
    worst_gap = 0.0
    for k in range(23):
        base = haar_sample(substream(100, k), 2)
        c1, c2 = (hopf_fiber(b, "right") for b in base)
        g = gauss_linking(c1, c2)
        worst_gap = max(worst_gap, abs(g - round(g)))
        assert round(g) == 1 == crossing_linking_oracle(c1, c2)
        checked += 1
    for k in range(23):
        base = haar_sample(substream(200, k), 2)
        c1, c2 = (hopf_fiber(b, "left") for b in base)
        g = gauss_linking(c1, c2)
        worst_gap = max(worst_gap, abs(g - round(g)))
        # projected signed crossings resolve the mirror pair to -1
        assert round(g) == -1 == crossing_linking_oracle(c1, c2)
        checked += 1
    for k in range(4):
        a = circle_in_chart(np.array([0.0, 0.0, -2.0 - 0.3 * k]), 0.3, normal_axis=k % 3)
        b = circle_in_chart(np.array([0.0, 0.0, 2.0 + 0.3 * k]), 0.3)
        g = gauss_linking(a, b)
        worst_gap = max(worst_gap, abs(g - round(g)))
        assert round(g) == 0 == crossing_linking_oracle(a, b)
        checked += 1
    dt = time.perf_counter() - t0
    _verdict(
        "pairwise linking",
        checked == 50 and worst_gap < 1e-3 and dt < 30.0,
        f"{checked} pairs, max quadrature-to-integer gap {worst_gap:.2e}, {dt:.1f}s",
    )


def test_criterion_08_asymptotic_linking_matches_helicity():
    t0 = time.perf_counter()
    frame = s3.build_frame("left")
    pot = frame[0]
    field = lambda x: -2.0 * pot(x)
    target = helicity_integral(pot, field, 20000, seed=0) / s3.VOL_UNIT_SPHERE**2
    est = asymptotic_hopf(field, 500, 4.0 * np.pi, seed=0, workers=8)
    gap = abs(est.estimate - target)
    dt = time.perf_counter() - t0
    _verdict(
        "asymptotic linking vs helicity",
        gap <= 2.0 * est.stderr and est.failures == 0 and dt < 300.0,
        f"estimate {est.estimate:.12f}, target {target:.12f}, "
        f"gap {gap:.2e} <= 2*stderr {2 * est.stderr:.2e}, {dt:.0f}s",
    )


def test_criterion_09_scaling_exponents(tmp_path):
    t0 = time.perf_counter()
    scan = run(
        ExperimentConfig(
            verb="triangle-scan", out_dir=str(tmp_path / "scan"), workers=8
        )
    )
    alpha = run(
        ExperimentConfig(
            verb="alpha-scaling", out_dir=str(tmp_path / "alpha"), workers=8
        )
    )
    dt = time.perf_counter() - t0
    summary = {}
    for line in (tmp_path / "scan" / "triangle-scan_summary.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        summary[key] = value
    slopes = ", ".join(
        f"{k.removeprefix('slope_')} {float(v):.4f}"
        for k, v in sorted(summary.items())
        if k.startswith("slope_")
    )
    _verdict(
        "scaling exponents",
        scan.violations == () and alpha.violations == () and dt < 600.0,
        f"{slopes}, all within windows, {dt:.0f}s",
    )


@pytest.mark.parametrize("rr", [0.5, 1.0, 3.0, 6.0])
def test_criterion_09_pair_density_meets_santalo(rr):
    # Two kinematic chords that meet a convex set cross inside it with
    # probability 2 pi F / L^2 (Santalo, Integral Geometry and Geometric
    # Probability, ch. 17-18), so pair_density is 2 pi at every curvature and
    # radius.  A chord sampler off the kinematic measure moves it by many
    # standard errors; scale bookkeeping alone cannot.
    zs = []
    for seed in range(5):
        density, stderr = hypermc.pair_intersection_density(-1.0, rr, 20_000, seed)
        zs.append((density - 2.0 * np.pi) / stderr)
    _verdict(
        f"Santalo pair density at r={rr}",
        max(abs(z) for z in zs) <= 3.0,
        "z-scores " + ", ".join(f"{z:+.2f}" for z in zs),
    )


def test_criterion_09_claimed_exponents_are_dimensional(tmp_path, monkeypatch):
    # With the disk radius fixed in curvature units, every lambda runs the
    # same dimensionless experiment: each reported density is a sampled
    # number times a power of disk_perimeter and disk_area.  With every
    # sampled number replaced by 1, the verbs fit the scale factors alone,
    # and each slope must be the claimed exponent to roundoff.
    def pair_scale(K, R, N, rng):
        return hypermc.disk_perimeter(K, R) ** 2 / hypermc.disk_area(K, R), 0.0

    def scan_scale(K, R, N, eps_list, rng, n_triples=0):
        scale = hypermc.disk_perimeter(K, R) ** 3 / hypermc.disk_area(K, R) ** 2
        eps = np.asarray(eps_list, dtype=float)
        return hypermc.ScalingFit(eps, np.full(eps.size, scale), 0.0, scale, 0.0, {"counts": [1], "total": 1})

    monkeypatch.setattr(hypermc, "pair_intersection_density", pair_scale)
    monkeypatch.setattr(hypermc, "epsilon_limit_scan", scan_scale)
    gaps = {}
    for verb in ("triangle-scan", "alpha-scaling"):
        assert run(ExperimentConfig(verb=verb, out_dir=str(tmp_path))).violations == ()
        lines = (tmp_path / f"{verb}_summary.txt").read_text().splitlines()
        summary = dict(line.split("=", 1) for line in lines)
        for key, value in summary.items():
            if key.startswith("slope"):
                claimed = summary["claimed" + key.removeprefix("slope")]
                gaps[f"{verb}:{key}"] = float(value) - float(claimed)
    assert len(gaps) == 6
    _verdict(
        "claimed exponents from scale factors",
        all(abs(g) <= 1e-12 for g in gaps.values()),
        ", ".join(f"{k} {g:+.1e}" for k, g in sorted(gaps.items())),
    )


def test_criterion_10_quintuple_estimator():
    base = haar_sample(substream(300, 0), 5)
    fibers = [hopf_fiber(b, "right") for b in base]
    linked = hypermc.m5_quintuple_details(fibers)
    far = [
        circle_in_chart(np.array([0.0, 0.0, c]), 0.25, normal_axis=i % 3)
        for i, c in enumerate(np.linspace(-3.0, 3.0, 5))
    ]
    unlinked = hypermc.m5_quintuple_details(far)
    mixed = fibers[:4] + [circle_in_chart(np.array([0.0, 0.0, 2.5]), 0.2)]
    part = hypermc.m5_quintuple_details(mixed)
    _verdict(
        "quintuple estimator",
        linked["estimate"] == 10.0 and unlinked["estimate"] == 0.0 and part["estimate"] == 0.0,
        f"fiber quintuple {linked['estimate']!r}, far circles {unlinked['estimate']!r}, "
        f"one unlinked pair {part['estimate']!r}",
    )


def test_criterion_11_worker_count_byte_identity(tmp_path):
    # hopf-asymptotic is the one verb that reads workers: it traces and links
    # its pairs on a thread pool, and both reports must come out as they do
    # on one thread.
    small = dict(n_pairs=100, trace_T=2.0 * np.pi, n_quad=1000, seed=0)
    reports = ("hopf-asymptotic.csv", "hopf-asymptotic_summary.txt")
    blobs = {}
    for w in (1, 8):
        out = tmp_path / f"w{w}"
        run(ExperimentConfig(verb="hopf-asymptotic", out_dir=str(out), workers=w, **small))
        blobs[w] = [(out / name).read_bytes() for name in reports]
    same = [a == b for a, b in zip(blobs[1], blobs[8])]
    _verdict(
        "worker-count byte identity",
        all(same),
        f"hopf-asymptotic at workers 1 and 8: csv identical={same[0]}, record identical={same[1]}",
    )
