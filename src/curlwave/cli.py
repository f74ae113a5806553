"""Experiment orchestration: configs, verbs, reports, and run manifests.

One entry point dispatches every verification suite.  Configs are flat JSON
files mirroring ExperimentConfig; outputs are a CSV table, a line-delimited
summary record, and a JSON manifest with the config hash and output digests.
Exit codes: 0 clean, 2 when a verification threshold is violated, 1 on error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import frames, hyperbolic, hypermc, s3
from .errors import ConfigInvalid, CurlwaveError, IoFailure
from .fieldlines import (
    INTEGER_TOL,
    MAX_QUAD_POINTS,
    MAX_STEP,
    MAX_TRACE_STATES,
    asymptotic_hopf,
    circle_in_chart,
    crossing_linking_oracle,
    gauss_linking,
    helicity_integral,
    hopf_fiber,
    trace_states,
)
from .quaternions import haar_sample
from .seeds import MAX_WORKERS, substream

ARTIFACT_VERSION = "0.1.0"

DEFAULT_LAMBDA_GRID = (1.0, 1.7782794100389228, 3.1622776601683795, 5.623413251903491, 10.0)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """An int or float within the finite doubles; json reads NaN and Infinity as floats."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _shown(v) -> str:
    """repr(v) for an error message; past 60 characters, its first 60 and its length."""
    r = repr(v)
    return r if len(r) <= 60 else f"{r[:60]}... ({len(r)} characters)"


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; serializes byte-exactly through JSON."""

    verb: str
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    n_points: int = 1000
    n_quad: int = 20000
    n_chords: int = 20000
    n_triples: int = 2000000
    n_pairs: int = 200
    eps_list: tuple = (0.4, 0.3, 0.2, 0.15, 0.1)
    disk_radius: float = 3.0
    trace_T: float = 12.566370614359172
    trace_step: float = 0.01
    seed: int = 0
    workers: int = 1
    out_dir: str = "results"
    max_left_residual: float = 1e-8
    min_right_residual: float = 0.1

    def validate(self) -> None:
        if self.verb not in VERBS:
            raise ConfigInvalid(f"verb: unknown verb {_shown(self.verb)}; choose from {', '.join(VERBS)}")
        # Each size's (minimum, cap), whatever the verb.  A minimum raises
        # ValueError, the class the benchmark harness's gate test records.  A cap
        # keeps its stage under about 1 GiB, or bounds n_triples' time; n_pairs'
        # cap is a trace of 2 states a line, and trace_states is the real bound.
        sizes = {
            "n_points": (1, s3.MAX_CURL_POINTS),
            "n_quad": (100, MAX_QUAD_POINTS),
            "n_chords": (hypermc.MIN_CHORDS, hypermc.MAX_CHORDS),
            "n_triples": (hypermc.MIN_TRIPLES, hypermc.MAX_TRIPLES),
            "n_pairs": (100, MAX_TRACE_STATES // 4),
            "workers": (1, MAX_WORKERS),
        }
        for name, (least, cap) in sizes.items():
            v = getattr(self, name)
            if not _is_int(v) or v <= 0:
                raise ConfigInvalid(f"{name}: must be a positive integer, got {_shown(v)}")
            if v < least:
                raise ValueError(f"{name}: need at least {least}, got {v}")
            if v > cap:
                raise ConfigInvalid(f"{name}: at most {cap}, got {_shown(v)}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigInvalid(f"seed: must be a non-negative integer, got {_shown(self.seed)}")
        for name in ("trace_T", "max_left_residual", "min_right_residual"):
            v = getattr(self, name)
            if not _is_real(v) or not v > 0:
                raise ConfigInvalid(f"{name}: must be finite and positive, got {_shown(v)}")
        if self.trace_T < 2.0 * np.pi:
            raise ValueError(f"trace_T: need at least 2 pi, got {_shown(self.trace_T)}")
        if not _is_real(self.trace_step) or not 0 < self.trace_step <= MAX_STEP:
            raise ConfigInvalid(f"trace_step: must lie in (0, {MAX_STEP}], got {_shown(self.trace_step)}")
        states = trace_states(2 * self.n_pairs, self.trace_T, self.trace_step)
        if states > MAX_TRACE_STATES:
            # Name the field that multiplies the default config's states the most.
            growth = {
                "n_pairs": self.n_pairs / ExperimentConfig.n_pairs,
                "trace_T": self.trace_T / ExperimentConfig.trace_T,
                "trace_step": ExperimentConfig.trace_step / self.trace_step,
            }
            name = max(growth, key=growth.get)
            raise ConfigInvalid(f"{name}: {states:.3g} trace states, at most {MAX_TRACE_STATES}")
        # disk_area takes cosh(rr) - 1, whose relative error is up to
        # 2e-16 / rr**2, 2e-8 at the smallest disk.
        d = self.disk_radius
        if not _is_real(d) or not 1e-4 <= d <= 50.0:
            raise ConfigInvalid(f"disk_radius: must lie in [1e-4, 50] curvature units, got {_shown(d)}")
        for name in ("lambda_grid", "eps_list"):
            v = getattr(self, name)
            if not isinstance(v, (list, tuple)) or not v or not all(_is_real(x) for x in v):
                raise ConfigInvalid(f"{name}: must be a non-empty list of finite numbers, got {_shown(v)}")
        lams, n_grid = self.lambda_grid, len(self.lambda_grid)
        if n_grid > hypermc.MAX_FIT_POINTS:
            raise ConfigInvalid(f"lambda_grid: at most {hypermc.MAX_FIT_POINTS} values, got {n_grid}")
        lo, hi = hyperbolic.VERIFIED_LAMBDA_RANGE
        for lam in lams:
            if not lo <= lam <= hi:
                raise ConfigInvalid(f"lambda_grid: each value must lie in [{lo:g}, {hi:g}], got {_shown(lam)}")
        eps = self.eps_list
        if any(not 0 < e < 0.5 * np.pi for e in eps):
            raise ConfigInvalid(f"eps_list: entries must lie in (0, pi/2), got {_shown(eps)}")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigInvalid(f"eps_list: must be strictly decreasing, got {_shown(eps)}")
        # Both chord verbs extrapolate every lambda over the last three cutoffs.
        if len(eps) < 4:
            raise ConfigInvalid(f"eps_list: need at least 4 cutoffs to extrapolate, got {len(eps)}")
        # Every triangle-scan summary value is a slope in lambda.
        if self.verb == "triangle-scan" and not max(lams) > min(lams):
            raise ValueError(f"lambda_grid: slopes need at least 2 distinct values, got {_shown(lams)}")
        if self.verb == "alpha-scaling":
            if n_grid < 5:
                raise ValueError(f"lambda_grid: need at least 5 grid values, got {n_grid}")
            if max(lams) / min(lams) < 10.0 * (1.0 - 1e-9):
                raise ValueError(f"lambda_grid: must span at least a decade, got {_shown(lams)}")
        if not isinstance(self.out_dir, str):
            raise ConfigInvalid(f"out_dir: must be a string, got {_shown(self.out_dir)}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigInvalid(f"{sorted(unknown)[0]}: unknown config field")
        if "verb" not in d:
            raise ConfigInvalid("verb: required field missing")
        d = dict(d)
        for key in ("lambda_grid", "eps_list"):
            if isinstance(d.get(key), list):
                d[key] = tuple(d[key])
        return cls(**d)

    def config_hash(self) -> str:
        # Worker count and output location change where and how fast the run
        # executes, never what it computes, so they stay out of the hash.
        d = dataclasses.asdict(self)
        for name in ("workers", "out_dir"):
            d.pop(name)
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one run: what ran, from which config, producing what."""

    config_hash: str
    seed: int
    version: str
    timings: dict
    digests: dict
    violations: tuple

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def emit_report(results: dict, base: str) -> list[str]:
    """Write results as base.csv and base_summary.txt; returns both paths.

    CSV: one comment line embedding config hash and seed, a header row
    naming the columns of the first row, then one row per result.  Record:
    sorted key=value lines of the summary plus config hash and seed.
    Raises IoFailure when a file cannot be written.
    """
    rows, config_hash, seed = results["rows"], results["config_hash"], results["seed"]
    columns = list(rows[0]) if rows else []
    csv_lines = [f"# config_hash={config_hash} seed={seed}", ",".join(columns)]
    csv_lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
    summary = {**results["summary"], "config_hash": config_hash, "seed": seed}
    record_lines = [f"{k}={_fmt(v)}" for k, v in sorted(summary.items())]
    paths = [base + ".csv", base + "_summary.txt"]
    for path, lines in zip(paths, (csv_lines, record_lines)):
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise IoFailure(f"cannot write report {path}: {exc}") from exc
    return paths


# ---------------------------------------------------------------------------
# Verb implementations.  Each returns (rows, summary, violations).
# ---------------------------------------------------------------------------


def _run_verify_s3(cfg: ExperimentConfig, timings: dict):
    t0 = time.perf_counter()
    rows = []
    for spec in frames.default_fleet().values():
        # Not every fleet member diagonalizes curl leg by leg; a leg that
        # mixes reports NaN instead of dropping the row.
        row = {"name": spec.name}
        for l in (1, 2, 3):
            row[f"eig_{l}"] = frames.curl_eigenvalue(spec, l)
            row[f"helicity_{l}"] = frames.helicity_density_algebraic(spec, l)
        rows.append(row)
    timings["fleet"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    left = s3.ym_residual(s3.build_frame("left"), n_points=cfg.n_points, seed=cfg.seed)
    right = s3.ym_residual(s3.build_frame("right"), n_points=cfg.n_points, seed=cfg.seed)
    timings["ym_residual"] = time.perf_counter() - t0
    summary = {
        "ym_residual_left": left,
        "ym_residual_right": right,
        "max_left_residual": cfg.max_left_residual,
        "min_right_residual": cfg.min_right_residual,
        "n_points": cfg.n_points,
        "trace_normalization": s3.TRACE_NORMALIZATION,
    }
    violations = []
    if not left < cfg.max_left_residual:
        violations.append(f"ym_residual_left={left!r} not below {cfg.max_left_residual!r}")
    if not right > cfg.min_right_residual:
        violations.append(f"ym_residual_right={right!r} not above {cfg.min_right_residual!r}")
    return rows, summary, violations


def _run_verify_hyperbolic(cfg: ExperimentConfig, timings: dict):
    t0 = time.perf_counter()
    rows = [hyperbolic.lambda_report_row(lam) for lam in cfg.lambda_grid]
    timings["lambda_rows"] = time.perf_counter() - t0
    products = [r["t_density_times_lambda"] for r in rows]
    spread = max(products) - min(products)
    violations = []
    for r in rows:
        lam = r["lambda"]
        if not abs(r["h_density"] + 2.0) <= 1e-10:
            violations.append(f"helicity density at lambda={lam} is {r['h_density']!r}")
        vertical = -lam ** (-5.0 / 3.0)
        laws = {
            "horizontal_curvature": hypermc.lambda_to_curvature(lam),
            "vertical_curvature_1": vertical,
            "vertical_curvature_2": vertical,
        }
        for column, law in laws.items():
            if not abs(r[column] - law) <= 1e-9 * abs(law):
                violations.append(f"{column} at lambda={lam} is {float(r[column])!r}, not {law!r}")
    if not spread <= 1e-10:
        violations.append(f"triple-density product spread {spread!r} exceeds 1e-10")
    summary = {
        "t_lambda_product": products[0],
        "t_lambda_spread": spread,
        "cover_volume_factor": hyperbolic.COVER_VOLUME_FACTOR,
        "n_lambdas": len(rows),
    }
    return rows, summary, violations


def _linking_cases(cfg: ExperimentConfig):
    rng = substream(cfg.seed, 21)
    base = haar_sample(rng, 4)
    yield "right_pair", hopf_fiber(base[0], "right"), hopf_fiber(base[1], "right"), 1
    yield "right_pair_2", hopf_fiber(base[2], "right"), hopf_fiber(base[3], "right"), 1
    yield "left_pair", hopf_fiber(base[0], "left"), hopf_fiber(base[1], "left"), -1
    yield (
        "far_circles",
        circle_in_chart(np.array([0.0, 0.0, -2.5]), 0.3),
        circle_in_chart(np.array([0.0, 0.0, 2.5]), 0.3, normal_axis=0),
        0,
    )


def _run_linking(cfg: ExperimentConfig, timings: dict):
    rows = []
    violations = []
    t0 = time.perf_counter()
    for name, c1, c2, expected in _linking_cases(cfg):
        quad = gauss_linking(c1, c2, seed=cfg.seed)
        oracle = crossing_linking_oracle(c1, c2, seed=cfg.seed)
        rounded = int(np.rint(quad))
        rows.append(
            {"case": name, "quad": quad, "rounded": rounded, "oracle": oracle, "expected": expected}
        )
        if abs(quad - rounded) > INTEGER_TOL:
            violations.append(f"{name}: quadrature {quad!r} not integer-like")
        if rounded != oracle:
            violations.append(f"{name}: quadrature {rounded} disagrees with crossing oracle {oracle}")
        if rounded != expected:
            violations.append(f"{name}: linking {rounded} differs from expected {expected}")
    timings["linking_cases"] = time.perf_counter() - t0
    summary = {"n_cases": len(rows), "max_integer_gap": max(abs(r["quad"] - r["rounded"]) for r in rows)}
    return rows, summary, violations


def _run_hopf_asymptotic(cfg: ExperimentConfig, timings: dict):
    pot = s3.build_frame("left")[0]
    field = lambda x: -2.0 * pot(x)
    t0 = time.perf_counter()
    target = helicity_integral(pot, field, cfg.n_quad, seed=cfg.seed) / s3.VOL_UNIT_SPHERE**2
    timings["helicity_integral"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    est = asymptotic_hopf(
        field, cfg.n_pairs, cfg.trace_T,
        seed=cfg.seed, h=cfg.trace_step, workers=cfg.workers,
    )
    timings["asymptotic_hopf"] = time.perf_counter() - t0
    rows = [
        {
            "estimate": est.estimate,
            "stderr": est.stderr,
            "target": target,
            "n_pairs": cfg.n_pairs,
            "T": float(cfg.trace_T),
            "failures": est.failures,
            "resamples": est.resamples,
        }
    ]
    gap = abs(est.estimate - target)
    tol = max(2.0 * est.stderr, 1e-6)
    violations = []
    if not gap <= tol:
        violations.append(f"estimate gap {gap!r} exceeds {tol!r}")
    summary = {"estimate": est.estimate, "target": target, "gap": gap, "tolerance": tol}
    return rows, summary, violations


def _run_triangle_scan(cfg: ExperimentConfig, timings: dict):
    rows = []
    lams = np.asarray(cfg.lambda_grid, dtype=float)
    t0 = time.perf_counter()
    for i, lam in enumerate(lams):
        K = hypermc.lambda_to_curvature(lam)
        rho = 1.0 / np.sqrt(-K)
        R = cfg.disk_radius * rho
        pair_d, pair_e = hypermc.pair_intersection_density(
            K, R, cfg.n_chords, substream(cfg.seed, 3, i)
        )
        scan = hypermc.epsilon_limit_scan(
            K, R, cfg.n_chords, cfg.eps_list, substream(cfg.seed, 4, i),
            n_triples=cfg.n_triples,
        )
        counts = scan.metadata["counts"]
        total = scan.metadata["total"]
        tri_d = counts[-1] / total * hypermc.disk_perimeter(K, R) ** 3 / hypermc.disk_area(K, R) ** 3
        ratio = hypermc.parallelism_ratio(K, max(5.0, cfg.disk_radius) * rho)
        rows.append(
            {
                "lambda": float(lam),
                "curvature": K,
                "pair_density": pair_d,
                "pair_stderr": pair_e,
                "triangle_density": tri_d,
                "extrapolate": scan.intercept,
                "extrapolate_square": scan.intercept**2,
                "parallelism_ratio": ratio,
            }
        )
    timings["scan"] = time.perf_counter() - t0
    key_slopes = {
        "pair_density": (0.0, 0.1),
        "triangle_density": (-1.0, 0.15),
        "extrapolate": (-1.0 / 3.0, 0.1),
        "extrapolate_square": (-2.0 / 3.0, 0.15),
        "parallelism_ratio": (-1.0 / 3.0, 0.05),
    }
    summary = {}
    violations = []
    for key, (claimed, window) in key_slopes.items():
        ys = np.array([r[key] for r in rows])
        if key == "pair_density":
            logy = np.log(ys)
            logx = np.log(lams)
            slope = float(np.polyfit(logx, logy, 1)[0])
        else:
            slope = hypermc.loglog_fit(lams, ys).slope
        summary[f"slope_{key}"] = slope
        summary[f"claimed_{key}"] = claimed
        if not abs(slope - claimed) <= window:
            violations.append(f"{key}: slope {slope!r} outside {claimed} +/- {window}")
    return rows, summary, violations


def _run_alpha_scaling(cfg: ExperimentConfig, timings: dict):
    t0 = time.perf_counter()
    fit = hypermc.alpha_scaling(
        cfg.lambda_grid, cfg.n_chords, cfg.disk_radius, cfg.eps_list,
        cfg.n_triples, cfg.seed,
    )
    timings["alpha_scaling"] = time.perf_counter() - t0
    rows = [
        {"lambda": float(x), "extrapolate": float(y)} for x, y in zip(fit.x, fit.y)
    ]
    claimed = hypermc.ALPHA_EXPONENT
    summary = {
        "slope": fit.slope,
        "half_width": fit.half_width,
        "claimed": claimed,
        "balance": hypermc.BALANCE_MODE,
        "kolmogorov_field": hypermc.KOLMOGOROV_FIELD,
        "kolmogorov_flow": hypermc.KOLMOGOROV_FLOW,
        "n_chords": cfg.n_chords,
    }
    violations = []
    if not abs(fit.slope - claimed) <= 0.1:
        violations.append(f"alpha exponent {fit.slope!r} outside {claimed} +/- 0.1")
    return rows, summary, violations


def _run_m5(cfg: ExperimentConfig, timings: dict):
    t0 = time.perf_counter()
    base = haar_sample(substream(cfg.seed, 9), 5)
    fibers = [hopf_fiber(base[i], "right") for i in range(5)]
    linked = hypermc.m5_quintuple_details(fibers, seed=cfg.seed)
    centers = np.linspace(-3.0, 3.0, 5)
    far = [
        circle_in_chart(np.array([0.0, 0.0, c]), 0.25, normal_axis=i % 3)
        for i, c in enumerate(centers)
    ]
    unlinked = hypermc.m5_quintuple_details(far, seed=cfg.seed)
    timings["m5"] = time.perf_counter() - t0
    rows = [
        {"case": "hopf_fibers", "triangles": linked["triangles"],
         "linking_product": linked["linking_product"], "estimate": linked["estimate"]},
        {"case": "far_circles", "triangles": unlinked["triangles"],
         "linking_product": unlinked["linking_product"], "estimate": unlinked["estimate"]},
    ]
    violations = []
    if linked["estimate"] != 10.0:
        violations.append(f"fiber quintuple estimate {linked['estimate']!r} is not 10")
    if unlinked["estimate"] != 0.0:
        violations.append(f"far-circle quintuple estimate {unlinked['estimate']!r} is not 0")
    summary = {"fiber_estimate": linked["estimate"], "far_estimate": unlinked["estimate"]}
    return rows, summary, violations


_VERB_TABLE = {
    "verify-s3": _run_verify_s3,
    "verify-hyperbolic": _run_verify_hyperbolic,
    "linking": _run_linking,
    "hopf-asymptotic": _run_hopf_asymptotic,
    "triangle-scan": _run_triangle_scan,
    "alpha-scaling": _run_alpha_scaling,
    "m5-estimate": _run_m5,
}

VERBS = tuple(_VERB_TABLE)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run(config: ExperimentConfig) -> RunManifest:
    """Validate, dispatch, persist reports, and return the run manifest."""
    config.validate()
    timings: dict = {}
    t_all = time.perf_counter()
    rows, summary, violations = _VERB_TABLE[config.verb](config, timings)
    timings["total"] = time.perf_counter() - t_all
    results = {
        "rows": rows,
        "summary": {**summary, "verb": config.verb, "violations": len(violations)},
        "config_hash": config.config_hash(),
        "seed": config.seed,
    }
    base = os.path.join(config.out_dir, config.verb)
    files = emit_report(results, base)
    digests = {os.path.basename(p): _digest(p) for p in files}
    manifest = RunManifest(
        config_hash=config.config_hash(),
        seed=config.seed,
        version=ARTIFACT_VERSION,
        timings=timings,
        digests=digests,
        violations=tuple(violations),
    )
    try:
        with open(base + "_manifest.json", "w") as fh:
            fh.write(manifest.to_json() + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write manifest: {exc}") from exc
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="curlwave",
        description="Verification experiments for curl eigenframes and scaling laws.",
    )
    parser.add_argument("verb", help=f"one of: {', '.join(VERBS)}")
    parser.add_argument("--config", help="JSON config file (fields of ExperimentConfig)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--workers", type=int, help="hopf-asymptotic threads; 1 is the reference mode")
    parser.add_argument("--out", help="output directory override")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code this program keeps for violations.
        return 1 if exc.code else 0
    try:
        payload: dict = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    payload = json.load(fh)
            except OSError as exc:
                raise IoFailure(f"cannot read config {args.config}: {exc}") from exc
            except ValueError as exc:
                raise ConfigInvalid(f"config {args.config} is not valid JSON: {exc}") from exc
            if not isinstance(payload, dict):
                raise ConfigInvalid(f"config {args.config} must hold a JSON object")
        payload["verb"] = args.verb
        if args.seed is not None:
            payload["seed"] = args.seed
        if args.workers is not None:
            payload["workers"] = args.workers
        if args.out is not None:
            payload["out_dir"] = args.out
        config = ExperimentConfig.from_dict(payload)
        manifest = run(config)
    # validate() raises ValueError below a field's minimum, and a verb for a check
    # of its own data, such as an open curve or a field that fails the curl check.
    except (CurlwaveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"verb={config.verb} config_hash={manifest.config_hash} seed={manifest.seed}")
    for name, digest in sorted(manifest.digests.items()):
        print(f"wrote {name} sha256={digest[:16]}")
    if manifest.violations:
        for v in manifest.violations:
            print(f"VIOLATION: {v}", file=sys.stderr)
        return 2
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
