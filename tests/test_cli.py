"""Config round-trips, report formats, exit codes, and run manifests."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curlwave import cli, hyperbolic, hypermc, s3
from curlwave.cli import ExperimentConfig, emit_report, main, run
from curlwave.errors import ConfigInvalid, IoFailure
from curlwave.fieldlines import MAX_QUAD_POINTS, MAX_TRACE_STATES
from curlwave.hypermc import MAX_CHORDS, MAX_TRIPLES, MIN_TRIPLES
from curlwave.seeds import MAX_WORKERS

SRC = Path(cli.__file__).resolve().parents[1]


def _cfg(**kw):
    kw.setdefault("verb", "verify-hyperbolic")
    return ExperimentConfig(**kw)


def test_config_json_round_trip_byte_exact():
    cfg = _cfg(seed=11, lambda_grid=(0.5, 1.0, 2.0), eps_list=(0.3, 0.2))
    text = json.dumps(dataclasses.asdict(cfg), sort_keys=True)
    again = ExperimentConfig.from_dict(json.loads(text))
    assert again == cfg
    assert json.dumps(dataclasses.asdict(again), sort_keys=True) == text
    assert again.config_hash() == cfg.config_hash()


def test_config_rejects_unknown_and_missing_fields():
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_dict({"verb": "linking", "n_pointz": 5})
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_dict({"seed": 3})


@pytest.mark.parametrize(
    "patch",
    [
        {"eps_list": (0.1, 0.2, 0.3)},
        {"eps_list": (0.3, 0.3)},
        {"eps_list": (0.3, 1.6)},
        {"eps_list": (0.5 * np.pi, 0.3, 0.2, 0.1)},
        {"eps_list": (0.3, 0.2, 0.1, 0.0)},
        {"eps_list": ()},
        {"trace_step": 0.02},
        {"trace_step": 0.0},
        {"n_points": 0},
        {"n_chords": -5},
        {"workers": 0},
        {"seed": -1},
        {"lambda_grid": ()},
        {"lambda_grid": (1.0, 0.0)},
        {"disk_radius": -2.0},
        {"verb": ""},
        {"verb": "frobnicate"},
        {"verb": ["linking"]},
        {"n_triples": MAX_TRIPLES + 1},
    ],
)
def test_config_validate_rejects(patch):
    cfg = dataclasses.replace(_cfg(), **patch)
    with pytest.raises(ConfigInvalid):
        cfg.validate()


def test_config_hash_ignores_execution_resources():
    cfg = _cfg(seed=5)
    assert dataclasses.replace(cfg, workers=8).config_hash() == cfg.config_hash()
    assert dataclasses.replace(cfg, out_dir="elsewhere").config_hash() == cfg.config_hash()
    assert dataclasses.replace(cfg, seed=6).config_hash() != cfg.config_hash()
    assert dataclasses.replace(cfg, n_chords=999).config_hash() != cfg.config_hash()


def _results(rows=(), summary=None):
    return {"rows": list(rows), "summary": summary or {}, "config_hash": "cafe01", "seed": 7}


def test_emit_report_csv(tmp_path):
    base = str(tmp_path / "out")
    rows = [{"name": "a", "value": 1.5, "count": 3, "ok": True}]
    paths = emit_report(_results(rows), base)
    assert paths == [base + ".csv", base + "_summary.txt"]
    lines = open(paths[0]).read().splitlines()
    assert lines[0] == "# config_hash=cafe01 seed=7"
    assert lines[1] == "name,value,count,ok"
    assert lines[2] == "a,1.5,3,True"
    assert len(lines) == 3


def test_emit_report_record_sorted(tmp_path):
    paths = emit_report(_results(summary={"zeta": 2, "alpha": 0.25}), str(tmp_path / "out"))
    lines = open(paths[1]).read().splitlines()
    assert lines == ["alpha=0.25", "config_hash=cafe01", "seed=7", "zeta=2"]


def test_emit_report_bad_format_and_unwritable(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    with pytest.raises(IoFailure):
        emit_report(_results(), str(blocker / "sub" / "x"))


def test_run_writes_reports_and_manifest(tmp_path):
    cfg = _cfg(out_dir=str(tmp_path), lambda_grid=(1.0, 4.0))
    manifest = run(cfg)
    assert manifest.violations == ()
    assert manifest.config_hash == cfg.config_hash()
    assert manifest.seed == 0
    assert set(manifest.digests) == {"verify-hyperbolic.csv", "verify-hyperbolic_summary.txt"}
    for name, digest in manifest.digests.items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
    stamp = (tmp_path / "verify-hyperbolic.csv").read_text().splitlines()[0]
    assert cfg.config_hash() in stamp
    saved = json.loads((tmp_path / "verify-hyperbolic_manifest.json").read_text())
    assert saved["config_hash"] == cfg.config_hash()
    assert saved["digests"] == manifest.digests


def test_run_unknown_verb():
    with pytest.raises(ConfigInvalid, match="unknown verb 'frobnicate'"):
        run(_cfg(verb="frobnicate"))


def test_same_config_reruns_identically(tmp_path):
    cfg1 = _cfg(out_dir=str(tmp_path / "a"), lambda_grid=(1.0, 2.0))
    cfg2 = _cfg(out_dir=str(tmp_path / "b"), lambda_grid=(1.0, 2.0))
    m1 = run(cfg1)
    m2 = run(cfg2)
    assert m1.digests == m2.digests
    a = (tmp_path / "a" / "verify-hyperbolic.csv").read_bytes()
    b = (tmp_path / "b" / "verify-hyperbolic.csv").read_bytes()
    assert a == b


def test_main_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "ok")
    rc = main(["verify-hyperbolic", "--out", out])
    assert rc == 0
    captured = capsys.readouterr()
    assert "all checks passed" in captured.out
    assert "config_hash=" in captured.out

    cfg_path = tmp_path / "strict.json"
    cfg_path.write_text(json.dumps({"n_points": 400, "min_right_residual": 10.0}))
    rc = main(["verify-s3", "--config", str(cfg_path), "--out", str(tmp_path / "v")])
    assert rc == 2
    captured = capsys.readouterr()
    assert "VIOLATION:" in captured.err

    rc = main(["frobnicate", "--out", str(tmp_path / "bad")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"n_pointz": 5}))
    rc = main(["verify-hyperbolic", "--config", str(bad_cfg)])
    assert rc == 1
    assert "unknown config field" in capsys.readouterr().err

    rc = main(["verify-hyperbolic", "--config", str(tmp_path / "missing.json")])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        json.dumps(payload)
        for payload in (
            {"disk_radius": "3"},
            {"lambda_grid": [1, "x"]},
            {"lambda_grid": 2.0},
            {"eps_list": 0.3},
            {"trace_step": "0.01"},
            {"n_points": True},
            {"seed": True},
            {"disk_radius": True},
            {"out_dir": 5},
            [1, 2],
            # json reads NaN and Infinity; validate() must refuse them.
            {"trace_T": float("inf")},
            {"lambda_grid": [1.0, float("nan")]},
            {"max_left_residual": float("inf")},
        )
    ]
    + ['{"seed": '],
)
def test_main_rejects_mistyped_config(tmp_path, monkeypatch, capsys, text):
    # Every case fails in parsing or validate(), before any verb runs.
    def verb_must_not_run(config, timings):
        raise AssertionError("verify-hyperbolic ran on a config that should not validate")

    monkeypatch.setitem(cli._VERB_TABLE, "verify-hyperbolic", verb_must_not_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "typed.json").write_text(text)
    assert main(["verify-hyperbolic", "--config", "typed.json"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, payload",
    [
        ("triangle-scan", {"n_chords": 500}),
        ("triangle-scan", {"disk_radius": 60.0}),
        ("alpha-scaling", {"n_chords": 500}),
        ("alpha-scaling", {"disk_radius": 60.0}),
        ("alpha-scaling", {"lambda_grid": [1, 2, 3]}),
        ("hopf-asymptotic", {"n_pairs": 50}),
        ("hopf-asymptotic", {"trace_T": 1.0}),
    ],
)
def test_main_maps_verb_preconditions_to_exit_1(tmp_path, monkeypatch, capsys, verb, payload):
    # Each config breaks a precondition of the verb, which validate() refuses.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(payload))
    assert main([verb, "--config", "cfg.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_reports_disagreeing_helicity_legs_as_violation(tmp_path, monkeypatch, capsys):
    # A failed claim is a violation (exit 2), not a usage error (exit 1).
    agreeing = cli.hyperbolic.helicity_density_algebraic

    def third_leg_off(spec, l):
        return agreeing(spec, l) + (1e-9 if l == 3 else 0.0)

    monkeypatch.setattr(cli.hyperbolic, "helicity_density_algebraic", third_leg_off)
    assert main(["verify-hyperbolic", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("VIOLATION: helicity density at lambda=") == len(_cfg().lambda_grid)
    header, *rows = (tmp_path / "verify-hyperbolic.csv").read_text().splitlines()[1:]
    column = header.split(",").index("h_density")
    assert rows and all(r.split(",")[column] == "nan" for r in rows)


# Every verb that reads lambda takes it in hyperbolic.VERIFIED_LAMBDA_RANGE,
# [1e-5, 1e6].  Outside it, validate() rejects the grid before any work.
# Near the ends verify-hyperbolic's curvature columns miss their laws by more
# than the 1e-9 gate (+2.9e17 against -2.2e13 horizontally at 1e-20, 6.1e-5
# relative vertically at 1e12), and where lambda**3 leaves the normal
# doubles (below 2.812644285236262e-103, above 5.643803094122361e102) the
# densities come out wrong or NaN as well.  The chord verbs' disk area cubed
# overflows at 1e200 and underflows to 0 at 1e-200, and alpha-scaling's
# decade check overflows at 5e-324.
LAMBDA_OUTSIDE = [
    5e-324, 1e-300, 1e-200, 1e-120, 1e-107, 2.8126442852362615e-103, 2.812644285236262e-103, 1e-20,
    float(np.nextafter(1e-5, 0.0)), float(np.nextafter(1e6, np.inf)), 1e12,
    5.643803094122361e102, 5.643803094122363e102, 1e103, 1e200, 1e300, 1.7e308,
]


@pytest.mark.parametrize("verb", ["verify-hyperbolic", "triangle-scan", "alpha-scaling"])
@pytest.mark.parametrize("lam", LAMBDA_OUTSIDE)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_rejects_lambda_outside_the_verified_range(tmp_path, monkeypatch, capsys, lam, verb):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"lambda_grid": [1.0, 2.0, 3.0, 5.0, lam]}))
    assert main([verb, "--config", "cfg.json"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: lambda_grid: each value must lie in [1e-05, 1e+06], got {lam!r}\n"
    assert not list(tmp_path.glob(f"{verb}*"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_passes_lambda_just_inside_the_range(tmp_path, monkeypatch, capsys):
    # Every claim holds at both ends of the range: densities and curvatures.
    monkeypatch.chdir(tmp_path)
    grid = [1e-5, 1.0, 1e6]
    assert list(hyperbolic.VERIFIED_LAMBDA_RANGE) == grid[::2]
    (tmp_path / "cfg.json").write_text(json.dumps({"lambda_grid": grid}))
    assert main(["verify-hyperbolic", "--config", "cfg.json"]) == 0
    assert "VIOLATION" not in capsys.readouterr().err
    header, *rows = (tmp_path / "results" / "verify-hyperbolic.csv").read_text().splitlines()[1:]
    columns = header.split(",")
    table = [dict(zip(columns, r.split(","))) for r in rows]
    assert [float(r["lambda"]) for r in table] == grid
    for r in table:
        assert abs(float(r["h_density"]) + 2.0) <= 1e-10
        assert abs(float(r["t_density_times_lambda"]) - 3.0) <= 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_chord_scales_are_normal_doubles_inside_the_config_domain():
    # validate() takes lambda in VERIFIED_LAMBDA_RANGE and disk_radius in
    # [1e-4, 50], ends included, and nothing past them.  On a log grid over
    # that box, corners included, every density scale the chord verbs form
    # is a normal double at the disk radius either verb forms, so validate()
    # need not check the scales lambda by lambda.  Each scale is monotone in
    # both fields, so its extremes lie at the corners.
    lo, hi = hyperbolic.VERIFIED_LAMBDA_RANGE
    d_lo, d_hi = 1e-4, 50.0
    box = {"verb": "triangle-scan", "lambda_grid": (lo, hi)}
    for d in (d_lo, d_hi):
        _cfg(**box, disk_radius=d).validate()
    past = [
        {"lambda_grid": (float(np.nextafter(lo, 0.0)), hi)},
        {"lambda_grid": (lo, float(np.nextafter(hi, np.inf)))},
        {"disk_radius": float(np.nextafter(d_lo, 0.0))},
        {"disk_radius": float(np.nextafter(d_hi, np.inf))},
    ]
    for patch in past:
        with pytest.raises(ConfigInvalid):
            _cfg(**{**box, **patch}).validate()
    lams = [lo, *np.geomspace(lo, hi, 101)[1:-1], hi]
    radii = [d_lo, *np.geomspace(d_lo, d_hi, 101)[1:-1], d_hi]
    for lam in lams:
        K = hypermc.lambda_to_curvature(lam)
        rho = 1.0 / np.sqrt(-K)
        for d in radii:
            # triangle-scan's disk radius, then alpha-scaling's.
            for R in (d * rho, d / np.sqrt(-K)):
                P, A = hypermc.disk_perimeter(K, R), hypermc.disk_area(K, R)
                scales = (P**3, A**3, P**3 / A**2, P**2 / A, P**3 / A**3)
                assert all(sys.float_info.min <= x <= sys.float_info.max for x in scales), (lam, d)


@pytest.mark.parametrize(
    "plane, columns",
    [(0, ["horizontal_curvature"]), (1, ["vertical_curvature_1"]), (2, ["vertical_curvature_2"])],
)
def test_main_gates_the_curvature_columns(tmp_path, monkeypatch, capsys, plane, columns):
    # Each column is held to 1e-9 of its law: one plane curvature moved by
    # 1e-8 relative at lambda = 1 is a violation (exit 2) in that column only.
    profile = hyperbolic.sectional_profile

    def one_plane_off(lam):
        ks = list(profile(lam))
        if lam == 1.0:
            ks[plane] *= 1.0 + 1e-8
        return tuple(ks)

    monkeypatch.setattr(hyperbolic, "sectional_profile", one_plane_off)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"lambda_grid": [1.0, 2.0]}))
    assert main(["verify-hyperbolic", "--config", "cfg.json"]) == 2
    violations = [v for v in capsys.readouterr().err.splitlines() if v.startswith("VIOLATION: ")]
    assert [v.split()[1:4] for v in violations] == [[c, "at", "lambda=1.0"] for c in columns]


def test_main_rejects_over_budget_triples_before_the_verb(tmp_path, monkeypatch, capsys):
    # validate() caps the triple sample, so an over-budget config never
    # reaches the verb's pair-count stage or allocates its triples.
    def verb_must_not_run(config, timings):
        raise AssertionError("triangle-scan ran on an over-budget config")

    monkeypatch.setitem(cli._VERB_TABLE, "triangle-scan", verb_must_not_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"n_chords": 2000, "n_triples": MAX_TRIPLES + 1}))
    assert main(["triangle-scan", "--config", "cfg.json"]) == 1
    assert "n_triples: at most" in capsys.readouterr().err
    _cfg(n_triples=MAX_TRIPLES).validate()


def test_main_caps_the_lambda_grid_at_the_quantile_table(tmp_path, monkeypatch, capsys):
    # loglog_fit's stored t quantiles serve at most 64 points: 64 values run
    # and fit with the last quantile, 65 exit 1 before any verb runs.
    monkeypatch.chdir(tmp_path)
    grid = [float(x) for x in np.geomspace(1.0, 16.0, 65)]
    sizes = {"n_chords": 1300, "n_triples": 20000}
    (tmp_path / "64.json").write_text(json.dumps({"lambda_grid": grid[:64], **sizes}))
    (tmp_path / "65.json").write_text(json.dumps({"lambda_grid": grid, **sizes}))
    assert main(["alpha-scaling", "--config", "64.json", "--out", "out"]) == 0
    capsys.readouterr()
    rows = (tmp_path / "out" / "alpha-scaling.csv").read_text().splitlines()[2:]
    lams, ys = np.array([[float(v) for v in r.split(",")] for r in rows]).T
    record = (tmp_path / "out" / "alpha-scaling_summary.txt").read_text()
    summary = dict(line.split("=") for line in record.split())
    _, _, se_slope, _ = hypermc._linear_fit(np.log(lams), np.log(ys))
    assert lams.size == 64 and float(summary["half_width"]) == hypermc.T_QUANTILES_95[-1] * se_slope

    def verb_must_not_run(config, timings):
        raise AssertionError("a verb ran with 65 grid values")

    for verb in ("alpha-scaling", "triangle-scan", "verify-hyperbolic"):
        monkeypatch.setitem(cli._VERB_TABLE, verb, verb_must_not_run)
        assert main([verb, "--config", "65.json"]) == 1
        assert "lambda_grid: at most 64 values, got 65" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, below, at_minimum, want",
    [
        ("triangle-scan", {"n_chords": 999}, {"n_chords": 1000}, "n_chords: need at least 1000, got 999"),
        ("alpha-scaling", {"n_chords": 999}, {"n_chords": 1000}, "n_chords: need at least 1000, got 999"),
        # Below MIN_TRIPLES a run could find no triangle below the smallest
        # cutoff, and its fit then failed with a message that named no field.
        ("triangle-scan", {"n_chords": 1000, "n_triples": 9999, "lambda_grid": [1, 2]},
         {"n_chords": 1000, "n_triples": 10000, "lambda_grid": [1, 2]}, "n_triples: need at least 10000, got 9999"),
        ("alpha-scaling", {"n_chords": 1000, "n_triples": 1}, {"n_chords": 1000, "n_triples": 10000},
         "n_triples: need at least 10000, got 1"),
        ("triangle-scan", {"lambda_grid": [1.0]}, {"lambda_grid": [1.0, 2.0]},
         "lambda_grid: slopes need at least 2 distinct values, got (1.0,)"),
        ("triangle-scan", {"lambda_grid": [2.0, 2.0]}, {"lambda_grid": [2.0, 3.0]},
         "lambda_grid: slopes need at least 2 distinct values, got (2.0, 2.0)"),
        ("alpha-scaling", {"lambda_grid": [1.0, 10.0]}, {"lambda_grid": [1.0, 2.0, 3.0, 4.0, 10.0]},
         "lambda_grid: need at least 5 grid values, got 2"),
        ("alpha-scaling", {"lambda_grid": [1.0, 2.0, 3.0, 4.0, 9.9]}, {"lambda_grid": [1.0, 2.0, 3.0, 4.0, 10.0]},
         "lambda_grid: must span at least a decade, got (1.0, 2.0, 3.0, 4.0, 9.9)"),
        ("triangle-scan", {"eps_list": [0.3]}, {"eps_list": [0.3, 0.2, 0.1, 0.05]},
         "eps_list: need at least 4 cutoffs to extrapolate, got 1"),
        ("triangle-scan", {"eps_list": [0.3, 0.2, 0.1]}, {"eps_list": [0.3, 0.2, 0.1, 0.05]},
         "eps_list: need at least 4 cutoffs to extrapolate, got 3"),
        ("alpha-scaling", {"eps_list": [0.3]}, {"eps_list": [0.3, 0.2, 0.1, 0.05]},
         "eps_list: need at least 4 cutoffs to extrapolate, got 1"),
        ("alpha-scaling", {"eps_list": [0.3, 0.2, 0.1]}, {"eps_list": [0.3, 0.2, 0.1, 0.05]},
         "eps_list: need at least 4 cutoffs to extrapolate, got 3"),
        ("hopf-asymptotic", {"n_pairs": 99}, {"n_pairs": 100},
         "n_pairs: need at least 100, got 99"),
        ("hopf-asymptotic", {"trace_T": 6.28}, {"trace_T": 2.0 * np.pi},
         "trace_T: need at least 2 pi, got 6.28"),
        ("hopf-asymptotic", {"n_quad": 99}, {"n_quad": 100}, "n_quad: need at least 100, got 99"),
        ("triangle-scan", {"disk_radius": 60.0}, {"disk_radius": 50.0},
         "disk_radius: must lie in [1e-4, 50] curvature units, got 60.0"),
        ("alpha-scaling", {"disk_radius": 60.0}, {"disk_radius": 50.0},
         "disk_radius: must lie in [1e-4, 50] curvature units, got 60.0"),
        ("triangle-scan", {"disk_radius": 1e-300}, {"disk_radius": 1e-4},
         "disk_radius: must lie in [1e-4, 50] curvature units, got 1e-300"),
        ("alpha-scaling", {"disk_radius": 1e-300}, {"disk_radius": 1e-4},
         "disk_radius: must lie in [1e-4, 50] curvature units, got 1e-300"),
        # A field has one domain whatever the verb, so a verb that does not
        # read it refuses it too.
        ("verify-s3", {"n_chords": 999}, {"n_chords": 1000}, "n_chords: need at least 1000, got 999"),
        ("linking", {"trace_T": 6.28}, {"trace_T": 2.0 * np.pi}, "trace_T: need at least 2 pi, got 6.28"),
        ("verify-hyperbolic", {"disk_radius": 60.0}, {"disk_radius": 50.0},
         "disk_radius: must lie in [1e-4, 50] curvature units, got 60.0"),
    ],
    ids=["triangle-scan-n_chords", "alpha-scaling-n_chords", "triangle-scan-n_triples", "alpha-scaling-n_triples",
         "one_lambda", "distinct_lambdas", "grid_values",
         "grid_decade", "triangle-scan-1_cutoff", "triangle-scan-3_cutoffs", "alpha-scaling-1_cutoff",
         "alpha-scaling-3_cutoffs", "n_pairs", "trace_T", "n_quad", "triangle-scan-disk_60", "alpha-scaling-disk_60",
         "triangle-scan-disk_1e-300", "alpha-scaling-disk_1e-300", "verify-s3-n_chords", "linking-trace_T",
         "verify-hyperbolic-disk_60"],
)
@pytest.mark.filterwarnings("error")
def test_validate_refuses_a_verb_minimum_naming_the_field(tmp_path, monkeypatch, capfd, verb, below, at_minimum, want):
    # Such a config used to reach the verb, which refused it from inside the
    # library, in most cases with a message that named no field.  Each
    # minimum is one domain bound, whatever the verb.
    def verb_must_not_run(config, timings):
        raise AssertionError(f"{verb} ran on a config below its minimum")

    monkeypatch.setitem(cli._VERB_TABLE, verb, verb_must_not_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(below))
    assert main([verb, "--config", "cfg.json"]) == 1
    assert capfd.readouterr().err == f"error: {want}\n"
    assert want.split(":")[0] in below
    _cfg(verb=verb, **at_minimum).validate()


# 2 * 100 lines * (ceil(T / h) + 1) trace states; h = 2^-7 keeps T / h exact.
_H = 2.0**-7
_STEPS_AT_CAP = MAX_TRACE_STATES // 200 - 1


@pytest.mark.parametrize(
    "verb, at_cap, over_cap, field",
    [
        ("verify-s3", {"n_points": s3.MAX_CURL_POINTS}, {"n_points": s3.MAX_CURL_POINTS + 1}, "n_points"),
        ("hopf-asymptotic", {"n_quad": MAX_QUAD_POINTS}, {"n_quad": MAX_QUAD_POINTS + 1}, "n_quad"),
        ("triangle-scan", {"n_chords": MAX_CHORDS}, {"n_chords": MAX_CHORDS + 1}, "n_chords"),
        (
            "hopf-asymptotic",
            {"n_pairs": 100, "trace_step": _H, "trace_T": _STEPS_AT_CAP * _H},
            {"n_pairs": 100, "trace_step": _H, "trace_T": (_STEPS_AT_CAP + 1) * _H},
            "trace_T",
        ),
        # 400 lines of 1,000,001 states each: an 11.9 GiB path array.
        ("hopf-asymptotic", {}, {"trace_T": 1e4}, "trace_T"),
        # About 5e303 states, a number the error line must not print in full.
        ("hopf-asymptotic", {}, {"trace_step": 1e-300}, "trace_step"),
        # 2,000,000 lines of 1,258 states each at the default T and step.
        ("hopf-asymptotic", {"n_pairs": MAX_TRACE_STATES // 2516}, {"n_pairs": 1_000_000}, "n_pairs"),
        # An int past the doubles, which the trace-state product cannot take
        # and the error line must not print; n_pairs' own cap, a trace of 2
        # states a line, refuses it.  12,698 pairs is the most the trace-state
        # cap admits at the shortest trace_T, 2 pi.
        ("verify-s3", {"n_pairs": 12_698, "trace_T": 2.0 * np.pi}, {"n_pairs": 10**400}, "n_pairs"),
    ],
    ids=[
        "n_points", "n_quad", "n_chords", "trace_states", "trace_T_1e4", "trace_step_1e-300", "n_pairs_1e6",
        "n_pairs_1e400",
    ],
)
def test_main_rejects_over_cap_sizes_before_the_verb(tmp_path, monkeypatch, capsys, verb, at_cap, over_cap, field):
    # validate() caps every size that sets a verb's memory, so a config over
    # a cap exits 1 without running the verb, naming the field that broke
    # the cap; the cap itself is allowed.
    def verb_must_not_run(config, timings):
        raise AssertionError(f"{verb} ran on an over-cap config")

    monkeypatch.setitem(cli._VERB_TABLE, verb, verb_must_not_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(over_cap))
    assert main([verb, "--config", "cfg.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and "at most" in err
    assert all(len(line) < 200 for line in err.splitlines())
    _cfg(verb=verb, **at_cap).validate()


@pytest.mark.parametrize(
    "payload, start",
    [
        ({"n_pairs": -10**400}, "error: n_pairs: must be a positive integer, got -1000000"),
        ({"lambda_grid": [1.0 + k / 7 for k in range(65)] + ["x"]},
         "error: lambda_grid: must be a non-empty list of finite numbers, got (1.0, 1.1428571428571428, "),
    ],
    ids=["n_pairs_-1e400", "lambda_grid_66_values"],
)
def test_main_cuts_a_long_refused_value(tmp_path, monkeypatch, capsys, payload, start):
    # A refused value is echoed whole up to 60 characters; past that, its
    # first 60 characters and its length, so the error line stays short.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(payload))
    assert main(["verify-s3", "--config", "cfg.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(start) and err.endswith(" characters)\n")
    assert all(len(line) < 200 for line in err.splitlines())


@pytest.mark.parametrize(
    "verb, payload, cause",
    [
        # A disk of 1e-300 curvature units: its perimeter and area underflow,
        # so every density would be 0/0.  A lambda whose scales leave the
        # doubles lies outside VERIFIED_LAMBDA_RANGE; see
        # test_main_rejects_lambda_outside_the_verified_range.
        ("triangle-scan", {"n_chords": 1300, "n_triples": MIN_TRIPLES, "disk_radius": 1e-300},
         "disk_radius: must lie in [1e-4, 50] curvature units, got 1e-300"),
    ],
    ids=["triangle-scan"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_names_degenerate_disk_scales(tmp_path, monkeypatch, capsys, verb, payload, cause):
    # A disk whose densities cannot be represented is rejected with its
    # cause before any NaN reaches a fit or a gate.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(payload))
    assert main([verb, "--config", "cfg.json"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {cause}\n"
    assert not list(tmp_path.glob(f"{verb}*"))


def test_main_caps_workers_before_the_verb(tmp_path, monkeypatch, capsys):
    # ordered_map starts up to one thread per item.  12,698 pairs is the most
    # validate() admits at T = 2 pi, so a million workers would start about
    # 12,700 threads; the cap stops the run before the verb starts any.
    def verb_must_not_run(config, timings):
        raise AssertionError("hopf-asymptotic ran with too many workers")

    monkeypatch.setitem(cli._VERB_TABLE, "hopf-asymptotic", verb_must_not_run)
    monkeypatch.chdir(tmp_path)
    payload = {"n_pairs": 12_698, "trace_T": 2.0 * np.pi}
    (tmp_path / "cfg.json").write_text(json.dumps(payload))
    assert main(["hopf-asymptotic", "--config", "cfg.json", "--workers", "1000000"]) == 1
    assert "workers: at most" in capsys.readouterr().err
    assert main(["hopf-asymptotic", "--config", "cfg.json", "--workers", str(MAX_WORKERS + 1)]) == 1
    capsys.readouterr()
    _cfg(verb="hopf-asymptotic", workers=MAX_WORKERS, **payload).validate()


@pytest.mark.parametrize(
    "argv", [[], ["verify-s3", "--seed", "x"], ["verify-s3", "--bogus"], ["verify-s3", "--workers", "1.5"]],
    ids=["no_verb", "seed_x", "bogus_flag", "workers_1.5"],
)
def test_main_maps_usage_errors_to_exit_1(capsys, argv):
    # argparse exits 2 on a usage error; 2 is this program's code for a
    # violation, so main() reports the usage error as 1.
    assert main(argv) == 1
    assert "usage: curlwave" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage: curlwave" in capsys.readouterr().out


def test_module_run_imports_cleanly(tmp_path):
    # The package must not import cli itself, or runpy warns that
    # curlwave.cli was already in sys.modules.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "curlwave.cli",
         "verify-hyperbolic", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "verify-hyperbolic.csv").is_file()


def test_flags_override_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 3, "lambda_grid": [1.0, 2.0]}))
    out = tmp_path / "flagged"
    rc = main(
        ["verify-hyperbolic", "--config", str(cfg_path), "--seed", "9", "--out", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    saved = json.loads((out / "verify-hyperbolic_manifest.json").read_text())
    assert saved["seed"] == 9
    assert (out / "verify-hyperbolic.csv").exists()
