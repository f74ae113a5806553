"""Report bytes against the digests the benchmark pins.

Runs every benchmark workload's configs at config seed 0, and verify-s3 at
every pinned config seed, in-process and compares each CSV and record with
perfbench/digests.json.  The perfbench files are only read.
"""

import importlib.util
from pathlib import Path

import pytest

from curlwave.cli import ExperimentConfig, run

_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reports_match_pinned_digests(tmp_path, workload):
    written = {}
    for cfg in workloads.configs(workload, 0):
        manifest = run(ExperimentConfig.from_dict(dict(cfg, out_dir=str(tmp_path))))
        assert manifest.violations == ()
        for path in workloads.report_paths(tmp_path, cfg["verb"]):
            written[path.name] = workloads.file_digest(path)
    assert written == workloads.pinned_for(workloads.load_pinned(), workload, 0)


@pytest.mark.parametrize("config_seed", range(workloads.PINNED_SEEDS))
def test_verify_s3_reports_match_pinned_digests_at_every_seed(tmp_path, config_seed):
    # ym_residual_left is roundoff, about 5e-15: a reassociation in the chart
    # curls can leave the record at seed 0 unchanged and change it at another.
    (cfg,) = [c for c in workloads.configs("verify-suite", config_seed) if c["verb"] == "verify-s3"]
    manifest = run(ExperimentConfig.from_dict(dict(cfg, out_dir=str(tmp_path))))
    assert manifest.violations == ()
    pinned = workloads.pinned_for(workloads.load_pinned(), "verify-suite", config_seed)
    for path in workloads.report_paths(tmp_path, "verify-s3"):
        assert workloads.file_digest(path) == pinned[path.name], path.name
