"""Report bytes against the digests the benchmark pins.

Runs every benchmark workload's configs at config seed 0 in-process and
compares each CSV and record with perfbench/digests.json.  The perfbench
files are only read.
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
