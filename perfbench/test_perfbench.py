"""Tests of the benchmark itself: tracer, correctness gate, counters, contract.

    python3 -m pytest perfbench/test_perfbench.py

The counter test runs every workload twice in child processes and takes
about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import pytest

import child
import run
import tracer
import workloads
from tracer import LAYER_METRICS, Span, Tracer, self_times, union_length

# Per-layer metrics that are work counts, which must repeat exactly.
COUNT_METRICS = [name for name, unit, _ in LAYER_METRICS if unit in ("count", "B")]

sys.path.insert(0, str(workloads.SRC))
from curlwave import seeds  # noqa: E402


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 4.0
    assert union_length([(0.0, 2.0), (1.0, 3.0)], 1.5, 2.5) == 1.0
    assert union_length([], 0.0, 1.0) == 0.0


def test_self_time_is_duration_minus_children_cover():
    spans = [
        Span(1, 0, "a", 0.0, 10.0),
        Span(2, 1, "b", 1.0, 4.0),
        Span(3, 1, "b", 3.0, 5.0),  # overlaps its sibling, as threads do
        Span(4, 2, "c", 1.0, 2.0),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 6.0, 2: 2.0, 3: 2.0, 4: 1.0}


def test_thread_spans_nest_under_ordered_map_without_lost_updates():
    def leaf(x):
        return x * x

    def item(x):
        return ns.leaf(x)

    ns = types.SimpleNamespace(ordered_map=seeds.ordered_map, leaf=leaf)
    tracer = Tracer()
    tracer.wrap_ordered_map(ns)
    tracer.wrap(ns, "leaf", lambda args, result: {"leaves": 1, "sum": result})
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.span("root") as root:
            out = ns.ordered_map(item, list(range(300)), 4)
    finally:
        sys.setswitchinterval(old)
        tracer.uninstall()
    assert ns.ordered_map is seeds.ordered_map and ns.leaf is leaf
    assert out == [x * x for x in range(300)]
    assert tracer.counters == {"leaves": 300, "sum": sum(x * x for x in range(300))}
    by_id = {s.sid: s for s in tracer.spans}
    (omap,) = [s for s in tracer.spans if s.name == "seeds.ordered_map"]
    assert omap.parent == root and omap.attrs == {"lanes": 4, "items": 300}
    items = [s for s in tracer.spans if s.attrs.get("item")]
    leaves = [s for s in tracer.spans if s.name.endswith(".leaf")]
    assert len(items) == len(leaves) == 300
    assert all(s.parent == omap.sid for s in items)
    assert all(by_id[s.parent].attrs.get("item") for s in leaves)
    assert all(by_id[s.parent].t0 <= s.t0 <= s.t1 <= by_id[s.parent].t1 for s in leaves)


def test_span_records_the_exception_type():
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.span("boom"):
            raise KeyError("x")
    assert tracer.spans[0].error == "KeyError"


@pytest.fixture(scope="module")
def cli():
    return child.load_cli()


def test_gate_fails_on_violation_raise_and_corrupted_report(cli, tmp_path):
    cfgs = [
        cli.ExperimentConfig.from_dict(dict(c, out_dir=str(tmp_path)))
        for c in (
            {"verb": "verify-hyperbolic"},
            {"verb": "verify-s3", "n_points": 200, "min_right_residual": 1e9},
            {"verb": "hopf-asymptotic", "n_pairs": 10},
        )
    ]
    records, _ = child.run_verbs(cli, cfgs, tmp_path)
    clean, violating, raising = records
    pinned = dict(clean["digests"])
    pinned.update(violating["digests"])
    assert workloads.judge(clean, pinned) == []
    assert any("violation" in p for p in workloads.judge(violating, pinned))
    assert any("raised ValueError" in p for p in workloads.judge(raising, pinned))

    rec = {"verbs": records, "config_seed": 0}
    assert run.tally([rec], {0: pinned})[:2] == (3, 2)

    csv = tmp_path / "verify-hyperbolic.csv"
    csv.write_bytes(csv.read_bytes().replace(b"-2.0", b"-2.1", 1))
    corrupted = dict(clean, digests={p.name: workloads.file_digest(p) for p in
                                     workloads.report_paths(tmp_path, "verify-hyperbolic")})
    assert any("differs from pinned" in p for p in workloads.judge(corrupted, pinned))
    assert run.tally([{"verbs": [corrupted], "config_seed": 0}], {0: pinned})[:2] == (1, 1)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counters_repeat_exactly_across_runs_of_one_seed(workload):
    first, second = (run.spawn(workload, 0, 3, traced=True) for _ in range(2))
    assert "crash" not in first and "crash" not in second
    pinned = {3: workloads.pinned_for(workloads.load_pinned(), workload, 3)}
    assert run.tally([first, second], pinned)[1] == 0
    counts = [{name: rec["layers"][name] for name in COUNT_METRICS} for rec in (first, second)]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_tracer_knows_every_verb(cli):
    assert tracer.VERBS == cli.VERBS


def test_every_workload_and_config_seed_is_pinned():
    pinned = workloads.load_pinned()
    for name, cfgs in workloads.WORKLOADS.items():
        for seed in range(workloads.PINNED_SEEDS):
            files = pinned[name][str(seed)]
            assert sorted(files) == sorted(
                p.name for c in cfgs for p in workloads.report_paths(workloads.WORK, c["verb"])
            )


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chord-pairs", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
