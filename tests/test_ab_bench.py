"""Verdicts and order-effect fields of tools/ab_bench.py's summary.

The tool is loaded by path; summarize runs on synthetic pairs, so no
benchmark runs here.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_bench", Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

SPEC = {"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}]}


def _side(value, exit_code=0, correct=True):
    return {"exit": exit_code, "correct": correct, "metrics": {"run_s": value}}


def _pairs(parent, change):
    # Alternating order, as the tool runs them: the parent first in even pairs.
    return [
        {"pair": i, "first": "parent" if i % 2 == 0 else "change", "parent": _side(a), "change": _side(b)}
        for i, (a, b) in enumerate(zip(parent, change))
    ]


def test_a_change_faster_in_every_pair_by_more_than_the_spread_is_a_gain():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    s = ab_bench.summarize(_pairs(parent, [x - 0.2 for x in parent]), SPEC)["run_s"]
    assert s["pairs"] == 10 and s["wins"] == 10 and s["losses"] == 0
    assert s["gain"] is True
    assert s["regression"] == "within bound"
    assert s["change_minus_parent"] == pytest.approx(-0.2)


def test_nine_wins_of_ten_with_a_gap_inside_the_spread_is_no_gain():
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
    change = [x - 0.01 for x in parent[:9]] + [parent[9] + 0.01]
    s = ab_bench.summarize(_pairs(parent, change), SPEC)["run_s"]
    assert s["wins"] == 9
    assert s["gain"] is False


def test_a_median_past_the_bound_is_worse():
    parent = [1.0] * 10
    s = ab_bench.summarize(_pairs(parent, [1.3] * 10), SPEC)["run_s"]
    assert s["regression"] == "worse"
    assert s["gain"] is False and s["losses"] == 10


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [0.6, 1.4, 0.7, 1.3, 1.0, 0.6, 1.4, 0.7, 1.3, 1.0]
    change = [1.4, 0.6, 1.3, 0.7, 1.0, 1.4, 0.6, 1.3, 0.7, 1.0]
    s = ab_bench.summarize(_pairs(parent, change), SPEC)["run_s"]
    assert s["regression"] == "unresolved"
    # The same spread with every change run below every parent run resolves.
    s = ab_bench.summarize(_pairs(parent, [x - 1.0 for x in parent]), SPEC)["run_s"]
    assert s["regression"] == "within bound"


def test_order_effect_counts_the_second_run_whichever_side_it_is():
    # Both sides take 1.0 s, and the second run of every pair takes 0.1 s more.
    pairs = _pairs([1.0] * 10, [1.0] * 10)
    for p in pairs:
        second = "change" if p["first"] == "parent" else "parent"
        p[second]["metrics"]["run_s"] += 0.1
    s = ab_bench.summarize(pairs, SPEC)["run_s"]
    assert s["order"]["second_minus_first"] == pytest.approx(0.1)
    assert s["order"]["second_worse"] == 10
    # The effect reads as wins and losses split five and five.
    assert (s["wins"], s["losses"]) == (5, 5)
    assert s["change_minus_parent"] == pytest.approx(0.0)


def test_order_effect_is_zero_without_one():
    parent = [1.0, 1.1, 0.9, 1.0]
    s = ab_bench.summarize(_pairs(parent, parent), SPEC)["run_s"]
    assert s["order"] == {"second_minus_first": 0.0, "second_worse": 0}


def test_failed_runs_enter_no_statistic():
    pairs = _pairs([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
    pairs[0]["change"] = _side(0.1, exit_code=1)
    pairs[1]["parent"] = _side(9.0, correct=False)
    s = ab_bench.summarize(pairs, SPEC)["run_s"]
    assert s["pairs"] == 1
    assert s["order"]["second_minus_first"] == pytest.approx(-0.5)
    assert ab_bench.summarize(pairs[:2], SPEC)["run_s"] == {"pairs": 0}
