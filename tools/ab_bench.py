"""A/B runs of the benchmark on two checkouts, alternating which goes first.

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR --workload W --pairs N \
        [--seconds S] [--seed-base B] [--out DIR]

Pair i runs `perfbench/run.py --workload W --seed B+i --seconds S` in both
checkouts, each with its own perfbench, sources and .bench_work; the parent
goes first in even pairs and the change in odd ones, so slow drift in the
machine's load falls on both sides alike.  Each pair takes a fresh
benchmark seed, and both sides of a pair take the same one.

Writes DIR/BENCH_ab_<workload>.json with every pair's end-to-end metrics,
and per metric each side's median and quartiles, the change's wins, losses
and ties, and two verdicts:

  gain        the change wins at least 9/10 of the pairs (ties count for
              neither) and its median is better than the parent's by more
              than the parent's interquartile range.
  regression  "worse" when the change's median is worse than the parent's
              by more than the metric's bound in CHANGE_DIR/BENCHMARK.json,
              taken as a fraction of the parent's median; "unresolved" when
              either side's interquartile range exceeds that bound and not
              every change run beats every parent run; else "within bound".

It also records the order effect of each metric: the median over pairs of
the second run's value minus the first run's, whichever side ran first, and
the number of pairs whose second run was the worse one (for a time, the
slower).  With no order effect the median is near 0 and about half the
pairs have the worse run second.

A run that exits nonzero or reports `"correct": false` is kept in the file
and counted; its metrics enter no statistic.  Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in checkout; its last stdout line parsed, plus timing and load."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    load_before = os.getloadavg()[0]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    rec = {"wall_s": time.monotonic() - t0, "load1_before": load_before,
           "load1_after": os.getloadavg()[0], "exit": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rec["error"] = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return rec
    rec["correct"] = result["correct"]
    rec["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return rec


def head_commit(checkout: Path) -> str | None:
    """The checkout's HEAD commit, or None outside a git work tree."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Medians, quartiles, wins and verdicts for every end-to-end metric."""
    good = [p for p in pairs if all(p[s].get("exit") == 0 and p[s].get("correct") for s in ("parent", "change"))]
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [p["parent"]["metrics"][name] for p in good]
        b = [p["change"]["metrics"][name] for p in good]
        if not a:
            out[name] = {"pairs": 0}
            continue
        better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
        wins = sum(better(y, x) for x, y in zip(a, b))
        losses = sum(better(x, y) for x, y in zip(a, b))
        # (first, second) run of each pair, whichever side went first.
        runs = [(x, y) if p["first"] == "parent" else (y, x) for p, x, y in zip(good, a, b)]
        qa, qb = quartiles(a), quartiles(b)
        iqr_a, iqr_b = qa[2] - qa[0], qb[2] - qb[0]
        gain_size = (qa[1] - qb[1]) if lower else (qb[1] - qa[1])
        bound = metric["bound"] * abs(qa[1])
        if -gain_size > bound:
            regression = "worse"
        elif max(iqr_a, iqr_b) > bound and not all(better(y, x) for x in a for y in b):
            regression = "unresolved"
        else:
            regression = "within bound"
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "pairs": len(a),
            "parent": {"median": qa[1], "q1": qa[0], "q3": qa[2]},
            "change": {"median": qb[1], "q1": qb[0], "q3": qb[2]},
            "change_minus_parent": qb[1] - qa[1],
            "relative": (qb[1] - qa[1]) / qa[1] if qa[1] else None,
            "wins": wins, "losses": losses, "ties": len(a) - wins - losses,
            "gain": wins >= 0.9 * len(a) and gain_size > iqr_a,
            "bound": metric["bound"], "regression": regression,
            "order": {"second_minus_first": statistics.median(y - x for x, y in runs),
                      "second_worse": sum(better(x, y) for x, y in runs)},
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="alternating A/B runs of perfbench/run.py")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--out", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    pairs = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"pair": i, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(dirs[side], args.workload, seed, args.seconds)
        pairs.append(pair)
        print(f"pair {i} seed {seed} first {order[0]}: " + "  ".join(
            f"{side} run_s={pair[side].get('metrics', {}).get('run_s', float('nan')):.4f}"
            for side in ("parent", "change")), flush=True)

    failed = sum(1 for p in pairs for s in ("parent", "change") if p[s].get("exit") != 0 or not p[s].get("correct"))
    record = {
        "workload": args.workload, "seconds": args.seconds, "seed_base": args.seed_base,
        "checkouts": {side: {"name": d.name, "commit": head_commit(d)} for side, d in dirs.items()},
        "env": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "failed_runs": failed, "summary": summarize(pairs, spec), "pairs": pairs,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_ab_{args.workload}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, s in record["summary"].items():
        if s["pairs"]:
            print(f"{name:12s} parent {s['parent']['median']:.4g} [{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}]"
                  f"  change {s['change']['median']:.4g} [{s['change']['q1']:.4g}, {s['change']['q3']:.4g}]"
                  f"  wins {s['wins']}/{s['pairs']}  gain={s['gain']}  {s['regression']}")
            print(f"{'':12s} order: second - first median {s['order']['second_minus_first']:+.4g},"
                  f" second worse in {s['order']['second_worse']}/{s['pairs']}")
    print(f"wrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
