"""curlwave benchmark: closed-loop workloads through `curlwave.cli.run`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload again and again, each time in a fresh child process (one
caller, each run starting after the previous one ended), while the next
child is expected to finish within S seconds.  Child i takes config seed
workloads.config_seeds(N)[i], so one run covers several inputs.  Every verb
run is checked against the digests pinned in digests.json for its config
seed; a verb that raises, reports a violation or writes a report whose
sha256 differs counts as failed.

With --trace 0 the last line reports the end-to-end metrics, each the
median over the children:
  run_s        first verb dispatch to last manifest written
  setup_s      child start until curlwave.cli is imported and every config
               has passed validate()
  cpu_s        user + system CPU time of the child
  peak_rss_mb  ru_maxrss of the child, MiB
  ok_rate      1 - failed verb runs / attempted verb runs

With --trace 1 every input runs twice, untraced then traced; the last line
reports the per-layer metrics (tracer.LAYER_METRICS), medians over the
traced children, with the tracing overhead taken between the two runs of
each input, and a per-layer self-time table is printed above it.

Results, with the environment stamp and every span, are written to
.bench_work/results/.  Exits 1 without a result when the program or its
pinned digests are missing, or when a child crashed or timed out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracer import LAYER_METRICS, LAYERS

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_rate", "ratio"),
)

# A child normally takes under 10 s; the limit keeps a hung run within 180 s.
CHILD_TIMEOUT_S = 120


def spawn(workload: str, seed: int, config_seed: int, traced: bool, workers: int | None = None) -> dict:
    """Run one child; returns its record, or {"crash": reason}."""
    wdir = workloads.WORK / workload
    out = wdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = wdir / "child.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ, **workloads.BLAS_ENV)
    cmd = [sys.executable, str(workloads.HERE / "child.py"), workload, "--seed", str(seed),
           "--config-seed", str(config_seed), "--out", str(out), "--result", str(result)]
    if traced:
        cmd.append("--trace")
    if workers is not None:
        cmd += ["--workers", str(workers)]
    t_spawn = time.monotonic()
    cmd += ["--t-spawn", repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crash": f"child timed out after {CHILD_TIMEOUT_S} s", "config_seed": config_seed}
    if proc.returncode != 0 or not result.is_file():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"crash": f"child exited {proc.returncode}: {' | '.join(tail)}", "config_seed": config_seed}
    rec = json.loads(result.read_text())
    rec["traced"] = traced
    rec["config_seed"] = config_seed
    rec["wall_s"] = time.monotonic() - t_spawn
    return rec


def tally(children: list[dict], pinned: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every verb run of every child;
    pinned maps config seed to the digests pinned for it."""
    attempted = failed = 0
    problems = []
    for i, rec in enumerate(children):
        for verb in rec["verbs"]:
            attempted += 1
            why = workloads.judge(verb, pinned[rec["config_seed"]])
            if why:
                failed += 1
                problems += [f"child {i} {verb['verb']}: {w}" for w in why]
    return attempted, failed, problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(children: list[dict], attempted: int, failed: int) -> dict[str, list[float]]:
    samples = {name: [rec[name] for rec in children] for name, _ in END_TO_END[:4]}
    samples["ok_rate"] = [1.0 - failed / attempted]
    return samples


def layer_samples(children: list[dict]) -> dict[str, list[float]]:
    """Per-layer samples of the traced children; children alternate
    untraced, traced on one input, so overhead is taken per input."""
    pairs = list(zip(children[::2], children[1::2]))
    samples = {name: [t["layers"][name] for _, t in pairs] for name, _, _ in LAYER_METRICS}
    samples["trace.overhead_s"] = [t["run_s"] - u["run_s"] for u, t in pairs]
    samples["trace.overhead_frac"] = [(t["run_s"] - u["run_s"]) / u["run_s"] for u, t in pairs]
    return samples


def print_table(samples: dict[str, list[float]], units: dict[str, str]) -> None:
    print(f"{'metric':44s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}")
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"{name:44s} {med:14.6g} {q1:14.6g} {q3:14.6g} {len(values):3d}  {units[name]}")


def print_layer_table(layers: dict[str, float]) -> None:
    run = layers["trace.run_s"]
    total = sum(layers[f"layer.{layer}.self_s"] for layer in LAYERS)
    print(f"{'layer':12s} {'self_s':>10s} {'of self':>8s} {'of run_s':>9s}")
    for layer in LAYERS:
        v = layers[f"layer.{layer}.self_s"]
        print(f"{layer:12s} {v:10.4f} {v / total:8.1%} {v / run:9.1%}")
    print(f"{'uncovered':12s} {layers['trace.uncovered_s']:10.4f} {'':8s} {layers['trace.uncovered_frac']:9.1%}")
    print(f"{'overhead':12s} {layers['trace.overhead_s']:10.4f} {'':8s} {layers['trace.overhead_frac']:9.1%}")
    print("(self times of threads that run at once add up to more than run_s)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="curlwave benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "curlwave" / "cli.py").is_file():
        print(f"error: no curlwave sources under {workloads.SRC}", file=sys.stderr)
        return 1
    try:
        table = workloads.load_pinned()
        pinned = {cs: workloads.pinned_for(table, args.workload, cs)
                  for cs in range(workloads.PINNED_SEEDS)}
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: no pinned digests for {args.workload}: {exc!r}", file=sys.stderr)
        return 1

    order = workloads.config_seeds(args.seed)
    per_input = 2 if args.trace else 1
    children: list[dict] = []
    start = time.monotonic()
    while True:
        traced = len(children) % per_input == 1
        cs = order[(len(children) // per_input) % len(order)]
        children.append(spawn(args.workload, args.seed, cs, traced))
        if "crash" in children[-1]:
            break
        if len(children) % per_input:
            continue
        # Start another input only if it should end within the run's time.
        typical = statistics.median(rec["wall_s"] for rec in children)
        if time.monotonic() - start + per_input * typical > args.seconds:
            break

    if "crash" in children[-1]:
        print(f"error: config seed {children[-1]['config_seed']}: {children[-1]['crash']}", file=sys.stderr)
        return 1
    attempted, failed, problems = tally(children, pinned)
    untraced = [rec for rec in children if not rec["traced"]]

    e2e = end_to_end(untraced, attempted, failed)
    units = {name: unit for name, unit in END_TO_END}
    print(f"workload={args.workload} seed={args.seed} children={len(children)} "
          f"config_seeds={[rec['config_seed'] for rec in children[::per_input]]}")
    print(f"verb runs attempted={attempted} failed={failed} fail_rate={failed / attempted:.4g}")
    print_table(e2e, units)
    if args.trace:
        samples = layer_samples(children)
        layer_units = {name: unit for name, unit, _ in LAYER_METRICS}
        print_table(samples, layer_units)
        layers = {name: statistics.median(v) for name, v in samples.items()}
        print_layer_table(layers)
        metrics = {name: {"value": layers[name], "unit": layer_units[name]} for name, _, _ in LAYER_METRICS}
    else:
        metrics = {name: {"value": statistics.median(e2e[name]), "unit": unit} for name, unit in END_TO_END}
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)

    results = workloads.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": children[0]["env"], "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics, "children": children,
    }
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
