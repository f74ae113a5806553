"""Workloads of the curlwave benchmark and its correctness gate.

Each workload is a list of flat configs for `curlwave.cli.run`, executed in
order in one fresh child process (closed loop: one caller, each verb starts
after the previous one finished).  Sizes are scaled so that one child takes
a few seconds, which lets a run repeat the workload and report medians.

The program's inputs are fixed by the config seed.  A benchmark seed selects
an order of the pinned config seeds, and the children of one run take them
in that order, so a run's medians cover several inputs.  That matters for
hopf-linking, whose cost per input is heavy-tailed: the rare pair of curves
that pass close to each other is resampled to up to 2400 points per curve.

The gate: every CSV and record a verb writes must match the sha256 pinned in
`digests.json` for its workload and config seed.  The digests come from
`workers=1` runs (see pin.py), so a workload run with `workers=2` also checks
that outputs do not depend on the worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"

# Config seeds with reference digests; every benchmark seed draws from them.
PINNED_SEEDS = 16

WORKLOADS: dict[str, tuple[dict, ...]] = {
    # fieldlines does almost all the work (trace, close, separation scans,
    # solid-angle quadrature); hypermc is never called and s3 is nearly idle.
    # trace_T is the smallest the verb accepts (2*pi) and n_pairs its minimum.
    # workers=2 exercises the threads of seeds.ordered_map.
    "hopf-linking": (
        {"verb": "hopf-asymptotic", "n_pairs": 100, "trace_T": 2.0 * math.pi,
         "trace_step": 0.01, "n_quad": 20000, "workers": 2},
    ),
    # hypermc.pair_intersection_density dominates and its 2048 x N
    # temporaries set the peak RSS; fieldlines is idle.  N > 1216 keeps the
    # scan on the subsampled-triple path.
    "chord-pairs": (
        {"verb": "triangle-scan", "n_chords": 4500, "n_triples": 300000, "workers": 1},
    ),
    # Same layers used differently: short closed fibers with the crossing
    # oracle, triple subsampling without pair counts, chart curls in s3.
    # Five verbs per child, so report writing and set-up weigh most here.
    "verify-suite": (
        {"verb": "verify-s3", "n_points": 50000},
        {"verb": "verify-hyperbolic"},
        {"verb": "linking"},
        {"verb": "m5-estimate"},
        {"verb": "alpha-scaling", "n_triples": 1000000, "workers": 2},
    ),
}


def config_seeds(seed: int) -> list[int]:
    """The order in which a run with this benchmark seed takes the config seeds."""
    return random.Random(seed).sample(range(PINNED_SEEDS), PINNED_SEEDS)


def configs(workload: str, config_seed: int, workers: int | None = None) -> list[dict]:
    """The workload's configs for one config seed, optionally forcing the worker count."""
    out = []
    for cfg in WORKLOADS[workload]:
        cfg = dict(cfg, seed=config_seed)
        if workers is not None:
            cfg["workers"] = workers
        out.append(cfg)
    return out


# One BLAS thread per child: with workers=2 that keeps the load within two
# cores, and with workers=1 it measured steadier than OpenBLAS's default of
# one thread per core (run_s spread about 6% against 17% on chord-pairs).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def report_paths(out_dir: Path, verb: str) -> list[Path]:
    """The CSV and record `curlwave.cli.run` writes for a verb."""
    return [out_dir / f"{verb}.csv", out_dir / f"{verb}_summary.txt"]


def file_digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def load_pinned() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def pinned_for(pinned: dict, workload: str, config_seed: int) -> dict[str, str]:
    """{file name: sha256} pinned for the workload at this config seed."""
    return pinned[workload][str(config_seed)]


def judge(verb_record: dict, pinned: dict[str, str]) -> list[str]:
    """Reasons a verb run failed; empty when it passed the gate.

    A run fails if it raised, reported a violation, or wrote a CSV or record
    whose sha256 differs from the pinned digest.
    """
    problems = []
    if verb_record.get("error"):
        problems.append(f"raised {verb_record['error']}")
    problems += [f"violation: {v}" for v in verb_record.get("violations", [])]
    for name, digest in verb_record.get("digests", {}).items():
        want = pinned.get(name)
        if want is None:
            problems.append(f"{name}: no pinned digest")
        elif digest != want:
            problems.append(f"{name}: sha256 {str(digest)[:16]} differs from pinned {want[:16]}")
    return problems
