"""One benchmark child: set up curlwave, run one workload once, report facts.

    python3 perfbench/child.py WORKLOAD --seed N --config-seed C --out DIR
        --result FILE --t-spawn T [--trace] [--workers W]

The child imports `curlwave.cli` from this checkout's `src/`, builds and
validates every config of the workload, then runs the verbs in order through
`curlwave.cli.run`.  It writes one JSON object to FILE at the end: timings,
rusage, per-verb outcome and report digests, the environment stamp, and with
--trace the spans and per-layer metrics.  The parent (run.py or pin.py)
judges the outcome; the child only reports.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import workloads


def load_cli():
    """Import curlwave.cli from this checkout's src/, never from elsewhere."""
    pkg = workloads.SRC / "curlwave"
    if not (pkg / "cli.py").is_file():
        raise SystemExit(f"no curlwave sources under {workloads.SRC}")
    sys.path.insert(0, str(workloads.SRC))
    from curlwave import cli

    if Path(cli.__file__).resolve().parent != pkg:
        raise SystemExit(f"imported curlwave from {cli.__file__}, not from {pkg}")
    return cli


def run_verbs(cli, cfgs: list, out_dir: Path, tracer=None) -> tuple[list[dict], tuple[float, float]]:
    """Run each config through cli.run; returns per-verb records and the
    (first dispatch, last manifest written) perf_counter window."""
    records = []
    t_first = time.perf_counter()
    for cfg in cfgs:
        rec = {"verb": cfg.verb, "error": None, "violations": []}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                manifest = cli.run(cfg)
            else:
                with tracer.span("cli.run", verb=cfg.verb):
                    manifest = cli.run(cfg)
            rec["violations"] = list(manifest.violations)
        except Exception as exc:  # a failing verb is a measured outcome
            rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["traceback"] = traceback.format_exc(limit=4)
        rec["run_s"] = time.perf_counter() - t0
        records.append(rec)
    window = (t_first, time.perf_counter())
    for rec in records:
        rec["digests"] = {
            p.name: workloads.file_digest(p) for p in workloads.report_paths(out_dir, rec["verb"])
        }
    return records, window


def csv_counters(out_dir: Path) -> dict[str, float]:
    """Closure failures and resamples from the hopf-asymptotic CSV, if any."""
    path = out_dir / "hopf-asymptotic.csv"
    if not path.is_file():
        return {}
    with open(path) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return {
        "fieldlines.closure_failures": float(sum(int(r["failures"]) for r in rows)),
        "fieldlines.resamples": float(sum(int(r["resamples"]) for r in rows)),
    }


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workers: int, seed: int, config_seed: int) -> dict:
    """What the result depends on besides the code: machine, libraries, seed."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((workloads.SRC / "curlwave").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "workers": workers,
        "seed": seed,
        "config_seed": config_seed,
        "git_commit": _git_commit(workloads.ROOT),
        "src_sha256": src.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="benchmark seed, for the stamp")
    parser.add_argument("--config-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--t-spawn", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workers", type=int, help="override every config's worker count")
    args = parser.parse_args(argv)

    cli = load_cli()
    cfgs = [
        cli.ExperimentConfig.from_dict(dict(c, out_dir=str(args.out)))
        for c in workloads.configs(args.workload, args.config_seed, args.workers)
    ]
    for cfg in cfgs:
        cfg.validate()
    t_ready = time.monotonic()

    tracer = None
    if args.trace:
        # Imported only now, so that tracing adds nothing to setup_s.
        from tracer import Tracer, install, summarize

        tracer = Tracer()
        install(tracer, cli)
    records, window = run_verbs(cli, cfgs, args.out, tracer)
    usage = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "setup_s": t_ready - args.t_spawn,
        "run_s": window[1] - window[0],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "verbs": records,
        "env": environment(max(cfg.workers for cfg in cfgs), args.seed, args.config_seed),
    }
    if tracer is not None:
        tracer.uninstall()
        layers = summarize(tracer.spans, tracer.counters, window)
        layers.update(csv_counters(args.out))
        result["layers"] = layers
        result["spans"] = [asdict(s) for s in tracer.spans]
    args.result.write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
