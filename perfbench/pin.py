"""Pin the report digests the benchmark's correctness gate compares against.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs each workload (all by default) once per config seed in
range(PINNED_SEEDS) with workers=1, the reference mode, and writes the
sha256 of every CSV and record to digests.json.  Refuses to pin a run that
raised or reported a violation.  Re-pin only when a change of output is
intended, and declare that change.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import spawn


def main(argv: list[str]) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    try:
        pinned = workloads.load_pinned()
    except OSError:
        pinned = {}
    for name in names:
        table = {}
        for seed in range(workloads.PINNED_SEEDS):
            rec = spawn(name, seed, seed, traced=False, workers=1)
            if "crash" in rec:
                print(f"{name} config seed {seed}: {rec['crash']}", file=sys.stderr)
                return 1
            digests = {}
            for verb in rec["verbs"]:
                if verb["error"] or verb["violations"] or None in verb["digests"].values():
                    print(f"{name} config seed {seed}: {verb}", file=sys.stderr)
                    return 1
                digests.update(verb["digests"])
            table[str(seed)] = digests
            print(f"{name} config seed {seed}: run_s {rec['run_s']:.2f}", flush=True)
        pinned[name] = table
        workloads.DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
