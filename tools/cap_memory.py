"""Peak memory of each verb at the sizes ExperimentConfig.validate caps.

    PYTHONPATH=src python3 tools/cap_memory.py

validate() caps n_points, n_quad, n_chords, n_triples and the trace states
2 n_pairs (ceil(trace_T / trace_step) + 1), each at a value meant to keep
its verb's peak under about 1 GiB.  For each case this script runs the verb
at the cap in a child process and takes that child's peak resident set from
the ru_maxrss that os.wait4 returns for it.  It prints one row per case and
exits 1 if any verb fails or any peak exceeds BUDGET_MIB.  The runs take
minutes, so the script stays out of the test suite.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from curlwave import hypermc, s3
from curlwave.fieldlines import MAX_QUAD_POINTS, MAX_TRACE_STATES, trace_states
from curlwave.seeds import MAX_WORKERS

BUDGET_MIB = 1024.0
# The most pairs the trace-state cap admits at trace_T = 2 pi and the default step.
_PAIRS_AT_CAP = int(MAX_TRACE_STATES // (2 * trace_states(1, 2.0 * math.pi, 0.01)))

CASES = {
    "n_points": ("verify-s3", {"n_points": s3.MAX_CURL_POINTS}),
    "n_quad": ("hopf-asymptotic", {"n_quad": MAX_QUAD_POINTS}),
    "n_chords+n_triples": (
        "triangle-scan",
        {"n_chords": hypermc.MAX_CHORDS, "n_triples": hypermc.MAX_TRIPLES, "lambda_grid": [1.0, 2.0]},
    ),
    "trace_states": (
        "hopf-asymptotic",
        {"n_pairs": _PAIRS_AT_CAP, "trace_T": 2.0 * math.pi, "n_quad": 100, "workers": MAX_WORKERS},
    ),
}


def peak_mib(verb: str, config: dict) -> tuple[float, int, float]:
    """Run the verb in a child; its peak RSS in MiB, exit code and wall time."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "cfg.json"
        path.write_text(json.dumps(config))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "curlwave.cli", verb, "--config", str(path), "--out", work],
            stdout=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0, proc.returncode, wall


def main() -> int:
    over = False
    print(f"{'case':<20} {'verb':<16} {'exit':>4} {'wall s':>8} {'peak MiB':>9}")
    for case, (verb, config) in CASES.items():
        mib, code, wall = peak_mib(verb, config)
        over |= mib > BUDGET_MIB or code != 0
        print(f"{case:<20} {verb:<16} {code:>4} {wall:>8.1f} {mib:>9.1f}", flush=True)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
