"""Per-size timings of qmul's two paths for a batch times one (4,) quaternion.

    PYTHONPATH=src python3 tools/qmul_sizes.py [--sizes 1,200,1024,...] [--repeat 7]

For each batch size n it times, in microseconds per product, the 16-term
loop and the signed-table path, with the batch on the left (x * q, as the
left-frame legs and the second rotation factor multiply) and on the right
(q * x, the right-frame legs and the first rotation factor).  The table path
is timed at every size by lifting quaternions.TABLE_MAX_POINTS for this
process, and each product is checked to give the loop's bytes.  Each figure
is the best of --repeat rounds of 50 calls.  Run it with one BLAS thread and an idle
machine; the size rule in qmul is the largest size where the table wins.
"""

from __future__ import annotations

import argparse
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracles  # noqa: E402
from curlwave import quaternions  # noqa: E402


def best_us(fns: list, repeat: int, number: int = 50) -> list[float]:
    """Best time per call of each fn, in microseconds; the fns take turns in
    every round, so a slow spell of the machine falls on all of them."""
    best = [float("inf")] * len(fns)
    for _ in range(repeat):
        for i, fn in enumerate(fns):
            best[i] = min(best[i], timeit.timeit(fn, number=number) / number * 1e6)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qmul per-size timings")
    parser.add_argument("--sizes", default="1,64,200,630,1024,1536,2048,4096,16384")
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    q = quaternions.haar_sample(rng, 1)[0]
    quaternions.TABLE_MAX_POINTS = sys.maxsize
    # Warm up: the first timings of a fresh process read slower.
    warm = rng.normal(size=(4, 200))
    best_us([lambda: oracles.qmul_reference(warm, q), lambda: quaternions.qmul(warm, q)], 20)
    print(f"{'n':>6s} {'x*q loop':>9s} {'x*q table':>9s} {'q*x loop':>9s} {'q*x table':>9s}  (us)")
    for n in (int(s) for s in args.sizes.split(",")):
        x = rng.normal(size=(4, n))
        for a, b in ((x, q), (q, x)):
            if quaternions.qmul(a, b).tobytes() != oracles.qmul_reference(a, b).tobytes():
                raise SystemExit(f"table path differs from the loop at n={n}")
        row = best_us([lambda: oracles.qmul_reference(x, q), lambda: quaternions.qmul(x, q),
                       lambda: oracles.qmul_reference(q, x), lambda: quaternions.qmul(q, x)], args.repeat)
        print(f"{n:6d} " + " ".join(f"{t:9.1f}" for t in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
