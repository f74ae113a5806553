"""Deterministic seeding and worker-count-independent parallel reduction.

Every Monte Carlo consumer derives generators from a 64-bit root seed through
SeedSequence spawn keys, and work is split into fixed-size chunks whose
results are combined in index order.  Outputs are therefore byte-identical
for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from numpy.random import PCG64, Generator, SeedSequence

# ExperimentConfig.validate caps workers, the threads ordered_map starts, here.
# Each asymptotic_hopf worker holds about 15 MiB at its peak, so sixteen of
# them beside the largest trace that validate() admits stay within about 1 GiB.
MAX_WORKERS = 16


def substream(seed: int, *key: int) -> Generator:
    """Generator for a fixed substream of the given root seed."""
    return Generator(PCG64(SeedSequence(seed, spawn_key=key)))


def fixed_chunks(n: int, chunk: int) -> list[tuple[int, int]]:
    """[(start, stop)] covering range(n) in chunks of fixed size.

    The chunk layout depends only on (n, chunk), never on worker count.
    """
    if chunk <= 0:
        raise ValueError(f"chunk size must be positive, got {chunk}")
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def ordered_map(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """Map fn over items, preserving order; threads only parallelize evaluation."""
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
