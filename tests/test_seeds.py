"""The worker cap of the ordered map."""

import pytest

from curlwave.seeds import MAX_WORKERS, ordered_map


def test_ordered_map_keeps_order_at_the_worker_cap():
    assert ordered_map(lambda i: i * i, list(range(40)), MAX_WORKERS) == [i * i for i in range(40)]


def test_ordered_map_rejects_workers_above_the_cap():
    # The check comes before any thread starts or any item runs.
    def item_must_not_run(item):
        raise AssertionError("an item ran above the worker cap")

    with pytest.raises(ValueError, match="at most"):
        ordered_map(item_must_not_run, [1, 2], MAX_WORKERS + 1)
