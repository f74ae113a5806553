"""The ordered map at the worker cap."""

from curlwave.seeds import MAX_WORKERS, ordered_map


def test_ordered_map_keeps_order_at_the_worker_cap():
    assert ordered_map(lambda i: i * i, list(range(40)), MAX_WORKERS) == [i * i for i in range(40)]
