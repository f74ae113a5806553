"""The ordered map at the worker cap, and the fixed chunk layout."""

from curlwave.seeds import MAX_WORKERS, fixed_chunks, ordered_map


def test_ordered_map_keeps_order_at_the_worker_cap():
    assert ordered_map(lambda i: i * i, list(range(40)), MAX_WORKERS) == [i * i for i in range(40)]


def test_fixed_chunks_cover_the_range_once_in_order():
    # Every caller passes a positive chunk; the chunks then tile range(n) in
    # order, all full but the last, and an empty range gives no chunk.
    assert fixed_chunks(0, 4) == []
    assert fixed_chunks(3, 4) == [(0, 3)]
    assert fixed_chunks(8, 4) == [(0, 4), (4, 8)]
    for n in (1, 7, 256, 1000):
        for chunk in (1, 3, 256):
            spans = fixed_chunks(n, chunk)
            assert [i for lo, hi in spans for i in range(lo, hi)] == list(range(n))
            assert all(hi - lo == chunk for lo, hi in spans[:-1])
            assert 0 < spans[-1][1] - spans[-1][0] <= chunk
