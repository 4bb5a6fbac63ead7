"""Tests for the classical FM bucket gain structure."""

import numpy as np
import pytest

from repro.core.gains import BucketGainTable
from repro.core.refine import fm_pass
from tests.conftest import random_graph
from tests.test_refine import GainTable, make_gain_tables


class TestBucketBasics:
    def test_push_pop_max(self):
        t = BucketGainTable(10)
        t.push(1, 5)
        t.push(2, 9)
        t.push(3, -2)
        assert t.pop_best() == (2, 9)
        assert t.pop_best() == (1, 5)
        assert t.pop_best() == (3, -2)
        assert t.pop_best() is None

    def test_lifo_within_bucket(self):
        """Classic FM tie-breaking: last-touched vertex pops first."""
        t = BucketGainTable(5)
        t.push(1, 3)
        t.push(2, 3)
        t.push(3, 3)
        assert t.pop_best() == (3, 3)
        assert t.pop_best() == (2, 3)

    def test_update_moves_between_buckets(self):
        t = BucketGainTable(10)
        t.push(1, 5)
        t.update(1, -5)
        t.push(2, 0)
        assert t.pop_best() == (2, 0)
        assert t.pop_best() == (1, -5)
        assert len(t) == 0

    def test_remove(self):
        t = BucketGainTable(4)
        t.push(1, 2)
        t.remove(1)
        assert 1 not in t
        assert t.pop_best() is None
        t.remove(99)  # absent: no-op

    def test_peek(self):
        t = BucketGainTable(4)
        assert t.peek_best_gain() is None
        t.push(5, -3)
        assert t.peek_best_gain() == -3
        assert len(t) == 1

    def test_gain_range_enforced(self):
        t = BucketGainTable(3)
        t.push(0, 3)
        t.push(1, -3)
        with pytest.raises(ValueError):
            t.push(2, 4)
        with pytest.raises(ValueError):
            BucketGainTable(-1)

    def test_bulk_load(self):
        t = BucketGainTable(10)
        t.bulk_load([1, 2, 3], [5, -1, 7])
        assert len(t) == 3
        assert t.pop_best() == (3, 7)

    def test_differential_vs_heap(self):
        """Both structures must agree on the max gain at every point of a
        random operation sequence (pop identity may differ on ties)."""
        rng = np.random.default_rng(5)
        heap, bucket = GainTable(), BucketGainTable(100)
        live = {}
        for _ in range(3000):
            op = rng.integers(3)
            v = int(rng.integers(60))
            if op == 0:
                g = int(rng.integers(-100, 101))
                heap.push(v, g)
                bucket.push(v, g)
                live[v] = g
            elif op == 1:
                heap.remove(v)
                bucket.remove(v)
                live.pop(v, None)
            else:
                assert heap.peek_best_gain() == bucket.peek_best_gain()
                got_h = heap.pop_best()
                got_b = bucket.pop_best()
                if live:
                    best = max(live.values())
                    assert got_h[1] == got_b[1] == best
                    # Keep the two structures in sync: re-remove whichever
                    # vertex the other popped.
                    heap.remove(got_b[0])
                    bucket.remove(got_h[0])
                    live.pop(got_h[0], None)
                    live.pop(got_b[0], None)
                else:
                    assert got_h is None and got_b is None
            assert len(heap) == len(bucket) == len(live)


class TestFactory:
    def test_make_heap(self, grid8):
        import numpy as np

        ed = np.zeros(64, dtype=np.int64)
        id_ = np.zeros(64, dtype=np.int64)
        a, b = make_gain_tables("heap", grid8, ed, id_)
        assert isinstance(a, GainTable) and isinstance(b, GainTable)

    def test_make_bucket_sized_to_degree(self, grid8):
        from repro.core.gains import external_internal_degrees

        where = np.zeros(64, dtype=np.int8)
        where[32:] = 1
        ed, id_ = external_internal_degrees(grid8, where)
        a, b = make_gain_tables("bucket", grid8, ed, id_)
        bound = int((ed + id_).max())
        a.push(0, bound)
        a.push(1, -bound)
        with pytest.raises(ValueError):
            a.push(2, bound + 1)

    def test_unknown_kind(self, grid8):
        with pytest.raises(ValueError):
            make_gain_tables("splay", grid8, np.zeros(1), np.zeros(1))
        # The FM pass, which builds its own tables, refuses it too.
        where = np.zeros(64, dtype=np.int8)
        where[32:] = 1
        with pytest.raises(ValueError, match="unknown gain table kind"):
            fm_pass(
                grid8, where, np.array([32, 32]), (40, 40), 8,
                boundary_only=True, early_exit=50, gain_table="splay",
            )


class TestEndToEnd:
    def test_bucket_partition_quality_comparable(self):
        import repro

        g = random_graph(300, 0.04, seed=9, connected=True)
        heap_cut = repro.partition(g, 8, seed=4, gain_table="heap").cut
        bucket_cut = repro.partition(g, 8, seed=4, gain_table="bucket").cut
        assert bucket_cut <= 1.3 * heap_cut
        assert heap_cut <= 1.3 * bucket_cut

    def test_invalid_option_rejected(self):
        from repro.core.options import MultilevelOptions

        with pytest.raises(ValueError):
            MultilevelOptions(gain_table="splay")
