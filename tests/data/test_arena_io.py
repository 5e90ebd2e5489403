"""On-disk arena files: round-trip, atomicity, zero-copy guarantees."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.data import ArenaFile, Dataset, load_arena
from repro.data.arena import ARENA_MAGIC, segment_boundaries
from repro.errors import DataError
from repro.tidvector import stack_tidvectors


def _dataset(n_records=300, seed=7):
    rng = np.random.default_rng(seed)
    records = [[f"v{rng.integers(0, 3)}" for _ in range(5)]
               for _ in range(n_records)]
    labels = [f"c{rng.integers(0, 2)}" for _ in range(n_records)]
    return Dataset.from_records(records, labels,
                                [f"A{j}" for j in range(5)],
                                name="arena-fixture")


class TestRoundTrip:
    def test_single_segment_round_trip(self, tmp_path):
        ds = _dataset()
        path = tmp_path / "ds.arena"
        ds.save_arena(path)
        back = Dataset.open_arena(path)
        assert back.n_records == ds.n_records
        assert back.class_names == ds.class_names
        assert np.array_equal(back.class_labels, ds.class_labels)
        assert np.array_equal(back.item_arena, ds.item_arena)
        assert [str(i) for i in back.catalog] == \
               [str(i) for i in ds.catalog]
        assert back.fingerprint() == ds.fingerprint()

    def test_multi_segment_round_trip(self, tmp_path):
        ds = _dataset(n_records=1000)
        path = tmp_path / "ds.arena"
        ds.save_arena(path, n_segments=4)
        with ArenaFile(path) as af:
            assert af.n_segments == 4
            assert np.array_equal(af.item_supports(),
                                  [t.count() for t in ds.item_tidsets])
        back = Dataset.open_arena(path)
        assert np.array_equal(back.item_arena, ds.item_arena)

    def test_header_fingerprint_readable_without_scan(self, tmp_path):
        ds = _dataset()
        path = tmp_path / "ds.arena"
        ds.save_arena(path)
        with ArenaFile(path) as af:
            assert af.fingerprint == ds.fingerprint()

    def test_load_arena_helper(self, tmp_path):
        ds = _dataset()
        path = tmp_path / "ds.arena"
        ds.save_arena(path)
        assert load_arena(path).fingerprint() == ds.fingerprint()
        sharded = load_arena(path, sharded=True)
        assert sharded.fingerprint() == ds.fingerprint()
        sharded.close()

    def test_segment_metadata_merges_to_whole(self, tmp_path):
        ds = _dataset(n_records=640)
        path = tmp_path / "ds.arena"
        ds.save_arena(path, n_segments=5)
        with ArenaFile(path) as af:
            assert np.array_equal(af.segment_class_counts().sum(axis=0),
                                  af.class_counts())
            assert np.array_equal(af.segment_item_supports().sum(axis=0),
                                  af.item_supports())


class TestAtomicityAndErrors:
    def test_no_partial_file_on_failure(self, tmp_path):
        ds = _dataset()
        target = tmp_path / "ds.arena"

        class Boom(Exception):
            pass

        real = ds._arena_chunks

        def exploding(w0, w1):
            yield from real(w0, w1)
            raise Boom()

        ds._arena_chunks = exploding
        with pytest.raises(Boom):
            ds.save_arena(target)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # tmp file cleaned up

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.arena"
        path.write_bytes(b"NOTANARENA" + b"\x00" * 64)
        with pytest.raises(DataError, match="magic"):
            ArenaFile(path)

    def test_truncated_file_rejected(self, tmp_path):
        ds = _dataset()
        path = tmp_path / "ds.arena"
        ds.save_arena(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 16])
        with pytest.raises(DataError, match="truncat"):
            ArenaFile(path)

    def test_magic_constant(self):
        assert ARENA_MAGIC == b"REPROARN"

    def test_closed_arena_refuses_reads(self, tmp_path):
        ds = _dataset()
        path = tmp_path / "ds.arena"
        ds.save_arena(path)
        af = ArenaFile(path)
        af.close()
        assert af.closed
        with pytest.raises(DataError):
            af.whole_words()


class TestSegmentBoundaries:
    def test_interior_boundaries_word_aligned(self):
        bounds = segment_boundaries(1000, 4)
        assert bounds[0] == 0 and bounds[-1] == 1000
        assert all(b % 64 == 0 for b in bounds[1:-1])

    def test_k_capped_at_word_count(self):
        bounds = segment_boundaries(333, 7)  # 333 records = 6 words
        assert len(bounds) - 1 == 6


class TestZeroCopy:
    def test_open_arena_maps_not_copies(self, tmp_path):
        ds = _dataset()
        path = tmp_path / "ds.arena"
        ds.save_arena(path)
        back = Dataset.open_arena(path)
        # Walk the view chain: some ancestor must be the file mapping
        # (np.memmap, whose own .base is the raw mmap object).
        chain, node = [], back.item_arena
        while node is not None:
            chain.append(node)
            node = getattr(node, "base", None)
        assert any(isinstance(a, np.memmap) for a in chain) \
            or type(chain[-1]).__name__ == "mmap"

    def test_pickle_ships_path_not_words(self, tmp_path):
        ds = _dataset(n_records=2000)
        path = tmp_path / "ds.arena"
        ds.save_arena(path)
        back = Dataset.open_arena(path)
        blob = pickle.dumps(back)
        # Far below the word block's size: the path rides, not pages.
        assert len(blob) < 4096 + ds.n_records * 8
        again = pickle.loads(blob)
        assert np.array_equal(again.item_arena, ds.item_arena)
        assert again.fingerprint() == ds.fingerprint()

    def test_relabelled_arena_dataset_pickles_by_path(self, tmp_path):
        ds = _dataset(n_records=1500)
        path = tmp_path / "ds.arena"
        ds.save_arena(path)
        back = Dataset.open_arena(path)
        flipped = back.with_class_labels(
            np.array(back.class_labels)[::-1].tolist())
        blob = pickle.dumps(flipped)
        assert len(blob) < 4096 + 2 * ds.n_records * 8
        again = pickle.loads(blob)
        assert np.array_equal(again.class_labels, flipped.class_labels)
        assert np.array_equal(again.item_arena, ds.item_arena)

    def test_stack_tidvectors_shared_arena_is_view(self):
        ds = _dataset()
        stacked = stack_tidvectors(list(ds.item_tidsets), ds.n_records)
        # The pin: tidsets that already share one contiguous arena
        # stack as a view of it, no fresh allocation.
        assert np.shares_memory(stacked, ds.item_arena)

    def test_stack_tidvectors_mixed_sources_copies(self):
        ds = _dataset()
        rows = list(ds.item_tidsets)
        rows[1] = rows[1].copy()  # breaks the shared-arena chain
        stacked = stack_tidvectors(rows, ds.n_records)
        assert stacked.shape == ds.item_arena.shape
        assert np.array_equal(stacked, ds.item_arena)
        assert not np.shares_memory(stacked, ds.item_arena)

    def test_stack_tidvectors_reordered_rows_copy(self):
        # Rows of one arena with the first and last in place but the
        # middle swapped: the arena window would hold them in the
        # wrong order, so they are stacked in the order given.
        ds = _dataset()
        rows = list(ds.item_tidsets)
        order = [0, 2, 1] + list(range(3, len(rows)))
        assert not np.array_equal(rows[1].words, rows[2].words)
        stacked = stack_tidvectors([rows[i] for i in order], ds.n_records)
        assert np.array_equal(stacked, ds.item_arena[order])
        assert not np.shares_memory(stacked, ds.item_arena)
