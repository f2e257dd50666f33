import hashlib
import math
import struct
import tracemalloc
import warnings
from datetime import date, timedelta

import numpy as np
import pytest

import oracles
from helpers import make_cats, make_log, random_triplets, triplet_list

from demandrec import data, kernels
from demandrec.data import (
    CategoryMap,
    PurchaseLog,
    _SPLIT_SPEC,
    _build_log,
    _read_arrays,
    _write_arrays,
    build_recency_index,
    export_log,
    ingest_categories,
    ingest_purchases,
    load_log,
    split_train_test,
    triplet_recency,
)
from demandrec.errors import DataFormatError
from demandrec.synthetic import SynthSpec, generate
from demandrec.utility import compute_targets

FIXTURE_ROWS = """\
alice,soap,100
bob,soap,100
alice,soap,100
carol,razor,103
alice,razor,101
bob,towel,110
bob,soap,104
carol,soap,100
dave,razor,115
alice,towel,108
dave,soap,100
alice,soap,106
bob,razor,101
carol,towel,109
dave,towel,112
alice,razor,113
bob,soap,115
carol,razor,114
dave,soap,107
alice,towel,115
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestIngestPurchases:
    def test_duplicate_rows_collapse(self, tmp_path):
        path = write(tmp_path, "p.csv", "u1,iA,0\nu1,iA,0\n")
        log = ingest_purchases(path)
        assert (log.nnz, log.m, log.n, log.l) == (1, 1, 1, 1)

    def test_binning_spans_slots(self, tmp_path):
        path = write(tmp_path, "p.csv", "u1,iA,0\nu2,iB,3\n")
        log = ingest_purchases(path, granularity=1.0)
        assert log.l == 4
        assert sorted(log.slots.tolist()) == [0, 3]

    def test_granularity_groups_days(self, tmp_path):
        path = write(tmp_path, "p.csv", "u1,iA,0\nu1,iB,6\nu1,iC,7\n")
        log = ingest_purchases(path, granularity=7.0)
        assert log.l == 2
        by_item = dict(zip(log.items.tolist(), log.slots.tolist()))
        assert by_item == {0: 0, 1: 0, 2: 1}

    def test_fixture_matches_reference_parser(self, tmp_path):
        path = write(tmp_path, "p.csv", FIXTURE_ROWS)
        log = ingest_purchases(path)
        trips, m, n, l, uorder, iorder = oracles.parse_purchases(path)
        assert (log.m, log.n, log.l, log.nnz) == (m, n, l, len(trips))
        assert triplet_list(log) == trips
        assert log.user_labels == uorder
        assert log.item_labels == iorder

    def test_row_order_does_not_matter(self, tmp_path):
        lines = FIXTURE_ROWS.strip().split("\n")
        a = ingest_purchases(write(tmp_path, "a.csv", "\n".join(lines) + "\n"))
        b = ingest_purchases(write(tmp_path, "b.csv", "\n".join(reversed(lines)) + "\n"))
        assert triplet_list(a) == triplet_list(b)
        assert a.user_labels == b.user_labels and a.item_labels == b.item_labels

    def test_numeric_labels_sort_numerically(self, tmp_path):
        path = write(tmp_path, "p.csv", "10,5,0\n2,11,0\n")
        log = ingest_purchases(path)
        assert log.user_labels == ["2", "10"]
        assert log.item_labels == ["5", "11"]

    def test_iso_timestamps(self, tmp_path):
        path = write(tmp_path, "p.csv", "u,i,2020-01-01\nu,j,2020-01-04\n")
        log = ingest_purchases(path, timestamp_format="iso")
        assert log.l == 4

    def test_malformed_row_reports_line(self, tmp_path):
        path = write(tmp_path, "p.csv", "u,i,0\nu,i\n")
        with pytest.raises(DataFormatError, match=r"p\.csv:2"):
            ingest_purchases(path)

    def test_bad_timestamp_reports_line(self, tmp_path):
        path = write(tmp_path, "p.csv", "u,i,zero\n")
        with pytest.raises(DataFormatError, match=r"p\.csv:1"):
            ingest_purchases(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="no purchase records"):
            ingest_purchases(write(tmp_path, "p.csv", "\n\n"))

    @pytest.mark.parametrize("granularity", [0, math.nan, math.inf])
    def test_bad_granularity_rejected(self, tmp_path, granularity):
        path = write(tmp_path, "p.csv", "u,i,0\n")
        with pytest.raises(DataFormatError, match="granularity"):
            ingest_purchases(path, granularity=granularity)

    @pytest.mark.parametrize("days, granularity", [
        ((0, 1), 1e-300),
        ((-(2**62), 2**62), 1.0),
        ((-(2**63), 2**63 - 1), 1.0),
    ])
    def test_slot_range_beyond_int64_is_refused(self, tmp_path, days, granularity):
        # the latest slot, span / granularity, is at least 2**63: it used to
        # wrap to an unsorted log with every slot 0
        path = write(tmp_path, "p.csv", "".join(f"{u},i,{day}\n" for u, day in enumerate(days)))
        with pytest.raises(DataFormatError,
                           match=r"p\.csv: the latest slot, .* coarser granularity$"):
            ingest_purchases(path, granularity=granularity)

    def test_span_beyond_int64_at_a_coarse_granularity(self, tmp_path):
        # a span of 2**63 days or more is exact before it is divided
        path = write(tmp_path, "p.csv", f"a,i,{-(2**62)}\nb,i,{2**62}\n")
        log = ingest_purchases(path, granularity=2.0**62)
        assert triplet_list(log) == [(0, 0, 0), (1, 0, 2)]

    def test_log_invariants(self, tmp_path):
        log = ingest_purchases(write(tmp_path, "p.csv", FIXTURE_ROWS))
        trips = triplet_list(log)
        assert trips == sorted(set(trips))
        assert log.users.max() < log.m and log.items.max() < log.n
        assert log.slots.max() < log.l
        assert set(log.users.tolist()) == set(range(log.m))
        assert set(log.items.tolist()) == set(range(log.n))


class TestExportLoad:
    """The split bundle written by train and read by evaluate/recommend."""

    def split_parts(self, tmp_path):
        log = ingest_purchases(write(tmp_path, "p.csv", FIXTURE_ROWS))
        cats = CategoryMap(assignment=np.arange(log.n) % 2, r=2)
        split = split_train_test(log, 0.3, seed=1)
        return split.train, split.test, cats

    def write_raw(self, path, dims, train, test, assignment, version=2, dtype=None):
        """A bundle with a valid digest but arbitrary contents: ``train`` and
        ``test`` are flat (user, item, slot) lists, whose columns are stored
        in ``dtype``, by default the id dtype of ``dims``."""
        dtype = dtype or data._id_dtype(*dims[:3])
        arrays = {"dims": dims, "assignment": assignment}
        for part, triplets in (("train", train), ("test", test)):
            columns = np.reshape(np.asarray(triplets, dtype=dtype), (-1, 3)).T
            for column, ids in zip(("users", "items", "slots"), columns):
                arrays[f"{part}_{column}"] = ids
        _write_arrays(path, b"DRECSPL\x00", version, _SPLIT_SPEC, arrays)
        return path

    def test_round_trip_bit_exact(self, tmp_path):
        train, test, cats = self.split_parts(tmp_path)
        assert train.nnz > 0 and test.nnz > 0
        out = tmp_path / "split.bin"
        export_log(train, test, cats, out)
        back_train, back_test, back_cats = load_log(out)
        for got, want in ((back_train, train), (back_test, test)):
            assert (got.m, got.n, got.l) == (want.m, want.n, want.l)
            assert np.array_equal(got.users, want.users)
            assert np.array_equal(got.items, want.items)
            assert np.array_equal(got.slots, want.slots)
        assert back_cats.r == cats.r
        assert np.array_equal(back_cats.assignment, cats.assignment)
        again = tmp_path / "split2.bin"
        export_log(back_train, back_test, back_cats, again)
        assert out.read_bytes() == again.read_bytes()

    def test_empty_test_set(self, tmp_path):
        out = self.write_raw(tmp_path / "split.bin", [2, 2, 8, 1], [0, 0, 3, 1, 1, 7], [],
                             [0, 0])
        train, test, _ = load_log(out)
        assert train.nnz == 2 and test.nnz == 0

    def test_declared_horizon_preserved(self, tmp_path):
        out = self.write_raw(tmp_path / "split.bin", [2, 2, 50, 1], [0, 0, 3, 1, 1, 7],
                             [0, 1, 4], [0, 0])
        train, test, _ = load_log(out)
        assert train.l == 50 and test.l == 50

    def test_bad_header(self, tmp_path):
        train, test, cats = self.split_parts(tmp_path)
        out = tmp_path / "split.bin"
        export_log(train, test, cats, out)
        raw = bytearray(out.read_bytes())
        raw[0] ^= 0xFF
        out.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="not a split bundle"):
            load_log(out)

    def test_wrong_version(self, tmp_path):
        out = self.write_raw(tmp_path / "split.bin", [2, 2, 8, 1], [0, 0, 3], [], [0, 0],
                             version=7)
        with pytest.raises(DataFormatError, match="version 7"):
            load_log(out)

    def test_version_1_refused(self, tmp_path):
        out = self.write_raw(tmp_path / "split.bin", [2, 2, 8, 1], [0, 0, 3], [], [0, 0],
                             version=1)
        with pytest.raises(DataFormatError, match="unsupported split bundle version 1$"):
            load_log(out)

    def test_bundle_bytes_are_pinned(self, tmp_path):
        """The sha256 of a fixed small bundle: any change to the format,
        version 2 with int32 id columns here, or to the split's draw is
        deliberate."""
        train, test, cats = self.split_parts(tmp_path)
        out = tmp_path / "split.bin"
        export_log(train, test, cats, out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "863b45493b64b83c4cacf4668b73b4e6a760c6254d717932dcff9893fcbc8470")

    @pytest.mark.parametrize("dims, stored, expected", [
        ([2, 2, 8, 1], np.int64, "int32"), ([2, 2, 2**31, 1], np.int32, "int64")])
    def test_ids_not_in_the_dtype_of_the_dims_refused(self, tmp_path, dims, stored, expected):
        out = self.write_raw(tmp_path / "split.bin", dims, [0, 0, 3, 1, 1, 7], [], [0, 0],
                             dtype=stored)
        with pytest.raises(DataFormatError,
                           match=f"train_users holds {np.dtype(stored)} ids, expected {expected}"):
            load_log(out)

    def test_int64_log_of_small_dims_is_stored_as_int32(self, tmp_path):
        train, test, cats = self.split_parts(tmp_path)
        wide = [PurchaseLog(users=log.users.astype(np.int64), items=log.items.astype(np.int64),
                            slots=log.slots.astype(np.int64), m=log.m, n=log.n, l=log.l)
                for log in (train, test)]
        export_log(train, test, cats, tmp_path / "narrow.bin")
        export_log(*wide, cats, tmp_path / "wide.bin")
        assert (tmp_path / "wide.bin").read_bytes() == (tmp_path / "narrow.bin").read_bytes()

    def test_an_int64_id_beyond_int32_is_refused_not_wrapped(self, tmp_path):
        # user 2**32 + 1 of a 2-user log would be stored as user 1
        log = PurchaseLog(users=np.array([0, 2**32 + 1]), items=np.array([0, 0]),
                          slots=np.array([1, 1]), m=2, n=1, l=2)
        out = tmp_path / "split.bin"
        with pytest.raises(DataFormatError, match="train_users holds ids beyond int32"):
            export_log(log, log.user_log(0), CategoryMap(np.zeros(1, dtype=np.int64), r=1), out)
        assert not out.exists()

    def test_columns_of_unequal_length_refused(self, tmp_path):
        arrays = {"dims": [2, 2, 8, 1], "assignment": [0, 0]}
        for part in ("train", "test"):
            for column in ("users", "items", "slots"):
                arrays[f"{part}_{column}"] = np.zeros(0, dtype=np.int32)
        arrays["train_users"] = np.array([0, 1], dtype=np.int32)
        arrays["train_items"] = arrays["train_slots"] = np.array([0], dtype=np.int32)
        out = tmp_path / "split.bin"
        _write_arrays(out, b"DRECSPL\x00", 2, _SPLIT_SPEC, arrays)
        with pytest.raises(DataFormatError, match="train triplet columns differ in length"):
            load_log(out)

    def test_truncated_body(self, tmp_path):
        train, test, cats = self.split_parts(tmp_path)
        out = tmp_path / "split.bin"
        export_log(train, test, cats, out)
        out.write_bytes(out.read_bytes()[:-40])
        with pytest.raises(DataFormatError, match="truncated"):
            load_log(out)

    def test_flipped_payload_byte(self, tmp_path):
        train, test, cats = self.split_parts(tmp_path)
        out = tmp_path / "split.bin"
        export_log(train, test, cats, out)
        raw = bytearray(out.read_bytes())
        raw[-40] ^= 0x01  # inside the category assignment
        out.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="digest"):
            load_log(out)

    def test_out_of_bounds_triplet(self, tmp_path):
        out = self.write_raw(tmp_path / "split.bin", [2, 2, 4, 1], [0, 5, 1], [], [0, 0])
        with pytest.raises(DataFormatError, match="bounds"):
            load_log(out)

    def test_duplicate_triplets_rejected(self, tmp_path):
        out = self.write_raw(tmp_path / "split.bin", [2, 2, 4, 1], [0, 0, 1, 0, 0, 1], [],
                             [0, 0])
        with pytest.raises(DataFormatError, match="duplicate"):
            load_log(out)

    def test_assignment_length_checked(self, tmp_path):
        out = self.write_raw(tmp_path / "split.bin", [2, 2, 4, 1], [0, 0, 1], [], [0])
        with pytest.raises(DataFormatError, match="expected 2 category assignments"):
            load_log(out)

    def test_entry_name_over_16_bytes_refused(self, tmp_path):
        # the 16-byte name field would cut the name and the file could not
        # be read back, so nothing is written
        out = tmp_path / "arrays.bin"
        spec = (("a_name_of_17_chars", "<i8", 0),)
        with pytest.raises(ValueError, match="a_name_of_17_chars"):
            _write_arrays(out, b"DRECTST\x00", 1, spec, {"a_name_of_17_chars": 0})
        assert not out.exists()
        spec = (("a_name_of_16_chr", "<i8", 0),)
        _write_arrays(out, b"DRECTST\x00", 1, spec, {"a_name_of_16_chr": 5})
        back = _read_arrays(out, b"DRECTST\x00", 1, spec, DataFormatError, "test file")
        assert back["a_name_of_16_chr"] == 5


def _every_item_once_log(m=100, n=10_000, l=50, seed=31):
    """A sorted log in which each of m users buys every one of n items once,
    at a random one of l slots: 1M triplets by default."""
    users = np.repeat(np.arange(m, dtype=np.int64), n)
    items = np.tile(np.arange(n, dtype=np.int64), m)
    slots = np.random.default_rng(seed).integers(0, l, size=m * n)
    return PurchaseLog(users=users, items=items, slots=slots, m=m, n=n, l=l)


class TestStreamedContainer:
    """The container is written and read an entry at a time: what that
    must keep of the one-shot writer and reader, and what it adds."""

    SPEC = (("dims", "<i8", 1), ("rows", "<i8", 2), ("x", "<f8", 0))

    def write(self, path, rows=((1, 2, 3), (4, 5, 6)), dims=(7, 8)):
        _write_arrays(path, b"DRECTST\x00", 1, self.SPEC,
                      {"dims": list(dims), "rows": rows, "x": 0.5})

    def read(self, path):
        return _read_arrays(path, b"DRECTST\x00", 1, self.SPEC, DataFormatError, "test file")

    def test_rows_are_written_as_the_stacked_array(self, tmp_path):
        rows = tuple(np.arange(5, dtype=np.int64) * k for k in range(3))
        self.write(tmp_path / "rows.bin", rows=rows)
        self.write(tmp_path / "stacked.bin", rows=np.stack(rows))
        assert (tmp_path / "rows.bin").read_bytes() == (tmp_path / "stacked.bin").read_bytes()
        assert np.array_equal(self.read(tmp_path / "rows.bin")["rows"], np.stack(rows))

    def test_arrays_are_writable_native_and_own_their_data(self, tmp_path):
        self.write(tmp_path / "a.bin")
        for name, array in self.read(tmp_path / "a.bin").items():
            assert array.flags.writeable and array.flags.c_contiguous, name
            assert array.dtype.isnative and array.base is None, name
        back = self.read(tmp_path / "a.bin")
        assert back["rows"].tolist() == [[1, 2, 3], [4, 5, 6]] and back["x"] == 0.5

    def test_shape_beyond_the_file_is_truncated_before_allocating(self, tmp_path):
        # a header claiming 10**8 int64 values (800 MB) in a file of a few
        # bytes, with a valid digest: refused with nothing allocated for it
        body = (b"DRECTST\x00" + struct.pack("<I", 1)
                + struct.pack("<16s3sBQ", b"dims", b"<i8", 1, 2) + bytes(16)
                + struct.pack("<16s3sBQQ", b"rows", b"<i8", 2, 10**4, 10**4) + bytes(8))
        path = tmp_path / "a.bin"
        path.write_bytes(body + hashlib.sha256(body).digest())
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="truncated test file"):
                self.read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("refusal", ["long name", "uncastable", "ragged rows", "dims"])
    def test_refused_write_leaves_the_old_file_and_no_temporary(self, tmp_path, refusal):
        path = tmp_path / "a.bin"
        self.write(path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            if refusal == "long name":
                _write_arrays(path, b"DRECTST\x00", 1, (("a_name_of_17_chars", "<i8", 0),),
                              {"a_name_of_17_chars": 0})
            elif refusal == "uncastable":
                self.write(path, rows=((1, 2), ("x", "y")))
            elif refusal == "ragged rows":
                self.write(path, rows=((1, 2, 3), (4, 5)))
            else:
                self.write(path, dims=[(1, 2)])
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]

    def test_write_replaces_the_old_file(self, tmp_path):
        path = tmp_path / "a.bin"
        self.write(path)
        self.write(path, dims=(9, 9, 9))
        assert self.read(path)["dims"].tolist() == [9, 9, 9]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]

    CODES = (("ids", ("<i4", "<i8"), 1),)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_an_entry_of_accepted_codes_keeps_its_dtype(self, tmp_path, dtype):
        path = tmp_path / "a.bin"
        ids = np.arange(5, dtype=dtype)
        _write_arrays(path, b"DRECTST\x00", 1, self.CODES, {"ids": ids})
        assert path.read_bytes()[28:31] == np.dtype(dtype).str.encode()
        back = _read_arrays(path, b"DRECTST\x00", 1, self.CODES, DataFormatError, "test file")
        assert back["ids"].dtype == dtype and back["ids"].tolist() == list(range(5))

    @pytest.mark.parametrize("value", [np.arange(3, dtype=np.uint32), np.zeros(3),
                                       np.zeros((1, 3), dtype=np.int32)])
    def test_an_entry_outside_its_codes_or_dims_is_refused(self, tmp_path, value):
        path = tmp_path / "a.bin"
        with pytest.raises(ValueError, match="'ids'"):
            _write_arrays(path, b"DRECTST\x00", 1, self.CODES, {"ids": value})
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("code", [b"<i2", b"<f8", b"\xff\x00z"])
    def test_a_stored_code_outside_the_spec_is_refused(self, tmp_path, code):
        """The code is checked against the spec's before a dtype is built
        from it, so a code numpy cannot read is the file's error too."""
        body = (b"DRECTST\x00" + struct.pack("<I", 1)
                + struct.pack("<16s3sBQ", b"ids", code, 1, 1) + bytes(8))
        path = tmp_path / "a.bin"
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(DataFormatError, match="expected <i4 or <i8 array 'ids'"):
            _read_arrays(path, b"DRECTST\x00", 1, self.CODES, DataFormatError, "test file")

    def test_export_log_writes_int32_columns_without_a_copy(self, tmp_path):
        """Version 1 cast every int32 column to an int64 row as it wrote
        it; version 2 writes the log's own arrays."""
        wide = _every_item_once_log()
        log = PurchaseLog(users=wide.users.astype(np.int32), items=wide.items.astype(np.int32),
                          slots=wide.slots.astype(np.int32), m=wide.m, n=wide.n, l=wide.l)
        del wide
        cats = CategoryMap(np.arange(log.n) % 4, r=4)
        tracemalloc.start()
        try:
            export_log(log, log.user_log(log.m), cats, tmp_path / "split.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_load_log_peak_is_about_the_file(self, tmp_path):
        """load_log held the file's bytes and an astype copy of every entry,
        2.0x the file here, and its order check int64 keys for every
        triplet; read in place and checked a chunk at a time it stays near
        1.0x."""
        log = _every_item_once_log()
        path = tmp_path / "split.bin"
        export_log(log, log.user_log(log.m), CategoryMap(np.arange(log.n) % 4, r=4), path)
        nnz = log.nnz
        del log
        tracemalloc.start()
        try:
            train, _, _ = load_log(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert train.nnz == nnz
        assert peak / path.stat().st_size < 1.25


class TestChunkEdges:
    """The passes that work a chunk of ``_CHUNK_TRIPLETS`` triplets at a time
    give the one-shot answer at every chunk edge."""

    @staticmethod
    def reference_keys(log, cats):
        radices = (log.m, cats.r, log.l + 1)
        keys = data._encode_keys(log.users, cats.assignment[log.items], log.slots, radices)
        return np.append(-1, np.unique(keys))

    def logs(self):
        rng = np.random.default_rng(33)
        # users of 1 to 5 triplets, so chunk starts fall inside users
        yield make_log(random_triplets(rng, m=12, n=9, l=15, count=40), m=14, n=9)
        # user 1 alone holds more triplets than a chunk, and repeats keys
        yield make_log([(0, 0, 3)] + [(1, j, j % 4) for j in range(9)] + [(2, 1, 1), (2, 2, 0)],
                       m=3, n=9)
        yield make_log([(1, 4, 2)], m=2, n=9)
        empty = np.empty(0, dtype=np.int64)
        yield PurchaseLog(users=empty, items=empty, slots=empty, m=2, n=9, l=4)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_event_keys_equal_the_one_shot_unique(self, monkeypatch, chunk):
        monkeypatch.setattr(data, "_CHUNK_TRIPLETS", chunk)
        cats = make_cats(np.arange(9) % 3, r=3)
        for log in self.logs():
            got = build_recency_index(log, cats)._event_keys
            want = self.reference_keys(log, cats)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("chunk", [3, 7])
    @pytest.mark.parametrize("fault", ["duplicate", "unsorted"])
    def test_bad_pair_across_a_chunk_edge_rejected(self, tmp_path, monkeypatch, chunk, fault):
        monkeypatch.setattr(data, "_CHUNK_TRIPLETS", chunk)
        trips = [(u, j, 1) for u in range(3) for j in range(6)]
        # triplets chunk - 1 and chunk are the last of one chunk and the
        # first of the next
        a = chunk - 1
        trips[a + 1] = trips[a] if fault == "duplicate" else trips[a - 1]
        raw = TestExportLoad().write_raw(tmp_path / "split.bin", [3, 6, 4, 1], trips, [],
                                         [0] * 6)
        with pytest.raises(DataFormatError, match="duplicate or unsorted"):
            load_log(raw)
        trips = sorted(set(trips))
        TestExportLoad().write_raw(raw, [3, 6, 4, 1], trips, [], [0] * 6)
        assert triplet_list(load_log(raw)[0]) == trips


class TestIngestCategories:
    def test_single_category(self, tmp_path):
        log = ingest_purchases(write(tmp_path, "p.csv", "u,iA,0\nu,iB,1\n"))
        cats = ingest_categories(write(tmp_path, "c.csv", "iA,food\niB,food\n"), log)
        assert cats.r == 1
        assert cats.assignment.tolist() == [0, 0]

    def test_fixture_hand_parse(self, tmp_path):
        log = ingest_purchases(write(tmp_path, "p.csv", FIXTURE_ROWS))
        # items sort to [razor, soap, towel]; categories sort to [bath, shave]
        cats = ingest_categories(
            write(tmp_path, "c.csv", "soap,bath\nrazor,shave\ntowel,bath\n"), log
        )
        assert log.item_labels == ["razor", "soap", "towel"]
        assert cats.r == 2
        assert cats.assignment.tolist() == [1, 0, 0]
        assert cats.category_labels == ["bath", "shave"]

    def test_missing_item_is_error(self, tmp_path):
        log = ingest_purchases(write(tmp_path, "p.csv", "u,iA,0\nu,iB,1\n"))
        with pytest.raises(DataFormatError, match="iB"):
            ingest_categories(write(tmp_path, "c.csv", "iA,0\n"), log)

    def test_unknown_items_warn(self, tmp_path):
        log = ingest_purchases(write(tmp_path, "p.csv", "u,iA,0\n"))
        path = write(tmp_path, "c.csv", "iA,0\nghost,0\nshadow,1\n")
        with pytest.warns(UserWarning, match="2 rows"):
            cats = ingest_categories(path, log)
        assert cats.r == 1

    def test_conflicting_assignment_rejected(self, tmp_path):
        log = ingest_purchases(write(tmp_path, "p.csv", "u,iA,0\n"))
        path = write(tmp_path, "c.csv", "iA,0\niA,1\n")
        with pytest.raises(DataFormatError, match="conflicting"):
            ingest_categories(path, log)

    def test_assignment_range_checked(self):
        with pytest.raises(DataFormatError, match="range"):
            CategoryMap(assignment=np.array([0, 3], dtype=np.int64), r=2)


class TestRecencyIndex:
    def test_gap_and_sentinel(self):
        # user 3 buys category-2 items at slots 4 and 9
        log = make_log([(3, 0, 4), (3, 0, 9), (0, 1, 0)], m=4, n=2)
        cats = make_cats([2, 0], r=3)
        rec = build_recency_index(log, cats)
        assert rec.query(3, 2, 9) == 5.0
        assert rec.query(3, 2, 4) == math.inf
        assert rec.query(3, 2, 5) == 1.0
        assert rec.query(2, 2, 9) == math.inf

    def test_same_slot_purchases_do_not_see_each_other(self):
        log = make_log([(0, 0, 5), (0, 1, 5)], m=1, n=2)
        cats = make_cats([0, 0], r=1)
        assert oracles.decode_codes(triplet_recency(log, cats))[1].tolist() == [math.inf, math.inf]
        rec = build_recency_index(log, cats)
        assert rec.query(0, 0, 5) == math.inf
        assert rec.query(0, 0, 6) == 1.0

    def test_category_pools_items(self):
        log = make_log([(0, 0, 2), (0, 1, 6)], m=1, n=2)
        gaps = oracles.decode_codes(triplet_recency(log, make_cats([0, 0], r=1)))[1]
        # second purchase is a different item, same category
        assert gaps.tolist() == [math.inf, 4.0]

    def test_random_log_matches_brute_force(self):
        rng = np.random.default_rng(5)
        trips = random_triplets(rng, m=9, n=7, l=15, count=200)
        assignment = rng.integers(0, 3, size=7).tolist()
        log = make_log(trips, m=9, n=7)
        rec = build_recency_index(log, make_cats(assignment, r=3))
        for user in range(9):
            for cat in range(3):
                for slot in range(15):
                    expected = oracles.recency_scan(trips, assignment, user, cat, slot)
                    assert rec.query(user, cat, slot) == expected

    def test_triplet_recency_matches_queries(self):
        rng = np.random.default_rng(6)
        trips = random_triplets(rng, m=6, n=8, l=12, count=120)
        assignment = rng.integers(0, 4, size=8).tolist()
        log = make_log(trips, m=6, n=8)
        cats = make_cats(assignment, r=4)
        rec = build_recency_index(log, cats)
        gaps = oracles.decode_codes(triplet_recency(log, cats))[1]
        for pos in range(log.nnz):
            u, j, k = log.users[pos], log.items[pos], log.slots[pos]
            assert gaps[pos] == rec.query(int(u), assignment[j], int(k))

    def test_finite_gaps_at_least_one(self):
        rng = np.random.default_rng(7)
        trips = random_triplets(rng, m=5, n=5, l=10, count=80)
        log = make_log(trips, m=5, n=5)
        gaps = oracles.decode_codes(
            triplet_recency(log, make_cats(rng.integers(0, 2, size=5), r=2)))[1]
        assert (gaps[np.isfinite(gaps)] >= 1.0).all()

    def test_dimension_mismatch_rejected(self):
        log = make_log([(0, 0, 0)], m=1, n=1)
        for build in (build_recency_index, triplet_recency):
            with pytest.raises(DataFormatError, match="covers"):
                build(log, make_cats([0, 1], r=2))

    def test_broadcast_query_matches_oracle(self):
        rng = np.random.default_rng(8)
        trips = random_triplets(rng, m=7, n=6, l=12, count=90)
        # same-slot purchases of two items in one category, and one at slot 0
        trips += [(0, 0, 5), (0, 3, 5), (1, 2, 0)]
        assignment = [0, 1, 2, 0, 1, 2]
        log = make_log(trips, m=7, n=6)
        rec = build_recency_index(log, make_cats(assignment, r=3))
        slots = np.array([-1, 0, 1, 5, 6, log.l - 1, log.l, log.l + 7])
        got = rec.query(
            np.arange(7)[:, None, None], np.arange(3)[None, :, None], slots[None, None, :]
        )
        assert got.shape == (7, 3, slots.shape[0])
        for user in range(7):
            for cat in range(3):
                for pos, slot in enumerate(slots.tolist()):
                    expected = oracles.recency_scan(trips, assignment, user, cat, slot)
                    assert got[user, cat, pos] == expected

    def test_out_of_range_ids_rejected(self):
        # with r = 1, category 1 of user 0 used to alias user 1's category 0
        log = make_log([(1, 0, 2)], m=2, n=1)
        rec = build_recency_index(log, make_cats([0], r=1))
        # ids beyond int64 are out of range too, not an OverflowError
        for user, cat in ((0, 1), (0, -1), (2, 0), (-1, 0), (2**64, 0), (0, 2**64),
                          (-2**64, 0), (0, [0, 2**70])):
            with pytest.raises(ValueError, match="must be in"):
                rec.query(user, cat, 5)
        with pytest.raises(ValueError, match="user ids"):
            rec.query(np.array([1, 2]), 0, 5)
        assert rec.query(1, 0, 5) == 3.0
        assert rec.query(1, 0, -3) == math.inf

    def test_empty_log_answers_inf_everywhere(self):
        empty = np.empty(0, dtype=np.int64)
        log = PurchaseLog(users=empty, items=empty, slots=empty, m=3, n=4, l=5)
        cats = CategoryMap(np.array([0, 1, 0, 1]), r=2)
        assert triplet_recency(log, cats).codes.shape == (0,)
        rec = build_recency_index(log, cats)
        got = rec.query(np.arange(3)[:, None, None], np.arange(2)[None, :, None],
                        np.array([-1, 0, 3, 5, 9]))
        assert got.shape == (3, 2, 5) and np.all(got == math.inf)
        assert rec.query(0, 0, 0) == math.inf

    def test_user_log_answers_that_user_alike(self):
        rng = np.random.default_rng(12)
        trips = random_triplets(rng, m=6, n=7, l=12, count=90)
        log = make_log(trips, m=8, n=7)  # users 6 and 7 have no purchases
        cats = make_cats(rng.integers(0, 3, size=7), r=3)
        full = build_recency_index(log, cats)
        slots = np.arange(-1, log.l + 3)
        for user in range(8):
            part = log.user_log(user)
            assert (part.m, part.n, part.l) == (log.m, log.n, log.l)
            assert triplet_list(part) == [t for t in triplet_list(log) if t[0] == user]
            got = build_recency_index(part, cats).query(user, np.arange(3)[:, None], slots)
            assert np.array_equal(got, full.query(user, np.arange(3)[:, None], slots))

    @pytest.mark.parametrize("r", [1, 3, 257])
    def test_user_gaps_equal_the_all_category_query(self, r):
        # users 6 and 7 have no purchases; 7 is the last user m - 1
        rng = np.random.default_rng(40 + r)
        m, n, l = 8, 300, 12
        trips = random_triplets(rng, 6, n, l, 600)
        log = make_log(trips, m=m, n=n)
        cats = make_cats(rng.integers(0, r, size=n), r=r)
        full = build_recency_index(log, cats)
        for user in range(m):
            one_user = build_recency_index(log.user_log(user), cats)
            for slot in (0, 1, 5, log.l - 1, log.l, log.l + 5):
                want = full.query(user, np.arange(r), slot)
                for rec in (full, one_user):
                    got = rec.user_gaps(user, slot)
                    assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.isinf(full.user_gaps(m - 1, log.l + 5)).all()

    def test_user_gaps_accept_numpy_ids(self):
        log = make_log([(1, 0, 2), (1, 1, 6)], m=2, n=2)
        rec = build_recency_index(log, make_cats([0, 1], r=2))
        got = rec.user_gaps(np.int64(1), np.int32(7))
        assert np.array_equal(got, rec.query(1, np.arange(2), 7))
        assert got.tolist() == [5.0, 1.0]

    @pytest.mark.parametrize("user", [-1, 2])
    def test_user_gaps_reject_users_out_of_range(self, user):
        log = make_log([(1, 0, 2)], m=2, n=1)
        rec = build_recency_index(log, make_cats([0], r=1))
        for probe in (lambda: rec.user_gaps(user, 5), lambda: rec.query(user, 0, 5)):
            with pytest.raises(ValueError, match=r"^user ids must be in \[0, 2\)$"):
                probe()

    @pytest.mark.parametrize("slot", [-1, -5])
    def test_user_gaps_at_negative_slots_equal_the_query(self, slot):
        # user 0 buys in category 0 at slot 0, so the needle of (0, 0, -1)
        # is the sentinel -1 itself, and the first key after it is 0
        rng = np.random.default_rng(50)
        log = make_log([(0, 0, 0), (0, 3, 2)] + random_triplets(rng, 4, 6, 9, 30), m=4, n=6)
        rec = build_recency_index(log, make_cats(np.arange(6) % 3, r=3))
        for user in range(log.m):
            want = rec.query(user, np.arange(3), slot)
            got = rec.user_gaps(user, slot)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert np.isinf(got).all()

    @pytest.mark.parametrize("user, cat, slot", [
        (1, 0.5, 30.9), (1.0, 0, 30), (1, 0, 30.0), (True, 0, 30), (1, np.True_, 30),
        ("1", "0", "30"), ([True, 1], 0, 30), (1, 0, [5, 6.5]),
        (np.array([1.0]), 0, 30), (1, 0, np.array([False])),
    ])
    def test_ids_that_are_not_integers_are_refused(self, user, cat, slot):
        """A float is not truncated, a bool is not read as 0 or 1, and a
        string is not parsed: each raises ValueError, as ``score`` does."""
        log = make_log([(1, 0, 2), (1, 1, 6)], m=2, n=2)
        rec = build_recency_index(log, make_cats([0, 1], r=2))
        with pytest.raises(ValueError, match="must be integers"):
            rec.query(user, cat, slot)

    @pytest.mark.parametrize("user, slot", [
        (True, 5), (1, 5.5), (1.0, 5), (1, np.float64(5)), ("1", 5), (1, "5"),
    ])
    def test_user_gaps_refuse_what_query_refuses(self, user, slot):
        log = make_log([(1, 0, 2), (1, 1, 6)], m=2, n=2)
        rec = build_recency_index(log, make_cats([0, 1], r=2))
        with pytest.raises(ValueError, match=r"^(user|slot) must be an integer, got "):
            rec.user_gaps(user, slot)

    def test_integer_ids_of_any_kind_are_answered(self):
        log = make_log([(1, 0, 2), (1, 1, 6)], m=2, n=2)
        rec = build_recency_index(log, make_cats([0, 1], r=2))
        want = rec.query(1, np.arange(2), 30)
        for user, slot in ((np.int32(1), 30), (1, np.int64(30)), (np.uint8(1), np.uint16(30))):
            assert rec.user_gaps(user, slot).tobytes() == want.tobytes()
            assert rec.query(user, [np.int8(0), 1], slot).tobytes() == want.tobytes()
        assert rec.query([1, 1], 1, (29, np.int64(30))).tolist() == [23.0, 24.0]

    def test_slots_beyond_int64_rejected(self):
        log = make_log([(1, 0, 2), (1, 1, 6)], m=2, n=2)
        rec = build_recency_index(log, make_cats([0, 1], r=2))
        for slot in (2**63, 2**70):
            for probe in (lambda: rec.user_gaps(1, slot), lambda: rec.query(1, 0, slot),
                          lambda: rec.query(1, [0, 1], [5, slot])):
                with pytest.raises(ValueError, match=r"^slot must be below 2\*\*63"):
                    probe()
        # an unsigned array is not wrapped round to a negative slot
        with pytest.raises(ValueError, match=r"^slot must be below 2\*\*63"):
            rec.query(1, 0, np.array([5, 2**63], dtype=np.uint64))
        # the last slot of the key range is still answered
        got = rec.user_gaps(1, 2**63 - 1)
        assert got.tobytes() == rec.query(1, np.arange(2), 2**63 - 1).tobytes()
        assert got.tolist() == [float(2**63 - 3), float(2**63 - 7)]

    def test_peak_memory_per_triplet(self):
        """An index build that keyed and sorted every triplet at once peaked
        at 17.0 traced bytes per triplet here, to keep 0.16 bytes of
        distinct keys; built in chunks of whole users it reads 1.8 to 2.9,
        the higher on the first build in a process."""
        log = _every_item_once_log()  # 20 triplets per (user, category, slot)
        cats = make_cats(np.arange(log.n) % 4, r=4)
        tracemalloc.start()
        try:
            rec = build_recency_index(log, cats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec._event_keys.shape[0] == 1 + log.m * 4 * log.l
        assert peak / log.nnz < 4

    def test_key_space_beyond_int64_rejected(self):
        # m * n * (l + 1) > 2**63: the keys would wrap, and query(1999, 0, 1)
        # read inf where 1.0 is right
        users = np.array([0, *range(2000)], dtype=np.int64)
        items = np.zeros(2001, dtype=np.int64)
        slots = np.zeros(2001, dtype=np.int64)
        slots[1] = 2**53
        with pytest.raises(DataFormatError, match="int64"):
            _build_log(users, items, slots, m=2000, n=1)
        log = PurchaseLog(users=users, items=items, slots=slots, m=2000, n=1, l=2**53 + 1)
        for build in (build_recency_index, triplet_recency):
            with pytest.raises(DataFormatError, match="int64"):
                build(log, make_cats([0], r=1))


class TestRecencyHalves:
    """Recency has two structures, each built by the one caller that reads
    it: the solver's per-triplet gaps and the scorers' event keys."""

    def test_scoring_setup_never_runs_the_gap_kernel(self, monkeypatch):
        def no_gaps(*args):
            raise AssertionError("strict_prev_gap ran")

        monkeypatch.setattr(data.kernels, "strict_prev_gap", no_gaps)
        rng = np.random.default_rng(13)
        log = make_log(random_triplets(rng, m=6, n=7, l=12, count=80), m=6, n=7)
        rec = build_recency_index(log, make_cats(rng.integers(0, 3, size=7), r=3))
        assert rec.query(np.arange(6)[:, None], np.arange(3), 7).shape == (6, 3)


class TestTripletCodes:
    """The solver's recency is one code c * (l + 1) + gap per triplet, the
    gap l standing for no earlier purchase, and its hinge targets are one
    table entry per code."""

    @pytest.mark.parametrize("r, l, dtype", [
        (1, 2**16 - 1, np.uint16), (1, 2**16, np.uint32),
        (4, 2**14 - 1, np.uint16), (4, 2**14, np.uint32),
    ])
    def test_codes_are_two_bytes_up_to_two_to_the_sixteen(self, r, l, dtype):
        assert data._code_dtype(r, l) == dtype
        # item j is in category j % r; user 1's second purchase has gap l - 1
        trips = [(0, j, j % 7) for j in range(2 * r)] + [(1, 0, 0), (1, 0, l - 1)]
        log = make_log(trips, m=2, n=2 * r)
        assert log.l == l and (r * (l + 1) <= 2**16) == (dtype == np.uint16)
        rec = triplet_recency(log, make_cats(np.arange(2 * r) % r, r=r))
        assert rec.codes.dtype == dtype
        cats, gaps = oracles.decode_codes(rec)
        assert np.array_equal(cats, log.items % r)
        assert gaps[np.isfinite(gaps)].max() == l - 1 and np.isinf(gaps).any()

    def random_setup(self, seed):
        rng = np.random.default_rng(seed)
        trips = random_triplets(rng, m=7, n=9, l=14, count=160)
        assignment = rng.integers(0, 4, size=9).tolist()
        log = make_log(trips, m=7, n=9)
        return rng, log, triplet_recency(log, make_cats(assignment, r=4)), assignment

    def scanned_gaps(self, log, assignment):
        trips = triplet_list(log)
        return np.array([oracles.recency_scan(trips, assignment, u, assignment[j], k)
                         for u, j, k in trips])

    def test_decoded_codes_match_the_scan(self):
        _, log, rec, assignment = self.random_setup(31)
        cats, gaps = oracles.decode_codes(rec)
        want = self.scanned_gaps(log, assignment)
        assert np.isinf(want).sum() > 10 and np.isfinite(want).sum() > 10
        assert np.array_equal(gaps, want)
        assert np.array_equal(cats, np.asarray(assignment)[log.items])

    def test_table_targets_have_the_bits_of_the_expression(self):
        rng, log, rec, assignment = self.random_setup(32)
        d = np.array([0.0, 3.5, 1e-3, 13.25]) * rng.uniform(0.9, 1.1, size=4)
        targets = compute_targets(rec, d)
        assert targets.table.shape == (4 * (log.l + 1),)
        want = 1.0 + np.maximum(0.0, d[np.asarray(assignment)[log.items]]
                                - self.scanned_gaps(log, assignment))
        assert np.array_equal(oracles.triplet_targets(targets), want)

    def test_hinge_stats_of_table_and_codes_match_the_brute_oracle(self, monkeypatch):
        # blocks of 7 triplets, so every block boundary is exercised
        monkeypatch.setattr(kernels, "_PAIR_BLOCK", 7)
        rng, log, rec, assignment = self.random_setup(33)
        d = rng.uniform(0.0, 9.0, size=4)
        targets = compute_targets(rec, d)
        pairs = log.pairs()
        z_pair = rng.uniform(-0.5, 2.5, size=pairs.counts.shape[0])
        sums, total = kernels.hinge_stats(targets.table, targets.codes, z_pair,
                                          pairs.index, pairs.counts.shape[0])
        want_sums, want_total = np.zeros_like(z_pair), 0.0
        for pos, gap in enumerate(self.scanned_gaps(log, assignment)):
            cat = assignment[log.items[pos]]
            target = 1.0 + (max(0.0, d[cat] - gap) if math.isfinite(gap) else 0.0)
            hinge = max(target - z_pair[pairs.index[pos]], 0.0)
            want_sums[pairs.index[pos]] += hinge
            want_total += hinge * hinge
        assert want_total > 0.0
        np.testing.assert_allclose(sums, want_sums, rtol=1e-12)
        assert total == pytest.approx(want_total, rel=1e-12)


def _digest(*arrays):
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


class TestPinnedOutputs:
    """sha256 of the generated log, its split and the triplet recency on a
    small seeded instance: a refactor must reproduce them byte for byte.
    The noise-free log's digest was recorded before the ordering code was
    rewritten around one int64 key; the others were re-recorded when the
    split and the noise flips became one draw each.  The ids were int64
    then, so they are hashed as int64 values whatever dtype the log holds
    them in."""

    PINNED = {
        0.0: ("481f3e10a1163a912edd7318cc2410dba99d810429096bba7fe512b8eb3d2da7",
              "2a2a167458c87d1db3f66063e590df2274e61fc0f895e3f0417ad14361d14b3e",
              "07f4456953b09dc3a9bd0ee9cf751784c71e0acd666ff74fe774c974c1ad0a79",
              "bde8867c27f895fc9655548d512c04f332c46e76be470087d1d7879fcc17aa48"),
        0.3: ("b45a1e6cbac67ce67104dce28c0ba3b3fac1b3395cd63ed5d9458af749a3c567",
              "5e8563e309c29e20ff743cab988dded3e661e86fb24b7632809dc16130b510c6",
              "30e052de4a6941bb5fbb073a280d44089cfd7857f7953353463a2a0d43b4ba45",
              "ccec5176e8745fddec7a3578e43f2735fcdc049076b32938d2a3e03a0ba164b5"),
    }

    @pytest.mark.parametrize("noise_ratio", sorted(PINNED))
    def test_outputs_match_pinned_digests(self, noise_ratio):
        inst = generate(SynthSpec(m=40, n=30, l=60, r=3, rank=3, obs_prob=0.6,
                                  noise_ratio=noise_ratio, seed=11))
        log = inst.log
        split = split_train_test(log, 0.2, seed=5)
        train = split.train

        def ids(log):
            return (log.users.astype(np.int64), log.items.astype(np.int64),
                    log.slots.astype(np.int64))

        got = (
            _digest(*ids(log), [log.m, log.n, log.l]),
            _digest(*ids(train), [train.m, train.n, train.l]),
            _digest(*ids(split.test)),
            _digest(oracles.decode_codes(triplet_recency(train, inst.cats))[1]),
        )
        assert got == self.PINNED[noise_ratio]


class TestIdDtype:
    """Logs hold their ids as int32 while m, n and l are below 2**31, and
    as int64 from there on; splitting, slicing and the split bundle keep
    the dtype."""

    @staticmethod
    def dtypes(log):
        return {log.users.dtype, log.items.dtype, log.slots.dtype}

    def test_built_ingested_split_and_loaded_logs_hold_int32(self, tmp_path):
        ids = np.array([0, 3, 1, 3], dtype=np.int64)
        built = _build_log(ids, ids, ids, m=4, n=4)
        assert self.dtypes(built) == {np.dtype(np.int32)}
        assert triplet_list(built) == [(0, 0, 0), (1, 1, 1), (3, 3, 3)]
        log = ingest_purchases(write(tmp_path, "p.csv", FIXTURE_ROWS))
        split = split_train_test(log, 0.3, seed=1)
        logs = [log, split.train, split.test, log.user_log(1), log.user_log(2**40),
                log.user_log(-2**40)]
        cats = CategoryMap(assignment=np.arange(log.n) % 2, r=2)
        export_log(split.train, split.test, cats, tmp_path / "split.bin")
        logs.extend(load_log(tmp_path / "split.bin")[:2])
        for part in logs:
            assert self.dtypes(part) == {np.dtype(np.int32)}
        assert log.user_log(1).nnz == 5 and log.user_log(2**40).nnz == 0
        assert log.user_log(-2**40).nnz == 0

    @pytest.mark.parametrize("dims, dtype", [
        ((2**31 - 1, 2**31 - 1, 2**31 - 1), np.int32),
        ((2**31, 1, 1), np.int64), ((1, 2**31, 1), np.int64), ((1, 1, 2**31), np.int64),
    ])
    def test_the_dtype_rule(self, dims, dtype):
        assert data._id_dtype(*dims) == dtype

    def test_a_horizon_of_2_31_slots_keeps_int64(self, tmp_path):
        users = np.array([0, 0, 1, 1], dtype=np.int64)
        slots = np.array([2**31, 5, 0, 2**31 - 1], dtype=np.int64)
        log = _build_log(users, users, slots, m=2, n=2)
        assert log.l == 2**31 + 1
        split = split_train_test(log, 0.5, seed=3)
        cats = CategoryMap(assignment=np.zeros(2, dtype=np.int64), r=1)
        export_log(split.train, split.test, cats, tmp_path / "split.bin")
        train, test, _ = load_log(tmp_path / "split.bin")
        stored = _read_arrays(tmp_path / "split.bin", b"DRECSPL\x00", 2, _SPLIT_SPEC,
                              DataFormatError, "split bundle")
        assert {stored[name].dtype.str for name, codes, _ in _SPLIT_SPEC
                if isinstance(codes, tuple)} == {"<i8"}
        for part in (log, split.train, split.test, log.user_log(1), train, test):
            assert self.dtypes(part) == {np.dtype(np.int64)}
        assert triplet_list(log) == [(0, 0, 5), (0, 0, 2**31), (1, 1, 0), (1, 1, 2**31 - 1)]
        assert triplet_list(train) == triplet_list(split.train)
        assert triplet_list(test) == triplet_list(split.test)

    @pytest.mark.parametrize("value", [2**32, 2**31, -2**32])
    def test_a_bundle_id_beyond_int32_is_out_of_bounds(self, tmp_path, value):
        """A bundle of int64 dims stores int64 ids, so a user id that int32
        cannot hold is read as it is stored, and the bounds check refuses it."""
        out = TestExportLoad().write_raw(tmp_path / "split.bin", [2, 2, 2**31 + 1, 1],
                                         [0, 0, 1, value, 1, 1], [], [0, 0])
        with pytest.raises(DataFormatError, match="bounds"):
            load_log(out)


class TestIntCodes:
    """Ingest codes an integer id column through a presence mask when its
    values are dense, and through np.unique otherwise; both give what
    np.unique gives."""

    @pytest.mark.parametrize("kind", ["dense", "sparse", "negative", "one value", "wide"])
    def test_both_paths_match_unique(self, monkeypatch, kind):
        rng = np.random.default_rng(37)
        column = {
            "dense": rng.integers(1_000, 3_000, size=5_000),
            "sparse": rng.integers(0, 10**12, size=5_000),
            "negative": rng.integers(-2_500, 500, size=5_000),
            "one value": np.full(7, -4),
            "wide": np.array([-2**63 + 1, 2**63 - 1, 0, 0]),
        }[kind].astype(np.int64)
        want_values, want_codes = np.unique(column, return_inverse=True)
        unique_calls = []
        unique = np.unique

        def spy(*args, **kwargs):
            unique_calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        values, codes = data._int_codes(column)
        assert (len(unique_calls) == 1) == (kind in ("sparse", "wide"))
        assert values.dtype == want_values.dtype and codes.dtype == want_codes.dtype
        assert np.array_equal(values, want_values) and np.array_equal(codes, want_codes)


class TestSplit:
    def test_rounding(self):
        trips = [(0, j, j) for j in range(10)]
        log = make_log(trips, m=1, n=10)
        split = split_train_test(log, 0.1, seed=0)
        assert split.test.nnz == 1
        assert split.train.nnz == 9

    def test_same_seed_identical(self):
        rng = np.random.default_rng(8)
        log = make_log(random_triplets(rng, 20, 15, 30, 400), m=20, n=15)
        a = split_train_test(log, 0.2, seed=3)
        b = split_train_test(log, 0.2, seed=3)
        assert np.array_equal(a.test.users, b.test.users)
        assert np.array_equal(a.test.items, b.test.items)
        assert np.array_equal(a.test.slots, b.test.slots)
        c = split_train_test(log, 0.2, seed=4)
        assert not (
            np.array_equal(a.test.users, c.test.users)
            and np.array_equal(a.test.items, c.test.items)
            and np.array_equal(a.test.slots, c.test.slots)
        )

    def test_partition_is_exact(self):
        rng = np.random.default_rng(9)
        trips = random_triplets(rng, 12, 10, 20, 300)
        log = make_log(trips, m=12, n=10)
        split = split_train_test(log, 0.25, seed=1)
        train = set(triplet_list(split.train))
        test = set(
            zip(split.test.users.tolist(), split.test.items.tolist(),
                split.test.slots.tolist())
        )
        assert train | test == set(trips)
        assert not train & test

    def test_single_record_user_stays_in_train(self):
        log = make_log([(0, 0, 0)] + [(1, j, j) for j in range(10)], m=2, n=10)
        split = split_train_test(log, 0.5, seed=0)
        assert 0 in split.train.users

    def test_reference_shuffle_reproduces_split(self):
        # documented protocol: one integers draw of 63 - m.bit_length() bits
        # per triplet under its user's bits, a stable sort of those keys,
        # and the first held_u triplets of each user's block in that order
        rng = np.random.default_rng(10)
        trips = random_triplets(rng, 25, 12, 30, 500)
        log = make_log(trips, m=25, n=12)
        split = split_train_test(log, 0.1, seed=7)

        bits = 63 - (25).bit_length()
        draws = np.random.default_rng(7).integers(0, 2**bits, size=log.nnz).tolist()
        users = log.users.tolist()
        keys = [(u << bits) | x for u, x in zip(users, draws)]
        order = sorted(range(log.nnz), key=keys.__getitem__)  # a stable sort
        expected = set()
        start = 0
        for u in range(25):
            cnt = users.count(u)
            held = min(int(0.1 * cnt + 0.5), cnt - 1) if cnt > 1 else 0
            expected.update(order[start:start + held])
            start += cnt
        got = {
            triplet_list(log).index((u, i, k))
            for u, i, k in zip(split.test.users.tolist(), split.test.items.tolist(),
                               split.test.slots.tolist())
        }
        assert got == expected

    def test_each_user_holds_out_its_rounded_share(self):
        rng = np.random.default_rng(11)
        log = make_log(random_triplets(rng, 40, 12, 30, 600), m=45, n=12)
        for fraction in (0.0, 0.1, 0.25, 0.5, 0.9):
            split = split_train_test(log, fraction, seed=2)
            cnt = np.bincount(log.users, minlength=45)
            want = np.where(cnt > 1, np.minimum((fraction * cnt + 0.5).astype(int), cnt - 1),
                            0)
            assert np.array_equal(np.bincount(split.test.users, minlength=45), want)

    def test_held_out_subsets_are_uniform(self):
        """Over many seeds each triplet is held out at the rate
        held_u / cnt_u, and the 10 subsets of 2 of a 5-triplet user come up
        about equally often."""
        counts = {0: 2, 1: 5, 2: 10}  # held 1, 2 and 3 at fraction 0.3
        log = make_log([(u, j, j) for u, cnt in counts.items() for j in range(cnt)],
                       m=3, n=10)
        seeds = 4000
        held = np.zeros(log.nnz)
        subsets = {}
        for seed in range(seeds):
            test = split_train_test(log, 0.3, seed=seed).test
            mask = np.isin(log.users * 10 + log.items, test.users * 10 + test.items)
            held += mask
            key = tuple(np.flatnonzero(mask[2:7]))
            subsets[key] = subsets.get(key, 0) + 1
        rate = dict(zip(counts, (1 / 2, 2 / 5, 3 / 10)))
        want = np.array([rate[u] for u in log.users.tolist()])
        # a binomial rate over 4000 seeds has a standard deviation below 0.008
        assert np.abs(held / seeds - want).max() < 0.04
        assert len(subsets) == 10 and all(len(key) == 2 for key in subsets)
        assert max(abs(c / seeds - 0.1) for c in subsets.values()) < 0.03

    def test_bad_fraction_rejected(self):
        log = make_log([(0, 0, 0), (0, 1, 1)], m=1, n=2)
        with pytest.raises(DataFormatError, match="fraction"):
            split_train_test(log, 1.0, seed=0)


class TestPairs:
    def test_pair_counts_match_counter(self):
        rng = np.random.default_rng(11)
        trips = random_triplets(rng, 8, 6, 10, 150)
        log = make_log(trips, m=8, n=6)
        pairs = log.pairs()
        expected = oracles.pair_counts(trips)
        got = {
            (int(u), int(i)): int(c)
            for u, i, c in zip(pairs.users, pairs.items, pairs.counts)
        }
        assert got == expected
        # triplet -> pair mapping is consistent
        for pos in range(log.nnz):
            p = pairs.index[pos]
            assert pairs.users[p] == log.users[pos]
            assert pairs.items[p] == log.items[pos]
        # CSR rows: user u owns pairs indptr[u]:indptr[u + 1]; in the second
        # log users 0 and 3 and the last two own none
        sparse = make_log([t for t in trips if t[0] not in (0, 3)], m=10, n=6)
        for case in (log, sparse):
            pairs = case.pairs()
            owned = [u for u, _ in oracles.pair_counts(triplet_list(case))]
            assert pairs.indptr.shape == (case.m + 1,)
            assert pairs.indptr[0] == 0 and pairs.indptr[-1] == len(owned)
            for u in range(case.m):
                row = pairs.users[pairs.indptr[u]:pairs.indptr[u + 1]]
                assert (row == u).all() and row.shape[0] == owned.count(u)


    def test_pair_arrays_are_held_in_the_index_dtype(self):
        rng = np.random.default_rng(13)
        pairs = make_log(random_triplets(rng, 8, 6, 10, 150), m=8, n=6).pairs()
        assert pairs.items.dtype == np.int32
        for array in (pairs.users, pairs.counts, pairs.indptr):
            assert array.dtype == pairs.items.dtype
        # the triplet -> pair map indexes bincount and gathers as it is
        assert pairs.index.dtype == np.intp

    def test_empty_log_has_an_empty_pattern(self):
        empty = np.empty(0, dtype=np.int64)
        pairs = PurchaseLog(users=empty, items=empty, slots=empty, m=3, n=4, l=5).pairs()
        for array in (pairs.index, pairs.users, pairs.items, pairs.counts):
            assert array.shape == (0,)
        assert pairs.indptr.shape == (4,) and not pairs.indptr.any()
        S = pairs.csr(np.ones(0))
        assert S.shape == (3, 4) and S.nnz == 0

    def test_csr_shares_the_pattern(self):
        rng = np.random.default_rng(12)
        log = make_log(random_triplets(rng, 8, 6, 10, 150), m=8, n=6)
        pairs = log.pairs()
        S = pairs.csr(np.ones(pairs.counts.shape[0]))
        for matrix in (S, S.T):
            assert np.shares_memory(matrix.indices, pairs.items)
            assert np.shares_memory(matrix.indptr, pairs.indptr)


def _ingest_digest(log, cats):
    """sha256 of an ingested log, its labels and its category map."""
    h = hashlib.sha256()
    for array in (log.users, log.items, log.slots, [log.m, log.n, log.l], cats.assignment):
        h.update(np.asarray(array, dtype=np.int64).tobytes())
    for labels in (log.user_labels, log.item_labels, cats.category_labels):
        h.update("\n".join(labels).encode() + b"\0")
    return h.hexdigest()


def write_seeded_files(tmp_path, kind, rows=4000):
    """A seeded purchase CSV and its category CSV; ``kind`` picks the field
    forms: canonical integers with epoch days, the same with ISO dates,
    integer labels in non-canonical forms, or string labels."""
    rng = np.random.default_rng(17)
    users, items, days, forms = (rng.integers(0, top, size=rows).tolist()
                                 for top in (300, 120, 90, 3))

    def label(value, form, prefix, spec):
        if kind == "numeric":  # '7', '007' or '+7': one number, three labels
            return (f"{value}", f"{value:03d}", f"+{value}")[form]
        return f"{prefix}{value:{spec}}" if kind == "string" else str(value)

    purchases, categories = [], {}
    for u, i, d, f in zip(users, items, days, forms):
        item = label(i, 2 - f, "sku-", "x")
        stamp = (date(2021, 3, 1) + timedelta(days=d)).isoformat() if kind == "iso" else 18000 + d
        purchases.append(f"{label(u, f, 'user', 'd')},{item},{stamp}\n")
        categories[item] = f"c{i % 7}" if kind == "string" else str(i % 7)
    categories["9999"] = "3"  # an item that is not in the log
    return (write(tmp_path, "p.csv", "".join(purchases)),
            write(tmp_path, "c.csv", "".join(f"{k},{v}\n" for k, v in categories.items())))


class TestIngestPaths:
    """Canonical-integer files are parsed straight to int64, every other file
    as strings; both paths give what the row-by-row csv.reader ingest gave."""

    # sha256 of the ingested log, labels and category map of each seeded
    # file, recorded with the row-by-row ingest that the array ingest replaced
    PINNED = {
        # days and iso hold the same purchases, so they read the same log
        "days": "729900ac4f014b0eaa795fd9914afb52806c01ce14e6841f9243a2894a85ee14",
        "iso": "729900ac4f014b0eaa795fd9914afb52806c01ce14e6841f9243a2894a85ee14",
        "numeric": "488dfe5384e6e5fb3b45607f850369bd796c7e9eaec20f270b0ef019171b00c4",
        "string": "1bf568aeb0f7a7d043e4f747572c98d36fdc32a60edfba8503ebf4217b307e91",
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_seeded_files_match_pinned_digests(self, tmp_path, kind):
        purchases, categories = write_seeded_files(tmp_path, kind)
        log = ingest_purchases(purchases, timestamp_format="iso" if kind == "iso" else "days")
        with pytest.warns(UserWarning, match="ignored 1 rows"):
            cats = ingest_categories(categories, log)
        assert _ingest_digest(log, cats) == self.PINNED[kind]

    # (purchases, categories) -> (user labels, item labels, triplets,
    # category labels, assignment), as the row-by-row ingest read them
    EDGE_CASES = {
        "zero_padded": (("007,1,0\n7,1,0\n7,2,3\n10,1,1\n", "1,a\n2,b\n"), (
            ["007", "7", "10"], ["1", "2"], [(0, 0, 0), (1, 0, 0), (1, 1, 3), (2, 0, 1)],
            ["a", "b"], [0, 1])),
        "plus_sign": (("+5,1,0\n5,1,1\n4,+1,2\n", "1,x\n+1,y\n"), (
            ["4", "+5", "5"], ["+1", "1"], [(0, 0, 2), (1, 1, 0), (2, 1, 1)],
            ["x", "y"], [1, 0])),
        "spaces": ((" 5 ,1,0\n5,1,1\n6, 2,2\n", "1,x\n2, x\n"), (
            ["5", "6"], ["1", "2"], [(0, 0, 0), (0, 0, 1), (1, 1, 2)], ["x"], [0, 0])),
        "underscore": (("1_000,1,0\n1000,2,1\n999,1,2\n", "1,x\n2,y\n"), (
            ["999", "1000", "1_000"], ["1", "2"], [(0, 0, 2), (1, 1, 1), (2, 0, 0)],
            ["x", "y"], [0, 1])),
        "negative_zero": (("-0,1,0\n0,1,1\n-3,2,2\n", "1,x\n2,y\n"), (
            ["-3", "-0", "0"], ["1", "2"], [(0, 1, 2), (1, 0, 0), (2, 0, 1)],
            ["x", "y"], [0, 1])),
        "hash_row": (("#,1,0\n1,1,1\n# note,2,2\n", "1,x\n2,x\n"), (
            ["#", "# note", "1"], ["1", "2"], [(0, 0, 0), (1, 1, 2), (2, 0, 1)],
            ["x"], [0, 0])),
        "crlf": (("3,2,3\r\n1,5,6\r\n", "2,0\r\n5,1\r\n"), (
            ["1", "3"], ["2", "5"], [(0, 1, 3), (1, 0, 0)], ["0", "1"], [0, 1])),
        "blank_rows": (("3,2,3\n\n1,5,6\n   \n", "2,0\n\n5,1\n"), (
            ["1", "3"], ["2", "5"], [(0, 1, 3), (1, 0, 0)], ["0", "1"], [0, 1])),
        "quoted_comma": (('"a,b",1,0\nc,1,1\n"c",2,2\n', '1,"x,y"\n2,z\n'), (
            ["a,b", "c"], ["1", "2"], [(0, 0, 0), (1, 0, 1), (1, 1, 2)], ["x,y", "z"], [0, 1])),
        "float_form": (("1e3,1,0\n05,1,1\n", "1,x\n"), (
            ["05", "1e3"], ["1"], [(0, 0, 1), (1, 0, 0)], ["x"], [0])),
        "noncanonical_category_keys": (
            ("1,2,3\n4,5,6\n4,9,6\n", "+2,0\n02,3\n2,10\n5,010\n9,9\n 9 ,9\n"), (
                ["1", "4"], ["2", "5", "9"], [(0, 0, 0), (1, 1, 3), (1, 2, 3)],
                ["9", "010", "10"], [2, 1, 0])),
    }

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases_match_row_by_row_ingest(self, tmp_path, case):
        (purchases, categories), expected = self.EDGE_CASES[case]
        (tmp_path / "p.csv").write_bytes(purchases.encode())
        (tmp_path / "c.csv").write_bytes(categories.encode())
        log = ingest_purchases(tmp_path / "p.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # rows for items not in the log
            cats = ingest_categories(tmp_path / "c.csv", log)
        got = (log.user_labels, log.item_labels, triplet_list(log),
               cats.category_labels, cats.assignment.tolist())
        assert got == expected

    @pytest.mark.parametrize("text, canonical", [
        ("1,2,3\n40,-5,60\n", True),
        ("1,2,3\n40,-5,60", True),
        ("0,0,0\n", True),
        ("9223372036854775807,1,2\n", True),
        ("1,2,3\r\n", False),
        ("1,2,3\n\n", False),
        ("+1,2,3\n", False),
        ("01,2,3\n", False),
        ("-0,2,3\n", False),
        (" 1,2,3\n", False),
        ("1,2,3 \n", False),
        ("1_0,2,3\n", False),
        ('"1",2,3\n', False),
        ("1,2\n", False),
        ("1,2,3,4\n", False),
        ("1,2,3\n1,2\n", False),
        ("-9223372036854775808,1,2\n", False),
        ("99999999999999999999,1,2\n", False),
        ("", False),
        # float forms are shorter than their value; '05' and '01' pad the width
        ("1e3,1,0\n05,1,1\n", False),
        ("1,1,1e3\n01,1,5\n", False),
    ])
    def test_only_canonical_integers_take_the_int64_path(self, tmp_path, text, canonical):
        from demandrec.data import _int_table

        (tmp_path / "p.csv").write_bytes(text.encode())
        table = _int_table(tmp_path / "p.csv", 3)
        assert (table is not None) == canonical
        if canonical:
            rows = [[int(v) for v in line.split(",")] for line in text.split()]
            assert table.tolist() == rows

    def test_float_timestamp_is_a_bad_row(self, tmp_path):
        purchases = write(tmp_path, "p.csv", "1,1,1e3\n01,1,5\n")
        with pytest.raises(DataFormatError, match=r"p\.csv:1: bad epoch-day timestamp '1e3'"):
            ingest_purchases(purchases)

    @staticmethod
    def large_files(tmp_path, bad_purchase=None, bad_category=None, line=50_000):
        """100,000 integer purchase rows and 60,000 category rows, with a
        bad row replacing row ``line`` of either."""
        rng = np.random.default_rng(23)
        table = np.column_stack([rng.integers(0, 2000, 100_000) for _ in range(3)])
        purchases = [f"{u},{i},{k}\n" for u, i, k in table.tolist()]
        categories = [f"{i % 2000},{i % 2000 % 7}\n" for i in range(60_000)]
        if bad_purchase is not None:
            purchases[line - 1] = bad_purchase
        if bad_category is not None:
            categories[line - 1] = bad_category
        return (write(tmp_path, "p.csv", "".join(purchases)),
                write(tmp_path, "c.csv", "".join(categories)))

    @pytest.mark.parametrize("bad, message", [
        ("12,13\n", "expected user_id,item_id,timestamp, got 2 fields"),
        ("12,13,14,15\n", "got 4 fields"),
        ("12,13,soon\n", "bad epoch-day timestamp 'soon'"),
    ])
    def test_bad_purchase_row_in_large_file_names_its_line(self, tmp_path, bad, message):
        purchases, _ = self.large_files(tmp_path, bad_purchase=bad)
        with pytest.raises(DataFormatError, match=r"p\.csv:50000: ") as info:
            ingest_purchases(purchases)
        assert message in str(info.value)

    @pytest.mark.parametrize("bad, message", [
        ("12\n", "expected item_id,category_id, got 1 fields"),
        ("12,6\n", "conflicting categories for item '12'"),
    ])
    def test_bad_category_row_in_large_file_names_its_line(self, tmp_path, bad, message):
        purchases, categories = self.large_files(tmp_path, bad_category=bad)
        log = ingest_purchases(purchases)
        with pytest.raises(DataFormatError, match=r"c\.csv:50000: ") as info:
            ingest_categories(categories, log)
        assert message in str(info.value)

    def test_peak_memory_per_row(self, tmp_path):
        """The row-by-row ingest peaked at 209 bytes per row here, in lists of
        Python strings; the int64 columns need under half of that."""
        rows = 200_000
        rng = np.random.default_rng(29)
        table = np.column_stack([rng.integers(0, 20_000, rows), rng.integers(0, 5_000, rows),
                                 rng.integers(18_000, 18_200, rows)])
        path = write(tmp_path, "p.csv", "".join(f"{u},{i},{k}\n" for u, i, k in table.tolist()))
        del table
        tracemalloc.start()
        try:
            log = ingest_purchases(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert log.nnz > 0.99 * rows
        assert peak / rows < 100
