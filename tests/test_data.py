import math
import warnings

import numpy as np
import pytest

import oracles
from helpers import make_cats, make_log, random_triplets, triplet_list

from demandrec.data import (
    CategoryMap,
    PurchaseLog,
    _SPLIT_SPEC,
    _write_arrays,
    build_recency_index,
    export_log,
    ingest_categories,
    ingest_purchases,
    load_log,
    split_train_test,
)
from demandrec.errors import DataFormatError

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
        test = PurchaseLog(users=split.test_users, items=split.test_items,
                           slots=split.test_slots, m=log.m, n=log.n, l=log.l)
        return split.train, test, cats

    def write_raw(self, path, dims, train, test, assignment, version=1):
        """A bundle with a valid digest but arbitrary contents."""
        arrays = {
            "dims": dims,
            "train": np.reshape(train, (-1, 3)).T,
            "test": np.reshape(test, (-1, 3)).T,
            "assignment": assignment,
        }
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
        rec = build_recency_index(log, make_cats([0, 0], r=1))
        assert rec.triplet_recency().tolist() == [math.inf, math.inf]
        assert rec.query(0, 0, 5) == math.inf
        assert rec.query(0, 0, 6) == 1.0

    def test_category_pools_items(self):
        log = make_log([(0, 0, 2), (0, 1, 6)], m=1, n=2)
        rec = build_recency_index(log, make_cats([0, 0], r=1))
        # second purchase is a different item, same category
        assert rec.triplet_recency().tolist() == [math.inf, 4.0]

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
        rec = build_recency_index(log, make_cats(assignment, r=4))
        gaps = rec.triplet_recency()
        for pos in range(log.nnz):
            u, j, k = log.users[pos], log.items[pos], log.slots[pos]
            assert gaps[pos] == rec.query(int(u), assignment[j], int(k))

    def test_finite_gaps_at_least_one(self):
        rng = np.random.default_rng(7)
        trips = random_triplets(rng, m=5, n=5, l=10, count=80)
        log = make_log(trips, m=5, n=5)
        rec = build_recency_index(log, make_cats(rng.integers(0, 2, size=5), r=2))
        gaps = rec.triplet_recency()
        assert (gaps[np.isfinite(gaps)] >= 1.0).all()

    def test_dimension_mismatch_rejected(self):
        log = make_log([(0, 0, 0)], m=1, n=1)
        with pytest.raises(DataFormatError, match="covers"):
            build_recency_index(log, make_cats([0, 1], r=2))

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


class TestSplit:
    def test_rounding(self):
        trips = [(0, j, j) for j in range(10)]
        log = make_log(trips, m=1, n=10)
        split = split_train_test(log, 0.1, seed=0)
        assert split.n_test == 1
        assert split.train.nnz == 9

    def test_same_seed_identical(self):
        rng = np.random.default_rng(8)
        log = make_log(random_triplets(rng, 20, 15, 30, 400), m=20, n=15)
        a = split_train_test(log, 0.2, seed=3)
        b = split_train_test(log, 0.2, seed=3)
        assert np.array_equal(a.test_users, b.test_users)
        assert np.array_equal(a.test_items, b.test_items)
        assert np.array_equal(a.test_slots, b.test_slots)
        c = split_train_test(log, 0.2, seed=4)
        assert not (
            np.array_equal(a.test_users, c.test_users)
            and np.array_equal(a.test_items, c.test_items)
            and np.array_equal(a.test_slots, c.test_slots)
        )

    def test_partition_is_exact(self):
        rng = np.random.default_rng(9)
        trips = random_triplets(rng, 12, 10, 20, 300)
        log = make_log(trips, m=12, n=10)
        split = split_train_test(log, 0.25, seed=1)
        train = set(triplet_list(split.train))
        test = set(
            zip(split.test_users.tolist(), split.test_items.tolist(),
                split.test_slots.tolist())
        )
        assert train | test == set(trips)
        assert not train & test

    def test_single_record_user_stays_in_train(self):
        log = make_log([(0, 0, 0)] + [(1, j, j) for j in range(10)], m=2, n=10)
        split = split_train_test(log, 0.5, seed=0)
        assert 0 in split.train.users

    def test_reference_shuffle_reproduces_split(self):
        # documented protocol: one generator, users ascending,
        # choice(count, held, replace=False) within each user's block
        rng = np.random.default_rng(10)
        trips = random_triplets(rng, 25, 12, 30, 500)
        log = make_log(trips, m=25, n=12)
        split = split_train_test(log, 0.1, seed=7)

        ref = np.random.default_rng(7)
        expected = set()
        start = 0
        users = log.users.tolist()
        for u in range(25):
            stop = start
            while stop < len(users) and users[stop] == u:
                stop += 1
            cnt = stop - start
            if cnt > 1:
                held = min(int(0.1 * cnt + 0.5), cnt - 1)
                if held:
                    for off in ref.choice(cnt, size=held, replace=False):
                        expected.add(start + int(off))
            start = stop
        got = {
            triplet_list(log).index((u, i, k))
            for u, i, k in zip(split.test_users.tolist(), split.test_items.tolist(),
                               split.test_slots.tolist())
        }
        assert got == expected

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
