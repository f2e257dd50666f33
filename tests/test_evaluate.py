"""Scoring, top-N ranking, and the three holdout metrics."""

import hashlib
import math
import warnings

import numpy as np
import pytest

import oracles
from demandrec import evaluate
from demandrec.data import build_recency_index
from demandrec.driver import ModelState, fit
from demandrec.evaluate import (
    MetricReport,
    _distance_to_predicted,
    _draw_others,
    category_prediction_metric,
    item_prediction_metric,
    predict_demand,
    recommend_topn,
    score,
    time_prediction_metric,
)
from demandrec.utility import FactoredUtilityMatrix, SolverConfig
from helpers import make_cats, make_log, model_from_dense, random_triplets, triplet_list


def random_setup(rng, m=6, n=9, l=15, r=3, nnz=40, d=None):
    X = rng.uniform(-1.0, 1.5, size=(m, n))
    if d is None:
        d = rng.uniform(0.0, 6.0, size=r)
    log = make_log(random_triplets(rng, m, n, l, nnz), m=m, n=n)
    cats = make_cats(np.arange(n) % r, r=r)
    model = model_from_dense(X, d, l)
    rec = build_recency_index(log, cats)
    return model, rec, X, log, cats


# 45 cells make blocks of 5 records at n = 9 and of 3 groups at max(n, l) = 12:
# the metric tests below then span several blocks, the last one partial
@pytest.fixture(params=[None, 45], ids=["one_block", "blocks"])
def scoring_blocks(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(evaluate, "_BLOCK_CELLS", request.param)


def brute_score(X, d, assignment, triplets, user, item, slot):
    cat = int(assignment[item])
    t = oracles.recency_scan(triplets, assignment, user, cat, slot)
    pen = max(0.0, d[cat] - t) if math.isfinite(t) else 0.0
    return X[user, item] - pen


class TestScore:
    def test_zero_durations_reduce_to_utility(self):
        rng = np.random.default_rng(0)
        model, rec, X, _, _ = random_setup(rng, d=np.zeros(3))
        for user in range(model.m):
            for item in range(model.n):
                got = score(model, rec, user, item, model.l - 1)
                assert got == pytest.approx(X[user, item], rel=1e-12)

    def test_hand_example(self):
        # utility 0.9, duration 10, last category purchase 4 slots back
        model = model_from_dense([[0.9, 0.2]], [10.0], l=12)
        log = make_log([(0, 1, 5)], m=1, n=2)
        rec = build_recency_index(log, make_cats([0, 0]))
        assert score(model, rec, 0, 0, 9) == pytest.approx(0.9 - 6.0)

    def test_unseen_category_has_no_penalty(self):
        model = model_from_dense([[0.9, 0.2]], [10.0, 50.0], l=12)
        log = make_log([(0, 0, 5)], m=1, n=2)
        rec = build_recency_index(log, make_cats([0, 1]))
        assert score(model, rec, 0, 1, 9) == pytest.approx(0.2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        model, rec, X, log, cats = random_setup(rng)
        trips = triplet_list(log)
        for user in range(model.m):
            for item in range(model.n):
                for slot in (0, 3, model.l - 1, rec.log.l + 4):
                    want = brute_score(
                        X, model.d, cats.assignment, trips, user, item, slot
                    )
                    got = score(model, rec, user, item, slot)
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_row_of_every_category_penalty(self, seed, monkeypatch):
        # score reads its penalty from one r-key user_gaps probe, which
        # gives bit-for-bit the penalty of the all-category row, and never
        # runs the broadcast query
        rng = np.random.default_rng(30 + seed)
        model, rec, _, _, cats = random_setup(rng, m=5, n=11, r=4)
        cases = [(u, j, k) for u in range(model.m) for j in range(model.n)
                 for k in (0, 6, model.l - 1, rec.log.l + 3)]
        want = [float((model.X.U[u] * model.X.sigma) @ model.X.V[j])
                - float(evaluate._penalties(model, rec, u, k)[cats.assignment[j]])
                for u, j, k in cases]
        user_gaps, probes = rec.user_gaps, []

        def spy(user, slot):
            probes.append((user, slot))
            return user_gaps(user, slot)

        def no_query(*args):
            raise AssertionError("score called RecencyIndex.query")

        monkeypatch.setattr(rec, "user_gaps", spy)
        monkeypatch.setattr(rec, "query", no_query)
        assert [score(model, rec, u, j, k) for u, j, k in cases] == want
        assert probes == [(u, k) for u, _, k in cases]

    @pytest.mark.parametrize("item", [-1, 6])
    def test_item_out_of_range(self, item):
        model = model_from_dense(np.arange(12.0).reshape(2, 6), np.zeros(2), l=8)
        rec = build_recency_index(make_log([(0, 0, 0)], m=2, n=6), make_cats(np.arange(6) % 2))
        with pytest.raises(ValueError, match=r"item ids must be in \[0, 6\)"):
            score(model, rec, 0, item, 3)
        with pytest.raises(ValueError, match=r"item ids must be in \[0, 6\)"):
            predict_demand(model, rec, 0, item, 3, tau=0.5)

    @pytest.mark.parametrize("slot", [-1, -100])
    def test_negative_slot_rejected(self, slot):
        # utility 0.9, duration 10 and a purchase at slot 5: a negative slot
        # used to score as if the category had never been bought
        model = model_from_dense([[0.9, 0.0]], [10.0], l=12)
        rec = build_recency_index(make_log([(0, 1, 5)], m=1, n=2), make_cats([0, 0]))
        assert score(model, rec, 0, 0, 9) == pytest.approx(0.9 - 6.0)
        assert score(model, rec, 0, 0, 0) == pytest.approx(0.9)
        for call in (lambda: score(model, rec, 0, 0, slot),
                     lambda: predict_demand(model, rec, 0, 0, slot, tau=0.5),
                     lambda: recommend_topn(model, rec, 0, slot, 1)):
            with pytest.raises(ValueError, match=rf"slot must be >= 0, got {slot}"):
                call()

    @pytest.mark.parametrize("user", [-1, 2])
    def test_user_out_of_range(self, user):
        model = model_from_dense(np.arange(12.0).reshape(2, 6), np.zeros(2), l=8)
        rec = build_recency_index(make_log([(0, 0, 0)], m=2, n=6), make_cats(np.arange(6) % 2))
        with pytest.raises(ValueError, match=r"user ids must be in \[0, 2\)"):
            score(model, rec, user, 0, 3)


class TestQueryIds:
    """Every single-query entry point takes only integer ids: bools,
    floats and strings are one ValueError, numpy integers are accepted."""

    CALLS = {
        "score": lambda model, rec, ids: score(model, rec, ids["user"], ids["item"], ids["slot"]),
        "predict_demand": lambda model, rec, ids: predict_demand(
            model, rec, ids["user"], ids["item"], ids["slot"], tau=0.5),
        "recommend_topn": lambda model, rec, ids: recommend_topn(
            model, rec, ids["user"], ids["slot"], 3),
    }

    @staticmethod
    def setup_model():
        model = model_from_dense(np.arange(12.0).reshape(2, 6), [4.0, 1.0], l=8)
        rec = build_recency_index(make_log([(1, 0, 2), (1, 3, 4)], m=2, n=6),
                                  make_cats(np.arange(6) % 2))
        return model, rec

    @pytest.mark.parametrize("call, arg", [
        ("score", "user"), ("score", "item"), ("score", "slot"),
        ("predict_demand", "user"), ("predict_demand", "item"), ("predict_demand", "slot"),
        ("recommend_topn", "user"), ("recommend_topn", "slot"),
    ])
    @pytest.mark.parametrize("bad", [True, False, 1.7, 1.0, 5.9, "1", None, np.float64(1.0)])
    def test_rejects_non_integer_ids(self, call, arg, bad):
        model, rec = self.setup_model()
        ids = {"user": 1, "item": 2, "slot": 5, arg: bad}
        with pytest.raises(ValueError, match=rf"^{arg} must be an integer, got "):
            self.CALLS[call](model, rec, ids)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_accepts_numpy_integer_ids(self, call):
        model, rec = self.setup_model()
        plain = self.CALLS[call](model, rec, {"user": 1, "item": 2, "slot": 5})
        numpy_ids = {"user": np.int64(1), "item": np.uint8(2), "slot": np.int32(5)}
        assert self.CALLS[call](model, rec, numpy_ids) == plain

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("slot", [2**63, 2**64, np.uint64(2**63)])
    def test_rejects_slots_from_two_to_the_63(self, call, slot):
        model, rec = self.setup_model()
        with pytest.raises(ValueError, match=r"^slot must be below 2\*\*63, got "):
            self.CALLS[call](model, rec, {"user": 1, "item": 2, "slot": slot})


class TestPredictDemand:
    def setup_model(self):
        model = model_from_dense([[0.7]], [0.0], l=5)
        rec = build_recency_index(make_log([(0, 0, 0)], m=1, n=1), make_cats([0]))
        return model, rec

    def test_threshold_is_strict(self):
        model, rec = self.setup_model()
        assert not predict_demand(model, rec, 0, 0, 2, tau=0.7)
        assert predict_demand(model, rec, 0, 0, 2, tau=0.7 - 1e-9)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(2)
        model, rec, _, _, _ = random_setup(rng)
        for tau_lo, tau_hi in [(-0.5, 0.0), (0.0, 0.4), (0.4, 1.2)]:
            for user in range(model.m):
                for item in range(model.n):
                    if predict_demand(model, rec, user, item, 7, tau=tau_hi):
                        assert predict_demand(model, rec, user, item, 7, tau=tau_lo)


class TestRecommendTopn:
    def test_full_list_is_permutation(self):
        rng = np.random.default_rng(3)
        model, rec, _, _, _ = random_setup(rng)
        out = recommend_topn(model, rec, 0, 5, model.n)
        assert sorted(j for j, _ in out) == list(range(model.n))
        values = [s for _, s in out]
        assert values == sorted(values, reverse=True)

    def test_zero_model_ties_to_smaller_id(self):
        model = model_from_dense(np.zeros((2, 6)), np.zeros(2), l=8)
        rec = build_recency_index(
            make_log([(0, 0, 0)], m=2, n=6), make_cats(np.arange(6) % 2)
        )
        out = recommend_topn(model, rec, 1, 4, 6)
        assert [j for j, _ in out] == list(range(6))
        assert all(s == 0.0 for _, s in out)

    def test_matches_per_item_scores(self):
        rng = np.random.default_rng(4)
        model, rec, _, _, _ = random_setup(rng, n=20)
        for user in (0, model.m - 1):
            for slot in (0, 9, rec.log.l + 4):
                want = np.array(
                    [score(model, rec, user, j, slot) for j in range(model.n)]
                )
                order = sorted(range(model.n), key=lambda j: (-want[j], j))
                out = recommend_topn(model, rec, user, slot, 7)
                assert [j for j, _ in out] == order[:7]
                for j, s in out:
                    assert s == pytest.approx(want[j], rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("bad", [0, -1, 10, 2.5, 3.0, True, "3"])
    def test_rejects_bad_topn(self, bad):
        model = model_from_dense(np.zeros((2, 9)), np.zeros(1), l=5)
        rec = build_recency_index(make_log([(0, 0, 0)], m=2, n=9), make_cats([0] * 9))
        with pytest.raises(ValueError, match=r"n_top must be in \[1, 9\]"):
            recommend_topn(model, rec, 0, 1, bad)

    def test_accepts_numpy_integer_topn(self):
        model = model_from_dense(np.zeros((2, 9)), np.zeros(1), l=5)
        rec = build_recency_index(make_log([(0, 0, 0)], m=2, n=9), make_cats([0] * 9))
        assert [j for j, _ in recommend_topn(model, rec, 0, 1, np.int64(3))] == [0, 1, 2]

    @staticmethod
    def one_user(values):
        """A one-user model whose scores are exactly ``values``."""
        values = np.asarray(values, dtype=float)
        n = values.shape[0]
        model = model_from_factors([[1.0]], values[:, None], [0.0], l=8)
        rec = build_recency_index(make_log([(0, 0, 0)], m=1, n=n), make_cats([0] * n))
        return model, rec

    @pytest.mark.parametrize("n_top, want", [(2, [1, 5]), (3, [1, 5, 0]), (4, [1, 5, 0, 2])])
    def test_tie_across_the_boundary_goes_to_smaller_id(self, n_top, want):
        # items 0, 2 and 4 tie at 0.3 behind 1 and 5: at n_top = 3 the third
        # and fourth scores are equal, and the smaller id wins
        values = [0.3, 0.9, 0.3, 0.1, 0.3, 0.8]
        model, rec = self.one_user(values)
        assert recommend_topn(model, rec, 0, 4, n_top) == [(j, values[j]) for j in want]

    @pytest.mark.parametrize("n_top, sorted_size", [(1, 1), (2, 2), (3, 5), (5, 5), (6, 6)])
    def test_sorts_only_the_candidates(self, monkeypatch, n_top, sorted_size):
        # without NaNs only the items that tie or beat the n_top-th score
        # are sorted: from n_top = 3 on the three items tied at 0.3 join 1
        # and 5, and only at n_top = 6 does item 3 join them
        sizes = []

        class Row(np.ndarray):
            def argsort(self, *args, **kwargs):
                sizes.append(self.shape[0])
                return np.asarray(self).argsort(*args, **kwargs)

        values = [0.3, 0.9, 0.3, 0.1, 0.3, 0.8]
        model, rec = self.one_user(values)
        row_scores = model.X.row_scores
        monkeypatch.setattr(model.X, "row_scores", lambda user: row_scores(user).view(Row))
        want = sorted(range(6), key=lambda j: (-values[j], j))[:n_top]
        assert recommend_topn(model, rec, 0, 4, n_top) == [(j, values[j]) for j in want]
        assert sizes == [sorted_size]

    def test_all_equal_row(self):
        model, rec = self.one_user(np.full(7, 0.25))
        for n_top in range(1, 8):
            out = recommend_topn(model, rec, 0, 3, n_top)
            assert out == [(j, 0.25) for j in range(n_top)]

    @pytest.mark.parametrize("seed", range(6))
    def test_quantized_scores_match_id_tiebreak(self, seed):
        # small integer factors and durations make every score exact, with
        # many ties within and across categories
        rng = np.random.default_rng(seed)
        m, n, l, r = 3, 17, 12, 3
        U, V = rng.integers(-2, 3, size=(m, 2)), rng.integers(-2, 3, size=(n, 2))
        model = model_from_factors(U, V, rng.integers(0, 5, size=r), l)
        log = make_log(random_triplets(rng, m, n, l, 30), m=m, n=n)
        rec = build_recency_index(log, make_cats(np.arange(n) % r, r=r))
        for user in range(m):
            for slot in (0, 5, l - 1):
                s = [score(model, rec, user, j, slot) for j in range(n)]
                want = sorted(range(n), key=lambda j: (-s[j], j))
                for n_top in (1, 2, n - 1, n):
                    out = recommend_topn(model, rec, user, slot, n_top)
                    assert [j for j, _ in out] == want[:n_top]
                    assert [v for _, v in out] == [s[j] for j in want[:n_top]]

    def test_probes_once_and_never_queries(self, monkeypatch):
        # a top-N query reads its penalties from one user_gaps probe, not
        # from the broadcast query path
        rng = np.random.default_rng(9)
        model, rec, _, _, _ = random_setup(rng, n=20)
        want = recommend_topn(model, rec, 2, 7, 5)
        probes, user_gaps = [], rec.user_gaps

        def refuse(*args):
            raise AssertionError("recommend_topn called RecencyIndex.query")

        def spy(user, slot):
            probes.append((user, slot))
            return user_gaps(user, slot)

        monkeypatch.setattr(rec, "query", refuse)
        monkeypatch.setattr(rec, "user_gaps", spy)
        assert recommend_topn(model, rec, 2, 7, 5) == want
        assert probes == [(2, 7)]

    @pytest.mark.parametrize("index", ["full", "one_user"])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_stable_argsort_of_the_score_row(self, seed, index):
        # lists and scores bit for bit, on a fitted model and on an SVD one,
        # with the full index and with the CLI's one-user index
        rng = np.random.default_rng(60 + seed)
        m, n, l, r = 7, 40, 16, 4
        log = make_log(random_triplets(rng, m - 1, n, l, 150), m=m, n=n)  # user 6 buys nothing
        cats = make_cats(rng.integers(0, r, size=n), r=r)
        fitted, _ = fit(log, cats, SolverConfig(outer_iters=2, inner_iters=3, max_rank=4,
                                                lam=0.5, seed=seed))
        dense = model_from_dense(rng.uniform(-1.0, 1.5, size=(m, n)),
                                 rng.uniform(0.0, 8.0, size=r), log.l)
        full = build_recency_index(log, cats)
        for model in (fitted, dense):
            for user in range(m):
                rec = full if index == "full" else build_recency_index(log.user_log(user), cats)
                for slot in (0, 3, log.l - 1, log.l, log.l + 5):
                    scores = evaluate._scores(model, full, user, slot)
                    for n_top in (1, 5, n):
                        order = np.argsort(-scores, kind="stable")[:n_top]
                        out = recommend_topn(model, rec, user, slot, n_top)
                        assert [j for j, _ in out] == order.tolist()
                        assert all(type(j) is int and type(v) is float for j, v in out)
                        assert np.array_equal([v for _, v in out], scores[order])

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_scores_keep_their_sign(self, seed):
        # integer utilities and durations: at slot 2 category 0, bought at
        # slot 0, has the penalty 3, so items of utility 3 score exactly
        # z - p = +0.0, and so do the zero utilities of the unpenalized
        # category 1; the lists must equal the reference in repr, which
        # tells +0.0 from -0.0 where == does not
        rng = np.random.default_rng(70 + seed)
        n = 12
        V = rng.integers(-1, 5, size=(n, 1))
        V[:3, 0] = [3, 3, 0]
        model = model_from_factors([[1.0]], V, [5.0, 2.0], l=6)
        cats = make_cats([0, 0, 1] + rng.integers(0, 2, size=n - 3).tolist(), r=2)
        rec = build_recency_index(make_log([(0, 0, 0)], m=1, n=n), cats)
        scores = evaluate._scores(model, rec, 0, 2)
        assert (scores == 0.0).sum() >= 3 and not np.signbit(scores[scores == 0.0]).any()
        for n_top in range(1, n + 1):
            order = np.argsort(-scores, kind="stable")[:n_top]
            want = list(zip(order.tolist(), scores[order].tolist()))
            assert repr(recommend_topn(model, rec, 0, 2, n_top)) == repr(want)

    @pytest.mark.parametrize("where", ["item", "user"])
    def test_nan_factor_keeps_the_stable_argsort_order(self, where):
        # a NaN in V makes one item's score NaN; a NaN in U makes the whole
        # row NaN, so the n_top-th score itself is NaN
        rng = np.random.default_rng(8)
        U, V = rng.integers(-2, 3, size=(1, 2)).astype(float), rng.integers(-2, 3, size=(9, 2)).astype(float)
        if where == "item":
            V[4, 1] = np.nan
        else:
            U[0, 0] = np.nan
        model = model_from_factors(U, V, [1.0, 0.0, 2.0], l=6)
        rec = build_recency_index(make_log([(0, 2, 1), (0, 3, 3)], m=1, n=9),
                                  make_cats(np.arange(9) % 3, r=3))
        scores = evaluate._scores(model, rec, 0, 4)
        assert np.isnan(scores).any()
        order = np.argsort(-scores, kind="stable")
        for n_top in range(1, 10):
            out = recommend_topn(model, rec, 0, 4, n_top)
            assert [j for j, _ in out] == order[:n_top].tolist()


def oracle_category_ranks(X, d, assignment, trips, tu, ti, tk):
    ranks = []
    for u, i, k in zip(tu, ti, tk):
        scores = np.array(
            [brute_score(X, d, assignment, trips, u, j, k) for j in range(X.shape[1])]
        )
        in_cat = [j for j in range(X.shape[1]) if assignment[j] == assignment[i]]
        best = max(in_cat, key=lambda j: (scores[j], -j))
        ranks.append(oracles.rank_with_tiebreak(scores, best))
    return np.array(ranks, dtype=float)


def model_from_factors(U, V, d, l):
    """ModelState whose utilities are exactly (U @ V.T): sigma is all ones,
    so an all-zero row of V gives items of zero utility."""
    U, V = np.asarray(U, dtype=float), np.asarray(V, dtype=float)
    return ModelState(
        X=FactoredUtilityMatrix(U, np.ones(U.shape[1]), V),
        d=np.asarray(d, dtype=float),
        l=l,
    )


def category_case(name):
    """(model, rec, trips, tu, ti, tk) of one category-metric edge case."""
    rng = np.random.default_rng(20)
    m, n, l, r = 4, 12, 15, 3
    assignment = np.arange(n) % r
    U, V = rng.uniform(-1.0, 1.0, size=(m, 3)), rng.uniform(-1.0, 1.0, size=(n, 3))
    d = np.array([0.0, 0.0, 4.0])
    if name == "zero_utility_ties":
        # zero-utility items tie exactly within and across the penalty-free
        # categories 0 and 1, and every other utility is negative
        U, V = np.abs(U), -np.abs(V)
        V[[0, 3, 4, 7, 8]] = 0.0
    elif name == "rounding_ties":
        # user 0 at slot 1: category 0 has penalty 1, so items 1 (z = 0) and
        # 2 (z = 2**-60) both score -1, tied with item 0 of category 1
        m, n, l, r = 1, 5, 6, 2
        assignment = np.array([1, 0, 0, 1, 1])
        U, V = [[1.0]], [[-1.0], [0.0], [2.0**-60], [-0.5], [-2.0]]
        d = np.array([2.0, 0.0])
    elif name == "rank_0":
        U, V = np.zeros((m, 0)), np.zeros((n, 0))
    elif name == "one_item_and_empty_category":
        # category 3 holds item 11 alone; category 2 holds no item
        r = 4
        assignment = np.where(assignment == 2, 0, assignment)
        assignment[11] = 3
        d = np.array([3.0, 1.0, 2.0, 5.0])
    cats = make_cats(assignment, r=r)
    trips = random_triplets(rng, m, n, l, 3 * n) if m > 1 else [(0, 1, 0), (0, 3, 2)]
    rec = build_recency_index(make_log(trips, m=m, n=n), cats)
    model = model_from_factors(U, V, d, l)
    if name == "one_user_many_slots":
        tk = list(range(l))
        tu, ti = [2] * l, [(3 * k) % n for k in range(l)]
    elif name == "rounding_ties":
        tu, ti, tk = [0, 0, 0, 0], [2, 1, 0, 3], [1, 1, 0, 3]
    else:
        tu = [k % m for k in range(2 * n)]
        ti = list(range(n)) * 2
        tk = [(5 * k) % l for k in range(2 * n)]
    return model, rec, trips, tu, ti, tk


class TestCategoryMetric:
    def test_perfect_model_scores_best(self):
        # every item its own category; test item strictly on top
        X = np.array([[0.1, 0.9, 0.3, 0.2, 0.0]])
        model = model_from_dense(X, np.zeros(5), l=6)
        rec = build_recency_index(
            make_log([(0, 1, 0)], m=1, n=5), make_cats(np.arange(5))
        )
        pct, ranks = category_prediction_metric(model, rec, [0], [1], [4])
        assert ranks.tolist() == [1.0]
        assert pct == pytest.approx(100.0 / 5)

    def test_single_category_always_rank_one(self):
        rng = np.random.default_rng(5)
        model, rec, _, log, _ = random_setup(rng, r=1, d=np.array([3.0]))
        tu, ti, tk = log.users[:6], log.items[:6], log.slots[:6]
        pct, ranks = category_prediction_metric(model, rec, tu, ti, tk)
        assert np.all(ranks == 1.0)
        assert pct == pytest.approx(100.0 / model.n)

    def test_matches_oracle(self, scoring_blocks):
        rng = np.random.default_rng(6)
        model, rec, X, log, cats = random_setup(rng, nnz=50)
        trips = triplet_list(log)
        tu = [0, 3, 3, 1, 5, 0]
        ti = [2, 8, 0, 4, 7, 2]
        tk = [4, 0, 14, 9, 7, 4]
        pct, ranks = category_prediction_metric(model, rec, tu, ti, tk)
        want = oracle_category_ranks(X, model.d, cats.assignment, trips, tu, ti, tk)
        assert np.array_equal(ranks, want)
        assert pct == pytest.approx(want.mean() / model.n * 100.0)

    @pytest.mark.parametrize("case", [
        "zero_utility_ties", "rounding_ties", "rank_0", "one_user_many_slots",
        "one_item_and_empty_category",
    ])
    def test_edge_cases_match_oracle(self, case, scoring_blocks):
        model, rec, trips, tu, ti, tk = category_case(case)
        _, ranks = category_prediction_metric(model, rec, tu, ti, tk)
        want = oracle_category_ranks(
            oracles.dense_factored(model.X), model.d, rec.cats.assignment, trips, tu, ti, tk
        )
        assert np.array_equal(ranks, want)

    def test_scores_no_full_row_without_ties(self, monkeypatch):
        rng = np.random.default_rng(6)
        model, rec, X, log, cats = random_setup(rng, nnz=50)

        def refuse(*args):
            raise AssertionError("a record without ties took the full-row path")

        monkeypatch.setattr(evaluate, "_category_ranks_full", refuse)
        _, ranks = category_prediction_metric(model, rec, log.users, log.items, log.slots)
        want = oracle_category_ranks(
            X, model.d, cats.assignment, triplet_list(log), log.users, log.items, log.slots
        )
        assert np.array_equal(ranks, want)

    def test_rounding_tie_takes_the_smaller_id(self):
        # z = 0 and z = 2**-60 both score -1 under penalty 1: the best item
        # is the smaller id (1), so item 0's tie counts and item 2's does not
        model, rec, trips, _, _, _ = category_case("rounding_ties")
        _, ranks = category_prediction_metric(model, rec, [0, 0], [2, 2], [1, 0])
        assert ranks.tolist() == [3.0, 1.0]

    def test_rejects_empty_and_mismatched(self):
        rng = np.random.default_rng(7)
        model, rec, _, _, _ = random_setup(rng)
        with pytest.raises(ValueError, match="no test records"):
            category_prediction_metric(model, rec, [], [], [])
        with pytest.raises(ValueError, match="matching length"):
            category_prediction_metric(model, rec, [0, 1], [0], [0, 0])


class TestDistanceProfile:
    def test_mixed(self):
        got = _distance_to_predicted(np.array([False, False, True, False, False]), 5)
        assert got.tolist() == [2, 1, 0, 1, 2]

    def test_nearest_of_two(self):
        got = _distance_to_predicted(np.array([True, False, False, True]), 4)
        assert got.tolist() == [0, 1, 1, 0]

    def test_none_predicted(self):
        assert _distance_to_predicted(np.zeros(4, dtype=bool), 4).tolist() == [4] * 4


class TestTimeMetric:
    def fixture(self):
        # cat 0: utility .9, duration 10, purchase at slot 0 => predicted
        # at slot 0 (no history) and from slot 10 on; cat 1 never predicted
        model = model_from_dense([[0.9, 0.0]], [10.0, 0.0], l=20)
        log = make_log([(0, 0, 0)], m=1, n=2)
        rec = build_recency_index(log, make_cats([0, 1]))
        return model, rec

    def test_hand_traced(self):
        model, rec = self.fixture()
        pct, errors = time_prediction_metric(
            model, rec, [0, 0, 0], [0, 0, 0], [4, 12, 9], tau=0.5
        )
        assert errors.tolist() == [4.0, 0.0, 1.0]
        assert pct == pytest.approx((5.0 / 3.0) / 20 * 100.0)

    def test_unpredicted_category_costs_full_horizon(self):
        model, rec = self.fixture()
        pct, errors = time_prediction_metric(
            model, rec, [0, 0], [0, 1], [12, 7], tau=0.5
        )
        assert errors.tolist() == [0.0, 20.0]
        assert pct == pytest.approx((20.0 / 2.0) / 20 * 100.0)

    def test_predict_everywhere_is_zero(self):
        rng = np.random.default_rng(8)
        model, rec, _, log, _ = random_setup(rng)
        tu, ti, tk = log.users[:5], log.items[:5], log.slots[:5]
        pct, errors = time_prediction_metric(model, rec, tu, ti, tk, tau=-1e9)
        assert np.all(errors == 0.0)
        assert pct == 0.0

    def test_predict_nowhere_is_full(self):
        rng = np.random.default_rng(9)
        model, rec, _, log, _ = random_setup(rng)
        tu, ti, tk = log.users[:5], log.items[:5], log.slots[:5]
        pct, errors = time_prediction_metric(model, rec, tu, ti, tk, tau=1e9)
        assert np.all(errors == model.l)
        assert pct == 100.0

    def test_matches_per_record_brute_force(self, scoring_blocks):
        rng = np.random.default_rng(10)
        model, rec, _, log, cats = random_setup(rng, m=4, n=6, l=12, nnz=25)
        tau = 0.3
        tu = [2, 0, 2, 3, 1, 2]
        ti = [1, 5, 4, 0, 3, 1]
        tk = [3, 11, 0, 7, 5, 9]
        _, errors = time_prediction_metric(model, rec, tu, ti, tk, tau=tau)
        for pos, (u, i, k) in enumerate(zip(tu, ti, tk)):
            cat = cats.assignment[i]
            predicted = [
                s
                for s in range(model.l)
                if any(
                    score(model, rec, u, j, s) > tau
                    for j in range(model.n)
                    if cats.assignment[j] == cat
                )
            ]
            want = min((abs(k - s) for s in predicted), default=model.l)
            assert errors[pos] == want

    def test_warns_when_tau_is_above_every_best_utility(self):
        model, rec = self.fixture()
        with pytest.warns(UserWarning, match="time_pct is 100"):
            pct, _ = time_prediction_metric(model, rec, [0, 0], [0, 1], [3, 7], tau=0.9)
        assert pct == 100.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            time_prediction_metric(model, rec, [0, 0], [0, 1], [3, 7], tau=0.89)


def reference_time_errors(model, rec, tu, ti, tk, tau):
    """The time metric's errors from one full score row per (user,
    category) group, taken at slot 0, where no purchase precedes and the
    penalty is exactly 0.0."""
    tu, ti, tk = (np.asarray(a, dtype=np.int64) for a in (tu, ti, tk))
    assignment = rec.cats.assignment
    errors = np.empty(tu.shape[0])
    for u, c in set(zip(tu.tolist(), assignment[ti].tolist())):
        utility = evaluate._scores(model, rec, np.array([u]), np.array([0]))[0]
        zmax = np.where(assignment == c, utility, -np.inf).max()
        t = rec.query(u, c, np.arange(model.l))
        predicted = zmax - np.maximum(0.0, model.d[c] - t) > tau
        dist = _distance_to_predicted(predicted, model.l)
        mine = (tu == u) & (assignment[ti] == c)
        errors[mine] = dist[tk[mine]]
    return errors


class TestTimeMetricOracle:
    """The metric against one full score row per group, with tau at, just
    below and just above the groups' best utilities.  The factors are
    multiples of 1/8, so every utility is exact however BLAS blocks the
    rows, and a tau equal to a group's best is equal in both."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_group_rows(self, seed, scoring_blocks):
        rng = np.random.default_rng(30 + seed)
        # r = 4 with items in categories 0-2 only: category 3 owns no item
        m, n, l = 7, 11, 14
        U = rng.integers(-8, 9, size=(m, 3)) / 8.0
        V = rng.integers(-8, 9, size=(n, 3)) / 8.0
        X = U @ V.T
        model = model_from_factors(U, V, rng.uniform(0.0, 8.0, size=4), l)
        log = make_log(random_triplets(rng, m, n, l, 60), m=m, n=n)
        cats = make_cats(np.arange(n) % 3, r=4)
        rec = build_recency_index(log, cats)
        # every user but the last has records in two or three categories,
        # and the records come in shuffled order
        tu = np.repeat(np.arange(m - 1), 5)
        ti = rng.integers(0, n, size=tu.shape[0])
        ti[::5] = rng.integers(0, n // 3, size=m - 1) * 3  # category 0
        ti[1::5] = rng.integers(0, n // 3, size=m - 1) * 3 + 1  # category 1
        tk = rng.integers(0, l, size=tu.shape[0])
        shuffle = rng.permutation(tu.shape[0])
        tu, ti, tk = tu[shuffle], ti[shuffle], tk[shuffle]
        group_max = [np.where(cats.assignment == cats.assignment[i], X[u], -np.inf).max()
                     for u, i in zip(tu, ti)]
        taus = [0.0]
        for value in rng.choice(group_max, size=3, replace=False):
            taus += [value, np.nextafter(value, -np.inf), np.nextafter(value, np.inf)]
        for tau in taus:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pct, errors = time_prediction_metric(model, rec, tu, ti, tk, tau=tau)
            want = reference_time_errors(model, rec, tu, ti, tk, tau)
            assert np.array_equal(errors, want), tau
            assert pct == float(want.mean() / l * 100.0)

    def test_profiles_only_groups_above_tau(self, monkeypatch):
        """With tau between two groups' best utilities, the groups whose
        best is not above tau get the error l without a recency query, and
        every error equals the full-grid reference."""
        rng = np.random.default_rng(35)
        m, n, l = 9, 12, 16
        U = rng.integers(-8, 9, size=(m, 3)) / 8.0
        V = rng.integers(-8, 9, size=(n, 3)) / 8.0
        X = U @ V.T
        model = model_from_factors(U, V, rng.uniform(0.0, 6.0, size=3), l)
        log = make_log(random_triplets(rng, m, n, l, 80), m=m, n=n)
        cats = make_cats(np.arange(n) % 3, r=3)
        rec = build_recency_index(log, cats)
        tu = rng.integers(0, m, size=40)
        ti = rng.integers(0, n, size=40)
        tk = rng.integers(0, l, size=40)
        groups = {(u, c): np.where(cats.assignment == c, X[u], -np.inf).max()
                  for u, c in zip(tu.tolist(), cats.assignment[ti].tolist())}
        best = np.unique(list(groups.values()))
        tau = float(best[best.shape[0] // 2] + best[best.shape[0] // 2 - 1]) / 2.0
        live = sum(value > tau for value in groups.values())
        assert 0 < live < len(groups)
        queried = []
        query = rec.query

        def spy(users, *args):
            queried.append(np.shape(users)[0])
            return query(users, *args)

        with monkeypatch.context() as patch:
            patch.setattr(rec, "query", spy)
            pct, errors = time_prediction_metric(model, rec, tu, ti, tk, tau=tau)
        assert sum(queried) == live
        want = reference_time_errors(model, rec, tu, ti, tk, tau)
        assert np.array_equal(errors, want)
        assert pct == float(want.mean() / l * 100.0)
        dead = [pos for pos, (u, i) in enumerate(zip(tu, ti))
                if groups[(u, cats.assignment[i])] <= tau]
        assert dead and (errors[dead] == l).all()

    def test_scores_each_test_user_once(self, monkeypatch):
        rng = np.random.default_rng(40)
        model, rec, _, log, _ = random_setup(rng, m=5, n=9, l=10, nnz=45)
        rows = []
        row_scores = model.X.row_scores

        def spy(users):
            rows.extend(np.atleast_1d(users).tolist())
            return row_scores(users)

        monkeypatch.setattr(model.X, "row_scores", spy)
        time_prediction_metric(model, rec, log.users, log.items, log.slots, tau=0.2)
        assert sorted(rows) == sorted(set(log.users.tolist()))


def record_draws(monkeypatch):
    """A list that collects every sample block the item metric draws."""
    seen = []

    def spy(*args):
        seen.append(_draw_others(*args))
        return seen[-1]

    monkeypatch.setattr(evaluate, "_draw_others", spy)
    return seen


class TestItemMetric:
    def test_full_sample_matches_exhaustive_rank(self, scoring_blocks):
        rng = np.random.default_rng(11)
        model, rec, _, log, _ = random_setup(rng)
        tu, ti, tk = log.users[:8], log.items[:8], log.slots[:8]
        pct, ranks = item_prediction_metric(
            model, rec, tu, ti, tk, sample_size=model.n, seed=3
        )
        for pos, (u, i, k) in enumerate(zip(tu.tolist(), ti.tolist(), tk.tolist())):
            scores = np.array(
                [score(model, rec, u, j, k) for j in range(model.n)]
            )
            assert ranks[pos] == oracles.rank_with_tiebreak(scores, i)
        assert pct == pytest.approx(ranks.mean() / model.n * 100.0)

    def test_perfect_model(self):
        X = np.array([[0.1, 0.95, 0.3, 0.2]])
        model = model_from_dense(X, np.zeros(2), l=6)
        rec = build_recency_index(
            make_log([(0, 0, 0)], m=1, n=4), make_cats([0, 1, 0, 1])
        )
        pct, ranks = item_prediction_metric(
            model, rec, [0, 0], [1, 1], [2, 5], sample_size=3, seed=0
        )
        assert np.all(ranks == 1.0)
        assert pct == pytest.approx(100.0 / 3)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(12)
        model, rec, _, log, _ = random_setup(rng)
        tu, ti, tk = log.users[:10], log.items[:10], log.slots[:10]
        first = item_prediction_metric(model, rec, tu, ti, tk, 4, seed=7)
        second = item_prediction_metric(model, rec, tu, ti, tk, 4, seed=7)
        assert first[0] == second[0]
        assert np.array_equal(first[1], second[1])

    @pytest.mark.parametrize("n, draws", [(20, 7), (20, 15), (20, 19), (5, 0), (2, 1), (1, 0)])
    def test_draws_are_distinct_and_exclude_the_target(self, n, draws):
        rng = np.random.default_rng(17)
        items = np.arange(400) % n
        others = _draw_others(rng, items, n, draws)
        assert others.shape == (400, draws)
        assert ((others >= 0) & (others < n)).all()
        assert not (others == items[:, None]).any()
        for row in others:
            assert np.unique(row).shape[0] == draws

    @pytest.mark.parametrize("n, draws", [(20, 7), (40, 19), (1000, 120)])
    def test_int32_draws_equal_int64_draws(self, n, draws):
        # the same values and the same generator state as draws widened to
        # int64, over the first draw and every redraw round

        class Int64Draws:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def integers(self, low, high, size, dtype=None):
                self.calls += 1
                return self.rng.integers(low, high, size=size)

        items = np.random.default_rng(20).integers(0, n, size=500).astype(np.int32)
        rng, wide = np.random.default_rng(21), Int64Draws(np.random.default_rng(21))
        want = _draw_others(wide, items, n, draws)
        got = _draw_others(rng, items, n, draws)
        assert wide.calls >= 3  # the first draw and at least two redraw rounds
        assert got.dtype == np.int32 and want.dtype == np.int64
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == wide.rng.bit_generator.state

    @pytest.mark.parametrize("n, dtype", [(2**31, np.int32), (2**31 + 1, np.int64)])
    def test_draws_widen_only_past_int32(self, n, dtype):
        # the largest draw, n - 2, plus one must fit the draws' dtype
        items = np.array([0, n - 1])
        others = _draw_others(np.random.default_rng(22), items, n, 3)
        assert others.dtype == dtype
        assert ((others >= 0) & (others < n) & (others != items[:, None])).all()

    @pytest.mark.parametrize("draws", [7, 15])  # sorted draws; random keys
    def test_draw_counts_are_uniform(self, draws):
        n, rows = 20, 20_000
        rng = np.random.default_rng(18)
        items = rng.integers(0, n, size=rows)
        counts = np.bincount(_draw_others(rng, items, n, draws).ravel(), minlength=n)
        expected = (rows - np.bincount(items, minlength=n)) * draws / (n - 1)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 43.8  # the 0.999 quantile at 19 degrees of freedom

    def test_draws_and_ranks_do_not_depend_on_scoring_blocks(self, monkeypatch):
        rng = np.random.default_rng(19)
        model, rec, _, log, _ = random_setup(rng, m=8, n=12, l=20, nnz=80)
        seen = record_draws(monkeypatch)
        monkeypatch.setattr(evaluate, "_DRAW_CELLS", 6 * 7)  # chunks of 7 records
        runs = []
        for cells in (2**18, 45):
            monkeypatch.setattr(evaluate, "_BLOCK_CELLS", cells)
            seen.clear()
            _, ranks = item_prediction_metric(
                model, rec, log.users, log.items, log.slots, 6, seed=4
            )
            runs.append((np.concatenate(seen), ranks))
        assert len(seen) > 1
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    # rank 8 and sample 5 make scoring blocks of 10 rows at 400 cells and of
    # 1 row at 45; a query then takes 400 // 30 blocks, or 45 // 3 rows
    @pytest.mark.parametrize("cells, rows", [(400, [80]), (45, [15] * 5 + [5])])
    def test_one_penalty_query_per_run_of_blocks(self, monkeypatch, cells, rows):
        """A penalty query covers as many whole scoring blocks as fit in
        ``_BLOCK_CELLS`` cells of penalties, so its memory stays bounded."""
        rng = np.random.default_rng(21)
        model, rec, _, log, _ = random_setup(rng, m=8, n=12, l=20, nnz=80)
        assert (model.X.rank, model.r) == (8, 3)
        queried = []
        original = evaluate._penalties

        def spy(model, rec, users, slots):
            queried.append(users.shape[0])
            return original(model, rec, users, slots)

        monkeypatch.setattr(evaluate, "_penalties", spy)
        monkeypatch.setattr(evaluate, "_BLOCK_CELLS", cells)
        item_prediction_metric(model, rec, log.users, log.items, log.slots, 5, seed=6)
        assert queried == rows

    def test_ranks_match_brute_force_on_the_drawn_samples(self, monkeypatch, scoring_blocks):
        rng = np.random.default_rng(21)
        model, rec, _, log, _ = random_setup(rng, m=8, n=12, l=20, nnz=80)
        seen = record_draws(monkeypatch)
        tu, ti, tk = log.users, log.items, log.slots
        _, ranks = item_prediction_metric(model, rec, tu, ti, tk, 5, seed=6)
        for pos, sample in enumerate(np.concatenate(seen)):
            u, i, k = int(tu[pos]), int(ti[pos]), int(tk[pos])
            pool = [i, *sample.tolist()]
            scores = np.array([score(model, rec, u, j, k) for j in pool])
            want = 1 + sum(
                s > scores[0] or (s == scores[0] and j < i)
                for j, s in zip(pool[1:], scores[1:])
            )
            assert ranks[pos] == want

    @pytest.mark.parametrize("bad", [0, -2, 10, 2.5, True, np.float64(3.0), "3"])
    def test_rejects_bad_sample_size(self, bad):
        model = model_from_dense(np.zeros((2, 9)), np.zeros(1), l=5)
        rec = build_recency_index(make_log([(0, 0, 0)], m=2, n=9), make_cats([0] * 9))
        with pytest.raises(ValueError, match="sample_size"):
            item_prediction_metric(model, rec, [0], [1], [2], sample_size=bad)


class TestHoldoutIds:
    """The three metrics refuse test ids outside the model's dims, naming
    the column, rather than wrap a negative id round to another row."""

    METRICS = {
        "category": lambda model, rec, *cols: category_prediction_metric(model, rec, *cols),
        "time": lambda model, rec, *cols: time_prediction_metric(model, rec, *cols, tau=0.0),
        "item": lambda model, rec, *cols: item_prediction_metric(model, rec, *cols,
                                                                 sample_size=4),
    }

    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("column, value", [
        ("test_users", -1), ("test_users", 6), ("test_items", -1), ("test_items", 9),
        ("test_slots", -5), ("test_slots", 15),
    ])
    def test_an_id_outside_the_dims_is_refused(self, metric, column, value):
        model, rec, _, log, _ = random_setup(np.random.default_rng(4))  # 6 x 9, l = 15
        cols = {"test_users": log.users[:3].copy(), "test_items": log.items[:3].copy(),
                "test_slots": log.slots[:3].copy()}
        cols[column][1] = value
        with pytest.raises(ValueError, match=rf"^{column} must be in \[0, "):
            self.METRICS[metric](model, rec, *cols.values())

    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_ids_at_the_edges_are_scored(self, metric):
        model, rec, _, _, _ = random_setup(np.random.default_rng(4))
        pct, ranks = self.METRICS[metric](model, rec, [0, 5], [0, 8], [0, 14])
        assert ranks.shape == (2,) and 0 <= pct <= 100

    def test_a_numpy_integer_sample_size_is_accepted(self):
        model, rec, _, log, _ = random_setup(np.random.default_rng(4))
        want = item_prediction_metric(model, rec, log.users, log.items, log.slots,
                                      sample_size=4, seed=1)
        got = item_prediction_metric(model, rec, log.users, log.items, log.slots,
                                     sample_size=np.int64(4), seed=1)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])


class TestProtocolProperties:
    def test_zero_duration_time_metric_is_all_or_nothing(self):
        rng = np.random.default_rng(13)
        model, rec, X, log, cats = random_setup(rng, d=np.zeros(3))
        tau = 0.4
        tu, ti, tk = log.users[:6], log.items[:6], log.slots[:6]
        _, errors = time_prediction_metric(model, rec, tu, ti, tk, tau=tau)
        for pos, i in enumerate(ti.tolist()):
            zmax = X[tu[pos], cats.assignment == cats.assignment[i]].max()
            assert errors[pos] == (0.0 if zmax > tau else model.l)

    def test_future_purchases_do_not_leak(self):
        # recency is strict-predecessor only: training purchases after every
        # test slot cannot move category or item ranks
        rng = np.random.default_rng(14)
        model, rec, _, log, cats = random_setup(rng, l=20)
        tu, ti = log.users[:6], log.items[:6]
        tk = np.minimum(log.slots[:6], 9)
        extra = [(u, j, 15 + (u + j) % 5) for u in range(model.m) for j in (0, 4)]
        rec2 = build_recency_index(
            make_log(triplet_list(log) + extra, m=model.m, n=model.n), cats
        )
        for build in (category_prediction_metric,):
            _, base = build(model, rec, tu, ti, tk)
            _, poked = build(model, rec2, tu, ti, tk)
            assert np.array_equal(base, poked)
        _, base = item_prediction_metric(model, rec, tu, ti, tk, 5, seed=1)
        _, poked = item_prediction_metric(model, rec2, tu, ti, tk, 5, seed=1)
        assert np.array_equal(base, poked)

    def test_ranks_invariant_to_constant_utility_shift(self):
        rng = np.random.default_rng(15)
        model, rec, X, log, _ = random_setup(rng)
        shifted = model_from_dense(X + 2.5, model.d, model.l)
        tu, ti, tk = log.users[:6], log.items[:6], log.slots[:6]
        _, base = category_prediction_metric(model, rec, tu, ti, tk)
        _, moved = category_prediction_metric(shifted, rec, tu, ti, tk)
        assert np.allclose(base, moved)
        _, base = item_prediction_metric(model, rec, tu, ti, tk, 6, seed=2)
        _, moved = item_prediction_metric(shifted, rec, tu, ti, tk, 6, seed=2)
        assert np.allclose(base, moved)


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestPinnedMetrics:
    """sha256 of the three metrics' raw outputs on a small seeded instance.
    The category and time digests were recorded before the metrics were
    scored in row blocks, so their tie-breaking and errors must not move;
    the item digest, since the item metric draws all its samples in chunks,
    pins the draw order."""

    PINNED = ("f3d41021eaaa284fa2aec3d9b5c7357e3a602fbfa3134c1bbc4eb1f7436bc064",
              "f95feb4ed94bb480b71fc5a1996c01ed8926f69fa0f6f94445963c253abadf04",
              "3132dbaa816338e4e277e6d27bde8a6832b73ba2d3d70622431d20795d93f915")

    def test_outputs_match_pinned_digests(self, scoring_blocks):
        rng = np.random.default_rng(16)
        model, rec, X, log, _ = random_setup(rng, m=8, n=12, l=20, nnz=80)
        tu, ti, tk = log.users, log.items, log.slots
        tau = 0.5  # below the largest utility, so errors range from 0 to l
        assert tau < X.max()
        _, category_ranks = category_prediction_metric(model, rec, tu, ti, tk)
        _, time_errors = time_prediction_metric(model, rec, tu, ti, tk, tau=tau)
        _, item_ranks = item_prediction_metric(model, rec, tu, ti, tk, 6, seed=5)
        assert len(np.unique(time_errors)) > 2
        got = (_digest(category_ranks), _digest(time_errors), _digest(item_ranks))
        assert got == self.PINNED


class TestMetricReport:
    def test_to_text(self):
        rep = MetricReport(n_records=12, category_pct=3.25, time_pct=None, item_pct=8.0)
        text = rep.to_text()
        assert "n_records = 12" in text
        assert "category_pct = 3.25" in text
        assert "item_pct = 8.0" in text
        assert "time_pct" not in text
        assert text.endswith("\n")
