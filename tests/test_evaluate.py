"""Scoring, top-N ranking, and the three holdout metrics."""

import hashlib
import math
import warnings

import numpy as np
import pytest

import oracles
from demandrec import evaluate
from demandrec.data import build_recency_index
from demandrec.driver import ModelState
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


class TestPredictDemand:
    def setup_model(self):
        model = model_from_dense([[0.7]], [0.0], l=5)
        rec = build_recency_index(make_log([(0, 0, 0)], m=1, n=1), make_cats([0]))
        return model, rec

    def test_threshold_is_strict(self):
        model, rec = self.setup_model()
        assert not predict_demand(model, rec, 0, 0, 2, tau=0.7)
        assert predict_demand(model, rec, 0, 0, 2, tau=0.7 - 1e-9)

    def test_default_tau_from_config(self):
        model, rec = self.setup_model()
        model.config = SolverConfig(tau=0.9)
        assert not predict_demand(model, rec, 0, 0, 2)
        model.config = SolverConfig(tau=0.1)
        assert predict_demand(model, rec, 0, 0, 2)

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

    @pytest.mark.parametrize("bad", [0, -1, 10])
    def test_rejects_bad_topn(self, bad):
        model = model_from_dense(np.zeros((2, 9)), np.zeros(1), l=5)
        rec = build_recency_index(make_log([(0, 0, 0)], m=2, n=9), make_cats([0] * 9))
        with pytest.raises(ValueError, match="n_top"):
            recommend_topn(model, rec, 0, 1, bad)


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
        config=SolverConfig(),
        objective_history=[],
        iterations=0,
        duration_flags=(),
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
            model.X.dense(), model.d, rec.cats.assignment, trips, tu, ti, tk
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

    def test_default_tau_from_config(self):
        model, rec = self.fixture()
        model.config = SolverConfig(tau=0.5)
        pct, _ = time_prediction_metric(model, rec, [0], [0], [9])
        explicit, _ = time_prediction_metric(model, rec, [0], [0], [9], tau=0.5)
        assert pct == explicit


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

    @pytest.mark.parametrize("bad", [0, -2, 10])
    def test_rejects_bad_sample_size(self, bad):
        model = model_from_dense(np.zeros((2, 9)), np.zeros(1), l=5)
        rec = build_recency_index(make_log([(0, 0, 0)], m=2, n=9), make_cats([0] * 9))
        with pytest.raises(ValueError, match="sample_size"):
            item_prediction_metric(model, rec, [0], [1], [2], sample_size=bad)


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
