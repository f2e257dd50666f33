"""Scoring, top-N ranking, and the three holdout metrics."""

import hashlib
import math

import numpy as np
import pytest

import oracles
from demandrec import evaluate
from demandrec.data import build_recency_index
from demandrec.evaluate import (
    MetricReport,
    _distance_to_predicted,
    category_prediction_metric,
    item_prediction_metric,
    predict_demand,
    recommend_topn,
    score,
    time_prediction_metric,
)
from demandrec.utility import SolverConfig
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

    def test_default_tau_from_config(self):
        model, rec = self.fixture()
        model.config = SolverConfig(tau=0.5)
        pct, _ = time_prediction_metric(model, rec, [0], [0], [9])
        explicit, _ = time_prediction_metric(model, rec, [0], [0], [9], tau=0.5)
        assert pct == explicit


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
    """sha256 of the three metrics' raw outputs on a small seeded instance,
    recorded before the metrics were scored in row blocks: the draw order,
    the tie-breaking and the time errors must not move."""

    PINNED = ("f3d41021eaaa284fa2aec3d9b5c7357e3a602fbfa3134c1bbc4eb1f7436bc064",
              "f95feb4ed94bb480b71fc5a1996c01ed8926f69fa0f6f94445963c253abadf04",
              "d00c7fc4ac7f8af8e117c4f582ba2e159411dfef6baa1a03aeae3c5772782ebc")

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
