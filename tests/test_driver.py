import dataclasses
import math

import numpy as np
import pytest

import oracles
from helpers import make_cats, make_log, model_from_dense, random_triplets, triplet_list

from demandrec import driver, kernels, utility
from demandrec.data import build_recency_index
from demandrec.driver import (
    evaluate_objective,
    fit,
    init_utility,
    load_model,
    save_model,
)
from demandrec.errors import ModelFileError, SolverError
from demandrec.evaluate import score
from demandrec.utility import FactoredUtilityMatrix, SolverConfig


def small_instance(seed=50, m=8, n=6, l=4, r=2, count=40):
    rng = np.random.default_rng(seed)
    trips = random_triplets(rng, m, n, l, count)
    log = make_log(trips, m=m, n=n)
    assignment = rng.integers(0, r, size=n)
    cats = make_cats(assignment, r=r)
    return log, cats, trips, assignment.tolist()


class TestEvaluateObjective:
    def test_all_zero_model_counts_positives(self):
        log, cats, *_ = small_instance()
        rec = build_recency_index(log, cats)
        X = FactoredUtilityMatrix.zeros(log.m, log.n)
        cfg = SolverConfig(eta=0.37, lam=2.0)
        got = evaluate_objective(X, np.zeros(cats.r), rec, cfg)
        assert got == pytest.approx(0.37 * log.nnz, rel=1e-12)

    def test_matches_cell_by_cell_evaluation(self):
        log, cats, trips, assignment = small_instance()
        rec = build_recency_index(log, cats)
        rng = np.random.default_rng(51)
        X_dense = rng.uniform(-0.5, 1.5, size=(log.m, log.n))
        X = model_from_dense(X_dense, [0.0] * cats.r, log.l).X
        d = rng.uniform(0.0, 3.0, size=cats.r)
        cfg = SolverConfig(eta=0.6, lam=1.3)
        got = evaluate_objective(X, d, rec, cfg)
        expected = oracles.dense_objective(
            X_dense, d, trips, assignment, log.l, cfg.eta, cfg.lam
        )
        assert got == pytest.approx(expected, rel=1e-9)


class TestFit:
    def test_infinite_tol_runs_one_iteration_unconverged(self):
        log, cats, *_ = small_instance()
        state, report = fit(log, cats, SolverConfig(tol=math.inf, seed=0))
        assert report.iterations == 1
        assert report.converged is False
        assert len(report.objective_history) == 2

    def test_converges_with_monotone_trace(self):
        log, cats, *_ = small_instance(seed=52, m=15, n=12, l=8, r=3, count=150)
        state, report = fit(log, cats, SolverConfig(outer_iters=25, lam=0.5, seed=1))
        assert report.converged
        hist = report.objective_history
        for prev, new in zip(hist, hist[1:]):
            assert new <= prev + 1e-8 * max(1.0, abs(prev))
        assert report.final_objective == hist[-1]
        assert state.iterations == report.iterations

    def test_deterministic_under_seed(self):
        log, cats, *_ = small_instance(seed=53, count=60)
        cfg = SolverConfig(outer_iters=4, seed=9)
        a, ra = fit(log, cats, cfg)
        b, rb = fit(log, cats, cfg)
        assert np.array_equal(a.X.U, b.X.U)
        assert np.array_equal(a.X.sigma, b.X.sigma)
        assert np.array_equal(a.X.V, b.X.V)
        assert np.array_equal(a.d, b.d)
        assert ra.objective_history == rb.objective_history

    def test_warm_start_does_not_increase_objective(self):
        log, cats, *_ = small_instance(seed=54, m=12, n=10, l=6, r=2, count=120)
        cfg = SolverConfig(outer_iters=3, lam=0.5, seed=2)
        state1, report1 = fit(log, cats, cfg)
        state2, report2 = fit(log, cats, cfg, init=state1)
        tol = 1e-8 * max(1.0, abs(report1.final_objective))
        assert report2.objective_history[0] <= report1.final_objective + tol
        assert report2.final_objective <= report1.final_objective + tol

    def test_warm_start_from_a_model_wider_than_the_sketch(self):
        # rank 8 > max_rank 2 + oversample 1: the first sketch starts from the
        # model's three leading right singular vectors
        log, cats, *_ = small_instance(seed=54, m=12, n=10, l=6, r=2, count=120)
        state1, _ = fit(log, cats, SolverConfig(outer_iters=3, lam=0.5, max_rank=8, seed=2))
        assert state1.X.rank == 8
        cfg = SolverConfig(outer_iters=2, lam=3.0, max_rank=2, oversample=1, seed=2)
        state2, report2 = fit(log, cats, cfg, init=state1)
        assert state2.X.rank == 2
        hist = report2.objective_history
        for prev, new in zip(hist, hist[1:]):
            assert new <= prev + 1e-8 * max(1.0, abs(prev))

    def test_warm_start_above_the_rank_cap_is_truncated_first(self):
        # at lam=0.5 the cut from rank 8 to 2 raises the objective more than
        # any step-size halving wins back, unless the start is cut first
        log, cats, *_ = small_instance(seed=54, m=12, n=10, l=6, r=2, count=120)
        state1, _ = fit(log, cats, SolverConfig(outer_iters=3, lam=0.5, max_rank=8, seed=2))
        assert state1.X.rank == 8
        cfg = SolverConfig(outer_iters=2, lam=0.5, max_rank=2, oversample=1, seed=2)
        state2, report2 = fit(log, cats, cfg, init=state1)
        assert state2.X.rank <= 2
        hist = report2.objective_history
        for prev, new in zip(hist, hist[1:]):
            assert new <= prev + 1e-8 * max(1.0, abs(prev))

    def test_warm_start_dimension_mismatch_rejected(self):
        log, cats, *_ = small_instance(seed=55)
        state, _ = fit(log, cats, SolverConfig(outer_iters=1, tol=math.inf))
        other_log, other_cats, *_ = small_instance(seed=56, m=5, n=4)
        with pytest.raises(SolverError, match="warm-start"):
            fit(other_log, other_cats, SolverConfig(), init=state)

    def test_empty_category_flagged(self):
        # category 1 items are each purchased once per user: recency stays
        # infinite, so nothing constrains that duration
        trips = [(u, 0, k) for u in range(3) for k in (0, 4, 8)]
        trips += [(u, 1, 2) for u in range(3)]
        log = make_log(trips, m=3, n=2)
        cats = make_cats([0, 1], r=2)
        state, report = fit(log, cats, SolverConfig(outer_iters=2, tol=math.inf))
        assert 1 in report.duration_flags
        assert state.d[1] == 0.0


class TestPairValueReuse:
    def test_one_kernel_call_per_iterate(self, monkeypatch):
        log, cats, *_ = small_instance(seed=59, m=15, n=12, l=8, r=3, count=150)
        calls = []  # (function name, gamma keyword)
        # init_utility looks randomized_svd up in its own module, so only
        # update_X's sketches are counted here
        for module, name in ((kernels, "pair_values"), (utility, "randomized_svd"),
                             (utility, "gradient_step")):
            def wrapper(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls.append((_name, kwargs.get("gamma")))
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        # a fixed step near the dense part's stability limit overshoots the
        # hinges, which eta = 0.9 weighs heavily, and forces halvings
        cfg = SolverConfig(outer_iters=3, inner_iters=4, lam=0.5, eta=0.9, seed=1,
                           tol=1e-12, gamma=0.9 / ((1.0 - 0.9) * log.l))
        fit(log, cats, cfg)
        count = {name: [n for n, _ in calls].count(name)
                 for name in ("pair_values", "randomized_svd", "gradient_step")}
        assert len({g for n, g in calls if n == "gradient_step"}) > 1  # halvings
        assert count["randomized_svd"] == count["gradient_step"] > 3
        assert count["pair_values"] == 1 + count["randomized_svd"]


    def test_one_hinge_pass_per_iterate(self, monkeypatch):
        """The gradient step and the objective of one iterate share one
        hinge_stats pass; only the retry after a rejected step repeats the
        pass of the iterate it falls back to."""
        log, cats, *_ = small_instance(seed=59, m=15, n=12, l=8, r=3, count=150)
        calls = []  # (function name, gamma keyword)
        for module, name in ((kernels, "hinge_stats"), (utility, "randomized_svd"),
                             (utility, "gradient_step")):
            def wrapper(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls.append((_name, kwargs.get("gamma")))
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        cfg = SolverConfig(outer_iters=3, inner_iters=4, lam=0.5, eta=0.9, seed=1,
                           tol=1e-12, gamma=0.9 / ((1.0 - 0.9) * log.l))
        _, report = fit(log, cats, cfg)
        gammas = [g for n, g in calls if n == "gradient_step"]
        halvings = sum(later < earlier for earlier, later in zip(gammas, gammas[1:]))
        count = {name: [n for n, _ in calls].count(name)
                 for name in ("hinge_stats", "randomized_svd")}
        assert halvings > 0
        # the starting objective, then per outer iteration the objective of its
        # first iterate, and one pass per candidate and per retry
        assert count["hinge_stats"] == (
            1 + report.iterations + count["randomized_svd"] + halvings)


    def test_two_operator_products_per_sketch(self, monkeypatch):
        """Every proximal step, accepted or retried after a halving, multiplies
        by the gradient-step operator once and by its transpose once."""
        log, cats, *_ = small_instance(seed=59, m=15, n=12, l=8, r=3, count=150)
        calls = []  # (function name, gamma keyword)
        for owner, name in ((utility.GradStepOperator, "matmat"),
                            (utility.GradStepOperator, "rmatmat"),
                            (utility, "randomized_svd"), (utility, "gradient_step")):
            def wrapper(*args, _name=name, _original=getattr(owner, name), **kwargs):
                calls.append((_name, kwargs.get("gamma")))
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)
        cfg = SolverConfig(outer_iters=3, inner_iters=4, lam=0.5, eta=0.9, seed=1,
                           tol=1e-12, gamma=0.9 / ((1.0 - 0.9) * log.l))
        fit(log, cats, cfg)
        count = {name: [n for n, _ in calls].count(name)
                 for name in ("matmat", "rmatmat", "randomized_svd")}
        assert len({g for n, g in calls if n == "gradient_step"}) > 1  # halvings
        assert count["matmat"] == count["rmatmat"] == count["randomized_svd"] > 3


class TestInitUtility:
    def test_transpose_from_pair_order_matches_scipy(self, monkeypatch):
        rng = np.random.default_rng(41)
        trips = [(u, j, k) for u, j, k in random_triplets(rng, 9, 8, 6, 70)
                 if u not in (2, 5) and j not in (1, 6)]
        # users 2, 5, 9 and 10 and items 1, 6 and 8 own no pair
        log = make_log(trips, m=11, n=9)
        cfg = SolverConfig(max_rank=4, seed=5)
        operators = []
        original = driver.MatrixOperator

        def spy(A):
            operators.append(A)
            return original(A)

        monkeypatch.setattr(driver, "MatrixOperator", spy)
        X = init_utility(log, cfg)
        A, = operators
        assert A.shape == (11, 9)
        AT = A.T.tocsr()

        class Reference(original):
            def rmatmat(self, B):
                return AT @ B

        monkeypatch.setattr(driver, "MatrixOperator", Reference)
        X_ref = init_utility(log, cfg)
        for name in ("U", "sigma", "V"):
            assert np.array_equal(getattr(X, name), getattr(X_ref, name))

    def test_unit_spectral_norm_and_determinism(self):
        log, cats, *_ = small_instance(seed=57, count=80)
        cfg = SolverConfig(max_rank=4, seed=5)
        X1 = init_utility(log, cfg)
        X2 = init_utility(log, cfg)
        assert X1.sigma[0] == pytest.approx(1.0, rel=1e-9)
        assert np.array_equal(X1.dense(), X2.dense())
        assert X1.rank <= 4


class TestModelFile:
    def fitted(self, tmp_path, seed=58):
        log, cats, *_ = small_instance(seed=seed, count=70)
        state, _ = fit(log, cats, SolverConfig(outer_iters=2, seed=3, tol=1e-9))
        path = tmp_path / "model.bin"
        save_model(state, path)
        return state, path, log, cats

    def test_round_trip_lossless(self, tmp_path):
        state, path, *_ = self.fitted(tmp_path)
        back = load_model(path)
        assert np.array_equal(back.X.U, state.X.U)
        assert np.array_equal(back.X.sigma, state.X.sigma)
        assert np.array_equal(back.X.V, state.X.V)
        assert np.array_equal(back.d, state.d)
        assert back.config == state.config
        assert back.objective_history == state.objective_history
        assert back.iterations == state.iterations
        assert back.duration_flags == state.duration_flags
        assert (back.m, back.n, back.l, back.r) == (state.m, state.n, state.l, state.r)

    def test_pair_value_cache_never_reaches_the_file(self, tmp_path):
        state, path, log, _ = self.fitted(tmp_path)
        pairs = log.pairs()
        state.X.pair_values(pairs.users, pairs.items)
        fresh = FactoredUtilityMatrix(state.X.U, state.X.sigma, state.X.V)
        again = tmp_path / "model2.bin"
        save_model(dataclasses.replace(state, X=fresh), again)
        assert path.read_bytes() == again.read_bytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        _, path, *_ = self.fitted(tmp_path)
        again = tmp_path / "model2.bin"
        save_model(load_model(path), again)
        assert path.read_bytes() == again.read_bytes()

    def test_loaded_model_scores_match(self, tmp_path):
        state, path, log, cats = self.fitted(tmp_path)
        back = load_model(path)
        rec = build_recency_index(log, cats)
        for user in range(log.m):
            for item in range(log.n):
                assert score(back, rec, user, item, log.l - 1) == score(
                    state, rec, user, item, log.l - 1
                )

    def test_truncated_file_rejected(self, tmp_path):
        _, path, *_ = self.fitted(tmp_path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ModelFileError, match="truncated|trailing|digest"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        _, path, *_ = self.fitted(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFileError, match="not a model file"):
            load_model(path)

    def test_wrong_version_rejected(self, tmp_path):
        _, path, *_ = self.fitted(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field sits right after the 8-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFileError, match="version"):
            load_model(path)

    def test_corrupt_config_rejected(self, tmp_path):
        _, path, *_ = self.fitted(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-33] ^= 0x01  # last config byte, just before the 32-byte digest
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFileError, match="digest"):
            load_model(path)

    def test_flipped_factor_byte_rejected(self, tmp_path):
        state, path, *_ = self.fitted(tmp_path)
        raw = bytearray(path.read_bytes())
        # U is the first array: its data follows the 12-byte file header,
        # its 20-byte entry header and its two 8-byte dims
        offset = 12 + 20 + 16
        assert raw[offset : offset + 8] == state.X.U[0, :1].astype("<f8").tobytes()
        raw[offset + 3] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFileError, match="digest"):
            load_model(path)

    def test_version_1_rejected(self, tmp_path):
        _, path, *_ = self.fitted(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFileError, match="unsupported model file version 1"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        _, path, *_ = self.fitted(tmp_path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ModelFileError, match="trailing"):
            load_model(path)
