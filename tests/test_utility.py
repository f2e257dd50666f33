import math

import numpy as np
import pytest

import oracles
from helpers import make_cats, make_log, model_from_dense, random_triplets, triplet_list

from demandrec.data import build_recency_index
from demandrec.errors import ConfigError, SolverError
from demandrec.utility import (
    FactoredUtilityMatrix,
    MatrixOperator,
    SolverConfig,
    auto_step,
    compute_targets,
    gradient_step,
    hinge_objective,
    objective,
    randomized_svd,
    soft_threshold,
    update_X,
)


def build_setup(rng, m, n, l, r, count, d=None):
    trips = random_triplets(rng, m, n, l, count)
    log = make_log(trips, m=m, n=n)
    assignment = rng.integers(0, r, size=n)
    cats = make_cats(assignment, r=r)
    rec = build_recency_index(log, cats)
    if d is None:
        d = rng.uniform(0.0, 8.0, size=r)
    targets = compute_targets(rec, d)
    return log, cats, rec, targets, trips, assignment.tolist(), np.asarray(d, float)


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.eta == 0.5 and cfg.tol == 1e-4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eta=0.0),
            dict(eta=1.2),
            dict(lam=0.0),
            dict(lam=-1.0),
            dict(gamma=-0.1),
            dict(max_rank=0),
            dict(inner_iters=0),
            dict(outer_iters=0),
            dict(tol=0.0),
            dict(seed=-1),
            dict(tau=math.nan),
            dict(gamma=math.nan),
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)

    def test_positives_only_weighting_allowed(self):
        assert SolverConfig(eta=1.0).eta == 1.0

    def test_infinite_tol_allowed(self):
        assert SolverConfig(tol=math.inf).tol == math.inf


class TestComputeTargets:
    def test_recent_purchase_raises_target(self):
        # purchases at slots 0 and 3: gap 3 against duration 10 -> a = 8
        log = make_log([(0, 0, 0), (0, 0, 3)], m=1, n=1)
        cats = make_cats([0], r=1)
        rec = build_recency_index(log, cats)
        targets = compute_targets(rec, [10.0])
        assert targets.a.tolist() == [1.0, 8.0]

    def test_infinite_recency_gives_unit_target(self):
        log = make_log([(0, 0, 7)], m=1, n=1)
        cats = make_cats([0], r=1)
        targets = compute_targets(build_recency_index(log, cats), [10.0])
        assert targets.a.tolist() == [1.0]

    def test_targets_match_brute_force(self):
        rng = np.random.default_rng(20)
        log, cats, rec, targets, trips, assignment, d = build_setup(
            rng, m=7, n=6, l=12, r=3, count=80
        )
        for pos, (u, j, k) in enumerate(triplet_list(log)):
            t = oracles.recency_scan(trips, assignment, u, assignment[j], k)
            pen = max(0.0, d[assignment[j]] - t) if math.isfinite(t) else 0.0
            assert targets.a[pos] == pytest.approx(1.0 + pen, rel=1e-12)

    def test_bad_duration_vector_rejected(self):
        log = make_log([(0, 0, 0)], m=1, n=1)
        cats = make_cats([0], r=1)
        rec = build_recency_index(log, cats)
        with pytest.raises(ConfigError, match="shape"):
            compute_targets(rec, [1.0, 2.0])
        with pytest.raises(ConfigError, match="nonnegative"):
            compute_targets(rec, [-1.0])


class TestFactoredMatrix:
    def test_entry_evaluation_matches_dense(self):
        rng = np.random.default_rng(21)
        dense = rng.standard_normal((9, 5))
        X = model_from_dense(dense, [0.0], 4).X
        np.testing.assert_allclose(X.dense(), dense, atol=1e-10)
        users = rng.integers(0, 9, size=30)
        items = rng.integers(0, 5, size=30)
        np.testing.assert_allclose(
            X.pair_values(users, items), dense[users, items], atol=1e-10
        )
        np.testing.assert_allclose(X.row_scores(3), dense[3], atol=1e-10)
        np.testing.assert_allclose(X.row_scores([3, 0]), dense[[3, 0]], atol=1e-10)

    def test_frobenius_from_factors(self):
        rng = np.random.default_rng(22)
        dense = rng.standard_normal((6, 8))
        X = model_from_dense(dense, [0.0], 4).X
        assert X.frob_sq() == pytest.approx(float((dense * dense).sum()), rel=1e-10)

    def test_zero_matrix(self):
        X = FactoredUtilityMatrix.zeros(4, 3)
        assert X.rank == 0
        assert X.pair_values(np.array([0]), np.array([2])).tolist() == [0.0]
        assert X.frob_sq() == 0.0


class TestGradientStep:
    def test_positives_only_leaves_dense_part_unscaled(self):
        rng = np.random.default_rng(23)
        log, cats, rec, targets, *_ = build_setup(rng, 5, 4, 6, 2, 25)
        X = model_from_dense(rng.random((5, 4)), [0.0, 0.0], 6).X
        op = gradient_step(X, targets, SolverConfig(eta=1.0))
        assert op.scale == 1.0

    def test_inactive_hinges_leave_only_count_correction(self):
        rng = np.random.default_rng(24)
        log, cats, rec, targets, *_ = build_setup(rng, 5, 4, 6, 2, 25, d=[0.0, 0.0])
        # all targets are 1; x = 2 everywhere keeps every hinge inactive
        X = model_from_dense(np.full((5, 4), 2.0), [0.0, 0.0], 6).X
        cfg = SolverConfig(eta=0.4)
        gamma = auto_step(targets, cfg.eta)
        op = gradient_step(X, targets, cfg)
        expected = op.scale * X.dense()
        for u, i, c in zip(targets.pairs.users, targets.pairs.items, targets.pairs.counts):
            expected[u, i] += 2.0 * gamma * (1.0 - cfg.eta) * c * 2.0
        np.testing.assert_allclose(op.dense(), expected, atol=1e-12)

    def test_operator_matches_dense_gradient_step(self):
        rng = np.random.default_rng(25)
        log, cats, rec, targets, trips, _, _ = build_setup(rng, 10, 8, 7, 3, 120)
        X_dense = rng.uniform(-0.5, 1.5, size=(10, 8))
        X = model_from_dense(X_dense, [0.0] * 3, 7).X
        cfg = SolverConfig(eta=0.3)
        gamma = auto_step(targets, cfg.eta)
        op = gradient_step(X, targets, cfg)
        grad = oracles.dense_grad_h(X_dense, trips, targets.a, cfg.eta, log.l)
        np.testing.assert_allclose(op.dense(), X_dense - gamma * grad, atol=1e-10)

    def test_operator_products_agree_with_dense(self):
        rng = np.random.default_rng(26)
        log, cats, rec, targets, *_ = build_setup(rng, 9, 7, 6, 2, 60)
        X = model_from_dense(rng.standard_normal((9, 7)), [0.0] * 2, 6).X
        op = gradient_step(X, targets, SolverConfig())
        dense = op.dense()
        B = rng.standard_normal((7, 3))
        np.testing.assert_allclose(op.matmat(B), dense @ B, atol=1e-10)
        C = rng.standard_normal((9, 3))
        np.testing.assert_allclose(op.rmatmat(C), dense.T @ C, atol=1e-10)

    def test_oversized_step_rejected(self):
        rng = np.random.default_rng(27)
        log, cats, rec, targets, *_ = build_setup(rng, 5, 4, 6, 2, 25)
        X = model_from_dense(rng.random((5, 4)), [0.0] * 2, 6).X
        with pytest.raises(SolverError, match="step size"):
            gradient_step(X, targets, SolverConfig(eta=0.5), gamma=10.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(28)
        log, cats, rec, targets, trips, _, _ = build_setup(rng, 6, 5, 5, 2, 40)
        X_dense = rng.uniform(-0.5, 1.5, size=(6, 5))
        X = model_from_dense(X_dense, [0.0] * 2, 5).X
        cfg = SolverConfig(eta=0.35)
        gamma = auto_step(targets, cfg.eta)
        op = gradient_step(X, targets, cfg)
        grad_lib = (X_dense - op.dense()) / gamma
        grad_fd = oracles.fd_grad_h(X_dense, trips, targets.a, cfg.eta, log.l)
        np.testing.assert_allclose(grad_lib, grad_fd, rtol=1e-5, atol=1e-5)


class TestRandomizedSvd:
    def test_exact_low_rank_recovery(self):
        rng = np.random.default_rng(29)
        u, _ = np.linalg.qr(rng.standard_normal((30, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((20, 2)))
        A = 5.0 * np.outer(u[:, 0], v[:, 0]) + 2.0 * np.outer(u[:, 1], v[:, 1])
        _, sigma, _ = randomized_svd(MatrixOperator(A), rank=2, rng=0)
        np.testing.assert_allclose(sigma, [5.0, 2.0], atol=1e-6)

    def test_close_to_exact_svd_on_random_matrix(self):
        rng = np.random.default_rng(30)
        A = rng.standard_normal((60, 40))
        _, sigma, _ = randomized_svd(
            MatrixOperator(A), rank=5, oversample=10, power_iters=4, rng=1
        )
        exact = np.linalg.svd(A, compute_uv=False)[:5]
        np.testing.assert_allclose(sigma, exact, rtol=1e-3)

    def test_zero_operator(self):
        _, sigma, _ = randomized_svd(MatrixOperator(np.zeros((8, 6))), rank=3, rng=2)
        assert (sigma <= 1e-12).all()

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((25, 18))
        first = randomized_svd(MatrixOperator(A), rank=4, rng=7)
        second = randomized_svd(MatrixOperator(A), rank=4, rng=7)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_factors_orthonormal(self):
        rng = np.random.default_rng(32)
        A = rng.standard_normal((30, 22))
        U, _, V = randomized_svd(MatrixOperator(A), rank=6, rng=3)
        np.testing.assert_allclose(U.T @ U, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(V.T @ V, np.eye(6), atol=1e-10)


class TestSoftThreshold:
    def test_shrinks_and_truncates(self):
        sigma, rank = soft_threshold(np.array([3.0, 1.0, 0.2]), 0.5)
        assert rank == 2
        np.testing.assert_allclose(sigma, [2.5, 0.5])

    def test_zero_amount_is_identity(self):
        sigma, rank = soft_threshold(np.array([2.0, 1.0]), 0.0)
        assert rank == 2
        np.testing.assert_allclose(sigma, [2.0, 1.0])

    def test_full_truncation(self):
        sigma, rank = soft_threshold(np.array([0.4, 0.3]), 0.5)
        assert rank == 0
        assert sigma.shape == (0,)


class TestObjective:
    def test_matches_dense_evaluation(self):
        rng = np.random.default_rng(33)
        log, cats, rec, targets, trips, _, _ = build_setup(rng, 8, 6, 7, 2, 90)
        X_dense = rng.uniform(-0.5, 1.5, size=(8, 6))
        X = model_from_dense(X_dense, [0.0] * 2, 7).X
        for eta in (0.25, 0.5, 1.0):
            expected = oracles.dense_h(X_dense, trips, targets.a, eta, log.l)
            assert hinge_objective(X, targets, eta) == pytest.approx(expected, rel=1e-9)

    def test_auto_step_formula(self):
        rng = np.random.default_rng(34)
        log, cats, rec, targets, *_ = build_setup(rng, 6, 5, 8, 2, 60)
        max_count = int(targets.pairs.counts.max())
        expected = 1.0 / (2.0 * 0.5 * log.l + 2.0 * 0.5 * max_count)
        assert auto_step(targets, 0.5) == pytest.approx(expected, rel=1e-12)


class TestUpdateX:
    def test_heavy_regularization_collapses_to_zero(self):
        rng = np.random.default_rng(35)
        log, cats, rec, targets, *_ = build_setup(rng, 6, 5, 6, 2, 30)
        X0 = model_from_dense(rng.random((6, 5)), [0.0] * 2, 6).X
        cfg = SolverConfig(lam=1e4, inner_iters=5, max_rank=5)
        with pytest.warns(UserWarning, match="rank 0"):
            X1 = update_X(X0, targets, cfg)
        assert X1.rank == 0

    def test_matches_dense_reference_run(self):
        rng = np.random.default_rng(36)
        log, cats, rec, targets, trips, _, _ = build_setup(rng, 12, 10, 5, 2, 100)
        X_dense = rng.uniform(0.0, 1.0, size=(12, 10))
        X0 = model_from_dense(X_dense, [0.0] * 2, 5).X
        # full-width sketch block makes the randomized SVD exact, so the
        # sparse path must reproduce the dense run almost to the digit
        cfg = SolverConfig(
            lam=0.8, eta=0.5, max_rank=10, oversample=10, power_iters=4,
            inner_iters=6, tol=1e-12,
        )
        X1 = update_X(X0, targets, cfg)
        got = objective(X1, targets, cfg)
        gamma = auto_step(targets, cfg.eta)
        _, history = oracles.dense_prox_reference(
            X_dense, trips, targets.a, cfg.eta, cfg.lam, gamma, log.l,
            iters=6, tol=1e-12,
        )
        assert got == pytest.approx(history[-1], rel=1e-4)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(37)
        log, cats, rec, targets, *_ = build_setup(rng, 10, 9, 6, 3, 80)
        X = model_from_dense(rng.uniform(0.0, 1.0, size=(10, 9)), [0.0] * 3, 6).X
        cfg = SolverConfig(lam=0.5, inner_iters=1, max_rank=6, tol=1e-12)
        obj = objective(X, targets, cfg)
        for _ in range(8):
            X = update_X(X, targets, cfg)
            new = objective(X, targets, cfg)
            assert new <= obj + 1e-10 * max(1.0, abs(obj))
            obj = new

    def test_returned_factors_orthonormal(self):
        rng = np.random.default_rng(38)
        log, cats, rec, targets, *_ = build_setup(rng, 9, 7, 6, 2, 70)
        X0 = model_from_dense(rng.uniform(0.0, 1.0, size=(9, 7)), [0.0] * 2, 6).X
        X1 = update_X(X0, targets, SolverConfig(lam=0.3, inner_iters=5, max_rank=5))
        k = X1.rank
        assert k > 0
        np.testing.assert_allclose(X1.U.T @ X1.U, np.eye(k), atol=1e-8)
        np.testing.assert_allclose(X1.V.T @ X1.V, np.eye(k), atol=1e-8)
        assert (np.diff(X1.sigma) <= 1e-12).all()

    def test_user_without_purchases_shrinks_toward_zero(self):
        rng = np.random.default_rng(39)
        trips = [(u, j, k) for u, j, k in random_triplets(rng, 6, 5, 6, 25) if u != 3]
        trips += [(0, j, 0) for j in range(5)]  # keep every item covered
        log = make_log(trips, m=6, n=5)
        cats = make_cats([0] * 5, r=1)
        rec = build_recency_index(log, cats)
        targets = compute_targets(rec, [0.0])
        X_dense = rng.uniform(0.5, 1.0, size=(6, 5))
        X0 = model_from_dense(X_dense, [0.0], 6).X
        X1 = update_X(X0, targets, SolverConfig(lam=0.1, inner_iters=10, max_rank=5))
        assert np.linalg.norm(X1.row_scores(3)) < np.linalg.norm(X_dense[3])
