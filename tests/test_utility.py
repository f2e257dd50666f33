import math
import re
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from helpers import (
    make_cats,
    make_log,
    model_from_dense,
    one_thread_run,
    random_triplets,
    triplet_list,
)

from demandrec import kernels, utility
from demandrec.data import triplet_recency
from demandrec.errors import ConfigError, SolverError
from demandrec.utility import (
    FactoredUtilityMatrix,
    Iterate,
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
    rec = triplet_recency(log, cats)
    if d is None:
        d = rng.uniform(0.0, 8.0, size=r)
    targets = compute_targets(rec, d)
    return log, cats, rec, targets, trips, assignment.tolist(), np.asarray(d, float)


def step_at(X, targets, cfg, gamma=None):
    """gradient_step at X from a fresh hinge pass at its pair values."""
    pairs = targets.pairs
    z = X.pair_values(pairs.users, pairs.items)
    return gradient_step(X, z, targets.hinge(z)[0], targets, cfg, gamma=gamma)


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
            dict(max_rank=0),
            dict(inner_iters=0),
            dict(outer_iters=0),
            dict(tol=0.0),
            dict(seed=-1),
            dict(lam=math.inf),
            dict(lam=math.nan),
            dict(tol=math.nan),
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(inner_iters=0), "inner_iters must be >= 1, got 0"),
        (dict(outer_iters=0), "outer_iters must be >= 1, got 0"),
        (dict(lam=-1.0), "lam must be positive and finite, got -1.0"),
    ])
    def test_messages_name_the_key(self, kwargs, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=1.5),
            dict(seed=2.0),
            dict(max_rank=np.float64(3.0)),
            dict(inner_iters="5"),
            dict(outer_iters=True),
        ],
    )
    def test_non_integral_int_fields_rejected(self, kwargs):
        with pytest.raises(ConfigError, match="must be an integer"):
            SolverConfig(**kwargs)

    def test_numpy_integers_accepted_as_ints(self):
        cfg = SolverConfig(seed=np.int64(7), max_rank=np.int32(4))
        assert cfg == SolverConfig(seed=7, max_rank=4)
        assert type(cfg.seed) is int and type(cfg.max_rank) is int

    def test_positives_only_weighting_allowed(self):
        assert SolverConfig(eta=1.0).eta == 1.0

    def test_infinite_tol_allowed(self):
        assert SolverConfig(tol=math.inf).tol == math.inf


class TestComputeTargets:
    def test_recent_purchase_raises_target(self):
        # purchases at slots 0 and 3: gap 3 against duration 10 -> a = 8
        log = make_log([(0, 0, 0), (0, 0, 3)], m=1, n=1)
        cats = make_cats([0], r=1)
        rec = triplet_recency(log, cats)
        targets = compute_targets(rec, [10.0])
        assert oracles.triplet_targets(targets).tolist() == [1.0, 8.0]

    def test_infinite_recency_gives_unit_target(self):
        log = make_log([(0, 0, 7)], m=1, n=1)
        cats = make_cats([0], r=1)
        targets = compute_targets(triplet_recency(log, cats), [10.0])
        assert oracles.triplet_targets(targets).tolist() == [1.0]

    def test_targets_match_brute_force(self):
        rng = np.random.default_rng(20)
        log, cats, rec, targets, trips, assignment, d = build_setup(
            rng, m=7, n=6, l=12, r=3, count=80
        )
        for pos, (u, j, k) in enumerate(triplet_list(log)):
            t = oracles.recency_scan(trips, assignment, u, assignment[j], k)
            pen = max(0.0, d[assignment[j]] - t) if math.isfinite(t) else 0.0
            assert oracles.triplet_targets(targets)[pos] == pytest.approx(1.0 + pen, rel=1e-12)

    def test_bad_duration_vector_rejected(self):
        log = make_log([(0, 0, 0)], m=1, n=1)
        cats = make_cats([0], r=1)
        rec = triplet_recency(log, cats)
        with pytest.raises(ConfigError, match="shape"):
            compute_targets(rec, [1.0, 2.0])
        with pytest.raises(ConfigError, match="nonnegative"):
            compute_targets(rec, [-1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_durations_rejected(self, bad):
        # NaN passed the sign check, and d = inf made the no-purchase
        # targets 1 + max(0, inf - inf) = NaN
        log = make_log([(0, 0, 0), (0, 0, 3), (0, 1, 5)], m=1, n=2)
        rec = triplet_recency(log, make_cats([0, 1], r=2))
        with pytest.raises(ConfigError, match="finite"):
            compute_targets(rec, [1.0, bad])


class TestFactoredMatrix:
    def test_entry_evaluation_matches_dense(self):
        rng = np.random.default_rng(21)
        dense = rng.standard_normal((9, 5))
        X = model_from_dense(dense, [0.0], 4).X
        np.testing.assert_allclose(oracles.dense_factored(X), dense, atol=1e-10)
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
        op = step_at(X, targets, SolverConfig(eta=1.0))
        assert op.scale == 1.0

    def test_inactive_hinges_leave_only_count_correction(self):
        rng = np.random.default_rng(24)
        log, cats, rec, targets, *_ = build_setup(rng, 5, 4, 6, 2, 25, d=[0.0, 0.0])
        # all targets are 1; x = 2 everywhere keeps every hinge inactive
        X = model_from_dense(np.full((5, 4), 2.0), [0.0, 0.0], 6).X
        cfg = SolverConfig(eta=0.4)
        gamma = auto_step(targets, cfg.eta)
        op = step_at(X, targets, cfg)
        expected = op.scale * oracles.dense_factored(X)
        for u, i, c in zip(targets.pairs.users, targets.pairs.items, targets.pairs.counts):
            expected[u, i] += 2.0 * gamma * (1.0 - cfg.eta) * c * 2.0
        np.testing.assert_allclose(oracles.dense_step(op), expected, atol=1e-12)

    def test_operator_matches_dense_gradient_step(self):
        rng = np.random.default_rng(25)
        log, cats, rec, targets, trips, _, _ = build_setup(rng, 10, 8, 7, 3, 120)
        X_dense = rng.uniform(-0.5, 1.5, size=(10, 8))
        X = model_from_dense(X_dense, [0.0] * 3, 7).X
        cfg = SolverConfig(eta=0.3)
        gamma = auto_step(targets, cfg.eta)
        op = step_at(X, targets, cfg)
        grad = oracles.dense_grad_h(X_dense, trips, oracles.triplet_targets(targets), cfg.eta, log.l)
        np.testing.assert_allclose(oracles.dense_step(op), X_dense - gamma * grad, atol=1e-10)

    @pytest.mark.parametrize("cols", [1, 2, 21])
    def test_products_in_column_halves_have_the_bits_of_whole_products(
            self, monkeypatch, two_threads, cols):
        rng = np.random.default_rng(28)
        log, cats, rec, targets, *_ = build_setup(rng, 30, 25, 7, 3, 400)
        X = model_from_dense(rng.uniform(-0.5, 1.5, size=(30, 25)), [0.0] * 3, 7).X
        op = step_at(X, targets, SolverConfig(eta=0.3))
        B, Bt = rng.normal(size=(25, cols)), rng.normal(size=(30, cols))
        want = op.scale * X.matmat(B) + op.S @ B
        want_t = op.scale * X.rmatmat(Bt) + op.S.T @ Bt
        got, got_t = op.matmat(B), op.rmatmat(Bt)
        assert (got.tobytes(), got_t.tobytes()) == (want.tobytes(), want_t.tobytes())
        assert one_thread_run(monkeypatch, op.matmat, B).tobytes() == want.tobytes()
        assert one_thread_run(monkeypatch, op.rmatmat, Bt).tobytes() == want_t.tobytes()
        # one column is not split; from two on the second thread takes a half
        # of each product
        assert len(two_threads.threads) == (cols > 1)

    def test_hinge_sums_live_only_until_the_step_is_built(self, monkeypatch):
        """The step scales the hinge sums it is given in place, so they are
        spent once S is built; the objective makes one hinge pass of its
        own, and a step from a new pass builds the same S."""
        rng = np.random.default_rng(27)
        log, cats, rec, targets, *_ = build_setup(rng, 10, 8, 7, 3, 120)
        X = model_from_dense(rng.uniform(-0.5, 1.5, size=(10, 8)), [0.0] * 3, 7).X
        cfg = SolverConfig(eta=0.3)
        pairs = targets.pairs
        z = X.pair_values(pairs.users, pairs.items)
        sums, _ = targets.hinge(z)
        given = sums.copy()
        op = gradient_step(X, z, sums, targets, cfg)
        assert np.array_equal(sums, given * (2.0 * auto_step(targets, cfg.eta) * cfg.eta))
        passes = []
        original = kernels.hinge_stats

        def spy(*args):
            passes.append(1)
            return original(*args)

        monkeypatch.setattr(kernels, "hinge_stats", spy)
        objective(X, targets, cfg)
        assert len(passes) == 1
        again = step_at(X, targets, cfg)
        assert len(passes) == 2
        assert (op.S != again.S).nnz == 0

    def test_operator_products_agree_with_dense(self):
        rng = np.random.default_rng(26)
        log, cats, rec, targets, *_ = build_setup(rng, 9, 7, 6, 2, 60)
        X = model_from_dense(rng.standard_normal((9, 7)), [0.0] * 2, 6).X
        op = step_at(X, targets, SolverConfig())
        dense = oracles.dense_step(op)
        B = rng.standard_normal((7, 3))
        np.testing.assert_allclose(op.matmat(B), dense @ B, atol=1e-10)
        C = rng.standard_normal((9, 3))
        np.testing.assert_allclose(op.rmatmat(C), dense.T @ C, atol=1e-10)

    def test_transpose_matches_scipy(self):
        rng = np.random.default_rng(40)
        trips = [(u, j, k) for u, j, k in random_triplets(rng, 9, 8, 6, 70)
                 if u not in (2, 5) and j not in (1, 6)]
        # users 2, 5, 9 and 10 and items 1, 6 and 8 own no pair
        log = make_log(trips, m=11, n=9)
        cats = make_cats(rng.integers(0, 2, size=9), r=2)
        targets = compute_targets(triplet_recency(log, cats), [1.0, 2.5])
        X = model_from_dense(rng.standard_normal((11, 9)), [0.0] * 2, log.l).X
        op = step_at(X, targets, SolverConfig(eta=0.3))
        assert op.shape == (11, 9)
        C = rng.standard_normal((11, 4))
        assert np.array_equal(op.rmatmat(C), op.scale * X.rmatmat(C) + op.S.T.tocsr() @ C)

    def test_oversized_step_rejected(self):
        rng = np.random.default_rng(27)
        log, cats, rec, targets, *_ = build_setup(rng, 5, 4, 6, 2, 25)
        X = model_from_dense(rng.random((5, 4)), [0.0] * 2, 6).X
        with pytest.raises(SolverError, match="step size"):
            step_at(X, targets, SolverConfig(eta=0.5), gamma=10.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(28)
        log, cats, rec, targets, trips, _, _ = build_setup(rng, 6, 5, 5, 2, 40)
        X_dense = rng.uniform(-0.5, 1.5, size=(6, 5))
        X = model_from_dense(X_dense, [0.0] * 2, 5).X
        cfg = SolverConfig(eta=0.35)
        gamma = auto_step(targets, cfg.eta)
        op = step_at(X, targets, cfg)
        grad_lib = (X_dense - oracles.dense_step(op)) / gamma
        grad_fd = oracles.fd_grad_h(X_dense, trips, oracles.triplet_targets(targets), cfg.eta, log.l)
        np.testing.assert_allclose(grad_lib, grad_fd, rtol=1e-5, atol=1e-5)


def count_householder(monkeypatch):
    """Record the shape of every ``np.linalg.qr`` call, the Householder
    fallback of ``utility.orthonormalize``."""
    calls = []
    original = np.linalg.qr

    def qr(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", qr)
    return calls


def conditioned_block(rng, rows, singular_values):
    u, _ = np.linalg.qr(rng.standard_normal((rows, len(singular_values))))
    v, _ = np.linalg.qr(rng.standard_normal((len(singular_values),) * 2))
    return (u * singular_values) @ v.T


class TestOrthonormalize:
    def test_cholesky_qr2_on_a_graded_block(self, monkeypatch):
        rng = np.random.default_rng(62)
        Y = conditioned_block(rng, 2000, np.logspace(0, -6, 20))
        calls = count_householder(monkeypatch)
        Q, R = utility.orthonormalize(Y)
        assert calls == []
        assert np.abs(Q.T @ Q - np.eye(20)).max() <= 1e-12
        assert np.array_equal(R, np.triu(R))
        np.testing.assert_allclose(Q @ R, Y, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "kind", ["zero", "cond_1e12", "one_direction_1e12", "rank_deficient", "nan"])
    def test_ill_conditioned_blocks_fall_back_to_householder(self, monkeypatch, kind):
        rng = np.random.default_rng(62)
        Y = {
            "zero": lambda: np.zeros((300, 8)),
            "cond_1e12": lambda: conditioned_block(rng, 300, np.logspace(0, -12, 8)),
            # here the first Cholesky succeeds, but its pass leaves a Gram
            # matrix far from the identity
            "one_direction_1e12": lambda: conditioned_block(rng, 300, [1.0] * 7 + [1e-12]),
            "rank_deficient": lambda: conditioned_block(rng, 300, [3.0, 1.0] + [0.0] * 6),
            "nan": lambda: np.full((300, 8), np.nan),
        }[kind]()
        calls = count_householder(monkeypatch)
        Q, R = utility.orthonormalize(Y)
        assert calls == [(300, 8)]
        assert Q.shape == (300, 8) and R.shape == (8, 8)
        if kind != "nan":
            np.testing.assert_allclose(Q.T @ Q, np.eye(8), atol=1e-12)
            np.testing.assert_allclose(Q @ R, Y, rtol=0, atol=1e-12)


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
        # a flat spectrum, so one pass is far from exact; the check is that
        # dense and sparse storage of one matrix give the same sketch
        dense = randomized_svd(MatrixOperator(A), rank=5, oversample=10, rng=1)
        sparse = randomized_svd(MatrixOperator(sp.csr_matrix(A)), rank=5, oversample=10, rng=1)
        for got, want in zip(sparse, dense):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

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

    def test_full_width_warm_sketch_is_exact(self):
        # a start block padded to the operator's width spans its whole row
        # space, so the one-pass sketch is the exact SVD
        rng = np.random.default_rng(60)
        A = rng.standard_normal((30, 12))
        start, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        U, sigma, V = randomized_svd(MatrixOperator(A), rank=5, oversample=10, rng=3,
                                     start=start)
        Ue, se, Vte = np.linalg.svd(A, full_matrices=False)
        np.testing.assert_allclose(sigma, se[:5], rtol=0, atol=1e-10)
        np.testing.assert_allclose((U * sigma) @ V.T, (Ue[:, :5] * se[:5]) @ Vte[:5],
                                   rtol=0, atol=1e-10)

    def test_block_svd_matches_the_svd_of_the_wide_B(self, monkeypatch):
        # the sketch factors Q^T A through the QR of A^T Q and the SVD of its
        # triangle; the result must be the SVD of the explicit B = Q^T A
        rng = np.random.default_rng(64)
        A = rng.standard_normal((70, 50))
        ranges = []
        original = utility.orthonormalize

        def spy(Y):
            Q, R = original(Y)
            ranges.append(Q)
            return Q, R

        monkeypatch.setattr(utility, "orthonormalize", spy)
        U, sigma, V = randomized_svd(MatrixOperator(A), rank=6, oversample=9, rng=4)
        Q = ranges[-2]  # the range basis that B is formed from
        Ub, sb, Vbt = np.linalg.svd(Q.T @ A, full_matrices=False)
        np.testing.assert_allclose(sigma, sb[:6], rtol=0, atol=1e-12)
        np.testing.assert_allclose((U * sigma) @ V.T, ((Q @ Ub[:, :6]) * sb[:6]) @ Vbt[:6],
                                   rtol=0, atol=1e-12)
        # singular vectors agree up to sign
        np.testing.assert_allclose(np.abs(np.sum(U * (Q @ Ub[:, :6]), axis=0)), 1.0,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.abs(np.sum(V * Vbt[:6].T, axis=0)), 1.0,
                                   rtol=0, atol=1e-12)

    def test_start_block_wider_than_the_sketch_is_truncated(self):
        rng = np.random.default_rng(61)
        A = rng.standard_normal((20, 15))
        start = rng.standard_normal((15, 8))
        # rank 2 + oversample 1 keeps three start columns and draws nothing,
        # so the rng seed does not matter
        wide = randomized_svd(MatrixOperator(A), rank=2, oversample=1, rng=0, start=start)
        cut = randomized_svd(MatrixOperator(A), rank=2, oversample=1, rng=1,
                             start=start[:, :3])
        for a, b in zip(wide, cut):
            assert np.array_equal(a, b)


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
            expected = oracles.dense_h(X_dense, trips, oracles.triplet_targets(targets), eta, log.l)
            z = X.pair_values(targets.pairs.users, targets.pairs.items)
            got = hinge_objective(X, z, targets.hinge(z)[1], targets, eta)
            assert got == pytest.approx(expected, rel=1e-9)

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
            X1 = update_X(Iterate(X0), targets, cfg).X
        assert X1.rank == 0

    def test_matches_dense_reference_run(self):
        rng = np.random.default_rng(36)
        log, cats, rec, targets, trips, _, _ = build_setup(rng, 12, 10, 5, 2, 100)
        X_dense = rng.uniform(0.0, 1.0, size=(12, 10))
        X0 = model_from_dense(X_dense, [0.0] * 2, 5).X
        # full-width sketch block makes the randomized SVD exact, so the
        # sparse path must reproduce the dense run almost to the digit
        cfg = SolverConfig(
            lam=0.8, eta=0.5, max_rank=10, inner_iters=6, tol=1e-12,
        )
        X1 = update_X(Iterate(X0), targets, cfg).X
        got = objective(X1, targets, cfg)
        gamma = auto_step(targets, cfg.eta)
        _, history = oracles.dense_prox_reference(
            X_dense, trips, oracles.triplet_targets(targets), cfg.eta, cfg.lam, gamma, log.l,
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
            X = update_X(Iterate(X), targets, cfg).X
            new = objective(X, targets, cfg)
            assert new <= obj + 1e-10 * max(1.0, abs(obj))
            obj = new

    def test_returned_factors_orthonormal(self):
        rng = np.random.default_rng(38)
        log, cats, rec, targets, *_ = build_setup(rng, 9, 7, 6, 2, 70)
        X0 = model_from_dense(rng.uniform(0.0, 1.0, size=(9, 7)), [0.0] * 2, 6).X
        X1 = update_X(Iterate(X0), targets, SolverConfig(lam=0.3, inner_iters=5, max_rank=5)).X
        k = X1.rank
        assert k > 0
        np.testing.assert_allclose(X1.U.T @ X1.U, np.eye(k), atol=1e-8)
        np.testing.assert_allclose(X1.V.T @ X1.V, np.eye(k), atol=1e-8)
        assert (np.diff(X1.sigma) <= 1e-12).all()

    def test_entry_pair_values_are_freed(self):
        """The caller keeps the record it passed in, but not the pair values
        it held: they would double the pair-length arrays live from the
        second step on."""
        rng = np.random.default_rng(41)
        log, cats, rec, targets, *_ = build_setup(rng, 9, 7, 6, 2, 70)
        X0 = model_from_dense(rng.uniform(0.0, 1.0, size=(9, 7)), [0.0] * 2, 6).X
        pairs = log.pairs()
        it = Iterate(X0, X0.pair_values(pairs.users, pairs.items))
        entry_values = weakref.ref(it.z)
        update_X(it, targets, SolverConfig(lam=0.3, inner_iters=3, max_rank=5))
        assert it.X is not X0
        assert entry_values() is None

    def test_result_holds_the_last_iterate(self):
        """The result's rank, pair values and objective are its X's."""
        rng = np.random.default_rng(42)
        log, cats, rec, targets, *_ = build_setup(rng, 9, 7, 6, 2, 70)
        X0 = model_from_dense(rng.uniform(0.0, 1.0, size=(9, 7)), [0.0] * 2, 6).X
        cfg = SolverConfig(lam=0.3, inner_iters=3, max_rank=5)
        result = update_X(Iterate(X0), targets, cfg)
        assert result.rank == result.X.rank > 0
        pairs = log.pairs()
        assert np.array_equal(result.z, result.X.pair_values(pairs.users, pairs.items))
        assert result.obj == objective(result.X, targets, cfg)

    @pytest.mark.parametrize("rank", [0, 3])
    def test_step_sketches_from_the_current_V(self, monkeypatch, rank):
        """The first sketch multiplies the step operator by X's V followed by
        Gaussian columns from the seeded rng; a rank-0 iterate gets an
        all-Gaussian block."""
        rng = np.random.default_rng(40)
        log, cats, rec, targets, *_ = build_setup(rng, 9, 8, 6, 2, 60)
        if rank:
            U, _ = np.linalg.qr(rng.standard_normal((9, rank)))
            V, _ = np.linalg.qr(rng.standard_normal((8, rank)))
            X0 = FactoredUtilityMatrix(U, np.array([1.5, 1.0, 0.5]), V)
        else:
            X0 = FactoredUtilityMatrix.zeros(9, 8)
        blocks = []
        original = utility.GradStepOperator.matmat

        def matmat(op, B):
            blocks.append(B.copy())
            return original(op, B)

        monkeypatch.setattr(utility.GradStepOperator, "matmat", matmat)
        # rank 3 plus the default oversampling of 10 is capped at n = 8 columns
        cfg = SolverConfig(lam=0.1, max_rank=3, inner_iters=1, seed=11)
        update_X(Iterate(X0), targets, cfg)
        first_run = len(blocks)
        update_X(Iterate(X0), targets, cfg)
        gauss = np.random.default_rng(cfg.seed).standard_normal((8, 8 - rank))
        assert np.array_equal(blocks[0], np.hstack([X0.V, gauss]))
        assert len(blocks) == 2 * first_run
        for a, b in zip(blocks[:first_run], blocks[first_run:]):
            assert np.array_equal(a, b)

    def test_user_without_purchases_shrinks_toward_zero(self):
        rng = np.random.default_rng(39)
        trips = [(u, j, k) for u, j, k in random_triplets(rng, 6, 5, 6, 25) if u != 3]
        trips += [(0, j, 0) for j in range(5)]  # keep every item covered
        log = make_log(trips, m=6, n=5)
        cats = make_cats([0] * 5, r=1)
        rec = triplet_recency(log, cats)
        targets = compute_targets(rec, [0.0])
        X_dense = rng.uniform(0.5, 1.0, size=(6, 5))
        X0 = model_from_dense(X_dense, [0.0], 6).X
        X1 = update_X(Iterate(X0), targets, SolverConfig(lam=0.1, inner_iters=10, max_rank=5)).X
        assert np.linalg.norm(X1.row_scores(3)) < np.linalg.norm(X_dense[3])
