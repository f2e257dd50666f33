import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse  # noqa: F401  (imported before any traced fit)

import oracles
from helpers import (
    make_cats,
    make_log,
    model_from_dense,
    random_triplets,
    triplet_list,
    write_version_2_model,
)

from demandrec import data, driver, kernels, utility
from demandrec.data import (
    CategoryMap,
    PurchaseLog,
    RecencyIndex,
    _build_log,
    build_recency_index,
    split_train_test,
    triplet_recency,
)
from demandrec.driver import (
    FitReport,
    evaluate_objective,
    fit,
    init_utility,
    load_model,
    save_model,
)
from demandrec.errors import ConfigError, DataFormatError, ModelFileError, SolverError
from demandrec.evaluate import (
    category_prediction_metric,
    item_prediction_metric,
    recommend_topn,
    score,
    time_prediction_metric,
)
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
        rec = triplet_recency(log, cats)
        X = FactoredUtilityMatrix.zeros(log.m, log.n)
        cfg = SolverConfig(eta=0.37, lam=2.0)
        got = evaluate_objective(X, np.zeros(cats.r), rec, cfg)
        assert got == pytest.approx(0.37 * log.nnz, rel=1e-12)

    def test_matches_cell_by_cell_evaluation(self):
        log, cats, trips, assignment = small_instance()
        rec = triplet_recency(log, cats)
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

    def test_report_derives_iterations_and_final_objective(self):
        report = FitReport(converged=False, objective_history=[3.0, 2.0, 1.5],
                           duration_flags=(1,), seconds_per_iteration=[0.25, 0.5])
        assert (report.iterations, report.final_objective) == (2, 1.5)
        assert report.to_text() == (
            "converged = False\niterations = 2\nfinal_objective = 1.5\n"
            "empty_categories = 1\niteration_1 = 2.0 (0.25s)\niteration_2 = 1.5 (0.50s)\n")

    def test_converges_with_monotone_trace(self):
        log, cats, *_ = small_instance(seed=52, m=15, n=12, l=8, r=3, count=150)
        state, report = fit(log, cats, SolverConfig(outer_iters=25, lam=0.5, seed=1))
        assert report.converged
        hist = report.objective_history
        for prev, new in zip(hist, hist[1:]):
            assert new <= prev + 1e-8 * max(1.0, abs(prev))
        assert report.final_objective == hist[-1]

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
        # rank 16 > max_rank 2 + the sketch's oversampling of 10: the start is
        # cut to the rank cap, and the first sketch starts from its two
        # leading right singular vectors
        log, cats, *_ = small_instance(seed=54, m=24, n=20, l=6, r=2, count=300)
        state1, _ = fit(log, cats, SolverConfig(outer_iters=3, lam=0.5, max_rank=16, seed=2))
        assert state1.X.rank == 16
        cfg = SolverConfig(outer_iters=2, lam=3.0, max_rank=2, seed=2)
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
        cfg = SolverConfig(outer_iters=2, lam=0.5, max_rank=2, seed=2)
        state2, report2 = fit(log, cats, cfg, init=state1)
        assert state2.X.rank <= 2
        hist = report2.objective_history
        for prev, new in zip(hist, hist[1:]):
            assert new <= prev + 1e-8 * max(1.0, abs(prev))

    def test_warm_start_with_non_finite_durations_rejected(self):
        log, cats, *_ = small_instance()
        cfg = SolverConfig(outer_iters=1, inner_iters=2, seed=1)
        state, _ = fit(log, cats, cfg)
        state.d[-1] = math.nan
        with pytest.raises(ConfigError, match="finite"):
            fit(log, cats, cfg, init=state)

    def test_warm_start_dimension_mismatch_rejected(self):
        log, cats, *_ = small_instance(seed=55)
        state, _ = fit(log, cats, SolverConfig(outer_iters=1, tol=math.inf))
        other_log, other_cats, *_ = small_instance(seed=56, m=5, n=4)
        with pytest.raises(SolverError, match="warm-start"):
            fit(other_log, other_cats, SolverConfig(), init=state)

    def test_empty_log_rejected(self):
        empty = np.empty(0, dtype=np.int64)
        log = PurchaseLog(users=empty, items=empty, slots=empty, m=3, n=4, l=5)
        with pytest.raises(DataFormatError, match="purchase log contains no records"):
            fit(log, make_cats([0, 1, 0, 1]), SolverConfig())

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


def _force_step(monkeypatch, gamma):
    """Make every utility update start from ``gamma`` instead of the safe
    step 1 / L."""
    monkeypatch.setattr(utility, "auto_step", lambda targets, eta: gamma)


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
        # a starting step near the dense part's stability limit overshoots
        # the hinges, which eta = 0.9 weighs heavily, and forces halvings
        _force_step(monkeypatch, 0.9 / ((1.0 - 0.9) * log.l))
        cfg = SolverConfig(outer_iters=3, inner_iters=4, lam=0.5, eta=0.9, seed=1, tol=1e-12)
        fit(log, cats, cfg)
        count = {name: [n for n, _ in calls].count(name)
                 for name in ("pair_values", "randomized_svd", "gradient_step")}
        gammas = [g for n, g in calls if n == "gradient_step"]
        halvings = sum(later < earlier for earlier, later in zip(gammas, gammas[1:]))
        assert halvings > 0
        assert count["randomized_svd"] == count["gradient_step"] > 3
        # the starting iterate, one candidate per sketch, and the iterate a
        # retry falls back to: its values were dropped once S was built
        assert count["pair_values"] == 1 + count["randomized_svd"] + halvings


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
        _force_step(monkeypatch, 0.9 / ((1.0 - 0.9) * log.l))
        cfg = SolverConfig(outer_iters=3, inner_iters=4, lam=0.5, eta=0.9, seed=1, tol=1e-12)
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
        """Every sketch, the cold start's and each proximal step's, accepted
        or retried after a halving, multiplies by the gradient-step operator
        once and by its transpose once."""
        log, cats, *_ = small_instance(seed=59, m=15, n=12, l=8, r=3, count=150)
        calls = []  # (function name, gamma keyword)
        # init_utility looks randomized_svd up in driver, update_X in utility
        for owner, name in ((utility.GradStepOperator, "matmat"),
                            (utility.GradStepOperator, "rmatmat"),
                            (driver, "randomized_svd"), (utility, "randomized_svd"),
                            (utility, "gradient_step")):
            def wrapper(*args, _name=name, _original=getattr(owner, name), **kwargs):
                calls.append((_name, kwargs.get("gamma")))
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)
        _force_step(monkeypatch, 0.9 / ((1.0 - 0.9) * log.l))
        cfg = SolverConfig(outer_iters=3, inner_iters=4, lam=0.5, eta=0.9, seed=1, tol=1e-12)
        fit(log, cats, cfg)
        count = {name: [n for n, _ in calls].count(name)
                 for name in ("matmat", "rmatmat", "randomized_svd")}
        assert len({g for n, g in calls if n == "gradient_step"}) > 1  # halvings
        assert count["matmat"] == count["rmatmat"] == count["randomized_svd"] > 3


class TestBlasThreads:
    def test_fit_holds_one_thread_and_restores_the_count(self, monkeypatch):
        calls = driver._blas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS exports no thread-count functions")
        get, set_ = calls
        log, cats, *_ = small_instance(seed=61, m=15, n=12, l=8, r=3, count=150)
        cfg = SolverConfig(outer_iters=2, inner_iters=3, seed=1)
        seen = []

        def spy(*args, **kwargs):
            seen.append(get())
            return utility.update_X(*args, **kwargs)

        def failing(*args, **kwargs):
            seen.append(get())
            raise SolverError("stop")

        before = get()
        try:
            set_(2)
            monkeypatch.setattr(driver, "update_X", spy)
            fit(log, cats, cfg)
            assert seen and set(seen) == {1}
            assert get() == 2
            seen.clear()
            monkeypatch.setattr(driver, "update_X", failing)
            with pytest.raises(SolverError, match="stop"):
                fit(log, cats, cfg)
            assert seen == [1]
            assert get() == 2
        finally:
            set_(before)

    def test_concurrent_fits_hold_one_thread_and_restore_the_count(self, monkeypatch,
                                                                     two_threads):
        """Three fits at once in three threads, sharing the one second
        thread: each sees BLAS at one thread, each gets the model a lone fit
        gets, and the count found before the first is back after the last."""
        calls = driver._blas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS exports no thread-count functions")
        get, set_ = calls
        log, cats, *_ = small_instance(seed=62, m=40, n=30, l=8, r=3, count=600)
        cfg = SolverConfig(outer_iters=2, inner_iters=3, seed=1, tol=1e-12)
        seen, results = [], []

        def spy(*args, **kwargs):
            seen.append(get())
            return utility.update_X(*args, **kwargs)

        def run():
            results.append(fit(log, cats, cfg)[1].objective_history)

        before, interval = get(), sys.getswitchinterval()
        try:
            set_(2)
            monkeypatch.setattr(driver, "update_X", spy)
            monkeypatch.setattr(kernels, "_PAIR_BLOCK", 64)  # split every pass
            want = fit(log, cats, cfg)[1].objective_history
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=run) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            final = get()
            set_(before)
        assert results == [want] * 3
        assert set(seen) == {1}
        assert final == 2
        assert two_threads.threads


# Runs in a fresh interpreter, under one BLAS setting: the sha256 of a hinge
# pass on 150,000 random triplets, of a fit's objective trace and of its U
# and d.  "pinned" runs on one CPU, with no second thread for the split
# passes and OpenBLAS choosing its own thread count.
_THREAD_PROBE = """
import hashlib, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from demandrec import kernels
from demandrec.data import CategoryMap, _build_log
from demandrec.driver import fit
from demandrec.utility import SolverConfig

def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]

rng = np.random.default_rng(0)
n_trip, n_pairs = 150_000, 60_000
table = rng.uniform(0.0, 5.0, size=2_010)
codes = rng.integers(0, 2_010, size=n_trip).astype(np.uint16)
pair_x = rng.normal(size=n_pairs)
pair_index = np.sort(rng.integers(0, n_pairs, size=n_trip))
sums, total = kernels.hinge_stats(table, codes, pair_x, pair_index, n_pairs)

m = n = 2_000
l, nnz = 50, 60_000
rng = np.random.default_rng(7)
draw = np.unique(rng.integers(0, m * n * l, size=nnz))
log = _build_log(draw // (n * l), (draw // l) % n, draw % l, m=m, n=n)
cats = CategoryMap(assignment=np.arange(n) % 4, r=4)
state, report = fit(log, cats, SolverConfig(outer_iters=2, inner_iters=3, seed=0, tol=1e-12))
print(digest(sums, [total]), digest(report.objective_history), digest(state.X.U, state.d))
"""


def test_bits_do_not_depend_on_blas_threads_or_cores():
    """The hinge total and the fit's objective trace, U and d are the same
    bits with OpenBLAS at one thread, at two, and on one CPU.  BLAS dots over
    triplet-length arrays gave totals whose last bits moved with the BLAS
    thread count."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity control on this platform")
    src = str(Path(driver.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    outputs = {}
    for setting, env in (("1", {"OPENBLAS_NUM_THREADS": "1"}),
                         ("2", {"OPENBLAS_NUM_THREADS": "2"}), ("pinned", {})):
        done = subprocess.run([sys.executable, "-c", _THREAD_PROBE, setting],
                              capture_output=True, text=True, env={**base, **env},
                              timeout=300)
        assert done.returncode == 0, done.stderr
        outputs[setting] = done.stdout.split()
    assert len(outputs["1"]) == 3
    assert outputs["1"] == outputs["2"] == outputs["pinned"], outputs


class TestWorkingSet:
    N = 5_000  # users and items of the traced fits

    def test_fit_never_builds_the_event_keys(self, monkeypatch):
        # the event keys are built by the scorers' RecencyIndex constructor
        built = []
        build = RecencyIndex.__init__

        def spy(self, *args):
            built.append(self)
            return build(self, *args)

        monkeypatch.setattr(RecencyIndex, "__init__", spy)
        log, cats, *_ = small_instance(seed=59, m=15, n=12, l=8, r=3, count=150)
        fit(log, cats, SolverConfig(outer_iters=2, inner_iters=3, seed=1))
        assert built == []

    def test_peak_memory_per_record(self):
        """A fit that also built the recency index's event keys, kept triplet
        categories, pair users and pair counts as int64, and held the stale
        hinge sums while computing new ones peaked at 128.0 traced bytes per
        record here, and 105.2 without them.  Freeing the entry iterate's
        pair values brought that to 97.2, and dropping the int64 permutation
        that grouped the triplets by category to 89.2.  Dropping each
        round's hinge targets before the next round's worksets, and keeping
        an iterate's per-pair hinge sums only until its gradient step has
        folded them in, brought it to 81.4; int32 ids and a duration
        update that holds one category at a time leave it there, as its
        categories are balanced and its peak is the hinge pass.  One 2-byte
        (category, gap) code per triplet in place of the float64 gaps, the
        1-byte categories and the float64 targets, and dropping an
        iterate's pair values once its gradient step is built, bring it to
        58.5, and freeing the round's entry factors at the first accepted
        step to 54.5.  scipy.sparse is imported at the top of this file: a
        first import inside the traced fit would add about 68 bytes per
        record."""
        assert self.traced_fit_peak(np.arange(self.N, dtype=np.int64) % 10) < 61

    def test_peak_memory_with_one_dominant_category(self):
        """Category 0 owns 70% of the items, so its workset dominates.  A
        duration update that built every category's workset before sweeping
        any, and swept with about ten sweep-length temporaries, peaked at
        114.5 traced bytes per record here; one category at a time, swept
        in three arrays, it peaks at 92.3.  Grouped by one radix argsort of
        2-byte (category, gap) codes, with the permutation held as int32 and
        a category whose z are all at most 1 keeping its gaps as its
        breakpoints, it peaks at 77.8, still inside the duration update."""
        top = 7 * self.N // 10
        assignment = np.concatenate([np.zeros(top, dtype=np.int64),
                                     1 + np.arange(self.N - top) % 9])
        assert self.traced_fit_peak(assignment) < 81

    def traced_fit_peak(self, assignment):
        """Traced peak bytes per record of a two-round fit on 200,000
        distinct uniform triplets, m = n = N, l = 100, with the items in
        the categories of ``assignment``."""
        m = n = self.N
        l, nnz = 100, 200_000
        rng = np.random.default_rng(0)
        draw = np.sort(rng.integers(0, m * n * l, size=int(nnz * 1.05), dtype=np.int64))
        codes = draw[np.append(True, draw[1:] != draw[:-1])][:nnz]
        log = _build_log(codes // (n * l), (codes // l) % n, codes % l, m=m, n=n)
        del draw, codes
        cats = CategoryMap(assignment=assignment, r=int(assignment.max()) + 1)
        cfg = SolverConfig(outer_iters=2, inner_iters=5, max_rank=10, tol=1e-12, seed=0)
        tracemalloc.start()
        try:
            _, report = fit(log, cats, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (log.nnz, report.iterations) == (nnz, 2)
        return peak / nnz


def _bits(*arrays):
    """The raw bytes of float arrays, so that equal means bit for bit."""
    return [np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays]


class TestIdDtypeEquivalence:
    @pytest.mark.parametrize("chunk", [7, data._CHUNK_TRIPLETS])
    def test_int32_and_int64_ids_give_the_same_bits(self, monkeypatch, chunk):
        """One log held with int32 ids and with int64 ids: the fit, the
        recency answers, the three metrics and a top-N list agree bit for
        bit, also with chunks of 7 triplets in the chunked passes."""
        monkeypatch.setattr(data, "_CHUNK_TRIPLETS", chunk)
        log32, cats, *_ = small_instance(seed=71, m=40, n=30, l=25, r=3, count=700)
        assert log32.users.dtype == np.int32
        log64 = PurchaseLog(users=log32.users.astype(np.int64),
                            items=log32.items.astype(np.int64),
                            slots=log32.slots.astype(np.int64),
                            m=log32.m, n=log32.n, l=log32.l)
        cfg = SolverConfig(outer_iters=3, inner_iters=4, max_rank=5, tol=1e-12, seed=1)
        users, slots = np.arange(log32.m)[:, None], np.arange(-1, log32.l + 2)
        got = []
        for log in (log32, log64):
            split = split_train_test(log, 0.2, seed=4)
            train, test = split.train, split.test
            assert {train.users.dtype, test.slots.dtype} == {log.users.dtype}
            state, report = fit(train, cats, cfg)
            rec = build_recency_index(train, cats)
            tu, ti, tk = test.users, test.items, test.slots
            time_errors = time_prediction_metric(state, rec, tu, ti, tk,
                                                 tau=0.5 * oracles.dense_factored(state.X).max())[1]
            assert len(np.unique(time_errors)) > 1
            got.append((
                _bits(state.d, state.X.U, state.X.sigma, state.X.V, report.objective_history),
                _bits(rec.query(users, 1, slots), rec.user_gaps(3, 11)),
                _bits(category_prediction_metric(state, rec, tu, ti, tk)[1],
                      time_errors,
                      item_prediction_metric(state, rec, tu, ti, tk, 8, seed=2)[1]),
                [recommend_topn(state, rec, user, slot, 5)
                 for user in range(0, log.m, 7) for slot in (0, 9, 30)],
            ))
        assert got[0] == got[1]


class TestSketchAlgebra:
    def test_no_householder_fallback_in_a_moderate_fit(self, monkeypatch):
        """Every range block of the cold sketch and of the warm proximal
        steps is well conditioned, so CholeskyQR2 orthonormalizes all of
        them without the Householder fallback."""
        log, cats, *_ = small_instance(seed=65, m=300, n=200, l=30, r=4, count=6000)
        blocks = []
        fallbacks = []
        for owner, name, calls in ((utility, "orthonormalize", blocks),
                                   (np.linalg, "qr", fallbacks)):
            def wrapper(*args, _original=getattr(owner, name), _calls=calls, **kwargs):
                _calls.append(args[0].shape)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)
        cfg = SolverConfig(outer_iters=2, inner_iters=5, lam=0.5, seed=2, tol=1e-12)
        fit(log, cats, cfg)
        assert len(blocks) > 2  # the cold sketch's two and more
        assert fallbacks == []


class TestInitUtility:
    def test_transpose_from_pair_order_matches_scipy(self, monkeypatch):
        rng = np.random.default_rng(41)
        trips = [(u, j, k) for u, j, k in random_triplets(rng, 9, 8, 6, 70)
                 if u not in (2, 5) and j not in (1, 6)]
        # users 2, 5, 9 and 10 and items 1, 6 and 8 own no pair
        log = make_log(trips, m=11, n=9)
        cfg = SolverConfig(max_rank=4, seed=5)
        operators = []
        original = driver.GradStepOperator

        def spy(scale, X, S):
            operators.append(S)
            return original(scale, X, S)

        monkeypatch.setattr(driver, "GradStepOperator", spy)
        X = init_utility(log, cfg)
        A, = operators
        assert A.shape == (11, 9)
        AT = A.T.tocsr()

        class Reference(original):
            def rmatmat(self, B):
                return AT @ B

        monkeypatch.setattr(driver, "GradStepOperator", Reference)
        X_ref = init_utility(log, cfg)
        for name in ("U", "sigma", "V"):
            assert np.array_equal(getattr(X, name), getattr(X_ref, name))

    def test_one_product_each_way(self, monkeypatch):
        """The cold sketch is one pass: one product with the count matrix
        and one with its transpose."""
        log, *_ = small_instance(seed=66, m=30, n=25, count=200)
        calls = []

        class Spy(driver.GradStepOperator):
            def matmat(self, B):
                calls.append("matmat")
                return super().matmat(B)

            def rmatmat(self, B):
                calls.append("rmatmat")
                return super().rmatmat(B)

        monkeypatch.setattr(driver, "GradStepOperator", Spy)
        init_utility(log, SolverConfig(max_rank=4, seed=5))
        assert calls == ["matmat", "rmatmat"]

    def test_cold_sketch_is_the_step_operator_at_zero_in_halves(self, monkeypatch,
                                                                 two_threads):
        """The cold sketch multiplies by the gradient-step operator at X = 0
        with no dense part, once each way, and each product's column halves
        reach the second thread.  Its factors have the bits of a sketch of
        the plain count matrix."""
        log, *_ = small_instance(seed=66, m=30, n=25, count=200)
        cfg = SolverConfig(max_rank=4, seed=5)
        calls = []

        class Spy(driver.GradStepOperator):
            def matmat(self, B):
                return self.record("matmat", super().matmat, B)

            def rmatmat(self, B):
                return self.record("rmatmat", super().rmatmat, B)

            def record(self, name, product, B):
                two_threads.threads.clear()
                out = product(B)
                calls.append((name, self.scale, self.X.rank, len(two_threads.threads)))
                return out

        monkeypatch.setattr(driver, "GradStepOperator", Spy)
        X = init_utility(log, cfg)
        # each product handed one half to the second thread
        assert calls == [("matmat", 0.0, 0, 1), ("rmatmat", 0.0, 0, 1)]
        assert threading.get_ident() not in two_threads.threads

        counts = log.pairs().csr(log.pairs().counts.astype(float))

        class Plain(driver.GradStepOperator):
            def matmat(self, B):
                return counts @ B

            def rmatmat(self, B):
                return counts.T @ B

        monkeypatch.setattr(driver, "GradStepOperator", Plain)
        X_plain = init_utility(log, cfg)
        for name in ("U", "sigma", "V"):
            assert getattr(X, name).tobytes() == getattr(X_plain, name).tobytes()

    def test_unit_spectral_norm_and_determinism(self):
        log, cats, *_ = small_instance(seed=57, count=80)
        cfg = SolverConfig(max_rank=4, seed=5)
        X1 = init_utility(log, cfg)
        X2 = init_utility(log, cfg)
        assert X1.sigma[0] == pytest.approx(1.0, rel=1e-9)
        assert np.array_equal(oracles.dense_factored(X1), oracles.dense_factored(X2))
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
        assert (back.m, back.n, back.l, back.r) == (state.m, state.n, state.l, state.r)

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
        # the last entry (l, int64) ends just before the 32-byte digest;
        # flipping its top byte still yields a well-formed file
        raw[-33] ^= 0x01
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

    @pytest.mark.parametrize("version", [1, 3, 4, 5])
    def test_version_1_rejected(self, tmp_path, version):
        _, path, *_ = self.fitted(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = version.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFileError, match=f"unsupported model file version {version}$"):
            load_model(path)

    def test_version_2_rejected(self, tmp_path):
        state, path, *_ = self.fitted(tmp_path)
        write_version_2_model(state, path)
        with pytest.raises(ModelFileError, match="unsupported model file version 2$"):
            load_model(path)

    def test_entries_are_typed_arrays(self):
        """The model is its factors, durations and horizon: five typed
        entries, no text and no config."""
        assert driver._MODEL_SPEC == (
            ("U", "<f8", 2), ("sigma", "<f8", 1), ("V", "<f8", 2),
            ("d", "<f8", 1), ("l", "<i8", 0),
        )

    def test_trailing_bytes_rejected(self, tmp_path):
        _, path, *_ = self.fitted(tmp_path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ModelFileError, match="trailing"):
            load_model(path)
