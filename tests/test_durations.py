import math

import numpy as np
import pytest

import oracles
from helpers import make_cats, make_log, model_from_dense, random_triplets

from demandrec.data import build_recency_index
from demandrec.durations import (
    CategoryWorkSet,
    build_worksets,
    category_objective,
    sweep_category,
    update_durations,
)
from demandrec.synthetic import SynthSpec, simulate_purchases, true_durations


def make_ws(zs, ts, category=0):
    """Workset straight from (z, t) records, mirroring the documented
    construction: drop infinite t into constant_loss, sort by breakpoint."""
    z = np.asarray(zs, dtype=float)
    t = np.asarray(ts, dtype=float)
    finite = np.isfinite(t)
    zi = z[~finite]
    const = float((np.maximum(1.0 - zi, 0.0) ** 2).sum())
    z, t = z[finite], t[finite]
    s = t + np.maximum(z - 1.0, 0.0)
    order = np.argsort(s, kind="stable")
    return CategoryWorkSet(
        category=category, z=z[order], t=t[order], s=s[order], constant_loss=const
    )


def random_ws(rng, count, inf_share=0.2):
    zs = rng.uniform(-0.5, 2.0, size=count)
    ts = rng.integers(1, 30, size=count).astype(float)
    ts[rng.random(count) < inf_share] = math.inf
    return zs, ts, make_ws(zs, ts)


class TestBuildWorksets:
    def build(self, x_value, triplets, assignment, r):
        log = make_log(triplets)
        cats = make_cats(assignment, r=r)
        rec = build_recency_index(log, cats)
        X = model_from_dense(np.full((log.m, log.n), x_value), [0.0] * r, log.l).X
        return build_worksets(rec, X)

    def test_breakpoint_equals_recency_when_z_at_most_one(self):
        (ws,) = self.build(1.0, [(0, 0, 0), (0, 0, 5)], [0], r=1)
        assert ws.size == 1
        assert ws.s.tolist() == [5.0]
        assert ws.constant_loss == 0.0

    def test_breakpoint_shifts_right_when_z_above_one(self):
        (ws,) = self.build(1.4, [(0, 0, 0), (0, 0, 5)], [0], r=1)
        assert ws.s.shape[0] == 1
        assert ws.s[0] == pytest.approx(5.4, abs=1e-12)

    def test_infinite_recency_goes_to_constant_loss(self):
        (ws,) = self.build(0.3, [(0, 0, 0)], [0], r=1)
        assert ws.size == 0
        assert ws.constant_loss == pytest.approx(0.49)

    def test_partition_covers_all_triplets(self):
        rng = np.random.default_rng(0)
        trips = random_triplets(rng, m=10, n=8, l=20, count=150)
        log = make_log(trips, m=10, n=8)
        assignment = rng.integers(0, 3, size=8)
        cats = make_cats(assignment, r=3)
        rec = build_recency_index(log, cats)
        X = model_from_dense(rng.random((10, 8)), [0.0] * 3, log.l).X
        sets = build_worksets(rec, X)
        n_inf = int(np.isinf(rec.triplet_recency()).sum())
        assert sum(ws.size for ws in sets) + n_inf == log.nnz
        for ws in sets:
            assert (np.diff(ws.s) >= 0).all()


class TestSweep:
    def test_flat_objective_returns_first_breakpoint(self):
        # g is 0 on [0, 5] and (d - 5)^2 after; a flat minimum resolves to
        # the first breakpoint, which is the smallest observed gap
        d_star, g_min = sweep_category(make_ws([1.0], [5.0]))
        assert (d_star, g_min) == (5.0, 0.0)

    def test_flat_positive_objective_same_argmin(self):
        d_star, g_min = sweep_category(make_ws([0.0], [5.0]))
        assert d_star == 5.0
        assert g_min == pytest.approx(1.0)

    def test_two_records_match_grid_value(self):
        zs, ts = [0.5, 0.8], [2.0, 10.0]
        d_star, g_min = sweep_category(make_ws(zs, ts))
        _, g_grid = oracles.grid_min_duration(zs, ts, d_max=12.0, step=1e-4)
        assert g_min == pytest.approx(g_grid, abs=1e-3)
        assert d_star == 2.0

    def test_empty_workset_signals_unconstrained(self):
        assert sweep_category(make_ws([], [])) is None
        assert sweep_category(make_ws([0.2], [math.inf])) is None

    def test_random_worksets_match_grid_minimum(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            zs, ts, ws = random_ws(rng, count=int(rng.integers(1, 60)))
            res = sweep_category(ws)
            if res is None:
                continue
            d_star, g_min = res
            _, g_grid = oracles.grid_min_duration(zs, ts, d_max=40.0, step=1e-3)
            assert g_min == pytest.approx(g_grid, rel=1e-9, abs=1e-9)
            assert category_objective(ws, d_star) == pytest.approx(g_min, rel=1e-9)

    def test_returned_value_is_attained_at_returned_point(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            zs, ts, ws = random_ws(rng, count=int(rng.integers(1, 40)), inf_share=0.0)
            d_star, g_min = sweep_category(ws)
            direct = oracles.duration_loss(zs, ts, d_star)
            assert g_min == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        zs, ts, ws = random_ws(rng, count=50)
        base = sweep_category(ws)
        for _ in range(5):
            perm = rng.permutation(len(zs))
            shuffled = sweep_category(make_ws(np.asarray(zs)[perm], np.asarray(ts)[perm]))
            assert shuffled[0] == base[0]
            assert shuffled[1] == pytest.approx(base[1], rel=1e-12)

    def test_objective_evaluation_matches_direct_sum(self):
        rng = np.random.default_rng(4)
        zs, ts, ws = random_ws(rng, count=40)
        for d in np.linspace(0.0, 35.0, 40):
            expected = oracles.duration_loss(zs, ts, float(d))
            assert category_objective(ws, float(d)) == pytest.approx(
                expected, rel=1e-9, abs=1e-12
            )


class TestUpdateDurations:
    def test_empty_category_flagged_with_zero_duration(self):
        sets = [make_ws([0.5], [4.0], category=0), make_ws([], [], category=1)]
        d, flags = update_durations(sets)
        assert d[1] == 0.0
        assert flags == (1,)
        assert d[0] == 4.0

    def test_never_increases_the_objective(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            _, _, ws = random_ws(rng, count=int(rng.integers(1, 50)))
            if ws.size == 0:
                continue
            d_new = update_durations([ws])[0][0]
            for d_old in rng.uniform(0.0, 35.0, size=8):
                assert (
                    category_objective(ws, float(d_new))
                    <= category_objective(ws, float(d_old)) + 1e-12
                )

    def test_random_records_match_grid_per_category(self):
        rng = np.random.default_rng(6)
        trips = random_triplets(rng, m=6, n=9, l=25, count=50)
        log = make_log(trips, m=6, n=9)
        assignment = rng.integers(0, 3, size=9).tolist()
        cats = make_cats(assignment, r=3)
        rec = build_recency_index(log, cats)
        X_dense = rng.uniform(0.0, 1.5, size=(6, 9))
        X = model_from_dense(X_dense, [0.0] * 3, log.l).X
        sets = build_worksets(rec, X)
        d, _ = update_durations(sets)
        for cat in range(3):
            # records rebuilt fully independently from raw triplets
            zs, ts = [], []
            for u, j, k in trips:
                if assignment[j] != cat:
                    continue
                zs.append(X_dense[u, j])
                ts.append(oracles.recency_scan(trips, assignment, u, cat, k))
            finite = [t for t in ts if math.isfinite(t)]
            if not finite:
                continue
            _, g_grid = oracles.grid_min_duration(zs, ts, d_max=30.0, step=1e-3)
            got = oracles.duration_loss(zs, ts, float(d[cat]))
            assert got == pytest.approx(g_grid, rel=1e-9, abs=1e-9)

    def test_recovers_true_durations_on_clean_simulation(self):
        spec = SynthSpec(m=150, n=90, l=150, r=3, rank=6, obs_prob=0.8, seed=12)
        rng = np.random.default_rng(3)
        x_true = rng.uniform(0.3, 1.0, size=(150, 90))
        inst = simulate_purchases(x_true, spec)
        rec = build_recency_index(inst.log, inst.cats)
        X = model_from_dense(x_true, [0.0] * 3, inst.log.l).X
        d, flags = update_durations(build_worksets(rec, X))
        assert flags == ()
        assert np.array_equal(d, true_durations(3))
