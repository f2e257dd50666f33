"""Synthetic generator: ground truth, simulation rules, noise, rank demo."""

import dataclasses
import math
import re

import numpy as np
import pytest

from demandrec.data import _build_log, build_recency_index
from demandrec.errors import ConfigError, DataFormatError
from demandrec.synthetic import (
    SynthInstance,
    SynthSpec,
    duration_error,
    flip_noise,
    gen_form_utility,
    generate,
    rank_demo,
    simulate_purchases,
    true_durations,
)
from helpers import triplet_list

MEDIUM = SynthSpec(m=30, n=25, l=60, r=3, rank=5, obs_prob=0.7, seed=2)


class TestSynthSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=0),
            dict(n=0),
            dict(l=0),
            dict(r=0),
            dict(rank=0),
            dict(obs_prob=0.0),
            dict(obs_prob=1.5),
            dict(noise_ratio=-0.1),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        base = dict(m=4, n=4, l=10, r=2)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            SynthSpec(**base)

    @pytest.mark.parametrize("field", ["m", "n", "l", "r", "rank"])
    def test_the_field_below_1_is_named(self, field):
        base = dict(m=4, n=4, l=10, r=2, rank=2)
        base[field] = 0
        with pytest.raises(ConfigError, match=f"^{field} must be >= 1, got 0$"):
            SynthSpec(**base)

    def test_rejects_negative_seed(self):
        # numpy's default_rng refused it in generate, with a bare ValueError
        with pytest.raises(ConfigError, match="^seed must be nonnegative, got -1$"):
            generate(SynthSpec(m=4, n=4, l=10, r=2, rank=2, seed=-1))

    @pytest.mark.parametrize("noise_ratio", [math.nan, math.inf])
    def test_rejects_non_finite_noise_ratio(self, noise_ratio):
        message = f"noise_ratio must be finite, got {noise_ratio}"
        with pytest.raises(ConfigError, match=message):
            SynthSpec(m=4, n=4, l=10, r=2, noise_ratio=noise_ratio)
        with pytest.raises(ConfigError, match=message):
            flip_noise(generate(MEDIUM), noise_ratio, seed=0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(m=2.5), "m must be an integer, got 2.5"),
        (dict(n=True), "n must be an integer, got True"),
        (dict(rank="3"), "rank must be an integer, got '3'"),
        (dict(l=2**63), f"l must be below 2**63, got {2**63}"),
        (dict(seed=2**63), f"seed must be below 2**63, got {2**63}"),
    ])
    def test_int_fields_follow_the_solver_config_rule(self, kwargs, message):
        base = dict(m=4, n=4, l=10, r=2)
        base.update(kwargs)
        with pytest.raises(ConfigError, match=re.escape(message)):
            SynthSpec(**base)

    def test_numpy_integers_accepted_as_ints(self):
        spec = SynthSpec(m=np.int64(4), n=np.int32(4), l=10, r=2)
        assert spec == SynthSpec(m=4, n=4, l=10, r=2)
        assert type(spec.m) is int and type(spec.n) is int

    def test_frozen(self):
        spec = SynthSpec(m=4, n=4, l=10, r=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.m = 5


class TestTrueDurations:
    def test_values(self):
        assert true_durations(3).tolist() == [10.0, 20.0, 30.0]
        assert true_durations(1).tolist() == [10.0]


class TestGenFormUtility:
    def test_range_and_rank(self):
        spec = SynthSpec(m=60, n=80, l=10, r=2, rank=7, seed=5)
        X = gen_form_utility(spec)
        assert X.shape == (60, 80)
        assert X.min() == 0.0 and X.max() == 1.0
        sigma = np.linalg.svd(X, compute_uv=False)
        # min-max shift can only raise the rank of W H^T by one
        significant = int((sigma > 1e-10 * sigma[0]).sum())
        assert significant in (7, 8)

    def test_deterministic(self):
        spec = SynthSpec(m=20, n=15, l=10, r=2, rank=3, seed=9)
        assert np.array_equal(gen_form_utility(spec), gen_form_utility(spec))
        other = SynthSpec(m=20, n=15, l=10, r=2, rank=3, seed=10)
        assert not np.array_equal(gen_form_utility(spec), gen_form_utility(other))

    def test_degenerate_matrix_warns_and_zeros(self):
        spec = SynthSpec(m=1, n=1, l=10, r=1, rank=1)
        with pytest.warns(UserWarning, match="degenerate"):
            X = gen_form_utility(spec)
        assert X.tolist() == [[0.0]]


class TestSimulatePurchases:
    def test_single_pair_cadence(self):
        # one always-observed eligible pair, duration 10: buys at 0, 10, 20
        spec = SynthSpec(m=1, n=1, l=25, r=1, obs_prob=1.0)
        inst = simulate_purchases(np.array([[0.9]]), spec)
        assert triplet_list(inst.log) == [(0, 0, 0), (0, 0, 10), (0, 0, 20)]
        assert inst.log.l == 25

    def test_no_eligible_pair_raises(self):
        spec = SynthSpec(m=2, n=2, l=10, r=1)
        with pytest.raises(DataFormatError, match="threshold"):
            simulate_purchases(np.full((2, 2), 0.49), spec)

    def test_shape_mismatch_raises(self):
        spec = SynthSpec(m=2, n=3, l=10, r=1)
        with pytest.raises(ConfigError, match="shape"):
            simulate_purchases(np.zeros((3, 2)), spec)

    def test_every_purchase_obeys_the_rules(self):
        inst = generate(MEDIUM)
        rec = build_recency_index(inst.log, inst.cats)
        assert inst.log.nnz > 50
        for u, i, k in triplet_list(inst.log):
            assert inst.x_true[u, i] >= 0.5
            cat = int(inst.cats.assignment[i])
            assert rec.query(u, cat, k) >= inst.d_true[cat]

    def test_deterministic(self):
        a, b = generate(MEDIUM), generate(MEDIUM)
        assert triplet_list(a.log) == triplet_list(b.log)
        assert np.array_equal(a.cats.assignment, b.cats.assignment)
        assert np.array_equal(a.x_true, b.x_true)

    def test_observation_probability_scales_volume(self):
        dense = generate(dataclasses.replace(MEDIUM, obs_prob=1.0))
        sparse = generate(dataclasses.replace(MEDIUM, obs_prob=0.3))
        assert dense.log.nnz > sparse.log.nnz

    def test_volume_grows_with_users(self):
        small = generate(MEDIUM)
        big = generate(dataclasses.replace(MEDIUM, m=2 * MEDIUM.m))
        assert big.log.nnz > small.log.nnz


class TestFlipNoise:
    def test_zero_ratio_is_identity(self):
        inst = generate(MEDIUM)
        assert flip_noise(inst, 0.0, seed=1) is inst

    def test_adds_exact_count_of_new_triplets(self):
        inst = generate(MEDIUM)
        noisy = flip_noise(inst, 0.1, seed=3)
        want = math.ceil(0.1 * inst.log.nnz)
        assert noisy.log.nnz == inst.log.nnz + want
        assert set(triplet_list(inst.log)) < set(triplet_list(noisy.log))
        assert noisy.log.l == inst.log.l

    def test_deterministic(self):
        inst = generate(MEDIUM)
        a = flip_noise(inst, 0.1, seed=3)
        b = flip_noise(inst, 0.1, seed=3)
        assert triplet_list(a.log) == triplet_list(b.log)

    def test_noise_breaks_the_duration_rule(self):
        inst = generate(MEDIUM)
        noisy = flip_noise(inst, 0.2, seed=4)
        rec = build_recency_index(noisy.log, noisy.cats)
        violations = 0
        for u, i, k in triplet_list(noisy.log):
            cat = int(noisy.cats.assignment[i])
            if rec.query(u, cat, k) < noisy.d_true[cat]:
                violations += 1
        assert violations > 0

    def test_generate_applies_spec_noise(self):
        spec = dataclasses.replace(MEDIUM, noise_ratio=0.15)
        via_spec = generate(spec)
        manual = flip_noise(generate(MEDIUM), 0.15, seed=MEDIUM.seed)
        assert triplet_list(via_spec.log) == triplet_list(manual.log)

    def test_too_many_flips_raises(self):
        spec = SynthSpec(m=1, n=1, l=25, r=1, obs_prob=1.0)
        inst = simulate_purchases(np.array([[0.9]]), spec)
        with pytest.raises(ConfigError, match="zero cells"):
            flip_noise(inst, 8.0, seed=0)

    def test_negative_ratio_raises(self):
        inst = generate(MEDIUM)
        with pytest.raises(ConfigError):
            flip_noise(inst, -0.5, seed=0)

    @staticmethod
    def bare(log):
        """An instance that carries only a log, all flip_noise reads."""
        return SynthInstance(log=log, cats=None, d_true=None, x_true=None, spec=None)

    GRID = [(0, 0, 1), (0, 1, 0), (1, 0, 2), (1, 1, 1)]  # 4 of the 2 x 2 x 3 cells

    def test_each_zero_cell_is_picked_at_the_same_rate(self):
        log = _build_log(*map(np.array, zip(*self.GRID)), m=2, n=2, l=3)
        seeds = 4000
        hits = {}
        for seed in range(seeds):
            noisy = triplet_list(flip_noise(self.bare(log), 0.75, seed=seed).log)
            assert len(noisy) == 7
            for cell in set(noisy) - set(self.GRID):
                hits[cell] = hits.get(cell, 0) + 1
        assert len(hits) == 8  # every zero cell, and no present one
        # 3 of 8 cells per seed: the rate 3/8 has a standard deviation below 0.008
        assert max(abs(h / seeds - 3 / 8) for h in hits.values()) < 0.04

    def test_flipping_every_zero_cell_fills_the_grid(self):
        log = _build_log(*map(np.array, zip(*self.GRID)), m=2, n=2, l=3)
        noisy = flip_noise(self.bare(log), 2.0, seed=5).log
        assert triplet_list(noisy) == [(u, i, k) for u in range(2) for i in range(2)
                                       for k in range(3)]

    @pytest.mark.parametrize("dims", [(2**20, 2**21, 2**21), (2**21, 2**21, 2**21)])
    def test_key_spaces_of_2_62_and_2_63_cells_get_distinct_cells_in_range(self, dims):
        m, n, l = dims
        corners = [(0, 0, 0), (0, 0, 1), (m - 1, n - 1, l - 2), (m - 1, n - 1, l - 1)]
        log = _build_log(*map(np.array, zip(*corners)), m=m, n=n, l=l)
        noisy = flip_noise(self.bare(log), 50.0, seed=1).log
        assert (noisy.m, noisy.n, noisy.l) == dims and noisy.nnz == 204
        got = triplet_list(noisy)
        assert len(set(got)) == 204 and set(corners) < set(got)
        assert all(0 <= u < m and 0 <= i < n and 0 <= k < l for u, i, k in got)


class TestDurationError:
    def test_exact_recovery_is_zero(self):
        d = true_durations(4)
        assert duration_error(d, d) == 0.0

    def test_uniform_scaling(self):
        d = true_durations(5)
        assert duration_error(1.1 * d, d) == pytest.approx(0.1)

    def test_zero_truth_raises(self):
        with pytest.raises(ValueError, match="zero"):
            duration_error(np.ones(3), np.zeros(3))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            duration_error(np.ones(3), np.ones(4))


class TestRankDemo:
    def test_spectra_shapes_and_ranks(self):
        sx, sb = rank_demo(seed=0)
        assert sx.shape == (50,) and sb.shape == (50,)
        assert int((sx > 1e-8 * sx[0]).sum()) == 10
        assert int((sb > 1e-8 * sb[0]).sum()) == 50

    def test_deterministic(self):
        ax, ab = rank_demo(seed=7)
        bx, bb = rank_demo(seed=7)
        assert np.array_equal(ax, bx) and np.array_equal(ab, bb)

    @pytest.mark.parametrize("key", ["m", "n", "rank"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_empty_shape_is_one_config_error(self, key, value):
        with pytest.raises(ConfigError, match=">= 1"):
            rank_demo(seed=0, **{key: value})
