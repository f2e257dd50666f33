"""Each kernel against a brute-force or dense reference on random inputs."""

import multiprocessing
import os
import threading

import numpy as np
import pytest

import oracles
from helpers import one_thread_run

from demandrec import kernels


# pair counts at blocks of 64: one partial block, one block, two blocks (the
# split), three blocks with a partial last one (an odd count), four, and five
# with a partial last one
SPLIT_SIZES = [5, 64, 128, 130, 192 - 7, 256, 5 * 64 - 1]


def random_pairs(rng, m=17, n=13, k=5, npairs=60):
    U = rng.normal(size=(m, k))
    sigma = np.sort(rng.uniform(0.1, 3.0, size=k))[::-1].copy()
    V = rng.normal(size=(n, k))
    pu = rng.integers(0, m, size=npairs).astype(np.int64)
    pi = rng.integers(0, n, size=npairs).astype(np.int64)
    return U, sigma, V, pu, pi


def random_groups(rng, n_groups=9, max_len=12):
    slots, new_group = [], []
    for _ in range(n_groups):
        run = np.sort(rng.integers(0, 30, size=rng.integers(1, max_len)))
        slots.extend(run.tolist())
        new_group.extend([True] + [False] * (run.shape[0] - 1))
    return np.array(slots, dtype=np.int64), np.array(new_group)


class TestPairValues:
    def test_numpy_matches_dense(self):
        rng = np.random.default_rng(0)
        U, sigma, V, pu, pi = random_pairs(rng)
        dense = (U * sigma) @ V.T
        got = kernels.pair_values(U, sigma, V, pu, pi)
        assert np.allclose(got, dense[pu, pi], rtol=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 10])
    def test_bitwise_equal_to_einsum(self, k):
        rng = np.random.default_rng(1)
        U, sigma, V, pu, pi = random_pairs(rng, k=k, npairs=500)
        ref = np.einsum("pk,k,pk->p", U[pu], sigma, V[pi])
        assert np.array_equal(kernels.pair_values(U, sigma, V, pu, pi), ref)

    def test_blocks_of_int32_pairs_match_einsum(self, monkeypatch):
        # the int32 indices of a CSR pattern, over blocks of uneven length
        monkeypatch.setattr(kernels, "_PAIR_BLOCK", 64)
        rng = np.random.default_rng(2)
        U, sigma, V, pu, pi = random_pairs(rng, k=10, npairs=500)
        ref = np.einsum("pk,k,pk->p", U[pu], sigma, V[pi])
        got = kernels.pair_values(U, sigma, V, pu.astype(np.int32), pi.astype(np.int32))
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("npairs", SPLIT_SIZES)
    def test_halves_have_the_bits_of_one_thread(self, monkeypatch, two_threads, npairs,
                                                dtype):
        monkeypatch.setattr(kernels, "_PAIR_BLOCK", 64)
        rng = np.random.default_rng(npairs)
        U, sigma, V, pu, pi = random_pairs(rng, k=10, npairs=npairs)
        pu, pi = pu.astype(dtype), pi.astype(dtype)
        got = kernels.pair_values(U, sigma, V, pu, pi)
        ref = np.einsum("pk,k,pk->p", U[pu], sigma, V[pi])
        assert got.tobytes() == ref.tobytes()
        assert got.tobytes() == one_thread_run(monkeypatch, kernels.pair_values,
                                               U, sigma, V, pu, pi).tobytes()
        # below two blocks nothing is split; from two on the second thread runs
        # the second half
        assert len(two_threads.threads) == (npairs >= 128)
        assert threading.get_ident() not in two_threads.threads

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_a_forked_child_does_not_wait_on_the_parents_thread(self, monkeypatch,
                                                                two_threads):
        """The parent's second thread does not run in a forked child, so
        the child's split passes make their own or run in one thread."""
        monkeypatch.setattr(kernels, "_PAIR_BLOCK", 64)
        U, sigma, V, pu, pi = random_pairs(np.random.default_rng(4), k=10, npairs=256)
        kernels.pair_values(U, sigma, V, pu, pi)  # the parent's thread runs a half
        assert two_threads.threads
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def child():
            send.send_bytes(kernels.pair_values(U, sigma, V, pu, pi).tobytes())

        proc = ctx.Process(target=child)
        proc.start()
        try:
            got = receive.recv_bytes() if receive.poll(60) else None
        finally:
            proc.join(timeout=60)
            if proc.is_alive():
                proc.kill()
                proc.join()
        assert got == np.einsum("pk,k,pk->p", U[pu], sigma, V[pi]).tobytes()
        assert proc.exitcode == 0

    def test_empty_pairs(self):
        U, sigma, V, *_ = random_pairs(np.random.default_rng(3), k=10)
        none = np.zeros(0, dtype=np.int64)
        got = kernels.pair_values(U, sigma, V, none, none)
        assert got.shape == (0,)
        assert np.array_equal(got, np.einsum("pk,k,pk->p", U[none], sigma, V[none]))


class TestHingeStats:
    def brute(self, table, codes, pair_x, pair_index, n_pairs):
        sums = np.zeros(n_pairs)
        total = 0.0
        for t, p in enumerate(pair_index):
            gap = max(table[codes[t]] - pair_x[p], 0.0)
            sums[p] += gap
            total += gap * gap
        return sums, total

    def inputs(self, rng, n_pairs=25, n_trip=80, n_codes=30):
        table = rng.uniform(0.0, 5.0, size=n_codes)
        codes = rng.integers(0, n_codes, size=n_trip).astype(np.uint16)
        pair_x = rng.normal(size=n_pairs)
        pair_index = np.sort(rng.integers(0, n_pairs, size=n_trip)).astype(np.int64)
        return table, codes, pair_x, pair_index, n_pairs

    def test_numpy_matches_brute(self, monkeypatch):
        rng = np.random.default_rng(2)
        args = self.inputs(rng)
        ref_sums, ref_total = self.brute(*args)
        # one block, and blocks of 16 triplets with a partial last one
        for block in (2**16, 16):
            monkeypatch.setattr(kernels, "_PAIR_BLOCK", block)
            sums, total = kernels.hinge_stats(*args)
            np.testing.assert_allclose(sums, ref_sums, rtol=1e-12)
            assert total == pytest.approx(ref_total, rel=1e-12)

    @pytest.mark.parametrize("n_trip", SPLIT_SIZES)
    def test_halves_have_the_bits_of_one_thread(self, monkeypatch, two_threads, n_trip):
        """The sums have the bits of one bincount over the whole-array
        hinges, and the total those of numpy's per-block sums of squares
        added in block order, with or without a second thread."""
        monkeypatch.setattr(kernels, "_PAIR_BLOCK", 64)
        rng = np.random.default_rng(n_trip)
        args = self.inputs(rng, n_pairs=max(1, n_trip // 3), n_trip=n_trip)
        table, codes, pair_x, pair_index, n_pairs = args
        sums, total = kernels.hinge_stats(*args)
        gap = np.maximum(table[codes] - pair_x[pair_index], 0.0)
        assert sums.tobytes() == np.bincount(pair_index, weights=gap,
                                             minlength=n_pairs).tobytes()
        assert total == oracles.block_sum_of_squares(gap, 64)
        ref_sums, ref_total = one_thread_run(monkeypatch, kernels.hinge_stats, *args)
        assert (sums.tobytes(), total) == (ref_sums.tobytes(), ref_total)
        assert len(two_threads.threads) == (n_trip >= 128)


class TestStrictPrevGap:
    def brute(self, slots, new_group, none):
        out = np.full(slots.shape[0], none)
        start = 0
        for i in range(slots.shape[0]):
            if new_group[i]:
                start = i
            prevs = [slots[j] for j in range(start, i) if slots[j] < slots[i]]
            if prevs:
                out[i] = slots[i] - max(prevs)
        return out

    def test_numpy_matches_brute(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            slots, new_group = random_groups(rng)
            got = kernels.strict_prev_gap(slots, new_group, none=99)
            assert got.dtype == slots.dtype
            assert np.array_equal(got, self.brute(slots, new_group, none=99))

    def test_empty(self):
        out = kernels.strict_prev_gap(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool), none=99
        )
        assert out.shape == (0,)


class TestSweepMin:
    def inputs(self, rng, nrec=20):
        # flat piece must join the quadratic at the breakpoint, as in the
        # duration worksets, otherwise the interval sweep formula is off
        s = np.sort(rng.uniform(0.0, 10.0, size=nrec))
        coef = rng.uniform(-8.0, 2.0, size=nrec)
        flat = (s + coef) ** 2
        return s, coef, flat

    def direct(self, s, coef, flat, d):
        return sum(
            flat[t] if d <= s[t] else (d + coef[t]) ** 2 for t in range(s.shape[0])
        )

    def test_numpy_value_attained(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            s, coef, flat = self.inputs(rng)
            d, g = kernels.sweep_min(s, coef, flat)
            assert g == pytest.approx(self.direct(s, coef, flat, d), rel=1e-9)
            grid = np.linspace(0.0, s[-1] + 5.0, 400)
            best = min(self.direct(s, coef, flat, x) for x in grid)
            assert g <= best + 1e-9 * max(1.0, abs(best))

    @pytest.mark.parametrize("seed", range(6))
    def test_in_place_sweep_has_the_bits_of_the_direct_expressions(self, seed):
        """The in-place sweep returns the bits of the whole-array
        expressions, on worksets of every size from one record, with tied
        breakpoints, a zero breakpoint and inputs not tied to a workset."""
        rng = np.random.default_rng(seed)
        for size in (1, 2, 3, 17, 1000, 20_000):
            s = np.sort(rng.uniform(0.0, 50.0, size=size))
            s[: size // 3] = np.floor(s[: size // 3])  # runs of equal breakpoints
            s[0] = 0.0 if seed % 2 else s[0]
            coef = rng.uniform(-60.0, 2.0, size=size)
            flat = rng.uniform(0.0, 4.0, size=size) ** 2
            want = oracles.sweep_min_direct(s, coef, flat)
            got = kernels.sweep_min(s, coef, flat)
            assert np.array(got).view(np.int64).tolist() == \
                np.array(want).view(np.int64).tolist(), size
