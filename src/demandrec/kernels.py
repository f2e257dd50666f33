"""Numerical hot loops of the solver and the recency index.

Each kernel is a vectorized numpy function over flat arrays; none of them
loops in Python over records, pairs or slots.

The two pair-length passes of the solver, :func:`pair_values` and
:func:`hinge_stats`, run on two cores where the process may use two: the
pairs (or triplets) are split at the block boundary nearest the middle, the
calling thread runs the first half's blocks and a second thread the other
half's, each writing into its own part of the one output array
(:func:`in_halves`).  numpy's gathers, element-wise loops and sums release
the interpreter lock, so the halves overlap.  Every output value is computed by
the same operations on the same inputs whichever thread runs its block, and
every reduction is taken in an order the code fixes (per block, then in
block order), so the bits depend neither on the split nor on the thread
count.  No kernel reduces through BLAS, whose order depends on how many
threads it runs.
"""

from __future__ import annotations

import os
import threading

import numpy as np


# ---------------------------------------------------------------------------
# in_halves: the second thread.  A process has one, made on first use, since
# like BLAS's own pool it belongs to the cores, not to a caller; importing
# this module starts nothing.  It is remade in a forked child, where the
# parent's thread does not run.  With one usable CPU there is none, and the
# calling thread runs both halves in order.

_second = None  # (pid, executor or None)
_second_lock = threading.Lock()


def _second_thread():
    global _second
    with _second_lock:
        if _second is None or _second[0] != os.getpid():
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            executor = None
            if cpus > 1:
                from concurrent.futures import ThreadPoolExecutor

                executor = ThreadPoolExecutor(max_workers=1,
                                              thread_name_prefix="demandrec-half")
            _second = (os.getpid(), executor)
        return _second[1]


def in_halves(work, halves) -> None:
    """``work(half)`` for each of one or two ``halves``: the first in the
    calling thread, the second in the process's second thread if it has one.
    Both have finished when this returns, and an exception of either is
    raised.  ``work`` must not itself call :func:`in_halves`."""
    first, *rest = halves
    executor = _second_thread() if rest else None
    if executor is None:
        for half in halves:
            work(half)
        return
    future = executor.submit(work, rest[0])
    try:
        work(first)
    finally:
        future.result()  # the second half is done before anything is read


def _split(n: int) -> list:
    """``[(0, mid), (mid, n)]``, split at the ``_PAIR_BLOCK`` boundary
    nearest n / 2, or ``[(0, n)]`` when that boundary is an end."""
    mid = round(n / (2 * _PAIR_BLOCK)) * _PAIR_BLOCK
    return [(0, mid), (mid, n)] if 0 < mid < n else [(0, n)]


# ---------------------------------------------------------------------------
# pair_values: entries of a factored matrix U diag(sigma) V^T at index pairs.
# The products (u_pj sigma_j) v_pj are added up from zero in j order, which is
# the order of einsum("pk,k,pk->p", U[pu], sigma, V[pi]), so the two agree bit
# for bit.  Pairs go in blocks, one factor column at a time, which keeps the
# transient at a few block-length vectors.  Each index block is widened to
# intp once: numpy gathers about three times slower with the int32 indices of
# the log's CSR pattern, as it converts them on every gather.  ``take`` gathers
# the same values as fancy indexing with less overhead per call.  The blocks of
# each half of the pairs (``_split``) go to one thread; at 2**15 pairs a block,
# two threads hold the transient one thread held at 2**16.

_PAIR_BLOCK = 1 << 15


def pair_values(U, sigma, V, pair_users, pair_items):
    UT = np.ascontiguousarray((U * sigma).T)
    VT = np.ascontiguousarray(V.T)
    out = np.zeros(len(pair_users))

    def fill(half):
        for start in range(*half, _PAIR_BLOCK):
            block = slice(start, start + _PAIR_BLOCK)
            users = pair_users[block].astype(np.intp, copy=False)
            items = pair_items[block].astype(np.intp, copy=False)
            acc = out[block]
            for j in range(sigma.shape[0]):
                prod = UT[j].take(users)
                prod *= VT[j].take(items)
                acc += prod

    in_halves(fill, _split(out.shape[0]))
    return out


# ---------------------------------------------------------------------------
# hinge_stats: per-pair sums of max(target - value, 0) over positive triplets
# plus the total of the squared hinges.  A triplet's target is the entry of a
# small target table at the triplet's code; pair_index maps each triplet to
# its (user, item) pair, and pairs are contiguous because triplets are stored
# sorted.  Each block of triplets gathers its pair values into its part of the
# one triplet-length gap array and subtracts them from its targets, read from
# the table, in place; so the targets are never held for every triplet.  The
# blocks of each half of the triplets go to one thread.  The per-pair sums are
# one bincount pass over the whole array, as over a whole-array expression.
# The total is fixed by the code: each block's squares are summed by numpy,
# and the block totals are added in block order.


def hinge_stats(table, codes, pair_x, pair_index, n_pairs):
    n = pair_index.shape[0]
    gap = np.empty(n)
    block_sq = np.empty(-(-n // _PAIR_BLOCK))

    def fill(half):
        sq = np.empty(min(_PAIR_BLOCK, half[1] - half[0]))
        for start in range(*half, _PAIR_BLOCK):
            block = gap[start : start + _PAIR_BLOCK]
            pair_x.take(pair_index[start : start + _PAIR_BLOCK], out=block)
            np.subtract(table.take(codes[start : start + _PAIR_BLOCK]), block, out=block)
            np.maximum(block, 0.0, out=block)
            squares = np.multiply(block, block, out=sq[: block.shape[0]])
            block_sq[start // _PAIR_BLOCK] = squares.sum()

    in_halves(fill, _split(n))
    sums = np.bincount(pair_index, weights=gap, minlength=n_pairs)
    total = 0.0
    for part in block_sq.tolist():
        total += part
    return sums, total


# ---------------------------------------------------------------------------
# strict_prev_gap: for slot sequences sorted ascending within groups, the gap
# to the closest strictly smaller slot in the same group, in the slots' dtype;
# ``none`` where there is none.  Equal slots share a predecessor, so same-slot
# purchases never see each other.  The run starts are propagated in place, so
# besides the output at most two index-length integer arrays are alive at once.


def strict_prev_gap(slots, new_group, none):
    n = slots.shape[0]
    out = np.full(n, none, dtype=slots.dtype)
    if n == 0:
        return out
    run_start = new_group.copy()
    run_start[0] = True
    run_start[1:] |= slots[1:] != slots[:-1]
    # index of the start of each equal-slot run, propagated forward
    start_idx = np.arange(n)
    start_idx[~run_start] = -1
    del run_start
    np.maximum.accumulate(start_idx, out=start_idx)
    has_prev = ~new_group[start_idx] & (start_idx > 0)
    # the gap to the last slot before each run, kept only where has_prev
    start_idx -= 1
    gap = slots[start_idx]
    del start_idx
    np.subtract(slots, gap, out=gap)
    np.copyto(out, gap, where=has_prev)
    return out


# ---------------------------------------------------------------------------
# sweep_min: exact minimizer of a piecewise-quadratic duration objective
#
#   g(d) = sum_t  { flat[t]           if d <= s[t]
#                 { (d + coef[t])^2   if d >  s[t]
#
# with s ascending.  On the interval [s_q, s_{q+1}] the sum collapses to
# q*d^2 + 2*F_q*d + W_q + R_q with running sums F_q = sum coef[:q],
# W_q = sum coef[:q]^2, R_q = sum flat[q:], so each interval is minimized in
# O(1) and the whole sweep in O(Q).  argmin takes the first minimum, so the
# smallest interval optimum wins ties.


def sweep_min(s, coef, flat):
    """``(d, g)``: the first interval optimum of least ``g`` among the
    candidates ``d_q = clip(-F_q / q, s_q, s_{q+1})`` (``s_{Q+1} = inf``)
    with values ``g_q = q*d_q*d_q + 2*F_q*d_q + W_q + R_q``.

    Each expression is evaluated operation by operation in that order, in
    place, so the result has the bits of the direct expressions.  The
    running sums F, W and R take turns in one array, each added to ``g``
    before the next is summed, so the sweep holds three sweep-length arrays
    (q, then g; the running sum; d) besides its inputs."""
    q = np.arange(1.0, s.shape[0] + 1)  # exact integers, as an int q converts
    run = np.cumsum(coef)  # F
    d_cand = np.negative(run)
    d_cand /= q
    # clip to [s_q, s_{q+1}]; the last interval is unbounded above
    np.clip(d_cand[:-1], s[:-1], s[1:], out=d_cand[:-1])
    np.clip(d_cand[-1:], s[-1:], np.inf, out=d_cand[-1:])
    g_cand = q  # q*d*d + 2*F*d + W + R, left to right, in q's array
    g_cand *= d_cand
    g_cand *= d_cand
    run *= 2.0
    run *= d_cand
    g_cand += run
    np.multiply(coef, coef, out=run)
    np.cumsum(run, out=run)  # W
    g_cand += run
    np.cumsum(flat, out=run)
    np.subtract(flat.sum(), run, out=run)  # R
    g_cand += run
    best = int(np.argmin(g_cand))
    return float(d_cand[best]), float(g_cand[best])
