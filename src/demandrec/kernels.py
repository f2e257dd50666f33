"""Numerical hot loops of the solver and the recency index.

Each kernel is a vectorized numpy function over flat arrays; none of them
loops in Python over records, pairs or slots.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# pair_values: entries of a factored matrix U diag(sigma) V^T at index pairs.
# The products (u_pj sigma_j) v_pj are added up from zero in j order, which is
# the order of einsum("pk,k,pk->p", U[pu], sigma, V[pi]), so the two agree bit
# for bit.  Pairs go in blocks, one factor column at a time, which keeps the
# transient at a few block-length vectors.  Each index block is widened to
# intp once: numpy gathers about three times slower with the int32 indices of
# the log's CSR pattern, as it converts them on every gather.  ``take`` gathers
# the same values as fancy indexing with less overhead per call.

_PAIR_BLOCK = 1 << 16


def pair_values(U, sigma, V, pair_users, pair_items):
    UT = np.ascontiguousarray((U * sigma).T)
    VT = np.ascontiguousarray(V.T)
    out = np.zeros(len(pair_users))
    for start in range(0, out.shape[0], _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        users = pair_users[block].astype(np.intp, copy=False)
        items = pair_items[block].astype(np.intp, copy=False)
        acc = out[block]
        for j in range(sigma.shape[0]):
            prod = UT[j].take(users)
            prod *= VT[j].take(items)
            acc += prod
    return out


# ---------------------------------------------------------------------------
# hinge_stats: per-pair sums of max(target - value, 0) over positive triplets
# plus the total of the squared hinges.  A triplet's target is the entry of a
# small target table at the triplet's code; pair_index maps each triplet to
# its (user, item) pair, and pairs are contiguous because triplets are stored
# sorted.  The targets are read from the table a block at a time into the one
# triplet-length array of the pair values, so they are never held for every
# triplet; the sums and the total are each one pass over that array, as they
# would be over a whole-array expression.


def hinge_stats(table, codes, pair_x, pair_index, n_pairs):
    gap = pair_x[pair_index]  # one triplet-length array, updated in place
    for start in range(0, gap.shape[0], _PAIR_BLOCK):
        block = gap[start : start + _PAIR_BLOCK]
        np.subtract(table.take(codes[start : start + _PAIR_BLOCK]), block, out=block)
        np.maximum(block, 0.0, out=block)
    sums = np.bincount(pair_index, weights=gap, minlength=n_pairs)
    return sums, float(gap @ gap)


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
