"""Exact per-category inter-purchase duration updates.

With the utility matrix fixed, each positive triplet contributes to its
category's duration objective a loss

    max(1 - (z - max(0, d - t)), 0)^2

where z is the current utility of the triplet's (user, item) pair and t its
recency gap.  As a function of d this is flat at max(1-z, 0)^2 up to the
breakpoint s = t + max(z-1, 0) and a rising quadratic (d + 1 - z - t)^2
beyond it, so the category objective is piecewise quadratic with one
breakpoint per record.  Sorting the breakpoints and sweeping the intervals
with O(1) running-sum updates minimizes it exactly in O(Q log Q).

Triplets with infinite recency (no earlier purchase in the category) never
leave the flat regime; their losses are folded into ``constant_loss``.

The update holds one category at a time: :func:`build_worksets` yields each
category's workset as it is built, and :func:`update_durations` sweeps it and
drops it before the next one is built.  Besides the arrays shared by all
categories (the code permutation, the sorted codes and the pair utilities),
the largest category's workset and its sweep are all that is alive at the
peak.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import _CHUNK_TRIPLETS, TripletRecency, _search, _take


@dataclass(eq=False)
class CategoryWorkSet:
    """Finite-recency records of one category, sorted by breakpoint."""

    category: int
    z: np.ndarray  # pair utilities, sorted by s
    t: np.ndarray  # finite recency gaps, sorted by s
    s: np.ndarray  # breakpoints t + max(z - 1, 0), ascending; t itself when every z <= 1
    constant_loss: float  # summed flat losses of infinite-recency records

    @property
    def size(self) -> int:
        return self.s.shape[0]


def build_worksets(rec: TripletRecency, z_pair) -> Iterator[CategoryWorkSet]:
    """One workset per category of ``rec`` from the current utilities
    ``z_pair``, their values at the log's purchased pairs, yielded in
    category order, each built when it is asked for.

    One stable argsort of ``rec.codes`` groups the triplets: a code is
    ``c * (l + 1) + gap``, so in that order each category's triplets are a
    slice, in (gap, storage) order, with its triplets without an earlier
    purchase last and in storage order.  For 2-byte codes numpy radix-sorts,
    so the grouping costs O(nnz) at any r.  The permutation is held as
    int32 while the triplets' count fits, and it and the sorted codes live
    only until the last workset is built; the utilities are gathered per
    category through ``pairs.index``, so no per-triplet utility array is
    held beside them.  The work runs as the worksets are taken, not when
    this is called.  Every finite-recency positive triplet lands in exactly
    one workset; infinite-recency ones only contribute their flat loss.

    Where every z of a category is at most 1, each breakpoint equals its
    gap, and the (gap, storage) order is the permutation the stable float
    sort of ``s`` gives.  A category with some z above 1 is put back in
    storage order and stable-sorted by ``s``.
    """
    span = rec.log.l + 1
    pairs = rec.log.pairs()
    order = np.argsort(rec.codes, kind="stable")
    if order.shape[0] < 2**31:
        order = order.astype(np.int32)
    codes = _take(rec.codes, order)
    # where each category's slice starts and where its no-purchase part starts
    firsts = np.arange(rec.r, dtype=np.int64)[:, None] * span + [0, span - 1]
    bounds = [*_search(codes, firsts.ravel()).tolist(), codes.shape[0]]
    for cat in range(rec.r):
        lo, mid, hi = bounds[2 * cat : 2 * cat + 3]
        # built in a call of its own, so no array of it stays behind here
        # while the caller sweeps it
        yield _workset(cat, order[lo:mid], codes[lo:mid], cat * span, order[mid:hi],
                       z_pair, pairs.index)


def _gather(z_pair, pair_index, idx) -> np.ndarray:
    """The utilities of the triplets ``idx``, a chunk at a time, so no
    index array of the whole length is built."""
    out = np.empty(idx.shape[0])
    for lo in range(0, idx.shape[0], _CHUNK_TRIPLETS):
        chunk = slice(lo, lo + _CHUNK_TRIPLETS)
        z_pair.take(pair_index.take(idx[chunk]), out=out[chunk])
    return out


def _workset(cat: int, finite, codes, base: int, never, z_pair,
             pair_index) -> CategoryWorkSet:
    """The workset of category ``cat`` from its finite-recency triplets
    ``finite`` in (gap, storage) order, their ``codes`` (gap plus ``base``)
    and its triplets ``never`` without an earlier purchase."""
    const = 0.0
    if never.shape[0]:
        flat_inf = np.maximum(1.0 - _gather(z_pair, pair_index, never), 0.0)
        # numpy's sum, in an order BLAS's thread count does not change
        np.square(flat_inf, out=flat_inf)
        const = float(flat_inf.sum())
        del flat_inf
    z = _gather(z_pair, pair_index, finite)
    t = codes.astype(np.float64)
    t -= base
    if (z <= 1.0).all():
        return CategoryWorkSet(category=cat, z=z, t=t, s=t, constant_loss=const)
    # storage order, then the stable float sort of the breakpoints
    back = np.argsort(finite)
    z = z[back]
    t = t[back]
    del back
    s = t + np.maximum(z - 1.0, 0.0)
    sort = np.argsort(s, kind="stable")
    # one sorted copy at a time, each replacing its input
    z = z[sort]
    t = t[sort]
    s = s[sort]
    return CategoryWorkSet(category=cat, z=z, t=t, s=s, constant_loss=const)


def sweep_category(ws: CategoryWorkSet):
    """Exact minimizer of the category objective over d >= 0.

    Returns ``(d_star, g_min)`` with ``g_min`` including ``constant_loss``,
    or ``None`` when the workset has no finite-recency records and therefore
    does not constrain the duration at all.

    The sweep scans the intervals between consecutive breakpoints from left
    to right, keeping the first strict improvement.  The interval left of the
    first breakpoint is constant and, by continuity, its value reappears as
    the first interval's left-edge candidate, so the scan starts there; on a
    flat minimum this returns the smallest breakpoint.
    """
    if ws.size == 0:
        return None
    # 1 - z - t and max(1 - z, 0)^2, each in one array
    coef = 1.0 - ws.z
    coef -= ws.t
    flat = 1.0 - ws.z
    np.maximum(flat, 0.0, out=flat)
    flat **= 2
    d_star, g_min = kernels.sweep_min(ws.s, coef, flat)
    return float(max(d_star, 0.0)), float(g_min + ws.constant_loss)


def update_durations(worksets: Iterable[CategoryWorkSet]):
    """Solve every category subproblem exactly, one workset at a time, in
    the order ``worksets`` gives them (one per category, in category order,
    as :func:`build_worksets` yields them).  Each workset is dropped once it
    is swept, so a generator's next one is built without it.

    Returns ``(d, empty_categories)`` where ``d`` is the new duration vector
    and ``empty_categories`` lists categories that had no finite-recency
    records; those keep the default duration 0.
    """
    d = []
    empty = []
    for ws in worksets:
        res = sweep_category(ws)
        if res is None:
            empty.append(ws.category)
        d.append(0.0 if res is None else res[0])
        del ws
    return np.array(d), tuple(empty)
