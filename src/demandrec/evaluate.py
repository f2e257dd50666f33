"""Demand-aware scoring, top-N ranking, and holdout metrics.

A score at (user, item, slot) is the form utility minus the time penalty
max(0, d_c - t): an item whose category was restocked too recently gets
pushed down.  Demand is predicted when the score strictly exceeds tau.

The three holdout metrics follow a per-user 90/10 protocol: each test record
(u, i, t) asks how well the model ranks item i (or its category, or its
purchase time) at slot t, with recency computed from training purchases
only.  All are averages of "top percentage" style quantities, lower better.

A top-N query is one r-key recency probe (:meth:`RecencyIndex.user_gaps`)
and four passes over the n items: the row GEMV, the penalty gather
subtracted in place, a partition of a copy that finds the ``n_top``-th
score, and one comparison that picks the items that tie or beat it.  Only
those c candidates are sorted, so a query costs O(n + c log c), not
O(n log n).  The list is a stable argsort's: highest score first, ties
toward the smaller item id, NaN scores last, each score returned as
computed (a ``+0.0`` keeps its sign).  Single queries take slots in
``[0, 2**63)``, the range of the recency keys.

The metrics work in blocks of at most ``_BLOCK_CELLS`` cells, so memory
stays bounded.  No metric builds a record's score row.  The category and
time metrics score each test user's utility row once: the first
binary-searches it, sorted within categories, and the second reads each
category's best utility from it.  The item metric scores only the target
and its sample, and draws all its samples in chunks of a fixed size,
so the draws do not depend on the block size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import RecencyIndex, _check_ints, _encode_keys, _int_ids, _is_int, _take
from .driver import ModelState

_BLOCK_CELLS = 2**18  # cells per scoring block: 2 MB of float64
# random values per draw chunk of the item metric; a constant of its own, so
# that the samples do not depend on the scoring blocks
_DRAW_CELLS = 2**18


def _penalties(model: ModelState, rec: RecencyIndex, users, slots) -> np.ndarray:
    """Time penalty max(0, d_c - t) of every category at each (user, slot)
    pair; shape ``users.shape + (r,)``."""
    users, slots = np.asarray(users), np.asarray(slots)
    t = rec.query(users[..., None], np.arange(model.r), slots[..., None])
    return np.maximum(0.0, model.d - t)


def _scores(model: ModelState, rec: RecencyIndex, users, slots) -> np.ndarray:
    """Score of every item at each (user, slot); shape ``users.shape + (n,)``."""
    penalties = _penalties(model, rec, users, slots)
    return model.X.row_scores(users) - penalties[..., rec.cats.assignment]


def _slices(count: int, step: int) -> list[slice]:
    """Slices of ``range(count)`` of ``step`` rows each, the last one partial."""
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _blocks(count: int, width: int) -> list[slice]:
    """Slices of ``range(count)``: blocks of ``_BLOCK_CELLS // width`` rows, at least one."""
    return _slices(count, max(1, _BLOCK_CELLS // width))


def _category_segments(assignment: np.ndarray, r: int):
    """``(by_cat, starts, ends)``: the item ids ordered by category, and
    where each category's segment of that order starts and ends."""
    counts = np.bincount(assignment, minlength=r)
    ends = np.cumsum(counts)
    return np.argsort(assignment, kind="stable"), ends - counts, ends


def _query_gaps(rec: RecencyIndex, user, slot) -> np.ndarray:
    """The r gaps of one query from :meth:`RecencyIndex.user_gaps`, which
    refuses ids that are not integers; a slot below 0, where every category
    would read as never bought, is the index's answer but no valid query."""
    gaps = rec.user_gaps(user, slot)
    if slot < 0:
        raise ValueError(f"slot must be >= 0, got {slot}")
    return gaps


def score(model: ModelState, rec: RecencyIndex, user: int, item: int, slot: int) -> float:
    """Demand-aware score x_ij - max(0, d_c - t) of one query; t is the
    item's category's entry of one :meth:`RecencyIndex.user_gaps` probe,
    bit for bit the broadcast ``query``'s answer.  Ids that are not integers,
    items outside ``[0, n)``, users outside ``[0, m)`` and slots below 0
    or from 2**63 on raise ``ValueError``."""
    _check_ints(item=item)
    if not 0 <= item < model.n:
        raise ValueError(f"item ids must be in [0, {model.n})")
    cat = rec.cats.assignment[item]
    penalty = float(np.maximum(0.0, model.d[cat] - _query_gaps(rec, user, slot)[cat]))
    return float((model.X.U[user] * model.X.sigma) @ model.X.V[item]) - penalty


def predict_demand(
    model: ModelState,
    rec: RecencyIndex,
    user: int,
    item: int,
    slot: int,
    tau: float,
) -> bool:
    """True when the score strictly exceeds the decision threshold ``tau``;
    the query is checked as :func:`score` checks it.  ``tau = inf``
    predicts nothing and ``-inf`` everything; a NaN raises ValueError."""
    if math.isnan(tau):
        raise ValueError("tau must not be NaN")
    return score(model, rec, user, item, slot) > tau


def recommend_topn(
    model: ModelState, rec: RecencyIndex, user: int, slot: int, n_top: int
):
    """Top ``n_top`` items for a user at a slot, highest score first, ties
    broken toward the smaller item id, NaN scores last.  Returns (item,
    score) pairs: the first ``n_top`` of a stable argsort of ``-scores``,
    with each score as computed, so a score of exactly ``+0.0`` stays
    ``+0.0``.

    The row is ``_scores(model, rec, user, slot)`` bit for bit: the GEMV
    ``(U[user] * sigma) @ V.T`` minus the penalties ``max(0, d - t)`` of
    one r-key :meth:`RecencyIndex.user_gaps` probe.  Four passes over the
    n items select from it: the GEMV, the penalty gather subtracted in
    place, a partition of a copy that finds the ``n_top``-th largest
    score, and one comparison with it whose nonzero entries, in ascending
    id order, are the candidates.  Only the candidates are stable-sorted,
    so the cost is O(n + c log c) for c candidates: ``n_top`` and the
    items tied at the boundary.

    A NaN is never a candidate, and the partition places NaNs above every
    number, so a row with NaNs may leave fewer than ``n_top`` candidates;
    then the whole row is stable-sorted.  At least ``n_top`` candidates
    always hold the answer.  Ids that are not integers, users outside
    ``[0, m)`` and slots below 0 or from 2**63 on raise ``ValueError``.
    """
    n = model.n
    if not _is_int(n_top) or not 1 <= n_top <= n:
        raise ValueError(f"n_top must be in [1, {n}], got {n_top}")
    penalties = np.maximum(0.0, model.d - _query_gaps(rec, user, slot))
    scores = model.X.row_scores(user)
    scores -= penalties.take(rec.cats.assignment)
    part = scores.copy()
    part.partition(n - n_top)
    cands = (scores >= part[n - n_top]).nonzero()[0]
    if cands.shape[0] < n_top:  # NaNs took places of the top n_top
        order = (-scores).argsort(kind="stable")[:n_top]
    else:
        order = cands.take((-scores.take(cands)).argsort(kind="stable")[:n_top])
    return list(zip(order.tolist(), scores.take(order).tolist()))


@dataclass
class MetricReport:
    """Average top-percentage metrics (lower is better) plus raw values."""

    n_records: int
    category_pct: float | None = None
    time_pct: float | None = None
    item_pct: float | None = None
    category_ranks: np.ndarray | None = None
    time_errors: np.ndarray | None = None
    item_ranks: np.ndarray | None = None

    def to_text(self) -> str:
        lines = [f"n_records = {self.n_records}"]
        for name in ("category_pct", "time_pct", "item_pct"):
            val = getattr(self, name)
            if val is not None:
                lines.append(f"{name} = {val!r}")
        return "\n".join(lines) + "\n"


def _check_test(model: ModelState, test_users, test_items, test_slots):
    """The test columns as integer arrays: int32 and int64 arrays as they
    are (a log's columns are not widened), any other integers as int64.  A
    column holding a float, a bool or a string raises ValueError naming it,
    and so does an id outside the model's dims, which an index would wrap
    round or a cast truncate to a neighbouring id."""
    names = ("test_users", "test_items", "test_slots")
    tu, ti, tk = map(_int_ids, (test_users, test_items, test_slots), names)
    if tu.shape[0] == 0:
        raise ValueError("no test records")
    if not (tu.shape == ti.shape == tk.shape):
        raise ValueError("test arrays must have matching length")
    for name, ids, bound in zip(names, (tu, ti, tk), (model.m, model.n, model.l)):
        if not 0 <= ids.min() <= ids.max() < bound:
            raise ValueError(f"{name} must be in [0, {bound})")
    return tuple(a if a.dtype in (np.int32, np.int64) else a.astype(np.int64)
                 for a in (tu, ti, tk))


def _rank(scores: np.ndarray, ids: np.ndarray, target_score, target_id) -> np.ndarray:
    """1-based rank of each row's target in ``scores``, ties toward smaller ``ids``."""
    ts, tid = target_score[:, None], target_id[:, None]
    return 1 + (scores > ts).sum(axis=1) + ((scores == ts) & (ids < tid)).sum(axis=1)


def _category_ranks_full(model, rec, tu, ti, tk) -> np.ndarray:
    """Category ranks from every record's full penalized score row."""
    assignment = rec.cats.assignment
    ranks = np.empty(tu.shape[0])
    for blk in _blocks(tu.shape[0], model.n):
        scores = _scores(model, rec, tu[blk], tk[blk])
        own = assignment.take(ti[blk])[:, None]
        best = np.argmax(np.where(assignment == own, scores, -np.inf), 1)
        ranks[blk] = _rank(scores, np.arange(model.n), scores[np.arange(len(best)), best], best)
    return ranks


def category_prediction_metric(
    model: ModelState, rec: RecencyIndex, test_users, test_items, test_slots
):
    """Average best rank of the test item's category, as a percentage.

    For each record, rank all n items by score at the record's slot and find
    the best-placed item of the same category (1-based, ties toward smaller
    ids); report mean(rank) / n * 100.

    No record's score row is built.  The penalty is one constant per
    category, and ``fl(z - p)`` is monotone in the utility ``z``, so the
    best item of a category is its largest utility whatever the slot, and
    the items of category ``c`` that outscore it form a suffix of ``c``'s
    utilities in ascending order.  Each user's utility row is sorted within
    every category once; each record then binary-searches all categories at
    once for the first item whose ``z - p_c`` beats the best item's.  A
    record where some other item ties the best's penalized score takes the
    full-row path, which breaks ties by id.  The cost is
    O(users * n * log n + records * r * log n), not O(records * n).
    """
    tu, ti, tk = _check_test(model, test_users, test_items, test_slots)
    assignment = rec.cats.assignment
    n, r = model.n, model.r
    by_cat, starts, ends = _category_segments(assignment, r)
    steps = int((ends - starts).max()).bit_length()
    order = np.argsort(tu, kind="stable")
    first = np.flatnonzero(np.diff(tu[order], prepend=-1))
    users, bounds = tu[order[first]], np.append(first, tu.shape[0])
    ranks = np.empty(tu.shape[0])
    tied = []
    for blk in _blocks(users.shape[0], n):
        # each user's utilities, ascending within each category's segment
        zs = model.X.row_scores(users[blk])[:, by_cat]
        for lo, hi in zip(starts, ends):
            zs[:, lo:hi].sort(axis=1)
        zs = zs.ravel()
        recs = order[bounds[blk.start]:bounds[blk.stop]]
        # offset of each record's user row in the flattened block
        row_of = np.repeat(np.arange(blk.stop - blk.start) * n,
                           np.diff(bounds[blk.start:blk.stop + 1]))
        for part in _blocks(recs.shape[0], r):
            idx, row = recs[part], row_of[part, None]
            pen = _penalties(model, rec, tu[idx], tk[idx])
            cat = assignment.take(ti[idx])
            own = cat[:, None] == np.arange(r)
            # the penalized score of the last, largest utility of the category
            best = (zs[row[:, 0] + ends[cat] - 1] - pen[own])[:, None]
            # first position of each category whose z - p beats the best
            lo = np.broadcast_to(starts, pen.shape).copy()
            hi = np.broadcast_to(ends, pen.shape).copy()
            for _ in range(steps):
                mid = (lo + hi) >> 1
                live = lo < hi
                beats = zs[row + np.minimum(mid, n - 1)] - pen > best
                hi = np.where(live & beats, mid, hi)
                lo = np.where(live & ~beats, mid + 1, lo)
            ranks[idx] = 1 + (ends - lo).sum(axis=1)
            # the item just below that position ties the best if any does;
            # in the record's own category that item is the best itself
            below = lo - 1 - own
            tie = (below >= starts) & (zs[row + np.maximum(below, 0)] - pen == best)
            tied.append(idx[tie.any(axis=1)])
    tied = np.concatenate(tied)
    if tied.shape[0]:
        ranks[tied] = _category_ranks_full(model, rec, tu[tied], ti[tied], tk[tied])
    return float(ranks.mean() / n * 100.0), ranks


def _distance_to_predicted(predicted: np.ndarray, l: int) -> np.ndarray:
    """dist[..., k] = slots to the nearest True along the last axis, or l if none."""
    grid = np.arange(l)
    last = np.maximum.accumulate(np.where(predicted, grid, -l), axis=-1)
    ahead = np.where(predicted, grid, 2 * l)[..., ::-1]
    first = np.minimum.accumulate(ahead, axis=-1)[..., ::-1]
    return np.minimum(np.minimum(grid - last, first - grid), l)


def time_prediction_metric(
    model: ModelState,
    rec: RecencyIndex,
    test_users,
    test_items,
    test_slots,
    tau: float,
):
    """Average distance from the true purchase slot to the nearest slot at
    which demand is predicted for any item of the record's category,
    normalized by the horizon: mean(err) / l * 100.  Records whose category
    is never predicted contribute the full horizon l.  When ``tau`` is at
    or above every group's best utility no slot can be predicted, and a
    warning says so; ``tau = -inf`` predicts every slot, and NaN is refused.

    Records are grouped by (user, category): within a group the predicted
    slots coincide, so the distance profile is computed once, from the
    category's best utility minus its penalty at each slot.  Each test
    user's utility row is scored once, in blocks of at most
    ``_BLOCK_CELLS`` cells, and every group of the user reads its
    category's best utility from it.  A group whose best utility is not
    above ``tau`` is never predicted, so it is not profiled.
    """
    if math.isnan(tau):  # no slot would be predicted
        raise ValueError("tau must not be NaN")
    tu, ti, tk = _check_test(model, test_users, test_items, test_slots)
    assignment = rec.cats.assignment
    n, l, r = model.n, model.l, model.r
    keys = _encode_keys(tu, _take(assignment, ti), 0, (model.m, r, 1))
    order = np.argsort(keys, kind="stable")
    new_group = np.diff(keys[order], prepend=-1) != 0
    group_of = np.cumsum(new_group) - 1  # group of each record in sorted order
    bounds = np.append(np.nonzero(new_group)[0], tu.shape[0])
    firsts = order[new_group]
    users, cats = tu[firsts], assignment.take(ti[firsts])
    # the best utility of every category of each distinct user, one row
    # each; a category that owns no item keeps -inf
    distinct, user_of = np.unique(users, return_inverse=True)
    by_cat, starts, ends = _category_segments(assignment, r)
    owned = starts < ends
    best = np.full((distinct.shape[0], r), -np.inf)
    for blk in _blocks(distinct.shape[0], n):
        zs = model.X.row_scores(distinct[blk])[:, by_cat]
        best[blk, owned] = np.maximum.reduceat(zs, starts[owned], axis=1)
    zmax = best[user_of, cats]
    top = float(zmax.max())
    # a penalty is >= 0 and fl(zmax - p) <= zmax, so a group whose best
    # utility is not above tau has no predicted slot: its records' error is
    # l, with no recency query; only the other groups are profiled
    live = zmax > tau
    errors = np.full(tu.shape[0], float(l))
    in_live = live[group_of]
    order, group_of = order[in_live], (np.cumsum(live) - 1)[group_of[in_live]]
    bounds = np.append(0, np.cumsum(np.diff(bounds)[live]))
    users, cats, zmax = users[live], cats[live], zmax[live]
    for blk in _blocks(users.shape[0], l):
        gu, gc = users[blk], cats[blk]
        t = rec.query(gu[:, None], gc[:, None], np.arange(l))
        predicted = zmax[blk, None] - np.maximum(0.0, model.d[gc, None] - t) > tau
        dist = _distance_to_predicted(predicted, l)
        recs = slice(bounds[blk.start], bounds[blk.stop])
        errors[order[recs]] = dist[group_of[recs] - blk.start, tk[order[recs]]]
    if tau >= top:
        warnings.warn(f"tau = {tau!r} is at or above every test group's best utility "
                      f"(largest {top!r}): no demand is predicted, so time_pct is 100")
    return float(errors.mean() / l * 100.0), errors


def _draw_others(rng, items: np.ndarray, n: int, draws: int) -> np.ndarray:
    """``draws`` distinct items per row, uniform over the n - 1 items other
    than that row's entry of ``items``.

    Below half the catalog, every row draws integers, sorts them and
    redraws only its duplicates; the procedure commutes with any relabelling
    of the items, so each set of ``draws`` items is equally likely.  From
    half on, where duplicates would take many rounds, each row takes its
    ``draws`` smallest of n - 1 uniform keys instead.

    The integers are drawn as int32 while n - 1 < 2**31: numpy gives the
    same values, and leaves the generator in the same state, as int64
    draws below that bound, and the sorts and comparisons read half the
    bytes.
    """
    rows = items.shape[0]
    if 2 * draws >= n:
        keys = rng.random((rows, n - 1))
        others = np.argpartition(keys, draws - 1, axis=1)[:, :draws]
    else:
        dtype = np.int32 if n - 1 < 2**31 else np.int64
        others = np.sort(rng.integers(0, n - 1, size=(rows, draws), dtype=dtype), axis=1)
        redo, block = np.arange(rows), others
        while True:
            dup = block[:, 1:] == block[:, :-1]
            hit = dup.any(axis=1)
            if not hit.any():
                break
            redo, block = redo[hit], block[hit]
            block[:, 1:][dup[hit]] = rng.integers(0, n - 1, size=int(dup.sum()), dtype=dtype)
            block.sort(axis=1)
            others[redo] = block
    return others + (others >= items[:, None])


def item_prediction_metric(
    model: ModelState,
    rec: RecencyIndex,
    test_users,
    test_items,
    test_slots,
    sample_size: int,
    seed: int = 0,
):
    """Average rank of the test item among itself plus ``sample_size - 1``
    uniformly sampled other items, as mean(rank) / sample_size * 100.
    ``sample_size = n`` ranks against the full catalog.

    Records draw their samples in order, in chunks of a fixed number of
    random values (:func:`_draw_others`), so the draws depend on the seed,
    the records, n and ``sample_size`` only.  Only the target and its
    sample are scored: their rows of V times the user's ``U * sigma``, minus
    their categories' penalties.  One recency query reads the penalties of
    as many whole scoring blocks as fit in ``_BLOCK_CELLS`` cells (a whole
    draw chunk at the CLI shape), and at least one block's.  The cost is
    O(records * sample_size * k).
    """
    tu, ti, tk = _check_test(model, test_users, test_items, test_slots)
    if not _is_int(sample_size) or not 1 <= sample_size <= model.n:
        raise ValueError(f"sample_size must be an integer in [1, {model.n}]: {sample_size!r}")
    rng = np.random.default_rng(seed)
    X, assignment = model.X, rec.cats.assignment
    ranks = np.empty(tu.shape[0])
    step = max(1, _BLOCK_CELLS // (sample_size * max(X.rank, 1)))  # rows per scoring block
    span = step * max(1, _BLOCK_CELLS // (step * model.r))  # rows per penalty query
    for chunk in _slices(tu.shape[0], max(1, _DRAW_CELLS // sample_size)):
        users, items, slots, out = tu[chunk], ti[chunk], tk[chunk], ranks[chunk]
        # column 0 is the target, the rest its sample
        cands = np.column_stack([items, _draw_others(rng, items, model.n, sample_size - 1)])
        for part in _slices(items.shape[0], span):
            pens = _penalties(model, rec, users[part], slots[part])
            for sub in _slices(part.stop - part.start, step):
                blk = slice(part.start + sub.start, part.start + sub.stop)
                cand = cands[blk]
                weights = (X.U.take(users[blk], axis=0) * X.sigma)[:, :, None]
                z = np.matmul(X.V.take(cand, axis=0), weights)[:, :, 0]
                scores = z - np.take_along_axis(pens[sub], assignment[cand], axis=1)
                out[blk] = _rank(scores[:, 1:], cand[:, 1:], scores[:, 0], cand[:, 0])
    return float(ranks.mean() / sample_size * 100.0), ranks
