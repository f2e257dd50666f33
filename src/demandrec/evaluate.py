"""Demand-aware scoring, top-N ranking, and holdout metrics.

A score at (user, item, slot) is the form utility minus the time penalty
max(0, d_c - t): an item whose category was restocked too recently gets
pushed down.  Demand is predicted when the score strictly exceeds tau.

The three holdout metrics follow a per-user 90/10 protocol: each test record
(u, i, t) asks how well the model ranks item i (or its category, or its
purchase time) at slot t, with recency computed from training purchases
only.  All are averages of "top percentage" style quantities, lower better.

Top-N and the metrics score through ``_scores``; the metrics score records
in row blocks of at most ``_BLOCK_CELLS`` cells, so memory stays bounded.
The item metric still draws each record's sample with one ``rng.choice``
call, in record order, so its draws do not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RecencyIndex, _encode_keys
from .driver import ModelState

_BLOCK_CELLS = 2**18  # cells per scoring block: 2 MB of float64


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


def _blocks(count: int, width: int) -> list[slice]:
    """Slices of ``range(count)``: blocks of ``_BLOCK_CELLS // width`` rows, at least one."""
    step = max(1, _BLOCK_CELLS // width)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def score(model: ModelState, rec: RecencyIndex, user: int, item: int, slot: int) -> float:
    """Demand-aware score x_ij - max(0, d_c - t) of one query."""
    z = float((model.X.U[user] * model.X.sigma) @ model.X.V[item])
    return z - float(_penalties(model, rec, user, slot)[rec.cats.assignment[item]])


def predict_demand(
    model: ModelState,
    rec: RecencyIndex,
    user: int,
    item: int,
    slot: int,
    tau: float | None = None,
) -> bool:
    """True when the score strictly exceeds the decision threshold."""
    if tau is None:
        tau = model.config.tau
    return score(model, rec, user, item, slot) > tau


def recommend_topn(
    model: ModelState, rec: RecencyIndex, user: int, slot: int, n_top: int
):
    """Top ``n_top`` items for a user at a slot, highest score first, ties
    broken toward the smaller item id.  Returns (item, score) pairs."""
    if not 1 <= n_top <= model.n:
        raise ValueError(f"n_top must be in [1, {model.n}], got {n_top}")
    scores = _scores(model, rec, user, slot)
    order = np.argsort(-scores, kind="stable")[:n_top]
    return [(int(j), float(scores[j])) for j in order]


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


def _check_test(test_users, test_items, test_slots):
    tu, ti, tk = (np.asarray(a, dtype=np.int64) for a in (test_users, test_items, test_slots))
    if tu.shape[0] == 0:
        raise ValueError("no test records")
    if not (tu.shape == ti.shape == tk.shape):
        raise ValueError("test arrays must have matching length")
    return tu, ti, tk


def _rank(scores: np.ndarray, ids: np.ndarray, target_score, target_id) -> np.ndarray:
    """1-based rank of each row's target in ``scores``, ties toward smaller ``ids``."""
    ts, tid = target_score[:, None], target_id[:, None]
    return 1 + (scores > ts).sum(axis=1) + ((scores == ts) & (ids < tid)).sum(axis=1)


def category_prediction_metric(
    model: ModelState, rec: RecencyIndex, test_users, test_items, test_slots
):
    """Average best rank of the test item's category, as a percentage.

    For each record, rank all n items by score at the record's slot and find
    the best-placed item of the same category (1-based, ties toward smaller
    ids); report mean(rank) / n * 100.
    """
    tu, ti, tk = _check_test(test_users, test_items, test_slots)
    assignment = rec.cats.assignment
    ranks = np.empty(tu.shape[0])
    for blk in _blocks(tu.shape[0], model.n):
        scores = _scores(model, rec, tu[blk], tk[blk])
        best = np.argmax(np.where(assignment == assignment[ti[blk], None], scores, -np.inf), 1)
        ranks[blk] = _rank(scores, np.arange(model.n), scores[np.arange(len(best)), best], best)
    return float(ranks.mean() / model.n * 100.0), ranks


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
    tau: float | None = None,
):
    """Average distance from the true purchase slot to the nearest slot at
    which demand is predicted for any item of the record's category,
    normalized by the horizon: mean(err) / l * 100.  Records whose category
    is never predicted contribute the full horizon l.

    Records are grouped by (user, category): within a group the predicted
    slots coincide, so the distance profile is computed once, from the
    category's best utility minus its penalty at each slot.
    """
    tu, ti, tk = _check_test(test_users, test_items, test_slots)
    tau = model.config.tau if tau is None else tau
    assignment = rec.cats.assignment
    l = model.l
    keys = _encode_keys(tu, assignment[ti], 0, (model.m, model.r, 1))
    order = np.argsort(keys, kind="stable")
    new_group = np.diff(keys[order], prepend=-1) != 0
    group_of = np.cumsum(new_group) - 1  # group of each record in sorted order
    bounds = np.append(np.nonzero(new_group)[0], tu.shape[0])
    users, cats = tu[order[new_group]], assignment[ti[order[new_group]]]
    errors = np.empty(tu.shape[0])
    for blk in _blocks(users.shape[0], max(model.n, l)):
        gu, gc = users[blk], cats[blk]
        # no purchase precedes slot 0, so these rows carry no penalty
        utility = _scores(model, rec, gu, np.zeros_like(gu))
        zmax = np.where(assignment == gc[:, None], utility, -np.inf).max(axis=1)
        t = rec.query(gu[:, None], gc[:, None], np.arange(l))
        predicted = zmax[:, None] - np.maximum(0.0, model.d[gc, None] - t) > tau
        dist = _distance_to_predicted(predicted, l)
        recs = slice(bounds[blk.start], bounds[blk.stop])
        errors[order[recs]] = dist[group_of[recs] - blk.start, tk[order[recs]]]
    return float(errors.mean() / l * 100.0), errors


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
    ``sample_size = n`` ranks against the full catalog."""
    tu, ti, tk = _check_test(test_users, test_items, test_slots)
    if not 1 <= sample_size <= model.n:
        raise ValueError(f"sample_size must be in [1, {model.n}], got {sample_size}")
    rng = np.random.default_rng(seed)
    n_others, n_draws = model.n - 1, sample_size - 1
    ranks = np.empty(tu.shape[0])
    for blk in _blocks(tu.shape[0], model.n):
        items = ti[blk]
        others = np.array([rng.choice(n_others, n_draws, replace=False) for _ in items])
        others += others >= items[:, None]
        scores = _scores(model, rec, tu[blk], tk[blk])
        target = scores[np.arange(items.shape[0]), items]
        ranks[blk] = _rank(np.take_along_axis(scores, others, axis=1), others, target, items)
    return float(ranks.mean() / sample_size * 100.0), ranks
