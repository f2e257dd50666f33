"""Demand-aware scoring, top-N ranking, and holdout metrics.

A score at (user, item, slot) is the form utility minus the time penalty
max(0, d_c - t): an item whose category was restocked too recently gets
pushed down.  Demand is predicted when the score strictly exceeds tau.

The three holdout metrics follow a per-user 90/10 protocol: each test record
(u, i, t) asks how well the model ranks item i (or its category, or its
purchase time) at slot t, with recency computed from training purchases
only.  All are averages of "top percentage" style quantities, lower better.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RecencyIndex, _encode_keys
from .driver import ModelState


def _penalties(model: ModelState, rec: RecencyIndex, users, slots) -> np.ndarray:
    """Time penalty max(0, d_c - t) of every category at each (user, slot)
    pair; shape ``users.shape + (r,)``."""
    users, slots = np.asarray(users), np.asarray(slots)
    t = rec.query(users[..., None], np.arange(model.r), slots[..., None])
    return np.maximum(0.0, model.d - t)


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
    scores = model.X.row_scores(user) - _penalties(model, rec, user, slot)[rec.cats.assignment]
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
    tu = np.asarray(test_users, dtype=np.int64)
    ti = np.asarray(test_items, dtype=np.int64)
    tk = np.asarray(test_slots, dtype=np.int64)
    if tu.shape[0] == 0:
        raise ValueError("no test records")
    if not (tu.shape == ti.shape == tk.shape):
        raise ValueError("test arrays must have matching length")
    return tu, ti, tk


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
    idx = np.arange(model.n)
    pens = _penalties(model, rec, tu, tk)
    ranks = np.empty(tu.shape[0])
    z_row = None
    last_user = -1
    for rec_i in range(tu.shape[0]):
        u, i, k = int(tu[rec_i]), int(ti[rec_i]), int(tk[rec_i])
        if u != last_user:
            z_row = model.X.row_scores(u)
            last_user = u
        scores = z_row - pens[rec_i][assignment]
        cat_items = np.nonzero(assignment == assignment[i])[0]
        sub = scores[cat_items]
        best = cat_items[int(np.argmax(sub))]
        sb = scores[best]
        ranks[rec_i] = 1 + (scores > sb).sum() + ((scores == sb) & (idx < best)).sum()
    return float(ranks.mean() / model.n * 100.0), ranks


def _distance_to_predicted(predicted: np.ndarray, l: int) -> np.ndarray:
    """dist[k] = slots to the nearest True entry, or l when there is none."""
    idx = np.nonzero(predicted)[0]
    if idx.shape[0] == 0:
        return np.full(l, l, dtype=np.int64)
    grid = np.arange(l)
    pos = np.searchsorted(idx, grid)
    right = np.where(pos < idx.shape[0], idx[np.minimum(pos, idx.shape[0] - 1)] - grid, l)
    left = np.where(pos > 0, grid - idx[np.maximum(pos - 1, 0)], l)
    return np.minimum(left, right)


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
    slots coincide, so the distance profile is computed once.
    """
    tu, ti, tk = _check_test(test_users, test_items, test_slots)
    if tau is None:
        tau = model.config.tau
    assignment = rec.cats.assignment
    l = model.l
    grid = np.arange(l)
    cats_of = assignment[ti]
    keys = _encode_keys(tu, cats_of, 0, (model.m, model.r, 1))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    bounds = np.append(np.nonzero(np.append(True, keys[1:] != keys[:-1]))[0], keys.shape[0])
    errors = np.empty(tu.shape[0])
    z_row = None
    last_user = -1
    for pos, end in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        u = int(tu[order[pos]])
        c = int(cats_of[order[pos]])
        if u != last_user:
            z_row = model.X.row_scores(u)
            last_user = u
        zmax = float(z_row[assignment == c].max())
        pen = np.maximum(0.0, model.d[c] - rec.query(u, c, grid))
        predicted = zmax - pen > tau
        dist = _distance_to_predicted(predicted, l)
        errors[order[pos:end]] = dist[tk[order[pos:end]]]
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
    assignment = rec.cats.assignment
    pens = _penalties(model, rec, tu, tk)
    ranks = np.empty(tu.shape[0])
    for rec_i in range(tu.shape[0]):
        u, i, k = int(tu[rec_i]), int(ti[rec_i]), int(tk[rec_i])
        others = rng.choice(model.n - 1, size=sample_size - 1, replace=False)
        others[others >= i] += 1
        pool = np.append(others, i)
        z = (model.X.U[u] * model.X.sigma) @ model.X.V[pool].T
        scores = z - pens[rec_i][assignment[pool]]
        si = scores[-1]
        ranks[rec_i] = (
            1 + (scores[:-1] > si).sum() + ((scores[:-1] == si) & (others < i)).sum()
        )
    return float(ranks.mean() / sample_size * 100.0), ranks
