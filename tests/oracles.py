"""Independent reference implementations used to pin expected values.

Everything here favors clarity over speed: explicit loops, dense matrices,
full SVDs, set-based bookkeeping.  Tests compare the package's fast paths
against these; intentionally no imports from the package itself.
"""

import csv
import math

import numpy as np


def label_order(labels):
    """Deterministic label order: numeric if every label parses as int,
    otherwise lexicographic."""
    out = sorted(set(labels))
    try:
        out.sort(key=int)
    except ValueError:
        pass
    return out


def parse_purchases(path, granularity=1.0):
    """Reference CSV parse: returns (triplets, m, n, l, user_order, item_order)
    with triplets sorted and deduplicated."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for row in csv.reader(handle):
            if not row:
                continue
            rows.append((row[0].strip(), row[1].strip(), int(row[2].strip())))
    day0 = min(day for _, _, day in rows)
    user_order = label_order(u for u, _, _ in rows)
    item_order = label_order(i for _, i, _ in rows)
    uid = {lab: pos for pos, lab in enumerate(user_order)}
    iid = {lab: pos for pos, lab in enumerate(item_order)}
    trips = sorted({
        (uid[u], iid[i], int((day - day0) // granularity)) for u, i, day in rows
    })
    l = max(k for _, _, k in trips) + 1
    return trips, len(user_order), len(item_order), l, user_order, item_order


def recency_scan(triplets, assignment, user, cat, slot):
    """Brute-force strict-predecessor recency over raw triplets."""
    best = None
    for u, j, k in triplets:
        if u == user and assignment[j] == cat and k < slot:
            best = k if best is None else max(best, k)
    return math.inf if best is None else float(slot - best)


def decode_codes(rec):
    """(categories, gaps) of a triplet recency's codes c * (l + 1) + gap,
    the gaps as floats with inf where the code holds the no-purchase gap l."""
    span = rec.log.l + 1
    cats, gaps = np.divmod(rec.codes.astype(np.int64), span)
    gaps = gaps.astype(float)
    gaps[gaps == span - 1] = math.inf
    return cats, gaps


def triplet_targets(targets):
    """Each triplet's hinge target, read from the target table at its code."""
    return targets.table[targets.codes.astype(np.int64)]


def block_sum_of_squares(values, block):
    """The sum of squares of ``values`` as the hinge total takes it: numpy's
    sum of each block's squares, the block totals added left to right."""
    total = 0.0
    for start in range(0, len(values), block):
        part = values[start : start + block]
        total += float((part * part).sum())
    return total


def category_objective(ws, d):
    """A duration workset's category objective at one d, summed directly."""
    pen = np.maximum(0.0, d - ws.t)
    gap = np.maximum(1.0 - (ws.z - pen), 0.0)
    return float(gap @ gap) + ws.constant_loss


def dense_factored(X):
    """The dense matrix U diag(sigma) V^T of a factored utility matrix."""
    return (X.U * X.sigma) @ X.V.T


def dense_step(op):
    """The dense matrix scale * X + S of a gradient-step operator."""
    return op.scale * dense_factored(op.X) + op.S.toarray()


def duration_loss(zs, ts, d):
    """Direct per-record hinge loss sum at duration d (t may be inf)."""
    total = 0.0
    for z, t in zip(zs, ts):
        pen = max(0.0, d - t) if math.isfinite(t) else 0.0
        total += max(1.0 - (z - pen), 0.0) ** 2
    return total


def grid_min_duration(zs, ts, d_max, step=1e-4):
    """Dense 1-D grid search over [0, d_max]; returns (d, loss) at the grid
    minimum (first index on ties)."""
    grid = np.arange(0.0, d_max + step, step)
    total = np.zeros_like(grid)
    for z, t in zip(zs, ts):
        pen = np.maximum(0.0, grid - t) if math.isfinite(t) else 0.0
        total += np.maximum(1.0 - (z - pen), 0.0) ** 2
    q = int(np.argmin(total))
    return float(grid[q]), float(total[q])


def sweep_min_direct(s, coef, flat):
    """The duration sweep's interval optima as direct whole-array
    expressions, each temporary its own array: ``(d, g)`` of the first
    least candidate."""
    q = np.arange(1, s.shape[0] + 1)
    f_run = np.cumsum(coef)
    w_run = np.cumsum(coef * coef)
    r_run = flat.sum() - np.cumsum(flat)
    s_next = np.append(s[1:], np.inf)
    d_cand = np.clip(-f_run / q, s, s_next)
    g_cand = q * d_cand * d_cand + 2.0 * f_run * d_cand + w_run + r_run
    best = int(np.argmin(g_cand))
    return float(d_cand[best]), float(g_cand[best])


def dense_objective(X, d, triplets, assignment, l, eta, lam):
    """Full objective evaluated cell by cell over the m x n x l cube."""
    m, n = X.shape
    pos = set(triplets)
    total = 0.0
    for i in range(m):
        for j in range(n):
            for k in range(l):
                if (i, j, k) in pos:
                    t = recency_scan(triplets, assignment, i, assignment[j], k)
                    pen = max(0.0, d[assignment[j]] - t) if math.isfinite(t) else 0.0
                    total += eta * max(1.0 - (X[i, j] - pen), 0.0) ** 2
                else:
                    total += (1.0 - eta) * X[i, j] ** 2
    return total + lam * np.linalg.svd(X, compute_uv=False).sum()


def pair_counts(triplets):
    counts = {}
    for u, j, _ in triplets:
        counts[(u, j)] = counts.get((u, j), 0) + 1
    return counts


def dense_h(X, triplets, targets, eta, l):
    """Smooth part of the X-subproblem objective, summed cell by cell."""
    counts = pair_counts(triplets)
    total = 0.0
    for (u, j, _), a in zip(triplets, targets):
        total += eta * max(a - X[u, j], 0.0) ** 2
    m, n = X.shape
    for i in range(m):
        for j in range(n):
            total += (1.0 - eta) * (l - counts.get((i, j), 0)) * X[i, j] ** 2
    return total


def dense_grad_h(X, triplets, targets, eta, l):
    counts = pair_counts(triplets)
    m, n = X.shape
    G = np.empty_like(X)
    for i in range(m):
        for j in range(n):
            G[i, j] = 2.0 * (1.0 - eta) * (l - counts.get((i, j), 0)) * X[i, j]
    for (u, j, _), a in zip(triplets, targets):
        G[u, j] -= 2.0 * eta * max(a - X[u, j], 0.0)
    return G


def fd_grad_h(X, triplets, targets, eta, l, eps=1e-6):
    """Central finite differences of dense_h, entry by entry."""
    G = np.empty_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            up = X.copy()
            up[i, j] += eps
            dn = X.copy()
            dn[i, j] -= eps
            G[i, j] = (dense_h(up, triplets, targets, eta, l)
                       - dense_h(dn, triplets, targets, eta, l)) / (2.0 * eps)
    return G


def dense_prox_reference(X0, triplets, targets, eta, lam, gamma, l, iters, tol):
    """Dense proximal-gradient run with full SVDs; mirrors the documented
    stopping rule (relative objective change <= tol)."""

    def objective(Xd):
        sigma = np.linalg.svd(Xd, compute_uv=False)
        return dense_h(Xd, triplets, targets, eta, l) + lam * sigma.sum()

    X = X0.copy()
    f = objective(X)
    history = [f]
    for _ in range(iters):
        G = X - gamma * dense_grad_h(X, triplets, targets, eta, l)
        U, s, Vt = np.linalg.svd(G, full_matrices=False)
        s = np.maximum(s - gamma * lam, 0.0)
        X = (U * s) @ Vt
        f_new = objective(X)
        history.append(f_new)
        if abs(f - f_new) / max(1.0, abs(f)) <= tol:
            break
        f = f_new
    return X, history


def rank_with_tiebreak(scores, target):
    """1-based rank of scores[target], ties broken toward smaller index."""
    s = scores[target]
    rank = 1
    for idx, value in enumerate(scores):
        if value > s or (value == s and idx < target):
            rank += 1
    return rank
