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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import RecencyIndex


@dataclass(eq=False)
class CategoryWorkSet:
    """Finite-recency records of one category, sorted by breakpoint."""

    category: int
    z: np.ndarray  # pair utilities, sorted by s
    t: np.ndarray  # finite recency gaps, sorted by s
    s: np.ndarray  # breakpoints t + max(z - 1, 0), ascending
    constant_loss: float  # summed flat losses of infinite-recency records

    @property
    def size(self) -> int:
        return self.s.shape[0]


def build_worksets(rec: RecencyIndex, X) -> list[CategoryWorkSet]:
    """One workset per category of ``rec`` from the current utilities.

    Every finite-recency positive triplet lands in exactly one workset;
    infinite-recency ones only contribute their flat loss.
    """
    pairs = rec.log.pairs()
    z_pair = X.pair_values(pairs.users, pairs.items)
    z_trip = z_pair[pairs.index]
    t_trip = rec.triplet_recency()
    order, bounds = rec.category_slices()

    worksets = []
    for cat in range(rec.r):
        idx = order[bounds[cat] : bounds[cat + 1]]
        z = z_trip[idx]
        t = t_trip[idx]
        finite = np.isfinite(t)
        const = 0.0
        if not finite.all():
            zi = z[~finite]
            flat_inf = np.maximum(1.0 - zi, 0.0)
            const = float(flat_inf @ flat_inf)
            z = z[finite]
            t = t[finite]
        s = t + np.maximum(z - 1.0, 0.0)
        sort = np.argsort(s, kind="stable")
        worksets.append(
            CategoryWorkSet(
                category=cat,
                z=z[sort],
                t=t[sort],
                s=s[sort],
                constant_loss=const,
            )
        )
    return worksets


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
    coef = 1.0 - ws.z - ws.t
    flat = np.maximum(1.0 - ws.z, 0.0) ** 2
    d_star, g_min = kernels.sweep_min(ws.s, coef, flat)
    return float(max(d_star, 0.0)), float(g_min + ws.constant_loss)


def category_objective(ws: CategoryWorkSet, d: float) -> float:
    """Direct evaluation of the category objective at one d (for checks)."""
    pen = np.maximum(0.0, d - ws.t)
    gap = np.maximum(1.0 - (ws.z - pen), 0.0)
    return float(gap @ gap) + ws.constant_loss


def update_durations(worksets: list[CategoryWorkSet]):
    """Solve every category subproblem exactly.

    Returns ``(d, empty_categories)`` where ``d`` is the new duration vector
    and ``empty_categories`` lists categories that had no finite-recency
    records; those keep the default duration 0.
    """
    d = np.zeros(len(worksets))
    empty = []
    for i, ws in enumerate(worksets):
        res = sweep_category(ws)
        if res is None:
            empty.append(ws.category)
        else:
            d[i] = res[0]
    return d, tuple(empty)
