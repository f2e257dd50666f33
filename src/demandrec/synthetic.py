"""Synthetic purchase histories with known utilities and durations.

Ground truth is a rank-``rank`` utility matrix normalized to [0, 1] and one
inter-purchase duration per category (10, 20, ..., 10r slots).  Purchases
are simulated slot by slot: a (user, item) pair can fire only when the
utility clears 0.5 and the user's recency in the item's category has reached
the category duration (an untouched category counts as infinitely recent);
eligible events are observed with probability ``obs_prob`` and every
purchase resets the user-category clock.  Same-slot purchases never block
each other because recency looks strictly backwards.  Noise then adds
``ceil(noise_ratio * nnz)`` purchases at a uniform set of the empty
(user, item, slot) cells, drawn at once without replacement.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import CategoryMap, PurchaseLog, _build_log, _decode_keys, _encode_keys, check_rules
from .errors import ConfigError, DataFormatError
from .utility import AT_LEAST_1, FINITE, IN_0_1, check_config, config_key, seed_key

NOISE_RATIO_RULES = (FINITE, (">= 0", lambda value: value >= 0))


@dataclass(frozen=True)
class SynthSpec:
    """Shape and knobs of one synthetic instance."""

    m: int = config_key(1000, "synthetic user count", AT_LEAST_1)
    n: int = config_key(1000, "synthetic item count", AT_LEAST_1)
    l: int = config_key(200, "synthetic time slot count", AT_LEAST_1)
    r: int = config_key(10, "synthetic category count", AT_LEAST_1)
    rank: int = config_key(10, "latent rank of the synthetic utility matrix", AT_LEAST_1)
    obs_prob: float = config_key(0.5, "probability an eligible purchase is observed", IN_0_1)
    noise_ratio: float = config_key(0.0, "noisy positives to add, as a fraction of nnz",
                                    *NOISE_RATIO_RULES)
    seed: int = seed_key()

    def __post_init__(self):
        check_config(self)


@dataclass(eq=False)
class SynthInstance:
    """A generated log plus the ground truth that produced it."""

    log: PurchaseLog
    cats: CategoryMap
    d_true: np.ndarray
    x_true: np.ndarray
    spec: SynthSpec


def true_durations(r: int) -> np.ndarray:
    """Category durations 10, 20, ..., 10r."""
    return 10.0 * (np.arange(r) + 1)


def gen_form_utility(spec: SynthSpec) -> np.ndarray:
    """Rank-``spec.rank`` utility matrix W H^T with Gaussian(1, 0.5) factor
    entries, min-max normalized to [0, 1]."""
    rng = np.random.default_rng([spec.seed, 0])
    W = rng.normal(1.0, 0.5, size=(spec.m, spec.rank))
    H = rng.normal(1.0, 0.5, size=(spec.n, spec.rank))
    X = W @ H.T
    lo, hi = X.min(), X.max()
    if hi == lo:
        warnings.warn("degenerate utility matrix: all entries equal")
        return np.zeros_like(X)
    return (X - lo) / (hi - lo)


def simulate_purchases(x_true: np.ndarray, spec: SynthSpec) -> SynthInstance:
    """Run the slot-by-slot simulation and package the result.

    Categories are assigned uniformly at random.  Eligibility is tracked per
    (user, category) group since one purchase resets the whole category for
    that user; recency updates take effect from the next slot.
    """
    if x_true.shape != (spec.m, spec.n):
        raise ConfigError(
            f"utility matrix has shape {x_true.shape}, spec says {(spec.m, spec.n)}"
        )
    assignment = np.random.default_rng([spec.seed, 1]).integers(0, spec.r, size=spec.n)
    cats = CategoryMap(assignment=assignment.astype(np.int64), r=spec.r)
    d_true = true_durations(spec.r)

    elig_u, elig_i = np.nonzero(x_true >= 0.5)
    if elig_u.shape[0] == 0:
        raise DataFormatError("no (user, item) pair clears the utility threshold 0.5")
    # nonzero lists items in ascending order within each (user, category) group
    keys = _encode_keys(elig_u, assignment[elig_i], 0, (spec.m, spec.r, 1))
    order = np.argsort(keys, kind="stable")
    eu, ei, keys = elig_u[order], elig_i[order], keys[order]
    new_group = np.append(True, keys[1:] != keys[:-1])
    g_start = np.append(np.nonzero(new_group)[0], eu.shape[0])
    group_of = np.cumsum(new_group) - 1
    g_dur = d_true[assignment[ei[g_start[:-1]]]]

    rng = np.random.default_rng([spec.seed, 2])
    last = np.full(g_dur.shape[0], np.iinfo(np.int64).min // 2, dtype=np.int64)
    out_u, out_i, out_k = [], [], []
    for k in range(spec.l):
        ready = np.nonzero(k - last >= g_dur)[0]
        if ready.shape[0] == 0:
            continue
        starts = g_start[ready]
        cnt = g_start[ready + 1] - starts
        pool = np.repeat(starts - (np.cumsum(cnt) - cnt), cnt) + np.arange(cnt.sum())
        buy = pool[rng.random(pool.shape[0]) < spec.obs_prob]
        if buy.shape[0] == 0:
            continue
        out_u.append(eu[buy])
        out_i.append(ei[buy])
        out_k.append(np.full(buy.shape[0], k, dtype=np.int64))
        last[group_of[buy]] = k
    if not out_u:
        raise DataFormatError("simulation produced no purchases")
    # the horizon is part of the spec even if late slots are empty
    log = _build_log(
        np.concatenate(out_u), np.concatenate(out_i), np.concatenate(out_k),
        m=spec.m, n=spec.n, l=spec.l,
    )
    return SynthInstance(log=log, cats=cats, d_true=d_true, x_true=x_true, spec=spec)


def generate(spec: SynthSpec) -> SynthInstance:
    """Utility matrix + simulation + optional noise, all from one spec."""
    inst = simulate_purchases(gen_form_utility(spec), spec)
    if spec.noise_ratio > 0:
        inst = flip_noise(inst, spec.noise_ratio, seed=spec.seed)
    return inst


def flip_noise(inst: SynthInstance, noise_ratio: float, seed: int) -> SynthInstance:
    """Add exactly ceil(noise_ratio * nnz) positive triplets that are not
    already present (0 -> 1 flips), a uniform set of that many zero cells.
    A negative or non-finite ``noise_ratio`` is a ConfigError.

    One draw without replacement picks the ranks of the new cells among the
    zero cells.  The log's sorted keys ``existing`` turn a rank ``q`` into
    its cell: ``existing[j] - j`` zero cells lie below ``existing[j]``, so
    the cell is ``q`` plus the number of present keys with
    ``existing[j] - j <= q``."""
    check_rules("noise_ratio", noise_ratio, NOISE_RATIO_RULES)
    log = inst.log
    count = math.ceil(noise_ratio * log.nnz)
    if count == 0:
        return inst
    cells = log.m * log.n * log.l
    if log.nnz + count > cells:
        raise ConfigError("noise_ratio asks for more flips than there are zero cells")
    radices = (log.m, log.n, log.l)
    existing = _encode_keys(log.users, log.items, log.slots, radices)  # sorted, as the log
    rng = np.random.default_rng([seed, 3])
    # sorted needles search about ten times faster on a dense grid
    ranks = np.sort(rng.choice(cells - log.nnz, count, replace=False, shuffle=False))
    existing -= np.arange(log.nnz)
    picked = ranks + np.searchsorted(existing, ranks, side="right")
    users, items, slots = _decode_keys(picked, radices)
    noisy = _build_log(
        np.concatenate([log.users, users]),
        np.concatenate([log.items, items]),
        np.concatenate([log.slots, slots]),
        m=log.m,
        n=log.n,
        l=log.l,
    )
    assert noisy.nnz == log.nnz + count
    return replace(inst, log=noisy)


def duration_error(d_est, d_true) -> float:
    """Relative L2 error ||d_est - d_true|| / ||d_true||."""
    d_est = np.asarray(d_est, dtype=float)
    d_true = np.asarray(d_true, dtype=float)
    if d_est.shape != d_true.shape:
        raise ValueError(f"shape mismatch: {d_est.shape} vs {d_true.shape}")
    denom = np.linalg.norm(d_true)
    if denom == 0:
        raise ValueError("true durations are all zero")
    return float(np.linalg.norm(d_est - d_true) / denom)


def rank_demo(seed: int, m: int = 50, n: int = 100, rank: int = 10):
    """Spectra illustrating why durations must be separated from utilities.

    X = U V^T is exactly rank ``rank``; subtracting an entrywise rectified
    Gaussian time penalty H = max(0, d - t) yields B = X - H which is
    generically full rank.  Returns (singular values of X, of B).
    """
    if min(m, n, rank) < 1:
        raise ConfigError(f"rank demo m, n, rank must all be >= 1, got {m}, {n}, {rank}")
    rng = np.random.default_rng([seed, 4])
    U = rng.normal(1.0, 0.5, size=(m, rank))
    V = rng.normal(1.0, 0.5, size=(n, rank))
    X = U @ V.T
    d = rng.normal(1.0, 0.5, size=(m, n))
    t = rng.normal(1.0, 0.5, size=(m, n))
    B = X - np.maximum(0.0, d - t)
    return (
        np.linalg.svd(X, compute_uv=False),
        np.linalg.svd(B, compute_uv=False),
    )
