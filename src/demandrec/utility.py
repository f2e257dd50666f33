"""Low-rank form-utility updates via proximal gradient steps.

With durations fixed, the utility matrix X minimizes

    h(X) = eta * sum_{positives} max(a_ijk - x_ij, 0)^2
         + (1 - eta) * sum_{unlabeled} x_ij^2        (+ lam * ||X||_*)

where a_ijk = 1 + max(0, d_c - t) is the margin target of a positive triplet.
The gradient step X - gamma * grad h(X) is a uniform scaling of X plus a
sparse correction supported on purchased pairs, so it is applied implicitly:
block products cost O((m + n) k b) for the factored part plus O(nnz_pairs b)
for the sparse part, and the proximal step is a randomized SVD followed by
singular-value soft-thresholding.  The full matrix is never materialized.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import kernels
from .data import PairStructure, RecencyIndex
from .errors import ConfigError, SolverError

_MAX_HALVINGS = 10


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the alternating solver.

    ``gamma = 0`` selects the automatic step size from the gradient's
    Lipschitz bound.  ``tol`` stops both the inner proximal loop and the
    outer alternation on relative objective change; ``tol = inf`` disables
    the check.  ``eta = 1`` is allowed as the positives-only edge case.
    """

    eta: float = 0.5
    lam: float = 1.0
    tau: float = 0.5
    gamma: float = 0.0
    max_rank: int = 10
    oversample: int = 10
    power_iters: int = 2
    inner_iters: int = 15
    outer_iters: int = 30
    tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError(f"eta must be in (0, 1], got {self.eta}")
        if not self.lam > 0.0:
            raise ConfigError(f"lambda must be positive, got {self.lam}")
        if not self.gamma >= 0.0:
            raise ConfigError(f"gamma must be nonnegative, got {self.gamma}")
        if not math.isfinite(self.tau):
            raise ConfigError(f"tau must be finite, got {self.tau}")
        if self.max_rank < 1:
            raise ConfigError(f"max_rank must be >= 1, got {self.max_rank}")
        if self.oversample < 0:
            raise ConfigError(f"oversample must be >= 0, got {self.oversample}")
        if self.power_iters < 0:
            raise ConfigError(f"power_iters must be >= 0, got {self.power_iters}")
        if self.inner_iters < 1 or self.outer_iters < 1:
            raise ConfigError("iteration limits must be >= 1")
        if not self.tol > 0.0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


@dataclass(eq=False)
class FactoredUtilityMatrix:
    """X = U diag(sigma) V^T with orthonormal factors, sigma descending."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def __post_init__(self) -> None:
        # Contiguous layout keeps BLAS rounding identical no matter how the
        # factors were produced (sliced sketch vs. file round trip).
        self.U = np.ascontiguousarray(self.U, dtype=np.float64)
        self.sigma = np.ascontiguousarray(self.sigma, dtype=np.float64)
        self.V = np.ascontiguousarray(self.V, dtype=np.float64)

    @property
    def m(self) -> int:
        return self.U.shape[0]

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def rank(self) -> int:
        return self.sigma.shape[0]

    @classmethod
    def zeros(cls, m: int, n: int) -> "FactoredUtilityMatrix":
        return cls(np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0)))

    def pair_values(self, pair_users, pair_items) -> np.ndarray:
        """x_ij at the given index pairs."""
        return kernels.pair_values(self.U, self.sigma, self.V, pair_users, pair_items)

    def row_scores(self, user: int) -> np.ndarray:
        """Utilities of every item for a user id or for each id of an array."""
        return (self.U[user] * self.sigma) @ self.V.T

    def matmat(self, B: np.ndarray) -> np.ndarray:
        return self.U @ (self.sigma[:, None] * (self.V.T @ B))

    def rmatmat(self, B: np.ndarray) -> np.ndarray:
        return self.V @ (self.sigma[:, None] * (self.U.T @ B))

    def frob_sq(self) -> float:
        """||X||_F^2 from the factors in O((m + n) k^2)."""
        gu = self.U.T @ self.U
        gv = self.V.T @ self.V
        return float(np.einsum("ab,b,ba,a->", gu, self.sigma, gv, self.sigma))

    def dense(self) -> np.ndarray:
        return (self.U * self.sigma) @ self.V.T


@dataclass(eq=False)
class HingeTargets:
    """Per-triplet margin targets plus the pair structure they live on."""

    a: np.ndarray  # len nnz, target 1 + max(0, d_c - t)
    pairs: PairStructure
    m: int
    n: int
    l: int


def compute_targets(rec: RecencyIndex, d) -> HingeTargets:
    """Hinge targets a_ijk = 1 + max(0, d_c - t_ick) for every positive
    triplet of ``rec``'s log; infinite recency gives the plain margin 1."""
    d = np.asarray(d, dtype=float)
    if d.shape != (rec.r,):
        raise ConfigError(f"duration vector has shape {d.shape}, expected ({rec.r},)")
    if d.min() < 0:
        raise ConfigError("durations must be nonnegative")
    t = rec.triplet_recency()
    a = 1.0 + np.maximum(0.0, d[rec.triplet_categories()] - t)
    log = rec.log
    return HingeTargets(a=a, pairs=log.pairs(), m=log.m, n=log.n, l=log.l)


def auto_step(targets: HingeTargets, eta: float) -> float:
    """1 / L with L = 2 (1 - eta) l + 2 eta max_ij n_ij, a global bound on
    the curvature of h, so the fixed step is always safe."""
    max_count = int(targets.pairs.counts.max())
    return 1.0 / (2.0 * (1.0 - eta) * targets.l + 2.0 * eta * max_count)


class GradStepOperator:
    """Implicit m x n matrix  G = scale * X + S  with S sparse.

    This is the gradient-step matrix X - gamma * grad h(X): the unlabeled
    term shrinks X uniformly while purchases add local corrections.
    """

    def __init__(self, scale: float, X: FactoredUtilityMatrix, S: sp.csr_matrix):
        self.scale = scale
        self.X = X
        self.S = S
        self.ST = S.T.tocsr()

    @property
    def shape(self):
        return self.S.shape

    def matmat(self, B: np.ndarray) -> np.ndarray:
        return self.scale * self.X.matmat(B) + self.S @ B

    def rmatmat(self, B: np.ndarray) -> np.ndarray:
        return self.scale * self.X.rmatmat(B) + self.ST @ B

    def dense(self) -> np.ndarray:
        return self.scale * self.X.dense() + self.S.toarray()


class MatrixOperator:
    """Adapter giving a dense or scipy-sparse matrix the operator interface."""

    def __init__(self, A):
        self.A = A
        self.AT = A.T.tocsr() if sp.issparse(A) else A.T

    @property
    def shape(self):
        return self.A.shape

    def matmat(self, B):
        return self.A @ B

    def rmatmat(self, B):
        return self.AT @ B


def gradient_step(
    X: FactoredUtilityMatrix,
    targets: HingeTargets,
    cfg: SolverConfig,
    gamma: float | None = None,
) -> GradStepOperator:
    """Build the implicit gradient-step matrix at the current X.

    The dense part is scaled by 1 - 2 gamma (1 - eta) l; the sparse
    correction at a purchased pair is
    2 gamma (1 - eta) n_ij x_ij + 2 gamma eta sum_k max(a_ijk - x_ij, 0).
    """
    eta = cfg.eta
    if gamma is None:
        gamma = cfg.gamma if cfg.gamma > 0 else auto_step(targets, eta)
    scale = 1.0 - 2.0 * gamma * (1.0 - eta) * targets.l
    if scale <= -1.0:
        raise SolverError(
            f"step size {gamma} too large (dense scale {scale:.3g} <= -1); "
            "use gamma = 0 for the automatic step"
        )
    pairs = targets.pairs
    z_pair = X.pair_values(pairs.users, pairs.items)
    hinge_sums, _ = kernels.hinge_stats(targets.a, z_pair, pairs.index, pairs.counts.shape[0])
    vals = (
        2.0 * gamma * (1.0 - eta) * pairs.counts * z_pair
        + 2.0 * gamma * eta * hinge_sums
    )
    S = sp.csr_matrix((vals, pairs.items, pairs.indptr), shape=(targets.m, targets.n))
    return GradStepOperator(scale, X, S)


def randomized_svd(op, rank: int, oversample: int = 10, power_iters: int = 2, rng=None):
    """Rank-``rank`` SVD of an implicit operator via a Gaussian range finder
    with re-orthonormalized subspace iterations.  Deterministic given the
    rng state; never materializes the operator."""
    m, n = op.shape
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    rank = min(rank, m, n)
    block = min(rank + oversample, m, n)
    rng = np.random.default_rng(rng)
    omega = rng.standard_normal((n, block))
    Q, _ = np.linalg.qr(op.matmat(omega))
    for _ in range(power_iters):
        Z, _ = np.linalg.qr(op.rmatmat(Q))
        Q, _ = np.linalg.qr(op.matmat(Z))
    B = op.rmatmat(Q).T
    Ub, sig, Vt = np.linalg.svd(B, full_matrices=False)
    return Q @ Ub[:, :rank], sig[:rank], Vt[:rank].T


def soft_threshold(sigma: np.ndarray, amount: float):
    """Shrink singular values by ``amount``, dropping the ones that hit 0.
    Returns the trimmed spectrum and the surviving rank."""
    shrunk = np.maximum(sigma - amount, 0.0)
    rank = int(np.count_nonzero(shrunk))
    return shrunk[:rank], rank


def hinge_objective(X: FactoredUtilityMatrix, targets: HingeTargets, eta: float) -> float:
    """h(X): weighted hinge losses at positives plus squared shrinkage of
    everything unlabeled, computed from the factors and the sparse pairs."""
    pairs = targets.pairs
    z_pair = X.pair_values(pairs.users, pairs.items)
    _, hinge_sq = kernels.hinge_stats(targets.a, z_pair, pairs.index, pairs.counts.shape[0])
    zero_part = targets.l * X.frob_sq() - float((pairs.counts * z_pair * z_pair).sum())
    return eta * hinge_sq + (1.0 - eta) * zero_part


def objective(X: FactoredUtilityMatrix, targets: HingeTargets, cfg: SolverConfig) -> float:
    """The joint objective h(X) + lam ||X||_* that every block update lowers."""
    return hinge_objective(X, targets, cfg.eta) + cfg.lam * float(X.sigma.sum())


def update_X(
    X: FactoredUtilityMatrix, targets: HingeTargets, cfg: SolverConfig
) -> FactoredUtilityMatrix:
    """Proximal-gradient descent on h(X) + lam ||X||_* at fixed durations.

    Each accepted step is randomized-SVD + soft-thresholding of the implicit
    gradient-step matrix.  If a step raises the objective the step size is
    halved and the step retried; repeated failures abort.
    """
    gamma = cfg.gamma if cfg.gamma > 0 else auto_step(targets, cfg.eta)
    rng = np.random.default_rng(cfg.seed)
    obj = objective(X, targets, cfg)
    halvings = 0
    accepted = 0
    while accepted < cfg.inner_iters:
        op = gradient_step(X, targets, cfg, gamma=gamma)
        U, sig, V = randomized_svd(op, cfg.max_rank, cfg.oversample, cfg.power_iters, rng)
        sig_new, rank = soft_threshold(sig, gamma * cfg.lam)
        cand = FactoredUtilityMatrix(U[:, :rank], sig_new, V[:, :rank])
        cand_obj = objective(cand, targets, cfg)
        if cand_obj > obj + 1e-10 * max(1.0, abs(obj)):
            halvings += 1
            if halvings > _MAX_HALVINGS:
                raise SolverError(
                    f"objective kept increasing after {_MAX_HALVINGS} step halvings "
                    f"({obj:.6g} -> {cand_obj:.6g}); raise max_rank or lambda"
                )
            gamma *= 0.5
            continue
        prev = obj
        X, obj = cand, cand_obj
        accepted += 1
        if abs(obj - prev) <= cfg.tol * max(1.0, abs(prev)):
            break
    if X.rank == 0:
        warnings.warn("utility matrix collapsed to rank 0; lambda may be too large")
    return X
