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
Every SVD is one pass of a randomized range finder: it multiplies by the
operator once and by its transpose once.  A step's sketch starts from the
current iterate's right singular vectors, which carries the subspace
iteration over from step to step.  The rest of a sketch is dense
algebra on tall-skinny blocks: CholeskyQR2 orthonormalizes them with matrix
products, and the SVD is taken of a block x block triangle instead of the
wide block x n projection.

The values x_ij at the purchased pairs are computed once per iterate, and
one hinge pass at them gives both the per-pair hinge sums and the hinge
total.  :func:`update_X` passes them on as arguments: the objective, the
gradient step and, through the :class:`Iterate` it returns, the duration
worksets read them.  Once the gradient step has built its sparse part the
iterate's pair values and sums are dropped, so the sketch and the
candidate's hinge pass run without them; only a retry after a step halving
computes them again.

A positive triplet's target depends only on its category and its recency
gap, so the targets are one table of r * (l + 1) values indexed by the
triplet codes of :class:`TripletRecency`, not one float per triplet.

Three passes of a step are as long as the purchased pairs: the pair values
and the hinge pass (see :mod:`kernels`), and the two sparse products of the
gradient-step operator.  Each runs in two halves on two threads where the
process may use two cores.  A sparse product ``S @ B`` or ``S.T @ B`` is
split by B's column halves: scipy multiplies each column on its own, so
each output column is computed by the same operations as in the whole
product, and the halves are added into one output the dense part already
filled.  The bits are those of one thread.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .data import PairStructure, TripletRecency
from .errors import ConfigError, SolverError

if TYPE_CHECKING:
    import scipy.sparse as sp

_MAX_HALVINGS = 10


def check_int_fields(config) -> None:
    """Refuse, as a ConfigError, any field of the frozen dataclass ``config``
    whose default is an int but whose value is not a true integer (a bool is
    not) below 2**63; numpy integers are stored back as ``int``."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(f.default, int):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if value >= 2**63:
                raise ConfigError(f"{f.name} must be below 2**63, got {value}")
            object.__setattr__(config, f.name, int(value))


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the alternating solver.

    Only what the solver cannot work out is a knob: every utility update
    starts from the safe step 1 / L of :func:`auto_step`, and every sketch
    takes :func:`randomized_svd`'s default oversampling.  ``tol`` stops both
    the inner proximal loop and the outer alternation on relative objective
    change; ``tol = inf`` disables the check.  ``eta = 1`` is allowed as the
    positives-only edge case.  The demand threshold ``tau`` is no solver
    knob: the fit never reads it, so the scorers take it as an argument.
    """

    eta: float = 0.5
    lam: float = 1.0
    max_rank: int = 10
    inner_iters: int = 15
    outer_iters: int = 30
    tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        check_int_fields(self)
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError(f"eta must be in (0, 1], got {self.eta}")
        if not 0.0 < self.lam < math.inf:
            raise ConfigError(f"lam must be positive and finite, got {self.lam}")
        for name in ("max_rank", "inner_iters", "outer_iters"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
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
        """Utilities of every item for a user id or for each id of an array.
        An array's rows are gathered with ``take``, which reads int32 ids (a
        log's test columns) without converting them first; one id indexes
        ``U``, which costs a single query less than a ``take`` call."""
        rows = self.U.take(user, axis=0) if isinstance(user, np.ndarray) else self.U[user]
        return (rows * self.sigma) @ self.V.T

    def matmat(self, B: np.ndarray) -> np.ndarray:
        return self.U @ (self.sigma[:, None] * (self.V.T @ B))

    def rmatmat(self, B: np.ndarray) -> np.ndarray:
        return self.V @ (self.sigma[:, None] * (self.U.T @ B))

    def frob_sq(self) -> float:
        """||X||_F^2 from the factors in O((m + n) k^2)."""
        gu = self.U.T @ self.U
        gv = self.V.T @ self.V
        return float(np.einsum("ab,b,ba,a->", gu, self.sigma, gv, self.sigma))


@dataclass(eq=False)
class HingeTargets:
    """Margin targets of the positive triplets plus the pair structure they
    live on.  The target of a triplet is ``table[codes[k]]``: the targets
    take one value per (category, gap) code of :class:`TripletRecency`, so
    the table holds r * (l + 1) of them instead of one per triplet."""

    table: np.ndarray  # len r * (l + 1), target 1 + max(0, d_c - gap) of each code
    codes: np.ndarray  # len nnz, each triplet's code, TripletRecency.codes
    pairs: PairStructure
    l: int

    def hinge(self, z_pair) -> tuple:
        """``(sums, total)``: the per-pair sums of max(a - x, 0) and the
        total of their squares at the pair values ``z_pair``, in one pass."""
        pairs = self.pairs
        return kernels.hinge_stats(self.table, self.codes, z_pair, pairs.index,
                                   pairs.counts.shape[0])


def compute_targets(rec: TripletRecency, d) -> HingeTargets:
    """Hinge targets a_ijk = 1 + max(0, d_c - t_ick) for every positive
    triplet of ``rec``'s log, as one table entry per (category, gap) code;
    infinite recency gives the plain margin 1.  Each entry is that float
    expression at its code's category and gap, so a triplet's target has
    the bits the expression gives at the triplet.  Durations must be finite
    and nonnegative."""
    d = np.asarray(d, dtype=float)
    if d.shape != (rec.r,):
        raise ConfigError(f"duration vector has shape {d.shape}, expected ({rec.r},)")
    if not np.isfinite(d).all():
        raise ConfigError("durations must be finite")
    if d.min() < 0:
        raise ConfigError("durations must be nonnegative")
    log = rec.log
    gaps = np.arange(log.l + 1, dtype=float)
    gaps[-1] = np.inf  # the gap l stands for no earlier purchase
    table = 1.0 + np.maximum(0.0, d[:, None] - gaps)
    return HingeTargets(table=table.ravel(), codes=rec.codes, pairs=log.pairs(), l=log.l)


def auto_step(targets: HingeTargets, eta: float) -> float:
    """1 / L with L = 2 (1 - eta) l + 2 eta max_ij n_ij, a global bound on
    the curvature of h, so the fixed step is always safe."""
    max_count = int(targets.pairs.counts.max())
    return 1.0 / (2.0 * (1.0 - eta) * targets.l + 2.0 * eta * max_count)


class GradStepOperator:
    """Implicit m x n matrix  G = scale * X + S  with S sparse.

    This is the gradient-step matrix X - gamma * grad h(X): the unlabeled
    term shrinks X uniformly while purchases add local corrections.
    Products with the transpose use ``S.T``, scipy's CSC view of S.
    """

    def __init__(self, scale: float, X: FactoredUtilityMatrix, S: sp.csr_matrix):
        self.scale = scale
        self.X = X
        self.S = S

    @property
    def shape(self):
        return self.S.shape

    def matmat(self, B: np.ndarray) -> np.ndarray:
        out = self.X.matmat(B)
        out *= self.scale
        return _add_sparse_product(out, self.S, B)

    def rmatmat(self, B: np.ndarray) -> np.ndarray:
        out = self.X.rmatmat(B)
        out *= self.scale
        return _add_sparse_product(out, self.S.T, B)


def _add_sparse_product(out: np.ndarray, A, B: np.ndarray) -> np.ndarray:
    """``out += A @ B`` for a scipy-sparse A, in place, with B's columns in
    two halves on two threads (:func:`kernels.in_halves`).  scipy multiplies
    each column of B on its own, so a half's columns of ``A @ B`` have the
    bits of the whole product's, and ``out`` those of ``out + A @ B``."""
    k = B.shape[1]

    def add(cols):
        out[:, cols] += A @ B[:, cols]

    kernels.in_halves(add, [slice(0, k // 2), slice(k // 2, k)] if k > 1 else [slice(0, k)])
    return out


class MatrixOperator:
    """Adapter giving a dense or scipy-sparse matrix the operator interface;
    ``A.T`` is a view for both, so no transpose is stored."""

    def __init__(self, A):
        self.A = A

    @property
    def shape(self):
        return self.A.shape

    def matmat(self, B):
        return self.A @ B

    def rmatmat(self, B):
        return self.A.T @ B


def gradient_step(
    X: FactoredUtilityMatrix,
    z_pair: np.ndarray,
    hinge_sums: np.ndarray,
    targets: HingeTargets,
    cfg: SolverConfig,
    gamma: float | None = None,
) -> GradStepOperator:
    """Build the implicit gradient-step matrix at the current X, whose
    values at the purchased pairs are ``z_pair`` and whose per-pair hinge
    sums are ``hinge_sums``.

    The dense part is scaled by 1 - 2 gamma (1 - eta) l; the sparse
    correction at a purchased pair is
    2 gamma (1 - eta) n_ij x_ij + 2 gamma eta sum_k max(a_ijk - x_ij, 0).
    ``gamma`` defaults to the safe step of :func:`auto_step`.  The step
    consumes ``hinge_sums``: it scales them in place.
    """
    eta = cfg.eta
    if gamma is None:
        gamma = auto_step(targets, eta)
    scale = 1.0 - 2.0 * gamma * (1.0 - eta) * targets.l
    if scale <= -1.0:
        raise SolverError(
            f"step size {gamma} too large (dense scale {scale:.3g} <= -1); "
            "omit gamma for the automatic step"
        )
    pairs = targets.pairs
    # c1 * counts * z + c2 * hinge_sums in that order, built in place so no
    # pair-length temporary relies on numpy eliding it
    vals = 2.0 * gamma * (1.0 - eta) * pairs.counts
    vals *= z_pair
    hinge_sums *= 2.0 * gamma * eta
    vals += hinge_sums
    return GradStepOperator(scale, X, pairs.csr(vals))


# Largest entry of Q1^T Q1 - I accepted after the first CholeskyQR pass.  It
# is about cond(Y)^2 * eps, so blocks past a condition number of about 1e8
# fail it; below it the second pass restores orthogonality to rounding.
_CHOLQR_GRAM_TOL = 0.5


def orthonormalize(Y: np.ndarray):
    """``Q, R`` with ``Y = Q R``, Q orthonormal and R upper triangular, for a
    tall block Y.

    CholeskyQR2 (Fukaya et al. 2014): two passes of R = chol(Y^T Y)^T,
    Y <- Y R^-1, so Y is read by matrix products only, with R = R2 R1.  A
    block the passes cannot orthonormalize (the Cholesky fails, values are
    not finite, or the first pass is far from orthonormal: zero and
    rank-deficient blocks, condition numbers past about 1e8) falls back to
    Householder ``np.linalg.qr``.
    """
    try:
        R = np.linalg.cholesky(Y.T @ Y).T
        Q = Y @ np.linalg.inv(R)
        gram = Q.T @ Q
        if np.abs(gram - np.eye(gram.shape[0])).max(initial=0.0) <= _CHOLQR_GRAM_TOL:
            R2 = np.linalg.cholesky(gram).T
            return Q @ np.linalg.inv(R2), R2 @ R
    except np.linalg.LinAlgError:
        pass
    return np.linalg.qr(Y)


def randomized_svd(op, rank: int, oversample: int = 10, rng=None, start=None):
    """Rank-``rank`` SVD of an implicit operator via a one-pass randomized
    range finder (Halko, Martinsson and Tropp 2011): one product with the
    operator and one with its transpose.  Deterministic given the rng state;
    never materializes the operator.

    The range finder's n x block input (block = rank + oversample, capped at
    the operator's dimensions) is Gaussian by default.  An n x c start block
    ``start`` supplies its first min(c, block) columns, and block - c
    Gaussian columns fill the rest; a start block spanning most of the
    wanted right singular subspace makes the one pass close to exact.

    Every orthonormalization is :func:`orthonormalize`'s CholeskyQR2.  The
    wide block x n matrix B = Q^T A is never factored: its transpose
    A^T Q = Qb Rb is orthonormalized, and the SVD of the block x block
    Rb^T = Ur S Vr^T gives A ~ (Q Ur) S (Qb Vr)^T.
    """
    m, n = op.shape
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    rank = min(rank, m, n)
    block = min(rank + oversample, m, n)
    rng = np.random.default_rng(rng)
    start = np.empty((n, 0)) if start is None else start[:, :block]
    omega = np.hstack([start, rng.standard_normal((n, block - start.shape[1]))])
    Q, _ = orthonormalize(op.matmat(omega))
    Qb, Rb = orthonormalize(op.rmatmat(Q))
    Ur, sig, Vrt = np.linalg.svd(Rb.T)
    return Q @ Ur[:, :rank], sig[:rank], Qb @ Vrt[:rank].T


def soft_threshold(sigma: np.ndarray, amount: float):
    """Shrink singular values by ``amount``, dropping the ones that hit 0.
    Returns the trimmed spectrum and the surviving rank."""
    shrunk = np.maximum(sigma - amount, 0.0)
    rank = int(np.count_nonzero(shrunk))
    return shrunk[:rank], rank


def hinge_objective(X: FactoredUtilityMatrix, z_pair, hinge_sq: float,
                    targets: HingeTargets, eta: float) -> float:
    """h(X): weighted hinge losses at positives plus squared shrinkage of
    everything unlabeled, from the factors, the pair values ``z_pair`` and
    the total ``hinge_sq`` of the squared hinges there."""
    pairs = targets.pairs
    zero_part = targets.l * X.frob_sq() - float((pairs.counts * z_pair * z_pair).sum())
    return eta * hinge_sq + (1.0 - eta) * zero_part


def _evaluate_at(X: FactoredUtilityMatrix, z_pair, targets: HingeTargets,
                 cfg: SolverConfig) -> tuple:
    """``(objective, hinge sums)`` at X, whose pair values are ``z_pair``,
    from one hinge pass."""
    sums, hinge_sq = targets.hinge(z_pair)
    obj = hinge_objective(X, z_pair, hinge_sq, targets, cfg.eta) + cfg.lam * float(X.sigma.sum())
    return obj, sums


def objective(X: FactoredUtilityMatrix, targets: HingeTargets, cfg: SolverConfig) -> float:
    """The joint objective h(X) + lam ||X||_* that every block update lowers."""
    pairs = targets.pairs
    return _evaluate_at(X, X.pair_values(pairs.users, pairs.items), targets, cfg)[0]


@dataclass(eq=False)
class Iterate:
    """A utility iterate as the solver hands it on: ``X``, its values ``z``
    at the log's purchased pairs (``None`` where they are not held) and its
    objective ``obj`` at the targets of its last update."""

    X: FactoredUtilityMatrix
    z: np.ndarray | None = None
    obj: float | None = None

    @property
    def rank(self) -> int:
        return self.X.rank


def update_X(it: Iterate, targets: HingeTargets, cfg: SolverConfig) -> Iterate:
    """Proximal-gradient descent on h(X) + lam ||X||_* at fixed durations.

    Each step soft-thresholds a randomized SVD of the implicit gradient-step
    matrix.  Consecutive iterates share most of their singular subspace, so
    the sketch starts from the current iterate's V (padded with Gaussian
    columns from the seeded rng): subspace iteration continued across steps
    (Halko, Martinsson and Tropp 2011, section 4.5).  A step costs one
    product with the operator and one with its transpose.  The step size
    starts at :func:`auto_step`'s 1 / L; if a step raises the objective the
    step size is halved and the step retried; repeated failures abort.

    ``it`` is updated in place and returned, holding the last accepted
    iterate, its pair values and its objective at ``targets``.  Its entry
    pair values are used if given and computed otherwise; the record lets go
    of them at once, so they are freed with the first step built.
    """
    pairs = targets.pairs
    gamma = auto_step(targets, cfg.eta)
    rng = np.random.default_rng(cfg.seed)
    z, it.z = it.z, None
    if z is None:
        z = it.X.pair_values(pairs.users, pairs.items)
    it.obj, sums = _evaluate_at(it.X, z, targets, cfg)
    halvings = 0
    accepted = 0
    while accepted < cfg.inner_iters:
        if z is None:
            # a retry after a halving: the iterate's values were dropped
            z = it.X.pair_values(pairs.users, pairs.items)
            sums = targets.hinge(z)[0]
        op = gradient_step(it.X, z, sums, targets, cfg, gamma=gamma)
        # S holds what the step needed of the iterate's pair values and
        # hinge sums, so the sketch and the candidate's hinge pass run
        # without them
        z = sums = None
        U, sig, V = randomized_svd(op, cfg.max_rank, rng=rng, start=it.X.V)
        del op  # its sparse matrix is not needed to score the candidate
        sig_new, rank = soft_threshold(sig, gamma * cfg.lam)
        cand = FactoredUtilityMatrix(U[:, :rank], sig_new, V[:, :rank])
        z = cand.pair_values(pairs.users, pairs.items)
        cand_obj, sums = _evaluate_at(cand, z, targets, cfg)
        if cand_obj > it.obj + 1e-10 * max(1.0, abs(it.obj)):
            # free the rejected step and its hinge pass before the retry
            # computes the iterate's pair values again
            z = sums = None
            del cand, U, V
            halvings += 1
            if halvings > _MAX_HALVINGS:
                raise SolverError(
                    f"objective kept increasing after {_MAX_HALVINGS} step halvings "
                    f"({it.obj:.6g} -> {cand_obj:.6g}); raise max_rank or lambda"
                )
            gamma *= 0.5
            continue
        prev = it.obj
        it.X, it.obj = cand, cand_obj
        accepted += 1
        if abs(it.obj - prev) <= cfg.tol * max(1.0, abs(prev)):
            break
    it.z = z
    if it.rank == 0:
        warnings.warn("utility matrix collapsed to rank 0; lambda may be too large")
    return it
