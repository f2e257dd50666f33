"""Two-block alternating minimization and model persistence.

Each outer iteration solves the duration subproblem exactly (a breakpoint
sweep per category, built and swept one category at a time), then runs inner
proximal-gradient steps on the utility matrix.  Both blocks can only lower the joint objective

    eta * hinge(positives) + (1 - eta) * shrinkage(unlabeled) + lam ||X||_*

so the recorded trace is non-increasing; an increase beyond float tolerance
aborts with a diagnostic.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
import time
from dataclasses import dataclass

import numpy as np

from .data import (
    CategoryMap,
    PurchaseLog,
    TripletRecency,
    _read_arrays,
    _write_arrays,
    triplet_recency,
)
from .durations import build_worksets, update_durations
from .errors import DataFormatError, ModelFileError, SolverError
from .utility import (
    FactoredUtilityMatrix,
    Iterate,
    MatrixOperator,
    SolverConfig,
    _evaluate_at,
    compute_targets,
    objective,
    randomized_svd,
    update_X,
)

_MAGIC = b"DRECMDL\x00"
_VERSION = 6


@dataclass(eq=False)
class ModelState:
    """Fitted model: the factored utilities ``X``, the category durations
    ``d`` and the horizon ``l``; a score is ``x_ij - max(0, d_c - t)``.
    The fit's trajectory is its FitReport's."""

    X: FactoredUtilityMatrix
    d: np.ndarray
    l: int

    @property
    def m(self) -> int:
        return self.X.m

    @property
    def n(self) -> int:
        return self.X.n

    @property
    def r(self) -> int:
        return self.d.shape[0]


@dataclass(eq=False)
class FitReport:
    converged: bool
    objective_history: list  # the starting objective, then one per iteration
    duration_flags: tuple
    seconds_per_iteration: list

    @property
    def iterations(self) -> int:
        return len(self.seconds_per_iteration)

    @property
    def final_objective(self) -> float:
        return self.objective_history[-1]

    def to_text(self) -> str:
        lines = [
            f"converged = {self.converged}",
            f"iterations = {self.iterations}",
            f"final_objective = {self.final_objective!r}",
            f"empty_categories = {','.join(map(str, self.duration_flags))}",
        ]
        for i, (obj, sec) in enumerate(
            zip(self.objective_history[1:], self.seconds_per_iteration), start=1
        ):
            lines.append(f"iteration_{i} = {obj!r} ({sec:.2f}s)")
        return "\n".join(lines) + "\n"


def evaluate_objective(
    X: FactoredUtilityMatrix, d, rec: TripletRecency, cfg: SolverConfig
) -> float:
    """Joint objective at (X, d) on ``rec``'s log, never touching all m*n*l cells."""
    return objective(X, compute_targets(rec, d), cfg)


def init_utility(log: PurchaseLog, cfg: SolverConfig) -> FactoredUtilityMatrix:
    """Start X from a cold Gaussian sketch of the purchase-count matrix
    sum_k p_ijk, rescaled to unit spectral norm."""
    pairs = log.pairs()
    counts = MatrixOperator(pairs.csr(pairs.counts.astype(float)))
    rng = np.random.default_rng(cfg.seed)
    U, sig, V = randomized_svd(counts, cfg.max_rank, rng=rng)
    keep = sig > 0
    U, sig, V = U[:, keep], sig[keep], V[:, keep]
    if sig.shape[0]:
        sig = sig / sig[0]
    return FactoredUtilityMatrix(U, sig, V)


# ---------------------------------------------------------------------------
# BLAS held at one thread while a fit runs.  The solver's pair-length passes
# take the second core (kernels.in_halves), where a second BLAS thread would
# compete for it; and at the solver's block widths a second BLAS thread buys
# little.  The thread count is OpenBLAS's, set through the functions the
# library numpy links exports; where none is found (another BLAS, or an
# OpenBLAS without them) the hold does nothing.

_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_calls():
    """``(get, set)`` of the BLAS thread count numpy uses, or ``None``.  The
    symbols are looked up through numpy's core extension, whose handle also
    searches the libraries it links."""
    try:
        core = getattr(np, "_core", None) or np.core
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


_blas_hold_lock = threading.Lock()
_blas_hold = [0, None]  # fits running, and the thread count before the first


@contextlib.contextmanager
def _one_blas_thread():
    """Hold BLAS at one thread, and restore the count found on entry once
    the last of the fits running at once has left."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _blas_hold_lock:
        if _blas_hold[0] == 0:
            _blas_hold[1] = get()
            set_(1)
        _blas_hold[0] += 1
    try:
        yield
    finally:
        with _blas_hold_lock:
            _blas_hold[0] -= 1
            if _blas_hold[0] == 0:
                set_(_blas_hold[1])


def fit(
    log: PurchaseLog,
    cats: CategoryMap,
    cfg: SolverConfig,
    init: ModelState | None = None,
):
    """Alternate duration and utility updates until the relative objective
    change drops below ``cfg.tol`` or ``cfg.outer_iters`` is reached.

    Returns ``(ModelState, FitReport)``.  Deterministic: the same inputs and
    seed reproduce the model exactly, on any number of cores.  ``init``
    warm-starts from a previous state, cut to its ``cfg.max_rank`` leading
    singular triplets.  While it runs, OpenBLAS is held at one thread, and
    its thread count is restored on return or on an exception; with
    another BLAS the count is left alone.
    """
    with _one_blas_thread():
        return _fit(log, cats, cfg, init)


def _fit(log: PurchaseLog, cats: CategoryMap, cfg: SolverConfig,
         init: ModelState | None):
    if log.nnz == 0:
        raise DataFormatError("purchase log contains no records")
    rec = triplet_recency(log, cats)
    if init is not None:
        if init.m != log.m or init.n != log.n or init.r != cats.r:
            raise SolverError("warm-start state does not match the data dimensions")
        X = init.X
        if X.rank > cfg.max_rank:
            # the first objective must be the truncated model's: no step can
            # win back what cutting to the rank cap adds
            k = cfg.max_rank
            X = FactoredUtilityMatrix(X.U[:, :k], X.sigma[:k], X.V[:, :k])
        d = init.d.copy()
    else:
        X = init_utility(log, cfg)
        d = np.zeros(cats.r)

    # the starting values at the pairs also build the first round's worksets
    pairs = log.pairs()
    z = X.pair_values(pairs.users, pairs.items)
    f = _evaluate_at(X, z, compute_targets(rec, d), cfg)[0]
    # the record is the only holder of the iterate, so update_X frees each
    # one it replaces
    it = Iterate(X, z, f)
    del X, z
    history = [f]
    flags: tuple = ()
    seconds = []
    converged = False
    for iteration in range(1, cfg.outer_iters + 1):
        t0 = time.perf_counter()
        # each category's workset is built as the update asks for it
        d, flags = update_durations(build_worksets(rec, it.z))
        targets = compute_targets(rec, d)
        it = update_X(it, targets, cfg)
        f_new = it.obj
        # the next round's worksets are built without this round's targets
        del targets
        seconds.append(time.perf_counter() - t0)
        if f_new > f + 1e-8 * max(1.0, abs(f)):
            raise SolverError(
                f"objective increased across outer iteration {iteration}: "
                f"{f:.8g} -> {f_new:.8g}"
            )
        rel = abs(f_new - f) / max(1.0, abs(f))
        history.append(f_new)
        f = f_new
        if rel < cfg.tol:
            # a single iteration cannot witness stabilization; the trivial
            # stop (e.g. tol = inf) is recorded as not converged
            converged = iteration >= 2
            break

    state = ModelState(X=it.X, d=d, l=log.l)
    report = FitReport(converged=converged, objective_history=history, duration_flags=flags,
                       seconds_per_iteration=seconds)
    return state, report


# ---------------------------------------------------------------------------
# model file, version 6: the factors, the durations and the horizon, in the
# checksummed container of ``data``.  The config that fitted them is
# ``train``'s resolved_train.cfg.  Older versions are refused.
# save -> load -> save is byte-identical.

_MODEL_SPEC = (
    ("U", "<f8", 2),
    ("sigma", "<f8", 1),
    ("V", "<f8", 2),
    ("d", "<f8", 1),
    ("l", "<i8", 0),
)


def save_model(state: ModelState, path) -> None:
    _write_arrays(path, _MAGIC, _VERSION, _MODEL_SPEC, {
        "U": state.X.U,
        "sigma": state.X.sigma,
        "V": state.X.V,
        "d": state.d,
        "l": state.l,
    })


def load_model(path) -> ModelState:
    arrays = _read_arrays(path, _MAGIC, _VERSION, _MODEL_SPEC, ModelFileError, "model file")
    U, sigma, V = arrays["U"], arrays["sigma"], arrays["V"]
    if not U.shape[1] == sigma.shape[0] == V.shape[1]:
        raise ModelFileError(f"{path}: factor ranks disagree in model file")
    return ModelState(X=FactoredUtilityMatrix(U, sigma, V), d=arrays["d"], l=int(arrays["l"]))
