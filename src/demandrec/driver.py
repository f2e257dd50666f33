"""Two-block alternating minimization and model persistence.

Each outer iteration solves the duration subproblem exactly (per-category
breakpoint sweeps), then runs inner proximal-gradient steps on the utility
matrix.  Both blocks can only lower the joint objective

    eta * hinge(positives) + (1 - eta) * shrinkage(unlabeled) + lam ||X||_*

so the recorded trace is non-increasing; an increase beyond float tolerance
aborts with a diagnostic.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .data import (
    CategoryMap,
    PurchaseLog,
    RecencyIndex,
    _read_arrays,
    _write_arrays,
    build_recency_index,
)
from .durations import build_worksets, update_durations
from .errors import ModelFileError, SolverError
from .utility import (
    FactoredUtilityMatrix,
    MatrixOperator,
    SolverConfig,
    compute_targets,
    objective,
    randomized_svd,
    update_X,
)

_MAGIC = b"DRECMDL\x00"
_VERSION = 2


@dataclass(eq=False)
class ModelState:
    """Fitted model: factored utilities, durations, and provenance."""

    X: FactoredUtilityMatrix
    d: np.ndarray
    config: SolverConfig
    objective_history: list
    iterations: int
    duration_flags: tuple
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
    iterations: int
    objective_history: list
    duration_flags: tuple
    seconds_per_iteration: list
    final_objective: float

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
    X: FactoredUtilityMatrix, d, rec: RecencyIndex, cfg: SolverConfig
) -> float:
    """Joint objective at (X, d) on ``rec``'s log, never touching all m*n*l cells."""
    return objective(X, compute_targets(rec, d), cfg)


def init_utility(log: PurchaseLog, cfg: SolverConfig) -> FactoredUtilityMatrix:
    """Start X from a randomized SVD of the purchase-count matrix
    sum_k p_ijk, rescaled to unit spectral norm."""
    pairs = log.pairs()
    counts = MatrixOperator(pairs.csr(pairs.counts.astype(float)))
    rng = np.random.default_rng(cfg.seed)
    U, sig, V = randomized_svd(counts, cfg.max_rank, cfg.oversample, cfg.power_iters, rng)
    keep = sig > 0
    U, sig, V = U[:, keep], sig[keep], V[:, keep]
    if sig.shape[0]:
        sig = sig / sig[0]
    return FactoredUtilityMatrix(U, sig, V)


def fit(
    log: PurchaseLog,
    cats: CategoryMap,
    cfg: SolverConfig,
    init: ModelState | None = None,
):
    """Alternate duration and utility updates until the relative objective
    change drops below ``cfg.tol`` or ``cfg.outer_iters`` is reached.

    Returns ``(ModelState, FitReport)``.  Deterministic: the same inputs and
    seed reproduce the model exactly.  ``init`` warm-starts from a previous
    state, cut to its ``cfg.max_rank`` leading singular triplets.
    """
    rec = build_recency_index(log, cats)
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

    f = evaluate_objective(X, d, rec, cfg)
    history = [f]
    flags: tuple = ()
    seconds = []
    converged = False
    iteration = 0
    for iteration in range(1, cfg.outer_iters + 1):
        t0 = time.perf_counter()
        d, flags = update_durations(build_worksets(rec, X))
        targets = compute_targets(rec, d)
        X = update_X(X, targets, cfg)
        f_new = objective(X, targets, cfg)
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

    state = ModelState(
        X=X,
        d=d,
        config=cfg,
        objective_history=list(history),
        iterations=iteration,
        duration_flags=flags,
        l=log.l,
    )
    report = FitReport(
        converged=converged,
        iterations=iteration,
        objective_history=list(history),
        duration_flags=flags,
        seconds_per_iteration=seconds,
        final_objective=f,
    )
    return state, report


# ---------------------------------------------------------------------------
# model file: the factors, durations, provenance and config text in the
# checksummed container of ``data``.  save -> load -> save is byte-identical.


def _config_text(cfg: SolverConfig) -> bytes:
    fields = sorted(f.name for f in dataclasses.fields(cfg))
    text = "".join(f"{name} = {getattr(cfg, name)!r}\n" for name in fields)
    return text.encode()


def _config_from_text(text: str) -> SolverConfig:
    values = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    defaults = SolverConfig()
    kwargs = {}
    for key, val in values.items():
        if not hasattr(defaults, key):
            raise ModelFileError(f"unknown config key in model file: {key!r}")
        kwargs[key] = type(getattr(defaults, key))(val)
    return SolverConfig(**kwargs)


_MODEL_SPEC = (
    ("U", "<f8", 2),
    ("sigma", "<f8", 1),
    ("V", "<f8", 2),
    ("d", "<f8", 1),
    ("l", "<i8", 0),
    ("history", "<f8", 1),
    ("iterations", "<i8", 0),
    ("flags", "<i8", 1),
    ("config", "|u1", 1),  # last, so it ends right before the digest
)


def save_model(state: ModelState, path) -> None:
    _write_arrays(path, _MAGIC, _VERSION, _MODEL_SPEC, {
        "U": state.X.U,
        "sigma": state.X.sigma,
        "V": state.X.V,
        "d": state.d,
        "l": state.l,
        "history": state.objective_history,
        "iterations": state.iterations,
        "flags": state.duration_flags,
        "config": np.frombuffer(_config_text(state.config), dtype=np.uint8),
    })


def load_model(path) -> ModelState:
    arrays = _read_arrays(path, _MAGIC, _VERSION, _MODEL_SPEC, ModelFileError, "model file")
    U, sigma, V = arrays["U"], arrays["sigma"], arrays["V"]
    if not U.shape[1] == sigma.shape[0] == V.shape[1]:
        raise ModelFileError(f"{path}: factor ranks disagree in model file")
    return ModelState(
        X=FactoredUtilityMatrix(U, sigma, V),
        d=arrays["d"],
        config=_config_from_text(arrays["config"].tobytes().decode()),
        objective_history=arrays["history"].tolist(),
        iterations=int(arrays["iterations"]),
        duration_flags=tuple(arrays["flags"].tolist()),
        l=int(arrays["l"]),
    )
