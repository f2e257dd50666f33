"""Small constructors shared across test files."""

import os

import numpy as np

from demandrec import kernels
from demandrec.data import CategoryMap, _build_log, _write_arrays
from demandrec.driver import ModelState
from demandrec.utility import FactoredUtilityMatrix


def make_log(triplets, m=None, n=None):
    trips = sorted(set(map(tuple, triplets)))
    users = np.array([t[0] for t in trips], dtype=np.int64)
    items = np.array([t[1] for t in trips], dtype=np.int64)
    slots = np.array([t[2] for t in trips], dtype=np.int64)
    if m is None:
        m = int(users.max()) + 1
    if n is None:
        n = int(items.max()) + 1
    return _build_log(users, items, slots, m=m, n=n)


def make_cats(assignment, r=None):
    a = np.asarray(assignment, dtype=np.int64)
    return CategoryMap(assignment=a, r=r if r is not None else int(a.max()) + 1)


def random_triplets(rng, m, n, l, count):
    """Exactly ``count`` distinct triplets, every user and item present."""
    assert count >= max(m, n)
    seen = set()
    for u in range(m):
        seen.add((u, int(rng.integers(n)), int(rng.integers(l))))
    for j in range(n):
        seen.add((int(rng.integers(m)), j, int(rng.integers(l))))
    while len(seen) < count:
        seen.add((int(rng.integers(m)), int(rng.integers(n)), int(rng.integers(l))))
    return sorted(seen)


def model_from_dense(X_dense, d, l):
    """ModelState wrapping an arbitrary dense utility matrix."""
    X_dense = np.asarray(X_dense, dtype=float)
    U, s, Vt = np.linalg.svd(X_dense, full_matrices=False)
    keep = s > 1e-12
    if keep.any():
        X = FactoredUtilityMatrix(
            np.ascontiguousarray(U[:, keep]), s[keep],
            np.ascontiguousarray(Vt[keep].T),
        )
    else:
        X = FactoredUtilityMatrix.zeros(*X_dense.shape)
    return ModelState(X=X, d=np.asarray(d, dtype=float), l=l)


def one_thread_run(monkeypatch, fn, *args):
    """``fn(*args)`` with no second thread: the calling thread runs both
    halves of every split pass."""
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_second", (os.getpid(), None))
        return fn(*args)


def triplet_list(log):
    return list(zip(log.users.tolist(), log.items.tolist(), log.slots.tolist()))


# the entries of a version-2 model file: the config as "key = repr" text
_V2_MODEL_SPEC = (
    ("U", "<f8", 2), ("sigma", "<f8", 1), ("V", "<f8", 2), ("d", "<f8", 1),
    ("l", "<i8", 0), ("history", "<f8", 1), ("iterations", "<i8", 0),
    ("flags", "<i8", 1), ("config", "|u1", 1),
)


def write_version_2_model(state, path):
    """Write ``state`` as the version-2 model file format laid it out, with
    a one-key config text."""
    text = "seed = 0\n"
    _write_arrays(path, b"DRECMDL\x00", 2, _V2_MODEL_SPEC, {
        "U": state.X.U, "sigma": state.X.sigma, "V": state.X.V, "d": state.d,
        "l": state.l, "history": [1.0, 0.5], "iterations": 1, "flags": [],
        "config": np.frombuffer(text.encode(), dtype=np.uint8),
    })
