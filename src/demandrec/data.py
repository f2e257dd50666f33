"""Purchase-log ingestion, category maps, recency lookups, splitting, and the
checksummed binary container of the split bundle and the model file.

The central object is a :class:`PurchaseLog`: a deduplicated, lexicographically
sorted set of (user, item, slot) triplets with dense integer ids.  Slots are
time bins of configurable granularity.  A :class:`RecencyIndex` answers "how
many slots since user i last purchased anything in category c strictly before
slot k", which is the time feature the solver and the predictor consume; its
``query`` takes arrays that broadcast, so one call answers a whole batch.

Every sort, dedupe, grouping and order check uses one int64 mixed-radix key
``(major * n_middle + middle) * n_minor + minor`` (:func:`_encode_keys`).  It
orders like the id tuples only while the product of the radices fits, so a log
needs m * n * (l + 1) <= 2**63; past that the encoder raises DataFormatError.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
import warnings
from dataclasses import dataclass, field
from datetime import date
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DataFormatError

TIMESTAMP_FORMATS = ("days", "iso")


def _sorted_labels(labels):
    """Deterministic label order: numeric when every label parses as an
    integer, plain lexicographic otherwise.  Independent of input order."""
    uniq = sorted(set(labels))
    try:
        uniq.sort(key=int)
    except ValueError:
        pass
    return uniq


class PairStructure(NamedTuple):
    """Distinct (user, item) pairs of a log plus the triplet -> pair map.
    Pairs are sorted by (user, item), so they form the CSR pattern of the
    user x item matrix: user u owns pairs ``indptr[u]:indptr[u + 1]``."""

    index: np.ndarray  # len nnz, pair id of each triplet
    users: np.ndarray  # len n_pairs
    items: np.ndarray  # len n_pairs, the CSR column indices
    counts: np.ndarray  # len n_pairs, purchases per pair
    indptr: np.ndarray  # len m + 1, the CSR row pointer


@dataclass(eq=False)
class PurchaseLog:
    """Sorted unique purchase triplets with dense ids.

    ``users``, ``items``, ``slots`` are parallel int64 arrays sorted by
    (user, item, slot).  ``user_labels`` / ``item_labels`` retain the original
    external ids when the log came from a CSV file.
    """

    users: np.ndarray
    items: np.ndarray
    slots: np.ndarray
    m: int
    n: int
    l: int
    user_labels: list | None = None
    item_labels: list | None = None
    _pairs: PairStructure | None = field(default=None, repr=False)

    @property
    def nnz(self) -> int:
        return self.users.shape[0]

    def pairs(self) -> PairStructure:
        """Distinct (user, item) pairs; cached after the first call."""
        if self._pairs is None:
            # a temporary key array, freed before the pair arrays are built
            boundary = np.append(True, np.diff(
                _encode_keys(self.users, self.items, 0, (self.m, self.n, 1))) != 0)
            starts = np.nonzero(boundary)[0]
            users = self.users[starts]
            self._pairs = PairStructure(
                index=np.cumsum(boundary) - 1,
                users=users,
                items=self.items[starts],
                counts=np.diff(np.append(starts, self.nnz)),
                indptr=np.searchsorted(users, np.arange(self.m + 1)),
            )
        return self._pairs


def _encode_keys(major, middle, minor, radices) -> np.ndarray:
    """int64 keys ``(major * n_middle + middle) * n_minor + minor`` of id
    arrays (or scalars) below their radices ``(n_major, n_middle, n_minor)``;
    the keys order like the (major, middle, minor) tuples."""
    n_major, n_middle, n_minor = (int(v) for v in radices)
    if n_major * n_middle * n_minor > 2**63:
        raise DataFormatError(f"{n_major} x {n_middle} x {n_minor} ids overflow int64 "
                              "sort keys; use a coarser slot granularity")
    major, middle, minor = (np.asarray(a, dtype=np.int64) for a in (major, middle, minor))
    return (major * n_middle + middle) * n_minor + minor


def _decode_keys(keys, radices):
    """The (major, middle, minor) id arrays of keys from :func:`_encode_keys`."""
    rest, minor = np.divmod(keys, radices[2])
    major, middle = np.divmod(rest, radices[1])
    return major, middle, minor


def _build_log(users, items, slots, m, n, l=None, user_labels=None, item_labels=None):
    """Sort by (user, item, slot) and drop duplicate triplets.  ``l`` is the
    declared horizon; by default it ends with the latest slot."""
    if users.shape[0] == 0:
        raise DataFormatError("purchase log contains no records")
    if l is None:
        l = int(slots.max()) + 1
    radices = (m, n, l)
    keys = np.sort(_encode_keys(users, items, slots, radices))
    users, items, slots = _decode_keys(keys[np.append(True, keys[1:] != keys[:-1])], radices)
    return PurchaseLog(
        users=users,
        items=items,
        slots=slots,
        m=int(m),
        n=int(n),
        l=int(l),
        user_labels=user_labels,
        item_labels=item_labels,
    )


def _parse_timestamp(text, timestamp_format, where):
    if timestamp_format == "days":
        try:
            return int(text)
        except ValueError:
            raise DataFormatError(f"{where}: bad epoch-day timestamp {text!r}") from None
    try:
        return date.fromisoformat(text).toordinal()
    except ValueError:
        raise DataFormatError(f"{where}: bad ISO date {text!r}") from None


def ingest_purchases(path, granularity=1.0, timestamp_format="days") -> PurchaseLog:
    """Read a ``user_id,item_id,timestamp`` CSV into a :class:`PurchaseLog`.

    Timestamps are either integer epoch-days or ISO dates depending on
    ``timestamp_format``.  They are shifted so the earliest becomes slot 0 and
    binned by ``granularity`` (in days).  Ids may be arbitrary strings; they
    are re-indexed densely in a deterministic, input-order-independent way.
    Duplicate (user, item, slot) rows collapse to a single triplet.
    """
    if not 0.0 < granularity < math.inf:
        raise DataFormatError(f"granularity must be finite and positive, got {granularity}")
    if timestamp_format not in TIMESTAMP_FORMATS:
        raise DataFormatError(
            f"timestamp_format must be one of {TIMESTAMP_FORMATS}, got {timestamp_format!r}"
        )
    raw_users = []
    raw_items = []
    stamps = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise DataFormatError(
                    f"{path}:{lineno}: expected user_id,item_id,timestamp, got {len(row)} fields"
                )
            raw_users.append(row[0].strip())
            raw_items.append(row[1].strip())
            stamps.append(
                _parse_timestamp(row[2].strip(), timestamp_format, f"{path}:{lineno}")
            )
    if not raw_users:
        raise DataFormatError(f"{path}: no purchase records")

    user_labels = _sorted_labels(raw_users)
    item_labels = _sorted_labels(raw_items)
    user_code = {lab: i for i, lab in enumerate(user_labels)}
    item_code = {lab: i for i, lab in enumerate(item_labels)}
    users = np.fromiter((user_code[u] for u in raw_users), dtype=np.int64)
    items = np.fromiter((item_code[i] for i in raw_items), dtype=np.int64)
    stamps = np.asarray(stamps, dtype=np.int64)
    slots = np.floor((stamps - stamps.min()) / float(granularity)).astype(np.int64)
    return _build_log(
        users,
        items,
        slots,
        m=len(user_labels),
        n=len(item_labels),
        user_labels=user_labels,
        item_labels=item_labels,
    )


@dataclass(eq=False)
class CategoryMap:
    """Dense item -> category assignment for r categories."""

    assignment: np.ndarray  # int64, len n
    r: int
    category_labels: list | None = None

    def __post_init__(self):
        if self.assignment.shape[0] and (
            self.assignment.min() < 0 or self.assignment.max() >= self.r
        ):
            raise DataFormatError("category assignment out of range")


def ingest_categories(path, log: PurchaseLog) -> CategoryMap:
    """Read an ``item_id,category_id`` CSV covering every item of ``log``.

    Category ids are re-indexed densely like item/user ids.  Rows for items
    the log does not know are counted and warned about; items the file does
    not cover are an error.
    """
    item_labels = log.item_labels or [str(i) for i in range(log.n)]
    item_code = {lab: i for i, lab in enumerate(item_labels)}
    raw = {}
    unknown = 0
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise DataFormatError(
                    f"{path}:{lineno}: expected item_id,category_id, got {len(row)} fields"
                )
            item, cat = row[0].strip(), row[1].strip()
            if item not in item_code:
                unknown += 1
                continue
            prev = raw.get(item)
            if prev is not None and prev != cat:
                raise DataFormatError(
                    f"{path}:{lineno}: conflicting categories for item {item!r}"
                )
            raw[item] = cat
    missing = [lab for lab in item_labels if lab not in raw]
    if missing:
        shown = ", ".join(map(str, missing[:10]))
        more = f" (+{len(missing) - 10} more)" if len(missing) > 10 else ""
        raise DataFormatError(f"{path}: items without category: {shown}{more}")
    if unknown:
        warnings.warn(f"{path}: ignored {unknown} rows for items not in the log")
    cat_labels = _sorted_labels(raw.values())
    cat_code = {lab: i for i, lab in enumerate(cat_labels)}
    assignment = np.fromiter(
        (cat_code[raw[lab]] for lab in item_labels), dtype=np.int64
    )
    return CategoryMap(assignment=assignment, r=len(cat_labels), category_labels=cat_labels)


class RecencyIndex:
    """Sorted (user, category, slot) purchase events, with strict-predecessor
    gap queries that broadcast over users, categories and slots.

    Built once per (log, categories) pairing.  Also precomputes, for every
    triplet of the log itself, the gap to the user's closest strictly earlier
    purchase in the item's category (``inf`` when there is none); the solver
    consumes that array on every iteration.
    """

    def __init__(self, log: PurchaseLog, cats: CategoryMap):
        if cats.assignment.shape[0] != log.n:
            raise DataFormatError(
                f"category map covers {cats.assignment.shape[0]} items, log has {log.n}"
            )
        self.log = log
        self.cats = cats
        self.r = cats.r
        trip_cats = cats.assignment[log.items]
        # slot radix l + 1: query clamps later slots to l
        self._radices = (log.m, self.r, log.l + 1)
        keys = _encode_keys(log.users, trip_cats, log.slots, self._radices)
        order = np.argsort(keys)
        keys = keys[order]
        sk = log.slots[order]
        # keys - sk is the (user, category) part of each key
        gaps = kernels.strict_prev_gap(sk, np.append(True, np.diff(keys - sk) != 0))
        self._trip_recency = np.empty(log.nnz)
        self._trip_recency[order] = gaps
        self._trip_cats = trip_cats
        self._event_keys = keys[np.append(True, keys[1:] != keys[:-1])]
        self._cat_order = None
        self._cat_bounds = None

    def triplet_recency(self) -> np.ndarray:
        """Strict-predecessor gap for each triplet of the source log,
        aligned with the log's storage order.  float64 with inf."""
        return self._trip_recency

    def triplet_categories(self) -> np.ndarray:
        """Category of each triplet of the source log."""
        return self._trip_cats

    def category_slices(self):
        """(order, bounds): triplet indices grouped by category and the
        per-category offsets into that order."""
        if self._cat_order is None:
            self._cat_order = np.argsort(self._trip_cats, kind="stable")
            counts = np.bincount(self._trip_cats, minlength=self.r)
            self._cat_bounds = np.append(0, np.cumsum(counts))
        return self._cat_order, self._cat_bounds

    def query(self, users, cats, slots):
        """Slots since each user's last purchase in ``cats`` strictly before
        ``slots``; ``inf`` where there is no earlier purchase.  The arguments
        broadcast against each other; scalars give a scalar.  Users outside
        ``[0, m)`` or categories outside ``[0, r)`` raise ``ValueError``."""
        users, cats, slots = (np.asarray(a, dtype=np.int64) for a in (users, cats, slots))
        for ids, bound, what in ((users, self.log.m, "user"), (cats, self.r, "category")):
            if ids.size and not 0 <= ids.min() <= ids.max() < bound:
                raise ValueError(f"{what} ids must be in [0, {bound})")
        group = _encode_keys(users, cats, 0, self._radices)  # key of the group's slot 0
        # every event slot is below l, so clamping keeps later slots exact
        pos = np.searchsorted(self._event_keys, group + np.minimum(slots, self.log.l)) - 1
        prev = self._event_keys[np.maximum(pos, 0)]
        return np.where((pos >= 0) & (prev >= group), slots - (prev - group), np.inf)[()]


def build_recency_index(log: PurchaseLog, cats: CategoryMap) -> RecencyIndex:
    return RecencyIndex(log, cats)


@dataclass(eq=False)
class SplitSpec:
    """Per-user holdout split.  Both logs keep the full log's dimensions."""

    train: PurchaseLog
    test: PurchaseLog


def split_train_test(log: PurchaseLog, fraction: float, seed: int) -> SplitSpec:
    """Hold out round(fraction * count) of each user's triplets, chosen
    uniformly per user, never leaving a user empty.  Deterministic in seed."""
    if not 0.0 <= fraction < 1.0:
        raise DataFormatError(f"split fraction must be in [0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    ranges = np.searchsorted(log.users, np.arange(log.m + 1))  # user blocks
    held_mask = np.zeros(log.nnz, dtype=bool)
    for u in range(log.m):
        lo, hi = ranges[u], ranges[u + 1]
        cnt = hi - lo
        if cnt <= 1:
            continue
        held = min(int(fraction * cnt + 0.5), cnt - 1)
        if held == 0:
            continue
        held_mask[lo + rng.choice(cnt, size=held, replace=False)] = True

    def part(keep):
        # masking keeps the log's (user, item, slot) order
        return PurchaseLog(
            users=log.users[keep],
            items=log.items[keep],
            slots=log.slots[keep],
            m=log.m,
            n=log.n,
            l=log.l,
            user_labels=log.user_labels,
            item_labels=log.item_labels,
        )

    return SplitSpec(train=part(~held_mask), test=part(held_mask))


# ---------------------------------------------------------------------------
# binary container shared by the split bundle and the model file:
#
#   magic (8 bytes) | version <u4 | entries | sha256 of every byte before it
#   entry: name <16s (NUL-padded) | dtype <3s | ndim <u1 | shape <u8 * ndim | data
#
# Arrays are stored little-endian in C order.  A spec lists the entries of one
# file format in order as ``(name, dtype, ndim)``; writer and reader share it.


def _write_arrays(path, magic: bytes, version: int, spec, arrays: dict) -> None:
    """Write ``arrays`` (name -> array-like) in ``spec`` order, cast to the
    spec dtypes, to one checksummed file."""
    parts = [magic, struct.pack("<I", version)]
    for name, dtype, ndim in spec:
        array = np.asarray(arrays[name], dtype=dtype)
        parts.append(struct.pack("<16s3sB", name.encode(), dtype.encode(), ndim))
        parts.append(struct.pack(f"<{ndim}Q", *array.shape))
        parts.append(array.tobytes())
    body = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(hashlib.sha256(body).digest())


def _read_arrays(path, magic: bytes, version: int, spec, error, kind: str) -> dict:
    """Read a file written by :func:`_write_arrays` into native arrays.

    Checks the magic, then the version, then that the entries end exactly
    where the digest starts, then the digest; a failure raises ``error``.
    """
    with open(path, "rb") as fh:
        buf = memoryview(fh.read())
    if buf[: len(magic)] != magic:
        raise error(f"{path}: not a {kind}")
    off = len(magic) + 4
    end = len(buf) - 32
    if len(buf) < off:
        raise error(f"{path}: truncated {kind}")
    (found,) = struct.unpack_from("<I", buf, len(magic))
    if found != version:
        raise error(f"{path}: unsupported {kind} version {found}")

    def take(count):
        nonlocal off
        if off + count > end:
            raise error(f"{path}: truncated {kind}")
        off += count
        return buf[off - count : off]

    raw = []
    for name, dtype, ndim in spec:
        key, code, dims = struct.unpack("<16s3sB", take(20))
        if (key.rstrip(b"\0"), code, dims) != (name.encode(), dtype.encode(), ndim):
            raise error(f"{path}: expected {dtype} array {name!r} of {ndim} dims in {kind}")
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        raw.append((take(math.prod(shape) * np.dtype(dtype).itemsize), shape))
    if off != end:
        raise error(f"{path}: trailing bytes in {kind}")
    if hashlib.sha256(buf[:end]).digest() != buf[end:]:
        raise error(f"{path}: digest mismatch (corrupt {kind})")
    # astype copies into aligned, writable arrays of native byte order
    return {
        name: np.frombuffer(data, dtype=dtype).astype(dtype[1:]).reshape(shape)
        for (name, dtype, _), (data, shape) in zip(spec, raw)
    }


# ---------------------------------------------------------------------------
# split bundle: what train hands to evaluate and recommend

_SPLIT_MAGIC = b"DRECSPL\x00"
_SPLIT_VERSION = 1
_SPLIT_SPEC = (
    ("dims", "<i8", 1),  # m n l r
    ("train", "<i8", 2),  # rows: users, items, slots
    ("test", "<i8", 2),
    ("assignment", "<i8", 1),
)


def export_log(train: PurchaseLog, test: PurchaseLog, cats: CategoryMap, path) -> None:
    """Write a train/test split and its category map as one bundle: the
    dimensions ``m n l r``, both sorted triplet sets with dense ids (the
    test set may be empty) and the dense item -> category assignment."""
    _write_arrays(path, _SPLIT_MAGIC, _SPLIT_VERSION, _SPLIT_SPEC, {
        "dims": [train.m, train.n, train.l, cats.r],
        "train": [train.users, train.items, train.slots],
        "test": [test.users, test.items, test.slots],
        "assignment": cats.assignment,
    })


def _bundled_log(path, triplets, m, n, l) -> PurchaseLog:
    """Validate one triplet block of a bundle: 3 rows, within the declared
    bounds, strictly sorted (so free of duplicates)."""
    if triplets.shape[0] != 3:
        raise DataFormatError(f"{path}: triplet block has {triplets.shape[0]} rows, expected 3")
    users, items, slots = triplets
    if users.shape[0] and (
        users.min() < 0 or users.max() >= m
        or items.min() < 0 or items.max() >= n
        or slots.min() < 0 or slots.max() >= l
    ):
        raise DataFormatError(f"{path}: triplet out of declared bounds")
    keys = _encode_keys(users, items, slots, (m, n, l))
    if np.any(keys[1:] <= keys[:-1]):
        raise DataFormatError(f"{path}: duplicate or unsorted triplets in split bundle")
    # the declared horizon is kept: it may end in empty slots
    return PurchaseLog(users=users, items=items, slots=slots, m=m, n=n, l=l)


def load_log(path) -> tuple[PurchaseLog, PurchaseLog, CategoryMap]:
    """Read a bundle written by :func:`export_log` back, verbatim, as
    ``(train, test, cats)``; ``test`` may hold no records."""
    arrays = _read_arrays(path, _SPLIT_MAGIC, _SPLIT_VERSION, _SPLIT_SPEC,
                          DataFormatError, "split bundle")
    if arrays["dims"].shape != (4,):
        raise DataFormatError(f"{path}: expected dims 'm n l r'")
    m, n, l, r = (int(v) for v in arrays["dims"])
    train = _bundled_log(path, arrays["train"], m, n, l)
    if train.nnz == 0:
        raise DataFormatError(f"{path}: empty train log")
    test = _bundled_log(path, arrays["test"], m, n, l)
    assignment = arrays["assignment"]
    if assignment.shape[0] != n:
        raise DataFormatError(f"{path}: expected {n} category assignments, "
                              f"found {assignment.shape[0]}")
    return train, test, CategoryMap(assignment=assignment, r=r)
