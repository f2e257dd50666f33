"""Purchase-log ingestion, category maps, recency lookups, splitting, and the
checksummed binary container of the split bundle and the model file.

The central object is a :class:`PurchaseLog`: a deduplicated, lexicographically
sorted set of (user, item, slot) triplets with dense integer ids, held in the
narrowest of int32 and int64 that fits them (:func:`_id_dtype`).  Slots are
time bins of configurable granularity.  Recency, "how many slots since user
i last purchased anything in category c strictly before slot k", is the time
feature, and two structures hold it, each built in full when it is made:
:func:`triplet_recency` gives the solver one small integer code per triplet
that holds its category and that gap, and a :class:`RecencyIndex` sorts the
log's distinct event keys so that ``query`` answers any (user, category,
slot), taking arrays that broadcast, for the callers that score.  The index
is built in chunks of whole users, so its build holds about what it keeps,
not int64 keys for every triplet.

Every sort, dedupe, grouping and order check uses one int64 mixed-radix key
``(major * n_middle + middle) * n_minor + minor`` (:func:`_encode_keys`).  It
orders like the id tuples only while the product of the radices fits, so a log
needs m * n * (l + 1) <= 2**63; past that the encoder raises DataFormatError.
The passes that read a whole id column never widen it at once: keys are built
in one int64 buffer, binary-search needles take the column's dtype, and
gathers indexed by a column run a chunk at a time (:func:`_take`).

The split bundle and the model file share one checksummed container, which
is written and read an entry at a time: loading an artifact holds about the
file's size in memory, not a second copy of it.  The split bundle holds each
id column in its log's dtype, so a log has one form on disk and in memory.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import operator
import os
import struct
import warnings
from dataclasses import dataclass, field
from datetime import date
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import kernels
from .errors import DataFormatError

if TYPE_CHECKING:
    import scipy.sparse as sp

TIMESTAMP_FORMATS = ("days", "iso")
# triplets per chunk of the passes that key a whole log without keeping the
# keys (the split bundle's order check, the recency index build): each holds
# int64 keys and their temporaries for one chunk, not for every triplet
_CHUNK_TRIPLETS = 2**16


class PairStructure(NamedTuple):
    """Distinct (user, item) pairs of a log plus the triplet -> pair map.
    Pairs are sorted by (user, item), so they form the CSR pattern of the
    m x n user x item matrix: user u owns pairs ``indptr[u]:indptr[u + 1]``.
    ``users``, ``items``, ``counts`` and ``indptr`` are held in the index
    dtype scipy picks for that pattern (int32 while the ids, the offsets and
    the counts fit it), so every matrix of :meth:`csr` and its CSC view ``.T``
    (used for products with the transpose) share ``items`` and ``indptr``.
    ``index`` stays intp, the dtype ``bincount`` and gathers take as is."""

    index: np.ndarray  # len nnz, pair id of each triplet
    users: np.ndarray  # len n_pairs
    items: np.ndarray  # len n_pairs, the CSR column indices
    counts: np.ndarray  # len n_pairs, purchases per pair
    indptr: np.ndarray  # len m + 1, the CSR row pointer
    n: int  # the log's item count, so trailing items without pairs keep their columns

    def csr(self, values) -> sp.csr_matrix:
        """The m x n CSR matrix holding ``values`` (one per pair) at the pairs."""
        import scipy.sparse as sp  # only the solver builds matrices

        return sp.csr_matrix((values, self.items, self.indptr),
                             shape=(self.indptr.shape[0] - 1, self.n))


def _id_dtype(m, n, l) -> np.dtype:
    """The dtype of a log's id columns: int32 while m, n and l are all
    below 2**31, so that every id is below int32's maximum; int64 otherwise."""
    return np.dtype(np.int32 if max(m, n, l) < 2**31 else np.int64)


@dataclass(eq=False)
class PurchaseLog:
    """Sorted unique purchase triplets with dense ids.

    ``users``, ``items``, ``slots`` are parallel integer arrays of one dtype,
    sorted by (user, item, slot).  The logs this module builds, splits and
    loads hold them in :func:`_id_dtype` of (m, n, l): int32, 12 bytes per
    triplet, unless an id space reaches 2**31.  The class itself converts
    nothing, so a caller may hand it int64 columns, and every reader takes
    either dtype.  ``user_labels`` / ``item_labels`` retain the original
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
        """Distinct (user, item) pairs and their CSR pattern; cached after
        the first call, so every call returns the same arrays."""
        if self._pairs is None:
            import scipy.sparse as sp  # only the solver builds matrices

            # a temporary key array, freed before the pair arrays are built;
            # the mask also holds for a log without triplets
            keys = _encode_keys(self.users, self.items, 0, (self.m, self.n, 1))
            boundary = np.ones(keys.shape[0], dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
            del keys
            starts = np.nonzero(boundary)[0]
            users = self.users[starts]
            items = self.items[starts]
            counts = np.diff(np.append(starts, self.nnz))
            indptr = _search(users, np.arange(self.m + 1))
            # the index dtype scipy's CSR constructor picks for these arrays,
            # which also holds every count (a count is at most the triplets)
            index_dtype = sp.get_index_dtype(
                (items, indptr), maxval=max(self.m, self.n, int(counts.max(initial=0))),
                check_contents=True)
            index = np.cumsum(boundary)
            index -= 1
            self._pairs = PairStructure(
                index=index,
                users=users.astype(index_dtype, copy=False),
                items=items.astype(index_dtype, copy=False),
                counts=counts.astype(index_dtype, copy=False),
                indptr=indptr.astype(index_dtype, copy=False),
                n=self.n,
            )
        return self._pairs

    def user_log(self, user: int) -> PurchaseLog:
        """The triplets of one user, as a log of the same m, n and l."""
        lo, hi = _search(self.users, [user, user + 1])
        return PurchaseLog(users=self.users[lo:hi], items=self.items[lo:hi],
                           slots=self.slots[lo:hi], m=self.m, n=self.n, l=self.l)


def _check_key_space(radices) -> None:
    """Raise DataFormatError when keys of these radices overflow int64."""
    n_major, n_middle, n_minor = (int(v) for v in radices)
    if n_major * n_middle * n_minor > 2**63:
        raise DataFormatError(f"{n_major} x {n_middle} x {n_minor} ids overflow int64 "
                              "sort keys; use a coarser slot granularity")


def _encode_keys(major, middle, minor, radices) -> np.ndarray:
    """int64 keys ``(major * n_middle + middle) * n_minor + minor`` of id
    arrays (or scalars) below their radices ``(n_major, n_middle, n_minor)``;
    the keys order like the (major, middle, minor) tuples.  The arguments
    broadcast against each other.  The keys are built in one int64 buffer,
    so an id column of any integer dtype is widened into it, not copied."""
    _check_key_space(radices)
    n_middle, n_minor = int(radices[1]), int(radices[2])
    major, middle, minor = (np.asarray(a) for a in (major, middle, minor))
    keys = np.empty(np.broadcast_shapes(major.shape, middle.shape, minor.shape),
                    dtype=np.int64)
    keys[...] = major
    keys *= n_middle
    keys += middle
    keys *= n_minor
    keys += minor
    return keys


def _decode_keys(keys, radices):
    """The (major, middle, minor) id arrays of keys from :func:`_encode_keys`."""
    rest, minor = np.divmod(keys, radices[2])
    major, middle = np.divmod(rest, radices[1])
    return major, middle, minor


def _search(ids, values) -> np.ndarray:
    """``np.searchsorted(ids, values)`` for a sorted id column, with the
    needles cast to the column's dtype: numpy would otherwise convert the
    whole column on every call.  Every id lies strictly inside the dtype's
    range (:func:`_id_dtype`), so a needle clipped to that range keeps its
    answer."""
    info = np.iinfo(ids.dtype)
    return np.searchsorted(ids, np.clip(values, info.min, info.max).astype(ids.dtype))


def _take(table, ids) -> np.ndarray:
    """``table[ids]`` for a 1-d id array, gathered a chunk at a time:
    numpy copies indices that are not intp (a log's int32 columns) to intp
    before it gathers, which would hold 8 bytes per id beside the result.
    ``take`` gathers through int32 indices about twice as fast as fancy
    indexing does."""
    out = np.empty(ids.shape[0], dtype=table.dtype)
    for lo in range(0, ids.shape[0], _CHUNK_TRIPLETS):
        chunk = slice(lo, lo + _CHUNK_TRIPLETS)
        table.take(ids[chunk], out=out[chunk])
    return out


def _build_log(users, items, slots, m, n, l=None, user_labels=None, item_labels=None):
    """Sort by (user, item, slot) and drop duplicate triplets.  ``l`` is the
    declared horizon; by default it ends with the latest slot.  The keys are
    sorted in place and decoded a chunk at a time straight into the
    :func:`_id_dtype` columns, so besides the inputs the build holds one
    key array and the narrow columns, not four int64 arrays."""
    if users.shape[0] == 0:
        raise DataFormatError("purchase log contains no records")
    if l is None:
        l = int(slots.max()) + 1
    radices = (m, n, l)
    keys = _encode_keys(users, items, slots, radices)
    keys.sort()
    keys = keys[np.append(True, keys[1:] != keys[:-1])]  # frees the sorted copy
    dtype = _id_dtype(m, n, l)
    users, items, slots = (np.empty(keys.shape[0], dtype=dtype) for _ in range(3))
    for lo in range(0, keys.shape[0], _CHUNK_TRIPLETS):
        chunk = slice(lo, lo + _CHUNK_TRIPLETS)
        users[chunk], items[chunk], slots[chunk] = _decode_keys(keys[chunk], radices)
    del keys
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


# ---------------------------------------------------------------------------
# CSV ingest.  A purchase file of canonical integers (every field exactly as
# str(int) prints it) is parsed by one np.loadtxt pass straight to int64
# columns, and :func:`_int_codes` gives each column's distinct values and a
# dense code per row.  Any other purchase file, and every
# category file, is read by csv.reader in small blocks, whose fields are
# coded through a dict of the distinct strings.  Either way only distinct
# values go through Python: labels, stripping, timestamps.  Bad rows are
# found on the arrays; the line an error names comes from re-reading the file
# row by row.

_PURCHASE_FIELDS = "user_id,item_id,timestamp"
_CATEGORY_FIELDS = "item_id,category_id"
# rows per csv.reader block: blocks below the garbage collector's first
# threshold (700 new containers) made the string path 2-3x faster than
# blocks of 65,536 rows
_BLOCK_ROWS = 512
# an integer id column whose values span at most this many times its row
# count is coded through a presence mask over the span, not by a sort
_DENSE_SPAN = 4


def _printed_width(values) -> int:
    """``len(str(v))`` summed over an int64 array (int64's minimum counts
    short, which only makes a file look non-canonical)."""
    width = values.size + int(np.count_nonzero(values < 0))
    magnitudes = np.abs(values) if width > values.size else values
    power, top = 10, int(magnitudes.max())
    while power <= top:
        width += int(np.count_nonzero(magnitudes >= power))
        power *= 10
    return width


def _int_table(path, n_fields):
    """The rows of a CSV file as an ``(rows, n_fields)`` int64 array when each
    row is ``n_fields`` canonical integers joined by ',' and ended by '\\n'
    (the last one optional); None for any other file, such as one with
    labels, quotes, blank rows or CRLF endings.

    np.loadtxt also reads '+5', ' 5 ', '007', '-0', '\\r\\n' and blank lines,
    but each of those is longer than the printed value it parses to, so the
    file is canonical exactly when its size is the printed width of the
    parsed values.  Float forms such as '1e3', which can be shorter, are
    refused: numpy versions that still read them as integers warn, and the
    warning is raised here."""
    size = os.path.getsize(path)  # first: a missing file raises as open() does
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file warns
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            table = np.loadtxt(path, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None
    if table.shape[0] == 0 or table.shape[1] != n_fields:
        return None
    width = n_fields * table.shape[0] + _printed_width(table)  # with commas and newlines
    with open(path, "rb") as fh:
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) != b"\n":
            width -= 1
    return table if width == size else None


def _int_codes(column):
    """``np.unique(column, return_inverse=True)`` of an int64 column: its
    distinct values, ascending, and the index of each row's value among
    them.  A column whose values span at most ``_DENSE_SPAN`` times its
    rows, as dense ids do, marks the values present in a mask over the span
    and numbers them by a cumsum, in O(rows + span) and without a sort."""
    lo = int(column.min())
    span = int(column.max()) - lo + 1
    if span > _DENSE_SPAN * column.shape[0]:
        return np.unique(column, return_inverse=True)
    offsets = column - lo
    present = np.zeros(span, dtype=bool)
    present[offsets] = True
    code_of = np.cumsum(present)
    code_of -= 1
    codes = code_of[offsets]
    del offsets, code_of
    values = np.flatnonzero(present)
    values += lo
    return values, codes


def _blank(row) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _csv_rows(path, fields):
    """``(location, stripped fields)`` of each non-blank row of a CSV file,
    read row by row with csv.reader.  A row whose field count differs from
    that of ``fields`` (the column names, comma-separated) raises
    DataFormatError naming its line."""
    n_fields = fields.count(",") + 1
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if _blank(row):
                continue
            if len(row) != n_fields:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {fields}, got {len(row)} fields"
                )
            yield f"{path}:{lineno}", [value.strip() for value in row]


class _Codes(dict):
    """Distinct strings -> dense codes in order of first sight."""

    def __missing__(self, key):
        self[key] = code = len(self)
        return code


def _string_columns(path, fields, raise_row_error):
    """Each column of a CSV file as ``(values, codes)``: its distinct stripped
    fields in code-point order, and the index into ``values`` of each
    non-blank row's field.  csv.reader handles quotes and line endings; a
    block of its rows at a time is coded, so only the distinct fields outlive
    their block.  A row with the wrong field count calls ``raise_row_error``."""
    n_fields = fields.count(",") + 1
    seen = [_Codes() for _ in range(n_fields)]
    parts = [[np.empty(0, dtype=np.intp)] for _ in range(n_fields)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        while block := list(itertools.islice(reader, _BLOCK_ROWS)):
            if set(map(len, block)) != {n_fields}:
                if not all(_blank(row) for row in block if len(row) != n_fields):
                    raise_row_error()
                block = [row for row in block if len(row) == n_fields]
            for column, codes, part in zip(zip(*block), seen, parts):
                part.append(np.fromiter(map(codes.__getitem__, column), dtype=np.intp,
                                        count=len(column)))
    columns = []
    for codes, part in zip(seen, parts):
        # strip only the distinct fields, then merge those that strip alike
        stripped = np.array([value.strip() for value in codes], dtype=str)
        values, inverse = np.unique(stripped, return_inverse=True)
        columns.append((values, inverse[np.concatenate(part)]))
    return columns


def _labels(values, codes):
    """``(labels, codes)`` of a column from its distinct sorted ``values`` and
    per-row ``codes``: the values as strings, in numeric order when every one
    parses as an integer and in code-point order otherwise, with the codes
    renumbered to match.  Independent of input order."""
    if values.dtype.kind == "i":  # canonical integers, already numeric order
        return list(map(str, values.tolist())), codes
    labels = values.tolist()
    try:
        numbers = [int(label) for label in labels]
    except ValueError:
        return labels, codes
    # a stable sort, so labels of one number ('007', '7') keep code-point order
    order = sorted(range(len(labels)), key=numbers.__getitem__)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return [labels[i] for i in order], rank[codes]


def _parse_timestamp(text, timestamp_format, where) -> int:
    try:
        if timestamp_format == "iso":
            return date.fromisoformat(text).toordinal()
        day = int(text)
        if -(2**63) <= day < 2**63:
            return day
    except ValueError:
        pass
    kind = "ISO date" if timestamp_format == "iso" else "epoch-day timestamp"
    raise DataFormatError(f"{where}: bad {kind} {text!r}")


def _raise_purchase_row_error(path, timestamp_format):
    """Raise the error of the first bad row of a purchase CSV, naming its line."""
    for where, (_, _, text) in _csv_rows(path, _PURCHASE_FIELDS):
        _parse_timestamp(text, timestamp_format, where)
    raise DataFormatError(f"{path}: bad purchase rows")  # not reached


def ingest_purchases(path, granularity=1.0, timestamp_format="days") -> PurchaseLog:
    """Read a ``user_id,item_id,timestamp`` CSV into a :class:`PurchaseLog`.

    Timestamps are either integer epoch-days or ISO dates depending on
    ``timestamp_format``.  They are shifted so the earliest becomes slot 0 and
    binned by ``granularity`` (in days).  Ids may be arbitrary strings; they
    are re-indexed densely in a deterministic, input-order-independent way.
    Duplicate (user, item, slot) rows collapse to a single triplet.  A file
    of canonical integers with epoch-day timestamps is parsed straight to
    int64; any other file is read as strings, with the same result.
    """
    if not 0.0 < granularity < math.inf:
        raise DataFormatError(f"granularity must be finite and positive, got {granularity}")
    if timestamp_format not in TIMESTAMP_FORMATS:
        raise DataFormatError(
            f"timestamp_format must be one of {TIMESTAMP_FORMATS}, got {timestamp_format!r}"
        )

    def row_error():
        _raise_purchase_row_error(path, timestamp_format)

    table = _int_table(path, 3) if timestamp_format == "days" else None
    if table is not None:
        users, items = (_int_codes(column) for column in table.T[:2])
        stamps = table[:, 2].copy()
        del table
    else:
        users, items, (texts, codes) = _string_columns(path, _PURCHASE_FIELDS, row_error)
        if codes.shape[0] == 0:
            raise DataFormatError(f"{path}: no purchase records")
        try:
            days = [_parse_timestamp(text, timestamp_format, path) for text in texts.tolist()]
        except DataFormatError:
            row_error()
        stamps = np.array(days, dtype=np.int64)[codes]
    user_labels, users = _labels(*users)
    item_labels, items = _labels(*items)
    slots = np.floor((stamps - stamps.min()) / float(granularity)).astype(np.int64)
    del stamps
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


def _raise_category_row_error(path, item_labels):
    """Raise the error of the first bad row of a category CSV, naming its line."""
    known = set(item_labels)
    first = {}
    for where, (item, cat) in _csv_rows(path, _CATEGORY_FIELDS):
        if item in known and first.setdefault(item, cat) != cat:
            raise DataFormatError(f"{where}: conflicting categories for item {item!r}")
    raise DataFormatError(f"{path}: bad category rows")  # not reached


def ingest_categories(path, log: PurchaseLog) -> CategoryMap:
    """Read an ``item_id,category_id`` CSV covering every item of ``log``.

    Category ids are re-indexed densely like item/user ids.  Rows for items
    the log does not know are counted and warned about; items the file does
    not cover are an error.
    """
    item_labels = log.item_labels or [str(i) for i in range(log.n)]

    def row_error():
        _raise_category_row_error(path, item_labels)

    (names, codes), (cat_values, cat_codes) = _string_columns(
        path, _CATEGORY_FIELDS, row_error
    )
    code_of = {label: i for i, label in enumerate(item_labels)}
    items = np.array([code_of.get(name, -1) for name in names.tolist()],
                     dtype=np.int64)[codes]
    known = items >= 0
    unknown = known.shape[0] - int(np.count_nonzero(known))
    items, cat_codes = items[known], cat_codes[known]
    # each item's category code, its last row winning: an item's rows
    # conflict exactly when one of them differs from that entry; -1 is uncovered
    item_codes = np.full(log.n, -1, dtype=np.int64)
    item_codes[items] = cat_codes
    if np.any(item_codes[items] != cat_codes):
        row_error()
    missing = np.flatnonzero(item_codes < 0)
    if missing.shape[0]:
        shown = ", ".join(item_labels[i] for i in missing[:10])
        more = f" (+{missing.shape[0] - 10} more)" if missing.shape[0] > 10 else ""
        raise DataFormatError(f"{path}: items without category: {shown}{more}")
    if unknown:
        warnings.warn(f"{path}: ignored {unknown} rows for items not in the log")
    used, dense = np.unique(item_codes, return_inverse=True)
    cat_labels, assignment = _labels(cat_values[used], dense)
    return CategoryMap(assignment=assignment, r=len(cat_labels), category_labels=cat_labels)


def _recency_setup(log: PurchaseLog, cats: CategoryMap):
    """The radices of a log's (user, category, slot) keys, checked to fit
    int64, and the category of each item in the narrowest unsigned dtype
    that holds r - 1.  The category map must cover the log's items."""
    if cats.assignment.shape[0] != log.n:
        raise DataFormatError(
            f"category map covers {cats.assignment.shape[0]} items, log has {log.n}"
        )
    # slot radix l + 1: query clamps later slots to l
    radices = (log.m, cats.r, log.l + 1)
    _check_key_space(radices)
    return radices, cats.assignment.astype(np.min_scalar_type(max(cats.r - 1, 0)))


def _code_dtype(r: int, l: int) -> np.dtype:
    """The dtype of the triplet codes of r categories and horizon l: uint16
    while its r * (l + 1) values fit, the narrowest wider unsigned type
    beyond."""
    size = r * (l + 1)
    return np.dtype(np.uint16) if size <= 2**16 else np.min_scalar_type(size - 1)


class TripletRecency(NamedTuple):
    """What the solver reads of a log's recency on every iteration, built
    by :func:`triplet_recency`: one code per triplet, in the log's storage
    order.  A triplet of category c whose user last bought in c ``gap``
    slots earlier has the code ``c * (l + 1) + gap``; the gap ``l``, which
    no earlier purchase can give, stands for none (infinite recency).  So
    the codes take r * (l + 1) values, 2 bytes per triplet while that is at
    most 2**16 (:func:`_code_dtype`), and an ascending order of the codes
    groups the triplets by category and, within one, by gap, with the
    triplets without an earlier purchase last."""

    log: PurchaseLog
    r: int
    codes: np.ndarray


def triplet_recency(log: PurchaseLog, cats: CategoryMap) -> TripletRecency:
    """The per-triplet (category, gap) codes of a log, for ``fit``."""
    radices, item_cats = _recency_setup(log, cats)
    trip_cats = _take(item_cats, log.items)
    keys = _encode_keys(log.users, trip_cats, log.slots, radices)
    order = np.argsort(keys)
    keys.sort()  # in place, where a gather through order would copy them
    sk = log.slots[order]
    keys -= sk  # the (user, category) part of each key
    new_group = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new_group[1:])
    del keys
    gaps = kernels.strict_prev_gap(sk, new_group, none=log.l)
    del sk, new_group
    codes = np.empty(log.nnz, dtype=_code_dtype(cats.r, log.l))
    codes[order] = gaps
    del order, gaps
    # add each triplet's category part c * (l + 1), a chunk at a time
    base = (np.arange(cats.r, dtype=np.int64) * (log.l + 1)).astype(codes.dtype)
    for lo in range(0, log.nnz, _CHUNK_TRIPLETS):
        chunk = slice(lo, lo + _CHUNK_TRIPLETS)
        codes[chunk] += base.take(trip_cats[chunk])
    return TripletRecency(log=log, r=cats.r, codes=codes)


class RecencyIndex:
    """Strict-predecessor gap queries on a log's per-(user, category)
    purchase slots, for the callers that score (evaluate, recommend,
    serving).  The constructor sorts the log's distinct (user, category,
    slot) event keys, which :meth:`query` and :meth:`user_gaps`
    binary-search.

    It builds them in chunks of whole users, about ``_CHUNK_TRIPLETS``
    triplets each: a chunk's keys are encoded, sorted and de-duplicated on
    their own.  The user is the keys' major part, so the chunks' distinct
    keys, joined in chunk order, are the log's distinct keys in order.  The
    build holds one chunk's temporaries and two copies of the distinct
    keys, not int64 keys for every triplet."""

    def __init__(self, log: PurchaseLog, cats: CategoryMap):
        self._radices, item_cats = _recency_setup(log, cats)
        self.log = log
        self.cats = cats
        self.r = cats.r
        # a sentinel -1 below every group first, so that a search always
        # lands on an entry, also in an empty log
        parts = [np.array([-1], dtype=np.int64)]
        starts = np.unique(np.searchsorted(log.users, log.users[::_CHUNK_TRIPLETS]))
        for lo, hi in itertools.pairwise([*starts.tolist(), log.nnz]):
            keys = _encode_keys(log.users[lo:hi], item_cats.take(log.items[lo:hi]),
                                log.slots[lo:hi], self._radices)
            keys.sort()
            parts.append(keys[np.append(True, keys[1:] != keys[:-1])])
        self._event_keys = np.concatenate(parts)
        # the keys after the sentinel: a search there for a needle returns
        # the index, in _event_keys, of the last key below it, the sentinel
        # when no key is, so no index needs shifting or clamping
        self._after_sentinel = self._event_keys[1:]
        # the key of each category's slot 0 within a user's groups, and the
        # key span of one user; the key space was checked above, so a
        # user's offset added to them is exact
        self._cat_keys = np.arange(self.r, dtype=np.int64) * (log.l + 1)
        self._user_span = self.r * (log.l + 1)

    def query(self, users, cats, slots):
        """Slots since each user's last purchase in ``cats`` strictly before
        ``slots``; ``inf`` where there is no earlier purchase, which includes
        every slot below 0.  The arguments broadcast against each other;
        scalars give a scalar.  Users outside ``[0, m)`` or categories
        outside ``[0, r)`` raise ``ValueError``, and so do slots outside
        the int64 range."""
        try:
            slots = np.asarray(slots, dtype=np.int64)
        except OverflowError:
            raise ValueError("slot must be below 2**63 and at least -2**63") from None
        checked = []
        for ids, bound, what in ((users, self.log.m, "user"), (cats, self.r, "category")):
            try:
                ids = np.asarray(ids, dtype=np.int64)
            except OverflowError:  # an id outside int64 is out of range too
                ids = None
            if ids is None or ids.size and not 0 <= ids.min() <= ids.max() < bound:
                raise ValueError(f"{what} ids must be in [0, {bound})")
            checked.append(ids)
        users, cats = checked
        group = _encode_keys(users, cats, 0, self._radices)
        # every event slot is below l, so clamping keeps later slots exact
        prev = self._event_keys.take(
            self._after_sentinel.searchsorted(group + np.minimum(slots, self.log.l)))
        return np.where(prev >= group, slots - (prev - group), np.inf)[()]

    def user_gaps(self, user: int, slot: int) -> np.ndarray:
        """The r gaps of one user at one slot, bit for bit
        ``query(user, np.arange(r), slot)``: one search of r keys, without
        the broadcast path's array checks.  A user outside ``[0, m)`` or a
        slot of 2**63 or more raises ``ValueError``.

        The needles are the keys of ``(user, c, s)``, ``s = min(slot, l)``.
        ``rel``, the found key minus the needle, is in ``[-s, -1]`` exactly
        when that key is a purchase of the user in ``c``, and the gap is
        then ``slot - s - rel``.  The found key is at least the sentinel
        -1, so ``rel`` cannot wrap in int64, where ``needle - key`` could."""
        user, slot = operator.index(user), operator.index(slot)
        if not 0 <= user < self.log.m:
            raise ValueError(f"user ids must be in [0, {self.log.m})")
        if slot >= 2**63:
            raise ValueError(f"slot must be below 2**63, got {slot}")
        if slot < 0:  # no purchase lies before slot 0
            return np.full(self.r, np.inf)
        s = min(slot, self.log.l)  # every event slot is below l
        needles = self._cat_keys + (user * self._user_span + s)
        rel = self._event_keys.take(self._after_sentinel.searchsorted(needles))
        rel -= needles
        gaps = ((slot - s) - rel).astype(np.float64)
        gaps[rel < -s] = np.inf
        return gaps


def build_recency_index(log: PurchaseLog, cats: CategoryMap) -> RecencyIndex:
    """The recency index of a log for the callers that score."""
    return RecencyIndex(log, cats)


@dataclass(eq=False)
class SplitSpec:
    """Per-user holdout split.  Both logs keep the full log's dimensions."""

    train: PurchaseLog
    test: PurchaseLog


def split_train_test(log: PurchaseLog, fraction: float, seed: int) -> SplitSpec:
    """Hold out ``min(int(fraction * cnt + 0.5), cnt - 1)`` of each user's
    ``cnt`` triplets, a uniform subset, so no user is left empty.

    A triplet's int64 key is its user over ``63 - m.bit_length()`` bits of
    one draw; a stable argsort of the keys shuffles each user's block in
    place (the log is sorted by user; equal draws keep log order), and the
    first triplets of each block are held out.  Deterministic in seed."""
    if not 0.0 <= fraction < 1.0:
        raise DataFormatError(f"split fraction must be in [0, 1), got {fraction}")
    bits = 63 - int(log.m).bit_length()
    keys = np.random.default_rng(seed).integers(0, 1 << bits, size=log.nnz)
    keys |= log.users.astype(np.int64) << bits
    order = np.argsort(keys, kind="stable")
    del keys
    counts = np.bincount(log.users, minlength=log.m)
    # min(., cnt - 1) holds out nothing of a one-triplet user
    held = np.minimum((fraction * counts + 0.5).astype(np.int64), counts - 1)
    held_mask = np.empty(log.nnz, dtype=bool)
    held_mask[order] = np.arange(log.nnz) < np.repeat(np.cumsum(counts) - counts + held, counts)

    def part(keep):
        # masking keeps the log's (user, item, slot) order and id dtype
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
# ``dtype`` is one code, to which the writer casts the value, or a tuple of
# accepted codes, in which the writer stores the value as it is given, so an
# id column is written in the dtype its log holds.  Both stream the data: the
# writer hashes and writes each entry from the caller's array, and the reader
# reads each entry straight into the array it returns.  Neither holds a copy
# of the file, so a process that loads an artifact keeps at most about its
# size in memory.


def _write_arrays(path, magic: bytes, version: int, spec, arrays: dict) -> None:
    """Write ``arrays`` (name -> array-like) in ``spec`` order to one
    checksummed file: an entry of one dtype code cast to it, an entry of a
    tuple of codes in its own dtype, which must be one of them.

    Each entry is hashed and written as it is cast, into ``<path>.tmp``,
    which replaces ``path`` once the digest is written.  A refused entry (a
    name over 16 bytes, which ``struct`` would cut; a value that does not
    cast to the spec's dtype, or is not of one of its dtypes, or has other
    dims) raises, and leaves ``path`` as it was and no temporary file."""
    tmp = f"{os.fspath(path)}.tmp"
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            def put(data):
                digest.update(data)
                fh.write(data)

            put(magic + struct.pack("<I", version))
            for name, dtype, ndim in spec:
                key = name.encode()
                if len(key) > 16:
                    raise ValueError(f"entry name {name!r} is longer than 16 bytes")
                codes = dtype if isinstance(dtype, tuple) else (dtype,)
                value = np.asarray(arrays[name], order="C",
                                   dtype=None if isinstance(dtype, tuple) else dtype)
                if value.dtype.str not in codes or value.ndim != ndim:
                    raise ValueError(f"entry {name!r} is not a {ndim}-d array of "
                                     f"{' or '.join(codes)}")
                put(struct.pack(f"<16s3sB{ndim}Q", key, value.dtype.str.encode(), ndim,
                                *value.shape))
                put(value)
            fh.write(digest.digest())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_arrays(path, magic: bytes, version: int, spec, error, kind: str) -> dict:
    """Read a file written by :func:`_write_arrays` into native arrays.

    Checks the magic, then the version, then each entry's header (its dtype
    code against the spec's codes before a dtype is built from it) and that
    its data ends before the digest starts, then that the entries end
    exactly there, then the digest; a failure raises ``error``.  A size is
    checked against the file's before anything is allocated for it.  Each
    entry is read straight into the writable, native-order array returned
    for it and hashed there, so the file is read once and not copied."""
    digest = hashlib.sha256()
    arrays = {}
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size - 32
        head = fh.read(len(magic) + 4)
        if head[: len(magic)] != magic:
            raise error(f"{path}: not a {kind}")
        if len(head) < len(magic) + 4:
            raise error(f"{path}: truncated {kind}")
        (found,) = struct.unpack_from("<I", head, len(magic))
        if found != version:
            raise error(f"{path}: unsupported {kind} version {found}")
        digest.update(head)

        def room(count):
            if fh.tell() + count > end:
                raise error(f"{path}: truncated {kind}")

        def take(count):
            room(count)
            data = fh.read(count)
            digest.update(data)
            return data

        for name, dtype, ndim in spec:
            codes = dtype if isinstance(dtype, tuple) else (dtype,)
            key, code, dims = struct.unpack("<16s3sB", take(20))
            if (key.rstrip(b"\0"), dims) != (name.encode(), ndim) or code.decode(
                    "ascii", "replace") not in codes:
                raise error(f"{path}: expected {' or '.join(codes)} array {name!r} "
                            f"of {ndim} dims in {kind}")
            shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
            stored = np.dtype(code.decode())
            room(math.prod(shape) * stored.itemsize)
            array = np.empty(shape, dtype=stored)
            fh.readinto(array.reshape(-1).view(np.uint8))
            digest.update(array)
            arrays[name] = array if stored.isnative else array.astype(stored.newbyteorder("="))
        if fh.tell() != end:
            raise error(f"{path}: trailing bytes in {kind}")
        if fh.read(32) != digest.digest():
            raise error(f"{path}: digest mismatch (corrupt {kind})")
    return arrays


# ---------------------------------------------------------------------------
# split bundle: what train hands to evaluate and recommend

_SPLIT_MAGIC = b"DRECSPL\x00"
_SPLIT_VERSION = 2
_ID_CODES = ("<i4", "<i8")
_ID_COLUMNS = ("users", "items", "slots")
_SPLIT_SPEC = (
    ("dims", "<i8", 1),  # m n l r
    # train_users, train_items, train_slots, then the same of test
    *((f"{part}_{column}", _ID_CODES, 1)
      for part in ("train", "test") for column in _ID_COLUMNS),
    ("assignment", "<i8", 1),
)


def export_log(train: PurchaseLog, test: PurchaseLog, cats: CategoryMap, path) -> None:
    """Write a train/test split and its category map as one bundle: the
    dimensions ``m n l r``, both sorted triplet sets with dense ids (the
    test set may be empty) and the dense item -> category assignment.  Each
    id column is stored in :func:`_id_dtype` of the dims, so a log's own
    columns are written without a copy and an int64 log of small dims is
    stored as int32; an id that the narrower dtype cannot hold is refused,
    not wrapped round to another id."""
    dtype = _id_dtype(train.m, train.n, train.l)
    columns = {}
    for part, log in (("train", train), ("test", test)):
        for column in _ID_COLUMNS:
            ids = getattr(log, column)
            columns[f"{part}_{column}"] = stored = ids.astype(dtype, copy=False)
            if stored is not ids and not np.array_equal(stored, ids):
                raise DataFormatError(f"{path}: {part}_{column} holds ids beyond {dtype}")
    _write_arrays(path, _SPLIT_MAGIC, _SPLIT_VERSION, _SPLIT_SPEC, {
        "dims": [train.m, train.n, train.l, cats.r],
        **columns,
        "assignment": cats.assignment,
    })


def _bundled_log(path, arrays, part, m, n, l) -> PurchaseLog:
    """Validate the ``<part>_users``, ``_items`` and ``_slots`` entries of a
    bundle: in :func:`_id_dtype` of the dims, of one length, within the
    declared bounds, strictly sorted (so free of duplicates)."""
    users, items, slots = (arrays[f"{part}_{column}"] for column in _ID_COLUMNS)
    dtype = _id_dtype(m, n, l)
    for column, ids in zip(_ID_COLUMNS, (users, items, slots)):
        if ids.dtype != dtype:
            raise DataFormatError(f"{path}: {part}_{column} holds {ids.dtype} ids, "
                                  f"expected {dtype} for dims m={m} n={n} l={l}")
    if not users.shape == items.shape == slots.shape:
        raise DataFormatError(f"{path}: {part} triplet columns differ in length")
    if users.shape[0] and (
        users.min() < 0 or users.max() >= m
        or items.min() < 0 or items.max() >= n
        or slots.min() < 0 or slots.max() >= l
    ):
        raise DataFormatError(f"{path}: triplet out of declared bounds")
    # a chunk at a time, each ending on the next one's first triplet, so that
    # every neighbouring pair is compared
    for lo in range(0, users.shape[0], _CHUNK_TRIPLETS):
        hi = lo + _CHUNK_TRIPLETS + 1
        keys = _encode_keys(users[lo:hi], items[lo:hi], slots[lo:hi], (m, n, l))
        if np.any(keys[1:] <= keys[:-1]):
            raise DataFormatError(f"{path}: duplicate or unsorted triplets in split bundle")
    # the declared horizon is kept: it may end in empty slots
    return PurchaseLog(users=users, items=items, slots=slots, m=m, n=n, l=l)


def load_log(path) -> tuple[PurchaseLog, PurchaseLog, CategoryMap]:
    """Read a bundle written by :func:`export_log` back, verbatim, as
    ``(train, test, cats)``; ``test`` may hold no records.  The id columns
    are read straight into the arrays of the logs; a bundle whose columns
    are not in :func:`_id_dtype` of its dims is refused."""
    arrays = _read_arrays(path, _SPLIT_MAGIC, _SPLIT_VERSION, _SPLIT_SPEC,
                          DataFormatError, "split bundle")
    if arrays["dims"].shape != (4,):
        raise DataFormatError(f"{path}: expected dims 'm n l r'")
    m, n, l, r = (int(v) for v in arrays["dims"])
    train = _bundled_log(path, arrays, "train", m, n, l)
    if train.nnz == 0:
        raise DataFormatError(f"{path}: empty train log")
    test = _bundled_log(path, arrays, "test", m, n, l)
    assignment = arrays["assignment"]
    if assignment.shape[0] != n:
        raise DataFormatError(f"{path}: expected {n} category assignments, "
                              f"found {assignment.shape[0]}")
    return train, test, CategoryMap(assignment=assignment, r=r)
