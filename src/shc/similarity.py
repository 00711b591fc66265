"""Data-dependent class-similarity construction from classifier logits.

Pipeline: per image, softmax the logits with the image's own class masked
out; average those distributions per class; shift/scale each class row to
[-1, 1]; then symmetrize and force a unit diagonal.  A cosine variant
builds the matrix from per-class embedding vectors instead.
"""

import logging
import math
import re
from itertools import chain, islice

import numpy as np

from .core import (
    DegenerateInputError,
    DimensionMismatchError,
    FormatError,
    MissingClassError,
    SimilarityMatrix,
    ValidationError,
    _open_stream,
    _row_blocks,
    _symmetrize,
)

__all__ = [
    "MASK_GROUND_TRUTH",
    "MASK_ARGMAX",
    "build_similarity",
    "stream_similarity",
    "cosine_similarity_matrix",
    "read_embeddings",
    "read_similarity",
    "write_similarity",
]

# Which logit entry gets masked before the softmax: the record's ground-truth
# label (default; keeps per-class averages off the diagonal) or the argmax of
# its logits (the predicted class).
MASK_GROUND_TRUTH = "ground-truth"
MASK_ARGMAX = "argmax"
_MASK_MODES = (MASK_GROUND_TRUTH, MASK_ARGMAX)

log = logging.getLogger(__name__)

# Working-memory budget of one logit chunk, and the most a chunk holds per
# logit: 25.1-26.3 bytes by tracemalloc at C = 10 and 100 with either mask
# (the parsed record with its 4-byte id, the kept logits, the softmax
# output, the keep mask, the argmax).  A record's id, label and argmax do
# not shrink with C, so a record is budgeted one logit more than it holds:
# 81 bytes at C = 2, where it holds 62.  stream_similarity's memory is the
# budget plus a few C x C arrays, whatever the record count; 256 KiB to
# 16 MiB chunks all ran as fast as the whole-file path on 30k x 100 logits.
LOGIT_CHUNK_BYTES = 1 << 20
LOGIT_BYTES_PER_VALUE = 27


def _masked_softmax(logits: np.ndarray, masked: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (N, C) logits with entry ``masked[i]`` of row i pinned to 0.

    The masked entry is excluded from the normalization (equivalent to
    setting its logit to -inf) and the rest use max-subtraction for
    stability, so every output row sums to 1.  Its caller, ``_ClassSums.add``,
    has checked the input: finite 2-d float64 logits, C >= 2, and N integer
    indices in [0, C).
    """
    N, C = logits.shape
    keep = np.ones((N, C), dtype=bool)
    keep[np.arange(N), masked] = False
    z = logits[keep].reshape(N, C - 1)
    with np.errstate(over="ignore"):  # kept logits spanning more than float64's range shift to -inf, exp 0
        z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    out = np.zeros((N, C))
    out[keep] = z.ravel()
    return out


class _ClassSums:
    """Per-class sums and counts of masked-softmax vectors, added one record chunk at a time.

    Chunks add in record order with ``np.add.at``, so the sums do not depend
    on the chunking.  A chunk whose labels leave [0, C) or whose logits are
    not finite is not summed; the fault, and the label min..max over every
    chunk, are reported once all chunks are in.
    """

    def __init__(self, mask: str):
        if mask not in _MASK_MODES:
            raise ValidationError(f"mask must be one of {_MASK_MODES}, got {mask!r}")
        self.mask = mask
        self.sums = None
        self.low, self.high = math.inf, -math.inf
        self.finite = True

    def add(self, labels: np.ndarray, logits: np.ndarray) -> None:
        if self.sums is None:  # the first chunk's shape confirms C before it sizes the sums
            self.C = logits.shape[1]
            self.sums, self.counts = np.zeros((self.C, self.C)), np.zeros(self.C, dtype=np.int64)
        if labels.size:
            self.low, self.high = min(self.low, int(labels.min())), max(self.high, int(labels.max()))
        if self.labels_in_range():  # the range is read from the labels as passed, so this cast is exact
            labels = labels.astype(np.int64, copy=False)
            self.counts += np.bincount(labels, minlength=self.C)
            self.finite = self.finite and bool(np.isfinite(logits).all())
            if self.finite and self.C >= 2:
                masked = labels if self.mask == MASK_GROUND_TRUTH else logits.argmax(axis=1)
                np.add.at(self.sums, labels, _masked_softmax(logits, masked))

    def labels_in_range(self) -> bool:
        return 0 <= self.low and self.high < self.C

    def mean_rows(self) -> np.ndarray:
        """Mean vector per class, or the first fault: a missing class, non-finite logits, C < 2."""
        if (self.counts == 0).any():
            raise MissingClassError(np.nonzero(self.counts == 0)[0])
        if not self.finite:
            raise ValidationError("logits must be finite")
        if self.C < 2:
            raise DegenerateInputError("masked softmax needs at least 2 classes")
        return self.sums / self.counts[:, None]


def _similarity_of_rows(rows) -> SimilarityMatrix:
    """S from the class-mean rows: each row minus its mean, over its largest deviation, then symmetrized.

    The rows are normalized in place, in one pass.  They are finite class
    means, so each normalized row lies in [-1, 1], and their symmetrized S
    meets the :class:`SimilarityMatrix` rule, whose snap keeps its bits.
    """
    rows -= rows.mean(axis=1, keepdims=True)
    scale = np.maximum(rows.max(axis=1), -rows.min(axis=1))  # max |row| with no abs temporary
    if (scale == 0.0).any():
        raise DegenerateInputError("cannot normalize a constant row")
    rows /= scale[:, None]
    S = _symmetrize(rows)
    del rows  # freed before the constructor takes its buffer
    return SimilarityMatrix(S)


def build_similarity(labels, logits, mask: str = MASK_GROUND_TRUTH) -> SimilarityMatrix:
    """Full logits-to-similarity pipeline over (N,) integer labels and (N, C) logits.

    Every class 0..C-1 must have at least one record.  ``mask`` selects
    whether each record masks its ground-truth label or its predicted
    (argmax) class.
    """
    sums = _ClassSums(mask)
    labels = np.asarray(labels)
    if labels.size and not np.issubdtype(labels.dtype, np.integer):  # as in CodeDatabase: no floats, bools, strings
        raise ValidationError(f"labels must be integers, got dtype {labels.dtype}")
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or labels.shape != logits.shape[:1]:
        raise DimensionMismatchError(f"labels of shape {labels.shape} for logits of shape {logits.shape}")
    sums.add(labels, logits)
    if not sums.labels_in_range():
        raise ValidationError(f"labels must lie in [0, {sums.C}), got {sums.low}..{sums.high}")
    return _similarity_of_rows(sums.mean_rows())


def stream_similarity(source, mask: str = MASK_GROUND_TRUTH) -> SimilarityMatrix:
    """S from a logit file: ``C=<int>``, then one ``id,label,logit_0,...`` line per record.

    The id column is required and ignored; labels are integers in [0, C).
    The file is read in record chunks of at most
    ``LOGIT_CHUNK_BYTES // (LOGIT_BYTES_PER_VALUE * (C + 1))`` records (at
    least one), so memory does not grow with the record count.
    Neither S nor the diagnostic depends on the chunking: a parse error
    anywhere wins, then the label range over all records, then a missing
    class, non-finite logits and C < 2.
    """
    sums = _ClassSums(mask)
    with _open_stream(source, "r") as fh:
        (C,) = _read_header(fh, "logit", ("C",))
        chunk_rows = max(1, LOGIT_CHUNK_BYTES // (LOGIT_BYTES_PER_VALUE * (C + 1)))
        records = chunks = 0
        # The ignored id is read as one character, which numpy's reader
        # truncates to: any id parses, and no Python code runs per record.
        head = [("id", "U1"), ("label", "<i8")]
        for rows in _read_table(fh, "logit file", 2 + C, head=head, chunk_rows=chunk_rows):
            sums.add(rows["label"], rows["values"])
            records, chunks = records + len(rows), chunks + 1
    log.info("stream_similarity: %d records in %d chunks of up to %d rows (%d B per logit, %d B per chunk, "
             "%d classes)", records, chunks, min(chunk_rows, records), LOGIT_BYTES_PER_VALUE, LOGIT_CHUNK_BYTES, C)
    if not sums.labels_in_range():
        raise FormatError(f"logit file: labels must lie in [0, {C}), got {sums.low}..{sums.high}")
    return _similarity_of_rows(sums.mean_rows())


def cosine_similarity_matrix(embeddings) -> SimilarityMatrix:
    """Pairwise cosine similarities of per-class embedding vectors."""
    arr = np.asarray(embeddings, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"embeddings must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"embeddings must be at least 1x1, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("embeddings must be finite")
    # Scale each row by a power of two (exact) so the norm cannot overflow.
    arr = np.ldexp(arr, -np.frexp(np.abs(arr).max(axis=1))[1][:, None])
    norms = np.linalg.norm(arr, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise DegenerateInputError(f"zero-norm embeddings for classes: {zero.tolist()}")
    unit = arr / norms[:, None]
    return SimilarityMatrix(unit @ unit.T)


# A header integer is spelled as a field's: ASCII digits, an optional sign, optional spaces around.
_HEADER_INT = r"\s*([+-]?[0-9]+)\s*"


def _read_header(fh, kind: str, keys) -> list[int]:
    """Line 1 of a ``kind`` file: one ``key=<int>`` field per key (a bare ``<int>`` for key ""), each positive."""
    header = fh.readline()
    if not header:
        raise FormatError(f"empty {kind} file")
    text = header.strip()
    form = ",".join(f"{key}=<int>" if key else "<int>" for key in keys)
    match = re.fullmatch(form.replace("<int>", _HEADER_INT), text)
    try:
        values = [int(digits) for digits in match.groups()] if match else None
    except ValueError:  # more digits than int() converts
        values = None
    if values is None:
        raise FormatError(f"{kind} file header: expected {form!r}, got {text!r}")
    for key, value in zip(keys, values):
        if value < 1:
            raise FormatError(f"{kind} file header: {key or 'C'} must be positive, got {value}")
    return values


# The last "at row N" of a loadtxt message: a quoted field may hold the words too.
_LOADTXT_ROW = re.compile(r"(.*)at row (\d+)", re.S)


def _read_table(fh, what: str, width: int, count=None, head=(), chunk_rows=None):
    """Parse the rest of ``fh`` as rows of ``width`` comma-separated fields, with numpy's text reader.

    Yields chunks of ``chunk_rows`` rows, or the whole table as one chunk
    (whose caller unpacks it, which runs the ``count`` check).  Lines
    holding only whitespace are skipped.  The leading ``head`` fields (name,
    dtype) are followed by a float ``values`` field of the remaining width;
    with ``count``, the table must hold exactly that many rows.  The
    header's width is checked against the first row before it sizes the
    record dtype, and no header count sizes an allocation.  Parse errors
    count rows from the table's first row, whatever the chunk.
    """
    lines = (line for line in fh if not line.isspace())
    first = next(lines, None)
    if first is None:
        raise FormatError(f"{what}: no rows after the header")
    found = first.count(",") + 1
    if found != width:
        raise FormatError(f"{what} row 0: expected {width} values, got {found}")
    dtype = np.dtype([*head, ("values", "<f8", (width - len(head),))])
    rest = None if chunk_rows is None else chunk_rows - 1
    done, line = 0, first
    while line is not None:
        try:
            rows = np.loadtxt(chain([line], islice(lines, rest)), dtype=dtype, delimiter=",", comments=None, ndmin=1)
            line = next(lines, None)  # in the try: a decode error here reads as it would inside loadtxt
        except ValueError as exc:
            message = _LOADTXT_ROW.sub(lambda m: f"{m[1]}at row {int(m[2]) + done}", str(exc).split(";")[0], 1)
            raise FormatError(f"{what}: {message}") from None
        done += len(rows)
        yield rows
    if count is not None and done != count:
        raise FormatError(f"{what}: expected {count} rows, got {done}")


def read_embeddings(source) -> np.ndarray:
    """Parse an embedding file: ``C=<int>,D=<int>`` then C rows of D reals."""
    with _open_stream(source, "r") as fh:
        C, D = _read_header(fh, "embedding", ("C", "D"))
        (rows,) = _read_table(fh, "embedding file", D, count=C)
    return rows["values"]


# A formatted entry: the bytes of its %.17g text (at most 24) in order, with
# NULs among them, then a comma.  The writer drops the NULs.
_CELL = 25
# 5**(17 + z) scales |v| in [10**-(z + 1), 10**-z) to its 17 significant digits.
_POW5 = np.uint64(5) ** np.arange(17, 21, dtype=np.uint64)


def _format_cells(values: np.ndarray) -> np.ndarray:
    """``b"%.17g" % v`` of each double v of a 1-d array, as an (n, _CELL) uint8 array of cells.

    %.17g writes |v| in [1e-4, 1) in fixed notation: "0.", z = 0..3 zeros,
    then the 17 significant digits D = round(|v| * 10**(17 + z)) less their
    trailing zeros.  With |v| = m / 2**k for its 53-bit significand m, D is
    m * 5**(17 + z) / 2**(k - 17 - z) rounded half to even: a product of
    under 100 bits, taken exactly in two uint64 limbs.  No double in that
    range rounds up into the next decade, so D < 10**17.  Python formats the
    rest (±0, ±1, exponent notation, subnormals).
    """
    a = np.abs(values)
    fixed = (a >= 1e-4) & (a < 1.0)
    # Each of 1e-1, 1e-2, 1e-3 lies above the power of ten it rounds, so these compares are exact.
    z = (a < 1e-1).view(np.uint8) + (a < 1e-2).view(np.uint8)
    z += (a < 1e-3).view(np.uint8)
    bits = np.where(fixed, a, 0.5).view(np.uint64)  # 0.5 keeps the shifts in range for the other entries
    m = bits & (2**52 - 1) | 2**52
    shift = 1058 - (bits >> 52) - z  # k - 17 - z: k is 1075 less the biased exponent
    f = _POW5[z]
    m_hi, m_lo, f_hi, f_lo = m >> 32, m & 0xFFFFFFFF, f >> 32, f & 0xFFFFFFFF
    cross = m_lo * f_hi + m_hi * f_lo  # below 2**54
    low_lo = m_lo * f_lo
    low = low_lo + (cross << 32)  # mod 2**64: where it wraps, it carries into the high limb
    high = m_hi * f_hi + (cross >> 32) + (low < low_lo)
    D = high << (64 - shift) | low >> shift
    half = 1 << (shift - 1)
    rest = low & (2 * half - 1)
    D += (rest > half) | (rest == half) & (D & 1 == 1)
    cells = np.empty((_CELL, a.size), dtype=np.uint8)  # one row per byte; transposed on return
    cells[0] = np.signbit(values) * np.uint8(ord("-"))
    cells[1], cells[2] = ord("0"), ord(".")
    for row in range(3):
        cells[3 + row] = (z > row) * np.uint8(ord("0"))
    significant = np.zeros(a.size, dtype=bool)  # this digit or one right of it is nonzero
    D_hi = D // 10**9
    # The low 9 digits go to byte rows 22..14 and the high 8 to rows 13..6, last digit first, in
    # uint32: numpy divides it several times faster than uint64, and runs % slower than //.
    for part, rows in ((D - D_hi * 10**9, range(22, 13, -1)), (D_hi, range(13, 5, -1))):
        part = part.astype(np.uint32)
        for row in rows:
            tens = part // 10
            digit = part - tens * 10
            significant |= digit != 0
            cells[row] = (digit + ord("0")) * significant
            part = tens
    cells[23], cells[24] = 0, ord(",")
    cells = cells.T
    other = np.flatnonzero(~fixed)
    texts = np.array([b"%.17g" % v for v in values[other].tolist()], dtype="S24")
    cells[other, :24] = texts.view(np.uint8).reshape(-1, 24)
    return cells


def write_similarity(matrix: SimilarityMatrix, sink) -> None:
    """Write a similarity matrix: first line C, then C comma-separated rows.

    The bytes are those of ``np.savetxt(fh, values, fmt="%.17g", delimiter=",")``.
    S is bitwise symmetric, so only its upper triangle is formatted, packed
    row by row; row i is written as column i of the earlier rows followed
    by its own upper part.  Rows are formatted and written in blocks of
    core's block budget of cells: the traced peak is the triangle's
    C(C+1)/2 cells plus about 8 blocks, 6.5 / 49.9 MiB at C = 600 / 2000.
    """
    values = matrix.values
    C = matrix.C
    start = np.zeros(C + 1, dtype=np.int64)  # row i's upper part is cells[start[i]:start[i + 1]]
    np.cumsum(np.arange(C, 0, -1), out=start[1:])
    cells = np.empty((start[-1], _CELL), dtype=np.uint8)
    j = np.arange(C)
    with _open_stream(sink, "w") as fh:
        fh.write(f"{C}\n")
        for block in _row_blocks(C, _CELL * C):
            i0, i1 = block.start, block.stop
            i = np.arange(i0, i1)[:, None]
            cells[start[i0]:start[i1]] = _format_cells(values[i0:i1][j >= i])
            # entry (i, j) is the cell of (min(i, j), max(i, j)), formatted in this block or an earlier one
            text = np.take(cells, start[np.minimum(i, j)] + np.abs(i - j), axis=0)
            text[:, -1, -1] = ord("\n")  # in place of each row's last comma
            fh.write(text.tobytes().translate(None, b"\0").decode())  # faster than a numpy mask


def read_similarity(source) -> SimilarityMatrix:
    """Read a similarity matrix file into a :class:`SimilarityMatrix`, which snaps it within ``SNAP_TOL``."""
    with _open_stream(source, "r") as fh:
        (C,) = _read_header(fh, "similarity", ("",))
        (rows,) = _read_table(fh, "similarity file", C, count=C)
    return SimilarityMatrix(rows["values"])
