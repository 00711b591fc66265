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
)

__all__ = [
    "MASK_GROUND_TRUTH",
    "MASK_ARGMAX",
    "masked_softmax",
    "class_similarity_rows",
    "normalize_row",
    "symmetrize_and_unit_diag",
    "build_similarity",
    "stream_similarity",
    "cosine_similarity_matrix",
    "read_logits",
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
# logit: 23.6-25.5 bytes by tracemalloc at C = 10 and 100 with either mask
# (the parsed float64 record, the kept logits, the softmax output, the keep
# mask).  stream_similarity's memory is the budget plus a few C x C arrays,
# whatever the record count; 256 KiB to 16 MiB chunks all ran as fast as
# the whole-file path on 30k x 100 logits.
LOGIT_CHUNK_BYTES = 1 << 20
LOGIT_BYTES_PER_VALUE = 26


def masked_softmax(logits, masked) -> np.ndarray:
    """Row-wise softmax of (N, C) logits with entry ``masked[i]`` of row i pinned to 0.

    The masked entry is excluded from the normalization (equivalent to
    setting its logit to -inf) and the rest use max-subtraction for
    stability, so every output row sums to 1.
    """
    arr = np.asarray(logits, dtype=np.float64)
    masked = np.asarray(masked)
    if arr.ndim != 2:
        raise ValidationError(f"logits must be an (N, C) matrix, got shape {arr.shape}")
    N, C = arr.shape
    if masked.shape != (N,):
        raise DimensionMismatchError(f"{masked.shape} masked indices for {N} logit rows")
    if not np.isfinite(arr).all():
        raise ValidationError("logits must be finite")
    if C < 2:
        raise DegenerateInputError("masked softmax needs at least 2 classes")
    if ((masked < 0) | (masked >= C)).any():
        raise ValidationError(f"masked indices must lie in [0, {C}), got {masked.min()}..{masked.max()}")
    keep = np.ones((N, C), dtype=bool)
    keep[np.arange(N), masked] = False
    z = arr[keep].reshape(N, C - 1)
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
        if self.labels_in_range():
            self.counts += np.bincount(labels, minlength=self.C)
            self.finite = self.finite and bool(np.isfinite(logits).all())
            if self.finite and self.C >= 2:
                masked = labels if self.mask == MASK_GROUND_TRUTH else logits.argmax(axis=1)
                np.add.at(self.sums, labels, masked_softmax(logits, masked))

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


def class_similarity_rows(labels, logits, mask: str = MASK_GROUND_TRUTH) -> np.ndarray:
    """Mean masked-softmax vector per class over (N,) labels and (N, C) logits.

    Rows are indexed by class id, and every class 0..C-1 must have at least
    one record.  ``mask`` selects whether each record masks its ground-truth
    label or its predicted (argmax) class.
    """
    sums = _ClassSums(mask)
    labels = np.asarray(labels, dtype=np.int64)
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or labels.shape != logits.shape[:1]:
        raise DimensionMismatchError(f"labels of shape {labels.shape} for logits of shape {logits.shape}")
    sums.add(labels, logits)
    if not sums.labels_in_range():
        raise ValidationError(f"labels must lie in [0, {sums.C}), got {sums.low}..{sums.high}")
    return sums.mean_rows()


def normalize_row(row) -> np.ndarray:
    """Center a row at its mean and scale the largest deviation to magnitude 1."""
    arr = np.asarray(row, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"row must be a nonempty vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("row entries must be finite")
    centered = arr - arr.mean()
    scale = np.abs(centered).max()
    if scale == 0.0:
        raise DegenerateInputError("cannot normalize a constant row")
    return centered / scale


def symmetrize_and_unit_diag(rows) -> SimilarityMatrix:
    """Average a square matrix with its transpose and force the diagonal to 1."""
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("matrix entries must be finite")
    if arr.size and np.abs(arr).max() > 1.0:
        raise ValidationError("matrix entries must lie in [-1, 1]")
    return SimilarityMatrix._symmetrized(arr)


def _similarity_of_rows(rows) -> SimilarityMatrix:
    return symmetrize_and_unit_diag(np.stack([normalize_row(r) for r in rows]))


def build_similarity(labels, logits, mask: str = MASK_GROUND_TRUTH) -> SimilarityMatrix:
    """Full logits-to-similarity pipeline over (N,) labels and (N, C) logits."""
    return _similarity_of_rows(class_similarity_rows(labels, logits, mask=mask))


def stream_similarity(source, mask: str = MASK_GROUND_TRUTH) -> SimilarityMatrix:
    """``build_similarity(*read_logits(source), mask=mask)``, reading the file in record chunks.

    Each chunk holds at most ``LOGIT_CHUNK_BYTES // (LOGIT_BYTES_PER_VALUE * C)``
    records (at least one), so memory does not grow with the record count.
    The result and every diagnostic are those of the whole-file pipeline:
    a parse error anywhere wins, then the label range over all records,
    then a missing class, non-finite logits and C < 2.
    """
    sums = _ClassSums(mask)
    with _open_stream(source, "r") as fh:
        C = _read_logit_header(fh)
        chunk_rows = max(1, LOGIT_CHUNK_BYTES // (LOGIT_BYTES_PER_VALUE * C))
        records = chunks = 0
        for rows in _logit_rows(fh, C, chunk_rows):
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
    return SimilarityMatrix._symmetrized(unit @ unit.T)


def _parse_header_int(text, key, what):
    prefix = key + "="
    if not text.startswith(prefix):
        raise FormatError(f"{what}: expected '{prefix}<int>', got {text!r}")
    try:
        value = int(text[len(prefix):])
    except ValueError:
        raise FormatError(f"{what}: expected '{prefix}<int>', got {text!r}") from None
    if value < 1:
        raise FormatError(f"{what}: {key} must be positive, got {value}")
    return value


# The last "at row N" of a loadtxt message: a quoted field may hold the words too.
_LOADTXT_ROW = re.compile(r"(.*)at row (\d+)", re.S)


def _read_table(fh, what: str, width: int, count=None, head=(), converters=None, chunk_rows=None):
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
            rows = np.loadtxt(chain([line], islice(lines, rest)), dtype=dtype, delimiter=",", comments=None,
                              converters=converters, ndmin=1)
            line = next(lines, None)  # in the try: a decode error here reads as it would inside loadtxt
        except ValueError as exc:
            message = _LOADTXT_ROW.sub(lambda m: f"{m[1]}at row {int(m[2]) + done}", str(exc).split(";")[0], 1)
            raise FormatError(f"{what}: {message}") from None
        done += len(rows)
        yield rows
    if count is not None and done != count:
        raise FormatError(f"{what}: expected {count} rows, got {done}")


def _read_logit_header(fh) -> int:
    header = fh.readline()
    if not header:
        raise FormatError("empty logit file")
    return _parse_header_int(header.strip(), "C", "logit file header")


def _logit_rows(fh, C: int, chunk_rows=None):
    """The ``id,label,logit_0,...`` records after a logit file's header, as _read_table chunks."""
    return _read_table(fh, "logit file", 2 + C, head=[("id", "u1"), ("label", "<i8")],
                       converters={0: lambda _: 0}, chunk_rows=chunk_rows)


def read_logits(source) -> tuple[np.ndarray, np.ndarray]:
    """Parse a logit file into (N,) labels and (N, C) logits.

    The first line is ``C=<int>``, then one ``id,label,logit_0,...`` line
    per record; the id column is required and ignored, and labels are
    integers in [0, C).  Logits are checked for finiteness once, by
    :func:`masked_softmax`.  This holds the whole file in memory;
    :func:`stream_similarity` builds S from a logit file chunk by chunk.
    """
    with _open_stream(source, "r") as fh:
        C = _read_logit_header(fh)
        (rows,) = _logit_rows(fh, C)
    labels = rows["label"]
    if labels.min() < 0 or labels.max() >= C:
        raise FormatError(f"logit file: labels must lie in [0, {C}), got {labels.min()}..{labels.max()}")
    return labels, rows["values"]


def read_embeddings(source) -> np.ndarray:
    """Parse an embedding file: ``C=<int>,D=<int>`` then C rows of D reals."""
    with _open_stream(source, "r") as fh:
        header = fh.readline()
        if not header:
            raise FormatError("empty embedding file")
        fields = header.strip().split(",")
        if len(fields) != 2:
            raise FormatError(f"embedding header must be 'C=<int>,D=<int>', got {header.strip()!r}")
        C = _parse_header_int(fields[0], "C", "embedding header")
        D = _parse_header_int(fields[1], "D", "embedding header")
        (rows,) = _read_table(fh, "embedding file", D, count=C)
        rows = rows["values"]
        if not np.isfinite(rows).all():
            raise FormatError("embedding file: non-finite value")
    return rows


def write_similarity(matrix: SimilarityMatrix, sink) -> None:
    """Write a similarity matrix: first line C, then C comma-separated rows.

    The bytes are those of ``np.savetxt(fh, values, fmt="%.17g", delimiter=",")``.
    S is symmetric, so each upper-triangle entry is formatted once; its text
    is kept for the mirror entry, which is written with its later row.
    Mirror entries can differ only as 0.0 against -0.0, and those are
    written by their own sign.
    """
    values = matrix.values
    C = matrix.C
    mirror = np.empty((C, C), dtype="S24")  # %.17g of a float64 is at most 24 characters
    with _open_stream(sink, "w") as fh:
        fh.write(f"{C}\n")
        for i in range(C):
            own = [b"%.17g" % v for v in values[i, i:].tolist()]
            mirror[i + 1:, i] = own[1:]
            lower = mirror[i, :i].tolist()
            for j in np.flatnonzero(np.signbit(values[i, :i]) != np.signbit(values[:i, i])):
                lower[j] = b"-0" if np.signbit(values[i, j]) else b"0"
            fh.write(b",".join(lower + own).decode() + "\n")


def read_similarity(source) -> SimilarityMatrix:
    """Read a similarity matrix file; validates within ``SNAP_TOL`` and snaps exactly."""
    with _open_stream(source, "r") as fh:
        header = fh.readline()
        if not header:
            raise FormatError("empty similarity file")
        try:
            C = int(header.strip())
        except ValueError:
            raise FormatError(
                f"similarity header must be an integer class count, got {header.strip()!r}"
            ) from None
        if C < 1:
            raise FormatError(f"similarity class count must be positive, got {C}")
        (rows,) = _read_table(fh, "similarity file", C, count=C)
    return SimilarityMatrix.snap(rows["values"])
