"""Data-dependent class-similarity construction from classifier logits.

Pipeline: per image, softmax the logits with the image's own class masked
out; average those distributions per class; shift/scale each class row to
[-1, 1]; then symmetrize and force a unit diagonal.  A cosine variant
builds the matrix from per-class embedding vectors instead.
"""

from itertools import chain

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


def class_similarity_rows(labels, logits, mask: str = MASK_GROUND_TRUTH) -> np.ndarray:
    """Mean masked-softmax vector per class over (N,) labels and (N, C) logits.

    Rows are indexed by class id, and every class 0..C-1 must have at least
    one record.  ``mask`` selects whether each record masks its ground-truth
    label or its predicted (argmax) class.
    """
    if mask not in _MASK_MODES:
        raise ValidationError(f"mask must be one of {_MASK_MODES}, got {mask!r}")
    labels = np.asarray(labels, dtype=np.int64)
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or labels.shape != logits.shape[:1]:
        raise DimensionMismatchError(f"labels of shape {labels.shape} for logits of shape {logits.shape}")
    C = logits.shape[1]
    if labels.size and not 0 <= labels.min() <= labels.max() < C:
        raise ValidationError(f"labels must lie in [0, {C}), got {labels.min()}..{labels.max()}")
    counts = np.bincount(labels, minlength=C)
    if (counts == 0).any():
        raise MissingClassError(np.nonzero(counts == 0)[0])
    soft = masked_softmax(logits, labels if mask == MASK_GROUND_TRUTH else logits.argmax(axis=1))
    sums = np.zeros((C, C))
    np.add.at(sums, labels, soft)
    return sums / counts[:, None]


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


def build_similarity(labels, logits, mask: str = MASK_GROUND_TRUTH) -> SimilarityMatrix:
    """Full logits-to-similarity pipeline over (N,) labels and (N, C) logits."""
    rows = class_similarity_rows(labels, logits, mask=mask)
    normalized = np.stack([normalize_row(r) for r in rows])
    return symmetrize_and_unit_diag(normalized)


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


def _read_table(fh, what: str, width: int, count=None, head=(), converters=None) -> np.ndarray:
    """Parse the rest of ``fh`` as rows of ``width`` comma-separated fields, with numpy's text reader.

    Lines holding only whitespace are skipped.  The leading ``head`` fields
    (name, dtype) are followed by a float ``values`` field of the remaining
    width; with ``count``, the table must hold exactly that many rows.  The
    header's width is checked against the first row before it sizes the
    record dtype, and no header count sizes an allocation.
    """
    lines = (line for line in fh if not line.isspace())
    first = next(lines, None)
    if first is None:
        raise FormatError(f"{what}: no rows after the header")
    found = first.count(",") + 1
    if found != width:
        raise FormatError(f"{what} row 0: expected {width} values, got {found}")
    dtype = np.dtype([*head, ("values", "<f8", (width - len(head),))])
    try:
        rows = np.loadtxt(chain([first], lines), dtype=dtype, delimiter=",", comments=None,
                          converters=converters, ndmin=1)
    except ValueError as exc:
        raise FormatError(f"{what}: {str(exc).split(';')[0]}") from None
    if count is not None and len(rows) != count:
        raise FormatError(f"{what}: expected {count} rows, got {len(rows)}")
    return rows


def read_logits(source) -> tuple[np.ndarray, np.ndarray]:
    """Parse a logit file into (N,) labels and (N, C) logits.

    The first line is ``C=<int>``, then one ``id,label,logit_0,...`` line
    per record; the id column is required and ignored, and labels are
    integers in [0, C).  Logits are checked for finiteness once, by
    :func:`masked_softmax`.
    """
    with _open_stream(source, "r") as fh:
        header = fh.readline()
        if not header:
            raise FormatError("empty logit file")
        C = _parse_header_int(header.strip(), "C", "logit file header")
        rows = _read_table(fh, "logit file", 2 + C, head=[("id", "u1"), ("label", "<i8")],
                           converters={0: lambda _: 0})
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
        rows = _read_table(fh, "embedding file", D, count=C)["values"]
        if not np.isfinite(rows).all():
            raise FormatError("embedding file: non-finite value")
    return rows


def write_similarity(matrix: SimilarityMatrix, sink) -> None:
    """Write a similarity matrix: first line C, then C comma-separated rows."""
    with _open_stream(sink, "w") as fh:
        fh.write(f"{matrix.C}\n")
        np.savetxt(fh, matrix.values, fmt="%.17g", delimiter=",")


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
        values = _read_table(fh, "similarity file", C, count=C)["values"]
    return SimilarityMatrix.snap(values)
