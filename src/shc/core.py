"""Core binary-code types, Hamming-space primitives, and packed file formats.

Codewords live in {-1,+1}^q.  On disk a codeword is bit-packed MSB-first:
bit j goes to byte j//8 at bit position 7-(j%8), with 1 for +1 and 0 for -1;
trailing pad bits are zero.  Header integers are unsigned 32-bit
little-endian.  All types are immutable after construction and safe to
share across threads.
"""

import struct
from contextlib import contextmanager

import numpy as np

__all__ = [
    "ShcError",
    "DimensionMismatchError",
    "ValidationError",
    "FormatError",
    "DegenerateInputError",
    "MissingClassError",
    "InfeasibleError",
    "CenterSet",
    "SimilarityMatrix",
    "CodeDatabase",
    "pack_code_rows",
    "unpack_code_rows",
    "write_centers",
    "read_centers",
    "write_codes",
    "read_codes",
]

CENTERS_MAGIC = b"SHC1"
CODES_MAGIC = b"SHCD"

_U32X2 = struct.Struct("<II")

# Tolerance within which the values given to SimilarityMatrix may deviate
# from symmetry, a unit diagonal and [-1, 1] before they are snapped exactly.
SNAP_TOL = 1e-9

# Bytes that a pass over C x C entries works on at a time, in row blocks or
# flat segments: stage 2's Gram, distance and loss passes and the descent's
# screen, and the similarity writer's formatted rows.
_BLOCK_BYTES = 1 << 18


class ShcError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(ShcError):
    """Operands have incompatible shapes or code lengths."""


class ValidationError(ShcError):
    """A value violates a type invariant or declared range."""


class FormatError(ShcError):
    """A byte or text stream is not a well-formed file of the expected kind."""


class DegenerateInputError(ShcError):
    """Structurally valid input for which the operation has no meaningful result."""


class MissingClassError(ShcError):
    """One or more class ids have no records."""

    def __init__(self, missing):
        self.missing = sorted(int(m) for m in missing)
        super().__init__(f"no records for classes: {self.missing}")


class InfeasibleError(ShcError):
    """The requested configuration admits no solution (e.g. C > 2^q)."""


def _pm1_array(values, what):
    """Validate a 2-d {-1,+1} array and return it as read-only, C-ordered int8."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValidationError(f"{what} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not ((arr == 1) | (arr == -1)).all():
        raise ValidationError(f"{what} entries must be exactly -1 or +1")
    out = arr.astype(np.int8, order="C")
    out.flags.writeable = False
    return out


class CenterSet:
    """C codewords of common length q; row i is the center of class id i."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        arr = _pm1_array(matrix, "center matrix")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError(f"center matrix must be at least 1x1, got shape {arr.shape}")
        self.matrix = arr

    @property
    def C(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def q(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return self.C

    def __eq__(self, other) -> bool:
        if not isinstance(other, CenterSet):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __repr__(self) -> str:
        return f"CenterSet(C={self.C}, q={self.q})"


def _symmetrize(arr, out=None) -> np.ndarray:
    """Average a square matrix with its transpose, clip to [-1, 1], set a unit diagonal.

    The result is built in ``out`` (a new array by default), made read-only
    and kept, not copied.  Addition commutes bit for bit, signed zeros
    included, so the result is bitwise symmetric.
    """
    sym = np.add(arr, arr.T, out=out)
    np.divide(sym, 2.0, out=sym)
    np.clip(sym, -1.0, 1.0, out=sym)
    np.fill_diagonal(sym, 1.0)
    sym.flags.writeable = False
    return sym


class SimilarityMatrix:
    """Symmetric C x C matrix of inter-class similarities in [-1, 1], unit diagonal.

    The constructor takes a finite, square matrix that is symmetric, has a
    unit diagonal and lies in [-1, 1], each within :data:`SNAP_TOL`, and
    snaps it exactly: averaged with its transpose, clipped and given a unit
    diagonal.  So every instance is bitwise symmetric, signed zeros too.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatchError(f"similarity matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValidationError("similarity matrix needs at least one class")
        if not np.isfinite(arr).all():
            raise ValidationError("similarity entries must be finite")
        # the asymmetry is measured in the one buffer that S is then snapped into and kept in
        buf = np.subtract(arr, arr.T)
        asym = np.abs(buf, out=buf).max()
        if asym > SNAP_TOL:
            raise ValidationError(f"similarity matrix asymmetry {asym:g} exceeds tolerance {SNAP_TOL:g}")
        diag_dev = np.abs(np.diag(arr) - 1.0).max()
        if diag_dev > SNAP_TOL:
            raise ValidationError(f"similarity diagonal deviates from 1 by {diag_dev:g} (> {SNAP_TOL:g})")
        overflow = max(0.0, max(float(arr.max()), -float(arr.min())) - 1.0)
        if overflow > SNAP_TOL:
            raise ValidationError(f"similarity entries exceed [-1, 1] by {overflow:g} (> {SNAP_TOL:g})")
        self.values = _symmetrize(arr, out=buf)

    @property
    def C(self) -> int:
        return int(self.values.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimilarityMatrix):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"SimilarityMatrix(C={self.C})"


class CodeDatabase:
    """N labeled binary codes of common length q."""

    __slots__ = ("labels", "codes")

    def __init__(self, labels, codes):
        code_arr = _pm1_array(codes, "codes")
        if code_arr.shape[1] < 1:
            raise ValidationError("code length must be at least 1")
        label_arr = np.asarray(labels)
        if label_arr.ndim != 1:
            raise ValidationError("labels must be 1-dimensional")
        if label_arr.shape[0] != code_arr.shape[0]:
            raise DimensionMismatchError(
                f"{label_arr.shape[0]} labels for {code_arr.shape[0]} codes"
            )
        if label_arr.size and (not np.issubdtype(label_arr.dtype, np.integer) or label_arr.min() < 0):
            raise ValidationError("labels must be nonnegative integers")
        if label_arr.size and int(label_arr.max()) > np.iinfo(np.int64).max:  # uint64 labels int64 cannot hold
            raise ValidationError(f"labels must be below 2**63, got {int(label_arr.max())}")
        label_arr = label_arr.astype(np.int64)
        label_arr.flags.writeable = False
        self.labels = label_arr
        self.codes = code_arr

    @property
    def q(self) -> int:
        return int(self.codes.shape[1])

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodeDatabase):
            return NotImplemented
        return (
            self.q == other.q
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.codes, other.codes)
        )

    def __repr__(self) -> str:
        return f"CodeDatabase(N={len(self)}, q={self.q})"


def _row_blocks(rows: int, row_bytes: int, budget: int | None = None) -> list[slice]:
    """Slices of consecutive rows, each at most ``budget`` bytes at ``row_bytes`` a row (one row at least).

    The budget defaults to _BLOCK_BYTES, read when called.
    """
    step = max(1, (_BLOCK_BYTES if budget is None else budget) // max(1, row_bytes))
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _pack_words(rows) -> np.ndarray:
    """Pack {-1,+1} rows MSB-first, as on disk, into (..., W) uint64 words.

    W = ceil(q/64); zero bits pad the last word, so they never differ.
    """
    packed = pack_code_rows(rows)
    if packed.shape[-1] % 8:
        packed = np.pad(packed, [(0, 0)] * (packed.ndim - 1) + [(0, -packed.shape[-1] % 8)])
    return packed.view(np.uint64)


def _unpack_words(words, q: int) -> np.ndarray:
    """The q bits of each row packed by :func:`_pack_words` or :func:`pack_code_rows`, as (..., q) bools."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=q).view(bool)


def _flip_bit(words, i: int, k: int) -> None:
    """Flip bit k of row i of words packed by :func:`_pack_words`, in place."""
    words.view(np.uint8)[i, k // 8] ^= 0x80 >> k % 8


def _hamming(a, b, q: int) -> np.ndarray:
    """Exact Hamming distances between rows packed by :func:`_pack_words`.

    Shaped like ``a @ b.T`` on the unpacked rows.  The popcounts of the
    XOR-ed words are summed in the smallest unsigned dtype that holds q
    (uint8 up to q = 255), so the distances stay exact and rank fast.
    """
    a = a.reshape(a.shape[:-1] + (1,) * (b.ndim - 1) + a.shape[-1:])
    dist = np.bitwise_count(a[..., 0] ^ b[..., 0]).astype(np.min_scalar_type(q), copy=False)
    for w in range(1, a.shape[-1]):
        dist += np.bitwise_count(a[..., w] ^ b[..., w])
    return dist


def pack_code_rows(matrix) -> np.ndarray:
    """Pack (N, q) rows of {-1,+1} into (N, ceil(q/8)) bytes, MSB-first."""
    return np.packbits(np.asarray(matrix) > 0, axis=-1)


def unpack_code_rows(packed, q: int) -> np.ndarray:
    """Inverse of :func:`pack_code_rows`; returns int8 rows of {-1,+1}."""
    return (_unpack_words(np.asarray(packed, dtype=np.uint8), q).astype(np.int8) * 2) - 1


@contextmanager
def _open_stream(f, mode):
    """Yield ``f`` if it is already a file object, else open the path; text must be UTF-8."""
    try:
        if hasattr(f, "write" if "w" in mode else "read"):
            yield f
        else:
            with open(f, mode, encoding=None if "b" in mode else "utf-8") as fh:
                yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}") from None


def _record_dtype(q: int, labeled: bool) -> np.dtype:
    """Layout of one packed record: u32 label (codes files only), then the code row."""
    code = ("code", "u1", ((q + 7) // 8,))
    return np.dtype([("label", "<u4"), code] if labeled else [code])


def _read_records(source, magic: bytes, labeled: bool) -> tuple[np.ndarray, int]:
    """Read ``magic | u32 count | u32 q | count records`` and return (records, q).

    The rest of the stream must hold exactly the records the header
    promises, and the pad bits of every packed row must be zero.
    """
    with _open_stream(source, "rb") as fh:
        head = fh.read(4 + _U32X2.size)
        if head[:4] != magic:
            raise FormatError(f"bad magic {head[:4]!r}, expected {magic!r}")
        if len(head) < 4 + _U32X2.size:
            raise FormatError("truncated stream while reading header")
        count, q = _U32X2.unpack(head[4:])
        if q == 0:
            raise FormatError("invalid header: q=0")
        dtype = _record_dtype(q, labeled)
        payload = fh.read()
    if len(payload) != count * dtype.itemsize:
        raise FormatError(
            f"header promises {count} records of {dtype.itemsize} bytes, "
            f"stream holds {len(payload)} bytes"
        )
    records = np.frombuffer(payload, dtype=dtype)
    pad = -q % 8
    if pad and (records["code"][:, -1] & ((1 << pad) - 1)).any():
        raise FormatError("nonzero pad bits after a packed code row")
    return records, q


def write_centers(centers: CenterSet, sink) -> None:
    """Write a center set: magic ``SHC1`` | u32 C | u32 q | C packed rows."""
    with _open_stream(sink, "wb") as fh:
        fh.write(CENTERS_MAGIC)
        fh.write(_U32X2.pack(centers.C, centers.q))
        fh.write(pack_code_rows(centers.matrix).tobytes())


def read_centers(source) -> CenterSet:
    """Read a center set written by :func:`write_centers`."""
    records, q = _read_records(source, CENTERS_MAGIC, labeled=False)
    if records.size == 0:
        raise FormatError(f"invalid header: C=0, q={q}")
    return CenterSet(unpack_code_rows(records["code"], q))


def write_codes(db: CodeDatabase, sink) -> None:
    """Write a code database: magic ``SHCD`` | u32 N | u32 q | N records.

    Each record is u32 label followed by the packed code row, so every
    label must be below 2**32; a larger one raises before anything is written.
    """
    if len(db) and int(db.labels.max()) > np.iinfo(np.uint32).max:
        raise ValidationError(f"code file labels must be below 2**32, got {int(db.labels.max())}")
    with _open_stream(sink, "wb") as fh:
        fh.write(CODES_MAGIC)
        fh.write(_U32X2.pack(len(db), db.q))
        records = np.zeros(len(db), dtype=_record_dtype(db.q, labeled=True))
        records["label"] = db.labels
        records["code"] = pack_code_rows(db.codes)
        fh.write(records.tobytes())


def read_codes(source) -> CodeDatabase:
    """Read a code database written by :func:`write_codes`."""
    records, q = _read_records(source, CODES_MAGIC, labeled=True)
    return CodeDatabase(records["label"].astype(np.int64), unpack_code_rows(records["code"], q))
