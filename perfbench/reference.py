"""Independent numpy reference for every output the benchmark checks.

Nothing here imports ``shc``: the file formats and the formulas are
re-derived from the documented contracts, so a defect in the program
cannot hide behind the code that would check it.

- Similarity text: first line C, then C rows of comma-separated reals.
- SHC1 centers / SHCD codes: magic, u32 LE count, u32 LE q, then rows
  bit-packed MSB-first (1 = +1); SHCD rows carry a u32 LE label first.
- Eval rules: rank by ascending Hamming distance, ties by ascending index;
  AP@K divides by the hits within the top K (0 when there are none);
  recall is 1 for a query whose label has no relevant records.
"""

import math
import struct

import numpy as np

# Cutoffs of the CLI's default precision/recall grid, as its help text states.
DEFAULT_PR_GRID = [*range(1, 6), *range(10, 51, 5), *range(60, 101, 10), *range(150, 501, 50)]

# Query rows ranked per block in the eval reference; bounds its memory to
# about 30 bytes per (block row x database record).
EVAL_BLOCK = 64


def gv_bound(q: int, C: int) -> int:
    """Smallest d with 2^q <= C * sum_{i<d} binom(q, i); q when C == 1."""
    if C == 1:
        return q
    ball = 0
    for d in range(1, q + 1):
        ball += math.comb(q, d - 1)
        if 2**q <= C * ball:
            return d
    raise ValueError(f"no feasible distance for q={q}, C={C}")


def read_similarity_text(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        C = int(fh.readline())
        values = np.array([line.split(",") for line in fh.read().splitlines()], dtype=np.float64)
    if values.shape != (C, C):
        raise ValueError(f"similarity file {path}: shape {values.shape}, header says {C}")
    return values


def _header(data: bytes, magic: bytes):
    if data[:4] != magic:
        raise ValueError(f"bad magic {data[:4]!r}, expected {magic!r}")
    return struct.unpack_from("<II", data, 4)


def read_centers_file(path) -> np.ndarray:
    """SHC1 file to a (C, q) int8 array of {-1,+1}."""
    with open(path, "rb") as fh:
        data = fh.read()
    C, q = _header(data, b"SHC1")
    row_bytes = (q + 7) // 8
    if len(data) != 12 + C * row_bytes:
        raise ValueError(f"centers file {path}: {len(data)} bytes for C={C}, q={q}")
    packed = np.frombuffer(data, dtype=np.uint8, offset=12).reshape(C, row_bytes)
    return np.unpackbits(packed, axis=1)[:, :q].astype(np.int8) * 2 - 1


def code_dtype(q: int) -> np.dtype:
    return np.dtype([("label", "<u4"), ("code", "u1", ((q + 7) // 8,))])


def write_codes_file(path, labels: np.ndarray, bits: np.ndarray) -> None:
    """Write an SHCD file from labels and an (N, q) array of {0,1} bits."""
    N, q = bits.shape
    records = np.zeros(N, dtype=code_dtype(q))
    records["label"] = labels
    records["code"] = np.packbits(bits, axis=1)
    with open(path, "wb") as fh:
        fh.write(b"SHCD" + struct.pack("<II", N, q))
        fh.write(records.tobytes())


def read_codes_file(path) -> tuple[np.ndarray, np.ndarray]:
    """SHCD file to (labels int64, codes as (N, q) float32 of {-1,+1})."""
    with open(path, "rb") as fh:
        data = fh.read()
    N, q = _header(data, b"SHCD")
    dtype = code_dtype(q)
    if len(data) != 12 + N * dtype.itemsize:
        raise ValueError(f"codes file {path}: {len(data)} bytes for N={N}, q={q}")
    records = np.frombuffer(data, dtype=dtype, offset=12)
    bits = np.unpackbits(records["code"], axis=1)[:, :q]
    return records["label"].astype(np.int64), bits.astype(np.float32) * 2 - 1


def center_quality(centers: np.ndarray, S: np.ndarray, d: int) -> dict:
    """d_min, s_loss = ||S - H^T H / q||_F^2 and pairs closer than d."""
    C, q = centers.shape
    rows = centers.astype(np.float64)
    G = rows @ rows.T
    fit = S - G / q
    iu = np.triu_indices(C, k=1)
    dist = (q - G[iu]) / 2
    return {
        "d_min": int(dist.min()) if C > 1 else None,
        "s_loss": float((fit * fit).sum()),
        "violations": int(np.count_nonzero(dist < d)),
    }


def cosine_similarity(embeddings: np.ndarray) -> np.ndarray:
    unit = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
    S = np.clip(unit @ unit.T, -1.0, 1.0)
    S = (S + S.T) / 2
    np.fill_diagonal(S, 1.0)
    return S


def logit_similarity(labels: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Ground-truth-masked softmax, class means, row normalization, symmetrize."""
    n, C = logits.shape
    masked = logits.copy()
    masked[np.arange(n), labels] = -np.inf
    e = np.exp(masked - masked.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    sums = np.zeros((C, C))
    np.add.at(sums, labels, probs)
    rows = sums / np.bincount(labels, minlength=C)[:, None]
    centered = rows - rows.mean(axis=1, keepdims=True)
    normalized = centered / np.abs(centered).max(axis=1, keepdims=True)
    S = (normalized + normalized.T) / 2
    np.fill_diagonal(S, 1.0)
    return S


def eval_report(query_labels, query_codes, db_labels, db_codes, top_ks: dict, grid) -> dict:
    """MAP at each labelled cutoff of ``top_ks`` and the curves over ``grid``."""
    N, q = db_codes.shape
    cutoffs = sorted(set(top_ks.values()) | set(grid))
    at = np.minimum(cutoffs, N) - 1
    hits = np.empty((len(query_labels), len(cutoffs)))
    ap = np.empty_like(hits)
    positions = np.arange(1, N + 1)
    for lo in range(0, len(query_labels), EVAL_BLOCK):
        block = slice(lo, lo + EVAL_BLOCK)
        # float32 inner products of +-1 vectors are exact integers for q < 2^24
        dist = (q - query_codes[block] @ db_codes.T) / 2
        order = np.argsort(dist, axis=1, kind="stable")
        rel = db_labels[order] == query_labels[block, None]
        cum = np.cumsum(rel, axis=1)
        ap_num = np.cumsum(np.where(rel, cum / positions, 0.0), axis=1)[:, at]
        hits[block] = cum[:, at]
        ap[block] = np.divide(ap_num, hits[block], out=np.zeros_like(ap_num), where=hits[block] > 0)
    totals = np.bincount(db_labels, minlength=int(query_labels.max()) + 1)[query_labels]
    precision = (hits / np.minimum(cutoffs, N)).mean(axis=0)
    recall = np.where(totals[:, None] > 0, hits / np.maximum(totals, 1)[:, None], 1.0).mean(axis=0)
    col = {k: i for i, k in enumerate(cutoffs)}
    return {
        "map_at": {label: float(ap[:, col[k]].mean()) for label, k in top_ks.items()},
        "precision_curve": [[k, float(precision[col[k]])] for k in grid],
        "recall_curve": [[k, float(recall[col[k]])] for k in grid],
        "pr_curve": [[float(recall[col[k]]), float(precision[col[k]])] for k in grid],
        "query_count": len(query_labels),
    }


def mismatches(expected, actual, tol: float = 1e-9, path: str = "") -> list[str]:
    """Paths at which two JSON-like values differ (numbers within ``tol``)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected for m in mismatches(expected[k], actual[k], tol, f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in mismatches(e, a, tol, f"{path}[{i}]")]
    if isinstance(expected, bool) or isinstance(actual, bool) or expected is None or actual is None:
        return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        ok = math.isclose(expected, actual, rel_tol=tol, abs_tol=tol)
        return [] if ok else [f"{path}: {actual!r} != {expected!r}"]
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]
