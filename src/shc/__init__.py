"""Semantic hash centers: similarity-aware binary codeword design and
Hamming-ranking retrieval evaluation.

The pipeline: build a class-similarity matrix from classifier logits (or
embedding cosines), pick the feasible minimum pairwise distance for the
code length, generate binary centers that track the similarities while
keeping that spacing, and score retrieval quality over labeled code
databases.  The ``shc`` command line exposes each stage.
"""

from .core import (
    CenterSet,
    CodeDatabase,
    DegenerateInputError,
    DimensionMismatchError,
    FormatError,
    InfeasibleError,
    MissingClassError,
    ShcError,
    SimilarityMatrix,
    ValidationError,
    read_centers,
    read_codes,
    write_centers,
    write_codes,
)
from .evaluation import DEFAULT_PR_GRID, EvalReport, evaluate
from .gv import compute_min_distance
from .optimizer import descend, init_centers, quality_metrics
from .similarity import build_similarity, cosine_similarity_matrix

__version__ = "0.1.0"

__all__ = [
    "CenterSet",
    "CodeDatabase",
    "SimilarityMatrix",
    "ShcError",
    "DimensionMismatchError",
    "ValidationError",
    "FormatError",
    "DegenerateInputError",
    "MissingClassError",
    "InfeasibleError",
    "write_centers",
    "read_centers",
    "write_codes",
    "read_codes",
    "compute_min_distance",
    "build_similarity",
    "cosine_similarity_matrix",
    "init_centers",
    "descend",
    "quality_metrics",
    "EvalReport",
    "DEFAULT_PR_GRID",
    "evaluate",
]
