"""Semantic hash centers: similarity-aware binary codeword design and
Hamming-ranking retrieval evaluation.

The pipeline: build a class-similarity matrix from classifier logits (or
embedding cosines), pick the feasible minimum pairwise distance for the
code length, generate binary centers that track the similarities while
keeping that spacing, and score retrieval quality over labeled code
databases.  The ``shc`` command line exposes each stage.
"""

from .core import (
    BinaryCode,
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
    hamming_distance,
    inner_product,
    read_centers,
    read_codes,
    write_centers,
    write_codes,
)
from .evaluation import DEFAULT_PR_GRID, EvalReport, average_precision, evaluate, rank_database
from .gv import compute_min_distance
from .losses import LossConfig, central_loss, quantization_loss, total_loss
from .optimizer import (
    AlmHyperParams,
    AlmState,
    alm_objective,
    center_gradient,
    descend,
    init_centers,
    optimize,
    quality_metrics,
    update_center,
    update_multipliers,
    update_proxy,
    update_slack,
)
from .similarity import (
    build_similarity,
    class_similarity_rows,
    cosine_similarity_matrix,
    masked_softmax,
    normalize_row,
    symmetrize_and_unit_diag,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryCode",
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
    "hamming_distance",
    "inner_product",
    "write_centers",
    "read_centers",
    "write_codes",
    "read_codes",
    "compute_min_distance",
    "masked_softmax",
    "class_similarity_rows",
    "normalize_row",
    "symmetrize_and_unit_diag",
    "build_similarity",
    "cosine_similarity_matrix",
    "AlmHyperParams",
    "AlmState",
    "init_centers",
    "alm_objective",
    "update_proxy",
    "update_slack",
    "center_gradient",
    "update_center",
    "update_multipliers",
    "optimize",
    "descend",
    "quality_metrics",
    "LossConfig",
    "central_loss",
    "quantization_loss",
    "total_loss",
    "EvalReport",
    "DEFAULT_PR_GRID",
    "rank_database",
    "average_precision",
    "evaluate",
]
