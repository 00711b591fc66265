"""The public API: what ``shc`` and its modules export, and what they no longer do."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import shc
from shc.core import CenterSet, CodeDatabase, SimilarityMatrix

MODULES = ["cli", "core", "similarity", "gv", "optimizer", "evaluation"]

# Second doors to the package's kernels that only tests called (and, below,
# CodeDatabase.record and SimilarityMatrix.snap); the tests check those
# kernels directly and against tests/oracles.py.
REMOVED = [
    "hamming_distance",
    "inner_product",
    "_check_same_length",
    "rank_database",
    "average_precision",
    "normalize_row",
    "symmetrize_and_unit_diag",
    # the whole-file logit reader: stream_similarity is the one way from a logit file to S
    "read_logits",
    "_logit_rows",
    # the one-code type: a code is a {-1,+1} row of a CenterSet or CodeDatabase matrix
    "BinaryCode",
    # the loss kernels: no caller, and no gradient for a trainer to descend
    "LossConfig",
    "central_loss",
    "quantization_loss",
    "total_loss",
    # stage 1's internals: build_similarity (arrays) and stream_similarity (a logit file)
    # are its doors, and nothing outside stage 1 called these
    "masked_softmax",
    "class_similarity_rows",
]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from shc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(shc.__all__)
    assert len(set(shc.__all__)) == len(shc.__all__)


def test_modules_names_every_module():
    # a module added or removed later cannot drop out of the __all__ checks unnoticed
    package = Path(shc.__file__).parent
    found = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(MODULES) == sorted(found)


def test_losses_module_is_gone():
    assert importlib.util.find_spec("shc.losses") is None


@pytest.mark.parametrize("name", MODULES)
def test_module_defines_its_all(name):
    module = importlib.import_module(f"shc.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", ["shc", *(f"shc.{m}" for m in MODULES)])
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    assert [n for n in REMOVED if hasattr(module, n)] == []


def test_code_database_has_no_record_method():
    assert not hasattr(CodeDatabase, "record")


def test_similarity_matrix_has_no_snap_method():
    # the constructor snaps, as every similarity file and stage-2 array input did through snap
    assert not hasattr(SimilarityMatrix, "snap")


def test_similarity_matrix_has_no_symmetrized_method():
    # stage 1 hands its S to the constructor, which checks it like any other
    assert not hasattr(SimilarityMatrix, "_symmetrized")


@pytest.mark.parametrize("make", [
    lambda: CenterSet([[1, -1]]),
    lambda: SimilarityMatrix([[1.0]]),
    lambda: CodeDatabase([0], [[1, -1]]),
], ids=["CenterSet", "SimilarityMatrix", "CodeDatabase"])
def test_types_are_unhashable(make):
    # they compare by value and hold arrays, so none hashes
    with pytest.raises(TypeError):
        hash(make())
