"""Readers fed arbitrary input must return or raise ShcError, never another exception.

Stage 1 fed any finite input it accepts must return an S that meets the
SimilarityMatrix rule, never a ValidationError of that rule.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shc.core import DegenerateInputError, ShcError, read_centers, read_codes
from shc.similarity import (
    MASK_ARGMAX,
    MASK_GROUND_TRUTH,
    build_similarity,
    cosine_similarity_matrix,
    read_embeddings,
    read_similarity,
    stream_similarity,
)

TEXT_READERS = {
    "logits": stream_similarity,
    "embeddings": read_embeddings,
    "similarity": read_similarity,
}
READERS = {**TEXT_READERS, "centers": read_centers, "codes": read_codes}

# Valid-looking starts, so the fuzzer gets past the header checks often.
PREFIXES = ["", "C=2\n", "C=1\n", "2\n", "1\n", "C=2,D=2\n", "SHC1", "SHCD"]
# Characters the text formats are made of, plus a few that they are not.
ALPHABET = "0123456789,.-+eE=CD\n infa_\r\t\x00\xff٣"

fuzz_bytes = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda prefix, body: prefix.encode("latin-1") + body,
        st.sampled_from(PREFIXES),
        st.binary(max_size=64),
    ),
)
fuzz_text = st.builds(
    lambda prefix, body: prefix + body,
    st.sampled_from(PREFIXES),
    st.one_of(st.text(ALPHABET, max_size=80), st.text(max_size=40)),
)


def _returns_or_raises_shc_error(reader, source):
    try:
        reader(source)
    except ShcError:
        pass


@pytest.mark.parametrize("kind", sorted(READERS))
def test_arbitrary_bytes_from_file(kind, tmp_path_factory):
    path = tmp_path_factory.mktemp(kind) / "input"

    @settings(max_examples=60, deadline=None)
    @given(fuzz_bytes)
    def check(data):
        path.write_bytes(data)
        _returns_or_raises_shc_error(READERS[kind], path)

    check()


@pytest.mark.parametrize("kind", sorted(TEXT_READERS))
@settings(max_examples=60, deadline=None)
@given(text=fuzz_text)
def test_arbitrary_text_from_stream(kind, text):
    _returns_or_raises_shc_error(TEXT_READERS[kind], io.StringIO(text))


def _meets_the_rule(S):
    values = S.values
    assert values.tobytes() == values.T.tobytes(order="C")
    assert (np.diag(values) == 1.0).all()
    assert np.isfinite(values).all() and np.abs(values).max() <= 1.0


# A row of embedding entries mantissa * 2**exponent: near 1e308, subnormal, or each entry at any scale.
ROW_EXPONENTS = {
    "huge": st.just(1023),
    "subnormal": st.integers(-1074, -1023),
    "mixed": st.integers(-1074, 1023),
}
embedding_rows = st.integers(1, 5).flatmap(lambda D: st.lists(
    st.sampled_from(sorted(ROW_EXPONENTS)).flatmap(lambda kind: st.lists(
        st.tuples(st.floats(-1.99, 1.99), ROW_EXPONENTS[kind]), min_size=D, max_size=D)),
    min_size=1, max_size=6,
))


@settings(max_examples=60, deadline=None)
@given(embedding_rows)
def test_finite_embeddings_give_an_s_that_meets_the_rule(rows):
    emb = np.array([[np.ldexp(m, e) for m, e in row] for row in rows])
    emb[~emb.any(axis=1), 0] = 5e-324  # the smallest subnormal: no row is zero
    _meets_the_rule(cosine_similarity_matrix(emb))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda C: st.tuples(
    st.permutations(range(C)),
    st.lists(st.integers(0, C - 1), max_size=6),
    st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=C, max_size=C),
             min_size=C + 6, max_size=C + 6),
)), st.sampled_from([MASK_GROUND_TRUTH, MASK_ARGMAX]))
def test_finite_logits_of_every_class_give_an_s_that_meets_the_rule(records, mask):
    every_class, more, logits = records
    labels = np.array([*every_class, *more], dtype=np.int64)
    try:
        S = build_similarity(labels, np.array(logits[: len(labels)]), mask=mask)
    except DegenerateInputError:
        # an argmax-masked class can average to a constant row; a ground-truth mask zeroes
        # each class's own entry and puts mass on another, so it cannot
        assert mask == MASK_ARGMAX
        return
    _meets_the_rule(S)
