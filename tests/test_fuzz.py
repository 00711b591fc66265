"""Readers fed arbitrary input must return or raise ShcError, never another exception."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shc.core import ShcError, read_centers, read_codes
from shc.similarity import read_embeddings, read_similarity, stream_similarity

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
