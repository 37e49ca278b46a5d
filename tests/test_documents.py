import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsnake.blocks import rmgc_block
from permsnake.constructions import GrayCode, snake_from_rmgc
from permsnake.documents import (
    CodeDocument,
    detect_kind,
    format_document,
    format_ksnake,
    format_rmgc_document,
    parse_document,
    parse_ksnake_fields,
    parse_rmgc_document,
)
from permsnake.errors import ParseError, VerificationError
from permsnake.rmgc import RmgcSequence, build_rmgc


def test_cyclic_document_round_trip():
    doc = CodeDocument(snake_from_rmgc(6), "thm1")
    text = format_document(doc)
    assert text.splitlines()[0] == (
        "snake n=6 size=54 metric=linf cyclic=true method=thm1"
    )
    assert parse_document(text) == doc


def test_noncyclic_document_round_trip_with_codewords():
    block = rmgc_block((1, 4, 2, 6, 3, 5), 2)
    doc = CodeDocument(
        GrayCode(6, block.start, block.transitions, False, "linf"), "lemma3"
    )
    text = format_document(doc, include_codewords=True)
    assert "codewords:" in text
    assert text.splitlines()[1] == "1 4 2 6 3 5"
    assert parse_document(text) == doc


def test_document_header_errors():
    with pytest.raises(ParseError):
        parse_document("")
    with pytest.raises(ParseError):
        parse_document("ksnake n=5 size=57\n1 2 3 4 5\n3 3")
    with pytest.raises(ParseError):
        parse_document("snake n=6 size=54\n1 4 2 6 3 5\n3 3")
    with pytest.raises(ParseError):
        parse_document(
            "snake n=6 size=54 metric=linf cyclic=true method=thm1\n"
            "1 4 2 6 3 5\n3 3 4"
        )
    with pytest.raises(ParseError):
        parse_document(
            "snake n=3 size=2 metric=manhattan cyclic=false method=x\n1 2 3\n2"
        )


def test_document_rejects_tampered_codeword_listing():
    doc = CodeDocument(snake_from_rmgc(6), "thm1")
    text = format_document(doc, include_codewords=True)
    lines = text.splitlines()
    at = lines.index("codewords:") + 3
    lines[at] = "6 5 4 3 2 1"
    with pytest.raises(VerificationError, match="codeword listing"):
        parse_document("\n".join(lines) + "\n")


def test_detect_kind():
    assert detect_kind("snake n=6 ...") == "snake"
    assert detect_kind("\n\nksnake n=5 size=57") == "ksnake"
    assert detect_kind("rmgc n=4 len=24") == "rmgc"
    with pytest.raises(ParseError):
        detect_kind("   \n  ")


def test_rmgc_document_round_trip():
    r = build_rmgc(4)
    text = format_rmgc_document(r)
    assert text.splitlines()[0] == "rmgc n=4 len=24"
    assert parse_rmgc_document(text) == r


def test_rmgc_document_errors():
    with pytest.raises(ParseError):
        parse_rmgc_document("rmgc n=4 len=24\n4 4 4")
    with pytest.raises(ParseError):
        parse_rmgc_document("rmgc n=4\n4")
    with pytest.raises(ParseError):
        # length field disagreeing with n! is caught by the sequence type
        parse_rmgc_document("rmgc n=3 len=3\n3 3 2")


@st.composite
def documents(draw):
    """Any Gray code the snake format can hold, under a one-token method name."""
    n = draw(st.integers(1, 8))
    start = tuple(draw(st.permutations(range(1, n + 1))))
    cyclic = n >= 2 and draw(st.booleans())
    longest = 70 if n >= 2 else 0
    transitions = draw(st.lists(st.integers(2, max(2, n)), min_size=int(cyclic), max_size=longest))
    metric = draw(st.sampled_from(["linf", "kendall"]))
    method = draw(st.from_regex(r"[a-z0-9-]{1,12}", fullmatch=True))
    return CodeDocument(GrayCode(n, start, tuple(transitions), cyclic, metric), method)


def body_tokens(lines):
    """Token counts of the transition lines: 30 each, the last one 1..30."""
    return [len(ln.split()) for ln in lines]


@settings(max_examples=200, deadline=None)
@given(documents(), st.booleans())
def test_document_round_trip_property(doc, with_codewords):
    text = format_document(doc, include_codewords=with_codewords)
    assert parse_document(text) == doc
    lines = text.splitlines()
    body = lines[2 : lines.index("codewords:")] if with_codewords else lines[2:]
    counts = body_tokens(body)
    assert sum(counts) == len(doc.code.transitions)
    assert all(c == 30 for c in counts[:-1]) and all(1 <= c <= 30 for c in counts)


@st.composite
def rmgc_sequences(draw):
    n = draw(st.integers(2, 5))
    size = math.factorial(n)
    seq = draw(st.lists(st.integers(2, n), min_size=size, max_size=size))
    return RmgcSequence(n, tuple(seq))


@settings(max_examples=100, deadline=None)
@given(rmgc_sequences())
def test_rmgc_document_round_trip_property(r):
    text = format_rmgc_document(r)
    assert parse_rmgc_document(text) == r
    lines = text.splitlines()
    assert lines[0] == f"rmgc n={r.n} len={len(r.seq)}"
    counts = body_tokens(lines[1:])
    assert sum(counts) == len(r.seq)
    assert all(c == 30 for c in counts[:-1]) and 1 <= counts[-1] <= 30


@st.composite
def ksnakes(draw):
    """Cyclic Kendall-tagged codes as the ksnake format holds them, unverified."""
    n = draw(st.integers(1, 8))
    start = tuple(draw(st.permutations(range(1, n + 1))))
    transitions = draw(st.lists(st.integers(2, max(2, n)), min_size=1, max_size=70))
    return GrayCode(n, start, tuple(transitions), True, "kendall")


@settings(max_examples=200, deadline=None)
@given(ksnakes())
def test_ksnake_round_trip_property(snake):
    text = format_ksnake(snake)
    assert parse_ksnake_fields(text) == snake
    lines = text.splitlines()
    assert lines[0] == f"ksnake n={snake.n} size={snake.size}"
    assert len(lines) == 3 and len(lines[2].split()) == len(snake.transitions)
