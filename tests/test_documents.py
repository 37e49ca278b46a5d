import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permsnake._reader import _read_ints
from permsnake.blocks import rmgc_block
from permsnake.constructions import GrayCode, snake_from_rmgc
from permsnake.documents import (
    CodeDocument,
    _listed,
    _packed_transitions,
    _text_chunks,
    detect_kind,
    format_document,
    format_ksnake,
    format_rmgc_document,
    parse_document,
    parse_ksnake_fields,
    parse_rmgc_document,
)
from permsnake.errors import InvalidTransitionError, ParseError, VerificationError
from permsnake.perm import format_perm, parse_perm, parse_transitions
from permsnake.rmgc import RmgcSequence, build_rmgc


def reference_lines(values, per_line):
    """Lines of per_line tokens, each made with str.join."""
    return [" ".join(map(str, values[at : at + per_line])) for at in range(0, len(values), per_line)]


def reference_document(doc, with_codewords=False):
    """A snake document formatted line by line with str.join and format_perm."""
    code = doc.code
    lines = [
        f"snake n={code.n} size={code.size} metric={code.metric_tag} "
        f"cyclic={str(code.cyclic).lower()} method={doc.method}",
        format_perm(code.start),
        *reference_lines(code.transitions, 30),
    ]
    if with_codewords:
        lines += ["codewords:", *map(format_perm, code.codewords())]
    return "\n".join(lines) + "\n"


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


def test_rmgc_document_reads_one_byte_per_push():
    text = format_rmgc_document(build_rmgc(5))
    assert parse_rmgc_document(text).seq == build_rmgc(5).seq
    assert type(parse_rmgc_document(text).seq) is bytes
    # Tokens the vectorised reader does not take are stored as bytes too.
    assert parse_rmgc_document("rmgc n=3 len=6\nt3 3 t2 3 3 +2").seq == bytes((3, 3, 2, 3, 3, 2))
    # A push outside 2..n is refused as the sequence is built, named as the walk named it.
    for push in ("-2", "300", "1", "0", "t9"):
        with pytest.raises(ParseError, match=f"^transition index {push.lstrip('t')} outside 2..3$"):
            parse_rmgc_document(f"rmgc n=3 len=6\n3 3 {push} 3 3 2")


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
    n = draw(st.integers(1, 8) | st.integers(9, 300))
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
    assert text == reference_document(doc, with_codewords)
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
    assert text == "\n".join([f"rmgc n={r.n} len={len(r.seq)}", *reference_lines(r.seq, 30)]) + "\n"
    assert parse_rmgc_document(text) == r
    lines = text.splitlines()
    assert lines[0] == f"rmgc n={r.n} len={len(r.seq)}"
    counts = body_tokens(lines[1:])
    assert sum(counts) == len(r.seq)
    assert all(c == 30 for c in counts[:-1]) and 1 <= counts[-1] <= 30


@st.composite
def ksnakes(draw):
    """Cyclic Kendall-tagged codes as the ksnake format holds them, unverified."""
    n = draw(st.integers(2, 8))  # no push is valid at n = 1
    start = tuple(draw(st.permutations(range(1, n + 1))))
    transitions = draw(st.lists(st.integers(2, n), min_size=1, max_size=70))
    return GrayCode(n, start, tuple(transitions), True, "kendall")


@settings(max_examples=200, deadline=None)
@given(ksnakes())
def test_ksnake_round_trip_property(snake):
    text = format_ksnake(snake)
    assert parse_ksnake_fields(text) == snake
    lines = text.splitlines()
    assert lines[0] == f"ksnake n={snake.n} size={snake.size}"
    assert len(lines) == 3 and len(lines[2].split()) == len(snake.transitions)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 9) | st.integers(10, 255) | st.integers(256, 9999), max_size=100),
    st.integers(1, 40),
    st.sampled_from([tuple, lambda values: np.array(values, dtype=np.uint16)]),
)
@example([], 7, tuple)
def test_token_chunks_matches_str_join(values, per_line, form):
    """Bytes, for values up to 255, and any other sequence of ints write as str.join does."""
    expected = "".join(line + "\n" for line in reference_lines(values, per_line))
    assert "".join(_text_chunks(form(values), per_line)) == expected
    if max(values, default=0) <= 255:
        assert "".join(_text_chunks(bytes(values), per_line)) == expected


@pytest.mark.parametrize("per_line", [1, 7, 10, 30, 300])
def test_token_chunks_across_chunks(per_line):
    """Chunks of whole lines, each with its own widest token, join seamlessly."""
    rng = random.Random(per_line)
    values = []
    for top in (9, 255, 99, 9, 199, 100):
        values += [rng.randint(0, top) for _ in range(70_001)]
    text = "".join(_text_chunks(bytes(values), per_line))
    assert text == "".join(line + "\n" for line in reference_lines(values, per_line))


@pytest.mark.parametrize("count", [0, 1, 29, 30, 31, 61])
@pytest.mark.parametrize("with_codewords", [False, True])
def test_transition_lines_at_the_wrap(count, with_codewords):
    transitions = tuple((2, 3, 4)[k % 3] for k in range(count))
    doc = CodeDocument(GrayCode(4, (2, 1, 4, 3), transitions, False, "linf"), "x")
    text = format_document(doc, with_codewords)
    assert text == reference_document(doc, with_codewords)
    lines = text.splitlines()
    body = lines[2 : lines.index("codewords:")] if with_codewords else lines[2:]
    assert len(body) == -(-count // 30)
    assert parse_document(text) == doc


def test_one_codeword_document_has_no_transition_line():
    doc = CodeDocument(GrayCode(3, (3, 1, 2), (), False, "kendall"), "single")
    assert format_document(doc) == (
        "snake n=3 size=1 metric=kendall cyclic=false method=single\n3 1 2\n"
    )
    assert format_document(doc, True) == reference_document(doc, True)
    assert parse_document(format_document(doc, True)) == doc


@pytest.mark.parametrize("n", [1, 11, 300])
def test_codeword_listing_matches_format_perm(n):
    rng = random.Random(n)
    start = tuple(rng.sample(range(1, n + 1), n))
    transitions = tuple(rng.randint(2, n) for _ in range(40)) if n > 1 else ()
    doc = CodeDocument(GrayCode(n, start, transitions, False, "linf"), "listing")
    text = format_document(doc, include_codewords=True)
    assert text == reference_document(doc, with_codewords=True)
    assert parse_document(text) == doc


def _edited_listing(*edits):
    """The thm1 n=6 document with its listing, after (line index, text) edits.

    Its lines are the header, the start, two transition lines, "codewords:"
    and the 54 listed codewords, so listing line k is line 5 + k.  A text of
    None deletes the line.
    """
    lines = format_document(CodeDocument(snake_from_rmgc(6), "thm1"), True).splitlines()
    assert lines[4] == "codewords:" and len(lines) == 59
    for at, line in edits:
        if line is None:
            del lines[at]
        else:
            lines[at] = line
    return "\n".join(lines) + "\n"


_MISMATCH = "codeword listing does not match the transitions"
_BAD_TRANSITION = (2, "9" + " 3" * 29)


@pytest.mark.parametrize(
    "edits, error, message",
    [
        ([(8, "6 5 4 3 2 1")], VerificationError, f"{_MISMATCH} (first divergence at codeword 3)"),
        ([(-1, "6 5 4 3 2 1")], VerificationError, f"{_MISMATCH} (first divergence at codeword 53)"),
        # A line of another length is a well-formed permutation that matches nothing.
        ([(7, "1 2 3")], VerificationError, f"{_MISMATCH} (first divergence at codeword 2)"),
        ([(7, "1 2 3 4 5 6 7")], VerificationError, f"{_MISMATCH} (first divergence at codeword 2)"),
        ([(-1, None)], VerificationError, _MISMATCH),
        ([(7, "1 2 3"), (-1, None)], VerificationError, _MISMATCH),
        ([(9, "1 2 x 4 5 6")], ParseError, "bad permutation text '1 2 x 4 5 6'"),
        ([(9, "1 1 3 4 5 6")], ParseError, "not a permutation of 1..6: [1, 1, 3, 4, 5, 6]"),
        ([(9, "1 2 3 4 5 " + "9" * 25)], ParseError, f"not a permutation of 1..6: [1, 2, 3, 4, 5, {'9' * 25}]"),
        # The first malformed line is named, also after a line of another length.
        ([(7, "1 2 3"), (10, "2 x")], ParseError, "bad permutation text '2 x'"),
        # The listing is read before the transitions are walked.
        ([_BAD_TRANSITION, (10, "1 1")], ParseError, "not a permutation of 1..2: [1, 1]"),
        ([_BAD_TRANSITION, (-1, None)], InvalidTransitionError, "transition index 9 outside 2..6"),
        ([_BAD_TRANSITION], InvalidTransitionError, "transition index 9 outside 2..6"),
    ],
)
def test_codeword_listing_errors(edits, error, message):
    with pytest.raises(error) as raised:
        parse_document(_edited_listing(*edits))
    assert type(raised.value) is error and str(raised.value) == message


@pytest.mark.parametrize("prefix, sep", [("+", " "), ("0", " "), ("", "\t"), ("", "  ")])
def test_codeword_listing_reads_tokens_with_int(prefix, sep):
    """A listing line may spell its values any way that split() and int() read."""
    code = snake_from_rmgc(6)
    line = sep.join(f"{prefix}{v}" for v in code.start)
    assert parse_document(_edited_listing((5, line))).code == code


_SEPARATORS = [" ", "  ", "\n", " \n ", "\t", "\r\n", "\x0b"]


@st.composite
def tokens(draw):
    """A token as a document might spell it: mostly digits, sometimes not."""
    kind = draw(st.sampled_from(["plain", "plain", "zeros", "long", "t", "sign", "junk"]))
    value = draw(st.integers(0, 300))
    if kind == "zeros":
        return "0" * draw(st.integers(1, 20)) + str(value)
    if kind == "long":
        return str(draw(st.integers(10**17, 10**25)))
    if kind == "t":
        return f"t{value}"
    if kind == "sign":
        return draw(st.sampled_from("+-")) + str(value)
    if kind == "junk":
        return draw(st.sampled_from(["x", "t", "3x", "٣", "1 2", "2.0", "+"]))
    return str(value)


def nonblank_lines(text):
    """The lines a document reader keeps."""
    return [ln for ln in text.splitlines() if ln.strip()]


def outcome(parse, *args):
    """parse(*args), or the message of the ValueError it raises (a ParseError is one)."""
    try:
        return parse(*args)
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(tokens(), st.sampled_from(_SEPARATORS)), max_size=40))
def test_token_reader_matches_parse_transitions(spelled):
    lines = nonblank_lines("".join(tok + sep for tok, sep in spelled))
    expected = outcome(parse_transitions, " ".join(lines))
    assert outcome(lambda: tuple(_packed_transitions(lines))) == expected
    # The vectorised reader reads the same values, or refuses the text.
    read = _read_ints([np.frombuffer(("\n".join(lines) + "\n").encode(), np.uint8)])
    if read is not None:
        assert tuple(_packed_transitions(read).tolist()) == expected


def reference_listed(listing, n):
    """Rows of the listing as parse_perm reads them; another length reads as zeros."""
    perms = [parse_perm(line) for line in listing]
    return [list(p) if len(p) == n else [0] * n for p in perms]


@st.composite
def listings(draw):
    """A listing of permutations of 1..n, some lines broken in one way each."""
    n = draw(st.integers(1, 9))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["ok", "ok", "ok", "more", "fewer", "repeat", "bad token"]))
        size = n + {"more": 1, "fewer": -1}.get(kind, 0)
        row = [str(v) for v in draw(st.permutations(range(1, size + 1)))]
        if kind == "repeat" and size > 1:
            row[-1] = row[0]
        if kind == "bad token" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(tokens())
        if draw(st.booleans()) and row:
            row[0] = "0" + row[0]
        rows.append(draw(st.sampled_from([" ", "  ", "\t"])).join(row))
    return nonblank_lines("\n".join(rows)), n


@settings(max_examples=300, deadline=None)
@given(listings())
# Counted as a whole, the tokens of these lines would fill two permutation rows.
@example((["1 2", "3 1 2 3"], 3))
def test_listing_reader_matches_parse_perm(listing_n):
    listing, n = listing_n
    expected = outcome(reference_listed, listing, n)
    assert outcome(lambda: _listed(listing, n).tolist()) == expected
    # From the vectorised reader's numbers, the same rows or the same error.
    read = _read_ints([np.frombuffer(("\n".join(listing) + "\n").encode(), np.uint8)])
    if read is not None:
        assert outcome(lambda: _listed(read, n).tolist()) == expected
