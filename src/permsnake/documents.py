"""Line-oriented text documents: snakes, Kendall snakes and RMGC exports.

Snake document layout:

    snake n=<n> size=<M> metric=<linf|kendall> cyclic=<true|false> method=<name>
    <start permutation, one-line notation>
    <transition indices, whitespace separated, wrapped freely>
    codewords:            (optional)
    <one codeword per line>

The codeword block is purely a convenience listing; on parse it must
equal the recomputation from start and transitions.  Kendall snakes use
a ``ksnake n=<n> size=<M>`` header, the start line and the M cyclic
transitions on one line, and never a listing.  RMGC exports use the
``rmgc n=<n> len=<n!>`` header and carry no start line.  All three share
one header reader, and both snake kinds one start-and-transitions parser.

Each kind is written by a generator of chunks of whole lines
(``document_chunks``, ``ksnake_chunks``, ``rmgc_chunks``), so a caller can
write a document without holding it as one string; ``format_*`` join the
chunks.  Transition lines and the codeword listing are written by one
bytes token writer, ``_text_chunks``, from a code's packed pushes and a
listing's rows as bytes (from ``GrayCode.blocks()``, one walk segment at
a time), so writing loads no numpy, and read back by one vectorised
token reader, ``_reader._read_ints``; a listing is read into one array
and compared with the walk a segment at a time.  The reader hands
transitions on as its array, and ``GrayCode`` and ``RmgcSequence`` check
and pack them.

Every document is read by one entry, ``_document``, from a binary file:
``read_document``, ``verify``, ``import-ksnake`` and ``--ksnake`` open
a file for it and the ``parse_*`` helpers hand it their text's bytes.
It reads the head lines that the kind's record in ``_KINDS`` names, and
``_reader._numbers`` tokenises the lines after them, cut at the listing
marker, from pieces of the file, so neither its text nor a list of its
lines is held.  A file with a byte that reader does not take (anything
but printable ASCII in the head, or anything but ASCII digits, spaces
and newlines after it, bar one ``codewords:`` line, or a token of more
than 18 digits) is read again as a text file reads (UTF-8, universal
newlines) and parsed line by line and token by token, so that the first
malformed token or line is the one named.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Any, BinaryIO, Callable, Iterator, Sequence, TypeAlias

from ._numpy import np
from ._reader import _NEWLINE, _Numbers, _numbers
from .errors import ParseError, VerificationError
from .perm import (
    METRIC_KENDALL,
    METRIC_LINF,
    GrayCode,
    check_perm,
    format_perm,
    parse_perm,
    parse_transitions,
)
from .rmgc import RmgcSequence

_WRAP = 30  # transition tokens per line
_CHUNK_TOKENS = 1 << 16  # about this many tokens are written at a time
_MARKER = "codewords:"
_HEAD_BYTES = bytes(range(0x20, 0x7F)) + b"\n"  # printable ASCII, and a line's end
# The hundreds, tens and units digit of each byte value, 0 for a leading zero.
_DIGITS = tuple(bytes(48 + v // s % 10 if v >= s or s == 1 else 0 for v in range(256)) for s in (100, 10, 1))
_Section: TypeAlias = "_Numbers | list[str]"  # lines of integers: the piece reader's numbers, or the text lines

KIND_SNAKE = "snake"
KIND_KSNAKE = "ksnake"
KIND_RMGC = "rmgc"


@dataclass(frozen=True)
class CodeDocument:
    """A Gray code plus the construction name it was built with."""

    code: GrayCode
    method: str


def detect_kind(text: str) -> str:
    """First header token of a document: snake, ksnake or rmgc."""
    for token in text.split(None, 1):  # the first token, and the rest uncut
        return token
    raise ParseError("empty document")


def _text_chunks(values: bytes | Sequence[int], per_line: int) -> Iterator[str]:
    """The non-negative integers of values as text, per_line tokens to a line.

    Tokens are separated by single spaces, and every line ends in a newline,
    the last one too.  The text comes in chunks of whole lines, made one
    at a time as the caller takes them.  Bytes make no int per token: each
    digit column of a chunk's cells, one wider than its widest token, is
    one strided slice of the chunk translated by a ``_DIGITS`` table, the
    last column holds the separators, and one ``translate`` drops the 0
    bytes of leading zeros.  Values above 255 come as a sequence of ints,
    written a line at a time.

    >>> "".join(_text_chunks(bytes([3, 10, 2, 123, 7]), 2))
    '3 10\\n2 123\\n7\\n'
    """
    if not isinstance(values, bytes):
        for c0 in range(0, len(values), per_line):
            yield " ".join(map(str, values[c0 : c0 + per_line])) + "\n"
        return
    step = max(1, _CHUNK_TOKENS // per_line) * per_line
    for c0 in range(0, len(values), step):
        v = values[c0 : c0 + step]
        cell = 4 if v.translate(None, bytes(range(100))) else 3 if v.translate(None, bytes(range(10))) else 2
        text = bytearray(len(v) * cell)
        for col, table in enumerate(_DIGITS[4 - cell :]):  # the widest token's digits
            text[col::cell] = v.translate(table)
        text[cell - 1 :: cell] = b" " * len(v)
        text[cell * per_line - 1 :: cell * per_line] = b"\n" * (len(v) // per_line)
        text[-1] = _NEWLINE  # chunks hold whole lines but the last
        yield text.translate(None, b"\0").decode("ascii")


def read_document(path: str) -> tuple[str, Any]:
    """The kind of the document in the file at path, and what its parser returns."""
    with open(path, "rb") as fh:
        return _document(fh, None)


def _document(fh: BinaryIO, kind: str | None) -> tuple[str, Any]:
    """The kind of the document in a binary file, or the kind required, and
    what that kind's parser makes of it.

    The file is read in pieces (``_read``); one that cannot seek, such as
    a pipe, is read whole first.  A file the piece reader refuses is read
    again as a text file reads (UTF-8, universal newlines) and parsed line
    by line, so every outcome, every error included, is that of the text.
    """
    data = fh if fh.seekable() else io.BytesIO(fh.read())
    read = _read(data)
    if read is None:
        data.seek(0)  # to read it again, as a text file reads
        text = data.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        kind = kind or detect_kind(text)
        if kind not in _KINDS:
            raise ParseError(f"unrecognised document kind {kind!r}")
        _, want, marker = _KINDS[kind]
        lines = [ln for ln in text.splitlines() if ln.strip()]
        cut = lines.index(_MARKER, want) if marker and _MARKER in lines[want:] else len(lines)
        read = (kind, lines[:want], lines[want:cut], lines[cut + 1 :] if cut < len(lines) else None)
    kind = kind or read[0]
    return kind, _KINDS[kind][0](*read[1:])


def _read(fh: BinaryIO) -> tuple[str, list[str], _Numbers, _Numbers | None] | None:
    """A document's kind, nonblank head lines, and the numbers of the lines
    after them and after its marker, read from a binary file; None if a
    head line is not printable ASCII, names no kind, or is missing, or if
    ``_reader._numbers`` refuses the rest."""
    kind, want, marker, head = "", 1, None, []
    while len(head) < want:
        line = fh.readline()
        if not line or line.translate(None, _HEAD_BYTES):
            return None
        if line.strip(b" \n"):
            head.append(line.decode().rstrip("\n"))
            kind = head[0].split()[0]
            if kind not in _KINDS:
                return None
            _, want, marker = _KINDS[kind]
    numbers = _numbers(fh, marker)
    return None if numbers is None else (kind, head, *numbers)


def _packed_transitions(body: _Section) -> np.ndarray | tuple[int, ...]:
    """The transitions the reader read, or those of text lines as a tuple,
    for ``GrayCode`` or ``RmgcSequence`` to check and pack.

    A malformed token raises the ParseError ``parse_transitions`` gives.
    """
    if isinstance(body, list):
        return _parsed(parse_transitions, " ".join(body))
    return body[0]


def document_chunks(doc: CodeDocument, include_codewords: bool = False) -> Iterator[str]:
    """The text of a snake document, in chunks of whole lines."""
    code = doc.code
    yield (
        f"snake n={code.n} size={code.size} metric={code.metric_tag} "
        f"cyclic={str(code.cyclic).lower()} method={doc.method}\n"
    )
    yield f"{format_perm(code.start)}\n"
    yield from _text_chunks(code.pushes, _WRAP)
    if include_codewords:
        yield f"{_MARKER}\n"
        for rows in code.blocks():
            yield from _text_chunks(rows.tobytes() if rows.itemsize == 1 else rows.reshape(-1), code.n)


def format_document(doc: CodeDocument, include_codewords: bool = False) -> str:
    return "".join(document_chunks(doc, include_codewords))


def _header(lines: list[str], kind: str, *int_fields: str) -> tuple[dict[str, str], list[int]]:
    """The header fields of a document's nonblank lines, and the named int fields."""
    if not lines:
        raise ParseError("empty document")
    if lines[0].split()[0] != kind:
        raise ParseError(f"expected a {kind!r} header, got {lines[0]!r}")
    fields = {}
    for part in lines[0].split()[1:]:
        key, eq, value = part.partition("=")
        if not eq:
            raise ParseError(f"bad header field {part!r} in {lines[0]!r}")
        fields[key] = value
    try:
        return fields, [int(fields[name]) for name in int_fields]
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad {kind} header: {lines[0]!r}") from exc


def _parsed(parse: Callable[..., Any], *args: Any) -> Any:
    """parse(*args), with a ValueError it raises turned into a ParseError."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_code(
    head: list[str], body: _Section, n: int, size: int, cyclic: bool
) -> tuple[tuple[int, ...], np.ndarray | tuple[int, ...]]:
    """The start a header and start line spell, and the pushes of the
    transition lines, checked against the header; the pushes are checked
    when their code is made."""
    if size < 1:
        raise ParseError(f"a {'' if cyclic else 'non'}cyclic snake needs size >= 1, got size={size}")
    if len(head) < 2:
        # A one-codeword noncyclic code has no transition line.
        raise ParseError("snake document needs a start line")
    start = _parsed(parse_perm, head[1])
    if len(start) != n:
        raise ParseError(f"start has {len(start)} values but header says n={n}")
    pushes = _packed_transitions(body)
    expected_len = size if cyclic else size - 1
    if len(pushes) != expected_len:
        raise ParseError(
            f"header says size={size} ({'cyclic' if cyclic else 'noncyclic'}, "
            f"{expected_len} transitions) but {len(pushes)} follow"
        )
    return start, pushes


def parse_document(text: str) -> CodeDocument:
    """Parse a snake document; malformed text raises ParseError.

    A present codeword listing is cross-checked against the walk from start
    and transitions, one segment at a time; a mismatch raises
    VerificationError.
    """
    return _document(io.BytesIO(text.encode()), KIND_SNAKE)[1]


def _snake(head: list[str], body: _Section, listing: _Section | None) -> CodeDocument:
    fields, (n, size) = _header(head, KIND_SNAKE, "n", "size")
    try:
        metric = fields["metric"]
        cyclic = {"true": True, "false": False}[fields["cyclic"]]
    except KeyError as exc:
        raise ParseError(f"bad snake header: {head[0]!r}") from exc
    if metric not in (METRIC_LINF, METRIC_KENDALL):
        raise ParseError(f"unknown metric {metric!r}")
    start, pushes = _parse_code(head, body, n, size, cyclic)
    # A malformed listing line is named before a bad push, and a bad push
    # before any verdict on the listing.
    listed = None if listing is None else _listed(listing, n)
    code = GrayCode(n, start, pushes, cyclic, metric)
    if listed is not None:
        mismatch = "codeword listing does not match the transitions"
        if len(listed) != size:
            raise VerificationError(mismatch)
        at = 0
        for rows in code.blocks():
            diverge = np.flatnonzero((listed[at : at + len(rows)] != rows).any(axis=1))
            if len(diverge):
                raise VerificationError(f"{mismatch} (first divergence at codeword {at + diverge[0]})")
            at += len(rows)
    return CodeDocument(code, fields.get("method", "unknown"))


def _listed(listing: _Section, n: int) -> np.ndarray:
    """The codewords a listing names, as one (m, n) integer array.

    A malformed line raises the ParseError ``parse_perm`` gives, for the
    first such line.  A well-formed line of another length than n matches
    no codeword, so it reads as a row of zeros, which matches none either.
    """
    if isinstance(listing, list):
        perms = _parsed(list, map(parse_perm, listing))
    else:
        values, counts = listing
        counts = counts[counts > 0]  # the nonblank lines
        if (counts == n).all():
            listed = values.reshape(len(counts), n)
            if (np.sort(listed, axis=1) == np.arange(1, n + 1)).all():
                return listed
        # Some line is of another length or no permutation: check line by line.
        lines = np.split(values, np.cumsum(counts)[:-1])
        perms = _parsed(list, map(check_perm, (line.tolist() for line in lines)))
    zeros = (0,) * n
    return np.array(
        [p if len(p) == n else zeros for p in perms], dtype=np.int64
    ).reshape(len(perms), n)


def ksnake_chunks(snake: GrayCode) -> Iterator[str]:
    """Text form in chunks: header, start permutation, one line of transitions."""
    yield f"ksnake n={snake.n} size={snake.size}\n"
    yield f"{format_perm(snake.start)}\n"
    yield from _text_chunks(snake.pushes, max(1, len(snake.pushes)))


def format_ksnake(snake: GrayCode) -> str:
    """Text form: header, start permutation, one line of transitions."""
    return "".join(ksnake_chunks(snake))


def parse_ksnake_fields(text: str) -> GrayCode:
    """Parse the ksnake text format into a snake whose properties are unverified.

    Malformed text raises ParseError, and a push outside 2..n raises
    InvalidTransitionError when the snake is made.
    """
    return _document(io.BytesIO(text.encode()), KIND_KSNAKE)[1]


def _ksnake(head: list[str], body: _Section, _: None) -> GrayCode:
    _, (n, size) = _header(head, KIND_KSNAKE, "n", "size")
    if len(head[0].split()) != 3:  # fields other than n and size
        raise ParseError(f"bad ksnake header: {head[0]!r}")
    return GrayCode(n, *_parse_code(head, body, n, size, True), True, METRIC_KENDALL)


def rmgc_chunks(r: RmgcSequence) -> Iterator[str]:
    """The text of an RMGC export, in chunks of whole lines."""
    yield f"rmgc n={r.n} len={len(r.seq)}\n"
    yield from _text_chunks(r.seq, _WRAP)


def format_rmgc_document(r: RmgcSequence) -> str:
    return "".join(rmgc_chunks(r))


def parse_rmgc_document(text: str) -> RmgcSequence:
    return _document(io.BytesIO(text.encode()), KIND_RMGC)[1]


def _rmgc(head: list[str], body: _Section, _: None) -> RmgcSequence:
    _, (n, length) = _header(head, KIND_RMGC, "n", "len")
    seq = _packed_transitions(body)
    if len(seq) != length:
        raise ParseError(f"header says len={length} but {len(seq)} transitions follow")
    return _parsed(RmgcSequence, n, seq)


# Each kind's record: its parser, from its head lines and sections, its head
# lines (header, and start line but for rmgc) and its listing marker.
_KINDS = {KIND_SNAKE: (_snake, 2, _MARKER.encode()), KIND_KSNAKE: (_ksnake, 2, None), KIND_RMGC: (_rmgc, 1, None)}
