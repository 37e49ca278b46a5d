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
vectorised token writer, ``_token_chunks``, from integer arrays, and read
back by one vectorised token reader, ``_read_ints``; a listing is read
into one array and compared with the recomputed codewords in one pass.
Transitions stay one byte each from the reader to ``GrayCode`` and
``RmgcSequence``.
Text the reader does not take (any byte but an ASCII digit, a space or a
newline, or a token of more than 18 digits) is parsed token by token
instead, so that the first malformed token or line is the one named.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from .errors import ParseError, VerificationError
from .perm import (
    METRIC_KENDALL,
    METRIC_LINF,
    GrayCode,
    format_perm,
    parse_perm,
    parse_transitions,
)
from .rmgc import RmgcSequence

_WRAP = 30  # transition tokens per line
_CHUNK_TOKENS = 1 << 16  # about this many tokens are written at a time
_CHUNK_LINES = 1 << 10  # lines read at a time
_MAX_DIGITS = 18  # the longest token the reader takes: 10**18 < 2**63
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)
_SPACE, _NEWLINE = ord(" "), ord("\n")

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


def _token_chunks(values: np.ndarray, per_line: int) -> Iterator[str]:
    """The non-negative integers of values as text, per_line tokens to a line.

    Tokens are separated by single spaces, and every line ends in a newline,
    the last one too.  The text comes in chunks of whole lines, made one
    at a time as the caller takes them.  A chunk's digits fill a
    (tokens, width + 1) uint8 grid right-aligned, its last column holds the
    separators, and one mask drops the leading zeros, so no temporary is
    larger than a chunk.

    >>> "".join(_token_chunks(np.array([3, 10, 2, 123, 7]), 2))
    '3 10\\n2 123\\n7\\n'
    """
    flat = values.reshape(-1)
    step = max(1, _CHUNK_TOKENS // per_line) * per_line
    for c0 in range(0, len(flat), step):
        v = flat[c0 : c0 + step]
        width = len(str(v.max()))
        grid = np.empty((len(v), width + 1), dtype=np.uint8)
        keep = np.ones(grid.shape, dtype=bool)
        for col in range(width):
            scale = 10 ** (width - 1 - col)
            grid[:, col] = _DIGITS[v // scale % 10]
            if col < width - 1:
                keep[:, col] = v >= scale
        grid[:, width] = _SPACE
        grid[per_line - 1 :: per_line, width] = _NEWLINE
        grid[-1, width] = _NEWLINE  # chunks hold whole lines but the last
        yield grid[keep].tobytes().decode("ascii")


def _read_ints(lines: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """The integers of lines as one unsigned array, and how many each line holds.

    None unless every token is 1 to 18 ASCII digits and every separator a
    space.  About 1 K lines at a time are joined into one uint8 buffer; a
    token starts where a digit follows a separator, and its value is built
    one digit column at a time, so no temporary is larger than a chunk.
    Each chunk's values are kept in the narrowest type that holds them:
    uint8 for transitions and codewords up to n = 255.

    >>> values, counts = _read_ints(["3 10", "007  2 123", ""])
    >>> values.tolist(), counts.tolist()
    ([3, 10, 7, 2, 123], [2, 3, 0])
    >>> _read_ints(["t3 3"]) is None
    True
    """
    values, counts = [], []
    for c0 in range(0, len(lines), _CHUNK_LINES):
        try:
            text = ("\n".join(lines[c0 : c0 + _CHUNK_LINES]) + "\n").encode("ascii")
        except UnicodeEncodeError:
            return None
        b = np.frombuffer(text, dtype=np.uint8)
        digit = (b >= _DIGITS[0]) & (b <= _DIGITS[-1])
        if not (digit | (b == _SPACE) | (b == _NEWLINE)).all():
            return None
        # Each token's first digit, and the byte just past its last.
        edge = np.flatnonzero(digit[1:] != digit[:-1]) + 1
        starts = np.concatenate((np.flatnonzero(digit[:1]), edge[digit[edge]]))
        ends = edge[~digit[edge]]
        width = ends - starts
        if width.max(initial=0) > _MAX_DIGITS:
            return None
        v = np.zeros(len(starts), dtype=np.int64)
        for col in range(width.max(initial=0)):
            more = width > col
            v[more] = v[more] * 10 + (b[starts[more] + col] - _DIGITS[0])
        values.append(v.astype(np.min_scalar_type(v.max(initial=0))))
        counts.append(np.diff(np.searchsorted(starts, np.flatnonzero(b == _NEWLINE)), prepend=0))
    if not values:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64)
    return np.concatenate(values), np.concatenate(counts)


def _packed_transitions(lines: list[str]) -> bytes | tuple[int, ...]:
    """The transition tokens of lines: one byte each when the reader takes them
    all and each is below 256, else a tuple, which ``GrayCode`` and
    ``RmgcSequence`` turn into bytes or keep or reject.

    A malformed token raises the ParseError ``parse_transitions`` gives.
    """
    read = _read_ints(lines)
    if read is None:
        return _parsed(parse_transitions, " ".join(lines))
    values = read[0]
    return values.tobytes() if values.dtype == np.uint8 else tuple(values.tolist())


def _as_array(pushes: bytes | tuple[int, ...]) -> np.ndarray:
    """Pushes as an array: a view of bytes, or a copy of a tuple (values of 256 or more)."""
    if isinstance(pushes, bytes):
        return np.frombuffer(pushes, dtype=np.uint8)
    return np.array(pushes, dtype=np.uint64)


def document_chunks(doc: CodeDocument, include_codewords: bool = False) -> Iterator[str]:
    """The text of a snake document, in chunks of whole lines."""
    code = doc.code
    yield (
        f"snake n={code.n} size={code.size} metric={code.metric_tag} "
        f"cyclic={str(code.cyclic).lower()} method={doc.method}\n"
    )
    yield f"{format_perm(code.start)}\n"
    yield from _token_chunks(_as_array(code.pushes), _WRAP)
    if include_codewords:
        yield "codewords:\n"
        yield from _token_chunks(code._codewords, code.n)


def format_document(doc: CodeDocument, include_codewords: bool = False) -> str:
    return "".join(document_chunks(doc, include_codewords))


def _read(
    text: str, kind: str, *int_fields: str
) -> tuple[list[str], dict[str, str], list[int]]:
    """A document's nonblank lines, its header fields and the named int fields."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
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
        return lines, fields, [int(fields[name]) for name in int_fields]
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad {kind} header: {lines[0]!r}") from exc


def _parsed(parse: Callable[..., Any], *args: Any) -> Any:
    """parse(*args), with a ValueError it raises turned into a ParseError."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_code(
    lines: list[str], n: int, size: int, cyclic: bool, metric: str
) -> GrayCode:
    """The code a start line and transition lines spell, checked against the header."""
    if cyclic and size < 1:
        raise ParseError(f"a cyclic snake needs size >= 1, got size={size}")
    if not lines:
        # A one-codeword noncyclic code has no transition line.
        raise ParseError("snake document needs a start line")
    start = _parsed(parse_perm, lines[0])
    if len(start) != n:
        raise ParseError(f"start has {len(start)} values but header says n={n}")
    pushes = _packed_transitions(lines[1:])
    expected_len = size if cyclic else size - 1
    if len(pushes) != expected_len:
        raise ParseError(
            f"header says size={size} ({'cyclic' if cyclic else 'noncyclic'}, "
            f"{expected_len} transitions) but {len(pushes)} follow"
        )
    return GrayCode(n, start, pushes, cyclic, metric)


def parse_document(text: str) -> CodeDocument:
    """Parse a snake document; malformed text raises ParseError.

    A present codeword listing is cross-checked against the recomputation
    from start and transitions; a mismatch raises VerificationError.
    """
    lines, fields, (n, size) = _read(text, KIND_SNAKE, "n", "size")
    try:
        metric = fields["metric"]
        cyclic = {"true": True, "false": False}[fields["cyclic"]]
    except KeyError as exc:
        raise ParseError(f"bad snake header: {lines[0]!r}") from exc
    if metric not in (METRIC_LINF, METRIC_KENDALL):
        raise ParseError(f"unknown metric {metric!r}")
    body, listing = lines[1:], None
    if "codewords:" in lines[2:]:
        cut = lines.index("codewords:", 2)
        body, listing = lines[1:cut], lines[cut + 1 :]
    code = _parse_code(body, n, size, cyclic, metric)
    if listing is not None:
        listed = _listed(listing, n)
        words = code._codewords  # walked first: a bad transition raises before any verdict
        mismatch = "codeword listing does not match the transitions"
        if len(listed) != size:
            raise VerificationError(mismatch)
        diverge = np.flatnonzero((listed != words).any(axis=1))
        if len(diverge):
            raise VerificationError(f"{mismatch} (first divergence at codeword {diverge[0]})")
    return CodeDocument(code, fields.get("method", "unknown"))


def _listed(listing: list[str], n: int) -> np.ndarray:
    """The codewords a listing names, as one (m, n) integer array.

    A malformed line raises the ParseError ``parse_perm`` gives, for the
    first such line.  A well-formed line of another length than n matches
    no codeword, so it reads as a row of zeros, which matches none either.
    """
    read = _read_ints(listing)
    if read is not None and (read[1] == n).all():
        listed = read[0].reshape(len(listing), n)
        if (np.sort(listed, axis=1) == np.arange(1, n + 1)).all():
            return listed
    # Some line is malformed or of another length: parse line by line, so
    # that the first malformed line is the one named.
    perms = _parsed(list, map(parse_perm, listing))
    zeros = (0,) * n
    return np.array(
        [p if len(p) == n else zeros for p in perms], dtype=np.int64
    ).reshape(len(perms), n)


def ksnake_chunks(snake: GrayCode) -> Iterator[str]:
    """Text form in chunks: header, start permutation, one line of transitions."""
    yield f"ksnake n={snake.n} size={snake.size}\n"
    yield f"{format_perm(snake.start)}\n"
    yield from _token_chunks(_as_array(snake.pushes), max(1, len(snake.pushes)))


def format_ksnake(snake: GrayCode) -> str:
    """Text form: header, start permutation, one line of transitions."""
    return "".join(ksnake_chunks(snake))


def parse_ksnake_fields(text: str) -> GrayCode:
    """Parse the ksnake text format into a snake whose properties are unverified."""
    lines, _, (n, size) = _read(text, KIND_KSNAKE, "n", "size")
    if len(lines[0].split()) != 3:  # fields other than n and size
        raise ParseError(f"bad ksnake header: {lines[0]!r}")
    return _parse_code(lines[1:], n, size, True, METRIC_KENDALL)


def rmgc_chunks(r: RmgcSequence) -> Iterator[str]:
    """The text of an RMGC export, in chunks of whole lines."""
    yield f"rmgc n={r.n} len={len(r.seq)}\n"
    yield from _token_chunks(_as_array(r.seq), _WRAP)


def format_rmgc_document(r: RmgcSequence) -> str:
    return "".join(rmgc_chunks(r))


def parse_rmgc_document(text: str) -> RmgcSequence:
    lines, _, (n, length) = _read(text, KIND_RMGC, "n", "len")
    seq = _packed_transitions(lines[1:])
    if len(seq) != length:
        raise ParseError(f"header says len={length} but {len(seq)} transitions follow")
    return _parsed(RmgcSequence, n, seq)
