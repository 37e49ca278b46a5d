"""The lines of a document, read from a binary file in pieces.

``_pieces`` cuts a binary file into pieces of about 32 KB that end just
after a line end, ``\\n`` or a ``\\r`` not followed by ``\\n``.  ``_read``
takes a document's nonblank head lines from them, then the integers of
the lines after, cut at the first marker line, so neither the file's
text nor a list of its lines is held.  A piece of ASCII digits, spaces,
tabs and line ends, with no token of more than 18 digits, is tokenised
by numpy (``_read_ints``).  Any other piece is decoded as UTF-8 and read
under the ``str`` rules that numpy's path is a shortcut for:
``str.splitlines`` line breaks, blank lines dropped, and the tokens of
``parse_transitions`` before the marker and ``parse_perm`` after it.  A
head line or the marker is cut out of its piece, and the lines either
side of it are read as pieces of their own.  The first malformed token
or line of a section is kept, with the numbers before it, for the kind's
parser to raise when it reads that section; a byte that is not UTF-8 is
raised at once, at its offset in the file.
"""
from __future__ import annotations

from typing import BinaryIO, Callable, Iterator, TypeAlias

from ._numpy import np
from .errors import ParseError
from .perm import parse_perm, parse_transitions

# Bytes read at a time, up to the next line end.  A piece's temporaries are
# tens of times its size: verify of the thm2 n=9 document with its listing
# (137 KB) peaks at 30.9 MB in pieces of 32 KB and 32.4 MB in pieces of
# 64 KB, and the 10-RMGC document reads in 0.29 s and 0.24 s (2-core
# x86-64 VM).
_SLICE = 1 << 15
_ZERO, _NEWLINE = b"0\n"

# A section's values, the tokens of each of its nonblank lines, and its first malformed token or line.
_Numbers: TypeAlias = "tuple[np.ndarray, np.ndarray, ParseError | None]"


def _read_ints(piece: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The integers of the lines of piece as one unsigned array, and how
    many each nonblank line holds.

    None unless every token is 1 to 18 ASCII digits and every other byte a
    space, a tab or a line end (``\\n`` or ``\\r``).  A token starts where
    a digit follows a separator, and its value is built one digit column
    at a time, so no temporary is larger than the piece.  The values are
    kept in the narrowest type that holds them: uint8 for transitions and
    codewords up to n = 255.

    >>> values, counts = _read_ints(b"3 10\\r\\n007 \\t2 123\\n\\n")
    >>> values.tolist(), counts.tolist()
    ([3, 10, 7, 2, 123], [2, 3])
    >>> _read_ints(b"t3 3") is None
    True
    """
    if piece.translate(None, b"0123456789 \t\n\r"):  # a byte numpy does not take
        return None
    b = np.frombuffer(b" " + piece.replace(b"\r", b"\n") + b"\n", np.uint8)
    digit = b >= _ZERO  # the separators all come before "0"
    # Each token's first digit and the byte just past its last, in turn: b starts and ends with a separator.
    edge = np.flatnonzero(np.diff(digit)) + 1
    starts = edge[::2]
    width = edge[1::2] - starts
    if (widest := width.max(initial=0)) > 18:  # the longest token numpy takes: 10**18 < 2**63
        return None
    v = np.zeros(len(starts), np.int64)
    for col in range(widest):
        more = width > col
        v[more] = v[more] * 10 + (b[starts[more] + col] - _ZERO)
    counts = np.diff(np.searchsorted(starts, np.flatnonzero(b == _NEWLINE)), prepend=0)
    return v.astype(np.min_scalar_type(v.max(initial=0))), counts[counts > 0]


def _pieces(fh: BinaryIO) -> Iterator[bytes]:
    """A binary file in pieces of about _SLICE bytes that end just after a
    line end; the last one ends where the file does.  A ``\\r`` ends a
    piece only where the next byte is read too, so ``\\r\\n`` is never cut."""
    rest: list[bytes] = []
    while piece := fh.read(_SLICE):
        cut = max(piece.rfind(b"\n"), piece.rfind(b"\r", 0, -1)) + 1
        if cut:
            yield b"".join((*rest, piece[:cut]))
            rest = []
        rest.append(piece[cut:])
    if tail := b"".join(rest):
        yield tail


def _read(
    fh: BinaryIO, layout: Callable[[str], tuple]
) -> tuple[list[str], _Numbers, _Numbers | None]:
    """A document's nonblank head lines, read from a binary file, and the
    numbers of the lines after them, cut at the first marker line: those
    before it, and those after it or None if there is none.

    layout(the first head line) is how many head lines there are, and the
    marker or None.
    """
    head: list[str] = []
    empty = _read_ints(b"")
    sections = [[[empty], None]]  # each one's (values, counts) piece by piece, and first error

    def take(piece: bytes) -> None:
        """The lines of piece into head and sections."""
        want, marker = layout(head[0]) if head else (1, None)
        section = sections[-1]
        if len(head) < want or section[1] or (numbers := _read_ints(piece)) is None:
            text = piece.decode()
            lines, kept = text.splitlines(), text.splitlines(True)
            for i, line in enumerate(lines):
                # A head line, or the marker: the lines either side of it are read as pieces of their own.
                if line.strip() if len(head) < want else line == marker and len(sections) == 1:
                    take("".join(kept[:i]).encode())
                    if len(head) < want:
                        head.append(line)
                    else:
                        sections.append([[empty], None])
                    return take("".join(kept[i + 1 :]).encode())
            rows = []
            for line in [] if section[1] else lines:
                try:
                    rows.append((parse_perm if len(sections) > 1 else parse_transitions)(line))
                except ValueError as exc:
                    section[1] = ParseError(str(exc))
                    break
            ints = [v for row in rows for v in row]
            # The narrowest unsigned type, as numpy's path keeps; ints that none holds stay exact, as objects.
            kind = np.min_scalar_type(max(ints, default=0)) if min(ints, default=0) >= 0 else object
            numbers = np.array(ints, kind), np.array([len(row) for row in rows if row], int)
        section[0].append(numbers)

    at = 0
    for piece in _pieces(fh):
        try:
            take(piece)
        except UnicodeDecodeError as exc:  # from piece itself: take re-reads only text it decoded
            # Named as a decode of the whole file names it.
            one = f"byte 0x{piece[exc.start]:02x} in position {at + exc.start}"
            bad = one if exc.end == exc.start + 1 else f"bytes in position {at + exc.start}-{at + exc.end - 1}"
            raise ParseError(f"'utf-8' codec can't decode {bad}: {exc.reason}") from None
        at += len(piece)
    del take  # it refers to itself, and would keep the pieces read until the next garbage collection
    body, *listing = [(*map(np.concatenate, zip(*parts)), error) for parts, error in sections]
    return head, body, (listing or [None])[0]
