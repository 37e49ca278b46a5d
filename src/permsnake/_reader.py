"""The integers of a binary file's lines, read from its bytes with numpy.

``_read_ints`` tokenises newline-terminated uint8 slices of ASCII digits
and spaces.  ``_numbers`` reads the rest of a binary file in pieces of
about 32 KB that end just after a newline, and tokenises the pieces
themselves, cut at a marker line when one is given, so neither the
file's text nor a list of its lines is held.  A byte the reader does not
take makes it refuse the file.
"""
from __future__ import annotations

import itertools
from typing import BinaryIO, Iterable, Iterator

import numpy as np

# Bytes read at a time, up to the next newline.  A piece's temporaries are
# tens of times its size: verify of the thm2 n=9 document with its listing
# (137 KB) peaks at 30.9 MB in pieces of 32 KB and 32.4 MB in pieces of
# 64 KB, and the 10-RMGC document reads in 0.29 s and 0.24 s (2-core
# x86-64 VM).
_SLICE = 1 << 15
_MAX_DIGITS = 18  # the longest token the reader takes: 10**18 < 2**63
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)
_SPACE, _NEWLINE = ord(" "), ord("\n")

_Numbers = tuple[np.ndarray, np.ndarray]  # what _read_ints reads: values, tokens per line


def _read_ints(slices: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray] | None:
    """The integers of newline-terminated uint8 slices of text as one unsigned
    array, and how many each line holds.

    None unless every token is 1 to 18 ASCII digits and every separator a
    space.  A token starts where a digit follows a separator, and its value
    is built one digit column at a time, so no temporary is larger than a
    slice.  Each slice's values are kept in the narrowest type that holds
    them: uint8 for transitions and codewords up to n = 255.

    >>> values, counts = _read_ints([np.frombuffer(b"3 10\\n007  2 123\\n\\n", np.uint8)])
    >>> values.tolist(), counts.tolist()
    ([3, 10, 7, 2, 123], [2, 3, 0])
    >>> _read_ints([np.frombuffer(b"t3 3\\n", np.uint8)]) is None
    True
    """
    values, counts = [], []
    for b in slices:
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


def _pieces(fh: BinaryIO) -> Iterator[bytes]:
    """A binary file in pieces of about _SLICE bytes that end just after a
    newline; the last one ends where the file does."""
    rest: list[bytes] = []
    while piece := fh.read(_SLICE):
        cut = piece.rfind(b"\n") + 1
        if cut:
            yield b"".join((*rest, piece[:cut]))
            rest = []
        rest.append(piece[cut:])
    if tail := b"".join(rest):
        yield tail


def _numbers(fh: BinaryIO, marker: bytes | None) -> tuple[_Numbers, _Numbers | None] | None:
    """The numbers of the lines left in a binary file, cut at the first
    marker line if a marker is given: those before it, and those after it
    or None if there is none.

    fh must stand at the start of a line.  None if ``_read_ints`` refuses a
    piece; the first marker must be a whole line, or the reader refuses
    the letters of its line.
    """
    pieces = _pieces(fh)
    after: list[bytes] = []  # the rest of the piece past the marker

    def body() -> Iterator[bytes]:
        for b in pieces:
            cut = b.find(marker) if marker else -1
            end = cut + len(marker or b"")
            if cut >= 0 and b[cut - 1 : cut] in (b"", b"\n") and b[end : end + 1] in (b"", b"\n"):
                after.append(b[end + 1 :])
                yield b[:cut]
                return
            yield b

    def read(parts: Iterable[bytes]) -> _Numbers | None:
        return _read_ints(np.frombuffer(b if b.endswith(b"\n") else b + b"\n", np.uint8) for b in parts if b)

    if (numbers := read(body())) is None:
        return None
    listing = read(itertools.chain(after, pieces)) if after else None
    return None if after and listing is None else (numbers, listing)
