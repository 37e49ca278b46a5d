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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .errors import ParseError, VerificationError
from .perm import (
    METRIC_KENDALL,
    METRIC_LINF,
    GrayCode,
    format_perm,
    format_transitions,
    parse_perm,
    parse_transitions,
)
from .rmgc import RmgcSequence

_WRAP = 30

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
    for line in text.splitlines():
        if line.strip():
            return line.split()[0]
    raise ParseError("empty document")


def _wrapped(seq: tuple[int, ...]) -> list[str]:
    """Transition lines of _WRAP tokens, made into strings one line at a time."""
    return [" ".join(map(str, seq[at : at + _WRAP])) for at in range(0, len(seq), _WRAP)]


def format_document(doc: CodeDocument, include_codewords: bool = False) -> str:
    code = doc.code
    lines = [
        f"snake n={code.n} size={code.size} metric={code.metric_tag} "
        f"cyclic={str(code.cyclic).lower()} method={doc.method}"
    ]
    lines.append(format_perm(code.start))
    lines.extend(_wrapped(code.transitions))
    if include_codewords:
        lines.append("codewords:")
        lines.extend(format_perm(c) for c in code.codewords())
    return "\n".join(lines) + "\n"


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
    transitions = _parsed(parse_transitions, " ".join(lines[1:]))
    expected_len = size if cyclic else size - 1
    if len(transitions) != expected_len:
        raise ParseError(
            f"header says size={size} ({'cyclic' if cyclic else 'noncyclic'}, "
            f"{expected_len} transitions) but {len(transitions)} follow"
        )
    return GrayCode(n, start, transitions, cyclic, metric)


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
        listed = _parsed(list, map(parse_perm, listing))
        if listed != code.codewords():
            diverge = next(
                i for i, (a, b) in enumerate(zip(listed, code.codewords())) if a != b
            ) if len(listed) == size else None
            where = f" (first divergence at codeword {diverge})" if diverge is not None else ""
            raise VerificationError(
                f"codeword listing does not match the transitions{where}"
            )
    return CodeDocument(code, fields.get("method", "unknown"))


def format_ksnake(snake: GrayCode) -> str:
    """Text form: header, start permutation, one line of transitions."""
    return (
        f"ksnake n={snake.n} size={snake.size}\n"
        f"{format_perm(snake.start)}\n"
        f"{format_transitions(snake.transitions)}\n"
    )


def parse_ksnake_fields(text: str) -> GrayCode:
    """Parse the ksnake text format into a snake whose properties are unverified."""
    lines, _, (n, size) = _read(text, KIND_KSNAKE, "n", "size")
    if len(lines[0].split()) != 3:  # fields other than n and size
        raise ParseError(f"bad ksnake header: {lines[0]!r}")
    return _parse_code(lines[1:], n, size, True, METRIC_KENDALL)


def format_rmgc_document(r: RmgcSequence) -> str:
    lines = [f"rmgc n={r.n} len={len(r.seq)}", *_wrapped(r.seq)]
    return "\n".join(lines) + "\n"


def parse_rmgc_document(text: str) -> RmgcSequence:
    lines, _, (n, length) = _read(text, KIND_RMGC, "n", "len")
    seq = _parsed(parse_transitions, " ".join(lines[1:]))
    if len(seq) != length:
        raise ParseError(f"header says len={length} but {len(seq)} transitions follow")
    return _parsed(RmgcSequence, n, seq)
