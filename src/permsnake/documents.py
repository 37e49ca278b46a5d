"""Line-oriented text documents for snakes and RMGC exports.

Snake document layout:

    snake n=<n> size=<M> metric=<linf|kendall> cyclic=<true|false> method=<name>
    <start permutation, one-line notation>
    <transition indices, whitespace separated, wrapped freely>
    codewords:            (optional)
    <one codeword per line>

The codeword block is purely a convenience listing; on parse it must
equal the recomputation from start and transitions.  RMGC exports use
the ``rmgc n=<n> len=<n!>`` header instead and carry no start line.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, VerificationError
from .perm import (
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


def _parse_header_fields(line: str, expect: str) -> dict[str, str]:
    parts = line.split()
    if not parts or parts[0] != expect:
        raise ParseError(f"expected a {expect!r} header, got {line!r}")
    fields = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ParseError(f"bad header field {part!r} in {line!r}")
        key, value = part.split("=", 1)
        fields[key] = value
    return fields


def format_document(doc: CodeDocument, include_codewords: bool = False) -> str:
    code = doc.code
    lines = [
        f"snake n={code.n} size={code.size} metric={code.metric_tag} "
        f"cyclic={str(code.cyclic).lower()} method={doc.method}"
    ]
    lines.append(format_perm(code.start))
    toks = [str(i) for i in code.transitions]
    for at in range(0, len(toks), _WRAP):
        lines.append(" ".join(toks[at : at + _WRAP]))
    if include_codewords:
        lines.append("codewords:")
        lines.extend(format_perm(c) for c in code.codewords())
    return "\n".join(lines) + "\n"


def parse_document(text: str) -> CodeDocument:
    """Parse a snake document; malformed text raises ParseError.

    A present codeword listing is cross-checked against the recomputation
    from start and transitions; a mismatch raises VerificationError.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty document")
    fields = _parse_header_fields(lines[0], KIND_SNAKE)
    try:
        n = int(fields["n"])
        size = int(fields["size"])
        metric = fields["metric"]
        cyclic = {"true": True, "false": False}[fields["cyclic"]]
        method = fields.get("method", "unknown")
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad snake header: {lines[0]!r}") from exc
    if metric not in ("linf", "kendall"):
        raise ParseError(f"unknown metric {metric!r}")
    if cyclic and size < 1:
        raise ParseError(f"a cyclic snake needs size >= 1, got size={size}")
    if len(lines) < 3:
        raise ParseError("snake document needs a start line and transitions")
    try:
        start = parse_perm(lines[1])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if len(start) != n:
        raise ParseError(f"start has {len(start)} values but header says n={n}")

    body = lines[2:]
    listed = None
    if "codewords:" in body:
        cut = body.index("codewords:")
        body, listing = body[:cut], body[cut + 1 :]
        try:
            listed = [parse_perm(ln) for ln in listing]
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    try:
        transitions = parse_transitions(" ".join(body))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

    expected_len = size if cyclic else size - 1
    if len(transitions) != expected_len:
        raise ParseError(
            f"header says size={size} ({'cyclic' if cyclic else 'noncyclic'}, "
            f"{expected_len} transitions) but {len(transitions)} follow"
        )
    code = GrayCode(n, start, transitions, cyclic, metric)
    if listed is not None and listed != code.codewords():
        diverge = next(
            i for i, (a, b) in enumerate(zip(listed, code.codewords())) if a != b
        ) if len(listed) == size else None
        where = f" (first divergence at codeword {diverge})" if diverge is not None else ""
        raise VerificationError(
            f"codeword listing does not match the transitions{where}"
        )
    return CodeDocument(code, method)


def format_rmgc_document(r: RmgcSequence) -> str:
    lines = [f"rmgc n={r.n} len={len(r.seq)}"]
    toks = [str(i) for i in r.seq]
    for at in range(0, len(toks), _WRAP):
        lines.append(" ".join(toks[at : at + _WRAP]))
    return "\n".join(lines) + "\n"


def parse_rmgc_document(text: str) -> RmgcSequence:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty document")
    fields = _parse_header_fields(lines[0], KIND_RMGC)
    try:
        n = int(fields["n"])
        length = int(fields["len"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad rmgc header: {lines[0]!r}") from exc
    try:
        seq = parse_transitions(" ".join(lines[1:]))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if len(seq) != length:
        raise ParseError(f"header says len={length} but {len(seq)} transitions follow")
    try:
        return RmgcSequence(n, seq)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
