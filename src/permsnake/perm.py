"""Permutations over {1, ..., n} and the push-to-the-top operation.

Conventions used everywhere in this package:

- A permutation is a tuple of the values 1..n in one-line notation, so
  ``p[i-1]`` is the value at position i.  Positions and values are both
  1-based; only raw tuple indexing is 0-based.
- ``apply_transition(p, i)`` is the push-to-the-top move: the value at
  position i (2 <= i <= n) is moved to the front and the prefix shifts
  right by one.
- ``compose(p, q)`` returns the permutation r with r(i) = q(p(i)).  Note
  the order: p acts first on the position, q relabels.  This is the
  opposite of usual function composition and tests pin it explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InvalidTransitionError

Perm = tuple[int, ...]

METRIC_LINF = "linf"
METRIC_KENDALL = "kendall"


def identity(n: int) -> Perm:
    """The identity permutation [1, 2, ..., n].

    >>> identity(4)
    (1, 2, 3, 4)
    """
    return tuple(range(1, n + 1))


def is_perm(seq: Sequence[int]) -> bool:
    """True if seq is a permutation of 1..len(seq)."""
    n = len(seq)
    return sorted(seq) == list(range(1, n + 1))


def check_perm(seq: Iterable[int]) -> Perm:
    """Validate and normalise to a tuple; raises ValueError if not a bijection."""
    p = tuple(seq)
    if not is_perm(p):
        raise ValueError(f"not a permutation of 1..{len(p)}: {list(p)}")
    return p


def apply_transition(p: Perm, i: int) -> Perm:
    """Push the value at position i to the front.

    >>> apply_transition((1, 2, 3), 2)
    (2, 1, 3)
    >>> apply_transition((1, 4, 2, 6, 3, 5), 3)
    (2, 1, 4, 6, 3, 5)
    """
    n = len(p)
    if not 2 <= i <= n:
        raise InvalidTransitionError(f"transition index {i} outside 2..{n}")
    return (p[i - 1],) + p[: i - 1] + p[i:]


def apply_sequence(p: Perm, transitions: Sequence[int]) -> list[Perm]:
    """Apply a transition sequence, returning all len(transitions)+1 states.

    The first entry is p itself; entry j is the result after j transitions.
    """
    out = [tuple(p)]
    cur = out[0]
    for i in transitions:
        cur = apply_transition(cur, i)
        out.append(cur)
    return out


@dataclass(frozen=True)
class GrayCode:
    """A Gray code given by start, transitions and a cyclic flag.

    Codewords are always derived from the transitions, never stored as
    the source of truth.  For a cyclic code the final transition maps the
    last codeword back to the start; a noncyclic code has size
    len(transitions) + 1.  Snake blocks are noncyclic Gray codes and
    Kendall snakes are cyclic ones tagged with the Kendall metric.
    """

    n: int
    start: Perm
    transitions: tuple[int, ...]
    cyclic: bool
    metric_tag: str

    @property
    def size(self) -> int:
        return len(self.transitions) if self.cyclic else len(self.transitions) + 1

    @cached_property
    def end(self) -> Perm:
        """The word reached after every transition, without materialising codewords."""
        return apply_sequence(self.start, self.transitions)[-1]

    @cached_property
    def _codewords(self) -> tuple[Perm, ...]:
        chain = apply_sequence(self.start, self.transitions)
        return tuple(chain[:-1]) if self.cyclic else tuple(chain)

    def codewords(self) -> list[Perm]:
        return list(self._codewords)


def compose(p: Perm, q: Perm) -> Perm:
    """r with r(i) = q(p(i)); p picks the position, q relabels.

    >>> compose((2, 3, 1), (3, 1, 2))
    (1, 2, 3)
    """
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return tuple(q[v - 1] for v in p)


def inverse(p: Perm) -> Perm:
    """The group inverse: compose(p, inverse(p)) == identity.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    inv = [0] * len(p)
    for pos, v in enumerate(p, start=1):
        inv[v - 1] = pos
    return tuple(inv)


def parity(p: Perm) -> int:
    """0 for even permutations, 1 for odd, via cycle decomposition."""
    n = len(p)
    seen = [False] * (n + 1)
    transpositions = 0
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = p[v - 1]
            length += 1
        transpositions += length - 1
    return transpositions % 2


def linf_distance(p: Perm, q: Perm) -> int:
    """Chebyshev distance: the largest per-position value difference.

    >>> linf_distance((1, 4, 2, 6, 3, 5), (2, 1, 4, 6, 3, 5))
    3
    """
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return max(abs(a - b) for a, b in zip(p, q))


def kendall_distance(p: Perm, q: Perm) -> int:
    """Kendall tau distance: the number of value pairs ordered oppositely.

    Equals the inversion count of the relative permutation that maps the
    order of p onto the order of q.

    >>> kendall_distance((1, 2, 3), (3, 2, 1))
    3
    """
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    qinv = inverse(q)
    rel = [qinv[v - 1] for v in p]
    n = len(rel)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if rel[i] > rel[j]
    )


def parse_perm(text: str) -> Perm:
    """Parse one-line notation, e.g. "1 4 2 6 3 5"."""
    try:
        values = [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise ValueError(f"bad permutation text {text!r}") from exc
    return check_perm(values)


def format_perm(p: Perm) -> str:
    """One-line notation with single spaces: "1 4 2 6 3 5"."""
    return " ".join(str(v) for v in p)


def parse_transitions(text: str) -> tuple[int, ...]:
    """Parse a transition sequence; tokens may be bare ints or t-prefixed.

    >>> parse_transitions("t3 t3 t2")
    (3, 3, 2)
    >>> parse_transitions("3 3 2")
    (3, 3, 2)
    """
    out = []
    for tok in text.split():
        raw = tok[1:] if tok.startswith("t") else tok
        try:
            out.append(int(raw))
        except ValueError as exc:
            raise ValueError(f"bad transition token {tok!r}") from exc
    return tuple(out)


def format_transitions(transitions: Sequence[int], prefix: str = "") -> str:
    """Whitespace-separated transition tokens; prefix="t" gives "t3 t2"."""
    return " ".join(f"{prefix}{i}" for i in transitions)
