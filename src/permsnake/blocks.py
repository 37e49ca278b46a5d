"""Noncyclic snake blocks: the building material for the cyclic snakes.

Both builders return a noncyclic ``GrayCode``: a segment of permutations
in which every pair is at Chebyshev distance >= 2, with a prescribed
start and ``end`` shape so that segments can be chained by a single
boundary push.

``rmgc_block`` rearranges the k = floor(n/2) even values sitting in the
front of the word through a full complete Gray code, while the odd values
park in the tail.  Distinct arrangements of the even set are pairwise at
distance >= 2 automatically (same-parity values never sit within 1 of
each other), and the one odd value passing through the front is kept at
distance >= 2 from the even it displaces by the |a1 - b1| >= 2 premise.

``ksnake_block`` freezes the tail beyond position l+1 and walks the front
l+1 values through a Kendall snake drawn from one alternating coset.  All
codewords then share one permutation parity, and two same-parity words
that agree beyond position l+1 and mix one odd-one-out value in front
cannot be at Chebyshev distance 1: distance 1 would mean swapping the
odd-one-out with a neighbouring value, which flips parity.
"""
from __future__ import annotations

import math
from typing import Sequence

from .perm import METRIC_LINF, GrayCode, check_perm
from .rmgc import build_rmgc, rotate_after

# Rotation anchors for the two block variants.  The front-segment Gray
# code must end with a push of the full front (variant 1) or of all but
# its last slot (variant 2).  Position 2 of any built RMGC holds t_k
# (the sequence opens with k-1 of them) and position k^2-k holds t_{k-1}.
_VARIANT1_ANCHOR = 2


def _shape_error(clause: str, sigma: Sequence[int]) -> ValueError:
    return ValueError(f"start permutation {list(sigma)} violates: {clause}")


def rmgc_block(sigma: Sequence[int], variant: int) -> GrayCode:
    """Block of size k!+k over the even values in front, k = floor(n/2).

    Requires sigma = [b1, a2, ..., ak, a1, b2, ..., bl] with the a's the
    even values of 1..n, the b's the odd values, and |a1 - b1| >= 2.
    Variant 1 ends [a2, ..., ak, a1, b1, ..., bl]; variant 2 ends with the
    final two front values swapped: [a2, ..., a1, ak, b1, ..., bl].
    """
    sigma = check_perm(sigma)
    n = len(sigma)
    if n < 6:
        raise _shape_error("n >= 6 required", sigma)
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant!r}")
    k = n // 2
    b1, a1 = sigma[0], sigma[k]
    if b1 % 2 == 0:
        raise _shape_error("position 1 must hold an odd value", sigma)
    for pos in range(2, k + 2):  # positions 2..k+1 hold the even values
        if sigma[pos - 1] % 2 != 0:
            raise _shape_error(f"position {pos} must hold an even value", sigma)
    for pos in range(k + 2, n + 1):
        if sigma[pos - 1] % 2 == 0:
            raise _shape_error(f"position {pos} must hold an odd value", sigma)
    if abs(a1 - b1) < 2:
        raise _shape_error(
            f"|a1 - b1| >= 2 required, got |{a1} - {b1}| = {abs(a1 - b1)}", sigma
        )

    front_code = build_rmgc(k)
    anchor = _VARIANT1_ANCHOR if variant == 1 else k * k - k
    rotation = rotate_after(front_code, anchor)
    # Sanity: the dropped final transition fixes the end shape.
    if rotation[-1] != (k if variant == 1 else k - 1):
        raise AssertionError(f"rotation ends on t_{rotation[-1]}, not the variant's anchor")

    pushes = bytes((k,) * (k - 1) + (k + 1,)) + bytes(rotation[: math.factorial(k) - 1])
    block = GrayCode(n, sigma, pushes, cyclic=False, metric_tag=METRIC_LINF)

    front = sigma[1 : k + 1]  # (a2, ..., ak, a1)
    if variant == 1:
        expected_end = front + (b1,) + sigma[k + 1 :]
    else:
        expected_end = front[: k - 2] + (a1, front[k - 2], b1) + sigma[k + 1 :]
    if block.end != expected_end:
        raise AssertionError("front Gray code did not land on the expected shape")
    return block


def ksnake_block(sigma: Sequence[int], snake_seq: Sequence[int]) -> GrayCode:
    """Block from a cyclic Kendall-snake sequence acting on positions 1..l+1.

    Requires sigma = [a1, b1, ..., bl, a2, ..., ak] where the a's share one
    parity and the b's the other, and snake_seq the full cyclic transition
    sequence of a Kendall snake on l+1 symbols whose last transition is
    t_{l+1}.  The block applies all but that final transition; it ends at
    [b1, ..., bl, a1, a2, ..., ak].
    """
    sigma = check_perm(sigma)
    n = len(sigma)
    a_par = sigma[0] % 2
    l = sum(1 for v in range(1, n + 1) if v % 2 != a_par)
    if l < 1 or l >= n:
        raise _shape_error("values must split into two nonempty parity classes", sigma)
    for pos in range(2, l + 2):  # positions 2..l+1 hold the other parity
        if sigma[pos - 1] % 2 == a_par:
            raise _shape_error(
                f"position {pos} must hold the parity opposite to position 1", sigma
            )
    for pos in range(l + 2, n + 1):
        if sigma[pos - 1] % 2 != a_par:
            raise _shape_error(
                f"position {pos} must hold the same parity as position 1", sigma
            )
    if not snake_seq:
        raise ValueError("empty transition sequence: need a cyclic snake of size >= 1")
    for i in snake_seq:
        if not 2 <= i <= l + 1:
            raise ValueError(
                f"transition t_{i} touches positions beyond the front segment 1..{l + 1}"
            )
    if snake_seq[-1] != l + 1:
        raise ValueError(
            f"last transition must be t_{l + 1} to restore the front, got t_{snake_seq[-1]}"
        )

    block = GrayCode(n, sigma, snake_seq[:-1], cyclic=False, metric_tag=METRIC_LINF)
    expected_end = sigma[1 : l + 1] + (sigma[0],) + sigma[l + 1 :]
    if block.end != expected_end:
        raise ValueError(
            "transition sequence is not cyclic over the front segment: "
            f"ended at {list(block.end)}, expected {list(expected_end)}"
        )
    return block
