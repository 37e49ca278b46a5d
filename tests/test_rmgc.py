import doctest
import hashlib
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permsnake import perm, rmgc
from permsnake._numpy import np
from permsnake.documents import format_rmgc_document
from permsnake.errors import InvalidTransitionError
from permsnake.perm import apply_sequence, identity, pack_pushes
from permsnake.rmgc import (
    RmgcSequence,
    base_t3,
    build_rmgc,
    complete_and_cyclic,
    rotate_after,
    special_positions,
)


def test_doctests():
    failures, _ = doctest.testmod(rmgc)
    assert failures == 0


def reference_complete_cyclic(n, seq, start=None):
    """(complete, cyclic) read off the chain as tuples and a set of them."""
    chain = apply_sequence(start or identity(n), seq)
    return len(set(chain[:-1])) == math.factorial(n), chain[-1] == chain[0]


def is_complete_cyclic(n, seq, start=None):
    return all(reference_complete_cyclic(n, seq, start))


def test_base_sequence():
    r = base_t3()
    assert r.n == 3
    assert r.seq == bytes((3, 3, 2, 3, 3, 2))
    assert [i + 1 for i, t in enumerate(r.seq) if t == 2] == [3, 6]
    assert is_complete_cyclic(3, r.seq)


def test_build_rmgc_small_sequences():
    assert build_rmgc(3).seq == bytes((3, 3, 2, 3, 3, 2))
    r4 = build_rmgc(4)
    assert len(r4.seq) == 24
    # 1-based positions of the distinguished transitions
    assert r4.seq[3] == 2 and r4.seq[11] == 3 and r4.seq[0] == 4
    counts = {i: r4.seq.count(i) for i in (2, 3, 4)}
    assert counts == {4: 18, 2: 4, 3: 2}
    r5 = build_rmgc(5)
    assert len(r5.seq) == 120
    assert r5.seq[4] == 2 and r5.seq[19] == 4 and r5.seq[0] == 5


@pytest.mark.parametrize("n", range(3, 8))
def test_complete_and_cyclic(n):
    r = build_rmgc(n)
    assert len(r.seq) == math.factorial(n)
    assert all(2 <= i <= n for i in r.seq)
    assert is_complete_cyclic(n, r.seq)


@pytest.mark.parametrize("n", range(3, 8))
def test_special_positions(n):
    assert special_positions(build_rmgc(n)) == (n, n * n - n, 1)


def test_special_positions_rejects_wrong_sequence():
    bogus = RmgcSequence(3, (3, 2, 3, 3, 2, 3))
    with pytest.raises(AssertionError):
        special_positions(bogus)


def test_seq_is_one_byte_per_push():
    assert RmgcSequence(3, (3, 3, 2, 3, 3, 2)).seq == bytes((3, 3, 2, 3, 3, 2))
    assert RmgcSequence(3, [3, 3, 2, 3, 3, 2]).seq == bytes((3, 3, 2, 3, 3, 2))
    assert type(rotate_after(build_rmgc(6), 7)) is bytes
    # A push outside 2..n is refused at construction, the first one named.
    for bad in (-2, 256, 1, 0):
        for seq in ((3, 3, bad, 3, 3, 2), bytes((3, 3, bad % 256, 3, 3, 2))):
            named = f"^transition index {seq[2]} outside 2..3$"
            with pytest.raises(InvalidTransitionError, match=named):
                RmgcSequence(3, seq)
    with pytest.raises(InvalidTransitionError, match="^transition index 4 outside 2..3$"):
        RmgcSequence(3, [3, 4, 1, 3, 3, 2])
    # The checks on n and on the length come first.
    with pytest.raises(ValueError, match="outside the allowed range"):
        RmgcSequence(11, [0])
    with pytest.raises(ValueError, match="must have 6 transitions, got 5"):
        RmgcSequence(3, [3, 3, 0, 3, 3])


def test_build_rmgc_bounds():
    with pytest.raises(ValueError):
        build_rmgc(2)
    with pytest.raises(ValueError):
        build_rmgc(11)


def test_build_rmgc_memoised():
    assert build_rmgc(5) is build_rmgc(5)


def test_rotate_after_basics():
    r = base_t3()
    assert rotate_after(r, 6) == r.seq
    assert rotate_after(r, 1) == bytes((3, 2, 3, 3, 2, 3))
    # The base sequence has period 3, so rotating at 3 reproduces it.
    assert rotate_after(r, 3) == r.seq
    assert rotate_after(r, 3)[-1] == 2
    with pytest.raises(ValueError):
        rotate_after(r, 0)
    with pytest.raises(ValueError):
        rotate_after(r, 7)


def test_rotations_stay_complete_and_cyclic():
    rng = random.Random(9)
    for n in (3, 4):
        r = build_rmgc(n)
        for s in range(1, math.factorial(n) + 1):
            rotated = rotate_after(r, s)
            start = tuple(rng.sample(range(1, n + 1), n))
            assert is_complete_cyclic(n, rotated, start=start)
    r5 = build_rmgc(5)
    for s in rng.sample(range(1, 121), 8):
        assert is_complete_cyclic(5, rotate_after(r5, s))


def test_export_format():
    text = format_rmgc_document(build_rmgc(4))
    lines = text.splitlines()
    assert lines[0] == "rmgc n=4 len=24"
    tokens = " ".join(lines[1:]).split()
    assert len(tokens) == 24
    assert format_rmgc_document(build_rmgc(3)).splitlines()[1:] == ["3 3 2 3 3 2"]


@st.composite
def rmgc_candidates(draw):
    """(n, n! transitions) for n = 2..6, each of one kind.

    complete: a rotation of the built RMGC; nonclosing: the same with its
    last transition changed, which keeps every word but misses the start;
    edited: one other transition changed; random: any indices in 2..n;
    out_of_range: one index outside 2..n put anywhere.
    """
    n = draw(st.integers(2, 6))
    size = math.factorial(n)
    base = rotate_after(build_rmgc(n), draw(st.integers(1, size))) if n >= 3 else (2, 2)
    seq = list(base)
    kind = draw(st.sampled_from(["complete", "nonclosing", "edited", "random", "out_of_range"]))
    at = size - 1 if kind == "nonclosing" else draw(st.integers(0, size - 1))
    if kind in ("nonclosing", "edited") and n >= 3:
        seq[at] = draw(st.sampled_from([i for i in range(2, n + 1) if i != seq[at]]))
    elif kind == "random":
        seq = draw(st.lists(st.integers(2, n), min_size=size, max_size=size))
    elif kind == "out_of_range":
        seq[at] = draw(st.integers(-3, 1) | st.integers(n + 1, n + 4))
    return n, tuple(seq)


@settings(max_examples=300, deadline=None)
@given(rmgc_candidates())
@example((3, (3, 3, 2, 3, 3, 2)))  # complete and cyclic
@example((3, (3, 3, 3, 3, 3, 3)))  # cyclic, three words only
@example((3, (3, 3, 2, 3, 3, 3)))  # every word, but it does not close
@example((3, (3, 3, 3, 3, 3, 2)))  # neither
@example((1, (2,)))  # no index is in range at n=1
def test_complete_and_cyclic_matches_the_tuple_reference(case):
    n, seq = case
    try:
        expected = reference_complete_cyclic(n, seq)
    except InvalidTransitionError as exc:
        with pytest.raises(InvalidTransitionError) as raised:
            RmgcSequence(n, seq)
        assert str(raised.value) == str(exc)
        return
    assert complete_and_cyclic(RmgcSequence(n, seq)) == expected


@pytest.mark.parametrize("segment", [1, 7, 119])
def test_complete_and_cyclic_across_segments(monkeypatch, segment):
    """Each segment of the walk starts from the last word of the one before."""
    monkeypatch.setattr(perm, "_SEGMENT", segment)
    built = list(build_rmgc(5).seq)
    edited = built[:60] + [2 if built[60] != 2 else 3] + built[61:]
    nonclosing = built[:-1] + [2 if built[-1] != 2 else 3]
    for seq in (built, edited, nonclosing, [5] * 120, [2] * 120):
        assert complete_and_cyclic(RmgcSequence(5, seq)) == reference_complete_cyclic(5, seq)


def grid_lift(n, inner):
    """The numpy lift: an (n-1)! x n grid of t_n whose last column holds t_{n-j+1}."""
    inner = np.frombuffer(inner, dtype=np.uint8)
    grid = np.full((len(inner), n), n, dtype=np.uint8)
    grid[:, -1] = n + 1 - inner
    return grid.tobytes()


@pytest.mark.parametrize("n", range(4, 11))
def test_build_rmgc_matches_the_list_lift(n):
    """Each level is the transition-by-transition lift of the level below, and the grid lift."""
    lifted = []
    for j in build_rmgc(n - 1).seq:
        lifted.extend([n] * (n - 1))
        lifted.append(n - j + 1)
    assert type(build_rmgc(n).seq) is bytes
    assert build_rmgc(n).seq == bytes(lifted) == grid_lift(n, build_rmgc(n - 1).seq)


def test_build_rmgc_10_is_pinned():
    digest = hashlib.sha256(build_rmgc(10).seq).hexdigest()
    assert digest == "b4e34fdc85b9ea181288029c462a4fe776e9bff785b2a51256e6ebd144c7a1eb"


def test_build_rmgc_10_allocates_its_sequence_once():
    """A cold build of every level up to n = 10 traces at most 5 MiB.

    The 10! bytes are 3.5 MiB; a lift that fills an array and copies it to
    bytes holds them twice and traces 7.3 MiB.
    """
    build_rmgc.cache_clear()
    tracemalloc.start()
    try:
        build_rmgc(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        build_rmgc.cache_clear()
    assert peak <= 5 * 2**20
