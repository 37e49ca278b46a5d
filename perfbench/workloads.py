"""The four benchmark workloads: their seeded inputs, commands and output checks.

Each workload is a fixed sequence of ``permsnake`` CLI commands.  The
inputs a workload needs are generated from the seed before timing starts,
written into the run's work directory, and the program receives only
those files.  Every command's exit code and printed values are checked
against known-correct values; a mismatch is a failed operation, not an
abort.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Callable

# One verdict line of ``SnakeReport.summary_line``.
VERDICT = re.compile(
    r"valid=(true|false) size=(\d+) min_d=(\S+) metric=(\w+) bound=(\d+) mode=(\w+)"
)
WRAP = 30  # transition tokens per line, as the program writes them


@dataclass(frozen=True)
class Command:
    """One CLI call and what its output must show.

    ``expect`` holds regular expressions; each must match a whole line of
    stdout.  With ``exact`` set, no verdict line may report ``mode=sampled``:
    every verdict must certify every pair.
    """

    args: tuple[str, ...]
    rc: int = 0
    expect: tuple[str, ...] = ()
    exact: bool = True
    out_file: str | None = None
    out_header: str | None = None

    @property
    def label(self) -> str:
        return " ".join(self.args)


@dataclass(frozen=True)
class Prepared:
    """A workload's generated input files and its command sequence."""

    files: dict[str, bytes]
    commands: tuple[Command, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int], Prepared]


@dataclass
class Checked:
    problems: list[str]
    verdicts: int
    inexact_verdicts: int


def check_output(cmd: Command, rc: int, stdout: str, out_first_line: str | None) -> Checked:
    """Compare one command's exit code, stdout and output header with ``cmd``."""
    problems = []
    if rc != cmd.rc:
        problems.append(f"exit code {rc}, expected {cmd.rc}")
    lines = stdout.splitlines()
    for pattern in cmd.expect:
        if not any(re.fullmatch(pattern, ln) for ln in lines):
            problems.append(f"no stdout line matches {pattern!r}")
    verdicts = inexact = 0
    for ln in lines:
        m = VERDICT.fullmatch(ln)
        if m is None:
            continue
        verdicts += 1
        if m.group(6) == "sampled":
            inexact += 1
            if cmd.exact:
                problems.append(f"verdict rests on a sample: {ln!r}")
    if cmd.out_header is not None and out_first_line != cmd.out_header:
        problems.append(f"{cmd.out_file} starts {out_first_line!r}, expected {cmd.out_header!r}")
    return Checked(problems, verdicts, inexact)


# ------------------------------------------------------------------ inputs


def _push(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    return (p[i - 1],) + p[: i - 1] + p[i:]


def first_duplicate(start: tuple[int, ...], transitions: list[int]) -> tuple[int, int] | None:
    """First (i, j), i < j, with codeword i == codeword j of a cyclic code."""
    cur = start
    seen = {cur: 0}
    for j, t in enumerate(transitions[:-1], start=1):
        cur = _push(cur, t)
        if cur in seen:
            return seen[cur], j
        seen[cur] = j
    return None


def plant_duplicate(doc: str, seed: int) -> tuple[str, tuple[int, int]]:
    """Insert a ``t2 t2`` pair at a seeded position of a snake document.

    Pushing t2 twice returns to the same permutation, so the result has a
    repeated codeword.  Returns the new document and the pair of codeword
    indices that a verifier must report first.
    """
    lines = doc.splitlines()
    header, start_line = lines[0], lines[1]
    if "codewords:" in lines:
        raise ValueError("plant_duplicate expects a document without a codeword listing")
    tokens = " ".join(lines[2:]).split()
    k = random.Random(f"certify:{seed}").randrange(len(tokens) + 1)
    tokens[k:k] = ["2", "2"]
    size = int(re.search(r"\bsize=(\d+)", header).group(1))
    header = re.sub(r"\bsize=\d+", f"size={size + 2}", header, count=1)
    body = [" ".join(tokens[at : at + WRAP]) for at in range(0, len(tokens), WRAP)]
    start = tuple(int(v) for v in start_line.split())
    pair = first_duplicate(start, [int(t) for t in tokens])
    if pair is None:
        raise AssertionError("planting t2 t2 must repeat a codeword")
    return "\n".join([header, start_line, *body]) + "\n", pair


def thm1_document(n: int, codewords: bool = False) -> str:
    """The document ``permsnake construct thm1 --n <n>`` writes."""
    from permsnake.constructions import snake_from_rmgc
    from permsnake.documents import CodeDocument, format_document

    return format_document(CodeDocument(snake_from_rmgc(n), "thm1"), codewords)


def rotated_rmgc_document(n: int, seed: int) -> tuple[str, int]:
    """An n-RMGC document rotated after a seeded position; still valid."""
    from permsnake.documents import format_rmgc_document
    from permsnake.rmgc import RmgcSequence, build_rmgc, rotate_after

    s = random.Random(f"rmgc:{seed}").randint(1, math.factorial(n))
    return format_rmgc_document(RmgcSequence(n, rotate_after(build_rmgc(n), s))), s


# --------------------------------------------------------------- workloads


def _verdict(size: int, bound: int, valid: str = "true", min_d: str = "2") -> str:
    return rf"valid={valid} size={size} min_d={min_d} metric=linf bound={bound} mode=\w+"


def _snake_header(n: int, size: int, method: str) -> str:
    return f"snake n={n} size={size} metric=linf cyclic=true method={method}"


def planted_command(path: str, size: int, bound: int, pair: tuple[int, int]) -> Command:
    """``verify`` on a planted-duplicate document: exit 1, naming the pair."""
    return Command(
        ("verify", path),
        rc=1,
        expect=(
            _verdict(size, bound, valid="false", min_d="0"),
            r"distinct:\s+False",
            rf"violation:\s+codewords {pair[0]} and {pair[1]} at distance 0",
        ),
    )


def _prepare_certify(seed: int) -> Prepared:
    planted, (i, j) = plant_duplicate(thm1_document(9), seed)
    b9 = 22680  # 9! / 2^4, the packing bound
    commands = (
        Command(
            ("construct", "thm1", "--n", "9", "--out", "thm1_n9.txt"),
            expect=(r"size=3360", _verdict(3360, b9)),
            out_file="thm1_n9.txt",
            out_header=_snake_header(9, 3360, "thm1"),
        ),
        Command(
            ("construct", "thm2", "--n", "9", "--embedded", "--out", "thm2_n9.txt"),
            expect=(r"size=6840", _verdict(6840, b9)),
            out_file="thm2_n9.txt",
            out_header=_snake_header(9, 6840, "thm2"),
        ),
        Command(
            ("verify", "thm1_n9.txt"),
            expect=(_verdict(3360, b9), rf"mode:\s+\w+ \({3360 * 3359 // 2} pairs\)"),
        ),
        Command(
            ("verify", "thm2_n9.txt"),
            expect=(_verdict(6840, b9), rf"mode:\s+\w+ \({6840 * 6839 // 2} pairs\)"),
        ),
        planted_command("planted.txt", 3362, b9, (i, j)),
    )
    return Prepared({"planted.txt": planted.encode()}, commands)


def _prepare_large(seed: int) -> Prepared:
    # Nothing here depends on the seed: both sizes are fixed.
    commands = (
        Command(
            ("construct", "thm1", "--n", "12", "--out", "thm1_n12.txt"),
            expect=(r"size=522720", _verdict(522720, 7484400)),
            exact=False,
            out_file="thm1_n12.txt",
            out_header=_snake_header(12, 522720, "thm1"),
        ),
        Command(
            ("verify", "thm1_n11.txt"),
            expect=(_verdict(90000, 1247400),),
            exact=False,
        ),
    )
    return Prepared({"thm1_n11.txt": thm1_document(11, codewords=True).encode()}, commands)


def _prepare_rmgc(seed: int) -> Prepared:
    doc, _ = rotated_rmgc_document(9, seed)
    commands = (
        Command(
            ("construct", "rmgc", "--n", "8", "--out", "rmgc_n8.txt"),
            expect=(r"size=40320 complete cyclic 8-RMGC",),
            out_file="rmgc_n8.txt",
            out_header="rmgc n=8 len=40320",
        ),
        Command(
            ("construct", "rmgc", "--n", "10", "--out", "rmgc_n10.txt"),
            expect=(r"size=3628800 complete cyclic 10-RMGC",),
            out_file="rmgc_n10.txt",
            out_header="rmgc n=10 len=3628800",
        ),
        Command(
            ("verify", "rmgc9_rotated.txt"),
            expect=(r"valid=true size=362880 complete=true cyclic=true n=9",),
        ),
    )
    return Prepared({"rmgc9_rotated.txt": doc.encode()}, commands)


def _prepare_search(seed: int) -> Prepared:
    # The searches are deterministic and take no input files.
    commands = (
        Command(
            ("search", "max", "--n", "5", "--budget", "200000"),
            expect=(r"max_size=30", _verdict(30, 30)),
        ),
        Command(
            ("search", "ksnake", "--n", "5", "--target", "57"),
            expect=(r"found size=57 nodes=\d+",),
        ),
        Command(
            ("search", "ksnake", "--n", "5", "--target", "58", "--budget", "50000"),
            expect=(r"not-found target=58 nodes=\d+ exhausted=(true|false)",),
        ),
        Command(
            ("search", "ksnake", "--n", "7", "--target", "2515", "--budget", "500000"),
            # A verified snake of 2,515..2,520 codewords would also be right.
            expect=(
                r"not-found target=2515 nodes=\d+ exhausted=(true|false)"
                r"|found size=25(1[5-9]|20) nodes=\d+",
            ),
        ),
    )
    return Prepared({}, commands)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "certify",
            "thm1 and thm2 at n=9 plus a planted-duplicate verify: the exhaustive pairwise certificate dominates",
            _prepare_certify,
        ),
        Workload(
            "large",
            "thm1 n=12 and a 90,000-codeword n=11 document: materialisation, duplicates, document size and RSS grow",
            _prepare_large,
        ),
        Workload(
            "rmgc",
            "RMGC build, format and parse up to n=10 with no pairwise certificate: the bypass for pairdist changes",
            _prepare_rmgc,
        ),
        Workload(
            "search",
            "pure-Python DFS over perm moves and distance calls in ksnake and the verify oracle, no numpy or documents",
            _prepare_search,
        ),
    )
}
