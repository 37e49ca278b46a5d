"""Command-line interface.

Commands: construct, verify, sizes, figures, search, import-ksnake.
Exit codes are a stable contract: 0 success/valid, 1 invalid code or
mismatch, 2 parse, I/O or precondition errors.  Every command that
reads a document reads it through one entry, ``documents._document``.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple
from typing import Iterable

from . import figures as figmod
from .blocks import ksnake_block, rmgc_block
from .constructions import (
    ksnake_snake_start,
    rmgc_snake_start,
    size_table,
    snake_from_ksnake,
    snake_from_rmgc,
)
from .documents import (
    CodeDocument,
    KIND_KSNAKE,
    KIND_RMGC,
    KIND_SNAKE,
    _document,
    document_chunks,
    ksnake_chunks,
    read_document,
    rmgc_chunks,
)
from .errors import VerificationError
from .ksnake import (
    check_parity,
    embedded_a5_snake,
    load_ksnake,
    search_ksnake,
    verify_snake,
)
from .perm import METRIC_KENDALL, METRIC_LINF, GrayCode, format_perm
from .rmgc import RmgcSequence, build_rmgc, complete_and_cyclic
from .verify import SnakeReport, exhaustive_max_snake, verify_code

ABSENT = "—"  # table placeholder for sizes without a construction
SIZES_MAX_N = 100  # sizes tabulates n in 4..100; thm1 stops at RMGC_SNAKE_MAX_N = 14
# construct rmgc checks completeness and closure up to this n.  The check
# is what limits it: it walks and ranks all n! words, 0.06-0.08 s at n=9,
# while at n=10 it would add numpy and 0.7 s to a 0.14-s command (see README).
RMGC_CHECK_MAX_N = 9
MODE_OPTION = dict(
    choices=["exhaustive", "sampled"],
    default=None,
    help="accepted for compatibility; every verdict is exact (mode=exhaustive)",
)


def _write_out(chunks: Iterable[str], out: str | None) -> None:
    """Write a document's chunks to out, or to stdout, one at a time.

    The whole document never exists as one string: the 10.5 MB of a
    10-RMGC export pass through one chunk of 64 K tokens at a time.
    """
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _info(msg: str, to_stderr: bool) -> None:
    print(msg, file=sys.stderr if to_stderr else sys.stdout)


def _sizes_cells(n: int) -> list[str]:
    return [ABSENT if v is None else str(v) for v in astuple(size_table(n))]


def _load_snake_source(args: argparse.Namespace) -> GrayCode:
    if args.embedded and args.ksnake:
        raise ValueError("pass either --embedded or --ksnake, not both")
    if args.embedded:
        return embedded_a5_snake()
    if args.ksnake:
        return load_ksnake(args.ksnake)
    raise ValueError("this method needs --embedded or --ksnake <file>")


def _cmd_construct(args: argparse.Namespace) -> int:
    n = args.n
    info_to_stderr = args.out is None

    if args.method == "rmgc":
        r = build_rmgc(n)
        if n <= RMGC_CHECK_MAX_N and not all(complete_and_cyclic(r)):
            _info("refusing to emit: sequence is not complete and cyclic", True)
            return 1
        _info(f"size={len(r.seq)} complete cyclic {n}-RMGC", info_to_stderr)
        _write_out(rmgc_chunks(r), args.out)
        return 0

    if args.method == "thm1":
        code = snake_from_rmgc(n)
    elif args.method == "thm2":
        code = snake_from_ksnake(n, _load_snake_source(args))
    elif args.method == "lemma3":
        if n < 6:
            raise ValueError(f"the RMGC block needs n >= 6, got {n}")
        code = rmgc_block(rmgc_snake_start(n), args.variant)
    elif args.method == "lemma7":
        code = ksnake_block(ksnake_snake_start(n), _load_snake_source(args).pushes)
    else:  # pragma: no cover - argparse constrains the choices
        raise AssertionError(args.method)

    report = verify_code(code)
    if not report.valid:
        _info(report.render(), True)
        _info("refusing to emit an invalid code", True)
        return 1
    _info(f"size={code.size}", info_to_stderr)
    if n >= 4:
        _info(f"sizes row (n,m0,m1,m2,bound): {','.join(_sizes_cells(n))}", info_to_stderr)
    _info(report.summary_line(), info_to_stderr)
    _write_out(document_chunks(CodeDocument(code, args.method), args.codewords), args.out)
    return 0


def _print_verdict(report: SnakeReport) -> int:
    print(report.render())
    print(report.summary_line())
    return 0 if report.valid else 1


def _verify_rmgc(r: RmgcSequence) -> int:
    complete, cyclic = complete_and_cyclic(r)
    ok = complete and cyclic
    print(
        f"valid={str(ok).lower()} size={len(r.seq)} complete={str(complete).lower()} "
        f"cyclic={str(cyclic).lower()} n={r.n}"
    )
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    """Verify a snake, ksnake or rmgc document.

    The file is read in pieces by ``documents.read_document``; neither its
    text nor its lines are held while the check runs.
    """
    kind, parsed = read_document(args.file)
    if kind == KIND_RMGC:
        return _verify_rmgc(parsed)
    code = parsed.code if kind == KIND_SNAKE else parsed
    report = verify_code(code)
    if kind == KIND_KSNAKE and report.valid:
        # A valid report must also pass import-ksnake's coset rule.
        check_parity(code)
    return _print_verdict(report)


def _cmd_sizes(args: argparse.Namespace) -> int:
    lo, hi = args.lo, args.hi if args.hi is not None else args.lo
    for n in (lo, hi):
        if not 4 <= n <= SIZES_MAX_N:
            raise ValueError(f"sizes n={n} is outside the allowed range 4..{SIZES_MAX_N}")
    if hi < lo:
        raise ValueError(f"empty range {lo}..{hi}")
    rows = [_sizes_cells(n) for n in range(lo, hi + 1)]
    if args.csv:
        print("\n".join(",".join(cells) for cells in rows))
        return 0
    for cells in [["n", "m0", "m1", "m2", "bound"], *rows]:
        print(" ".join(f"{c:>{w}}" for c, w in zip(cells, (3, 12, 12, 14, 14))))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        for name in figmod.FIGURE_NAMES:
            with open(
                os.path.join(args.out, f"{name}.txt"), "w", encoding="utf-8"
            ) as fh:
                fh.write(figmod.generate_figure(name))
    problems = figmod.compare_to_goldens()
    for name in figmod.FIGURE_NAMES:
        status = next((p for p in problems if p.startswith(name)), None)
        print(status if status is not None else f"{name}: ok")
    return 1 if problems else 0


def _cmd_search(args: argparse.Namespace) -> int:
    if args.what == "max":
        metric = args.metric
        best, witness = exhaustive_max_snake(
            args.n, metric, cyclic=not args.noncyclic, node_budget=args.budget
        )
        print(f"max_size={best}")
        if witness is not None:
            report = verify_code(witness)
            print(report.summary_line())
            if args.out:
                _write_out(document_chunks(CodeDocument(witness, "search-max")), args.out)
        return 0
    # what == "ksnake"
    stats: dict = {}
    snake = search_ksnake(args.n, args.target, budget=args.budget, stats=stats)
    if snake is None:
        print(
            f"not-found target={args.target} nodes={stats['nodes']} "
            f"exhausted={str(stats['exhausted']).lower()}"
        )
        return 0
    print(f"found size={snake.size} nodes={stats['nodes']}")
    if args.out:
        _write_out(ksnake_chunks(snake), args.out)
    return 0


def _cmd_import_ksnake(args: argparse.Namespace) -> int:
    with open(args.file, "rb") as fh:
        snake = _document(fh, KIND_KSNAKE)[1]
    print(verify_snake(snake).summary_line())
    print(f"start={format_perm(snake.start)} last_transition=t{snake.pushes[-1]}")
    if args.out:
        _write_out(ksnake_chunks(snake), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permsnake",
        description=(
            "Construct, verify and search snake-in-the-box codes over "
            "permutations driven by push-to-the-top moves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a code and write it as a document")
    c.add_argument(
        "method",
        choices=["thm1", "thm2", "rmgc", "lemma3", "lemma7"],
        help=(
            "thm1: cyclic Chebyshev snake from complete RMGCs; "
            "thm2: cyclic Chebyshev snake from a Kendall snake; "
            "rmgc: complete cyclic Gray code; "
            "lemma3/lemma7: the two noncyclic building blocks"
        ),
    )
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--variant", type=int, choices=[1, 2], default=1)
    c.add_argument("--ksnake", metavar="PATH", help="Kendall snake file to consume")
    c.add_argument("--embedded", action="store_true", help="use the built-in (5,57) snake")
    c.add_argument("--mode", **MODE_OPTION)
    c.add_argument("--codewords", action="store_true", help="append the codeword listing")
    c.add_argument("--out", metavar="PATH")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="verify a snake, ksnake or rmgc document")
    v.add_argument("file")
    v.add_argument("--mode", **MODE_OPTION)
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("sizes", help="construction sizes and the packing bound")
    s.add_argument("lo", type=int)
    s.add_argument("hi", type=int, nargs="?")
    s.add_argument("--csv", action="store_true")
    s.set_defaults(func=_cmd_sizes)

    f = sub.add_parser("figures", help="regenerate golden fixtures and diff them")
    f.add_argument("--out", metavar="DIR", help="also write the fixtures here")
    f.set_defaults(func=_cmd_figures)

    se = sub.add_parser("search", help="exhaustive oracle and Kendall-snake search")
    se.add_argument("what", choices=["max", "ksnake"])
    se.add_argument("--n", type=int, required=True)
    se.add_argument("--metric", choices=[METRIC_LINF, METRIC_KENDALL], default=METRIC_LINF)
    se.add_argument("--noncyclic", action="store_true")
    se.add_argument("--target", type=int, default=2)
    se.add_argument("--budget", type=int, default=1_000_000)
    se.add_argument("--out", metavar="PATH")
    se.set_defaults(func=_cmd_search)

    i = sub.add_parser("import-ksnake", help="parse and fully verify a ksnake file")
    i.add_argument("file")
    i.add_argument("--out", metavar="PATH", help="write the normalised form here")
    i.set_defaults(func=_cmd_import_ksnake)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
