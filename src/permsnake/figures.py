"""The five golden fixtures and their regeneration.

fig1/fig2: the two block variants from the canonical n=6 start, one
codeword per line.  fig3: the boundary rows of the n=6 snake.  fig4: the
57 codewords of the Kendall block at n=7.  fig5: the boundary rows of
the n=7 snake.  Boundary-row files label each line with its codeword
index; the final row repeats the start, witnessing the cyclic closure.

``compare_to_goldens`` diffs regenerated text against the committed
copies under permsnake/goldens and names the first diverging line.
"""
from __future__ import annotations

from importlib import resources

from .blocks import ksnake_block, rmgc_block
from .constructions import (
    ksnake_snake_start,
    rmgc_snake_start,
    snake_from_ksnake,
    snake_from_rmgc,
)
from .documents import _token_chunks
from .ksnake import embedded_a5_snake
from .perm import GrayCode, format_perm

FIGURE_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5")


def _boundary_rows(code: GrayCode, block_size: int) -> str:
    cw = code._codewords

    def row(i: int) -> str:
        return f"{i}: {format_perm(cw[i % code.size].tolist())}"

    lines = [row(0)]
    for l in range(1, code.size // block_size + 1):
        lines += [row(l * block_size - 1), row(l * block_size)]
    return "\n".join(lines) + "\n"


def generate_figure(name: str) -> str:
    if name in ("fig1", "fig2"):
        block = rmgc_block(rmgc_snake_start(6), 1 if name == "fig1" else 2)
    elif name == "fig4":
        block = ksnake_block(ksnake_snake_start(7), embedded_a5_snake().pushes)
    elif name == "fig3":
        return _boundary_rows(snake_from_rmgc(6), 9)
    elif name == "fig5":
        return _boundary_rows(snake_from_ksnake(7, embedded_a5_snake()), 57)
    else:
        raise ValueError(f"unknown figure {name!r}")
    return "".join(_token_chunks(block._codewords, block.n))


def golden_text(name: str) -> str:
    path = resources.files("permsnake") / "goldens" / f"{name}.txt"
    return path.read_text(encoding="utf-8")


def compare_to_goldens() -> list[str]:
    """Regenerate every figure; report mismatches against the goldens.

    Returns human-readable problem descriptions, empty when everything is
    byte identical.
    """
    problems = []
    for name in FIGURE_NAMES:
        fresh = generate_figure(name)
        try:
            committed = golden_text(name)
        except FileNotFoundError:
            problems.append(f"{name}: committed golden file is missing")
            continue
        if fresh == committed:
            continue
        fresh_lines = fresh.splitlines()
        committed_lines = committed.splitlines()
        for lineno, (a, b) in enumerate(zip(fresh_lines, committed_lines), start=1):
            if a != b:
                problems.append(
                    f"{name}: line {lineno} diverges: regenerated {a!r}, golden {b!r}"
                )
                break
        else:
            problems.append(
                f"{name}: line count differs: regenerated {len(fresh_lines)}, "
                f"golden {len(committed_lines)}"
            )
    return problems
