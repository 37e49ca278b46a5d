"""Snake-in-the-box codes over permutations for rank modulation.

Cyclic Gray codes driven by push-to-the-top moves whose codewords stay
pairwise at Chebyshev distance >= 2 (detecting one limited-magnitude
spike error), plus the Kendall-snake machinery the larger construction
feeds on, verification tooling and exhaustive search oracles.
"""

from .blocks import ksnake_block, rmgc_block
from .constructions import (
    SizeTable,
    ksnake_snake_start,
    rmgc_snake_start,
    size_table,
    snake_from_ksnake,
    snake_from_rmgc,
    snake_upper_bound,
)
from .errors import InvalidTransitionError, ParseError, VerificationError
from .ksnake import (
    build_ksnake,
    embedded_a5_snake,
    load_ksnake,
    parse_ksnake,
    search_ksnake,
    transport,
)
from .perm import (
    GrayCode,
    apply_sequence,
    apply_transition,
    compose,
    identity,
    inverse,
    kendall_distance,
    linf_distance,
    parity,
    parse_perm,
    format_perm,
)
from .rmgc import RmgcSequence, base_t3, build_rmgc, rotate_after, special_positions
from .verify import SnakeReport, exhaustive_max_snake, verify_code

__version__ = "0.1.0"

__all__ = [
    "GrayCode",
    "InvalidTransitionError",
    "ParseError",
    "RmgcSequence",
    "SizeTable",
    "SnakeReport",
    "VerificationError",
    "apply_sequence",
    "apply_transition",
    "base_t3",
    "build_ksnake",
    "build_rmgc",
    "compose",
    "embedded_a5_snake",
    "exhaustive_max_snake",
    "format_perm",
    "identity",
    "inverse",
    "kendall_distance",
    "ksnake_block",
    "ksnake_snake_start",
    "linf_distance",
    "load_ksnake",
    "parity",
    "parse_ksnake",
    "parse_perm",
    "rmgc_block",
    "rmgc_snake_start",
    "rotate_after",
    "search_ksnake",
    "size_table",
    "snake_from_ksnake",
    "snake_from_rmgc",
    "snake_upper_bound",
    "special_positions",
    "transport",
    "verify_code",
]
