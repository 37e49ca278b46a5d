"""Spans and counters around the public functions of each permsnake layer.

``install`` replaces the chosen functions of the imported permsnake
modules with wrappers, wherever a module holds a reference to them, so
calls made through ``from .x import f`` bindings are seen too.  A wrapped
function records a span (layer, name, parent span, start, end, peak RSS
at start and end); the hot permutation moves are counted only, because a
span per move would cost more than the move.  Nothing under ``src/``
changes: the wrappers live in this file and are installed by
``traced_cli.py`` in each traced command's own process.

``command_metrics`` turns one command's spans and counters into the
per-layer metrics; ``self_times`` is the self-time arithmetic: a span's
duration minus the part of it that its child spans cover.
"""
from __future__ import annotations

import functools
import resource
import time
from typing import Any, Callable

# Layer name -> (module, attribute) pairs that get a span: the public
# functions the CLI calls on the benchmark's paths.  ``GrayCode._codewords``
# is the cached property that materialises codewords.  Smaller helpers are
# not spanned; their time lands in the self time of their caller.
SPANNED: dict[str, tuple[tuple[str, str], ...]] = {
    "perm": (("perm", "apply_sequence"),),
    "rmgc": (("rmgc", "build_rmgc"), ("rmgc", "rotate_after")),
    "blocks": (("blocks", "rmgc_block"), ("blocks", "ksnake_block")),
    "constructions": (
        ("constructions", "snake_from_rmgc"),
        ("constructions", "snake_from_ksnake"),
        ("constructions", "GrayCode._codewords"),
    ),
    "pairdist": (
        ("_pairdist", "find_duplicate"),
        ("_pairdist", "min_pairwise_linf"),
        ("_pairdist", "min_pairwise_kendall"),
        ("_pairdist", "sampled_min_distance"),
    ),
    "verify": (("verify", "verify_code"), ("verify", "exhaustive_max_snake")),
    "ksnake": (("ksnake", "search_ksnake"), ("ksnake", "verify_snake")),
    "documents": (
        ("documents", "format_document"),
        ("documents", "parse_document"),
        ("documents", "format_rmgc_document"),
        ("documents", "parse_rmgc_document"),
    ),
    "cli": (("cli", "main"),),
}

# (module, function) -> counter it increments; counted, never spanned.
COUNTED: dict[tuple[str, str], str] = {
    ("perm", "apply_transition"): "perm.moves",
    ("perm", "linf_distance"): "perm.distance_calls",
    ("perm", "kendall_distance"): "perm.distance_calls",
}

LAYERS = tuple(SPANNED)

_S = ("s", "lower")
# Every per-layer metric a traced run reports: (name, unit, better).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("pairdist.certificate_s", *_S),
    ("pairdist.pairs_per_s", "1/s", "higher"),
    ("pairdist.pairs_certified", "count", "higher"),
    ("pairdist.pairs_uncertified", "count", "lower"),
    ("pairdist.duplicates_s", *_S),
    ("pairdist.rss_growth_mb", "MB", "lower"),
    ("pairdist.self_s", *_S),
    ("constructions.assemble_s", *_S),
    ("constructions.materialise_s", *_S),
    ("constructions.codewords", "count", "higher"),
    ("constructions.rss_growth_mb", "MB", "lower"),
    ("constructions.self_s", *_S),
    ("blocks.build_s", *_S),
    ("blocks.blocks_built", "count", "lower"),
    ("blocks.self_s", *_S),
    ("rmgc.build_s", *_S),
    ("rmgc.transitions_built", "count", "lower"),
    ("rmgc.self_s", *_S),
    ("documents.format_s", *_S),
    ("documents.parse_s", *_S),
    ("documents.bytes_out", "bytes", "lower"),
    ("documents.bytes_in", "bytes", "lower"),
    ("documents.rss_growth_mb", "MB", "lower"),
    ("documents.self_s", *_S),
    ("perm.moves", "count", "lower"),
    ("perm.apply_sequence_s", *_S),
    ("perm.distance_calls", "count", "lower"),
    ("perm.distance_calls_per_move", "ratio", "lower"),
    ("ksnake.search_s", *_S),
    ("ksnake.search_nodes", "count", "lower"),
    ("ksnake.nodes_per_s", "1/s", "higher"),
    ("ksnake.verify_s", *_S),
    ("ksnake.self_s", *_S),
    ("verify.oracle_s", *_S),
    ("verify.self_s", *_S),
    ("verify.verdicts", "count", "higher"),
    ("verify.inexact_verdicts", "count", "lower"),
    ("cli.self_s", *_S),
    ("cli.import_s", *_S),
    ("trace.overhead_s", *_S),
)
# Metrics derived from totals rather than summed over commands.
DERIVED = ("pairdist.pairs_per_s", "ksnake.nodes_per_s", "perm.distance_calls_per_move",
           "trace.overhead_s")

# Span fields, in the order a span is stored.
ID, PARENT, LAYER, NAME, T0, T1, RSS0, RSS1 = range(8)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.problems: list[str] = []
        self._stack: list[int] = []
        self._rmgc_built: set[int] = set()

    def count(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def spanned(self, layer: str, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        on_result = self._result_hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1] if stack else -1, layer, name,
                   time.perf_counter(), 0.0, _maxrss_kb(), 0]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[T1] = time.perf_counter()
                rec[RSS1] = _maxrss_kb()
                stack.pop()
            if on_result is not None:
                try:
                    on_result(args, kwargs, result)
                except Exception as exc:  # the traced command must run on
                    self.problems.append(f"{name} counter: {exc!r}")
            return result

        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        counters = self.counters
        counters.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _result_hook(self, name: str) -> Callable | None:
        """Counters read off a call's arguments and result, by function."""
        count = self.count

        def moves(args, kwargs, result):
            count("perm.moves", len(_arg(args, kwargs, 1, "transitions")))

        def rmgc_built(args, kwargs, result):
            # build_rmgc is memoised: count each n once per process.
            if result.n not in self._rmgc_built:
                self._rmgc_built.add(result.n)
                count("rmgc.transitions_built", len(result.seq))

        def block(args, kwargs, result):
            count("blocks.blocks_built")

        def codewords(args, kwargs, result):
            count("constructions.codewords", len(result))

        def certificate(args, kwargs, result):
            m = len(_arg(args, kwargs, 0, "codewords"))
            count("pairdist.pairs_certified", result[2])
            count("pairdist.pairs_required", m * (m - 1) // 2)

        def verdict(args, kwargs, result):
            count("verify.verdicts")
            count("verify.inexact_verdicts", int(result.mode == "sampled"))

        def search(args, kwargs, result):
            stats = kwargs.get("stats")
            if stats is not None:
                count("ksnake.search_nodes", stats.get("nodes", 0))

        def formatted(args, kwargs, result):
            count("documents.bytes_out", len(result.encode("utf-8")))

        def parsed(args, kwargs, result):
            count("documents.bytes_in", len(_arg(args, kwargs, 0, "text").encode("utf-8")))

        return {
            "apply_sequence": moves,
            "build_rmgc": rmgc_built,
            "rmgc_block": block,
            "ksnake_block": block,
            "GrayCode._codewords": codewords,
            "min_pairwise_linf": certificate,
            "min_pairwise_kendall": certificate,
            "sampled_min_distance": certificate,
            "verify_code": verdict,
            "search_ksnake": search,
            "format_document": formatted,
            "format_rmgc_document": formatted,
            "parse_document": parsed,
            "parse_rmgc_document": parsed,
        }.get(name)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters), "problems": self.problems}


def _rebind(modules: dict[str, Any], original: Any, replacement: Any) -> None:
    """Point every module attribute that holds ``original`` at ``replacement``."""
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the permsnake functions listed in SPANNED and COUNTED.

    Expects ``permsnake.cli`` to be imported already, which imports every
    layer.  A listed function that no longer exists is left out and named
    in ``tracer.problems``, so the run still completes and the report says
    what went untraced.
    """
    import importlib
    import sys

    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "permsnake" or name.startswith("permsnake."))
    }
    # perm's own loops (apply_sequence) keep the bare counted functions:
    # their moves are counted per call from the length of the sequence.
    callers = {k: v for k, v in modules.items() if k != "permsnake.perm"}
    wanted = [(layer, mod, attr) for layer, entries in SPANNED.items() for mod, attr in entries]
    wanted += [(None, mod, attr) for mod, attr in COUNTED]
    for layer, mod_name, attr in wanted:
        module = importlib.import_module(f"permsnake.{mod_name}")
        cls_name, _, prop_name = attr.rpartition(".")
        if cls_name:
            cls = getattr(module, cls_name, None)
            prop = vars(cls).get(prop_name) if cls is not None else None
            if not isinstance(prop, functools.cached_property):
                tracer.problems.append(f"untraced: permsnake.{mod_name}.{attr}")
                continue
            traced = functools.cached_property(tracer.spanned(layer, attr, prop.func))
            traced.__set_name__(cls, prop_name)
            setattr(cls, prop_name, traced)
            continue
        original = getattr(module, attr, None)
        if original is None:
            tracer.problems.append(f"untraced: permsnake.{mod_name}.{attr}")
        elif layer is None:
            _rebind(callers, original, tracer.counted(COUNTED[mod_name, attr], original))
        else:
            _rebind(modules, original, tracer.spanned(layer, attr, original))


# ---------------------------------------------------------------- analysis


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the union of its children.

    Children are clipped to the parent's interval, and overlapping
    children are merged, so the result is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[T0], s[T1]))
    out = []
    for s in spans:
        t0, t1 = s[T0], s[T1]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s[ID], ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, (t1 - t0) - covered))
    return out


def _outermost(spans: list[list], member: Callable[[list], bool]) -> list[list]:
    """Member spans that have no member ancestor (avoids double counting)."""
    by_id = {s[ID]: s for s in spans}
    out = []
    for s in spans:
        if not member(s):
            continue
        p = s[PARENT]
        while p >= 0 and not member(by_id[p]):
            p = by_id[p][PARENT]
        if p < 0:
            out.append(s)
    return out


def _inclusive(spans: list[list], names: set[str]) -> float:
    return sum(s[T1] - s[T0] for s in _outermost(spans, lambda s: s[NAME] in names))


def _rss_growth_mb(spans: list[list], layer: str) -> float:
    top = _outermost(spans, lambda s: s[LAYER] == layer)
    return sum(s[RSS1] - s[RSS0] for s in top) / 1024.0


def command_metrics(trace: dict) -> dict[str, float]:
    """Additive per-layer metrics of one traced command.

    Ratios (pairs_per_s, nodes_per_s, distance_calls_per_move) are not
    additive; ``finish_metrics`` derives them from summed totals.
    """
    spans = trace["spans"]
    counters = trace["counters"]
    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    assemble = 0.0
    for s, own in zip(spans, selfs):
        layer_self[s[LAYER]] += own
        if s[NAME] in ("snake_from_rmgc", "snake_from_ksnake"):
            assemble += own
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS if layer != "perm"}
    m.update({
        "pairdist.certificate_s": _inclusive(
            spans, {"min_pairwise_linf", "min_pairwise_kendall", "sampled_min_distance"}
        ),
        "pairdist.duplicates_s": _inclusive(spans, {"find_duplicate"}),
        "pairdist.rss_growth_mb": _rss_growth_mb(spans, "pairdist"),
        "constructions.assemble_s": assemble,
        "constructions.materialise_s": _inclusive(spans, {"GrayCode._codewords"}),
        "constructions.rss_growth_mb": _rss_growth_mb(spans, "constructions"),
        "blocks.build_s": _inclusive(spans, {"rmgc_block", "ksnake_block"}),
        "rmgc.build_s": _inclusive(spans, {"build_rmgc"}),
        "documents.format_s": _inclusive(spans, {"format_document", "format_rmgc_document"}),
        "documents.parse_s": _inclusive(spans, {"parse_document", "parse_rmgc_document"}),
        "documents.rss_growth_mb": _rss_growth_mb(spans, "documents"),
        "perm.apply_sequence_s": _inclusive(spans, {"apply_sequence"}),
        "ksnake.search_s": _inclusive(spans, {"search_ksnake"}),
        "ksnake.verify_s": _inclusive(spans, {"verify_snake"}),
        "verify.oracle_s": _inclusive(spans, {"exhaustive_max_snake"}),
        "cli.import_s": trace.get("import_s", 0.0),
    })
    for key in (
        "pairdist.pairs_certified",
        "constructions.codewords",
        "blocks.blocks_built",
        "rmgc.transitions_built",
        "documents.bytes_out",
        "documents.bytes_in",
        "perm.moves",
        "perm.distance_calls",
        "ksnake.search_nodes",
        "verify.verdicts",
        "verify.inexact_verdicts",
    ):
        m[key] = counters.get(key, 0)
    m["pairdist.pairs_uncertified"] = max(
        0, counters.get("pairdist.pairs_required", 0) - m["pairdist.pairs_certified"]
    )
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def finish_metrics(total: dict[str, float]) -> dict[str, float]:
    """Add the ratio metrics to summed per-command metrics."""
    out = dict(total)
    out["pairdist.pairs_per_s"] = _ratio(
        total["pairdist.pairs_certified"], total["pairdist.certificate_s"]
    )
    out["ksnake.nodes_per_s"] = _ratio(total["ksnake.search_nodes"], total["ksnake.search_s"])
    out["perm.distance_calls_per_move"] = _ratio(total["perm.distance_calls"], total["perm.moves"])
    return out


def sum_metrics(per_command: list[dict[str, float]]) -> dict[str, float]:
    total = {name: 0 for name, _, _ in PER_LAYER if name not in DERIVED}
    for m in per_command:
        for k, v in m.items():
            total[k] = total.get(k, 0) + v
    return total
