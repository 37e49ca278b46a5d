"""Tests of the benchmark itself: checks, planted defect, self times, seeds.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Command, check_output  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(SRC))
THM1_N9_OUT = (
    "size=3360\n"
    "sizes row (n,m0,m1,m2,bound): 9,1200,3360,6840,22680\n"
    "valid=true size=3360 min_d=2 metric=linf bound=22680 mode=exhaustive\n"
)
THM1_N9_HEADER = "snake n=9 size=3360 metric=linf cyclic=true method=thm1"


def _construct_thm1_n9() -> Command:
    return workloads.WORKLOADS["certify"].prepare(0).commands[0]


def _cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "permsnake.cli", *args],
        cwd=cwd, env=ENV, capture_output=True, text=True, timeout=120,
    )


# ------------------------------------------------------------ output checks


def test_checker_accepts_the_right_output():
    checked = check_output(_construct_thm1_n9(), 0, THM1_N9_OUT, THM1_N9_HEADER)
    assert checked.problems == []
    assert (checked.verdicts, checked.inexact_verdicts) == (1, 0)


def test_checker_rejects_a_wrong_size():
    wrong = THM1_N9_OUT.replace("3360", "3361")
    assert check_output(_construct_thm1_n9(), 0, wrong, THM1_N9_HEADER).problems
    header = THM1_N9_HEADER.replace("3360", "3361")
    assert check_output(_construct_thm1_n9(), 0, THM1_N9_OUT, header).problems


def test_checker_rejects_a_wrong_exit_code():
    problems = check_output(_construct_thm1_n9(), 1, THM1_N9_OUT, THM1_N9_HEADER).problems
    assert problems == ["exit code 1, expected 0"]


def test_checker_counts_sampled_verdicts_and_rejects_them_where_exact():
    sampled = THM1_N9_OUT.replace("mode=exhaustive", "mode=sampled")
    checked = check_output(_construct_thm1_n9(), 0, sampled, THM1_N9_HEADER)
    assert checked.inexact_verdicts == 1
    assert checked.problems
    lenient = Command(("verify", "x"), expect=(workloads.VERDICT.pattern,), exact=False)
    assert check_output(lenient, 0, sampled, None).problems == []


def test_workload_expectations_are_consistent():
    for name, w in workloads.WORKLOADS.items():
        prepared = w.prepare(3)
        assert prepared.commands, name
        for cmd in prepared.commands:
            assert cmd.out_file is None or cmd.out_file in cmd.args
            assert cmd.out_header is None or cmd.out_file is not None


# ---------------------------------------------------------- planted defect


def test_plant_duplicate_repeats_a_codeword():
    from permsnake._pairdist import find_duplicate
    from permsnake.documents import parse_document

    doc = workloads.thm1_document(6)
    planted, pair = workloads.plant_duplicate(doc, seed=11)
    code = parse_document(planted).code
    assert code.size == parse_document(doc).code.size + 2
    assert find_duplicate(code.codewords()) == pair


def test_planted_defect_document_is_rejected(tmp_path):
    doc = workloads.thm1_document(6)
    planted, pair = workloads.plant_duplicate(doc, seed=5)
    (tmp_path / "planted.txt").write_text(planted)
    (tmp_path / "clean.txt").write_text(doc)
    size = int(planted.split()[2].split("=")[1])
    bound = 90  # 6! / 2^3

    expected = workloads.planted_command("planted.txt", size, bound, pair)
    got = _cli(["verify", "planted.txt"], tmp_path)
    assert got.returncode == 1
    assert check_output(expected, got.returncode, got.stdout, None).problems == []

    # The same expectation fails on the clean document: the check has teeth.
    clean = _cli(["verify", "clean.txt"], tmp_path)
    assert clean.returncode == 0
    assert check_output(expected, clean.returncode, clean.stdout, None).problems


# ----------------------------------------------------------- self times


def _span(sid, parent, layer, name, t0, t1, rss0=0, rss1=0):
    return [sid, parent, layer, name, t0, t1, rss0, rss1]


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span(0, -1, "cli", "main", 0.0, 10.0),
        _span(1, 0, "constructions", "snake_from_rmgc", 1.0, 4.0),
        _span(2, 1, "blocks", "rmgc_block", 2.0, 3.0),
        _span(3, 0, "verify", "verify_code", 3.5, 6.0),  # overlaps span 1
        _span(4, 0, "documents", "format_document", 9.0, 12.0),  # overruns its parent
    ]
    # main: 10 minus the union [1, 6] and [9, 10] of its children.
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_command_metrics_count_nested_spans_once():
    spans = [
        _span(0, -1, "cli", "main", 0.0, 10.0),
        _span(1, 0, "rmgc", "build_rmgc", 1.0, 5.0, 100, 300),
        _span(2, 1, "rmgc", "build_rmgc", 2.0, 4.0, 100, 200),  # recursion
        _span(3, 0, "constructions", "snake_from_rmgc", 5.0, 9.0),
        _span(4, 3, "perm", "apply_sequence", 6.0, 8.0),
    ]
    m = tracing.command_metrics({"spans": spans, "counters": {"perm.moves": 7}, "import_s": 0.5})
    assert m["rmgc.build_s"] == pytest.approx(4.0)
    assert m["rmgc.self_s"] == pytest.approx(4.0)
    assert m["constructions.assemble_s"] == pytest.approx(2.0)
    assert m["perm.apply_sequence_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["cli.import_s"] == 0.5
    assert m["perm.moves"] == 7
    total = tracing.finish_metrics(tracing.sum_metrics([m, m]))
    assert total["cli.self_s"] == pytest.approx(4.0)
    assert total["perm.distance_calls_per_move"] == 0.0


def test_traced_cli_matches_the_plain_cli(tmp_path):
    args = ["construct", "thm1", "--n", "6"]
    plain = _cli(args, tmp_path)
    traced = subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), str(tmp_path / "t.json"), *args],
        cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert (traced.returncode, traced.stdout, traced.stderr) == (
        plain.returncode, plain.stdout, plain.stderr,
    )
    trace = json.loads((tmp_path / "t.json").read_text())
    m = tracing.command_metrics(trace)
    assert m["constructions.codewords"] == 54  # 3! * (3 + 3!)
    assert m["blocks.blocks_built"] == 6  # one block per step of the 3-RMGC
    assert m["verify.verdicts"] == 1
    assert m["pairdist.pairs_certified"] == 54 * 53 // 2
    assert m["cli.self_s"] > 0
    roots = [s for s in trace["spans"] if s[tracing.PARENT] < 0]
    assert [s[tracing.NAME] for s in roots] == ["main"]


def test_tracer_never_breaks_the_traced_program():
    tracer = tracing.Tracer()
    # verify_code's counter hook expects a report with a mode; give it none.
    wrapped = tracer.spanned("verify", "verify_code", lambda code: "not a report")
    assert wrapped(None) == "not a report"
    assert len(tracer.spans) == 1 and tracer.problems

    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tracing, permsnake.cli; "
        "tracing.SPANNED['perm'] += (('perm', 'no_such_function'),); "
        "t = tracing.Tracer(); tracing.install(t); print(t.problems)"
    )
    got = subprocess.run([sys.executable, "-c", script, str(BENCH)], env=ENV,
                         capture_output=True, text=True, timeout=120)
    assert got.returncode == 0
    assert "untraced: permsnake.perm.no_such_function" in got.stdout


# --------------------------------------------------------------- seeds


@pytest.mark.parametrize("name", ["certify", "rmgc"])
def test_same_seed_gives_byte_identical_inputs(name):
    w = workloads.WORKLOADS[name]
    a, b, c = w.prepare(7), w.prepare(7), w.prepare(8)
    assert a.files == b.files
    assert a.commands == b.commands
    assert a.files != c.files


# -------------------------------------------------------- benchmark file


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "peak_rss_mb", "setup_s"}


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert got.returncode != 0
    assert '"correct"' not in got.stdout
