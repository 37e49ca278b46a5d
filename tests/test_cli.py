import contextlib
import decimal
import errno
import hashlib
import io
import math
import mmap
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsnake import cli, verify
from permsnake.cli import main
from permsnake.constructions import snake_from_rmgc
from permsnake.documents import (
    CodeDocument,
    format_document,
    format_rmgc_document,
    parse_document,
)
from permsnake.ksnake import embedded_a5_snake, format_ksnake
from permsnake.perm import METRIC_LINF, GrayCode, identity
from permsnake.rmgc import build_rmgc
from permsnake.verify import verify_code

from golden_rows import FIG1_ROWS, FIG2_ROWS, FIG4_START


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_construct_thm1(tmp_path, capsys):
    out = tmp_path / "snake.txt"
    rc, stdout, _ = run(capsys, "construct", "thm1", "--n", "6", "--out", str(out))
    assert rc == 0
    assert "size=54" in stdout
    assert "6,30,54,—,90" in stdout
    doc = parse_document(out.read_text(encoding="utf-8"))
    assert doc.method == "thm1" and doc.code.size == 54


def test_construct_thm2_embedded(tmp_path, capsys):
    out = tmp_path / "snake7.txt"
    rc, stdout, _ = run(
        capsys, "construct", "thm2", "--n", "7", "--embedded", "--out", str(out)
    )
    assert rc == 0
    assert "size=342" in stdout
    doc = parse_document(out.read_text(encoding="utf-8"))
    assert doc.code.size == 342
    assert doc.code.start == (2, 1, 3, 5, 7, 4, 6)


def test_construct_thm2_from_file(tmp_path, capsys):
    ks = tmp_path / "embedded.ksnake"
    ks.write_text(format_ksnake(embedded_a5_snake()), encoding="utf-8")
    rc, stdout, _ = run(
        capsys, "construct", "thm2", "--n", "7", "--ksnake", str(ks),
        "--out", str(tmp_path / "s.txt"),
    )
    assert rc == 0
    assert "size=342" in stdout


def test_construct_thm2_needs_a_source(capsys):
    rc, _, stderr = run(capsys, "construct", "thm2", "--n", "7")
    assert rc == 2
    assert "--embedded or --ksnake" in stderr


def test_construct_rmgc_transition_multiset(tmp_path, capsys):
    out = tmp_path / "rmgc.txt"
    rc, stdout, _ = run(capsys, "construct", "rmgc", "--n", "4", "--out", str(out))
    assert rc == 0
    assert "size=24" in stdout
    tokens = out.read_text(encoding="utf-8").split()[3:]
    assert len(tokens) == 24
    assert tokens.count("4") == 18
    assert tokens.count("2") == 4
    assert tokens.count("3") == 2


def test_written_documents_equal_the_formatters(tmp_path, capsys):
    """A document written chunk by chunk is the text format_* joins."""
    out = tmp_path / "rmgc8.txt"
    assert run(capsys, "construct", "rmgc", "--n", "8", "--out", str(out))[0] == 0
    assert out.read_text(encoding="utf-8") == format_rmgc_document(build_rmgc(8))
    rc, stdout, _ = run(capsys, "construct", "rmgc", "--n", "8")
    assert rc == 0 and stdout == format_rmgc_document(build_rmgc(8))

    out = tmp_path / "thm1_9.txt"
    rc, _, _ = run(capsys, "construct", "thm1", "--n", "9", "--codewords", "--out", str(out))
    assert rc == 0
    expected = format_document(CodeDocument(snake_from_rmgc(9), "thm1"), True)
    assert out.read_text(encoding="utf-8") == expected

    ks, out = tmp_path / "a5.ksnake", tmp_path / "a5_out.ksnake"
    ks.write_text(format_ksnake(embedded_a5_snake()), encoding="utf-8")
    assert run(capsys, "import-ksnake", str(ks), "--out", str(out))[0] == 0
    assert out.read_text(encoding="utf-8") == format_ksnake(embedded_a5_snake())


# Runs its arguments as one child and prints the child's peak RSS in KB.
# A child forked from pytest itself would report at least pytest's RSS.
LAUNCHER = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux")
def test_construct_rmgc_10_stays_small(tmp_path):
    """3,628,800 pushes of one byte each, written one chunk at a time."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = tmp_path / "rmgc10.txt"
    cmd = [sys.executable, "-m", "permsnake.cli", "construct", "rmgc", "--n", "10"]
    got = subprocess.run(
        [sys.executable, "-c", LAUNCHER, *cmd, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert int(got.stdout) / 1024 <= 60
    with open(out, encoding="utf-8") as fh:
        assert fh.readline() == "rmgc n=10 len=3628800\n"


# Runs main on its arguments as the console script does, then says on
# stderr whether numpy's core was loaded by the time it returned.
PROBE = """
import sys
from permsnake.cli import main
try:
    code = main(sys.argv[1:])
finally:
    sys.stdout.flush()
    print(f"numpy._core loaded: {'numpy._core' in sys.modules}", file=sys.stderr)
raise SystemExit(code)
"""


def probe(*argv):
    """(exit code, stdout, stderr, whether numpy loaded) of one fresh permsnake process."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    got = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    *err, flag = got.stderr.splitlines(keepends=True)
    assert flag.startswith("numpy._core loaded: "), got.stderr
    return got.returncode, got.stdout, "".join(err), flag.strip().endswith("True")


@pytest.mark.parametrize(
    "argv",
    [
        ("sizes", "4", "5"),
        ("search", "ksnake", "--n", "5", "--target", "58", "--budget", "50000"),
        ("construct", "thm1", "--n", "15"),
        ("construct", "rmgc", "--n", "10", "--out", "OUT"),
        ("search", "max", "--n", "5", "--budget", "200000"),
        ("search", "max", "--n", "4", "--metric", "kendall"),
        ("search", "ksnake", "--n", "5", "--target", "57", "--out", "OUT"),
    ],
    ids=[
        "sizes", "search-ksnake-not-found", "construct-thm1-n15-exit-2", "construct-rmgc-n10",
        "search-max-n5", "search-max-n4-kendall", "search-ksnake-found",
    ],
)
def test_commands_with_no_array_work_never_load_numpy(tmp_path, capsys, argv):
    """Above n = 9 construct rmgc checks and writes its pushes as bytes, with no array;
    the search oracle's masks and the codes it and search ksnake find, over at most five
    symbols, are certified in pure Python."""
    argv = [str(tmp_path / "out.txt") if a == "OUT" else a for a in argv]
    rc, stdout, stderr, loaded = probe(*argv)
    assert (rc, stdout, stderr) == run(capsys, *argv)
    assert not loaded


def test_help_never_loads_numpy():
    rc, stdout, stderr, loaded = probe("--help")
    assert (rc, stderr, loaded) == (0, "", False)
    assert stdout.startswith("usage: permsnake")


def test_verify_loads_numpy_and_gives_the_in_process_verdict(tmp_path, capsys):
    doc = tmp_path / "thm1_n7.txt"
    assert run(capsys, "construct", "thm1", "--n", "7", "--out", str(doc))[0] == 0
    rc, stdout, stderr, loaded = probe("verify", str(doc))
    assert (rc, stdout, stderr) == run(capsys, "verify", str(doc))
    assert "valid=true size=" in stdout and loaded


def test_construct_blocks_match_goldens(tmp_path, capsys):
    for variant, rows in ((1, FIG1_ROWS), (2, FIG2_ROWS)):
        out = tmp_path / f"block{variant}.txt"
        rc, stdout, _ = run(
            capsys, "construct", "lemma3", "--n", "6",
            "--variant", str(variant), "--out", str(out),
        )
        assert rc == 0 and "size=9" in stdout
        doc = parse_document(out.read_text(encoding="utf-8"))
        assert doc.code.codewords() == rows

    out = tmp_path / "block57.txt"
    rc, stdout, _ = run(
        capsys, "construct", "lemma7", "--n", "7", "--embedded", "--out", str(out)
    )
    assert rc == 0 and "size=57" in stdout
    doc = parse_document(out.read_text(encoding="utf-8"))
    assert doc.code.size == 57
    assert doc.code.start == FIG4_START


def test_construct_precondition_failures(capsys):
    rc, _, stderr = run(capsys, "construct", "thm1", "--n", "5")
    assert rc == 2 and "n >= 6" in stderr
    rc, _, stderr = run(capsys, "construct", "thm2", "--n", "6", "--embedded")
    assert rc == 2 and "4k" in stderr


@pytest.mark.parametrize("n", [-3, -1, 0, 1, 2, 3, 4, 5])
def test_construct_lemma3_below_n6_names_the_precondition(capsys, n):
    rc, _, stderr = run(capsys, "construct", "lemma3", "--n", str(n))
    assert rc == 2 and "n >= 6" in stderr and stderr.count("\n") == 1
    # The message names the n given, not a start of another length.
    assert stderr == f"error: the RMGC block needs n >= 6, got {n}\n"


def test_verify_documents(tmp_path, capsys):
    out = tmp_path / "snake.txt"
    run(capsys, "construct", "thm1", "--n", "6", "--out", str(out))
    rc, stdout, _ = run(capsys, "verify", str(out))
    assert rc == 0
    assert "valid=true size=54" in stdout

    # flip one transition -> invalid, exit 1
    lines = out.read_text(encoding="utf-8").splitlines()
    body = lines[2].split()
    body[0] = "4" if body[0] != "4" else "5"
    lines[2] = " ".join(body)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc, stdout, _ = run(capsys, "verify", str(bad))
    assert rc == 1
    assert "valid=false" in stdout

    garbage = tmp_path / "garbage.txt"
    garbage.write_text("not a document\n", encoding="utf-8")
    rc, _, stderr = run(capsys, "verify", str(garbage))
    assert rc == 2

    rc, _, stderr = run(capsys, "verify", str(tmp_path / "missing.txt"))
    assert rc == 2


def test_verify_300_symbol_document(tmp_path, capsys):
    # Values past 255 and differences taken as signed: three rotations of
    # 1..300, whose closest pair (the first and the last) is at 297.
    doc = tmp_path / "n300.txt"
    doc.write_text(
        "snake n=300 size=4 metric=linf cyclic=false method=test\n"
        + " ".join(map(str, range(1, 301))) + "\n300 300 300\n",
        encoding="utf-8",
    )
    bound = math.factorial(300) // 2**150
    rc, stdout, _ = run(capsys, "verify", str(doc))
    assert rc == 0
    assert stdout == (
        "size:         4\n"
        "distinct:     True\n"
        "cyclic:       n/a\n"
        "min distance: 297 (linf)\n"
        f"size bound:   {bound}\n"
        "mode:         exhaustive (6 pairs)\n"
        "verdict:      VALID\n"
        f"valid=true size=4 min_d=297 metric=linf bound={bound} mode=exhaustive\n"
    )


def test_verify_malformed_documents_exit_2_with_one_line(tmp_path, capsys):
    docs = {
        "empty cyclic": (
            "snake n=3 size=0 metric=linf cyclic=true method=x\n1 2 3\ncodewords:\n",
            "error: a cyclic snake needs size >= 1, got size=0\n",
        ),
        "empty noncyclic": (
            "snake n=3 size=0 metric=linf cyclic=false method=x\n1 2 3\n",
            "error: a noncyclic snake needs size >= 1, got size=0\n",
        ),
        "out of range": (
            "snake n=3 size=2 metric=linf cyclic=true method=x\n1 2 3\n9 2\n",
            "error: transition index 9 outside 2..3\n",
        ),
    }
    for name, (text, error) in docs.items():
        path = tmp_path / "doc.txt"
        path.write_text(text, encoding="utf-8")
        assert run(capsys, "verify", str(path)) == (2, "", error), name


def test_verify_exits_2_with_one_line_when_the_rank_window_is_refused(tmp_path, capsys, monkeypatch):
    # A host that cannot map the window (778 MB of address space at n=14)
    # refuses the map with ENOMEM.
    doc = tmp_path / "thm1_n7.txt"
    assert run(capsys, "construct", "thm1", "--n", "7", "--out", str(doc))[0] == 0

    def refuse(*args, **kwargs):
        raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

    monkeypatch.setattr(mmap, "mmap", refuse)
    assert run(capsys, "verify", str(doc)) == (2, "", "error: [Errno 12] Cannot allocate memory\n")


def test_malformed_ksnake_files_exit_2_with_one_line(tmp_path, capsys):
    docs = {
        "size=0": "ksnake n=3 size=0\n1 2 3\n",
        "size=0 with a transition": "ksnake n=3 size=0\n1 2 3\n3\n",
        "no transition line": "ksnake n=3 size=3\n1 2 3\n",
        "count mismatch": "ksnake n=3 size=4\n1 2 3\n3 3 3\n",
        "extra header field": "ksnake n=3 size=3 x=1\n1 2 3\n3 3 3\n",
        "codewords line": "ksnake n=3 size=3\n1 2 3\n3 3 3\ncodewords:\n1 2 3\n",
    }
    for name, text in docs.items():
        path = tmp_path / "bad.ksnake"
        path.write_text(text, encoding="utf-8")
        for command in ("verify", "import-ksnake"):
            rc, stdout, stderr = run(capsys, command, str(path))
            assert rc == 2, (name, command)
            assert stdout == "" and len(stderr.splitlines()) == 1, (name, command)
            assert stderr.startswith("error: ") and "Traceback" not in stderr, (name, command)


def test_sizes_range_is_checked_before_any_output(capsys):
    for argv, named in [
        (("3",), "n=3"),
        (("5000",), "n=5000"),
        (("4", "100000"), "n=100000"),
        (("1200", "1200", "--csv"), "n=1200"),
    ]:
        t0 = time.perf_counter()
        rc, stdout, stderr = run(capsys, "sizes", *argv)
        assert time.perf_counter() - t0 < 0.2, argv
        assert rc == 2 and stdout == "" and len(stderr.splitlines()) == 1, argv
        assert named in stderr and "4..100" in stderr, argv


def test_rmgc_n_is_bounded_before_any_factorial(tmp_path, capsys):
    # 300000! has over a million digits; computing it took seconds.
    docs = {"len=1": "rmgc n=300000 len=1\n2\n", "len=2": "rmgc n=300000 len=2\n2 2\n"}
    runs = {}
    for name, text in docs.items():
        path = tmp_path / "big.rmgc"
        path.write_text(text, encoding="utf-8")
        runs[name] = ("verify", str(path)), "n=300000"
    runs["construct"] = ("construct", "rmgc", "--n", "5000"), "n=5000"
    for name, (argv, named) in runs.items():
        t0 = time.perf_counter()
        rc, stdout, stderr = run(capsys, *argv)
        assert time.perf_counter() - t0 < 0.5, name
        assert rc == 2 and stdout == "" and len(stderr.splitlines()) == 1, name
        assert named in stderr and "..10" in stderr, name


def test_verify_ksnake_and_rmgc_files(tmp_path, capsys):
    ks = tmp_path / "snake.ksnake"
    ks.write_text(format_ksnake(embedded_a5_snake()), encoding="utf-8")
    rc, stdout, _ = run(capsys, "verify", str(ks))
    assert rc == 0
    assert "metric=kendall" in stdout

    out = tmp_path / "rmgc.txt"
    run(capsys, "construct", "rmgc", "--n", "4", "--out", str(out))
    rc, stdout, _ = run(capsys, "verify", str(out))
    assert rc == 0
    assert "complete=true" in stdout


@pytest.mark.parametrize(
    "body, message",
    [
        ("n=3 len=6\n3 3 0 3 3 2", "transition index 0 outside 2..3"),
        ("n=3 len=6\n3 1 2 3 3 2", "transition index 1 outside 2..3"),
        ("n=3 len=6\n3 3 -2 3 3 2", "transition index -2 outside 2..3"),
        ("n=3 len=6\n3 3 300 3 3 2", "transition index 300 outside 2..3"),
        ("n=3 len=6\nt3 t3 t9 t3 t3 t2", "transition index 9 outside 2..3"),
        ("n=1 len=1\n2", "transition index 2 outside 2..1"),
        # The length is checked before the pushes.
        ("n=3 len=5\n3 3 0 3 3", "RMGC for n=3 must have 6 transitions, got 5"),
    ],
)
def test_verify_names_the_first_push_outside_the_range(tmp_path, capsys, body, message):
    path = tmp_path / "bad.rmgc"
    path.write_text(f"rmgc {body}\n", encoding="utf-8")
    assert run(capsys, "verify", str(path)) == (2, "", f"error: {message}\n")


_HEAD3 = "snake n=3 size=3 metric=linf cyclic=true method=x\n1 2 3\n"
_START300 = " ".join(map(str, range(1, 301)))


@pytest.mark.parametrize(
    "text, message",
    [
        (_HEAD3 + "3 4 3\n", "transition index 4 outside 2..3"),
        (_HEAD3 + "3 3 0\n", "transition index 0 outside 2..3"),
        (_HEAD3 + "1 3 2\n", "transition index 1 outside 2..3"),
        (_HEAD3 + "3 -2 2\n", "transition index -2 outside 2..3"),
        (_HEAD3 + "t3 t9 t2\n", "transition index 9 outside 2..3"),
        (_HEAD3 + "3 3 256\n", "transition index 256 outside 2..3"),
        (_HEAD3 + "3 100000000000000000000 2\n", "transition index 100000000000000000000 outside 2..3"),
        (_HEAD3 + "3 -2 10000000000000000000\n", "transition index -2 outside 2..3"),
        (f"snake n=300 size=2 metric=linf cyclic=true method=x\n{_START300}\n300 301\n",
         "transition index 301 outside 2..300"),
        ("ksnake n=3 size=3\n1 2 3\n3 1 3\n", "transition index 1 outside 2..3"),
        ("ksnake n=3 size=3\n1 2 3\nt3 t3 t4\n", "transition index 4 outside 2..3"),
        ("ksnake n=5 size=2\n1 2 3 4 5\n5 123456789012345678901\n",
         "transition index 123456789012345678901 outside 2..5"),
        ("ksnake n=1 size=1\n1\n2\n", "transition index 2 outside 2..1"),
        # A malformed listing line is named before a bad push.
        (_HEAD3 + "3 4 3\ncodewords:\n1 2 3\n1 x 2\n", "bad permutation text '1 x 2'"),
    ],
)
def test_verify_and_import_name_the_first_bad_push_of_a_snake(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    commands = ("verify", "import-ksnake") if text.startswith("ksnake") else ("verify",)
    for command in commands:
        assert run(capsys, command, str(path)) == (2, "", f"error: {message}\n"), command


def verify_one_word(tmp_path, capsys, n):
    """verify of a valid one-word snake document at n: exit code, the bound it prints, stderr."""
    path = tmp_path / "wide.txt"
    code = GrayCode(n, identity(n), (), False, METRIC_LINF)
    path.write_text(format_document(CodeDocument(code, "x")), encoding="utf-8")
    rc, stdout, stderr = run(capsys, "verify", str(path))
    head, tail = "valid=true size=1 min_d=na metric=linf bound=", " mode=exhaustive\n"
    last = stdout.splitlines(keepends=True)[-1]
    assert last.startswith(head) and last.endswith(tail)
    bound = last[len(head) : -len(tail)]
    assert f"size bound:   {bound}\n" in stdout
    return rc, bound, stderr


def test_verify_a_one_word_snake_over_65536_symbols(tmp_path, capsys):
    n = 65536
    code = GrayCode(n, identity(n), (), False, METRIC_LINF)
    assert code._codewords.dtype == np.uint32
    assert verify_code(code).valid
    # The packing bound has 277,330 digits, far past int-to-str's 4,300.
    rc, bound, stderr = verify_one_word(tmp_path, capsys, n)
    assert (rc, stderr, len(bound)) == (0, "", 277_330)
    assert hashlib.sha256(bound.encode()).hexdigest() == (
        "5f5ae2694d5076b9685185773e465b8f4946d1dd894d356cfb069adfee89abfe"
    )


@pytest.mark.parametrize(
    "n, digits, sha256",
    [
        (1700, 4500, "d805d6c45bdd3671dddbb34718b870dcf43a4c3f9a54dcbeddf0a813703bc71f"),
        (2000, 5435, "6d4a8905b417deea1314d712f9cc775b7d6a2807d4aa2eb2afba7d7da9ddc302"),
    ],
)
def test_verify_prints_a_bound_of_more_than_4300_digits(tmp_path, capsys, n, digits, sha256):
    rc, bound, stderr = verify_one_word(tmp_path, capsys, n)
    assert (rc, stderr) == (0, "")
    # The decimal module converts the int without int-to-str's limit.
    assert bound == str(decimal.Decimal(math.factorial(n) // 2 ** (n // 2)))
    assert (len(bound), hashlib.sha256(bound.encode()).hexdigest()) == (digits, sha256)


def test_print_verdict_formats_the_bound_once(monkeypatch, capsys):
    # Formatting the 277,330-digit bound at n = 65,536 takes about a second.
    calls = []
    decimal_text = verify._decimal
    monkeypatch.setattr(verify, "_decimal", lambda x: calls.append(1) or decimal_text(x))
    report = verify_code(GrayCode(1700, identity(1700), (), False, METRIC_LINF))
    assert cli._print_verdict(report) == 0
    out = capsys.readouterr().out
    assert len(calls) == 1
    bound = decimal_text(report.bound)
    assert f"size bound:   {bound}\n" in out and f" bound={bound} mode=exhaustive\n" in out


def test_verify_applies_the_ksnake_coset_rule(tmp_path, capsys):
    # Both pass verify_code; only an even transition leaves the coset.
    docs = {
        "ksnake n=5 size=7\n1 2 3 4 5\n3 3 5 5 4 4 5\n": 5,
        "ksnake n=4 size=4\n1 2 3 4\n4 4 4 4\n": 1,
    }
    path = tmp_path / "odd.ksnake"
    for text, idx in docs.items():
        path.write_text(text, encoding="utf-8")
        for command in ("verify", "import-ksnake"):
            rc, stdout, stderr = run(capsys, command, str(path))
            assert (rc, stdout) == (1, ""), command
            assert stderr == f"invalid: codeword {idx} breaks the uniform parity\n"

    # A report that already fails keeps its listing, parity unchecked.
    path.write_text("ksnake n=4 size=2\n1 2 3 4\n2 2\n", encoding="utf-8")
    rc, stdout, stderr = run(capsys, "verify", str(path))
    assert rc == 1 and stderr == ""
    assert "verdict:      INVALID" in stdout
    assert "valid=false size=2 min_d=1 metric=kendall" in stdout


def test_verify_of_a_linf_snake_relabelled_kendall_is_pinned(tmp_path, capsys):
    """The thm1 n = 8 snake is no Kendall snake: its verdict and first 50
    close pairs, found by looking the near ranks up among every codeword's."""
    doc = tmp_path / "thm1_n8.txt"
    assert run(capsys, "construct", "thm1", "--n", "8", "--out", str(doc))[0] == 0
    doc.write_text(doc.read_text(encoding="utf-8").replace("metric=linf", "metric=kendall", 1), encoding="utf-8")
    rc, stdout, stderr = run(capsys, "verify", str(doc))
    assert (rc, stderr) == (1, "")
    lines = stdout.splitlines()
    assert lines[:8] == [
        "size:         672",
        "distinct:     True",
        "cyclic:       True",
        "min distance: 1 (kendall)",
        "size bound:   20160",
        "mode:         exhaustive (225456 pairs)",
        "verdict:      INVALID",
        "violation:    codewords 0 and 140 at distance 1",
    ]
    assert lines[-1] == "valid=false size=672 min_d=1 metric=kendall bound=20160 mode=exhaustive"
    violations = [line for line in lines if line.startswith("violation:")]
    assert len(violations) == 50
    digest = hashlib.sha256("\n".join(violations).encode()).hexdigest()
    assert digest == "38f9fd149187cab69fcac943a8fec9d35dd038879149f818c0b9f269054fc47d"


def test_sizes_rows(capsys):
    rc, stdout, _ = run(capsys, "sizes", "7", "7", "--csv")
    assert rc == 0 and stdout.strip() == "7,120,216,342,630"
    rc, stdout, _ = run(capsys, "sizes", "4", "4", "--csv")
    assert rc == 0 and stdout.strip() == "4,6,—,—,6"
    rc, stdout, _ = run(capsys, "sizes", "6", "6", "--csv")
    assert rc == 0 and stdout.strip() == "6,30,54,—,90"
    rc, stdout, _ = run(capsys, "sizes", "4", "9")
    assert rc == 0 and len(stdout.strip().splitlines()) == 7
    rc, _, _ = run(capsys, "sizes", "9", "4")
    assert rc == 2


def test_figures_regenerate_and_match(tmp_path, capsys):
    outdir = tmp_path / "figs"
    rc, stdout, _ = run(capsys, "figures", "--out", str(outdir))
    assert rc == 0
    assert all(f"fig{i}: ok" in stdout for i in range(1, 6))
    fig1 = (outdir / "fig1.txt").read_text(encoding="utf-8")
    assert fig1.splitlines()[-1] == "4 2 6 1 3 5"


def test_figures_mismatch_names_the_line(capsys, monkeypatch):
    import permsnake.figures as figmod

    real = figmod.golden_text

    def doctored(name):
        text = real(name)
        if name == "fig2":
            lines = text.splitlines()
            lines[4] = "1 2 3 4 5 6"
            return "\n".join(lines) + "\n"
        return text

    monkeypatch.setattr(figmod, "golden_text", doctored)
    rc, stdout, _ = run(capsys, "figures")
    assert rc == 1
    assert "fig2: line 5 diverges" in stdout
    assert "fig1: ok" in stdout


def test_search_commands(capsys, tmp_path):
    rc, stdout, _ = run(capsys, "search", "max", "--n", "4")
    assert rc == 0 and "max_size=6" in stdout

    rc, stdout, _ = run(capsys, "search", "max", "--n", "4", "--metric", "kendall")
    assert rc == 0 and "max_size=8" in stdout

    out = tmp_path / "found.ksnake"
    rc, stdout, _ = run(
        capsys, "search", "ksnake", "--n", "5", "--target", "57",
        "--budget", "100000", "--out", str(out),
    )
    assert rc == 0 and "found size=57" in stdout
    assert out.exists()

    rc, stdout, _ = run(
        capsys, "search", "ksnake", "--n", "3", "--target", "4"
    )
    assert rc == 0 and "not-found" in stdout and "exhausted=true" in stdout


@pytest.mark.parametrize(
    "options",
    [("--n", "4"), ("--n", "4", "--metric", "kendall", "--noncyclic")],
    ids=["linf-cyclic", "kendall-noncyclic"],
)
def test_search_max_writes_a_document_that_verifies(capsys, tmp_path, options):
    out = tmp_path / "max.txt"
    rc, stdout, _ = run(capsys, "search", "max", *options, "--out", str(out))
    assert rc == 0 and stdout.startswith("max_size=")
    size = stdout.split()[0].split("=")[1]
    rc, stdout, _ = run(capsys, "verify", str(out))
    assert rc == 0 and f"valid=true size={size} " in stdout


def test_search_ksnake_rejects_a_target_the_moves_cannot_reach(capsys):
    # At n = 8, t_3, t_5 and t_7 reach 7!/2 = 2,520 words.
    rc, stdout, stderr = run(
        capsys, "search", "ksnake", "--n", "8", "--target", "2521", "--budget", "100000"
    )
    assert (rc, stdout, stderr) == (0, "not-found target=2521 nodes=0 exhausted=true\n", "")


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (("construct", "thm2", "--n", "3", "--embedded"), None,
         "n=3 is too small for the Kendall-snake construction"),
        (("construct", "thm2", "--n", "7", "--embedded", "--ksnake"), "ksnake n=5 size=57\n",
         "pass either --embedded or --ksnake, not both"),
        (("verify",), "snake n=3 size=2 metric=linf cyclic=true method=x\n",
         "snake document needs a start line"),
    ],
    ids=["thm2-n3", "thm2-both-sources", "verify-header-only"],
)
def test_precondition_errors_exit_2_with_their_message(capsys, tmp_path, argv, text, message):
    if text is not None:
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        argv = (*argv, str(path))
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_search_rejects_bad_bounds_with_one_line(capsys):
    for argv in (
        ("search", "ksnake", "--n", "17", "--budget", "10"),
        ("search", "ksnake", "--n", "5", "--target", "57", "--budget", "-1"),
        ("search", "max", "--n", "4", "--budget", "-1"),
    ):
        rc, stdout, stderr = run(capsys, *argv)
        assert rc == 2 and stdout == "", argv
        assert len(stderr.splitlines()) == 1 and stderr.startswith("error: "), argv


def test_import_ksnake(tmp_path, capsys):
    ks = tmp_path / "snake.ksnake"
    ks.write_text(format_ksnake(embedded_a5_snake()), encoding="utf-8")
    normalised = tmp_path / "norm.ksnake"
    rc, stdout, _ = run(capsys, "import-ksnake", str(ks), "--out", str(normalised))
    assert rc == 0
    assert "valid=true size=57" in stdout
    assert "last_transition=t5" in stdout
    assert normalised.read_text(encoding="utf-8") == format_ksnake(embedded_a5_snake())

    # flip one transition -> named verification failure, exit 1
    text = ks.read_text(encoding="utf-8").splitlines()
    toks = text[2].split()
    toks[2] = "4"
    text[2] = " ".join(toks)
    bad = tmp_path / "bad.ksnake"
    bad.write_text("\n".join(text) + "\n", encoding="utf-8")
    rc, _, stderr = run(capsys, "import-ksnake", str(bad))
    assert rc == 1
    assert "invalid:" in stderr

    empty = tmp_path / "empty.ksnake"
    empty.write_text("", encoding="utf-8")
    rc, _, _ = run(capsys, "import-ksnake", str(empty))
    assert rc == 2


def test_thm1_n11_is_certified_exactly(tmp_path, capsys):
    out = tmp_path / "n11.txt"
    rc, stdout, _ = run(capsys, "construct", "thm1", "--n", "11", "--out", str(out))
    assert rc == 0
    assert "valid=true size=90000 min_d=2 metric=linf bound=1247400 mode=exhaustive" in stdout
    again = tmp_path / "again.txt"
    rc, sampled, _ = run(
        capsys, "construct", "thm1", "--n", "11", "--mode", "sampled", "--out", str(again)
    )
    assert rc == 0 and sampled == stdout
    assert again.read_bytes() == out.read_bytes()

    rc, stdout, _ = run(capsys, "verify", str(out))
    assert rc == 0
    assert "mode:         exhaustive (4049955000 pairs)" in stdout.splitlines()
    rc, sampled, _ = run(capsys, "verify", str(out), "--mode", "sampled")
    assert rc == 0 and sampled == stdout


# Lines assembled from header fields, permutations and transitions, so
# that most draws get past the first checks of some parser.
TOKENS = (
    "snake", "ksnake", "rmgc", "codewords:", "n=0", "n=1", "n=3", "n=5", "n=17",
    "n=-2", "n", "=", "size=0", "size=1", "size=3", "size=57", "len=6", "len=2",
    "metric=linf", "metric=kendall", "metric=x", "cyclic=true", "cyclic=false",
    "method=m", "1 2 3", "3 1 2", "1 2 3 4 5", "2 2", "t3 t2", "3", "9", "-1", "x",
)
docs = st.one_of(
    st.binary(max_size=300),
    st.lists(st.lists(st.sampled_from(TOKENS), max_size=7).map(" ".join), max_size=6)
    .map("\n".join)
    .map(str.encode),
)


@settings(max_examples=300, deadline=None)
@given(docs, st.sampled_from(["verify", "import-ksnake"]))
def test_cli_on_arbitrary_bytes_exits_cleanly(payload, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.txt")
        with open(path, "wb") as fh:
            fh.write(payload)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main([command, path])
    assert rc in (0, 1, 2)
    assert len(stderr.getvalue().splitlines()) <= 1
