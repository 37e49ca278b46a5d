from permsnake.cli import main
from permsnake.documents import parse_document
from permsnake.ksnake import embedded_a5_snake, format_ksnake

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


def test_verify_malformed_documents_exit_2_with_one_line(tmp_path, capsys):
    docs = {
        "empty cyclic": "snake n=3 size=0 metric=linf cyclic=true method=x\n1 2 3\ncodewords:\n",
        "out of range": "snake n=3 size=2 metric=linf cyclic=true method=x\n1 2 3\n9 2\n",
    }
    for name, text in docs.items():
        path = tmp_path / "doc.txt"
        path.write_text(text, encoding="utf-8")
        rc, stdout, stderr = run(capsys, "verify", str(path))
        assert rc == 2, name
        assert stdout == "" and len(stderr.splitlines()) == 1, name
        assert stderr.startswith("error: ") and "Traceback" not in stderr, name


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
