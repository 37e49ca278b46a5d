"""``verify`` reads its file in pieces, and falls back to the text path.

``documents.read_document`` tokenises a document's integer lines from
newline-aligned pieces of the file's bytes.  Whatever the bytes, the
outcome of ``permsnake verify`` (exit code, stdout and stderr) must be
the one the text path gives: the file read as a text file reads, then
parsed line by line.  The oracle below is the same command with the
piece reader refusing every file.  Pieces are cut small here as well, so
that lines and the ``codewords:`` marker fall across piece edges, and a
start line is longer than a piece.
"""
import io

import pytest

from permsnake import _reader, documents
from permsnake.cli import main
from permsnake.constructions import snake_from_rmgc
from permsnake.documents import CodeDocument, format_document, format_rmgc_document
from permsnake.ksnake import embedded_a5_snake, format_ksnake
from permsnake.rmgc import build_rmgc

SNAKE = format_document(CodeDocument(snake_from_rmgc(7), "thm1"), True).encode()
RMGC = format_rmgc_document(build_rmgc(5)).encode()
KSNAKE = format_ksnake(embedded_a5_snake()).encode()


def edit(doc, line, old, new):
    """doc with the first old in line number line replaced by new."""
    lines = doc.split(b"\n")
    lines[line] = lines[line].replace(old, new, 1)
    return b"\n".join(lines)


def variants():
    """(name, bytes): each document clean and with one kind of trouble."""
    for name, doc in (("snake", SNAKE), ("rmgc", RMGC), ("ksnake", KSNAKE)):
        yield name, doc
        yield f"{name} crlf", doc.replace(b"\n", b"\r\n")
        yield f"{name} cr", doc.replace(b"\n", b"\r")
        yield f"{name} tabs", edit(doc, 2 - (name == "rmgc"), b" ", b"\t")
        yield f"{name} blank lines", b"\n \n" + doc.replace(b"\n", b"\n\n  \n", 4)
        yield f"{name} space-only lines after the header", doc.replace(b"\n", b"\n \n   \n", 1)
        yield f"{name} t pushes", edit(doc, 2 - (name == "rmgc"), b" ", b" t")
        yield f"{name} non-utf-8 byte", edit(doc, 2 - (name == "rmgc"), b" ", b" \xff")
        yield f"{name} non-utf-8 header", edit(doc, 0, b"=", b"\xff=")
        yield f"{name} non-ascii digit", edit(doc, 2 - (name == "rmgc"), b" ", b" \xd9\xa3 ")
        yield f"{name} 19 digits", edit(doc, 2 - (name == "rmgc"), b" ", b" 0000000000000000002 ")
        yield f"{name} vertical tab", edit(doc, 2 - (name == "rmgc"), b" ", b"\x0b")
        yield f"{name} no final newline", doc.rstrip(b"\n")
        yield f"{name} bad push", edit(doc, 2 - (name == "rmgc"), b" ", b" 9 ")
    at = SNAKE.index(b"codewords:")
    yield "listing blank lines", SNAKE[: at + 20] + b"\n\n   \n" + SNAKE[at + 20 :]
    yield "listing tabs", SNAKE[: at + 12] + b"\t" + SNAKE[at + 13 :]
    yield "listing t", SNAKE[: at + 11] + b"t" + SNAKE[at + 11 :]
    yield "listing non-utf-8 byte", SNAKE[: at + 12] + b"\xff" + SNAKE[at + 13 :]
    yield "listing mismatch", SNAKE[: at + 11] + b"2 1" + SNAKE[at + 14 :]
    yield "listing short line", SNAKE[: at + 11] + SNAKE[at + 13 :]
    yield "marker not a line", SNAKE.replace(b"codewords:", b"codewords: ")
    yield "marker twice", SNAKE.replace(b"codewords:\n", b"codewords:\ncodewords:\n")
    yield "marker last", SNAKE[: at + len(b"codewords:")]
    yield "marker second line", SNAKE.replace(b"\n", b"\ncodewords:\n", 1)
    # The marker across a read of 64 bytes: it starts at 128 + d, padded by a blank line.
    for d in range(-12, 3):
        pad = 128 + d - at % 64
        yield f"marker at 128{d:+}", SNAKE[:at] + b" " * (pad - 1) + b"\n" + SNAKE[at:]
    wide = " ".join(map(str, range(1, 2001))).encode()  # 8,892 bytes
    yield "one word at n=2000", b"snake n=2000 size=1 metric=linf cyclic=false method=x\n" + wide + b"\n"
    yield "empty", b""
    yield "blank", b" \n\n"
    yield "unknown kind", b"foo n=3\n1 2 3\n"
    yield "header only", SNAKE.split(b"\n")[0]


VARIANTS = dict(variants())


def verify_file(tmp_path, capsys, data):
    path = tmp_path / "doc.txt"
    path.write_bytes(data)
    rc = main(["verify", str(path)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("piece", [8, 64, 1 << 16])
@pytest.mark.parametrize("name", VARIANTS)
def test_verify_reads_as_the_text_path(tmp_path, capsys, monkeypatch, name, piece):
    monkeypatch.setattr(_reader, "_SLICE", piece)
    got = verify_file(tmp_path, capsys, VARIANTS[name])
    monkeypatch.setattr(documents, "_read", lambda fh: None)
    assert got == verify_file(tmp_path, capsys, VARIANTS[name])


@pytest.mark.parametrize(
    "name, refused",
    [
        ("snake", False), ("rmgc", False), ("ksnake", False), ("snake blank lines", False),
        ("snake no final newline", False), ("listing blank lines", False), ("marker last", False),
        ("snake bad push", False), ("listing mismatch", False), ("one word at n=2000", False),
        ("snake space-only lines after the header", False),
        ("ksnake space-only lines after the header", False),
        ("rmgc space-only lines after the header", False),
        ("snake crlf", True), ("snake tabs", True), ("snake t pushes", True),
        ("snake non-utf-8 byte", True), ("snake 19 digits", True), ("listing t", True),
        ("marker not a line", True), ("marker twice", True), ("unknown kind", True), ("empty", True),
    ],
)
def test_the_piece_reader_takes_digits_and_spaces(name, refused):
    assert (documents._read(io.BytesIO(VARIANTS[name])) is None) == refused


def test_a_non_utf8_byte_is_named_as_the_text_file_names_it(tmp_path, capsys):
    data = VARIANTS["snake non-utf-8 byte"]
    at = data.index(b"\xff")
    assert verify_file(tmp_path, capsys, data) == (
        2, "", f"error: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte\n"
    )


def test_verify_reads_a_file_that_cannot_seek(tmp_path, capsys, monkeypatch):
    # Such a file is read whole first, so that the text path can read it again.
    data = VARIANTS["snake crlf"]
    expected = verify_file(tmp_path, capsys, data)

    class Pipe(io.BytesIO):
        def seekable(self):
            return False

        def seek(self, *args):
            raise io.UnsupportedOperation("seek")

    monkeypatch.setattr("builtins.open", lambda path, mode="r", *args, **kwargs: Pipe(data))
    assert verify_file(tmp_path, capsys, data) == expected
