"""Every document is read in pieces, by one reader.

``documents._document``, the one entry of ``verify``, ``import-ksnake``,
``construct --ksnake`` and the ``parse_*`` helpers, reads a document
with ``_reader._read``, from pieces of the file's bytes that end at line
ends: numpy tokenises pieces of digits, spaces, tabs and line ends, and
any other piece is decoded and read under the ``str`` rules.  Whatever
the bytes, the outcome of each command (exit code, stdout and stderr)
must be the one the text path gives: the whole file read as a text file
reads, then parsed line by line.  The oracle below is the same command
with ``text_read``, that text path, in place of the reader.  Pieces are
cut small here as well, so that lines and the ``codewords:`` marker fall
across piece edges, and a start line is longer than a piece.
"""
import io
import tracemalloc

import numpy as np
import pytest

from permsnake import _reader, documents
from permsnake.cli import main
from permsnake.constructions import snake_from_rmgc
from permsnake.documents import (
    KIND_KSNAKE,
    KIND_RMGC,
    KIND_SNAKE,
    CodeDocument,
    detect_kind,
    format_document,
    format_rmgc_document,
    parse_document,
    parse_ksnake_fields,
    parse_rmgc_document,
    read_document,
)
from permsnake.errors import ParseError
from permsnake.ksnake import embedded_a5_snake, format_ksnake
from permsnake.perm import parse_perm, parse_transitions
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
VERIFY = ("verify",)
IMPORT = ("import-ksnake",)
THM2 = ("construct", "thm2", "--n", "7", "--ksnake")
# Each command that reads a document, with each document it is run on.
COMMANDS = [
    *(pytest.param(VERIFY, name, id=name) for name in VARIANTS),
    *(pytest.param(IMPORT, name, id=f"import-ksnake {name}") for name in VARIANTS),
    *(pytest.param(THM2, name, id=f"thm2 {name}") for name in VARIANTS if name.startswith("ksnake")),
]


def run_file(tmp_path, capsys, data, command=VERIFY):
    """The exit code, stdout and stderr of command on a file holding data."""
    path = tmp_path / "doc.txt"
    path.write_bytes(data)
    rc = main([*command, str(path)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def text_read(fh, layout):
    """What ``_reader._read`` gives, as the text path reads it: the whole
    file decoded as UTF-8 with universal newlines and its blank lines
    dropped; the head lines; the lines after them up to the first marker
    line, parsed with ``parse_transitions``; and the lines after the
    marker, parsed with ``parse_perm``."""
    text = fh.read().decode().replace("\r\n", "\n").replace("\r", "\n")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    want, marker = layout(lines[0]) if lines else (1, None)
    cut = lines.index(marker, want) if marker in lines[want:] else len(lines)
    listing = parsed_lines(parse_perm, lines[cut + 1 :]) if cut < len(lines) else None
    return lines[:want], parsed_lines(parse_transitions, lines[want:cut]), listing


def parsed_lines(parse, lines):
    """The values of lines as parse reads them, how many each line holds,
    and the error of the first line parse refuses, with the lines before it."""
    rows, error = [], None
    for line in lines:
        try:
            rows.append(parse(line))
        except ValueError as exc:
            error = ParseError(str(exc))
            break
    values = np.array([v for row in rows for v in row], dtype=object)
    return values, np.array([len(row) for row in rows], dtype=np.int64), error


@pytest.mark.parametrize("piece", [8, 64, 1 << 16])
@pytest.mark.parametrize("command, name", COMMANDS)
def test_verify_reads_as_the_text_path(tmp_path, capsys, monkeypatch, command, name, piece):
    monkeypatch.setattr(_reader, "_SLICE", piece)
    got = run_file(tmp_path, capsys, VARIANTS[name], command)
    monkeypatch.setattr(documents, "_read", text_read)
    assert got == run_file(tmp_path, capsys, VARIANTS[name], command)


@pytest.mark.parametrize(
    "name, by_str",
    [
        ("snake", False), ("rmgc", False), ("ksnake", False), ("snake blank lines", False),
        ("snake no final newline", False), ("listing blank lines", False), ("marker last", False),
        ("snake bad push", False), ("listing mismatch", False), ("one word at n=2000", False),
        ("snake space-only lines after the header", False),
        ("ksnake space-only lines after the header", False),
        ("rmgc space-only lines after the header", False),
        ("snake crlf", False), ("snake cr", False), ("rmgc crlf", False), ("ksnake cr", False),
        ("snake tabs", False), ("listing tabs", False), ("unknown kind", False), ("empty", False),
        ("snake t pushes", True), ("snake non-utf-8 byte", True), ("snake 19 digits", True),
        ("snake vertical tab", True), ("snake non-ascii digit", True), ("listing t", True),
        ("marker not a line", True), ("marker twice", True),
    ],
)
def test_the_piece_reader_takes_digits_and_spaces(monkeypatch, name, by_str):
    """numpy reads every line after the head lines but the marker, unless a
    piece holds a byte other than ASCII digits, spaces, tabs and line ends,
    or a token of more than 18 digits: that piece is decoded as UTF-8, or
    refused, and its nonblank lines are read under the str rules."""
    read = []

    def spy(parse):
        def parse_line(line):
            if line.strip():
                read.append(line)
            return parse(line)

        return parse_line

    for parser in ("parse_transitions", "parse_perm"):
        monkeypatch.setattr(_reader, parser, spy(getattr(_reader, parser)))
    try:
        documents._document(io.BytesIO(VARIANTS[name]), None)
    except ValueError as exc:  # the document's own fault, or a byte that is not UTF-8
        read += [exc] if "codec can't decode" in str(exc) else []
    assert bool(read) == by_str


def test_a_non_utf8_byte_is_named_as_the_text_file_names_it(tmp_path, capsys):
    data = VARIANTS["snake non-utf-8 byte"]
    at = data.index(b"\xff")
    assert run_file(tmp_path, capsys, data) == (
        2, "", f"error: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte\n"
    )


@pytest.mark.parametrize(
    "command, name",
    [
        pytest.param(VERIFY, "snake crlf", id="verify"),
        pytest.param(IMPORT, "ksnake crlf", id="import-ksnake"),
        pytest.param(THM2, "ksnake crlf", id="thm2"),
    ],
)
def test_verify_reads_a_file_that_cannot_seek(tmp_path, capsys, monkeypatch, command, name):
    data = VARIANTS[name]
    expected = run_file(tmp_path, capsys, data, command)

    class Pipe:
        """A file that can only be read, front to back: no seek, tell or readline."""

        def __init__(self, data):
            self.read = io.BytesIO(data).read

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

    monkeypatch.setattr("builtins.open", lambda path, mode="r", *args, **kwargs: Pipe(data))
    assert run_file(tmp_path, capsys, data, command) == expected


PARSE = {KIND_SNAKE: parse_document, KIND_KSNAKE: parse_ksnake_fields, KIND_RMGC: parse_rmgc_document}


def texts():
    """(kind, text), with the variant's name as id: each variant that
    decodes as UTF-8 and names a known kind."""
    for name, data in VARIANTS.items():
        try:
            text = data.decode("utf-8")
            kind = detect_kind(text)
        except (UnicodeDecodeError, ParseError):
            continue
        if kind in PARSE:
            yield pytest.param(kind, text, id=name)


def outcome(call, *args):
    """What call(*args) returns, or the type and message of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:  # ParseError, VerificationError, InvalidTransitionError
        return type(exc), str(exc)


@pytest.mark.parametrize("kind, text", texts())
def test_strings_parse_as_files_do(tmp_path, kind, text):
    path = tmp_path / "doc.txt"
    path.write_bytes(text.encode())
    expected = outcome(lambda: read_document(str(path))[1])
    assert outcome(PARSE[kind], text) == expected


def test_crlf_and_tab_documents_read_in_the_memory_of_lf(tmp_path):
    """CRLF and tab copies of the 9-RMGC document (362,880 pushes) are read
    in pieces like the LF one, with no copy of the text or list of lines."""
    lf = format_rmgc_document(build_rmgc(9)).encode()
    peaks = {}
    for name, data in (("lf", lf), ("crlf", lf.replace(b"\n", b"\r\n")), ("tabs", lf.replace(b" ", b"\t"))):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(data)
        assert read_document(str(path))[1] == build_rmgc(9)
        tracemalloc.start()
        try:
            read_document(str(path))
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["crlf"] <= 1.1 * peaks["lf"] and peaks["tabs"] <= 1.1 * peaks["lf"], peaks
