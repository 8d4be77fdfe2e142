import ast
import itertools
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import audioanom
from audioanom.errors import AudioAnomError
from audioanom.files import read_csv, read_json, write_csv

SRC = pathlib.Path(audioanom.__file__).parent


class Fault(AudioAnomError):
    """The error class a test hands to a reader."""


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


# text mode reads a "\r" back as "\n", so "\r" is left out
CELLS = st.lists(st.text(st.characters(codec="utf-8",
                                       exclude_characters="\r")),
                 min_size=1, max_size=4)


@given(CELLS, st.lists(CELLS, max_size=5))
def test_csv_round_trip_and_line_numbers(csv_dir, header, rows):
    path = csv_dir / "table.csv"
    write_csv(path, header, rows)
    got_header, got = read_csv(path, Fault)
    assert got_header == header
    assert [row for _, row in got] == rows
    # each row's line is its last physical line
    heights = [1 + sum(cell.count("\n") for cell in row)
               for row in [header, *rows]]
    assert [line for line, _ in got] == list(itertools.accumulate(heights))[1:]


def test_csv_rows_end_in_newline_and_blank_rows_are_skipped(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b"], [["x\ny", "z"]])
    assert path.read_bytes() == b'a,b\n"x\ny",z\n'
    path.write_text('a,b\n\n"x\ny",z\n\nc,d\n')
    assert read_csv(path, Fault) == (["a", "b"], [(4, ["x\ny", "z"]),
                                                 (6, ["c", "d"])])


@pytest.mark.parametrize("content, named", [
    (b"", "empty file"),
    (b"a,b\n\xff\xfe\n", "not UTF-8"),
    (b"a\n" + b"9" * 200_000 + b"\n", "line 2: field larger than field limit"),
], ids=["empty", "not_utf8", "long_field"])
def test_read_csv_raises_the_given_class(tmp_path, content, named):
    path = tmp_path / "table.csv"
    path.write_bytes(content)
    with pytest.raises(Fault, match=named) as info:
        read_csv(path, Fault)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("content", [
    b'{"a": "\xff"}',
    b'{"a": ',
    b"[" * 100_000 + b"]" * 100_000,
    b"9" * 5_000,
], ids=["not_utf8", "not_json", "nested_100000_deep", "int_of_5000_digits"])
def test_read_json_raises_the_given_class(tmp_path, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(Fault, match="not a UTF-8 JSON document") as info:
        read_json(path, Fault)
    assert str(path) in str(info.value)


def _open_calls(node, where=None):
    """The enclosing function's name (None at module level) of each call of
    a name or attribute `open` under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if isinstance(node, ast.Call) and "open" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
        yield where
    for child in ast.iter_child_nodes(node):
        yield from _open_calls(child, where)


def test_only_files_py_reads_and_writes_text_files():
    imports, opens = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            imports |= {(path.name, name) for name in names
                        if name.split(".")[0] in ("csv", "io", "json")}
        opens |= {(path.name, where) for where in _open_calls(tree)}
    assert imports == {("files.py", "csv"), ("files.py", "io"),
                       ("files.py", "json")}
    # audio_io opens the binary WAV container, cli._write_pgm a binary PGM
    assert {name for name, _ in opens} == {"files.py", "audio_io.py", "cli.py"}
    assert {where for name, where in opens if name == "cli.py"} == {
        "_write_pgm"}
