import ast
import builtins
import itertools
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import audioanom
from audioanom import errors
from audioanom.config import FIELD_TYPES
from audioanom.errors import AudioAnomError, IoFailure
from audioanom.files import (read_bytes, read_csv, read_json, write_bytes,
                             write_csv, write_json)

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


# helper -> a call of it on a path
WRITERS = {
    "write_bytes": lambda path: write_bytes(path, b"P5\n", b"\0"),
    "write_csv": lambda path: write_csv(path, ["a"], [["1"]]),
    "write_json": lambda path: write_json({"a": 1}, path),
}
READERS = {
    "read_bytes": read_bytes,
    "read_csv": lambda path: read_csv(path, Fault),
    "read_json": lambda path: read_json(path, Fault),
}


@pytest.mark.parametrize("helper", sorted(WRITERS))
def test_write_under_a_file_is_an_io_failure(tmp_path, helper):
    (tmp_path / "file.txt").write_text("mine\n")
    path = tmp_path / "file.txt" / "out"
    with pytest.raises(IoFailure, match=rf"^cannot write {path}: "
                       r"\[Errno 20\] Not a directory"):
        WRITERS[helper](path)


@pytest.mark.parametrize("helper", sorted(WRITERS))
def test_failed_write_after_open_is_an_io_failure(helper):
    # /dev/full opens, then refuses the bytes when they are flushed
    with pytest.raises(IoFailure, match=r"^cannot write /dev/full: "
                       r"\[Errno 28\] No space left on device"):
        WRITERS[helper]("/dev/full")


@pytest.mark.parametrize("helper", sorted(READERS))
def test_read_of_a_missing_file_is_an_io_failure(tmp_path, helper):
    path = tmp_path / "missing"
    with pytest.raises(IoFailure, match=rf"^cannot read {path}: "
                       r"\[Errno 2\] No such file or directory"):
        READERS[helper](path)


def test_bytes_round_trip(tmp_path):
    path = tmp_path / "blob"
    write_bytes(path, b"RIFF", b"", b"\0\xff")
    assert read_bytes(path) == b"RIFF\0\xff"


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
    imports, opens, io_failures = set(), set(), set()
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
        # a name, attribute, import or class named IoFailure
        io_failures |= {path.name for node in ast.walk(tree) if "IoFailure" in (
            getattr(node, "id", None), getattr(node, "attr", None),
            getattr(node, "name", None))}
    assert imports == {("files.py", "csv"), ("files.py", "io"),
                       ("files.py", "json")}
    # one function opens every file, so one rule reports its OS failures
    assert opens == {("files.py", "_open")}
    assert io_failures == {"errors.py", "files.py"}


def test_every_raise_names_an_audioanom_or_os_error():
    # main maps an AudioAnomError to exit 2 or 1 and an OSError to exit 1;
    # any other class would reach the user as a traceback
    strays = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue   # a bare raise re-raises what was caught
            raised = getattr(node.exc, "func", node.exc)
            name = getattr(raised, "id", getattr(raised, "attr", ""))
            cls = getattr(errors, name, getattr(builtins, name, None))
            # files.py raises the error class its caller passes
            if (path.name, name) != ("files.py", "error") and not (
                    isinstance(cls, type)
                    and issubclass(cls, (AudioAnomError, OSError))):
                strays.add(f"{path.name}:{node.lineno} raises {name}")
    assert not strays, sorted(strays)


def test_only_config_states_a_settings_rule():
    # a message that starts "<setting> must" states that setting's rule,
    # which config.py alone holds; a stage applies it with check_settings
    starts = tuple(f"{name} must" for name in FIELD_TYPES)
    restated = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # an f-string's literal parts are Constant nodes too
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.startswith(starts)):
                restated.add(f"{path.name}:{node.lineno} {node.value!r}")
    assert not restated, sorted(restated)
