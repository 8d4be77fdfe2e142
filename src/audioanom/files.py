"""The program's files; no other module opens a file.

An OSError while opening, reading or writing a file raises IoFailure("cannot
read|write <path>: <OSError>"). CSV and JSON files are UTF-8. CSV rows end in
"\\n", and blank rows are skipped on reading. JSON has indent 1, sorted keys
and a final newline, and is streamed to the file. A file that does not decode
or parse raises the error class the caller passes, naming the path and a
CSV's line.
"""

import contextlib
import csv
import io
import json

from .errors import IoFailure


@contextlib.contextmanager
def _open(path, mode, **kwargs):
    """open(); an OSError in the with block, closing included, is IoFailure."""
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        verb = "write" if "w" in mode else "read"
        raise IoFailure(f"cannot {verb} {path}: {exc}") from exc


def read_bytes(path) -> bytes:
    with _open(path, "rb") as fh:
        return fh.read()


def write_bytes(path, *chunks) -> None:
    with _open(path, "wb") as fh:
        fh.writelines(chunks)


def read_csv(path, error) -> tuple:
    """(header, [(line, row)]): the first row, then each non-blank row with
    the number of its last physical line. An empty file is an error."""
    with _open(path, "r", encoding="utf-8") as fh:
        try:
            reader = csv.reader(io.StringIO(fh.read()))
            header = next(reader, None)
            rows = [(reader.line_num, row) for row in reader if row]
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8: {exc}") from None
        except csv.Error as exc:   # such as a field beyond csv's size limit
            raise error(f"{path}: line {reader.line_num}: {exc}") from None
    if header is None:
        raise error(f"{path}: empty file, no header")
    return header, rows


def write_csv(path, header, rows) -> None:
    with _open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_json(path, error):
    with _open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # not UTF-8, not JSON, nested too deep, or an integer too long
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: not a UTF-8 JSON document: {exc}") from exc


def write_json(doc, path) -> None:
    with _open(path, "w", encoding="utf-8", newline="") as fh:
        # json.dump, not json.dumps and one write: bounds peak memory
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
