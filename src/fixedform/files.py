"""The package's only file access: atomic writes and checked UTF-8 reads.

An output goes to a temp file beside its destination that then replaces it,
so a failed or interrupted run leaves the old file or none, never a truncated one.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os

from .errors import FileFormatError

__all__ = ["write_csv", "write_json", "read_csv", "read_json", "sha256"]


@contextlib.contextmanager
def _replacing(path):
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows) -> None:
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, doc) -> None:
    with _replacing(path) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _read_text(path, error) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}, line {line}: {exc}") from None


def read_csv(path, header, kind: str, error=FileFormatError) -> list[tuple[int, list[str]]]:
    """Nonblank rows after ``header`` as ``(line, cells)``; a bad header, byte or row raises ``error``."""
    reader = csv.reader(io.StringIO(_read_text(path, error), newline=""))
    try:
        if (got := next(reader, None)) != header:
            raise error(f"{path}, line 1: not a {kind}: expected header {','.join(header)!r}, got {got}")
        return [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise error(f"{path}, line {reader.line_num}: {exc}") from None


def read_json(path):
    try:
        return json.loads(_read_text(path, FileFormatError))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {path}: {exc}") from None


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
