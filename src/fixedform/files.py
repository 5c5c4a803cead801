"""The package's only file access: atomic writes and checked UTF-8 reads.

An output goes to a temp file beside its destination that then replaces it,
so a failed or interrupted run leaves the old file or none, never a truncated one.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import hashlib
import io
import json
import os

from .errors import FileFormatError

__all__ = ["replacing", "dump_csv", "dump_json", "write_csv", "write_json", "read_csv", "read_json", "sha256"]


@contextlib.contextmanager
def replacing(*paths):
    """Yield one open temp file per path; on a clean exit each replaces its path.

    Every temp file is opened before any destination is replaced, and every
    destination after the first is checked not to be a directory (the one
    way a later replace fails once an earlier one is done), so an output that
    cannot be written leaves all of them as they were.
    """
    tmps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(tmp, "w", encoding="utf-8", newline="")) for tmp in tmps]
        for path in paths[1:]:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename in tmps:
            path = paths[tmps.index(exc.filename)]
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def dump_csv(fh, header, rows) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def dump_json(fh, doc) -> None:
    fh.write(json.dumps(doc, indent=2) + "\n")


def write_csv(path, header, rows) -> None:
    with replacing(path) as (fh,):
        dump_csv(fh, header, rows)


def write_json(path, doc) -> None:
    with replacing(path) as (fh,):
        dump_json(fh, doc)


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
