"""Line files read and written one way, and whole-file writes that replace
their target only when complete."""

from __future__ import annotations

import contextlib
import os
from collections.abc import Callable, Iterable


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Open a temporary file beside path; when the block completes, the
    temporary file replaces path.

    A write that raises or is killed part-way leaves the previous file at
    path intact; one that raises also removes the temporary file.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_lines(path: str, parse: Callable[[str], object]) -> list:
    """parse(body) for each line left non-blank once '#' and what follows
    it are cut and whitespace is stripped; a ValueError from parse is
    raised again as the same class, prefixed 'path:lineno: '."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            try:
                records.append(parse(body))
            except ValueError as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from None
    return records


def write_lines(path: str, lines: Iterable[str], header: str | None = None) -> None:
    """An optional '# header' line, then one line per string, through atomic_write."""
    head = f"# {header}\n" if header else ""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(head + "".join(f"{line}\n" for line in lines))
