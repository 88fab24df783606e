"""Whole-file writes that replace their target only when complete."""

from __future__ import annotations

import contextlib
import os


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
