"""Fixtures shared by the test modules."""

import builtins
import errno
import os

import pytest


class _FullDiskFile:
    """A file opened for writing on a disk that fills up: each write stores
    the first half of its data and raises OSError(ENOSPC)."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "disk full")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture
def disk_full_on(monkeypatch):
    """disk_full_on(name): from then on, a file whose name contains name,
    opened for writing, fails part-way as on a full disk."""
    real_open = builtins.open

    def start(name: str) -> None:
        def open_on_full_disk(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "w" in mode and name in os.path.basename(os.fspath(file)):
                return _FullDiskFile(fh)
            return fh

        monkeypatch.setattr(builtins, "open", open_on_full_disk)

    return start
