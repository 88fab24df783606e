"""Line and JSON files read and written one way, whole-file writes that
replace their target only when complete, and the kinds of JSON value a
config or spec key takes."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator


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


def numbered_lines(path: str) -> Iterator[tuple[int, str]]:
    """(lineno, body) for each line left non-blank once '#' and what
    follows it are cut and whitespace is stripped."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if body:
                yield lineno, body


def read_lines(path: str, parse: Callable[[str], object]) -> list:
    """parse(body) for each of numbered_lines(path); a ValueError from
    parse is raised again as the same class, prefixed 'path:lineno: '."""
    records = []
    for lineno, body in numbered_lines(path):
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


def read_json(path: str):
    """The JSON document in path; a read or parse error is a ValueError
    starting 'path: '."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ValueError(f"{path}: cannot read: {err.strerror}") from None
    except ValueError as err:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: not valid JSON: {err}") from None


def write_json(path: str, doc) -> None:
    """doc as JSON with sorted keys, indent 2 and a final newline, through
    atomic_write; a dataclass in doc is written as its fields."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=dataclasses.asdict)
        fh.write("\n")


@dataclasses.dataclass(frozen=True)
class Kind:
    """A kind of JSON value a key takes: its name in messages and its test."""
    what: str
    test: Callable[[object], bool]

    def check(self, value, name: str):
        """value, or a ValueError '<name> must be <what>, got <value as JSON>'."""
        if not self.test(value):
            raise ValueError(f"{name} must be {self.what}, got {json.dumps(value)}")
        return value


def _list_of(what: str, kind: Kind) -> Kind:
    return Kind(f"a list of {what}", lambda v: type(v) is list and all(map(kind.test, v)))


INTEGER = Kind("an integer", lambda v: type(v) is int)  # not a bool
# an int compares exactly with a float, so one too large for a float is refused too
NUMBER = Kind("a finite number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
STRING = Kind("a string", lambda v: type(v) is str)
OBJECT = Kind("a JSON object", lambda v: type(v) is dict)
NUMBERS = _list_of("finite numbers", NUMBER)
STRINGS = _list_of("strings", STRING)
OBJECTS = _list_of("objects", OBJECT)
