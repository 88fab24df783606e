"""IPv6 address codec and aliased-prefix trie.

Every address in the toolkit is carried as a fixed sequence of 32 nybbles
(hex digits, most significant first).  This module converts between that
representation and the usual text forms, and provides the longest-prefix
matcher used to answer "is this address under a known aliased prefix, and
how long is the longest matching prefix".
"""

from __future__ import annotations

import logging
import operator
import re
import struct
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_write

log = logging.getLogger("sixgan.addr")

SEQ_LEN = 32  # nybbles per address
IID_START = 16  # nybble index where the interface identifier begins

_NYBBLE_RANGE = bytes(range(16))
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class AddressParseError(ValueError):
    """Raised for malformed address or prefix text."""


def _all_nybbles(values: tuple[int, ...]) -> bool:
    """Whether every value is an integer in [0, 15]: bytes() takes integers
    (NumPy's too) and refuses floats, even integral ones."""
    try:
        return not bytes(values).translate(None, _NYBBLE_RANGE)
    except (TypeError, ValueError):
        return False


def _check_nybbles(nybbles: tuple[int, ...]) -> None:
    if not _all_nybbles(nybbles):
        bad = next(v for v in nybbles if not _all_nybbles((v,)))
        raise ValueError(f"nybble value must be an integer in [0, 15], got {bad!r}")


@dataclass(frozen=True, slots=True)
class NybbleSeq:
    """One IPv6 address as exactly 32 nybble values in [0, 15]."""

    nybbles: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.nybbles) != SEQ_LEN:
            raise ValueError(f"address must have {SEQ_LEN} nybbles, got {len(self.nybbles)}")
        _check_nybbles(self.nybbles)

    @property
    def iid(self) -> tuple[int, ...]:
        return self.nybbles[IID_START:]

    def __str__(self) -> str:
        return format_address(self)


@dataclass(frozen=True, slots=True)
class NybblePrefix:
    """A leading run of 1..32 nybbles, as used for aliased-prefix matching."""

    nybbles: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.nybbles) <= SEQ_LEN:
            raise ValueError(f"prefix length must be in [1, {SEQ_LEN}], got {len(self.nybbles)}")
        _check_nybbles(self.nybbles)

    def __len__(self) -> int:
        return len(self.nybbles)

    def matches(self, seq: NybbleSeq) -> bool:
        return seq.nybbles[: len(self.nybbles)] == self.nybbles

    def __str__(self) -> str:
        padded = self.nybbles + (0,) * (SEQ_LEN - len(self.nybbles))
        return f"{format_address(NybbleSeq(padded))}/{4 * len(self.nybbles)}"


# A '::'-free run of groups: 1-4 hex digits each, the last one optionally a
# dotted quad (captured octets; whether it may stand there is the caller's).
_CHUNK = re.compile(
    r"(?:[0-9A-Fa-f]{1,4}:)*"
    r"(?:[0-9A-Fa-f]{1,4}|([0-9]{1,3})\.([0-9]{1,3})\.([0-9]{1,3})\.([0-9]{1,3}))"
)
# hex digit -> its value as a byte
_NYBBLE_BYTES = bytes.maketrans(b"0123456789abcdefABCDEF", bytes(range(16)) + bytes(range(10, 16)))


def _bad(text: str, pos: int, why: str) -> AddressParseError:
    return AddressParseError(f"{text!r}: {why} at position {pos}")


def _chunk_error(text: str, chunk: str, offset: int, final: bool) -> AddressParseError:
    """The error for a chunk that _chunk_groups refused: the first bad group's.

    Checks the groups left to right, each at its position in the stripped
    text; `final` says whether the chunk ends the address, the one place a
    dotted quad may stand (RFC 4291 section 2.2).
    """
    parts = chunk.split(":")
    pos = offset
    for idx, part in enumerate(parts):
        if "." in part:
            if not final or idx != len(parts) - 1:
                return _bad(text, pos, "embedded IPv4 must be the final group")
            octets = part.split(".")
            if len(octets) != 4:
                return _bad(text, pos, f"embedded IPv4 needs 4 octets, got {len(octets)}")
            for octet in octets:
                if not (octet.isascii() and octet.isdigit()) or len(octet) > 3:
                    return _bad(text, pos, f"invalid IPv4 octet {octet!r}")
                if int(octet) > 255:
                    return _bad(text, pos, f"IPv4 octet {octet} exceeds 255")
                pos += len(octet) + 1
        elif not part:
            return _bad(text, pos, "empty group")
        elif len(part) > 4:
            return _bad(text, pos + 4, f"group {part!r} longer than 4 digits")
        else:
            for i, c in enumerate(part):
                if c not in _HEX_DIGITS:
                    return _bad(text, pos + i, f"invalid character {c!r}")
            pos += len(part) + 1
    # not reached: _CHUNK and the checks above accept the same groups
    return _bad(text, offset, "malformed groups")


def _chunk_groups(text: str, chunk: str, offset: int, final: bool) -> list[str]:
    """The hex groups of a '::'-free chunk, a dotted quad as two of them."""
    m = _CHUNK.fullmatch(chunk)
    if m is None:
        raise _chunk_error(text, chunk, offset, final)
    groups = chunk.split(":")
    if m.lastindex:
        a, b, c, d = map(int, m.groups())
        if not final or max(a, b, c, d) > 255:
            raise _chunk_error(text, chunk, offset, final)
        groups[-1:] = [f"{a:02x}{b:02x}", f"{c:02x}{d:02x}"]
    return groups


def parse_address(text: str) -> NybbleSeq:
    """Parse full, '::'-compressed, or dotted-quad-tailed IPv6 text.

    Case-insensitive.  Raises AddressParseError naming the offending
    character position on malformed input.
    """
    s = text.strip()
    if not s:
        raise _bad(text, 0, "empty address")
    head, dc, tail = s.partition("::")
    if dc:
        if "::" in tail:
            raise _bad(text, s.index("::", len(head) + 1), "more than one '::'")
        left = _chunk_groups(text, head, 0, final=False) if head else []
        right = _chunk_groups(text, tail, len(head) + 2, final=True) if tail else []
        missing = 8 - len(left) - len(right)
        if missing < 1:
            raise _bad(text, len(head), "'::' present but no groups elided")
        groups = left + ["0"] * missing + right
    else:
        groups = _chunk_groups(text, s, 0, final=True)
        if len(groups) != 8:
            raise _bad(text, len(s) - 1, f"expected 8 groups, got {len(groups)}")
    digits = "".join([g.zfill(4) for g in groups])
    return NybbleSeq(tuple(digits.encode().translate(_NYBBLE_BYTES)))


def _compressed_formats() -> dict[tuple[bool, ...], tuple[str, int, int]]:
    """Per zero-group mask: the %-format and the group run [start, end) that '::' replaces.

    The longest run of two or more zero groups is compressed, the leftmost
    on ties; a single zero group is not.
    """
    formats = {}
    for mask in range(256):
        zero = tuple(bool(mask >> i & 1) for i in range(8))
        start = end = 0
        for i in range(8):
            j = i
            while j < 8 and zero[j]:
                j += 1
            if j - i > max(end - start, 1):
                start, end = i, j
        if end:
            fmt = ":".join(["%x"] * start) + "::" + ":".join(["%x"] * (8 - end))
        else:
            fmt = ":".join(["%x"] * 8)
        formats[zero] = (fmt, start, end)
    return formats


_FORMATS = _compressed_formats()
_GROUPS = struct.Struct(">8H")


def format_address(seq: NybbleSeq) -> str:
    """Canonical compressed lowercase text for a nybble sequence.

    Longest all-zero run of groups is replaced with '::' (leftmost run on
    ties); a single zero group is never compressed.
    """
    # one hex digit per nybble, then the eight 16-bit groups
    groups = _GROUPS.unpack(bytes.fromhex(bytes(seq.nybbles).hex()[1::2]))
    fmt, start, end = _FORMATS[tuple(map(operator.not_, groups))]
    return fmt % (groups[:start] + groups[end:])


def parse_prefix(text: str) -> NybblePrefix:
    """Parse 'addr/len' CIDR text into a nybble prefix.

    Bit lengths that are not a multiple of 4 are rounded down to the
    containing nybble boundary; the rounding is reported via the module
    logger.
    """
    s = text.strip()
    if "/" not in s:
        raise _bad(text, len(s), "missing '/len'")
    addr_part, _, len_part = s.rpartition("/")
    if not len_part.isdigit():
        raise _bad(text, len(addr_part) + 1, f"invalid prefix length {len_part!r}")
    bits = int(len_part)
    if not 1 <= bits <= 128:
        raise _bad(text, len(addr_part) + 1, f"prefix length {bits} out of range [1, 128]")
    seq = parse_address(addr_part)
    if bits % 4 != 0:
        rounded = (bits // 4) * 4
        if rounded == 0:
            raise _bad(text, len(addr_part) + 1, f"prefix length {bits} rounds below one nybble")
        log.warning("prefix %s: length %d not nybble-aligned, rounded down to /%d", s, bits, rounded)
        bits = rounded
    return NybblePrefix(seq.nybbles[: bits // 4])


class AliasTrie:
    """Longest-prefix matcher over aliased nybble prefixes.

    Holds one set of prefix keys per distinct prefix length and checks the
    longest length first, so a query costs one set lookup per distinct
    length, however many prefixes there are.  Immutable once built; share
    freely across readers.
    """

    __slots__ = ("_by_len",)

    def __init__(self, prefixes: Iterable[NybblePrefix] = ()):
        by_len: dict[int, set[tuple[int, ...]]] = {}
        for p in prefixes:
            by_len.setdefault(len(p), set()).add(p.nybbles)
        self._by_len = sorted(by_len.items(), reverse=True)

    def __len__(self) -> int:
        return sum(len(keys) for _, keys in self._by_len)

    def _match(self, nybbles: tuple[int, ...]) -> int | None:
        for length, keys in self._by_len:
            if nybbles[:length] in keys:
                return length
        return None

    def match(self, seq: NybbleSeq) -> int | None:
        """Length of the longest known prefix that prefixes seq, else None."""
        return self._match(seq.nybbles)

    def match_batch(self, tokens: np.ndarray) -> np.ndarray:
        """match() for each row of [n, 32] nybble tokens, with 0 for None."""
        return np.array(
            [self._match(row) or 0 for row in map(tuple, tokens.tolist())], dtype=np.int64
        )


def load_seed_file(path: str) -> list[NybbleSeq]:
    """Read one address per line; '#' comments and blank lines skipped."""
    seeds: list[NybbleSeq] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            try:
                seeds.append(parse_address(body))
            except AddressParseError as exc:
                raise AddressParseError(f"{path}:{lineno}: {exc}") from None
    return seeds


def load_alias_file(path: str) -> list[NybblePrefix]:
    """Read one CIDR prefix per line; same comment rules as seed files."""
    prefixes: list[NybblePrefix] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            try:
                prefixes.append(parse_prefix(body))
            except AddressParseError as exc:
                raise AddressParseError(f"{path}:{lineno}: {exc}") from None
    return prefixes


def write_address_file(path: str, seqs: list[NybbleSeq], header: "str | None" = None) -> None:
    lines = [f"# {header}\n"] if header else []
    lines += [format_address(seq) + "\n" for seq in seqs]
    with atomic_write(path, "w") as fh:
        fh.write("".join(lines))
