"""IPv6 address codec and aliased-prefix trie.

Every address in the toolkit is carried as a fixed sequence of 32 nybbles
(hex digits, most significant first).  This module converts between that
representation and the usual text forms, and provides the longest-prefix
matcher used to answer "is this address under a known aliased prefix, and
how long is the longest matching prefix".
"""

from __future__ import annotations

import logging
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

log = logging.getLogger("sixgan.addr")

SEQ_LEN = 32  # nybbles per address
IID_START = 16  # nybble index where the interface identifier begins

_HEX_VAL = {c: int(c, 16) for c in "0123456789abcdefABCDEF"}


class AddressParseError(ValueError):
    """Raised for malformed address or prefix text."""


@dataclass(frozen=True, slots=True)
class NybbleSeq:
    """One IPv6 address as exactly 32 nybble values in [0, 15]."""

    nybbles: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.nybbles) != SEQ_LEN:
            raise ValueError(f"address must have {SEQ_LEN} nybbles, got {len(self.nybbles)}")
        for v in self.nybbles:
            if not 0 <= v <= 15:
                raise ValueError(f"nybble value out of range: {v}")

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
        for v in self.nybbles:
            if not 0 <= v <= 15:
                raise ValueError(f"nybble value out of range: {v}")

    def __len__(self) -> int:
        return len(self.nybbles)

    def matches(self, seq: NybbleSeq) -> bool:
        return seq.nybbles[: len(self.nybbles)] == self.nybbles

    def __str__(self) -> str:
        padded = self.nybbles + (0,) * (SEQ_LEN - len(self.nybbles))
        return f"{format_address(NybbleSeq(padded))}/{4 * len(self.nybbles)}"


def _bad(text: str, pos: int, why: str) -> AddressParseError:
    return AddressParseError(f"{text!r}: {why} at position {pos}")


def _parse_v4_tail(text: str, tail: str, offset: int) -> list[int]:
    """Expand a trailing dotted quad into 8 nybbles."""
    parts = tail.split(".")
    if len(parts) != 4:
        raise _bad(text, offset, f"embedded IPv4 needs 4 octets, got {len(parts)}")
    nybs: list[int] = []
    pos = offset
    for part in parts:
        if not part or not part.isdigit() or len(part) > 3:
            raise _bad(text, pos, f"invalid IPv4 octet {part!r}")
        val = int(part)
        if val > 255:
            raise _bad(text, pos, f"IPv4 octet {part} exceeds 255")
        nybs.extend((val >> 4, val & 0xF))
        pos += len(part) + 1
    return nybs


def _parse_groups(text: str, chunk: str, offset: int) -> list[list[int]]:
    """Parse a colon-separated run of hex groups (no '::' inside)."""
    groups: list[list[int]] = []
    pos = offset
    parts = chunk.split(":")
    for idx, part in enumerate(parts):
        if "." in part:
            # dotted-quad tail, must be the final part
            if idx != len(parts) - 1:
                raise _bad(text, pos, "embedded IPv4 must be the final group")
            nybs = _parse_v4_tail(text, part, pos)
            groups.append(nybs[:4])
            groups.append(nybs[4:])
            pos += len(part) + 1
            continue
        if not part:
            raise _bad(text, pos, "empty group")
        if len(part) > 4:
            raise _bad(text, pos + 4, f"group {part!r} longer than 4 digits")
        vals = []
        for i, c in enumerate(part):
            if c not in _HEX_VAL:
                raise _bad(text, pos + i, f"invalid character {c!r}")
            vals.append(_HEX_VAL[c])
        groups.append([0] * (4 - len(vals)) + vals)
        pos += len(part) + 1
    return groups


def parse_address(text: str) -> NybbleSeq:
    """Parse full, '::'-compressed, or dotted-quad-tailed IPv6 text.

    Case-insensitive.  Raises AddressParseError naming the offending
    character position on malformed input.
    """
    s = text.strip()
    if not s:
        raise _bad(text, 0, "empty address")
    n_dc = s.count("::")
    if n_dc > 1:
        raise _bad(text, s.index("::", s.index("::") + 1), "more than one '::'")
    if n_dc == 1:
        head, _, tail = s.partition("::")
        left = _parse_groups(text, head, 0) if head else []
        right = _parse_groups(text, tail, len(head) + 2) if tail else []
        missing = 8 - len(left) - len(right)
        if missing < 1:
            raise _bad(text, s.index("::"), "'::' present but no groups elided")
        groups = left + [[0, 0, 0, 0]] * missing + right
    else:
        groups = _parse_groups(text, s, 0)
        if len(groups) != 8:
            raise _bad(text, len(s) - 1, f"expected 8 groups, got {len(groups)}")
    nybbles = tuple(v for g in groups for v in g)
    return NybbleSeq(nybbles)


def format_address(seq: NybbleSeq) -> str:
    """Canonical compressed lowercase text for a nybble sequence.

    Longest all-zero run of groups is replaced with '::' (leftmost run on
    ties); a single zero group is never compressed.
    """
    groups = [seq.nybbles[i : i + 4] for i in range(0, SEQ_LEN, 4)]
    vals = [g[0] * 4096 + g[1] * 256 + g[2] * 16 + g[3] for g in groups]

    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for i, v in enumerate(vals + [1]):  # sentinel terminates the final run
        if v == 0:
            if run_len == 0:
                run_start = i
            run_len += 1
        else:
            if run_len > best_len:
                best_start, best_len = run_start, run_len
            run_len = 0

    texts = [f"{v:x}" for v in vals]
    if best_len >= 2:
        head = ":".join(texts[:best_start])
        tail = ":".join(texts[best_start + best_len :])
        return f"{head}::{tail}"
    return ":".join(texts)


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

    def __init__(self, prefixes: "Iterable[NybblePrefix]" = ()):
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
    with open(path, "w") as fh:
        if header:
            fh.write(f"# {header}\n")
        for seq in seqs:
            fh.write(format_address(seq) + "\n")
