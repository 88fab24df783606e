"""Deterministic synthetic address universe.

Stands in for a live scanner: a spec plants pattern families (structural
rule + prefixes + activity density) and aliased prefixes, and the oracle
answers probes deterministically via a keyed hash, so the active set T and
aliased set T_a are fixed by the spec alone.  Aliased prefixes respond to
everything, so aliased implies active.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .addr import AliasTrie, NybblePrefix, NybbleSeq, parse_prefix
from .classify import PORTS, RFC_CLASS_NAMES, classify_rfc
from .fileio import INTEGER, NUMBER, OBJECT, OBJECTS, STRING, STRINGS, read_json, write_json

SAMPLE_ATTEMPT_LIMIT = 10 ** 6
SHAPE_TRIES = 100  # draws of one shape before sample_shape gives up

# last-group bytes the port rule accepts: ports as hex values, then ports'
# decimal digits read as hex; the order feeds rng.choice, so it fixes the seeds
_PORT_GROUPS = (tuple(sorted(p for p in PORTS if p < 0x100))
                + tuple(sorted(v for v in (int(str(p), 16) for p in PORTS) if v < 0x100)))
_LOW_BYTE_LAST = tuple(v for v in range(1, 0x20) if v not in _PORT_GROUPS)


# the kind of each universe spec key, at the top level and in a family;
# aliased_prefixes may be left out
_SPEC_KEYS = {"hash_key": INTEGER, "families": OBJECTS, "aliased_prefixes": STRINGS}
_FAMILY_KEYS = {"name": STRING, "pattern": STRING, "prefixes": STRINGS, "density": NUMBER}


def _spec_fields(doc: dict, kinds: dict, where: str = "") -> dict:
    """doc, its keys checked against kinds; an error names where + the key
    that is unknown, missing or of another kind."""
    for key in doc:
        if key not in kinds:
            raise ValueError(f"unknown universe spec key: {where}{key}")
    for key, kind in kinds.items():
        if key in doc:
            kind.check(doc[key], f"universe spec key {where}{key}")
        elif key != "aliased_prefixes":
            raise ValueError(f"universe spec lacks key {where}{key}")
    return doc


class ProbeStatus(Enum):
    ACTIVE = "active-nonaliased"
    ALIASED = "active-aliased"
    INACTIVE = "inactive"


@dataclass(frozen=True)
class PatternFamily:
    name: str
    pattern: str  # one of the structural rule names
    prefixes: tuple[NybblePrefix, ...]
    density: float

    def __post_init__(self) -> None:
        if self.pattern not in RFC_CLASS_NAMES:  # each message starts with the field
            raise ValueError(f"pattern must be one of {', '.join(RFC_CLASS_NAMES)}, got {self.pattern!r}")
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {self.density}")
        if not self.prefixes:
            raise ValueError("prefixes must not be empty")


@dataclass(frozen=True)
class UniverseSpec:
    hash_key: int
    families: tuple[PatternFamily, ...]
    aliased_prefixes: tuple[NybblePrefix, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.hash_key < 2 ** 128:
            raise ValueError(f"universe spec key hash_key must be in [0, 2^128), got {self.hash_key}")
        for fa, fb in itertools.combinations(self.families, 2):
            for p, q in itertools.product(fa.prefixes, fb.prefixes):
                if p.matches(q) or q.matches(p):
                    raise ValueError(f"family prefixes overlap: {p} ({fa.name}) and {q} ({fb.name})")

    def to_json_dict(self) -> dict:
        return {
            "hash_key": self.hash_key,
            "families": [
                {
                    "name": f.name,
                    "pattern": f.pattern,
                    "prefixes": [str(p) for p in f.prefixes],
                    "density": f.density,
                }
                for f in self.families
            ],
            "aliased_prefixes": [str(p) for p in self.aliased_prefixes],
        }

    @classmethod
    def from_json_dict(cls, doc) -> "UniverseSpec":
        """The spec of a JSON document; ValueError names an unknown, missing or wrong-kind key."""
        doc = _spec_fields(OBJECT.check(doc, "universe spec"), _SPEC_KEYS)
        families = []
        for i, f in enumerate(doc["families"]):
            f = _spec_fields(f, _FAMILY_KEYS, f"families[{i}].")
            prefixes = tuple(parse_prefix(p) for p in f["prefixes"])
            try:
                families.append(PatternFamily(f["name"], f["pattern"], prefixes, float(f["density"])))
            except ValueError as err:  # '<field> must be ...'
                raise ValueError(f"universe spec key families[{i}].{err}") from None
        aliased = tuple(parse_prefix(p) for p in doc.get("aliased_prefixes", []))
        return cls(doc["hash_key"], tuple(families), aliased)

    def save(self, path: str) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str) -> "UniverseSpec":
        """The spec in a JSON file; every ValueError starts with the path."""
        doc = read_json(path)
        try:
            return cls.from_json_dict(doc)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None


@dataclass
class UniverseOracle:
    spec: UniverseSpec
    _key: bytes = field(init=False, repr=False)
    _aliases: AliasTrie = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._key = self.spec.hash_key.to_bytes(16, "little", signed=False)
        self._aliases = AliasTrie(self.spec.aliased_prefixes)

    def _hash_unit(self, seq: NybbleSeq) -> float:
        h = hashlib.blake2b(seq.nybbles, key=self._key, digest_size=8)
        return int.from_bytes(h.digest(), "little") / 2.0 ** 64

    def probe(self, seq: NybbleSeq, family: PatternFamily | None = None) -> ProbeStatus:
        """Deterministic activity answer for one address.  A family given
        has seq's label and a prefix holding seq, as for a sampled seed; as
        prefixes do not overlap, it is the one the search below would find."""
        if self._aliases.match(seq) is not None:
            return ProbeStatus.ALIASED
        if family is None:
            label = classify_rfc(seq).class_name
            family = next((fam for fam in self.spec.families if fam.pattern == label
                           and any(p.matches(seq) for p in fam.prefixes)), None)
            if family is None:
                return ProbeStatus.INACTIVE
        if self._hash_unit(seq) < family.density:
            return ProbeStatus.ACTIVE
        return ProbeStatus.INACTIVE


# ---------------------------------------------------------------------------
# Structural-shape samplers
# ---------------------------------------------------------------------------


def _byte_nybbles(values) -> list[int]:
    """The nybbles of byte values, high nybble first."""
    return [x for v in values for x in (v >> 4, v & 0xF)]


def _sample_iid(pattern: str, rng: np.random.Generator) -> list[int]:
    """The 16 nybbles of an interface identifier of the requested shape.

    Each fixed-length run of draws is one rng.integers(bound, size=n) call.
    Below 2**32 a bound costs one 32-bit draw per value (plus rejections)
    either way, so the values and the generator state afterwards equal
    those of n scalar calls.  Draws whose count depends on earlier values
    stay scalar.
    """
    if pattern == "IEEE-derived":
        iid = rng.integers(16, size=16).tolist()
        iid[6:10] = [0xF, 0xF, 0xF, 0xE]
        return iid
    if pattern == "Embedded-port":
        return _byte_nybbles((0,) * 7 + (int(rng.choice(_PORT_GROUPS)),))
    if pattern == "Embedded-IPv4":
        if rng.integers(2) == 0:
            # IPv4 in the low 32 bits
            ip = rng.integers(256, size=4).tolist()
            hot = int(rng.integers(4))
            ip[hot] = int(rng.integers(0x20, 256))
            return _byte_nybbles([0, 0, 0, 0] + ip)
        # one IPv4 byte per 16-bit group
        ip = rng.integers(256, size=4).tolist()
        while sum(1 for v in ip if v) < 2:
            # the value is drawn before the index
            ip[int(rng.integers(4))] = int(rng.integers(1, 256))
        return _byte_nybbles([b for v in ip for b in (0, v)])
    if pattern == "Low-byte":
        iid = [0] * 8
        if int(rng.integers(2)) == 1:  # the low byte of group 3
            iid[7] = int(rng.choice(_LOW_BYTE_LAST))
        else:  # the low byte of group 2
            iid[5] = int(rng.integers(1, 0x20))
        return _byte_nybbles(iid)
    if pattern == "Pattern-bytes":
        rep = int(rng.integers(0x20, 256))
        count = int(rng.integers(3, 9))
        spots = set(rng.choice(8, size=count, replace=False).tolist())
        others = iter(rng.integers(256, size=8 - count).tolist())  # in byte order
        return _byte_nybbles([rep if b in spots else next(others) for b in range(8)])
    if pattern == "Randomized":
        return rng.integers(16, size=16).tolist()
    raise ValueError(f"unknown pattern {pattern!r}")


def sample_shape(pattern: str, prefix: NybblePrefix, rng: np.random.Generator) -> NybbleSeq:
    """A random address under prefix whose structural label equals pattern.

    Subnet nybbles between the prefix and the interface identifier are
    uniform.  Resamples until the rule classifier agrees, so emitted seeds
    are classifiable by construction.
    """
    if len(prefix) > 16:
        raise ValueError("family prefixes must leave the interface identifier free")
    n_subnet = 16 - len(prefix)
    for _ in range(SHAPE_TRIES):
        # the 16 IID nybbles drawn here are dropped for the shaped IID; the
        # draws keep the generator stream, and so the seeds, as they were
        drawn = rng.integers(16, size=n_subnet + 16).tolist()
        seq = NybbleSeq(prefix.nybbles + bytes(drawn[:n_subnet] + _sample_iid(pattern, rng)))
        if classify_rfc(seq).class_name == pattern:
            return seq
    raise RuntimeError(f"could not realize pattern {pattern!r} under {prefix}")


def sample_conforming(family: PatternFamily, rng: np.random.Generator) -> NybbleSeq:
    prefix = family.prefixes[int(rng.integers(len(family.prefixes)))]
    return sample_shape(family.pattern, prefix, rng)


def sample_seeds(
    oracle: UniverseOracle,
    n: int,
    rng: np.random.Generator,
) -> list[NybbleSeq]:
    """n distinct active non-aliased addresses by rejection sampling."""
    families = oracle.spec.families
    if not families:
        raise ValueError("universe spec families is empty: no family to sample seeds from")
    seeds: list[NybbleSeq] = []
    seen: set[bytes] = set()
    attempts = 0
    while len(seeds) < n:
        if attempts >= SAMPLE_ATTEMPT_LIMIT:
            raise RuntimeError(
                f"gave up after {SAMPLE_ATTEMPT_LIMIT} attempts with "
                f"{len(seeds)}/{n} seeds; raise the family densities"
            )
        attempts += 1
        fam = families[int(rng.integers(len(families)))]
        seq = sample_conforming(fam, rng)
        if seq.nybbles in seen:
            continue
        if oracle.probe(seq, fam) is ProbeStatus.ACTIVE:  # sample_shape checked the label
            seen.add(seq.nybbles)
            seeds.append(seq)
    return seeds
