"""Deterministic synthetic address universe.

Stands in for a live scanner: a spec plants pattern families (structural
rule + prefixes + activity density) and aliased prefixes, and the oracle
answers probes deterministically via a keyed hash, so the active set T and
aliased set T_a are fixed by the spec alone.  Aliased prefixes respond to
everything, so aliased implies active.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .addr import AliasTrie, NybblePrefix, NybbleSeq, parse_prefix
from .classify import RFC_CLASS_NAMES, classify_rfc
from .fileio import atomic_write

SAMPLE_ATTEMPT_LIMIT = 10 ** 6

# last-group encodings that survive the classifier's port rule
_PORT_GROUPS = (
    0x15, 0x16, 0x17, 0x19, 0x35, 0x50, 0x6E, 0x7B, 0x8F,  # port as hex value
    0x21, 0x22, 0x23, 0x25, 0x53, 0x80,  # port digits read as hex
)
# low-byte values that would collide with the port rule when in the last group
_LOW_BYTE_EXCLUDED = {0x15, 0x16, 0x17, 0x19}


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
        if self.pattern not in RFC_CLASS_NAMES:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {self.density}")
        if not self.prefixes:
            raise ValueError(f"family {self.name!r} has no prefixes")


@dataclass(frozen=True)
class UniverseSpec:
    hash_key: int
    families: tuple[PatternFamily, ...]
    aliased_prefixes: tuple[NybblePrefix, ...] = ()

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
    def from_json_dict(cls, doc: dict) -> "UniverseSpec":
        families = tuple(
            PatternFamily(
                name=f["name"],
                pattern=f["pattern"],
                prefixes=tuple(parse_prefix(p) for p in f["prefixes"]),
                density=float(f["density"]),
            )
            for f in doc["families"]
        )
        return cls(
            hash_key=int(doc["hash_key"]),
            families=families,
            aliased_prefixes=tuple(parse_prefix(p) for p in doc.get("aliased_prefixes", [])),
        )

    def save(self, path: str) -> None:
        with atomic_write(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "UniverseSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def _is_prefix_of(a: NybblePrefix, b: NybblePrefix) -> bool:
    return len(a) <= len(b) and b.nybbles[: len(a)] == a.nybbles


@dataclass
class UniverseOracle:
    spec: UniverseSpec
    _key: bytes = field(init=False, repr=False)
    _aliases: AliasTrie = field(init=False, repr=False)

    def __post_init__(self) -> None:
        fams = self.spec.families
        for i in range(len(fams)):
            for j in range(i + 1, len(fams)):
                for p in fams[i].prefixes:
                    for q in fams[j].prefixes:
                        if _is_prefix_of(p, q) or _is_prefix_of(q, p):
                            raise ValueError(
                                f"family prefixes overlap: {p} ({fams[i].name}) "
                                f"and {q} ({fams[j].name})"
                            )
        self._key = self.spec.hash_key.to_bytes(16, "little", signed=False)
        self._aliases = AliasTrie(self.spec.aliased_prefixes)

    def _hash_unit(self, seq: NybbleSeq) -> float:
        h = hashlib.blake2b(bytes(seq.nybbles), key=self._key, digest_size=8)
        return int.from_bytes(h.digest(), "little") / 2.0 ** 64

    def probe(self, seq: NybbleSeq) -> ProbeStatus:
        """Deterministic activity answer for one address."""
        if self._aliases.match(seq) is not None:
            return ProbeStatus.ALIASED
        label = classify_rfc(seq).class_name
        for fam in self.spec.families:
            if label != fam.pattern:
                continue
            if any(p.matches(seq) for p in fam.prefixes):
                if self._hash_unit(seq) < fam.density:
                    return ProbeStatus.ACTIVE
                return ProbeStatus.INACTIVE
        return ProbeStatus.INACTIVE


# ---------------------------------------------------------------------------
# Structural-shape samplers
# ---------------------------------------------------------------------------


def _sample_iid(pattern: str, nyb: list[int], rng: np.random.Generator) -> None:
    """Overwrite nybbles 16..31 in place with the requested shape."""
    if pattern == "IEEE-derived":
        for p in range(16, 32):
            nyb[p] = int(rng.integers(16))
        nyb[22:26] = [0xF, 0xF, 0xF, 0xE]
    elif pattern == "Embedded-port":
        for p in range(16, 32):
            nyb[p] = 0
        group = int(rng.choice(_PORT_GROUPS))
        nyb[30] = group >> 4
        nyb[31] = group & 0xF
    elif pattern == "Embedded-IPv4":
        if rng.integers(2) == 0:
            # IPv4 in the low 32 bits
            for p in range(16, 24):
                nyb[p] = 0
            ip = [int(rng.integers(256)) for _ in range(4)]
            hot = int(rng.integers(4))
            ip[hot] = int(rng.integers(0x20, 256))
            for b, v in enumerate(ip):
                nyb[24 + 2 * b] = v >> 4
                nyb[24 + 2 * b + 1] = v & 0xF
        else:
            # one IPv4 byte per 16-bit group
            ip = [int(rng.integers(256)) for _ in range(4)]
            while sum(1 for v in ip if v) < 2:
                ip[int(rng.integers(4))] = int(rng.integers(1, 256))
            for g, v in enumerate(ip):
                nyb[16 + 4 * g] = 0
                nyb[16 + 4 * g + 1] = 0
                nyb[16 + 4 * g + 2] = v >> 4
                nyb[16 + 4 * g + 3] = v & 0xF
    elif pattern == "Low-byte":
        for p in range(16, 32):
            nyb[p] = 0
        slot = int(rng.integers(2))  # group 2 or group 3
        if slot == 1:
            choices = [v for v in range(1, 0x20) if v not in _LOW_BYTE_EXCLUDED]
            v = int(rng.choice(choices))
            nyb[30], nyb[31] = v >> 4, v & 0xF
        else:
            v = int(rng.integers(1, 0x20))
            nyb[26], nyb[27] = v >> 4, v & 0xF
    elif pattern == "Pattern-bytes":
        rep = int(rng.integers(0x20, 256))
        count = int(rng.integers(3, 9))
        spots = rng.choice(8, size=count, replace=False)
        for b in range(8):
            v = rep if b in spots else int(rng.integers(256))
            nyb[16 + 2 * b] = v >> 4
            nyb[16 + 2 * b + 1] = v & 0xF
    elif pattern == "Randomized":
        for p in range(16, 32):
            nyb[p] = int(rng.integers(16))
    else:
        raise ValueError(f"unknown pattern {pattern!r}")


def sample_shape(
    pattern: str,
    prefix: NybblePrefix,
    rng: np.random.Generator,
    max_tries: int = 100,
) -> NybbleSeq:
    """A random address under prefix whose structural label equals pattern.

    Subnet nybbles between the prefix and the interface identifier are
    uniform.  Resamples until the rule classifier agrees, so emitted seeds
    are classifiable by construction.
    """
    base = list(prefix.nybbles)
    if len(base) > 16:
        raise ValueError("family prefixes must leave the interface identifier free")
    for _ in range(max_tries):
        nyb = base + [int(rng.integers(16)) for _ in range(32 - len(base))]
        _sample_iid(pattern, nyb, rng)
        seq = NybbleSeq(tuple(nyb))
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
    seeds: list[NybbleSeq] = []
    seen: set[tuple[int, ...]] = set()
    families = oracle.spec.families
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
        if oracle.probe(seq) is ProbeStatus.ACTIVE:
            seen.add(seq.nybbles)
            seeds.append(seq)
    return seeds
