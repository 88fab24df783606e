"""Aliased-prefix detector: filters candidate sets.

An aliased region answers every probe, so hitting one proves nothing.
The detector holds the longest-prefix matcher over the known aliased
prefixes; training reads its matcher for the alias penalty, whose
strength is RewardConfig.lam, and filter_aliased removes aliased
addresses from a candidate set after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .addr import AliasTrie, NybblePrefix, NybbleSeq, load_alias_file


@dataclass
class AliasDetector:
    trie: AliasTrie = field(default_factory=AliasTrie)

    @classmethod
    def from_file(cls, path: str) -> "AliasDetector":
        return cls(trie=AliasTrie(load_alias_file(path)))

    @classmethod
    def from_prefixes(cls, prefixes: list[NybblePrefix]) -> "AliasDetector":
        return cls(trie=AliasTrie(prefixes))


def filter_aliased(det: AliasDetector, addresses: list[NybbleSeq]) -> tuple[list[NybbleSeq], list[NybbleSeq]]:
    """Partition addresses into (kept, removed) by aliased-prefix match."""
    kept: list[NybbleSeq] = []
    removed: list[NybbleSeq] = []
    for seq in addresses:
        (removed if det.trie.match(seq) is not None else kept).append(seq)
    return kept, removed
