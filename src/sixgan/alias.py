"""Aliased-prefix filtering of candidate sets.

An aliased region answers every probe, so hitting one proves nothing.
An AliasTrie holds the longest-prefix matcher over the known aliased
prefixes; training reads it for the alias penalty, whose strength is
RewardConfig.lam, and filter_aliased removes aliased addresses from a
candidate set after the fact.
"""

from __future__ import annotations

from .addr import AliasTrie, NybbleSeq


def filter_aliased(trie: AliasTrie, addresses: list[NybbleSeq]) -> tuple[list[NybbleSeq], list[NybbleSeq]]:
    """Partition addresses into (kept, removed) by aliased-prefix match."""
    kept: list[NybbleSeq] = []
    removed: list[NybbleSeq] = []
    for seq in addresses:
        (removed if trie.match(seq) is not None else kept).append(seq)
    return kept, removed
