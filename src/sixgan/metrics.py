"""Candidate-set quality metrics and budget allocation.

Similarity metrics compare candidates against seeds (imitation, novelty)
and against each other (diversity); the evaluation report adds activity
accounting against a probe oracle: hit rate, generation rate, the valid
target set and the loss count.  Budget allocation splits a candidate
budget across patterns proportionally to measured generation rates with
exact largest-remainder rounding.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict
from fractions import Fraction

import numpy as np

from .addr import NybbleSeq
from .oracle import ProbeStatus, UniverseOracle


@dataclass
class CandidateSet:
    addresses: list[NybbleSeq]
    pattern_id: int | None = None

    def __post_init__(self) -> None:
        if len({a.nybbles for a in self.addresses}) != len(self.addresses):
            raise ValueError("candidate set contains duplicates")

    @classmethod
    def dedup(cls, addresses: list[NybbleSeq], pattern_id: int | None = None) -> "CandidateSet":
        seen: set[tuple[int, ...]] = set()
        unique = []
        for a in addresses:
            if a.nybbles not in seen:
                seen.add(a.nybbles)
                unique.append(a)
        return cls(unique, pattern_id)

    def __len__(self) -> int:
        return len(self.addresses)


@dataclass
class EvaluationReport:
    n_candidates: int
    n_active: int  # |C intersect T|
    n_aliased: int  # |C intersect T_a|
    n_in_seeds: int  # |C intersect S|
    n_valid: int  # |C-hat|
    loss: int  # L_tau = |C| - |C-hat|
    hit_rate: float
    generation_rate: float
    aliased_pct: float
    pattern_quality: float | None
    pattern_quality_max: float | None
    novelty: float | None
    diversity: float | None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    CSV_FIELDS = (
        "n_candidates", "n_active", "n_aliased", "n_in_seeds", "n_valid",
        "loss", "hit_rate", "generation_rate", "aliased_pct",
        "pattern_quality", "pattern_quality_max", "novelty", "diversity",
    )

    def csv_row(self) -> list:
        d = asdict(self)
        return [d[f] if d[f] is not None else "" for f in self.CSV_FIELDS]


# ---------------------------------------------------------------------------
# Similarity metrics
# ---------------------------------------------------------------------------


_BLOCK = 256  # rows per block of the pairwise similarity kernels


def _matrix(seqs: list[NybbleSeq]) -> np.ndarray:
    return np.array([s.nybbles for s in seqs], dtype=np.float64)


def _onehot(seqs: list[NybbleSeq]) -> np.ndarray:
    """[n, 512] float32 one-hot of the (position, value) pairs of each address."""
    tokens = np.array([s.nybbles for s in seqs], dtype=np.intp)
    return np.eye(16, dtype=np.float32)[tokens].reshape(len(seqs), 512)


def _nearest_jaccard(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Per row of ca, the largest Jaccard to a row of cb (other than itself if ca is cb).

    m agreeing positions, an exact one-hot dot product, give m/(64-m); that
    grows with m, so it is applied to each row's largest count.  Blocks of
    _BLOCK rows bound the working memory to _BLOCK x len(cb).  Against
    itself, a block is multiplied only by its own and the later rows: each
    product's row maxima go to the block's rows and its column maxima to
    the later rows, so two rows in different blocks are multiplied once,
    not twice.  The counts are integers of at most 32, exact in float32, so
    every maximum is the same as the whole matrix's.
    """
    best = np.full(len(ca), -1.0)
    for lo in range(0, len(ca), _BLOCK):
        hi = lo + _BLOCK
        if ca is cb:
            counts = ca[lo:hi] @ ca[lo:].T
            np.fill_diagonal(counts, -1.0)
            np.maximum(best[hi:], counts[:, hi - lo:].max(axis=0, initial=-1.0), out=best[hi:])
        else:
            counts = ca[lo:hi] @ cb.T
        np.maximum(best[lo:hi], counts.max(axis=1), out=best[lo:hi])
    return best / (64.0 - best)


def _seed_cosine_bounds(
    candidates: list[NybbleSeq], seeds: list[NybbleSeq]
) -> tuple[np.ndarray, np.ndarray]:
    """Per candidate, the (min, max) cosine to any seed: both pattern qualities.

    Nybbles are integers, so every dot product is an exact integer and a
    block of _BLOCK rows holds the same cosines as the whole matrix would;
    reducing each block at once bounds the working memory to _BLOCK x len(seeds).
    """
    if not candidates or not seeds:
        raise ValueError("pattern_quality requires non-empty candidates and seeds")
    ca, cb = _matrix(candidates), _matrix(seeds)
    na = np.sqrt((ca * ca).sum(axis=1))
    nb = np.sqrt((cb * cb).sum(axis=1))
    b_zero = nb == 0.0
    lows, highs = np.empty(len(ca)), np.empty(len(ca))
    for lo in range(0, len(ca), _BLOCK):
        hi = lo + _BLOCK
        sims = ca[lo:hi] @ cb.T
        with np.errstate(invalid="ignore", divide="ignore"):
            sims /= np.outer(na[lo:hi], nb)
        a_zero = na[lo:hi] == 0.0
        if a_zero.any() or b_zero.any():
            sims[a_zero, :] = 0.0
            sims[:, b_zero] = 0.0
            sims[np.ix_(a_zero, b_zero)] = 1.0
        sims.min(axis=1, out=lows[lo:hi])
        sims.max(axis=1, out=highs[lo:hi])
    return lows, highs


def pattern_quality(candidates: list[NybbleSeq], seeds: list[NybbleSeq]) -> float:
    """Mean over candidates of the minimum cosine similarity to any seed.

    Cosine is over the raw 32-dim nybble vectors.  All-zero vectors have
    no direction: one zero vector scores 0, two score 1 (identical
    addresses).
    """
    return float(_seed_cosine_bounds(candidates, seeds)[0].mean())


def pattern_quality_max(candidates: list[NybbleSeq], seeds: list[NybbleSeq]) -> float:
    """Nearest-seed variant: mean of the maximum similarity per candidate."""
    return float(_seed_cosine_bounds(candidates, seeds)[1].mean())


def novelty(candidates: list[NybbleSeq], seeds: list[NybbleSeq]) -> float:
    """100 x mean distance-from-closest-seed under the nybble-set Jaccard."""
    if not candidates or not seeds:
        raise ValueError("novelty requires non-empty candidates and seeds")
    sims = _nearest_jaccard(_onehot(candidates), _onehot(seeds))
    return float(100.0 / len(candidates) * (1.0 - sims).sum())


def diversity(candidates: list[NybbleSeq]) -> float:
    """100 x mean distance from each candidate to its nearest other candidate."""
    if len(candidates) < 2:
        raise ValueError("diversity requires at least 2 candidates")
    onehot = _onehot(candidates)
    sims = _nearest_jaccard(onehot, onehot)
    return float(100.0 / len(candidates) * (1.0 - sims).sum())


# ---------------------------------------------------------------------------
# Oracle-based evaluation
# ---------------------------------------------------------------------------


def evaluate(
    candidates: CandidateSet,
    seeds: list[NybbleSeq],
    oracle: UniverseOracle,
) -> EvaluationReport:
    """Probe every candidate and assemble the full report.

    hit        = |C∩T − C∩T_a| / |C|
    generation = |C∩T − C∩T_a − C∩S| / |C|
    valid set  = C∩T minus aliased targets and seeds; loss = |C| − |valid|
    """
    seed_keys = {s.nybbles for s in seeds}
    n = len(candidates)
    n_active = n_aliased = n_in_seeds = n_hit = n_valid = 0
    for seq in candidates.addresses:
        status = oracle.probe(seq)
        active = status is not ProbeStatus.INACTIVE
        aliased = status is ProbeStatus.ALIASED
        in_seeds = seq.nybbles in seed_keys
        n_active += active
        n_aliased += aliased
        n_in_seeds += in_seeds
        if active and not aliased:
            n_hit += 1
            if not in_seeds:
                n_valid += 1
    hit_rate = n_hit / n if n else 0.0
    generation_rate = n_valid / n if n else 0.0
    aliased_pct = n_aliased / n if n else 0.0
    pq = pqx = nov = div = None
    if n and seeds:
        lows, highs = _seed_cosine_bounds(candidates.addresses, seeds)
        pq, pqx = float(lows.mean()), float(highs.mean())
        nov = novelty(candidates.addresses, seeds)
    if n >= 2:
        div = diversity(candidates.addresses)
    return EvaluationReport(
        n_candidates=n,
        n_active=n_active,
        n_aliased=n_aliased,
        n_in_seeds=n_in_seeds,
        n_valid=n_valid,
        loss=n - n_valid,
        hit_rate=hit_rate,
        generation_rate=generation_rate,
        aliased_pct=aliased_pct,
        pattern_quality=pq,
        pattern_quality_max=pqx,
        novelty=nov,
        diversity=div,
    )


def write_report_files(report: EvaluationReport, json_path: str, csv_path: str) -> None:
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EvaluationReport.CSV_FIELDS)
        writer.writerow(report.csv_row())


# ---------------------------------------------------------------------------
# Budget allocation
# ---------------------------------------------------------------------------


def allocate_budget(rates: list[float], total: int) -> list[int]:
    """Split total proportionally to rates, conserving the sum exactly.

    Largest-remainder rounding over exact rational shares; remainder ties
    break toward the lowest index.  All-zero or negative rates are errors.
    """
    if total < 0:
        raise ValueError("total budget must be non-negative")
    if any(r < 0 for r in rates):
        raise ValueError("rates must be non-negative")
    if not rates or all(r == 0 for r in rates):
        raise ValueError("at least one rate must be positive")
    exact = [Fraction(r) for r in rates]
    denom = sum(exact)
    shares = [r * total / denom for r in exact]
    floors = [int(s) for s in shares]  # Fraction truncates toward zero
    leftover = total - sum(floors)
    order = sorted(range(len(rates)), key=lambda i: (-(shares[i] - floors[i]), i))
    budgets = list(floors)
    for i in order[:leftover]:
        budgets[i] += 1
    return budgets
