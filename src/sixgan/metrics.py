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
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .addr import NybbleSeq, token_matrix
from .fileio import atomic_write, write_json
from .oracle import ProbeStatus, UniverseOracle


@dataclass
class CandidateSet:
    addresses: list[NybbleSeq]

    def __post_init__(self) -> None:
        if len(set(self.addresses)) != len(self.addresses):
            raise ValueError("candidate set contains duplicates")

    @classmethod
    def dedup(cls, addresses: list[NybbleSeq]) -> "CandidateSet":
        """The first occurrence of each address, in order."""
        return cls(list(dict.fromkeys(addresses)))

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


# ---------------------------------------------------------------------------
# Similarity metrics
# ---------------------------------------------------------------------------


# Tile shape of the pairwise similarity kernels: each multiplies _ROWS
# addresses of one list by _COLS of the other at a time.  _COLS is a
# multiple of _ROWS, so a row tile never straddles a column-tile edge.
_ROWS = 256
_COLS = 1024


def _onehot_into(buf: np.ndarray, tokens: np.ndarray, value0: np.ndarray) -> np.ndarray:
    """Fill buf's first len(tokens) rows with the [., 512] float32 one-hot of
    each address's (position, value) pairs and return them; value0[i, p] is
    the flat index of value 0 at row i and nybble position p."""
    out = buf[:len(tokens)]
    out.fill(0.0)
    out.reshape(-1)[value0[:len(tokens)] + tokens] = 1.0
    return out


def _nearest_jaccard(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Per row of ta, the largest Jaccard to a row of tb (other than itself if ta is tb).

    m agreeing positions, an exact one-hot dot product, give m/(64-m); that
    grows with m, so it is applied to each row's largest count.  Counts come
    in tiles of _ROWS rows of ta by _COLS rows of tb, from one-hot tiles
    filled into reused buffers (each tb tile once), so the working memory
    does not grow with either list; each product is the [_COLS, _ROWS]
    transpose of its tile, the faster orientation for BLAS.  Against
    itself, only the tiles on or right of the diagonal are multiplied, with
    the diagonal square's lower triangle, diagonal included, set to -1; a
    tile's row maxima go to its rows and its column maxima, kept
    elementwise over a column tile's row tiles, to its columns, so every
    pair is multiplied once.  The counts are integers of at most 32, exact
    in float32, so every maximum is the same as the whole matrix's.
    """
    same = ta is tb
    rows = np.empty((_ROWS, 512), np.float32)
    cols = np.empty((_COLS, 512), np.float32)
    value0 = np.arange(_COLS)[:, None] * 512 + np.arange(32) * 16
    if same:
        col_best = np.empty((_COLS, _ROWS), np.float32)
        upper = np.tri(_ROWS, dtype=bool).T  # column <= row, in a product's [col, row] layout
    best = np.full(len(ta), -1.0)
    for clo in range(0, len(tb), _COLS):
        chi = min(clo + _COLS, len(tb))
        b = _onehot_into(cols, tb[clo:chi], value0)
        if same:
            col_best.fill(-1.0)
        for lo in range(0, chi if same else len(ta), _ROWS):
            hi = min(lo + _ROWS, len(ta))
            start = max(lo, clo) if same else clo
            counts = b[start - clo:] @ _onehot_into(rows, ta[lo:hi], value0).T
            if same:
                if lo >= clo:
                    np.copyto(counts[:hi - lo], -1.0, where=upper[:hi - lo, :hi - lo])
                tile_best = col_best[start - clo:chi - clo, :hi - lo]
                np.maximum(tile_best, counts, out=tile_best)
            np.maximum(best[lo:hi], counts.max(axis=0), out=best[lo:hi])
        if same:
            np.maximum(best[clo:chi], col_best[:chi - clo].max(axis=1), out=best[clo:chi])
    return best / (64.0 - best)


def _seed_cosine_bounds(
    candidates: list[NybbleSeq], seeds: list[NybbleSeq]
) -> tuple[np.ndarray, np.ndarray]:
    """Per candidate, the (min, max) cosine to any seed: both pattern qualities.

    Nybbles are integers, so every dot product and squared norm is an exact
    integer and a [_ROWS, _COLS] tile, cast to float64 from the token
    matrices, holds the same cosines as the whole matrix would; reducing
    each tile at once bounds the working memory whatever the list lengths.
    """
    if not candidates or not seeds:
        raise ValueError("pattern_quality requires non-empty candidates and seeds")
    ta, tb = token_matrix(candidates), token_matrix(seeds)
    lows, highs = np.full(len(ta), np.inf), np.full(len(ta), -np.inf)
    for lo in range(0, len(ta), _ROWS):
        hi = min(lo + _ROWS, len(ta))
        a = ta[lo:hi].astype(np.float64)
        na = np.sqrt((a * a).sum(axis=1))
        a_zero = na == 0.0
        for clo in range(0, len(tb), _COLS):
            chi = min(clo + _COLS, len(tb))
            b = tb[clo:chi].astype(np.float64)
            nb = np.sqrt((b * b).sum(axis=1))
            b_zero = nb == 0.0
            sims = a @ b.T
            with np.errstate(invalid="ignore", divide="ignore"):
                sims /= np.outer(na, nb)
            if a_zero.any() or b_zero.any():
                sims[a_zero, :] = 0.0
                sims[:, b_zero] = 0.0
                sims[np.ix_(a_zero, b_zero)] = 1.0
            np.minimum(lows[lo:hi], sims.min(axis=1), out=lows[lo:hi])
            np.maximum(highs[lo:hi], sims.max(axis=1), out=highs[lo:hi])
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
    sims = _nearest_jaccard(token_matrix(candidates), token_matrix(seeds))
    return float(100.0 / len(candidates) * (1.0 - sims).sum())


def diversity(candidates: list[NybbleSeq]) -> float:
    """100 x mean distance from each candidate to its nearest other candidate."""
    if len(candidates) < 2:
        raise ValueError("diversity requires at least 2 candidates")
    tokens = token_matrix(candidates)
    sims = _nearest_jaccard(tokens, tokens)
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
    """report.json, and report.csv: the field names in field order, then the
    values, a None as an empty cell."""
    write_json(json_path, report)
    names = [f.name for f in fields(report)]
    values = [getattr(report, name) for name in names]
    with atomic_write(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerow(["" if v is None else v for v in values])


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
