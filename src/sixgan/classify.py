"""Seed-corpus pattern classification.

Three methods partition a seed set into k addressing-pattern classes:

  1. rfc       - fixed-precedence structural rules over the interface
                 identifier (IEEE-derived, embedded-port, embedded-IPv4,
                 low-byte, pattern-bytes, randomized).
  2. entropy   - per-prefix nybble-entropy fingerprints clustered with
                 k-means.
  3. ipv62vec  - (value, position) skip-gram embeddings clustered with
                 DBSCAN, with an eps search to hit a requested class count.

All methods are deterministic given an RNG seed and always label every
seed (empty classes are dropped and class ids renumbered).
"""

from __future__ import annotations

import logging
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from .addr import NybblePrefix, NybbleSeq, parse_address
from .fileio import atomic_write

log = logging.getLogger("sixgan.classify")

METHOD_RFC = "RfcBased"
METHOD_ENTROPY = "EntropyClustering"
METHOD_IPV62VEC = "Ipv62Vec"

RFC_CLASS_NAMES = (
    "Embedded-IPv4",
    "Embedded-port",
    "IEEE-derived",
    "Low-byte",
    "Pattern-bytes",
    "Randomized",
)

DEFAULT_PORTS = frozenset({21, 22, 23, 25, 53, 80, 110, 123, 143, 443, 993, 995, 8080})


@dataclass(frozen=True)
class PatternLabel:
    method: str
    class_id: int
    class_name: str


@dataclass
class LabeledSeedCorpus:
    """Seeds with parallel labels; class ids form a gapless [0, k) range."""

    seeds: list[NybbleSeq]
    labels: list[PatternLabel]
    k: int
    class_index: list[list[int]] = field(default_factory=list)

    @classmethod
    def build(cls, seeds: list[NybbleSeq], method: str,
              raw_ids: list[int], names: dict[int, str]) -> "LabeledSeedCorpus":
        """Drop empty classes, renumber ids to [0, k), build the index."""
        if len(seeds) != len(raw_ids):
            raise ValueError("seeds and labels differ in length")
        present = sorted(set(raw_ids))
        remap = {old: new for new, old in enumerate(present)}
        labels = [
            PatternLabel(method, remap[r], names[r]) for r in raw_ids
        ]
        index: list[list[int]] = [[] for _ in present]
        for i, lab in enumerate(labels):
            index[lab.class_id].append(i)
        return cls(seeds=seeds, labels=labels, k=len(present), class_index=index)

    def class_seeds(self, class_id: int) -> list[NybbleSeq]:
        return [self.seeds[i] for i in self.class_index[class_id]]

    def class_counts(self) -> list[int]:
        return [len(ix) for ix in self.class_index]


@dataclass(frozen=True)
class EntropyFingerprint:
    prefix: NybblePrefix
    entropies: tuple[float, ...]  # one per nybble position 8..31
    members: tuple[int, ...]  # indices of the seeds under the prefix


# ---------------------------------------------------------------------------
# Method 1: structural rules
# ---------------------------------------------------------------------------


def _iid_bytes(seq: NybbleSeq) -> list[int]:
    iid = seq.iid
    return [iid[2 * i] * 16 + iid[2 * i + 1] for i in range(8)]


def _iid_groups(seq: NybbleSeq) -> list[int]:
    iid = seq.iid
    return [
        iid[4 * i] * 4096 + iid[4 * i + 1] * 256 + iid[4 * i + 2] * 16 + iid[4 * i + 3]
        for i in range(4)
    ]


def classify_rfc(seq: NybbleSeq, port_list: frozenset[int] = DEFAULT_PORTS) -> PatternLabel:
    """Structural pattern of an address, first matching rule wins.

    Precedence: IEEE-derived, Embedded-port, Embedded-IPv4, Low-byte,
    Pattern-bytes, Randomized.  More structurally specific shapes are
    tested first so overlaps resolve deterministically.
    """
    iid = seq.iid
    ibytes = _iid_bytes(seq)
    groups = _iid_groups(seq)

    def label(name: str) -> PatternLabel:
        return PatternLabel(METHOD_RFC, RFC_CLASS_NAMES.index(name), name)

    # (1) EUI-64 marker: nybbles 6..9 of the IID spell fffe
    if iid[6:10] == (0xF, 0xF, 0xF, 0xE):
        return label("IEEE-derived")

    # (2) service port in the last group, rest of the IID zero
    if all(b == 0 for b in ibytes[:7]):
        group_hex = f"{groups[3]:x}"
        as_decimal = int(group_hex) if group_hex.isdigit() else None
        if groups[3] in port_list or as_decimal in port_list:
            return label("Embedded-port")

    # (3a) IPv4 in the low 32 bits as raw hex
    low4 = ibytes[4:8]
    if all(b == 0 for b in ibytes[:4]) and any(b != 0 for b in low4) and max(low4) >= 0x20:
        return label("Embedded-IPv4")
    # (3b) one IPv4 byte per 16-bit group
    if all(g <= 0xFF for g in groups) and sum(1 for g in groups if g != 0) >= 2:
        return label("Embedded-IPv4")

    # (4) small values confined to the two lowest groups
    if groups[0] == 0 and groups[1] == 0 and groups[2] <= 0xFF and groups[3] <= 0xFF \
            and any(g != 0 for g in groups):
        return label("Low-byte")

    # (5) a repeated byte value dominates the IID
    if any(n >= 3 for n in Counter(ibytes).values()) and any(b != 0 for b in ibytes):
        return label("Pattern-bytes")

    return label("Randomized")


def classify_rfc_corpus(seeds: list[NybbleSeq],
                        port_list: frozenset[int] = DEFAULT_PORTS) -> LabeledSeedCorpus:
    raw = [classify_rfc(s, port_list).class_id for s in seeds]
    names = dict(enumerate(RFC_CLASS_NAMES))
    return LabeledSeedCorpus.build(seeds, METHOD_RFC, raw, names)


# ---------------------------------------------------------------------------
# Method 2: entropy fingerprints + k-means
# ---------------------------------------------------------------------------


def _entropy16(values: list[int]) -> float:
    counts = np.bincount(values, minlength=16)
    freq = counts[counts > 0] / len(values)
    return float(-(freq * (np.log(freq) / np.log(16.0))).sum())


def _fingerprint_vector(group: list[NybbleSeq]) -> tuple[float, ...]:
    cols = np.array([s.nybbles for s in group])  # [n, 32]
    return tuple(_entropy16(cols[:, p].tolist()) for p in range(8, 32))


def entropy_fingerprints(
    seeds: list[NybbleSeq],
    fp_prefix_len: int = 8,
    min_group: int = 10,
) -> tuple[list[EntropyFingerprint], dict[tuple[int, ...], list[int]]]:
    """Per-prefix nybble-entropy profiles.

    Groups seeds by their first fp_prefix_len nybbles; prefix groups with
    at least min_group members become fingerprints, which keep their seed
    indices.  Entropy is Shannon base 16 so every entry lies in [0, 1].
    Returns the fingerprints and the small groups (prefix nybbles -> seed
    indices) that were held back.
    """
    if not seeds:
        raise ValueError("seed list is empty")
    by_prefix: dict[tuple[int, ...], list[int]] = defaultdict(list)
    for i, s in enumerate(seeds):
        by_prefix[s.nybbles[:fp_prefix_len]].append(i)
    fingerprints = []
    small: dict[tuple[int, ...], list[int]] = {}
    for nybs, idxs in sorted(by_prefix.items()):
        if len(idxs) >= min_group:
            fingerprints.append(EntropyFingerprint(
                prefix=NybblePrefix(nybbles=nybs),
                entropies=_fingerprint_vector([seeds[i] for i in idxs]),
                members=tuple(idxs),
            ))
        else:
            small[nybs] = idxs
    return fingerprints, small


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding.

    Deterministic given seed.  Empty clusters are re-seeded with the point
    farthest from its assigned centroid.  Returns (assignments, centroids).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points ({n})")
    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[j] = points[rng.integers(n)]
        else:
            centroids[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))

    prev_sse = np.inf
    assign = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = dists.argmin(axis=1)
        for j in range(k):
            if not (assign == j).any():
                # re-seed the empty cluster with the worst-fit point
                cur = ((points - centroids[assign]) ** 2).sum(axis=1)
                far = int(cur.argmax())
                centroids[j] = points[far]
                assign[far] = j
        sse = float(((points - centroids[assign]) ** 2).sum())
        if sse > prev_sse + 1e-9:
            raise RuntimeError(f"k-means objective increased from {prev_sse} to {sse}")
        new_centroids = np.array([points[assign == j].mean(axis=0) for j in range(k)])
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        prev_sse = sse
        if shift < tol:
            break
    dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assign = dists.argmin(axis=1)
    return assign, centroids


def classify_entropy(
    seeds: list[NybbleSeq],
    k: int,
    fp_prefix_len: int = 8,
    seed: int = 0,
    min_group: int = 10,
) -> LabeledSeedCorpus:
    """Cluster prefix fingerprints; every address inherits its prefix's class.

    Small prefix groups (below min_group) are assigned to the nearest
    centroid of their own noisy fingerprint; singleton prefixes go to the
    globally largest cluster.
    """
    fps, small = entropy_fingerprints(seeds, fp_prefix_len, min_group)
    if len(fps) < k:
        raise ValueError(
            f"only {len(fps)} prefix groups of size >= {min_group}; "
            f"need at least k={k}. Use a smaller k or a shorter fp_prefix_len."
        )
    matrix = np.array([fp.entropies for fp in fps])
    assign, centroids = kmeans(matrix, k, seed=seed)

    raw_ids = [0] * len(seeds)
    cluster_size = np.zeros(k, dtype=int)
    for fp, cid in zip(fps, assign):
        for i in fp.members:
            raw_ids[i] = int(cid)
        cluster_size[cid] += len(fp.members)

    largest = int(cluster_size.argmax())
    for nybs, idxs in small.items():
        if len(idxs) == 1:
            raw_ids[idxs[0]] = largest
            continue
        vec = np.array(_fingerprint_vector([seeds[i] for i in idxs]))
        nearest = int(((centroids - vec) ** 2).sum(axis=1).argmin())
        for i in idxs:
            raw_ids[i] = nearest
    names = {cid: f"cluster-{cid}" for cid in range(k)}
    return LabeledSeedCorpus.build(seeds, METHOD_ENTROPY, raw_ids, names)


# ---------------------------------------------------------------------------
# Method 3: skip-gram embeddings + DBSCAN
# ---------------------------------------------------------------------------


def _subtract_rows_at(w: np.ndarray, flat_rows: np.ndarray, vals: np.ndarray) -> None:
    """np.subtract.at(w, rows, vals), applied to the flat view of w.

    flat_rows holds rows[i] * dim + d for each w[rows[i], d].  Every element
    gets the same subtractions in the same order as in the row form, so the
    result is bit-identical, and NumPy's ufunc.at is far faster on a 1-D
    operand.  reshape(-1) of a non-contiguous array is a copy that the
    updates would miss, so w must be C-contiguous.
    """
    if not w.flags.c_contiguous:
        raise ValueError("w must be C-contiguous so its flat view aliases it")
    np.subtract.at(w.reshape(-1), flat_rows.reshape(-1), vals.reshape(-1))


_MEAN_BLOCK = 64  # sentences per gather of the final average, so it is never [n, 32, dim]


def ipv62vec_embed(
    seeds: list[NybbleSeq],
    dim: int = 100,
    window: int = 5,
    negatives: int = 5,
    epochs: int = 5,
    seed: int = 0,
    lr: float = 0.05,
) -> np.ndarray:
    """Per-address vectors from (value, position) skip-gram embeddings.

    Each address is a 32-word sentence whose words are (nybble value,
    position) pairs, a vocabulary of at most 512 words.  A skip-gram model
    with negative sampling trains over all sentences; the address vector
    is the mean of its word vectors.  Deterministic given seed.
    """
    if not seeds:
        raise ValueError("seed list is empty")
    rng = np.random.default_rng(seed)
    vocab = 32 * 16
    sentences = 16 * np.arange(32) + np.array([s.nybbles for s in seeds])  # [n, 32] word ids

    counts = np.bincount(sentences.reshape(-1), minlength=vocab).astype(np.float64)
    noise = counts ** 0.75
    noise /= noise.sum()

    w_in = (rng.random((vocab, dim)) - 0.5) / dim
    w_out = np.zeros((vocab, dim))
    noise_cdf = np.cumsum(noise)
    noise_cdf[-1] = 1.0
    # flat_index[word] holds the indices of that word's row in a flat view
    flat_index = np.arange(vocab * dim).reshape(vocab, dim)

    # all (center position, context position) pairs; reused for every sentence
    pairs = [(p, c) for p in range(32)
             for c in range(max(0, p - window), min(32, p + window + 1)) if c != p]
    center_pos, context_pos = np.array(pairs).T
    n_pairs = len(pairs)
    # [P, neg+1, dim] work arrays, reused every step: the allocator hands a
    # freed array this size back to the OS, so a fresh one page-faults again
    u = np.empty((n_pairs, negatives + 1, dim))
    flat_targets = np.empty(u.shape, dtype=flat_index.dtype)

    n_sent = len(sentences)
    total_steps = epochs * n_sent
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n_sent)
        for si in order:
            sent = sentences[si]
            cur_lr = max(lr * (1.0 - step / max(total_steps, 1)), lr * 1e-2)
            step += 1
            centers = sent[center_pos]  # [P]
            targets = np.empty((n_pairs, negatives + 1), dtype=int)
            targets[:, 0] = sent[context_pos]
            targets[:, 1:] = np.searchsorted(noise_cdf, rng.random((n_pairs, negatives)))
            v = w_in[centers]  # [P, dim]
            # ids are always in range; mode="raise" would copy through a buffer
            np.take(w_out, targets, axis=0, out=u, mode="clip")
            scores = 1.0 / (1.0 + np.exp(-np.einsum("pd,pnd->pn", v, u)))
            # label 1 for the context word, 0 for the negatives (x - 0.0 == x)
            scores[:, 0] -= 1.0
            gscore = scores * cur_lr  # [P, neg+1]
            # one batched update per sentence; duplicate rows accumulate
            _subtract_rows_at(w_in, flat_index[centers], np.einsum("pn,pnd->pd", gscore, u))
            # u is spent once w_in is updated; it now takes w_out's update values
            np.take(flat_index, targets, axis=0, out=flat_targets, mode="clip")
            np.multiply(gscore[:, :, None], v[:, None, :], out=u)
            _subtract_rows_at(w_out, flat_targets, u)
    vectors = np.empty((n_sent, dim))
    for lo in range(0, n_sent, _MEAN_BLOCK):
        w_in[sentences[lo:lo + _MEAN_BLOCK]].mean(axis=1, out=vectors[lo:lo + _MEAN_BLOCK])
    return vectors


_D2_BLOCK = 4  # rows per block of the squared-distance matrix


def _sq_dists(vectors: np.ndarray) -> np.ndarray:
    """[n, n] squared Euclidean distances, filled _D2_BLOCK rows at a time."""
    n = len(vectors)
    d2 = np.empty((n, n))
    for lo in range(0, n, _D2_BLOCK):
        block = vectors[lo:lo + _D2_BLOCK]
        d2[lo:lo + _D2_BLOCK] = ((block[:, None, :] - vectors[None, :, :]) ** 2).sum(axis=2)
    return d2


def dbscan(
    d2: np.ndarray,
    eps: float,
    min_pts: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density clustering with Euclidean distance.

    d2 is the [n, n] matrix of squared distances between the points.
    Returns (raw_labels, assigned_labels, core_mask).  Raw labels use -1
    for noise; assigned_labels additionally attach each noise point to the
    cluster of its nearest core point (unchanged if no cluster exists).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    n = d2.shape[0]
    neighb = d2 <= eps * eps  # includes self
    core = neighb.sum(axis=1) >= min_pts

    labels = np.full(n, -1, dtype=int)
    cluster = 0
    for start in range(n):
        if not core[start] or labels[start] != -1:
            continue
        # grow the cluster from this unvisited core point
        labels[start] = cluster
        frontier = [start]
        while frontier:
            p = frontier.pop()
            for q in np.flatnonzero(neighb[p]):
                if labels[q] == -1:
                    labels[q] = cluster
                    if core[q]:
                        frontier.append(int(q))
        cluster += 1

    assigned = labels.copy()
    if cluster > 0 and core.any():
        core_idx = np.flatnonzero(core)
        for p in np.flatnonzero(labels == -1):
            nearest = core_idx[d2[p, core_idx].argmin()]
            assigned[p] = labels[nearest]
    return labels, assigned, core


def _default_eps(d2: np.ndarray, min_pts: int) -> float:
    """Median distance to the min_pts-th neighbour, from squared distances."""
    kth = np.sort(np.sqrt(d2), axis=1)[:, min(min_pts, d2.shape[0] - 1)]
    return float(np.median(kth)) or 1e-6


def classify_ipv62vec(
    seeds: list[NybbleSeq],
    target_k: int | None = None,
    seed: int = 0,
    dim: int = 100,
    min_pts: int = 5,
    bisection_steps: int = 30,
) -> LabeledSeedCorpus:
    """Embed seeds, density-cluster them, optionally hunting a class count.

    With target_k set, eps is bisected (min_pts fixed) until the cluster
    count matches or the step budget runs out; the closest achieved count
    wins, with a warning on a miss.
    """
    vectors = ipv62vec_embed(seeds, dim=dim, seed=seed)
    d2 = _sq_dists(vectors)
    if target_k is None:
        raw, assigned, core = dbscan(d2, _default_eps(d2, min_pts), min_pts)
    else:
        lo = 1e-9
        hi = float(np.sqrt(d2.max())) + 1e-9
        best = None
        best_gap = None
        for _ in range(bisection_steps):
            mid = 0.5 * (lo + hi)
            raw, assigned, core = dbscan(d2, mid, min_pts)
            count = int(raw.max()) + 1
            gap = abs(count - target_k)
            if best is None or gap < best_gap:
                best, best_gap = (raw, assigned, core), gap
            if count == target_k:
                break
            if count == 0 or count > target_k:
                lo = mid  # too fragmented: grow the neighborhood
            else:
                hi = mid
        raw, assigned, core = best
        achieved = int(raw.max()) + 1
        if achieved != target_k:
            log.warning(
                "eps search reached %d clusters, not the requested %d",
                achieved, target_k,
            )
    if int(raw.max()) < 0:
        log.warning("no dense cluster found; labeling all seeds as one class")
        assigned = np.zeros(len(seeds), dtype=int)
    names = {cid: f"cluster-{cid}" for cid in range(int(assigned.max()) + 1)}
    return LabeledSeedCorpus.build(seeds, METHOD_IPV62VEC, [int(c) for c in assigned], names)


# ---------------------------------------------------------------------------
# Labels file
# ---------------------------------------------------------------------------


def write_labels_file(path: str, corpus: LabeledSeedCorpus) -> None:
    """One line per seed: address<TAB>method<TAB>class_id<TAB>class_name."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for seq, lab in zip(corpus.seeds, corpus.labels):
            fh.write(f"{seq}\t{lab.method}\t{lab.class_id}\t{lab.class_name}\n")


def read_labels_file(path: str) -> LabeledSeedCorpus:
    seeds: list[NybbleSeq] = []
    raw_ids: list[int] = []
    names: dict[int, str] = {}
    method = ""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
            try:
                seeds.append(parse_address(parts[0]))
                cid = int(parts[2])
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
            method = parts[1]
            raw_ids.append(cid)
            names[cid] = parts[3]
    if not seeds:
        raise ValueError(f"{path}: no labeled seeds found")
    return LabeledSeedCorpus.build(seeds, method, raw_ids, names)
