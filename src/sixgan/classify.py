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
import struct
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .addr import NybblePrefix, NybbleSeq, parse_address, token_matrix
from .fileio import numbered_lines, write_lines

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

PORTS = frozenset({21, 22, 23, 25, 53, 80, 110, 123, 143, 443, 993, 995, 8080})


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


# one shared label per rule; PatternLabel is frozen
(_EMBEDDED_IPV4, _EMBEDDED_PORT, _IEEE_DERIVED, _LOW_BYTE, _PATTERN_BYTES, _RANDOMIZED) = (
    PatternLabel(METHOD_RFC, i, name) for i, name in enumerate(RFC_CLASS_NAMES))
_EUI64_MARKER = b"\x0f\x0f\x0f\x0e"
_GROUPS = struct.Struct(">4H")


def classify_rfc(seq: NybbleSeq) -> PatternLabel:
    """Structural pattern of an address, first matching rule wins.

    Precedence: IEEE-derived, Embedded-port, Embedded-IPv4, Low-byte,
    Pattern-bytes, Randomized.  More structurally specific shapes are
    tested first so overlaps resolve deterministically.
    """
    iid = seq.iid
    # (1) EUI-64 marker: nybbles 6..9 of the IID spell fffe
    if iid[6:10] == _EUI64_MARKER:
        return _IEEE_DERIVED

    # the IID's 8 bytes: the low hex digit of each nybble byte, read as hex
    ib = bytes.fromhex(iid.hex()[1::2])
    g0, g1, g2, g3 = _GROUPS.unpack(ib)

    # (2) service port in the last group, rest of the IID zero
    if not any(ib[:7]):
        group_hex = f"{g3:x}"
        if g3 in PORTS or (group_hex.isdigit() and int(group_hex) in PORTS):
            return _EMBEDDED_PORT

    # (3a) IPv4 in the low 32 bits as raw hex (a byte >= 0x20 is nonzero)
    if g0 == g1 == 0 and max(ib[4:]) >= 0x20:
        return _EMBEDDED_IPV4
    # (3b) one IPv4 byte per 16-bit group: high bytes zero, two low bytes not
    if not any(ib[::2]) and ib[1::2].count(0) <= 2:
        return _EMBEDDED_IPV4

    # (4) small values confined to the two lowest groups
    if g0 == g1 == 0 and g2 <= 0xFF and g3 <= 0xFF and (g2 or g3):
        return _LOW_BYTE

    # (5) a repeated byte value dominates the IID; a value seen 3 times
    # is seen once in the first 6 bytes
    if any(ib) and any(ib.count(b) >= 3 for b in ib[:6]):
        return _PATTERN_BYTES

    return _RANDOMIZED


def classify_rfc_corpus(seeds: list[NybbleSeq]) -> LabeledSeedCorpus:
    raw = [classify_rfc(s).class_id for s in seeds]
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
    return tuple(_entropy16(col.tolist()) for col in token_matrix(group)[:, 8:].T)


FP_PREFIX_LEN = 8  # nybbles of prefix an entropy group shares
MIN_GROUP = 10  # seeds a prefix group needs to become a fingerprint


def entropy_fingerprints(
    seeds: list[NybbleSeq],
    fp_prefix_len: int = FP_PREFIX_LEN,
    min_group: int = MIN_GROUP,
) -> tuple[list[EntropyFingerprint], dict[bytes, list[int]]]:
    """Per-prefix nybble-entropy profiles.

    Groups seeds by their first fp_prefix_len nybbles; prefix groups with
    at least min_group members become fingerprints, which keep their seed
    indices.  Entropy is Shannon base 16 so every entry lies in [0, 1].
    Returns the fingerprints and the small groups (prefix nybbles -> seed
    indices) that were held back.
    """
    if not seeds:
        raise ValueError("seed list is empty")
    by_prefix: dict[bytes, list[int]] = defaultdict(list)
    for i, s in enumerate(seeds):
        by_prefix[s.nybbles[:fp_prefix_len]].append(i)
    fingerprints = []
    small: dict[bytes, list[int]] = {}
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


KMEANS_MAX_ITER = 100  # Lloyd iterations at most
KMEANS_TOL = 1e-6  # stop once no centroid moves this far


def kmeans(points: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
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
    for _ in range(KMEANS_MAX_ITER):
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
        if shift < KMEANS_TOL:
            break
    dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return dists.argmin(axis=1), centroids


def classify_entropy(
    seeds: list[NybbleSeq],
    k: int,
    fp_prefix_len: int = FP_PREFIX_LEN,
    seed: int = 0,
    min_group: int = MIN_GROUP,
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


_GUIDE = 2 ** 16  # guide-table buckets of the negative-sampling CDF


def _guided_searchsorted(cdf: np.ndarray):
    """x -> np.searchsorted(cdf, x) for draws x in [0, 1), by a guide table:
    the search is monotone in x and x * _GUIDE is exact, so a draw in bucket
    b is answered by table[b] unless table[b + 1] differs."""
    table = np.searchsorted(cdf, np.arange(_GUIDE + 1) / _GUIDE)

    def lookup(x: np.ndarray) -> np.ndarray:
        bucket = (x * _GUIDE).astype(np.intp)
        idx = table[bucket]
        split = idx != table[bucket + 1]
        idx[split] = np.searchsorted(cdf, x[split])
        return idx

    return lookup


_MEAN_BLOCK = 64  # sentences per gather of the final average, so it is never [n, 32, dim]
DIM = 100  # width of the ipv62vec word and address vectors


def ipv62vec_embed(
    seeds: list[NybbleSeq],
    dim: int = DIM,
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

    Each address is one block update from the pre-update vectors: its 32
    input rows v against w_out, the A rows a context or a negative can
    name, with the pairs' gradients summed into g [32, A].  Only the order
    of each row's summation differs from updating pair by pair.
    """
    if not seeds:
        raise ValueError("seed list is empty")
    rng = np.random.default_rng(seed)
    vocab = 32 * 16
    sentences = 16 * np.arange(32) + token_matrix(seeds)  # [n, 32] word ids

    counts = np.bincount(sentences.reshape(-1), minlength=vocab).astype(np.float64)
    noise = counts ** 0.75
    noise /= noise.sum()

    w_in = (rng.random((vocab, dim)) - 0.5) / dim
    noise_cdf = np.cumsum(noise)
    noise_cdf[-1] = 1.0
    # w_out's rows: every context word and every word a draw can return (word
    # 0 for 0.0, or a positive CDF step); the block CDF's search gives its row
    in_block = (counts > 0) | (np.diff(noise_cdf, prepend=-1.0) > 0)
    block_row = np.cumsum(in_block) - 1  # a block word's row of w_out
    w_out = np.zeros((block_row[-1] + 1, dim))
    negative_rows = _guided_searchsorted(noise_cdf[in_block])

    # all (center position, context position) pairs; reused for every sentence
    pairs = [(p, c) for p in range(32)
             for c in range(max(0, p - window), min(32, p + window + 1)) if c != p]
    center_pos, context_pos = np.array(pairs).T
    n_pairs = len(pairs)
    # flat[p, n] = center * A + the target's w_out row: the pair's entry in g [32, A]
    flat = np.empty((n_pairs, negatives + 1), dtype=np.intp)
    center_base = center_pos[:, None] * len(w_out)

    n_sent = len(sentences)
    total_steps = epochs * n_sent
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n_sent)
        for si in order:
            sent = sentences[si]
            cur_lr = max(lr * (1.0 - step / max(total_steps, 1)), lr * 1e-2)
            step += 1
            flat[:, 0] = block_row[sent[context_pos]]
            flat[:, 1:] = negative_rows(rng.random((n_pairs, negatives)))
            flat += center_base
            v = w_in[sent]  # [32, dim]
            scores = 1.0 / (1.0 + np.exp(-(v @ w_out.T).take(flat)))
            # label 1 for the context word, 0 for the negatives (x - 0.0 == x)
            scores[:, 0] -= 1.0
            scores *= cur_lr
            g = np.bincount(flat.reshape(-1), scores.reshape(-1), 32 * len(w_out)).reshape(32, -1)
            w_in[sent] = v - g @ w_out
            w_out -= g.T @ v
    vectors = np.empty((n_sent, dim))
    for lo in range(0, n_sent, _MEAN_BLOCK):
        w_in[sentences[lo:lo + _MEAN_BLOCK]].mean(axis=1, out=vectors[lo:lo + _MEAN_BLOCK])
    return vectors


MIN_PTS = 5  # DBSCAN's neighbours (self included) of a core point
EPS_BISECTION_STEPS = 30  # eps bisections to hit a requested class count


def _sq_dists(vectors: np.ndarray) -> np.ndarray:
    """[n, n] squared Euclidean distances, filled one row at a time."""
    d2 = np.empty((len(vectors), len(vectors)))
    for i, v in enumerate(vectors):
        d2[i] = ((vectors - v) ** 2).sum(axis=1)
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


def classify_ipv62vec(seeds: list[NybbleSeq], target_k: int | None = None, seed: int = 0,
                      dim: int = DIM) -> LabeledSeedCorpus:
    """Embed seeds, density-cluster them, optionally hunting a class count.

    With target_k set, eps is bisected (MIN_PTS fixed) until the cluster
    count matches or the step budget runs out; the closest achieved count
    wins, with a warning on a miss.
    """
    vectors = ipv62vec_embed(seeds, dim=dim, seed=seed)
    d2 = _sq_dists(vectors)
    if target_k is None:
        # eps: the median distance to the MIN_PTS-th neighbour
        kth = np.sort(np.sqrt(d2), axis=1)[:, min(MIN_PTS, d2.shape[0] - 1)]
        raw, assigned, core = dbscan(d2, float(np.median(kth)) or 1e-6, MIN_PTS)
    else:
        lo = 1e-9
        hi = float(np.sqrt(d2.max())) + 1e-9
        best = None
        best_gap = None
        for _ in range(EPS_BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            raw, assigned, core = dbscan(d2, mid, MIN_PTS)
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
    write_lines(path, (f"{seq}\t{lab.method}\t{lab.class_id}\t{lab.class_name}"
                       for seq, lab in zip(corpus.seeds, corpus.labels)))


def _label_fields(body: str) -> tuple[NybbleSeq, str, int, str]:
    parts = body.split("\t")
    if len(parts) != 4:
        raise ValueError("expected 4 tab-separated fields")
    return parse_address(parts[0]), parts[1], int(parts[2]), parts[3]


def _same_as_first(first: dict, key, value: str, lineno: int, what: str) -> None:
    """Record value as key's on its first line; a later line that gives
    another value is a ValueError naming that first line."""
    seen, line = first.setdefault(key, (value, lineno))
    if value != seen:
        raise ValueError(f"{what} {value!r} here but {seen!r} on line {line}")


def labeled_lines(path: str) -> Iterator[tuple[int, NybbleSeq, str, int, str]]:
    """(line number, address, method, class id, class name) of each line of
    a labels file, read as every line file is (see fileio.read_lines).

    Every line gives the first line's method, and each class id the name
    of its first line; a line that gives another is an error.
    """
    methods: dict = {}  # None -> (the method, its first line)
    names: dict = {}  # class id -> (its name, its first line)
    for lineno, body in numbered_lines(path):
        try:
            seq, method, cid, name = _label_fields(body)
            _same_as_first(methods, None, method, lineno, "the method is")
            _same_as_first(names, cid, name, lineno, f"class {cid} is named")
        except ValueError as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
        yield lineno, seq, method, cid, name


def read_labels_file(path: str) -> LabeledSeedCorpus:
    """A labels file (see labeled_lines) as a corpus.  Its k class ids must
    be 0..k-1, as classify writes them, so that a class id in the file is
    the class id of the generator and discriminator trained on it."""
    seeds, ids, names = [], [], {}
    for _, seq, method, cid, name in labeled_lines(path):
        seeds.append(seq)
        ids.append(cid)
        names[cid] = name
    if not seeds:
        raise ValueError(f"{path}: no labeled seeds found")
    wrong = next((cid for i, cid in enumerate(sorted(names)) if cid != i), None)
    if wrong is not None:
        raise ValueError(f"{path}: class id {wrong} is not in 0..{len(names) - 1}: "
                         f"the ids of k classes must be 0..k-1")
    return LabeledSeedCorpus.build(seeds, method, ids, names)
