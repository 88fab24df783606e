"""Independent brute-force references used to cross-check the library.

The metric and clustering references are deliberately written in plain
Python (math module only, no numpy) with the most direct formulation
available, so that agreement with the library is meaningful evidence
rather than shared code paths.  The rollout-reward references score one
partial sequence at a time; they share only the networks with the
batched training path, and draw from the generator's RNG in the same
order, so the two can be compared value for value.  The broadcast
pairwise kernels are the library's earlier whole-matrix forms of the
similarity metrics, the pattern-quality cosines and the ipv62vec
distances; the row-blocked library kernels do the same arithmetic, so
they must agree with them bit for bit.
The network references are the earlier forms of the forward and backward
passes: the discriminator convolution as one matmul per tap over the
embedded input, the boolean-mask sigmoid, and the LSTM with four separate
gate products.  The table-lookup and fused-gate library forms do the same
floating-point operations in the same order, so they must agree with them
bit for bit too.  The dense discriminator backward is the exception: the
library adds the same gradient terms grouped by token rather than by
position, so the two agree only to rounding.  The skip-gram reference is the earlier ipv62vec
embedder, which scatters its updates into the weight matrices row by row;
the library scatters the same element updates, in the same order, into
their flat views, so the vectors must match bit for bit.
"""

import math
import random
from collections import Counter

import numpy as np

from sixgan.addr import NybbleSeq
from sixgan.nn import BOS, KERNEL_SIZES, SEQ_LEN, lstm_init_state, lstm_step_batch


# ---------------------------------------------------------------------------
# Cluster agreement
# ---------------------------------------------------------------------------


def ari(labels_a, labels_b) -> float:
    """Adjusted Rand index between two labelings of the same items."""
    assert len(labels_a) == len(labels_b)
    n = len(labels_a)
    pairs = Counter(zip(labels_a, labels_b))
    rows = Counter(labels_a)
    cols = Counter(labels_b)
    sum_ij = sum(math.comb(c, 2) for c in pairs.values())
    sum_a = sum(math.comb(c, 2) for c in rows.values())
    sum_b = sum(math.comb(c, 2) for c in cols.values())
    total = math.comb(n, 2)
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


# ---------------------------------------------------------------------------
# Brute-force metric references
# ---------------------------------------------------------------------------


def bf_cosine(a: NybbleSeq, b: NybbleSeq) -> float:
    na = math.sqrt(sum(x * x for x in a.nybbles))
    nb = math.sqrt(sum(x * x for x in b.nybbles))
    if na == 0.0 and nb == 0.0:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    dot = sum(x * y for x, y in zip(a.nybbles, b.nybbles))
    return dot / (na * nb)


def _position_set(seq: NybbleSeq) -> frozenset:
    return frozenset(enumerate(seq.nybbles))


def _set_jaccard(sa: frozenset, sb: frozenset) -> float:
    return len(sa & sb) / len(sa | sb)


def bf_jaccard(a: NybbleSeq, b: NybbleSeq) -> float:
    """Jaccard similarity of the two {(position, value)} sets."""
    return _set_jaccard(_position_set(a), _position_set(b))


def bf_pattern_quality(cands, seeds) -> float:
    return sum(min(bf_cosine(c, s) for s in seeds) for c in cands) / len(cands)


def bf_pattern_quality_max(cands, seeds) -> float:
    return sum(max(bf_cosine(c, s) for s in seeds) for c in cands) / len(cands)


def bf_novelty(cands, seeds) -> float:
    # each sequence's position set is built once, not once per pair
    seed_sets = [_position_set(s) for s in seeds]
    return (100.0 / len(cands)) * sum(
        1.0 - max(_set_jaccard(cs, ss) for ss in seed_sets)
        for cs in map(_position_set, cands)
    )


def bf_diversity(cands) -> float:
    sets = [_position_set(c) for c in cands]
    total = 0.0
    for i, si in enumerate(sets):
        total += 1.0 - max(
            _set_jaccard(si, sj) for j, sj in enumerate(sets) if j != i
        )
    return 100.0 * total / len(cands)


def bf_hit_and_generation(cands, seeds, probe):
    """probe(seq) -> (active: bool, aliased: bool); returns (hit, generation)."""
    seed_set = {s.nybbles for s in seeds}
    hit = 0
    gen = 0
    for c in cands:
        active, aliased = probe(c)
        if active and not aliased:
            hit += 1
            if c.nybbles not in seed_set:
                gen += 1
    return hit / len(cands), gen / len(cands)


# ---------------------------------------------------------------------------
# Broadcast pairwise kernels
# ---------------------------------------------------------------------------


def _nybble_matrix(seqs) -> np.ndarray:
    return np.array([s.nybbles for s in seqs], dtype=np.float64)


def jaccard_matrix(cands, seeds) -> np.ndarray:
    """[n, m] Jaccard from an [n, m, 32] agreement array: m agree -> m/(64-m)."""
    ca, cb = _nybble_matrix(cands), _nybble_matrix(seeds)
    m = (ca[:, None, :] == cb[None, :, :]).sum(axis=2).astype(np.float64)
    return m / (64.0 - m)


def broadcast_novelty(cands, seeds) -> float:
    sims = jaccard_matrix(cands, seeds)
    return float(100.0 / len(cands) * (1.0 - sims.max(axis=1)).sum())


def broadcast_diversity(cands) -> float:
    sims = jaccard_matrix(cands, cands)
    np.fill_diagonal(sims, -np.inf)
    return float(100.0 / len(cands) * (1.0 - sims.max(axis=1)).sum())


def dense_seed_cosines(cands, seeds) -> np.ndarray:
    """The whole [n, m] candidate x seed cosine matrix, zero vectors included."""
    ca, cb = _nybble_matrix(cands), _nybble_matrix(seeds)
    na = np.sqrt((ca * ca).sum(axis=1))
    nb = np.sqrt((cb * cb).sum(axis=1))
    dots = ca @ cb.T
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = dots / np.outer(na, nb)
    a_zero = na == 0.0
    b_zero = nb == 0.0
    if a_zero.any() or b_zero.any():
        sims[a_zero, :] = 0.0
        sims[:, b_zero] = 0.0
        sims[np.ix_(a_zero, b_zero)] = 1.0
    return sims


def sq_dists(pts: np.ndarray) -> np.ndarray:
    """[n, n] squared Euclidean distances from an [n, n, dim] difference array."""
    return ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)


# ---------------------------------------------------------------------------
# Row-form skip-gram
# ---------------------------------------------------------------------------


def row_scatter_ipv62vec_embed(
    seeds, dim=100, window=5, negatives=5, epochs=5, seed=0, lr=0.05,
) -> np.ndarray:
    """ipv62vec_embed with each update as np.subtract.at over whole rows."""
    rng = np.random.default_rng(seed)
    vocab = 32 * 16
    sentences = np.array([[p * 16 + v for p, v in enumerate(s.nybbles)] for s in seeds])

    counts = np.bincount(sentences.reshape(-1), minlength=vocab).astype(np.float64)
    noise = counts ** 0.75
    noise /= noise.sum()

    w_in = (rng.random((vocab, dim)) - 0.5) / dim
    w_out = np.zeros((vocab, dim))
    noise_cdf = np.cumsum(noise)
    noise_cdf[-1] = 1.0

    pairs = [
        (p, c)
        for p in range(32)
        for c in range(max(0, p - window), min(32, p + window + 1))
        if c != p
    ]
    center_pos = np.array([p for p, _ in pairs])
    context_pos = np.array([c for _, c in pairs])
    n_pairs = len(pairs)

    n_sent = len(sentences)
    total_steps = epochs * n_sent
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n_sent)
        for si in order:
            sent = sentences[si]
            cur_lr = max(lr * (1.0 - step / max(total_steps, 1)), lr * 1e-2)
            step += 1
            centers = sent[center_pos]
            targets = np.empty((n_pairs, negatives + 1), dtype=int)
            targets[:, 0] = sent[context_pos]
            targets[:, 1:] = np.searchsorted(
                noise_cdf, rng.random((n_pairs, negatives))
            )
            labels = np.zeros((n_pairs, negatives + 1))
            labels[:, 0] = 1.0
            v = w_in[centers]
            u = w_out[targets]
            scores = 1.0 / (1.0 + np.exp(-np.einsum("pd,pnd->pn", v, u)))
            gscore = (scores - labels) * cur_lr
            np.subtract.at(w_in, centers, np.einsum("pn,pnd->pd", gscore, u))
            np.subtract.at(
                w_out, targets.reshape(-1),
                (gscore[:, :, None] * v[:, None, :]).reshape(-1, dim),
            )
    return w_in[sentences].mean(axis=1)


# ---------------------------------------------------------------------------
# Hex digit strings
# ---------------------------------------------------------------------------


def seq_from_hex(digits: str) -> NybbleSeq:
    """An address from its 32 hex digits, most significant first."""
    return NybbleSeq(tuple(int(c, 16) for c in digits))


def seq_to_hex(seq: NybbleSeq) -> str:
    return "".join(f"{v:x}" for v in seq.nybbles)


# ---------------------------------------------------------------------------
# Earlier network forms
# ---------------------------------------------------------------------------


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tap_conv_bank(params, x: np.ndarray, s: int) -> np.ndarray:
    """Size-s convolution of x [B, T, E] as one [B, T-s+1, E] @ [E, F] per tap."""
    e = params.embed_dim
    n_pos = x.shape[1] - s + 1
    w = params.conv_w[s]
    out = np.broadcast_to(params.conv_b[s], (x.shape[0], n_pos, w.shape[1])).copy()
    for j in range(s):
        out += x[:, j:j + n_pos, :] @ w[j * e:(j + 1) * e, :]
    return out


def tap_cnn_logits(params, tokens: np.ndarray) -> np.ndarray:
    """Discriminator logits with argmax pooling over tap_conv_bank."""
    x = params.emb[tokens]
    f = params.n_filters
    pooled = np.empty((tokens.shape[0], len(KERNEL_SIZES) * f))
    for idx, s in enumerate(KERNEL_SIZES):
        conv = tap_conv_bank(params, x, s)
        arg = conv.argmax(axis=1)
        pooled[:, idx * f:(idx + 1) * f] = np.take_along_axis(
            conv, arg[:, None, :], axis=1
        )[:, 0, :]
    t_gate = masked_sigmoid(pooled @ params.hw_t_w + params.hw_t_b)
    h_act = np.maximum(pooled @ params.hw_h_w + params.hw_h_b, 0.0)
    y = t_gate * h_act + (1.0 - t_gate) * pooled
    return y @ params.out_w + params.out_b


def dense_cnn_backward(params, cache: dict, dlogits: np.ndarray) -> dict:
    """cnn_backward over the embedded batch: a dense window gradient, zero
    except at each argmax, and one einsum per tap over every position."""
    tokens = cache["tokens"]
    x = params.emb[tokens]
    pooled, t_gate = cache["pooled"], cache["t_gate"]
    h_pre, h_act, y = cache["h_pre"], cache["h_act"], cache["y"]
    b = tokens.shape[0]
    e = params.embed_dim
    f = params.n_filters
    grads = {name: np.zeros_like(arr) for name, arr in params.tensors().items()}

    grads["out_w"] += y.T @ dlogits
    grads["out_b"] += dlogits.sum(axis=0)
    dy = dlogits @ params.out_w.T

    dt = dy * (h_act - pooled)
    dh_act = dy * t_gate
    dpooled = dy * (1.0 - t_gate)
    dh_pre = dh_act * (h_pre > 0.0)
    da_t = dt * t_gate * (1.0 - t_gate)
    grads["hw_t_w"] += pooled.T @ da_t
    grads["hw_t_b"] += da_t.sum(axis=0)
    grads["hw_h_w"] += pooled.T @ dh_pre
    grads["hw_h_b"] += dh_pre.sum(axis=0)
    dpooled += da_t @ params.hw_t_w.T + dh_pre @ params.hw_h_w.T

    dx = np.zeros_like(x)
    rows = np.arange(b)[:, None]
    for idx, s in enumerate(KERNEL_SIZES):
        n_pos = x.shape[1] - s + 1
        arg = cache["argmaxes"][s]  # [B, F]
        dp = dpooled[:, idx * f:(idx + 1) * f]  # [B, F]
        dconv = np.zeros((b, n_pos, f))
        np.add.at(dconv, (rows, arg, np.arange(f)[None, :]), dp)
        w = params.conv_w[s]
        gw = grads[f"conv_w_{s:02d}"]
        for j in range(s):
            xs = x[:, j:j + n_pos, :]
            gw[j * e:(j + 1) * e, :] += np.einsum("bpe,bpf->ef", xs, dconv)
            dx[:, j:j + n_pos, :] += dconv @ w[j * e:(j + 1) * e, :].T
        grads[f"conv_b_{s:02d}"] += dconv.sum(axis=(0, 1))
    np.add.at(grads["emb"], tokens, dx)
    return grads


def _gate_banks(params):
    """Contiguous copies of the four gate banks, as they were stored."""
    return ({g: np.ascontiguousarray(getattr(params, f"w_{g}")) for g in "ifog"},
            {g: np.ascontiguousarray(getattr(params, f"b_{g}")) for g in "ifog"})


def four_gate_lstm_cell(params, tokens, h_prev, c_prev):
    """(logits, h, c) of one step with one product per gate."""
    w, b = _gate_banks(params)
    z = np.concatenate([params.emb[tokens], h_prev], axis=1)
    i = masked_sigmoid(z @ w["i"] + b["i"])
    f = masked_sigmoid(z @ w["f"] + b["f"])
    o = masked_sigmoid(z @ w["o"] + b["o"])
    g = np.tanh(z @ w["g"] + b["g"])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h @ params.w_out + params.b_out, h, c


def per_gate_lstm_backward(params, cache: dict, dlogits: np.ndarray) -> dict:
    """Backpropagation through time with one dW product per gate."""
    w, _ = _gate_banks(params)
    inputs = cache["inputs"]
    b, t_len = inputs.shape
    e = params.embed_dim
    grads = {name: np.zeros(arr.shape) for name, arr in params.tensors().items()}
    dh_next = np.zeros((b, params.hidden_dim))
    dc_next = np.zeros((b, params.hidden_dim))
    for t in range(t_len - 1, -1, -1):
        z = cache["z"][t]
        i, f, o, g = cache["i"][t], cache["f"][t], cache["o"][t], cache["g"][t]
        c_prev, tc, h = cache["c_prev"][t], cache["tc"][t], cache["h"][t]
        dl = dlogits[:, t]
        grads["w_out"] += h.T @ dl
        grads["b_out"] += dl.sum(axis=0)
        dh = dl @ params.w_out.T + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dc_next = dc * f
        da = {"i": di * i * (1.0 - i), "f": df * f * (1.0 - f),
              "o": do * o * (1.0 - o), "g": dg * (1.0 - g * g)}
        for gate in "ifog":
            grads[f"w_{gate}"] += z.T @ da[gate]
            grads[f"b_{gate}"] += da[gate].sum(axis=0)
        dz = (da["i"] @ w["i"].T + da["f"] @ w["f"].T
              + da["o"] @ w["o"].T + da["g"] @ w["g"].T)
        np.add.at(grads["emb"], inputs[:, t], dz[:, :e])
        dh_next = dz[:, e:]
    return grads


# ---------------------------------------------------------------------------
# Planted corpora
# ---------------------------------------------------------------------------


def _seq(prefix_nybbles, suffix_nybbles) -> NybbleSeq:
    nybs = tuple(prefix_nybbles) + tuple(suffix_nybbles)
    assert len(nybs) == 32
    return NybbleSeq(nybs)


def plant_entropy_corpus(n_per_prefix: int, seed: int):
    """Prefix groups with three distinct suffix behaviors.

    0: near-constant (fixed body, two-digit tail index)
    1: strided counter (i * 16^5, varying two mid positions)
    2: random (all 24 suffix positions uniform)

    The behaviors occupy well-separated regions of entropy-fingerprint
    space: roughly zero everywhere except the last two positions, except
    two mid positions, and all-ones respectively.  Returns
    (seeds, true_labels); requires n_per_prefix <= 256 so tail indices
    stay two digits and addresses stay distinct within a prefix.
    """
    assert n_per_prefix <= 256
    rng = random.Random(seed)
    behaviors = {
        0: [(2, 0, 0, 1, 0, 0xD, 0xB, 8), (2, 0, 0, 1, 0, 0xD, 0xB, 9)],
        1: [(2, 0, 0, 2, 0, 0xD, 0xB, 8), (2, 0, 0, 2, 0, 0xD, 0xB, 9)],
        2: [(2, 0, 0, 3, 0, 0xD, 0xB, 8), (2, 0, 0, 3, 0, 0xD, 0xB, 9)],
    }
    seeds = []
    labels = []
    for behavior, prefixes in behaviors.items():
        for prefix in prefixes:
            body = rng.randrange(16)
            for i in range(n_per_prefix):
                if behavior == 0:
                    suffix = (body,) * 22 + ((i >> 4) & 0xF, i & 0xF)
                elif behavior == 1:
                    suffix = tuple(
                        int(c, 16) for c in f"{i * 16**5:024x}"
                    )
                else:
                    suffix = tuple(rng.randrange(16) for _ in range(24))
                seeds.append(_seq(prefix, suffix))
                labels.append(behavior)
    return seeds, labels


def plant_value_band_corpus(n_per_pattern: int, seed: int, n_patterns: int = 3):
    """Patterns drawing IID nybbles from disjoint value bands.

    Strong separation for embedding-based clustering: pattern p uses
    only values {5p .. 5p+4} in the IID. Returns (seeds, true_labels).
    """
    assert 1 <= n_patterns <= 3
    rng = random.Random(seed)
    seeds = []
    labels = []
    seen = set()
    for p in range(n_patterns):
        band = list(range(5 * p, 5 * p + 5))
        prefix = (2, 0, 0, 1, 0, 0xD, 0xB, 8, 0, 0, 0, p, 0, 0, 0, 0)
        while sum(1 for lab in labels if lab == p) < n_per_pattern:
            suffix = tuple(rng.choice(band) for _ in range(16))
            s = _seq(prefix, suffix)
            if s.nybbles in seen:
                continue
            seen.add(s.nybbles)
            seeds.append(s)
            labels.append(p)
    return seeds, labels


# ---------------------------------------------------------------------------
# Scalar rollout rewards (penalties; lower is better for the generator)
# ---------------------------------------------------------------------------

_BOUND_EPS = 1e-9  # headroom for float rounding in mean-of-bounded-values asserts


def mc_rollout(g, partial: tuple, n: int) -> list:
    """n completions of a partial sequence, sampled from g itself.

    The given nybbles are replayed through the network (so the rollout
    conditions on them exactly) and the remaining positions are sampled
    by inverse CDF, one uniform draw per completion and position.
    """
    t = len(partial)
    if not 1 <= t <= SEQ_LEN:
        raise ValueError(f"partial length must be in [1, {SEQ_LEN}], got {t}")
    if t == SEQ_LEN:
        return [NybbleSeq(tuple(partial))] * n
    h, c = lstm_init_state(g.params, n)
    prev = np.full(n, BOS, dtype=np.int64)
    for v in partial:
        h, c, _, _ = lstm_step_batch(g.params, h, c, prev)
        prev = np.full(n, v, dtype=np.int64)
    tails = []
    for _ in range(SEQ_LEN - t):
        h, c, _, probs = lstm_step_batch(g.params, h, c, prev)
        cdf = probs.cumsum(axis=1)
        u = g.rng.random(n)
        prev = np.minimum((cdf < u[:, None]).sum(axis=1), probs.shape[1] - 1)
        tails.append(prev)
    return [
        NybbleSeq(tuple(partial) + tuple(int(tail[r]) for tail in tails))
        for r in range(n)
    ]


def reward_discriminator(d, pattern_id: int, partial: tuple, action: int, rollouts: list) -> float:
    """Mean discriminator penalty 1 - D^i over the rollout completions.

    At the final position the completed sequence itself is scored instead
    of rollouts.
    """
    t = len(partial) + 1
    if t == SEQ_LEN:
        tokens = np.array([partial + (action,)], dtype=np.int64)
    else:
        if not rollouts:
            raise ValueError("rollouts required before the final position")
        tokens = np.array([r.nybbles for r in rollouts], dtype=np.int64)
    probs = d.class_probs(tokens)
    q_d = float((1.0 - probs[:, pattern_id]).mean())
    assert -_BOUND_EPS <= q_d <= 1.0 + _BOUND_EPS, f"Q_D out of range: {q_d}"
    return q_d


def reward_alias(trie, cfg, t: int, rollouts: list) -> float:
    """Mean aliased-prefix penalty over rollouts at position t.

    A rollout matching an aliased prefix of length L contributes
    (t/L)*lambda when t <= L; positions past the matched prefix, and
    non-matching rollouts, contribute 0.
    """
    if not rollouts:
        raise ValueError("rollouts must be non-empty")
    total = 0.0
    for r in rollouts:
        length = trie.match(r)
        if length is not None and t <= length:
            total += t / length * cfg.lam
    q_a = total / len(rollouts)
    assert -_BOUND_EPS <= q_a <= cfg.lam + _BOUND_EPS, f"Q_A out of range: {q_a}"
    return q_a


def combined_q(q_d: float, q_a: float, cfg) -> float:
    q = q_d + cfg.alpha * q_a
    assert -_BOUND_EPS <= q <= 1.0 + cfg.alpha * cfg.lam + _BOUND_EPS, f"Q_AD out of range: {q}"
    return q
