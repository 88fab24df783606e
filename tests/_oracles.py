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
embedded input, the boolean-mask and select forms of the sigmoid, rollout
scoring as class_probs over every whole rollout, and the LSTM with four
separate gate products.  The LSTM references copy the four gate banks out of the
column blocks of the library's fused `w_gates` and `b_gates`, and the BPTT
reference returns one gradient per bank (`w_i..w_g`, `b_i..b_g`); the
tests concatenate those in gate order to compare them with the fused
gradients.  The table-lookup and fused-gate library forms do the same
floating-point operations in the same order, so they must agree with them
bit for bit too.  The dense discriminator backward is the exception: the
library adds the same gradient terms grouped by token rather than by
position, so the two agree only to rounding.  The per-bank references
(`bank_tensors`, `bank_conv_tables`, `bank_pooled`, `bank_cnn_backward`)
are the discriminator layout with one weight and one bias tensor per kernel
size: views cut from the fused `conv_w` and `conv_b`, tap tables and
by-token gradients built one bank at a time.  The fused library forms do
the same operations on the same values, so they must agree bit for bit.
The skip-gram reference is the earlier ipv62vec embedder, which scatters
its updates into the weight matrices row by row; the library scatters the
same element updates, in the same order, into their flat views, so the
vectors must match bit for bit.  The codec
references are the earlier address parser, one character at a time, and
formatter, one zero-group run scan per address.
"""

import math
import random
from collections import Counter

import numpy as np

from sixgan.addr import AddressParseError, NybbleSeq
from sixgan.gan import (
    DiscriminatorModel,
    GeneratorModel,
    _alias_contrib,
    _check_range,
    _sample_tokens,
    discriminator_step,
)
from sixgan.nn import (
    BANK_TAPS,
    BOS,
    KERNEL_SIZES,
    N_TOKENS,
    SEQ_LEN,
    CnnParams,
    LstmParams,
    RmsProp,
    ensure_finite,
    sigmoid,
    softmax,
)


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
# Earlier address codec
# ---------------------------------------------------------------------------

# The library's earlier parser and formatter, one character and one group
# at a time.  The table-driven codec must return the same addresses, texts
# and error messages, except that a dotted quad now ends the address only
# (never the text before '::') and its octets take ASCII digits only.

_CHARWISE_HEX = {c: int(c, 16) for c in "0123456789abcdefABCDEF"}


def _charwise_bad(text: str, pos: int, why: str) -> AddressParseError:
    return AddressParseError(f"{text!r}: {why} at position {pos}")


def _charwise_v4_tail(text: str, tail: str, offset: int) -> list[int]:
    """Expand a trailing dotted quad into 8 nybbles."""
    parts = tail.split(".")
    if len(parts) != 4:
        raise _charwise_bad(text, offset, f"embedded IPv4 needs 4 octets, got {len(parts)}")
    nybs: list[int] = []
    pos = offset
    for part in parts:
        if not part or not part.isdigit() or len(part) > 3:
            raise _charwise_bad(text, pos, f"invalid IPv4 octet {part!r}")
        val = int(part)
        if val > 255:
            raise _charwise_bad(text, pos, f"IPv4 octet {part} exceeds 255")
        nybs.extend((val >> 4, val & 0xF))
        pos += len(part) + 1
    return nybs


def _charwise_groups(text: str, chunk: str, offset: int) -> list[list[int]]:
    """Parse a colon-separated run of hex groups (no '::' inside)."""
    groups: list[list[int]] = []
    pos = offset
    parts = chunk.split(":")
    for idx, part in enumerate(parts):
        if "." in part:
            # dotted-quad tail, must be the final part
            if idx != len(parts) - 1:
                raise _charwise_bad(text, pos, "embedded IPv4 must be the final group")
            nybs = _charwise_v4_tail(text, part, pos)
            groups.append(nybs[:4])
            groups.append(nybs[4:])
            pos += len(part) + 1
            continue
        if not part:
            raise _charwise_bad(text, pos, "empty group")
        if len(part) > 4:
            raise _charwise_bad(text, pos + 4, f"group {part!r} longer than 4 digits")
        vals = []
        for i, c in enumerate(part):
            if c not in _CHARWISE_HEX:
                raise _charwise_bad(text, pos + i, f"invalid character {c!r}")
            vals.append(_CHARWISE_HEX[c])
        groups.append([0] * (4 - len(vals)) + vals)
        pos += len(part) + 1
    return groups


def charwise_parse_address(text: str) -> NybbleSeq:
    """Parse full, '::'-compressed, or dotted-quad-tailed IPv6 text.

    Case-insensitive.  Raises AddressParseError naming the offending
    character position on malformed input.
    """
    s = text.strip()
    if not s:
        raise _charwise_bad(text, 0, "empty address")
    n_dc = s.count("::")
    if n_dc > 1:
        raise _charwise_bad(text, s.index("::", s.index("::") + 1), "more than one '::'")
    if n_dc == 1:
        head, _, tail = s.partition("::")
        left = _charwise_groups(text, head, 0) if head else []
        right = _charwise_groups(text, tail, len(head) + 2) if tail else []
        missing = 8 - len(left) - len(right)
        if missing < 1:
            raise _charwise_bad(text, s.index("::"), "'::' present but no groups elided")
        groups = left + [[0, 0, 0, 0]] * missing + right
    else:
        groups = _charwise_groups(text, s, 0)
        if len(groups) != 8:
            raise _charwise_bad(text, len(s) - 1, f"expected 8 groups, got {len(groups)}")
    nybbles = tuple(v for g in groups for v in g)
    return NybbleSeq(nybbles)


def runscan_format_address(seq: NybbleSeq) -> str:
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


def where_sigmoid(x: np.ndarray) -> np.ndarray:
    """The select form: 1 or e^-|x| over 1 + e^-|x|."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def bank_tensors(t: dict) -> dict:
    """t, a CnnParams.tensors() or gradient dict, with conv_w and conv_b cut
    into views of their 16 banks: conv_w_SS [s*E, F] and conv_b_SS [F] for
    each kernel size s, the 39 tensors of the per-bank layout in its order."""
    e, f = t["conv_w"].shape[1:]
    out = {"emb": t["emb"]}
    for idx, s in enumerate(KERNEL_SIZES):
        out[f"conv_w_{s:02d}"] = t["conv_w"][BANK_TAPS[s]].reshape(s * e, f)
        out[f"conv_b_{s:02d}"] = t["conv_b"][idx]
    for name in ("hw_t_w", "hw_t_b", "hw_h_w", "hw_h_b", "out_w", "out_b"):
        out[name] = t[name]
    return out


def tap_conv_bank(params, x: np.ndarray, s: int) -> np.ndarray:
    """Size-s convolution of x [B, T, E] as one [B, T-s+1, E] @ [E, F] per tap."""
    e = params.emb.shape[1]
    n_pos = x.shape[1] - s + 1
    bank = bank_tensors(params.tensors())
    w = bank[f"conv_w_{s:02d}"]
    out = np.broadcast_to(bank[f"conv_b_{s:02d}"], (x.shape[0], n_pos, w.shape[1])).copy()
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
    e = params.emb.shape[1]
    f = params.n_filters
    grads = {name: np.zeros_like(arr) for name, arr in params.tensors().items()}
    bank, bank_grads = bank_tensors(params.tensors()), bank_tensors(grads)

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
        w = bank[f"conv_w_{s:02d}"]
        gw = bank_grads[f"conv_w_{s:02d}"]
        for j in range(s):
            xs = x[:, j:j + n_pos, :]
            gw[j * e:(j + 1) * e, :] += np.einsum("bpe,bpf->ef", xs, dconv)
            dx[:, j:j + n_pos, :] += dconv @ w[j * e:(j + 1) * e, :].T
        bank_grads[f"conv_b_{s:02d}"] += dconv.sum(axis=(0, 1))
    np.add.at(grads["emb"], tokens, dx)
    return grads


def bank_conv_tables(params) -> dict:
    """Per kernel size s, the [s, N_TOKENS, F] tap tables of one bank's
    [s*E, F] weights, bias added into table 0: conv_tables one bank at a time."""
    e = params.emb.shape[1]
    bank = bank_tensors(params.tensors())
    tables = {}
    for s in KERNEL_SIZES:
        tab = params.emb @ bank[f"conv_w_{s:02d}"].reshape(s, e, -1)
        tab[0] += bank[f"conv_b_{s:02d}"]
        tables[s] = tab
    return tables


def bank_pooled(params, tokens: np.ndarray) -> np.ndarray:
    """cnn_forward's pooled features over bank_conv_tables: per bank, index
    each tap's table by the position-major ids, add the taps in order, max."""
    f = params.n_filters
    by_pos = tokens.T
    pooled = np.empty((tokens.shape[0], len(KERNEL_SIZES) * f))
    for idx, (s, tab) in enumerate(bank_conv_tables(params).items()):
        n_pos = by_pos.shape[0] - s + 1
        conv = tab[0][by_pos[:n_pos]]
        for j in range(1, s):
            conv += tab[j][by_pos[j:j + n_pos]]
        pooled[:, idx * f:(idx + 1) * f] = conv.max(axis=0)
    return pooled


def bank_cnn_backward(params, cache: dict, dlogits: np.ndarray) -> dict:
    """cnn_backward one bank at a time, with gradients in the per-bank
    layout of bank_tensors: a by-token bincount per bank, then that bank's
    weight gradient and its summed embedding gradient."""
    tokens = cache["tokens"]
    pooled, t_gate = cache["pooled"], cache["t_gate"]
    h_pre, h_act, y = cache["h_pre"], cache["h_act"], cache["y"]
    b = tokens.shape[0]
    e = params.emb.shape[1]
    f = params.n_filters
    bank = bank_tensors(params.tensors())
    grads = dict.fromkeys(bank)
    grads["emb"] = np.zeros_like(params.emb)

    grads["out_w"] = y.T @ dlogits
    grads["out_b"] = dlogits.sum(axis=0)
    dy = dlogits @ params.out_w.T

    dt = dy * (h_act - pooled)
    dh_act = dy * t_gate
    dpooled = dy * (1.0 - t_gate)
    dh_pre = dh_act * (h_pre > 0.0)
    da_t = dt * t_gate * (1.0 - t_gate)
    grads["hw_t_w"] = pooled.T @ da_t
    grads["hw_t_b"] = da_t.sum(axis=0)
    grads["hw_h_w"] = pooled.T @ dh_pre
    grads["hw_h_b"] = dh_pre.sum(axis=0)
    dpooled += da_t @ params.hw_t_w.T + dh_pre @ params.hw_h_w.T

    rows = np.arange(b)[:, None, None]
    cols = np.arange(f)[:, None]
    for idx, s in enumerate(KERNEL_SIZES):
        taps = np.arange(s)
        win = tokens[rows, cache["argmaxes"][s][:, :, None] + taps]  # [B, F, s]
        dp = dpooled[:, idx * f:(idx + 1) * f]  # [B, F]
        slot = (taps * N_TOKENS + win) * f + cols
        by_token = np.bincount(
            slot.ravel(), weights=np.repeat(dp.ravel(), s), minlength=s * N_TOKENS * f
        ).reshape(s, N_TOKENS, f)
        w = bank[f"conv_w_{s:02d}"].reshape(s, e, f)
        grads[f"conv_w_{s:02d}"] = (params.emb.T @ by_token).reshape(s * e, f)
        grads["emb"] += (by_token @ w.transpose(0, 2, 1)).sum(axis=0)
        grads[f"conv_b_{s:02d}"] = dp.sum(axis=0)
    return grads


class FullPassScores:
    """A discriminator whose rollout scorer runs class_probs on every whole
    rollout, as rollout scoring did before it reused the sampled prefix."""

    def __init__(self, d):
        self.d = d

    def rollout_scorer(self, tokens):
        return lambda t, rollouts: self.d.class_probs(rollouts)


def _gate_banks(params):
    """Contiguous copies of the four gate banks, as they were once stored."""
    h = params.hidden_dim
    return ({g: params.w_gates[:, k * h:(k + 1) * h].copy() for k, g in enumerate("ifog")},
            {g: params.b_gates[k * h:(k + 1) * h].copy() for k, g in enumerate("ifog")})


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
    """Backpropagation through time with one dW product per gate.

    Gradients are keyed emb, w_i..w_g, b_i..b_g, w_out and b_out: the gate
    banks stay separate, as they were before they were fused.
    """
    w, bias = _gate_banks(params)
    inputs = cache["inputs"]
    b, t_len = inputs.shape
    e = params.embed_dim
    grads = {"emb": np.zeros(params.emb.shape)}
    for gate in "ifog":
        grads[f"w_{gate}"] = np.zeros(w[gate].shape)
        grads[f"b_{gate}"] = np.zeros(bias[gate].shape)
    grads["w_out"] = np.zeros(params.w_out.shape)
    grads["b_out"] = np.zeros(params.b_out.shape)
    dh_next = np.zeros((b, params.hidden_dim))
    dc_next = np.zeros((b, params.hidden_dim))
    for t in range(t_len - 1, -1, -1):
        z = cache["z"][t]
        i, f, o, g = cache["i"][t], cache["f"][t], cache["o"][t], cache["g"][t]
        c_prev, tc, h = cache["c_prev"][t], np.tanh(cache["c"][t]), cache["h"][t]
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
# Single-generator LSTM and training references
# ---------------------------------------------------------------------------
# The library runs its k generators in lockstep on one [k, ...] parameter
# stack, gathers every step's embedding rows at once, makes h @ w_out and
# dl @ w_out.T one stacked product over the steps and adds the embedding
# gradient with one np.add.at.  These are its earlier forms, one generator
# at a time: per-step gathers and output products, one np.add.at per step,
# and a training loop that finishes generator 0's steps before generator
# 1's.  Each lockstep product is the same BLAS call on the same shape, per
# generator and step, and every elementwise expression keeps its operand
# order, so the two must agree bit for bit.


def single_lstm_cell(params, tokens, h_prev, c_prev):
    """(logits, step) of one step; step holds the cache entries and the new state."""
    hd = params.hidden_dim
    z = np.concatenate([params.emb[tokens], h_prev], axis=1)
    a = z @ params.w_gates + params.b_gates
    ifo = sigmoid(a[:, :3 * hd])
    i, f, o = ifo[:, :hd], ifo[:, hd:2 * hd], ifo[:, 2 * hd:]
    g = np.tanh(a[:, 3 * hd:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    logits = h @ params.w_out + params.b_out
    return logits, {"z": z, "i": i, "f": f, "o": o, "g": g,
                    "c_prev": c_prev, "c": c, "tc": tc, "h": h}


def single_lstm_step(params, h_prev, c_prev, tokens):
    """(h, c, logits, probs) of one step for a batch of token ids."""
    logits, step = single_lstm_cell(params, tokens, h_prev, c_prev)
    ensure_finite("lstm logits", logits)
    return step["h"], step["c"], logits, softmax(logits)


def single_lstm_forward(params, inputs):
    """Logits [B, T, VOCAB] and the per-step cache lists of inputs [B, T]."""
    b, t_len = inputs.shape
    h = np.zeros((b, params.hidden_dim))
    c = h.copy()
    logits = np.empty((b, t_len, 16))
    cache: dict = {"inputs": inputs}
    for t in range(t_len):
        logits[:, t], step = single_lstm_cell(params, inputs[:, t], h, c)
        for name, arr in step.items():
            cache.setdefault(name, []).append(arr)
        h, c = step["h"], step["c"]
    ensure_finite("lstm logits", logits)
    return logits, cache


def single_lstm_backward(params, cache: dict, dlogits: np.ndarray) -> dict:
    """Backpropagation through time, one step's products at a time."""
    inputs = cache["inputs"]
    b, t_len = inputs.shape
    e, hd = params.embed_dim, params.hidden_dim
    grads = {name: np.zeros_like(arr) for name, arr in params.tensors().items()}
    w = params.w_gates
    da = np.empty((b, 4 * hd))
    da_i, da_f, da_o, da_g = (da[:, k * hd:(k + 1) * hd] for k in range(4))
    dh_next = np.zeros((b, hd))
    dc_next = np.zeros((b, hd))
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
        da_i[...] = di * i * (1.0 - i)
        da_f[...] = df * f * (1.0 - f)
        da_o[...] = do * o * (1.0 - o)
        da_g[...] = dg * (1.0 - g * g)
        grads["w_gates"] += z.T @ da
        grads["b_gates"] += da.sum(axis=0)
        dz = (da_i @ w[:, :hd].T + da_f @ w[:, hd:2 * hd].T
              + da_o @ w[:, 2 * hd:3 * hd].T + da_g @ w[:, 3 * hd:].T)
        np.add.at(grads["emb"], inputs[:, t], dz[:, :e])
        dh_next = dz[:, e:]
    for name, arr in grads.items():
        ensure_finite(f"lstm grad {name}", arr)
    return grads


def _bos_inputs(sequences):
    return np.concatenate(
        [np.full((len(sequences), 1), BOS, dtype=sequences.dtype), sequences[:, :-1]], axis=1
    )


def single_lstm_nll_grads(params, sequences):
    """Teacher-forced mean NLL of sequences [B, T] and its gradients."""
    b, t_len = sequences.shape
    logits, cache = single_lstm_forward(params, _bos_inputs(sequences))
    probs = softmax(logits)
    picked = np.take_along_axis(probs, sequences[..., None], axis=2)[..., 0]
    nll = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    dlogits = probs.copy()
    dlogits[np.arange(b)[:, None], np.arange(t_len)[None, :], sequences] -= 1.0
    dlogits /= b * t_len
    return nll, single_lstm_backward(params, cache, dlogits)


def single_continue_tokens(params, h, c, prev, steps, rng, keep_states=False):
    """[n, steps] tokens drawn one step at a time from state (h, c)."""
    out = np.empty((prev.shape[0], steps), dtype=np.int64)
    hs, cs = [], []
    for t in range(steps):
        h, c, _, probs = single_lstm_step(params, h, c, prev)
        cdf = probs.cumsum(axis=1)
        u = rng.random(probs.shape[0])
        prev = np.minimum((cdf < u[:, None]).sum(axis=1), probs.shape[1] - 1)
        out[:, t] = prev
        if keep_states:
            hs.append(h)
            cs.append(c)
    return out, hs, cs


def single_sample_tokens(params, n, rng, keep_states=False):
    """[n, 32] tokens sampled from BOS."""
    h = np.zeros((n, params.hidden_dim))
    prev = np.full(n, BOS, dtype=np.int64)
    return single_continue_tokens(params, h, h.copy(), prev, SEQ_LEN, rng, keep_states)


def single_rollout_penalties(g, d, trie, cfg, tokens, hs, cs):
    """(Q_D, Q_A), each [B, SEQ_LEN], of one generator's sampled batch."""
    b, n_roll = tokens.shape[0], cfg.rollouts
    q_d = np.empty((b, SEQ_LEN))
    q_a = np.zeros((b, SEQ_LEN))
    score = d.rollout_scorer(tokens)
    for t in range(1, SEQ_LEN + 1):
        if t < SEQ_LEN:
            n = n_roll
            h_rep = np.repeat(hs[t - 1], n, axis=0)
            c_rep = np.repeat(cs[t - 1], n, axis=0)
            prev = np.repeat(tokens[:, t - 1], n)
            tails, _, _ = single_continue_tokens(g.params, h_rep, c_rep, prev, SEQ_LEN - t, g.rng)
            full = np.concatenate([np.repeat(tokens[:, :t], n, axis=0), tails], axis=1)
        else:
            n, full = 1, tokens
        probs = score(t, full)
        q_d[:, t - 1] = (1.0 - probs[:, g.pattern_id]).reshape(b, n).mean(axis=1)
        if trie is not None:
            contrib = _alias_contrib(trie.match_batch(full), t, cfg.lam)
            q_a[:, t - 1] = contrib.reshape(b, n).mean(axis=1)
    return q_d, q_a


def single_generator_pg_step(g, d, trie, cfg, batch_size: int) -> dict:
    """One REINFORCE update of one generator."""
    b = batch_size
    tokens, hs, cs = single_sample_tokens(g.params, b, g.rng, keep_states=True)
    q_d, q_a = single_rollout_penalties(g, d, trie, cfg, tokens, hs, cs)
    aliased_rate = float((trie.match_batch(tokens) > 0).mean()) if trie is not None else 0.0
    _check_range("Q_D", q_d, 1.0)
    _check_range("Q_A", q_a, cfg.lam)
    q = q_d + cfg.alpha * q_a
    _check_range("Q_AD", q, 1.0 + cfg.alpha * cfg.lam)
    logits, cache = single_lstm_forward(g.params, _bos_inputs(tokens))
    dlogits = -q[:, :, None] * softmax(logits)
    dlogits[np.arange(b)[:, None], np.arange(SEQ_LEN)[None, :], tokens] += q
    g.opt.update(g.params.tensors(), single_lstm_backward(g.params, cache, dlogits / b))
    return {
        "mean_q_d": float(q_d.mean()),
        "mean_q_a": float(q_a.mean()),
        "mean_q_ad": float(q.mean()),
        "aliased_rate": aliased_rate,
    }


def single_pretrain_generator(g, seed_tokens, steps: int, batch_size: int) -> list:
    """Teacher-forced MLE pretraining of one generator; its NLL curve."""
    curve = []
    for _ in range(steps):
        idx = g.rng.integers(len(seed_tokens), size=batch_size)
        nll, grads = single_lstm_nll_grads(g.params, seed_tokens[idx])
        g.opt.update(g.params.tensors(), grads)
        curve.append(nll)
    return curve


def sequential_train_6gan(corpus, trie, cfg, schedule, seed, embed_dim=200, hidden_dim=200,
                          n_filters=32, lr_gen=1e-3, lr_disc=1e-4):
    """(generators, discriminator, records) of train_6gan, with every
    generator trained alone: all of generator 0's pretraining steps, then
    generator 1's, and likewise for each round's policy-gradient steps."""
    k = corpus.k
    class_tokens = [np.array([s.nybbles for s in corpus.class_seeds(cid)], dtype=np.int64)
                    for cid in range(k)]
    streams = [s.spawn(2) for s in np.random.SeedSequence(seed).spawn(k + 1)]
    gens = [GeneratorModel(
        params=LstmParams.init(np.random.default_rng(streams[i][0]), embed_dim, hidden_dim),
        pattern_id=i, rng=np.random.default_rng(streams[i][1]), opt=RmsProp(lr=lr_gen),
    ) for i in range(k)]
    d_rng = np.random.default_rng(streams[k][1])
    disc = DiscriminatorModel(
        params=CnnParams.init(np.random.default_rng(streams[k][0]), k + 1, embed_dim, n_filters),
        k=k, opt=RmsProp(lr=lr_disc),
    )
    records = []
    for i, g in enumerate(gens):
        curve = single_pretrain_generator(g, class_tokens[i], schedule.g_pretrain,
                                          schedule.batch_size)
        records += [{"kind": "g_pretrain", "generator": i, "step": step, "nll": nll}
                    for step, nll in enumerate(curve)]
    per_class = max(1, schedule.batch_size // (k + 1))

    def d_step():
        real = [toks[d_rng.integers(len(toks), size=per_class)] for toks in class_tokens]
        counts = [per_class // k + (1 if i < per_class % k else 0) for i in range(k)]
        fakes = np.concatenate([single_sample_tokens(g.params, c, g.rng)[0]
                                for g, c in zip(gens, counts) if c > 0])
        return discriminator_step(disc, real, fakes)

    for step in range(schedule.d_pretrain):
        records.append({"kind": "d_pretrain", "step": step, "loss": d_step()})
    for rnd in range(schedule.adversarial_rounds):
        for i, g in enumerate(gens):
            for step in range(schedule.g_steps):
                stats = single_generator_pg_step(g, disc, trie, cfg, schedule.batch_size)
                records.append({"kind": "g_step", "round": rnd, "generator": i, "step": step,
                                **stats})
        for step in range(schedule.d_steps):
            records.append({"kind": "d_step", "round": rnd, "step": step, "loss": d_step()})
    return gens, disc, records


# ---------------------------------------------------------------------------
# Gradient verification and sampling helpers
# ---------------------------------------------------------------------------


def grad_check(
    loss_fn,
    tensors: dict,
    analytic: dict,
    rng: np.random.Generator,
    n_samples: int = 200,
    step: float = 1e-5,
) -> dict:
    """Compare analytic gradients against central finite differences.

    Samples coordinates across all tensors (every tensor gets at least one).
    Relative error uses a small magnitude floor so near-zero gradients are
    compared absolutely.  Returns a report with the worst coordinate.
    """
    names = list(tensors)
    sizes = np.array([tensors[n].size for n in names])
    total = int(sizes.sum())
    n_samples = min(max(n_samples, len(names)), total)
    flat_choices = set()
    for i, n in enumerate(names):  # one probe per tensor, guaranteed
        offset = int(sizes[:i].sum())
        flat_choices.add(offset + int(rng.integers(tensors[n].size)))
    while len(flat_choices) < n_samples:
        flat_choices.add(int(rng.integers(total)))
    bounds = np.cumsum(sizes)
    worst = {"rel_err": 0.0, "tensor": None, "index": None,
             "analytic": 0.0, "numeric": 0.0}
    for flat in sorted(flat_choices):
        ti = int(np.searchsorted(bounds, flat, side="right"))
        local = flat - (int(bounds[ti - 1]) if ti else 0)
        name = names[ti]
        p = tensors[name]  # may be a strided view, so index it in place
        idx = np.unravel_index(local, p.shape)
        orig = p[idx]
        p[idx] = orig + step
        up = loss_fn()
        p[idx] = orig - step
        down = loss_fn()
        p[idx] = orig
        numeric = (up - down) / (2.0 * step)
        a = float(analytic[name][idx])
        denom = max(abs(a), abs(numeric), 1e-5)
        rel = abs(a - numeric) / denom
        if rel > worst["rel_err"]:
            worst = {"rel_err": rel, "tensor": name, "index": local,
                     "analytic": a, "numeric": numeric}
    worst["n_checked"] = len(flat_choices)
    return worst


def sample_sequences(g, n: int) -> list:
    """n addresses sampled from the generator's current policy."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tokens, _, _ = _sample_tokens(g.params[None], [g.rng], n)
    return [NybbleSeq(tuple(int(v) for v in row)) for row in tokens[0]]


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
    h = np.zeros((n, g.params.hidden_dim))
    c = h.copy()
    prev = np.full(n, BOS, dtype=np.int64)
    for v in partial:
        h, c, _, _ = single_lstm_step(g.params, h, c, prev)
        prev = np.full(n, v, dtype=np.int64)
    tails = []
    for _ in range(SEQ_LEN - t):
        h, c, _, probs = single_lstm_step(g.params, h, c, prev)
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
