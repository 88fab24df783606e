"""Dense neural substrate: LSTM cell, multi-kernel 1-D CNN, RMSProp.

Everything is float64 numpy with hand-derived backward passes, so analytic
gradients can be validated against central finite differences.  Models are
small parameter containers; forward passes are pure functions of
(params, input).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from .fileio import atomic_write

VOCAB = 16  # nybble values 0..15
BOS = 16  # begin-of-sequence token
N_TOKENS = VOCAB + 1
SEQ_LEN = 32
KERNEL_SIZES = tuple(range(1, 17))
# the rows of CnnParams.conv_w and of the tap tables that hold bank s's taps
BANK_TAPS = {s: slice(s * (s - 1) // 2, s * (s + 1) // 2) for s in KERNEL_SIZES}
N_TAPS = sum(KERNEL_SIZES)

CHECKPOINT_MAGIC = b"6GAN"
CHECKPOINT_VERSION = 1


class DivergenceError(RuntimeError):
    """A forward or backward pass produced non-finite values."""


def ensure_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise DivergenceError(f"non-finite values in {name}")


def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along axis; out=x computes it in place."""
    e = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so exp never overflows.

    ex = e^-|x| <= 1, so max(ex, 1) is 1 and max(ex, 0) is ex: the numerator
    is the same value a select would give, without the select's copy.
    """
    ex = np.abs(x)
    np.negative(ex, out=ex)
    np.exp(ex, out=ex)
    num = np.maximum(ex, x >= 0)
    ex += 1.0
    num /= ex
    return num


# ---------------------------------------------------------------------------
# LSTM generator network
# ---------------------------------------------------------------------------


GATES = ("i", "f", "o", "g")  # input, forget, output, candidate


class _Tensors:
    """Float64 tensors named by the dataclass fields, in memory, gradients and checkpoints."""

    def tensors(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_tensors(cls, t: dict[str, np.ndarray]):
        """cls from t's tensors; ValueError names a missing or misshapen one."""
        missing = [f.name for f in fields(cls) if f.name not in t]
        if missing:
            raise ValueError(f"missing tensor {', '.join(missing)}")
        got = {f.name: np.ascontiguousarray(t[f.name], dtype=np.float64) for f in fields(cls)}
        for name, want in cls._shapes(got).items():  # the dimensions' sources first
            if got[name].shape != want:
                raise ValueError(f"tensor {name} has shape {got[name].shape}, expected {want}")
        return cls(**got)


@dataclass
class LstmParams(_Tensors):
    """Embedding, the four gate banks over [input + hidden], output projection.

    The gate banks are one fused matrix, columns in GATES order, so one
    product gives every gate's pre-activation.  A stack of k generators
    holds the same five tensors with a leading [k] axis, and every LSTM
    function below takes one generator or a stack.  A stack runs its
    generators in lockstep: each NumPy call covers all of them, while each
    matrix product stays one BLAS call per generator on the shape that
    generator alone would use, so every generator gets the bytes of its
    own pass.
    """

    emb: np.ndarray  # [N_TOKENS, E]
    w_gates: np.ndarray  # [E+H, 4H]
    b_gates: np.ndarray  # [4H]
    w_out: np.ndarray  # [H, VOCAB]
    b_out: np.ndarray  # [VOCAB]

    @property
    def embed_dim(self) -> int:
        return self.emb.shape[-1]

    @property
    def hidden_dim(self) -> int:
        return self.w_out.shape[-2]

    @classmethod
    def init(cls, rng: np.random.Generator, embed_dim: int = 200, hidden_dim: int = 200) -> "LstmParams":
        e, h = embed_dim, hidden_dim
        gate = 1.0 / np.sqrt(e + h)
        out = 1.0 / np.sqrt(h)
        return cls(
            emb=rng.normal(0.0, 0.1, size=(N_TOKENS, e)),
            w_gates=np.concatenate(
                [rng.uniform(-gate, gate, size=(e + h, h)) for _ in GATES], axis=1
            ),
            # the forget gate starts open
            b_gates=np.concatenate([np.zeros(h), np.ones(h), np.zeros(h), np.zeros(h)]),
            w_out=rng.uniform(-out, out, size=(h, VOCAB)),
            b_out=np.zeros(VOCAB),
        )

    @classmethod
    def stack(cls, generators: list["LstmParams"]) -> "LstmParams":
        """A [k, ...] stack holding copies of k generators' tensors."""
        return cls(**{name: np.stack([p.tensors()[name] for p in generators])
                      for name in generators[0].tensors()})

    def __getitem__(self, idx) -> "LstmParams":
        """Views of every tensor indexed by idx: entry i of a stack is
        stack[i], and p[None] is p as a one-generator stack."""
        return LstmParams(**{name: arr[idx] for name, arr in self.tensors().items()})

    @staticmethod
    def _shapes(t: dict[str, np.ndarray]) -> dict[str, tuple[int, ...]]:
        """One generator's shapes, from E (emb) and H (w_out)."""
        e, h = t["emb"].shape[-1], t["w_out"].shape[0]
        return {"emb": (N_TOKENS, e), "w_out": (h, VOCAB), "w_gates": (e + h, 4 * h),
                "b_gates": (4 * h,), "b_out": (VOCAB,)}


def _emb_rows(params: LstmParams, tokens: np.ndarray) -> np.ndarray:
    """Rows of the [-1, E] embedding view that token ids [..., n] read.

    The axes before n follow the stack's: generator j's ids are offset
    to its own block of N_TOKENS rows.
    """
    lead = params.emb.shape[:-2]
    return tokens + N_TOKENS * np.arange(math.prod(lead)).reshape(lead + (1,))


def lstm_init_state(params: LstmParams, batch: int) -> tuple[np.ndarray, np.ndarray]:
    h = np.zeros(params.w_out.shape[:-2] + (batch, params.hidden_dim))
    return h, h.copy()


def _lstm_cell(params: LstmParams, z: np.ndarray, c_prev: np.ndarray) -> dict[str, np.ndarray]:
    """The gated update of rows z = [embedding, h_prev], [..., n, E+H].

    Returns the gates, keyed as in lstm_forward's cache, and the new
    state "h" and "c".
    """
    hd = params.hidden_dim
    a = z @ params.w_gates
    a += params.b_gates[..., None, :]
    ifo = sigmoid(a[..., :3 * hd])
    i, f, o = ifo[..., :hd], ifo[..., hd:2 * hd], ifo[..., 2 * hd:]
    g = np.tanh(a[..., 3 * hd:])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return {"i": i, "f": f, "o": o, "g": g, "c": c, "h": h}


def lstm_step_batch(
    params: LstmParams,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    tokens: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One gated recurrent update for a batch of token ids.

    h_prev and c_prev are [..., n, H]; tokens holds one id per row, in
    the rows' order (for a stack, flattened generator-major).  Returns
    (h, c, logits, probs); probs is the next-nybble distribution.
    """
    e = params.embed_dim
    rows = _emb_rows(params, tokens.reshape(h_prev.shape[:-1]))
    z = np.concatenate([params.emb.reshape(-1, e)[rows], h_prev], axis=-1)
    step = _lstm_cell(params, z, c_prev)
    logits = step["h"] @ params.w_out + params.b_out[..., None, :]
    ensure_finite("lstm logits", logits)
    return step["h"], step["c"], logits, softmax(logits)


def lstm_forward(params: LstmParams, inputs: np.ndarray) -> tuple[np.ndarray, dict]:
    """Unrolled forward over inputs [..., B, T] of token ids.

    Returns logits [..., B, T, VOCAB] and the cache needed by
    lstm_backward.  Every step's embedding rows are gathered at once into
    the z buffer, and h @ w_out is one stacked product over the steps.
    The cache is time-major: entry t of each of its arrays and lists is
    step t.  It holds each state once (h only inside z) and c rather than
    tanh(c), which the backward pass recomputes, so a stack's k-fold
    cache stays small.
    """
    check_tokens(inputs)  # an id past N_TOKENS would read the next generator's rows
    e, hd = params.embed_dim, params.hidden_dim
    by_pos = np.moveaxis(inputs, -1, 0)  # [T, ..., B]
    # z[t] = [embedding of input t, h after step t-1]; z[T] holds the last h
    z = np.zeros((len(by_pos) + 1,) + by_pos.shape[1:] + (e + hd,))
    z[:-1, ..., :e] = params.emb.reshape(-1, e)[_emb_rows(params, by_pos)]
    hs = z[1:, ..., e:]
    c = np.zeros(hs.shape[1:])
    cache: dict = {"inputs": inputs, "z": z, "h": hs,
                   "i": [], "f": [], "o": [], "g": [], "c_prev": [], "c": []}
    for t in range(len(hs)):
        cache["c_prev"].append(c)
        step = _lstm_cell(params, z[t], c)
        for name in ("i", "f", "o", "g", "c"):
            cache[name].append(step[name])
        hs[t] = step["h"]
        c = step["c"]
    logits = np.empty(inputs.shape + (VOCAB,))
    np.matmul(hs, params.w_out, out=np.moveaxis(logits, -2, 0))
    logits += params.b_out[..., None, None, :]
    ensure_finite("lstm logits", logits)
    return logits, cache


def lstm_backward(params: LstmParams, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagation through time; dlogits is [..., B, T, VOCAB].

    Returns gradients keyed like params.tensors().  Each step's products
    and its np.add.at into the embedding gradient stay inside the loop:
    hoisted, each would hold a [T, ..., B, H] or [T, ..., B, E] buffer on
    top of a stack's k-fold cache, for a saving of one NumPy call a step.
    """
    e, hd = params.embed_dim, params.hidden_dim
    z, hs = cache["z"], cache["h"]
    grads = {name: np.zeros(arr.shape) for name, arr in params.tensors().items()}
    w = params.w_gates
    w_t = [np.swapaxes(w[..., k * hd:(k + 1) * hd], -1, -2) for k in range(4)]
    w_out_t = np.swapaxes(params.w_out, -1, -2)
    emb_grad = grads["emb"].reshape(-1, e)
    rows = _emb_rows(params, np.moveaxis(cache["inputs"], -1, 0))
    da = np.empty(hs.shape[1:-1] + (4 * hd,))  # gate pre-activation grads, GATES order
    da_i, da_f, da_o, da_g = (da[..., k * hd:(k + 1) * hd] for k in range(4))
    dh_next = np.zeros(hs.shape[1:])
    dc_next = np.zeros_like(dh_next)
    for t in range(len(hs) - 1, -1, -1):
        i, f, o, g = cache["i"][t], cache["f"][t], cache["o"][t], cache["g"][t]
        c_prev, tc = cache["c_prev"][t], np.tanh(cache["c"][t])
        dl = dlogits[..., t, :]
        grads["w_out"] += np.swapaxes(hs[t], -1, -2) @ dl
        grads["b_out"] += dl.sum(axis=-2)
        dh = dl @ w_out_t + dh_next
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
        grads["w_gates"] += np.swapaxes(z[t], -1, -2) @ da
        grads["b_gates"] += da.sum(axis=-2)
        # four products, not da @ w_gates.T: that sums in another order
        dz = da_i @ w_t[0] + da_f @ w_t[1] + da_o @ w_t[2] + da_g @ w_t[3]
        np.add.at(emb_grad, rows[t], dz[..., :e])
        dh_next = dz[..., e:]
    for name, arr in grads.items():
        ensure_finite(f"lstm grad {name}", arr)
    return grads


def lstm_nll(params: LstmParams, sequences: np.ndarray) -> tuple[np.ndarray, dict, np.ndarray]:
    """Teacher-forced mean negative log-likelihood of nybble sequences.

    sequences is [..., B, T] of values 0..15; the input at step t is the
    previous value (BOS at t=0).  Returns (nll, cache, probs), where nll
    has one mean per generator (a scalar for one generator) and probs is
    [..., B, T, VOCAB].
    """
    bos = np.full(sequences.shape[:-1] + (1,), BOS, dtype=sequences.dtype)
    inputs = np.concatenate([bos, sequences[..., :-1]], axis=-1)
    logits, cache = lstm_forward(params, inputs)
    probs = softmax(logits, out=logits)
    picked = np.take_along_axis(probs, sequences[..., None], axis=-1)[..., 0]
    nll = -np.mean(np.log(np.maximum(picked, 1e-300)), axis=(-2, -1))
    return nll, cache, probs


def lstm_nll_grads(params: LstmParams, sequences: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """NLL loss and its analytic gradients in one pass."""
    b, t_len = sequences.shape[-2:]
    nll, cache, dlogits = lstm_nll(params, sequences)
    dlogits -= np.arange(VOCAB) == sequences[..., None]  # p - 1 at the picked value
    dlogits /= b * t_len
    return nll, lstm_backward(params, cache, dlogits)


# ---------------------------------------------------------------------------
# CNN discriminator network
# ---------------------------------------------------------------------------


@dataclass
class CnnParams(_Tensors):
    """Embedding, every conv bank's taps (bank s's in rows BANK_TAPS[s])
    and biases (row idx for size KERNEL_SIZES[idx]), highway, projection."""

    emb: np.ndarray  # [N_TOKENS, E]
    conv_w: np.ndarray  # [N_TAPS, E, F]
    conv_b: np.ndarray  # [len(KERNEL_SIZES), F]
    hw_t_w: np.ndarray  # [P, P] with P = len(KERNEL_SIZES) * F
    hw_t_b: np.ndarray
    hw_h_w: np.ndarray
    hw_h_b: np.ndarray
    out_w: np.ndarray  # [P, n_classes]
    out_b: np.ndarray

    @property
    def n_filters(self) -> int:
        return self.conv_w.shape[2]

    @property
    def n_classes(self) -> int:
        return self.out_w.shape[1]

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        n_classes: int,
        embed_dim: int = 200,
        n_filters: int = 32,
    ) -> "CnnParams":
        e, f = embed_dim, n_filters
        p = len(KERNEL_SIZES) * f
        bounds = [np.sqrt(6.0 / (s * e + f)) for s in KERNEL_SIZES]
        conv_w = np.concatenate([rng.uniform(-bound, bound, size=(s, e, f))
                                 for s, bound in zip(KERNEL_SIZES, bounds)])
        hw = 1.0 / np.sqrt(p)
        return cls(
            emb=rng.normal(0.0, 0.1, size=(N_TOKENS, e)),
            conv_w=conv_w,
            conv_b=np.zeros((len(KERNEL_SIZES), f)),
            hw_t_w=rng.uniform(-hw, hw, size=(p, p)),
            hw_t_b=np.full(p, -2.0),  # bias the carry gate toward identity
            hw_h_w=rng.uniform(-hw, hw, size=(p, p)),
            hw_h_b=np.zeros(p),
            out_w=rng.uniform(-hw, hw, size=(p, n_classes)),
            out_b=np.zeros(n_classes),
        )

    @staticmethod
    def _shapes(t: dict[str, np.ndarray]) -> dict[str, tuple[int, ...]]:
        """The shapes from E (emb), F (conv_w) and the class count (out_w)."""
        e, f, c = t["emb"].shape[-1], t["conv_w"].shape[-1], t["out_w"].shape[-1]
        p = len(KERNEL_SIZES) * f
        return {"emb": (N_TOKENS, e), "conv_w": (N_TAPS, e, f), "out_w": (p, c),
                "conv_b": (len(KERNEL_SIZES), f), "hw_t_w": (p, p), "hw_t_b": (p,),
                "hw_h_w": (p, p), "hw_h_b": (p,), "out_b": (c,)}


def check_tokens(tokens: np.ndarray) -> None:
    """Raise ValueError unless every token id is in [0, N_TOKENS).

    The table gathers clip their indices, so this check is what keeps an
    out-of-range id an error.
    """
    if tokens.size and (tokens.min() < 0 or tokens.max() >= N_TOKENS):
        raise ValueError(
            f"token ids must be in [0, {N_TOKENS}), got {tokens.min()}..{tokens.max()}"
        )


def conv_tables(params: CnnParams) -> np.ndarray:
    """The [N_TAPS, N_TOKENS, F] tap tables emb @ conv_w, rows as in conv_w.

    Tap j of a window contributes emb[token] @ W_j, which is row token of
    table j, so a convolution is gathers and adds.  Each bank's bias is
    added into its first tap's table: the same addition a window makes.
    """
    tables = params.emb @ params.conv_w
    tables[[taps.start for taps in BANK_TAPS.values()]] += params.conv_b[:, None, :]
    return tables


def _conv_bank(tab: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Valid 1-D convolution of position-major token ids [T, B] with one
    bank's [s, N_TOKENS, F] tap tables (a BANK_TAPS slice of conv_tables).

    The taps are added in order onto bias + tap 0.  Returns [T-s+1, B, F],
    position-major, so a max over positions folds whole [B, F] planes left
    to right (of two equal values, the later one is kept).  Token ids must
    be checked first: mode="clip" gathers without a bounds error, and
    mode="raise" with out= copies through a buffer.
    """
    s = tab.shape[0]
    n_pos = tokens.shape[0] - s + 1
    out = tab[0].take(tokens[:n_pos], axis=0, mode="clip")
    tap = np.empty_like(out)
    for j in range(1, s):
        out += tab[j].take(tokens[j:j + n_pos], axis=0, out=tap, mode="clip")
    return out


def cnn_head(params: CnnParams, pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Highway layer, linear projection and softmax over pooled features.

    Returns (logits, probs, acts), where acts holds the activations
    cnn_backward reads.
    """
    t_gate = sigmoid(pooled @ params.hw_t_w + params.hw_t_b)
    h_pre = pooled @ params.hw_h_w + params.hw_h_b
    h_act = np.maximum(h_pre, 0.0)
    y = t_gate * h_act + (1.0 - t_gate) * pooled
    logits = y @ params.out_w + params.out_b
    ensure_finite("cnn logits", logits)
    return logits, softmax(logits), {"t_gate": t_gate, "h_pre": h_pre, "h_act": h_act, "y": y}


def cnn_forward(params: CnnParams, tokens: np.ndarray, want_cache: bool = False):
    """Class logits/probs for token sequences [B, SEQ_LEN].

    Each filter bank max-pools over positions; the pooled vector passes
    through a highway layer and a linear projection.  Returns
    (logits, probs) or (logits, probs, cache) when want_cache is set.
    """
    check_tokens(tokens)
    f = params.n_filters
    tables = conv_tables(params)
    by_pos = np.ascontiguousarray(tokens.T)
    pooled = np.empty((tokens.shape[0], len(KERNEL_SIZES) * f))
    argmaxes: dict[int, np.ndarray] = {}
    for idx, s in enumerate(KERNEL_SIZES):
        conv = _conv_bank(tables[BANK_TAPS[s]], by_pos)
        conv.max(axis=0, out=pooled[:, idx * f:(idx + 1) * f])
        if want_cache:
            argmaxes[s] = conv.argmax(axis=0)  # [B, F]
    logits, probs, acts = cnn_head(params, pooled)
    if not want_cache:
        return logits, probs
    return logits, probs, {"tokens": tokens, "argmaxes": argmaxes, "pooled": pooled, **acts}


class RolloutPool:
    """Pooled features of Monte Carlo rollouts of one sampled batch [B, SEQ_LEN].

    A rollout at position t keeps the first t tokens of its sampled row, so
    every window that ends before t is a window of that row.  Max-pooling is
    an exact maximum, so a rollout's feature is the max of the row's running
    max over those windows and the max over the windows that touch the
    tail, and only the latter are convolved per rollout.  np.maximum and the
    position-major max folds keep the later of two equal values (+0.0 over
    -0.0 when it comes later), so with the prefix first the features equal
    a full pass over the rollouts bit for bit.  The tap tables are built
    once.
    """

    def __init__(self, params: CnnParams, tokens: np.ndarray):
        check_tokens(tokens)
        self.params = params
        self.rows = tokens.shape[0]
        self.tables = conv_tables(params)
        by_pos = np.ascontiguousarray(tokens.T)
        # [SEQ_LEN-s+1, B, F]: entry p is the max over the row's windows 0..p
        self.running = {
            s: np.maximum.accumulate(_conv_bank(self.tables[BANK_TAPS[s]], by_pos), axis=0)
            for s in KERNEL_SIZES
        }

    def pooled(self, t: int, rollouts: np.ndarray) -> np.ndarray:
        """Features [B*N, len(KERNEL_SIZES) * F] of the rollouts at position t.

        Row b*N + n of rollouts [B*N, SEQ_LEN] continues sampled row b after
        its first t tokens.  At t = SEQ_LEN the rollouts are the sampled
        rows themselves, whose features are the running maxima.
        """
        if t == SEQ_LEN:
            return np.concatenate([run[-1] for run in self.running.values()], axis=1)
        check_tokens(rollouts)
        f = self.params.n_filters
        by_pos = np.ascontiguousarray(rollouts.T)
        pooled = np.empty((rollouts.shape[0], len(KERNEL_SIZES) * f))
        by_row = pooled.reshape(self.rows, -1, pooled.shape[1])  # [B, N, P] view
        for idx, s in enumerate(KERNEL_SIZES):
            cols = slice(idx * f, (idx + 1) * f)
            first = max(0, t - s + 1)  # the first window that touches the tail
            tail = _conv_bank(self.tables[BANK_TAPS[s]], by_pos[first:]).max(axis=0)
            if first:
                np.maximum(self.running[s][first - 1, :, None], tail.reshape(self.rows, -1, f),
                           out=by_row[:, :, cols])
            else:
                pooled[:, cols] = tail
        return pooled


def cnn_backward(params: CnnParams, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss given d(loss)/d(logits)."""
    tokens = cache["tokens"]
    pooled, t_gate = cache["pooled"], cache["t_gate"]
    h_pre, h_act, y = cache["h_pre"], cache["h_act"], cache["y"]
    f = params.n_filters
    # each gradient is written once, in params.tensors() order; only emb sums
    # over the kernel sizes
    grads = dict.fromkeys(params.tensors())
    grads["emb"] = np.zeros_like(params.emb)
    grads["conv_w"] = np.empty_like(params.conv_w)
    grads["conv_b"] = np.empty_like(params.conv_b)

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
    # the whole conv_w gradient is live from here on; free the [B, P] temporaries
    del dy, dt, dh_act, dh_pre, da_t

    # max-pooling routes each (row, filter) gradient to one window, and tap j
    # of that window read one token, so tap j's gradient gathers by token
    # into an [N_TOKENS, F] table; bincount adds the slots rows share
    rows = np.arange(len(tokens))[:, None, None]
    cols = np.arange(f)[:, None]
    for idx, s in enumerate(KERNEL_SIZES):
        taps = np.arange(s)
        win = tokens[rows, cache["argmaxes"][s][:, :, None] + taps]  # [B, F, s]
        dp = dpooled[:, idx * f:(idx + 1) * f]  # [B, F]
        slot = (taps * N_TOKENS + win) * f + cols
        by_token = np.bincount(
            slot.ravel(), weights=np.repeat(dp.ravel(), s), minlength=s * N_TOKENS * f
        ).reshape(s, N_TOKENS, f)
        np.matmul(params.emb.T, by_token, out=grads["conv_w"][BANK_TAPS[s]])
        grads["emb"] += (by_token @ params.conv_w[BANK_TAPS[s]].transpose(0, 2, 1)).sum(axis=0)
        grads["conv_b"][idx] = dp.sum(axis=0)
    for name, arr in grads.items():
        ensure_finite(f"cnn grad {name}", arr)
    return grads


def cnn_nll_grads(
    params: CnnParams, tokens: np.ndarray, labels: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over a labelled batch plus analytic gradients."""
    logits, probs, cache = cnn_forward(params, tokens, want_cache=True)
    b = tokens.shape[0]
    picked = probs[np.arange(b), labels]
    nll = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    dlogits = probs.copy()
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    return nll, cnn_backward(params, cache, dlogits)


# ---------------------------------------------------------------------------
# Optimiser
# ---------------------------------------------------------------------------


class RmsProp:
    """Running-mean-square gradient scaler.

    acc <- 0.9 acc + 0.1 g^2;  p <- p - lr * g / sqrt(acc + eps)
    """

    def __init__(self, lr: float, decay: float = 0.9, eps: float = 1e-8):
        self.lr = lr
        self.decay = decay
        self.eps = eps
        self.acc: dict[str, np.ndarray] = {}

    def update(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, p in tensors.items():
            g = grads[name]
            ensure_finite(f"grad {name}", g)
            acc = self.acc.get(name)
            if acc is None:
                acc = np.zeros_like(p)
                self.acc[name] = acc
            acc *= self.decay
            acc += (1.0 - self.decay) * g * g
            p -= self.lr * g / np.sqrt(acc + self.eps)
            ensure_finite(f"param {name}", p)


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Write tensors to a byte-stable binary file.

    Layout: magic, version u32, count u32, then per tensor sorted by name:
    name (u16 length + utf-8), ndim u32, dims u64 each, float64
    little-endian values in C order.  The write is atomic (atomic_write),
    so one that fails or is killed part-way leaves the previous file at
    path intact.
    """
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.tobytes(order="C"))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint written by save_checkpoint, bit-exactly.

    Every read is checked against the bytes left in the file, so a short
    or corrupt file raises ValueError, and a tensor larger than the rest of
    the file is rejected before anything is allocated for it.
    """
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            nonlocal left
            if n > left:
                raise ValueError(f"{path}: truncated {what}")
            left -= n
            return fh.read(n)

        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
        left -= len(magic)
        version, count = struct.unpack("<II", read(8, "header"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read(2, "tensor name"))
            name = read(name_len, "tensor name").decode("utf-8")
            (ndim,) = struct.unpack("<I", read(4, f"tensor {name}"))
            shape = struct.unpack(f"<{ndim}Q", read(8 * ndim, f"tensor {name}"))
            data = read(8 * math.prod(shape), f"tensor {name}")
            out[name] = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
        if left:
            raise ValueError(f"{path}: trailing bytes after last tensor")
    return out
