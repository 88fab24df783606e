"""Dense neural substrate: LSTM cell, multi-kernel 1-D CNN, RMSProp.

Everything is float64 numpy with hand-derived backward passes, so analytic
gradients can be validated against central finite differences.  Models are
small parameter containers; forward passes are pure functions of
(params, input).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

VOCAB = 16  # nybble values 0..15
BOS = 16  # begin-of-sequence token
N_TOKENS = VOCAB + 1
SEQ_LEN = 32
KERNEL_SIZES = tuple(range(1, 17))

CHECKPOINT_MAGIC = b"6GAN"
CHECKPOINT_VERSION = 1


class DivergenceError(RuntimeError):
    """A forward or backward pass produced non-finite values."""


def ensure_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise DivergenceError(f"non-finite values in {name}")


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so exp never overflows."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


# ---------------------------------------------------------------------------
# LSTM generator network
# ---------------------------------------------------------------------------


GATES = ("i", "f", "o", "g")  # input, forget, output, candidate


def _gate_view(bank: str, k: int) -> property:
    """Gate k's column block of a fused [..., 4H] bank, as a writable view."""

    def get(self) -> np.ndarray:
        h = self.hidden_dim
        return getattr(self, bank)[..., k * h:(k + 1) * h]

    return property(get)


@dataclass
class LstmParams:
    """Embedding, the four gate banks over [input + hidden], output projection.

    The gate banks are stored fused, columns in GATES order, so one product
    gives every gate's pre-activation; w_i..w_g and b_i..b_g are views of
    their column blocks, and tensors() and checkpoints hold them by those
    names.
    """

    emb: np.ndarray  # [N_TOKENS, E]
    w_gates: np.ndarray  # [E+H, 4H]
    b_gates: np.ndarray  # [4H]
    w_out: np.ndarray  # [H, VOCAB]
    b_out: np.ndarray  # [VOCAB]

    w_i, w_f, w_o, w_g = (_gate_view("w_gates", k) for k in range(4))
    b_i, b_f, b_o, b_g = (_gate_view("b_gates", k) for k in range(4))

    @property
    def embed_dim(self) -> int:
        return self.emb.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w_out.shape[0]

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

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            "emb": self.emb,
            "w_i": self.w_i, "w_f": self.w_f, "w_o": self.w_o, "w_g": self.w_g,
            "b_i": self.b_i, "b_f": self.b_f, "b_o": self.b_o, "b_g": self.b_g,
            "w_out": self.w_out, "b_out": self.b_out,
        }

    @classmethod
    def from_tensors(cls, t: dict[str, np.ndarray]) -> "LstmParams":
        def get(name: str) -> np.ndarray:
            return np.ascontiguousarray(t[name], dtype=np.float64)

        return cls(
            emb=get("emb"),
            w_gates=np.concatenate([get(f"w_{g}") for g in GATES], axis=1),
            b_gates=np.concatenate([get(f"b_{g}") for g in GATES]),
            w_out=get("w_out"), b_out=get("b_out"),
        )


def lstm_init_state(params: LstmParams, batch: int) -> tuple[np.ndarray, np.ndarray]:
    h = np.zeros((batch, params.hidden_dim))
    return h, h.copy()


def _lstm_cell(
    params: LstmParams,
    tokens: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The gated update for a batch of token ids.

    Returns the next-nybble logits and every intermediate lstm_backward
    needs, keyed as in lstm_forward's cache; "h" and "c" are the new state.
    """
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


def lstm_step_batch(
    params: LstmParams,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    tokens: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One gated recurrent update for a batch of token ids.

    Returns (h, c, logits, probs); probs is the next-nybble distribution.
    """
    logits, step = _lstm_cell(params, tokens, h_prev, c_prev)
    ensure_finite("lstm logits", logits)
    return step["h"], step["c"], logits, softmax(logits)


def lstm_forward(params: LstmParams, inputs: np.ndarray) -> tuple[np.ndarray, dict]:
    """Unrolled forward over inputs [B, T] of token ids.

    Returns logits [B, T, VOCAB] and the cache needed by lstm_backward.
    """
    b, t_len = inputs.shape
    h, c = lstm_init_state(params, b)
    logits = np.empty((b, t_len, VOCAB))
    cache: dict = {"inputs": inputs}
    for t in range(t_len):
        logits[:, t], step = _lstm_cell(params, inputs[:, t], h, c)
        for name, arr in step.items():
            cache.setdefault(name, []).append(arr)
        h, c = step["h"], step["c"]
    ensure_finite("lstm logits", logits)
    return logits, cache


def lstm_backward(params: LstmParams, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagation through time; dlogits is [B, T, VOCAB].

    Returns gradients keyed like params.tensors().
    """
    inputs = cache["inputs"]
    b, t_len = inputs.shape
    e, hd = params.embed_dim, params.hidden_dim
    grad_params = LstmParams(**{name: np.zeros_like(arr) for name, arr in vars(params).items()})
    grads = grad_params.tensors()
    da = np.empty((b, 4 * hd))  # gate pre-activation grads, columns in GATES order
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
        grad_params.w_gates += z.T @ da
        grad_params.b_gates += da.sum(axis=0)
        # four products, not da @ w_gates.T: that sums in another order
        dz = (da_i @ params.w_i.T + da_f @ params.w_f.T
              + da_o @ params.w_o.T + da_g @ params.w_g.T)
        np.add.at(grads["emb"], inputs[:, t], dz[:, :e])
        dh_next = dz[:, e:]
    for name, arr in grads.items():
        ensure_finite(f"lstm grad {name}", arr)
    return grads


def lstm_nll(params: LstmParams, sequences: np.ndarray) -> tuple[float, dict, np.ndarray]:
    """Teacher-forced mean negative log-likelihood of nybble sequences.

    sequences is [B, T] of values 0..15; the input at step t is the previous
    value (BOS at t=0).  Returns (nll, cache, probs) where probs is
    [B, T, VOCAB].
    """
    b, t_len = sequences.shape
    inputs = np.concatenate(
        [np.full((b, 1), BOS, dtype=sequences.dtype), sequences[:, :-1]], axis=1
    )
    logits, cache = lstm_forward(params, inputs)
    probs = softmax(logits)
    picked = np.take_along_axis(probs, sequences[..., None], axis=2)[..., 0]
    nll = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    return nll, cache, probs


def lstm_nll_grads(params: LstmParams, sequences: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """NLL loss and its analytic gradients in one pass."""
    b, t_len = sequences.shape
    nll, cache, probs = lstm_nll(params, sequences)
    dlogits = probs.copy()
    rows = np.arange(b)[:, None]
    cols = np.arange(t_len)[None, :]
    dlogits[rows, cols, sequences] -= 1.0
    dlogits /= b * t_len
    return nll, lstm_backward(params, cache, dlogits)


# ---------------------------------------------------------------------------
# CNN discriminator network
# ---------------------------------------------------------------------------


@dataclass
class CnnParams:
    """Embedding, one conv bank per kernel size, highway layer, projection."""

    emb: np.ndarray  # [N_TOKENS, E]
    conv_w: dict[int, np.ndarray]  # size s -> [s*E, F]
    conv_b: dict[int, np.ndarray]  # size s -> [F]
    hw_t_w: np.ndarray  # [P, P] with P = len(KERNEL_SIZES) * F
    hw_t_b: np.ndarray
    hw_h_w: np.ndarray
    hw_h_b: np.ndarray
    out_w: np.ndarray  # [P, n_classes]
    out_b: np.ndarray

    @property
    def embed_dim(self) -> int:
        return self.emb.shape[1]

    @property
    def n_filters(self) -> int:
        return self.conv_w[KERNEL_SIZES[0]].shape[1]

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
        conv_w = {}
        conv_b = {}
        for s in KERNEL_SIZES:
            bound = np.sqrt(6.0 / (s * e + f))
            conv_w[s] = rng.uniform(-bound, bound, size=(s * e, f))
            conv_b[s] = np.zeros(f)
        hw = 1.0 / np.sqrt(p)
        return cls(
            emb=rng.normal(0.0, 0.1, size=(N_TOKENS, e)),
            conv_w=conv_w,
            conv_b=conv_b,
            hw_t_w=rng.uniform(-hw, hw, size=(p, p)),
            hw_t_b=np.full(p, -2.0),  # bias the carry gate toward identity
            hw_h_w=rng.uniform(-hw, hw, size=(p, p)),
            hw_h_b=np.zeros(p),
            out_w=rng.uniform(-hw, hw, size=(p, n_classes)),
            out_b=np.zeros(n_classes),
        )

    def tensors(self) -> dict[str, np.ndarray]:
        out = {"emb": self.emb}
        for s in KERNEL_SIZES:
            out[f"conv_w_{s:02d}"] = self.conv_w[s]
            out[f"conv_b_{s:02d}"] = self.conv_b[s]
        out.update({
            "hw_t_w": self.hw_t_w, "hw_t_b": self.hw_t_b,
            "hw_h_w": self.hw_h_w, "hw_h_b": self.hw_h_b,
            "out_w": self.out_w, "out_b": self.out_b,
        })
        return out

    @classmethod
    def from_tensors(cls, t: dict[str, np.ndarray]) -> "CnnParams":
        def get(name: str) -> np.ndarray:
            return np.ascontiguousarray(t[name], dtype=np.float64)

        return cls(
            emb=get("emb"),
            conv_w={s: get(f"conv_w_{s:02d}") for s in KERNEL_SIZES},
            conv_b={s: get(f"conv_b_{s:02d}") for s in KERNEL_SIZES},
            hw_t_w=get("hw_t_w"), hw_t_b=get("hw_t_b"),
            hw_h_w=get("hw_h_w"), hw_h_b=get("hw_h_b"),
            out_w=get("out_w"), out_b=get("out_b"),
        )


def _conv_bank(params: CnnParams, tokens: np.ndarray, s: int) -> np.ndarray:
    """Valid 1-D convolution of emb[tokens] [B, T, E] with the size-s bank.

    Tap j of a window contributes emb[token] @ W_j, which is row token of
    the [N_TOKENS, F] table emb @ W_j, so the convolution is gathers and
    adds; the taps are added in order onto bias + tap 0.  Returns
    [B, T-s+1, F].
    """
    n_pos = tokens.shape[1] - s + 1
    tab = params.emb @ params.conv_w[s].reshape(s, params.embed_dim, -1)  # [s, N_TOKENS, F]
    out = np.take(tab[0], tokens[:, :n_pos], axis=0)
    out += params.conv_b[s]
    tap = np.empty_like(out)
    for j in range(1, s):
        out += np.take(tab[j], tokens[:, j:j + n_pos], axis=0, out=tap)
    return out


def cnn_forward(params: CnnParams, tokens: np.ndarray, want_cache: bool = False):
    """Class logits/probs for token sequences [B, SEQ_LEN].

    Each filter bank max-pools over positions; the pooled vector passes
    through a highway layer and a linear projection.  Returns
    (logits, probs) or (logits, probs, cache) when want_cache is set.
    """
    b = tokens.shape[0]
    f = params.n_filters
    pooled = np.empty((b, len(KERNEL_SIZES) * f))
    argmaxes: dict[int, np.ndarray] = {}
    for idx, s in enumerate(KERNEL_SIZES):
        conv = _conv_bank(params, tokens, s)
        conv.max(axis=1, out=pooled[:, idx * f:(idx + 1) * f])
        if want_cache:
            argmaxes[s] = conv.argmax(axis=1)  # [B, F]
    t_gate = sigmoid(pooled @ params.hw_t_w + params.hw_t_b)
    h_pre = pooled @ params.hw_h_w + params.hw_h_b
    h_act = np.maximum(h_pre, 0.0)
    y = t_gate * h_act + (1.0 - t_gate) * pooled
    logits = y @ params.out_w + params.out_b
    ensure_finite("cnn logits", logits)
    probs = softmax(logits)
    if not want_cache:
        return logits, probs
    cache = {
        "tokens": tokens, "argmaxes": argmaxes, "pooled": pooled,
        "t_gate": t_gate, "h_pre": h_pre, "h_act": h_act, "y": y,
    }
    return logits, probs, cache


def cnn_backward(params: CnnParams, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss given d(loss)/d(logits)."""
    tokens = cache["tokens"]
    pooled, t_gate = cache["pooled"], cache["t_gate"]
    h_pre, h_act, y = cache["h_pre"], cache["h_act"], cache["y"]
    b = tokens.shape[0]
    e = params.embed_dim
    f = params.n_filters
    # each gradient is written once, in params.tensors() order; only emb sums
    # over the kernel sizes
    grads = dict.fromkeys(params.tensors())
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

    # max-pooling routes each (row, filter) gradient to one window, and tap j
    # of that window read one token, so tap j's gradient gathers by token
    # into an [N_TOKENS, F] table; bincount adds the slots rows share
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
        w = params.conv_w[s].reshape(s, e, f)
        grads[f"conv_w_{s:02d}"] = (params.emb.T @ by_token).reshape(s * e, f)
        grads["emb"] += (by_token @ w.transpose(0, 2, 1)).sum(axis=0)
        grads[f"conv_b_{s:02d}"] = dp.sum(axis=0)
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

    def state_tensors(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}acc_{name}": arr for name, arr in self.acc.items()}


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


def grad_check(
    loss_fn,
    tensors: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
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


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Write tensors to a byte-stable binary file.

    Layout: magic, version u32, count u32, then per tensor sorted by name:
    name (u16 length + utf-8), ndim u32, dims u64 each, float64
    little-endian values in C order.  The bytes go to a temporary file in
    the same directory, which then replaces path, so a write that fails or
    is killed part-way leaves the previous file at path intact.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
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
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint written by save_checkpoint, bit-exactly."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
        version, count = struct.unpack("<II", fh.read(8))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", fh.read(2))
            name = fh.read(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<I", fh.read(4))
            shape = tuple(struct.unpack("<Q", fh.read(8))[0] for _ in range(ndim))
            n_items = int(np.prod(shape)) if shape else 1
            data = fh.read(8 * n_items)
            if len(data) != 8 * n_items:
                raise ValueError(f"{path}: truncated tensor {name}")
            out[name] = np.frombuffer(data, dtype="<f8").reshape(shape).astype(
                np.float64
            )
        trailing = fh.read(1)
        if trailing:
            raise ValueError(f"{path}: trailing bytes after last tensor")
    return out
