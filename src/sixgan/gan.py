"""Adversarial training of pattern-specialized address generators.

k LSTM generators, one per seed pattern class, train against a single
(k+1)-class CNN discriminator.  Generators minimize a penalty objective
J = sum_t Q(x_t | X_{0:t-1}) via REINFORCE-style policy gradients, where
the per-position penalty Q combines the discriminator's rejection of the
pattern class with an aliased-prefix penalty estimated over Monte Carlo
rollouts of the unfinished sequence.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .addr import AliasTrie, NybbleSeq, token_matrix, token_rows
from .classify import LabeledSeedCorpus
from .nn import (
    BOS,
    SEQ_LEN,
    CnnParams,
    LstmParams,
    RmsProp,
    RolloutPool,
    cnn_forward,
    cnn_head,
    cnn_nll_grads,
    conv_tables,
    ensure_finite,
    lstm_backward,
    lstm_init_state,
    lstm_nll,
    lstm_nll_grads,
    lstm_step_batch,
)

log = logging.getLogger("sixgan.gan")


def _check_at_least(config, section: str, **lows) -> None:
    """Raise ValueError naming the first field of config below its low bound (or NaN)."""
    for key, low in lows.items():
        if not getattr(config, key) >= low:
            raise ValueError(f"{section}.{key} must be >= {low}, got {getattr(config, key)}")


@dataclass
class RewardConfig:
    alpha: float = 0.9
    lam: float = 10.0
    rollouts: int = 15

    def __post_init__(self) -> None:
        _check_at_least(self, "reward", alpha=0, lam=0, rollouts=1)


@dataclass
class TrainSchedule:
    g_pretrain: int = 60
    d_pretrain: int = 20
    g_steps: int = 5
    d_steps: int = 1
    adversarial_rounds: int = 20
    batch_size: int = 64

    def __post_init__(self) -> None:
        _check_at_least(self, "schedule", g_pretrain=0, d_pretrain=0, g_steps=0, d_steps=0,
                        adversarial_rounds=0, batch_size=1)


@dataclass
class NetConfig:
    """Network widths and RMSProp learning rates (the config's nn section)."""

    embed_dim: int = 200
    hidden_dim: int = 200
    n_filters: int = 32
    lr_gen: float = 1e-3
    lr_disc: float = 1e-4

    def __post_init__(self) -> None:
        _check_at_least(self, "nn", embed_dim=1, hidden_dim=1, n_filters=1)
        for key in ("lr_gen", "lr_disc"):
            lr = getattr(self, key)
            if not (math.isfinite(lr) and lr > 0):
                raise ValueError(f"nn.{key} must be a finite number > 0, got {lr}")


@dataclass
class Generators:
    """The k pattern generators: generator j, trained for pattern j, is
    entry j of the [k, ...] params stack and draws from rngs[j].  One
    RMSProp updates the whole stack; it is elementwise, so each entry gets
    the bytes of its own update."""

    params: LstmParams
    rngs: list[np.random.Generator]
    opt: RmsProp = field(default_factory=lambda: RmsProp(lr=NetConfig.lr_gen))

    def __post_init__(self) -> None:
        if self.params.emb.shape[:-2] != (self.k,):
            raise ValueError(f"{self.k} rngs for a stack with emb of shape {self.params.emb.shape}")

    @property
    def k(self) -> int:
        return len(self.rngs)

    def sample(self, j: int, n: int) -> np.ndarray:
        """[n, 32] tokens from generator j alone, as a one-entry stack."""
        return _sample_tokens(self.params[j][None], [self.rngs[j]], n)[0][0]


SCORE_BLOCK = 512  # rows per scoring pass in class_probs; bounds its working memory


def _in_blocks(rows: np.ndarray, score) -> np.ndarray:
    """score over blocks of SCORE_BLOCK rows, concatenated.

    The remainder joins the last block rather than forming a small one: a
    one-row block is a matrix-vector product, which rounds differently.
    """
    edges = [i * SCORE_BLOCK for i in range(max(1, len(rows) // SCORE_BLOCK))]
    edges.append(len(rows))
    return np.concatenate([score(rows[lo:hi]) for lo, hi in zip(edges, edges[1:])])


@dataclass
class DiscriminatorModel:
    params: CnnParams
    k: int
    opt: RmsProp = field(default_factory=lambda: RmsProp(lr=NetConfig.lr_disc))

    def __post_init__(self) -> None:
        if self.params.n_classes != self.k + 1:
            raise ValueError(
                f"discriminator emits {self.params.n_classes} classes, "
                f"expected k+1 = {self.k + 1}"
            )

    def class_probs(self, tokens: np.ndarray) -> np.ndarray:
        """Softmax scores over the k pattern classes plus the fake class.

        Rows are scored in blocks of SCORE_BLOCK rows, so memory does not
        grow with the row count.  Rows are independent, so a block's scores
        are those of one whole-batch pass wherever BLAS computes both with
        the same kernel.
        """
        return _in_blocks(tokens, lambda rows: cnn_forward(self.params, rows)[1])

    def rollout_scorers(self, tokens: np.ndarray):
        """score_j(t, rollouts): class_probs(rollouts) for rollouts of batch
        j of the sampled stack tokens [k, B, SEQ_LEN], made one at a time.

        Row b*N + n of rollouts continues row b after its first t tokens,
        and at t = SEQ_LEN the rollouts are the batch.  The scores equal
        class_probs' bit for bit: the pooled features are exact (see
        RolloutPool) and the head runs on the same row blocks.  The tap
        tables are built once: the discriminator is fixed while they score.
        """
        tables = conv_tables(self.params)
        for batch in tokens:
            pool = RolloutPool(self.params, batch, tables)
            yield lambda t, rollouts, pool=pool: _in_blocks(
                pool.pooled(t, rollouts), lambda rows: cnn_head(self.params, rows)[1])


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _categorical_rows(probs: np.ndarray, rngs: list[np.random.Generator]) -> np.ndarray:
    """One sample per row of each generator's [n, V] distributions
    (inverse CDF); generator j draws its n uniforms from rngs[j]."""
    cdf = probs.cumsum(axis=-1)
    u = np.empty(cdf.shape[:-1])
    for j, rng in enumerate(rngs):
        rng.random(out=u[j])
    return np.minimum((cdf < u[..., None]).sum(axis=-1), probs.shape[-1] - 1)


def _continue_tokens(
    params: LstmParams,
    rngs: list[np.random.Generator],
    h: np.ndarray,
    c: np.ndarray,
    prev: np.ndarray,
    steps: int,
    keep_states: bool = False,
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """[k, n, steps] tokens drawn one lockstep LSTM step at a time from the
    stack's states (h, c) [k, n, H], whose last tokens are prev [k, n].

    When keep_states is set, also returns the (h, c) state recorded after
    each drawn position, for resuming rollouts mid-sequence.
    """
    out = np.empty(prev.shape + (steps,), dtype=np.int64)
    hs: list[np.ndarray] = []
    cs: list[np.ndarray] = []
    for t in range(steps):
        h, c, _, probs = lstm_step_batch(params, h, c, prev.ravel())
        prev = _categorical_rows(probs, rngs)
        out[..., t] = prev
        if keep_states:
            hs.append(h)
            cs.append(c)
    return out, hs, cs


def _sample_tokens(
    params: LstmParams,
    rngs: list[np.random.Generator],
    n: int,
    keep_states: bool = False,
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Autoregressive sampling of [k, n, 32] nybble tokens from BOS, n rows
    for each generator of the stack."""
    h, c = lstm_init_state(params, n)
    prev = np.full((len(rngs), n), BOS, dtype=np.int64)
    return _continue_tokens(params, rngs, h, c, prev, SEQ_LEN, keep_states)


# ---------------------------------------------------------------------------
# Rewards (penalties; lower is better for the generator)
# ---------------------------------------------------------------------------


_BOUND_EPS = 1e-9  # headroom for float rounding in the penalty range checks


def _alias_contrib(lengths: np.ndarray, t: int, lam: float) -> np.ndarray:
    """Per-rollout alias penalty (t/L)*lam where matched and t <= L, else 0."""
    scaled = t / np.maximum(lengths, 1) * lam
    return np.where((lengths > 0) & (t <= lengths), scaled, 0.0)


def rollout_penalties(
    gens: Generators,
    d: DiscriminatorModel,
    trie: AliasTrie | None,
    cfg: RewardConfig,
    tokens: np.ndarray,
    hs: list[np.ndarray],
    cs: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo penalties (Q_D, Q_A), each [k, B, SEQ_LEN], of the
    generators' sampled batches.

    tokens, hs and cs come from _sample_tokens(keep_states=True).  At each
    position t < SEQ_LEN, cfg.rollouts completions continue every sequence
    from its cached state, sampled from its own generator; all k
    generators' completions are drawn first, in lockstep and in position
    order.  Then each generator's scorer from d.rollout_scorers scores its
    completions, and at t = SEQ_LEN its sequences themselves, one
    generator at a time, so one scorer's running maxima are live at once.
    Q_D is the mean discriminator penalty 1 - D^j over generator j's
    completions.  Q_A is the mean alias penalty: a completion under an aliased prefix of length L
    contributes (t/L)*lambda when t <= L, and 0 otherwise.  Without a trie
    Q_A is 0.
    """
    k, b = tokens.shape[:2]
    n = cfg.rollouts
    tails = []  # [k, B*n, SEQ_LEN-t] per position t, as nybbles
    for t in range(1, SEQ_LEN):
        h_rep = np.repeat(hs[t - 1], n, axis=1)
        c_rep = np.repeat(cs[t - 1], n, axis=1)
        prev = np.repeat(tokens[:, :, t - 1], n, axis=1)
        drawn, _, _ = _continue_tokens(gens.params, gens.rngs, h_rep, c_rep, prev, SEQ_LEN - t)
        tails.append(drawn.astype(np.uint8))
    q_d = np.empty((k, b, SEQ_LEN))
    q_a = np.zeros((k, b, SEQ_LEN))
    for j, score in enumerate(d.rollout_scorers(tokens)):
        for t in range(1, SEQ_LEN + 1):
            if t < SEQ_LEN:
                m = n
                full = np.concatenate([np.repeat(tokens[j, :, :t], n, axis=0), tails[t - 1][j]],
                                      axis=1)
            else:
                m, full = 1, tokens[j]
            probs = score(t, full)
            q_d[j, :, t - 1] = (1.0 - probs[:, j]).reshape(b, m).mean(axis=1)
            if trie is not None:
                contrib = _alias_contrib(trie.match_batch(full), t, cfg.lam)
                q_a[j, :, t - 1] = contrib.reshape(b, m).mean(axis=1)
    return q_d, q_a


def _check_range(name: str, q: np.ndarray, hi: float) -> None:
    """Raise unless every penalty is finite and in [0, hi], up to rounding."""
    ensure_finite(name, q)
    if (q < -_BOUND_EPS).any() or (q > hi + _BOUND_EPS).any():
        raise RuntimeError(f"{name} out of range [0, {hi}]: min {q.min()}, max {q.max()}")


# ---------------------------------------------------------------------------
# Policy-gradient training
# ---------------------------------------------------------------------------


def pg_logit_grad(probs: np.ndarray, actions: np.ndarray, q: np.ndarray) -> np.ndarray:
    """d/dlogits of the penalty surrogate mean_b sum_t Q * log p(action).

    Descending this surrogate lowers the probability of high-penalty
    actions.  probs is [..., B, T, V]; actions and q are [..., B, T].
    """
    grad = -q[..., None] * probs
    picked = np.take_along_axis(grad, actions[..., None], axis=-1)
    np.put_along_axis(grad, actions[..., None], picked + q[..., None], axis=-1)
    grad /= probs.shape[-3]
    return grad


def generator_pg_step(
    gens: Generators,
    d: DiscriminatorModel,
    trie: AliasTrie | None,
    cfg: RewardConfig,
    batch_size: int,
) -> list[dict]:
    """One REINFORCE update of every generator, in lockstep; returns one
    stats record per generator.

    Generator j draws from rngs[j] and is scored for pattern j.  For every
    position t of every sampled sequence, N rollouts complete the sequence
    from the generator's cached state; the discriminator and alias
    penalties of the completions give Q_AD(x_t), and one RMSProp step of
    the stack descends the penalty-weighted log-likelihood.
    """
    tokens, hs, cs = _sample_tokens(gens.params, gens.rngs, batch_size, keep_states=True)
    q_d, q_a = rollout_penalties(gens, d, trie, cfg, tokens, hs, cs)
    del hs, cs  # the k-fold BPTT cache below is the step's peak; keep it alone
    aliased_rates = [float((trie.match_batch(toks) > 0).mean()) if trie is not None else 0.0
                     for toks in tokens]

    _check_range("Q_D", q_d, 1.0)
    _check_range("Q_A", q_a, cfg.lam)
    q = q_d + cfg.alpha * q_a
    _check_range("Q_AD", q, 1.0 + cfg.alpha * cfg.lam)

    _, cache, probs = lstm_nll(gens.params, tokens)
    dlogits = pg_logit_grad(probs, tokens, q)
    del probs
    grads = lstm_backward(gens.params, cache, dlogits)
    # the BPTT cache is most of what is live here; the update's temporaries
    # are each as large as w_gates, so free the cache before they exist
    del cache, dlogits
    gens.opt.update(gens.params.tensors(), grads)
    return [{"mean_q_d": float(q_d[j].mean()), "mean_q_a": float(q_a[j].mean()),
             "mean_q_ad": float(q[j].mean()), "aliased_rate": aliased_rates[j]}
            for j in range(gens.k)]


def discriminator_step(
    d: DiscriminatorModel,
    real_by_class: list[np.ndarray],
    fakes: np.ndarray,
) -> float:
    """One cross-entropy update: real class i -> label i, fakes -> label k."""
    if len(real_by_class) != d.k:
        raise ValueError(f"expected {d.k} real classes, got {len(real_by_class)}")
    xs = np.concatenate(list(real_by_class) + [fakes], axis=0)
    labels = np.concatenate(
        [np.full(len(batch), i) for i, batch in enumerate(real_by_class)]
        + [np.full(len(fakes), d.k)]
    ).astype(np.int64)
    loss, grads = cnn_nll_grads(d.params, xs, labels)
    d.opt.update(d.params.tensors(), grads)
    return loss


def pretrain_generator(
    gens: Generators,
    seed_tokens: list[np.ndarray],
    steps: int,
    batch_size: int,
) -> list[list[float]]:
    """Teacher-forced MLE pretraining of every generator, in lockstep,
    generator j on seed_tokens[j]; returns each generator's per-step NLL
    curve."""
    if any(len(toks) == 0 for toks in seed_tokens):
        raise ValueError("cannot pretrain on an empty seed class")
    nlls = np.empty((steps, gens.k))
    for step in range(steps):
        batch = np.stack([toks[rng.integers(len(toks), size=batch_size)]
                          for rng, toks in zip(gens.rngs, seed_tokens)])
        nlls[step], grads = lstm_nll_grads(gens.params, batch)
        gens.opt.update(gens.params.tensors(), grads)
    return nlls.T.tolist()


# ---------------------------------------------------------------------------
# Full training loop
# ---------------------------------------------------------------------------


def _fake_pool(gens: Generators, n: int) -> np.ndarray:
    """n generated sequences drawn as evenly as possible across generators."""
    k = gens.k
    counts = [n // k + (1 if j < n % k else 0) for j in range(k)]
    return np.concatenate([gens.sample(j, c) for j, c in enumerate(counts) if c > 0], axis=0)


def train_6gan(
    corpus: LabeledSeedCorpus,
    trie: AliasTrie | None,
    cfg: RewardConfig,
    schedule: TrainSchedule,
    net: NetConfig,
    seed: int,
    on_round=None,
    on_record=None,
) -> tuple[Generators, DiscriminatorModel, list[dict]]:
    """Pretrain k generators and the discriminator, then alternate
    g_steps policy-gradient updates per generator with d_steps
    discriminator updates for the scheduled number of rounds.  The k
    generators take their pretraining and policy-gradient steps in
    lockstep, with the values each would reach alone.  net gives both
    networks' widths and learning rates.

    on_round, when given, is called as on_round(round_index, generators,
    discriminator) after pretraining (index -1) and after every
    adversarial round, e.g. to persist checkpoints so a later divergence
    still leaves the last finite state on disk.  on_record, when given,
    is called with each log record as it is made, e.g. to stream the
    training log so a divergence still leaves the steps that led to it.
    The generators' records of a lockstep phase (pretraining, or a
    round's policy-gradient steps) are made when the phase ends, by
    generator and then step.
    """
    k = corpus.k
    for cid in range(k):
        if not corpus.class_index[cid]:
            raise ValueError(f"seed class {cid} is empty")
    class_tokens = [token_matrix(corpus.class_seeds(cid)) for cid in range(k)]

    ss = np.random.SeedSequence(seed)
    streams = [s.spawn(2) for s in ss.spawn(k + 1)]  # (init, runtime) per model
    gens = Generators(
        params=LstmParams.stack([
            LstmParams.init(np.random.default_rng(streams[i][0]), net.embed_dim, net.hidden_dim)
            for i in range(k)
        ]),
        rngs=[np.random.default_rng(streams[i][1]) for i in range(k)],
        opt=RmsProp(lr=net.lr_gen),
    )
    d_rng = np.random.default_rng(streams[k][1])
    disc = DiscriminatorModel(
        params=CnnParams.init(np.random.default_rng(streams[k][0]), k + 1, net.embed_dim,
                              net.n_filters),
        k=k,
        opt=RmsProp(lr=net.lr_disc),
    )

    records: list[dict] = []

    def emit(rec: dict) -> None:
        records.append(rec)
        if on_record is not None:
            on_record(rec)

    curves = pretrain_generator(gens, class_tokens, schedule.g_pretrain, schedule.batch_size)
    for i, curve in enumerate(curves):
        for step, nll in enumerate(curve):
            emit({"kind": "g_pretrain", "generator": i, "step": step, "nll": nll})

    per_class = max(1, schedule.batch_size // (k + 1))

    def real_batches() -> list[np.ndarray]:
        return [toks[d_rng.integers(len(toks), size=per_class)] for toks in class_tokens]

    for step in range(schedule.d_pretrain):
        loss = discriminator_step(disc, real_batches(), _fake_pool(gens, per_class))
        emit({"kind": "d_pretrain", "step": step, "loss": loss})

    if on_round is not None:
        on_round(-1, gens, disc)
    for rnd in range(schedule.adversarial_rounds):
        by_step = [generator_pg_step(gens, disc, trie, cfg, schedule.batch_size)
                   for _ in range(schedule.g_steps)]
        for i in range(k):  # records by generator, then step
            for step, stats in enumerate(by_step):
                emit({"kind": "g_step", "round": rnd, "generator": i, "step": step, **stats[i]})
        for step in range(schedule.d_steps):
            loss = discriminator_step(disc, real_batches(), _fake_pool(gens, per_class))
            emit({"kind": "d_step", "round": rnd, "step": step, "loss": loss})
        if on_round is not None:
            on_round(rnd, gens, disc)
    return gens, disc, records


def generate_candidates(
    gens: Generators,
    j: int,
    budget: int,
    exclude: set[bytes] | None = None,
) -> list[NybbleSeq]:
    """Up to budget unique addresses from generator j whose nybbles are not
    in exclude, a set of NybbleSeq.nybbles keys.

    Sampling stops after 50x budget attempts; a shortfall is logged and
    the partial set returned.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    exclude = exclude or set()
    if not all(type(key) is bytes for key in exclude):  # a tuple would exclude nothing
        raise TypeError("exclude takes NybbleSeq.nybbles keys, which are bytes")
    out: list[NybbleSeq] = []
    seen: set[bytes] = set()
    attempts = 0
    while len(out) < budget and attempts < 50 * budget:
        chunk = min(max(budget - len(out), 1), 4096)
        attempts += chunk
        for key in token_rows(gens.sample(j, chunk)):
            if key in seen or key in exclude:
                continue
            seen.add(key)
            out.append(NybbleSeq(key))
            if len(out) == budget:
                break
    if len(out) < budget:
        log.warning("generator %d produced %d/%d unique candidates before the attempt cap",
                    j, len(out), budget)
    return out
