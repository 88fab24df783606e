"""Adversarial training: rewards, rollouts, policy gradients, schedule."""

import copy
import logging
import math
import tracemalloc

import numpy as np
import pytest

from _oracles import (
    FullPassScores,
    combined_q,
    mc_rollout,
    reward_alias,
    reward_discriminator,
    sample_sequences,
    sequential_train_6gan,
    single_generator_pg_step,
    single_pretrain_generator,
    single_rollout_penalties,
    single_sample_tokens,
)
from sixgan import nn
from sixgan.addr import AliasTrie, NybblePrefix, NybbleSeq, parse_prefix
from sixgan.classify import classify_rfc_corpus
from sixgan.gan import (
    DiscriminatorModel,
    GeneratorModel,
    RewardConfig,
    TrainSchedule,
    _sample_tokens,
    discriminator_step,
    generate_candidates,
    generator_pg_step,
    pg_logit_grad,
    pretrain_generator,
    rollout_penalties,
    train_6gan,
)
from sixgan.nn import (
    BANK_TAPS,
    KERNEL_SIZES,
    N_TAPS,
    N_TOKENS,
    CnnParams,
    DivergenceError,
    LstmParams,
    RmsProp,
    RolloutPool,
    _conv_bank,
    cnn_forward,
    conv_tables,
    lstm_nll,
    softmax,
)

PREFIX_A = (2, 0, 0, 1, 0, 0xD, 0xB, 8)


def make_generator(seed=0, embed=10, hidden=12, pattern_id=0, lr=1e-3):
    rng_init, rng_run = np.random.SeedSequence(seed).spawn(2)
    return GeneratorModel(
        params=LstmParams.init(np.random.default_rng(rng_init), embed, hidden),
        pattern_id=pattern_id,
        rng=np.random.default_rng(rng_run),
        opt=RmsProp(lr=lr),
    )


def solo(g):
    """g as a one-generator stack: (stack view of its params, [g])."""
    return g.params[None], [g]


def solo_rngs(g):
    """g's stack view and its rng, as _sample_tokens takes them."""
    return g.params[None], [g.rng]


def make_discriminator(seed=0, k=1, embed=8, filters=2, lr=1e-4):
    rng_init = np.random.SeedSequence(seed + 1000).spawn(2)[0]
    return DiscriminatorModel(
        params=CnnParams.init(np.random.default_rng(rng_init), k + 1, embed, filters),
        k=k,
        opt=RmsProp(lr=lr),
    )


def constant_prefix_tokens(n, rng):
    suffix = rng.integers(0, 16, size=(n, 16))
    prefix = np.tile(np.array(PREFIX_A + (0, 0, 0, 0, 0, 0, 0, 0)), (n, 1))
    return np.concatenate([prefix, suffix], axis=1)


class StubScores:
    """Duck-typed discriminator returning a fixed probability table."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)

    def class_probs(self, tokens):
        return self.rows[: len(tokens)]

    def rollout_scorer(self, tokens):
        return lambda t, rollouts: self.class_probs(rollouts)


class TestConfigs:
    def test_reward_defaults(self):
        cfg = RewardConfig()
        assert (cfg.alpha, cfg.lam, cfg.rollouts) == (0.9, 10.0, 15)

    def test_reward_validation(self):
        with pytest.raises(ValueError):
            RewardConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            RewardConfig(lam=-1.0)
        with pytest.raises(ValueError):
            RewardConfig(rollouts=0)

    def test_schedule_defaults(self):
        s = TrainSchedule()
        assert (s.g_pretrain, s.d_pretrain, s.g_steps, s.d_steps) == (60, 20, 5, 1)
        assert s.batch_size == 64

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TrainSchedule(batch_size=0)
        with pytest.raises(ValueError):
            TrainSchedule(g_pretrain=-1)

    def test_discriminator_class_count_enforced(self):
        params = CnnParams.init(np.random.default_rng(0), 3, 6, 2)
        with pytest.raises(ValueError):
            DiscriminatorModel(params=params, k=3)


class TestSampling:
    def test_shapes_and_values(self):
        g = make_generator(seed=1)
        seqs = sample_sequences(g, 7)
        assert len(seqs) == 7
        for s in seqs:
            assert isinstance(s, NybbleSeq)
            assert len(s.nybbles) == 32
            assert all(0 <= v <= 15 for v in s.nybbles)

    def test_deterministic_given_stream(self):
        a = sample_sequences(make_generator(seed=2), 5)
        b = sample_sequences(make_generator(seed=2), 5)
        assert a == b

    def test_zero_weights_sample_uniformly(self):
        g = make_generator(seed=6)
        for t in g.params.tensors().values():
            t[...] = 0.0
        n = 10_000
        seqs = sample_sequences(g, n)
        counts = np.zeros((32, 16), dtype=int)
        for s in seqs:
            for pos, v in enumerate(s.nybbles):
                counts[pos, v] += 1
        freq = counts / n
        sigma = math.sqrt((1 / 16) * (15 / 16) / n)
        worst = np.abs(freq - 1 / 16).max()
        assert worst < 3 * sigma, f"worst deviation {worst:.5f} vs 3σ {3*sigma:.5f}"

    def test_pretrained_constant_prefix_reproduced(self):
        g = make_generator(seed=4, embed=16, hidden=24, lr=2e-2)
        tokens = constant_prefix_tokens(128, np.random.default_rng(5))
        pretrain_generator(*solo(g), [tokens], steps=200, batch_size=32)
        seqs = sample_sequences(g, 200)
        hits = sum(1 for s in seqs if s.nybbles[:8] == PREFIX_A)
        assert hits >= 180


class TestMcRollout:
    def test_full_length_returns_copies(self):
        g = make_generator(seed=6)
        full = tuple(np.random.default_rng(7).integers(0, 16, size=32).tolist())
        rollouts = mc_rollout(g, full, 5)
        assert len(rollouts) == 5
        assert all(r.nybbles == full for r in rollouts)

    def test_prefix_preserved(self):
        g = make_generator(seed=8)
        partial = (1, 2, 3, 4, 5)
        rollouts = mc_rollout(g, partial, 15)
        assert len(rollouts) == 15
        for r in rollouts:
            assert r.nybbles[:5] == partial
            assert len(r.nybbles) == 32


class TestRewards:
    def test_confident_discriminator_no_penalty(self):
        stub = StubScores([[1.0, 0.0]] * 4)
        rollouts = sample_sequences(make_generator(seed=9), 4)
        q = reward_discriminator(stub, 0, (1, 2, 3), 4, rollouts)
        assert q == 0.0

    def test_dismissive_discriminator_full_penalty(self):
        stub = StubScores([[0.0, 1.0]] * 4)
        rollouts = sample_sequences(make_generator(seed=10), 4)
        q = reward_discriminator(stub, 0, (1, 2, 3), 4, rollouts)
        assert q == 1.0

    def test_two_rollout_average(self):
        stub = StubScores([[0.25, 0.75], [0.75, 0.25]])
        rollouts = sample_sequences(make_generator(seed=11), 2)
        q = reward_discriminator(stub, 0, (1, 2, 3), 4, rollouts)
        assert q == pytest.approx(0.5)

    def test_final_position_scores_completed_sequence(self):
        stub = StubScores([[0.2, 0.8]])
        partial = tuple(range(16)) + tuple(range(15))
        q = reward_discriminator(stub, 0, partial, 7, [])
        assert q == pytest.approx(0.8)

    def test_real_model_rewards_in_bounds(self):
        d = make_discriminator(seed=12, k=2)
        rollouts = sample_sequences(make_generator(seed=13), 6)
        q = reward_discriminator(d, 1, (0, 1, 2), 3, rollouts)
        assert 0.0 <= q <= 1.0

    def test_alias_no_match_zero(self):
        cfg = RewardConfig()
        rollouts = [NybbleSeq((5,) * 32)]
        q = reward_alias(AliasTrie(), cfg, 4, rollouts)
        assert q == 0.0

    def test_alias_full_depth_full_reward(self):
        trie = AliasTrie([NybblePrefix(PREFIX_A)])
        cfg = RewardConfig(lam=10.0)
        rollouts = [NybbleSeq(PREFIX_A + (0,) * 24) for _ in range(3)]
        assert reward_alias(trie, cfg, 8, rollouts) == pytest.approx(10.0)

    def test_alias_half_match_hand_value(self):
        trie = AliasTrie([NybblePrefix(PREFIX_A)])
        cfg = RewardConfig(lam=10.0)
        rollouts = [
            NybbleSeq(PREFIX_A + (0,) * 24),
            NybbleSeq((9,) * 32),
        ]
        q = reward_alias(trie, cfg, 4, rollouts)
        assert q == pytest.approx(0.5 * (4 / 8) * 10.0)

    def test_alias_positions_past_prefix_unrewarded(self):
        trie = AliasTrie([NybblePrefix(PREFIX_A)])
        cfg = RewardConfig(lam=10.0)
        rollouts = [NybbleSeq(PREFIX_A + (0,) * 24)]
        assert reward_alias(trie, cfg, 9, rollouts) == 0.0

    def test_combined_additive(self):
        cfg = RewardConfig(alpha=0.9)
        assert combined_q(0.5, 2.5, cfg) == pytest.approx(2.75)
        assert combined_q(0.7, 0.0, cfg) == pytest.approx(0.7)

    def test_combined_alpha_zero_drops_alias_term(self):
        cfg = RewardConfig(alpha=0.0)
        assert combined_q(0.5, 9.9, cfg) == pytest.approx(0.5)


class TestRolloutPenalties:
    def test_batch_of_one_matches_scalar_reference(self):
        # pretrained toward PREFIX_A, so rollouts fall under the aliased prefix
        g = make_generator(seed=40, embed=16, hidden=24, lr=2e-2)
        pretrain_generator(*solo(g), [constant_prefix_tokens(128, np.random.default_rng(41))],
                           steps=200, batch_size=32)
        d = make_discriminator(seed=42, k=1)
        trie = AliasTrie([NybblePrefix(PREFIX_A)])
        cfg = RewardConfig(alpha=0.9, lam=10.0, rollouts=5)
        ref = copy.deepcopy(g)  # same weights, same RNG state

        tokens, hs, cs = _sample_tokens(*solo_rngs(g), 1, keep_states=True)
        (q_d,), (q_a,) = rollout_penalties(*solo(g), d, trie, cfg, tokens, hs, cs)

        seq = sample_sequences(ref, 1)[0].nybbles
        assert seq == tuple(tokens[0, 0].tolist())
        want_d, want_a = [], []
        for t in range(1, 33):
            rollouts = mc_rollout(ref, seq[:t], cfg.rollouts)
            want_d.append(reward_discriminator(d, g.pattern_id, seq[:t - 1], seq[t - 1], rollouts))
            want_a.append(reward_alias(trie, cfg, t, rollouts))
        assert q_d.shape == q_a.shape == (1, 32)
        assert np.abs(q_d[0] - want_d).max() <= 1e-12
        assert np.abs(q_a[0] - want_a).max() <= 1e-12
        assert q_a[0, :8].min() > 0.0  # the alias term is really exercised
        want_q = [combined_q(a, b, cfg) for a, b in zip(want_d, want_a)]
        assert np.abs(q_d[0] + cfg.alpha * q_a[0] - want_q).max() <= 1e-12

    def test_no_trie_means_no_alias_penalty(self):
        g = make_generator(seed=44)
        d = make_discriminator(seed=45, k=1)
        tokens, hs, cs = _sample_tokens(*solo_rngs(g), 3, keep_states=True)
        (q_d,), (q_a,) = rollout_penalties(*solo(g), d, None, RewardConfig(rollouts=2),
                                           tokens, hs, cs)
        assert q_d.shape == q_a.shape == (3, 32)
        assert not q_a.any()
        assert ((q_d >= 0.0) & (q_d <= 1.0)).all()


# (embedding width, filters) of the exactness checks
ROLLOUT_WIDTHS = [(5, 3), (24, 8), (200, 32)]


def biased_discriminator(embed, filters, seed=0):
    """A k=3 discriminator with nonzero conv biases, so their order shows."""
    d = make_discriminator(seed=seed, k=3, embed=embed, filters=filters)
    rng = np.random.default_rng(seed + 7)
    for bias in d.params.conv_b:
        bias[...] = rng.normal(size=filters)
    return d


def materialised_rollouts(tokens, t, n, rng):
    """[B*n, 32] rows that keep tokens[:, :t] and continue with random nybbles."""
    if t == 32:
        return tokens
    tails = rng.integers(0, 16, size=(len(tokens) * n, 32 - t))
    return np.concatenate([np.repeat(tokens[:, :t], n, axis=0), tails], axis=1)


def full_pass_pooled(params, rollouts):
    return cnn_forward(params, rollouts, want_cache=True)[2]["pooled"]


class TestIncrementalRolloutScoring:
    """Rollout scores from the prefix running max plus tail windows equal a
    full pass over the materialised rollouts bit for bit."""

    @pytest.mark.parametrize("embed,filters", ROLLOUT_WIDTHS)
    def test_penalties_equal_full_pass(self, embed, filters):
        g = make_generator(seed=embed)
        ref = copy.deepcopy(g)
        d = biased_discriminator(embed, filters)
        trie = AliasTrie([parse_prefix("2001:db8::/32")])
        cfg = RewardConfig(rollouts=3)
        got = rollout_penalties(*solo(g), d, trie, cfg,
                                *_sample_tokens(*solo_rngs(g), 4, keep_states=True))
        want = rollout_penalties(*solo(ref), FullPassScores(d), trie, cfg,
                                 *_sample_tokens(*solo_rngs(ref), 4, keep_states=True))
        assert [q.tobytes() for q in got] == [q.tobytes() for q in want]

    @pytest.mark.parametrize("embed,filters", ROLLOUT_WIDTHS)
    def test_pg_step_equals_full_pass(self, embed, filters):
        g = make_generator(seed=embed + 1)
        ref = copy.deepcopy(g)
        d = biased_discriminator(embed, filters, seed=1)
        trie = AliasTrie([parse_prefix("2001:db8::/32")])
        cfg = RewardConfig(rollouts=3)
        stats = generator_pg_step(*solo(g), d, trie, cfg, batch_size=4)
        assert stats == generator_pg_step(*solo(ref), FullPassScores(d), trie, cfg, batch_size=4)
        for name, t in g.params.tensors().items():
            assert t.tobytes() == ref.params.tensors()[name].tobytes(), name
            assert g.opt.acc[name].tobytes() == ref.opt.acc[name].tobytes(), name

    @pytest.mark.parametrize("embed,filters", ROLLOUT_WIDTHS)
    def test_scores_equal_class_probs_at_every_position(self, embed, filters):
        # t = 1, s-1 and s for every kernel size s, 31, and the sampled rows at 32
        d = biased_discriminator(embed, filters, seed=2)
        rng = np.random.default_rng(embed)
        tokens = rng.integers(0, 16, size=(3, 32))
        pool = RolloutPool(d.params, tokens)
        score = d.rollout_scorer(tokens)
        for t in range(1, 33):
            rollouts = materialised_rollouts(tokens, t, 2, rng)
            assert pool.pooled(t, rollouts).tobytes() == full_pass_pooled(d.params, rollouts).tobytes(), t
            assert score(t, rollouts).tobytes() == d.class_probs(rollouts).tobytes(), t

    @pytest.mark.parametrize("t", [1, 16, 31])
    def test_blocked_rows_equal_class_probs(self, t):
        # 70 rows x 15 rollouts = 1,050 rows: two blocks, as in class_probs
        d = biased_discriminator(24, 8, seed=3)
        rng = np.random.default_rng(t)
        tokens = rng.integers(0, 16, size=(70, 32))
        rollouts = materialised_rollouts(tokens, t, 15, rng)
        assert len(rollouts) > 2 * 512
        got = d.rollout_scorer(tokens)(t, rollouts)
        assert got.tobytes() == d.class_probs(rollouts).tobytes()

    def test_tie_between_prefix_and_tail_window(self):
        # in period-8 rows a window depends only on its start mod 8; at t = 24
        # the prefix and the tail windows each cover all 8 starts, so every
        # bank's max is reached in both
        d = biased_discriminator(24, 8, seed=4)
        t, n = 24, 2
        tokens = np.tile(np.random.default_rng(5).integers(0, 16, size=(3, 8)), (1, 4))
        rollouts = np.repeat(tokens, n, axis=0)
        tables = conv_tables(d.params)
        for s in KERNEL_SIZES:
            conv = _conv_bank(tables[BANK_TAPS[s]], np.ascontiguousarray(tokens.T))
            prefix, tail = conv[:t - s + 1].max(axis=0), conv[t - s + 1:].max(axis=0)
            assert np.array_equal(prefix, tail), s
        assert RolloutPool(d.params, tokens).pooled(t, rollouts).tobytes() == \
            full_pass_pooled(d.params, rollouts).tobytes()

    def test_signed_zero_tie(self, monkeypatch):
        # token 0 reads -0.0 on every tap (bias included), token 1 +0.0, every
        # other -1.0: a window of 0s is -0.0, of 0s and 1s +0.0, else negative
        f, t = 2, 16
        d = make_discriminator(seed=5, k=3, embed=6, filters=f)
        by_token = np.full(N_TOKENS, -1.0)
        by_token[:2] = [-0.0, 0.0]
        tables = np.broadcast_to(by_token[None, :, None], (N_TAPS, N_TOKENS, f)).copy()
        monkeypatch.setattr(nn, "conv_tables", lambda params: tables)
        ones, zeros, other = np.ones(16, int), np.zeros(16, int), np.full(16, 5)
        tokens = np.stack([np.r_[zeros[:8], other[:8], zeros],
                           np.r_[ones[:8], other[:8], ones]])
        tails = np.stack([ones, other, zeros, other])  # two rollouts per row
        rollouts = np.concatenate([np.repeat(tokens[:, :t], 2, axis=0), tails], axis=1)
        got = RolloutPool(d.params, tokens).pooled(t, rollouts)
        assert got.tobytes() == full_pass_pooled(d.params, rollouts).tobytes()
        small = got[:, :8 * f]  # kernel sizes 1..8 all see a zero-valued window
        assert (small == 0.0).all()
        assert np.signbit(small).any() and not np.signbit(small).all()

    @pytest.mark.parametrize("bad", [N_TOKENS, -1])
    def test_out_of_range_token_is_an_error(self, bad):
        d = biased_discriminator(5, 3)
        tokens = np.random.default_rng(6).integers(0, 16, size=(2, 32))
        rollouts = materialised_rollouts(tokens, 4, 2, np.random.default_rng(7))
        rollouts[3, 20] = bad
        with pytest.raises(ValueError, match="token ids"):
            d.class_probs(rollouts)
        with pytest.raises(ValueError, match="token ids"):
            d.rollout_scorer(tokens)(4, rollouts)
        tokens[0, 0] = bad
        with pytest.raises(ValueError, match="token ids"):
            d.rollout_scorer(tokens)


class TestPenaltyBoundChecks:
    """The range checks are explicit raises, so they hold under python -O."""

    def test_probability_outside_unit_interval_raises(self):
        g = make_generator(seed=46)
        stub = StubScores([[1.5, -0.5]] * (4 * 3))
        with pytest.raises(RuntimeError, match="Q_D out of range") as info:
            generator_pg_step(*solo(g), stub, None, RewardConfig(rollouts=3), batch_size=4)
        assert not isinstance(info.value, DivergenceError)

    def test_non_finite_penalty_is_divergence(self):
        g = make_generator(seed=47)
        stub = StubScores([[np.nan, 0.5]] * (4 * 3))
        with pytest.raises(DivergenceError, match="Q_D"):
            generator_pg_step(*solo(g), stub, None, RewardConfig(rollouts=3), batch_size=4)


class TestPolicyGradient:
    def test_surrogate_gradient_shape_and_direction(self):
        probs = softmax(np.zeros((4, 1, 16)))
        actions = np.array([[3], [3], [7], [7]])
        q = np.array([[1.0], [1.0], [0.0], [0.0]])
        grad = pg_logit_grad(probs, actions, q)
        assert grad.shape == (4, 1, 16)
        # descending this gradient lowers the logit of penalized token 3
        assert grad[0, 0, 3] == pytest.approx((1 - 1 / 16) / 4)
        assert grad[0, 0, 5] == pytest.approx(-(1 / 16) / 4)
        assert np.all(grad[2] == 0.0)

    def test_zero_penalty_leaves_parameters_unchanged(self):
        g = make_generator(seed=14)
        d = make_discriminator(seed=15, k=1)
        d.params.out_w[...] = 0.0
        d.params.out_b[...] = 0.0
        d.params.out_b[0] = 1000.0  # D^0 is exactly 1 on every input
        before = {k: v.copy() for k, v in g.params.tensors().items()}
        (stats,) = generator_pg_step(*solo(g), d, None, RewardConfig(rollouts=2), batch_size=8)
        assert stats["mean_q_d"] == 0.0
        assert stats["mean_q_ad"] == 0.0
        for name, t in g.params.tensors().items():
            assert np.array_equal(t, before[name]), name

    def test_stats_keys_and_bounds(self):
        g = make_generator(seed=16)
        d = make_discriminator(seed=17, k=1)
        det = AliasTrie([parse_prefix("2001:db8::/32")])
        cfg = RewardConfig(alpha=0.9, lam=10.0, rollouts=3)
        (stats,) = generator_pg_step(*solo(g), d, det, cfg, batch_size=4)
        assert 0.0 <= stats["mean_q_d"] <= 1.0
        assert 0.0 <= stats["mean_q_a"] <= 10.0
        assert 0.0 <= stats["mean_q_ad"] <= 1.0 + 0.9 * 10.0
        assert 0.0 <= stats["aliased_rate"] <= 1.0

    def test_two_token_bandit_learns_zero_penalty_token(self):
        # single position, two tokens, fixed penalties 1.0 / 0.0
        rng = np.random.default_rng(18)
        logits = np.zeros((1, 2))
        opt = RmsProp(lr=0.1)
        penalties = np.array([1.0, 0.0])
        batch = 64
        history = []
        for _ in range(200):
            probs = np.tile(softmax(logits), (batch, 1))[:, None, :]
            actions = (rng.random((batch, 1)) > probs[:, :, 0]).astype(int)
            q = penalties[actions]
            grad = pg_logit_grad(probs, actions, q).sum(axis=0)
            opt.update({"logits": logits}, {"logits": grad})
            history.append(softmax(logits)[0, 1])
        assert history[-1] > 0.9
        windows = [np.mean(history[i:i + 5]) for i in range(0, 200, 5)]
        assert all(b >= a - 1e-9 for a, b in zip(windows, windows[1:]))


class TestPretrain:
    def test_zero_steps_no_change(self):
        g = make_generator(seed=19)
        before = {k: v.copy() for k, v in g.params.tensors().items()}
        (curve,) = pretrain_generator(*solo(g), [constant_prefix_tokens(8, np.random.default_rng(0))],
                                      steps=0, batch_size=4)
        assert curve == []
        for name, t in g.params.tensors().items():
            assert np.array_equal(t, before[name])

    def test_nll_decreases(self):
        g = make_generator(seed=20, embed=16, hidden=20)
        tokens = constant_prefix_tokens(64, np.random.default_rng(21))
        (curve,) = pretrain_generator(*solo(g), [tokens], steps=60, batch_size=32)
        assert curve[-1] < curve[0]

    def test_constant_corpus_nll_collapses(self):
        g = make_generator(seed=22, embed=16, hidden=20, lr=2e-2)
        one = np.tile(np.array(PREFIX_A * 4), (32, 1))
        pretrain_generator(*solo(g), [one], steps=200, batch_size=16)
        nll, _, _ = lstm_nll(g.params, one[:1])
        assert nll < 0.01

    def test_empty_class_rejected(self):
        g = make_generator(seed=23)
        with pytest.raises(ValueError):
            pretrain_generator(*solo(g), [np.zeros((0, 32), dtype=np.int64)], 5, 4)


class TestClassProbs:
    @pytest.mark.parametrize("embed,filters", [(5, 3), (24, 8), (200, 32)])
    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1100])
    def test_blocked_equals_one_pass(self, embed, filters, n):
        d = make_discriminator(seed=embed, k=3, embed=embed, filters=filters)
        tokens = np.random.default_rng(n).integers(0, 16, size=(n, 32))
        assert d.class_probs(tokens).tobytes() == cnn_forward(d.params, tokens)[1].tobytes()

    def test_memory_bounded_in_row_count(self):
        # one pass over 4,000 rows peaks near 37 MB; 512-row blocks near 9 MB
        d = make_discriminator(seed=3, k=3, embed=24, filters=8)
        tokens = np.random.default_rng(4).integers(0, 16, size=(4000, 32))
        peaks = []
        for score in (d.class_probs, lambda t: cnn_forward(d.params, t)[1]):
            tracemalloc.start()
            try:
                score(tokens)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 16e6 < peaks[1]


class TestDiscriminatorStep:
    def test_uniform_scores_cross_entropy(self):
        d = make_discriminator(seed=24, k=2)
        d.params.out_w[...] = 0.0
        d.params.out_b[...] = 0.0
        rng = np.random.default_rng(25)
        real = [rng.integers(0, 16, size=(4, 32)) for _ in range(2)]
        fakes = rng.integers(0, 16, size=(4, 32))
        loss = discriminator_step(d, real, fakes)
        assert loss == pytest.approx(math.log(3.0))

    def test_loss_decreases_on_separable_data(self):
        d = make_discriminator(seed=26, k=1, embed=10, filters=4, lr=1e-3)
        rng = np.random.default_rng(27)
        losses = []
        for _ in range(40):
            real = [np.concatenate([np.zeros((8, 16), dtype=np.int64),
                                    rng.integers(0, 4, size=(8, 16))], axis=1)]
            fakes = rng.integers(8, 16, size=(8, 32))
            losses.append(discriminator_step(d, real, fakes))
        assert np.mean(losses[-5:]) < np.mean(losses[:5])


class TestTrain6Gan:
    def small_corpus(self, n=60, seed=0):
        rng = np.random.default_rng(seed)
        seeds = []
        seen = set()
        while len(seeds) < n:
            # alternate two easily separable shapes
            if len(seeds) % 2 == 0:
                nyb = PREFIX_A + (0,) * 16 + tuple(rng.integers(0, 16, 8).tolist())
            else:
                nyb = (0xF,) * 16 + tuple(rng.integers(0, 16, 16).tolist())
            if nyb in seen:
                continue
            seen.add(nyb)
            seeds.append(NybbleSeq(nyb))
        return classify_rfc_corpus(seeds)

    def tiny_kwargs(self):
        return dict(embed_dim=10, hidden_dim=12, n_filters=2)

    def tiny_schedule(self):
        return TrainSchedule(g_pretrain=4, d_pretrain=2, g_steps=2, d_steps=1,
                             adversarial_rounds=2, batch_size=8)

    def test_smoke_and_log_structure(self):
        corpus = self.small_corpus()
        cfg = RewardConfig(rollouts=2)
        gens, disc, records = train_6gan(
            corpus, None, cfg, self.tiny_schedule(), seed=5, **self.tiny_kwargs()
        )
        k = corpus.k
        assert len(gens) == k and disc.k == k
        kinds = [r["kind"] for r in records]
        assert kinds.count("g_pretrain") == 4 * k
        assert kinds.count("d_pretrain") == 2
        assert kinds.count("g_step") == 2 * k * 2
        assert kinds.count("d_step") == 2
        for r in records:
            for key, val in r.items():
                if isinstance(val, float):
                    assert math.isfinite(val), (key, r)

    def test_deterministic_retrain(self):
        corpus = self.small_corpus()
        cfg = RewardConfig(rollouts=2)
        out_a = train_6gan(corpus, None, cfg, self.tiny_schedule(), seed=7,
                           **self.tiny_kwargs())
        out_b = train_6gan(corpus, None, cfg, self.tiny_schedule(), seed=7,
                           **self.tiny_kwargs())
        for ga, gb in zip(out_a[0], out_b[0]):
            for name, t in ga.params.tensors().items():
                assert np.array_equal(t, gb.params.tensors()[name])
        for name, t in out_a[1].params.tensors().items():
            assert np.array_equal(t, out_b[1].params.tensors()[name])
        assert out_a[2] == out_b[2]

    def test_alpha_zero_matches_empty_trie_bitwise(self):
        corpus = self.small_corpus()
        cfg = RewardConfig(alpha=0.0, rollouts=2)
        planted = AliasTrie([parse_prefix("2001:db8::/32")])
        empty = AliasTrie([])
        out_a = train_6gan(corpus, planted, cfg, self.tiny_schedule(), seed=9,
                           **self.tiny_kwargs())
        out_b = train_6gan(corpus, empty, cfg, self.tiny_schedule(), seed=9,
                           **self.tiny_kwargs())
        for ga, gb in zip(out_a[0], out_b[0]):
            for name, t in ga.params.tensors().items():
                assert np.array_equal(t, gb.params.tensors()[name])

    def test_empty_class_listed_in_error(self):
        corpus = self.small_corpus(n=10)
        corpus.k = 3
        corpus.class_index.append([])
        with pytest.raises(ValueError, match="class 2"):
            train_6gan(corpus, None, RewardConfig(rollouts=2),
                       self.tiny_schedule(), seed=0, **self.tiny_kwargs())

    def test_on_round_called_each_round(self):
        corpus = self.small_corpus()
        calls = []
        train_6gan(corpus, None, RewardConfig(rollouts=2), self.tiny_schedule(),
                   seed=11, on_round=lambda r, g, d: calls.append(r),
                   **self.tiny_kwargs())
        assert calls == [-1, 0, 1]


class TestGenerateCandidates:
    def test_budget_one(self):
        g = make_generator(seed=30)
        out = generate_candidates(g, 1)
        assert len(out) == 1

    def test_unique_and_excludes_seeds(self):
        g = make_generator(seed=31)
        first = generate_candidates(g, 40)
        exclude = {s.nybbles for s in first}
        second = generate_candidates(g, 40, exclude)
        assert len({s.nybbles for s in second}) == len(second) == 40
        assert not exclude & {s.nybbles for s in second}

    def test_rows_in_sampling_order(self):
        g = make_generator(seed=33)
        rng = copy.deepcopy(g.rng)
        tokens, _, _ = _sample_tokens(g.params[None], [rng], 40)
        rows = [tuple(int(v) for v in row) for row in tokens[0]]
        assert len(set(rows)) == 40
        assert [s.nybbles for s in generate_candidates(g, 40)] == rows

    def test_shortfall_warns(self, caplog):
        g = make_generator(seed=32, embed=16, hidden=20, lr=2e-2)
        one = np.tile(np.array(PREFIX_A * 4), (32, 1))
        pretrain_generator(*solo(g), [one], steps=200, batch_size=16)
        only = generate_candidates(g, 1)[0]
        with caplog.at_level(logging.WARNING, logger="sixgan.gan"):
            out = generate_candidates(g, 3, exclude={only.nybbles})
        assert len(out) < 3
        assert any("unique candidates" in r.message for r in caplog.records)


# (generators k, batch rows B, embedding width E, hidden width H)
LOCKSTEP_SIZES = [(1, 4, 5, 7), (2, 1, 5, 7), (3, 1, 5, 7), (3, 4, 24, 24), (2, 2, 200, 200)]


def lockstep_generators(k, embed, hidden, seed=0):
    """(stack, generators, references): k generators with nonzero biases
    whose params are views of one stack, and deep copies of them made
    before stacking, for the single-generator references."""
    gens = [make_generator(seed=seed + j, embed=embed, hidden=hidden, pattern_id=j, lr=1e-2)
            for j in range(k)]
    for j, g in enumerate(gens):
        rng = np.random.default_rng(seed + 50 + j)
        g.params.b_gates[...] = rng.normal(size=g.params.b_gates.shape)
        g.params.b_out[...] = rng.normal(size=g.params.b_out.shape)
    refs = copy.deepcopy(gens)
    stack = LstmParams.stack([g.params for g in gens])
    for j, g in enumerate(gens):
        g.params = stack[j]
    return stack, gens, refs


def assert_same_generators(gens, refs):
    for g, ref in zip(gens, refs):
        for name, t in ref.params.tensors().items():
            assert g.params.tensors()[name].tobytes() == t.tobytes(), (g.pattern_id, name)
        assert sorted(g.opt.acc) == sorted(ref.opt.acc)
        for name, acc in ref.opt.acc.items():
            assert g.opt.acc[name].tobytes() == acc.tobytes(), (g.pattern_id, name)
        assert g.rng.bit_generator.state == ref.rng.bit_generator.state


class TestLockstep:
    """k generators stepped in lockstep reach the bytes each one reaches
    alone, through the single-generator references."""

    @pytest.mark.parametrize("k,b,e,h", LOCKSTEP_SIZES)
    def test_pretraining_matches_sequential(self, k, b, e, h):
        stack, gens, refs = lockstep_generators(k, e, h)
        seeds = [constant_prefix_tokens(20 + j, np.random.default_rng(j)) for j in range(k)]
        curves = pretrain_generator(stack, gens, seeds, steps=3, batch_size=b)
        for j, ref in enumerate(refs):
            assert curves[j] == single_pretrain_generator(ref, seeds[j], 3, b)
        assert_same_generators(gens, refs)

    @pytest.mark.parametrize("k,b,e,h", LOCKSTEP_SIZES)
    def test_sampling_matches_sequential(self, k, b, e, h):
        stack, gens, refs = lockstep_generators(k, e, h, seed=10)
        tokens, hs, cs = _sample_tokens(stack, [g.rng for g in gens], b, keep_states=True)
        for j, ref in enumerate(refs):
            want, want_hs, want_cs = single_sample_tokens(ref.params, b, ref.rng, keep_states=True)
            assert tokens[j].tobytes() == want.tobytes(), j
            assert [s[j].tobytes() for s in hs] == [s.tobytes() for s in want_hs], j
            assert [s[j].tobytes() for s in cs] == [s.tobytes() for s in want_cs], j
        assert_same_generators(gens, refs)

    @pytest.mark.parametrize("k,b,e,h", LOCKSTEP_SIZES)
    def test_rollout_penalties_match_sequential(self, k, b, e, h):
        stack, gens, refs = lockstep_generators(k, e, h, seed=20)
        d = biased_discriminator(8, 3)
        trie = AliasTrie([parse_prefix("2001:db8::/32")])
        cfg = RewardConfig(rollouts=3)
        q_d, q_a = rollout_penalties(stack, gens, d, trie, cfg,
                                     *_sample_tokens(stack, [g.rng for g in gens], b,
                                                     keep_states=True))
        for j, ref in enumerate(refs):
            sampled = single_sample_tokens(ref.params, b, ref.rng, keep_states=True)
            want_d, want_a = single_rollout_penalties(ref, d, trie, cfg, *sampled)
            assert q_d[j].tobytes() == want_d.tobytes(), j
            assert q_a[j].tobytes() == want_a.tobytes(), j
        assert_same_generators(gens, refs)

    @pytest.mark.parametrize("k,b,e,h", LOCKSTEP_SIZES)
    def test_pg_step_matches_sequential(self, k, b, e, h):
        stack, gens, refs = lockstep_generators(k, e, h, seed=30)
        d = biased_discriminator(8, 3, seed=1)
        trie = AliasTrie([parse_prefix("2001:db8::/32")])
        cfg = RewardConfig(rollouts=3)
        for _ in range(2):
            stats = generator_pg_step(stack, gens, d, trie, cfg, batch_size=b)
            assert stats == [single_generator_pg_step(ref, d, trie, cfg, b) for ref in refs]
        assert_same_generators(gens, refs)

    @pytest.mark.parametrize("with_trie", [False, True])
    def test_train_6gan_matches_sequential(self, with_trie):
        corpus = three_class_corpus()
        assert corpus.k >= 3
        trie = AliasTrie([NybblePrefix(PREFIX_A)]) if with_trie else None
        cfg = RewardConfig(rollouts=2)
        schedule = TrainSchedule(g_pretrain=4, d_pretrain=2, g_steps=2, d_steps=1,
                                 adversarial_rounds=2, batch_size=8)
        kwargs = dict(embed_dim=5, hidden_dim=7, n_filters=2, lr_gen=1e-2, lr_disc=1e-3)
        streamed = []
        gens, disc, records = train_6gan(corpus, trie, cfg, schedule, seed=3,
                                         on_record=streamed.append, **kwargs)
        want_gens, want_disc, want_records = sequential_train_6gan(corpus, trie, cfg, schedule,
                                                                   seed=3, **kwargs)
        assert records == want_records
        assert streamed == want_records
        assert_same_generators(gens, want_gens)
        for name, t in want_disc.params.tensors().items():
            assert disc.params.tensors()[name].tobytes() == t.tobytes(), name
        for name, acc in want_disc.opt.acc.items():
            assert disc.opt.acc[name].tobytes() == acc.tobytes(), name
        base = gens[0].params.emb.base
        assert all(g.params.emb.base is base for g in gens)  # one stack

    def test_divergence_in_one_generator_raises(self):
        stack, gens, _ = lockstep_generators(3, 5, 7, seed=40)
        stack.w_out[2, 0, 0] = np.nan
        seeds = [constant_prefix_tokens(8, np.random.default_rng(j)) for j in range(3)]
        with pytest.raises(DivergenceError):
            pretrain_generator(stack, gens, seeds, steps=1, batch_size=4)
        with pytest.raises(DivergenceError):
            generator_pg_step(stack, gens, make_discriminator(seed=41, k=3), None,
                              RewardConfig(rollouts=2), batch_size=4)


def three_class_corpus(n=90, seed=0):
    """Seeds of three shapes, which the RFC classifier splits into k >= 3 classes."""
    rng = np.random.default_rng(seed)
    seeds, seen = [], set()
    while len(seeds) < n:
        shape = len(seeds) % 3
        if shape == 0:  # low byte
            nyb = PREFIX_A + (0,) * 8 + (0,) * 14 + tuple(rng.integers(0, 16, 2).tolist())
        elif shape == 1:
            nyb = PREFIX_A + (0,) * 8 + tuple(rng.integers(0, 16, 16).tolist())
        else:
            nyb = (0xF,) * 16 + tuple(rng.integers(0, 16, 16).tolist())
        if nyb not in seen:
            seen.add(nyb)
            seeds.append(NybbleSeq(nyb))
    return classify_rfc_corpus(seeds)
