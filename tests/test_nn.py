"""Neural substrate: forward passes, analytic gradients, persistence."""

import math
import os
import tracemalloc

import numpy as np
import pytest

from _oracles import (
    AllocatingRmsProp,
    bank_cnn_backward,
    bank_conv_tables,
    bank_pooled,
    bank_tensors,
    dense_cnn_backward,
    four_gate_lstm_cell,
    grad_check,
    masked_sigmoid,
    per_gate_lstm_backward,
    single_lstm_backward,
    single_lstm_forward,
    single_lstm_nll_grads,
    single_lstm_step,
    tap_cnn_logits,
    where_sigmoid,
)
from sixgan.nn import (
    BANK_TAPS,
    CHECKPOINT_MAGIC,
    KERNEL_SIZES,
    N_TAPS,
    N_TOKENS,
    SEQ_LEN,
    CnnParams,
    DivergenceError,
    LstmParams,
    RmsProp,
    RolloutPool,
    cnn_backward,
    cnn_forward,
    cnn_head,
    cnn_nll_grads,
    conv_tables,
    ensure_finite,
    lstm_backward,
    lstm_forward,
    lstm_init_state,
    lstm_nll,
    lstm_nll_grads,
    lstm_step_batch,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
    softmax,
)


def tiny_lstm(seed=0, embed=6, hidden=7):
    return LstmParams.init(np.random.default_rng(seed), embed_dim=embed,
                           hidden_dim=hidden)


def tiny_cnn(seed=0, n_classes=4, embed=5, filters=3):
    return CnnParams.init(np.random.default_rng(seed), n_classes=n_classes,
                          embed_dim=embed, n_filters=filters)


class TestActivations:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(scale=20.0, size=(8, 16))
        p = softmax(x)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert (p > 0).all()

    def test_softmax_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(x), softmax(x + 100.0))

    def test_softmax_extreme_logits_finite(self):
        p = softmax(np.array([[1000.0, -1000.0, 0.0]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)

    def test_sigmoid_stable_at_extremes(self):
        x = np.array([-745.0, -30.0, 0.0, 30.0, 745.0])
        y = sigmoid(x)
        assert np.isfinite(y).all()
        assert y[0] == pytest.approx(0.0, abs=1e-300)
        assert y[2] == pytest.approx(0.5)
        assert y[4] == pytest.approx(1.0)

    def test_ensure_finite_raises(self):
        with pytest.raises(DivergenceError):
            ensure_finite("probe", np.array([1.0, np.nan]))
        ensure_finite("probe", np.array([1.0, 2.0]))


class TestLstmForward:
    def test_zero_weights_uniform_probs(self):
        p = tiny_lstm()
        for t in p.tensors().values():
            t[...] = 0.0
        h, c = lstm_init_state(p, 1)
        _, _, _, probs = lstm_step_batch(p, h, c, np.array([16]))
        assert probs[0] == pytest.approx([1.0 / 16] * 16)

    def test_probs_sum_to_one(self):
        p = tiny_lstm(seed=3)
        h, c = lstm_init_state(p, 1)
        h, c, logits, probs = lstm_step_batch(p, h, c, np.array([5]))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert logits.shape == (1, 16) and probs.shape == (1, 16)

    def test_forget_bias_initialized_to_one(self):
        p = tiny_lstm(seed=1)
        h = p.hidden_dim  # columns in GATES order: i, f, o, g
        assert np.allclose(p.b_gates[h:2 * h], 1.0)
        assert np.allclose(np.delete(p.b_gates, np.s_[h:2 * h]), 0.0)

    def test_forward_matches_manual_recurrence(self):
        # independent scalar re-implementation of the gated update
        p = tiny_lstm(seed=2, embed=3, hidden=2)
        tokens = np.array([[16, 4, 9]])
        logits, cache = lstm_forward(p, tokens)

        def sig(x):
            return 1.0 / (1.0 + math.exp(-x))

        h = [0.0] * 2
        c = [0.0] * 2
        for t, tok in enumerate([16, 4, 9]):
            x = list(p.emb[tok])
            xi = x + h
            pre = {}
            for k, gate in enumerate("ifog"):  # gate k owns columns 2k, 2k+1
                pre[gate] = [
                    sum(xi[r] * p.w_gates[r, 2 * k + j] for r in range(len(xi)))
                    + p.b_gates[2 * k + j]
                    for j in range(2)
                ]
            i_g = [sig(v) for v in pre["i"]]
            f_g = [sig(v) for v in pre["f"]]
            o_g = [sig(v) for v in pre["o"]]
            g_g = [math.tanh(v) for v in pre["g"]]
            c = [f_g[j] * c[j] + i_g[j] * g_g[j] for j in range(2)]
            h = [o_g[j] * math.tanh(c[j]) for j in range(2)]
            want = [
                sum(h[r] * p.w_out[r, v] for r in range(2)) + p.b_out[v]
                for v in range(16)
            ]
            assert logits[0, t] == pytest.approx(want, rel=1e-12)

    def test_step_batch_matches_forward_bitwise(self):
        p = tiny_lstm(seed=6)
        inputs = np.random.default_rng(8).integers(0, 17, size=(4, 9))
        logits, cache = lstm_forward(p, inputs)
        h, c = lstm_init_state(p, 4)
        for t in range(inputs.shape[1]):
            h, c, step_logits, _ = lstm_step_batch(p, h, c, inputs[:, t])
            assert np.array_equal(step_logits, logits[:, t])
            assert np.array_equal(h, cache["h"][t])
            assert np.array_equal(c, cache["c"][t])

    def test_nonfinite_weights_raise(self):
        p = tiny_lstm(seed=4)
        p.w_out[0, 0] = np.inf
        with pytest.raises(DivergenceError):
            lstm_forward(p, np.array([[16, 1, 2]]))


# (embedding width, filters or hidden width, batch rows)
EXACT_SHAPES = [(5, 3, 7), (24, 8, 64), (200, 32, 16)]


class TestExactForms:
    """The table-lookup and fused-gate passes equal the earlier forms bit for bit."""

    @pytest.mark.parametrize("e,f,b", EXACT_SHAPES)
    def test_cnn_logits_match_tap_matmuls(self, e, f, b):
        p = CnnParams.init(np.random.default_rng(e), n_classes=4, embed_dim=e, n_filters=f)
        rng = np.random.default_rng(b)
        for bias in p.conv_b:  # nonzero, so the order it is added in shows
            bias[...] = rng.normal(size=f)
        tokens = rng.integers(0, 17, size=(b, 32))
        want = tap_cnn_logits(p, tokens).tobytes()
        assert cnn_forward(p, tokens)[0].tobytes() == want
        assert cnn_forward(p, tokens, want_cache=True)[0].tobytes() == want

    @pytest.mark.parametrize("e,h,b", EXACT_SHAPES)
    def test_lstm_cell_matches_four_gate_products(self, e, h, b):
        p = LstmParams.init(np.random.default_rng(e), embed_dim=e, hidden_dim=h)
        rng = np.random.default_rng(b)
        p.b_gates[...] = rng.normal(size=4 * h)
        tokens = rng.integers(0, 17, size=b)
        h_prev, c_prev = rng.normal(size=(b, h)), rng.normal(size=(b, h))
        h_new, c_new, logits, _ = lstm_step_batch(p, h_prev, c_prev, tokens)
        want = four_gate_lstm_cell(p, tokens, h_prev, c_prev)
        assert [a.tobytes() for a in (logits, h_new, c_new)] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("e,h,b", EXACT_SHAPES)
    def test_lstm_backward_matches_per_gate_products(self, e, h, b):
        p = LstmParams.init(np.random.default_rng(e), embed_dim=e, hidden_dim=h)
        rng = np.random.default_rng(b)
        logits, cache = lstm_forward(p, rng.integers(0, 17, size=(b, 32)))
        dlogits = rng.normal(size=logits.shape) / b
        got = lstm_backward(p, cache, dlogits)
        want = per_gate_lstm_backward(p, cache, dlogits)
        want["w_gates"] = np.concatenate([want.pop(f"w_{g}") for g in "ifog"], axis=1)
        want["b_gates"] = np.concatenate([want.pop(f"b_{g}") for g in "ifog"])
        assert list(got) == list(p.tensors())
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("shape", [(64, 24), (960, 200), (9,)])
    def test_sigmoid_matches_masked_form(self, shape):
        x = np.random.default_rng(1).normal(scale=20.0, size=shape)
        x.flat[:8] = [745.0, -745.0, 30.0, -30.0, 0.0, -0.0, 1e-300, -1e-300]
        assert sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()

    def test_sigmoid_matches_select_form(self):
        special = [0.0, 1e-300, 30.0, 745.0, 800.0, np.inf]
        x = np.array(special + [-v for v in special])
        assert np.signbit(x[len(special)])  # -0.0 is in the set
        assert sigmoid(x).tobytes() == where_sigmoid(x).tobytes()
        # and on a strided view, as the LSTM passes its gate columns
        wide = np.random.default_rng(2).normal(scale=20.0, size=(16, 3 * len(x)))
        wide[:, :len(x)] = x
        assert sigmoid(wide[:, :2 * len(x)]).tobytes() == where_sigmoid(wide[:, :2 * len(x)]).tobytes()

    def test_rmsprop_update_changes_fused_bank(self):
        p = tiny_lstm(seed=20)
        w_before, b_before = p.w_gates.copy(), p.b_gates.copy()
        seqs = np.random.default_rng(21).integers(0, 16, size=(3, 32))
        _, grads = lstm_nll_grads(p, seqs)
        RmsProp(lr=1e-2).update(p.tensors(), grads)
        for k in range(4):  # every gate's columns moved
            cols = slice(k * 7, (k + 1) * 7)
            assert not np.array_equal(p.w_gates[:, cols], w_before[:, cols])
            assert not np.array_equal(p.b_gates[cols], b_before[cols])


# (generators k, batch rows B, embedding width E, hidden width H)
LOCKSTEP_SHAPES = [(1, 16, 24, 24), (2, 1, 5, 7), (3, 1, 5, 7), (3, 16, 24, 24),
                   (2, 8, 3, 5), (3, 4, 200, 200)]


def lstm_stack(k, e, h, seed=0):
    """k generators with nonzero biases, and a [k, ...] stack of copies."""
    gens = []
    for j in range(k):
        p = LstmParams.init(np.random.default_rng(seed + j), embed_dim=e, hidden_dim=h)
        rng = np.random.default_rng(seed + 100 + j)
        p.b_gates[...] = rng.normal(size=p.b_gates.shape)
        p.b_out[...] = rng.normal(size=p.b_out.shape)
        gens.append(p)
    return gens, LstmParams.stack(gens)


class TestLockstep:
    """A [k, ...] stack gives each generator the bytes of its own
    single-generator pass."""

    @pytest.mark.parametrize("k,b,e,h", LOCKSTEP_SHAPES)
    def test_forward_and_bptt_match_single_forms(self, k, b, e, h):
        gens, stack = lstm_stack(k, e, h)
        rng = np.random.default_rng(b)
        inputs = rng.integers(0, 17, size=(k, b, 32))
        dlogits = rng.normal(size=(k, b, 32, 16)) / b
        logits, cache = lstm_forward(stack, inputs)
        grads = lstm_backward(stack, cache, dlogits)
        assert list(grads) == list(stack.tensors())
        for j, p in enumerate(gens):
            want_logits, want_cache = single_lstm_forward(p, inputs[j])
            want = single_lstm_backward(p, want_cache, dlogits[j])
            assert logits[j].tobytes() == want_logits.tobytes(), j
            for t in range(32):
                assert cache["h"][t][j].tobytes() == want_cache["h"][t].tobytes(), (j, t)
                assert cache["c"][t][j].tobytes() == want_cache["c"][t].tobytes(), (j, t)
            for name in want:
                assert grads[name][j].tobytes() == want[name].tobytes(), (j, name)

    @pytest.mark.parametrize("k,b,e,h", LOCKSTEP_SHAPES)
    def test_nll_grads_match_single_forms(self, k, b, e, h):
        gens, stack = lstm_stack(k, e, h, seed=7)
        seqs = np.random.default_rng(b + 1).integers(0, 16, size=(k, b, 32))
        nll, grads = lstm_nll_grads(stack, seqs)
        assert nll.shape == (k,)
        for j, p in enumerate(gens):
            want_nll, want = single_lstm_nll_grads(p, seqs[j])
            assert nll[j] == want_nll
            for name in want:
                assert grads[name][j].tobytes() == want[name].tobytes(), (j, name)

    @pytest.mark.parametrize("k,b,e,h", LOCKSTEP_SHAPES)
    def test_step_matches_single_step(self, k, b, e, h):
        gens, stack = lstm_stack(k, e, h, seed=3)
        rng = np.random.default_rng(b + 2)
        h_prev, c_prev = rng.normal(size=(k, b, h)), rng.normal(size=(k, b, h))
        tokens = rng.integers(0, 17, size=(k, b))
        got = lstm_step_batch(stack, h_prev, c_prev, tokens.ravel())
        for j, p in enumerate(gens):
            want = single_lstm_step(p, h_prev[j], c_prev[j], tokens[j])
            assert [a[j].tobytes() for a in got] == [a.tobytes() for a in want], j

    def test_one_generator_without_a_stack_axis(self):
        (p,), stack = lstm_stack(1, 5, 7)
        seqs = np.random.default_rng(4).integers(0, 16, size=(3, 32))
        nll, grads = lstm_nll_grads(p, seqs)
        stacked_nll, stacked = lstm_nll_grads(stack, seqs[None])
        assert nll == stacked_nll[0]
        for name, g in grads.items():
            assert g.tobytes() == stacked[name][0].tobytes(), name

    def test_stack_entries_are_views(self):
        gens, stack = lstm_stack(3, 5, 7)
        for j, p in enumerate(gens):
            for name, arr in stack[j].tensors().items():
                assert arr.base is stack.tensors()[name], name
                assert arr.tobytes() == p.tensors()[name].tobytes(), name
        RmsProp(lr=0.1).update(stack[1].tensors(), {name: np.ones_like(arr) for name, arr
                                                     in stack[1].tensors().items()})
        assert not np.array_equal(stack.w_out[1], gens[1].w_out)
        assert np.array_equal(stack.w_out[0], gens[0].w_out)
        one = gens[2][None]
        assert one.emb.shape == (1,) + gens[2].emb.shape and one.emb.base is gens[2].emb

    @pytest.mark.parametrize("bad", [N_TOKENS, -1])
    def test_out_of_range_token_is_an_error(self, bad):
        _, stack = lstm_stack(2, 5, 7)
        inputs = np.random.default_rng(6).integers(0, 17, size=(2, 3, 32))
        inputs[0, 1, 5] = bad  # in range of the flat [2 * 17, E] rows
        with pytest.raises(ValueError, match="token ids"):
            lstm_forward(stack, inputs)

    def test_divergence_in_one_generator_raises(self):
        _, stack = lstm_stack(3, 5, 7)
        stack.w_out[1, 0, 0] = np.inf
        seqs = np.random.default_rng(5).integers(0, 16, size=(3, 2, 32))
        with pytest.raises(DivergenceError):
            lstm_nll_grads(stack, seqs)


def gate_blocks(t, h):
    """t with w_gates and b_gates split into views of their eight gate blocks.

    grad_check probes every tensor it is given at least once, so passing
    the blocks reaches each gate's weights and bias.
    """
    out = {name: t[name] for name in ("emb", "w_out", "b_out")}
    for k, gate in enumerate("ifog"):
        out[f"w_{gate}"] = t["w_gates"][:, k * h:(k + 1) * h]
        out[f"b_{gate}"] = t["b_gates"][k * h:(k + 1) * h]
    return out


class TestLstmGradients:
    def test_nll_grad_matches_finite_differences(self):
        p = tiny_lstm(seed=5)
        rng = np.random.default_rng(7)
        seqs = rng.integers(0, 16, size=(3, 32))
        tensors = gate_blocks(p.tensors(), p.hidden_dim)

        def loss_fn():
            nll, _, _ = lstm_nll(p, seqs)
            return nll

        _, grads = lstm_nll_grads(p, seqs)
        report = grad_check(loss_fn, tensors, gate_blocks(grads, p.hidden_dim), rng,
                            n_samples=250)
        assert report["rel_err"] < 1e-4
        assert report["n_checked"] >= 250

    def test_grad_check_flags_corrupted_gradient(self):
        p = tiny_lstm(seed=6)
        rng = np.random.default_rng(8)
        seqs = rng.integers(0, 16, size=(2, 32))

        def loss_fn():
            nll, _, _ = lstm_nll(p, seqs)
            return nll

        _, grads = lstm_nll_grads(p, seqs)
        grads["w_out"] = grads["w_out"] + 1.0
        report = grad_check(loss_fn, p.tensors(), grads, rng, n_samples=250)
        assert report["rel_err"] > 1e-2


class TestCnnForward:
    def test_probs_sum_to_one(self):
        p = tiny_cnn(seed=1)
        tokens = np.random.default_rng(2).integers(0, 16, size=(5, 32))
        logits, probs = cnn_forward(p, tokens)
        assert logits.shape == (5, 4)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_projection_uniform(self):
        p = tiny_cnn(seed=2, n_classes=5)
        p.out_w[...] = 0.0
        p.out_b[...] = 0.0
        tokens = np.random.default_rng(3).integers(0, 16, size=(2, 32))
        _, probs = cnn_forward(p, tokens)
        assert probs == pytest.approx(np.full((2, 5), 0.2))

    def test_kernel_sizes_cover_one_to_sixteen(self):
        assert KERNEL_SIZES == tuple(range(1, 17))

    def test_pooling_matches_naive_windows(self):
        # independent dense conv: materialize every window explicitly,
        # then max over positions, and compare pooled values + argmaxes
        p = tiny_cnn(seed=3, n_classes=3, embed=4, filters=2)
        tokens = np.random.default_rng(4).integers(0, 16, size=(2, 32))
        _, _, cache = cnn_forward(p, tokens, want_cache=True)
        x = p.emb[tokens]
        n_filters = 2
        for idx, size in enumerate(KERNEL_SIZES):
            w = p.conv_w[BANK_TAPS[size]].reshape(-1, n_filters)
            b = p.conv_b[idx]
            n_pos = 32 - size + 1
            conv = np.zeros((2, n_pos, n_filters))
            for bi in range(2):
                for pos in range(n_pos):
                    window = x[bi, pos:pos + size].reshape(-1)
                    conv[bi, pos] = window @ w + b
            got = cache["pooled"][:, idx * n_filters:(idx + 1) * n_filters]
            assert np.allclose(got, conv.max(axis=1), atol=1e-12)
            assert np.array_equal(cache["argmaxes"][size], conv.argmax(axis=1))

    def test_max_pool_gradient_routes_to_argmax_only(self):
        # token value 9 appears only at the last position; if no winning
        # window covers that position, its embedding row gets zero grad
        p = tiny_cnn(seed=0, n_classes=3, embed=4, filters=2)
        tokens = np.concatenate([
            np.random.default_rng(2).integers(0, 8, size=(1, 31)),
            np.array([[9]]),
        ], axis=1)
        _, _, cache = cnn_forward(p, tokens, want_cache=True)
        touches_last = False
        for size in KERNEL_SIZES:
            for pos in cache["argmaxes"][size][0]:
                if pos + size - 1 >= 31:
                    touches_last = True
        assert not touches_last, "fixture needs reseeding: argmax hit last slot"
        _, grads = cnn_nll_grads(p, tokens, np.array([0]))
        assert np.array_equal(grads["emb"][9], np.zeros(4))
        assert np.abs(grads["emb"]).sum() > 0

    @pytest.mark.parametrize("bad", [N_TOKENS, -1])
    def test_out_of_range_token_is_an_error(self, bad):
        # the table gathers clip their indices; the entry check keeps this an error
        p = tiny_cnn(seed=5)
        tokens = np.random.default_rng(6).integers(0, 16, size=(3, 32))
        tokens[1, 7] = bad
        with pytest.raises(ValueError, match=r"token ids must be in \[0, 17\)"):
            cnn_forward(p, tokens)
        with pytest.raises(ValueError, match="token ids"):
            cnn_nll_grads(p, tokens, np.zeros(3, dtype=np.int64))

    def test_carry_bias_initialized_negative(self):
        p = tiny_cnn(seed=7)
        assert np.allclose(p.hw_t_b, -2.0)


class TestCnnGradients:
    def test_nll_grad_matches_finite_differences(self):
        p = tiny_cnn(seed=8, n_classes=4, embed=5, filters=3)
        rng = np.random.default_rng(9)
        tokens = rng.integers(0, 16, size=(3, 32))
        labels = rng.integers(0, 4, size=3)

        def loss_fn():
            logits, probs = cnn_forward(p, tokens)
            return -np.log(probs[np.arange(3), labels]).mean()

        _, grads = cnn_nll_grads(p, tokens, labels)
        report = grad_check(loss_fn, bank_tensors(p.tensors()), bank_tensors(grads), rng,
                            n_samples=250)
        assert report["rel_err"] < 1e-4


# (embedding width, filters, batch rows)
SCATTER_SHAPES = [(5, 3, 7), (24, 8, 16), (200, 32, 64)]
SCATTER_RTOL = 1e-12  # of the largest magnitude in each gradient tensor


def cnn_with_biases(e, f, seed):
    p = CnnParams.init(np.random.default_rng(e), n_classes=4, embed_dim=e, n_filters=f)
    rng = np.random.default_rng(seed)
    for bias in p.conv_b:
        bias[...] = rng.normal(size=f)
    return p, rng


def dense_nll_grads(p, tokens, labels):
    """cnn_nll_grads' gradients through dense_cnn_backward."""
    b = len(tokens)
    _, probs, cache = cnn_forward(p, tokens, want_cache=True)
    dlogits = probs.copy()
    dlogits[np.arange(b), labels] -= 1.0
    return dense_cnn_backward(p, cache, dlogits / b)


def assert_grads_close(got, want):
    assert sorted(got) == sorted(want)
    for name in want:
        err = np.abs(got[name] - want[name]).max()
        assert err <= SCATTER_RTOL * np.abs(want[name]).max(), name


class TestTokenScatterBackward:
    """cnn_backward adds, by token, the terms the dense backward adds by position."""

    @pytest.mark.parametrize("e,f,b", SCATTER_SHAPES)
    def test_matches_dense_backward(self, e, f, b):
        p, rng = cnn_with_biases(e, f, b)
        tokens = rng.integers(0, 17, size=(b, 32))
        labels = rng.integers(0, 4, size=b)
        _, got = cnn_nll_grads(p, tokens, labels)
        assert_grads_close(got, dense_nll_grads(p, tokens, labels))

    def test_rows_sharing_a_slot_accumulate(self):
        # three copies of one row pick the same window for every filter, so
        # each tap routes three different gradients to one (token, filter)
        p, rng = cnn_with_biases(6, 4, 3)
        tokens = np.concatenate([np.repeat(rng.integers(0, 17, size=(1, 32)), 3, axis=0),
                                 rng.integers(0, 17, size=(2, 32))])
        labels = np.array([0, 1, 3, 2, 0])
        _, _, cache = cnn_forward(p, tokens, want_cache=True)
        for arg in cache["argmaxes"].values():
            assert (arg[:3] == arg[0]).all()
        _, got = cnn_nll_grads(p, tokens, labels)
        assert_grads_close(got, dense_nll_grads(p, tokens, labels))

    def test_cache_holds_no_embedded_batch(self):
        p = tiny_cnn(seed=4)
        tokens = np.random.default_rng(5).integers(0, 17, size=(3, 32))
        _, _, cache = cnn_forward(p, tokens, want_cache=True)
        assert "x" not in cache
        for arr in cache.values():
            assert not isinstance(arr, np.ndarray) or arr.shape[-1] != p.emb.shape[1]

    def test_working_memory_below_one_embedded_batch(self):
        e, f, b = 200, 8, 64
        p, rng = cnn_with_biases(e, f, b)
        tokens = rng.integers(0, 17, size=(b, 32))
        _, probs, cache = cnn_forward(p, tokens, want_cache=True)
        grad_bytes = sum(t.nbytes for t in p.tensors().values())
        tracemalloc.start()
        try:
            cnn_backward(p, cache, probs / b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense form holds emb[tokens] and its gradient, each [B, 32, E]
        assert peak - grad_bytes < b * 32 * e * 8

    def test_each_gradient_written_once(self):
        # zero-filled gradients with fresh products added in held each
        # highway product twice: 3.7 MB beyond the gradients at this shape
        e, f, b = 200, 32, 64
        p, rng = cnn_with_biases(e, f, b)
        tokens = rng.integers(0, 17, size=(b, 32))
        _, probs, cache = cnn_forward(p, tokens, want_cache=True)
        grad_bytes = sum(t.nbytes for t in p.tensors().values())
        tracemalloc.start()
        try:
            grads = cnn_backward(p, cache, probs / b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(grads) == list(p.tensors())
        assert peak - grad_bytes < 3.0e6


# (embedding width, filters) of the fused-layout checks
LAYOUT_WIDTHS = [(5, 1), (8, 2), (24, 8), (200, 32)]


class TestFusedBankLayout:
    """All 136 taps in one conv_w give the bytes of one tensor per bank."""

    def test_bank_taps_tile_the_rows_in_order(self):
        assert N_TAPS == 136
        assert [BANK_TAPS[s] for s in KERNEL_SIZES] == [
            slice(s * (s - 1) // 2, s * (s + 1) // 2) for s in KERNEL_SIZES]

    def test_init_makes_the_per_bank_draws(self):
        e, f = 5, 3
        got = bank_tensors(tiny_cnn(seed=9, embed=e, filters=f).tensors())
        rng = np.random.default_rng(9)
        for s in KERNEL_SIZES:
            bound = np.sqrt(6.0 / (s * e + f))
            assert got[f"conv_w_{s:02d}"].tobytes() == \
                rng.uniform(-bound, bound, size=(s * e, f)).tobytes(), s
            assert not got[f"conv_b_{s:02d}"].any()
        assert got["emb"].tobytes() == rng.normal(0.0, 0.1, size=(N_TOKENS, e)).tobytes()

    @pytest.mark.parametrize("e,f", LAYOUT_WIDTHS)
    def test_tables_equal_per_bank(self, e, f):
        p, _ = cnn_with_biases(e, f, seed=1)
        want = np.concatenate(list(bank_conv_tables(p).values()))
        assert conv_tables(p).tobytes() == want.tobytes()

    @pytest.mark.parametrize("e,f", LAYOUT_WIDTHS)
    def test_logits_and_rollout_features_equal_per_bank(self, e, f):
        p, rng = cnn_with_biases(e, f, seed=2)
        tokens = rng.integers(0, 17, size=(6, SEQ_LEN))
        want = cnn_head(p, bank_pooled(p, tokens))[0]
        assert cnn_forward(p, tokens)[0].tobytes() == want.tobytes()
        pool = RolloutPool(p, tokens, conv_tables(p))
        for t in (1, 8, 16, 31):
            tails = rng.integers(0, 17, size=(12, SEQ_LEN - t))
            rollouts = np.concatenate([np.repeat(tokens[:, :t], 2, axis=0), tails], axis=1)
            assert pool.pooled(t, rollouts).tobytes() == bank_pooled(p, rollouts).tobytes(), t
        assert pool.pooled(SEQ_LEN, tokens).tobytes() == bank_pooled(p, tokens).tobytes()

    @pytest.mark.parametrize("e,f", LAYOUT_WIDTHS)
    def test_gradients_and_update_equal_per_bank(self, e, f):
        p, rng = cnn_with_biases(e, f, seed=3)
        tokens = rng.integers(0, 17, size=(16, SEQ_LEN))
        _, probs, cache = cnn_forward(p, tokens, want_cache=True)
        dlogits = probs - (np.arange(4) == rng.integers(0, 4, size=(16, 1)))
        got = bank_tensors(cnn_backward(p, cache, dlogits / 16))
        want = bank_cnn_backward(p, cache, dlogits / 16)
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
        # RMSProp over the fused tensors and over their bank views
        q = CnnParams(**{name: arr.copy() for name, arr in p.tensors().items()})
        RmsProp(lr=1e-2).update(p.tensors(), cnn_backward(p, cache, dlogits / 16))
        RmsProp(lr=1e-2).update(bank_tensors(q.tensors()), want)
        for name, arr in p.tensors().items():
            assert arr.tobytes() == q.tensors()[name].tobytes(), name


class TestRmsProp:
    def test_zero_gradient_no_change(self):
        tensors = {"w": np.array([1.0, -2.0])}
        before = tensors["w"].copy()
        RmsProp(lr=0.1).update(tensors, {"w": np.zeros(2)})
        assert np.array_equal(tensors["w"], before)

    def test_first_step_magnitude(self):
        g = 0.3
        lr = 0.05
        eps = 1e-8
        tensors = {"w": np.array([1.0])}
        RmsProp(lr=lr, eps=eps).update(tensors, {"w": np.array([g])})
        want = 1.0 - lr * g / math.sqrt(0.1 * g * g + eps)
        assert tensors["w"][0] == pytest.approx(want, rel=1e-12)

    def test_accumulators_stay_nonnegative(self):
        rng = np.random.default_rng(10)
        opt = RmsProp(lr=1e-3)
        tensors = {"w": rng.normal(size=(4, 4))}
        for _ in range(50):
            opt.update(tensors, {"w": rng.normal(size=(4, 4))})
        for acc in opt.acc.values():
            assert (acc >= 0).all()

    def test_shape_mismatch_rejected(self):
        opt = RmsProp(lr=1e-3)
        with pytest.raises(ValueError):
            opt.update({"w": np.zeros(3)}, {"w": np.zeros(4)})

    @pytest.mark.parametrize("e,f", [(24, 8), (200, 32)])
    def test_in_place_step_matches_allocating_form(self, e, f):
        # the same operations in the same order, written into two scratch
        # arrays, so parameters and accumulators keep every byte
        rng = np.random.default_rng(e)
        p = CnnParams.init(rng, n_classes=4, embed_dim=e, n_filters=f)
        q = CnnParams(**{name: arr.copy() for name, arr in p.tensors().items()})
        opt, ref = RmsProp(lr=1e-2), AllocatingRmsProp(lr=1e-2)
        for _ in range(3):
            grads = {name: rng.normal(size=t.shape) * np.exp(rng.uniform(-12, 4, size=t.shape))
                     for name, t in p.tensors().items()}
            opt.update(p.tensors(), grads)
            ref.update(q.tensors(), grads)
        for name, arr in p.tensors().items():
            assert arr.tobytes() == q.tensors()[name].tobytes(), name
            assert opt.acc[name].tobytes() == ref.acc[name].tobytes(), name

    @pytest.mark.parametrize("k,e,h", [(3, 5, 7), (3, 200, 200)])
    def test_stack_update_equals_entry_updates(self, k, e, h):
        # RMSProp is elementwise, so one update of a [k, ...] stack gives
        # each entry the bytes of its own optimiser's update
        gens, stack = lstm_stack(k, e, h, seed=e)
        stack_opt, opts = RmsProp(lr=1e-2), [RmsProp(lr=1e-2) for _ in gens]
        rng = np.random.default_rng(h)
        for _ in range(3):
            grads = {name: rng.normal(size=t.shape) * np.exp(rng.uniform(-12, 4, size=t.shape))
                     for name, t in stack.tensors().items()}
            stack_opt.update(stack.tensors(), grads)
            for j, (p, opt) in enumerate(zip(gens, opts)):
                opt.update(p.tensors(), {name: g[j] for name, g in grads.items()})
        for j, (p, opt) in enumerate(zip(gens, opts)):
            for name, t in p.tensors().items():
                assert stack.tensors()[name][j].tobytes() == t.tobytes(), (j, name)
                assert stack_opt.acc[name][j].tobytes() == opt.acc[name].tobytes(), (j, name)


class TestGradCheck:
    def test_quadratic_loss_nearly_exact(self):
        rng = np.random.default_rng(11)
        tensors = {
            "a": rng.normal(size=(3,)),
            "b": rng.normal(size=(2, 2)),
            "c": rng.normal(size=(1,)),
        }

        def loss_fn():
            return sum(float((t ** 2).sum()) for t in tensors.values())

        grads = {k: 2.0 * v for k, v in tensors.items()}
        report = grad_check(loss_fn, tensors, grads, rng, n_samples=200)
        assert report["rel_err"] < 1e-8

    def test_probes_every_tensor(self):
        # with n_samples below the tensor count, the guaranteed
        # one-probe-per-tensor rule must still catch a bad gradient in
        # any single tensor
        rng = np.random.default_rng(12)
        tensors = {"a": np.ones(2), "b": np.ones(3), "c": np.ones(4)}

        def loss_fn():
            return sum(float((t ** 2).sum()) for t in tensors.values())

        for bad in ("a", "b", "c"):
            grads = {k: 2 * v for k, v in tensors.items()}
            grads[bad] = grads[bad] + 5.0
            report = grad_check(loss_fn, tensors, grads, rng, n_samples=1)
            assert report["rel_err"] > 0.1
            assert report["tensor"] == bad


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        p = tiny_lstm(seed=13)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, p.tensors())
        loaded = load_checkpoint(path)
        for name, t in p.tensors().items():
            assert np.array_equal(loaded[name], t)
            assert loaded[name].dtype == np.float64

    def test_rewrite_byte_identical(self, tmp_path):
        p = tiny_cnn(seed=14)
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_checkpoint(str(a), p.tensors())
        save_checkpoint(str(b), p.tensors())
        assert a.read_bytes() == b.read_bytes()

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic|not a checkpoint"):
            load_checkpoint(str(path))

    def test_truncation_detected(self, tmp_path):
        p = tiny_lstm(seed=15)
        path = tmp_path / "t.ckpt"
        save_checkpoint(str(path), p.tensors())
        data = path.read_bytes()
        path.write_bytes(data[:-9])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(str(path))

    def test_trailing_bytes_detected(self, tmp_path):
        p = tiny_lstm(seed=16)
        path = tmp_path / "t.ckpt"
        save_checkpoint(str(path), p.tensors())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(str(path))

    def test_magic_bytes_value(self):
        assert CHECKPOINT_MAGIC == b"6GAN"

    def test_failed_write_keeps_previous_file(self, tmp_path):
        p = tiny_lstm(seed=18)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), p.tensors())
        before = path.read_bytes()
        # sorted last, so every other tensor is written before it fails
        bad = {**p.tensors(), "zz_bad": np.array(["not a number"])}
        with pytest.raises(ValueError):
            save_checkpoint(str(path), bad)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.ckpt"]

    def test_lstm_params_reconstruct_from_tensors(self, tmp_path):
        p = tiny_lstm(seed=22)
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(path, p.tensors())
        q = LstmParams.from_tensors(load_checkpoint(path))
        assert q.w_gates.tobytes() == p.w_gates.tobytes()
        assert q.b_gates.tobytes() == p.b_gates.tobytes()
        for name, t in p.tensors().items():
            assert np.array_equal(q.tensors()[name], t)

    def test_params_reconstruct_from_tensors(self, tmp_path):
        p = tiny_cnn(seed=17)
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, p.tensors())
        q = CnnParams.from_tensors(load_checkpoint(path))
        for name, t in p.tensors().items():
            assert np.array_equal(q.tensors()[name], t)

    def test_lstm_checkpoint_holds_the_fused_banks(self, tmp_path):
        p = tiny_lstm(seed=23)
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(path, p.tensors())
        assert sorted(load_checkpoint(path)) == ["b_gates", "b_out", "emb", "w_gates", "w_out"]

    def test_missing_tensors_are_named(self):
        p = tiny_lstm(seed=24)
        four_banks = gate_blocks(p.tensors(), p.hidden_dim)  # the layout before fusion
        with pytest.raises(ValueError, match="^missing tensor w_gates, b_gates$"):
            LstmParams.from_tensors(four_banks)
        cnn = tiny_cnn(seed=25).tensors()
        del cnn["conv_b"], cnn["out_w"]
        with pytest.raises(ValueError, match="^missing tensor conv_b, out_w$"):
            CnnParams.from_tensors(cnn)

    def test_per_bank_discriminator_tensors_are_refused(self):
        per_bank = bank_tensors(tiny_cnn(seed=27).tensors())  # the layout before fusion
        with pytest.raises(ValueError, match="^missing tensor conv_w, conv_b$"):
            CnnParams.from_tensors(per_bank)

    @pytest.mark.parametrize("cls, name, shape, want", [
        (CnnParams, "emb", (3, 5), "(17, 5)"),
        (CnnParams, "conv_b", (1,), "(16, 3)"),
        (CnnParams, "conv_w", (136, 4, 3), "(136, 5, 3)"),
        (CnnParams, "conv_w", (408, 3), "(136, 5, 3)"),
        (CnnParams, "hw_h_w", (48, 47), "(48, 48)"),
        (CnnParams, "out_b", (3,), "(4,)"),
        (LstmParams, "emb", (3, 6), "(17, 6)"),
        (LstmParams, "b_out", (1,), "(16,)"),
        (LstmParams, "w_gates", (13, 24), "(13, 28)"),
        (LstmParams, "w_out", (7,), "(7, 16)"),
        (LstmParams, "b_gates", (), "(28,)"),  # read as shape (1,)
    ])
    def test_shape_mismatches_are_named(self, cls, name, shape, want):
        p = tiny_cnn(seed=28) if cls is CnnParams else tiny_lstm(seed=28)
        tensors = {**p.tensors(), name: np.zeros(shape)}
        have = shape or (1,)
        with pytest.raises(ValueError) as err:
            cls.from_tensors(tensors)
        assert str(err.value) == f"tensor {name} has shape {have}, expected {want}"


def generator_checkpoint(tmp_path):
    """A generator checkpoint as `sixgan train` writes one, and its tensors."""
    tensors = dict(tiny_lstm(seed=26).tensors())
    tensors["meta_pattern_id"] = np.array([0.0])
    path = tmp_path / "generator_00.ckpt"
    save_checkpoint(str(path), tensors)
    return path, load_checkpoint(str(path))


def load_or_value_error(path, want):
    """Loading path raises ValueError or returns tensors equal to want."""
    try:
        got = load_checkpoint(str(path))
    except ValueError:
        return "error"
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    return "loaded"


class TestCorruptCheckpoint:
    """Every short or corrupt checkpoint is a ValueError, never a crash."""

    def test_every_truncation_is_a_value_error(self, tmp_path):
        path, want = generator_checkpoint(tmp_path)
        data = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(ValueError):
                load_checkpoint(str(cut))
        cut.write_bytes(data)
        assert load_or_value_error(cut, want) == "loaded"

    def test_flipped_header_and_first_tensor_fields(self, tmp_path):
        path, want = generator_checkpoint(tmp_path)
        data = path.read_bytes()
        name_len = int.from_bytes(data[12:14], "little")
        assert data[14:14 + name_len] == b"b_gates"  # sorted first
        rank_at = 14 + name_len
        # header (magic, version, count), name length, rank and its one dim
        offsets = list(range(12)) + [12, 13] + list(range(rank_at, rank_at + 4 + 8))
        bad = tmp_path / "bad.ckpt"
        outcomes = set()
        for at in offsets:
            for mask in (0x01, 0x80, 0xFF):
                flipped = bytearray(data)
                flipped[at] ^= mask
                bad.write_bytes(bytes(flipped))
                outcomes.add(load_or_value_error(bad, want))
        assert outcomes == {"error"}

    def test_huge_declared_tensor_is_rejected_before_allocation(self, tmp_path):
        path, want = generator_checkpoint(tmp_path)
        data = bytearray(path.read_bytes())
        dim_at = 14 + 7 + 4  # the first tensor's one dim
        data[dim_at + 4] = 0x10  # about 2^36 float64s
        path.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated tensor b_gates"):
                load_checkpoint(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
