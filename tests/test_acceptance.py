"""End-to-end acceptance gate: ten pass/fail criteria with stated tolerances.

Each test prints one line naming the criterion and its outcome; runtime
budgets are part of the pass condition.
"""

import json
import math
import time

import numpy as np

from _oracles import (
    ari,
    bank_tensors,
    bf_diversity,
    bf_hit_and_generation,
    bf_novelty,
    bf_pattern_quality,
    grad_check,
    plant_entropy_corpus,
)
from sixgan.addr import AliasTrie, NybbleSeq, parse_address, parse_prefix, token_matrix
from sixgan.classify import (
    classify_entropy,
    classify_rfc,
    classify_rfc_corpus,
)
from sixgan.fileio import write_json
from sixgan.gan import (
    NetConfig,
    RewardConfig,
    TrainSchedule,
    generate_candidates,
    pg_logit_grad,
    train_6gan,
)
from sixgan.metrics import (
    CandidateSet,
    allocate_budget,
    diversity,
    evaluate,
    novelty,
    pattern_quality,
)
from sixgan.nn import (
    CnnParams,
    LstmParams,
    RmsProp,
    cnn_forward,
    cnn_nll_grads,
    load_checkpoint,
    lstm_nll,
    lstm_nll_grads,
    save_checkpoint,
    softmax,
)
from sixgan.oracle import (
    PatternFamily,
    ProbeStatus,
    UniverseOracle,
    UniverseSpec,
    sample_seeds,
    sample_shape,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _random_seqs(rng, n):
    return [NybbleSeq(tuple(rng.integers(0, 16, size=32).tolist())) for _ in range(n)]


def test_01_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)

    lstm = LstmParams.init(np.random.default_rng(1), embed_dim=8, hidden_dim=9)
    seqs = rng.integers(0, 16, size=(3, 32))

    def lstm_loss():
        nll, _, _ = lstm_nll(lstm, seqs)
        return nll

    _, lstm_grads = lstm_nll_grads(lstm, seqs)
    lstm_rep = grad_check(lstm_loss, lstm.tensors(), lstm_grads, rng, n_samples=220)

    cnn = CnnParams.init(np.random.default_rng(2), n_classes=4, embed_dim=6, n_filters=3)
    tokens = rng.integers(0, 16, size=(3, 32))
    labels = rng.integers(0, 4, size=3)

    def cnn_loss():
        _, probs = cnn_forward(cnn, tokens)
        return -np.log(probs[np.arange(3), labels]).mean()

    _, cnn_grads = cnn_nll_grads(cnn, tokens, labels)
    # the 39 per-bank views, so the same coordinates are probed as in that layout
    cnn_rep = grad_check(cnn_loss, bank_tensors(cnn.tensors()), bank_tensors(cnn_grads), rng,
                         n_samples=220)

    elapsed = time.perf_counter() - t0
    worst = max(lstm_rep["rel_err"], cnn_rep["rel_err"])
    checked = min(lstm_rep["n_checked"], cnn_rep["n_checked"])
    ok = worst < 1e-4 and checked >= 200 and elapsed < 60
    _report(1, "gradient correctness", ok,
            f"max rel err {worst:.2e}, {checked} coords/model, {elapsed:.1f}s")


def test_02_metric_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    oracle = UniverseOracle(UniverseSpec(
        hash_key=5,
        families=(PatternFamily("low", "Low-byte",
                                (parse_prefix("2001:db8:1::/48"),), 0.5),),
        aliased_prefixes=(parse_prefix("2001:db8:1:a000::/52"),),
    ))

    def probe(seq):
        status = oracle.probe(seq)
        return status is not ProbeStatus.INACTIVE, status is ProbeStatus.ALIASED

    worst = 0.0
    for _ in range(100):
        nc = int(rng.integers(2, 201))
        ns = int(rng.integers(1, 201))
        low = [sample_shape("Low-byte", parse_prefix("2001:db8:1::/48"), rng)
               for _ in range(nc // 2)]
        cands = _random_seqs(rng, nc - len(low)) + low
        seeds = _random_seqs(rng, ns) + cands[: nc // 4]
        worst = max(
            worst,
            abs(pattern_quality(cands, seeds) - bf_pattern_quality(cands, seeds)),
            abs(novelty(cands, seeds) - bf_novelty(cands, seeds)),
            abs(diversity(cands) - bf_diversity(cands)),
        )
        report = evaluate(CandidateSet.dedup(cands), seeds, oracle)
        deduped = CandidateSet.dedup(cands).addresses
        bf_hit, bf_gen = bf_hit_and_generation(deduped, seeds, probe)
        worst = max(worst, abs(report.hit_rate - bf_hit),
                    abs(report.generation_rate - bf_gen))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 60
    _report(2, "metric oracle equivalence", ok,
            f"100 instances, worst abs diff {worst:.2e}, {elapsed:.1f}s")


def test_03_budget_allocation():
    rng = np.random.default_rng(33)
    exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        rates = rng.random(n) * rng.integers(1, 100)
        if rates.sum() == 0:
            rates[0] = 1.0
        total = int(rng.integers(0, 100_000))
        out = allocate_budget(rates.tolist(), total)
        exact = exact and sum(out) == total and all(b >= 0 for b in out)
    fixture = allocate_budget([11.0, 3.0, 3.0, 1.0, 19.0, 10.0], 47)
    ok = exact and fixture == [11, 3, 3, 1, 19, 10]
    _report(3, "budget allocation", ok,
            f"1000 random vectors exact, published vector -> {fixture}")


def test_04_rfc_classifier_fixture():
    published = {
        "2001:db8:ff01:2::c8c3:8c07": "Embedded-IPv4",
        "2001:db8::80": "Embedded-port",
        "2001:db8:900::21e:67ff:fe31:4cdf": "IEEE-derived",
        "2001:db8:100:100::1": "Low-byte",
        "2001:db8:8:68d3:b791:8741:c127:a75": "Randomized",
    }
    got = {text: classify_rfc(parse_address(text)).class_name
           for text in published}
    ok = got == published
    _report(4, "rule classifier fixtures", ok,
            "; ".join(f"{t.split(':')[-1] or t}->{c}" for t, c in got.items()))


def test_05_entropy_clustering_recovery():
    t0 = time.perf_counter()
    scores = []
    for seed in range(5):
        seeds, truth = plant_entropy_corpus(100, seed)
        assert len(seeds) == 600
        corpus = classify_entropy(seeds, k=3, seed=seed)
        labels = [lab.class_id for lab in corpus.labels]
        scores.append(ari(truth, labels))
    elapsed = time.perf_counter() - t0
    ok = min(scores) >= 0.9 and elapsed < 60
    _report(5, "entropy clustering recovery", ok,
            f"ARI per seed {['%.3f' % s for s in scores]}, {elapsed:.1f}s")


def test_06_discriminator_pattern_discrimination():
    t0 = time.perf_counter()
    patterns = [
        ("Low-byte", "2001:db8:1::/48"),
        ("IEEE-derived", "2001:db8:2::/48"),
        ("Embedded-port", "2001:db8:3::/48"),
        ("Embedded-IPv4", "2001:db8:4::/48"),
    ]
    rng = np.random.default_rng(0)
    train, held = [], []
    for pattern, prefix in patterns:
        p = parse_prefix(prefix)
        seen, bucket = set(), []
        while len(bucket) < 1000:
            s = sample_shape(pattern, p, rng)
            if s.nybbles not in seen:
                seen.add(s.nybbles)
                bucket.append(s)
        train.extend(bucket[:500])
        held.extend(bucket[500:])

    corpus = classify_rfc_corpus(train)
    assert corpus.k == 4
    name_to_id = {lab.class_name: lab.class_id for lab in corpus.labels}
    gold = np.array([name_to_id[classify_rfc(s).class_name] for s in held])

    schedule = TrainSchedule(g_pretrain=40, d_pretrain=50, g_steps=2, d_steps=1,
                             adversarial_rounds=20, batch_size=32)
    net = NetConfig(embed_dim=32, hidden_dim=48, n_filters=12, lr_disc=1e-3)
    _, disc, _ = train_6gan(corpus, None, RewardConfig(rollouts=4), schedule, net, seed=0)
    tokens = token_matrix(held)
    acc = float((disc.class_probs(tokens).argmax(axis=1) == gold).mean())
    elapsed = time.perf_counter() - t0
    ok = acc >= 0.95 and elapsed < 600
    _report(6, "discriminator pattern discrimination", ok,
            f"held-out accuracy {acc:.4f} on 2000 addresses, {elapsed:.0f}s")


def test_07_alias_detection_ablation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    prefix = parse_prefix("2001:db8:1::/48")
    aliased = parse_prefix("2001:db8:1:a000::/52")
    other = [v for v in range(16) if v != 0xA]

    seen, seeds = set(), []
    while len(seeds) < 2000:
        s = sample_shape("Low-byte", prefix, rng)
        nyb = list(s.nybbles)
        nyb[12] = 0xA if rng.random() < 0.15 else int(rng.choice(other))
        s = NybbleSeq(tuple(nyb))
        if s.nybbles not in seen:
            seen.add(s.nybbles)
            seeds.append(s)
    seed_frac = sum(1 for s in seeds if aliased.matches(s)) / len(seeds)
    assert 0.12 < seed_frac < 0.18

    corpus = classify_rfc_corpus(seeds)
    detector = AliasTrie([aliased])
    schedule = TrainSchedule(g_pretrain=1200, d_pretrain=30, g_steps=1,
                             d_steps=1, adversarial_rounds=6, batch_size=32)
    fractions = {}
    for arm, arm_detector in (("without", None), ("with", detector)):
        cfg = RewardConfig(alpha=0.9, lam=10.0, rollouts=4)
        net = NetConfig(embed_dim=32, hidden_dim=48, n_filters=12, lr_gen=2e-3, lr_disc=1e-3)
        gens, _, _ = train_6gan(corpus, arm_detector, cfg, schedule, net, seed=0)
        cands = generate_candidates(gens, 0, 5000, seen)
        fractions[arm] = sum(
            1 for c in cands if detector.match(c) is not None
        ) / len(cands)

    elapsed = time.perf_counter() - t0
    ok = (fractions["with"] < fractions["without"] / 5
          and fractions["with"] < 0.02 and elapsed < 900)
    _report(7, "alias-detection ablation", ok,
            f"aliased fraction {fractions['without']:.4f} -> "
            f"{fractions['with']:.4f}, {elapsed:.0f}s")


def test_08_learning_effectiveness():
    t0 = time.perf_counter()
    spec = UniverseSpec(
        hash_key=77,
        families=tuple(
            PatternFamily(p, p, (parse_prefix(x),), 0.3)
            for p, x in [("Low-byte", "2001:db8:1::/48"),
                         ("IEEE-derived", "2001:db8:2::/48"),
                         ("Pattern-bytes", "2001:db8:3::/48")]
        ),
    )
    oracle = UniverseOracle(spec)
    seeds = sample_seeds(oracle, 2000, np.random.default_rng(1))
    corpus = classify_rfc_corpus(seeds)
    exclude = {s.nybbles for s in seeds}

    def hit_rate(gens):
        budgets = allocate_budget([1.0] * gens.k, 5000)
        seen, cands = set(), []
        for j, b in enumerate(budgets):
            for c in generate_candidates(gens, j, b, exclude):
                if c.nybbles not in seen:
                    seen.add(c.nybbles)
                    cands.append(c)
        hits = sum(1 for c in cands if oracle.probe(c) is ProbeStatus.ACTIVE)
        return hits / len(cands)

    cfg = RewardConfig(rollouts=4)
    net = NetConfig(embed_dim=32, hidden_dim=48, n_filters=12, lr_gen=2e-3, lr_disc=1e-3)
    untrained, _, _ = train_6gan(corpus, None, cfg,
                                 TrainSchedule(0, 0, 1, 1, 0, 32), net, seed=2)
    trained, _, _ = train_6gan(corpus, None, cfg,
                               TrainSchedule(1200, 30, 1, 1, 3, 32), net, seed=2)
    hr_untrained = hit_rate(untrained)
    hr_trained = hit_rate(trained)

    elapsed = time.perf_counter() - t0
    ok = hr_trained >= 5 * hr_untrained and hr_trained > 0 and elapsed < 900
    _report(8, "learning effectiveness", ok,
            f"hit rate untrained {hr_untrained:.4f} vs trained {hr_trained:.4f}, "
            f"{elapsed:.0f}s")


def test_09_policy_gradient_bandit():
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
    windows = [float(np.mean(history[i:i + 5])) for i in range(0, 200, 5)]
    monotone = all(b >= a - 1e-9 for a, b in zip(windows, windows[1:]))
    ok = history[-1] > 0.9 and monotone
    _report(9, "policy-gradient bandit", ok,
            f"final p(zero-penalty)={history[-1]:.4f}, "
            f"monotone 5-step windows: {monotone}")


def test_10_determinism_and_persistence(tmp_path):
    rng = np.random.default_rng(0)
    prefix = parse_prefix("2001:db8:1::/48")
    seen, seeds = set(), []
    while len(seeds) < 80:
        s = sample_shape("Low-byte", prefix, rng)
        if s.nybbles not in seen:
            seen.add(s.nybbles)
            seeds.append(s)
    corpus = classify_rfc_corpus(seeds)
    oracle = UniverseOracle(UniverseSpec(
        hash_key=3,
        families=(PatternFamily("low", "Low-byte", (prefix,), 0.5),),
    ))
    schedule = TrainSchedule(g_pretrain=10, d_pretrain=4, g_steps=1, d_steps=1,
                             adversarial_rounds=2, batch_size=16)

    artifacts = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        gens, disc, records = train_6gan(
            corpus, None, RewardConfig(rollouts=2), schedule,
            NetConfig(embed_dim=12, hidden_dim=14, n_filters=3), seed=9,
        )
        save_checkpoint(str(d / "generator.ckpt"), gens.params[0].tensors())
        save_checkpoint(str(d / "discriminator.ckpt"), disc.params.tensors())
        cands = generate_candidates(gens, 0, 200, {s.nybbles for s in seeds})
        report = evaluate(CandidateSet(cands), seeds, oracle)
        write_json(str(d / "report.json"), report)
        (d / "log.jsonl").write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        artifacts.append(d)

    names = ["generator.ckpt", "discriminator.ckpt", "report.json", "log.jsonl"]
    identical = all(
        (artifacts[0] / n).read_bytes() == (artifacts[1] / n).read_bytes()
        for n in names
    )

    first = artifacts[0] / "generator.ckpt"
    loaded = load_checkpoint(str(first))
    save_checkpoint(str(tmp_path / "resaved.ckpt"), loaded)
    round_trip = (tmp_path / "resaved.ckpt").read_bytes() == first.read_bytes()
    reloaded = load_checkpoint(str(tmp_path / "resaved.ckpt"))
    bit_exact = all(
        np.array_equal(loaded[k], reloaded[k]) and loaded[k].dtype == reloaded[k].dtype
        for k in loaded
    )

    ok = identical and round_trip and bit_exact
    _report(10, "determinism and persistence", ok,
            f"reruns byte-identical: {identical}, "
            f"checkpoint round-trip bit-exact: {round_trip and bit_exact}")
