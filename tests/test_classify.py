"""Seed classification: rule matching, entropy clustering, embeddings."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import (
    ari,
    list_classify_rfc,
    plant_entropy_corpus,
    plant_value_band_corpus,
    row_scatter_ipv62vec_embed,
    seq_from_hex,
    sq_dists,
)

from sixgan import classify
from sixgan.addr import NybbleSeq, parse_address
from sixgan.classify import (
    METHOD_ENTROPY,
    METHOD_IPV62VEC,
    METHOD_RFC,
    RFC_CLASS_NAMES,
    LabeledSeedCorpus,
    classify_entropy,
    classify_ipv62vec,
    classify_rfc,
    classify_rfc_corpus,
    dbscan,
    entropy_fingerprints,
    ipv62vec_embed,
    kmeans,
    read_labels_file,
    write_labels_file,
)


def rfc_name(text: str) -> str:
    return classify_rfc(parse_address(text)).class_name


class TestClassifyRfc:
    def test_ieee_derived_example(self):
        assert rfc_name("2001:db8:900::21e:67ff:fe31:4cdf") == "IEEE-derived"

    def test_embedded_port_example(self):
        assert rfc_name("2001:db8::80") == "Embedded-port"

    def test_embedded_ipv4_example(self):
        assert rfc_name("2001:db8:ff01:2::c8c3:8c07") == "Embedded-IPv4"

    def test_low_byte_example(self):
        assert rfc_name("2001:db8:100:100::1") == "Low-byte"

    def test_randomized_example(self):
        assert rfc_name("2001:db8:8:68d3:b791:8741:c127:a75") == "Randomized"

    def test_port_beats_low_byte(self):
        # 0x80 = 128 is not a listed port, but digits "80" read as
        # decimal are; the shape also satisfies the low-byte rule.
        label = classify_rfc(parse_address("2001:db8::80"))
        assert label.class_name == "Embedded-port"

    def test_port_hex_value_reading(self):
        # 0x50 = 80 by hex value
        assert rfc_name("2001:db8::50") == "Embedded-port"

    def test_port_decimal_digit_reading(self):
        # 0x23 = 35 is not a port; digits "23" read as decimal are
        assert rfc_name("2001:db8::23") == "Embedded-port"

    def test_port_hex_only_reading(self):
        # 0x8f = 143 by hex value; "8f" has no decimal reading
        assert rfc_name("2001:db8::8f") == "Embedded-port"

    def test_wide_port_group_falls_through(self):
        # digits "443" would read as a listed port, but the group spans
        # into byte 6 of the IID, so the all-zero precondition fails and
        # the low-32 embedding rule takes it
        assert rfc_name("2001:db8::443") == "Embedded-IPv4"

    def test_ieee_beats_pattern_bytes(self):
        # ff:fe marker present; the zero byte also repeats 5 times
        assert rfc_name("2001:db8::ff:fe00:1") == "IEEE-derived"

    def test_ipv4_byte_per_group(self):
        assert rfc_name("2001:db8::c0:0:2:1") == "Embedded-IPv4"

    def test_ipv4_low32_needs_large_byte(self):
        # low 32 bits 0x00000003 has no byte >= 0x20: low-byte, not IPv4
        assert rfc_name("2001:db8::3") == "Low-byte"

    def test_two_group_low_shape_goes_to_ipv4(self):
        # both low groups nonzero and <= 0xff satisfies the
        # byte-per-group embedding first
        assert rfc_name("2001:db8::2:3") == "Embedded-IPv4"

    def test_pattern_bytes_repeated_value(self):
        assert rfc_name("2001:db8::abab:ab00:1:2") == "Pattern-bytes"

    def test_pattern_bytes_counts_zero_bytes(self):
        assert rfc_name("2001:db8::1:0:0:9999") == "Pattern-bytes"

    def test_all_zero_iid_is_randomized(self):
        assert rfc_name("2001:db8::") == "Randomized"

    def test_total_and_deterministic(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            seq = NybbleSeq(tuple(rng.integers(0, 16, size=32).tolist()))
            a = classify_rfc(seq)
            b = classify_rfc(seq)
            assert a == b
            assert a.method == METHOD_RFC

    def test_corpus_partition(self):
        rng = np.random.default_rng(1)
        seeds = [
            NybbleSeq(tuple(rng.integers(0, 16, size=32).tolist()))
            for _ in range(100)
        ]
        corpus = classify_rfc_corpus(seeds)
        assert len(corpus.seeds) == len(corpus.labels) == 100
        indices = sorted(i for ids in corpus.class_index for i in ids)
        assert indices == list(range(100))
        assert sum(corpus.class_counts()) == 100

    def test_empty_classes_renumbered(self):
        seeds = [parse_address("2001:db8::80"), parse_address("2001:db8::50"),
                 parse_address("2001:db8:100:100::1")]
        corpus = classify_rfc_corpus(seeds)
        assert corpus.k == 2
        assert sorted(lab.class_id for lab in corpus.labels) == [0, 0, 1]


# byte values at the rules' edges: zero, the port hex and decimal readings,
# both sides of the IPv4 >= 0x20 test, and the EUI-64 marker bytes
_EDGE_BYTES = (0x00, 0x00, 0x00, 0x01, 0x15, 0x1F, 0x20, 0x23, 0x50, 0x80, 0x8F, 0xFE, 0xFF)


@st.composite
def structured_iids(draw):
    """16 IID hex digits built mostly from edge-case bytes, sometimes with
    the fffe marker written somewhere in the IID."""
    byte = st.one_of(st.sampled_from(_EDGE_BYTES), st.integers(0, 255))
    digits = "".join(f"{b:02x}" for b in draw(st.lists(byte, min_size=8, max_size=8)))
    if draw(st.booleans()):
        at = draw(st.integers(0, 12))
        digits = digits[:at] + "fffe" + digits[at + 4:]
    return digits


class TestClassifyRfcMatchesListForm:
    """The byte-level classifier against the earlier list-and-Counter form."""

    @given(prefix=st.integers(0, 2 ** 64 - 1), iid=structured_iids())
    @settings(max_examples=1000, deadline=None)
    def test_structured_iids(self, prefix, iid):
        seq = seq_from_hex(f"{prefix:016x}{iid}")
        assert classify_rfc(seq) == list_classify_rfc(seq)

    def test_random_and_sampled_addresses(self):
        rng = np.random.default_rng(12)
        seqs = [NybbleSeq(tuple(row)) for row in rng.integers(0, 16, size=(2000, 32)).tolist()]
        for seq in seqs:
            assert classify_rfc(seq) == list_classify_rfc(seq)

    @pytest.mark.parametrize("address, name", [
        # a port by hex value and by its hex digits read as decimal
        ("2001:db8::50", "Embedded-port"),
        ("2001:db8::80", "Embedded-port"),
        ("2001:db8::35", "Embedded-port"),
        ("2001:db8::53", "Embedded-port"),
        ("2001:db8::15", "Embedded-port"),
        ("2001:db8::14", "Low-byte"),
        ("2001:db8::99", "Embedded-IPv4"),
        ("2001:db8::1bb", "Embedded-IPv4"),
        # IPv4 bytes on both sides of 0x20
        ("2001:db8::1f", "Low-byte"),
        ("2001:db8::20", "Embedded-IPv4"),
        ("2001:db8::1f1f:1f1f", "Pattern-bytes"),
        ("2001:db8::1f1f:1f20", "Embedded-IPv4"),
        ("2001:db8::1f:0", "Low-byte"),
        ("2001:db8::20:0", "Embedded-IPv4"),
        ("2001:db8::1f:1f", "Embedded-IPv4"),
        # groups of 0xff and 0x100
        ("2001:db8::ff:0:0:ff", "Embedded-IPv4"),
        ("2001:db8::100:0:0:ff", "Pattern-bytes"),
        ("2001:db8::ff:1", "Embedded-IPv4"),
        ("2001:db8::1:100", "Pattern-bytes"),
        ("2001:db8::100", "Pattern-bytes"),
        # three equal bytes with the rest of the IID zero, and a byte
        # value seen three times against twice
        ("2001:db8::1:101", "Pattern-bytes"),
        ("2001:db8::abab:ab00:0:0", "Pattern-bytes"),
        ("2001:db8:0:0:abab:ab12:3456:789a", "Pattern-bytes"),
        ("2001:db8:0:0:abab:1234:5678:9abc", "Randomized"),
        ("2001:db8:0:0:1234:5678:9aab:abab", "Pattern-bytes"),
        # fffe at nybbles 6..9 of the IID only
        ("2001:db8:0:0:1234:56ff:fe78:9abc", "IEEE-derived"),
        ("2001:db8:0:0:1234:5fff:e678:9abc", "Randomized"),
        ("2001:db8:0:0:1234:56f:ffe7:89ab", "Randomized"),
        ("2001:db8::ff:fe00:0", "IEEE-derived"),
        ("2001:db8::fffe:0:0", "Pattern-bytes"),
        ("2001:db8:0:0:fffe:1234:5678:9abc", "Randomized"),
    ])
    def test_boundary_cases(self, address, name):
        seq = parse_address(address)
        assert classify_rfc(seq).class_name == name
        assert classify_rfc(seq) == list_classify_rfc(seq)

    def test_labels_are_shared(self):
        a = classify_rfc(parse_address("2001:db8::1"))
        b = classify_rfc(parse_address("2001:db8::2"))
        assert a is b
        assert a == classify.PatternLabel(METHOD_RFC, RFC_CLASS_NAMES.index("Low-byte"), "Low-byte")


class TestEntropyFingerprints:
    def make_group(self, suffixes):
        prefix = (2, 0, 0, 1, 0, 0xD, 0xB, 8)
        return [NybbleSeq(prefix + tuple(s)) for s in suffixes]

    def test_constant_position_zero_entropy(self):
        seeds = self.make_group([(3,) * 24 for _ in range(12)])
        fps, small = entropy_fingerprints(seeds)
        assert len(fps) == 1 and not small
        assert fps[0].entropies == pytest.approx([0.0] * 24)

    def test_uniform_position_unit_entropy(self):
        seeds = self.make_group([(v,) * 24 for v in range(16)])
        fps, _ = entropy_fingerprints(seeds)
        assert fps[0].entropies == pytest.approx([1.0] * 24)

    def test_two_value_split_quarter_entropy(self):
        seeds = self.make_group(
            [(0,) * 24, (0,) * 24, (8,) * 24, (8,) * 24] * 3
        )
        fps, _ = entropy_fingerprints(seeds)
        assert fps[0].entropies == pytest.approx([math.log(2, 16)] * 24)
        assert fps[0].entropies[0] == pytest.approx(0.25)

    def test_shuffle_invariant(self):
        seeds, _ = plant_entropy_corpus(20, seed=5)
        fps_a, _ = entropy_fingerprints(seeds)
        fps_b, _ = entropy_fingerprints(list(reversed(seeds)))
        key = lambda fp: fp.prefix.nybbles
        for a, b in zip(sorted(fps_a, key=key), sorted(fps_b, key=key)):
            assert a.prefix == b.prefix
            assert a.entropies == pytest.approx(b.entropies)

    def test_small_groups_carried_separately(self):
        big = self.make_group([(v % 16,) * 24 for v in range(15)])
        small = [NybbleSeq((9,) * 8 + (1,) * 24)]
        fps, small_groups = entropy_fingerprints(big + small, min_group=10)
        assert len(fps) == 1
        assert fps[0].members == tuple(range(15))
        assert bytes((9,) * 8) in small_groups

    def test_entropies_in_unit_range(self):
        seeds, _ = plant_entropy_corpus(25, seed=6)
        fps, _ = entropy_fingerprints(seeds)
        for fp in fps:
            assert all(0.0 <= e <= 1.0 for e in fp.entropies)


class TestKmeans:
    def test_k1_centroid_is_mean(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        assign, cents = kmeans(pts, 1, seed=0)
        assert assign.tolist() == [0, 0, 0, 0]
        assert cents[0] == pytest.approx([1.0, 1.0])

    def test_k_equals_n_zero_sse(self):
        pts = np.array([[0.0], [5.0], [9.0]])
        assign, cents = kmeans(pts, 3, seed=0)
        assert sorted(assign.tolist()) == [0, 1, 2]
        sse = ((pts - cents[assign]) ** 2).sum()
        assert sse == pytest.approx(0.0)

    def test_separated_pairs_match_exhaustive_search(self):
        pts = np.array([[0.0, 0.1], [0.1, 0.0], [9.0, 9.1], [9.1, 9.0]])
        assign, _ = kmeans(pts, 2, seed=0)
        assert assign[0] == assign[1]
        assert assign[2] == assign[3]
        assert assign[0] != assign[2]
        # exhaustive check over all 2-partitions: the found one is optimal
        def sse_of(groups):
            total = 0.0
            for g in groups:
                if len(g):
                    idx = list(g)
                    mean = pts[idx].mean(axis=0)
                    total += ((pts[idx] - mean) ** 2).sum()
            return total
        found = sse_of([np.where(assign == c)[0] for c in (0, 1)])
        best = min(
            sse_of([[i for i in range(4) if (mask >> i) & 1],
                    [i for i in range(4) if not (mask >> i) & 1]])
            for mask in range(1, 15)
        )
        assert found == pytest.approx(best)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, 5))
        a1, c1 = kmeans(pts, 4, seed=9)
        a2, c2 = kmeans(pts, 4, seed=9)
        assert np.array_equal(a1, a2)
        assert np.array_equal(c1, c2)


class TestClassifyEntropy:
    def test_planted_behaviors_recovered(self):
        seeds, truth = plant_entropy_corpus(40, seed=3)
        corpus = classify_entropy(seeds, k=3, seed=0)
        assert corpus.k == 3
        got = [lab.class_id for lab in corpus.labels]
        assert ari(truth, got) >= 0.9

    def test_k1_single_class(self):
        seeds, _ = plant_entropy_corpus(15, seed=4)
        corpus = classify_entropy(seeds, k=1, seed=0)
        assert corpus.k == 1
        assert all(lab.class_id == 0 for lab in corpus.labels)

    def test_too_few_groups_error_mentions_remedies(self):
        seeds = [NybbleSeq((1,) * 8 + (i % 16,) * 24) for i in range(30)]
        with pytest.raises(ValueError, match="smaller k|shorter"):
            classify_entropy(seeds, k=4, seed=0)

    def test_small_groups_and_singletons_still_labeled(self):
        seeds, _ = plant_entropy_corpus(30, seed=7)
        stray = NybbleSeq((0xF,) * 8 + (0,) * 24)
        corpus = classify_entropy(seeds + [stray], k=3, seed=0)
        assert len(corpus.labels) == len(seeds) + 1
        assert corpus.labels[-1].class_id in range(3)

    def test_method_tag(self):
        seeds, _ = plant_entropy_corpus(15, seed=8)
        corpus = classify_entropy(seeds, k=2, seed=0)
        assert all(lab.method == METHOD_ENTROPY for lab in corpus.labels)


class TestIpv62Vec:
    def test_identical_addresses_identical_vectors(self):
        seeds, _ = plant_value_band_corpus(10, seed=0, n_patterns=2)
        doubled = seeds + seeds[:1]
        vecs = ipv62vec_embed(doubled, dim=16, epochs=2, seed=1)
        assert np.allclose(vecs[0], vecs[-1])

    def test_deterministic_given_seed(self):
        seeds, _ = plant_value_band_corpus(10, seed=1, n_patterns=2)
        a = ipv62vec_embed(seeds, dim=16, epochs=2, seed=3)
        b = ipv62vec_embed(seeds, dim=16, epochs=2, seed=3)
        assert np.array_equal(a, b)

    def test_within_pattern_closer_than_across(self):
        seeds, truth = plant_value_band_corpus(30, seed=2, n_patterns=2)
        vecs = ipv62vec_embed(seeds, dim=24, epochs=4, seed=0)
        unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        sims = unit @ unit.T
        truth = np.array(truth)
        same = (truth[:, None] == truth[None, :]) & ~np.eye(len(truth), dtype=bool)
        assert sims[same].mean() > sims[~same & ~np.eye(len(truth), dtype=bool)].mean()

    def test_neighboring_addresses_more_similar_than_cross_pattern(self):
        seeds, truth = plant_value_band_corpus(30, seed=4, n_patterns=2)
        base = seeds[0]
        near = NybbleSeq(base.nybbles[:31] + bytes(((base.nybbles[31] + 1) % 5,)))
        other = next(s for s, t in zip(seeds, truth) if t == 1)
        vecs = ipv62vec_embed([base, near, other] + seeds, dim=24, epochs=4, seed=0)
        unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        assert unit[0] @ unit[1] > unit[0] @ unit[2]


def noise_cdf(seeds):
    """The negative-sampling CDF over all 512 words, as ipv62vec_embed builds it."""
    words = 16 * np.arange(32) + np.array([list(s.nybbles) for s in seeds])
    noise = np.bincount(words.reshape(-1), minlength=512) ** 0.75
    cdf = np.cumsum(noise / noise.sum())
    cdf[-1] = 1.0
    return cdf


class TestGuidedSearchsorted:
    """The guide-table negative sampler answers every draw as np.searchsorted."""

    @pytest.mark.parametrize("block", [False, True])
    def test_equals_searchsorted(self, block):
        seeds, _ = plant_value_band_corpus(20, seed=9, n_patterns=3)
        cdf = noise_cdf(seeds)
        assert cdf[0] == 0.0  # every address starts with nybble 2: word 0 never occurs
        assert (np.diff(cdf) == 0.0).sum() > 200  # half the words never occur
        assert cdf[-2] > 1.0  # the sum rounds above 1.0 before the last entry is set to 1.0
        if block:  # the CDF of the occurring words and word 0
            cdf = cdf[np.flatnonzero(np.diff(cdf, prepend=-1.0) > 0)]
        inside = cdf[cdf < 1.0]
        x = np.concatenate([
            np.random.default_rng(0).random(1_000_000),
            [0.0, np.nextafter(1.0, 0.0)],
            inside, np.nextafter(inside, 0.0), np.nextafter(inside, 1.0),
            np.arange(classify._GUIDE) / classify._GUIDE,
        ])
        got = classify._guided_searchsorted(cdf)(x)
        assert np.array_equal(got, np.searchsorted(cdf, x))
        assert got[1_000_000] == 0

    def test_cdf_with_a_forced_last_step(self):
        # the sum rounds below 1.0, and the last word, which never occurs,
        # gets the step up to the forced 1.0
        cdf = np.cumsum(np.full(10, 0.1))
        assert cdf[-1] < 1.0
        cdf = np.concatenate([cdf, np.full(5, cdf[-1]), [1.0]])
        x = np.concatenate([np.random.default_rng(1).random(100_000), cdf[:-1],
                            np.nextafter(cdf[:-1], 0.0), [np.nextafter(1.0, 0.0)]])
        assert np.array_equal(classify._guided_searchsorted(cdf)(x), np.searchsorted(cdf, x))


MEAN_BLOCK = classify._MEAN_BLOCK


def assert_near_row_form(got, want):
    """Within 1e-12 of the row form's largest magnitude: the block update
    sums each row's updates before applying them, the row form one by one."""
    assert abs(got - want).max() <= 1e-12 * abs(want).max()


class TestEmbedMatchesRowForm:
    @pytest.mark.parametrize("n, dim, epochs, seed", [
        (8, 5, 1, 3), (20, 24, 2, 7), (30, 100, 1, 0), (12, 16, 3, 11),
    ])
    def test_vectors_match_row_form(self, n, dim, epochs, seed):
        seeds, _ = plant_value_band_corpus(n, seed=seed, n_patterns=2)
        got = ipv62vec_embed(seeds, dim=dim, epochs=epochs, seed=seed)
        want = row_scatter_ipv62vec_embed(seeds, dim=dim, epochs=epochs, seed=seed)
        assert_near_row_form(got, want)

    def test_duplicate_addresses_and_other_window(self):
        seeds, _ = plant_value_band_corpus(10, seed=2, n_patterns=3)
        corpus = seeds + seeds[:5] + seeds[:5]
        kw = dict(dim=12, window=3, negatives=7, epochs=2, seed=5, lr=0.1)
        assert_near_row_form(ipv62vec_embed(corpus, **kw), row_scatter_ipv62vec_embed(corpus, **kw))

    def test_large_steps_match_row_form(self):
        # large but finite steps: the vectors reach about 5e55
        seeds, _ = plant_value_band_corpus(20, seed=8, n_patterns=3)
        kw = dict(dim=16, epochs=2, seed=2, lr=1.0)
        with np.errstate(over="ignore"):
            got = ipv62vec_embed(seeds, **kw)
            want = row_scatter_ipv62vec_embed(seeds, **kw)
        assert np.isfinite(got).all()
        assert_near_row_form(got, want)

    def test_diverged_run_has_nans_in_the_same_places(self):
        # at lr=50 the embedding diverges; NaN sign bits may differ
        seeds, _ = plant_value_band_corpus(20, seed=8, n_patterns=3)
        kw = dict(dim=16, epochs=3, seed=2, lr=50.0)
        with np.errstate(all="ignore"):
            got = ipv62vec_embed(seeds, **kw)
            want = row_scatter_ipv62vec_embed(seeds, **kw)
        assert np.isnan(got).any()
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("n", [MEAN_BLOCK, MEAN_BLOCK + 1, 2 * MEAN_BLOCK + 3])
    def test_vectors_match_row_form_across_mean_blocks(self, n):
        seeds, _ = plant_value_band_corpus(n, seed=n, n_patterns=2)
        seeds = seeds[:n]
        kw = dict(dim=8, epochs=1, seed=1)
        assert_near_row_form(ipv62vec_embed(seeds, **kw), row_scatter_ipv62vec_embed(seeds, **kw))

    def test_average_memory_bounded(self):
        # the whole-array average builds one [n, 32, dim] float64 array
        seeds, _ = plant_value_band_corpus(300, seed=4, n_patterns=2)
        dim = 32
        tracemalloc.start()
        try:
            ipv62vec_embed(seeds, dim=dim, epochs=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(seeds) * 32 * dim * 8

    def test_labels_match_row_form(self, monkeypatch):
        seeds, _ = plant_value_band_corpus(40, seed=6, n_patterns=3)
        got = classify_ipv62vec(seeds, target_k=3, seed=0, dim=24)
        monkeypatch.setattr(classify, "ipv62vec_embed", row_scatter_ipv62vec_embed)
        want = classify_ipv62vec(seeds, target_k=3, seed=0, dim=24)
        assert got.labels == want.labels


class TestDbscan:
    def test_identical_points_single_cluster(self):
        pts = np.zeros((6, 3))
        raw, assigned, core = dbscan(sq_dists(pts), eps=0.5, min_pts=3)
        assert set(raw.tolist()) == {0}
        assert set(assigned.tolist()) == {0}
        assert core.all()

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.05, size=(10, 2))
        b = rng.normal(10.0, 0.05, size=(10, 2))
        raw, assigned, _ = dbscan(sq_dists(np.vstack([a, b])), eps=0.5, min_pts=3)
        assert len(set(assigned.tolist())) == 2
        assert len(set(assigned[:10].tolist())) == 1
        assert len(set(assigned[10:].tolist())) == 1

    def test_min_pts_above_n_all_noise(self):
        pts = np.zeros((4, 2))
        raw, assigned, core = dbscan(sq_dists(pts), eps=0.5, min_pts=5)
        assert (raw == -1).all()
        assert (assigned == -1).all()
        assert not core.any()

    def test_noise_assigned_to_nearest_core(self):
        pts = np.array([[0.0], [0.1], [0.2], [50.0]])
        raw, assigned, core = dbscan(sq_dists(pts), eps=0.3, min_pts=3)
        assert raw[3] == -1
        assert assigned[3] == assigned[0]

    def test_hand_traced_chain(self):
        # 0-1-2 chain within eps, 3 reachable only from 2, 4 isolated
        pts = np.array([[0.0], [0.8], [1.6], [2.3], [9.0]])
        raw, assigned, core = dbscan(sq_dists(pts), eps=1.0, min_pts=3)
        assert raw[0] == raw[1] == raw[2] == raw[3] == 0
        assert core.tolist() == [False, True, True, False, False]
        assert raw[4] == -1


D2_BLOCK = classify._D2_BLOCK


class TestSquaredDistances:
    @pytest.mark.parametrize("n", [2, D2_BLOCK - 1, D2_BLOCK, D2_BLOCK + 1, 2 * D2_BLOCK + 1])
    def test_equals_broadcast_form(self, n):
        pts = np.random.default_rng(n).normal(size=(n, 100))
        assert classify._sq_dists(pts).tobytes() == sq_dists(pts).tobytes()

    def test_equals_broadcast_form_on_embeddings(self):
        seeds, _ = plant_value_band_corpus(20, seed=3, n_patterns=3)
        vecs = ipv62vec_embed(seeds + seeds[:1], dim=24, epochs=2, seed=0)
        assert classify._sq_dists(vecs).tobytes() == sq_dists(vecs).tobytes()

    def test_working_memory_bounded(self):
        n = 400
        pts = np.random.default_rng(0).normal(size=(n, 100))
        tracemalloc.start()
        try:
            classify._sq_dists(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n * 8  # four [n, n] float64 matrices


class TestClassifyIpv62Vec:
    def test_target_one_single_class(self):
        seeds, _ = plant_value_band_corpus(15, seed=5, n_patterns=2)
        corpus = classify_ipv62vec(seeds, target_k=1, seed=0, dim=16)
        assert corpus.k == 1

    def test_planted_patterns_recovered(self):
        seeds, truth = plant_value_band_corpus(40, seed=6, n_patterns=3)
        corpus = classify_ipv62vec(seeds, target_k=3, seed=0, dim=24)
        got = [lab.class_id for lab in corpus.labels]
        assert ari(truth, got) >= 0.8
        assert all(lab.method == METHOD_IPV62VEC for lab in corpus.labels)

    def test_partition_property(self):
        seeds, _ = plant_value_band_corpus(20, seed=7, n_patterns=2)
        corpus = classify_ipv62vec(seeds, target_k=2, seed=0, dim=16)
        indices = sorted(i for ids in corpus.class_index for i in ids)
        assert indices == list(range(len(seeds)))


class TestLabelsFile:
    def test_round_trip(self, tmp_path):
        seeds, _ = plant_entropy_corpus(12, seed=9)
        corpus = classify_entropy(seeds, k=2, seed=0)
        path = tmp_path / "labels.tsv"
        write_labels_file(str(path), corpus)
        loaded = read_labels_file(str(path))
        assert loaded.k == corpus.k
        assert loaded.seeds == corpus.seeds
        assert loaded.labels == corpus.labels

    def test_line_format(self, tmp_path):
        corpus = classify_rfc_corpus([parse_address("2001:db8::80")])
        path = tmp_path / "labels.tsv"
        write_labels_file(str(path), corpus)
        lines = [
            line for line in path.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        fields = lines[0].split("\t")
        assert fields == ["2001:db8::80", METHOD_RFC, "0", "Embedded-port"]

    def test_write_failing_part_way_keeps_previous_file(self, tmp_path, disk_full_on):
        seeds, _ = plant_entropy_corpus(12, seed=9)
        path = tmp_path / "labels.tsv"
        write_labels_file(str(path), classify_rfc_corpus(seeds[:3]))
        before = path.read_bytes()
        disk_full_on("labels.tsv")
        with pytest.raises(OSError, match="disk full"):
            write_labels_file(str(path), classify_rfc_corpus(seeds))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["labels.tsv"]
