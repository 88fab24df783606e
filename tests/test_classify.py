"""Seed classification: rule matching, entropy clustering, embeddings."""

import math
import tracemalloc

import numpy as np
import pytest
from _oracles import (
    ari,
    plant_entropy_corpus,
    plant_value_band_corpus,
    row_scatter_ipv62vec_embed,
    sq_dists,
)

from sixgan import classify
from sixgan.addr import NybbleSeq, parse_address
from sixgan.classify import (
    METHOD_ENTROPY,
    METHOD_IPV62VEC,
    METHOD_RFC,
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

    def test_custom_port_list(self):
        label = classify_rfc(parse_address("2001:db8::99"), port_list=frozenset({0x99}))
        assert label.class_name == "Embedded-port"
        # default list sends the same shape to the low-32 embedding rule
        assert rfc_name("2001:db8::99") == "Embedded-IPv4"

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
        assert (9,) * 8 in small_groups

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
        near = NybbleSeq(base.nybbles[:31] + ((base.nybbles[31] + 1) % 5,))
        other = next(s for s, t in zip(seeds, truth) if t == 1)
        vecs = ipv62vec_embed([base, near, other] + seeds, dim=24, epochs=4, seed=0)
        unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        assert unit[0] @ unit[1] > unit[0] @ unit[2]


def flat_rows(rows, dim):
    return rows[..., None] * dim + np.arange(dim)


class TestFlatScatter:
    """_subtract_rows_at against np.subtract.at over whole rows."""

    def check(self, w, rows, vals):
        expect = w.copy()
        np.subtract.at(expect, rows.reshape(-1), vals.reshape(-1, w.shape[1]))
        classify._subtract_rows_at(w, flat_rows(rows, w.shape[1]), vals)
        assert w.tobytes() == expect.tobytes()

    def test_order_sensitive_updates_to_one_row(self):
        # 1 - 1e16 - 1 + 1e16 is 0.0 one subtraction at a time, but summing
        # the three updates first gives 1e16 + 1 - 1e16 = 0 and leaves 1.0
        w = np.ones((3, 2))
        rows = np.array([1, 0, 1, 1, 2])
        vals = np.array([[1e16, -3.0], [2.0, 2.0], [1.0, 1e16], [-1e16, 1.0], [0.5, 0.5]])
        self.check(w, rows, vals)
        assert w[1, 0] == 0.0

    def test_signed_zeros(self):
        # -0.0 - 0.0 - -0.0 is +0.0; summing first (0.0 + -0.0 is 0.0) keeps -0.0
        w = np.array([[-0.0, 0.0], [-0.0, -0.0]])
        rows = np.array([0, 1, 1])
        vals = np.array([[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]])
        self.check(w, rows, vals)
        assert not np.signbit(w).any()

    def test_many_repeats_and_2d_rows(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-8, 9, size=(7, 5))
        rows = rng.integers(0, 3, size=(40, 6))  # rows 0..2 hit ~80 times each
        vals = rng.normal(size=(40, 6, 5)) * 10.0 ** rng.integers(-8, 9, size=(40, 6, 5))
        self.check(w, rows, vals)

    def test_rejects_non_contiguous(self):
        w = np.zeros((4, 6))
        rows = np.array([0, 1])
        for view in (w[:, ::2], np.asfortranarray(w)):
            with pytest.raises(ValueError):
                classify._subtract_rows_at(view, flat_rows(rows, view.shape[1]),
                                           np.ones((2, view.shape[1])))


MEAN_BLOCK = classify._MEAN_BLOCK


class TestEmbedMatchesRowForm:
    @pytest.mark.parametrize("n, dim, epochs, seed", [
        (8, 5, 1, 3), (20, 24, 2, 7), (30, 100, 1, 0), (12, 16, 3, 11),
    ])
    def test_vectors_bit_identical(self, n, dim, epochs, seed):
        seeds, _ = plant_value_band_corpus(n, seed=seed, n_patterns=2)
        got = ipv62vec_embed(seeds, dim=dim, epochs=epochs, seed=seed)
        want = row_scatter_ipv62vec_embed(seeds, dim=dim, epochs=epochs, seed=seed)
        assert got.tobytes() == want.tobytes()

    def test_duplicate_addresses_and_other_window(self):
        seeds, _ = plant_value_band_corpus(10, seed=2, n_patterns=3)
        corpus = seeds + seeds[:5] + seeds[:5]
        kw = dict(dim=12, window=3, negatives=7, epochs=2, seed=5, lr=0.1)
        got = ipv62vec_embed(corpus, **kw)
        assert got.tobytes() == row_scatter_ipv62vec_embed(corpus, **kw).tobytes()

    @pytest.mark.parametrize("n", [MEAN_BLOCK, MEAN_BLOCK + 1, 2 * MEAN_BLOCK + 3])
    def test_vectors_bit_identical_across_mean_blocks(self, n):
        seeds, _ = plant_value_band_corpus(n, seed=n, n_patterns=2)
        seeds = seeds[:n]
        kw = dict(dim=8, epochs=1, seed=1)
        assert ipv62vec_embed(seeds, **kw).tobytes() == row_scatter_ipv62vec_embed(seeds, **kw).tobytes()

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
