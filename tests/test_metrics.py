"""Similarity metrics, evaluation reports, and budget allocation."""

import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    bf_cosine,
    bf_diversity,
    bf_hit_and_generation,
    bf_jaccard,
    bf_novelty,
    bf_pattern_quality,
    bf_pattern_quality_max,
    broadcast_diversity,
    broadcast_novelty,
    dense_seed_cosines,
)
from sixgan import metrics
from sixgan.addr import NybbleSeq, parse_address, parse_prefix
from sixgan.metrics import (
    CandidateSet,
    EvaluationReport,
    allocate_budget,
    diversity,
    evaluate,
    novelty,
    pattern_quality,
    pattern_quality_max,
    write_report_files,
)
from sixgan.oracle import PatternFamily, UniverseOracle, UniverseSpec

nybble_seqs = st.builds(
    NybbleSeq,
    st.tuples(*(st.integers(0, 15) for _ in range(32))),
)


def random_seqs(rng, n):
    return [NybbleSeq(tuple(rng.integers(0, 16, size=32).tolist())) for _ in range(n)]


class TestCandidateSet:
    def test_duplicates_rejected(self):
        a = NybbleSeq((1,) * 32)
        with pytest.raises(ValueError):
            CandidateSet([a, a])

    def test_dedup_keeps_first_occurrence(self):
        a, b = NybbleSeq((1,) * 32), NybbleSeq((2,) * 32)
        cs = CandidateSet.dedup([a, b, a, b, a], pattern_id=3)
        assert cs.addresses == [a, b]
        assert cs.pattern_id == 3
        assert len(cs) == 2


class TestCosine:
    """The cosine conventions, through the candidate x seed matrix."""

    def test_identical_is_one(self):
        a = NybbleSeq(tuple(range(16)) * 2)
        assert pattern_quality([a], [a]) == pytest.approx(1.0)

    def test_both_zero_is_one(self):
        z = NybbleSeq((0,) * 32)
        assert pattern_quality([z], [z]) == 1.0

    def test_one_zero_is_zero(self):
        z = NybbleSeq((0,) * 32)
        a = NybbleSeq((1,) + (0,) * 31)
        assert pattern_quality([z], [a]) == 0.0
        assert pattern_quality([a], [z]) == 0.0
        # a zero row or column leaves the other entries alone
        b = NybbleSeq((2,) + (0,) * 31)
        assert pattern_quality_max([z, a], [z, b]) == 1.0
        assert pattern_quality([z, a], [z, b]) == 0.0

    def test_disjoint_support_is_zero(self):
        a = NybbleSeq((3,) + (0,) * 31)
        b = NybbleSeq((0,) * 31 + (5,))
        assert pattern_quality([a], [b]) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(nybble_seqs, nybble_seqs)
    def test_matches_brute_force(self, a, b):
        assert pattern_quality([a], [b]) == pytest.approx(bf_cosine(a, b), abs=1e-12)


class TestJaccard:
    """Jaccard similarity J, read back from novelty = 100 * (1 - J)."""

    def test_identical_is_one(self):
        a = NybbleSeq(tuple(range(16)) * 2)
        assert novelty([a], [a]) == 0.0

    def test_half_agreement(self):
        a = NybbleSeq((7,) * 32)
        b = NybbleSeq((7,) * 16 + (8,) * 16)
        assert novelty([a], [b]) == pytest.approx(100.0 * (1.0 - 16 / 48))

    def test_total_disagreement_is_zero(self):
        a = NybbleSeq((1,) * 32)
        b = NybbleSeq((2,) * 32)
        assert novelty([a], [b]) == 100.0

    @settings(max_examples=150, deadline=None)
    @given(nybble_seqs, nybble_seqs)
    def test_matches_brute_force(self, a, b):
        assert novelty([a], [b]) == pytest.approx(100.0 * (1.0 - bf_jaccard(a, b)), abs=1e-10)


class TestSetMetrics:
    def test_pattern_quality_hand_value(self):
        c = NybbleSeq((1, 0) + (0,) * 30)
        near = NybbleSeq((1, 0) + (0,) * 30)
        far = NybbleSeq((0, 1) + (0,) * 30)
        assert pattern_quality([c], [near, far]) == pytest.approx(0.0)
        assert pattern_quality_max([c], [near, far]) == pytest.approx(1.0)

    def test_novelty_zero_for_seed_copies(self):
        seeds = random_seqs(np.random.default_rng(0), 4)
        assert novelty(list(seeds), seeds) == pytest.approx(0.0)

    def test_diversity_zero_for_identical_pair(self):
        a = NybbleSeq((4,) * 32)
        assert diversity([a, a]) == pytest.approx(0.0)

    def test_diversity_disjoint_pair_is_hundred(self):
        a = NybbleSeq((1,) * 32)
        b = NybbleSeq((2,) * 32)
        assert diversity([a, b]) == pytest.approx(100.0)

    def test_single_agreeing_position(self):
        # nearest-neighbour similarity 1/63 at every row
        a = NybbleSeq((1,) * 32)
        b = NybbleSeq((1,) + (2,) * 31)
        assert diversity([a, b]) == pytest.approx(100.0 * (1 - 1 / 63))

    def test_empty_inputs_rejected(self):
        a = NybbleSeq((0,) * 32)
        with pytest.raises(ValueError):
            pattern_quality([], [a])
        with pytest.raises(ValueError):
            pattern_quality([a], [])
        with pytest.raises(ValueError):
            novelty([a], [])
        with pytest.raises(ValueError):
            diversity([a])

    def test_set_metrics_match_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            cands = random_seqs(rng, int(rng.integers(2, 9)))
            seeds = random_seqs(rng, int(rng.integers(1, 9)))
            assert pattern_quality(cands, seeds) == pytest.approx(
                bf_pattern_quality(cands, seeds), abs=1e-12)
            assert pattern_quality_max(cands, seeds) == pytest.approx(
                bf_pattern_quality_max(cands, seeds), abs=1e-12)
            assert novelty(cands, seeds) == pytest.approx(
                bf_novelty(cands, seeds), abs=1e-12)
            assert diversity(cands) == pytest.approx(
                bf_diversity(cands), abs=1e-12)


BLOCK = metrics._BLOCK
BLOCK_SIZES = [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]


def shared_prefix_seqs(rng, prefix, n):
    """n addresses under prefix with 0/1 suffix nybbles, so many pairs differ in few places."""
    return [NybbleSeq(prefix + tuple(rng.integers(0, 2, size=16).tolist())) for _ in range(n)]


def assert_pattern_qualities_dense(cands, seeds):
    sims = dense_seed_cosines(cands, seeds)
    lows, highs = metrics._seed_cosine_bounds(cands, seeds)
    assert lows.tobytes() == sims.min(axis=1).tobytes()
    assert highs.tobytes() == sims.max(axis=1).tobytes()
    assert pattern_quality(cands, seeds) == float(sims.min(axis=1).mean())
    assert pattern_quality_max(cands, seeds) == float(sims.max(axis=1).mean())


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedKernels:
    """The row-blocked kernels against the broadcast forms they replace, exactly."""

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_pattern_quality_random_sets(self, n):
        rng = np.random.default_rng(2000 + n)
        assert_pattern_qualities_dense(random_seqs(rng, n), random_seqs(rng, 9))

    @pytest.mark.parametrize("zero_seed", [False, True])
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_pattern_quality_zero_vectors(self, n, zero_seed):
        rng = np.random.default_rng(3000 + n)
        zero = NybbleSeq((0,) * 32)
        cands = random_seqs(rng, n)
        for i in (0, n // 2, n - 1):  # n // 2 is in a middle block once there are three
            cands[i] = zero
        seeds = random_seqs(rng, 8) + [zero] * zero_seed
        assert_pattern_qualities_dense(cands, seeds)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_random_sets(self, n):
        rng = np.random.default_rng(n)
        cands = random_seqs(rng, n)
        seeds = random_seqs(rng, 9)
        assert novelty(cands, seeds) == broadcast_novelty(cands, seeds)
        assert diversity(cands) == broadcast_diversity(cands)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_shared_prefix_and_near_duplicates(self, n):
        rng = np.random.default_rng(1000 + n)
        prefix = tuple(rng.integers(0, 16, size=16).tolist())
        base = shared_prefix_seqs(rng, prefix, 1)[0]
        one_off = NybbleSeq(base.nybbles[:31] + (1 - base.nybbles[31],))
        cands = [base, one_off] + shared_prefix_seqs(rng, prefix, n - 2)
        seeds = shared_prefix_seqs(rng, prefix, 5) + [cands[-1]]
        assert novelty(cands, seeds) == broadcast_novelty(cands, seeds)
        assert diversity(cands) == broadcast_diversity(cands)

    def test_diversity_working_memory_bounded(self):
        cands = random_seqs(np.random.default_rng(0), 2000)
        # the [n, n, 32] agreement array alone is 128 MB
        assert traced_peak(diversity, cands) < 16e6

    def test_pattern_quality_working_memory_bounded(self):
        rng = np.random.default_rng(0)
        cands, seeds = random_seqs(rng, 4000), random_seqs(rng, 500)
        bound = 8e6
        assert traced_peak(pattern_quality, cands, seeds) < bound
        # dots, their norms' outer product and the cosines: 16 MB each
        assert traced_peak(dense_seed_cosines, cands, seeds) > bound


def fixture_oracle():
    spec = UniverseSpec(
        hash_key=99,
        families=(
            PatternFamily(
                name="low",
                pattern="Low-byte",
                prefixes=(parse_prefix("2001:db8:a::/48"),),
                density=1.0,
            ),
        ),
        aliased_prefixes=(parse_prefix("2001:db8:f::/48"),),
    )
    return UniverseOracle(spec)


class TestEvaluate:
    def test_ten_address_fixture(self):
        oracle = fixture_oracle()
        active = [parse_address(f"2001:db8:a::{v}") for v in range(1, 9)]
        aliased = [
            parse_address("2001:db8:f::dead"),
            parse_address("2001:db8:f::beef"),
        ]
        seeds = active[:3] + [parse_address("2001:db8:a::ff")]
        cands = CandidateSet(active + aliased)
        report = evaluate(cands, seeds, oracle)
        assert report.n_candidates == 10
        assert report.n_active == 10
        assert report.n_aliased == 2
        assert report.n_in_seeds == 3
        assert report.n_valid == 5
        assert report.loss == 5
        assert report.hit_rate == pytest.approx(0.8)
        assert report.generation_rate == pytest.approx(0.5)
        assert report.aliased_pct == pytest.approx(0.2)
        assert report.diversity is not None

        def probe(seq):
            status = oracle.probe(seq)
            return (status.name != "INACTIVE", status.name == "ALIASED")

        bf_hit, bf_gen = bf_hit_and_generation(cands.addresses, seeds, probe)
        assert report.hit_rate == pytest.approx(bf_hit, abs=1e-12)
        assert report.generation_rate == pytest.approx(bf_gen, abs=1e-12)

    def test_inactive_candidates_score_zero(self):
        oracle = fixture_oracle()
        cands = CandidateSet([parse_address("2001:db8:b::1"),
                              parse_address("2001:db8:b::2")])
        report = evaluate(cands, [], oracle)
        assert report.n_active == 0
        assert report.hit_rate == 0.0
        assert report.pattern_quality is None
        assert report.novelty is None
        assert report.diversity is not None

    def test_empty_candidate_set(self):
        report = evaluate(CandidateSet([]), [], fixture_oracle())
        assert report.n_candidates == 0
        assert report.hit_rate == 0.0
        assert report.generation_rate == 0.0
        assert report.pattern_quality is None
        assert report.diversity is None

    def test_report_files(self, tmp_path):
        oracle = fixture_oracle()
        cands = CandidateSet([parse_address("2001:db8:a::1"),
                              parse_address("2001:db8:a::2")])
        report = evaluate(cands, [parse_address("2001:db8:a::1")], oracle)
        jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
        write_report_files(report, str(jp), str(cp))
        doc = json.loads(jp.read_text())
        assert doc["n_candidates"] == 2
        assert doc["hit_rate"] == pytest.approx(1.0)
        with open(cp, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(EvaluationReport.CSV_FIELDS)
        assert len(rows) == 2
        assert rows[1][0] == "2"


class TestAllocateBudget:
    def test_even_split_remainder_to_front(self):
        assert allocate_budget([1.0, 1.0, 1.0], 10) == [4, 3, 3]

    def test_exact_proportions_returned_verbatim(self):
        rates = [11.0, 3.0, 3.0, 1.0, 19.0, 10.0]
        assert allocate_budget(rates, 47) == [11, 3, 3, 1, 19, 10]

    def test_tie_breaks_toward_lowest_index(self):
        assert allocate_budget([1.0, 1.0], 3) == [2, 1]

    def test_zero_total(self):
        assert allocate_budget([0.5, 0.5], 0) == [0, 0]

    def test_zero_rate_gets_nothing(self):
        assert allocate_budget([1.0, 0.0], 7) == [7, 0]

    def test_all_zero_rates_rejected(self):
        with pytest.raises(ValueError):
            allocate_budget([0.0, 0.0], 5)
        with pytest.raises(ValueError):
            allocate_budget([], 5)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            allocate_budget([1.0, -0.1], 5)
        with pytest.raises(ValueError):
            allocate_budget([1.0], -1)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8).filter(
            lambda r: sum(r) > 0
        ),
        st.integers(0, 10_000),
    )
    def test_sum_is_exact_and_proportional(self, rates, total):
        out = allocate_budget(rates, total)
        assert sum(out) == total
        assert all(b >= 0 for b in out)
        assert len(out) == len(rates)
        for r, b in zip(rates, out):
            if r == 0:
                assert b == 0
            else:
                assert abs(b - total * r / sum(rates)) < 1.0 + 1e-9
