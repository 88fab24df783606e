"""Synthetic universe: spec validation, probe semantics, seed sampling."""

import json
import math

import numpy as np
import pytest

from sixgan.addr import NybbleSeq, parse_address, parse_prefix
from sixgan.classify import RFC_CLASS_NAMES, classify_rfc
from sixgan.oracle import (
    PatternFamily,
    ProbeStatus,
    UniverseOracle,
    UniverseSpec,
    sample_conforming,
    sample_seeds,
    sample_shape,
)


def family(pattern="Low-byte", prefix="2001:db8:a::/48", density=1.0, name="fam"):
    return PatternFamily(
        name=name,
        pattern=pattern,
        prefixes=(parse_prefix(prefix),),
        density=density,
    )


def one_family_spec(density=1.0, aliased=(), hash_key=7, pattern="Low-byte"):
    return UniverseSpec(
        hash_key=hash_key,
        families=(family(pattern=pattern, density=density),),
        aliased_prefixes=tuple(parse_prefix(p) for p in aliased),
    )


class TestSpecValidation:
    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            family(pattern="Fancy")

    def test_density_bounds(self):
        with pytest.raises(ValueError):
            family(density=0.0)
        with pytest.raises(ValueError):
            family(density=1.5)
        family(density=1.0)

    def test_empty_prefixes_rejected(self):
        with pytest.raises(ValueError):
            PatternFamily(name="x", pattern="Low-byte", prefixes=(), density=0.5)

    def test_overlapping_family_prefixes_rejected(self):
        spec = UniverseSpec(
            hash_key=1,
            families=(
                family(prefix="2001:db8::/32", name="outer"),
                family(prefix="2001:db8:1::/48", name="inner", pattern="IEEE-derived"),
            ),
        )
        with pytest.raises(ValueError, match="overlap"):
            UniverseOracle(spec)

    def test_disjoint_families_accepted(self):
        spec = UniverseSpec(
            hash_key=1,
            families=(
                family(prefix="2001:db8:1::/48", name="a"),
                family(prefix="2001:db8:2::/48", name="b", pattern="IEEE-derived"),
            ),
        )
        UniverseOracle(spec)


class TestSpecSerialization:
    def test_json_round_trip(self, tmp_path):
        spec = one_family_spec(density=0.25, aliased=("2001:db8:f::/48",), hash_key=123)
        path = tmp_path / "universe.json"
        spec.save(str(path))
        loaded = UniverseSpec.load(str(path))
        assert loaded == spec

    def test_save_failing_part_way_keeps_previous_file(self, tmp_path, disk_full_on):
        path = tmp_path / "universe.json"
        one_family_spec(hash_key=1).save(str(path))
        before = path.read_bytes()
        disk_full_on("universe.json")
        with pytest.raises(OSError, match="disk full"):
            one_family_spec(aliased=("2001:db8:f::/48",), hash_key=2).save(str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["universe.json"]

    def test_dict_round_trip_and_defaults(self):
        spec = one_family_spec(density=0.5)
        doc = spec.to_json_dict()
        assert doc["aliased_prefixes"] == []
        again = UniverseSpec.from_json_dict(json.loads(json.dumps(doc)))
        assert again == spec
        # aliased_prefixes key may be absent entirely
        del doc["aliased_prefixes"]
        assert UniverseSpec.from_json_dict(doc) == spec


class TestProbe:
    def test_full_density_activates_every_conforming_address(self):
        oracle = UniverseOracle(one_family_spec(density=1.0))
        rng = np.random.default_rng(0)
        for _ in range(50):
            seq = sample_conforming(oracle.spec.families[0], rng)
            assert oracle.probe(seq) is ProbeStatus.ACTIVE

    def test_aliased_prefix_answers_unconditionally(self):
        oracle = UniverseOracle(
            one_family_spec(density=0.5, aliased=("2001:db8:f::/48",))
        )
        rng = np.random.default_rng(1)
        for _ in range(20):
            iid = tuple(rng.integers(0, 16, size=20).tolist())
            seq = NybbleSeq((2, 0, 0, 1, 0, 0xD, 0xB, 8, 0, 0, 0, 0xF) + iid)
            assert oracle.probe(seq) is ProbeStatus.ALIASED

    def test_wrong_shape_under_family_prefix_inactive(self):
        oracle = UniverseOracle(one_family_spec(density=1.0, pattern="Low-byte"))
        # random interface identifier does not match the family's shape
        seq = parse_address("2001:db8:a::b791:8741:c127:a75")
        assert classify_rfc(seq).class_name == "Randomized"
        assert oracle.probe(seq) is ProbeStatus.INACTIVE

    def test_outside_all_prefixes_inactive(self):
        oracle = UniverseOracle(one_family_spec(density=1.0))
        seq = parse_address("2001:db8:b::1")
        assert oracle.probe(seq) is ProbeStatus.INACTIVE

    def test_probe_is_deterministic(self):
        spec = one_family_spec(density=0.5)
        a, b = UniverseOracle(spec), UniverseOracle(spec)
        rng = np.random.default_rng(2)
        for _ in range(100):
            seq = sample_conforming(spec.families[0], rng)
            assert a.probe(seq) is b.probe(seq)

    def test_hash_key_changes_activity_set(self):
        rng = np.random.default_rng(3)
        seqs = []
        seen = set()
        fam = family(density=0.5)
        while len(seqs) < 100:
            s = sample_conforming(fam, rng)
            if s.nybbles not in seen:
                seen.add(s.nybbles)
                seqs.append(s)
        a = UniverseOracle(one_family_spec(density=0.5, hash_key=1))
        b = UniverseOracle(one_family_spec(density=0.5, hash_key=2))
        assert any(a.probe(s) is not b.probe(s) for s in seqs)

    def test_empirical_density_within_three_sigma(self):
        density = 0.3
        n = 2000
        oracle = UniverseOracle(one_family_spec(density=density, pattern="Randomized"))
        rng = np.random.default_rng(4)
        seen = set()
        active = 0
        total = 0
        while total < n:
            seq = sample_conforming(oracle.spec.families[0], rng)
            if seq.nybbles in seen:
                continue
            seen.add(seq.nybbles)
            total += 1
            active += oracle.probe(seq) is ProbeStatus.ACTIVE
        sigma = math.sqrt(density * (1 - density) / n)
        assert abs(active / n - density) < 3 * sigma


class TestSamplers:
    @pytest.mark.parametrize("pattern", RFC_CLASS_NAMES)
    def test_shapes_classify_to_their_pattern(self, pattern):
        rng = np.random.default_rng(5)
        prefix = parse_prefix("2001:db8::/32")
        for _ in range(50):
            seq = sample_shape(pattern, prefix, rng)
            assert classify_rfc(seq).class_name == pattern
            assert seq.nybbles[:8] == prefix.nybbles

    def test_prefix_must_leave_iid_free(self):
        rng = np.random.default_rng(6)
        long = parse_prefix("2001:db8::1:0:0/68")
        with pytest.raises(ValueError):
            sample_shape("Low-byte", long, rng)

    def test_sample_seeds_distinct_active_and_conforming(self):
        spec = UniverseSpec(
            hash_key=11,
            families=(
                family(prefix="2001:db8:1::/48", name="low", density=0.8),
                family(prefix="2001:db8:2::/48", name="ieee",
                       pattern="IEEE-derived", density=0.8),
            ),
        )
        oracle = UniverseOracle(spec)
        seeds = sample_seeds(oracle, 120, np.random.default_rng(7))
        assert len(seeds) == 120
        assert len({s.nybbles for s in seeds}) == 120
        names = {classify_rfc(s).class_name for s in seeds}
        assert names <= {"Low-byte", "IEEE-derived"}
        assert len(names) == 2
        for s in seeds:
            assert oracle.probe(s) is ProbeStatus.ACTIVE

    def test_sample_seeds_deterministic(self):
        oracle = UniverseOracle(one_family_spec(density=0.9))
        a = sample_seeds(oracle, 30, np.random.default_rng(8))
        b = sample_seeds(oracle, 30, np.random.default_rng(8))
        assert a == b

    def test_sample_seeds_never_aliased(self):
        oracle = UniverseOracle(
            one_family_spec(density=1.0, aliased=("2001:db8:a:0::/64",))
        )
        seeds = sample_seeds(oracle, 60, np.random.default_rng(9))
        for s in seeds:
            assert oracle.probe(s) is ProbeStatus.ACTIVE
