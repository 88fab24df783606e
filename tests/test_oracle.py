"""Synthetic universe: spec validation, probe semantics, seed sampling."""

import json
import math
import re

import numpy as np
import pytest
from _oracles import scalar_sample_seeds

import sixgan.oracle as oracle_module
from sixgan.addr import NybblePrefix, NybbleSeq, parse_address, parse_prefix
from sixgan.classify import RFC_CLASS_NAMES, classify_rfc
from sixgan.oracle import (
    _LOW_BYTE_LAST,
    _PORT_GROUPS,
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
    # each family error starts with the field's name
    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="^pattern must be one of Embedded-IPv4, .*, "
                                             "got 'Fancy'$"):
            family(pattern="Fancy")

    def test_density_bounds(self):
        with pytest.raises(ValueError, match=r"^density must be in \(0, 1\], got 0.0$"):
            family(density=0.0)
        with pytest.raises(ValueError, match="^density must be"):
            family(density=1.5)
        family(density=1.0)

    def test_empty_prefixes_rejected(self):
        with pytest.raises(ValueError, match="^prefixes must not be empty$"):
            PatternFamily(name="x", pattern="Low-byte", prefixes=(), density=0.5)

    def test_overlapping_family_prefixes_rejected(self):
        # the spec itself refuses them, so a spec built directly is checked
        # too, with the shorter prefix in the first family or the second
        families = (family(prefix="2001:db8::/32", name="outer"),
                    family(prefix="2001:db8:1::/48", name="inner", pattern="IEEE-derived"))
        for order in (families, families[::-1]):
            with pytest.raises(ValueError, match="overlap"):
                UniverseSpec(hash_key=1, families=order)

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

    @pytest.mark.parametrize("where", ["top", "family"])
    def test_unknown_key_is_refused(self, where):
        # a misspelt key would otherwise drop what it holds, such as every
        # aliased prefix
        doc = one_family_spec(aliased=("2001:db8:f::/48",)).to_json_dict()
        if where == "top":
            doc["aliased_prefixs"] = doc.pop("aliased_prefixes")
            key = "aliased_prefixs"
        else:
            doc["families"][0]["densty"] = doc["families"][0].pop("density")
            key = "families[0].densty"
        with pytest.raises(ValueError, match=rf"^unknown universe spec key: {re.escape(key)}$"):
            UniverseSpec.from_json_dict(doc)

    @pytest.mark.parametrize("field, value, why", [
        ("pattern", "Low-bite", "pattern must be one of Embedded-IPv4, "),
        ("density", 1.6, "density must be in (0, 1], got 1.6"),
        ("prefixes", [], "prefixes must not be empty"),
    ])
    def test_family_errors_name_their_key(self, field, value, why):
        doc = one_family_spec().to_json_dict()
        doc["families"][0][field] = value
        with pytest.raises(ValueError) as err:
            UniverseSpec.from_json_dict(doc)
        assert str(err.value).startswith(f"universe spec key families[0].{why}")

    @pytest.mark.parametrize("text, why", [
        ('{"hash_key": 1,', "not valid JSON: Expecting property name enclosed in double quotes"),
        ('{"hash_key": NaN, "families": []}', "universe spec key hash_key must be an integer, got NaN"),
        ('{"hash_key": 1, "families": [{"name": "a", "pattern": "Low-byte", '
         '"prefixes": ["2001:db8::/48"], "density": Infinity}]}',
         "universe spec key families[0].density must be a finite number, got Infinity"),
    ])
    def test_load_errors_name_the_file(self, tmp_path, text, why):
        path = tmp_path / "universe.json"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            UniverseSpec.load(str(path))
        assert str(err.value).startswith(f"{path}: {why}")


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

    def test_port_groups_and_low_bytes_follow_the_port_rule(self):
        # the last-group bytes the sampler draws, derived from classify.PORTS
        def last_group(value):
            return classify_rfc(parse_address(f"2001:db8::{value:x}")).class_name

        assert {last_group(v) for v in _PORT_GROUPS} == {"Embedded-port"}
        assert {last_group(v) for v in _LOW_BYTE_LAST} == {"Low-byte"}
        # their order feeds rng.choice, so an edit of PORTS that would move
        # the seeds fails here by name
        assert _PORT_GROUPS == (0x15, 0x16, 0x17, 0x19, 0x35, 0x50, 0x6E, 0x7B, 0x8F,
                                0x21, 0x22, 0x23, 0x25, 0x53, 0x80)
        assert _LOW_BYTE_LAST == tuple(range(0x01, 0x15)) + (0x18,) + tuple(range(0x1A, 0x20))

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


# one family per pattern, all under prefixes of one length
_PREFIXES_BY_LENGTH = {
    32: "2001:db{}::/32",
    48: "2001:db8:{}::/48",
    64: "2001:db8:0:{}::/64",
}


def six_pattern_spec(prefix_len: int, hash_key: int) -> UniverseSpec:
    fams = tuple(
        family(pattern=pattern, prefix=_PREFIXES_BY_LENGTH[prefix_len].format(i),
               density=0.6, name=f"f{i}")
        for i, pattern in enumerate(RFC_CLASS_NAMES)
    )
    # one nybble longer than the Randomized family's prefix: a sixteenth of
    # its samples are aliased
    aliased = (NybblePrefix(fams[-1].prefixes[0].nybbles + bytes(1)),)
    return UniverseSpec(hash_key=hash_key, families=fams, aliased_prefixes=aliased)


class TestSamplerMatchesScalarForm:
    """Batched draws against the earlier one-call-per-value sampler."""

    @pytest.mark.parametrize("prefix_len", [32, 48, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_same_seeds_and_generator_state(self, prefix_len, seed):
        oracle = UniverseOracle(six_pattern_spec(prefix_len, hash_key=100 + seed))
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        seeds = sample_seeds(oracle, 300, rng_a)
        assert seeds == scalar_sample_seeds(oracle, 300, rng_b)
        assert {classify_rfc(s).class_name for s in seeds} == set(RFC_CLASS_NAMES)
        assert rng_a.random() == rng_b.random()

    def test_sampled_addresses_are_classified_only_by_sample_shape(self, monkeypatch):
        # sample_shape has checked each sampled address's label, so probing
        # it does not classify it again
        oracle = UniverseOracle(six_pattern_spec(48, hash_key=100))
        inside, calls = [], {"sample_shape": 0, "elsewhere": 0}
        real_shape, real_classify = oracle_module.sample_shape, oracle_module.classify_rfc

        def shape(*args, **kwargs):
            inside.append(True)
            try:
                return real_shape(*args, **kwargs)
            finally:
                inside.pop()

        def classify(seq):
            calls["sample_shape" if inside else "elsewhere"] += 1
            return real_classify(seq)

        monkeypatch.setattr(oracle_module, "sample_shape", shape)
        monkeypatch.setattr(oracle_module, "classify_rfc", classify)
        seeds = sample_seeds(oracle, 300, np.random.default_rng(0))
        assert calls["elsewhere"] == 0
        assert calls["sample_shape"] >= len(seeds) == 300

    @pytest.mark.parametrize("bound", [2, 4, 16, 256])
    @pytest.mark.parametrize("n", [0, 1, 8, 20])
    def test_numpy_batched_integers_match_scalar_calls(self, bound, n):
        # the property the sampler relies on: below 2**32 one size=n call
        # draws the same values as n scalar calls and leaves the same state
        a = np.random.default_rng(bound * 100 + n)
        b = np.random.default_rng(bound * 100 + n)
        assert [int(a.integers(bound)) for _ in range(n)] == b.integers(bound, size=n).tolist()
        # random() reads 64 bits; integers(16) reads a 32-bit half a draw may have kept
        assert (a.random(), int(a.integers(16))) == (b.random(), int(b.integers(16)))
