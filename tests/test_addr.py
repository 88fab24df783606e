"""Address codec and aliased-prefix matcher behavior."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import seq_from_hex, seq_to_hex

from sixgan.addr import (
    AddressParseError,
    AliasTrie,
    NybblePrefix,
    NybbleSeq,
    format_address,
    load_alias_file,
    load_seed_file,
    parse_address,
    parse_prefix,
    write_address_file,
)

nybbles32 = st.tuples(*([st.integers(0, 15)] * 32))
prefix_nybbles = st.lists(st.integers(0, 15), min_size=1, max_size=32)


class TestParseAddress:
    def test_compressed_form_expands(self):
        assert parse_address("2001:db8::80") == seq_from_hex(
            "20010db8000000000000000000000080"
        )

    def test_all_zeros(self):
        assert parse_address("::") == seq_from_hex("0" * 32)

    def test_mixed_compressed_tail(self):
        assert parse_address("2001:db8:900::21e:67ff:fe31:4cdf") == seq_from_hex(
            "20010db809000000021e67fffe314cdf"
        )

    def test_full_form(self):
        assert parse_address("2001:0db8:0000:0000:0000:0000:0000:0080") == seq_from_hex(
            "20010db8000000000000000000000080"
        )

    def test_case_insensitive(self):
        assert parse_address("2001:DB8::80") == parse_address("2001:db8::80")

    def test_dotted_quad_tail(self):
        assert parse_address("::ffff:192.0.2.1") == seq_from_hex(
            "00000000000000000000ffffc0000201"
        )

    def test_double_compression_rejected(self):
        with pytest.raises(AddressParseError):
            parse_address("2001::db8::1")

    def test_bad_character_names_position(self):
        with pytest.raises(AddressParseError) as err:
            parse_address("2001:dz8::1")
        assert "position" in str(err.value)

    def test_too_many_groups_rejected(self):
        with pytest.raises(AddressParseError):
            parse_address("1:2:3:4:5:6:7:8:9")

    def test_short_without_compression_rejected(self):
        with pytest.raises(AddressParseError):
            parse_address("1:2:3")

    def test_overlong_group_rejected(self):
        with pytest.raises(AddressParseError):
            parse_address("12345::")


class TestFormatAddress:
    def test_all_zeros_compresses_fully(self):
        assert format_address(seq_from_hex("0" * 32)) == "::"

    def test_trailing_zero_run(self):
        assert format_address(seq_from_hex("20010db8000000000000000000000080")) == (
            "2001:db8::80"
        )

    def test_single_zero_group_not_compressed(self):
        assert format_address(seq_from_hex("20010db8000868d3b7918741c1270a75")) == (
            "2001:db8:8:68d3:b791:8741:c127:a75"
        )

    def test_leftmost_run_wins_ties(self):
        # zero runs of equal length at groups 1-2 and 5-6
        assert format_address(seq_from_hex("00010000000000030004000000000008")) == (
            "1::3:4:0:0:8"
        )

    def test_longest_run_wins(self):
        assert format_address(seq_from_hex("00010000000000000004000000000008")) == (
            "1::4:0:0:8"
        )

    def test_lowercase_hex(self):
        text = format_address(seq_from_hex("fdffabcd" + "0" * 24))
        assert text == text.lower()

    @given(nybbles32)
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, nybs):
        seq = NybbleSeq(nybs)
        assert parse_address(format_address(seq)) == seq

    def test_str_matches_format(self):
        seq = seq_from_hex("20010db8000000000000000000000080")
        assert str(seq) == format_address(seq)


class TestNybbleSeq:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            NybbleSeq(tuple(range(16)))

    def test_value_range_enforced(self):
        with pytest.raises(ValueError):
            NybbleSeq(tuple([16] + [0] * 31))

    def test_iid_is_low_half(self):
        seq = seq_from_hex("20010db8000000000123456789abcdef")
        assert seq.iid == tuple(int(c, 16) for c in "0123456789abcdef")

    def test_hex_round_trip(self):
        s = "20010db809000000021e67fffe314cdf"
        assert seq_to_hex(seq_from_hex(s)) == s


class TestParsePrefix:
    def test_basic_cidr(self):
        pfx = parse_prefix("2001:db8::/32")
        assert pfx.nybbles == (2, 0, 0, 1, 0, 0xD, 0xB, 8)
        assert len(pfx) == 8

    def test_single_nybble(self):
        assert parse_prefix("::/4").nybbles == (0,)

    def test_unaligned_length_rounds_down(self, caplog):
        with caplog.at_level(logging.WARNING, logger="sixgan.addr"):
            pfx = parse_prefix("2001:db8::/30")
        assert pfx.nybbles == (2, 0, 0, 1, 0, 0xD, 0xB)
        assert any("rounded down" in r.message for r in caplog.records)

    def test_length_bounds(self):
        with pytest.raises(AddressParseError):
            parse_prefix("2001:db8::/0")
        with pytest.raises(AddressParseError):
            parse_prefix("2001:db8::/129")

    def test_missing_length_rejected(self):
        with pytest.raises(AddressParseError):
            parse_prefix("2001:db8::")

    def test_prefix_str_is_cidr(self):
        assert str(parse_prefix("2001:db8::/32")) == "2001:db8::/32"


class TestAliasTrie:
    def test_insert_then_extension_matches(self):
        trie = AliasTrie([parse_prefix("2001:db8::/32")])
        assert trie.match(parse_address("2001:db8::20:1a")) == 8

    def test_non_extension_no_match(self):
        trie = AliasTrie([parse_prefix("2001:db8::/32")])
        assert trie.match(parse_address("2001:db9::1")) is None

    def test_empty_trie_never_matches(self):
        trie = AliasTrie()
        assert trie.match(parse_address("::")) is None
        assert len(trie) == 0

    def test_longest_nested_prefix_wins(self):
        trie = AliasTrie(
            [parse_prefix("2001:db8::/32"), parse_prefix("2001:db8:ff00::/40")]
        )
        assert trie.match(parse_address("2001:db8:ff12::1")) == 10
        assert trie.match(parse_address("2001:db8:aa12::1")) == 8

    def test_matched_length_equals_terminal_depth(self):
        trie = AliasTrie([parse_prefix("fe80::/12")])
        assert trie.match(parse_address("fe89::1")) == 3

    def test_prefixes_round_trip(self):
        # every prefix the matcher is built from comes back as its own match
        inserted = [parse_prefix("2001:db8::/32"), parse_prefix("fe80::/12")]
        trie = AliasTrie(inserted)
        for p in inserted:
            padded = NybbleSeq(p.nybbles + (0,) * (32 - len(p)))
            assert trie.match(padded) == len(p)
        assert len(trie) == 2

    def test_duplicate_insert_counted_once(self):
        trie = AliasTrie([parse_prefix("2001:db8::/32"), parse_prefix("2001:db8::/32")])
        assert len(trie) == 1

    @given(
        st.lists(prefix_nybbles, min_size=0, max_size=8),
        st.lists(nybbles32, min_size=1, max_size=16),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, prefixes, seqs):
        trie = AliasTrie([NybblePrefix(tuple(p)) for p in prefixes])
        wants = []
        for nybs in seqs:
            seq = NybbleSeq(nybs)
            want = max(
                (len(p) for p in prefixes if tuple(nybs[: len(p)]) == tuple(p)),
                default=None,
            )
            assert trie.match(seq) == want
            wants.append(want or 0)
        lengths = trie.match_batch(np.array(seqs, dtype=np.int64))
        assert lengths.dtype == np.int64
        assert lengths.tolist() == wants

    def test_match_monotone_in_shared_prefix(self):
        trie = AliasTrie([parse_prefix("2001:db8::/32")])
        base = parse_address("2001:db8::1")
        matched = trie.match(base)
        assert matched == 8
        other = NybbleSeq(base.nybbles[:matched] + (0xF,) * (32 - matched))
        assert trie.match(other) == matched


class TestFiles:
    def test_seed_file_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("# header\n\n2001:db8::80\n  ::1  \n# tail\n")
        seeds = load_seed_file(str(path))
        assert [str(s) for s in seeds] == ["2001:db8::80", "::1"]

    def test_alias_file_parses_cidrs(self, tmp_path):
        path = tmp_path / "alias.txt"
        path.write_text("# known aliased\n2001:db8::/32\nfe80::/12\n")
        prefixes = load_alias_file(str(path))
        assert [str(p) for p in prefixes] == ["2001:db8::/32", "fe80::/12"]

    def test_write_then_load_round_trip(self, tmp_path):
        path = tmp_path / "out.txt"
        seqs = [parse_address("2001:db8::80"), parse_address("::1")]
        write_address_file(str(path), seqs, header="two addresses")
        text = path.read_text()
        assert text.startswith("# two addresses\n")
        assert load_seed_file(str(path)) == seqs

    def test_seed_file_parse_error_propagates(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2001:zz8::1\n")
        with pytest.raises(AddressParseError):
            load_seed_file(str(path))
