"""Address codec and aliased-prefix matcher behavior."""

import ipaddress
import logging
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import charwise_parse_address, runscan_format_address, seq_from_hex, seq_to_hex

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


# Malformed text and the full message the parser gives, position included.
# Positions count from the start of the stripped text.
MALFORMED = [
    ("", "'': empty address at position 0"),
    ("   ", "'   ': empty address at position 0"),
    ("1::2::3", "'1::2::3': more than one '::' at position 4"),
    ("1:2:3:4::5:6:7:8", "'1:2:3:4::5:6:7:8': '::' present but no groups elided at position 7"),
    ("1:2:3:4:5:6:7:8:9", "'1:2:3:4:5:6:7:8:9': expected 8 groups, got 9 at position 16"),
    ("1:2:3", "'1:2:3': expected 8 groups, got 3 at position 4"),
    ("1:2:3:4:5:6:7:1.2.3.4", "'1:2:3:4:5:6:7:1.2.3.4': expected 8 groups, got 9 at position 20"),
    ("12z45::", "'12z45::': group '12z45' longer than 4 digits at position 4"),
    ("12345:1::", "'12345:1::': group '12345' longer than 4 digits at position 4"),
    ("2001:dz8::1", "'2001:dz8::1': invalid character 'z' at position 6"),
    ("  2001:db8::g1 ", "'  2001:db8::g1 ': invalid character 'g' at position 10"),
    (":1:2:3:4:5:6:7", "':1:2:3:4:5:6:7': empty group at position 0"),
    ("1:2:3:4:5:6:7:", "'1:2:3:4:5:6:7:': empty group at position 14"),
    (":::", "':::': empty group at position 2"),
    ("::1.2.3", "'::1.2.3': embedded IPv4 needs 4 octets, got 3 at position 2"),
    ("::1.2.3.4.5", "'::1.2.3.4.5': embedded IPv4 needs 4 octets, got 5 at position 2"),
    ("::1.2.256.4", "'::1.2.256.4': IPv4 octet 256 exceeds 255 at position 6"),
    ("::1..2.3", "'::1..2.3': invalid IPv4 octet '' at position 4"),
    ("::1.2.3.4:5", "'::1.2.3.4:5': embedded IPv4 must be the final group at position 2"),
    ("2001:db8::\u0661", "'2001:db8::\u0661': invalid character '\u0661' at position 10"),
    ("\u0661:2:3:4:5:6:7:8", "'\u0661:2:3:4:5:6:7:8': invalid character '\u0661' at position 0"),
]


def parse_error(parse, text: str) -> str:
    with pytest.raises(AddressParseError) as err:
        parse(text)
    return str(err.value)


class TestErrorText:
    @pytest.mark.parametrize("text, message", MALFORMED)
    def test_message_pinned(self, text, message):
        assert parse_error(parse_address, text) == message
        assert parse_error(charwise_parse_address, text) == message

    def test_seed_file_names_path_and_line(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("# header\n2001:db8::1\n\n2001:dz8::1  # bad\n")
        message = parse_error(load_seed_file, str(path))
        assert message == f"{path}:4: " + parse_error(charwise_parse_address, "2001:dz8::1")

    def test_alias_file_names_path_and_line(self, tmp_path):
        path = tmp_path / "alias.txt"
        path.write_text("2001:db8::/32\n1:2:3/48\n")
        message = parse_error(load_alias_file, str(path))
        assert message == f"{path}:2: " + parse_error(charwise_parse_address, "1:2:3")


class TestDottedQuadPlacement:
    """A dotted quad may only end an address (RFC 4291 section 2.2)."""

    @pytest.mark.parametrize("text, pos", [("1.2.3.4::", 0), ("1:2:1.2.3.4::", 4)])
    def test_quad_before_compression_rejected(self, text, pos):
        with pytest.raises(ValueError):
            ipaddress.IPv6Address(text)
        want = f"{text!r}: embedded IPv4 must be the final group at position {pos}"
        assert parse_error(parse_address, text) == want
        assert parse_error(parse_prefix, text + "/32") == want

    @pytest.mark.parametrize(
        "text", ["::1.2.3.4", "1::1.2.3.4", "1:2:3:4:5:6:1.2.3.4", "::ffff:0.0.0.0"]
    )
    def test_quad_that_ends_the_address(self, text):
        want = NybbleSeq(tuple(int(c, 16) for c in ipaddress.IPv6Address(text).packed.hex()))
        assert parse_address(text) == charwise_parse_address(text) == want

    @pytest.mark.parametrize("octet", ["\u0661", "\u00b2"])
    def test_octets_take_ascii_digits_only(self, octet):
        text = f"::1.2.3.{octet}"
        with pytest.raises(ValueError):
            ipaddress.IPv6Address(text)
        want = f"{text!r}: invalid IPv4 octet {octet!r} at position 8"
        assert parse_error(parse_address, text) == want


def seq_with_zero_groups(mask: int, rng: random.Random) -> NybbleSeq:
    """Group g is zero where bit g of mask is set, else a nonzero value of random width."""
    nybs: list[int] = []
    for g in range(8):
        value = 0 if mask >> g & 1 else rng.randrange(1, 16 ** rng.randint(1, 4))
        nybs += [value >> 12, value >> 8 & 15, value >> 4 & 15, value & 15]
    return NybbleSeq(tuple(nybs))


def mixed_padding(text: str, rng: random.Random) -> str:
    """text with each group left-padded with zeros to a random width of at most 4."""
    def pad(group: str) -> str:
        return group.zfill(rng.randint(len(group), 4)) if group else group

    return "::".join(":".join(pad(g) for g in half.split(":")) for half in text.split("::"))


def text_forms(seq: NybbleSeq, rng: random.Random) -> list[str]:
    compressed = format_address(seq)
    return [
        compressed,
        ipaddress.IPv6Address(compressed).exploded,
        compressed.upper(),
        mixed_padding(compressed, rng),
    ]


class TestCodecOracle:
    """The table-driven codec against the earlier character-wise one."""

    def test_every_zero_group_mask(self):
        rng = random.Random(0)
        for mask in range(256):
            for _ in range(4):
                seq = seq_with_zero_groups(mask, rng)
                text = format_address(seq)
                assert text == runscan_format_address(seq), mask
                assert text == ipaddress.IPv6Address(text).compressed, mask
                for form in text_forms(seq, rng):
                    assert parse_address(form) == charwise_parse_address(form) == seq, form

    @given(nybbles32, st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_drawn_addresses(self, nybs, rng):
        seq = NybbleSeq(nybs)
        assert format_address(seq) == runscan_format_address(seq)
        for form in text_forms(seq, rng):
            assert parse_address(form) == charwise_parse_address(form) == seq, form

    @given(nybbles32, st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=300, deadline=None)
    def test_dotted_quad_forms(self, nybs, start, length):
        end = min(6, start + length)
        nybs = nybs[: 4 * start] + (0,) * (4 * (end - start)) + nybs[4 * end:]
        seq = NybbleSeq(nybs)
        groups = [f"{int(seq_to_hex(seq)[4 * g:4 * g + 4], 16):x}" for g in range(6)]
        quad = ".".join(str(16 * hi + lo) for hi, lo in zip(nybs[24::2], nybs[25::2]))
        if end > start:
            text = ":".join(groups[:start]) + "::" + "".join(g + ":" for g in groups[end:]) + quad
        else:
            text = ":".join(groups) + ":" + quad
        assert parse_address(text) == charwise_parse_address(text) == seq, text

    @given(
        st.tuples(
            st.sampled_from(["", "::", "1::", "::ffff:", "1:2:3:4:5:6:", "1:2:3:4:5:6:7:"]),
            st.text(alphabet="0123456789abcdefABCDEFgz:. \t\u0661\uff11", max_size=40),
        ).map("".join)
    )
    @settings(max_examples=1000, deadline=None)
    def test_arbitrary_text(self, text):
        def outcome(parse):
            try:
                return parse(text)
            except AddressParseError as exc:
                return str(exc)

        head, dc, _ = text.strip().partition("::")
        got = outcome(parse_address)
        if dc and "." in head:
            # a dotted quad before '::' is refused; the earlier parser could take it
            assert isinstance(got, str)
        elif "." in text and not text.isascii():
            # octets take ASCII digits only; the earlier parser took any digit
            want = outcome(charwise_parse_address)
            assert got == want or (not isinstance(want, str) and isinstance(got, str)
                                   and "invalid IPv4 octet" in got), (got, want)
        else:
            assert got == outcome(charwise_parse_address)


class TestFormatAddress:
    def test_all_zeros_compresses_fully(self):
        assert format_address(seq_from_hex("0" * 32)) == "::"

    def test_trailing_zero_run(self):
        assert format_address(seq_from_hex("20010db8000000000000000000000080")) == (
            "2001:db8::80"
        )

    def test_single_zero_group_not_compressed(self):
        assert format_address(seq_from_hex("20010db8000000010001000100010001")) == (
            "2001:db8:0:1:1:1:1:1"
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

    @pytest.mark.parametrize("bad", [1.5, -1, 16, "1", None, 1.0, np.float64(2.0)])
    def test_non_nybble_value_named(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}") + "$"):
            NybbleSeq((0,) * 31 + (bad,))
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}") + "$"):
            NybblePrefix((3, bad))

    # bytes(32) would be 32 zero bytes; 1.5, 1.0 and 16 are refused above
    @pytest.mark.parametrize("values", [32, (0,) * 31, (0,) * 33],
                             ids=["bare-int", "31-values", "33-values"])
    def test_count_and_bare_int_refused(self, values):
        with pytest.raises(ValueError):
            NybbleSeq(values)

    @pytest.mark.parametrize("values", [8, (), (0,) * 33], ids=["bare-int", "0-values", "33-values"])
    def test_prefix_count_and_bare_int_refused(self, values):
        with pytest.raises(ValueError):
            NybblePrefix(values)

    def test_nybbles_are_bytes_whatever_the_sequence(self):
        # an int64 array is read value by value, not as its raw memory
        want = bytes(range(16)) * 2
        for values in (tuple(want), list(want), want, np.frombuffer(want, np.uint8),
                       np.array(list(want), dtype=np.int64)):
            seq = NybbleSeq(values)
            assert type(seq.nybbles) is bytes and seq.nybbles == want
            prefix = NybblePrefix(values[:3])
            assert type(prefix.nybbles) is bytes and prefix.nybbles == want[:3]

    def test_numpy_integers_accepted(self):
        values = tuple(np.arange(32, dtype=np.int64) % 16)
        assert NybbleSeq(values) == seq_from_hex("0123456789abcdef" * 2)
        assert len(NybblePrefix((np.uint8(3), np.int32(15)))) == 2

    def test_iid_is_low_half(self):
        seq = seq_from_hex("20010db8000000000123456789abcdef")
        assert seq.iid == bytes(int(c, 16) for c in "0123456789abcdef")

    def test_hex_round_trip(self):
        s = "20010db809000000021e67fffe314cdf"
        assert seq_to_hex(seq_from_hex(s)) == s


class TestParsePrefix:
    def test_basic_cidr(self):
        pfx = parse_prefix("2001:db8::/32")
        assert pfx.nybbles == bytes((2, 0, 0, 1, 0, 0xD, 0xB, 8))
        assert len(pfx) == 8

    def test_single_nybble(self):
        assert parse_prefix("::/4").nybbles == bytes((0,))

    def test_unaligned_length_rounds_down(self, caplog):
        with caplog.at_level(logging.WARNING, logger="sixgan.addr"):
            pfx = parse_prefix("2001:db8::/30")
        assert pfx.nybbles == bytes((2, 0, 0, 1, 0, 0xD, 0xB))
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
            padded = NybbleSeq(p.nybbles + bytes(32 - len(p)))
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
        for dtype in (np.uint8, np.int64):
            lengths = trie.match_batch(np.array(seqs, dtype=dtype))
            assert lengths.dtype == np.int64
            assert lengths.tolist() == wants

    def test_match_monotone_in_shared_prefix(self):
        trie = AliasTrie([parse_prefix("2001:db8::/32")])
        base = parse_address("2001:db8::1")
        matched = trie.match(base)
        assert matched == 8
        other = NybbleSeq(base.nybbles[:matched] + bytes((0xF,) * (32 - matched)))
        assert trie.match(other) == matched


class TestFiles:
    def test_seed_file_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("# header\n\n2001:db8::80\n  ::1  \n# tail\n")
        seeds = load_seed_file(str(path))
        assert [str(s) for s in seeds] == ["2001:db8::80", "::1"]

    def test_parsed_addresses_hold_under_160_bytes_each(self, tmp_path):
        # an address is one 32-byte string in a slotted object, about 114 B
        # once parsed; a tuple of 32 ints made it about 345 B
        rows = np.random.default_rng(0).integers(0, 16, size=(20_000, 32), dtype=np.uint8)
        path = tmp_path / "addresses.txt"
        write_address_file(str(path), [NybbleSeq(row.tobytes()) for row in rows])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            seqs = load_seed_file(str(path))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(seqs) == 20_000
        assert held / len(seqs) < 160, f"{held / len(seqs):.0f} B per address"

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

    def test_write_is_one_line_per_address(self, tmp_path):
        path = tmp_path / "out.txt"
        write_address_file(str(path), [seq_from_hex("0" * 32), seq_from_hex("1" * 32)])
        assert path.read_text() == "::\n1111:1111:1111:1111:1111:1111:1111:1111\n"
        write_address_file(str(path), [], header="none")
        assert path.read_text() == "# none\n"

    def test_write_failing_part_way_keeps_previous_file(self, tmp_path, disk_full_on):
        path = tmp_path / "out.txt"
        write_address_file(str(path), [parse_address("2001:db8::80")], header="before")
        before = path.read_bytes()
        disk_full_on("out.txt")
        with pytest.raises(OSError, match="disk full"):
            write_address_file(str(path), [parse_address("::1")] * 50, header="after")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_seed_file_parse_error_propagates(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2001:zz8::1\n")
        with pytest.raises(AddressParseError):
            load_seed_file(str(path))
