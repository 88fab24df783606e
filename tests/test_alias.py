"""Aliased-prefix matching and candidate filtering."""

from sixgan.addr import AliasTrie, load_alias_file, parse_address, parse_prefix
from sixgan.alias import filter_aliased


def det(*prefixes):
    return AliasTrie([parse_prefix(p) for p in prefixes])


class TestDetector:
    """A match is what makes training charge the alias penalty lambda
    (RewardConfig.lam); an address with no match scores zero."""

    def test_empty_detector_scores_zero(self):
        empty = AliasTrie()
        assert empty.match(parse_address("2001:db8::1")) is None

    def test_match_scores_lambda(self):
        d = det("2001:db8:f::/48")
        assert d.match(parse_address("2001:db8:f::1234")) == 12
        assert d.match(parse_address("2001:db8:e::1234")) is None

    def test_near_miss_scores_zero(self):
        # shares all but the last prefix nybble
        d = det("2001:db8:aa00::/56")
        assert d.match(parse_address("2001:db8:aa01::1")) is None
        assert d.match(parse_address("2001:db8:aa00::1")) == 14

    def test_from_file(self, tmp_path):
        path = tmp_path / "aliased.txt"
        path.write_text("# aliased regions\n2001:db8:f::/48\n\n2001:db8:e::/48\n")
        d = AliasTrie(load_alias_file(str(path)))
        assert len(d) == 2
        assert d.match(parse_address("2001:db8:e::9")) == 12


class TestFilter:
    def test_partition_and_order(self):
        d = det("2001:db8:f::/48")
        inside = [parse_address("2001:db8:f::1"), parse_address("2001:db8:f::2")]
        outside = [parse_address("2001:db8:a::1"), parse_address("2001:db8:b::1")]
        mixed = [outside[0], inside[0], outside[1], inside[1]]
        kept, removed = filter_aliased(d, mixed)
        assert kept == outside
        assert removed == inside

    def test_idempotent(self):
        d = det("2001:db8:f::/48")
        addrs = [parse_address("2001:db8:f::1"), parse_address("2001:db8:a::1")]
        kept, _ = filter_aliased(d, addrs)
        again, removed = filter_aliased(d, kept)
        assert again == kept
        assert removed == []

    def test_empty_input(self):
        kept, removed = filter_aliased(det("2001:db8::/32"), [])
        assert kept == [] and removed == []

    def test_empty_detector_keeps_everything(self):
        addrs = [parse_address("2001:db8:f::1"), parse_address("::1")]
        kept, removed = filter_aliased(AliasTrie(), addrs)
        assert kept == addrs and removed == []
