"""Line files: one comment rule and error form for every reader, and what
each writer writes reads back to the same records.  JSON files: one reader
whose errors name the file, one writer, and one message form for a value
of the wrong kind."""

import dataclasses
import json

import numpy as np
import pytest

from sixgan.addr import (
    AddressParseError,
    load_alias_file,
    load_seed_file,
    parse_address,
    parse_prefix,
    token_matrix,
    token_rows,
    write_address_file,
)
from sixgan.classify import classify_rfc_corpus, read_labels_file, write_labels_file
from sixgan.fileio import (
    INTEGER,
    NUMBER,
    NUMBERS,
    OBJECTS,
    STRINGS,
    read_json,
    read_lines,
    write_json,
    write_lines,
)

READERS = [
    pytest.param(load_seed_file, len, "2001:db8::1", "2001:zz8::1", AddressParseError,
                 "'2001:zz8::1': invalid character 'z' at position 5", id="seeds"),
    pytest.param(load_alias_file, len, "2001:db8::/32", "2001:db8::/129", AddressParseError,
                 "'2001:db8::/129': prefix length 129 out of range [1, 128] at position 11",
                 id="alias"),
    pytest.param(read_labels_file, lambda corpus: len(corpus.seeds), "2001:db8::1\trfc\t0\tlow",
                 "2001:db8::2\trfc\t0", ValueError, "expected 4 tab-separated fields",
                 id="labels"),
]


@pytest.mark.parametrize("read, size, good, bad, error, why", READERS)
def test_readers_share_comment_rule_and_error_form(tmp_path, read, size, good, bad, error, why):
    clean = tmp_path / "clean"
    clean.write_text(f"{good}\n{good}\n")
    commented = tmp_path / "commented"
    # comment-only and blank lines are skipped; an inline '#' starts a
    # comment, whatever follows it
    commented.write_text(f"# header\n\n   \n{good}\n\t{good}  # inline\t{bad}\n#{bad}\n")
    assert size(read(str(commented))) == 2
    assert read(str(commented)) == read(str(clean))

    broken = tmp_path / "broken"
    broken.write_text(f"# header\n\n{good}\n{bad}  # inline\n{good}\n")
    with pytest.raises(ValueError) as err:
        read(str(broken))
    assert type(err.value) is error
    assert str(err.value) == f"{broken}:4: {why}"


SEQS = [parse_address(text) for text in ("2001:db8::80", "2001:db8::1:2", "::1", "::")]
WRITERS = [
    pytest.param(lambda path, seqs: write_address_file(path, seqs, header="addresses"),
                 load_seed_file, SEQS, id="addresses"),
    # as synth writes aliased_prefixes.txt
    pytest.param(lambda path, prefixes: write_lines(path, map(str, prefixes), "aliased prefixes"),
                 load_alias_file, [parse_prefix(p) for p in ("2001:db8:ff::/48", "fe80::/12")],
                 id="prefixes"),
    pytest.param(write_labels_file, read_labels_file, classify_rfc_corpus(SEQS), id="labels"),
    # as discriminate writes scores.tsv: a header naming the columns
    pytest.param(lambda path, rows: write_lines(path, rows, "address\tpredicted\tclass_0"),
                 lambda path: read_lines(path, str), ["2001:db8::80\t0\t0.900000", "::1\t0\t1.0"],
                 id="scores"),
]


@pytest.mark.parametrize("write, read, records", WRITERS)
def test_written_records_read_back(tmp_path, write, read, records):
    path = tmp_path / "lines"
    write(str(path), records)
    assert read(str(path)) == records
    # a note after '#' on a record's line leaves the record as it was
    lines = path.read_text().splitlines()
    lines[-1] += "  # checked by hand"
    path.write_text("\n".join(lines) + "\n")
    assert read(str(path)) == records


def test_token_matrix_rows_are_the_nybbles():
    seqs = [parse_address("2001:db8::80"), parse_address("::1")]
    tokens = token_matrix(seqs)
    assert tokens.dtype == np.uint8 and tokens.shape == (2, 32)
    assert tokens.tolist() == [list(s.nybbles) for s in seqs]
    assert not tokens.flags.writeable
    # and back, from tokens of any integer dtype
    assert token_rows(tokens) == token_rows(tokens.astype(np.int64)) == [s.nybbles for s in seqs]


@pytest.mark.parametrize("body, why", [
    (b"{", "not valid JSON: Expecting property name enclosed in double quotes"),
    (b"[1, 2] 3", "not valid JSON: Extra data"),
    (b'"\xff"', "not valid JSON: 'utf-8' codec can't decode byte 0xff"),
])
def test_read_json_errors_name_the_file(tmp_path, body, why):
    path = tmp_path / "doc.json"
    path.write_bytes(body)
    with pytest.raises(ValueError) as err:
        read_json(str(path))
    assert str(err.value).startswith(f"{path}: {why}")
    missing = tmp_path / "missing.json"
    with pytest.raises(ValueError, match=f"^{missing}: cannot read: No such file or directory$"):
        read_json(str(missing))


@dataclasses.dataclass
class _Pair:
    b: float
    a: int | None


def test_write_json_layout_and_dataclasses(tmp_path):
    path = tmp_path / "doc.json"
    write_json(str(path), {"z": [1, 2], "pair": _Pair(b=0.5, a=None)})
    assert path.read_text() == json.dumps(
        {"pair": {"a": None, "b": 0.5}, "z": [1, 2]}, indent=2, sort_keys=True) + "\n"
    assert read_json(str(path)) == {"pair": {"a": None, "b": 0.5}, "z": [1, 2]}


@pytest.mark.parametrize("kind, good, bad, message", [
    (INTEGER, 3, True, "must be an integer, got true"),
    (INTEGER, -3, 2.0, "must be an integer, got 2.0"),
    (NUMBER, 2, float("nan"), "must be a finite number, got NaN"),
    (NUMBER, 2.5, float("-inf"), "must be a finite number, got -Infinity"),
    (NUMBER, 1.7976931348623157e308, 10 ** 400, f"must be a finite number, got {10 ** 400}"),
    (NUMBERS, [], [1, float("inf")], "must be a list of finite numbers, got [1, Infinity]"),
    (STRINGS, ["a"], "a", 'must be a list of strings, got "a"'),
    (OBJECTS, [{}], [{}, []], "must be a list of objects, got [{}, []]"),
])
def test_kinds_share_one_message_form(kind, good, bad, message):
    assert kind.check(good, "key x") == good
    with pytest.raises(ValueError) as err:
        kind.check(bad, "key x")
    assert str(err.value) == f"key x {message}"
