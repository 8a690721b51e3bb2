"""The tuple-building parser against the record-at-a-time reference parser.

Both see the same lines; nodes, events and every tally must agree. Fixed
inputs cover each rejection rule once, seeded generators cover valid corpora,
and hypothesis fuzzes arbitrary text, arbitrary bytes and mutated records.
Every case is also written to a file and read back through parse_file, with
blocks of 1, 64 and 4096 bytes so that block ends fall inside lines, against
the reference over that file's lines: canonical lines take the block
patterns there, and the fixed canonical cases say which path each line takes.
"""

import json
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from provprune import ingest
from provprune.ingest import parse_file, parse_stream

from oracles import (
    edge_graph_records,
    parse_records,
    random_graph_records,
    record_lines,
    reference_parse_stream,
    total_event_records,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given


BLOCK_SIZES = (1, 64, 4096)


def columns(parsed):
    """Everything a parse holds, numbering and text codes included."""
    nodes, events, stats = parsed
    return ([nodes.ids, nodes.texts] + [getattr(nodes, name).tolist() for name
                                        in ("kind", "text", "laddr", "lport",
                                            "first_seen")]
            + [events.ids] + [getattr(events, name).tolist() for name
                              in ("src", "dst", "syscall", "ts")]
            + [stats])


def assert_same_file_parse(data, synthesize_dangling=False):
    """parse_file over data, at each block size, equals the reference over
    the file's lines (an undecodable one is a malformed line) and holds
    the columns that parsing those lines one at a time gives. Returns the
    parse at each block size."""
    raw = data.split(b"\n")
    decoded = []
    for line in raw:
        try:
            decoded.append(line.decode())
        except UnicodeDecodeError:
            pass
    want_nodes, want_events, want = reference_parse_stream(
        decoded, synthesize_dangling=synthesize_dangling)
    want.malformed_lines += len(raw) - len(decoded)
    one_at_a_time = columns(parse_stream(
        raw, synthesize_dangling=synthesize_dangling))
    parsed = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_bytes(data)
        for size in BLOCK_SIZES:
            with mock.patch.object(ingest, "BLOCK_BYTES", size):
                got = parse_file(path, synthesize_dangling=synthesize_dangling)
            assert parse_records(got) == (want_nodes, want_events, want), size
            assert columns(got) == one_at_a_time, size
            parsed.append(got)
    return parsed


def file_bytes(lines, end="\n"):
    """lines as a file; a lone surrogate becomes bytes that are not UTF-8."""
    return "\n".join(lines).encode("utf-8", "surrogatepass") + end.encode()


def assert_same_parse(lines, synthesize_dangling=False):
    got = parse_stream(lines, synthesize_dangling=synthesize_dangling)
    want = reference_parse_stream(lines,
                                  synthesize_dangling=synthesize_dangling)
    assert parse_records(got) == want
    assert_same_file_parse(file_bytes(lines), synthesize_dangling)
    return got


def tally(stats):
    """Every non-blank line lands in exactly one of these counters."""
    return (stats.accepted_nodes + stats.duplicate_nodes
            + stats.malformed_nodes + total_event_records(stats)
            + stats.malformed_lines)


def event(syscall="read", subject="p1", target="f1", ts=5):
    return {"kind": "event", "syscall": syscall, "subject": subject,
            "object": target, "ts": ts}


PROC = {"kind": "process", "id": "p1", "cmdline": "make"}
FILE = {"kind": "file", "id": "f1", "path": "/etc/hosts"}
NET = {"kind": "netflow", "id": "n1", "raddr": "1.2.3.4", "rport": 443,
       "laddr": "10.0.0.5", "lport": 51000}

# (line, counter it lands in). Declarations of p1, f1 and n1 come first.
MALFORMED = [
    (json.dumps(event(ts=True)), "malformed_events"),
    (json.dumps(event(ts=1.5)), "malformed_events"),
    (json.dumps(event(ts=None)), "malformed_events"),
    (json.dumps(event(ts=2 ** 63 - 1)), "accepted_events"),
    (json.dumps(event(ts=-2 ** 63)), "accepted_events"),
    (json.dumps(event(ts=2 ** 63)), "malformed_events"),
    (json.dumps(event(ts=-2 ** 63 - 1)), "malformed_events"),
    (json.dumps(dict(FILE, id="f9", ts=2 ** 63 - 1)), "accepted_nodes"),
    (json.dumps(dict(FILE, id="f10", ts=-2 ** 63)), "accepted_nodes"),
    (json.dumps(dict(FILE, id="f11", ts=2 ** 63)), "malformed_nodes"),
    (json.dumps(dict(PROC, id="p3", ts=-2 ** 63 - 1)), "malformed_nodes"),
    (json.dumps(dict(FILE, id="f2", ts=False)), "malformed_nodes"),
    (json.dumps(dict(FILE, id="f3", ts=2.0)), "malformed_nodes"),
    (json.dumps(dict(FILE, id="f4", ts=None)), "accepted_nodes"),
    (json.dumps(dict(NET, id="n2", rport=65536)), "malformed_nodes"),
    (json.dumps(dict(NET, id="n3", lport=-1)), "malformed_nodes"),
    (json.dumps(dict(NET, id="n4", rport=True)), "malformed_nodes"),
    (json.dumps(dict(NET, id="n5", rport=0, lport=65535)), "accepted_nodes"),
    (json.dumps(dict(PROC, id="")), "malformed_nodes"),
    (json.dumps(dict(PROC, id="p2", cmdline=None)), "malformed_nodes"),
    (json.dumps(event(subject="")), "malformed_events"),
    (json.dumps(event(target="")), "malformed_events"),
    (json.dumps(event(syscall=7)), "malformed_events"),
    ("[1, 2]", "malformed_lines"),
    ('"process"', "malformed_lines"),
    ("17", "malformed_lines"),
    ("null", "malformed_lines"),
    (json.dumps({"kind": "registry", "id": "r1"}), "malformed_lines"),
    (json.dumps({"id": "r2"}), "malformed_lines"),
    (json.dumps({"kind": ["file"], "id": "r3"}), "malformed_lines"),
    (json.dumps({"kind": {"file": 1}, "id": "r4"}), "malformed_lines"),
    ("\ufeff" + json.dumps(dict(FILE, id="f5")), "malformed_lines"),
    (json.dumps(dict(FILE, id="f6")) + " x", "malformed_lines"),
    (json.dumps(dict(FILE, id="f7")) * 2, "malformed_lines"),
    ('{"kind": "file", "id": "f8", "ts": ' + "9" * 5000 + "}",
     "malformed_lines"),
    ("[" * 100_000, "malformed_lines"),
    ("{not json", "malformed_lines"),
    (json.dumps(dict(PROC, cmdline="again")), "duplicate_nodes"),
    (json.dumps(dict(FILE, path="/again")), "duplicate_nodes"),
    (json.dumps(event(target="ghost")), "dangling_events"),
    (json.dumps(event(subject="ghost-p", syscall="sendto", target="n1")),
     "dangling_events"),
    (json.dumps(event(syscall="clone", target="f1")), "malformed_events"),
    (json.dumps(event(syscall="sendto", target="f1")), "malformed_events"),
    (json.dumps(event(subject="f1", target="f1")), "malformed_events"),
    (json.dumps(event(syscall="mmap")), "dropped_events"),
    (json.dumps(event()), "accepted_events"),
    ("   ", None),
]


def malformed_corpus():
    return [json.dumps(r) for r in (PROC, FILE, NET)] + [
        line for line, _ in MALFORMED]


def test_fixed_malformed_lines_match_reference():
    _, _, stats = assert_same_parse(malformed_corpus())
    expected = {"accepted_nodes": 3, "accepted_events": 0}
    for _, counter in MALFORMED:
        if counter is not None:
            expected[counter] = expected.get(counter, 0) + 1
    counts = stats.to_dict()
    assert {k: counts[k] for k in expected} == expected
    assert stats.synthesized_nodes == 0
    assert tally(stats) == len(MALFORMED) + 2


def test_fixed_malformed_lines_with_placeholders_match_reference():
    nodes, events, stats = assert_same_parse(malformed_corpus(),
                                             synthesize_dangling=True)
    assert stats.dangling_events == 0
    assert stats.synthesized_nodes == 2
    assert {"ghost", "ghost-p"} <= {n.id for n in nodes}
    # The accepted events, plus the two whose endpoints became placeholders.
    accepted = sum(counter == "accepted_events" for _, counter in MALFORMED)
    assert len(events) == stats.accepted_events == accepted + 2


HIGH, LOW = "\ud800", "\udfff"
# str lines holding lone surrogates unescaped, after the declarations of p1,
# f1 and n1: (line, counter it lands in). A high surrogate directly followed
# by a low one in an id or text makes its record malformed, whether either
# half is written raw or escaped; an escaped pair is one character.
SURROGATES = [
    (json.dumps(dict(FILE, id="f2" + HIGH + LOW), ensure_ascii=False),
     "malformed_nodes"),
    (json.dumps(dict(PROC, id="p2", cmdline="a" + HIGH + LOW + "b"),
                ensure_ascii=False), "malformed_nodes"),
    ('{"kind": "file", "id": "f3", "path": "' + HIGH + '\\udfff"}',
     "malformed_nodes"),
    ('{"kind": "file", "id": "f4", "path": "\\ud800' + LOW + '"}',
     "malformed_nodes"),
    (json.dumps(dict(NET, id="n2", raddr=HIGH + LOW), ensure_ascii=False),
     "malformed_nodes"),
    (json.dumps(dict(NET, id="n3", laddr=HIGH + LOW), ensure_ascii=False),
     "malformed_nodes"),
    (json.dumps(event(subject="p1" + HIGH + LOW), ensure_ascii=False),
     "malformed_events"),
    (json.dumps(event(target="f1" + HIGH + LOW), ensure_ascii=False),
     "malformed_events"),
    (json.dumps(dict(FILE, id="f5" + LOW + HIGH), ensure_ascii=False),
     "accepted_nodes"),
    (json.dumps(dict(FILE, id="f6" + HIGH, path=HIGH + "x" + LOW),
                ensure_ascii=False), "accepted_nodes"),
    (json.dumps(dict(FILE, id="f7" + HIGH + LOW)), "accepted_nodes"),
    (json.dumps(event(target="f6" + HIGH), ensure_ascii=False),
     "accepted_events"),
]


@pytest.mark.parametrize("synthesize", [False, True])
def test_adjacent_lone_surrogates_are_malformed(synthesize):
    lines = [json.dumps(r) for r in (PROC, FILE, NET)] + [
        line for line, _ in SURROGATES]
    nodes, _, stats = assert_same_parse(lines, synthesize)
    expected = {"accepted_nodes": 3, "synthesized_nodes": 0}
    for _, counter in SURROGATES:
        expected[counter] = expected.get(counter, 0) + 1
    counts = stats.to_dict()
    assert {k: counts[k] for k in expected} == expected
    assert "f7\U000103ff" in {n.id for n in nodes}


def test_bytes_lines_parse_like_text():
    lines = malformed_corpus()
    assert (parse_records(parse_stream([line.encode() for line in lines]))
            == parse_records(parse_stream(lines)))


def canonical(record, ensure_ascii=False):
    """record as the canonical writers put it, non-ASCII left raw unless
    ensure_ascii."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=ensure_ascii)


@pytest.mark.parametrize("synthesize", [False, True])
def test_generated_corpora_match_reference(synthesize):
    rng = random.Random(606)
    for trial in range(80):
        if trial % 2:
            nodes, events = edge_graph_records(rng)
        else:
            nodes, events = random_graph_records(rng, allow_self_loops=True)
        lines = record_lines(nodes, events)
        if trial % 3 == 0:
            # Drop some declarations so dangling handling is exercised, and
            # repeat others so duplicates are.
            lines = lines[1::2] + lines[:4]
        if trial % 4 < 2:
            lines = [canonical(json.loads(line)) for line in lines]
        rng.shuffle(lines)
        assert_same_parse(lines, synthesize_dangling=synthesize)


# Canonical lines at each edge of the block patterns: (line, counter it
# lands in, whether the patterns take it). Declarations of p1, f1 and n1
# come first, each a line of its own.
CPROC = dict(PROC, ts=1)
CFILE = dict(FILE, ts=2)
CNET = dict(NET, ts=3)
CANONICAL = [
    # ts
    (canonical(event()).replace('"ts":5', '"ts":-0'), "accepted_events", True),
    (canonical(dict(CFILE, id="f2")).replace('"ts":2', '"ts":-0'),
     "accepted_nodes", True),
    (canonical(event(ts=2 ** 63 - 1)), "accepted_events", True),
    (canonical(event(ts=-2 ** 63)), "accepted_events", True),
    (canonical(event(ts=2 ** 63)), "malformed_events", False),
    (canonical(event(ts=-2 ** 63 - 1)), "malformed_events", False),
    (canonical(dict(CFILE, id="f3", ts=2 ** 63 - 1)), "accepted_nodes", True),
    (canonical(dict(CPROC, id="p2", ts=-2 ** 63)), "accepted_nodes", True),
    (canonical(dict(CFILE, id="f4", ts=2 ** 63)), "malformed_nodes", False),
    (canonical(dict(CNET, id="n2", ts=-2 ** 63 - 1)), "malformed_nodes",
     False),
    (canonical(event(ts=12345678901234567890)), "malformed_events", False),
    (canonical(event()).replace('"ts":5', '"ts":05'), "malformed_lines",
     False),
    # text
    (canonical(dict(CPROC, id="p3", cmdline="caf\u00e9 \u2615 \U0001f600")),
     "accepted_nodes", True),
    (canonical(dict(CFILE, id="f5", path="\x7f\x80\x85\x9f\u2028")),
     "accepted_nodes", True),
    (canonical(dict(CFILE, id="f6", path='say "hi"')), "accepted_nodes",
     False),
    (canonical(dict(CPROC, id="p4", cmdline="caf\u00e9"), ensure_ascii=True),
     "accepted_nodes", False),
    (canonical(dict(CPROC, id="p5", cmdline="ma\tke")).replace("\\t", "\t"),
     "malformed_lines", False),
    (canonical(dict(CPROC, id="p6")).replace(",", ", "), "accepted_nodes",
     False),
    (json.dumps(dict(CPROC, id="p7"), separators=(",", ":")),
     "accepted_nodes", False),
    ('{"cmdline":"a","cmdline":"b","id":"p8","kind":"process","ts":1}',
     "accepted_nodes", False),
    # fields
    (canonical(dict(CPROC, id="p9", cmdline="")), "accepted_nodes", True),
    (canonical(dict(CFILE, id="f7", path="")), "accepted_nodes", True),
    (canonical(dict(CFILE, id="")), "malformed_nodes", False),
    (canonical(event(subject="")), "malformed_events", False),
    (canonical(event(syscall="mmap")), "dropped_events", True),
    (canonical(event(syscall="")), "dropped_events", True),
    (canonical(dict(CNET, id="n3", rport=65535, lport=65535)),
     "accepted_nodes", True),
    (canonical(dict(CNET, id="n4", rport=0, lport=0, raddr="", laddr="")),
     "accepted_nodes", True),
    (canonical(dict(CNET, id="n5", rport=65536)), "malformed_nodes", False),
    (canonical(dict(CNET, id="n6", lport=65536)), "malformed_nodes", False),
    (canonical(FILE), "duplicate_nodes", False),
    (canonical(dict(FILE, id="f10")), "accepted_nodes", False),
    (canonical(dict(CFILE, id="f8", extra=1)), "accepted_nodes", False),
    (canonical(dict(CPROC, cmdline="again")), "duplicate_nodes", True),
    (canonical(event(target="ghost")), "dangling_events", True),
    (canonical(event(syscall="clone")), "malformed_events", True),
]
DECLARED = [canonical(r) for r in (CPROC, CFILE, CNET)]


@pytest.mark.parametrize("line, counter, fast", CANONICAL)
def test_canonical_line_edges(line, counter, fast):
    """One block a line: the patterns take exactly the lines marked fast,
    and every line lands where the reference puts it."""
    parsed = assert_same_file_parse(file_bytes(DECLARED + [line]))
    stats = parsed[0][2]
    assert stats.scanned_lines == (0 if fast else 1)
    assert stats.to_dict()[counter] == (4 if counter == "accepted_nodes"
                                        else 1)
    assert tally(stats) == 4


@pytest.mark.parametrize("synthesize", [False, True])
def test_canonical_line_edges_together(synthesize):
    lines = DECLARED + [line for line, _, _ in CANONICAL]
    parsed = assert_same_file_parse(file_bytes(lines), synthesize)
    assert parsed[0][2].scanned_lines == sum(not fast
                                             for _, _, fast in CANONICAL)


def filler(count, start=0):
    """count canonical process declarations and a read of each."""
    return ([canonical(dict(CPROC, id=f"q{i}", cmdline=f"job {i % 7}"))
             for i in range(start, start + count)]
            + [canonical(event(subject=f"q{i}", ts=i))
               for i in range(start, start + count)])


STRUCTURE = {
    "events before their endpoints": [
        canonical(event()), canonical(event(syscall="sendto", target="n1")),
        *DECLARED, *filler(80)],
    "duplicate inside one block and across two": [
        *DECLARED, canonical(dict(CPROC, cmdline="again")), *filler(80),
        canonical(dict(CFILE, path="/again")), canonical(event())],
    "crlf": [line + "\r" for line in DECLARED + filler(80)],
    "one crlf line": [*DECLARED, canonical(event()) + "\r", *filler(80)],
    "blank line": [*DECLARED, *filler(80), "", *filler(80, start=80)],
    "placeholders minted in event order": [
        canonical(event(subject="g-p2", target="g-f1")),
        *filler(80),
        canonical(event(syscall="sendto", subject="g-p1", target="g-n1")),
        canonical(event(subject="p1", target="g-f2")),
        canonical(event(syscall="clone", subject="g-p3", target="g-p3")),
        *DECLARED, *filler(80, start=80),
        canonical(event(subject="g-p1", target="f1"))],
}


@pytest.mark.parametrize("synthesize", [False, True])
@pytest.mark.parametrize("name", sorted(STRUCTURE))
def test_block_structure(name, synthesize):
    lines = STRUCTURE[name]
    assert len(file_bytes(lines)) > 2 * BLOCK_SIZES[-1]
    for end in ("\n", ""):
        parsed = assert_same_file_parse(file_bytes(lines, end), synthesize)
        # One line a block: only the \r lines go through the scanner.
        assert parsed[0][2].scanned_lines == sum(line.endswith("\r")
                                                 for line in lines)


@pytest.mark.parametrize("synthesize", [False, True])
def test_invalid_utf8_mid_block(synthesize):
    head = file_bytes(DECLARED + filler(40))
    tail = file_bytes(filler(40, start=40) + [canonical(event())])
    cut = canonical(dict(CFILE, id="f9", path="caf\u00e9")).encode()[:-10]
    assert cut.endswith(b"\xc3")
    for bad in (b"\xff\xfe", cut):
        _, _, stats = assert_same_file_parse(head + bad + b"\n" + tail,
                                             synthesize)[-1]
        assert stats.malformed_lines == 1
        # Only the block holding the bad line went through the scanner.
        assert 0 < stats.scanned_lines < tally(stats) - 1


def test_canonical_file_takes_no_scanner_and_spaced_takes_it_all():
    lines = DECLARED + filler(200)
    spaced = [json.dumps(json.loads(line)) for line in lines]
    for size, (canon, space) in zip(BLOCK_SIZES, zip(
            assert_same_file_parse(file_bytes(lines)),
            assert_same_file_parse(file_bytes(spaced)))):
        assert canon[2].scanned_lines == 0, size
        assert space[2].scanned_lines == len(lines), size
        assert columns(canon) == columns(space), size


# JSON values of every type, for fields the mutations overwrite.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=6)
    | st.sampled_from(["", "p0", "f0", "n0", "read", "clone", "sendto",
                       "event", "process", "file", "netflow"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)

IDS = st.sampled_from(["p0", "p1", "f0", "f1", "n0", "n1"])


@st.composite
def valid_records(draw):
    kind = draw(st.sampled_from(["process", "file", "netflow", "event"]))
    ts = draw(st.integers(min_value=-2, max_value=2 ** 64))
    if kind == "event":
        return {"kind": kind, "ts": ts, "subject": draw(IDS),
                "object": draw(IDS),
                "syscall": draw(st.sampled_from(
                    ["read", "clone", "sendto", "execve", "mmap"]))}
    record = {"kind": kind, "id": draw(IDS), "ts": ts}
    if kind == "process":
        record["cmdline"] = draw(st.text(max_size=8))
    elif kind == "file":
        record["path"] = draw(st.text(max_size=8))
    else:
        record.update(raddr=draw(st.text(max_size=8)),
                      rport=draw(st.integers(0, 65535)),
                      laddr="10.0.0.1", lport=draw(st.integers(0, 65535)))
    return record


@st.composite
def mutated_lines(draw):
    record = draw(valid_records())
    action = draw(st.sampled_from(
        ["keep", "keep", "overwrite", "delete", "truncate", "prefix"]))
    if action == "overwrite":
        key = draw(st.sampled_from(sorted(record) + ["kind", "extra"]))
        record[key] = draw(JSON_VALUES)
    elif action == "delete":
        del record[draw(st.sampled_from(sorted(record)))]
    if draw(st.booleans()):
        line = canonical(record, ensure_ascii=draw(st.booleans()))
    else:
        line = json.dumps(record, ensure_ascii=draw(st.booleans()))
    if action == "truncate":
        line = line[:draw(st.integers(0, len(line)))]
    elif action == "prefix":
        line = draw(st.sampled_from(
            ["\ufeff", " ", "\t", "x", "\u00a0", "\x1c"])) + line
    return line


def check_total(lines, synthesize):
    nodes, events, stats = assert_same_parse(lines, synthesize)
    non_blank = sum(1 for line in lines if line.strip())
    assert tally(stats) == non_blank
    assert len(nodes) == stats.accepted_nodes + stats.synthesized_nodes
    assert len(events) == stats.accepted_events


@given(st.lists(st.text(max_size=40), max_size=12), st.booleans())
def test_fuzz_arbitrary_text_lines(lines, synthesize):
    check_total(lines, synthesize)


@given(st.lists(mutated_lines(), max_size=25), st.booleans())
def test_fuzz_mutated_records(lines, synthesize):
    check_total(lines, synthesize)


@given(st.lists(st.binary(max_size=30)
                | mutated_lines().map(lambda line: line.encode()),
                max_size=15),
       st.booleans())
def test_fuzz_arbitrary_bytes_lines(raw, synthesize):
    """Undecodable lines are malformed; the rest parse as their text."""
    decoded, undecodable = [], 0
    for line in raw:
        try:
            decoded.append(line.decode("utf-8"))
        except UnicodeDecodeError:
            undecodable += 1
    nodes, events, stats = parse_records(parse_stream(
        raw, synthesize_dangling=synthesize))
    want_nodes, want_events, want = reference_parse_stream(
        decoded, synthesize_dangling=synthesize)
    want.malformed_lines += undecodable
    assert (nodes, events, stats) == (want_nodes, want_events, want)
    assert tally(stats) == undecodable + sum(1 for s in decoded if s.strip())
    assert_same_file_parse(b"\n".join(raw), synthesize)
